package types

// KeyIndex is the open-addressed hash index under three keyed states:
// the delta-aware group-by's group table (§3.3), the min/max bag, and
// the combining shuffle's pending store (§3.2, §5.2). It maps a
// 64-bit hash to dense entry ids — group ids, bag rows, store rows —
// and leaves the key compare to its user, which keeps the keys in its
// own lanes:
//
//	p, e := x.First(h)
//	for ; e >= 0; p, e = x.Next(p) {
//		if x.Hash(e) == h && keyEq(e) {
//			return e
//		}
//	}
//	return x.Add(p, h)
//
// Slots hold entry+1 (0 empty), linear-probed in a power of two kept at
// load ≤ 1/2; each entry keeps its hash in a lane. An entry need not
// hold a slot — one added at p < 0, or one a later Add superseded — and
// growth re-seats only what the slots hold.
type KeyIndex struct {
	slots  []int32  // entry+1, 0 empty
	hashes []uint64 // per entry
	seated int      // occupied slots
}

// Len reports the entry count, seated or not.
func (x *KeyIndex) Len() int { return len(x.hashes) }

// Hash reports entry e's hash.
func (x *KeyIndex) Hash(e int32) uint64 { return x.hashes[e] }

// First starts hash h's probe run: slot p and the entry it holds, or -1
// when the slot is empty, which ends the run.
func (x *KeyIndex) First(h uint64) (p int, e int32) {
	if len(x.slots) == 0 {
		return 0, -1
	}
	p = int(h) & (len(x.slots) - 1)
	return p, x.slots[p] - 1
}

// Next steps a probe run on from slot p.
func (x *KeyIndex) Next(p int) (int, int32) {
	p = (p + 1) & (len(x.slots) - 1)
	return p, x.slots[p] - 1
}

// Add appends an entry with hash h and seats it in slot p, where h's
// probe run stopped: an empty slot ending the run, or the slot of an
// entry the new one supersedes. When a new key would lift the load past
// 1/2, the index grows first and h is probed again for an empty slot.
// With p < 0 the entry is seated nowhere, and no probe finds it.
func (x *KeyIndex) Add(p int, h uint64) int32 {
	e := int32(len(x.hashes))
	x.hashes = append(x.hashes, h)
	if p < 0 {
		return e
	}
	if len(x.slots) == 0 || x.slots[p] == 0 {
		if 2*(x.seated+1) > len(x.slots) {
			x.grow()
			p = x.end(h)
		}
		x.seated++
	}
	x.slots[p] = e + 1
	return e
}

// grow doubles the slots (64 at least) and re-seats the entries the old
// slots held.
func (x *KeyIndex) grow() {
	old := x.slots
	x.slots = make([]int32, max(64, 2*len(old)))
	for _, s := range old {
		if s != 0 {
			x.slots[x.end(x.hashes[s-1])] = s
		}
	}
}

// end returns the empty slot that ends hash h's probe run.
func (x *KeyIndex) end(h uint64) int {
	mask := len(x.slots) - 1
	p := int(h) & mask
	for x.slots[p] != 0 {
		p = (p + 1) & mask
	}
	return p
}

// Reset drops every entry, keeping capacity.
func (x *KeyIndex) Reset() {
	if x.seated > 0 {
		clear(x.slots)
		x.seated = 0
	}
	x.hashes = x.hashes[:0]
}
