package cluster

import "github.com/rex-data/rex/internal/types"

// DeltaStore is the rehash send side's pending store for one destination:
// a columnar types.DeltaBatch under construction that drains as one
// columnar wire frame. Without compaction it is a plain append buffer.
// With compaction it is the combining shuffle of §3.2/§5.2: a
// types.KeyIndex from routing hash to the key's latest row lets
// every arriving delta meet its key's previous delta, and the Compactor's
// five rules (annihilation, upsert fold, chain fold, retraction, δ-merge)
// are applied in place in the typed lanes — no row is boxed, keyed into a
// map, or cloned to be folded.
//
// AppendRows takes a batch's rows a selection at a time. A selection of
// δ() rows under one int routing key whose lanes are typed alike and
// NULL-free in the batch and in the store — PageRank's and SSSP's
// contributions — folds on lanes (types.LaneFold): one loop probes the
// index by the key lane, merges each row into its key's live δ() row in
// place, and appends the rest lane to lane. Every other selection goes a
// row at a time: a δ() row that merges into its key's live δ() row folds
// lane to lane from the source batch and is never appended; every other
// row is copied and then settled.
//
// The same soundness condition as Compactor applies: folding moves a
// delta's effect to its key's previous position, so deltas of different
// keys may reorder; same-key order is preserved.
type DeltaStore struct {
	b       *types.DeltaBatch
	key     []int        // routing-key columns; nil = the whole tuple (broadcast edges)
	folds   []types.Fold // declared δ-merge per column; nil when none
	compact bool

	// The index: one entry per row, seating each key's latest row. A row
	// that a later same-key row supersedes leaves it; an annihilated row
	// stays seated — the key just has no live delta to fold into until
	// its next arrival takes the slot.
	index types.KeyIndex
	dead  []bool // rows annihilated in place, reclaimed by Drain
	nDead int

	lanes    types.LaneFold // AppendRows' plan for a selection that folds on lanes
	laneRows int            // rows AppendRows took on lanes

	added, annihilated, folded int
	addedAtReset               int
}

// NewDeltaStore creates an empty store. key lists the routing-key columns
// (nil on keyless broadcast edges, where the whole tuple is the key);
// merge declares, per column index, the aggregate ("sum", "min", "max")
// two same-key δ() deltas fold with — exec.OpSpec.CompactMerge. With
// compact false the store only appends.
func NewDeltaStore(key []int, merge map[int]string, compact bool) *DeltaStore {
	s := &DeltaStore{b: types.GetBatch(), key: key, compact: compact}
	if len(key) == 0 {
		s.key = nil
	}
	if compact {
		for col, name := range merge {
			f, ok := types.ParseFold(name)
			if !ok || s.isKey(col) {
				// Key columns are equal by construction; with nothing else
				// declared folds stays nil and δ() deltas never merge.
				continue
			}
			for len(s.folds) <= col {
				s.folds = append(s.folds, types.FoldNone)
			}
			s.folds[col] = f
		}
	}
	return s
}

// Len reports the store's physical row count: live deltas plus annihilated
// rows not yet reclaimed by Drain. Flush triggers key off it, so heavy
// annihilation cannot grow the store unboundedly.
func (s *DeltaStore) Len() int { return s.b.Len() }

// Folded reports whether any delta added since the last Reset was
// absorbed by a compaction rule — the stream repeats keys, so holding the
// window open keeps paying.
func (s *DeltaStore) Folded() bool { return s.added-s.addedAtReset > s.b.Len() }

// Pending reports how many deltas were added since the last Reset.
func (s *DeltaStore) Pending() int { return s.added - s.addedAtReset }

// Stats reports cumulative counters: deltas added, deltas removed by
// +/− annihilation, and deltas absorbed by folding or δ-merging.
func (s *DeltaStore) Stats() (added, annihilated, folded int) {
	return s.added, s.annihilated, s.folded
}

// Append adds a row-form delta whose routing key hashes to h — the hash
// the sender routed it by (Tuple.HashKey over the key columns, Tuple.Hash
// on keyless edges), reused here as the index hash. It reports false,
// adding nothing, when the delta's arity diverges from the pending rows':
// drain and retry.
func (s *DeltaStore) Append(d types.Delta, h uint64) bool {
	if !s.b.CanAppend(d) {
		return false
	}
	s.b.Append(d)
	s.settle(h)
	return true
}

// AppendRows adds the rows sel of src, in order. hashes holds every src
// row's routing hash, indexed by row (DeltaBatch.HashKeys over the key
// columns, HashRows on keyless edges). Each row meets its key's previous
// live delta as Append's row would, with one shortcut: a δ() row that
// merges into its key's live δ() row folds lane to lane straight out of
// src and is never copied into the store. Every other row is copied lane
// to lane and then settled. Whether the selection folds on lanes or a row
// at a time, the folds, the order, the counters and the stops are the
// same.
//
// It stops early so the caller can apply its flush rule: after a row that
// grew the store to a multiple of every rows (every ≤ 0: never), reporting
// full, and before a row whose arity diverges from the pending rows'
// (drain and retry). n is how many rows of sel it took.
func (s *DeltaStore) AppendRows(src *types.DeltaBatch, sel []int32, hashes []uint64, every int) (n int, full bool) {
	if s.compact && s.folds != nil && len(s.key) == 1 && s.lanes.Plan(s.b, src, sel, s.key[0], s.folds) {
		return s.foldLanes(src, sel, hashes, every)
	}
	for k, i := range sel {
		j := int(i)
		if !s.b.CanAppendRowFrom(src, j) {
			return k, false
		}
		before := s.b.Len()
		s.addFrom(src, j, hashes[j])
		if l := s.b.Len(); l > before && every > 0 && l%every == 0 {
			return k + 1, true
		}
	}
	return len(sel), false
}

// foldLanes is AppendRows for a selection s.lanes is planned for: every
// row is δ(), so a row merges into its key's latest row if that is a live
// δ() row (an annihilated row is a + row) and the merge takes, and is
// appended and seated otherwise.
func (s *DeltaStore) foldLanes(src *types.DeltaBatch, sel []int32, hashes []uint64, every int) (n int, full bool) {
	lf := &s.lanes
	for k, i := range sel {
		j, h := int(i), hashes[i]
		key := lf.Key(src, j)
		s.added++
		p, r := s.index.First(h)
		for r >= 0 && lf.KeyAt(int(r)) != key {
			p, r = s.index.Next(p)
		}
		if r >= 0 && s.b.Op(int(r)) == types.OpUpdate && lf.Merge(int(r), src, j) {
			s.folded++
			continue
		}
		lf.Append(src, j)
		s.index.Add(p, h)
		s.dead = append(s.dead, false)
		if l := s.b.Len(); every > 0 && l%every == 0 {
			s.laneRows += k + 1
			return k + 1, true
		}
	}
	s.laneRows += len(sel)
	return len(sel), false
}

// addFrom adds row j of src. A δ() row (with merges declared) whose lanes
// read alike in src and in the store probes its key first: if it merges,
// that is the whole of its cost. Otherwise — and for every other row — the
// outcome is settle's after the copy; the probe's slot is reused, since
// an unmerged δ() row meets no other rule.
func (s *DeltaStore) addFrom(src *types.DeltaBatch, j int, h uint64) {
	if !s.compact || s.folds == nil || src.Op(j) != types.OpUpdate || !s.b.KeepsLanes(src, j) {
		s.b.AppendRowFrom(src, j)
		s.settle(h)
		return
	}
	s.added++
	p, r := s.probe(h, src, j)
	if r >= 0 && !s.dead[r] && s.b.Op(r) == types.OpUpdate && s.merge(r, src, j) {
		s.folded++
		return
	}
	s.b.AppendRowFrom(src, j)
	s.index.Add(p, h) // the store's last row, now its key's latest
	s.dead = append(s.dead, false)
}

// settle runs the compaction rules for the row just appended against its
// key's previous live delta; a row the rules absorb is popped again. Keys
// equal under ColsEqual hash alike except in corners (−0.0 against 0 in a
// multi-column key) where the miss merely forgoes a fold.
func (s *DeltaStore) settle(h uint64) {
	s.added++
	if !s.compact {
		return
	}
	n := s.b.Len() - 1
	p, r := s.probe(h, s.b, n)
	if r >= 0 && !s.dead[r] && s.fold(r, n) {
		s.b.Truncate(n)
		return
	}
	s.index.Add(p, h) // the store's last row, now its key's latest
	s.dead = append(s.dead, false)
}

// probe finds the key of row j of src (hash h) in the index: the slot
// holding the key's latest row r, or the empty slot that ends the key's
// probe run with r = -1.
func (s *DeltaStore) probe(h uint64, src *types.DeltaBatch, j int) (p, r int) {
	p, e := s.index.First(h)
	for ; e >= 0; p, e = s.index.Next(p) {
		if s.index.Hash(e) == h && s.b.ColsEqualFrom(int(e), src, j, s.key) {
			return p, int(e)
		}
	}
	return p, -1
}

// fold applies the first matching rule to previous row p and arriving row
// n, reporting whether n was absorbed.
func (s *DeltaStore) fold(p, n int) bool {
	b := s.b
	switch pop, op := b.Op(p), b.Op(n); {
	case pop == types.OpUpdate && op == types.OpUpdate && s.folds != nil:
		if s.merge(p, b, n) {
			s.folded++
			return true
		}
	case pop == types.OpInsert && op == types.OpDelete && b.ColsEqual(p, n, nil):
		s.dead[p] = true
		s.nDead++
		s.annihilated += 2
		return true
	case pop == types.OpInsert && op == types.OpReplace && b.NewEqualsOld(p, n),
		pop == types.OpReplace && op == types.OpReplace && b.NewEqualsOld(p, n):
		// +(t) then →(t⇒t') is +(t'); →(a⇒b) then →(b⇒c) is →(a⇒c).
		b.CopyRow(p, n)
		s.folded++
		return true
	case pop == types.OpReplace && op == types.OpDelete && b.ColsEqual(p, n, nil):
		b.RetractRow(p)
		s.folded++
		return true
	}
	return false
}

// merge δ-merges row j of src (the store's own batch, or a batch whose
// row KeepsLanes) into row p: declared columns fold, key columns are
// equal by construction, every other column must already be equal.
func (s *DeltaStore) merge(p int, src *types.DeltaBatch, j int) bool {
	b := s.b
	for c := 0; c < b.NumCols(); c++ {
		if f := s.foldOf(c); f != types.FoldNone {
			if !b.CanFoldFrom(c, p, src, j, f) {
				return false
			}
		} else if col := [1]int{c}; !s.isKey(c) && !b.ColsEqualFrom(p, src, j, col[:]) {
			return false
		}
	}
	for c := 0; c < b.NumCols(); c++ {
		if f := s.foldOf(c); f != types.FoldNone {
			b.FoldFrom(c, p, src, j, f)
		}
	}
	return true
}

func (s *DeltaStore) foldOf(c int) types.Fold {
	if c < len(s.folds) {
		return s.folds[c]
	}
	return types.FoldNone
}

func (s *DeltaStore) isKey(c int) bool {
	for _, k := range s.key {
		if k == c {
			return true
		}
	}
	return false
}

// Drain reclaims annihilated rows and returns the pending batch. The
// batch is the store's own: it is valid until the next Append or Reset,
// and the caller Resets the store once the batch is shipped.
func (s *DeltaStore) Drain() *types.DeltaBatch {
	if s.nDead > 0 {
		s.b.DropRows(s.dead)
		s.nDead = 0
	}
	return s.b
}

// Reset empties the store for the next window, keeping batch and index
// capacity. Cumulative stats survive.
func (s *DeltaStore) Reset() {
	s.b.Reset()
	s.index.Reset()
	s.dead = s.dead[:0]
	s.nDead = 0
	s.addedAtReset = s.added
}

// Release returns the store's batch to the pool; the store must not be
// used afterwards.
func (s *DeltaStore) Release() {
	types.PutBatch(s.b)
	s.b = nil
}
