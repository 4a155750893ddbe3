package types

import (
	"math/rand"
	"testing"
)

// keyIndexModel drives a KeyIndex the way its users do — keys kept
// beside it, compared at the call site — against a Go map from key to
// the entry that should be seated for it.
type keyIndexModel struct {
	x     KeyIndex
	keys  []int // per entry
	seat  map[int]int32
	hash  func(int) uint64
	t     *testing.T
	tries int
}

// probe returns the slot where key's probe run stopped and the entry
// seated for key, -1 when none is.
func (m *keyIndexModel) probe(key int) (int, int32) {
	h := m.hash(key)
	p, e := m.x.First(h)
	for ; e >= 0; p, e = m.x.Next(p) {
		if m.x.Hash(e) == h && m.keys[e] == key {
			return p, e
		}
	}
	return p, -1
}

// add finds key, adding an entry for it when absent, or always when
// reseat is set (the new entry supersedes the seated one).
func (m *keyIndexModel) add(key int, reseat bool) {
	p, e := m.probe(key)
	if want, ok := m.seat[key]; ok != (e >= 0) || ok && want != e {
		m.t.Fatalf("probe(%d) = %d, model has %d (seated %v)", key, e, want, ok)
	}
	if e >= 0 && !reseat {
		return
	}
	e = m.x.Add(p, m.hash(key))
	if int(e) != len(m.keys) {
		m.t.Fatalf("Add returned entry %d, want %d", e, len(m.keys))
	}
	m.keys = append(m.keys, key)
	m.seat[key] = e
}

// unseated adds an entry for key that no probe may find.
func (m *keyIndexModel) unseated(key int) {
	e := m.x.Add(-1, m.hash(key))
	if int(e) != len(m.keys) {
		m.t.Fatalf("Add(-1) returned entry %d, want %d", e, len(m.keys))
	}
	m.keys = append(m.keys, key)
}

// check holds the slots to the model: they seat exactly the model's
// entries, at load ≤ 1/2, each found by its key; every other key misses.
func (m *keyIndexModel) check() {
	x := &m.x
	if x.Len() != len(m.keys) {
		m.t.Fatalf("Len = %d, want %d", x.Len(), len(m.keys))
	}
	seated := map[int32]bool{}
	for _, s := range x.slots {
		if s != 0 {
			seated[s-1] = true
		}
	}
	if len(seated) != len(m.seat) || x.seated != len(m.seat) || 2*x.seated > len(x.slots) {
		m.t.Fatalf("%d slots seat %d entries (count %d), model seats %d", len(x.slots), len(seated), x.seated, len(m.seat))
	}
	for key, want := range m.seat {
		if !seated[want] {
			m.t.Fatalf("entry %d of key %d is not seated", want, key)
		}
		if _, e := m.probe(key); e != want {
			m.t.Fatalf("probe(%d) = %d, want %d", key, e, want)
		}
	}
	for k := 0; k < m.tries; k++ {
		if _, ok := m.seat[k]; !ok {
			if _, e := m.probe(k); e >= 0 {
				m.t.Fatalf("probe(%d) = %d for an unseated key", k, e)
			}
		}
	}
}

func TestKeyIndexMatchesModel(t *testing.T) {
	hashes := map[string]func(int) uint64{
		"mixed": func(k int) uint64 { return HashValue(int64(k)) },
		// Every hash ends in 12 zero bits: each key starts its probe at
		// slot 0 until the index passes 4096 slots.
		"shared low bits": func(k int) uint64 { return HashValue(int64(k)) << 12 },
		// Distinct keys with equal hashes: only the key compare tells
		// them apart.
		"equal hashes": func(k int) uint64 { return uint64(k % 5) },
	}
	for name, hash := range hashes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			for round := 0; round < 20; round++ {
				m := &keyIndexModel{seat: map[int]int32{}, hash: hash, t: t, tries: 1 + rng.Intn(600)}
				ops := rng.Intn(2000)
				for i := 0; i < ops; i++ {
					key := rng.Intn(m.tries)
					switch r := rng.Intn(10); {
					case r < 6:
						m.add(key, false)
					case r < 8:
						m.add(key, true) // a later same-key row, as DeltaStore seats it
					default:
						m.unseated(key) // a Fresh group
					}
					if i%97 == 0 {
						m.check()
					}
				}
				m.check()

				capBefore := len(m.x.slots)
				m.x.Reset()
				m.keys, m.seat = m.keys[:0], map[int]int32{}
				if len(m.x.slots) != capBefore {
					t.Fatalf("Reset changed the slot count from %d to %d", capBefore, len(m.x.slots))
				}
				m.check()
				for i := 0; i < 50; i++ {
					m.add(rng.Intn(m.tries), rng.Intn(4) == 0)
				}
				m.check()
			}
		})
	}
}

// An index that never grew holds no slots: probes miss, and the first
// Add sizes it.
func TestKeyIndexEmpty(t *testing.T) {
	var x KeyIndex
	p, e := x.First(42)
	if e != -1 {
		t.Fatalf("First on an empty index = %d, want -1", e)
	}
	x.Reset()
	if g := x.Add(p, 42); g != 0 || len(x.slots) != 64 {
		t.Fatalf("Add = %d with %d slots, want 0 with 64", g, len(x.slots))
	}
	if _, e := x.First(42); e != 0 {
		t.Fatalf("First after Add = %d, want 0", e)
	}
}
