package cluster

import "github.com/rex-data/rex/internal/types"

// Compactor coalesces a buffered row-form delta stream — the DBToaster
// insight: the win is compacting the delta stream, not the link. It
// serves the ingest paths (session and standing-query staging, the server
// pool's fan-out), which hold rows; the shuffle applies the same rules
// lane-wise in DeltaStore, and the two are tested against each other.
//
// Rules (per routing key, in arrival order):
//
//   - annihilation:   +(t) then −(t)            → nothing
//   - upsert folding: +(t) then →(t⇒t')         → +(t')
//   - chain folding:  →(a⇒b) then →(b⇒c)        → →(a⇒c)
//   - retraction:     →(a⇒b) then −(b)          → −(a)
//   - δ merging:      δ(E₁) then δ(E₂)          → δ(E₁⊕E₂) via MergeFunc
//
// Folding moves a delta's effect to the position of its key's previous
// delta, so the relative order of deltas with *different* keys can change.
// That is sound for REX's keyed consumers (fixpoint, group-by, join
// buckets keyed by the same columns the rehash partitions on), which is
// why the shuffle folds only where the plan decides it may
// (exec.OpSpec.Fold).
type Compactor struct {
	key   KeyFunc
	merge MergeFunc

	order []types.Delta
	dead  []bool
	last  map[types.Value]int
	live  int

	added, annihilated, folded int
}

// KeyFunc extracts the routing key of a delta's tuple.
type KeyFunc func(types.Tuple) types.Value

// MergeFunc merges two same-key δ() deltas into one (the aggregate-delta
// merge ⊕ of §3.2 delta semantics, e.g. summing partial PageRank
// contributions). It reports false when the pair cannot be merged.
type MergeFunc func(a, b types.Delta) (types.Delta, bool)

// NewCompactor creates an empty compactor; merge may be nil, disabling
// δ-merging while keeping the annihilation and folding rules.
func NewCompactor(key KeyFunc, merge MergeFunc) *Compactor {
	return &Compactor{key: key, merge: merge, last: map[types.Value]int{}}
}

// Len reports the live (post-compaction) delta count.
func (c *Compactor) Len() int { return c.live }

// Buffered reports the buffer's physical size: live deltas plus
// annihilated slots not yet reclaimed by Drain. Flush triggers key off
// this, not Len, so heavy annihilation cannot grow the buffer unboundedly
// while the live count stays near zero.
func (c *Compactor) Buffered() int { return len(c.order) }

// Stats reports cumulative counters: deltas added, deltas removed by
// +/− annihilation, and deltas absorbed by folding or δ-merging.
func (c *Compactor) Stats() (added, annihilated, folded int) {
	return c.added, c.annihilated, c.folded
}

// Add buffers d, applying the compaction rules against the key's previous
// live delta.
func (c *Compactor) Add(d types.Delta) {
	c.added++
	k := c.key(d.Tup)
	if i, ok := c.last[k]; ok && i >= 0 && !c.dead[i] {
		p := c.order[i]
		switch {
		case p.Op == types.OpUpdate && d.Op == types.OpUpdate && c.merge != nil:
			if m, ok := c.merge(p, d); ok {
				c.order[i] = m
				c.folded++
				return
			}
		case p.Op == types.OpInsert && d.Op == types.OpDelete && p.Tup.Equal(d.Tup):
			c.dead[i] = true
			c.live--
			c.last[k] = -1 // an older delta for k may remain; stop tracking
			c.annihilated += 2
			return
		case p.Op == types.OpInsert && d.Op == types.OpReplace && p.Tup.Equal(d.Old):
			c.order[i] = types.Insert(d.Tup)
			c.folded++
			return
		case p.Op == types.OpReplace && d.Op == types.OpReplace && p.Tup.Equal(d.Old):
			c.order[i] = types.Replace(p.Old, d.Tup)
			c.folded++
			return
		case p.Op == types.OpReplace && d.Op == types.OpDelete && p.Tup.Equal(d.Tup):
			c.order[i] = types.Delete(p.Old)
			c.folded++
			return
		}
	}
	c.last[k] = len(c.order)
	c.order = append(c.order, d)
	c.dead = append(c.dead, false)
	c.live++
}

// Drain returns the compacted batch and resets the buffer. Cumulative
// stats survive draining.
func (c *Compactor) Drain() []types.Delta {
	var out []types.Delta
	if c.live > 0 {
		out = make([]types.Delta, 0, c.live)
		for i, d := range c.order {
			if !c.dead[i] {
				out = append(out, d)
			}
		}
	}
	c.order = nil
	c.dead = nil
	c.last = map[types.Value]int{}
	c.live = 0
	return out
}
