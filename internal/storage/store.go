// Package storage implements REX's partitioned, replicated local storage
// (§4.1) and the per-stratum Δᵢ checkpoint store used by incremental
// recovery (§4.3).
//
// Every node keeps the tuples of each table for which it is one of the
// ring owners of the tuple's partition key (primary or replica). At scan
// time a node emits only the tuples it primarily owns *under the query's
// partition snapshot*; after a failure, a new snapshot promotes replicas to
// primaries, so failed key ranges are covered without any data movement.
package storage

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// Store is one node's local storage.
type Store struct {
	node cluster.NodeID

	mu     sync.RWMutex
	tables map[string]*partition

	// examined, when set (tests only), receives the number of stored rows
	// each Delete or LookupOwned looked at.
	examined func(rows int)
}

// partition holds this node's copies of one table: a dense, unordered
// tuple slice that full scans walk, and beside it a partition-key hash
// index so a point lookup or a delete touches one chain instead of the
// table.
//
// The index is chained: heads[b] holds 1+position of the first row whose
// key hash falls in bucket b, next[pos] holds 1+position of the row after
// tuples[pos] in the same chain, and 0 ends a chain. Rows with equal keys
// simply share a chain, so an insert is O(1) however skewed the key is.
// Buckets double once chains average more than four rows, which keeps the
// index between 5 and 6 bytes per stored row (4 for the link, 1–2 for the
// bucket heads) and never moves a tuple.
//
// It is built by the table's first keyed operation (one pass over the
// rows) and maintained from then on: a table that is only ever loaded and
// scanned — a recursion's edge relation — never pays for it.
type partition struct {
	keyCol int
	tuples []storedTuple
	heads  []uint32 // nil until the first lookup or delete
	next   []uint32
	shift  uint8 // 64 − log2(len(heads))
}

type storedTuple struct {
	hash uint64
	tup  types.Tuple
}

const minBuckets = 8

// bucket maps a key hash to its chain. The ring assigns a node contiguous
// ranges of the hash space, so the hash is remixed (Fibonacci hashing)
// before its high bits pick a bucket; otherwise a node's rows would crowd
// into the buckets of the ranges it owns.
func (p *partition) bucket(h uint64) uint64 {
	return (h * 0x9E3779B97F4A7C15) >> p.shift
}

// ensureIndex builds the index if no keyed operation has needed it yet.
func (p *partition) ensureIndex() {
	if p.heads != nil {
		return
	}
	n := minBuckets
	for len(p.tuples) > 4*n {
		n *= 2
	}
	p.rebuild(n)
}

// rebuild re-links every row into n buckets (n a power of two).
func (p *partition) rebuild(n int) {
	p.heads = make([]uint32, n)
	p.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	p.next = p.next[:0]
	for pos, st := range p.tuples {
		b := p.bucket(st.hash)
		p.next = append(p.next, p.heads[b])
		p.heads[b] = uint32(pos + 1)
	}
}

func (p *partition) insert(t types.Tuple) error {
	if p.keyCol >= len(t) {
		return fmt.Errorf("tuple %v shorter than key column %d", t, p.keyCol)
	}
	h := types.HashValue(t[p.keyCol])
	p.tuples = append(p.tuples, storedTuple{hash: h, tup: t})
	if p.heads == nil {
		return nil // not indexed yet: the first keyed operation links every row
	}
	if len(p.tuples) > 4*len(p.heads) {
		p.rebuild(2 * len(p.heads))
		return nil
	}
	b := p.bucket(h)
	p.next = append(p.next, p.heads[b])
	p.heads[b] = uint32(len(p.tuples))
	return nil
}

// link returns the chain link — a bucket head or a row's next — that
// points at tuples[pos].
func (p *partition) link(pos int) *uint32 {
	l := &p.heads[p.bucket(p.tuples[pos].hash)]
	for *l != uint32(pos+1) {
		l = &p.next[*l-1]
	}
	return l
}

// delete removes the first copy equal to t on its key's chain, reporting
// how many stored rows it examined. The hole is filled by the last row
// (the slice stays dense), whose chain link is repointed.
func (p *partition) delete(t types.Tuple) (found bool, examined int) {
	if p.keyCol >= len(t) {
		return false, 0
	}
	p.ensureIndex()
	h := types.HashValue(t[p.keyCol])
	l := &p.heads[p.bucket(h)]
	for ; *l != 0; l = &p.next[*l-1] {
		examined++
		if st := &p.tuples[*l-1]; st.hash == h && st.tup.Equal(t) {
			break
		}
	}
	if *l == 0 {
		return false, examined
	}
	pos, last := int(*l-1), len(p.tuples)-1
	*l = p.next[pos]
	if pos != last {
		*p.link(last) = uint32(pos + 1)
		p.tuples[pos], p.next[pos] = p.tuples[last], p.next[last]
	}
	p.tuples, p.next = p.tuples[:last], p.next[:last]
	return true, examined
}

// NewStore creates an empty store for a node.
func NewStore(node cluster.NodeID) *Store {
	return &Store{node: node, tables: map[string]*partition{}}
}

// Node reports the owning node.
func (s *Store) Node() cluster.NodeID { return s.node }

// CreateTable declares a local table partitioned by keyCol.
func (s *Store) CreateTable(name string, keyCol int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		s.tables[name] = &partition{keyCol: keyCol}
	}
}

func (s *Store) unknownTable(table string) error {
	return fmt.Errorf("storage: node %d: unknown table %q", s.node, table)
}

// Insert stores a tuple copy locally (callers decide replica placement).
func (s *Store) Insert(table string, t types.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.tables[table]
	if !ok {
		return s.unknownTable(table)
	}
	return s.insertLocked(table, p, t)
}

func (s *Store) insertLocked(table string, p *partition, t types.Tuple) error {
	if err := p.insert(t); err != nil {
		return fmt.Errorf("storage: node %d: table %q: %w", s.node, table, err)
	}
	return nil
}

// Delete removes one stored copy equal to t, reporting whether a copy was
// found. It follows the key's index chain, so its cost is the rows sharing
// t's key, not the table. Ingestion deletes call it on every ring owner of
// the tuple's key, mirroring how Insert placed the replicas.
func (s *Store) Delete(table string, t types.Tuple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.tables[table]
	return ok && s.deleteLocked(p, t)
}

func (s *Store) deleteLocked(p *partition, t types.Tuple) bool {
	found, examined := p.delete(t)
	if s.examined != nil {
		s.examined(examined)
	}
	return found
}

// ApplyDelta applies one base-table change to this node's local copies:
// insertions (and δ-updates) store a copy, deletions remove one, and
// replacements do both. Unknown tables error — ingestion never creates
// tables implicitly.
//
// ApplyDelta is a retention boundary: delta tuples arrive from transport
// frames and batch materializers whose buffers the caller may reuse, so
// the inserted tuple is cloned before it is stored. Loader.Load clones at
// its own boundary (once per tuple, shared by the replicas), so every
// path into a store owns what it keeps.
func (s *Store) ApplyDelta(table string, d types.Delta) error {
	var ins types.Tuple
	if d.Op != types.OpDelete {
		ins = d.Tup.Clone()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.tables[table]
	if !ok {
		return s.unknownTable(table)
	}
	switch d.Op {
	case types.OpInsert, types.OpUpdate:
		return s.insertLocked(table, p, ins)
	case types.OpDelete:
		s.deleteLocked(p, d.Tup)
	case types.OpReplace:
		s.deleteLocked(p, d.Old)
		return s.insertLocked(table, p, ins)
	}
	return nil
}

// ScanOwned streams the tuples of table for which this node is the primary
// owner under snap. This is the base-case scan and also how takeover nodes
// rebuild immutable state from replicas during recovery.
func (s *Store) ScanOwned(table string, snap *cluster.Snapshot, emit func(types.Tuple) error) error {
	s.mu.RLock()
	p, ok := s.tables[table]
	if !ok {
		s.mu.RUnlock()
		return s.unknownTable(table)
	}
	tuples := p.tuples
	s.mu.RUnlock()
	for _, st := range tuples {
		primary, err := snap.Primary(st.hash)
		if err != nil {
			return err
		}
		if primary != s.node {
			continue
		}
		if err := emit(st.tup); err != nil {
			return err
		}
	}
	return nil
}

// LookupOwned streams the tuples of table whose partition-key hash is
// keyHash, if this node is that hash's primary owner under snap — exactly
// what ScanOwned would emit filtered by stored hash, at the cost of one
// index chain. Distinct keys can share a hash, so callers that want one
// key still compare it.
func (s *Store) LookupOwned(table string, keyHash uint64, snap *cluster.Snapshot, emit func(types.Tuple) error) error {
	s.mu.RLock()
	p, ok := s.tables[table]
	if !ok {
		s.mu.RUnlock()
		return s.unknownTable(table)
	}
	primary, err := snap.Primary(keyHash)
	if err != nil || primary != s.node {
		s.mu.RUnlock()
		return err
	}
	if p.heads == nil {
		// The table's first keyed read builds its index; tables are never
		// dropped, so p outlives the lock hand-over.
		s.mu.RUnlock()
		s.mu.Lock()
		p.ensureIndex()
		s.mu.Unlock()
		s.mu.RLock()
	}
	// Matches are collected under the lock and emitted after it drops, so
	// emit may run a whole pipeline without holding up writers.
	var buf [8]types.Tuple
	hits, examined := buf[:0], 0
	for l := p.heads[p.bucket(keyHash)]; l != 0; l = p.next[l-1] {
		examined++
		if st := &p.tuples[l-1]; st.hash == keyHash {
			hits = append(hits, st.tup)
		}
	}
	s.mu.RUnlock()
	if s.examined != nil {
		s.examined(examined)
	}
	for _, t := range hits {
		if err := emit(t); err != nil {
			return err
		}
	}
	return nil
}

// CountOwned reports how many tuples this node primarily owns under snap.
func (s *Store) CountOwned(table string, snap *cluster.Snapshot) (int, error) {
	n := 0
	err := s.ScanOwned(table, snap, func(types.Tuple) error { n++; return nil })
	return n, err
}

// CountLocal reports all local copies (primary + replica) of a table.
func (s *Store) CountLocal(table string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if p, ok := s.tables[table]; ok {
		return len(p.tuples)
	}
	return 0
}

// Tables lists local table names, sorted.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Loader distributes a dataset across a set of stores following a ring:
// each tuple is stored at every ring owner of its partition key (primary
// plus replication−1 replicas), the scheme of §4.1. Nil entries in Stores
// mark nodes hosted by other processes: their share of the data is
// skipped here and loaded by their own daemons from the same
// deterministic dataset.
type Loader struct {
	Ring   *cluster.Ring
	Stores []Backend
}

// Load creates the table on every local store and distributes the tuples.
//
// Load is a retention boundary: callers may reuse or mutate the tuple
// slice (and its backing arrays) after Load returns, so each stored tuple
// is cloned once, with the ring owners sharing the clone — stores never
// mutate stored tuples in place, so replicas aliasing one clone is safe.
func (l *Loader) Load(table string, keyCol int, tuples []types.Tuple) error {
	for _, st := range l.Stores {
		if st != nil {
			st.CreateTable(table, keyCol)
		}
	}
	for _, t := range tuples {
		h := types.HashValue(t[keyCol])
		var clone types.Tuple
		for _, owner := range l.Ring.Owners(h) {
			if int(owner) >= len(l.Stores) {
				return fmt.Errorf("storage: owner %d beyond store set", owner)
			}
			if l.Stores[owner] == nil {
				continue // remote node: loaded in its own process
			}
			if clone == nil {
				clone = t.Clone()
			}
			if err := l.Stores[owner].Insert(table, clone); err != nil {
				return err
			}
		}
	}
	return nil
}

// Apply distributes a base-table delta batch to the ring owners of each
// delta's key — the incremental counterpart of Load. Replacements whose old
// and new keys hash to different owners are split into a deletion at the
// old home and an insertion at the new one.
func (l *Loader) Apply(table string, keyCol int, deltas []types.Delta) error {
	for _, st := range l.Stores {
		if st != nil {
			st.CreateTable(table, keyCol)
		}
	}
	return types.RouteByKey(deltas, keyCol, func(h uint64, d types.Delta) error {
		for _, owner := range l.Ring.Owners(h) {
			if int(owner) >= len(l.Stores) {
				return fmt.Errorf("storage: owner %d beyond store set", owner)
			}
			if l.Stores[owner] == nil {
				continue // remote node: applied in its own process
			}
			if err := l.Stores[owner].ApplyDelta(table, d); err != nil {
				return err
			}
		}
		return nil
	})
}
