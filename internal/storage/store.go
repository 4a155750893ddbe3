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

	mu     sync.RWMutex // guards the tables map; each table has its own lock
	tables map[string]*partition

	// examined, when set (tests only), receives the number of stored rows
	// each Delete or LookupOwned looked at; decided receives the number of
	// ownership decisions each ScanBatches or CountOwned made.
	examined func(rows int)
	decided  func(segments int)
}

// chunkRows caps a stored chunk: the size of a batch the pool takes back,
// so an emitted chunk is the batch a scan would otherwise have built.
const chunkRows = types.MaxPooledRows

// partition holds this node's copies of one table in typed lanes, grouped
// by the ring segment (cluster.Ring.SegmentOf) of each row's partition-key
// hash. A scan decides ownership once per segment and hands the segment's
// chunks to the executor as they are stored.
//
// The partition records the ring its rows are placed by. Until it has
// one, every row sits in a single segment; any call carrying a snapshot
// over a different ring, and the Loader with its own, re-places the rows
// in one pass. In practice a table is placed once, by its load or its
// first scan.
//
// Beside the lanes sits a chained partition-key hash index, so a point
// lookup or a delete touches one chain instead of the table. A row's
// reference packs its segment into the high bits and its position in the
// segment into the low rowBits. heads[b] holds 1+reference of the first
// row whose key hash falls in bucket b, a segment's next[pos] holds
// 1+reference of the row after it in the same chain, and 0 ends a chain.
// Rows with equal keys share a chain (and a segment), so an insert is O(1)
// however skewed the key is. Buckets double once chains average more than
// four rows, which keeps the index between 5 and 6 bytes per stored row
// (4 for the link, 1–2 for the bucket heads) and never moves a row.
//
// The index is built by the table's first keyed operation (one pass over
// the rows) and maintained from then on: a table that is only ever loaded
// and scanned — a recursion's edge relation — never pays for it.
type partition struct {
	mu      sync.RWMutex
	keyCol  int
	arity   int           // fixed by the first row stored; 0 until then
	ring    *cluster.Ring // nil until placed: one segment
	segs    []segment
	rows    int
	rowBits uint8 // 32 − bits to number the segments

	heads []uint32 // nil until the first lookup or delete
	shift uint8    // 64 − log2(len(heads))
}

// segment holds the rows of one ring segment: chunk k holds rows
// [k·chunkRows, (k+1)·chunkRows), each an all-insert DeltaBatch, beside a
// lane of every row's key hash and, once indexed, its chain link.
type segment struct {
	chunks []*types.DeltaBatch
	hashes []uint64
	next   []uint32
}

const minBuckets = 8

func newPartition(keyCol int) *partition {
	return &partition{keyCol: keyCol, segs: make([]segment, 1), rowBits: 32}
}

// segmentOf maps a key hash to its segment under the partition's ring.
func (p *partition) segmentOf(h uint64) int {
	if p.ring == nil {
		return 0
	}
	return p.ring.SegmentOf(h)
}

// maxSegmentRows is the most rows one segment can number in rowBits
// (references stay below 2³²−1, so 1+reference fits a link).
func (p *partition) maxSegmentRows() int { return 1<<p.rowBits - 1 }

// link is 1+reference of row pos of segment seg.
func (p *partition) link(seg, pos int) uint32 { return uint32(seg<<p.rowBits|pos) + 1 }

// row resolves a non-zero link to its segment and position.
func (p *partition) row(l uint32) (*segment, int) {
	ref := int(l - 1)
	return &p.segs[ref>>p.rowBits], ref & (1<<p.rowBits - 1)
}

// place re-groups the rows by ring's segments, in one pass.
func (p *partition) place(ring *cluster.Ring) error {
	if p.ring == ring {
		return nil
	}
	segs := make([]segment, ring.Segments())
	rowBits := uint8(32 - bits.Len(uint(len(segs)-1)))
	for i := range p.segs {
		old := &p.segs[i]
		for pos, h := range old.hashes {
			dst := &segs[ring.SegmentOf(h)]
			if len(dst.hashes) == 1<<rowBits-1 {
				return fmt.Errorf("more than %d rows in one of %d ring segments", 1<<rowBits-1, len(segs))
			}
			dst.chunkFor(len(dst.hashes)).AppendRowFrom(old.chunk(pos), pos%chunkRows)
			dst.hashes = append(dst.hashes, h)
		}
	}
	p.ring, p.segs, p.rowBits = ring, segs, rowBits
	if p.heads != nil {
		p.rebuild(len(p.heads))
	}
	return nil
}

// ensureIndex builds the index if no keyed operation has needed it yet.
func (p *partition) ensureIndex() {
	if p.heads != nil {
		return
	}
	n := minBuckets
	for p.rows > 4*n {
		n *= 2
	}
	p.rebuild(n)
}

// bucket maps a key hash to its chain. The ring assigns a node contiguous
// ranges of the hash space, so the hash is remixed (Fibonacci hashing)
// before its high bits pick a bucket; otherwise a node's rows would crowd
// into the buckets of the ranges it owns.
func (p *partition) bucket(h uint64) uint64 {
	return (h * 0x9E3779B97F4A7C15) >> p.shift
}

// rebuild re-links every row into n buckets (n a power of two).
func (p *partition) rebuild(n int) {
	p.heads = make([]uint32, n)
	p.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for i := range p.segs {
		seg := &p.segs[i]
		seg.next = seg.next[:0]
		for pos, h := range seg.hashes {
			b := p.bucket(h)
			seg.next = append(seg.next, p.heads[b])
			p.heads[b] = p.link(i, pos)
		}
	}
}

func (p *partition) insert(t types.Tuple) error {
	if p.keyCol >= len(t) {
		return fmt.Errorf("tuple %v shorter than key column %d", t, p.keyCol)
	}
	if p.arity != 0 && len(t) != p.arity {
		return fmt.Errorf("tuple %v has %d columns, the table %d", t, len(t), p.arity)
	}
	h := types.HashValue(t[p.keyCol])
	i := p.segmentOf(h)
	seg := &p.segs[i]
	pos := len(seg.hashes)
	if pos == p.maxSegmentRows() {
		return fmt.Errorf("more than %d rows in one ring segment", pos)
	}
	p.arity = len(t)
	seg.chunkFor(pos).AppendInsert(t)
	seg.hashes = append(seg.hashes, h)
	p.rows++
	if p.heads == nil {
		return nil // not indexed yet: the first keyed operation links every row
	}
	if p.rows > 4*len(p.heads) {
		p.rebuild(2 * len(p.heads))
		return nil
	}
	b := p.bucket(h)
	seg.next = append(seg.next, p.heads[b])
	p.heads[b] = p.link(i, pos)
	return nil
}

// linkTo returns the chain link — a bucket head or a row's next — that
// points at row pos of segment i.
func (p *partition) linkTo(i, pos int) *uint32 {
	target := p.link(i, pos)
	l := &p.heads[p.bucket(p.segs[i].hashes[pos])]
	for *l != target {
		seg, at := p.row(*l)
		l = &seg.next[at]
	}
	return l
}

// delete removes the first copy equal to t on its key's chain, reporting
// how many stored rows it examined. The hole is filled by the segment's
// last row (the lanes stay dense), whose chain link is repointed; a chunk
// left empty is dropped.
func (p *partition) delete(t types.Tuple) (found bool, examined int) {
	if p.keyCol >= len(t) {
		return false, 0
	}
	p.ensureIndex()
	h := types.HashValue(t[p.keyCol])
	l := &p.heads[p.bucket(h)]
	for *l != 0 {
		examined++
		seg, pos := p.row(*l)
		if seg.hashes[pos] == h && seg.chunk(pos).RowEqual(pos%chunkRows, t) {
			break
		}
		l = &seg.next[pos]
	}
	if *l == 0 {
		return false, examined
	}
	seg, pos := p.row(*l)
	i, last := int(*l-1)>>p.rowBits, len(seg.hashes)-1
	*l = seg.next[pos]
	if pos != last {
		*p.linkTo(i, last) = p.link(i, pos)
		seg.chunk(pos).CopyRowFrom(pos%chunkRows, seg.chunk(last), last%chunkRows)
		seg.hashes[pos], seg.next[pos] = seg.hashes[last], seg.next[last]
	}
	seg.chunk(last).Truncate(last % chunkRows)
	if k := last / chunkRows; last%chunkRows == 0 {
		seg.chunks[k] = nil
		seg.chunks = seg.chunks[:k]
	}
	seg.hashes, seg.next = seg.hashes[:last], seg.next[:last]
	p.rows--
	return true, examined
}

// chunk returns the chunk holding row pos.
func (s *segment) chunk(pos int) *types.DeltaBatch { return s.chunks[pos/chunkRows] }

// chunkFor returns the chunk row pos goes into, adding it when pos opens
// a new one.
func (s *segment) chunkFor(pos int) *types.DeltaBatch {
	if pos == len(s.chunks)*chunkRows {
		s.chunks = append(s.chunks, new(types.DeltaBatch))
	}
	return s.chunk(pos)
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
		s.tables[name] = newPartition(keyCol)
	}
}

func (s *Store) unknownTable(table string) error {
	return fmt.Errorf("storage: node %d: unknown table %q", s.node, table)
}

// partition returns a table; tables are never dropped, so the pointer
// stays valid once the map lock is released.
func (s *Store) partition(table string) (*partition, error) {
	s.mu.RLock()
	p, ok := s.tables[table]
	s.mu.RUnlock()
	if !ok {
		return nil, s.unknownTable(table)
	}
	return p, nil
}

// readPlaced returns table read-locked, its rows placed by ring and, when
// index is set, its key index built. The caller releases p.mu.RUnlock.
func (s *Store) readPlaced(table string, ring *cluster.Ring, index bool) (*partition, error) {
	p, err := s.partition(table)
	if err != nil {
		return nil, err
	}
	for {
		p.mu.RLock()
		if p.ring == ring && (p.heads != nil || !index) {
			return p, nil
		}
		p.mu.RUnlock()
		p.mu.Lock()
		err := p.place(ring)
		if err == nil && index {
			p.ensureIndex()
		}
		p.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("storage: node %d: table %q: %w", s.node, table, err)
		}
	}
}

// placeBy places table's rows by ring (the Loader's, before it inserts).
func (s *Store) placeBy(table string, ring *cluster.Ring) error {
	p, err := s.partition(table)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.place(ring); err != nil {
		return fmt.Errorf("storage: node %d: table %q: %w", s.node, table, err)
	}
	return nil
}

// Insert stores a copy of t: its values are appended to the table's
// lanes, so the caller may reuse t (callers decide replica placement).
func (s *Store) Insert(table string, t types.Tuple) error {
	p, err := s.partition(table)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
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
	p, err := s.partition(table)
	if err != nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return s.deleteLocked(p, t)
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
// replacements do both, atomically for a concurrent scan. Unknown tables
// error — ingestion never creates tables implicitly. Inserted values are
// copied into lanes, so delta tuples may alias buffers the caller reuses.
func (s *Store) ApplyDelta(table string, d types.Delta) error {
	p, err := s.partition(table)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch d.Op {
	case types.OpInsert, types.OpUpdate:
		return s.insertLocked(table, p, d.Tup)
	case types.OpDelete:
		s.deleteLocked(p, d.Tup)
	case types.OpReplace:
		s.deleteLocked(p, d.Old)
		return s.insertLocked(table, p, d.Tup)
	}
	return nil
}

// ownedSegments calls fn with every non-empty segment node primarily owns
// under snap, deciding ownership once per segment. p is placed by
// snap's ring and read-locked.
func (s *Store) ownedSegments(p *partition, snap *cluster.Snapshot, fn func(seg *segment) error) error {
	decided := 0
	defer func() {
		if s.decided != nil {
			s.decided(decided)
		}
	}()
	for i := range p.segs {
		seg := &p.segs[i]
		if len(seg.hashes) == 0 {
			continue
		}
		decided++
		switch owner := snap.SegmentPrimary(i); {
		case owner < 0:
			return fmt.Errorf("storage: node %d: no alive node owns ring segment %d", s.node, i)
		case owner != s.node:
			continue
		}
		if err := fn(seg); err != nil {
			return err
		}
	}
	return nil
}

// ScanBatches emits the rows of table this node primarily owns under
// snap, as the chunks they are stored in: the base-case scan, and how
// takeover nodes rebuild immutable state from replicas during recovery.
// Each chunk is an all-insert batch, read-only and borrowed for the emit
// call as under Operator.Push. The table's read lock is held while emit
// runs, so a concurrent writer waits for the scan and every scan sees one
// consistent table.
func (s *Store) ScanBatches(table string, snap *cluster.Snapshot, emit func(*types.DeltaBatch) error) error {
	p, err := s.readPlaced(table, snap.Ring(), false)
	if err != nil {
		return err
	}
	defer p.mu.RUnlock()
	return s.ownedSegments(p, snap, func(seg *segment) error {
		for _, c := range seg.chunks {
			if err := emit(c); err != nil {
				return err
			}
		}
		return nil
	})
}

// ScanOwned streams the owned rows as fresh tuples, boxing every value.
// It is an adapter over ScanBatches kept for the storage replay leg of
// the load benchmark (benchmark/layers.go); the executor scans batches.
func (s *Store) ScanOwned(table string, snap *cluster.Snapshot, emit func(types.Tuple) error) error {
	return s.ScanBatches(table, snap, func(b *types.DeltaBatch) error {
		for i := 0; i < b.Len(); i++ {
			if err := emit(b.Delta(i).Tup); err != nil {
				return err
			}
		}
		return nil
	})
}

// LookupOwned appends to out, lane to lane, the rows of table whose
// partition-key hash is keyHash, if this node is that hash's primary
// owner under snap — exactly what ScanBatches would emit filtered by
// stored hash, at the cost of one index chain. Distinct keys can share a
// hash, so callers that want one key still compare it.
func (s *Store) LookupOwned(table string, keyHash uint64, snap *cluster.Snapshot, out *types.DeltaBatch) error {
	seg := snap.Ring().SegmentOf(keyHash)
	switch owner := snap.SegmentPrimary(seg); {
	case owner < 0:
		return fmt.Errorf("storage: node %d: no alive node owns hash %d", s.node, keyHash)
	case owner != s.node:
		_, err := s.partition(table)
		return err
	}
	p, err := s.readPlaced(table, snap.Ring(), true)
	if err != nil {
		return err
	}
	examined := 0
	for l := p.heads[p.bucket(keyHash)]; l != 0; {
		examined++
		sg, pos := p.row(l)
		if sg.hashes[pos] == keyHash {
			out.AppendRowFrom(sg.chunk(pos), pos%chunkRows)
		}
		l = sg.next[pos]
	}
	p.mu.RUnlock()
	if s.examined != nil {
		s.examined(examined)
	}
	return nil
}

// CountOwned reports how many tuples this node primarily owns under snap:
// the summed lengths of its owned segments.
func (s *Store) CountOwned(table string, snap *cluster.Snapshot) (int, error) {
	p, err := s.readPlaced(table, snap.Ring(), false)
	if err != nil {
		return 0, err
	}
	defer p.mu.RUnlock()
	n := 0
	err = s.ownedSegments(p, snap, func(seg *segment) error {
		n += len(seg.hashes)
		return nil
	})
	return n, err
}

// CountLocal reports all local copies (primary + replica) of a table.
func (s *Store) CountLocal(table string) int {
	p, err := s.partition(table)
	if err != nil {
		return 0
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.rows
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

// Load creates the table on every local store, places it by the
// Loader's ring, and distributes the tuples. Stores copy what they keep,
// so callers may reuse or mutate the tuples once Load returns.
func (l *Loader) Load(table string, keyCol int, tuples []types.Tuple) error {
	if err := l.create(table, keyCol); err != nil {
		return err
	}
	for _, t := range tuples {
		for _, owner := range l.Ring.Owners(types.HashValue(t[keyCol])) {
			if int(owner) >= len(l.Stores) {
				return fmt.Errorf("storage: owner %d beyond store set", owner)
			}
			if l.Stores[owner] == nil {
				continue // remote node: loaded in its own process
			}
			if err := l.Stores[owner].Insert(table, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// create declares the table on every local store and places the RAM
// stores' copies by the Loader's ring.
func (l *Loader) create(table string, keyCol int) error {
	for _, st := range l.Stores {
		if st == nil {
			continue
		}
		st.CreateTable(table, keyCol)
		if rs, ok := st.(*Store); ok {
			if err := rs.placeBy(table, l.Ring); err != nil {
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
	if err := l.create(table, keyCol); err != nil {
		return err
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
