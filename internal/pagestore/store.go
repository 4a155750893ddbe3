package pagestore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/storage"
	"github.com/rex-data/rex/internal/types"
)

// walSizeLimit is the WAL size past which a Commit also writes a fresh
// checkpoint image (bounding both replay time and log growth).
const walSizeLimit = 4 << 20

// Store is one node's paged local storage: the spill-to-disk counterpart
// of storage.Store, implementing storage.Backend (the executor surface),
// storage.Durable (round commits, checkpoint images, crash recovery), and
// storage.PoolStatter. All methods are safe for concurrent use; operator
// scans and mutations serialize on one mutex, matching the in-memory
// store's semantics.
type Store struct {
	mu   sync.Mutex
	node cluster.NodeID
	dir  string

	pool   *pool
	stats  storage.PoolStats
	tables map[string]*table
	wal    *wal

	committedRound int64
	restored       bool
	closed         bool
}

// table tracks one table's page set. free mirrors each page's exact free
// byte count (deletion compacts pages in place, so free space is a
// subtraction, never a fragmentation estimate).
type table struct {
	name   string
	keyCol int
	file   *pageFile
	pages  []uint32
	free   []int
	count  int // live records
	next   uint32
}

// Open opens (or creates) a node's paged store under dir with a
// poolPages-frame buffer pool. If the directory holds a checkpoint image
// or write-ahead log from a previous run, the store recovers: it loads
// the image, replays the WAL's committed prefix, discards the uncommitted
// tail, and seals the recovered state into a fresh image. Restored()
// reports which path was taken.
func Open(dir string, node cluster.NodeID, poolPages int) (*Store, error) {
	s := &Store{node: node, dir: dir, committedRound: -1}
	s.pool = newPool(poolPages, &s.stats)
	if err := os.MkdirAll(s.pagesDir(), 0o755); err != nil {
		return nil, err
	}
	_, imgErr := os.Stat(s.imagePath())
	_, walErr := os.Stat(s.walPath())
	s.restored = imgErr == nil || walErr == nil
	if err := s.loadFromDisk(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) imagePath() string { return filepath.Join(s.dir, "image.db") }
func (s *Store) walPath() string   { return filepath.Join(s.dir, "wal.log") }
func (s *Store) pagesDir() string  { return filepath.Join(s.dir, "pages") }

// loadFromDisk rebuilds in-memory state from the checkpoint image plus the
// WAL's committed prefix, then re-seals it. Page files are scratch (only
// evictions write them), so the pages directory is wiped first.
func (s *Store) loadFromDisk() error {
	s.tables = map[string]*table{}
	s.pool.reset()
	if err := wipeDir(s.pagesDir()); err != nil {
		return err
	}
	imageRound := int64(-1)
	if round, tabs, err := readImage(s.imagePath()); err == nil {
		imageRound = round
		for _, t := range tabs {
			s.createTableLocked(t.name, t.keyCol)
			for _, tup := range t.tuples {
				if err := s.insertLocked(t.name, tup); err != nil {
					return err
				}
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	recs, walRound, err := replayWAL(s.walPath())
	if err != nil {
		return err
	}
	for _, rec := range recs {
		switch rec.kind {
		case walCreate:
			s.createTableLocked(rec.table, rec.keyCol)
		case walApply:
			if err := s.applyLocked(rec.table, rec.delta); err != nil {
				return err
			}
		}
	}
	s.committedRound = imageRound
	if walRound > s.committedRound {
		s.committedRound = walRound
	}
	s.wal, err = openWAL(s.walPath())
	if err != nil {
		return err
	}
	if s.restored {
		// Collapse image + replayed tail into one fresh image so the next
		// crash replays nothing twice, and the torn tail is gone for good.
		return s.checkpointLocked()
	}
	return nil
}

func wipeDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// Node reports the owning node.
func (s *Store) Node() cluster.NodeID { return s.node }

// Restored reports whether Open found durable state to recover.
func (s *Store) Restored() bool { return s.restored }

// CommittedRound reports the last durably committed round (-1 before the
// first Commit).
func (s *Store) CommittedRound() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.committedRound
}

// PoolStats reports cumulative buffer-pool traffic.
func (s *Store) PoolStats() storage.PoolStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// CreateTable declares a local table partitioned by keyCol (idempotent;
// only the first declaration reaches the WAL).
func (s *Store) CreateTable(name string, keyCol int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return
	}
	s.createTableLocked(name, keyCol)
	s.wal.logCreate(name, keyCol)
}

func (s *Store) createTableLocked(name string, keyCol int) {
	if _, ok := s.tables[name]; ok {
		return
	}
	s.tables[name] = &table{
		name: name, keyCol: keyCol,
		file: newPageFile(s.pagesDir(), name),
	}
}

// Insert stores a tuple copy locally. The tuple is encoded into a page
// immediately, so the caller's backing arrays are never retained.
func (s *Store) Insert(tableName string, t types.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tab, ok := s.tables[tableName]
	if !ok {
		return fmt.Errorf("pagestore: node %d: unknown table %q", s.node, tableName)
	}
	s.wal.logApply(tableName, types.Insert(t))
	return s.insertTab(tab, t)
}

func (s *Store) insertLocked(tableName string, t types.Tuple) error {
	tab, ok := s.tables[tableName]
	if !ok {
		return fmt.Errorf("pagestore: node %d: unknown table %q", s.node, tableName)
	}
	return s.insertTab(tab, t)
}

func (s *Store) insertTab(tab *table, t types.Tuple) error {
	if tab.keyCol >= len(t) {
		return fmt.Errorf("pagestore: node %d: table %q: tuple %v shorter than key column %d",
			s.node, tab.name, t, tab.keyCol)
	}
	rec := encodeRecord(nil, types.HashValue(t[tab.keyCol]), t)
	if len(rec) > maxRecordSize {
		return fmt.Errorf("pagestore: node %d: table %q: record of %d bytes exceeds page capacity",
			s.node, tab.name, len(rec))
	}
	need := len(rec) + slotSize
	// Fast path: the most recently allocated page (pure appends fill pages
	// in order); otherwise first-fit over the known free counts.
	idx := -1
	if n := len(tab.pages); n > 0 && tab.free[n-1] >= need {
		idx = n - 1
	} else {
		for i, fr := range tab.free {
			if fr >= need {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		no := tab.next
		tab.next++
		f, err := s.pool.get(tab, no, false)
		if err != nil {
			return err
		}
		pageInsert(f.buf, rec)
		tab.pages = append(tab.pages, no)
		tab.free = append(tab.free, pageFree(f.buf))
		s.pool.unpin(f, true)
		tab.count++
		return nil
	}
	f, err := s.pool.get(tab, tab.pages[idx], true)
	if err != nil {
		return err
	}
	pageInsert(f.buf, rec)
	tab.free[idx] = pageFree(f.buf)
	s.pool.unpin(f, true)
	tab.count++
	return nil
}

// Delete removes one stored copy equal to t (the first match), reporting
// whether a copy was found.
func (s *Store) Delete(tableName string, t types.Tuple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	found, err := s.deleteLocked(tableName, t)
	if err != nil || !found {
		return false
	}
	s.wal.logApply(tableName, types.Delete(t))
	return true
}

func (s *Store) deleteLocked(tableName string, t types.Tuple) (bool, error) {
	tab, ok := s.tables[tableName]
	if !ok {
		return false, nil
	}
	if tab.keyCol >= len(t) {
		return false, nil
	}
	hash := types.HashValue(t[tab.keyCol])
	for i, no := range tab.pages {
		f, err := s.pool.get(tab, no, true)
		if err != nil {
			return false, err
		}
		match := -1
		for slot := 0; slot < pageSlots(f.buf); slot++ {
			rec := pageRecord(f.buf, slot)
			if recordHash(rec) != hash {
				continue
			}
			tup, err := recordTuple(rec)
			if err != nil {
				s.pool.unpin(f, false)
				return false, err
			}
			if tup.Equal(t) {
				match = slot
				break
			}
		}
		if match < 0 {
			s.pool.unpin(f, false)
			continue
		}
		pageDelete(f.buf, match)
		tab.free[i] = pageFree(f.buf)
		s.pool.unpin(f, true)
		tab.count--
		return true, nil
	}
	return false, nil
}

// ApplyDelta applies one base-table change, mirroring storage.Store's
// semantics: insertions store a copy, deletions remove one, replacements
// do both, unknown tables error. Tuples are encoded into pages at apply
// time, so borrowed batch buffers are never retained.
func (s *Store) ApplyDelta(tableName string, d types.Delta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[tableName]; !ok {
		return fmt.Errorf("pagestore: node %d: unknown table %q", s.node, tableName)
	}
	s.wal.logApply(tableName, d)
	return s.applyLocked(tableName, d)
}

func (s *Store) applyLocked(tableName string, d types.Delta) error {
	switch d.Op {
	case types.OpInsert, types.OpUpdate:
		return s.insertLocked(tableName, d.Tup)
	case types.OpDelete:
		_, err := s.deleteLocked(tableName, d.Tup)
		return err
	case types.OpReplace:
		if _, err := s.deleteLocked(tableName, d.Old); err != nil {
			return err
		}
		return s.insertLocked(tableName, d.Tup)
	}
	return nil
}

// owns is the ownership filter of a scan under snap. It is checked against
// a record's stored key hash before the tuple is decoded, so replica
// copies cost a hash compare, not a materialization.
func (s *Store) owns(snap *cluster.Snapshot) func(hash uint64) (bool, error) {
	return func(hash uint64) (bool, error) {
		primary, err := snap.Primary(hash)
		return primary == s.node, err
	}
}

// ScanBatches emits the rows this node primarily owns under snap, decoded
// page by page into one pooled all-insert batch of at most
// types.MaxPooledRows rows. The store mutex is held while emit runs.
func (s *Store) ScanBatches(tableName string, snap *cluster.Snapshot, emit func(*types.DeltaBatch) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := types.GetBatch()
	defer types.PutBatch(b)
	err := s.walkLocked(tableName, s.owns(snap), func(t types.Tuple) error {
		b.AppendInsert(t)
		if b.Len() < types.MaxPooledRows {
			return nil
		}
		err := emit(b)
		b.Reset()
		return err
	})
	if err == nil && b.Len() > 0 {
		err = emit(b)
	}
	return err
}

// ScanOwned streams the owned rows as decoded tuples. It is kept for the
// paged replay leg of the load benchmark (benchmark/layers.go); the
// executor scans batches.
func (s *Store) ScanOwned(tableName string, snap *cluster.Snapshot, emit func(types.Tuple) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walkLocked(tableName, s.owns(snap), emit)
}

// LookupOwned appends to out the rows whose partition-key hash is keyHash,
// if this node primarily owns that hash under snap. The paged store keeps
// no key directory: the lookup is a page walk that compares each record's
// stored hash and decodes only the matches — the same filter Delete uses.
func (s *Store) LookupOwned(tableName string, keyHash uint64, snap *cluster.Snapshot, out *types.DeltaBatch) error {
	primary, err := snap.Primary(keyHash)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if primary != s.node {
		// Not ours to answer; an unknown table is still an error, as it is
		// for a scan on a node that owns nothing.
		if _, ok := s.tables[tableName]; !ok {
			return fmt.Errorf("pagestore: node %d: unknown table %q", s.node, tableName)
		}
		return nil
	}
	return s.walkLocked(tableName, func(hash uint64) (bool, error) {
		return hash == keyHash, nil
	}, func(t types.Tuple) error {
		out.AppendInsert(t)
		return nil
	})
}

// walkLocked walks every page of a table, decoding and emitting the
// records whose stored key hash satisfies keep. The caller holds s.mu.
func (s *Store) walkLocked(tableName string, keep func(hash uint64) (bool, error), emit func(types.Tuple) error) error {
	tab, ok := s.tables[tableName]
	if !ok {
		return fmt.Errorf("pagestore: node %d: unknown table %q", s.node, tableName)
	}
	for _, no := range tab.pages {
		f, err := s.pool.get(tab, no, true)
		if err != nil {
			return err
		}
		for slot := 0; slot < pageSlots(f.buf); slot++ {
			rec := pageRecord(f.buf, slot)
			ok, err := keep(recordHash(rec))
			if err == nil && ok {
				var tup types.Tuple
				if tup, err = recordTuple(rec); err == nil {
					err = emit(tup)
				}
			}
			if err != nil {
				s.pool.unpin(f, false)
				return err
			}
		}
		s.pool.unpin(f, false)
	}
	return nil
}

// CountOwned reports how many tuples this node primarily owns under snap,
// from the records' stored hashes (nothing is decoded).
func (s *Store) CountOwned(tableName string, snap *cluster.Snapshot) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	owns := s.owns(snap)
	err := s.walkLocked(tableName, func(hash uint64) (bool, error) {
		ok, err := owns(hash)
		if ok {
			n++
		}
		return false, err
	}, nil)
	return n, err
}

// CountLocal reports all local copies (primary + replica) of a table.
func (s *Store) CountLocal(tableName string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tab, ok := s.tables[tableName]; ok {
		return tab.count
	}
	return 0
}

// Tables lists local table names, sorted.
func (s *Store) Tables() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Commit durably marks every mutation applied so far as belonging to
// round: the WAL mark is appended, the log flushed and fsynced. Round 0
// (a standing query sealing its loaded base state) and any commit that
// finds the WAL past its size limit also write a checkpoint image.
func (s *Store) Commit(round int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if round == 0 && s.committedRound == 0 && s.wal.size == 0 {
		return nil // nothing mutated since the round-0 image: already sealed
	}
	if err := s.wal.commit(round); err != nil {
		return err
	}
	s.committedRound = round
	if round == 0 || s.wal.size > walSizeLimit {
		return s.checkpointLocked()
	}
	return nil
}

// Checkpoint writes a full checkpoint image of current state and truncates
// the WAL.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	tabs := make([]imageTable, 0, len(names))
	for _, name := range names {
		tab := s.tables[name]
		tuples := make([]types.Tuple, 0, tab.count)
		for _, no := range tab.pages {
			f, err := s.pool.get(tab, no, true)
			if err != nil {
				return err
			}
			for slot := 0; slot < pageSlots(f.buf); slot++ {
				tup, err := recordTuple(pageRecord(f.buf, slot))
				if err != nil {
					s.pool.unpin(f, false)
					return err
				}
				tuples = append(tuples, tup)
			}
			s.pool.unpin(f, false)
		}
		tabs = append(tabs, imageTable{name: name, keyCol: tab.keyCol, tuples: tuples})
	}
	if err := writeImage(s.imagePath(), s.committedRound, tabs); err != nil {
		return err
	}
	return s.wal.reset()
}

// Rollback discards all in-memory state — including mutations applied
// since the last Commit — and reloads the last committed state from disk.
// It is how an injected in-process failure simulates the state loss a real
// crash would cause.
func (s *Store) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeFilesLocked()
	s.restored = true
	return s.loadFromDisk()
}

// Close seals current state into a checkpoint image (the graceful-shutdown
// dirty-page flush) and releases every file handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.checkpointLocked()
	s.closeFilesLocked()
	return err
}

func (s *Store) closeFilesLocked() {
	for _, tab := range s.tables {
		tab.file.close()
	}
	if s.wal != nil {
		s.wal.close()
		s.wal = nil
	}
}

// Interface conformance.
var (
	_ storage.Backend     = (*Store)(nil)
	_ storage.Durable     = (*Store)(nil)
	_ storage.PoolStatter = (*Store)(nil)
)
