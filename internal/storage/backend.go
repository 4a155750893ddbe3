package storage

import (
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// Backend is the storage surface the executor runs against: the in-memory
// Store implements it, and so does the paged, spill-to-disk store in
// internal/pagestore. Workers, the standing-query pump, and the Loader
// only ever see this interface, so a node's storage can live entirely in
// RAM or behind a buffer pool transparently.
//
// Concurrency: every method is safe for concurrent use. ScanBatches holds
// the table's read lock (the paged store: its mutex) while emit runs, so a
// writer waits for a running scan and a scan never sees half a mutation.
// emit must therefore not write to the same backend. Writers are
// serialized against a session's queries anyway, by the session lock and
// the worker loop.
type Backend interface {
	// Node reports the owning node.
	Node() cluster.NodeID
	// CreateTable declares a local table partitioned by keyCol (idempotent).
	CreateTable(name string, keyCol int)
	// Insert stores a tuple copy locally (callers decide replica placement).
	Insert(table string, t types.Tuple) error
	// Delete removes one stored copy equal to t, reporting whether a copy
	// was found. It is directed by t's partition key: only rows sharing
	// the key's hash are compared.
	Delete(table string, t types.Tuple) bool
	// ApplyDelta applies one base-table change to this node's local copies.
	ApplyDelta(table string, d types.Delta) error
	// ScanBatches emits the rows this node primarily owns under snap as
	// all-insert batches, read-only and borrowed for the emit call (the
	// Operator.Push contract).
	ScanBatches(table string, snap *cluster.Snapshot, emit func(*types.DeltaBatch) error) error
	// LookupOwned appends to out the rows whose partition-key hash is
	// keyHash, if this node primarily owns that hash under snap:
	// ScanBatches filtered by key hash, without the scan. Hash collisions
	// are the caller's to filter.
	LookupOwned(table string, keyHash uint64, snap *cluster.Snapshot, out *types.DeltaBatch) error
	// CountOwned reports how many tuples this node primarily owns under snap.
	CountOwned(table string, snap *cluster.Snapshot) (int, error)
	// CountLocal reports all local copies (primary + replica) of a table.
	CountLocal(table string) int
	// Tables lists local table names, sorted.
	Tables() []string
}

// Durable is the optional capability set of a backend whose state survives
// process death. The standing-query commit protocol discovers it by type
// assertion: a worker over a Durable backend fsyncs a round-commit mark
// when the pump's MsgCommit barrier lands, and a respawned node reopens
// from its checkpoint image plus the write-ahead log's committed prefix.
type Durable interface {
	Backend
	// Commit durably marks every mutation applied so far as belonging to
	// round (write-ahead log mark + fsync). Recovery discards mutations
	// after the last mark.
	Commit(round int64) error
	// CommittedRound reports the round of the last durable commit mark
	// (-1 before the first).
	CommittedRound() int64
	// Checkpoint writes a full checkpoint image of current state and
	// truncates the write-ahead log; the image doubles as a fast-restart
	// base.
	Checkpoint() error
	// Rollback discards all in-memory state and reloads the last committed
	// state from disk (image + committed WAL prefix).
	Rollback() error
	// Restored reports whether the backend was opened over existing
	// durable state.
	Restored() bool
	// Close flushes dirty state durably and releases file handles.
	Close() error
}

// PoolStats reports buffer-pool traffic for a paged backend. Counters are
// cumulative for the backend's lifetime (they survive Rollback).
type PoolStats struct {
	// Hits and Misses count page lookups served from, respectively not
	// from, the pool.
	Hits, Misses int64
	// Evictions counts pages pushed out of the pool to make room.
	Evictions int64
	// BytesSpilled is the volume of dirty page bytes written to disk by
	// evictions (checkpoint writes are not spills).
	BytesSpilled int64
}

// Add accumulates other into s (for aggregating per-node pools).
func (s *PoolStats) Add(other PoolStats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.BytesSpilled += other.BytesSpilled
}

// HitRate reports hits per lookup (1 when the pool saw no traffic).
func (s *PoolStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 1
	}
	return float64(s.Hits) / float64(total)
}

// PoolStatter is implemented by backends with a buffer pool.
type PoolStatter interface {
	PoolStats() PoolStats
}
