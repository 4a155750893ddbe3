package exec

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/pagestore"
	"github.com/rex-data/rex/internal/storage"
	"github.com/rex-data/rex/internal/types"
)

// RecoveryStrategy selects how the requestor reacts to a node failure.
type RecoveryStrategy uint8

const (
	// RecoveryNone aborts the query on failure.
	RecoveryNone RecoveryStrategy = iota
	// RecoveryRestart re-runs the query from scratch on the survivors —
	// the "Restart" baseline of §6.6.
	RecoveryRestart
	// RecoveryIncremental resumes from the replicated Δᵢ checkpoints —
	// the paper's hybrid scheme (§4.3) — one stratum behind the last
	// completed one, the newest whose replicas are certain to have landed.
	RecoveryIncremental
)

// Defaults shared by Engine.start and NewWorker (a remote worker must
// normalize the same way the engine does, or the two sides of a query
// would batch differently). defaultHighWater is the credit window a
// worker grants before its drain meter has a measurement.
const (
	defaultBatchSize = 1024
	defaultHighWater = 64
)

// Options tune one query execution.
type Options struct {
	// BatchSize is the transport batching granularity (default 1024).
	BatchSize int
	// MaxStrata caps recursion depth (default: plan's setting).
	MaxStrata int
	// Recovery selects the failure-handling strategy.
	Recovery RecoveryStrategy
	// Checkpoint enables per-stratum Δᵢ replication (required for
	// RecoveryIncremental; adds measurable but small overhead otherwise).
	Checkpoint bool
	// Stream switches the run to streaming-result mode: instead of the
	// fixpoint flushing its entire final relation at termination, every
	// stratum's state changes are shipped to the requestor as a delta
	// batch when that stratum closes, and the final flush is suppressed
	// (the concatenated per-stratum batches fold to the same relation).
	// The entry point sets it: on for Engine.Stream and Engine.Standing,
	// whose consumers watch the fixpoint converge; off for RunCtx, the
	// buffered run under a drained one-shot query, which only needs the
	// final relation. Both sides of a multi-process run must agree on this
	// field — it changes worker behavior — so it travels in the job spec.
	// Streaming runs do not support failure recovery.
	Stream bool
	// NoVectorize builds the expression kernels of filter, project,
	// group-by and pre-aggregation interpreter-only: each runs Expr.Eval
	// row by row, the reference compiled kernels are tested against. The
	// operators keep their one path either way. It stays as that
	// reference until benchmark/fixpoint_batch.go, its last benchmark
	// caller, stops using it (ROADMAP item 15g). Both sides of a
	// multi-process run must agree on this field — it changes worker
	// behavior — so it travels in the job spec.
	NoVectorize bool
	// TermFn, when set, is an explicit termination condition evaluated by
	// the requestor after each stratum over the global new-tuple count
	// (§3.4). Returning true terminates the query.
	TermFn func(stratum, newTuples int) bool
	// OnStratum, when set, observes each completed stratum (used by the
	// experiment harness, e.g. to inject failures at iteration k).
	OnStratum func(stratum, newTuples int)
	// Recover, when set, enables standing-query crash recovery: on a node
	// failure the pump aborts in-flight work, calls Recover(node) to bring
	// the node back (respawn its daemon, or revive its in-process mailbox),
	// rebuilds the dataflow from the survivors' and the recovered node's
	// committed stores, and replays the interrupted round. Requires every
	// local store to be storage.Durable (see Engine.UseSpill).
	Recover func(node cluster.NodeID) error
	// SpillDir and BufferPoolPages configure paged spill-to-disk storage
	// when a job spec materializes its engine (session/daemon layers call
	// Engine.UseSpill directly). SpillDir is a local path and never
	// travels on the wire; BufferPoolPages does, so every process in a
	// TCP job agrees on pool sizing.
	SpillDir        string
	BufferPoolPages int
	// Tenant and Priority are scheduling metadata, not execution knobs:
	// the engine ignores them, but a server session forwards them so the
	// rexd admission scheduler can enforce per-tenant inflight quotas and
	// order its runnable queue. Priority is -1 low / 0 normal / +1 high.
	Tenant   string
	Priority int
}

// StratumStats records one stratum of a recursive execution.
type StratumStats struct {
	Stratum int
	// NewTuples is the global Δᵢ set size (sum of fixpoint votes).
	NewTuples int
	Duration  time.Duration
}

// Result is a completed query execution.
type Result struct {
	Tuples   []types.Tuple
	Strata   []StratumStats
	Duration time.Duration
	// BytesSent is the measured wire volume of the run: encoded frame
	// bytes shipped between workers (loopback excluded). Over TCP this
	// is measured socket bytes, length prefixes included.
	BytesSent int64
	// CompactIn/CompactOut count deltas entering and leaving the shuffle's
	// folding stores (zero for plans without a recursion, whose edges only
	// append; see OpSpec.Fold); their ratio is the fold's win.
	CompactIn, CompactOut int64
	// Recoveries counts failures survived during the run.
	Recoveries int
}

// Engine executes physical plans on a REX cluster. It talks to the
// workers only through the cluster.Transport interface, so the same
// engine drives the in-process fabric (every node a goroutine in this
// process) and real multi-process deployments (a TCP driver transport
// with zero local nodes, the workers living in rexnode daemons). One
// Engine can run many queries sequentially; it owns no per-query state.
type Engine struct {
	Transport cluster.Transport
	Ring      *cluster.Ring
	// Stores/Ckpts are indexed by node; entries are nil for nodes whose
	// event loops run in other processes. Stores are in-memory
	// storage.Store by default; UseSpill swaps in paged spill-to-disk
	// stores (storage.Durable) behind the same interface.
	Stores  []storage.Backend
	Ckpts   []*storage.CheckpointStore
	Catalog *catalog.Catalog

	queryCounter atomic.Int64
}

// NewEngine assembles an engine over n in-process worker nodes.
func NewEngine(n, vnodes, replication int, cat *catalog.Catalog) *Engine {
	return NewEngineOn(cluster.NewInProcTransport(n), vnodes, replication, cat)
}

// NewEngineOn assembles an engine over an existing transport. Storage is
// allocated only for the transport's local nodes; remote nodes own their
// storage in their own processes.
func NewEngineOn(tr cluster.Transport, vnodes, replication int, cat *catalog.Catalog) *Engine {
	n := tr.N()
	e := &Engine{
		Transport: tr,
		Ring:      cluster.NewRing(n, vnodes, replication),
		Stores:    make([]storage.Backend, n),
		Ckpts:     make([]*storage.CheckpointStore, n),
		Catalog:   cat,
	}
	for _, i := range tr.LocalNodes() {
		e.Stores[i] = storage.NewStore(i)
		e.Ckpts[i] = storage.NewCheckpointStore()
	}
	return e
}

// UseSpill replaces every local node's in-memory store with a paged
// spill-to-disk store under dir (one subdirectory per node), each with a
// poolPages-frame buffer pool. Call before loading data. Directories with
// existing durable state recover it — that is how a respawned daemon
// rejoins with its committed rounds intact.
func (e *Engine) UseSpill(dir string, poolPages int) error {
	for _, i := range e.Transport.LocalNodes() {
		nodeDir := filepath.Join(dir, fmt.Sprintf("node%d", i))
		s, err := pagestore.Open(nodeDir, i, poolPages)
		if err != nil {
			return fmt.Errorf("exec: spill store for node %d: %w", i, err)
		}
		e.Stores[i] = s
		// Checkpoints ride along: the §4.3 Δ-set checkpoints persist to an
		// append-only log next to the page files, so a restarted node can
		// resume incremental recovery from its last checkpointed stratum.
		if err := e.Ckpts[i].UseDir(filepath.Join(nodeDir, "ckpt")); err != nil {
			return fmt.Errorf("exec: checkpoint log for node %d: %w", i, err)
		}
	}
	return nil
}

// CloseStores flushes and closes every local durable store (graceful
// shutdown: dirty state is sealed into a checkpoint image). In-memory
// stores are untouched.
func (e *Engine) CloseStores() error {
	var first error
	for _, s := range e.Stores {
		if d, ok := s.(storage.Durable); ok {
			if err := d.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	for _, c := range e.Ckpts {
		if c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// PoolStats aggregates buffer-pool traffic across the local nodes' paged
// stores (all-zero when spill is not in use).
func (e *Engine) PoolStats() storage.PoolStats {
	var total storage.PoolStats
	for _, s := range e.Stores {
		if ps, ok := s.(storage.PoolStatter); ok {
			total.Add(ps.PoolStats())
		}
	}
	return total
}

// Load distributes a dataset to the local workers' replicated storage.
// Partitions owned by remote nodes are skipped — their daemons load the
// same deterministic dataset themselves from the job description.
func (e *Engine) Load(table string, keyCol int, tuples []types.Tuple) error {
	l := &storage.Loader{Ring: e.Ring, Stores: e.Stores}
	return l.Load(table, keyCol, tuples)
}

// Run executes the plan to completion, handling failures per opts.
func (e *Engine) Run(spec *PlanSpec, opts Options) (*Result, error) {
	return e.RunCtx(context.Background(), spec, opts)
}

// RunCtx is Run honoring a context: cancellation or deadline expiry aborts
// the query between strata. The requestor stops issuing stratum decisions,
// broadcasts an abort punctuation so workers drop per-query state and
// drain their mailboxes, and tears the run down with stores and
// checkpoints consistent — the next query on the same engine works. The
// returned error is ctx.Err(). Setup and teardown are the ones every query
// shares (see Engine.start). The run is not streamed: a recursive query's
// fixpoint ships its final relation to the requestor once, at
// termination.
func (e *Engine) RunCtx(ctx context.Context, spec *PlanSpec, opts Options) (*Result, error) {
	opts.Stream = false
	r, err := e.start(ctx, spec, opts)
	if err != nil {
		return nil, err
	}
	return r.run(nil)
}

// resultSet accumulates result deltas. Final flushes are insert-only, so
// the insert path is a bare append; deletions and replacements (possible
// in non-recursive pipelines) are resolved through a lazily built
// hash-of-tuple index, keeping large result folds O(n) instead of the
// O(n²) rescan a per-delta linear search would cost.
type resultSet struct {
	tuples []types.Tuple // append-ordered; nil entries are tombstones
	index  map[uint64][]int
	dead   int
}

func newResultSet() *resultSet {
	return &resultSet{}
}

// hash agrees with Tuple.Equal on result columns, which hold one kind or
// mix only numbers (integral floats hash like ints), and allocates
// nothing.
func (rs *resultSet) hash(t types.Tuple) uint64 {
	return t.Hash()
}

// ensureIndex builds the tuple-hash index on first delete/replace.
func (rs *resultSet) ensureIndex() {
	if rs.index != nil {
		return
	}
	rs.index = make(map[uint64][]int, len(rs.tuples))
	for i, t := range rs.tuples {
		if t != nil {
			h := rs.hash(t)
			rs.index[h] = append(rs.index[h], i)
		}
	}
}

func (rs *resultSet) insert(t types.Tuple) {
	rs.tuples = append(rs.tuples, t)
	if rs.index != nil {
		h := rs.hash(t)
		rs.index[h] = append(rs.index[h], len(rs.tuples)-1)
	}
}

// find locates a live entry equal to t, returning its position in the
// hash bucket and the tuple index.
func (rs *resultSet) find(t types.Tuple) (bucketPos, idx int, ok bool) {
	h := rs.hash(t)
	for bi, ti := range rs.index[h] {
		if rs.tuples[ti] != nil && rs.tuples[ti].Equal(t) {
			return bi, ti, true
		}
	}
	return 0, 0, false
}

func (rs *resultSet) apply(batch []types.Delta) {
	for _, d := range batch {
		switch d.Op {
		case types.OpInsert, types.OpUpdate:
			rs.insert(d.Tup)
		case types.OpDelete:
			rs.ensureIndex()
			if bi, ti, ok := rs.find(d.Tup); ok {
				h := rs.hash(d.Tup)
				rs.tuples[ti] = nil
				rs.dead++
				bucket := rs.index[h]
				rs.index[h] = append(bucket[:bi], bucket[bi+1:]...)
			}
		case types.OpReplace:
			rs.ensureIndex()
			if bi, ti, ok := rs.find(d.Old); ok {
				oldH := rs.hash(d.Old)
				bucket := rs.index[oldH]
				rs.index[oldH] = append(bucket[:bi], bucket[bi+1:]...)
				rs.tuples[ti] = d.Tup
				newH := rs.hash(d.Tup)
				rs.index[newH] = append(rs.index[newH], ti)
			} else {
				rs.insert(d.Tup)
			}
		}
	}
}

// materialize returns the live tuples in insertion order.
func (rs *resultSet) materialize() []types.Tuple {
	if rs.dead == 0 {
		return rs.tuples
	}
	out := make([]types.Tuple, 0, len(rs.tuples)-rs.dead)
	for _, t := range rs.tuples {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}
