// Package rex is a from-scratch Go implementation of REX — the recursive,
// delta-based data-centric computation engine of Mihaylov, Ives and Guha
// (PVLDB 5(11), 2012). It exposes a shared-nothing parallel query engine
// whose recursive queries propagate programmable deltas between iterations
// instead of recomputing full state, with SQL-style queries (RQL),
// user-defined aggregators and delta handlers, cost-based optimization,
// and incremental failure recovery.
//
// A deployment is opened as a context-aware Session. In-process (every
// worker a goroutine):
//
//	s, err := rex.Open(ctx, rex.WithInProc(4))
//	defer s.Close()
//	s.CreateTable("graph", rex.Schema("srcId:Integer", "destId:Integer"), 0)
//	s.Load("graph", edges)
//	res, err := s.QueryCtx(ctx, `SELECT srcId, count(*) FROM graph GROUP BY srcId`)
//
// or across OS processes over TCP, through the same API — WithTCPPeers
// attaches to running rexnode daemons, WithAutoSpawn launches local child
// processes (see ServeNode):
//
//	s, err := rex.Open(ctx, rex.WithAutoSpawn(4),
//		rex.WithDataset("dbpedia", 2000, 1))
//
// Per-query knobs are variadic QueryOptions, accepted uniformly by
// QueryCtx, Stream, Prepare, and Subscribe — WithPriority and WithTenant
// address the rexd server's tenant-aware scheduler (see below),
// WithNoVectorize builds interpreter-only expression kernels (the
// reference compiled kernels are tested against), WithBatchSize,
// WithMaxStrata, and friends tune execution:
//
//	res, err := s.QueryCtx(ctx, query,
//		rex.WithTenant("acme"), rex.WithPriority(rex.PriorityHigh))
//
// Queries honor their context end to end: cancellation or a deadline
// aborts a recursive query between strata and leaves the session usable.
// Streaming consumers observe the fixpoint converge stratum by stratum
// instead of waiting for the final relation:
//
//	st, err := s.Stream(ctx, query)
//	for stratum, deltas := range st.Seq() { ... }
//
// and serving workloads prepare once, execute many times:
//
//	stmt, err := s.Prepare(`SELECT sum(tax) FROM lineitem WHERE linenumber > $1`)
//	res, err := stmt.QueryCtx(ctx, rex.Options{}, int64(3))
//
// Standing queries keep the dataflow resident after the fixpoint closes:
// base-table changes ingested through Insert/Delete/LoadDeltas run
// incremental rounds whose output deltas stream to the subscriber, with
// work proportional to the change rather than the data:
//
//	sub, err := s.Subscribe(ctx, query)
//	s.Insert("graph", rex.NewTuple(int64(2), int64(977)))
//	for _, deltas := range sub.Stream().Seq() { ... }
//
// A rexd server (cmd/rexd) shares one partitioned engine among many such
// sessions: rex.Open(ctx, rex.WithServer(addr), rex.WithServerTenant(id))
// connects, queries from distinct tenants are admitted under per-tenant
// quotas (rex.ErrTenantBusy on exhaustion) and scheduled by priority
// across engine sub-pools, and subscriptions run as resident server-side
// dataflows. Session.Stats reports the unified snapshot, including the
// server's per-tenant counters. See Example (ServerMode) and
// Example (TenantScheduling).
//
// Write-heavy workloads use the asynchronous form: IngestAsync enqueues
// and returns an ack that resolves when the covering round completes, and
// requests queued while a round runs coalesce — folded to their net
// effect — into a single follow-up round:
//
//	ack, err := s.IngestAsync("graph", deltas)
//	rs, err := ack.Wait(ctx) // the coalesced round's stats
//
// Recursive queries use the RQL extension syntax of §3.1:
//
//	WITH R (cols) AS (base) UNION UNTIL FIXPOINT BY key [USING handler] (recursive)
//
// whose delta handlers (Session.JoinHandler, Session.WhileHandler) write
// their output through an Emitter, straight into the operator's typed
// output lanes:
//
//	s.WhileHandler("keepmin", func(rel *rex.TupleSet, d rex.Delta, out *rex.Emitter) error {
//		dist, _ := d.Tup[1].(float64)
//		if rel.Len() == 0 {
//			rel.Add(d.Tup) // the bucket keeps a copy: d's tuple is borrowed
//		} else if cur, _ := rel.Float(0, 1); cur > dist {
//			rel.SetFloat(0, 1, dist)
//		} else {
//			return nil // no improvement: nothing to propagate
//		}
//		out.Begin(rex.OpUpdate)
//		out.Value(d.Tup[0])
//		out.Float(dist)
//		return out.End()
//	})
//
// Internally the engine executes columnar: delta batches flow between
// operators as typed column vectors, travel the wire in a near-zero-copy
// frame layout, and recycle through per-round allocation pools; per-row
// operators (handlers, UDAs, TVFs) read rows off the batch, and handlers
// emit into one. A handler's delta is borrowed: d.Tup and d.Old are valid
// only during the call, and the buckets keep copies. This is
// transparent — results are bit-identical with Options.NoVectorize, which
// evaluates expressions through the interpreter instead of compiled
// column kernels.
//
// See the examples/ directory for PageRank, shortest-path, and K-means.
package rex

import (
	"fmt"
	"io"

	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/noded"
	"github.com/rex-data/rex/internal/storage"
	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// Re-exported core types, so applications only import this package.
type (
	// Tuple is an ordered list of scalar values (int64, float64, string,
	// bool, nil).
	Tuple = types.Tuple
	// Value is a dynamically typed scalar.
	Value = types.Value
	// Delta is an annotated tuple: the unit of incremental dataflow.
	Delta = types.Delta
	// TupleSet is a mutable bucket of tuples passed to delta handlers. It
	// holds its tuples unboxed and copies what it stores; read it with
	// Len, Row, Value, Int and Float.
	TupleSet = uda.TupleSet
	// Emitter is where a delta handler writes its output deltas: straight
	// into the operator's output batch, one typed column at a time
	// (Begin, Int / Float / Str / Value per column, End) or a whole Delta
	// at a time (Emit). See Session.JoinHandler.
	Emitter = uda.Emitter
	// Op is a delta's annotation (Definition 1 of the paper).
	Op = types.Op
	// Result is a completed query execution with per-stratum statistics.
	Result = exec.Result
	// StratumStats reports one recursive stratum (its Δᵢ size and time).
	StratumStats = exec.StratumStats
	// Options tunes one query execution (batching, recovery, termination).
	Options = exec.Options
	// RecoveryStrategy selects restart vs incremental failure recovery.
	RecoveryStrategy = exec.RecoveryStrategy
	// DeltaStream iterates the per-stratum delta batches of a running
	// query (see Session.Stream): Next/Err/Close, a Go 1.23 Seq adapter,
	// and Drain to fold the remainder into a final Result.
	DeltaStream = exec.ResultStream
	// DeltaBatch is one element of a DeltaStream: the state changes one
	// stratum made to the recursive relation.
	DeltaBatch = exec.StreamBatch
	// Workload is a self-contained, serializable job description: the
	// workload name, deterministic dataset parameters, and execution
	// options from which every process — this one and each rexnode
	// daemon — rebuilds an identical catalog, plan, and data partition.
	// It is the unit of multi-process execution (Session.RunWorkload).
	Workload = job.Spec
	// PoolStats is buffer-pool traffic for paged (spill-to-disk) stores:
	// hits, misses, evictions, and bytes spilled. Reported in Stats.Pool
	// on in-process sessions opened with WithSpillDir.
	PoolStats = storage.PoolStats
)

// Recovery strategies.
const (
	RecoveryNone        = exec.RecoveryNone
	RecoveryRestart     = exec.RecoveryRestart
	RecoveryIncremental = exec.RecoveryIncremental
)

// Delta annotations (Definition 1 of the paper).
const (
	OpInsert  = types.OpInsert
	OpDelete  = types.OpDelete
	OpReplace = types.OpReplace
	OpUpdate  = types.OpUpdate
)

// Delta constructors (Definition 1 of the paper).
var (
	// Insert builds a +() delta.
	Insert = types.Insert
	// Delete builds a −() delta.
	Delete = types.Delete
	// Replace builds a →(t') delta.
	Replace = types.Replace
	// Update builds a δ(E) value-update delta for custom handlers.
	Update = types.Update
	// NewTuple builds a tuple from values.
	NewTuple = types.NewTuple
)

// Schema builds a schema from "name:Type" field specs
// (types: Integer, Double, String, Boolean).
func Schema(fields ...string) *types.Schema { return types.MustSchema(fields...) }

// ServeNode runs this process as a rexnode worker daemon on the given
// listen address (":0" picks a free port), announcing the bound address on
// stdout in the form WithAutoSpawn scans for, and serving jobs until the
// driver quits it. Programs that open sessions with WithAutoSpawn call
// this when invoked with their "-node" flag:
//
//	if *nodeMode {
//		if err := rex.ServeNode(*listen, os.Stderr); err != nil {
//			log.Fatal(err)
//		}
//		return
//	}
func ServeNode(listen string, logw io.Writer) error {
	return ServeNodeDurable(listen, logw, "", 0)
}

// ServeNodeDurable is ServeNode with a data directory: the daemon's store
// pages to disk through a buffer pool of poolPages 8 KiB pages, its active
// job is persisted under dataDir, and a restart on the same listen address
// and directory restores the job and its committed data before announcing
// the address — the contract driver-side crash recovery relies on (a
// respawned daemon that has announced is serving its restored job again).
// An empty dataDir degrades to ServeNode.
func ServeNodeDurable(listen string, logw io.Writer, dataDir string, poolPages int) error {
	n, err := noded.Listen(listen, logw)
	if err != nil {
		return err
	}
	if dataDir != "" {
		if err := n.UseDataDir(dataDir, poolPages); err != nil {
			return err
		}
		if _, err := n.Restore(); err != nil {
			return err
		}
	}
	fmt.Printf("%s%s\n", job.SpawnPrefix, n.Addr())
	return n.Serve()
}
