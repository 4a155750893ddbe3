package rex

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// config collects the functional-option state of Open.
type config struct {
	nodes       int
	inproc      bool // WithInProc called explicitly
	replication int
	vnodes      int

	// transport selection; exactly one of these shapes the session.
	peers     []string // WithTCPPeers
	autospawn int      // WithAutoSpawn
	spawnBin  string
	spawnArgs []string

	// staged dataset (required for RQL over TCP, optional in-process).
	dataset     string
	datasetSize int
	datasetSeed int64

	// handlers names a delta-handler bundle registered on every process.
	handlers string

	// spillDir backs in-process stores with paged spill-to-disk files;
	// poolPages sizes the buffer pool (also shipped in TCP job specs).
	spillDir  string
	poolPages int

	// serverAddr selects the rexd client transport (WithServer);
	// serverTenant is the session's default tenant id, announced in the
	// hello frame.
	serverAddr   string
	serverTenant string
}

// Option configures Open.
type Option func(*config)

// WithInProc selects the in-process transport with n worker nodes (the
// default, with n=4): every node is an event loop on a goroutine and links
// are mailboxes carrying encoded frames.
func WithInProc(n int) Option {
	return func(c *config) { c.nodes = n; c.inproc = true }
}

// WithTCPPeers selects the TCP transport over already-running rexnode
// worker daemons. The address order fixes node ids: addrs[0] is node 0.
func WithTCPPeers(addrs ...string) Option {
	return func(c *config) { c.peers = append([]string(nil), addrs...) }
}

// WithAutoSpawn selects the TCP transport and spawns n local worker-daemon
// child processes. By default the session re-executes the current binary
// with a "-node" flag — programs using it must run ServeNode when invoked
// that way (see examples/quickstart) — or name any binary that does via
// WithSpawnCommand. Close tears the children down.
func WithAutoSpawn(n int) Option {
	return func(c *config) { c.autospawn = n }
}

// WithSpawnCommand overrides the binary and arguments WithAutoSpawn
// launches for each worker daemon.
func WithSpawnCommand(bin string, args ...string) Option {
	return func(c *config) { c.spawnBin = bin; c.spawnArgs = append([]string(nil), args...) }
}

// WithReplication sets the storage/checkpoint replication factor
// (default 3).
func WithReplication(r int) Option {
	return func(c *config) { c.replication = r }
}

// WithVirtualNodes sets the virtual nodes per worker on the consistent-hash
// ring (default 64).
func WithVirtualNodes(v int) Option {
	return func(c *config) { c.vnodes = v }
}

// WithDataset stages one of the named deterministic datasets (dbpedia,
// twitter, lineitem, points) generated from (size, seed). On a TCP session
// this is how queries get data at all — every worker daemon regenerates
// its own partition from the same parameters, so no tuples cross the wire.
// On an in-process session it stages the identical tables, making results
// comparable across transports.
func WithDataset(name string, size int, seed int64) Option {
	return func(c *config) { c.dataset = name; c.datasetSize = size; c.datasetSeed = seed }
}

// WithServer connects the session to a running rexd query server
// (cmd/rexd) instead of owning an engine: QueryCtx, Stream, Prepare,
// Subscribe and the ingestion APIs route transparently over one multiplexed
// connection, and the server schedules the work on its shared worker
// pool alongside every other client session. The server owns the
// catalog, datasets, and handler bundles, so WithServer cannot be
// combined with the engine-shaping options (WithInProc, WithTCPPeers,
// WithAutoSpawn, WithDataset, WithHandlers). Admission rejections
// surface as ErrServerBusy.
func WithServer(addr string) Option {
	return func(c *config) { c.serverAddr = addr }
}

// WithServerTenant sets the session's default tenant id on a server
// session: it is announced in the connection handshake and every request
// the session issues schedules under that tenant's admission quota and
// fairness lane unless a per-query WithTenant overrides it. Requires
// WithServer.
func WithServerTenant(id string) Option {
	return func(c *config) { c.serverTenant = id }
}

// WithSpillDir backs the in-process session's stores with the paged
// storage subsystem under dir: table state lives in slotted page files,
// a buffer pool (see WithBufferPoolPages) keeps the hot working set in
// RAM, and datasets larger than memory spill to disk instead of growing
// the heap. Session.Close flushes dirty pages and seals a durable
// checkpoint image. In-process sessions only — TCP daemons place their
// paged stores under their own rexnode -data-dir.
func WithSpillDir(dir string) Option {
	return func(c *config) { c.spillDir = dir }
}

// WithBufferPoolPages sizes the paged-store buffer pool in 8 KiB pages
// (0 = the default). On an in-process session it takes effect with
// WithSpillDir; on a TCP session it crosses the wire in each job spec so
// one knob pins the working-set budget cluster-wide.
func WithBufferPoolPages(n int) Option {
	return func(c *config) { c.poolPages = n }
}

// WithHandlers registers a named delta-handler bundle ("pagerank",
// "sssp-inc") at Open. Go closures cannot cross process boundaries, so TCP
// sessions can only use handlers both sides know by name: the bundle name
// travels in each job spec and every rexnode daemon registers the same
// handlers before compiling the query. On an in-process session the same
// bundle is registered into the local catalog, keeping RQL text portable
// across transports.
func WithHandlers(bundle string) Option {
	return func(c *config) { c.handlers = bundle }
}

// Session is a running REX deployment: a catalog plus worker nodes with
// partitioned, replicated storage — in this process (WithInProc), as
// rexnode daemons over TCP (WithTCPPeers, WithAutoSpawn), or behind a rexd
// server (WithServer). One session runs queries sequentially; concurrent
// calls serialize on an internal lock.
type Session struct {
	mu sync.Mutex
	be backend

	// liveMu guards live, the stream or subscription currently holding mu
	// (see handOff). Close cancels it so an abandoned stream or
	// subscription cannot park the session lock forever.
	liveMu sync.Mutex
	live   io.Closer

	closed bool
}

// Open boots a session. With no options it is an in-process 4-node
// cluster:
//
//	s, err := rex.Open(ctx, rex.WithInProc(4))
//	defer s.Close()
//
// With a TCP option the same session API drives worker processes over
// real sockets:
//
//	s, err := rex.Open(ctx, rex.WithTCPPeers("h1:7101", "h2:7101"),
//		rex.WithDataset("dbpedia", 2000, 1))
func Open(ctx context.Context, opts ...Option) (*Session, error) {
	cfg := config{nodes: 4, replication: 3, vnodes: 64}
	for _, o := range opts {
		o(&cfg)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tcp := len(cfg.peers) > 0 || cfg.autospawn > 0
	if len(cfg.peers) > 0 && cfg.autospawn > 0 {
		return nil, fmt.Errorf("rex: WithTCPPeers and WithAutoSpawn are mutually exclusive")
	}
	if cfg.inproc && tcp {
		return nil, fmt.Errorf("rex: WithInProc cannot be combined with WithTCPPeers/WithAutoSpawn")
	}
	if cfg.serverAddr != "" && (cfg.inproc || tcp || cfg.dataset != "" || cfg.handlers != "") {
		return nil, fmt.Errorf("rex: WithServer cannot be combined with engine options (the rexd server owns the pool, datasets, and handlers)")
	}
	if cfg.spawnBin != "" && cfg.autospawn == 0 {
		return nil, fmt.Errorf("rex: WithSpawnCommand requires WithAutoSpawn")
	}
	if cfg.serverTenant != "" && cfg.serverAddr == "" {
		return nil, fmt.Errorf("rex: WithServerTenant requires WithServer (tenancy is a rexd scheduling concept)")
	}
	if cfg.spillDir != "" && (cfg.serverAddr != "" || tcp) {
		return nil, fmt.Errorf("rex: WithSpillDir is in-process only (rexnode daemons page under their own -data-dir)")
	}
	if cfg.handlers != "" {
		// Validate the bundle name eagerly on every transport; TCP daemons
		// register it per job from the spec.
		if err := job.RegisterBundle(catalog.New(), cfg.handlers); err != nil {
			return nil, err
		}
	}
	var be backend
	var err error
	switch {
	case cfg.serverAddr != "":
		be, err = dialServer(ctx, cfg.serverAddr, cfg.serverTenant)
	case tcp:
		be, err = openTCP(cfg)
	default:
		be, err = openInProc(cfg)
	}
	if err != nil {
		return nil, err
	}
	return &Session{be: be}, nil
}

// Close tears the session down: in-process mailboxes are closed; TCP
// connections are shut and daemons the session spawned are terminated and
// reaped. A live DeltaStream (consumed or abandoned), a running QueryCtx
// or a Subscription is cancelled first, so Close never deadlocks behind a
// stream nobody is draining; a buffered run (RunPlan, RunWorkload, a
// query with a recovery strategy) is waited out.
func (s *Session) Close() error {
	// Win s.mu without ever parking on it: the lock is held for a
	// stream's whole life, and a Stream call racing us registers its
	// stream only after acquiring the lock, so blocking on Lock() could
	// wait forever behind a stream we looked for too early. Re-check and
	// cancel until TryLock succeeds — once it does, no stream is live.
	for {
		s.liveMu.Lock()
		live := s.live
		s.liveMu.Unlock()
		if live != nil {
			live.Close() // cancel and wait for teardown, which releases s.mu
			continue
		}
		if s.mu.TryLock() {
			break
		}
		time.Sleep(time.Millisecond) // a buffered query run; wait it out
	}
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.be.close()
}

// lock acquires the session for one query, rejecting closed sessions
// with ErrSessionClosed.
func (s *Session) lock() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	return nil
}

// locked runs fn holding the session lock (the backends' lockFunc).
func (s *Session) locked(fn func() error) error {
	if err := s.lock(); err != nil {
		return err
	}
	defer s.mu.Unlock()
	return fn()
}

// Nodes reports the worker count (the server's pool size on a server
// session).
func (s *Session) Nodes() int { return s.be.nodes() }

// Catalog exposes the catalog for registering user-defined functions,
// aggregators, and delta handlers. Nil on TCP and server sessions — remote
// daemons rebuild their catalogs from job specs, so Go closures registered
// here could never reach them.
func (s *Session) Catalog() *catalog.Catalog {
	if b, err := s.be.local("Catalog"); err == nil {
		return b.cat
	}
	return nil
}

// Engine exposes the underlying executor of an in-process session (nil on
// TCP and server sessions).
func (s *Session) Engine() *exec.Engine {
	if b, err := s.be.local("Engine"); err == nil {
		return b.eng
	}
	return nil
}

// CreateTable declares a table hash-partitioned by the given column. On
// a server session the declaration lands in the server's shared catalog
// (and bumps its version, invalidating cached plans).
func (s *Session) CreateTable(name string, schema *types.Schema, partitionKey int) error {
	return s.be.createTable(name, schema, partitionKey)
}

// CatalogVersion reports the session's schema version: the catalog's on
// an in-process session, the staged schema catalog's over TCP, 0 on a
// server session (the server tracks its own; see Stats.Server). Plan
// caches key on it.
func (s *Session) CatalogVersion() int64 { return s.be.catalogVersion() }

// Load distributes tuples into the table's replicated partitions. It works
// on every transport: in-process the tuples go straight to the replicated
// stores; on a TCP session the load joins the session's change log, which
// every subsequent job replays into the daemons' regenerated tables; with
// a live subscription the load runs as an incremental ingestion round.
// Every tuple must match the table's schema width.
func (s *Session) Load(table string, tuples []Tuple) error {
	if s.liveSub() != nil {
		return s.LoadDeltas(table, types.Inserts(tuples...))
	}
	return s.be.load(table, tuples, s.locked)
}

// Insert ingests tuples as base-table insertions — delta-mode Load. A thin
// synchronous wrapper over IngestAsync: with a live subscription the
// change joins the next (possibly coalesced) incremental round and the
// call returns when that round's fixpoint completes; round statistics are
// on Subscription.Rounds.
func (s *Session) Insert(table string, tuples ...Tuple) error {
	return s.LoadDeltas(table, types.Inserts(tuples...))
}

// Delete ingests base-table deletions (see Insert). Deletions are exact
// for invertible operators (count/sum aggregates, set-semantics joins);
// min/max-style monotone recursions need insert-only churn — the same
// contract every incremental view-maintenance system carries.
func (s *Session) Delete(table string, tuples ...Tuple) error {
	deltas := make([]Delta, len(tuples))
	for i, t := range tuples {
		deltas[i] = Delete(t)
	}
	return s.LoadDeltas(table, deltas)
}

// LoadDeltas ingests an arbitrary base-table delta batch (insertions,
// deletions, replacements) — the general form of Insert/Delete, and the
// synchronous wrapper over IngestAsync: it blocks until the covering
// round completes (a no-op wait when no subscription is live).
func (s *Session) LoadDeltas(table string, deltas []Delta) error {
	if len(deltas) == 0 {
		return nil
	}
	ack, err := s.IngestAsync(table, deltas)
	if err != nil {
		return err
	}
	_, err = ack.Wait(context.Background())
	return err
}

// IngestAsync ingests a base-table delta batch without blocking on the
// covering round. With a live subscription the batch enqueues on the
// resident dataflow's ingestion pipeline: requests queued while a round is
// running coalesce — same-key deltas fold through the shuffle compactor —
// into a single follow-up round, and the returned ack resolves when that
// round's fixpoint completes (its output deltas are on the subscription
// stream by then). Without a subscription the change applies synchronously
// (store revision in-process, change-log append over TCP, the server's
// reply on a server session) and the ack is already resolved. Safe for
// concurrent callers.
func (s *Session) IngestAsync(table string, deltas []Delta) (*IngestAck, error) {
	return s.Ingests(map[string][]Delta{table: deltas})
}

// Ingests is the multi-table batched form of IngestAsync: every table's
// deltas ride the same covering round (or the same synchronous apply).
func (s *Session) Ingests(batches map[string][]Delta) (*IngestAck, error) {
	m := nonEmpty(batches)
	if len(m) == 0 {
		return exec.ResolvedAck(nil, nil), nil
	}
	if sub := s.liveSub(); sub != nil {
		return sub.q.IngestAsync(m)
	}
	return s.be.ingest(m, s.locked)
}

// RegisterFunc registers a scalar UDF callable from RQL (in-process
// sessions only).
func (s *Session) RegisterFunc(name string, argKinds []types.Kind, ret types.Kind,
	deterministic bool, fn func(args []Value) (Value, error)) error {
	b, err := s.be.local("RegisterFunc")
	if err != nil {
		return err
	}
	return b.cat.RegisterFunc(&catalog.FuncDef{
		Name: name, ArgKinds: argKinds, RetKind: ret,
		Fn: expr.ScalarFn(fn), Deterministic: deterministic,
	})
}

// JoinHandler registers a join-state delta handler (§3.3): called with the
// join buckets for a delta's key; revises them and writes output deltas,
// rows of the out schema, to the Emitter. Listing 1's PRAgg:
//
//	func(left, right *rex.TupleSet, d rex.Delta, fromLeft bool, out *rex.Emitter) error {
//		if fromLeft {
//			left.Add(d.Tup) // an edge (srcId, destId)
//			return nil
//		}
//		diff, _ := d.Tup[1].(float64)
//		for i := 0; i < left.Len(); i++ {
//			out.Begin(rex.OpUpdate)
//			out.Field(left, i, 1) // destId, read off the bucket's lanes
//			out.Float(diff / float64(left.Len()))
//			if err := out.End(); err != nil {
//				return err
//			}
//		}
//		return nil
//	}
func (s *Session) JoinHandler(name string, out *types.Schema,
	fn func(left, right *TupleSet, d Delta, fromLeft bool, out *Emitter) error) error {
	b, err := s.be.local("JoinHandler")
	if err != nil {
		return err
	}
	return b.cat.RegisterJoinHandler(&uda.FuncJoinHandler{HName: name, Out: out, Fn: fn})
}

// WhileHandler registers a while-state delta handler (§3.3): called by the
// fixpoint with the state bucket for a delta's key; writes the Δ set to
// feed the next stratum to the Emitter — typed (Begin, one call per
// column, End) or as a whole delta:
//
//	func(rel *rex.TupleSet, d rex.Delta, out *rex.Emitter) error {
//		switch {
//		case rel.Len() == 0:
//			rel.Add(d.Tup)
//		case rel.RowEqual(0, d.Tup):
//			return nil // no change: nothing to propagate
//		default:
//			rel.Set(0, d.Tup)
//		}
//		return out.Emit(d)
//	}
func (s *Session) WhileHandler(name string,
	fn func(rel *TupleSet, d Delta, out *Emitter) error) error {
	b, err := s.be.local("WhileHandler")
	if err != nil {
		return err
	}
	return b.cat.RegisterWhileHandler(&uda.FuncWhileHandler{HName: name, Fn: fn})
}

// QueryCtx compiles and executes an RQL query under a context: cancelling
// it (or hitting its deadline) aborts the query between strata with
// context.Canceled / DeadlineExceeded, and the session stays usable for
// the next query. Only the answer travels to the session: a recursive
// query's workers ship the relation at fixpoint once, not the per-stratum
// changelogs Stream delivers, and Close cancels the query in flight (one
// with a recovery strategy is waited out instead). It is the canonical
// query entry point on every transport; on a server session the text
// ships to the rexd server, which executes it from its shared plan cache
// and streams the result back. Per-query knobs are QueryOptions:
//
//	s.QueryCtx(ctx, src, rex.WithTenant("acme"), rex.WithPriority(rex.PriorityHigh))
func (s *Session) QueryCtx(ctx context.Context, src string, qopts ...QueryOption) (*Result, error) {
	opts := buildOptions(qopts)
	q, err := s.be.query(src, opts)
	if err != nil {
		return nil, err
	}
	return s.execute(ctx, q, opts)
}

// RunPlan executes a hand-built physical plan (the plan-level API used by
// the algorithm library and benchmarks) on an in-process session.
func (s *Session) RunPlan(ctx context.Context, plan *exec.PlanSpec, opts Options) (*Result, error) {
	b, err := s.be.local("RunPlan")
	if err != nil {
		return nil, err
	}
	return s.run(ctx, &planRun{b: b, plan: plan, opts: opts})
}

// Stream compiles src and executes it in streaming-result mode: the
// returned DeltaStream yields each stratum's state-change batch as
// punctuation closes the stratum on every node, so the consumer watches
// the fixpoint converge; folding every batch gives QueryCtx's answer.
// Works on every transport. The stream must be consumed or Closed. Use
// QueryCtx when only the answer matters: it ships the final relation
// once instead of every stratum's changelog.
func (s *Session) Stream(ctx context.Context, src string, qopts ...QueryOption) (*DeltaStream, error) {
	q, err := s.be.query(src, buildOptions(qopts))
	if err != nil {
		return nil, err
	}
	return s.startStream(ctx, q)
}

// StreamPlan is Stream for a hand-built physical plan (in-process only).
func (s *Session) StreamPlan(ctx context.Context, plan *exec.PlanSpec, opts Options) (*DeltaStream, error) {
	b, err := s.be.local("StreamPlan")
	if err != nil {
		return nil, err
	}
	return s.startStream(ctx, &planRun{b: b, plan: plan, opts: opts})
}

// RunWorkload executes a self-contained workload description. On a TCP
// session this is the full multi-process path: the spec ships to every
// daemon, each rebuilds the identical catalog, plan, and data partition,
// and the session process coordinates the query. On an in-process session
// the same spec runs on a fresh single-process engine, so results are
// directly comparable across transports. tune, when non-nil, adjusts the
// driver-side options (recovery strategy, stratum hooks) before the run.
func (s *Session) RunWorkload(ctx context.Context, w *Workload, tune func(*Options)) (*Result, error) {
	x, err := s.be.workload("RunWorkload", w, tune)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, x)
}

// StreamWorkload is RunWorkload in streaming-result mode.
func (s *Session) StreamWorkload(ctx context.Context, w *Workload, tune func(*Options)) (*DeltaStream, error) {
	x, err := s.be.workload("StreamWorkload", w, tune)
	if err != nil {
		return nil, err
	}
	return s.startStream(ctx, x)
}

// Kill injects a node failure (for testing recovery). On TCP sessions the
// remote daemon is told to drop traffic and pushes a final stats frame so
// the dead node's traffic stays in the byte accounting.
func (s *Session) Kill(node int) error {
	tr, err := s.nodeTransport("Kill", node)
	if err == nil {
		tr.Kill(cluster.NodeID(node))
	}
	return err
}

// Revive restores a killed node so successive runs can reuse the session.
func (s *Session) Revive(node int) error {
	tr, err := s.nodeTransport("Revive", node)
	if err == nil {
		tr.Revive(cluster.NodeID(node))
	}
	return err
}

func (s *Session) nodeTransport(what string, node int) (cluster.Transport, error) {
	tr, err := s.be.transport(what)
	if err != nil {
		return nil, err
	}
	if node < 0 || node >= s.Nodes() {
		return nil, fmt.Errorf("rex: no node %d (cluster has %d)", node, s.Nodes())
	}
	return tr, nil
}

// BytesShipped reports the total bytes sent between workers — measured
// wire bytes on both transports (socket bytes over TCP, after the
// end-of-run metrics sync); 0 on a server session, whose pool does the
// shipping.
func (s *Session) BytesShipped() int64 {
	tr, err := s.be.transport("BytesShipped")
	if err != nil {
		return 0
	}
	return tr.Metrics().TotalBytesSent()
}

// execute runs x to completion as a drained one-shot query: the buffered
// run, under a stream handle so Close cancels it in flight. A recursive
// query's fixpoint ships its final relation once instead of a changelog
// per stratum that would only be folded away. A recovery strategy makes it
// a plain buffered run, which Close waits out.
func (s *Session) execute(ctx context.Context, x execution, opts Options) (*Result, error) {
	if opts.Recovery != RecoveryNone {
		return s.run(ctx, x)
	}
	if err := s.lock(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st, feed := exec.NewRemoteStream(cancel)
	s.handOff(st, st.Done())
	res, err := x.run(ctx)
	feed.Finish(res, err)
	return res, err
}

// drain folds a started stream into its Result.
func drain(st *exec.ResultStream, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return st.Drain()
}

// run executes x buffered under the session lock.
func (s *Session) run(ctx context.Context, x execution) (*Result, error) {
	if err := s.lock(); err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	return x.run(ctx)
}

// startStream starts x in streaming mode, handing the session lock to the
// stream.
func (s *Session) startStream(ctx context.Context, x execution) (*DeltaStream, error) {
	if err := s.lock(); err != nil {
		return nil, err
	}
	return s.unlockWhenDone(x.stream(ctx))
}

// unlockWhenDone hands the session lock to a running stream, released
// when the stream's query fully tears down.
func (s *Session) unlockWhenDone(st *exec.ResultStream, err error) (*DeltaStream, error) {
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.handOff(st, st.Done())
	return st, nil
}

// handOff gives the held session lock to a live stream or subscription:
// it is recorded so Close can cancel it if the caller abandons it, and
// the lock is released once done closes.
func (s *Session) handOff(live io.Closer, done <-chan struct{}) {
	s.liveMu.Lock()
	s.live = live
	s.liveMu.Unlock()
	go func() {
		<-done
		s.liveMu.Lock()
		if s.live == live {
			s.live = nil
		}
		s.liveMu.Unlock()
		s.mu.Unlock()
	}()
}
