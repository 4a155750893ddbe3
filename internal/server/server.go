// Package server implements rexd: a multi-tenant REX query server. One
// process owns a partitioned engine — SubPools identically staged worker
// pools over the same deterministic data — and one catalog, and admits
// many concurrent client sessions over the same length-prefixed wire
// format the worker transport speaks. Clients connect with
// rex.Open(ctx, rex.WithServer(addr), rex.WithServerTenant(id)) and use
// the normal Session API; the server schedules their work across the
// sub-pools — one runner per pool, so up to SubPools queries execute
// genuinely concurrently — under a priority-aware, tenant-fair
// discipline: interactive queries order high-priority-first with
// round-robin across tenants inside each level, standing-query refresh
// rounds share the runners under weighted fair queueing, per-tenant
// inflight quotas reject over-quota tenants with ErrTenantBusy, and a
// bounded global admission window sheds overload with ErrServerBusy.
// Each distinct query text compiles once into a cross-session plan
// cache, and every subscription runs as a resident standing dataflow
// whose rounds cost the net change, not a recompute. The pools' tables
// are the only record of the served state: a new subscription's flow
// boots from a copy of them.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	rex "github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/rql"
	"github.com/rex-data/rex/internal/srvproto"
	"github.com/rex-data/rex/internal/types"
)

// Config tunes a Server.
type Config struct {
	// Nodes sizes each in-process worker pool (default 4). Ignored when
	// Peers attach external rexnode daemons instead.
	Nodes int
	// SubPools partitions the engine into this many identically staged
	// worker pools (default 2): queries admitted together run genuinely
	// concurrently, one per pool, at the cost of one staged copy of the
	// data per pool. Forced to 1 when Peers front a distributed pool (the
	// daemons are the parallelism budget there).
	SubPools int
	// Peers are rexnode daemon addresses; when set the server fronts a
	// distributed pool (catalog declarations then require a Dataset, as
	// on any TCP session).
	Peers []string
	// Dataset/Size/Seed stage a deterministic dataset at startup (the
	// rex.WithDataset form); empty means an empty catalog that clients
	// populate with CreateTable.
	Dataset string
	Size    int
	Seed    int64
	// Handlers names a delta-handler bundle to register (rex.WithHandlers).
	Handlers string
	// Replication is the store replication factor (0 = session default).
	Replication int
	// DataDir, when set on an in-process pool, backs the workers' stores
	// with paged spill-to-disk files under it (rex.WithSpillDir): datasets
	// larger than RAM page through a buffer pool, and Close flushes dirty
	// pages into durable checkpoint images. Each sub-pool pages under its
	// own subdirectory. With Peers the daemons page under their own
	// rexnode -data-dir instead, so DataDir must be empty.
	DataDir string
	// BufferPoolPages sizes the paged-store buffer pool in 8 KiB pages
	// (0 = default). With Peers it crosses the wire in every job spec.
	BufferPoolPages int

	// MaxSessions caps concurrently connected clients (default 64);
	// beyond it the handshake is refused with ErrServerBusy.
	MaxSessions int
	// MaxInflight is the admission window: how many requests may hold
	// slots at once (default 16). Admitted requests queue on the
	// scheduler for a runner, so this bounds the *committed* backlog.
	MaxInflight int
	// MaxQueue bounds how many requests may wait for an admission slot
	// (default 64); beyond it requests fail fast with ErrServerBusy.
	MaxQueue int
	// TenantQuota caps any one tenant's inflight requests — admitted plus
	// queued (0 = unlimited). A tenant at quota is rejected immediately
	// with ErrTenantBusy; other tenants' capacity is unaffected.
	TenantQuota int
	// TenantQuotas overrides TenantQuota per tenant id.
	TenantQuotas map[string]int
	// PlanCacheCap bounds the cross-session plan cache (default 256
	// entries, LRU eviction).
	PlanCacheCap int
	// LogWriter, when set, receives one line per accepted session and
	// per error (default: silent).
	LogWriter io.Writer
}

func (c *Config) defaults() {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.SubPools <= 0 {
		c.SubPools = 2
	}
	if len(c.Peers) > 0 {
		c.SubPools = 1
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 16
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.PlanCacheCap <= 0 {
		c.PlanCacheCap = 256
	}
}

// helloTimeout bounds how long an accepted connection may dawdle before
// completing the handshake.
const helloTimeout = 30 * time.Second

// maxRowsPayload is the delta-payload budget per MsgRows frame; larger
// batches split so no frame approaches the transport's MaxFrame cap.
const maxRowsPayload = srvproto.MaxFrame - 64*1024

// Server is a running rexd instance.
type Server struct {
	cfg   Config
	be    *backend // the partitioned engine: sub-pools + standing flows
	cache *planCache
	sched *sched
	gate  *gate

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*srvConn]struct{}
	closed bool
	wg     sync.WaitGroup
	flowWG sync.WaitGroup // resident-flow teardowns; waited after sched drain

	stSessions atomic.Int64
	stActive   atomic.Int64
	stQueries  atomic.Int64
	stRejected atomic.Int64
	stSubs     atomic.Int64
	stRounds   atomic.Int64
	stIngests  atomic.Int64
}

// New boots the sub-pools and builds the server. Close releases
// everything, the pools included.
func New(cfg Config) (*Server, error) {
	cfg.defaults()
	ctx, cancel := context.WithCancel(context.Background())
	be, err := newBackend(ctx, cfg)
	if err != nil {
		cancel()
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		be:         be,
		sched:      newSched(be.size()),
		gate:       newGate(cfg.MaxInflight, cfg.MaxQueue, cfg.TenantQuota, cfg.TenantQuotas),
		baseCtx:    ctx,
		baseCancel: cancel,
		conns:      map[*srvConn]struct{}{},
	}
	s.cache = newPlanCache(be, cfg.PlanCacheCap)
	return s, nil
}

// Listen starts accepting client sessions on addr, returning the bound
// listener (addr may use port 0). Serve runs on a background goroutine.
func (s *Server) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, srvproto.ErrSessionClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serve(ln)
	}()
	return ln, nil
}

func (s *Server) serve(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(nc)
		}()
	}
}

// Close stops accepting, tears down every session (reaping their
// standing flows), waits for handlers, drains the scheduler, waits for
// flow teardowns, and closes the sub-pools.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.baseCancel()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.nc.Close()
	}
	s.wg.Wait()
	s.sched.close()
	s.flowWG.Wait()
	return s.be.close()
}

// Stats snapshots the server counters.
func (s *Server) Stats() srvproto.ServerStats {
	hits, misses, compiles := s.cache.counters()
	pool := s.be.poolStats()
	g := s.gate.snapshot()
	kern := exec.ReadKernelStats()
	return srvproto.ServerStats{
		PoolHits:             pool.Hits,
		PoolMisses:           pool.Misses,
		PoolEvictions:        pool.Evictions,
		PoolBytesSpilled:     pool.BytesSpilled,
		KernelCompiled:       kern.Compiled,
		KernelVectorBatches:  kern.VectorBatches,
		KernelBridgedBatches: kern.BridgedBatches,
		KernelFallbackEvals:  kern.FallbackEvals,
		Sessions:             s.stSessions.Load(),
		ActiveSessions:       s.stActive.Load(),
		Queries:              s.stQueries.Load(),
		Rejected:             s.stRejected.Load(),
		QuotaRejections:      g.quotaRejects,
		SubPools:             int64(s.be.size()),
		Inflight:             g.inflight,
		QueueDepth:           g.waiting,
		Tenants:              g.tenants,
		Compiles:             compiles,
		PlanCacheHits:        hits,
		PlanCacheMisses:      misses,
		PlanCacheSize:        s.cache.size(),
		Subscriptions:        s.stSubs.Load(),
		Rounds:               s.stRounds.Load(),
		Ingests:              s.stIngests.Load(),
		CatalogVersion:       s.be.catalogVersion(),
	}
}

// StatsHandler serves the counters as JSON — mount it on /stats.
func (s *Server) StatsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Stats())
	})
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.LogWriter != nil {
		fmt.Fprintf(s.cfg.LogWriter, format+"\n", args...)
	}
}

// srvConn is one client session's connection.
type srvConn struct {
	srv    *Server
	nc     net.Conn
	tenant string // Hello tenant; per-request QueryOpts.Tenant overrides

	wmu sync.Mutex // serializes outgoing frames

	mu   sync.Mutex
	reqs map[int]context.CancelFunc
	subs map[int]*srvSub
}

// handleConn runs the handshake and then the per-session read loop.
func (s *Server) handleConn(nc net.Conn) {
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(helloTimeout))
	br := bufio.NewReader(nc)
	m, err := srvproto.ReadMsg(br)
	if err != nil || m.Kind != cluster.MsgHello {
		return
	}
	var hello srvproto.Hello
	if err := json.Unmarshal(m.Payload, &hello); err != nil {
		return
	}
	c := &srvConn{srv: s, nc: nc, tenant: hello.Tenant,
		reqs: map[int]context.CancelFunc{}, subs: map[int]*srvSub{}}
	refuse := func(code int, err error) {
		_ = c.writeMsg(cluster.Message{Kind: cluster.MsgHello,
			Payload: srvproto.EncodeJSON(srvproto.Welcome{Code: code, Err: err.Error()})})
	}
	if hello.Version != srvproto.Version {
		refuse(srvproto.CodeBadRequest, fmt.Errorf("server: protocol version %d not supported (want %d)", hello.Version, srvproto.Version))
		return
	}
	if !s.admitSession(c) {
		s.stRejected.Add(1)
		refuse(srvproto.CodeBusy, srvproto.ErrServerBusy)
		return
	}
	defer s.releaseSession(c)
	if err := c.writeMsg(cluster.Message{Kind: cluster.MsgHello,
		Payload: srvproto.EncodeJSON(srvproto.Welcome{OK: true, Nodes: s.be.pool(0).Nodes()})}); err != nil {
		return
	}
	_ = nc.SetDeadline(time.Time{})
	s.logf("session from %s (tenant %q)", nc.RemoteAddr(), c.tenant)

	for {
		m, err := srvproto.ReadMsg(br)
		if err != nil {
			return
		}
		if m.Kind != cluster.MsgQuery {
			continue
		}
		var req srvproto.Request
		if err := json.Unmarshal(m.Payload, &req); err != nil {
			c.writeErr(m.Edge, fmt.Errorf("%w: %w", srvproto.ErrBadRequest, err))
			continue
		}
		if req.Op == srvproto.OpCancel {
			c.cancel(req.Target)
			continue
		}
		ctx, cancel := context.WithCancel(s.baseCtx)
		c.track(m.Edge, cancel)
		s.wg.Add(1)
		go func(id, framePrio int, req srvproto.Request) {
			defer s.wg.Done()
			defer cancel()
			defer c.untrack(id)
			s.handleRequest(c, ctx, id, framePrio, req)
		}(m.Edge, m.Priority, req)
	}
}

// admitSession admits a connection under the session cap.
func (s *Server) admitSession(c *srvConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.conns) >= s.cfg.MaxSessions {
		return false
	}
	s.conns[c] = struct{}{}
	s.stSessions.Add(1)
	s.stActive.Add(1)
	return true
}

// releaseSession tears down a departing connection: in-flight requests
// cancel, its subscriptions reap silently.
func (s *Server) releaseSession(c *srvConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.stActive.Add(-1)
	c.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(c.reqs))
	for _, cancel := range c.reqs {
		cancels = append(cancels, cancel)
	}
	subs := make([]*srvSub, 0, len(c.subs))
	for _, sub := range c.subs {
		subs = append(subs, sub)
	}
	c.reqs, c.subs = map[int]context.CancelFunc{}, map[int]*srvSub{}
	c.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	for _, sub := range subs {
		sub.reap()
	}
}

// handleRequest dispatches one request (already off the read loop).
// Scheduling metadata resolves here: the session's Hello tenant unless
// the request overrides it, and the request's priority (the frame header
// copy is the fallback when no opts travelled).
func (s *Server) handleRequest(c *srvConn, ctx context.Context, id, framePrio int, req srvproto.Request) {
	tenant := c.tenant
	prio := framePrio
	if req.Opts != nil {
		if req.Opts.Tenant != "" {
			tenant = req.Opts.Tenant
		}
		if req.Opts.Priority != 0 {
			prio = req.Opts.Priority
		}
	}
	switch req.Op {
	case srvproto.OpStream:
		s.doStream(c, ctx, id, req, tenant, prio)
	case srvproto.OpSubscribe:
		s.doSubscribe(c, ctx, id, req, tenant, prio)
	case srvproto.OpPrepare:
		s.doPrepare(c, id, req)
	case srvproto.OpIngest:
		s.doIngest(c, ctx, id, req, tenant)
	case srvproto.OpCreateTable:
		s.doCreateTable(c, id, req)
	case srvproto.OpStats:
		c.writeClosed(id, &srvproto.Trailer{Stats: ptr(s.Stats())})
	default:
		c.writeErr(id, fmt.Errorf("server: unknown op %q", req.Op))
	}
}

func ptr[T any](v T) *T { return &v }

// admit runs task through the admission gate and the tenant-fair
// scheduler, blocking until it completes on a runner (whose sub-pool
// index it receives). The task does not write its own last frame: it
// returns the closing trailer or the error, and admit writes it only
// after the admission slot is back in the gate — a client that has read
// its answer must never find its own finished request still counted
// against its quota. (nil, nil) means there is nothing more to write.
func (s *Server) admit(c *srvConn, ctx context.Context, id int, tenant string, prio int, task func(pool int) (*srvproto.Trailer, error)) {
	sl, err := s.gate.acquire(ctx, tenant)
	if err != nil {
		if errors.Is(err, srvproto.ErrServerBusy) {
			s.stRejected.Add(1)
		}
		c.writeErr(id, err)
		return
	}
	tr, err := func() (*srvproto.Trailer, error) {
		defer sl.release()
		var tr *srvproto.Trailer
		var taskErr error
		done := make(chan struct{})
		err := s.sched.submitQuery(tenant, prio, func(pool int) {
			defer close(done)
			tr, taskErr = task(pool)
		})
		if err != nil {
			return nil, err
		}
		<-done
		return tr, taskErr
	}()
	switch {
	case err != nil:
		c.writeErr(id, err)
	case tr != nil:
		c.writeClosed(id, tr)
	}
}

// doStream executes an ad-hoc query on the runner's sub-pool and streams
// its delta batches back.
func (s *Server) doStream(c *srvConn, ctx context.Context, id int, req srvproto.Request, tenant string, prio int) {
	s.admit(c, ctx, id, tenant, prio, func(pool int) (*srvproto.Trailer, error) {
		args, err := srvproto.DecodeArgs(req.Args)
		if err != nil {
			return nil, err
		}
		stmt, _, err := s.cache.get(req.Src, pool)
		if err != nil {
			return nil, err
		}
		s.stQueries.Add(1)
		st, err := stmt.StreamCtx(ctx, execOpts(req.Opts), args...)
		if err != nil {
			return nil, err
		}
		var sent int64
		for {
			b, ok := st.Next()
			if !ok {
				break
			}
			n, werr := c.writeRows(id, b.Stratum, b.Round, b.Deltas)
			sent += n
			if werr != nil {
				st.Close()
				return nil, nil // connection gone
			}
		}
		if err := st.Err(); err != nil {
			return nil, err
		}
		res := *st.Result()
		res.Tuples = nil // the tuples travelled as delta frames
		if res.BytesSent == 0 {
			res.BytesSent = sent
		}
		return &srvproto.Trailer{Result: &res}, nil
	})
}

// doSubscribe installs a standing query as a resident dataflow: a
// dedicated flow session boots from the tables the runner's sub-pool
// serves, its initial fixpoint streams as round 0, and the pump stays
// live until cancelled (or its connection drops), fed staged deltas by
// covering ingests.
func (s *Server) doSubscribe(c *srvConn, ctx context.Context, id int, req srvproto.Request, tenant string, prio int) {
	s.admit(c, ctx, id, tenant, prio, func(pool int) (*srvproto.Trailer, error) {
		opts := execOpts(req.Opts)
		sub := newSrvSub(s, c, id, req.Src, opts)
		// A client cancel during bring-up aborts the flow; once resident
		// the flow outlives the subscribe request.
		stop := context.AfterFunc(ctx, sub.cancel)
		tables, err := s.be.register(sub.ctx, pool, sub)
		if err != nil {
			sub.kill()
			return nil, err
		}
		flow, err := s.be.newFlowSession(sub.ctx, tables)
		if err != nil {
			sub.kill()
			return nil, err
		}
		sub.mu.Lock()
		sub.flow = flow
		sub.mu.Unlock()
		s.stQueries.Add(1)
		fsub, err := flow.Subscribe(sub.ctx, req.Src, rex.WithOptions(opts))
		if err == nil && !stop() {
			fsub.Close()
			err = ctx.Err() // cancelled during bring-up
		}
		if err != nil {
			sub.kill()
			return nil, err
		}
		sub.mu.Lock()
		sub.fsub = fsub
		sub.mu.Unlock()
		// Register before the round-0 boundary is written: the client may
		// Close as soon as it reads the boundary, and its cancel must find
		// the sub (the request context no longer reaches a resident flow).
		c.addSub(id, sub)
		// Forward the initial fixpoint's buffered batches as round 0.
		st := fsub.Stream()
		var sent int64
		var werr error
		for werr == nil {
			b, ok := st.TryNext()
			if !ok {
				break
			}
			var n int64
			n, werr = c.writeRows(id, b.Stratum, b.Round, b.Deltas)
			sent += n
		}
		var rs rex.RoundStats
		if rounds := fsub.Rounds(); len(rounds) > 0 {
			rs = rounds[0]
		}
		if rs.BytesSent == 0 {
			rs.BytesSent = sent
		}
		if werr == nil {
			werr = c.writeBoundary(id, 0, &srvproto.Trailer{Round: &rs})
		}
		if werr != nil {
			sub.kill() // connection gone; silent teardown
			c.removeSub(id)
			return nil, nil
		}
		sub.activate(flow, fsub, &rs)
		s.stSubs.Add(1)
		return nil, nil // resident: the round-0 boundary was its reply
	})
}

// doPrepare compiles into the plan cache and reports the parameter count.
func (s *Server) doPrepare(c *srvConn, id int, req srvproto.Request) {
	stmt, _, err := s.cache.get(req.Src, 0)
	if err != nil {
		c.writeErr(id, err)
		return
	}
	c.writeClosed(id, &srvproto.Trailer{NumParams: stmt.NumParams()})
}

// doIngest applies base-table deltas to every sub-pool, fans the change
// out to every standing flow, and replies once all covering rounds have
// completed — so the requester's subscription stream already holds its
// round when the ingest returns.
func (s *Server) doIngest(c *srvConn, ctx context.Context, id int, req srvproto.Request, tenant string) {
	batches := make(map[string][]rex.Delta, len(req.Tables))
	for table, enc := range req.Tables {
		ds, err := cluster.DecodeDeltas(enc)
		if err != nil {
			c.writeErr(id, fmt.Errorf("%w: ingest %s: %w", srvproto.ErrBadRequest, table, err))
			return
		}
		batches[table] = ds
	}
	sl, err := s.gate.acquire(ctx, tenant)
	if err != nil {
		if errors.Is(err, srvproto.ErrServerBusy) {
			s.stRejected.Add(1)
		}
		c.writeErr(id, err)
		return
	}
	// As in admit, the slot is released before the reply is written.
	reqRound, err := func() (*rex.RoundStats, error) {
		defer sl.release()
		targets, err := s.be.ingest(batches)
		if err != nil {
			return nil, err
		}
		s.stIngests.Add(1)
		var reqRound *rex.RoundStats
		for _, w := range targets {
			rs := w.sub.await(w.target)
			if w.sub.conn == c && rs != nil {
				reqRound = rs
			}
		}
		return reqRound, nil
	}()
	if err != nil {
		c.writeErr(id, err)
		return
	}
	c.writeClosed(id, &srvproto.Trailer{Round: reqRound})
}

// doCreateTable declares a table on every sub-pool's catalog, bumping
// the shared version (stranding every cached plan compiled before it).
func (s *Server) doCreateTable(c *srvConn, id int, req srvproto.Request) {
	if !rql.IsIdent(req.Table) {
		// A standing query's flow captures every table by name in RQL.
		c.writeErr(id, fmt.Errorf("%w: table name %q is not an RQL identifier", srvproto.ErrBadRequest, req.Table))
		return
	}
	schema := &types.Schema{}
	for _, spec := range req.Fields {
		name, typ, ok := cutField(spec)
		if !ok {
			c.writeErr(id, fmt.Errorf("server: bad field spec %q (want name:Type)", spec))
			return
		}
		k, err := types.ParseKind(typ)
		if err != nil {
			c.writeErr(id, err)
			return
		}
		schema.Fields = append(schema.Fields, types.Field{Name: name, Kind: k})
	}
	if err := s.be.createTable(req.Table, schema, req.Key); err != nil {
		c.writeErr(id, err)
		return
	}
	c.writeClosed(id, nil)
}

func cutField(spec string) (name, typ string, ok bool) {
	for i := 0; i < len(spec); i++ {
		if spec[i] == ':' {
			return spec[:i], spec[i+1:], true
		}
	}
	return "", "", false
}

// execOpts widens the wire option subset back to exec options. Tenant
// and priority stay out — they are scheduling metadata, consumed before
// execution.
func execOpts(o *srvproto.QueryOpts) rex.Options {
	if o == nil {
		return rex.Options{}
	}
	return rex.Options{
		BatchSize:   o.BatchSize,
		MaxStrata:   o.MaxStrata,
		Checkpoint:  o.Checkpoint,
		NoVectorize: o.NoVectorize,
	}
}

// --- srvConn plumbing ---

func (c *srvConn) track(id int, cancel context.CancelFunc) {
	c.mu.Lock()
	c.reqs[id] = cancel
	c.mu.Unlock()
}

func (c *srvConn) untrack(id int) {
	c.mu.Lock()
	delete(c.reqs, id)
	c.mu.Unlock()
}

func (c *srvConn) addSub(id int, sub *srvSub) {
	c.mu.Lock()
	c.subs[id] = sub
	c.mu.Unlock()
}

func (c *srvConn) removeSub(id int) {
	c.mu.Lock()
	delete(c.subs, id)
	c.mu.Unlock()
}

// cancel aborts the request (or unsubscribes the standing query) with the
// given id. A subscription ends cleanly — its stream's final frame is a
// normal close, not an error — so a deliberate client Close reports nil.
func (c *srvConn) cancel(target int) {
	c.mu.Lock()
	sub := c.subs[target]
	cancelFn := c.reqs[target]
	c.mu.Unlock()
	if sub != nil {
		sub.unsubscribe()
		return
	}
	if cancelFn != nil {
		cancelFn()
	}
}

func (c *srvConn) writeMsg(m cluster.Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return srvproto.WriteMsg(c.nc, m)
}

// writeRows ships a delta batch as one or more MsgRows frames, splitting
// batches whose encoding would approach the frame cap. Returns payload
// bytes written.
func (c *srvConn) writeRows(id, stratum, round int, deltas []types.Delta) (int64, error) {
	if len(deltas) == 0 {
		return 0, nil
	}
	payload := cluster.EncodeDeltas(deltas)
	if len(payload) > maxRowsPayload && len(deltas) > 1 {
		half := len(deltas) / 2
		n1, err := c.writeRows(id, stratum, round, deltas[:half])
		if err != nil {
			return n1, err
		}
		n2, err := c.writeRows(id, stratum, round, deltas[half:])
		return n1 + n2, err
	}
	err := c.writeMsg(cluster.Message{Kind: cluster.MsgRows, Edge: id,
		Stratum: stratum, Count: round, Payload: payload})
	return int64(len(payload)), err
}

// writeBoundary marks a standing-query round boundary, carrying the
// round's stats in the trailer.
func (c *srvConn) writeBoundary(id, round int, tr *srvproto.Trailer) error {
	return c.writeMsg(cluster.Message{Kind: cluster.MsgRows, Edge: id,
		Count: round, Terminate: true, Table: string(srvproto.EncodeJSON(tr))})
}

// writeClosed sends a request's final frame (trailer optional).
func (c *srvConn) writeClosed(id int, tr *srvproto.Trailer) error {
	m := cluster.Message{Kind: cluster.MsgRows, Edge: id, Closed: true}
	if tr != nil {
		m.Table = string(srvproto.EncodeJSON(tr))
	}
	return c.writeMsg(m)
}

func (c *srvConn) writeErr(id int, err error) {
	_ = c.writeMsg(cluster.Message{Kind: cluster.MsgErr, Edge: id,
		Count: srvproto.CodeFor(err), Table: err.Error()})
}
