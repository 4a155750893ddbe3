package rex

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/srvproto"
	"github.com/rex-data/rex/internal/types"
)

// ServerStats is the rexd server's counter snapshot: sessions admitted,
// queries run and rejected, plan-cache hits/misses/compiles, standing
// rounds. Reported in Stats.Server on server sessions and by the server's
// /stats HTTP endpoint.
type ServerStats = srvproto.ServerStats

// handshakeTimeout bounds the hello exchange when the dialing context
// carries no deadline of its own.
const handshakeTimeout = 30 * time.Second

// serverConn is a client session's connection to a rexd server, and the
// backend of a WithServer session: one socket multiplexing every request
// the session issues. A write mutex serializes outgoing frames; a demux
// read loop routes incoming frames to their request by the echoed id.
// Data-carrying requests feed a remote ResultStream (so QueryCtx, Stream
// and Subscribe hand back the same stream type an in-process run does);
// single-reply requests park on a buffered channel.
type serverConn struct {
	nc       net.Conn
	n        int // the server pool's worker count
	readDone chan struct{}

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[int]*srvPending
	nextID  int
	closed  bool
	err     error // terminal connection error, nil on deliberate close
}

// srvPending routes one in-flight request's reply frames. Exactly one of
// feeder/reply is set.
type srvPending struct {
	feeder  *exec.StreamFeeder
	onRound func(RoundStats)
	reply   chan cluster.Message
}

// dialServer connects and performs the hello exchange, announcing the
// session's default tenant.
func dialServer(ctx context.Context, addr, tenant string) (*serverConn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rex: dial server %s: %w", addr, err)
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(handshakeTimeout)
	}
	_ = nc.SetDeadline(deadline)
	hello := cluster.Message{Kind: cluster.MsgHello, Payload: srvproto.EncodeJSON(srvproto.Hello{Version: srvproto.Version, Tenant: tenant})}
	if err := srvproto.WriteMsg(nc, hello); err != nil {
		nc.Close()
		return nil, fmt.Errorf("rex: server handshake: %w", err)
	}
	br := bufio.NewReader(nc)
	m, err := srvproto.ReadMsg(br)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("rex: server handshake: %w", err)
	}
	if m.Kind != cluster.MsgHello {
		nc.Close()
		return nil, fmt.Errorf("rex: server handshake: unexpected frame kind %d", m.Kind)
	}
	var w srvproto.Welcome
	if err := json.Unmarshal(m.Payload, &w); err != nil {
		nc.Close()
		return nil, fmt.Errorf("rex: server handshake: %w", err)
	}
	if !w.OK {
		nc.Close()
		return nil, srvproto.Rehydrate(w.Code, w.Err)
	}
	_ = nc.SetDeadline(time.Time{})
	c := &serverConn{
		nc:       nc,
		n:        w.Nodes,
		readDone: make(chan struct{}),
		pending:  map[int]*srvPending{},
	}
	go c.readLoop(br)
	return c, nil
}

// register allocates a request id for a pending entry.
func (c *serverConn) register(p *srvPending) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		if c.err != nil {
			return 0, fmt.Errorf("rex: server connection lost: %w", c.err)
		}
		return 0, ErrSessionClosed
	}
	c.nextID++
	c.pending[c.nextID] = p
	return c.nextID, nil
}

func (c *serverConn) unregister(id int) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// write sends one frame under the write mutex.
func (c *serverConn) write(m cluster.Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return srvproto.WriteMsg(c.nc, m)
}

// sendReq ships a request frame; on a write failure the pending entry is
// withdrawn (the read loop will observe the broken socket shortly). The
// request's priority rides the frame header too, so the server can
// classify it before decoding the JSON body.
func (c *serverConn) sendReq(id int, req srvproto.Request) error {
	m := cluster.Message{Kind: cluster.MsgQuery, Edge: id, Payload: srvproto.EncodeJSON(req)}
	if req.Opts != nil {
		m.Priority = req.Opts.Priority
	}
	err := c.write(m)
	if err != nil {
		c.unregister(id)
		return fmt.Errorf("rex: send to server: %w", err)
	}
	return nil
}

// cancelReq asks the server to abort an in-flight request; best-effort —
// the addressed request always ends with its own terminal frame.
func (c *serverConn) cancelReq(id int) {
	_ = c.write(cluster.Message{Kind: cluster.MsgQuery, Payload: srvproto.EncodeJSON(srvproto.Request{Op: srvproto.OpCancel, Target: id})})
}

// readLoop demultiplexes server frames to their pending requests until
// the connection dies.
func (c *serverConn) readLoop(br *bufio.Reader) {
	defer close(c.readDone)
	for {
		m, err := srvproto.ReadMsg(br)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		p := c.pending[m.Edge]
		if m.Kind == cluster.MsgErr || m.Closed {
			delete(c.pending, m.Edge)
		}
		c.mu.Unlock()
		if p == nil {
			continue // reply to a cancelled/abandoned request
		}
		if p.reply != nil {
			if m.Kind == cluster.MsgErr || m.Closed {
				select {
				case p.reply <- m:
				default:
				}
			}
			continue
		}
		c.deliverStream(p, m)
	}
}

// deliverStream routes one frame of a data-carrying request into its
// remote stream.
func (c *serverConn) deliverStream(p *srvPending, m cluster.Message) {
	switch m.Kind {
	case cluster.MsgErr:
		p.feeder.Finish(nil, srvproto.Rehydrate(m.Count, m.Table))
	case cluster.MsgRows:
		if len(m.Payload) > 0 {
			ds, err := cluster.DecodeDeltas(m.Payload)
			if err != nil {
				// Corrupt framing poisons the whole connection, not just
				// this request — nothing after it can be trusted.
				c.fail(fmt.Errorf("rex: server stream decode: %w", err))
				c.nc.Close()
				return
			}
			p.feeder.Push(exec.StreamBatch{Stratum: m.Stratum, Round: m.Count, Deltas: ds})
		}
		if m.Terminate && p.onRound != nil {
			if tr, err := parseTrailer(m); err == nil && tr.Round != nil {
				p.onRound(*tr.Round)
			}
		}
		if m.Closed {
			tr, err := parseTrailer(m)
			if err != nil {
				p.feeder.Finish(nil, err)
				return
			}
			res := tr.Result
			if res == nil {
				res = &exec.Result{}
			}
			p.feeder.Finish(res, nil)
		}
	}
}

func parseTrailer(m cluster.Message) (*srvproto.Trailer, error) {
	var tr srvproto.Trailer
	if m.Table != "" {
		if err := json.Unmarshal([]byte(m.Table), &tr); err != nil {
			return nil, fmt.Errorf("rex: server trailer: %w", err)
		}
	}
	return &tr, nil
}

// fail terminates every pending request with err (connection lost).
func (c *serverConn) fail(err error) {
	c.mu.Lock()
	if c.closed && c.err == nil {
		// Deliberate close racing the read loop's socket error: report
		// the close, not the wreckage it caused.
		err = ErrSessionClosed
	}
	if !c.closed {
		c.closed = true
		c.err = err
	}
	pend := c.pending
	c.pending = map[int]*srvPending{}
	c.mu.Unlock()
	for _, p := range pend {
		if p.feeder != nil {
			p.feeder.Finish(nil, err)
		}
		if p.reply != nil {
			select {
			case p.reply <- cluster.Message{Kind: cluster.MsgErr, Count: srvproto.CodeFor(err), Table: err.Error()}:
			default:
			}
		}
	}
}

// close shuts the connection down; pending requests fail with
// ErrSessionClosed.
func (c *serverConn) close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.readDone
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.nc.Close()
	<-c.readDone // readLoop fails the stragglers with ErrSessionClosed
	return nil
}

// roundTrip issues a single-reply request and parses its trailer.
func (c *serverConn) roundTrip(ctx context.Context, req srvproto.Request) (*srvproto.Trailer, error) {
	p := &srvPending{reply: make(chan cluster.Message, 1)}
	id, err := c.register(p)
	if err != nil {
		return nil, err
	}
	if err := c.sendReq(id, req); err != nil {
		return nil, err
	}
	select {
	case m := <-p.reply:
		if m.Kind == cluster.MsgErr {
			return nil, srvproto.Rehydrate(m.Count, m.Table)
		}
		return parseTrailer(m)
	case <-ctx.Done():
		c.cancelReq(id)
		return nil, ctx.Err()
	}
}

// openStream issues a data-carrying request and returns its remote
// stream. Closing the stream (or ctx expiring) cancels the request
// server-side; the stream always terminates with the server's final
// frame or the connection's failure.
func (c *serverConn) openStream(ctx context.Context, req srvproto.Request, onRound func(RoundStats)) (*exec.ResultStream, error) {
	p := &srvPending{onRound: onRound}
	id, err := c.register(p)
	if err != nil {
		return nil, err
	}
	st, feeder := exec.NewRemoteStream(func() { c.cancelReq(id) })
	p.feeder = feeder
	if err := c.sendReq(id, req); err != nil {
		feeder.Finish(nil, err)
		return nil, err
	}
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				c.cancelReq(id)
			case <-st.Done():
			}
		}()
	}
	return st, nil
}

// sendIngest applies base-table delta batches server-side, returning after
// every covering standing-query round completed.
func (c *serverConn) sendIngest(ctx context.Context, batches map[string][]types.Delta) (*srvproto.Trailer, error) {
	tables := make(map[string][]byte, len(batches))
	for table, deltas := range batches {
		tables[table] = cluster.EncodeDeltas(deltas)
	}
	return c.roundTrip(ctx, srvproto.Request{Op: srvproto.OpIngest, Tables: tables})
}

// serverUnsupported rejects option fields that cannot travel to a rexd
// server: recovery is a driver-side protocol and the hook callbacks are
// Go closures.
func serverUnsupported(opts Options) error {
	if opts.Recovery != RecoveryNone || opts.Recover != nil {
		return fmt.Errorf("rex: server sessions do not support failure-recovery options (the server owns recovery)")
	}
	if opts.TermFn != nil || opts.OnStratum != nil {
		return fmt.Errorf("rex: server sessions do not support driver-side hooks (TermFn/OnStratum)")
	}
	return nil
}

// wireOpts extracts the wire-travelling option subset.
func wireOpts(opts Options) *srvproto.QueryOpts {
	if opts.BatchSize == 0 && opts.MaxStrata == 0 && !opts.Checkpoint && !opts.NoVectorize &&
		opts.Tenant == "" && opts.Priority == 0 {
		return nil
	}
	return &srvproto.QueryOpts{
		BatchSize:   opts.BatchSize,
		MaxStrata:   opts.MaxStrata,
		Checkpoint:  opts.Checkpoint,
		NoVectorize: opts.NoVectorize,
		Tenant:      opts.Tenant,
		Priority:    opts.Priority,
	}
}

// The backend methods: the server owns the catalog, datasets, engine and
// pool, so everything but RQL, table declarations and ingestion is refused.

func (c *serverConn) nodes() int { return c.n }

func (c *serverConn) stats(ctx context.Context, st *Stats) error {
	st.Transport = "server"
	tr, err := c.roundTrip(ctx, srvproto.Request{Op: srvproto.OpStats})
	if err != nil {
		return err
	}
	if tr.Stats == nil {
		return fmt.Errorf("rex: server sent a stats reply without stats")
	}
	st.Server = tr.Stats
	return nil
}

// catalogVersion is 0: the server tracks its own (see Stats.Server).
func (c *serverConn) catalogVersion() int64 { return 0 }

func (c *serverConn) local(what string) (*inprocBackend, error) {
	return nil, fmt.Errorf("rex: %s is not available on a server session (the rexd server owns the catalog and engine)", what)
}

func (c *serverConn) transport(what string) (cluster.Transport, error) {
	return nil, fmt.Errorf("rex: %s is not available on a server session", what)
}

// createTable lands the declaration in the server's shared catalog (and
// bumps its version, invalidating cached plans).
func (c *serverConn) createTable(name string, schema *types.Schema, partitionKey int) error {
	fields := make([]string, schema.Len())
	for i, f := range schema.Fields {
		fields[i] = f.Name + ":" + f.Kind.String()
	}
	_, err := c.roundTrip(context.Background(), srvproto.Request{
		Op: srvproto.OpCreateTable, Table: name, Fields: fields, Key: partitionKey,
	})
	return err
}

func (c *serverConn) load(table string, tuples []Tuple, locked lockFunc) error {
	return loadAsInserts(c, table, tuples, locked)
}

// ingest ships the change: the server applies it to the shared pool, fans
// it out to standing queries, and replies once every covering round
// completed, so the returned ack is already resolved. It takes no session
// lock — the server serializes.
func (c *serverConn) ingest(tables map[string][]Delta, _ lockFunc) (*IngestAck, error) {
	tr, err := c.sendIngest(context.Background(), tables)
	if err != nil {
		return nil, err
	}
	return exec.ResolvedAck(tr.Round, nil), nil
}

func (c *serverConn) query(src string, opts Options) (query, error) {
	if err := serverUnsupported(opts); err != nil {
		return nil, err
	}
	return &serverReq{c: c, src: src, opts: opts}, nil
}

// prepare compiles src into the server's shared plan cache. The cached
// plan is keyed by the text alone, so every execution of the statement,
// whatever its arguments, reuses it.
func (c *serverConn) prepare(src string) (statement, error) {
	tr, err := c.roundTrip(context.Background(), srvproto.Request{Op: srvproto.OpPrepare, Src: src})
	if err != nil {
		return nil, err
	}
	return &remoteStmt{c: c, src: src, nparams: tr.NumParams}, nil
}

func (c *serverConn) workload(what string, _ *Workload, _ func(*Options)) (execution, error) {
	return nil, fmt.Errorf("rex: %s is not available on a server session (submit RQL; the server owns the pool)", what)
}

// serverReq is one RQL request: the text, bound argument values, and
// options ship to the server, which executes from its plan cache.
type serverReq struct {
	c    *serverConn
	src  string
	args []Value
	opts Options
}

func (r *serverReq) request(op string) srvproto.Request {
	return srvproto.Request{Op: op, Src: r.src, Args: srvproto.EncodeArgs(r.args), Opts: wireOpts(r.opts)}
}

func (r *serverReq) run(ctx context.Context) (*Result, error) { return drain(r.stream(ctx)) }

func (r *serverReq) stream(ctx context.Context) (*exec.ResultStream, error) {
	return r.c.openStream(ctx, r.request(srvproto.OpStream), nil)
}

// subscribe installs a standing query on the server and returns once the
// server finished the initial round (its batches are buffered on Stream
// by then) — compile errors and unknown tables surface here, not on first
// read.
func (r *serverReq) subscribe(ctx context.Context) (standing, error) {
	sub := &remoteSub{c: r.c, ready: make(chan error, 1)}
	st, err := r.c.openStream(ctx, r.request(srvproto.OpSubscribe), sub.addRound)
	if err != nil {
		return nil, err
	}
	sub.st = st
	go func() {
		<-st.Done()
		sub.signalReady(st.Err())
	}()
	select {
	case err := <-sub.ready:
		if err != nil {
			st.Close()
			return nil, err
		}
	case <-ctx.Done():
		st.Close() // cancels the request; the server tears the sub down
		return nil, ctx.Err()
	}
	return sub, nil
}

// remoteStmt is a statement in the server's plan cache; nparams is the
// parameter count the server reported (argument kinds are checked
// server-side when the cached plan binds them).
type remoteStmt struct {
	c       *serverConn
	src     string
	nparams int
}

func (st *remoteStmt) numParams() int { return st.nparams }

func (st *remoteStmt) bind(args []Value, opts Options) (execution, error) {
	if len(args) != st.nparams {
		return nil, fmt.Errorf("rex: statement wants %d parameters, got %d", st.nparams, len(args))
	}
	if err := serverUnsupported(opts); err != nil {
		return nil, err
	}
	return &serverReq{c: st.c, src: st.src, args: args, opts: opts}, nil
}

// remoteSub is a standing query living in the server: the round-tagged
// delta stream fed by the connection's read loop, and the round stats its
// boundary frames carried.
type remoteSub struct {
	c         *serverConn
	st        *exec.ResultStream
	roundsMu  sync.Mutex
	rounds    exec.RoundLog
	ready     chan error
	readyOnce sync.Once
}

// addRound records a round's statistics (the read loop calls it on
// round-boundary frames); the first round readies subscribe.
func (sub *remoteSub) addRound(rs RoundStats) {
	sub.roundsMu.Lock()
	sub.rounds.Add(rs)
	sub.roundsMu.Unlock()
	sub.signalReady(nil)
}

func (sub *remoteSub) signalReady(err error) {
	sub.readyOnce.Do(func() { sub.ready <- err })
}

func (sub *remoteSub) Stream() *exec.ResultStream { return sub.st }

func (sub *remoteSub) Rounds() []RoundStats {
	sub.roundsMu.Lock()
	defer sub.roundsMu.Unlock()
	return sub.rounds.Rounds()
}

func (sub *remoteSub) Done() <-chan struct{} { return sub.st.Done() }

func (sub *remoteSub) Err() error { return sub.st.Err() }

func (sub *remoteSub) Ingest(ctx context.Context, tables map[string][]types.Delta) (*RoundStats, error) {
	tr, err := sub.c.sendIngest(ctx, tables)
	if err != nil {
		return nil, err
	}
	return tr.Round, nil
}

// IngestAsync travels synchronously; the returned ack is already resolved
// (coalescing happens server-side, across clients).
func (sub *remoteSub) IngestAsync(tables map[string][]types.Delta) (*IngestAck, error) {
	return sub.c.ingest(tables, nil)
}

// Close cancels the request, which unsubscribes server-side; the server
// answers with a clean final frame, which ends the stream. Detach (not
// Close) keeps the already-streamed rounds readable for a post-close fold,
// matching the in-process standing-query contract.
func (sub *remoteSub) Close() error { return sub.st.Detach() }
