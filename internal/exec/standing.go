package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/storage"
	"github.com/rex-data/rex/internal/types"
)

// This file implements standing queries: a query whose compiled plan,
// worker state stores, and delta network stay resident after the initial
// fixpoint closes. Base-table changes are ingested as delta batches
// (MsgIngest frames routed to the ring owners of each delta's key) and each
// ingestion round re-runs the fixpoint incrementally from current operator
// state: join buckets, aggregate groups, and the fixpoint relation are all
// kept, so a round's work — and its wire traffic — is proportional to the
// change, not to the data. This is the fixpoint-derivative view-maintenance
// setting of Alvarez-Picallo et al. and Koch et al., built from the paper's
// own delta machinery (§3.3/§4.2): the same programmable deltas that drive
// strata within one fixpoint drive maintenance across fixpoints.
//
// Protocol: rounds reuse the stratum/punctuation machinery with strata
// numbered monotonically across rounds. A round starts with MsgIngest
// frames (buffered worker-side) followed by a MsgRound broadcast; every
// worker reopens its per-round punctuation trackers, injects the buffered
// deltas through the base scans' edges, and punctuates the round's base
// stratum. From there the ordinary vote/advance/terminate loop runs — with
// one twist: an ingestion round never terminates at its base stratum,
// because deltas entering through join paths are only flushed by the next
// advance's punctuation.
//
// Ingestion is asynchronous and coalescing (the Naiad/DBSP batched-round
// discipline): requests enqueue without blocking, the pump claims the
// whole queue per sweep and folds the staged deltas per table through the
// shuffle compactor before routing, so a burst of N small writes runs as
// one round whose work is proportional to the NET change. Each request's
// ack resolves when its covering round completes.

// RoundStats reports one round of a standing query: the initial fixpoint
// is round 0, and every round after it covers one or more coalesced
// ingestion requests.
type RoundStats struct {
	// Round is the round index (0 = initial fixpoint).
	Round int
	// Strata is the number of strata the round executed.
	Strata int
	// NewTuples sums the fixpoint votes of the round (0 for non-recursive
	// plans, which have no votes).
	NewTuples int
	// Batches and Deltas count the output delta batches pushed to the
	// subscription stream by this round.
	Batches int
	Deltas  int
	// Ingests counts the Ingest/IngestAsync requests this round covered:
	// the pump drains every queued request and folds them into a single
	// round, so a write burst of N requests can resolve in far fewer than
	// N rounds.
	Ingests int
	// IngestedDeltas counts the base-table deltas those requests staged
	// (pre-fold); CoalescedDeltas counts what survived the same-key fold
	// through the shuffle compactor and was actually injected. Their
	// ratio is the coalescing win — insert+delete pairs annihilate,
	// replace chains collapse — and CoalescedDeltas can reach zero while
	// IngestedDeltas stays positive.
	IngestedDeltas  int
	CoalescedDeltas int
	// IngestBytes is the encoded payload volume of the round's MsgIngest
	// staging frames (driver→worker traffic, accounted separately from
	// the shuffle bytes below). Each staged frame is counted exactly
	// once, after coalescing: N queued ingests folded into one round
	// contribute the folded frames' bytes, not N copies of what each
	// request staged.
	IngestBytes int64
	// BytesSent is the measured inter-worker wire volume of the round —
	// the number to compare against a from-scratch recompute.
	BytesSent int64
	Duration  time.Duration
}

// CoalescingRatio reports staged deltas per injected delta for the round
// (1 when nothing folded; 0 for the initial fixpoint, which ingests
// nothing).
func (r *RoundStats) CoalescingRatio() float64 {
	if r.IngestedDeltas == 0 {
		return 0
	}
	if r.CoalescedDeltas == 0 {
		return float64(r.IngestedDeltas)
	}
	return float64(r.IngestedDeltas) / float64(r.CoalescedDeltas)
}

// errStandingClosed is the cancellation cause Close installs so a
// deliberate teardown is distinguishable from the caller's ctx expiring.
var errStandingClosed = errors.New("exec: standing query closed")

// IngestAck is the handle an asynchronous ingest returns: it resolves when
// the round covering the request — possibly coalesced with other queued
// requests — completes its fixpoint, with that round's stats. Every
// request folded into one round shares the round's stats.
type IngestAck struct {
	done  chan struct{}
	stats *RoundStats
	err   error
}

func newIngestAck() *IngestAck { return &IngestAck{done: make(chan struct{})} }

// ResolvedAck builds an already-resolved ack — the degenerate handle for
// ingestion paths that apply synchronously (no resident dataflow to round
// through).
func ResolvedAck(stats *RoundStats, err error) *IngestAck {
	a := newIngestAck()
	a.resolve(stats, err)
	return a
}

// Done is closed once the covering round completed (or the standing query
// terminated).
func (a *IngestAck) Done() <-chan struct{} { return a.done }

// Wait blocks until the ack resolves or ctx expires, returning the
// covering round's stats. A ctx expiry does not withdraw the request —
// the deltas remain queued (or their round keeps running) and the ack
// still resolves.
func (a *IngestAck) Wait(ctx context.Context) (*RoundStats, error) {
	select {
	case <-a.done:
		return a.stats, a.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Round reports the resolved stats without blocking; nil until Done.
func (a *IngestAck) Round() (*RoundStats, error) {
	select {
	case <-a.done:
		return a.stats, a.err
	default:
		return nil, nil
	}
}

func (a *IngestAck) resolve(stats *RoundStats, err error) {
	a.stats, a.err = stats, err
	close(a.done)
}

// ingestReq is one queued ingestion request awaiting a covering round.
type ingestReq struct {
	tables map[string][]types.Delta
	ack    *IngestAck
}

// StandingQuery is a resident dataflow on an engine: the initial fixpoint
// has completed, worker loops and operator state remain live, and
// Ingest/IngestAsync run incremental rounds whose output deltas are pushed
// to Stream. Ingestion is a coalescing pipeline: requests enqueue without
// blocking, and the pump drains everything queued — folding same-key
// deltas through the shuffle compactor — into a single round per sweep,
// resolving every covered ack when that round's fixpoint closes. One
// StandingQuery owns its engine's workers until Close — the session layer
// serializes it against other queries.
type StandingQuery struct {
	*requestor
	cancel context.CancelCauseFunc

	stream *ResultStream
	spool  *spool

	// mu guards the ingest queue, the round history and its running
	// totals, the applied hook, and terminal state.
	mu        sync.Mutex
	queue     []*ingestReq
	rounds    RoundLog
	bytesSent int64 // summed over every round, kept or dropped
	strata    int
	onApplied func(tables map[string][]types.Delta)
	closed    bool
	err       error

	// recoveries counts crash recoveries survived.
	recoveries int

	done chan struct{}
}

// Recoveries reports how many node crashes this standing query has
// recovered from.
func (sq *StandingQuery) Recoveries() int {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	return sq.recoveries
}

// roundRun is one ingestion round's context, kept so a crash recovery can
// replay it: the routed frames (re-staged verbatim on retry), the round's
// buffered output, and whether its fixpoint had closed when the failure
// hit. completed decides the retry's output handling — a completed
// round's output was already captured (the re-run, over a partially
// committed base, would emit deltas relative to the wrong view), while an
// incomplete round's output comes from the re-run itself.
type roundRun struct {
	round     int
	frames    []cluster.Message
	stats     *RoundStats
	buf       []StreamBatch
	completed bool
}

// Standing compiles nothing and tears nothing down: it starts spec on the
// engine in streaming mode, waits for the initial fixpoint to complete
// (its per-stratum batches are already buffered on the stream when Standing
// returns), and keeps the whole dataflow resident for incremental rounds.
// Setup and teardown are the ones every query shares (see Engine.start).
// Standing queries reject epoch-restart recovery and checkpointing — a
// resident dataflow has no epochs to replay; Options.Recover enables crash
// recovery instead.
func (e *Engine) Standing(ctx context.Context, spec *PlanSpec, opts Options) (*StandingQuery, error) {
	if opts.Recovery != RecoveryNone {
		return nil, fmt.Errorf("exec: standing queries do not support epoch-restart recovery (use Options.Recover)")
	}
	if opts.Checkpoint {
		return nil, fmt.Errorf("exec: standing queries do not support checkpointing")
	}
	if opts.Recover != nil {
		// Crash recovery replays the interrupted round against each node's
		// last committed store state; an in-memory store has no committed
		// state to rebuild a victim from.
		for _, n := range e.Transport.LocalNodes() {
			if _, ok := e.Stores[n].(storage.Durable); !ok {
				return nil, fmt.Errorf("exec: standing-query recovery needs durable stores (node %d is in-memory; see Engine.UseSpill)", n)
			}
		}
	}
	if alive := len(e.Transport.AliveNodes()); alive != e.Transport.N() {
		return nil, fmt.Errorf("exec: standing queries need every node alive (%d of %d)", alive, e.Transport.N())
	}
	opts.Stream = true
	sctx, cancel := context.WithCancelCause(ctx)
	r, err := e.start(sctx, spec, opts)
	if err != nil {
		cancel(nil)
		return nil, err
	}
	sq := &StandingQuery{
		requestor: r, cancel: cancel,
		spool: newSpool(),
		done:  make(chan struct{}),
	}
	sq.stream = &ResultStream{src: sq.spool, done: sq.done, ctx: sctx, cancel: cancel}

	initErr := make(chan error, 1)
	go sq.pump(initErr)

	if err := <-initErr; err != nil {
		<-sq.done
		return nil, err
	}
	return sq, nil
}

// Stream returns the subscription's delta stream. Batches arrive tagged
// with their round and round-relative stratum; the stream ends (Next
// returns false) when the standing query closes. The stream's buffer is
// unbounded, so a caller that interleaves Ingest and consumption on one
// goroutine cannot deadlock.
func (sq *StandingQuery) Stream() *ResultStream { return sq.stream }

// Rounds returns the stats of the initial fixpoint (round 0) and of the
// latest completed rounds; see RoundLog for the bound.
func (sq *StandingQuery) Rounds() []RoundStats {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	return sq.rounds.Rounds()
}

// Done is closed when the standing query has fully torn down.
func (sq *StandingQuery) Done() <-chan struct{} { return sq.done }

// Err reports the terminal error once Done is closed; nil after a clean
// Close.
func (sq *StandingQuery) Err() error {
	select {
	case <-sq.done:
		return sq.err
	default:
		return nil
	}
}

// IngestAsync enqueues base-table deltas for the next incremental round
// and returns immediately with an ack that resolves when the covering
// round's fixpoint closes (every output batch is buffered on the stream by
// then). Requests queued while a round is running coalesce: the pump
// drains the whole queue, folds same-key deltas through the shuffle
// compactor, and runs a single round covering them all — each ack resolves
// with that round's shared stats. Validation errors — unknown table, arity
// mismatch, empty batch — fail the call synchronously without disturbing
// the resident dataflow; execution errors terminate the standing query and
// resolve every outstanding ack with the terminal error. Safe for
// concurrent callers.
func (sq *StandingQuery) IngestAsync(tables map[string][]types.Delta) (*IngestAck, error) {
	req, err := sq.enqueue(tables)
	if err != nil {
		return nil, err
	}
	return req.ack, nil
}

// Ingest is the synchronous form of IngestAsync: it blocks until the
// covering round's fixpoint closes and returns that round's stats. If ctx
// expires the call returns early: a request the pump already claimed keeps
// running (its batches still stream), while an unclaimed request is
// withdrawn — the deltas were not applied.
func (sq *StandingQuery) Ingest(ctx context.Context, tables map[string][]types.Delta) (*RoundStats, error) {
	req, err := sq.enqueue(tables)
	if err != nil {
		return nil, err
	}
	select {
	case <-req.ack.done:
		return req.ack.stats, req.ack.err
	case <-ctx.Done():
		if sq.withdraw(req) {
			return nil, ctx.Err()
		}
		// Claimed: the round runs to completion regardless (its batches
		// still stream); the caller only abandons the wait.
		return nil, ctx.Err()
	}
}

// enqueue validates the request driver-side and hands it to the pump. The
// staged batches are copied: an async request outlives its call, and a
// caller reusing a scratch delta buffer must not race the pump's later
// fold of the same backing array.
func (sq *StandingQuery) enqueue(tables map[string][]types.Delta) (*ingestReq, error) {
	if err := sq.validate(tables); err != nil {
		return nil, err
	}
	staged := make(map[string][]types.Delta, len(tables))
	for table, deltas := range tables {
		staged[table] = append([]types.Delta(nil), deltas...)
	}
	req := &ingestReq{tables: staged, ack: newIngestAck()}
	sq.mu.Lock()
	if sq.closed {
		err := sq.err
		sq.mu.Unlock()
		if err == nil {
			err = errStandingClosed
		}
		return nil, err
	}
	sq.queue = append(sq.queue, req)
	sq.mu.Unlock()
	sq.e.Transport.Requestor().Put(cluster.Message{Kind: cluster.MsgRoundReq})
	return req, nil
}

// withdraw removes a still-queued request, reporting false when the pump
// already claimed it. A withdrawn request's ack resolves with
// errStandingClosed-independent context semantics handled by the caller.
func (sq *StandingQuery) withdraw(req *ingestReq) bool {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	for i, r := range sq.queue {
		if r == req {
			sq.queue = append(sq.queue[:i], sq.queue[i+1:]...)
			return true
		}
	}
	return false
}

// validate checks tables and tuple arities driver-side so bad input cannot
// poison the resident dataflow, and rejects requests staging nothing.
func (sq *StandingQuery) validate(tables map[string][]types.Delta) error {
	total := 0
	for table, deltas := range tables {
		tab, err := sq.e.Catalog.Table(table)
		if err != nil {
			return fmt.Errorf("exec: ingest: %w", err)
		}
		arity := tab.Schema.Len()
		for _, d := range deltas {
			if len(d.Tup) != arity || (d.Op == types.OpReplace && len(d.Old) != arity) {
				return fmt.Errorf("exec: ingest into %s: tuple %v does not match the %d-column schema", table, d.Tup, arity)
			}
		}
		total += len(deltas)
	}
	if total == 0 {
		return fmt.Errorf("exec: ingest: empty delta batch")
	}
	return nil
}

// SetOnRoundApplied installs a hook the pump invokes — on its own
// goroutine, in round order, before the round's acks resolve — with the
// folded per-table deltas each completed round applied. The session layer
// uses it to keep its base-table bookkeeping (TCP change log, catalog
// stats) consistent with what the workers actually absorbed.
func (sq *StandingQuery) SetOnRoundApplied(fn func(tables map[string][]types.Delta)) {
	sq.mu.Lock()
	sq.onApplied = fn
	sq.mu.Unlock()
}

func (sq *StandingQuery) appliedHook() func(tables map[string][]types.Delta) {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	return sq.onApplied
}

// Close tears the standing query down: workers drop their per-query state
// (MsgAbort), loops exit (MsgShutdown), and the stream ends after its
// buffered batches are consumed. Returns the terminal error; a teardown
// initiated by Close itself reports nil.
func (sq *StandingQuery) Close() error {
	sq.cancel(errStandingClosed)
	<-sq.done
	return sq.err
}

// takeQueued claims every queued ingest request — the pump's coalescing
// sweep.
func (sq *StandingQuery) takeQueued() []*ingestReq {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	q := sq.queue
	sq.queue = nil
	return q
}

// fold coalesces the claimed requests' staged deltas per table through the
// shuffle compactor (same-key merge: insert+delete annihilation, replace-
// chain folding), preserving per-key arrival order across requests. It
// returns the folded per-table batches plus the staged (pre-fold) delta
// count.
func (sq *StandingQuery) fold(reqs []*ingestReq) (map[string][]types.Delta, int) {
	staged := 0
	comps := map[string]*cluster.Compactor{}
	var order []string
	for _, req := range reqs {
		names := make([]string, 0, len(req.tables))
		for t := range req.tables {
			names = append(names, t)
		}
		sort.Strings(names)
		for _, table := range names {
			deltas := req.tables[table]
			staged += len(deltas)
			c := comps[table]
			if c == nil {
				tab, err := sq.e.Catalog.Table(table)
				if err != nil {
					// Validated at enqueue; an unknown table here means the
					// catalog changed under a live subscription — fold
					// nothing rather than guess a key.
					continue
				}
				key := tab.PartitionKey
				c = cluster.NewCompactor(func(t types.Tuple) types.Value {
					return t[key]
				}, nil)
				comps[table] = c
				order = append(order, table)
			}
			for _, d := range deltas {
				c.Add(d)
			}
		}
	}
	out := make(map[string][]types.Delta, len(comps))
	for _, table := range order {
		if batch := comps[table].Drain(); len(batch) > 0 {
			out[table] = batch
		}
	}
	return out, staged
}

func (sq *StandingQuery) recordRound(st RoundStats) {
	sq.mu.Lock()
	sq.rounds.Add(st)
	sq.bytesSent += st.BytesSent
	sq.strata += st.Strata
	sq.mu.Unlock()
}

// roundHistory bounds a RoundLog: round 0 plus the latest
// roundHistory-1 rounds.
const roundHistory = 1024

// RoundLog is a subscription's round history, bounded so a resident
// subscription's memory does not grow with the rounds it serves: it keeps
// the first round and the latest ones, roundHistory in all. Each
// RoundStats carries its Round, so a reader sees where rounds were
// dropped. The zero value is empty; callers serialize access.
type RoundLog struct {
	rounds []RoundStats // rounds[0] is the first round; rounds[1:] turns into a ring once full
	next   int          // index in rounds[1:] of the oldest kept round once full
}

// Add records a completed round, dropping the oldest round after the
// first once the log is full.
func (l *RoundLog) Add(st RoundStats) {
	if len(l.rounds) < roundHistory {
		l.rounds = append(l.rounds, st)
		return
	}
	l.rounds[1+l.next] = st
	l.next = (l.next + 1) % (roundHistory - 1)
}

// Rounds returns a copy of the kept rounds, oldest first; nil when empty.
func (l *RoundLog) Rounds() []RoundStats {
	if len(l.rounds) == 0 {
		return nil
	}
	out := append(make([]RoundStats, 0, len(l.rounds)), l.rounds[0])
	out = append(out, l.rounds[1+l.next:]...)
	return append(out, l.rounds[1:1+l.next]...)
}

// maxRecoveryAttempts caps consecutive crash-recovery attempts before the
// pump gives up and fails the standing query.
const maxRecoveryAttempts = 5

// pump is the standing query's requestor loop: it runs the initial round,
// then serves ingestion rounds until cancellation or an execution error,
// then tears the dataflow down. With Options.Recover installed, every
// round ends in a commit barrier (workers apply staged deltas to their
// stores and fsync the round mark) and a node crash at any point — mid
// staging, mid fixpoint, mid commit — is survived by rebuilding the
// dataflow from committed store state and replaying the interrupted
// round.
func (sq *StandingQuery) pump(initErr chan<- error) {
	e := sq.e
	start := time.Now()
	bytesBefore := e.Transport.Metrics().TotalBytesSent()

	discard := func(StreamBatch) {}
	hold := func(rr *roundRun) func(StreamBatch) {
		return func(b StreamBatch) { rr.buf = append(rr.buf, b) }
	}
	// With recovery on, a round's output is held pump-side until its
	// commit barrier lands: a crash mid-round must be able to discard or
	// replace it without the subscriber seeing a partial round.
	out := func(rr *roundRun) func(StreamBatch) {
		if sq.opts.Recover != nil {
			return hold(rr)
		}
		return sq.spool.push
	}

	// runRound stages rr's routed frames and runs its fixpoint. The round
	// starts at the stratum after the last one started, mirroring the
	// workers' startRound exactly, so non-recursive rounds — which have no
	// decisions — stay in sync too.
	runRound := func(rr *roundRun, out func(StreamBatch)) (*RoundStats, error) {
		// Snapshot the wire counter before any round traffic: workers start
		// shipping the moment MsgRound lands. (MsgIngest staging frames are
		// driver control-plane and never counted.)
		bytesBefore := e.Transport.Metrics().TotalBytesSent()
		if err := sq.sendStaged(rr.frames, rr.round); err != nil {
			return nil, err
		}
		for _, n := range sq.alive {
			e.Transport.Send(cluster.Message{From: -1, To: n, Kind: cluster.MsgRound, Epoch: sq.epoch})
		}
		sq.last++
		return sq.collect(rr.round, sq.last, bytesBefore, out)
	}

	// rebuild brings the cluster back after victim died and re-runs the
	// interrupted round (rr; nil when the crash hit between rounds). On
	// return the cluster is whole, every store is at rr's committed round,
	// and rr.buf/rr.stats hold the round's output.
	rebuild := func(victim cluster.NodeID, rr *roundRun) error {
		if err := sq.ctx.Err(); err != nil {
			return err
		}
		// Drop per-query state everywhere. Mailboxes are FIFO, so any
		// staged frames still in flight are consumed before the abort
		// clears the workers' pending buffers — nothing stale survives
		// into the rebuilt epoch.
		e.Transport.Broadcast(cluster.Message{From: -1, Kind: cluster.MsgAbort})
		if err := sq.opts.Recover(victim); err != nil {
			return fmt.Errorf("exec: recovering node %d: %w", victim, err)
		}
		// An in-process victim needs a fresh worker loop over its
		// recovered store; a daemon victim's respawned process runs its
		// own.
		if int(victim) < len(e.Stores) && e.Stores[victim] != nil {
			sq.spawn(victim)
		}
		sq.epoch++
		sq.mu.Lock()
		sq.recoveries++
		sq.mu.Unlock()
		sq.alive = e.Transport.AliveNodes()
		if len(sq.alive) != e.Transport.N() {
			return fmt.Errorf("exec: recovery left %d of %d nodes alive", len(sq.alive), e.Transport.N())
		}
		// Fresh epoch, fresh strata: MsgStart rebuilds every worker's
		// port trackers, so the monotonic-stratum clock restarts at 0.
		sq.broadcastStart(startRecover, 0)

		// Recovery fixpoint: every node rebuilds its operator state from
		// its committed store. Some nodes may have committed the
		// interrupted round and some not — that partial base is a
		// legitimate state; the replay below injects only the missing
		// partitions and converges it. The fixpoint's output re-derives
		// rounds already delivered and is discarded — unless the
		// interrupted round IS round 0 (initial fixpoint), in which case
		// this run's output is the round's output.
		initialRerun := rr != nil && rr.round == 0 && !rr.completed
		emit := discard
		if initialRerun {
			rr.buf = nil
			emit = hold(rr)
		}
		stats, err := sq.collect(0, 0, e.Transport.Metrics().TotalBytesSent(), emit)
		if err != nil {
			return err
		}
		if initialRerun {
			rr.stats, rr.completed = stats, true
		}

		// Replay an interrupted ingestion round: re-stage its routed frames
		// verbatim (nodes whose durable watermark covers the round skip
		// them; the rest buffer them again) and re-run. A round whose
		// fixpoint had closed keeps its original output — the re-run
		// executes over a partially committed base, so its emitted deltas
		// would be relative to the wrong view.
		if rr != nil && rr.round > 0 {
			emit := discard
			if !rr.completed {
				rr.buf = nil
				emit = hold(rr)
			}
			stats, err := runRound(rr, emit)
			if err != nil {
				return err
			}
			if !rr.completed {
				rr.stats, rr.completed = stats, true
			}
		}

		// Commit barrier for the replayed round. A between-rounds crash
		// (rr nil) changed no store state and needs no commit.
		if rr == nil {
			return nil
		}
		return sq.waitCommits(rr.round)
	}

	// recovered passes err through unless it is a node failure, which it
	// survives by rebuilding the dataflow and re-running rr — again for
	// every failure the rebuild itself meets, up to maxRecoveryAttempts.
	recovered := func(err error, rr *roundRun) error {
		for attempt := 1; ; attempt++ {
			nf, ok := errAsNodeFailure(err)
			if !ok {
				return err
			}
			if sq.opts.Recover == nil {
				return fmt.Errorf("%v (standing-query recovery not enabled; set Options.Recover)", nf)
			}
			if attempt > maxRecoveryAttempts {
				return fmt.Errorf("exec: giving up after %d crash-recovery attempts", maxRecoveryAttempts)
			}
			err = rebuild(nf.node, rr)
		}
	}

	sq.broadcastStart(startFresh, 0)

	runErr := func() error {
		rr0 := &roundRun{round: 0}
		stats, err := sq.collect(0, 0, bytesBefore, out(rr0))
		if err == nil {
			rr0.stats, rr0.completed = stats, true
			// Round 0's commit seals every store's loaded base (and, on
			// durable backends, resets watermarks left by prior queries).
			err = sq.waitCommits(0)
		}
		if err := recovered(err, rr0); err != nil {
			initErr <- err
			return err
		}
		for _, b := range rr0.buf {
			sq.spool.push(b)
		}
		sq.recordRound(*rr0.stats)
		initErr <- nil

		round := 0
		// serve runs ONE coalesced round covering every claimed request:
		// their staged deltas fold per table through the shuffle compactor,
		// the folded batches route as MsgIngest frames, a single MsgRound
		// barrier starts the fixpoint, the commit barrier makes the round
		// durable, and every covered ack resolves with the round's shared
		// stats.
		serve := func(reqs []*ingestReq) error {
			folded, staged := sq.fold(reqs)
			frames, nDeltas, nBytes, err := sq.routeAll(folded)
			if err != nil {
				// Routing can only fail on a catalog/ring inconsistency —
				// the dataflow is no longer trustworthy.
				for _, r := range reqs {
					r.ack.resolve(nil, err)
				}
				return err
			}
			round++
			rr := &roundRun{round: round, frames: frames}
			stats, err := runRound(rr, out(rr))
			if err == nil {
				rr.stats, rr.completed = stats, true
				err = sq.waitCommits(rr.round)
			}
			if err := recovered(err, rr); err != nil {
				for _, r := range reqs {
					r.ack.resolve(nil, err)
				}
				return err
			}
			// The round is durable on every node: release its buffered
			// output, then stats, hook, acks.
			for _, b := range rr.buf {
				sq.spool.push(b)
			}
			stats = rr.stats
			stats.Ingests = len(reqs)
			stats.IngestedDeltas = staged
			stats.CoalescedDeltas = nDeltas
			stats.IngestBytes = nBytes
			sq.recordRound(*stats)
			// The applied hook fires before the acks so a synchronous
			// caller observes the session-level bookkeeping (change log,
			// stats) already revised when its Ingest returns.
			if hook := sq.appliedHook(); hook != nil && len(folded) > 0 {
				hook(folded)
			}
			for _, r := range reqs {
				r.ack.resolve(stats, nil)
			}
			return nil
		}
		for {
			if err := sq.ctx.Err(); err != nil {
				return err
			}
			// Claim everything queued, including requests that arrived while
			// a round was running: their sentinels were consumed (and
			// dropped) by that round's mailbox reads, so waiting for another
			// would lose the wakeup — and the sweep is what coalesces a
			// write burst into one round.
			if reqs := sq.takeQueued(); len(reqs) > 0 {
				if err := serve(reqs); err != nil {
					return err
				}
				continue
			}
			// A MsgRoundReq wakes the sweep above. A failure with no round
			// in flight has nothing to replay: the dataflow is rebuilt and
			// the pump keeps serving.
			_, err := sq.next()
			if err := recovered(err, nil); err != nil {
				return err
			}
		}
	}()

	sq.teardown(true)

	err := runErr
	if errors.Is(err, context.Canceled) {
		if cause := context.Cause(sq.ctx); errors.Is(cause, errStandingClosed) || errors.Is(cause, errStreamClosed) {
			err = nil // deliberate Close, not a caller cancellation
		}
	}

	sq.mu.Lock()
	sq.closed = true
	sq.err = err
	pend := sq.queue
	sq.queue = nil
	// The Result keeps only the aggregate view over every round; round
	// boundaries are in Rounds().
	total := Result{BytesSent: sq.bytesSent}
	for s := 0; s < sq.strata; s++ {
		total.Strata = append(total.Strata, StratumStats{Stratum: s})
	}
	total.Duration = time.Since(start)
	sq.mu.Unlock()
	// Resolve every unclaimed request before done closes, so a waiter
	// racing the teardown always observes its ack resolved.
	perr := err
	if perr == nil {
		perr = errStandingClosed
	}
	for _, r := range pend {
		r.ack.resolve(nil, perr)
	}
	if err == nil {
		sq.stream.res = &total
	}
	sq.stream.err = err
	close(sq.done)
	sq.spool.close()
	sq.cancel(nil)
}

// routeAll turns a round's folded per-table delta sets into MsgIngest
// frames addressed to the ring owners of each delta's key (input was
// validated at enqueue; route re-checks arity as defense in depth).
// Replacements whose key moved are split into delete+insert so every
// frame's deltas key-hash to its destination. The returned byte count is
// the staged payload volume, each frame counted exactly once.
func (sq *StandingQuery) routeAll(tables map[string][]types.Delta) (frames []cluster.Message, nDeltas int, nBytes int64, err error) {
	names := make([]string, 0, len(tables))
	for t := range tables {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, table := range names {
		deltas := tables[table]
		byNode, err := sq.routeIngest(table, deltas)
		if err != nil {
			return nil, 0, 0, err
		}
		nDeltas += len(deltas)
		nodes := make([]int, 0, len(byNode))
		for n := range byNode {
			nodes = append(nodes, int(n))
		}
		sort.Ints(nodes)
		// Staging frames are chunked to the transport batch granularity so
		// the credit window gating them counts comparable units (a window
		// slot is one batch on the shuffle path too).
		bs := sq.opts.BatchSize
		for _, n := range nodes {
			batch := byNode[cluster.NodeID(n)]
			for len(batch) > 0 {
				chunk := batch[:min(bs, len(batch))]
				batch = batch[len(chunk):]
				payload := cluster.EncodeDeltas(chunk)
				nBytes += int64(len(payload))
				// Epoch and round (Stratum) are stamped by sendStaged on
				// every send, so a recovery replay restamps automatically.
				frames = append(frames, cluster.Message{
					From: -1, To: cluster.NodeID(n), Kind: cluster.MsgIngest,
					Table: table, Payload: payload, Count: len(chunk),
				})
			}
		}
	}
	return frames, nDeltas, nBytes, nil
}

// sendStaged ships a round's MsgIngest frames under credit flow control:
// each frame spends one staging credit from the requestor's window to its
// destination, and an exhausted window blocks on the requestor mailbox
// until the worker's MsgCreditAck grant (installed by the transport at
// delivery) re-arms it. Workers ack every applied frame with a window
// sized from their measured drain rate, so a slow worker throttles the
// pump before its inbox floods — the control-plane counterpart of the
// shuffle path's punctuation grants.
//
// Frames are stamped with the current epoch and the round number on every
// call: a recovery replay re-sends the same frames under a new epoch, and
// the round stamp is the watermark workers compare against their durable
// committed round to skip frames they already applied.
func (sq *StandingQuery) sendStaged(frames []cluster.Message, round int) error {
	e := sq.e
	for i := range frames {
		frames[i].Epoch = sq.epoch
		frames[i].Stratum = round
	}
	for _, f := range frames {
		// The transport installs a MsgCreditAck grant on delivery, so any
		// frame re-probes the window. A MsgRoundReq is harmless to
		// consume: the staged batches behind it are already queued for the
		// pump's sweep after the current round.
		for e.Transport.Credits(-1, f.To) <= 0 {
			if _, err := sq.next(); err != nil {
				return err
			}
		}
		e.Transport.SpendCredits(-1, f.To, 1)
		e.Transport.Send(f)
	}
	return nil
}

// waitCommits drives the round-commit barrier: broadcast MsgCommit for
// the round, then wait for every alive node's ack. A worker applies its
// buffered staged deltas to its store and (on a durable backend) fsyncs
// the round mark before acking, so once this returns the round is applied
// — and, with spill stores, durable — cluster-wide. Output release,
// stats, and ingest acks all wait behind it.
func (sq *StandingQuery) waitCommits(round int) error {
	sq.e.Transport.Broadcast(cluster.Message{
		From: -1, Kind: cluster.MsgCommit, Stratum: round, Epoch: sq.epoch,
	})
	acked := map[cluster.NodeID]bool{}
	for len(acked) < len(sq.alive) {
		msg, err := sq.next()
		if err != nil {
			return err
		}
		if msg.Kind == cluster.MsgCommit && msg.Epoch == sq.epoch && msg.Stratum == round {
			acked[msg.From] = true
		}
	}
	return nil
}

// routeIngest partitions one table's deltas by ring owner (primary plus
// replicas — workers store every copy and inject only primarily-owned
// keys).
func (sq *StandingQuery) routeIngest(table string, deltas []types.Delta) (map[cluster.NodeID][]types.Delta, error) {
	tab, err := sq.e.Catalog.Table(table)
	if err != nil {
		return nil, fmt.Errorf("exec: ingest: %w", err)
	}
	arity := tab.Schema.Len()
	for _, d := range deltas {
		if len(d.Tup) != arity || (d.Op == types.OpReplace && len(d.Old) != arity) {
			return nil, fmt.Errorf("exec: ingest into %s: tuple %v does not match the %d-column schema", table, d.Tup, arity)
		}
	}
	out := map[cluster.NodeID][]types.Delta{}
	err = types.RouteByKey(deltas, tab.PartitionKey, func(h uint64, d types.Delta) error {
		for _, owner := range sq.e.Ring.Owners(h) {
			out[owner] = append(out[owner], d)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// spool is the unbounded batch buffer between the pump and the stream
// consumer. Unboundedness is deliberate: Ingest returns only after a
// round's batches are all spooled, so a single goroutine can alternate
// Ingest and stream reads without deadlocking on a bounded channel.
type spool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []StreamBatch
	head   int
	closed bool
}

func newSpool() *spool {
	s := &spool{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *spool) push(b StreamBatch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.buf = append(s.buf, b)
	s.cond.Signal()
}

// pop blocks until a batch is available or the spool is closed and
// drained.
func (s *spool) pop() (StreamBatch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.head == len(s.buf) && !s.closed {
		s.cond.Wait()
	}
	return s.take()
}

// tryPop is pop without blocking.
func (s *spool) tryPop() (StreamBatch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.take()
}

func (s *spool) take() (StreamBatch, bool) {
	if s.head == len(s.buf) {
		return StreamBatch{}, false
	}
	b := s.buf[s.head]
	s.buf[s.head] = StreamBatch{}
	s.head++
	if s.head == len(s.buf) {
		s.buf = s.buf[:0]
		s.head = 0
	}
	return b, true
}

func (s *spool) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cond.Broadcast()
}
