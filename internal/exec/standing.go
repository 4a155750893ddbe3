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
	eng  *Engine
	spec *PlanSpec
	opts Options

	ctx    context.Context
	cancel context.CancelCauseFunc

	stream *ResultStream
	spool  *spool

	maxStrata int

	// mu guards the ingest queue, accumulated round stats, the applied
	// hook, and terminal state.
	mu        sync.Mutex
	queue     []*ingestReq
	rounds    []RoundStats
	onApplied func(tables map[string][]types.Delta)
	closed    bool
	err       error

	// epoch is the current execution attempt, bumped by each crash
	// recovery; pump-goroutine state (only the pump reads or writes it).
	epoch int
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

// nodeFailureErr signals a node failure to the pump's recovery loop
// (only produced when Options.Recover is installed).
type nodeFailureErr struct{ node cluster.NodeID }

func (e nodeFailureErr) Error() string {
	return fmt.Sprintf("exec: node %d failed", e.node)
}

// failureErr converts a MsgFailure into either a recoverable sentinel or
// the terminal error, depending on whether recovery is enabled.
func (sq *StandingQuery) failureErr(n cluster.NodeID) error {
	if sq.opts.Recover != nil {
		return nodeFailureErr{node: n}
	}
	return fmt.Errorf("exec: node %d failed (standing-query recovery not enabled; set Options.Recover)", n)
}

// roundRun is one ingestion round's full context, kept so a crash
// recovery can replay it: the covered requests, the folded and routed
// frames (re-staged verbatim on retry), the round's buffered output, and
// whether its fixpoint had closed when the failure hit. completed decides
// the retry's output handling — a completed round's output was already
// captured (the re-run, over a partially committed base, would emit
// deltas relative to the wrong view), while an incomplete round's output
// comes from the re-run itself.
type roundRun struct {
	round     int
	reqs      []*ingestReq
	folded    map[string][]types.Delta
	frames    []cluster.Message
	staged    int
	nDeltas   int
	nBytes    int64
	stats     *RoundStats
	buf       []StreamBatch
	completed bool
}

// Standing compiles nothing and tears nothing down: it starts spec on the
// engine in streaming mode, waits for the initial fixpoint to complete
// (its per-stratum batches are already buffered on the stream when Standing
// returns), and keeps the whole dataflow resident for incremental rounds.
// Standing queries reject failure recovery and checkpointing — a resident
// dataflow has no epochs to replay.
func (e *Engine) Standing(ctx context.Context, spec *PlanSpec, opts Options) (*StandingQuery, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
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
	opts.Stream = true
	if opts.BatchSize <= 0 {
		opts.BatchSize = defaultBatchSize
	}
	if opts.CompactionHighWater <= 0 {
		opts.CompactionHighWater = defaultHighWater
	}
	maxStrata := spec.MaxStrata
	if opts.MaxStrata > 0 {
		maxStrata = opts.MaxStrata
	}
	alive := e.Transport.AliveNodes()
	if len(alive) == 0 {
		return nil, fmt.Errorf("exec: no alive nodes")
	}
	if len(alive) != e.Transport.N() {
		return nil, fmt.Errorf("exec: standing queries need every node alive (%d of %d)", len(alive), e.Transport.N())
	}
	queryID := fmt.Sprintf("q%d", e.queryCounter.Add(1))

	sctx, cancel := context.WithCancelCause(ctx)
	sq := &StandingQuery{
		eng: e, spec: spec, opts: opts,
		ctx: sctx, cancel: cancel,
		spool:     newSpool(),
		maxStrata: maxStrata,
		done:      make(chan struct{}),
	}
	sq.stream = &ResultStream{src: sq.spool, done: sq.done, ctx: sctx, cancel: cancel}

	// Spawn one worker loop per node hosted in this process; remote nodes
	// run theirs inside their daemons. The loops stay alive across rounds
	// until teardown broadcasts MsgShutdown. Drain each persistent
	// in-process inbox first (see Engine.run): debris of an abandoned
	// prior query must not be replayed into this plan as early frames.
	var wg sync.WaitGroup
	for _, n := range alive {
		if e.Stores[n] == nil {
			continue
		}
		if ib := e.Transport.Inbox(n); ib != nil {
			ib.Drain()
		}
		w := NewWorker(WorkerConfig{
			Node: n, Transport: e.Transport, Store: e.Stores[n],
			Checkpoints: e.Ckpts[n], Catalog: e.Catalog, Ring: e.Ring,
			Plan: spec, QueryID: queryID, Options: opts,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Loop()
		}()
	}

	// Cancellation watcher, same contract as Engine.run: a ctx expiry (or
	// Close) unblocks the pump by injecting the local MsgCancel sentinel.
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		select {
		case <-sctx.Done():
			e.Transport.Requestor().Put(cluster.Message{Kind: cluster.MsgCancel})
		case <-stopWatch:
		}
	}()

	initErr := make(chan error, 1)
	go sq.pump(queryID, alive, &wg, stopWatch, watchDone, initErr)

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

// Rounds returns the stats of every completed round, initial fixpoint
// included.
func (sq *StandingQuery) Rounds() []RoundStats {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	return append([]RoundStats(nil), sq.rounds...)
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
	sq.eng.Transport.Requestor().Put(cluster.Message{Kind: cluster.MsgRoundReq})
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
		tab, err := sq.eng.Catalog.Table(table)
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
				tab, err := sq.eng.Catalog.Table(table)
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
	sq.rounds = append(sq.rounds, st)
	sq.mu.Unlock()
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
func (sq *StandingQuery) pump(queryID string, alive []cluster.NodeID, wg *sync.WaitGroup, stopWatch chan struct{}, watchDone <-chan struct{}, initErr chan<- error) {
	e := sq.eng
	start := time.Now()
	last := 0 // highest stratum started, shared with workers via decisions

	// With recovery on, a round's output is buffered pump-side until its
	// commit barrier lands: a crash mid-round must be able to discard or
	// replace it without the subscriber seeing a partial round.
	buffered := sq.opts.Recover != nil

	broadcastStart := func(mode int) {
		payload := encodeNodeList(alive)
		for _, n := range alive {
			e.Transport.Send(cluster.Message{
				From: -1, To: n, Kind: cluster.MsgStart,
				Epoch: sq.epoch, Stratum: 0, Count: mode, Payload: payload,
			})
		}
	}

	// recoverFrom brings the cluster back after victim died and re-runs
	// the interrupted round (rr; nil when the crash hit between rounds).
	// On return the cluster is whole, every store is at rr's committed
	// round, and rr.buf/rr.stats hold the round's output.
	recoverFrom := func(victim cluster.NodeID, rr *roundRun) error {
		for attempt := 1; ; attempt++ {
			if attempt > maxRecoveryAttempts {
				return fmt.Errorf("exec: giving up after %d crash-recovery attempts", maxRecoveryAttempts)
			}
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
				w := NewWorker(WorkerConfig{
					Node: victim, Transport: e.Transport, Store: e.Stores[victim],
					Checkpoints: e.Ckpts[victim], Catalog: e.Catalog, Ring: e.Ring,
					Plan: sq.spec, QueryID: queryID, Options: sq.opts,
				})
				wg.Add(1)
				go func() {
					defer wg.Done()
					w.Loop()
				}()
			}
			sq.epoch++
			sq.mu.Lock()
			sq.recoveries++
			sq.mu.Unlock()
			alive = e.Transport.AliveNodes()
			if len(alive) != e.Transport.N() {
				return fmt.Errorf("exec: recovery left %d of %d nodes alive", len(alive), e.Transport.N())
			}
			// Fresh epoch, fresh strata: MsgStart rebuilds every worker's
			// port trackers, so the monotonic-stratum clock restarts at 0.
			last = 0
			broadcastStart(startRecover)

			// Recovery fixpoint: every node rebuilds its operator state
			// from its committed store. Some nodes may have committed the
			// interrupted round and some not — that partial base is a
			// legitimate state; the replay below injects only the missing
			// partitions and converges it. The fixpoint's output re-derives
			// rounds already delivered and is discarded — unless the
			// interrupted round IS round 0 (initial fixpoint), in which
			// case this run's output is the round's output.
			initialRerun := rr != nil && rr.round == 0 && !rr.completed
			emit := func(StreamBatch) {}
			if initialRerun {
				rr.buf = nil
				emit = func(b StreamBatch) { rr.buf = append(rr.buf, b) }
			}
			stats, err := sq.collectRound(0, 0, alive, &last, e.Transport.Metrics().TotalBytesSent(), emit)
			if nf, ok := errAsNodeFailure(err); ok {
				victim = nf.node
				continue
			}
			if err != nil {
				return err
			}
			if initialRerun {
				rr.stats = stats
				rr.completed = true
			}

			// Replay an interrupted ingestion round: re-stage its routed
			// frames verbatim (nodes whose durable watermark covers the
			// round skip them; the rest buffer them again) and re-run. A
			// round whose fixpoint had closed keeps its original output —
			// the re-run executes over a partially committed base, so its
			// emitted deltas would be relative to the wrong view.
			if rr != nil && rr.round > 0 {
				if !rr.completed {
					rr.buf = nil
				}
				bytesBefore := e.Transport.Metrics().TotalBytesSent()
				if err := sq.sendStaged(rr.frames, rr.round); err != nil {
					if nf, ok := errAsNodeFailure(err); ok {
						victim = nf.node
						continue
					}
					return err
				}
				for _, n := range alive {
					e.Transport.Send(cluster.Message{From: -1, To: n, Kind: cluster.MsgRound, Epoch: sq.epoch})
				}
				base := last + 1
				last = base
				remit := func(StreamBatch) {}
				if !rr.completed {
					remit = func(b StreamBatch) { rr.buf = append(rr.buf, b) }
				}
				stats, err := sq.collectRound(rr.round, base, alive, &last, bytesBefore, remit)
				if nf, ok := errAsNodeFailure(err); ok {
					victim = nf.node
					continue
				}
				if err != nil {
					return err
				}
				if !rr.completed {
					rr.stats = stats
					rr.completed = true
				}
			}

			// Commit barrier for the replayed round. A between-rounds crash
			// (rr nil) changed no store state and needs no commit.
			if rr != nil {
				if err := sq.waitCommits(rr.round, alive); err != nil {
					if nf, ok := errAsNodeFailure(err); ok {
						victim = nf.node
						continue
					}
					return err
				}
			}
			return nil
		}
	}

	// runRetrying executes one round attempt and loops through crash
	// recovery until the round is durable or the error is terminal.
	runRetrying := func(rr *roundRun, attempt func() error) error {
		err := attempt()
		for {
			nf, ok := errAsNodeFailure(err)
			if !ok {
				return err
			}
			err = recoverFrom(nf.node, rr)
		}
	}

	broadcastStart(startFresh)

	runErr := func() error {
		rr0 := &roundRun{round: 0}
		err := runRetrying(rr0, func() error {
			rr0.buf = nil
			emit := func(b StreamBatch) { sq.spool.push(b) }
			if buffered {
				emit = func(b StreamBatch) { rr0.buf = append(rr0.buf, b) }
			}
			stats, err := sq.collectRound(0, 0, alive, &last, e.Transport.Metrics().TotalBytesSent(), emit)
			if err != nil {
				return err
			}
			rr0.stats = stats
			rr0.completed = true
			// Round 0's commit seals every store's loaded base (and, on
			// durable backends, resets watermarks left by prior queries).
			return sq.waitCommits(0, alive)
		})
		if err != nil {
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
			rr := &roundRun{
				round: round, reqs: reqs, folded: folded, frames: frames,
				staged: staged, nDeltas: nDeltas, nBytes: nBytes,
			}
			err = runRetrying(rr, func() error {
				// Snapshot the wire counter before any round traffic:
				// workers start shipping the moment MsgRound lands, possibly
				// before collectRound would read it. (MsgIngest staging
				// frames are driver control-plane and never counted.)
				bytesBefore := e.Transport.Metrics().TotalBytesSent()
				if err := sq.sendStaged(rr.frames, rr.round); err != nil {
					return err
				}
				for _, n := range alive {
					e.Transport.Send(cluster.Message{From: -1, To: n, Kind: cluster.MsgRound, Epoch: sq.epoch})
				}
				// Mirror the workers' startRound exactly: the round's base
				// stratum is counted as started on both sides (decisions
				// advance both further), so non-recursive rounds — which
				// have no decisions — stay in sync too.
				base := last + 1
				last = base
				rr.buf = nil
				emit := func(b StreamBatch) { sq.spool.push(b) }
				if buffered {
					emit = func(b StreamBatch) { rr.buf = append(rr.buf, b) }
				}
				stats, err := sq.collectRound(rr.round, base, alive, &last, bytesBefore, emit)
				if err != nil {
					return err
				}
				rr.stats = stats
				rr.completed = true
				return sq.waitCommits(rr.round, alive)
			})
			if err != nil {
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
			stats := rr.stats
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
		req := e.Transport.Requestor()
		for {
			if err := sq.ctx.Err(); err != nil {
				return err
			}
			// Claim everything queued, including requests that arrived while
			// a round was running: their sentinels were consumed (and
			// dropped) by that round's collectRound, so waiting for another
			// would lose the wakeup — and the sweep is what coalesces a
			// write burst into one round.
			if reqs := sq.takeQueued(); len(reqs) > 0 {
				if err := serve(reqs); err != nil {
					return err
				}
				continue
			}
			msg, ok := req.Get()
			if !ok {
				return fmt.Errorf("exec: requestor mailbox closed")
			}
			switch msg.Kind {
			case cluster.MsgCancel:
				if err := sq.ctx.Err(); err != nil {
					return err
				}
			case cluster.MsgRoundReq:
				// The request itself is claimed at the top of the loop.
			case cluster.MsgError:
				return fmt.Errorf("exec: node %d: %s", msg.From, msg.Table)
			case cluster.MsgFailure:
				if sq.opts.Recover != nil && e.Transport.Alive(msg.From) {
					continue // duplicate failure frame for an already-recovered node
				}
				ferr := sq.failureErr(msg.From)
				if nf, ok := errAsNodeFailure(ferr); ok {
					// Idle crash: no round in flight, nothing to replay —
					// rebuild the dataflow and keep serving.
					if rerr := recoverFrom(nf.node, nil); rerr != nil {
						return rerr
					}
					continue
				}
				return ferr
			}
		}
	}()

	close(stopWatch)
	<-watchDone
	e.Transport.Broadcast(cluster.Message{From: -1, Kind: cluster.MsgAbort})
	e.Transport.Broadcast(cluster.Message{From: -1, Kind: cluster.MsgShutdown})
	wg.Wait()
	e.Transport.Requestor().Drain()
	for _, c := range e.Ckpts {
		if c != nil {
			c.Drop(queryID)
		}
	}

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
	var total Result
	for _, r := range sq.rounds {
		total.BytesSent += r.BytesSent
		for s := 0; s < r.Strata; s++ {
			// Round boundaries are recoverable from Rounds(); the Result
			// keeps only the aggregate view.
			total.Strata = append(total.Strata, StratumStats{Stratum: len(total.Strata)})
		}
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

// collectRound drives one round's vote/advance/terminate loop and feeds
// its output batches to emit, returning when every node's final
// punctuation has arrived. base is the round's base stratum; last tracks
// the highest stratum started so the next round's base continues the
// monotonic numbering exactly as the workers compute it. Frames from
// other epochs (pre-recovery stragglers) are filtered out.
func (sq *StandingQuery) collectRound(round, base int, alive []cluster.NodeID, last *int, bytesBefore int64, out func(StreamBatch)) (*RoundStats, error) {
	e := sq.eng
	req := e.Transport.Requestor()
	stats := &RoundStats{Round: round}
	start := time.Now()
	votes := map[int]map[cluster.NodeID]int{}
	done := map[cluster.NodeID]bool{}
	sbuf := map[int][]types.Delta{}
	emit := func(stratum int, batch []types.Delta) {
		stats.Batches++
		stats.Deltas += len(batch)
		out(StreamBatch{Round: round, Stratum: stratum - base, Deltas: batch})
	}
	for {
		if err := sq.ctx.Err(); err != nil {
			return nil, err
		}
		msg, ok := req.Get()
		if !ok {
			return nil, fmt.Errorf("exec: requestor mailbox closed")
		}
		switch msg.Kind {
		case cluster.MsgCancel:
			if err := sq.ctx.Err(); err != nil {
				return nil, err
			}
		case cluster.MsgError:
			return nil, fmt.Errorf("exec: node %d: %s", msg.From, msg.Table)
		case cluster.MsgFailure:
			if sq.opts.Recover != nil && e.Transport.Alive(msg.From) {
				continue // duplicate failure frame for an already-recovered node
			}
			return nil, sq.failureErr(msg.From)
		case cluster.MsgVote:
			if msg.Epoch != sq.epoch {
				continue
			}
			s := msg.Stratum
			if votes[s] == nil {
				votes[s] = map[cluster.NodeID]int{}
			}
			votes[s][msg.From] = msg.Count
			if len(votes[s]) < len(alive) {
				continue
			}
			total := 0
			for _, c := range votes[s] {
				total += c
			}
			stats.Strata++
			stats.NewTuples += total
			rel := s - base
			if sq.opts.OnStratum != nil {
				sq.opts.OnStratum(rel, total)
			}
			if batch := sbuf[s]; len(batch) > 0 {
				emit(s, batch)
			}
			delete(sbuf, s)
			// An ingestion round must advance past its base stratum — on a
			// zero vote, a MaxStrata of 1, or a TermFn verdict alike:
			// deltas that entered through join paths are still buffered in
			// shuffle senders and only flush behind the next advance's
			// punctuation, so terminating at the base discards them. If
			// they amount to nothing, the next stratum votes zero and
			// terminates the round.
			atIngestBase := round > 0 && s == base
			terminate := total == 0 && !atIngestBase
			if !atIngestBase {
				if rel+1 >= sq.maxStrata {
					terminate = true
				}
				if sq.opts.TermFn != nil && sq.opts.TermFn(rel, total) {
					terminate = true
				}
			}
			for _, n := range alive {
				e.Transport.Send(cluster.Message{
					From: -1, To: n, Kind: cluster.MsgDecision,
					Epoch: sq.epoch, Stratum: s + 1, Terminate: terminate,
				})
			}
			if !terminate {
				*last = s + 1
			}
		case cluster.MsgData:
			if msg.Epoch != sq.epoch || msg.Edge != resultEdge {
				continue
			}
			batch, err := cluster.DecodeDeltas(msg.Payload)
			if err != nil {
				return nil, err
			}
			if sq.spec.Recursive() {
				sbuf[msg.Stratum] = append(sbuf[msg.Stratum], batch...)
			} else {
				emit(base, batch)
			}
		case cluster.MsgPunct:
			if msg.Epoch != sq.epoch || msg.Edge != resultEdge {
				continue
			}
			done[msg.From] = true
			if len(done) < len(alive) {
				continue
			}
			strata := make([]int, 0, len(sbuf))
			for s := range sbuf {
				strata = append(strata, s)
			}
			sort.Ints(strata)
			for _, s := range strata {
				if batch := sbuf[s]; len(batch) > 0 {
					emit(s, batch)
				}
			}
			// Per-round byte accounting: multi-process transports count
			// wire bytes where they are sent, so pull the remote counters
			// over before reading the delta. The pump is the requestor
			// mailbox's only reader, so the sync's collector cannot race it.
			if ms, ok := e.Transport.(cluster.MetricsSyncer); ok {
				if err := ms.SyncMetrics(); err != nil {
					return nil, err
				}
			}
			stats.BytesSent = e.Transport.Metrics().TotalBytesSent() - bytesBefore
			stats.Duration = time.Since(start)
			return stats, nil
		}
	}
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
		if bs <= 0 {
			bs = defaultBatchSize
		}
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
	e := sq.eng
	req := e.Transport.Requestor()
	for i := range frames {
		frames[i].Epoch = sq.epoch
		frames[i].Stratum = round
	}
	for _, f := range frames {
		for e.Transport.Credits(-1, f.To) <= 0 {
			if err := sq.ctx.Err(); err != nil {
				return err
			}
			msg, ok := req.Get()
			if !ok {
				return fmt.Errorf("exec: requestor mailbox closed")
			}
			switch msg.Kind {
			case cluster.MsgCancel:
				if err := sq.ctx.Err(); err != nil {
					return err
				}
			case cluster.MsgError:
				return fmt.Errorf("exec: node %d: %s", msg.From, msg.Table)
			case cluster.MsgFailure:
				if sq.opts.Recover != nil && e.Transport.Alive(msg.From) {
					continue // duplicate failure frame for an already-recovered node
				}
				return sq.failureErr(msg.From)
			case cluster.MsgRoundReq:
				// Harmless to consume: round requests are claimed from the
				// queue at the top of the pump loop, and the staged batches
				// behind this sentinel are already queued for the sweep
				// after the current round.
			case cluster.MsgCreditAck:
				// The transport installed the grant on delivery; the loop
				// re-probes the window.
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
func (sq *StandingQuery) waitCommits(round int, alive []cluster.NodeID) error {
	e := sq.eng
	e.Transport.Broadcast(cluster.Message{
		From: -1, Kind: cluster.MsgCommit, Stratum: round, Epoch: sq.epoch,
	})
	req := e.Transport.Requestor()
	acked := map[cluster.NodeID]bool{}
	for len(acked) < len(alive) {
		if err := sq.ctx.Err(); err != nil {
			return err
		}
		msg, ok := req.Get()
		if !ok {
			return fmt.Errorf("exec: requestor mailbox closed")
		}
		switch msg.Kind {
		case cluster.MsgCancel:
			if err := sq.ctx.Err(); err != nil {
				return err
			}
		case cluster.MsgError:
			return fmt.Errorf("exec: node %d: %s", msg.From, msg.Table)
		case cluster.MsgFailure:
			if sq.opts.Recover != nil && e.Transport.Alive(msg.From) {
				continue // duplicate failure frame for an already-recovered node
			}
			return sq.failureErr(msg.From)
		case cluster.MsgCommit:
			if msg.Epoch == sq.epoch && msg.Stratum == round {
				acked[msg.From] = true
			}
		}
	}
	return nil
}

// errAsNodeFailure unwraps err as a recoverable node failure.
func errAsNodeFailure(err error) (nodeFailureErr, bool) {
	var nf nodeFailureErr
	if errors.As(err, &nf) {
		return nf, true
	}
	return nodeFailureErr{}, false
}

// routeIngest partitions one table's deltas by ring owner (primary plus
// replicas — workers store every copy and inject only primarily-owned
// keys).
func (sq *StandingQuery) routeIngest(table string, deltas []types.Delta) (map[cluster.NodeID][]types.Delta, error) {
	tab, err := sq.eng.Catalog.Table(table)
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
		for _, owner := range sq.eng.Ring.Owners(h) {
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
