package exec

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// requestor is the query-requestor side of one query (§4.2): it owns the
// query's local worker loops, its cancellation watcher and the requestor
// mailbox, and it runs the stratum protocol — collecting each stratum's
// fixpoint votes, deciding advance or terminate, and gathering the result
// deltas. One-shot and streamed runs (requestor.run) and standing queries
// (StandingQuery.pump) drive the same requestor; only what happens between
// collects differs.
type requestor struct {
	e         *Engine
	ctx       context.Context
	spec      *PlanSpec
	opts      Options
	queryID   string
	maxStrata int

	// alive, epoch and last belong to the driving goroutine. epoch is the
	// current execution attempt (recovery bumps it); last is the highest
	// stratum started, tracked exactly as the workers' lastStratum so a
	// standing query's next round base continues their numbering.
	alive []cluster.NodeID
	epoch int
	last  int
	// res, when set (one-shot runs), receives each closed stratum's stats.
	res *Result

	wg        sync.WaitGroup
	stopWatch chan struct{}
	watchDone chan struct{}
}

// start is the shared setup of Engine.RunCtx, Engine.Stream and
// Engine.Standing: it validates spec, normalizes the option defaults,
// assigns the query id, spawns a worker loop per alive node hosted in this
// process (remote nodes run theirs in their daemons) and starts the
// cancellation watcher. Workers idle until broadcastStart.
func (e *Engine) start(ctx context.Context, spec *PlanSpec, opts Options) (*requestor, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Stream && opts.Recovery != RecoveryNone {
		// A mid-stream recovery would re-emit deltas the consumer saw.
		return nil, fmt.Errorf("exec: streaming runs do not support failure recovery")
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = defaultBatchSize
	}
	if opts.CompactionHighWater <= 0 {
		opts.CompactionHighWater = defaultHighWater
	}
	r := &requestor{
		e: e, ctx: ctx, spec: spec, opts: opts,
		queryID:   fmt.Sprintf("q%d", e.queryCounter.Add(1)),
		maxStrata: spec.MaxStrata,
		alive:     e.Transport.AliveNodes(),
		stopWatch: make(chan struct{}),
		watchDone: make(chan struct{}),
	}
	if opts.MaxStrata > 0 {
		r.maxStrata = opts.MaxStrata
	}
	if len(r.alive) == 0 {
		return nil, fmt.Errorf("exec: no alive nodes")
	}
	// In-process inboxes persist across queries on one transport, so drain
	// the debris of any abandoned prior run first: its frames carry the
	// same epoch numbering as this query's and would otherwise be held by
	// the fresh worker as "early" frames and replayed into the wrong plan.
	// No frame of THIS query can exist yet — MsgStart has not been
	// broadcast — and TCP daemons get a fresh inbox from Configure, so the
	// drain only ever removes dead frames.
	for _, n := range r.alive {
		if e.Stores[n] == nil {
			continue
		}
		if ib := e.Transport.Inbox(n); ib != nil {
			ib.Drain()
		}
		r.spawn(n)
	}
	// A ctx expiry unblocks the mailbox reader by injecting the local
	// MsgCancel sentinel. It never crosses the wire; next checks ctx.Err()
	// before acting on it, so a stale sentinel (ctx cancelled just as the
	// query finished) is ignored by the next run.
	go func() {
		defer close(r.watchDone)
		select {
		case <-ctx.Done():
			e.Transport.Requestor().Put(cluster.Message{Kind: cluster.MsgCancel})
		case <-r.stopWatch:
		}
	}()
	return r, nil
}

// spawn starts node n's worker loop in this process; teardown joins it.
func (r *requestor) spawn(n cluster.NodeID) {
	e := r.e
	w := NewWorker(WorkerConfig{
		Node: n, Transport: e.Transport, Store: e.Stores[n],
		Checkpoints: e.Ckpts[n], Catalog: e.Catalog, Ring: e.Ring,
		Plan: r.spec, QueryID: r.queryID, Options: r.opts,
	})
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		w.Loop()
	}()
}

// broadcastStart opens the current epoch on every alive node at stratum,
// in one of the startMode values.
func (r *requestor) broadcastStart(mode, stratum int) {
	r.last = stratum
	payload := encodeNodeList(r.alive)
	for _, n := range r.alive {
		r.e.Transport.Send(cluster.Message{
			From: -1, To: n, Kind: cluster.MsgStart,
			Epoch: r.epoch, Stratum: stratum, Count: mode, Payload: payload,
		})
	}
}

// teardown ends the query. The watcher is joined first: its sentinel, if
// any, must be in the mailbox before the drain below, or it would leak
// into the next run's requestor traffic. An abort punctuation makes
// workers discard per-query operator state and drain cheaply; then the
// local loops stop, requestor debris (stale votes and result frames of an
// aborted run) is cleared so the next query starts from an empty queue —
// multi-process stragglers are handled by the transport's job-generation
// stamping instead — and the query's checkpoints are dropped.
func (r *requestor) teardown(abort bool) {
	e := r.e
	close(r.stopWatch)
	<-r.watchDone
	if abort {
		e.Transport.Broadcast(cluster.Message{From: -1, Kind: cluster.MsgAbort})
	}
	e.Transport.Broadcast(cluster.Message{From: -1, Kind: cluster.MsgShutdown})
	r.wg.Wait()
	e.Transport.Requestor().Drain()
	for _, c := range e.Ckpts {
		if c != nil {
			c.Drop(r.queryID)
		}
	}
}

// resultRows counts the result deltas every requestor in this process has
// received from its workers: a buffered recursive run's final relation,
// or a stream's per-stratum changelogs.
var resultRows atomic.Int64

// nodeFailureErr reports a node failure to the caller's recovery loop.
type nodeFailureErr struct{ node cluster.NodeID }

func (e nodeFailureErr) Error() string {
	return fmt.Sprintf("exec: node %d failed", e.node)
}

// errAsNodeFailure unwraps err as a node failure.
func errAsNodeFailure(err error) (nodeFailureErr, bool) {
	var nf nodeFailureErr
	if errors.As(err, &nf) {
		return nf, true
	}
	return nodeFailureErr{}, false
}

// next reads the requestor mailbox for the caller's protocol step and
// handles the frames every step treats alike: the watcher's MsgCancel
// (acted on only when ctx really expired), MsgError from this epoch's
// workers (earlier epochs' errors are a failed attempt's debris) and
// MsgFailure, returned as a nodeFailureErr for the caller to recover from
// or fail on. Every other frame is returned.
func (r *requestor) next() (cluster.Message, error) {
	req := r.e.Transport.Requestor()
	for {
		if err := r.ctx.Err(); err != nil {
			return cluster.Message{}, err
		}
		msg, ok := req.Get()
		if !ok {
			return msg, fmt.Errorf("exec: requestor mailbox closed")
		}
		switch msg.Kind {
		case cluster.MsgCancel:
			// Re-checked at the loop top.
		case cluster.MsgError:
			if msg.Epoch == r.epoch {
				return msg, fmt.Errorf("exec: node %d: %s", msg.From, msg.Table)
			}
		case cluster.MsgFailure:
			if r.opts.Recover != nil && r.e.Transport.Alive(msg.From) {
				continue // duplicate failure frame for an already-recovered node
			}
			return msg, nodeFailureErr{node: msg.From}
		default:
			return msg, nil
		}
	}
}

// collect drives one round of the stratum protocol to the final
// punctuation of every alive node: it tallies each stratum's fixpoint
// votes, broadcasts the advance-or-terminate decision, and releases the
// result deltas to out. A one-shot run is round 0 from base stratum 0; a
// standing query's ingestion round starts at base, the stratum after the
// last one started, and reports round-relative strata. bytesBefore is the
// wire-counter reading the round's BytesSent is measured from.
func (r *requestor) collect(round, base int, bytesBefore int64, out func(StreamBatch)) (*RoundStats, error) {
	e := r.e
	stats := &RoundStats{Round: round}
	start := time.Now()
	stratumStart := start
	votes := map[int]map[cluster.NodeID]int{}
	done := map[cluster.NodeID]bool{}
	// held keeps recursive output per stratum until that stratum's votes
	// close: every node ships its stratum batch ahead of its vote on the
	// same ordered channel, so a closed vote means the stratum is whole.
	held := map[int][]types.Delta{}
	closed := base - 1
	emit := func(stratum int, batch []types.Delta) {
		stats.Batches++
		stats.Deltas += len(batch)
		out(StreamBatch{Round: round, Stratum: stratum - base, Deltas: batch})
	}
	for {
		msg, err := r.next()
		if err != nil {
			return nil, err
		}
		switch msg.Kind {
		case cluster.MsgVote:
			if msg.Epoch != r.epoch {
				continue
			}
			s := msg.Stratum
			if votes[s] == nil {
				votes[s] = map[cluster.NodeID]int{}
			}
			votes[s][msg.From] = msg.Count
			if len(votes[s]) < len(r.alive) {
				continue
			}
			total := 0
			for _, c := range votes[s] {
				total += c
			}
			closed = s
			stats.Strata++
			stats.NewTuples += total
			if r.res != nil && s >= len(r.res.Strata) {
				// A re-voted restored stratum keeps its original stats.
				r.res.Strata = append(r.res.Strata, StratumStats{
					Stratum: s, NewTuples: total, Duration: time.Since(stratumStart),
				})
			}
			stratumStart = time.Now()
			rel := s - base
			if r.opts.OnStratum != nil {
				r.opts.OnStratum(rel, total)
			}
			if batch := held[s]; len(batch) > 0 {
				emit(s, batch)
			}
			delete(held, s)
			// An ingestion round must advance past its base stratum — on a
			// zero vote, a MaxStrata of 1, or a TermFn verdict alike:
			// deltas that entered through join paths are still buffered in
			// shuffle senders and only flush behind the next advance's
			// punctuation, so terminating at the base discards them. If
			// they amount to nothing, the next stratum votes zero and
			// terminates the round.
			terminate := false
			if round == 0 || s != base {
				terminate = total == 0 || rel+1 >= r.maxStrata
				if r.opts.TermFn != nil && r.opts.TermFn(rel, total) {
					terminate = true
				}
			}
			for _, n := range r.alive {
				e.Transport.Send(cluster.Message{
					From: -1, To: n, Kind: cluster.MsgDecision,
					Epoch: r.epoch, Stratum: s + 1, Terminate: terminate,
				})
			}
			if !terminate {
				r.last = s + 1
			}
		case cluster.MsgData:
			if msg.Epoch != r.epoch || msg.Edge != resultEdge {
				continue
			}
			batch, err := cluster.DecodeDeltas(msg.Payload)
			if err != nil {
				return nil, err
			}
			resultRows.Add(int64(len(batch)))
			if r.spec.Recursive() && msg.Stratum > closed {
				held[msg.Stratum] = append(held[msg.Stratum], batch...)
			} else {
				// Non-recursive output has no strata to align on, and a
				// buffered recursive run's final relation arrives after the
				// last vote closed: both go out as they arrive.
				emit(base, batch)
			}
		case cluster.MsgPunct:
			if msg.Epoch != r.epoch || msg.Edge != resultEdge {
				continue
			}
			done[msg.From] = true
			if len(done) < len(r.alive) {
				continue
			}
			for _, s := range slices.Sorted(maps.Keys(held)) {
				if batch := held[s]; len(batch) > 0 {
					emit(s, batch)
				}
			}
			// Multi-process transports count wire bytes where they are
			// sent, so pull the remote counters over before reading them.
			// The requestor is the mailbox's only reader, so the sync's
			// collector cannot race it; a cancellation it swallowed still
			// reports as the ctx error.
			if ms, ok := e.Transport.(cluster.MetricsSyncer); ok {
				if err := ms.SyncMetrics(); err != nil {
					return nil, cmp.Or(r.ctx.Err(), err)
				}
			}
			stats.BytesSent = e.Transport.Metrics().TotalBytesSent() - bytesBefore
			stats.Duration = time.Since(start)
			return stats, nil
		}
	}
}

// run drives a one-shot query — buffered (out nil: the result deltas fold
// into Result.Tuples) or streamed to out — through one collect per
// execution attempt. A node failure between attempts is the §4.3 epoch
// restart: RecoveryRestart re-runs the query from scratch on the
// survivors, RecoveryIncremental resumes from the replicated Δᵢ
// checkpoints. run always tears the query down.
func (r *requestor) run(out func(StreamBatch)) (*Result, error) {
	e := r.e
	began := time.Now()
	bytesBefore := e.Transport.Metrics().TotalBytesSent()
	compactInBefore, compactOutBefore := e.Transport.Metrics().TotalCompaction()
	res := &Result{}
	r.res = res
	r.broadcastStart(startFresh, 0)
	var acc *resultSet
	var stats *RoundStats
	var err error
	for {
		sink := out
		if out == nil {
			acc = newResultSet()
			sink = func(b StreamBatch) { acc.apply(b.Deltas) }
		}
		stats, err = r.collect(0, 0, bytesBefore, sink)
		nf, ok := errAsNodeFailure(err)
		if !ok {
			break
		}
		if r.opts.Recovery == RecoveryNone {
			err = fmt.Errorf("%v and recovery is disabled", nf)
			break
		}
		res.Recoveries++
		r.epoch++
		r.alive = e.Transport.AliveNodes()
		if len(r.alive) == 0 {
			err = fmt.Errorf("exec: all nodes failed")
			break
		}
		// res.Strata holds strata 0..n-1, so the last completed stratum is
		// n-1. Resume one stratum behind it: a worker replicates stratum
		// s's checkpoints before voting, but the replicas travel peer to
		// peer while the vote, and then this MsgStart, travel through the
		// requestor: a survivor can start the new epoch before the last
		// stratum's replicas reach it and drop them as stale. Stratum s-1's
		// replicas cannot be missing: each node sent them ahead of its
		// stratum-s punctuation on the same FIFO link, and every survivor
		// processed that punctuation before voting s.
		if n := len(res.Strata); r.opts.Recovery == RecoveryIncremental && r.opts.Checkpoint && r.spec.Recursive() && n >= 2 {
			res.Strata = res.Strata[:n-1]
			r.broadcastStart(startIncremental, n-2)
		} else {
			res.Strata = nil
			r.broadcastStart(startFresh, 0)
		}
	}
	r.teardown(err != nil && r.ctx.Err() != nil)
	if err != nil {
		return nil, err
	}
	if acc != nil {
		res.Tuples = acc.materialize()
	}
	res.Duration = time.Since(began)
	res.BytesSent = stats.BytesSent
	compactIn, compactOut := e.Transport.Metrics().TotalCompaction()
	res.CompactIn = compactIn - compactInBefore
	res.CompactOut = compactOut - compactOutBefore
	return res, nil
}
