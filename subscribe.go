package rex

import (
	"context"
	"fmt"

	"github.com/rex-data/rex/internal/exec"
)

// RoundStats reports one round of a standing query (round 0 is the initial
// fixpoint; every round after it covers one or more coalesced ingestion
// requests — see RoundStats.Ingests and CoalescingRatio).
type RoundStats = exec.RoundStats

// IngestAck is the handle an asynchronous ingest returns: it resolves when
// the round covering the request — possibly coalesced with other queued
// requests into a single round — completes its fixpoint. Wait blocks for
// the covering round's stats; Done exposes the completion channel. On
// sessions without a live subscription the ack is already resolved when
// returned (the change applied synchronously; there is no round).
type IngestAck = exec.IngestAck

// Subscription is a standing query: Subscribe compiled the plan, ran the
// initial fixpoint, and kept the whole dataflow — worker loops, operator
// state, delta network — resident. Base-table changes fed through
// Session.Insert/Delete/LoadDeltas (or Ingest directly) run incremental
// rounds whose per-stratum output deltas are pushed to Stream; folding the
// stream in order always reproduces what a from-scratch Query over the
// revised base tables would return.
//
// On a server session the dataflow lives in the rexd server: the initial
// result arrives as round 0 and every covering ingestion round streams
// its net-change deltas over the connection, interleaved fairly with
// other clients' queries on the shared pool.
//
// A subscription owns the session while live: other queries on the session
// wait (or fail at Close) until the subscription is closed.
type Subscription struct {
	q standing
}

// Subscribe compiles src, executes its initial fixpoint, and returns the
// live subscription. Works on every transport: in-process the session
// engine's workers stay resident; over TCP every rexnode daemon keeps its
// job alive and ingestion rounds travel as MsgIngest wire frames; on a
// server session the rexd server keeps the standing state and streams
// each round back. Standing queries reject failure-recovery and
// checkpoint options.
func (s *Session) Subscribe(ctx context.Context, src string, qopts ...QueryOption) (*Subscription, error) {
	q, err := s.be.query(src, buildOptions(qopts))
	if err != nil {
		return nil, err
	}
	if err := s.lock(); err != nil {
		return nil, err
	}
	return s.adopt(q.subscribe(ctx))
}

// adopt hands the session lock to a live subscription, released at its
// teardown; while live, Insert/Delete/LoadDeltas route through it.
func (s *Session) adopt(q standing, err error) (*Subscription, error) {
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	sub := &Subscription{q: q}
	s.handOff(sub, q.Done())
	return sub, nil
}

// liveSub returns the session's active subscription, if any.
func (s *Session) liveSub() *Subscription {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	sub, _ := s.live.(*Subscription)
	return sub
}

// Stream returns the subscription's delta stream: the initial fixpoint's
// per-stratum batches followed by every ingestion round's, each tagged
// with its round and round-relative stratum. The stream's buffer is
// unbounded, so one goroutine may alternate ingestion and consumption
// (TryNext drains exactly what a completed round buffered). The stream
// ends when the subscription closes.
func (sub *Subscription) Stream() *DeltaStream { return sub.q.Stream() }

// Rounds returns per-round statistics: strata run, deltas emitted, and —
// the serving metric — the round's measured wire bytes, to hold against a
// from-scratch recompute's. It keeps the initial fixpoint (round 0) and
// the latest 1 023 rounds; older rounds are dropped, which RoundStats.Round
// shows as a gap after round 0.
func (sub *Subscription) Rounds() []RoundStats { return sub.q.Rounds() }

// Ingest applies base-table deltas and runs (or joins) one incremental
// round, returning its stats once the fixpoint closes (all of the round's
// output batches are buffered on Stream by then).
// Session.Insert/Delete/LoadDeltas are the per-table conveniences over it;
// IngestAsync is the non-blocking form.
func (sub *Subscription) Ingest(ctx context.Context, table string, deltas []Delta) (*RoundStats, error) {
	if len(deltas) == 0 {
		return nil, fmt.Errorf("rex: ingest into %s: empty delta batch", table)
	}
	return sub.q.Ingest(ctx, map[string][]Delta{table: deltas})
}

// IngestAsync enqueues base-table deltas and returns immediately; the ack
// resolves when the covering round completes. Requests enqueued while a
// round is running coalesce — their deltas fold through the shuffle
// compactor into a single follow-up round — so a burst of small writes
// costs one fixpoint, not one per write. Safe for concurrent callers. On
// a server session the request travels synchronously and the returned ack
// is already resolved (coalescing happens server-side, across clients).
func (sub *Subscription) IngestAsync(table string, deltas []Delta) (*IngestAck, error) {
	if len(deltas) == 0 {
		return nil, fmt.Errorf("rex: ingest into %s: empty delta batch", table)
	}
	return sub.q.IngestAsync(map[string][]Delta{table: deltas})
}

// Ingests is the multi-table batched form of IngestAsync: every table's
// deltas ride the same covering round.
func (sub *Subscription) Ingests(batches map[string][]Delta) (*IngestAck, error) {
	m := nonEmpty(batches)
	if len(m) == 0 {
		return nil, fmt.Errorf("rex: ingest: empty delta batch")
	}
	return sub.q.IngestAsync(m)
}

// Err reports the subscription's terminal error once it is closed; a
// deliberate Close reports nil.
func (sub *Subscription) Err() error { return sub.q.Err() }

// Done is closed when the subscription has fully torn down.
func (sub *Subscription) Done() <-chan struct{} { return sub.q.Done() }

// Close tears the standing dataflow down and releases the session for
// other queries. The stream ends after its buffered batches are consumed.
func (sub *Subscription) Close() error { return sub.q.Close() }
