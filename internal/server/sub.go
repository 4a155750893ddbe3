package server

import (
	"context"
	"sync"

	rex "github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/srvproto"
	"github.com/rex-data/rex/internal/types"
)

// srvSub is a server-side standing query, promoted to a RESIDENT
// dataflow: each subscription owns a dedicated in-process flow session
// whose standing query — worker loops, operator state, delta network —
// stays alive between rounds, exactly the engine-level machinery
// in-process subscribers get. A covering ingest stages deltas here and a
// scheduler round task feeds them to the resident pump, which runs one
// INCREMENTAL round proportional to the net change; the round's
// per-stratum output deltas stream to the client tagged with their true
// round and stratum. (Earlier servers re-ran the cached plan and diffed
// retained results — paying a full recompute per round — because the
// single shared engine could not host resident dataflows; the sub-pool
// backend removes that constraint.)
//
// The flow session boots from a copy of the tables a serving pool holds,
// captured atomically with its registration for ingest fan-out, so no
// ingest is missed or double-applied. It is always in-process, even when
// the serving pools front TCP daemons.
//
// Ingestion requests coalesce: every covering ingest bumps seq, staged
// deltas accumulate, and at most one round task is queued at a time — a
// burst of writes costs one incremental round, whose reported Ingests is
// the number of client requests it covered. An ingest reply waits until
// doneSeq covers its seq, so the ingester's subscription stream already
// holds the covering round when its ingest returns.
type srvSub struct {
	srv  *Server
	conn *srvConn
	id   int // the subscribe request id; round frames echo it
	src  string
	opts rex.Options

	// ctx bounds the resident dataflow's lifetime: derived from the
	// server's base context, cancelled at teardown (and, during bring-up
	// only, by the subscribe request's context, so a client cancel aborts
	// the capture and the initial fixpoint).
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond
	flow      *rex.Session
	fsub      *rex.Subscription
	ready     bool                     // bring-up finished; rounds may run
	staged    map[string][]types.Delta // deltas awaiting the next round
	seq       int64                    // covering ingests observed
	doneSeq   int64                    // covering ingests absorbed by a completed round
	queued    bool                     // a round task is already scheduled
	dead      bool                     // torn down (unsubscribed, failed, or conn gone)
	lastStats *rex.RoundStats          // stats of the most recent completed round
}

func newSrvSub(srv *Server, conn *srvConn, id int, src string, opts rex.Options) *srvSub {
	ctx, cancel := context.WithCancel(srv.baseCtx)
	sub := &srvSub{srv: srv, conn: conn, id: id, src: src, opts: opts, ctx: ctx, cancel: cancel}
	sub.cond = sync.NewCond(&sub.mu)
	return sub
}

// stage records one covering ingest's deltas and schedules a round task
// if the flow is ready and none is pending. Called under backend.mu (the
// atomicity that keeps staging consistent with the flow's capture). Returns
// the sequence number await must reach, 0 if the sub is dead.
func (sub *srvSub) stage(batches map[string][]types.Delta) int64 {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.dead {
		return 0
	}
	if sub.staged == nil {
		sub.staged = map[string][]types.Delta{}
	}
	for table, deltas := range batches {
		sub.staged[table] = append(sub.staged[table], deltas...)
	}
	sub.seq++
	target := sub.seq
	sub.scheduleLocked()
	return target
}

// scheduleLocked queues a round task if the flow is live and none is
// pending.
func (sub *srvSub) scheduleLocked() {
	if sub.queued || !sub.ready || sub.dead || sub.seq <= sub.doneSeq {
		return
	}
	sub.queued = true
	if err := sub.srv.sched.submitRound(sub.runRound); err != nil {
		sub.queued = false
	}
}

// activate installs the booted flow (bring-up done, round 0 streamed) and
// schedules a round for anything staged during bring-up.
func (sub *srvSub) activate(flow *rex.Session, fsub *rex.Subscription, rs *rex.RoundStats) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	sub.flow, sub.fsub = flow, fsub
	sub.ready = true
	sub.lastStats = rs
	sub.scheduleLocked()
}

// await blocks until a completed round covers target (or the sub dies),
// returning that round's stats.
func (sub *srvSub) await(target int64) *rex.RoundStats {
	if target == 0 {
		return nil
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	for sub.doneSeq < target && !sub.dead {
		sub.cond.Wait()
	}
	return sub.lastStats
}

// runRound claims everything staged and feeds it to the resident pump as
// one incremental round, then forwards the round's buffered per-stratum
// batches and its boundary to the client. Runs as a scheduler round task
// (the pool argument is pacing only — the work happens on the flow
// session's own workers).
func (sub *srvSub) runRound(int) {
	sub.mu.Lock()
	if sub.dead || !sub.ready {
		sub.queued = false
		sub.mu.Unlock()
		return
	}
	staged := sub.staged
	sub.staged = nil
	target := sub.seq
	prevDone := sub.doneSeq
	fsub := sub.fsub
	sub.mu.Unlock()

	if len(staged) == 0 {
		sub.finishRound(target, nil)
		return
	}
	ack, err := fsub.Ingests(staged)
	if err != nil {
		sub.fail(err)
		sub.finishRound(target, nil)
		return
	}
	rs, err := ack.Wait(sub.ctx)
	if err != nil {
		sub.fail(err)
		sub.finishRound(target, nil)
		return
	}
	// The sub is this flow's only ingester and rounds run one at a time,
	// so the stream buffer now holds exactly this round's batches.
	st := fsub.Stream()
	var sent int64
	for {
		b, ok := st.TryNext()
		if !ok {
			break
		}
		n, werr := sub.conn.writeRows(sub.id, b.Stratum, b.Round, b.Deltas)
		sent += n
		if werr != nil {
			break // connection gone; its read loop reaps the sub
		}
	}
	out := *rs
	// Report the round's coverage from the client's perspective: how many
	// ingest REQUESTS it absorbed (the pump saw our one folded call).
	out.Ingests = int(target - prevDone)
	if out.BytesSent == 0 {
		out.BytesSent = sent
	}
	_ = sub.conn.writeBoundary(sub.id, out.Round, &srvproto.Trailer{Round: &out})
	sub.srv.stRounds.Add(1)
	sub.finishRound(target, &out)
}

// finishRound publishes the round's coverage, wakes ingest waiters, and
// reschedules if more work staged while the round ran.
func (sub *srvSub) finishRound(target int64, rs *rex.RoundStats) {
	sub.mu.Lock()
	if rs != nil {
		sub.lastStats = rs
	}
	if target > sub.doneSeq {
		sub.doneSeq = target
	}
	sub.queued = false
	sub.scheduleLocked()
	sub.cond.Broadcast()
	sub.mu.Unlock()
}

// fail tears the sub down with an error frame.
func (sub *srvSub) fail(err error) {
	if !sub.kill() {
		return
	}
	sub.conn.writeErr(sub.id, err)
	sub.conn.removeSub(sub.id)
}

// unsubscribe tears the sub down cleanly (client cancel): the stream ends
// with a clean final frame, so the client reports a nil Err.
func (sub *srvSub) unsubscribe() {
	if !sub.kill() {
		return
	}
	_ = sub.conn.writeClosed(sub.id, nil)
	sub.conn.removeSub(sub.id)
}

// reap tears the sub down silently (its connection is gone).
func (sub *srvSub) reap() {
	sub.kill()
}

// kill marks the sub dead, wakes waiters, removes it from the ingest
// fan-out, and releases the resident dataflow asynchronously (round
// tasks in flight unblock via the cancelled sub context). Returns false
// if already dead.
func (sub *srvSub) kill() bool {
	sub.mu.Lock()
	if sub.dead {
		sub.mu.Unlock()
		return false
	}
	sub.dead = true
	flow, fsub := sub.flow, sub.fsub
	sub.cond.Broadcast()
	sub.mu.Unlock()
	sub.cancel()
	sub.srv.be.unregister(sub)
	if flow != nil || fsub != nil {
		sub.srv.flowWG.Add(1)
		go func() {
			defer sub.srv.flowWG.Done()
			if fsub != nil {
				_ = fsub.Close()
			}
			if flow != nil {
				_ = flow.Close()
			}
		}()
	}
	return true
}
