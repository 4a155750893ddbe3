package server

import (
	"context"
	"fmt"
	"sync"

	"github.com/rex-data/rex/internal/srvproto"
)

// sched is the server's work scheduler: R runner goroutines, one pinned
// to each engine sub-pool, drain two work classes under weighted fair
// queueing. The interactive class (ad-hoc streams, subscription installs)
// is ordered priority-high-first, and within each priority level the
// runners round-robin across tenants — one chatty tenant queueing fifty
// normal-priority queries cannot starve another tenant's one. The rounds
// class (standing-query refresh rounds) is FIFO and bounded by the live
// subscription count (one queued refresh per flow; coalescing absorbs
// bursts). The credit weights guarantee both classes make progress under
// sustained load from the other: per credit window, interactive work gets
// interactiveWeight picks to the rounds class's roundsWeight.
//
// A runner executes interactive tasks against its own sub-pool — that
// pinning is what makes K admitted queries genuinely concurrent — while
// round tasks drive their subscription's resident flow session and only
// borrow the runner for pacing.
type sched struct {
	runners int

	mu      sync.Mutex
	cond    *sync.Cond
	lanes   map[string]*tenantLane
	order   []string // tenant arrival order; the round-robin ring
	rr      [3]int   // per-priority-level cursor into order
	nQueued int      // total queued interactive tasks
	rounds  []func(pool int)
	qCredit int
	rCredit int
	closed  bool
	done    chan struct{}
}

// Weighted-fair-queueing credits per window: interactive picks per rounds
// pick when both classes have work.
const (
	interactiveWeight = 2
	roundsWeight      = 1
)

// tenantLane holds one tenant's queued interactive tasks, bucketed by
// priority level (index prio+1: 0=low, 1=normal, 2=high).
type tenantLane struct {
	byPrio [3][]func(pool int)
}

func newSched(runners int) *sched {
	if runners < 1 {
		runners = 1
	}
	q := &sched{
		runners: runners,
		lanes:   map[string]*tenantLane{},
		qCredit: interactiveWeight,
		rCredit: roundsWeight,
		done:    make(chan struct{}, runners),
	}
	q.cond = sync.NewCond(&q.mu)
	for i := 0; i < runners; i++ {
		go q.run(i)
	}
	return q
}

// submitQuery enqueues an interactive task under its tenant's lane at the
// given priority level (-1, 0, +1). Admission is gated by the caller.
func (q *sched) submitQuery(tenant string, prio int, task func(pool int)) error {
	if prio < srvproto.PriorityLow {
		prio = srvproto.PriorityLow
	} else if prio > srvproto.PriorityHigh {
		prio = srvproto.PriorityHigh
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return srvproto.ErrSessionClosed
	}
	lane := q.lanes[tenant]
	if lane == nil {
		lane = &tenantLane{}
		q.lanes[tenant] = lane
		q.order = append(q.order, tenant)
	}
	lane.byPrio[prio+1] = append(lane.byPrio[prio+1], task)
	q.nQueued++
	q.cond.Signal()
	return nil
}

// submitRound enqueues a standing-query refresh round.
func (q *sched) submitRound(task func(pool int)) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return srvproto.ErrSessionClosed
	}
	q.rounds = append(q.rounds, task)
	q.cond.Signal()
	return nil
}

// pickLocked dequeues the next task under the WFQ + priority + tenant
// round-robin discipline; nil when nothing is queued.
func (q *sched) pickLocked() func(pool int) {
	hasQ, hasR := q.nQueued > 0, len(q.rounds) > 0
	if !hasQ && !hasR {
		return nil
	}
	useRound := false
	switch {
	case !hasQ:
		useRound = true
	case !hasR:
		useRound = false
	default:
		if q.qCredit <= 0 && q.rCredit <= 0 {
			q.qCredit, q.rCredit = interactiveWeight, roundsWeight
		}
		if q.qCredit > 0 {
			q.qCredit--
		} else {
			q.rCredit--
			useRound = true
		}
	}
	if useRound {
		task := q.rounds[0]
		q.rounds = q.rounds[1:]
		return task
	}
	for p := 2; p >= 0; p-- {
		n := len(q.order)
		for i := 0; i < n; i++ {
			idx := (q.rr[p] + i) % n
			lane := q.lanes[q.order[idx]]
			if bucket := lane.byPrio[p]; len(bucket) > 0 {
				task := bucket[0]
				lane.byPrio[p] = bucket[1:]
				q.rr[p] = (idx + 1) % n
				q.nQueued--
				return task
			}
		}
	}
	return nil // unreachable while nQueued is accurate
}

// run is runner i, pinned to sub-pool i: it drains the queues under the
// fairness discipline and exits — after finishing everything already
// queued — once the scheduler closes.
func (q *sched) run(pool int) {
	defer func() { q.done <- struct{}{} }()
	for {
		q.mu.Lock()
		for !q.closed && q.nQueued == 0 && len(q.rounds) == 0 {
			q.cond.Wait()
		}
		task := q.pickLocked()
		q.mu.Unlock()
		if task == nil {
			return // closed and drained
		}
		task(pool)
	}
}

// close stops intake and waits for every runner to drain.
func (q *sched) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	for i := 0; i < q.runners; i++ {
		<-q.done
	}
}

// gate is the tenant-aware admission controller in front of the
// scheduler. Two limits stack:
//
//   - Per-tenant inflight quotas. A tenant at its quota — counting both
//     admitted and queued requests — is rejected immediately with
//     ErrTenantBusy; its backlog never occupies shared queue capacity,
//     so one tenant's burst cannot crowd out the rest.
//   - A global window: MaxInflight requests admitted at once, up to
//     MaxQueue more waiting FIFO for a slot, everything beyond rejected
//     with ErrServerBusy — a full server sheds load instead of building
//     an unbounded backlog.
//
// acquire returns a slot handle whose release is idempotent (sync.Once),
// so cancellation races — a request torn down on the read-loop path while
// its handler unwinds — cannot leak or double-free a slot.
type gate struct {
	maxInflight int
	maxWait     int
	defQuota    int            // per-tenant inflight cap; 0 = unlimited
	quotas      map[string]int // per-tenant overrides of defQuota

	mu           sync.Mutex
	inflight     int
	waiters      []*gateWaiter
	tenants      map[string]*tenantCtr
	quotaRejects int64
}

// tenantCtr tracks one tenant's admission counters. committed counts
// admitted plus queued requests — the number the quota bounds.
type tenantCtr struct {
	committed    int
	inflight     int
	admitted     int64
	quotaRejects int64
}

// gateWaiter is one queued acquire. The releaser hands its slot straight
// to the head waiter (granted=true) rather than freeing it, preserving
// FIFO order; a cancelled waiter that lost that race releases the slot it
// was just granted.
type gateWaiter struct {
	tenant  string
	ready   chan struct{}
	granted bool
}

// slot is the handle a successful acquire returns.
type slot struct {
	g      *gate
	tenant string
	once   sync.Once
}

func newGate(inflight, queue, quota int, quotas map[string]int) *gate {
	return &gate{
		maxInflight: inflight,
		maxWait:     queue,
		defQuota:    quota,
		quotas:      quotas,
		tenants:     map[string]*tenantCtr{},
	}
}

func (g *gate) quotaFor(tenant string) int {
	if q, ok := g.quotas[tenant]; ok {
		return q
	}
	return g.defQuota
}

func (g *gate) ctrLocked(tenant string) *tenantCtr {
	t := g.tenants[tenant]
	if t == nil {
		t = &tenantCtr{}
		g.tenants[tenant] = t
	}
	return t
}

// acquire claims a slot for tenant, waiting in the bounded FIFO queue if
// none is free. Quota exhaustion rejects immediately (no queueing).
func (g *gate) acquire(ctx context.Context, tenant string) (*slot, error) {
	g.mu.Lock()
	t := g.ctrLocked(tenant)
	if q := g.quotaFor(tenant); q > 0 && t.committed >= q {
		t.quotaRejects++
		g.quotaRejects++
		g.mu.Unlock()
		return nil, fmt.Errorf("%w (tenant %q, %d inflight)", srvproto.ErrTenantBusy, tenant, q)
	}
	if g.inflight < g.maxInflight {
		g.inflight++
		t.committed++
		t.inflight++
		t.admitted++
		g.mu.Unlock()
		return &slot{g: g, tenant: tenant}, nil
	}
	if len(g.waiters) >= g.maxWait {
		g.mu.Unlock()
		return nil, srvproto.ErrServerBusy
	}
	w := &gateWaiter{tenant: tenant, ready: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	t.committed++
	g.mu.Unlock()

	select {
	case <-w.ready:
		return &slot{g: g, tenant: tenant}, nil
	case <-ctx.Done():
		g.mu.Lock()
		if w.granted {
			// Lost the race: a releaser already handed us its slot. Pass it
			// on (or free it) so cancellation cannot leak capacity.
			g.releaseLocked(tenant)
			g.mu.Unlock()
			return nil, ctx.Err()
		}
		for i, o := range g.waiters {
			if o == w {
				g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
				break
			}
		}
		t.committed--
		g.mu.Unlock()
		return nil, ctx.Err()
	}
}

// releaseLocked frees tenant's slot: the head waiter inherits it if one
// is queued, otherwise the inflight window shrinks.
func (g *gate) releaseLocked(tenant string) {
	t := g.ctrLocked(tenant)
	t.committed--
	t.inflight--
	if len(g.waiters) > 0 {
		w := g.waiters[0]
		g.waiters = g.waiters[1:]
		w.granted = true
		wt := g.ctrLocked(w.tenant)
		wt.inflight++
		wt.admitted++
		close(w.ready)
		return
	}
	g.inflight--
}

// release frees the slot; safe to call more than once.
func (s *slot) release() {
	s.once.Do(func() {
		s.g.mu.Lock()
		s.g.releaseLocked(s.tenant)
		s.g.mu.Unlock()
	})
}

// gateSnap is a point-in-time view of the gate for Stats.
type gateSnap struct {
	inflight     int64
	waiting      int64
	quotaRejects int64
	tenants      map[string]srvproto.TenantStats
}

func (g *gate) snapshot() gateSnap {
	g.mu.Lock()
	defer g.mu.Unlock()
	snap := gateSnap{
		inflight:     int64(g.inflight),
		waiting:      int64(len(g.waiters)),
		quotaRejects: g.quotaRejects,
		tenants:      make(map[string]srvproto.TenantStats, len(g.tenants)),
	}
	for name, t := range g.tenants {
		snap.tenants[name] = srvproto.TenantStats{
			Admitted:        t.admitted,
			Inflight:        int64(t.inflight),
			QuotaRejections: t.quotaRejects,
		}
	}
	return snap
}

// idle reports whether every slot has been returned and no one is queued
// — the invariant the admission-leak regression test churns against.
func (g *gate) idle() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight == 0 && len(g.waiters) == 0
}
