package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	rex "github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/bench"
)

// TestTenantFleetCompileOnce: N identical queries arriving concurrently
// from M distinct tenants compile ONCE — tenancy partitions admission and
// scheduling, not the plan cache — and every result hash matches direct
// in-process execution.
func TestTenantFleetCompileOnce(t *testing.T) {
	ctx := context.Background()
	_, addr := startServer(t, Config{Nodes: 2, SubPools: 2})
	admin := dial(t, addr)
	stage(t, admin)

	local, err := rex.Open(ctx, rex.WithInProc(2))
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	stage(t, local)

	const q = `SELECT srcId, count(*) FROM graph GROUP BY srcId`
	res, err := local.QueryCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want := bench.ResultHash(res.Tuples)

	tenants := []string{"acme", "blue", "cyan"}
	const perTenant = 4
	var wg sync.WaitGroup
	errc := make(chan error, len(tenants)*perTenant)
	for _, tn := range tenants {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tn string, i int) {
				defer wg.Done()
				s, err := rex.Open(ctx, rex.WithServer(addr), rex.WithServerTenant(tn))
				if err != nil {
					errc <- err
					return
				}
				defer s.Close()
				prio := rex.PriorityNormal
				if i%2 == 1 {
					prio = rex.PriorityHigh
				}
				res, err := s.QueryCtx(ctx, q, rex.WithPriority(prio))
				if err != nil {
					errc <- fmt.Errorf("tenant %s: %w", tn, err)
					return
				}
				if h := bench.ResultHash(res.Tuples); h != want {
					errc <- fmt.Errorf("tenant %s: hash %s != %s", tn, h, want)
				}
			}(tn, i)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st, err := admin.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Server == nil {
		t.Fatal("server session returned no server stats")
	}
	if st.Server.Compiles != 1 {
		t.Fatalf("compiles = %d, want 1 (12 identical queries from 3 tenants)", st.Server.Compiles)
	}
	if st.Server.PlanCacheHits < int64(len(tenants)*perTenant-1) {
		t.Fatalf("plan cache hits = %d, want >= %d", st.Server.PlanCacheHits, len(tenants)*perTenant-1)
	}
	for _, tn := range tenants {
		ts, ok := st.Server.Tenants[tn]
		if !ok {
			t.Fatalf("tenant %q missing from stats (have %v)", tn, st.Server.Tenants)
		}
		if ts.Admitted < perTenant {
			t.Fatalf("tenant %q admitted = %d, want >= %d", tn, ts.Admitted, perTenant)
		}
	}
}

// TestTenantQuotaBusyOverWire: a tenant at its inflight quota is rejected
// with an error that satisfies errors.Is(err, rex.ErrTenantBusy) after a
// round trip through the wire codec, other tenants are unaffected, and
// the rejection shows up in the per-tenant stats, never as ErrServerBusy.
// Every admitted query answers as direct execution does. The quota slot
// is held directly on the gate so the rejection is deterministic.
func TestTenantQuotaBusyOverWire(t *testing.T) {
	ctx := context.Background()
	srv, addr := startServer(t, Config{Nodes: 2, TenantQuotas: map[string]int{"throttled": 1}})
	admin := dial(t, addr)
	stage(t, admin)

	const q = `SELECT destId FROM graph WHERE srcId > 25`
	local, err := rex.Open(ctx, rex.WithInProc(2))
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	stage(t, local)
	res, err := local.QueryCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want := bench.ResultHash(res.Tuples)
	admitted := func(who string, res *rex.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", who, err)
		}
		if h := bench.ResultHash(res.Tuples); h != want {
			t.Fatalf("%s: hash %s != direct %s", who, h, want)
		}
	}

	held, err := srv.gate.acquire(ctx, "throttled")
	if err != nil {
		t.Fatal(err)
	}

	s := dial(t, addr)
	if _, err := s.QueryCtx(ctx, q, rex.WithTenant("throttled")); !errors.Is(err, rex.ErrTenantBusy) {
		t.Fatalf("over-quota query: err = %v, want rex.ErrTenantBusy", err)
	}
	// The sibling sentinel must NOT match: quota exhaustion is the
	// tenant's problem, not the server's.
	if _, err := s.QueryCtx(ctx, q, rex.WithTenant("throttled")); errors.Is(err, rex.ErrServerBusy) {
		t.Fatalf("over-quota query matched ErrServerBusy: %v", err)
	}
	// Another tenant is unaffected while "throttled" is pinned.
	res, err = s.QueryCtx(ctx, q, rex.WithTenant("calm"))
	admitted("calm tenant", res, err)

	held.release()
	res, err = s.QueryCtx(ctx, q, rex.WithTenant("throttled"))
	admitted("after release", res, err)

	st, err := admin.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.QuotaRejections < 2 {
		t.Fatalf("quota rejections = %d, want >= 2", st.Server.QuotaRejections)
	}
	if st.Server.Rejected != 0 {
		t.Fatalf("quota rejections counted as %d ErrServerBusy rejections", st.Server.Rejected)
	}
	ts := st.Server.Tenants["throttled"]
	if ts.QuotaRejections < 2 {
		t.Fatalf("tenant quota rejections = %d, want >= 2", ts.QuotaRejections)
	}
	if ct := st.Server.Tenants["calm"]; ct.QuotaRejections != 0 {
		t.Fatalf("calm tenant collected %d quota rejections", ct.QuotaRejections)
	}
	if !srv.gate.idle() {
		t.Fatal("gate not idle after quota exercise")
	}
}

// TestGateChurnNoLeak is the admission-leak regression: clients that
// cancel mid-request or vanish outright must not strand inflight slots.
// It churns connect/query/cancel/disconnect cycles concurrently and
// asserts the gate drains back to zero.
func TestGateChurnNoLeak(t *testing.T) {
	srv, addr := startServer(t, Config{Nodes: 2, MaxInflight: 4, MaxQueue: 8})
	admin := dial(t, addr)
	stage(t, admin)

	const q = `SELECT srcId, count(*) FROM graph GROUP BY srcId`
	const workers, iters = 6, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				ctx, cancel := context.WithCancel(context.Background())
				s, err := rex.Open(ctx, rex.WithServer(addr), rex.WithServerTenant(fmt.Sprintf("t%d", w%3)))
				if err != nil {
					cancel()
					continue // churn may trip session caps; leak check is below
				}
				switch it % 3 {
				case 0:
					cancel() // cancelled before the query even starts
					_, _ = s.QueryCtx(ctx, q)
				case 1:
					go cancel() // cancellation races the request
					_, _ = s.QueryCtx(ctx, q)
				default:
					_, _ = s.QueryCtx(ctx, q) // runs to completion
					cancel()
				}
				s.Close()
			}
		}(w)
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for !srv.gate.idle() {
		if time.Now().After(deadline) {
			snap := srv.gate.snapshot()
			t.Fatalf("gate leaked: inflight=%d waiting=%d after churn", snap.inflight, snap.waiting)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, err := admin.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.Inflight != 0 || st.Server.QueueDepth != 0 {
		t.Fatalf("stats report inflight=%d queue=%d after drain", st.Server.Inflight, st.Server.QueueDepth)
	}
	for tn, ts := range st.Server.Tenants {
		if ts.Inflight != 0 {
			t.Fatalf("tenant %q stuck at inflight=%d", tn, ts.Inflight)
		}
	}
}

// TestResidentSubCrossClient: a resident server-side subscription fed by
// OTHER clients' ingests folds to the same relation as direct execution
// over the final state — the diff-based reference the resident pump
// replaced. Two subscribers watch while a third session ingests.
func TestResidentSubCrossClient(t *testing.T) {
	ctx := context.Background()
	_, addr := startServer(t, Config{Nodes: 2, SubPools: 2})
	admin := dial(t, addr)
	stage(t, admin)

	local, err := rex.Open(ctx, rex.WithInProc(2))
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	stage(t, local)

	const subQ = `SELECT k, count(*) FROM feed GROUP BY k`
	const rounds = 4

	subbers := make([]*rex.Subscription, 2)
	for i := range subbers {
		s := dial(t, addr)
		sub, err := s.Subscribe(ctx, subQ, rex.WithTenant(fmt.Sprintf("watcher%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		subbers[i] = sub
	}

	ingester := dial(t, addr)
	for r := 1; r <= rounds; r++ {
		if err := ingester.Insert("feed", feedRows(r, 7)...); err != nil {
			t.Fatalf("ingest round %d: %v", r, err)
		}
		if err := local.Load("feed", feedRows(r, 7)); err != nil {
			t.Fatal(err)
		}
	}

	res, err := local.QueryCtx(ctx, subQ)
	if err != nil {
		t.Fatal(err)
	}
	want := bench.ResultHash(res.Tuples)

	for i, sub := range subbers {
		if err := sub.Close(); err != nil {
			t.Fatal(err)
		}
		<-sub.Done()
		if err := sub.Err(); err != nil {
			t.Fatalf("subscriber %d ended with: %v", i, err)
		}
		if h := bench.ResultHash(foldStream(sub.Stream())); h != want {
			t.Fatalf("subscriber %d folded hash %s != direct %s", i, h, want)
		}
		rs := sub.Rounds()
		if len(rs) < 2 {
			t.Fatalf("subscriber %d saw %d rounds, want initial + refreshes", i, len(rs))
		}
		covered := 0
		for _, r := range rs[1:] {
			covered += r.Ingests
		}
		if covered != rounds {
			t.Fatalf("subscriber %d rounds covered %d ingests, want %d", i, covered, rounds)
		}
	}
}

// TestSchedPriorityAndFairness drives pickLocked directly (no runners):
// high priority drains before normal before low, and within one priority
// level tenants alternate round-robin regardless of arrival burstiness.
func TestSchedPriorityAndFairness(t *testing.T) {
	q := &sched{
		lanes:   map[string]*tenantLane{},
		qCredit: interactiveWeight,
		rCredit: roundsWeight,
	}
	q.cond = sync.NewCond(&q.mu)

	var got []string
	rec := func(tag string) func(int) {
		return func(int) { got = append(got, tag) }
	}
	// Tenant A bursts five normal-priority tasks, then B queues two, plus
	// one high and one low from each side.
	for i := 0; i < 5; i++ {
		mustSubmit(t, q.submitQuery("A", rex.PriorityNormal, rec(fmt.Sprintf("A%d", i))))
	}
	mustSubmit(t, q.submitQuery("B", rex.PriorityNormal, rec("B0")))
	mustSubmit(t, q.submitQuery("B", rex.PriorityNormal, rec("B1")))
	mustSubmit(t, q.submitQuery("A", rex.PriorityLow, rec("Alow")))
	mustSubmit(t, q.submitQuery("B", rex.PriorityHigh, rec("Bhigh")))

	q.mu.Lock()
	for {
		task := q.pickLocked()
		if task == nil {
			break
		}
		task(0)
	}
	q.mu.Unlock()

	want := []string{"Bhigh", "A0", "B0", "A1", "B1", "A2", "A3", "A4", "Alow"}
	if len(got) != len(want) {
		t.Fatalf("drained %d tasks, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
}

// TestSchedRunnersOverlap: two runners execute two queued interactive
// tasks at the same time, each on its own sub-pool. Each task waits until
// both have started, so a scheduler that serializes them fails at the
// deadline instead of hanging. This counts runners rather than timing
// them, so it holds on a 2-CPU machine.
func TestSchedRunnersOverlap(t *testing.T) {
	q := newSched(2)
	defer q.close()

	var started sync.WaitGroup
	started.Add(2)
	both := make(chan struct{})
	go func() { started.Wait(); close(both) }()
	pools := make(chan int, 2)
	for _, tenant := range []string{"A", "B"} {
		mustSubmit(t, q.submitQuery(tenant, rex.PriorityNormal, func(pool int) {
			started.Done()
			select {
			case <-both:
				pools <- pool
			case <-time.After(10 * time.Second):
				pools <- -1
			}
		}))
	}
	seen := map[int]bool{}
	for range 2 {
		p := <-pools
		if p < 0 {
			t.Fatal("a task waited 10 s for the other to start: the runners did not overlap")
		}
		seen[p] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("tasks ran on sub-pools %v, want {0, 1}", seen)
	}
}

func mustSubmit(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuotaOneSequentialNeverBusy: a request's admission slot is back in
// the gate before its reply is on the wire, so a quota-1 tenant that waits
// for each answer before sending the next request is never refused by its
// own previous one — on the query, prepared-exec and ingest paths alike.
func TestQuotaOneSequentialNeverBusy(t *testing.T) {
	ctx := context.Background()
	srv, addr := startServer(t, Config{Nodes: 2, TenantQuotas: map[string]int{"solo": 1}})
	stage(t, dial(t, addr))

	s, err := rex.Open(ctx, rex.WithServer(addr), rex.WithServerTenant("solo"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stmt, err := s.Prepare(`SELECT destId FROM graph WHERE srcId = $1`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		switch i % 4 {
		case 0:
			_, err = s.QueryCtx(ctx, `SELECT destId FROM graph WHERE srcId > 25`)
		case 3:
			err = s.Insert("feed", rex.NewTuple(int64(i), int64(i)))
		default:
			_, err = stmt.QueryCtx(ctx, rex.Options{}, int64(i%40))
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.QuotaRejections != 0 || st.Server.Rejected != 0 {
		t.Fatalf("sequential quota-1 client collected %d quota rejections, %d busy rejections",
			st.Server.QuotaRejections, st.Server.Rejected)
	}
	if !srv.gate.idle() {
		t.Fatal("gate not idle after the client read its last reply")
	}
}

// TestSharedPlanDistinctKeys: two clients execute one cached prepared plan
// concurrently, each binding its own $1. The plan's scan looks the key up
// through the parameter, so every execution must read the value its own
// request bound — each answer is checked against the unpushable range
// form of the same predicate.
func TestSharedPlanDistinctKeys(t *testing.T) {
	ctx := context.Background()
	_, addr := startServer(t, Config{Nodes: 2, SubPools: 2})
	admin := dial(t, addr)
	stage(t, admin)

	const verts = 40
	want := make([]string, verts)
	for k := range want {
		res, err := admin.QueryCtx(ctx, fmt.Sprintf(`SELECT destId FROM graph WHERE srcId >= %d AND srcId <= %d`, k, k))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) == 0 {
			t.Fatalf("key %d has no rows", k)
		}
		want[k] = bench.ResultHash(res.Tuples)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s, err := rex.Open(ctx, rex.WithServer(addr))
			if err != nil {
				errc <- err
				return
			}
			defer s.Close()
			stmt, err := s.Prepare(`SELECT destId FROM graph WHERE srcId = $1`)
			if err != nil {
				errc <- err
				return
			}
			for i := 0; i < 150; i++ {
				k := (i*2 + c) % verts // the two clients never ask for the same key at once
				res, err := stmt.QueryCtx(ctx, rex.Options{}, int64(k))
				if err != nil {
					errc <- err
					return
				}
				if h := bench.ResultHash(res.Tuples); h != want[k] {
					errc <- fmt.Errorf("client %d key %d: got %v", c, k, res.Tuples)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
