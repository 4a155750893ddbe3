package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	rex "github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/bench"
	"github.com/rex-data/rex/internal/types"
)

func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string) *rex.Session {
	t.Helper()
	s, err := rex.Open(context.Background(), rex.WithServer(addr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func graphRows(n, verts int) []rex.Tuple {
	rows := make([]rex.Tuple, n)
	for i := range rows {
		rows[i] = rex.NewTuple(int64(i%verts), int64((i*7+3)%verts))
	}
	return rows
}

func feedRows(round, keys int) []rex.Tuple {
	rows := make([]rex.Tuple, keys)
	for i := range rows {
		rows[i] = rex.NewTuple(int64((i+round)%keys), int64(round*100+i))
	}
	return rows
}

// stage creates and loads the test tables on any session (server-backed
// or direct).
func stage(t *testing.T, s *rex.Session) {
	t.Helper()
	if err := s.CreateTable("graph", rex.Schema("srcId:Integer", "destId:Integer"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("feed", rex.Schema("k:Integer", "v:Integer"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Load("graph", graphRows(200, 40)); err != nil {
		t.Fatal(err)
	}
	if err := s.Load("feed", feedRows(0, 7)); err != nil {
		t.Fatal(err)
	}
}

// TestServerEightClients is the acceptance property: one rexd serves 8
// concurrent sessions spread over three tenants — 6 ad-hoc at mixed
// priorities, 1 executing a prepared $1 statement, 1 holding a
// high-priority standing subscription and ingesting — over one shared
// pool. Every result hash matches direct in-process execution, the plan
// cache compiles each distinct text once, and nothing is refused for
// capacity.
func TestServerEightClients(t *testing.T) {
	ctx := context.Background()
	srv, addr := startServer(t, Config{Nodes: 3})

	admin := dial(t, addr)
	stage(t, admin)

	const (
		q1       = `SELECT srcId, count(*) FROM graph GROUP BY srcId`
		q2       = `SELECT destId FROM graph WHERE srcId > 25`
		prepared = `SELECT count(*) FROM graph WHERE srcId > $1`
		subQ     = `SELECT k, count(*) FROM feed GROUP BY k`
		nArgs    = 5
	)
	const iters = 3
	tenants := []string{"red", "green", "blue"}

	// Direct-session references (the serverless ground truth).
	ref, err := rex.Open(ctx, rex.WithInProc(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	stage(t, ref)
	refHash := func(q string) string {
		t.Helper()
		res, err := ref.QueryCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return bench.ResultHash(res.Tuples)
	}
	want1, want2 := refHash(q1), refHash(q2)
	refStmt, err := ref.Prepare(prepared)
	if err != nil {
		t.Fatal(err)
	}
	var wantPrepared [nArgs]string
	for arg := range wantPrepared {
		res, err := refStmt.QueryCtx(ctx, rex.Options{}, int64(arg))
		if err != nil {
			t.Fatal(err)
		}
		wantPrepared[arg] = bench.ResultHash(res.Tuples)
	}
	for r := 1; r <= iters; r++ {
		if err := ref.Load("feed", feedRows(r, 7)); err != nil {
			t.Fatal(err)
		}
	}
	wantSub := refHash(subQ)

	// Client i runs as tenant i%3 at priority i%3-1 (low, normal, high).
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	client := func(i int, body func(s *rex.Session, prio rex.QueryOption) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := rex.Open(ctx, rex.WithServer(addr), rex.WithServerTenant(tenants[i%3]))
			if err != nil {
				errc <- err
				return
			}
			defer s.Close()
			if err := body(s, rex.WithPriority(i%3-1)); err != nil {
				errc <- fmt.Errorf("client %d (tenant %s): %w", i, tenants[i%3], err)
			}
		}()
	}
	client(0, func(s *rex.Session, prio rex.QueryOption) error {
		stmt, err := s.Prepare(prepared, prio)
		if err != nil {
			return err
		}
		for arg := range wantPrepared {
			res, err := stmt.QueryCtx(ctx, rex.Options{}, int64(arg))
			if err != nil {
				return err
			}
			if h := bench.ResultHash(res.Tuples); h != wantPrepared[arg] {
				return fmt.Errorf("prepared($1=%d): hash %s != direct %s", arg, h, wantPrepared[arg])
			}
		}
		return nil
	})
	for i := 1; i < 7; i++ {
		client(i, func(s *rex.Session, prio rex.QueryOption) error {
			for it := 0; it < iters; it++ {
				for q, want := range map[string]string{q1: want1, q2: want2} {
					res, err := s.QueryCtx(ctx, q, prio)
					if err != nil {
						return err
					}
					if h := bench.ResultHash(res.Tuples); h != want {
						return fmt.Errorf("hash %s != direct %s for %q", h, want, q)
					}
				}
			}
			return nil
		})
	}
	client(7, func(s *rex.Session, _ rex.QueryOption) error {
		sub, err := s.Subscribe(ctx, subQ, rex.WithPriority(rex.PriorityHigh))
		if err != nil {
			return fmt.Errorf("subscribe: %w", err)
		}
		for r := 1; r <= iters; r++ {
			if err := s.Insert("feed", feedRows(r, 7)...); err != nil {
				return fmt.Errorf("ingest round %d: %w", r, err)
			}
		}
		if err := sub.Close(); err != nil {
			return fmt.Errorf("sub close: %w", err)
		}
		if err := sub.Err(); err != nil {
			return fmt.Errorf("sub err after clean close: %w", err)
		}
		if got := foldStream(sub.Stream()); bench.ResultHash(got) != wantSub {
			return fmt.Errorf("folded subscription %s != direct %s", bench.ResultHash(got), wantSub)
		}
		if len(sub.Rounds()) < iters {
			return fmt.Errorf("subscription saw %d rounds, want >= %d", len(sub.Rounds()), iters)
		}
		return nil
	})
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := srv.Stats()
	if st.PlanCacheHits == 0 {
		t.Fatalf("plan cache never hit: %+v", st)
	}
	if st.Compiles >= st.Queries {
		t.Fatalf("compiles (%d) should be below queries (%d)", st.Compiles, st.Queries)
	}
	if st.Sessions < 8 {
		t.Fatalf("sessions = %d, want >= 8", st.Sessions)
	}
	if st.Rejected != 0 {
		t.Fatalf("server refused %d requests with ErrServerBusy under capacity", st.Rejected)
	}
	// Each tenant's ad-hoc clients alone were admitted 2*iters queries.
	for _, tn := range tenants {
		if ts := st.Tenants[tn]; ts.Admitted < 2*iters {
			t.Fatalf("tenant %q admitted %d requests, want >= %d (tenants %v)", tn, ts.Admitted, 2*iters, st.Tenants)
		}
	}
}

// foldStream folds a finished subscription stream into the final relation.
func foldStream(st *rex.DeltaStream) []rex.Tuple {
	type entry struct {
		tup   rex.Tuple
		count int
	}
	state := map[string]*entry{}
	bump := func(tup rex.Tuple, by int) {
		k := string(types.AppendTuple(nil, tup))
		e := state[k]
		if e == nil {
			e = &entry{tup: tup}
			state[k] = e
		}
		e.count += by
	}
	for {
		b, ok := st.TryNext()
		if !ok {
			break
		}
		for _, d := range b.Deltas {
			switch d.Op {
			case types.OpDelete:
				bump(d.Tup, -1)
			case types.OpReplace:
				bump(d.Old, -1)
				bump(d.Tup, 1)
			default:
				bump(d.Tup, 1)
			}
		}
	}
	var out []rex.Tuple
	for _, e := range state {
		for i := 0; i < e.count; i++ {
			out = append(out, e.tup)
		}
	}
	return out
}

// TestPlanCacheSingleFlight: concurrent identical queries compile ONCE —
// the cache mutex is held across compilation, so the N-1 laggards block
// briefly and hit.
func TestPlanCacheSingleFlight(t *testing.T) {
	ctx := context.Background()
	srv, addr := startServer(t, Config{Nodes: 2})
	admin := dial(t, addr)
	stage(t, admin)

	const q = `SELECT srcId, count(*) FROM graph GROUP BY srcId`
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := rex.Open(ctx, rex.WithServer(addr))
			if err != nil {
				errc <- err
				return
			}
			defer s.Close()
			if _, err := s.QueryCtx(ctx, q); err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	hits, misses, compiles := srv.cache.counters()
	if compiles != 1 {
		t.Fatalf("compiles = %d (hits %d, misses %d), want exactly 1", compiles, hits, misses)
	}
	if hits != 7 {
		t.Fatalf("hits = %d, want 7", hits)
	}
}

// TestPlanCacheInvalidation: a catalog change (CreateTable) strands every
// cached plan — the same text recompiles at the new version; whitespace
// variants of one query still share an entry (token-canonical keys).
func TestPlanCacheInvalidation(t *testing.T) {
	ctx := context.Background()
	srv, addr := startServer(t, Config{Nodes: 2})
	s := dial(t, addr)
	stage(t, s)

	const q = `SELECT srcId, count(*) FROM graph GROUP BY srcId`
	run := func() {
		t.Helper()
		if _, err := s.QueryCtx(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	run()
	// Whitespace/casing-insensitive re-send: same fingerprint, must hit.
	if _, err := s.QueryCtx(ctx, "SELECT srcId,  count(*)  FROM graph GROUP BY srcId"); err != nil {
		t.Fatal(err)
	}
	_, _, compiles := srv.cache.counters()
	if compiles != 1 {
		t.Fatalf("compiles before invalidation = %d, want 1", compiles)
	}

	if err := s.CreateTable("extra", rex.Schema("x:Integer"), 0); err != nil {
		t.Fatal(err)
	}
	run()
	hits, _, compiles := srv.cache.counters()
	if compiles != 2 {
		t.Fatalf("compiles after CreateTable = %d, want 2 (catalog bump must invalidate)", compiles)
	}
	if hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
}

// TestPlanCachePreparedArgs: a prepared $N statement compiles once and
// every execution — whatever the bound arguments — reuses the plan; a
// later Prepare of the same text hits too.
func TestPlanCachePreparedArgs(t *testing.T) {
	ctx := context.Background()
	srv, addr := startServer(t, Config{Nodes: 2})
	s := dial(t, addr)
	stage(t, s)

	stmt, err := s.Prepare(`SELECT count(*) FROM graph WHERE srcId > $1`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", stmt.NumParams())
	}
	counts := map[int64]int64{}
	for _, arg := range []int64{0, 10, 20, 10} {
		res, err := stmt.QueryCtx(ctx, rex.Options{}, arg)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := types.AsInt(res.Tuples[0][0])
		counts[arg] = n
	}
	if counts[0] <= counts[10] || counts[10] <= counts[20] {
		t.Fatalf("counts not monotone in the bound argument: %v", counts)
	}
	if _, err := stmt.QueryCtx(ctx, rex.Options{}); err == nil {
		t.Fatal("missing argument must error")
	}
	if _, err := s.Prepare(`SELECT count(*) FROM graph WHERE srcId > $1`); err != nil {
		t.Fatal(err)
	}
	_, _, compiles := srv.cache.counters()
	if compiles != 1 {
		t.Fatalf("compiles = %d, want 1 (args must not fragment the cache)", compiles)
	}
}

// TestServerBusySessionCap: with MaxSessions=1 the second Open is refused
// at the handshake with a typed, errors.Is-able ErrServerBusy.
func TestServerBusySessionCap(t *testing.T) {
	ctx := context.Background()
	_, addr := startServer(t, Config{Nodes: 2, MaxSessions: 1})
	_ = dial(t, addr) // occupies the only slot
	_, err := rex.Open(ctx, rex.WithServer(addr))
	if !errors.Is(err, rex.ErrServerBusy) {
		t.Fatalf("err = %v, want rex.ErrServerBusy", err)
	}
}

// TestGateBusy exercises the admission gate white-box: one slot, zero
// queue — the second concurrent acquire must shed immediately.
func TestGateBusy(t *testing.T) {
	g := newGate(1, 0, 0, nil)
	sl, err := g.acquire(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.acquire(context.Background(), ""); !errors.Is(err, rex.ErrServerBusy) {
		t.Fatalf("err = %v, want ErrServerBusy", err)
	}
	sl.release()
	sl.release() // idempotent: a double release must not free a second slot
	sl2, err := g.acquire(context.Background(), "")
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	if _, err := g.acquire(context.Background(), ""); !errors.Is(err, rex.ErrServerBusy) {
		t.Fatalf("double release leaked a slot: err = %v, want ErrServerBusy", err)
	}
	sl2.release()
	if !g.idle() {
		t.Fatal("gate not idle after all slots released")
	}
}

// TestSentinelsOverWire: typed errors survive the wire — unknown table
// resolves errors.Is(…, rex.ErrUnknownTable), a closed session reports
// rex.ErrSessionClosed.
func TestSentinelsOverWire(t *testing.T) {
	ctx := context.Background()
	_, addr := startServer(t, Config{Nodes: 2})
	s := dial(t, addr)
	_, err := s.QueryCtx(ctx, `SELECT x FROM nope`)
	if !errors.Is(err, rex.ErrUnknownTable) {
		t.Fatalf("err = %v, want rex.ErrUnknownTable", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = s.QueryCtx(ctx, `SELECT x FROM nope`)
	if !errors.Is(err, rex.ErrSessionClosed) {
		t.Fatalf("after close: err = %v, want rex.ErrSessionClosed", err)
	}
}

// TestServerIngestWithoutSubscription: ingest over a server session with
// no standing query applies synchronously and later queries see it.
func TestServerIngestWithoutSubscription(t *testing.T) {
	ctx := context.Background()
	_, addr := startServer(t, Config{Nodes: 2})
	s := dial(t, addr)
	stage(t, s)
	if err := s.Insert("feed", rex.NewTuple(int64(99), int64(1))); err != nil {
		t.Fatal(err)
	}
	res, err := s.QueryCtx(ctx, `SELECT k FROM feed WHERE k = 99`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("ingested row not visible: %d rows", len(res.Tuples))
	}
}

// TestStatsHandlerServesJSON: the /stats handler rexd mounts serves the
// counter snapshot as JSON that decodes back into rex.ServerStats.
func TestStatsHandlerServesJSON(t *testing.T) {
	srv, addr := startServer(t, Config{Nodes: 2})
	s := dial(t, addr)
	stage(t, s)
	if _, err := s.QueryCtx(context.Background(), `SELECT count(*) FROM graph`); err != nil {
		t.Fatal(err)
	}

	hs := httptest.NewServer(srv.StatsHandler())
	defer hs.Close()
	resp, err := http.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var st rex.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Sessions == 0 || st.Queries == 0 {
		t.Fatalf("stats after one query: sessions=%d queries=%d", st.Sessions, st.Queries)
	}
}
