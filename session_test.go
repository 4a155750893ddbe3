package rex

import (
	"context"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"github.com/rex-data/rex/internal/bench"
	"github.com/rex-data/rex/internal/noded"
	"github.com/rex-data/rex/internal/types"
)

// startDaemons boots n rexnode worker daemons on loopback sockets inside
// the test process and returns their addresses.
func startDaemons(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	served := make(chan struct{}, n)
	nodes := make([]*noded.Node, n)
	for i := 0; i < n; i++ {
		nd, err := noded.Listen("127.0.0.1:0", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		addrs[i] = nd.Addr()
		go func() {
			defer func() { served <- struct{}{} }()
			if err := nd.Serve(); err != nil {
				t.Errorf("daemon: %v", err)
			}
		}()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
		for i := 0; i < n; i++ {
			select {
			case <-served:
			case <-time.After(10 * time.Second):
				t.Error("daemon did not shut down")
				return
			}
		}
	})
	return addrs
}

// equivWorkloads is the public-API copy of the transport-equivalence
// suite: identical specs must hash identically on every transport.
func equivWorkloads(nodes int, seed int64) []*Workload {
	return []*Workload{
		{Workload: "sssp", Nodes: nodes, Seed: seed, Size: 300, Source: 0,
			Delta: true, MaxIterations: 300, BatchSize: 1 << 20},
		{Workload: "pagerank", Nodes: nodes, Seed: seed, Size: 250, Epsilon: 0.001,
			Delta: true, MaxIterations: 60, BatchSize: 1 << 20},
		{Workload: "kmeans", Nodes: nodes, Seed: seed, Size: 120, K: 4,
			MaxIterations: 100, BatchSize: 1 << 20},
	}
}

// TestOpenTCPEquivalence is the acceptance check of the session redesign:
// rex.Open with WithTCPPeers runs the transport-equivalence suite through
// the public API with result hashes identical to an in-process session.
func TestOpenTCPEquivalence(t *testing.T) {
	const nodes = 3
	ctx := context.Background()
	tcp, err := Open(ctx, WithTCPPeers(startDaemons(t, nodes)...))
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	inproc, err := Open(ctx, WithInProc(nodes))
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()

	for _, w := range equivWorkloads(nodes, 7) {
		want, err := inproc.RunWorkload(ctx, w, nil)
		if err != nil {
			t.Fatalf("inproc %s: %v", w.Workload, err)
		}
		got, err := tcp.RunWorkload(ctx, w, nil)
		if err != nil {
			t.Fatalf("tcp %s: %v", w.Workload, err)
		}
		if gh, wh := bench.ResultHash(got.Tuples), bench.ResultHash(want.Tuples); gh != wh {
			t.Errorf("%s: result hash tcp=%s inproc=%s", w.Workload, gh, wh)
		}
		if got.BytesSent <= 0 {
			t.Errorf("%s: tcp run must report measured socket bytes", w.Workload)
		}
	}
}

// cancelWorkload is a recursive computation long enough to cancel
// mid-fixpoint: PageRank with a tight epsilon runs tens of strata.
func cancelWorkload(nodes int) *Workload {
	return &Workload{Workload: "pagerank", Nodes: nodes, Seed: 3, Size: 400,
		Epsilon: 1e-9, Delta: true, MaxIterations: 200}
}

// testCancelMidFixpoint cancels a long recursive query at stratum 2 and
// proves the session stays usable: the follow-up run of the same workload
// returns the undisturbed reference result.
func testCancelMidFixpoint(t *testing.T, sess *Session, nodes int) {
	t.Helper()
	ctx := context.Background()
	w := cancelWorkload(nodes)
	want, err := sess.RunWorkload(ctx, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Strata) < 10 {
		t.Fatalf("workload too short to cancel mid-fixpoint: %d strata", len(want.Strata))
	}
	wantHash := bench.ResultHash(want.Tuples)

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	res, err := sess.RunWorkload(cctx, w, func(o *Options) {
		o.OnStratum = func(s, newTuples int) {
			if s == 2 {
				cancel()
			}
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err=%v res=%v, want context.Canceled", err, res)
	}

	// The session must be immediately usable for the next query.
	again, err := sess.RunWorkload(ctx, w, nil)
	if err != nil {
		t.Fatalf("follow-up run after cancel: %v", err)
	}
	if got := bench.ResultHash(again.Tuples); got != wantHash {
		t.Errorf("follow-up run hash %s, want %s", got, wantHash)
	}
}

func TestCancelMidFixpointInProc(t *testing.T) {
	base := runtime.NumGoroutine()
	sess, err := Open(context.Background(), WithInProc(3))
	if err != nil {
		t.Fatal(err)
	}
	testCancelMidFixpoint(t, sess, 3)
	sess.Close()
	assertGoroutinesSettle(t, base)
}

func TestCancelMidFixpointTCP(t *testing.T) {
	base := runtime.NumGoroutine()
	addrs := startDaemons(t, 3)
	sess, err := Open(context.Background(), WithTCPPeers(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	testCancelMidFixpoint(t, sess, 3)
	sess.Close()
	// The in-test daemons are torn down in cleanup; only the session's
	// own goroutines must be gone by now, plus the daemons' serve loops
	// (3 serve + their read loops) still running until cleanup.
	_ = base
}

// assertGoroutinesSettle waits for the goroutine count to return to (or
// below) the pre-test baseline, modulo a small slack for runtime helpers.
func assertGoroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
		runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
}

// TestCancelledQueryCtxInProc cancels through the RQL front door (Query
// path, session engine) and checks the session engine — not a fresh
// workload engine — answers correctly afterwards.
func TestCancelledQueryCtxInProc(t *testing.T) {
	base := runtime.NumGoroutine()
	sess, err := Open(context.Background(), WithInProc(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.CreateTable("items", Schema("k:Integer", "v:Double"), 0); err != nil {
		t.Fatal(err)
	}
	var rows []Tuple
	for i := 0; i < 500; i++ {
		rows = append(rows, NewTuple(int64(i), float64(i)))
	}
	if err := sess.Load("items", rows); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the query must fail fast with ctx.Err()
	if _, err := sess.QueryCtx(ctx, `SELECT sum(v) FROM items`); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	res, err := sess.QueryCtx(context.Background(), `SELECT sum(v), count(*) FROM items`)
	if err != nil {
		t.Fatalf("follow-up query: %v", err)
	}
	n, _ := types.AsInt(res.Tuples[0][1])
	if n != 500 {
		t.Fatalf("count = %d, want 500", n)
	}
	sess.Close()
	assertGoroutinesSettle(t, base)
}

// TestSessionKillErrors covers the error-returning Kill/Revive paths.
func TestSessionKillErrors(t *testing.T) {
	sess, err := Open(context.Background(), WithInProc(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Kill(99); err == nil {
		t.Fatal("Kill(99) must error")
	}
	if err := sess.Revive(-1); err == nil {
		t.Fatal("Revive(-1) must error")
	}
	if err := sess.Kill(1); err != nil {
		t.Fatalf("Kill(1): %v", err)
	}
	if err := sess.Revive(1); err != nil {
		t.Fatalf("Revive(1): %v", err)
	}
}

// TestDeadNodeByteAccounting kills a daemon mid-run over TCP and checks
// the victim's measured socket bytes survive in the session totals (the
// daemon pushes a final stats frame on MsgKill).
func TestDeadNodeByteAccounting(t *testing.T) {
	const nodes = 3
	ctx := context.Background()
	sess, err := Open(ctx, WithTCPPeers(startDaemons(t, nodes)...))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	w := &Workload{Workload: "sssp", Nodes: nodes, Seed: 3, Size: 250, Source: 0,
		Delta: true, MaxIterations: 300, Checkpoint: true}
	res, err := sess.RunWorkload(ctx, w, func(o *Options) {
		o.Recovery = RecoveryRestart
		o.OnStratum = func(s, newTuples int) {
			if s == 2 {
				if err := sess.Kill(1); err != nil {
					t.Errorf("kill: %v", err)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", res.Recoveries)
	}
	// The victim sent shuffle traffic in strata 0–2; its counter must be
	// present in the driver's metrics even though it was dead at the
	// end-of-run sync.
	tr, err := sess.be.transport("Metrics")
	if err != nil {
		t.Fatal(err)
	}
	victim := tr.Metrics().BytesSent[1].Load()
	if victim <= 0 {
		t.Fatalf("dead node's BytesSent = %d, want > 0 (final stats frame lost?)", victim)
	}
}

// TestPreparedStatements exercises Prepare/exec on both transports against
// the equivalent direct query.
func TestPreparedStatements(t *testing.T) {
	ctx := context.Background()
	const q = `SELECT sum(tax), count(*) FROM lineitem WHERE linenumber > $1`

	check := func(t *testing.T, sess *Session) {
		t.Helper()
		stmt, err := sess.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		if stmt.NumParams() != 1 {
			t.Fatalf("NumParams = %d, want 1", stmt.NumParams())
		}
		for _, min := range []int64{1, 3, 5} {
			got, err := stmt.QueryCtx(ctx, Options{}, min)
			if err != nil {
				t.Fatalf("exec $1=%d: %v", min, err)
			}
			want, err := sess.QueryCtx(ctx,
				`SELECT sum(tax), count(*) FROM lineitem WHERE linenumber > `+
					types.AsString(min))
			if err != nil {
				t.Fatal(err)
			}
			if bench.ResultHash(got.Tuples) != bench.ResultHash(want.Tuples) {
				t.Errorf("$1=%d: prepared %v, direct %v", min, got.Tuples, want.Tuples)
			}
		}
		// Arity and kind errors.
		if _, err := stmt.QueryCtx(ctx, Options{}); err == nil {
			t.Error("missing parameter must error")
		}
		if _, err := stmt.QueryCtx(ctx, Options{}, "nope"); err == nil {
			t.Error("string for integer parameter must error")
		}
	}

	t.Run("inproc", func(t *testing.T) {
		sess, err := Open(ctx, WithInProc(2), WithDataset("lineitem", 2000, 4))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		check(t, sess)
	})
	t.Run("tcp", func(t *testing.T) {
		sess, err := Open(ctx, WithTCPPeers(startDaemons(t, 2)...), WithDataset("lineitem", 2000, 4))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		check(t, sess)
	})
}

// WithNoVectorize runs every expression through the interpreter: no batch
// is kernel-evaluated, and the answer hashes equal to the kernel run.
func TestNoVectorizeRunsInterpreter(t *testing.T) {
	ctx := context.Background()
	const q = `SELECT linenumber, sum(tax), count(*) FROM lineitem WHERE linenumber > 2 GROUP BY linenumber`
	sess, err := Open(ctx, WithInProc(2), WithDataset("lineitem", 2000, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// run reports the query's result hash and the kernel-evaluated
	// batches it added to the process-wide counter.
	run := func(opts ...QueryOption) (string, int64) {
		before, err := sess.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.QueryCtx(ctx, q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		after, err := sess.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return bench.ResultHash(res.Tuples), after.Kernel.VectorBatches - before.Kernel.VectorBatches
	}
	want, kernelBatches := run()
	if kernelBatches == 0 {
		t.Fatal("default run evaluated no batch with a kernel")
	}
	got, kernelBatches := run(WithNoVectorize())
	if kernelBatches != 0 {
		t.Errorf("WithNoVectorize run kernel-evaluated %d batches, want 0", kernelBatches)
	}
	if got != want {
		t.Errorf("WithNoVectorize hash %s, default %s", got, want)
	}
}

// openChainSession opens a 2-node in-process session staged with a
// 64-vertex chain graph and the handlers for a recursive shortest-path
// query that runs ~64 strata — long enough that a streaming producer
// outpaces a stalled consumer and fills the batch channel.
func openChainSession(t *testing.T) (*Session, string) {
	t.Helper()
	sess, err := Open(context.Background(), WithInProc(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	if err := sess.CreateTable("graph", Schema("srcId:Integer", "destId:Integer"), 0); err != nil {
		t.Fatal(err)
	}
	var edges []Tuple
	for i := int64(0); i < 63; i++ {
		edges = append(edges, NewTuple(i, i+1))
	}
	if err := sess.Load("graph", edges); err != nil {
		t.Fatal(err)
	}
	if err := sess.WhileHandler("keepmin", func(rel *TupleSet, d Delta, out *Emitter) error {
		nd, _ := types.AsFloat(d.Tup[1])
		if rel.Len() > 0 {
			cur, _ := rel.Float(0, 1)
			if nd >= cur {
				return nil
			}
			rel.Set(0, NewTuple(d.Tup[0], nd))
		} else {
			rel.Add(NewTuple(d.Tup[0], nd))
		}
		return out.Emit(Update(NewTuple(d.Tup[0], nd)))
	}); err != nil {
		t.Fatal(err)
	}
	if err := sess.JoinHandler("hops", Schema("nbr:Integer", "d:Double"),
		func(left, right *TupleSet, d Delta, fromLeft bool, out *Emitter) error {
			if fromLeft {
				left.Add(d.Tup)
				return nil
			}
			dist, _ := types.AsFloat(d.Tup[1])
			for i := 0; i < left.Len(); i++ {
				if err := out.Emit(Update(NewTuple(left.Value(i, 1), dist+1))); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	if err := sess.CreateTable("seed", Schema("srcId:Integer", "dist:Double"), 0); err != nil {
		t.Fatal(err)
	}
	if err := sess.Load("seed", []Tuple{NewTuple(int64(0), 0.0)}); err != nil {
		t.Fatal(err)
	}
	const q = `
WITH SP (srcId, dist) AS (
  SELECT srcId, dist FROM seed
) UNION ALL UNTIL FIXPOINT BY srcId USING keepmin (
  SELECT nbr, min(d)
  FROM (SELECT hops(srcId, dist).{nbr, d}
        FROM graph, SP WHERE graph.srcId = SP.srcId GROUP BY srcId)
  GROUP BY nbr)`
	return sess, q
}

// TestStreamPublicAPI checks Session.Stream yields per-stratum batches
// whose fold equals the buffered result, and that an abandoned stream
// (Close mid-consumption) leaves the session usable.
func TestStreamPublicAPI(t *testing.T) {
	ctx := context.Background()
	sess, q := openChainSession(t)

	want, err := sess.QueryCtx(ctx, q, WithMaxStrata(300))
	if err != nil {
		t.Fatal(err)
	}

	st, err := sess.Stream(ctx, q, WithMaxStrata(300))
	if err != nil {
		t.Fatal(err)
	}
	strata := map[int]bool{}
	var n int
	for stratum := range st.Seq() {
		strata[stratum] = true
		n++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if len(strata) < 10 || n < 10 {
		t.Fatalf("expected many per-stratum batches, got %d batches over %d strata", n, len(strata))
	}

	// Fold equivalence via Drain on a fresh stream.
	st, err = sess.Stream(ctx, q, WithMaxStrata(300))
	if err != nil {
		t.Fatal(err)
	}
	folded, err := st.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if bench.ResultHash(folded.Tuples) != bench.ResultHash(want.Tuples) {
		t.Errorf("stream fold %d rows, buffered %d rows, hashes differ", len(folded.Tuples), len(want.Tuples))
	}

	// Abandon a stream mid-consumption; the session must still answer.
	st, err = sess.Stream(ctx, q, WithMaxStrata(300))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatal("expected at least one batch before Close")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	again, err := sess.QueryCtx(ctx, q, WithMaxStrata(300))
	if err != nil {
		t.Fatalf("query after abandoned stream: %v", err)
	}
	if bench.ResultHash(again.Tuples) != bench.ResultHash(want.Tuples) {
		t.Error("result drifted after abandoned stream")
	}
}

// TestCloseWithAbandonedStream: a stream abandoned mid-consumption without
// stream.Close() (the Seq docs allow breaking out of the loop) must not
// deadlock Session.Close — the producer is parked on the full batch
// channel holding the session lock, and Close has to cancel it.
func TestCloseWithAbandonedStream(t *testing.T) {
	sess, q := openChainSession(t)
	st, err := sess.Stream(context.Background(), q, WithMaxStrata(300))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatal("expected at least one batch")
	}
	// Abandon st: no further Next, no st.Close. The ~64-strata run
	// overfills the channel buffer, so the producer is now blocked.
	done := make(chan error, 1)
	go func() { done <- sess.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Session.Close deadlocked behind the abandoned stream")
	}
}
