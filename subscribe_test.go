package rex

import (
	"context"
	"runtime"
	"testing"

	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/bench"
	"github.com/rex-data/rex/internal/types"
)

// foldStream applies n batches from the stream into a replayed view.
func foldStream(t *testing.T, st *DeltaStream, n int, view *streamFold) {
	t.Helper()
	for i := 0; i < n; i++ {
		b, ok := st.Next()
		if !ok {
			t.Fatalf("stream ended after %d of %d batches: %v", i, n, st.Err())
		}
		view.apply(b.Deltas)
	}
}

// streamFold replays a delta stream into the relation it describes.
type streamFold struct{ live []Tuple }

func (f *streamFold) apply(batch []Delta) {
	for _, d := range batch {
		switch d.Op {
		case types.OpInsert, types.OpUpdate:
			f.live = append(f.live, d.Tup)
		case types.OpDelete:
			f.remove(d.Tup)
		case types.OpReplace:
			f.remove(d.Old)
			f.live = append(f.live, d.Tup)
		}
	}
}

func (f *streamFold) remove(t Tuple) {
	for i, x := range f.live {
		if x != nil && x.Equal(t) {
			f.live[i] = f.live[len(f.live)-1]
			f.live = f.live[:len(f.live)-1]
			return
		}
	}
}

// incEdges are the deterministic graph changes the equivalence tests feed
// in rounds: shortcuts from the reachable core into higher-numbered
// vertices, so each round genuinely re-derives distances through resident
// state.
func incEdges() [][]Tuple {
	return [][]Tuple{
		{NewTuple(int64(0), int64(171)), NewTuple(int64(171), int64(243))},
		{NewTuple(int64(2), int64(222)), NewTuple(int64(222), int64(223))},
		{NewTuple(int64(1), int64(257))},
	}
}

// subscribeSSSP opens a session on the given options, subscribes the
// incremental shortest-path query, feeds the rounds through
// Session.Insert (which must route into the live subscription), and
// returns the folded view hash plus the per-round stats.
func subscribeSSSP(t *testing.T, opts ...Option) (string, []RoundStats) {
	t.Helper()
	ctx := context.Background()
	sess, err := Open(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sub, err := sess.Subscribe(ctx, algos.IncSSSPQuery, WithMaxStrata(300))
	if err != nil {
		t.Fatal(err)
	}
	st := sub.Stream()
	view := &streamFold{}
	rounds := sub.Rounds()
	if len(rounds) != 1 {
		t.Fatalf("after Subscribe: %d rounds", len(rounds))
	}
	foldStream(t, st, rounds[0].Batches, view)
	if len(view.live) == 0 {
		t.Fatal("initial fixpoint yielded no tuples")
	}
	for _, edges := range incEdges() {
		if err := sess.Insert("graph", edges...); err != nil {
			t.Fatal(err)
		}
		rs := sub.Rounds()
		last := rs[len(rs)-1]
		foldStream(t, st, last.Batches, view)
	}
	allRounds := sub.Rounds()
	if err := sub.Close(); err != nil {
		t.Fatalf("subscription close: %v", err)
	}
	if _, ok := st.Next(); ok {
		t.Fatal("stream must end after Close")
	}
	if err := st.Err(); err != nil {
		t.Fatalf("clean close errored the stream: %v", err)
	}

	// The session must serve ordinary queries again, over the REVISED base
	// tables: in-process the stores absorbed the deltas, over TCP the next
	// job replays the session's change log.
	res, err := sess.QueryCtx(context.Background(), algos.IncSSSPQuery)
	if err != nil {
		t.Fatalf("query after subscription: %v", err)
	}
	gotHash := bench.ResultHash(view.live)
	if h := bench.ResultHash(res.Tuples); h != gotHash {
		t.Fatalf("folded subscription %s != post-subscription query %s", gotHash, h)
	}
	return gotHash, allRounds
}

// recomputeSSSP is the from-scratch reference: a fresh session on the
// given deployment whose base tables had the same changes applied BEFORE
// the (single) query ran.
func recomputeSSSP(t *testing.T, deploy Option) (string, int64) {
	t.Helper()
	sess, err := Open(context.Background(), deploy,
		WithDataset("sssp", 300, 1), WithHandlers("sssp-inc"))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, edges := range incEdges() {
		if err := sess.Insert("graph", edges...); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.QueryCtx(context.Background(), algos.IncSSSPQuery)
	if err != nil {
		t.Fatal(err)
	}
	return bench.ResultHash(res.Tuples), res.BytesSent
}

// incrementalBytes sums the wire bytes of the ingestion rounds (the
// initial fixpoint excluded).
func incrementalBytes(rounds []RoundStats) int64 {
	var n int64
	for _, r := range rounds[1:] {
		n += r.BytesSent
	}
	return n
}

// TestSubscribeIncrementalEquivalenceInProc is the acceptance property on
// the in-process transport: incremental ingestion through a Subscription
// equals a from-scratch Query after the same base-table changes, for fewer
// shipped bytes.
func TestSubscribeIncrementalEquivalenceInProc(t *testing.T) {
	wantHash, recomputeBytes := recomputeSSSP(t, WithInProc(3))
	gotHash, rounds := subscribeSSSP(t, WithInProc(3),
		WithDataset("sssp", 300, 1), WithHandlers("sssp-inc"))
	if gotHash != wantHash {
		t.Fatalf("incremental %s != recompute %s", gotHash, wantHash)
	}
	if inc := incrementalBytes(rounds); inc <= 0 || inc >= recomputeBytes {
		t.Fatalf("incremental rounds shipped %d bytes, recompute %d — standing must ship fewer", inc, recomputeBytes)
	}
}

// TestSubscribeIncrementalEquivalenceTCP is the same property across real
// worker processes: MsgIngest frames over sockets, daemons' stores revised
// in place, and the post-subscription query rebuilt from the replayed
// change log. The incremental rounds must ship fewer socket bytes than a
// from-scratch query over TCP.
func TestSubscribeIncrementalEquivalenceTCP(t *testing.T) {
	wantHash, _ := recomputeSSSP(t, WithInProc(3))
	tcpHash, recomputeBytes := recomputeSSSP(t, WithTCPPeers(startDaemons(t, 3)...))
	if tcpHash != wantHash {
		t.Fatalf("tcp recompute %s != inproc recompute %s", tcpHash, wantHash)
	}
	gotHash, rounds := subscribeSSSP(t, WithTCPPeers(startDaemons(t, 3)...),
		WithDataset("sssp", 300, 1), WithHandlers("sssp-inc"))
	if gotHash != wantHash {
		t.Fatalf("tcp incremental %s != inproc recompute %s", gotHash, wantHash)
	}
	for _, r := range rounds[1:] {
		if r.BytesSent <= 0 {
			t.Fatalf("round %d reported no socket bytes", r.Round)
		}
	}
	inc := incrementalBytes(rounds)
	t.Logf("tcp: incremental rounds %d bytes, recompute %d", inc, recomputeBytes)
	if inc >= recomputeBytes {
		t.Fatalf("tcp incremental rounds shipped %d bytes, tcp recompute %d — standing must ship fewer", inc, recomputeBytes)
	}
}

// TestSubscribeAggBothTransports runs a non-recursive standing aggregation
// through insert AND delete rounds on both transports and checks the
// folded stream equals a from-scratch query over the revised table.
func TestSubscribeAggBothTransports(t *testing.T) {
	const q = `SELECT srcId, count(*) FROM graph GROUP BY srcId`
	ins := []Tuple{NewTuple(int64(7), int64(9)), NewTuple(int64(7), int64(11)), NewTuple(int64(500), int64(1))}
	del := []Tuple{NewTuple(int64(7), int64(9))}

	run := func(t *testing.T, opts ...Option) string {
		ctx := context.Background()
		sess, err := Open(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		sub, err := sess.Subscribe(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		view := &streamFold{}
		st := sub.Stream()
		foldStream(t, st, sub.Rounds()[0].Batches, view)
		if err := sess.Insert("graph", ins...); err != nil {
			t.Fatal(err)
		}
		if err := sess.Delete("graph", del...); err != nil {
			t.Fatal(err)
		}
		rounds := sub.Rounds()
		for _, r := range rounds[1:] {
			foldStream(t, st, r.Batches, view)
		}
		if err := sub.Close(); err != nil {
			t.Fatal(err)
		}
		res, err := sess.QueryCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("query after subscription: %v", err)
		}
		got := bench.ResultHash(view.live)
		if h := bench.ResultHash(res.Tuples); h != got {
			t.Fatalf("folded view %s != recomputed query %s", got, h)
		}
		return got
	}

	inproc := run(t, WithInProc(3), WithDataset("dbpedia", 200, 2))
	addrs := startDaemons(t, 3)
	tcp := run(t, WithTCPPeers(addrs...), WithDataset("dbpedia", 200, 2))
	if inproc != tcp {
		t.Fatalf("transport mismatch: inproc %s tcp %s", inproc, tcp)
	}
}

// TestSubscriptionLifecycleLeaks asserts no goroutines leak when a
// subscription is closed explicitly, and when Session.Close has to cancel
// a still-live subscription itself.
func TestSubscriptionLifecycleLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx := context.Background()

	// Explicit Subscription.Close, then Session.Close.
	sess, err := Open(ctx, WithInProc(2), WithDataset("sssp", 120, 1), WithHandlers("sssp-inc"))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := sess.Subscribe(ctx, algos.IncSSSPQuery, WithMaxStrata(200))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Ingest(ctx, "graph", []Delta{Insert(NewTuple(int64(0), int64(90)))}); err != nil {
		t.Fatal(err)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	assertGoroutinesSettle(t, base)

	// Session.Close with the subscription still live (stream abandoned,
	// batches unread) must cancel it and not deadlock.
	sess, err = Open(ctx, WithInProc(2), WithDataset("sssp", 120, 1), WithHandlers("sssp-inc"))
	if err != nil {
		t.Fatal(err)
	}
	sub, err = sess.Subscribe(ctx, algos.IncSSSPQuery, WithMaxStrata(200))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.Done():
	default:
		t.Fatal("session close must tear the subscription down")
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("session-close teardown must be clean, got %v", err)
	}
	assertGoroutinesSettle(t, base)

	// Ingest after close fails cleanly.
	if _, err := sub.Ingest(ctx, "graph", []Delta{Insert(NewTuple(int64(0), int64(1)))}); err == nil {
		t.Fatal("ingest after close must error")
	}
}

// TestEmptyDeclaredTable: a declared table scans as empty before its first
// load, and a subscription over it folds to the from-scratch answer once
// rows arrive.
func TestEmptyDeclaredTable(t *testing.T) {
	ctx := context.Background()
	sess := openTest(t, WithInProc(2))
	if err := sess.CreateTable("e", Schema("k:Integer", "v:Integer"), 0); err != nil {
		t.Fatal(err)
	}
	res, err := sess.QueryCtx(ctx, `SELECT * FROM e`)
	if err != nil {
		t.Fatalf("query of an empty declared table: %v", err)
	}
	if len(res.Tuples) != 0 {
		t.Fatalf("empty table returned %d rows", len(res.Tuples))
	}

	const q = `SELECT k, count(*) FROM e GROUP BY k`
	sub, err := sess.Subscribe(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	view := &streamFold{}
	st := sub.Stream()
	foldStream(t, st, sub.Rounds()[0].Batches, view)
	if err := sess.Insert("e", NewTuple(int64(1), int64(10)), NewTuple(int64(1), int64(11)), NewTuple(int64(2), int64(20))); err != nil {
		t.Fatal(err)
	}
	for _, r := range sub.Rounds()[1:] {
		foldStream(t, st, r.Batches, view)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = sess.QueryCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("recomputed query returned %d groups, want 2", len(res.Tuples))
	}
	if got, want := bench.ResultHash(view.live), bench.ResultHash(res.Tuples); got != want {
		t.Fatalf("folded view %s != recomputed query %s", got, want)
	}
}
