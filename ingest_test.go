package rex

import (
	"context"
	"sync"
	"testing"

	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/bench"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// churnEdges builds n deterministic insert-only graph edges out of the
// low-numbered (reached) core.
func churnEdges(n, size int) []Tuple {
	edges := make([]Tuple, n)
	for i := 0; i < n; i++ {
		edges[i] = NewTuple(int64(i%7), int64((7*i+13)%size))
	}
	return edges
}

// sequentialIngestSSSP subscribes and feeds every edge as its own awaited
// round, returning the folded-view hash, the round count and the rounds'
// wire bytes.
func sequentialIngestSSSP(t *testing.T, edges []Tuple, opts ...Option) (string, int, int64) {
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
	foldStream(t, st, sub.Rounds()[0].Batches, view)
	for _, e := range edges {
		if err := sess.Insert("graph", e); err != nil {
			t.Fatal(err)
		}
		rs := sub.Rounds()
		foldStream(t, st, rs[len(rs)-1].Batches, view)
	}
	rounds := sub.Rounds()
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	return bench.ResultHash(view.live), len(rounds) - 1, incrementalBytes(rounds)
}

// coalescedIngestSSSP subscribes and fires the same edges as concurrent
// IngestAsync calls, waits for every ack, and folds the whole stream. It
// returns what sequentialIngestSSSP does.
func coalescedIngestSSSP(t *testing.T, edges []Tuple, opts ...Option) (string, int, int64) {
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
	foldStream(t, st, sub.Rounds()[0].Batches, view)

	const workers = 4
	var wg sync.WaitGroup
	ackCh := make(chan *IngestAck, len(edges))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(edges); i += workers {
				ack, err := sess.IngestAsync("graph", []Delta{Insert(edges[i])})
				if err != nil {
					t.Errorf("ingest %d: %v", i, err)
					return
				}
				ackCh <- ack
			}
		}(w)
	}
	wg.Wait()
	close(ackCh)
	covered := 0
	for ack := range ackCh {
		rs, err := ack.Wait(ctx)
		if err != nil {
			t.Fatalf("ack: %v", err)
		}
		if rs == nil || rs.Ingests <= 0 {
			t.Fatalf("ack resolved without a covering round: %+v", rs)
		}
		covered++
	}
	if covered != len(edges) {
		t.Fatalf("resolved %d acks, want %d", covered, len(edges))
	}
	rounds := sub.Rounds()
	for _, rs := range rounds[1:] {
		foldStream(t, st, rs.Batches, view)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	hash := bench.ResultHash(view.live)

	// The session's base-table view stays consistent through the applied
	// hook: a post-subscription query over the revised tables must agree
	// with the folded stream (store revision in-process, compacted
	// change-log replay over TCP).
	res, err := sess.QueryCtx(context.Background(), algos.IncSSSPQuery)
	if err != nil {
		t.Fatalf("query after coalesced subscription: %v", err)
	}
	if h := bench.ResultHash(res.Tuples); h != hash {
		t.Fatalf("folded coalesced stream %s != post-subscription query %s", hash, h)
	}
	return hash, len(rounds) - 1, incrementalBytes(rounds)
}

// TestIngestAsyncCoalescingEquivalence is the coalescing acceptance
// property on both transports: a burst of concurrent IngestAsync calls
// must hash-match the same edges ingested one awaited round at a time, in
// no more rounds than ingests and for no more wire bytes than the
// sequential rounds on the same transport, with concurrent callers
// exercised under -race.
func TestIngestAsyncCoalescingEquivalence(t *testing.T) {
	const size = 300
	edges := churnEdges(40, size)
	ds := []Option{WithDataset("sssp", size, 1), WithHandlers("sssp-inc")}

	var seqHash string
	for _, transport := range []string{"inproc", "tcp"} {
		deploy := func() Option {
			if transport == "tcp" {
				return WithTCPPeers(startDaemons(t, 3)...)
			}
			return WithInProc(3)
		}
		hash, seqRounds, seqBytes := sequentialIngestSSSP(t, edges, append([]Option{deploy()}, ds...)...)
		if seqRounds != len(edges) {
			t.Fatalf("%s: sequential ingestion ran %d rounds, want %d", transport, seqRounds, len(edges))
		}
		if seqHash == "" {
			seqHash = hash
		} else if hash != seqHash {
			t.Fatalf("%s sequential %s != inproc sequential %s", transport, hash, seqHash)
		}
		coHash, coRounds, coBytes := coalescedIngestSSSP(t, edges, append([]Option{deploy()}, ds...)...)
		t.Logf("%s: %d ingests: sequential %d bytes, coalesced %d rounds %d bytes", transport, len(edges), seqBytes, coRounds, coBytes)
		if coHash != seqHash {
			t.Fatalf("%s coalesced %s != inproc sequential %s", transport, coHash, seqHash)
		}
		if coRounds > len(edges) {
			t.Fatalf("%s: coalesced ingestion ran %d rounds for %d ingests", transport, coRounds, len(edges))
		}
		if coBytes > seqBytes {
			t.Fatalf("%s: coalesced rounds shipped %d bytes, sequential rounds %d", transport, coBytes, seqBytes)
		}
	}
}

// TestIngestLogBoundedUnderChurn asserts the TCP session change log stays
// bounded by the NET change: insert+delete churn folds away at every fold
// threshold (not only at snapshot time), and the replayed spec carries
// exactly the surviving rows.
func TestIngestLogBoundedUnderChurn(t *testing.T) {
	ctx := context.Background()
	addrs := startDaemons(t, 2)
	sess, err := Open(ctx, WithTCPPeers(addrs...), WithDataset("dbpedia", 150, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tcp := sess.be.(*tcpBackend)

	// 150 insert+delete cycles of the same tuples: 300 raw log appends
	// whose net effect is zero.
	for i := 0; i < 150; i++ {
		e := NewTuple(int64(1000+i%5), int64(2000+i%5))
		if err := sess.Insert("graph", e); err != nil {
			t.Fatal(err)
		}
		if err := sess.Delete("graph", e); err != nil {
			t.Fatal(err)
		}
	}
	// The threshold fold keeps the retained log within one fold window of
	// the net size (zero) at all times — 300 appends never accumulate.
	if n := tcp.ingestLogLen(); n >= 2*cluster.ChangeLogFoldEvery {
		t.Fatalf("log retains %d deltas after zero-net churn (fold threshold %d)", n, cluster.ChangeLogFoldEvery)
	}
	if snap := tcp.ingestSnapshot(); len(snap) != 0 {
		t.Fatalf("snapshot after zero-net churn: %d entries, want 0", len(snap))
	}

	// Three net inserts survive the fold: the snapshot is exactly the live
	// net change, and the replayed job sees it.
	live := []Tuple{
		NewTuple(int64(3000), int64(3001)),
		NewTuple(int64(3001), int64(3002)),
		NewTuple(int64(3002), int64(3000)),
	}
	if err := sess.Insert("graph", live...); err != nil {
		t.Fatal(err)
	}
	snap := tcp.ingestSnapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot entries = %d, want 1", len(snap))
	}
	deltas, err := cluster.DecodeDeltas(snap[0].Deltas)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != len(live) {
		t.Fatalf("snapshot carries %d deltas, want the %d net rows", len(deltas), len(live))
	}
	for _, d := range deltas {
		if d.Op != types.OpInsert {
			t.Fatalf("net snapshot contains non-insert %v", d)
		}
	}

	// Replay correctness: the TCP job built from the folded log must agree
	// with an in-process session whose tables had only the net change.
	const q = `SELECT srcId, count(*) FROM graph GROUP BY srcId`
	got, err := sess.QueryCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Open(ctx, WithInProc(2), WithDataset("dbpedia", 150, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.Insert("graph", live...); err != nil {
		t.Fatal(err)
	}
	want, err := ref.QueryCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if gh, wh := bench.ResultHash(got.Tuples), bench.ResultHash(want.Tuples); gh != wh {
		t.Fatalf("folded-log replay %s != net-change reference %s", gh, wh)
	}
}
