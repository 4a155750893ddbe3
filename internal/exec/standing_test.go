package exec

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
)

// foldBatches replays stream batches the way a subscriber materializing the
// view would.
func foldBatches(t *testing.T, st *ResultStream, n int) *resultSet {
	t.Helper()
	acc := newResultSet()
	for i := 0; i < n; i++ {
		b, ok := st.Next()
		if !ok {
			t.Fatalf("stream ended after %d of %d batches: %v", i, n, st.Err())
		}
		acc.apply(b.Deltas)
	}
	return acc
}

func sortTuples(ts []types.Tuple) []types.Tuple {
	out := append([]types.Tuple(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func tuplesMatch(t *testing.T, got, want []types.Tuple, label string) {
	t.Helper()
	g, w := sortTuples(got), sortTuples(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d tuples, want %d\ngot:  %v\nwant: %v", label, len(g), len(w), g, w)
	}
	for i := range g {
		if !g[i].Equal(w[i]) {
			t.Fatalf("%s: tuple %d = %v, want %v", label, i, g[i], w[i])
		}
	}
}

// aggPlan is a non-recursive scan→rehash→group-by plan over items(id, v).
func aggPlan() *PlanSpec {
	p := NewPlanSpec()
	scan := p.Add(&OpSpec{Kind: OpScan, Table: "items"})
	rehash := p.Add(&OpSpec{Kind: OpRehash, Inputs: []int{scan.ID}, HashKey: []int{0}})
	gby := p.Add(&OpSpec{
		Kind: OpGroupBy, Inputs: []int{rehash.ID}, GroupKey: []int{0},
		Aggs: []AggSpec{
			{Fn: "count", OutName: "n"},
			{Fn: "sum", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "v")}, OutName: "s"},
		},
	})
	p.RootID = gby.ID
	return p
}

func aggCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	must(t, cat.AddTable(&catalog.Table{
		Name: "items", Schema: types.MustSchema("g:Integer", "v:Double"), PartitionKey: 0,
	}))
	return cat
}

// TestStandingNonRecursive runs a standing aggregation through insert and
// delete rounds and checks the folded stream equals a from-scratch run on
// the final data — and that the standing engine's own stores were kept
// current, so the recompute can run on the same engine.
func TestStandingNonRecursive(t *testing.T) {
	cat := aggCatalog(t)
	eng := NewEngine(3, 32, 2, cat)
	r := rand.New(rand.NewSource(11))
	var base []types.Tuple
	for i := 0; i < 400; i++ {
		base = append(base, types.NewTuple(int64(r.Intn(20)), float64(r.Intn(50))))
	}
	must(t, eng.Load("items", 0, base))

	sq, err := eng.Standing(context.Background(), aggPlan(), Options{})
	must(t, err)
	st := sq.Stream()
	rounds := sq.Rounds()
	if len(rounds) != 1 || rounds[0].Round != 0 {
		t.Fatalf("after Standing: rounds = %+v", rounds)
	}
	acc := foldBatches(t, st, rounds[0].Batches)

	// Round 1: inserts (some into existing groups, some new). Round 2:
	// deletes of a base tuple and an ingested one — group-by count/sum are
	// invertible, so the revised groups stream as replacements.
	ins := []types.Delta{
		types.Insert(types.NewTuple(int64(3), 7.0)),
		types.Insert(types.NewTuple(int64(99), 1.0)),
		types.Insert(types.NewTuple(int64(99), 2.0)),
	}
	del := []types.Delta{
		types.Delete(base[0]),
		types.Delete(types.NewTuple(int64(99), 1.0)),
	}
	for i, ds := range [][]types.Delta{ins, del} {
		rs, err := sq.Ingest(context.Background(), map[string][]types.Delta{"items": ds})
		must(t, err)
		if rs.Round != i+1 || rs.IngestedDeltas != len(ds) {
			t.Fatalf("round %d stats: %+v", i+1, rs)
		}
		for j := 0; j < rs.Batches; j++ {
			b, ok := st.Next()
			if !ok {
				t.Fatalf("stream ended early: %v", st.Err())
			}
			acc.apply(b.Deltas)
		}
	}
	must(t, sq.Close())

	// Recompute from scratch: the standing engine's stores absorbed the
	// ingested deltas, so the same engine answers the final state.
	want, err := eng.Run(aggPlan(), Options{})
	must(t, err)
	tuplesMatch(t, acc.materialize(), want.Tuples, "standing fold vs recompute")
}

// reachPlan builds a recursive reachability (transitive-closure) plan over
// edges(src,dst) and seed(v) using the DEFAULT join and fixpoint semantics
// (no handlers): base-table deltas re-derive through the Gupta–Mumick
// rules — an inserted edge probes the resident reached-set bucket and emits
// the newly reachable frontier incrementally. Set semantics make the
// fixpoint confluent, so incremental rounds and a from-scratch recompute
// land on the identical relation.
func reachPlan() *PlanSpec {
	p := NewPlanSpec()
	edges := p.Add(&OpSpec{Kind: OpScan, Table: "edges"})
	seed := p.Add(&OpSpec{Kind: OpScan, Table: "seed"})
	fix := p.Add(&OpSpec{Kind: OpFixpoint, FixpointKey: []int{0}})
	join := p.Add(&OpSpec{
		Kind: OpHashJoin, Inputs: []int{edges.ID, fix.ID},
		LeftKey: []int{0}, RightKey: []int{0}, ImmutablePort: 0,
	})
	// join output: (src, dst, v) → project (dst)
	proj := p.Add(&OpSpec{
		Kind: OpProject, Inputs: []int{join.ID},
		Exprs: []expr.Expr{expr.NewCol(1, types.KindInt, "dst")},
	})
	rehash := p.Add(&OpSpec{Kind: OpRehash, Inputs: []int{proj.ID}, HashKey: []int{0}})
	fix.Inputs = []int{seed.ID, rehash.ID}
	fix.RecursiveOut = join.ID
	p.RootID = fix.ID
	return p
}

func reachCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	must(t, cat.AddTable(&catalog.Table{
		Name: "edges", Schema: types.MustSchema("src:Integer", "dst:Integer"), PartitionKey: 0,
	}))
	must(t, cat.AddTable(&catalog.Table{
		Name: "seed", Schema: types.MustSchema("v:Integer"), PartitionKey: 0,
	}))
	return cat
}

// TestStandingRecursiveIncremental is the core standing-query property:
// after rounds of edge insertions, the folded subscription stream equals a
// from-scratch fixpoint over the final edge set — and each incremental
// round ships far fewer bytes than the recompute.
func TestStandingRecursiveIncremental(t *testing.T) {
	const nodes = 4
	r := rand.New(rand.NewSource(5))
	// Three disconnected chain islands of 50 vertices; only the first is
	// reachable from the seed until ingested edges bridge them.
	const island = 50
	const V = 3 * island
	var base []types.Tuple
	for is := 0; is < 3; is++ {
		for i := 0; i < island-1; i++ {
			v := int64(is*island + i)
			base = append(base, types.NewTuple(v, v+1))
		}
	}
	seed := []types.Tuple{types.NewTuple(int64(0))}

	cat := reachCatalog(t)
	eng := NewEngine(nodes, 32, 2, cat)
	must(t, eng.Load("edges", 0, base))
	must(t, eng.Load("seed", 0, seed))

	sq, err := eng.Standing(context.Background(), reachPlan(), Options{MaxStrata: 400})
	must(t, err)
	st := sq.Stream()
	acc := foldBatches(t, st, sq.Rounds()[0].Batches)
	if got := len(acc.materialize()); got != island {
		t.Fatalf("initial fixpoint reached %d vertices, want %d", got, island)
	}

	// Round 1 bridges island 2, round 2 bridges island 3, round 3 adds
	// random chords — every round re-derives through resident join and
	// fixpoint state.
	extra := [][]types.Delta{
		{types.Insert(types.NewTuple(int64(10), int64(island)))},
		{types.Insert(types.NewTuple(int64(island+10), int64(2*island)))},
		nil,
	}
	for i := 0; i < 5; i++ {
		extra[2] = append(extra[2], types.Insert(types.NewTuple(int64(r.Intn(V)), int64(r.Intn(V)))))
	}
	var roundStats []*RoundStats
	for _, ds := range extra {
		rs, err := sq.Ingest(context.Background(), map[string][]types.Delta{"edges": ds})
		must(t, err)
		roundStats = append(roundStats, rs)
		for i := 0; i < rs.Batches; i++ {
			b, ok := st.Next()
			if !ok {
				t.Fatalf("stream ended early: %v", st.Err())
			}
			if b.Round != rs.Round {
				t.Fatalf("batch round %d, want %d", b.Round, rs.Round)
			}
			acc.apply(b.Deltas)
		}
	}
	must(t, sq.Close())
	if _, ok := st.Next(); ok {
		t.Fatal("stream must end after Close")
	}
	if st.Err() != nil {
		t.Fatalf("clean close must not error the stream: %v", st.Err())
	}

	// Recompute from scratch on a fresh engine with all edges present.
	cat2 := reachCatalog(t)
	eng2 := NewEngine(nodes, 32, 2, cat2)
	all := append([]types.Tuple(nil), base...)
	for _, ds := range extra {
		for _, d := range ds {
			all = append(all, d.Tup)
		}
	}
	must(t, eng2.Load("edges", 0, all))
	must(t, eng2.Load("seed", 0, seed))
	want, err := eng2.Run(reachPlan(), Options{MaxStrata: 400})
	must(t, err)
	tuplesMatch(t, acc.materialize(), want.Tuples, "incremental vs recompute")

	// Round cost must be proportional to the change: the bridging rounds
	// re-derived whole islands, but the chord round (which changed almost
	// nothing) must ship a small fraction of a from-scratch recompute.
	for _, rs := range roundStats[:2] {
		if rs.BytesSent <= 0 {
			t.Fatalf("bridging round %d shipped no bytes", rs.Round)
		}
	}
	small := roundStats[2]
	if small.BytesSent*4 >= want.BytesSent {
		t.Fatalf("small-change round shipped %d bytes, recompute %d — expected far fewer",
			small.BytesSent, want.BytesSent)
	}

	// The standing engine's stores absorbed the edges: a fresh query on the
	// SAME engine must agree with the recompute.
	again, err := eng.Run(reachPlan(), Options{MaxStrata: 400})
	must(t, err)
	tuplesMatch(t, again.Tuples, want.Tuples, "post-standing store state")
}

// TestStandingIngestWhileRoundRunning reproduces the lost-wakeup hazard:
// Ingest A's ctx expires mid-round (A withdraws), and Ingest B enqueues
// while A's round is still executing — B's sentinel is consumed by the
// running round's collector, so the pump must re-check the pending slot
// after every round instead of waiting for a wakeup that already passed.
func TestStandingIngestWhileRoundRunning(t *testing.T) {
	// Two chain islands: bridging the second forces a ~100-stratum round,
	// a wide window for B to enqueue mid-round.
	const island = 100
	var base []types.Tuple
	for is := 0; is < 2; is++ {
		for i := 0; i < island-1; i++ {
			v := int64(is*island + i)
			base = append(base, types.NewTuple(v, v+1))
		}
	}
	cat := reachCatalog(t)
	eng := NewEngine(2, 32, 2, cat)
	must(t, eng.Load("edges", 0, base))
	must(t, eng.Load("seed", 0, []types.Tuple{types.NewTuple(int64(0))}))

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	var armed atomic.Bool
	midRound := make(chan struct{})
	var once sync.Once
	opts := Options{MaxStrata: 400, OnStratum: func(rel, total int) {
		if armed.Load() && rel == 1 {
			once.Do(func() {
				cancelA() // A abandons its round mid-flight
				close(midRound)
			})
		}
	}}
	sq, err := eng.Standing(context.Background(), reachPlan(), opts)
	must(t, err)
	defer sq.Close()
	armed.Store(true)

	aDone := make(chan error, 1)
	go func() {
		_, err := sq.Ingest(ctxA, map[string][]types.Delta{
			"edges": {types.Insert(types.NewTuple(int64(50), int64(island)))},
		})
		aDone <- err
	}()
	<-midRound
	// Round A is still running; B must not hang once it completes.
	bctx, bcancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer bcancel()
	rs, err := sq.Ingest(bctx, map[string][]types.Delta{
		"edges": {types.Insert(types.NewTuple(int64(0), int64(0)))},
	})
	if err != nil {
		t.Fatalf("ingest B: %v (lost wakeup?)", err)
	}
	if rs == nil || rs.Round != 2 {
		t.Fatalf("ingest B stats: %+v", rs)
	}
	if err := <-aDone; err == nil {
		t.Fatal("ingest A should have returned its ctx error")
	}
}

// TestStandingAnnihilationIngestBytes is the IngestBytes regression test:
// staged bytes are accounted once per MsgIngest frame AFTER coalescing. An
// insert+delete pair of the same tuple folds to nothing, so the covering
// round must report the staged deltas, zero coalesced deltas, and zero
// ingest bytes — not the sum of what each staged batch would have encoded.
func TestStandingAnnihilationIngestBytes(t *testing.T) {
	cat := aggCatalog(t)
	eng := NewEngine(2, 32, 2, cat)
	must(t, eng.Load("items", 0, []types.Tuple{types.NewTuple(int64(1), 2.0)}))
	sq, err := eng.Standing(context.Background(), aggPlan(), Options{})
	must(t, err)
	defer sq.Close()
	st := sq.Stream()
	foldBatches(t, st, sq.Rounds()[0].Batches)

	tup := types.NewTuple(int64(7), 4.0)
	rs, err := sq.Ingest(context.Background(), map[string][]types.Delta{
		"items": {types.Insert(tup), types.Delete(tup)},
	})
	must(t, err)
	if rs.Ingests != 1 || rs.IngestedDeltas != 2 {
		t.Fatalf("round stats: %+v", rs)
	}
	if rs.CoalescedDeltas != 0 {
		t.Fatalf("annihilating pair injected %d deltas", rs.CoalescedDeltas)
	}
	if rs.IngestBytes != 0 {
		t.Fatalf("annihilated round staged %d bytes, want 0", rs.IngestBytes)
	}
	if rs.CoalescingRatio() != 2 {
		t.Fatalf("coalescing ratio = %v, want 2", rs.CoalescingRatio())
	}
	if rs.Deltas != 0 {
		t.Fatalf("net-zero round emitted %d output deltas", rs.Deltas)
	}

	// The dataflow is undisturbed: a real change still rounds through, and
	// its ingest bytes are the folded frames', counted once.
	rs, err = sq.Ingest(context.Background(), map[string][]types.Delta{
		"items": {types.Insert(types.NewTuple(int64(1), 5.0))},
	})
	must(t, err)
	if rs.CoalescedDeltas != 1 || rs.IngestBytes <= 0 {
		t.Fatalf("live round stats: %+v", rs)
	}
}

// TestStandingCoalescedBurst drives the coalescing pipeline
// deterministically: a bridging edge opens a long (~island-length) round,
// and a burst of IngestAsync requests enqueued mid-round must all fold
// into ONE follow-up round — with the burst's insert+delete pair
// annihilated before injection — and the folded stream must still equal a
// from-scratch recompute over the net edge set.
func TestStandingCoalescedBurst(t *testing.T) {
	const island = 80
	var base []types.Tuple
	for is := 0; is < 2; is++ {
		for i := 0; i < island-1; i++ {
			v := int64(is*island + i)
			base = append(base, types.NewTuple(v, v+1))
		}
	}
	cat := reachCatalog(t)
	eng := NewEngine(3, 32, 2, cat)
	must(t, eng.Load("edges", 0, base))
	must(t, eng.Load("seed", 0, []types.Tuple{types.NewTuple(int64(0))}))

	// The burst: 18 chord inserts plus one insert+delete pair that must
	// annihilate in the fold (a deletion must never reach the monotone
	// fixpoint).
	var burst [][]types.Delta
	for i := 0; i < 18; i++ {
		burst = append(burst, []types.Delta{
			types.Insert(types.NewTuple(int64(3*i), int64(5*i+1))),
		})
	}
	phantom := types.NewTuple(int64(2), int64(2*island-1))
	burst = append(burst,
		[]types.Delta{types.Insert(phantom)},
		[]types.Delta{types.Delete(phantom)},
	)

	var sq *StandingQuery
	var armed atomic.Bool
	var once sync.Once
	acks := make([]*IngestAck, 0, len(burst))
	opts := Options{MaxStrata: 400, OnStratum: func(rel, total int) {
		// rel==1 of the bridging round: the round still has ~island strata
		// to run, so everything enqueued here coalesces into round 2.
		if armed.Load() && rel == 1 {
			once.Do(func() {
				for _, ds := range burst {
					ack, err := sq.IngestAsync(map[string][]types.Delta{"edges": ds})
					if err != nil {
						t.Errorf("burst enqueue: %v", err)
						return
					}
					acks = append(acks, ack)
				}
			})
		}
	}}
	var err error
	sq, err = eng.Standing(context.Background(), reachPlan(), opts)
	must(t, err)
	st := sq.Stream()
	acc := foldBatches(t, st, sq.Rounds()[0].Batches)
	armed.Store(true)

	bridge, err := sq.Ingest(context.Background(), map[string][]types.Delta{
		"edges": {types.Insert(types.NewTuple(int64(10), int64(island)))},
	})
	must(t, err)
	if bridge.Round != 1 || bridge.Ingests != 1 {
		t.Fatalf("bridge round stats: %+v", bridge)
	}
	if len(acks) != len(burst) {
		t.Fatalf("enqueued %d of %d burst requests", len(acks), len(burst))
	}
	// Every burst ack resolves with the SAME covering round.
	var covering *RoundStats
	for i, ack := range acks {
		rs, err := ack.Wait(context.Background())
		must(t, err)
		if covering == nil {
			covering = rs
		} else if rs != covering {
			t.Fatalf("ack %d resolved with round %d, want shared round %d", i, rs.Round, covering.Round)
		}
	}
	if covering.Round != 2 || covering.Ingests != len(burst) {
		t.Fatalf("covering round: %+v", covering)
	}
	if covering.IngestedDeltas != len(burst) || covering.CoalescedDeltas != len(burst)-2 {
		t.Fatalf("coalescing: staged %d folded %d, want %d/%d",
			covering.IngestedDeltas, covering.CoalescedDeltas, len(burst), len(burst)-2)
	}
	rounds := sq.Rounds()
	if len(rounds) != 3 {
		t.Fatalf("%d rounds for %d ingests — burst did not coalesce", len(rounds), 1+len(burst))
	}
	for _, rs := range rounds[1:] {
		for i := 0; i < rs.Batches; i++ {
			b, ok := st.Next()
			if !ok {
				t.Fatalf("stream ended early: %v", st.Err())
			}
			acc.apply(b.Deltas)
		}
	}
	must(t, sq.Close())

	// Recompute over the net edge set (phantom annihilated).
	cat2 := reachCatalog(t)
	eng2 := NewEngine(3, 32, 2, cat2)
	all := append([]types.Tuple(nil), base...)
	all = append(all, types.NewTuple(int64(10), int64(island)))
	for i := 0; i < 18; i++ {
		all = append(all, types.NewTuple(int64(3*i), int64(5*i+1)))
	}
	must(t, eng2.Load("edges", 0, all))
	must(t, eng2.Load("seed", 0, []types.Tuple{types.NewTuple(int64(0))}))
	want, err := eng2.Run(reachPlan(), Options{MaxStrata: 400})
	must(t, err)
	tuplesMatch(t, acc.materialize(), want.Tuples, "coalesced burst vs recompute")
}

// TestStandingConcurrentIngestAsync hammers the pipeline from concurrent
// callers (the -race coverage of the coalescing queue): every staged delta
// must be covered by exactly one round, and the folded stream must equal a
// from-scratch run on the revised stores.
func TestStandingConcurrentIngestAsync(t *testing.T) {
	cat := aggCatalog(t)
	eng := NewEngine(3, 32, 2, cat)
	must(t, eng.Load("items", 0, []types.Tuple{types.NewTuple(int64(0), 1.0)}))
	sq, err := eng.Standing(context.Background(), aggPlan(), Options{})
	must(t, err)
	st := sq.Stream()
	acc := foldBatches(t, st, sq.Rounds()[0].Batches)

	const workers = 8
	const perWorker = 5
	var wg sync.WaitGroup
	ackCh := make(chan *IngestAck, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ack, err := sq.IngestAsync(map[string][]types.Delta{
					"items": {types.Insert(types.NewTuple(int64(w*perWorker+i), float64(i)))},
				})
				if err != nil {
					t.Errorf("worker %d ingest %d: %v", w, i, err)
					return
				}
				ackCh <- ack
			}
		}()
	}
	wg.Wait()
	close(ackCh)
	n := 0
	for ack := range ackCh {
		if _, err := ack.Wait(context.Background()); err != nil {
			t.Fatalf("ack: %v", err)
		}
		n++
	}
	if n != workers*perWorker {
		t.Fatalf("resolved %d acks, want %d", n, workers*perWorker)
	}
	rounds := sq.Rounds()
	staged, covered := 0, 0
	for _, rs := range rounds[1:] {
		staged += rs.IngestedDeltas
		covered += rs.Ingests
		for i := 0; i < rs.Batches; i++ {
			b, ok := st.Next()
			if !ok {
				t.Fatalf("stream ended early: %v", st.Err())
			}
			acc.apply(b.Deltas)
		}
	}
	if staged != workers*perWorker || covered != workers*perWorker {
		t.Fatalf("rounds covered %d ingests / %d deltas, want %d", covered, staged, workers*perWorker)
	}
	must(t, sq.Close())

	want, err := eng.Run(aggPlan(), Options{})
	must(t, err)
	tuplesMatch(t, acc.materialize(), want.Tuples, "concurrent async fold vs recompute")
}

// TestStandingIngestValidation checks bad input fails the call without
// killing the subscription.
func TestStandingIngestValidation(t *testing.T) {
	cat := aggCatalog(t)
	eng := NewEngine(2, 32, 2, cat)
	must(t, eng.Load("items", 0, []types.Tuple{types.NewTuple(int64(1), 2.0)}))
	sq, err := eng.Standing(context.Background(), aggPlan(), Options{})
	must(t, err)
	defer sq.Close()
	if _, err := sq.Ingest(context.Background(), map[string][]types.Delta{"nope": {types.Insert(types.NewTuple(int64(1), 1.0))}}); err == nil {
		t.Fatal("unknown table must fail the ingest")
	}
	if _, err := sq.Ingest(context.Background(), map[string][]types.Delta{"items": {types.Insert(types.NewTuple(int64(1)))}}); err == nil {
		t.Fatal("arity mismatch must fail the ingest")
	}
	// The subscription survives and serves a good round.
	rs, err := sq.Ingest(context.Background(), map[string][]types.Delta{"items": {types.Insert(types.NewTuple(int64(1), 3.0))}})
	must(t, err)
	if rs.IngestedDeltas != 1 {
		t.Fatalf("stats: %+v", rs)
	}
}

// TestStandingCrashRecoveryInproc is the crash-recovery property on the
// in-process transport: a standing recursive query over spill-backed
// durable stores survives a node kill both between rounds (idle recovery)
// and during a round (abort + replay), and the folded subscription stream
// still equals a from-scratch recompute over the final edge set — every
// round delivered exactly once, none lost, none duplicated.
func TestStandingCrashRecoveryInproc(t *testing.T) {
	const nodes = 4
	const island = 50
	const V = 3 * island
	var base []types.Tuple
	for is := 0; is < 3; is++ {
		for i := 0; i < island-1; i++ {
			v := int64(is*island + i)
			base = append(base, types.NewTuple(v, v+1))
		}
	}
	seed := []types.Tuple{types.NewTuple(int64(0))}

	cat := reachCatalog(t)
	eng := NewEngine(nodes, 32, 2, cat)
	must(t, eng.UseSpill(t.TempDir(), 64))
	defer eng.CloseStores()
	must(t, eng.Load("edges", 0, base))
	must(t, eng.Load("seed", 0, seed))

	tr := eng.Transport.(*cluster.InProcTransport)
	hook := func(victim cluster.NodeID) error {
		tr.Revive(victim)
		return nil
	}
	sq, err := eng.Standing(context.Background(), reachPlan(), Options{MaxStrata: 400, Recover: hook})
	must(t, err)
	st := sq.Stream()
	acc := foldBatches(t, st, sq.Rounds()[0].Batches)
	if got := len(acc.materialize()); got != island {
		t.Fatalf("initial fixpoint reached %d vertices, want %d", got, island)
	}

	apply := func(rs *RoundStats) {
		t.Helper()
		for i := 0; i < rs.Batches; i++ {
			b, ok := st.Next()
			if !ok {
				t.Fatalf("stream ended early: %v", st.Err())
			}
			if b.Round != rs.Round {
				t.Fatalf("batch round %d, want %d", b.Round, rs.Round)
			}
			acc.apply(b.Deltas)
		}
	}

	// Idle kill: the victim dies with no round in flight; the pump rebuilds
	// the dataflow from committed store state before serving the next round.
	tr.Kill(2)
	rs, err := sq.Ingest(context.Background(), map[string][]types.Delta{
		"edges": {types.Insert(types.NewTuple(int64(10), int64(island)))},
	})
	must(t, err)
	apply(rs)

	// Mid-round kill: bridging island 3 runs a ~50-stratum round; a second
	// victim dies while it executes, forcing an abort + replay. (If the
	// timer fires after the round closed, the kill degrades to another idle
	// recovery — the correctness assertion is the same either way.)
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(3 * time.Millisecond)
		tr.Kill(1)
	}()
	rs, err = sq.Ingest(context.Background(), map[string][]types.Delta{
		"edges": {types.Insert(types.NewTuple(int64(island+10), int64(2*island)))},
	})
	must(t, err)
	apply(rs)
	<-killed

	// A final quiet round flushes any still-pending failure frame through
	// recovery before teardown, and proves the rebuilt dataflow still serves.
	r := rand.New(rand.NewSource(23))
	var chords []types.Delta
	for i := 0; i < 5; i++ {
		chords = append(chords, types.Insert(types.NewTuple(int64(r.Intn(V)), int64(r.Intn(V)))))
	}
	rs, err = sq.Ingest(context.Background(), map[string][]types.Delta{"edges": chords})
	must(t, err)
	apply(rs)

	must(t, sq.Close())
	if sq.Recoveries() < 2 {
		t.Fatalf("Recoveries() = %d, want >= 2", sq.Recoveries())
	}

	// Recompute from scratch with all edges on a fresh in-memory engine.
	all := append([]types.Tuple(nil), base...)
	all = append(all, types.NewTuple(int64(10), int64(island)))
	all = append(all, types.NewTuple(int64(island+10), int64(2*island)))
	for _, d := range chords {
		all = append(all, d.Tup)
	}
	cat2 := reachCatalog(t)
	eng2 := NewEngine(nodes, 32, 2, cat2)
	must(t, eng2.Load("edges", 0, all))
	must(t, eng2.Load("seed", 0, seed))
	want, err := eng2.Run(reachPlan(), Options{MaxStrata: 400})
	must(t, err)
	tuplesMatch(t, acc.materialize(), want.Tuples, "crash-recovered fold vs recompute")
}

// TestStandingRecoverNeedsDurable: enabling Options.Recover over plain
// in-memory stores must fail fast at Standing time.
func TestStandingRecoverNeedsDurable(t *testing.T) {
	cat := aggCatalog(t)
	eng := NewEngine(2, 32, 2, cat)
	must(t, eng.Load("items", 0, []types.Tuple{types.NewTuple(int64(1), 2.0)}))
	_, err := eng.Standing(context.Background(), aggPlan(), Options{
		Recover: func(cluster.NodeID) error { return nil },
	})
	if err == nil {
		t.Fatal("Standing must reject Recover over in-memory stores")
	}
}

// TestRoundLogKeepsFirstAndLatest: past its bound the log keeps round 0
// and the latest rounds in order, across several turns of its ring.
func TestRoundLogKeepsFirstAndLatest(t *testing.T) {
	var l RoundLog
	if l.Rounds() != nil {
		t.Fatal("empty log returned rounds")
	}
	for n := 1; n <= 3*roundHistory; n++ {
		l.Add(RoundStats{Round: n - 1})
		got := l.Rounds()
		want := min(n, roundHistory)
		if len(got) != want || got[0].Round != 0 {
			t.Fatalf("after %d rounds: kept %d starting at %d, want %d starting at 0", n, len(got), got[0].Round, want)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Round != n-len(got)+i {
				t.Fatalf("after %d rounds: entry %d is round %d, want %d", n, i, got[i].Round, n-len(got)+i)
			}
		}
	}
}
