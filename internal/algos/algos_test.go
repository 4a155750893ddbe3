package algos

import (
	"math"
	"testing"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/datagen"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/types"
)

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func graphCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	must(t, cat.AddTable(&catalog.Table{
		Name: "graph", Schema: types.MustSchema("srcId:Integer", "destId:Integer"), PartitionKey: 0,
	}))
	must(t, cat.AddTable(&catalog.Table{
		Name: "spseed", Schema: types.MustSchema("srcId:Integer", "dist:Double"), PartitionKey: 0,
	}))
	must(t, cat.AddTable(&catalog.Table{
		Name: "points", Schema: types.MustSchema("id:Integer", "x:Double", "y:Double"), PartitionKey: 0,
	}))
	must(t, cat.AddTable(&catalog.Table{
		Name: "kmseed", Schema: types.MustSchema("cid:Integer", "x:Double", "y:Double"), PartitionKey: 0,
	}))
	return cat
}

func prMap(res *exec.Result) map[int64]float64 {
	out := map[int64]float64{}
	for _, tup := range res.Tuples {
		id, _ := types.AsInt(tup[0])
		v, _ := types.AsFloat(tup[1])
		out[id] = v
	}
	return out
}

func TestPageRankDeltaMatchesReference(t *testing.T) {
	g := datagen.DBPediaGraph(400, 7)
	want, _ := PageRankRef(g, 1e-6, 200)

	cat := graphCatalog(t)
	cfg := PageRankConfig{Epsilon: 1e-4, Delta: true, MaxIterations: 200}
	jn, wn, err := RegisterPageRank(cat, cfg)
	must(t, err)
	eng := exec.NewEngine(4, 32, 2, cat)
	must(t, eng.Load("graph", 0, g.Edges))
	res, err := eng.Run(PageRankPlan(cfg, jn, wn), exec.Options{})
	must(t, err)

	got := prMap(res)
	if len(got) != g.NumVertices {
		t.Fatalf("got %d vertices, want %d", len(got), g.NumVertices)
	}
	for v, w := range want {
		// ε-thresholded propagation leaves bounded error: each vertex's
		// rank may lag by accumulated sub-ε residue.
		if math.Abs(got[int64(v)]-w) > 0.05*math.Max(w, 1) {
			t.Fatalf("pr[%d] = %v, want %v", v, got[int64(v)], w)
		}
	}
	// Δᵢ sets must shrink as the computation converges (Fig. 2).
	last := res.Strata[len(res.Strata)-1]
	if last.NewTuples != 0 {
		t.Fatal("PageRank must reach an implicit fixpoint")
	}
	first := res.Strata[1]
	if first.NewTuples <= last.NewTuples {
		t.Fatal("Δ set should shrink over time")
	}
}

func TestPageRankNoDeltaMatchesReference(t *testing.T) {
	g := datagen.DBPediaGraph(200, 11)
	want, iters := PageRankRef(g, 1e-3, 100)

	cat := graphCatalog(t)
	cfg := PageRankConfig{Epsilon: 1e-3, Delta: false, MaxIterations: iters + 2}
	jn, wn, err := RegisterPageRank(cat, cfg)
	must(t, err)
	eng := exec.NewEngine(3, 32, 2, cat)
	must(t, eng.Load("graph", 0, g.Edges))
	res, err := eng.Run(PageRankPlan(cfg, jn, wn), exec.Options{})
	must(t, err)
	got := prMap(res)
	for v, w := range want {
		if math.Abs(got[int64(v)]-w) > 0.02*math.Max(w, 1) {
			t.Fatalf("pr[%d] = %v, want %v", v, got[int64(v)], w)
		}
	}
}

func TestPageRankDeltaMovesLessData(t *testing.T) {
	g := datagen.DBPediaGraph(300, 3)
	run := func(delta bool) int64 {
		cat := graphCatalog(t)
		cfg := PageRankConfig{Epsilon: 1e-3, Delta: delta, MaxIterations: 30}
		jn, wn, err := RegisterPageRank(cat, cfg)
		must(t, err)
		eng := exec.NewEngine(4, 32, 2, cat)
		must(t, eng.Load("graph", 0, g.Edges))
		res, err := eng.Run(PageRankPlan(cfg, jn, wn), exec.Options{})
		must(t, err)
		return res.BytesSent
	}
	deltaBytes := run(true)
	noDeltaBytes := run(false)
	if deltaBytes >= noDeltaBytes {
		t.Fatalf("delta should ship fewer bytes: %d vs %d", deltaBytes, noDeltaBytes)
	}
}

func TestSSSPDeltaMatchesBFS(t *testing.T) {
	g := datagen.DBPediaGraph(500, 13)
	want := BFSRef(g, 0)
	cat := graphCatalog(t)
	cfg := SSSPConfig{Source: 0, Delta: true, MaxIterations: 500}
	jn, wn, err := RegisterSSSP(cat, cfg)
	must(t, err)
	eng := exec.NewEngine(4, 32, 2, cat)
	must(t, eng.Load("graph", 0, g.Edges))
	must(t, eng.Load("spseed", 0, SSSPSeed(cfg)))
	res, err := eng.Run(SSSPPlan(cfg, jn, wn), exec.Options{})
	must(t, err)
	got := prMap(res)
	reachable := 0
	for v, d := range want {
		if d < 0 {
			continue
		}
		reachable++
		if got[int64(v)] != float64(d) {
			t.Fatalf("dist[%d] = %v, want %d", v, got[int64(v)], d)
		}
	}
	if len(got) != reachable {
		t.Fatalf("reached %d, want %d", len(got), reachable)
	}
}

func TestSSSPNoDeltaTruncatedIterations(t *testing.T) {
	// The paper's non-delta strategies run a fixed 6 iterations, reaching
	// ~99% of vertices; distances found must still be optimal.
	g := datagen.DBPediaGraph(300, 17)
	want := BFSRef(g, 0)
	cat := graphCatalog(t)
	cfg := SSSPConfig{Source: 0, Delta: false, MaxIterations: 6}
	jn, wn, err := RegisterSSSP(cat, cfg)
	must(t, err)
	eng := exec.NewEngine(3, 32, 2, cat)
	must(t, eng.Load("graph", 0, g.Edges))
	must(t, eng.Load("spseed", 0, SSSPSeed(cfg)))
	res, err := eng.Run(SSSPPlan(cfg, jn, wn), exec.Options{})
	must(t, err)
	for _, tup := range res.Tuples {
		id, _ := types.AsInt(tup[0])
		d, _ := types.AsFloat(tup[1])
		if want[id] < 0 || float64(want[id]) != d {
			t.Fatalf("dist[%d] = %v, want %d", id, d, want[id])
		}
		if int(d) > 5 {
			t.Fatalf("dist[%d] = %v beyond 6 iterations", id, d)
		}
	}
}

func TestKMeansMatchesLloyd(t *testing.T) {
	points := datagen.GeoPoints(400, 5, 1, 21)
	seed := KMeansSeed(points, 5)
	wantCentroids, _ := KMeansRef(points, seed, 100)

	cat := graphCatalog(t)
	cfg := KMeansConfig{K: 5, MaxIterations: 100}
	jn, wn, err := RegisterKMeans(cat, cfg)
	must(t, err)
	eng := exec.NewEngine(3, 32, 2, cat)
	must(t, eng.Load("points", 0, points))
	must(t, eng.Load("kmseed", 0, seed))
	res, err := eng.Run(KMeansPlan(cfg, jn, wn), exec.Options{})
	must(t, err)
	if len(res.Tuples) != 5 {
		t.Fatalf("centroids = %d, want 5: %v", len(res.Tuples), res.Tuples)
	}
	got := map[int64][2]float64{}
	for _, tup := range res.Tuples {
		cid, _ := types.AsInt(tup[0])
		x, _ := types.AsFloat(tup[1])
		y, _ := types.AsFloat(tup[2])
		got[cid] = [2]float64{x, y}
	}
	for c, w := range wantCentroids {
		g := got[int64(c)]
		if math.Abs(g[0]-w[0]) > 1e-6 || math.Abs(g[1]-w[1]) > 1e-6 {
			t.Fatalf("centroid %d = %v, want %v", c, g, w)
		}
	}
}

func TestKMeansSeedDeterministic(t *testing.T) {
	points := datagen.GeoPoints(100, 3, 1, 5)
	s1 := KMeansSeed(points, 4)
	s2 := KMeansSeed(points, 4)
	if len(s1) != 4 {
		t.Fatalf("seed size %d", len(s1))
	}
	for i := range s1 {
		if !s1[i].Equal(s2[i]) {
			t.Fatal("seed must be deterministic")
		}
	}
}

func TestConvergenceProfileShrinks(t *testing.T) {
	g := datagen.DBPediaGraph(500, 9)
	prof := PageRankConvergence(g, 0.001, 60)
	if len(prof.NonConverged) < 3 {
		t.Fatalf("too few iterations: %d", len(prof.NonConverged))
	}
	first := prof.NonConverged[0]
	last := prof.NonConverged[len(prof.NonConverged)-1]
	if last != 0 {
		t.Fatal("profile should end converged")
	}
	if first <= last {
		t.Fatal("non-converged count should decline")
	}
}

func TestReferenceBFS(t *testing.T) {
	g := &datagen.Graph{NumVertices: 4}
	g.Edges = []types.Tuple{
		types.NewTuple(int64(0), int64(1)),
		types.NewTuple(int64(1), int64(2)),
	}
	d := BFSRef(g, 0)
	if d[0] != 0 || d[1] != 1 || d[2] != 2 || d[3] != -1 {
		t.Fatalf("BFS = %v", d)
	}
}

// shipAs overwrites the plan's decision on every shuffle edge: fold or
// only append.
func shipAs(p *exec.PlanSpec, fold bool) *exec.PlanSpec {
	for _, op := range p.Ops {
		op.Fold = fold
	}
	return p
}

// runSSSPFold executes SSSP on a fresh engine, every shuffle edge folding
// or only appending.
func runSSSPFold(t *testing.T, g *datagen.Graph, fold bool) *exec.Result {
	t.Helper()
	cat := graphCatalog(t)
	cfg := SSSPConfig{Source: 0, Delta: true, MaxIterations: 500}
	jn, wn, err := RegisterSSSP(cat, cfg)
	must(t, err)
	eng := exec.NewEngine(4, 32, 2, cat)
	must(t, eng.Load("graph", 0, g.Edges))
	must(t, eng.Load("spseed", 0, SSSPSeed(cfg)))
	res, err := eng.Run(shipAs(SSSPPlan(cfg, jn, wn), fold), exec.Options{})
	must(t, err)
	return res
}

// Folding the shuffle must not change query results, and it must
// measurably shrink the wire volume: SSSP fans many same-destination
// distance updates into the shuffle, which min-merge collapses.
func TestSSSPCompactionEquivalence(t *testing.T) {
	g := datagen.DBPediaGraph(600, 21)
	off := runSSSPFold(t, g, false)
	on := runSSSPFold(t, g, true)

	wantDist := prMap(off)
	gotDist := prMap(on)
	if len(gotDist) != len(wantDist) {
		t.Fatalf("compaction changed result size: %d vs %d", len(gotDist), len(wantDist))
	}
	for v, d := range wantDist {
		if gotDist[v] != d {
			t.Fatalf("compaction changed dist[%d]: %v vs %v", v, gotDist[v], d)
		}
	}
	if off.CompactIn != 0 || off.CompactOut != 0 {
		t.Fatalf("compaction-off run reported compactor traffic: %d/%d", off.CompactIn, off.CompactOut)
	}
	if on.CompactIn == 0 || on.CompactOut >= on.CompactIn {
		t.Fatalf("compactor did not coalesce: in=%d out=%d", on.CompactIn, on.CompactOut)
	}
	if on.BytesSent >= off.BytesSent {
		t.Fatalf("compaction did not reduce wire bytes: on=%d off=%d", on.BytesSent, off.BytesSent)
	}
}

// PageRank with a sum-merging fold must converge to the same ranks
// (floating-point addition order may differ, hence a tolerance).
func TestPageRankCompactionEquivalence(t *testing.T) {
	g := datagen.DBPediaGraph(400, 23)
	cfg := PageRankConfig{Epsilon: 1e-4, Delta: true, MaxIterations: 200}
	run := func(fold bool) *exec.Result {
		cat := graphCatalog(t)
		jn, wn, err := RegisterPageRank(cat, cfg)
		must(t, err)
		eng := exec.NewEngine(4, 32, 2, cat)
		must(t, eng.Load("graph", 0, g.Edges))
		res, err := eng.Run(shipAs(PageRankPlan(cfg, jn, wn), fold), exec.Options{})
		must(t, err)
		return res
	}
	off := prMap(run(false))
	onRes := run(true)
	on := prMap(onRes)
	if len(on) != len(off) {
		t.Fatalf("compaction changed result size: %d vs %d", len(on), len(off))
	}
	for v, w := range off {
		if math.Abs(on[v]-w) > 0.02*math.Max(w, 1) {
			t.Fatalf("pr[%d] = %v with compaction, %v without", v, on[v], w)
		}
	}
	if onRes.CompactOut >= onRes.CompactIn {
		t.Fatalf("compactor did not coalesce: in=%d out=%d", onRes.CompactIn, onRes.CompactOut)
	}
}
