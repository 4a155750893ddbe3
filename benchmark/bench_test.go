package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"time"

	"github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/datagen"
)

func TestHistBucketsCoverTheirValues(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		ns := r.Int63n(1 << uint(1+r.Intn(40)))
		b := histBucket(ns)
		lo, hi := histBounds(b)
		if ns < lo || ns >= hi {
			t.Fatalf("value %d landed in bucket %d = [%d, %d)", ns, b, lo, hi)
		}
		if ns >= histSub && float64(hi-lo) > 0.008*float64(lo) {
			t.Fatalf("bucket %d = [%d, %d) is wider than 0.8 %%", b, lo, hi)
		}
	}
	if b := histBucket(math.MaxInt64); b >= histBuckets {
		t.Fatalf("max value needs bucket %d of %d", b, histBuckets)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 1; i <= 10000; i++ { // 1..10000 µs, uniform
		h.record(int64(i) * 1000)
	}
	for _, q := range []float64{0.5, 0.75, 0.95, 0.99} {
		want := q * 10000 * 1000
		if got := h.quantile(q); math.Abs(got-want) > 0.01*want {
			t.Errorf("quantile(%g) = %.0f, want %.0f within 1 %%", q, got, want)
		}
	}
	var a, b hist
	for i := 1; i <= 10000; i++ {
		if i%2 == 0 {
			a.record(int64(i) * 1000)
		} else {
			b.record(int64(i) * 1000)
		}
	}
	a.merge(&b)
	if a.quantile(0.5) != h.quantile(0.5) || a.n != h.n || a.min != h.min || a.max != h.max {
		t.Errorf("merged histogram differs from the whole: p50 %v vs %v", a.quantile(0.5), h.quantile(0.5))
	}
	// Two medians in the same bucket still read differently.
	var c, d hist
	for _, v := range []int64{1000000, 1000100, 1000200} {
		c.record(v)
	}
	for _, v := range []int64{1000000, 1000100, 1000200, 1000300} {
		d.record(v)
	}
	if histBucket(1000000) != histBucket(1000300) {
		t.Fatal("test values were meant to share a bucket")
	}
	if c.quantile(0.5) == d.quantile(0.5) {
		t.Errorf("interpolation lost: both medians read %v", c.quantile(0.5))
	}
	var empty hist
	if empty.quantile(0.5) != 0 || empty.timing().N != 0 {
		t.Error("empty histogram must report zero")
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{{0, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, ID: 1},
		{Name: "rex.query", Start: 10, End: 30, ID: 2, Parent: 1},
		{Name: "rex.query", Start: 20, End: 50, ID: 3, Parent: 1}, // overlaps the first child
		{Name: "check", Start: 60, End: 70, ID: 4, Parent: 1},
		{Name: "inner", Start: 62, End: 66, ID: 5, Parent: 4},
		{Name: "late", Start: 90, End: 120, ID: 6, Parent: 1}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]selfTotal{
		"op":        {Count: 1, DurNs: 100, SelfNs: 100 - 40 - 10 - 10},
		"rex.query": {Count: 2, DurNs: 50, SelfNs: 50},
		"check":     {Count: 1, DurNs: 10, SelfNs: 6},
		"inner":     {Count: 1, DurNs: 4, SelfNs: 4},
		"late":      {Count: 1, DurNs: 30, SelfNs: 30},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %+v\nwant %+v", got, want)
	}
	// The untraced pass records nothing and must not crash.
	var none *tracer
	ln := none.lane()
	h := ln.begin("op", 0, 0)
	ln.end(h)
	ln.flush()
	if ln.id(h) != 0 || len(none.all()) != 0 {
		t.Error("nil tracer recorded something")
	}
}

func TestCanonicalHash(t *testing.T) {
	a := []rex.Tuple{rex.NewTuple(int64(1), 2.5, "x"), rex.NewTuple(int64(2), nil, "y")}
	b := []rex.Tuple{a[1], a[0]}
	if resultHash(a) != resultHash(b) {
		t.Error("hash depends on row order")
	}
	wiggle := []rex.Tuple{rex.NewTuple(int64(1), 2.5+1e-13, "x"), a[1]}
	if resultHash(a) != resultHash(wiggle) {
		t.Error("hash sees a 1e-13 float wiggle")
	}
	for _, other := range [][]rex.Tuple{
		{rex.NewTuple(int64(1), 2.6, "x"), a[1]},
		{rex.NewTuple(int64(1), 2.5, "z"), a[1]},
		{a[0]},
		{a[0], a[1], a[1]},
		{rex.NewTuple(int64(1), 2.5, "x"), rex.NewTuple(int64(2), 0.0, "y")}, // NULL is not 0
	} {
		if resultHash(a) == resultHash(other) {
			t.Errorf("hash does not tell %v from %v", a, other)
		}
		if newReference(a).matches(other) {
			t.Errorf("reference %v matches %v", a, other)
		}
	}
	// A float on the other side of a rounding boundary changes the hash but
	// still matches the reference.
	x := []rex.Tuple{rex.NewTuple(int64(7), 1.0000005)}
	y := []rex.Tuple{rex.NewTuple(int64(7), 1.0000005-1e-12)}
	if resultHash(x) == resultHash(y) {
		t.Skip("values did not straddle a rounding boundary on this platform")
	}
	if !newReference(x).matches(y) {
		t.Error("reference rejects a 1e-12 difference across a rounding boundary")
	}
}

func TestFoldReplaysDeltas(t *testing.T) {
	f := newFold()
	row := func(k int64, v float64) rex.Tuple { return rex.NewTuple(k, v) }
	f.apply([]rex.Delta{rex.Insert(row(1, 1)), rex.Insert(row(2, 2)), rex.Insert(row(2, 2))})
	f.apply([]rex.Delta{rex.Delete(row(2, 2)), rex.Replace(row(1, 1), row(1, 5)), rex.Delete(row(9, 9))})
	want := []rex.Tuple{row(1, 5), row(2, 2)}
	if !newReference(want).matches(f.tuples()) {
		t.Errorf("fold = %v, want %v", f.tuples(), want)
	}
}

func testEnv(seed int64) *env { return &env{seed: seed, sz: smokeSizes} }

// TestGeneratorsFollowTheSeed: the same seed gives the same inputs and the
// same operation schedule; another seed gives different keys.
func TestGeneratorsFollowTheSeed(t *testing.T) {
	schedule := func(in *serveInputs, e *env) []serveOp {
		c := &client{rng: e.rng(200)}
		ops := make([]serveOp, 200)
		for i := range ops {
			ops[i] = in.draw(c)
		}
		return ops
	}
	a, b, other := newServeInputs(testEnv(1)), newServeInputs(testEnv(1)), newServeInputs(testEnv(2))
	if !reflect.DeepEqual(a.keys, b.keys) || !reflect.DeepEqual(schedule(a, testEnv(1)), schedule(b, testEnv(1))) {
		t.Error("serve-mixed: same seed, different keys or schedule")
	}
	if reflect.DeepEqual(a.keys, other.keys) || reflect.DeepEqual(schedule(a, testEnv(1)), schedule(other, testEnv(2))) {
		t.Error("serve-mixed: different seed, same keys or schedule")
	}
	mix := map[int]int{}
	for _, op := range schedule(a, testEnv(1)) {
		mix[op.class]++
	}
	if mix[classPoint] < 120 || mix[classScan] < 20 || mix[classAgg] < 8 {
		t.Errorf("serve-mixed: mix %v is not 70/20/10", mix)
	}

	churn := func(seed int64) [][]rex.Delta {
		m := newFeedModel(testEnv(seed).rng(1), 500)
		return [][]rex.Delta{m.nextBatch(), m.nextBatch()}
	}
	if !reflect.DeepEqual(churn(1), churn(1)) || reflect.DeepEqual(churn(1), churn(2)) {
		t.Error("standing-churn: batches do not follow the seed")
	}
	if n := len(churn(1)[0]); n != 2*churnHalf {
		t.Errorf("standing-churn: batch of %d deltas, want %d", n, 2*churnHalf)
	}

	edges := func(seed int64) []rex.Delta {
		w := &clusterDurable{base: datagen.DBPediaGraph(300, graphSeed), rng: testEnv(seed).rng(1)}
		return w.nextEdges()
	}
	if !reflect.DeepEqual(edges(1), edges(1)) || reflect.DeepEqual(edges(1), edges(2)) {
		t.Error("cluster-durable: edge batches do not follow the seed")
	}
}

// TestFeedModelTracksItsBatches: applying the model's own batches to a fold
// reproduces the model's aggregate input.
func TestFeedModelTracksItsBatches(t *testing.T) {
	m := newFeedModel(testEnv(1).rng(1), 300)
	f := newFold()
	for _, row := range m.live {
		f.add(row)
	}
	for i := 0; i < 50; i++ {
		f.apply(m.nextBatch())
	}
	if !newReference(m.live).matches(f.tuples()) {
		t.Error("model rows drifted from the batches it handed out")
	}
	var total int64
	for _, g := range m.aggregate() {
		total += g[1].(int64)
	}
	if total != 300 {
		t.Errorf("aggregate counts %d rows, table holds 300", total)
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the tables the binary
// reports from, and to the contract's limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs from endToEndDefs:\n%+v\n%+v", doc.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayerDefs) {
		t.Errorf("per_layer differs from perLayerDefs")
	}
	if len(doc.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadDefs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d differs from workloadDefs", i)
		}
		checkName(w.Name)
		if len(w.Why) > 200 || newWorkload(w.Name) == nil {
			t.Errorf("workload %q: why of %d chars, or not runnable", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range doc.EndToEnd {
		checkName(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end metric %+v is out of the contract's limits", d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	for _, d := range doc.PerLayer {
		checkName(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound != 0 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %+v is out of the contract's limits", d)
		}
	}
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the limits", len(doc.PerLayer), len(doc.EndToEnd))
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v / run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	// 4 + 22 runs per workload must fit the driver's 3420 s with two builds.
	if runs := 4 + 22*len(doc.Workloads); float64(runs)*(float64(doc.RunSeconds)+12) > 3420-240 {
		t.Errorf("%d runs of %d s (+12 s of set-up, warm-up and checks each) do not fit the time cap", runs, doc.RunSeconds)
	}
}

// TestSmoke drives the traced pass of all four workloads on small data with
// short windows: every rex / internal API the benchmark calls is exercised,
// every result is checked, every metric of both lists is produced, and the
// teardown guard runs — so API drift in a layer breaks the tests, not the
// next benchmark run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run skipped in -short mode")
	}
	stop := watchdog(2*time.Minute, os.Stderr)
	defer stop()
	for _, wl := range workloadDefs {
		t.Run(wl.Name, func(t *testing.T) {
			o := options{seed: 1, seconds: 0.5, smoke: true, tmpDir: t.TempDir()}
			if wl.Name == "cluster-durable" {
				o.seconds = 1.5 // its window has two phases; leave the second room under -race
			}
			r, err := runOne(o, wl.Name, true)
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct || r.failed != 0 || r.attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", r.correct, r.attempted, r.failed, r.notes)
			}
			for _, d := range endToEndDefs {
				if v := endToEnd(r)[d.Name]; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, v)
				}
			}
			line := contractLine(r, true)
			if len(line.Metrics) != len(perLayerDefs) {
				t.Errorf("%d per-layer metrics in the contract line, want %d", len(line.Metrics), len(perLayerDefs))
			}
			for name := range r.layers {
				if _, ok := line.Metrics[name]; !ok {
					t.Errorf("layer metric %s is measured but not declared in perLayerDefs", name)
				}
			}
			for _, must := range []string{"rql.compile_us", "types.batch_encode_ns_per_delta",
				"storage.scan_ns_per_row", "pagestore.commit_ms_p50", "harness.op_self_us"} {
				if !(r.layers[must] > 0) {
					t.Errorf("layer metric %s = %v, must be positive on every workload", must, r.layers[must])
				}
			}
			if len(r.spans) == 0 {
				t.Error("traced pass recorded no spans")
			}
		})
	}
}

// TestTeardownGuardCatchesLeftovers: the guard that follows every workload
// must fail on a goroutine, a listener or a temp dir left behind.
func TestTeardownGuardCatchesLeftovers(t *testing.T) {
	w := &serveMixed{}
	e := testEnv(1)
	e.tmpDir = t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := w.prepare(ctx, e); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	if err := w.setup(ctx, e); err != nil {
		t.Fatal(err)
	}
	addrs := w.listeners()
	if err := teardownGuardFor(100*time.Millisecond, base, addrs, ""); err == nil {
		t.Error("guard passed with the server still running")
	}
	if err := w.teardown(); err != nil {
		t.Fatal(err)
	}
	if err := teardownGuard(base, addrs, ""); err != nil {
		t.Errorf("guard failed after a clean teardown: %v", err)
	}
	if err := teardownGuard(base, nil, e.tmpDir); err == nil {
		t.Error("guard passed with the temp dir still there")
	}
}
