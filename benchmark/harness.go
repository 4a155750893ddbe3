package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/rex-data/rex"
)

// sizes fixes every workload's data scale. The full sizes are what the
// README's cache ratios are stated for; the smoke sizes exist so that
// `go test` drives all four workloads end to end in a few seconds.
type sizes struct {
	lineitemRows int // serve-mixed table
	keyPool      int // serve-mixed point-lookup key pool
	fixpointV    int // fixpoint-batch graph vertices
	feedRows     int // standing-churn table
	durableV     int // cluster-durable graph vertices
}

var (
	fullSizes  = sizes{lineitemRows: 60000, keyPool: 512, fixpointV: 7000, feedRows: 50000, durableV: 10000}
	smokeSizes = sizes{lineitemRows: 3000, keyPool: 64, fixpointV: 300, feedRows: 2000, durableV: 300}
)

// graphSeed is the generator seed of both graph datasets. It is fixed:
// across generator seeds the dbpedia-shaped graph's edge count moves by
// +-2 % and its BFS depth between 4 and 6, which moved pagerank_run_ms by
// 6 % and sssp_run_ms by 10 % — more than the machine's own noise. The
// run seed drives what a workload draws (keys, op mix, churn rows, inserted
// edges), not how big its graph happens to be.
const graphSeed = 1

// env is what one workload run is given.
type env struct {
	seed   int64
	sz     sizes
	tmpDir string  // private to this run; removed at teardown
	tr     *tracer // nil on the untraced pass
	// legBudget scales the traced pass's diff and replay legs; legSpan is
	// the span they hang under.
	legBudget time.Duration
	legSpan   int64
}

// rng derives an independent, reproducible random stream from the run
// seed: the same (seed, stream) always yields the same draws.
func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1000003 + stream))
}

// opOutcome is what one client operation reports back to the loop.
type opOutcome struct {
	class   int           // index into workload.classes(); -1 = bookkeeping step, not an operation
	latency time.Duration // time around the public rex call only
	ok      bool          // completed, within deadline, and correct
	deltas  int           // base-table deltas the op ingested
}

// client is one closed-loop client: it sends its next operation when the
// previous one completes.
type client struct {
	id   int
	rng  *rand.Rand
	lane *lane
	seq  int64 // operations issued; with id it forms the op_id of spans
	// opSpan/opID identify the operation in flight, for its child spans.
	opSpan int
	opID   int64
	// warm marks a warm-up (or set-up probe) client: nothing it does is
	// recorded, and cluster-durable stays in its first phase.
	warm bool
	// frac is how far through the current phase the client is (0..1).
	frac float64

	hists     []hist
	attempted int64
	failed    int64
	deltas    int64
	firstErr  error
}

// child opens a span under the operation in flight.
func (c *client) child(name string) int {
	return c.lane.begin(name, c.lane.id(c.opSpan), c.opID)
}

func (c *client) fail(err error) opOutcome {
	if c.firstErr == nil {
		c.firstErr = err
	}
	return opOutcome{}
}

// workload is one of the four benchmark workloads.
type workload interface {
	name() string
	// classes names the operation classes; class 0 is the workload's
	// primary class, class 1 its secondary (see README).
	classes() []string
	// prepare builds seeded inputs, the harness's model and the reference
	// results. Untimed, and done before the heap baseline is taken.
	prepare(ctx context.Context, e *env) error
	// setup deploys the system under test and brings it to its first
	// correct answer. Timed: setup_s.
	setup(ctx context.Context, e *env) error
	// nclients is the closed-loop client count (1 or 2).
	nclients() int
	// step runs client c's next operation.
	step(ctx context.Context, c *client) opOutcome
	// endWindow runs once the clients of a measured window have stopped,
	// with everything still open: the end-state correctness checks. It
	// returns how many checks ran and how many failed.
	endWindow(ctx context.Context, e *env) (checks, failed int, err error)
	// counters snapshots the public per-layer counters (cumulative).
	counters(ctx context.Context) (counterSet, error)
	// legs runs the traced pass's diff and replay legs.
	legs(ctx context.Context, e *env, win *windowResult, m metricSet) error
	// teardown closes every listener, session, daemon and temp dir.
	teardown() error
	// listeners reports the addresses setup bound, for the teardown guard.
	listeners() []string
}

// oneClientLeg pins a workload to a single client running one kind of
// step: the single-client diff legs of the traced pass.
type oneClientLeg struct {
	workload
	run func(ctx context.Context, c *client) opOutcome
}

func (l *oneClientLeg) nclients() int                                 { return 1 }
func (l *oneClientLeg) step(ctx context.Context, c *client) opOutcome { return l.run(ctx, c) }

// runLeg runs a diff leg — one client looping run for ten leg budgets,
// under a span called name — and fails if any of its operations did.
func runLeg(ctx context.Context, e *env, w workload, name string, run func(context.Context, *client) opOutcome) (*windowResult, error) {
	ln := e.tr.lane()
	h := ln.begin(name, e.legSpan, 0)
	res := runWindow(ctx, &oneClientLeg{w, run}, e, 10*e.legBudget, true, nil, 400)
	ln.end(h)
	ln.flush()
	if res.failed > 0 {
		return nil, fmt.Errorf("%s: %d failed ops (first: %v)", name, res.failed, res.firstErr)
	}
	return res, nil
}

// drainInto folds whatever a subscription stream has buffered into view
// (nil discards it). After an Ingest call returns, its whole covering
// round is buffered.
func drainInto(st *rex.DeltaStream, view *fold) {
	for {
		b, ok := st.TryNext()
		if !ok {
			return
		}
		if view != nil {
			view.apply(b.Deltas)
		}
	}
}

// ingestOp sends one batch through sub and folds the round it caused into
// view. Latency is the Ingest call alone: ingest call to covering-round
// ack. Both ingesting workloads have ingest as class 0. The covering
// round's stats are appended to rounds outside warm-up.
func ingestOp(ctx context.Context, c *client, sub *rex.Subscription, table string, batch []rex.Delta, view *fold, rounds *[]rex.RoundStats) opOutcome {
	h := c.child("rex.ingest")
	t0 := time.Now()
	rs, err := sub.Ingest(ctx, table, batch)
	lat := time.Since(t0)
	c.lane.end(h)
	if err != nil {
		return c.fail(err)
	}
	h = c.child("rex.stream_drain")
	drainInto(sub.Stream(), view)
	c.lane.end(h)
	if rs != nil && !c.warm {
		*rounds = append(*rounds, *rs)
	}
	return opOutcome{class: 0, latency: lat, ok: true, deltas: len(batch)}
}

// counterSet is a named snapshot of cumulative counters.
type counterSet map[string]float64

func (a counterSet) minus(b counterSet) counterSet {
	out := counterSet{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// windowResult is what one closed-loop window measured.
type windowResult struct {
	elapsed   time.Duration
	hists     []hist // per class, merged over clients
	attempted int64
	failed    int64
	deltas    int64
	counts    counterSet // counters delta around the window
	firstErr  error
}

func (w *windowResult) opsPerSec() float64 {
	var n uint64
	for i := range w.hists {
		n += w.hists[i].n
	}
	return float64(n) / w.elapsed.Seconds()
}

// runWindow drives the workload's clients for dur. Each client issues
// operations back to back until the deadline; the operation in flight at
// the deadline completes and counts, and throughput is taken over the
// span up to the last completion, so a 1.4 s fixpoint run straddling the
// deadline does not quantise the rate. With record=false (warm-up)
// nothing is kept.
func runWindow(ctx context.Context, w workload, e *env, dur time.Duration, record bool, tr *tracer, seedStream int64) *windowResult {
	n := w.nclients()
	clients := make([]*client, n)
	for i := range clients {
		clients[i] = &client{id: i, rng: e.rng(seedStream + int64(i)), lane: tr.lane(),
			warm: !record, hists: make([]hist, len(w.classes()))}
	}
	start := time.Now()
	deadline := start.Add(dur)
	ends := make([]time.Time, n)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for {
				now := time.Now()
				if !now.Before(deadline) || ctx.Err() != nil {
					break
				}
				c.frac = float64(now.Sub(start)) / float64(dur)
				c.seq++
				c.opID = int64(c.id+1)<<40 | c.seq
				c.opSpan = c.lane.begin("op", 0, c.opID)
				out := w.step(ctx, c)
				c.lane.end(c.opSpan)
				if out.class < 0 && out.ok {
					continue
				}
				c.attempted++
				if !out.ok {
					c.failed++
					continue
				}
				c.hists[out.class].record(int64(out.latency))
				c.deltas += int64(out.deltas)
			}
			ends[i] = time.Now()
			c.lane.flush()
		}(i, c)
	}
	wg.Wait()
	res := &windowResult{hists: make([]hist, len(w.classes()))}
	last := start
	for i, c := range clients {
		if ends[i].After(last) {
			last = ends[i]
		}
		for k := range c.hists {
			res.hists[k].merge(&c.hists[k])
		}
		res.attempted += c.attempted
		res.failed += c.failed
		res.deltas += c.deltas
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
	}
	res.elapsed = last.Sub(start)
	return res
}

// liveHeapMB forces a collection and reports the Go heap still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// teardownGuard asserts that a torn-down workload left nothing behind:
// the goroutine count is back to the pre-setup baseline, every listener
// it bound refuses connections, and its temp dir is gone. This is the
// check whose absence let an earlier benchmark leave a server running.
func teardownGuard(baseGoroutines int, addrs []string, tmpDir string) error {
	return teardownGuardFor(5*time.Second, baseGoroutines, addrs, tmpDir)
}

// teardownGuardFor is teardownGuard with the grace period goroutines get
// to finish unwinding.
func teardownGuardFor(grace time.Duration, baseGoroutines int, addrs []string, tmpDir string) error {
	deadline := time.Now().Add(grace)
	for runtime.NumGoroutine() > baseGoroutines {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("teardown: %d goroutines, baseline %d\n%s", runtime.NumGoroutine(), baseGoroutines, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a, 200*time.Millisecond); err == nil {
			c.Close()
			return fmt.Errorf("teardown: listener %s still accepts connections", a)
		}
	}
	if tmpDir != "" {
		if _, err := os.Stat(tmpDir); err == nil {
			return fmt.Errorf("teardown: temp dir %s still exists", tmpDir)
		}
	}
	return nil
}

// runResult is one workload run: the untraced (or traced) window, set-up
// time, heap, correctness counts, and on the traced pass the layer metrics.
type runResult struct {
	workload  string
	classes   []string
	win       *windowResult
	setupS    float64   // median of the timed set-ups
	setups    []float64 // every timed set-up
	heapMB    float64
	attempted int64
	failed    int64
	correct   bool
	notes     []string
	layers    metricSet // traced pass only
	spans     []span
}

// runOpts shapes one workload run.
type runOpts struct {
	seconds  float64
	warmup   time.Duration
	nsetups  int
	traced   bool
	deadline time.Duration // per-workload context deadline
}

func defaultOpts(seconds float64, traced bool) runOpts {
	warm := time.Duration(seconds / 10 * float64(time.Second))
	warm = min(max(warm, 50*time.Millisecond), 2*time.Second)
	return runOpts{seconds: seconds, warmup: warm, nsetups: 3, traced: traced,
		deadline: time.Duration(seconds*2*float64(time.Second)) + 90*time.Second}
}

// runWorkload runs one workload once: prepare, set up (several times, for
// a median set-up time), warm up, measure, check, and tear down.
//
// On the traced pass the window is 40 % of the untraced pass's, and it is
// measured twice on two identically set-up deployments: the second-to-last
// untraced, the last traced. Their throughput ratio is the tracing
// overhead (a second window on the same deployment would not do: churn
// and ingest workloads leave it in a different state). The diff and replay
// legs follow on the last deployment.
func runWorkload(w workload, e *env, o runOpts) (res *runResult, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), o.deadline)
	defer cancel()
	res = &runResult{workload: w.name(), classes: w.classes()}
	base := runtime.NumGoroutine()

	if err := os.MkdirAll(e.tmpDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.tmpDir)

	if err := w.prepare(ctx, e); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name(), err)
	}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		window = window * 2 / 5
	}

	// Every deployment is torn down and checked by the guard: a leftover
	// goroutine, listener or temp dir fails the run.
	var addrs []string
	live := false
	teardown := func(tmpDir string) error {
		live = false
		if err := w.teardown(); err != nil {
			return fmt.Errorf("%s: teardown: %w", w.name(), err)
		}
		if tmpDir != "" {
			os.RemoveAll(tmpDir)
		}
		if err := teardownGuard(base, addrs, tmpDir); err != nil {
			return fmt.Errorf("%s: %w", w.name(), err)
		}
		return nil
	}
	defer func() {
		if !live {
			return
		}
		if terr := teardown(e.tmpDir); terr != nil && err == nil {
			res, err = nil, terr
		}
	}()

	// Set up several times and report the median; the last deployment is
	// the one measured. The heap baseline is taken just before it.
	var heapBase float64
	var untraced *windowResult
	for i := 0; i < o.nsetups; i++ {
		heapBase = liveHeapMB()
		t0 := time.Now()
		live = true
		if err := w.setup(ctx, e); err != nil {
			addrs = w.listeners()
			return nil, fmt.Errorf("%s: setup: %w", w.name(), err)
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
		addrs = w.listeners()
		if i == o.nsetups-1 {
			break
		}
		if o.traced && i == o.nsetups-2 {
			runWindow(ctx, w, e, o.warmup, false, nil, 100)
			if untraced, err = measure(ctx, w, e, window, nil, 200, res); err != nil {
				return nil, err
			}
		}
		if err := teardown(""); err != nil {
			return nil, err
		}
	}
	res.setupS = median(res.setups)

	runWindow(ctx, w, e, o.warmup, false, nil, 100)
	if res.win, err = measure(ctx, w, e, window, e.tr, 200, res); err != nil {
		return nil, err
	}
	res.heapMB = liveHeapMB() - heapBase
	if res.win.firstErr != nil {
		res.notes = append(res.notes, "first failed op: "+res.win.firstErr.Error())
	}

	if o.traced {
		res.layers = metricSet{}
		ln := e.tr.lane()
		h := ln.begin("legs", 0, 0)
		e.legSpan = ln.id(h)
		lerr := w.legs(ctx, e, res.win, res.layers)
		ln.end(h)
		ln.flush()
		if lerr != nil {
			return nil, fmt.Errorf("%s: legs: %w", w.name(), lerr)
		}
		clientLayerMetrics(res, untraced)
		res.spans = e.tr.all()
		spanLayerMetrics(res)
	}
	if err := teardown(e.tmpDir); err != nil {
		return nil, err
	}
	res.correct = res.failed == 0
	return res, nil
}

// measure runs one recorded window bracketed by counter snapshots and
// followed by the workload's end-state checks.
func measure(ctx context.Context, w workload, e *env, dur time.Duration, tr *tracer, stream int64, res *runResult) (*windowResult, error) {
	before, err := w.counters(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: counters: %w", w.name(), err)
	}
	win := runWindow(ctx, w, e, dur, true, tr, stream)
	after, err := w.counters(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: counters: %w", w.name(), err)
	}
	win.counts = after.minus(before)
	checks, bad, err := w.endWindow(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("%s: end-of-window check: %w", w.name(), err)
	}
	res.attempted += win.attempted + int64(checks)
	res.failed += win.failed + int64(bad)
	return win, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// timeLoop runs fn repeatedly for about budget (at least three times) and
// returns the mean nanoseconds per call.
func timeLoop(budget time.Duration, fn func()) float64 {
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start) < budget {
		fn()
		n++
	}
	return float64(time.Since(start)) / float64(n)
}
