package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/datagen"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/server"
	"github.com/rex-data/rex/internal/types"
)

// serve-mixed: an in-process rexd (2 nodes x 2 sub-pools, lineitem) on
// loopback; two closed-loop clients draw 70 % prepared point lookups over
// a fixed key pool, 20 % filter scans, 10 % filter-aggregates over 16
// literals. The ad hoc read path, with almost no shuffle, fixpoint or disk.

const (
	pointText = `SELECT linenumber, extendedprice FROM lineitem WHERE orderkey = $1`
	scanText  = `SELECT orderkey, linenumber, extendedprice FROM lineitem WHERE quantity < 2.0 AND linenumber > 6`
	aggFormat = `SELECT returnflag, sum(extendedprice), count(*) FROM lineitem WHERE quantity < %.2f AND linenumber > 1 GROUP BY returnflag`
	aggCount  = 16
)

const (
	classPoint = iota
	classAgg
	classScan
)

// serveOp is one drawn operation of the serve-mixed mix.
type serveOp struct {
	class int
	idx   int // key-pool index (point) or literal index (agg)
}

// serveInputs is everything serve-mixed derives from the seed: the table,
// the key pool, the aggregate literals, and the harness's own model of the
// right answer to every query in the catalogue.
type serveInputs struct {
	rows     []rex.Tuple
	keys     []int64
	aggTexts []string
	pointRef []reference
	aggRef   []reference
	scanRef  reference
}

// aggLiteral spaces the 16 literals a quarter apart from 24.0. quantity is
// whole-valued, so they select five neighbouring row sets (46-54 % of the
// table): sixteen distinct texts for the plan cache, one cost class for
// the latency median.
func aggLiteral(i int) float64 { return 24 + 0.25*float64(i) }

func newServeInputs(e *env) *serveInputs {
	in := &serveInputs{rows: datagen.LineItems(e.sz.lineitemRows, e.seed)}
	byOrder := map[int64][]rex.Tuple{}
	var maxOrder int64
	var scan []rex.Tuple
	for _, r := range in.rows {
		ok, ln, qty, price := r[0].(int64), r[1].(int64), r[2].(float64), r[3].(float64)
		byOrder[ok] = append(byOrder[ok], rex.NewTuple(ln, price))
		maxOrder = max(maxOrder, ok)
		if qty < 2.0 && ln > 6 {
			scan = append(scan, rex.NewTuple(ok, ln, price))
		}
	}
	in.scanRef = newReference(scan)

	// The key pool: distinct order keys, drawn without replacement.
	r := e.rng(1)
	seen := map[int64]bool{}
	for len(in.keys) < e.sz.keyPool {
		k := r.Int63n(maxOrder) + 1
		if !seen[k] {
			seen[k] = true
			in.keys = append(in.keys, k)
			in.pointRef = append(in.pointRef, newReference(byOrder[k]))
		}
	}
	for i := 0; i < aggCount; i++ {
		lit := aggLiteral(i)
		in.aggTexts = append(in.aggTexts, fmt.Sprintf(aggFormat, lit))
		sums, counts := map[string]float64{}, map[string]int64{}
		for _, row := range in.rows {
			if row[2].(float64) < lit && row[1].(int64) > 1 {
				flag := row[6].(string)
				sums[flag] += row[3].(float64)
				counts[flag]++
			}
		}
		var want []rex.Tuple
		for flag, n := range counts {
			want = append(want, rex.NewTuple(flag, sums[flag], n))
		}
		in.aggRef = append(in.aggRef, newReference(want))
	}
	return in
}

// draw picks the next operation: the mix and the key/literal draws come
// from the client's seeded stream only.
func (in *serveInputs) draw(c *client) serveOp {
	switch u := c.rng.Float64(); {
	case u < 0.7:
		return serveOp{classPoint, c.rng.Intn(len(in.keys))}
	case u < 0.9:
		return serveOp{classScan, 0}
	default:
		return serveOp{classAgg, c.rng.Intn(aggCount)}
	}
}

// serveTarget is a session the mix can run against — a rexd client
// session in the window, a direct in-process session in the diff leg.
type serveTarget struct {
	sess *rex.Session
	stmt *rex.Stmt
}

func openServeTarget(ctx context.Context, opts ...rex.Option) (*serveTarget, error) {
	sess, err := rex.Open(ctx, opts...)
	if err != nil {
		return nil, err
	}
	stmt, err := sess.Prepare(pointText)
	if err != nil {
		sess.Close()
		return nil, err
	}
	return &serveTarget{sess: sess, stmt: stmt}, nil
}

// run executes one drawn operation and checks the response.
func (in *serveInputs) run(ctx context.Context, t *serveTarget, c *client, op serveOp) opOutcome {
	var res *rex.Result
	var err error
	var want reference
	h := c.child("rex.query")
	t0 := time.Now()
	switch op.class {
	case classPoint:
		res, err = t.stmt.QueryCtx(ctx, rex.Options{}, in.keys[op.idx])
		want = in.pointRef[op.idx]
	case classScan:
		res, err = t.sess.QueryCtx(ctx, scanText)
		want = in.scanRef
	default:
		res, err = t.sess.QueryCtx(ctx, in.aggTexts[op.idx])
		want = in.aggRef[op.idx]
	}
	lat := time.Since(t0)
	c.lane.end(h)
	if err != nil {
		return c.fail(err)
	}
	if !want.matches(res.Tuples) {
		return c.fail(fmt.Errorf("serve-mixed: class %d idx %d: result hash %s != reference %s",
			op.class, op.idx, resultHash(res.Tuples), want.hash))
	}
	return opOutcome{class: op.class, latency: lat, ok: true}
}

type serveMixed struct {
	in      *serveInputs
	srv     *server.Server
	addr    string
	targets []*serveTarget
}

func (w *serveMixed) name() string      { return "serve-mixed" }
func (w *serveMixed) classes() []string { return []string{"point", "agg", "scan"} }
func (w *serveMixed) nclients() int     { return 2 }
func (w *serveMixed) listeners() []string {
	if w.addr == "" {
		return nil
	}
	return []string{w.addr}
}

func (w *serveMixed) prepare(_ context.Context, e *env) error {
	w.in = newServeInputs(e)
	return nil
}

func (w *serveMixed) setup(ctx context.Context, e *env) error {
	srv, err := server.New(server.Config{Nodes: 2, SubPools: 2,
		Dataset: "lineitem", Size: e.sz.lineitemRows, Seed: e.seed})
	if err != nil {
		return err
	}
	w.srv = srv
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	w.addr = ln.Addr().String()
	for i := 0; i < w.nclients(); i++ {
		t, err := openServeTarget(ctx, rex.WithServer(w.addr))
		if err != nil {
			return err
		}
		w.targets = append(w.targets, t)
	}
	// First correct answer to every text in the catalogue. This also puts
	// every plan in the server's cache, so compiles inside a window count
	// exactly what the window caused (none, unless the cache evicts).
	probe := &client{warm: true}
	ops := []serveOp{{classPoint, 0}, {classScan, 0}}
	for i := 0; i < aggCount; i++ {
		ops = append(ops, serveOp{classAgg, i})
	}
	for _, op := range ops {
		if out := w.in.run(ctx, w.targets[0], probe, op); !out.ok {
			return probe.firstErr
		}
	}
	return nil
}

func (w *serveMixed) step(ctx context.Context, c *client) opOutcome {
	return w.in.run(ctx, w.targets[c.id], c, w.in.draw(c))
}

func (w *serveMixed) endWindow(context.Context, *env) (int, int, error) { return 0, 0, nil }

func (w *serveMixed) counters(ctx context.Context) (counterSet, error) {
	st, err := w.targets[0].sess.Stats(ctx)
	if err != nil {
		return nil, err
	}
	return serverCounters(st.Server), nil
}

// serverCounters flattens the rexd counter snapshot the per-layer metrics
// are derived from.
func serverCounters(s *rex.ServerStats) counterSet {
	return counterSet{
		"rejected": float64(s.Rejected + s.QuotaRejections),
		"compiles": float64(s.Compiles), "cache_hits": float64(s.PlanCacheHits), "cache_misses": float64(s.PlanCacheMisses),
		"kernel_vector": float64(s.KernelVectorBatches), "kernel_bridged": float64(s.KernelBridgedBatches),
		"kernel_fallback": float64(s.KernelFallbackEvals),
	}
}

func (w *serveMixed) teardown() error {
	var err error
	for _, t := range w.targets {
		err = errors.Join(err, t.sess.Close())
	}
	w.targets = nil
	if w.srv != nil {
		err = errors.Join(err, w.srv.Close())
		w.srv = nil
	}
	return err
}

func (w *serveMixed) legs(ctx context.Context, e *env, win *windowResult, m metricSet) error {
	mixOn := func(t *serveTarget) func(context.Context, *client) opOutcome {
		return func(ctx context.Context, c *client) opOutcome { return w.in.run(ctx, t, c, w.in.draw(c)) }
	}
	// Diff leg 1: the same mix from one client, against the same rexd.
	one, err := runLeg(ctx, e, w, "leg.server.one_client", mixOn(w.targets[0]))
	if err != nil {
		return err
	}
	// Diff leg 2: the same mix against a directly opened, identically
	// staged in-process session — the engine's share of the latency.
	direct, err := openServeTarget(ctx, rex.WithInProc(2), rex.WithDataset("lineitem", e.sz.lineitemRows, e.seed))
	if err != nil {
		return err
	}
	defer direct.sess.Close()
	dir, err := runLeg(ctx, e, w, "leg.exec.direct", mixOn(direct))
	if err != nil {
		return err
	}
	m["exec.direct_point_ms"] = dir.hists[classPoint].quantile(0.5) / 1e6
	m["exec.direct_agg_ms"] = dir.hists[classAgg].quantile(0.5) / 1e6
	m["server.overhead_ms"] = one.hists[classPoint].quantile(0.5)/1e6 - m["exec.direct_point_ms"]
	if r := one.opsPerSec(); r > 0 {
		m["server.scaling_2c"] = win.opsPerSec() / r
	}
	serverLayerCounts(win.counts, m)
	m["client.scan_p50_ms"] = win.hists[classScan].quantile(0.5) / 1e6

	// Replay legs over this workload's texts, rows and results.
	texts := append([]string{pointText, scanText}, w.in.aggTexts...)
	results := []weightedResult{{w.in.scanRef.tuples, 0.2}}
	for i := 0; i < 8; i++ { // a sample of the key pool stands for the point class
		results = append(results, weightedResult{w.in.pointRef[i].tuples, 0.7 / 8})
	}
	results = append(results, weightedResult{w.in.aggRef[aggCount/2].tuples, 0.1})
	return replayLayers(e, replayInput{
		cat: direct.sess.Catalog(), nodes: 2,
		texts: texts, stmtText: pointText, stmtArgs: []rex.Value{w.in.keys[0]},
		table: "lineitem", keyCol: 0, kinds: schemaKinds(datagen.LineItemSchema), rows: w.in.rows,
		pred: expr.NewLogic(expr.OpAnd,
			expr.NewCmp(expr.OpLt, expr.NewCol(2, types.KindFloat, "quantity"), expr.NewConst(2.0)),
			expr.NewCmp(expr.OpGt, expr.NewCol(1, types.KindInt, "linenumber"), expr.NewConst(int64(6)))),
		batches: chunkInserts(w.in.rows), churn: syntheticChurn(w.in.rows), results: results,
		spec: &job.Spec{Workload: "rql", Nodes: 2, Dataset: "lineitem", Size: e.sz.lineitemRows,
			Seed: e.seed, Query: w.in.aggTexts[0]},
	}, m)
}

// serverLayerCounts turns a rexd counter delta into the server/exec count
// metrics shared by both server workloads.
func serverLayerCounts(c counterSet, m metricSet) {
	if lookups := c["cache_hits"] + c["cache_misses"]; lookups > 0 {
		m["server.plan_cache_hit_ratio"] = c["cache_hits"] / lookups
	}
	m["server.compiles"] = c["compiles"]
	m["server.rejected"] = c["rejected"]
	kernelLayerCounts(c, m)
}

func kernelLayerCounts(c counterSet, m metricSet) {
	if all := c["kernel_vector"] + c["kernel_bridged"] + c["kernel_fallback"]; all > 0 {
		m["exec.kernel_vector_ratio"] = c["kernel_vector"] / all
	}
	m["exec.kernel_bridged_batches"] = c["kernel_bridged"]
	m["exec.kernel_fallback_evals"] = c["kernel_fallback"]
}

// schemaKinds parses "name:Type" field specs into column kinds.
func schemaKinds(fields []string) []types.Kind {
	s := types.MustSchema(fields...)
	kinds := make([]types.Kind, s.Len())
	for i, f := range s.Fields {
		kinds[i] = f.Kind
	}
	return kinds
}
