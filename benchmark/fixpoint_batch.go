package main

import (
	"context"
	"fmt"
	"time"

	"github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/datagen"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/types"
)

// fixpoint-batch: one in-process two-node session over the dbpedia-shaped
// graph; one client alternates delta PageRank (epsilon 0.001) and SSSP, each
// to fixpoint. The paper's headline computation: nearly all time is exec
// fixpoint/rehash, the compactor and frame codec, and batch<->row
// conversion. No server, socket or page store runs, so a change to those
// layers must show no movement here.

const (
	classPageRank = iota
	classSSSP
)

// graphKinds is the (srcId, destId) edge table both graph workloads stage.
var graphKinds = []types.Kind{types.KindInt, types.KindInt}

// graphProbe is the predicate the expr replay legs run over an edge table.
// Neither graph workload filters its edges, so this is a stated probe
// (srcId < destId), not a captured predicate.
func graphProbe() expr.Expr {
	return expr.NewCmp(expr.OpLt, expr.NewCol(0, types.KindInt, "srcId"), expr.NewCol(1, types.KindInt, "destId"))
}

// pageRankText is Listing 1 as examples/pagerank writes it, over the
// handler names RegisterPageRank returns.
func pageRankText(joinH, whileH string) string {
	return `
WITH PR (srcId, pr) AS (
  SELECT srcId, 1.0 AS pr FROM graph
) UNION UNTIL FIXPOINT BY srcId USING ` + whileH + ` (
  SELECT nbr, 0.15 + 0.85 * sum(prDiff)
  FROM (SELECT ` + joinH + `(srcId, pr).{nbr, prDiff}
        FROM graph, PR WHERE graph.srcId = PR.srcId GROUP BY srcId)
  GROUP BY nbr)`
}

// bfsReference is the SSSP answer from the harness's own BFS: one
// (vertex, hops) row per reachable vertex.
func bfsReference(g *datagen.Graph) reference {
	var want []rex.Tuple
	for v, d := range algos.BFSRef(g, 0) {
		if d >= 0 {
			want = append(want, rex.NewTuple(int64(v), float64(d)))
		}
	}
	return newReference(want)
}

// openGraphSession opens an in-process session staged with the "sssp"
// dataset (graph + one-row seed), the incremental-SSSP handler bundle and
// the delta PageRank handlers.
func openGraphSession(ctx context.Context, vertices int) (*rex.Session, string, error) {
	s, err := rex.Open(ctx, rex.WithInProc(2), rex.WithDataset("sssp", vertices, graphSeed), rex.WithHandlers("sssp-inc"))
	if err != nil {
		return nil, "", err
	}
	joinH, whileH, err := algos.RegisterPageRank(s.Catalog(), algos.PageRankConfig{Epsilon: 0.001, Delta: true})
	if err != nil {
		s.Close()
		return nil, "", err
	}
	return s, pageRankText(joinH, whileH), nil
}

// fixpointOpts are the per-query options of both fixpoints: compaction on
// (the shuffle compactor is one of the layers this workload prices).
func fixpointOpts() []rex.QueryOption {
	return []rex.QueryOption{rex.WithMaxStrata(500), rex.WithCompaction(0)}
}

type fixpointBatch struct {
	g       *datagen.Graph
	prText  string
	prRef   reference
	ssspRef reference
	sess    *rex.Session
	runs    [2][]*rex.Result // results of the recorded window, by class
}

func (w *fixpointBatch) name() string        { return "fixpoint-batch" }
func (w *fixpointBatch) classes() []string   { return []string{"pagerank", "sssp"} }
func (w *fixpointBatch) nclients() int       { return 1 }
func (w *fixpointBatch) listeners() []string { return nil }

func (w *fixpointBatch) prepare(ctx context.Context, e *env) error {
	w.g = datagen.DBPediaGraph(e.sz.fixpointV, graphSeed)
	w.ssspRef = bfsReference(w.g)
	// The PageRank reference is the row (non-vectorized) path's answer on
	// a session of its own.
	s, text, err := openGraphSession(ctx, e.sz.fixpointV)
	if err != nil {
		return err
	}
	defer s.Close()
	res, err := s.QueryCtx(ctx, text, append(fixpointOpts(), rex.WithNoVectorize())...)
	if err != nil {
		return err
	}
	if len(res.Tuples) != w.g.NumVertices {
		return fmt.Errorf("pagerank reference has %d rows for %d vertices", len(res.Tuples), w.g.NumVertices)
	}
	w.prRef = newReference(res.Tuples)
	return nil
}

func (w *fixpointBatch) setup(ctx context.Context, e *env) error {
	s, text, err := openGraphSession(ctx, e.sz.fixpointV)
	if err != nil {
		return err
	}
	w.sess, w.prText = s, text
	// First correct answer: one SSSP run against the BFS reference.
	probe := &client{seq: 1, warm: true}
	if out := w.step(ctx, probe); !out.ok {
		return probe.firstErr
	}
	return nil
}

// step alternates SSSP and PageRank; every result is checked. The short
// one goes first, so even a window shorter than a PageRank run samples
// both classes (the run in flight at the deadline completes and counts).
func (w *fixpointBatch) step(ctx context.Context, c *client) opOutcome {
	class, text, want := classPageRank, w.prText, w.prRef
	if c.seq%2 == 1 {
		class, text, want = classSSSP, algos.IncSSSPQuery, w.ssspRef
	}
	h := c.child("rex.query")
	t0 := time.Now()
	res, err := w.sess.QueryCtx(ctx, text, fixpointOpts()...)
	lat := time.Since(t0)
	c.lane.end(h)
	if err != nil {
		return c.fail(err)
	}
	if !want.matches(res.Tuples) {
		return c.fail(fmt.Errorf("fixpoint-batch: %s result hash %s != reference %s",
			w.classes()[class], resultHash(res.Tuples), want.hash))
	}
	if !c.warm {
		res.Tuples = nil
		w.runs[class] = append(w.runs[class], res)
	}
	return opOutcome{class: class, latency: lat, ok: true}
}

func (w *fixpointBatch) endWindow(context.Context, *env) (int, int, error) { return 0, 0, nil }

func (w *fixpointBatch) counters(context.Context) (counterSet, error) {
	return localCounters(w.sess), nil
}

func (w *fixpointBatch) teardown() error {
	if w.sess == nil {
		return nil
	}
	err := w.sess.Close()
	w.sess = nil
	return err
}

func (w *fixpointBatch) legs(ctx context.Context, e *env, win *windowResult, m metricSet) error {
	runs := w.runs[classPageRank]
	if len(runs) == 0 {
		return fmt.Errorf("no PageRank run completed in the traced window")
	}
	fixpointRunMetrics(runs, m)
	kernelLayerCounts(win.counts, m)

	// One streamed PageRank run supplies the per-stratum delta batches the
	// codec legs replay.
	batches, results, err := captureStream(ctx, w.sess, w.prText, e)
	if err != nil {
		return err
	}
	return replayLayers(e, replayInput{
		cat: w.sess.Catalog(), nodes: 2,
		texts: []string{w.prText, algos.IncSSSPQuery}, stmtText: algos.IncSSSPQuery,
		table: "graph", keyCol: 0, kinds: graphKinds, rows: w.g.Edges, pred: graphProbe(),
		batches: batches, churn: syntheticChurn(w.g.Edges), results: results,
		spec: &job.Spec{Workload: "rql", Nodes: 2, Dataset: "sssp", Handlers: "sssp-inc",
			Size: e.sz.fixpointV, Seed: graphSeed, Query: algos.IncSSSPQuery, Compaction: true},
	}, m)
}

// fixpointRunMetrics derives the exec and cluster count metrics from the
// Result records of a class's runs: the paper's per-stratum numbers.
func fixpointRunMetrics(runs []*rex.Result, m metricSet) {
	var strata hist
	var wire, compactIn, compactOut, deltas, firstNs, totalNs int64
	var maxNs int64
	for _, r := range runs {
		wire += r.BytesSent
		compactIn += r.CompactIn
		compactOut += r.CompactOut
		for i, s := range r.Strata {
			strata.record(int64(s.Duration))
			maxNs = max(maxNs, int64(s.Duration))
			deltas += int64(s.NewTuples)
			totalNs += int64(s.Duration)
			if i == 0 {
				firstNs += int64(s.Duration)
			}
		}
	}
	n := float64(len(runs))
	// Strata and delta counts are exact and repeat run to run: report one
	// run's, not a mean that hides a drift.
	m["exec.strata_per_run"] = float64(len(runs[0].Strata))
	var first int64
	for _, s := range runs[0].Strata {
		first += int64(s.NewTuples)
	}
	m["exec.delta_tuples_per_run"] = float64(first)
	m["exec.stratum_ms_p50"] = strata.quantile(0.5) / 1e6
	m["exec.stratum_ms_max"] = float64(maxNs) / 1e6
	if totalNs > 0 {
		m["exec.first_stratum_share"] = float64(firstNs) / float64(totalNs)
	}
	m["cluster.wire_bytes_per_run"] = float64(wire) / n
	if deltas > 0 {
		m["cluster.wire_bytes_per_delta"] = float64(wire) / float64(deltas)
	}
	m["cluster.shuffle_deltas_per_run"] = float64(compactIn) / n
	if compactOut > 0 {
		m["cluster.compact_ratio"] = float64(compactIn) / float64(compactOut)
	}
}

// captureStream runs text once through Session.Stream and returns its
// per-stratum delta batches plus the folded result.
func captureStream(ctx context.Context, s *rex.Session, text string, e *env) ([][]rex.Delta, []weightedResult, error) {
	ln := e.tr.lane()
	defer ln.flush()
	h := ln.begin("rex.stream_drain", e.legSpan, 0)
	defer ln.end(h)
	st, err := s.Stream(ctx, text, fixpointOpts()...)
	if err != nil {
		return nil, nil, err
	}
	var batches [][]rex.Delta
	view := newFold()
	for {
		b, ok := st.Next()
		if !ok {
			break
		}
		if len(b.Deltas) > 0 {
			batches = append(batches, b.Deltas)
			view.apply(b.Deltas)
		}
	}
	if err := st.Err(); err != nil {
		return nil, nil, err
	}
	return batches, []weightedResult{{view.tuples(), 1}}, nil
}

// syntheticChurn is a 64-delta batch over a table's first rows (32
// deletes, 32 re-inserts) for the storage replay legs of a workload that
// does not ingest.
func syntheticChurn(rows []rex.Tuple) []rex.Delta {
	ins := types.Inserts(rows[:min(32, len(rows))]...)
	return append(invert(ins), ins...)
}

// localCounters snapshots the counters a directly opened session exposes.
func localCounters(s *rex.Session) counterSet {
	st, _ := s.Stats(context.Background()) // local sessions never error
	return counterSet{
		"kernel_vector": float64(st.Kernel.VectorBatches), "kernel_bridged": float64(st.Kernel.BridgedBatches),
		"kernel_fallback": float64(st.Kernel.FallbackEvals),
		"pool_hits":       float64(st.Pool.Hits), "pool_misses": float64(st.Pool.Misses),
		"pool_evictions": float64(st.Pool.Evictions), "pool_spilled": float64(st.Pool.BytesSpilled),
	}
}
