package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/server"
	"github.com/rex-data/rex/internal/types"
)

// standing-churn: an in-process rexd (2 nodes x 2 sub-pools) holding
// feed(id, k, v). Client W keeps a resident subscription on a count/sum
// group-by (delete-exact) and ingests 64-delta batches — 32 inserts and 32
// deletes of live rows; client R runs the same aggregate ad hoc beside it.
// The write use of the layers serve-mixed only reads: ingest fan-out to the
// staged copies, the replay log, resident flows and pump rounds, with reads
// contending.

const (
	churnText   = `SELECT k, count(*), sum(v) FROM feed GROUP BY k`
	churnGroups = 64
	churnHalf   = 32 // inserts per batch, and deletes per batch
)

const (
	classIngest = iota
	classChurnAgg
)

var feedFields = []string{"id:Integer", "k:Integer", "v:Double"}

// feedModel is the harness's own copy of the feed table and the generator
// of its churn. v is whole-valued, so sums are exact in float64 whatever
// the order of additions and retractions.
type feedModel struct {
	rng    *rand.Rand
	live   []rex.Tuple
	nextID int64
}

func newFeedModel(r *rand.Rand, rows int) *feedModel {
	m := &feedModel{rng: r}
	for i := 0; i < rows; i++ {
		m.live = append(m.live, m.newRow())
	}
	return m
}

func (m *feedModel) newRow() rex.Tuple {
	t := rex.NewTuple(m.nextID, int64(m.rng.Intn(churnGroups)), float64(m.rng.Intn(1000)+1))
	m.nextID++
	return t
}

// nextBatch draws one churn batch and applies it to the model.
func (m *feedModel) nextBatch() []rex.Delta {
	batch := make([]rex.Delta, 0, 2*churnHalf)
	for i := 0; i < churnHalf; i++ {
		j := m.rng.Intn(len(m.live))
		batch = append(batch, rex.Delete(m.live[j]))
		m.live[j] = m.newRow()
		batch = append(batch, rex.Insert(m.live[j]))
	}
	return batch
}

// aggregate is the model's answer to churnText.
func (m *feedModel) aggregate() []rex.Tuple {
	counts, sums := map[int64]int64{}, map[int64]float64{}
	for _, t := range m.live {
		k := t[1].(int64)
		counts[k]++
		sums[k] += t[2].(float64)
	}
	out := make([]rex.Tuple, 0, len(counts))
	for k, n := range counts {
		out = append(out, rex.NewTuple(k, n, sums[k]))
	}
	return out
}

type standingChurn struct {
	model  *feedModel
	srv    *server.Server
	addr   string
	writer *rex.Session
	reader *rex.Session
	sub    *rex.Subscription
	view   *fold // fold of the subscription stream
	rows   int
	rounds []rex.RoundStats // covering rounds of the recorded windows
}

func (w *standingChurn) name() string      { return "standing-churn" }
func (w *standingChurn) classes() []string { return []string{"ingest", "agg"} }
func (w *standingChurn) nclients() int     { return 2 }
func (w *standingChurn) listeners() []string {
	if w.addr == "" {
		return nil
	}
	return []string{w.addr}
}

func (w *standingChurn) prepare(_ context.Context, e *env) error {
	w.rows = e.sz.feedRows
	return nil
}

// setup boots the server, loads the table through the writer's session,
// subscribes, and checks the reader's first aggregate against the model.
// The model restarts from the seed each time, so every set-up stages the
// identical table.
func (w *standingChurn) setup(ctx context.Context, e *env) error {
	w.model = newFeedModel(e.rng(1), w.rows)
	srv, err := server.New(server.Config{Nodes: 2, SubPools: 2})
	if err != nil {
		return err
	}
	w.srv = srv
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	w.addr = ln.Addr().String()
	if w.writer, err = rex.Open(ctx, rex.WithServer(w.addr)); err != nil {
		return err
	}
	if err := w.writer.CreateTable("feed", rex.Schema(feedFields...), 0); err != nil {
		return err
	}
	if err := w.writer.Load("feed", w.model.live); err != nil {
		return err
	}
	if w.sub, err = w.writer.Subscribe(ctx, churnText); err != nil {
		return err
	}
	w.view = newFold()
	drainInto(w.sub.Stream(), w.view)
	if w.reader, err = rex.Open(ctx, rex.WithServer(w.addr)); err != nil {
		return err
	}
	res, err := w.reader.QueryCtx(ctx, churnText)
	if err != nil {
		return err
	}
	if want := newReference(w.model.aggregate()); !want.matches(res.Tuples) {
		return fmt.Errorf("standing-churn: first aggregate %s != model %s", resultHash(res.Tuples), want.hash)
	}
	return nil
}

func (w *standingChurn) step(ctx context.Context, c *client) opOutcome {
	if c.id == 0 {
		return w.ingest(ctx, c, w.sub, w.view)
	}
	return w.query(ctx, c, w.reader)
}

// ingest draws the next churn batch and sends it through sub.
func (w *standingChurn) ingest(ctx context.Context, c *client, sub *rex.Subscription, view *fold) opOutcome {
	return ingestOp(ctx, c, sub, "feed", w.model.nextBatch(), view, &w.rounds)
}

// query runs the aggregate ad hoc. The table moves under it, so the
// response is checked for what must hold at any instant: every batch
// swaps 32 rows for 32, so the counts sum to the table size.
func (w *standingChurn) query(ctx context.Context, c *client, s *rex.Session) opOutcome {
	h := c.child("rex.query")
	t0 := time.Now()
	res, err := s.QueryCtx(ctx, churnText)
	lat := time.Since(t0)
	c.lane.end(h)
	if err != nil {
		return c.fail(err)
	}
	var total int64
	for _, t := range res.Tuples {
		n, _ := t[1].(int64)
		total += n
	}
	if total != int64(w.rows) || len(res.Tuples) > churnGroups {
		return c.fail(fmt.Errorf("standing-churn: ad hoc aggregate counts %d rows in %d groups, table holds %d",
			total, len(res.Tuples), w.rows))
	}
	return opOutcome{class: classChurnAgg, latency: lat, ok: true}
}

// endWindow is the exactness contract, checked with the clients stopped:
// fold(stream) == from-scratch query == the harness's model.
func (w *standingChurn) endWindow(ctx context.Context, _ *env) (int, int, error) {
	drainInto(w.sub.Stream(), w.view)
	want := newReference(w.model.aggregate())
	failed := 0
	if !want.matches(w.view.tuples()) {
		failed++
	}
	res, err := w.reader.QueryCtx(ctx, churnText)
	if err != nil {
		return 2, failed + 1, nil
	}
	if !want.matches(res.Tuples) {
		failed++
	}
	return 2, failed, nil
}

func (w *standingChurn) counters(ctx context.Context) (counterSet, error) {
	st, err := w.reader.Stats(ctx)
	if err != nil {
		return nil, err
	}
	return serverCounters(st.Server), nil
}

func (w *standingChurn) teardown() error {
	var err error
	if w.sub != nil {
		err = errors.Join(err, w.sub.Close())
		w.sub = nil
	}
	for _, s := range []**rex.Session{&w.writer, &w.reader} {
		if *s != nil {
			err = errors.Join(err, (*s).Close())
			*s = nil
		}
	}
	if w.srv != nil {
		err = errors.Join(err, w.srv.Close())
		w.srv = nil
	}
	return err
}

func (w *standingChurn) legs(ctx context.Context, e *env, win *windowResult, m metricSet) error {
	// Diff legs 1 and 2: each class alone on the same rexd.
	ingestAlone, err := runLeg(ctx, e, w, "leg.server.ingest_alone", func(ctx context.Context, c *client) opOutcome {
		return w.ingest(ctx, c, w.sub, w.view)
	})
	if err != nil {
		return err
	}
	aggAlone, err := runLeg(ctx, e, w, "leg.server.agg_alone", func(ctx context.Context, c *client) opOutcome {
		return w.query(ctx, c, w.reader)
	})
	if err != nil {
		return err
	}
	// Diff leg 3: the same table, aggregate and batches on a directly
	// opened in-process session — no rexd, one copy of the data.
	direct, err := rex.Open(ctx, rex.WithInProc(2))
	if err != nil {
		return err
	}
	defer direct.Close()
	if err := direct.CreateTable("feed", rex.Schema(feedFields...), 0); err != nil {
		return err
	}
	if err := direct.Load("feed", w.model.live); err != nil {
		return err
	}
	aggDirect, err := runLeg(ctx, e, w, "leg.exec.direct_agg", func(ctx context.Context, c *client) opOutcome {
		return w.query(ctx, c, direct)
	})
	if err != nil {
		return err
	}
	dsub, err := direct.Subscribe(ctx, churnText)
	if err != nil {
		return err
	}
	defer dsub.Close()
	// From here the model runs ahead of the server's table; nothing is
	// checked against the server after the legs.
	ingestDirect, err := runLeg(ctx, e, w, "leg.exec.direct_ingest", func(ctx context.Context, c *client) opOutcome {
		return w.ingest(ctx, c, dsub, nil)
	})
	if err != nil {
		return err
	}

	m["exec.direct_agg_ms"] = aggDirect.hists[classChurnAgg].quantile(0.5) / 1e6
	m["exec.round_direct_ms"] = ingestDirect.hists[classIngest].quantile(0.5) / 1e6
	m["server.ingest_overhead_ms"] = ingestAlone.hists[classIngest].quantile(0.5)/1e6 - m["exec.round_direct_ms"]
	m["server.overhead_ms"] = aggAlone.hists[classChurnAgg].quantile(0.5)/1e6 - m["exec.direct_agg_ms"]
	if solo := ingestAlone.opsPerSec() + aggAlone.opsPerSec(); solo > 0 {
		// Two different clients: scaling is the contended rate over the
		// mean of the two solo rates.
		m["server.scaling_2c"] = win.opsPerSec() / (solo / 2)
	}
	serverLayerCounts(win.counts, m)
	roundMetrics(w.rounds, m)

	rows := append([]rex.Tuple(nil), w.model.live...)
	churn := w.model.nextBatch()
	return replayLayers(e, replayInput{
		cat: direct.Catalog(), nodes: 2,
		texts: []string{churnText}, stmtText: churnText,
		table: "feed", keyCol: 0, kinds: schemaKinds(feedFields), rows: rows,
		// The workload's query has no filter; v < 500 is a stated probe.
		pred:    expr.NewCmp(expr.OpLt, expr.NewCol(2, types.KindFloat, "v"), expr.NewConst(500.0)),
		batches: chunkInserts(rows), churn: churn,
		results: []weightedResult{{w.model.aggregate(), 1}},
	}, m)
}

// roundMetrics summarises the covering rounds' RoundStats.
func roundMetrics(rounds []rex.RoundStats, m metricSet) {
	if len(rounds) == 0 {
		return
	}
	var strata, deltas, ingested, coalesced float64
	for _, r := range rounds {
		strata += float64(r.Strata)
		deltas += float64(r.Deltas)
		ingested += float64(r.IngestedDeltas)
		coalesced += float64(r.CoalescedDeltas)
	}
	n := float64(len(rounds))
	m["exec.round_strata_mean"] = strata / n
	m["exec.round_deltas_mean"] = deltas / n
	if ingested > 0 {
		m["exec.coalesce_ratio"] = coalesced / ingested
	}
}
