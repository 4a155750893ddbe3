// Standing-query benchmark: subscribe the incremental shortest-path query,
// push deterministic edge-churn rounds through the resident dataflow, and
// hold the incremental wire bytes against a from-scratch recompute over
// the same revised base tables. The record's result hashes are comparable
// across transports (and across commits), so CI can gate on both
// "incremental == recompute" and "inproc == tcp". This lives in the
// command (not internal/bench) because it drives the public rex session
// API, which internal/bench must not import — the root package's own
// tests import internal/bench.
package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/bench"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/types"
)

// standingChurn builds the deterministic ingestion rounds for a graph of
// the given vertex count: shortcut edges out of the low-numbered (reached)
// core, so every round re-derives distances through resident state.
func standingChurn(size int) [][]types.Tuple {
	var rounds [][]types.Tuple
	for r := 0; r < 3; r++ {
		var edges []types.Tuple
		for i := 0; i < 4; i++ {
			a := int64((7*r + 3*i + 1) % size)
			b := int64((11*r + 5*i + 13) % size)
			edges = append(edges, types.NewTuple(a, b))
		}
		rounds = append(rounds, edges)
	}
	return rounds
}

// standingOpts assembles the session options for the standing suites.
func standingOpts(sc bench.Scale, transport, peers string, size int) ([]rex.Option, error) {
	opts := []rex.Option{rex.WithDataset("sssp", size, 1), rex.WithHandlers("sssp-inc")}
	switch transport {
	case "inproc":
		opts = append(opts, rex.WithInProc(sc.Nodes))
	case "tcp":
		if peers != "" {
			opts = append(opts, rex.WithTCPPeers(job.ParsePeers(peers)...))
		} else {
			opts = append(opts, rex.WithAutoSpawn(sc.Nodes))
		}
	default:
		return nil, fmt.Errorf("bench: unknown transport %q", transport)
	}
	return opts, nil
}

// standingSuite runs the standing-query benchmarks on one transport and
// returns their CI rows: the incremental-vs-recompute scenario plus the
// write-heavy coalescing churn scenario. peers selects already-running
// rexnode daemons for -transport tcp; empty spawns local ones (the calling
// binary must serve -node).
func standingSuite(w io.Writer, sc bench.Scale, transport, peers string) ([]bench.CIStanding, error) {
	size := sc.DBPediaVertices
	if size < 100 {
		size = 100
	}
	opts, err := standingOpts(sc, transport, peers, size)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	sess, err := rex.Open(ctx, opts...)
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	start := time.Now()
	sub, err := sess.Subscribe(ctx, algos.IncSSSPQuery, rex.WithMaxStrata(300))
	if err != nil {
		return nil, fmt.Errorf("bench: subscribe on %s: %w", transport, err)
	}
	st := sub.Stream()
	var view fold
	consume := func(batches int) error {
		for i := 0; i < batches; i++ {
			b, ok := st.Next()
			if !ok {
				return fmt.Errorf("bench: stream ended early: %v", st.Err())
			}
			view.apply(b.Deltas)
		}
		return nil
	}
	if err := consume(sub.Rounds()[0].Batches); err != nil {
		return nil, err
	}
	for _, edges := range standingChurn(size) {
		if err := sess.Insert("graph", edges...); err != nil {
			return nil, fmt.Errorf("bench: ingest on %s: %w", transport, err)
		}
		rs := sub.Rounds()
		if err := consume(rs[len(rs)-1].Batches); err != nil {
			return nil, err
		}
	}
	rounds := sub.Rounds()
	if err := sub.Close(); err != nil {
		return nil, fmt.Errorf("bench: subscription close on %s: %w", transport, err)
	}

	// From-scratch reference on the same session: the base tables already
	// carry the ingested churn (store revision in-process, change-log
	// replay over TCP).
	res, err := sess.QueryCtx(ctx, algos.IncSSSPQuery)
	if err != nil {
		return nil, fmt.Errorf("bench: recompute on %s: %w", transport, err)
	}
	row := bench.CIStanding{
		Query:          "inc-sssp",
		Transport:      transport,
		Rounds:         len(rounds) - 1,
		RecomputeBytes: res.BytesSent,
		ResultHash:     bench.ResultHash(view.tuples()),
		Millis:         float64(time.Since(start)) / float64(time.Millisecond),
	}
	for i, r := range rounds {
		if i == 0 {
			row.InitialBytes = r.BytesSent
			continue
		}
		row.Strata += r.Strata
		row.IncrementalBytes += r.BytesSent
		row.IngestBytes += r.IngestBytes
	}
	if h := bench.ResultHash(res.Tuples); h != row.ResultHash {
		return nil, fmt.Errorf("bench: standing fold %s != recompute %s on %s", row.ResultHash, h, transport)
	}
	if row.IncrementalBytes <= 0 || row.IncrementalBytes >= row.RecomputeBytes {
		return nil, fmt.Errorf("bench: incremental rounds shipped %d bytes vs %d for recompute on %s — standing must ship fewer",
			row.IncrementalBytes, row.RecomputeBytes, transport)
	}

	rep := &bench.Report{
		Title: fmt.Sprintf("Standing queries (%s)", transport),
		Notes: "incremental ingestion vs from-scratch recompute over identical revised tables",
		Headers: []string{"query", "rounds", "strata", "initial_bytes", "incremental_bytes",
			"ingest_bytes", "recompute_bytes", "result_hash", "ms"},
		Rows: [][]string{{
			row.Query, fmt.Sprint(row.Rounds), fmt.Sprint(row.Strata),
			fmt.Sprint(row.InitialBytes), fmt.Sprint(row.IncrementalBytes),
			fmt.Sprint(row.IngestBytes), fmt.Sprint(row.RecomputeBytes),
			row.ResultHash, fmt.Sprintf("%.1f", row.Millis),
		}},
	}
	rep.Print(w)
	churn, err := standingChurnSuite(w, sc, transport, peers, size)
	if err != nil {
		return nil, err
	}
	return append([]bench.CIStanding{row}, churn...), nil
}

// churnIngestCount is the write-heavy scenario's ingest volume: ≥100
// queued single-edge writes, enough that coalescing — not round latency —
// dominates the round count.
const churnIngestCount = 120

// churnEdge is the i-th deterministic single-edge write of the scenario.
func churnEdge(i, size int) types.Tuple {
	return types.NewTuple(int64(i%7), int64((7*i+13)%size))
}

// standingChurnSuite is the write-heavy coalescing scenario: the same
// churnIngestCount single-edge writes are ingested twice — once one
// awaited round at a time (the sequential reference), once fired through
// IngestAsync without waiting so queued requests coalesce — and the two
// folded streams must hash-match while the coalesced run completes in
// measurably fewer rounds and no more wire bytes.
func standingChurnSuite(w io.Writer, sc bench.Scale, transport, peers string, size int) ([]bench.CIStanding, error) {
	ctx := context.Background()
	subscribe := func() (*rex.Session, *rex.Subscription, *fold, error) {
		opts, err := standingOpts(sc, transport, peers, size)
		if err != nil {
			return nil, nil, nil, err
		}
		sess, err := rex.Open(ctx, opts...)
		if err != nil {
			return nil, nil, nil, err
		}
		sub, err := sess.Subscribe(ctx, algos.IncSSSPQuery, rex.WithMaxStrata(300))
		if err != nil {
			sess.Close()
			return nil, nil, nil, err
		}
		view := &fold{}
		st := sub.Stream()
		for i := 0; i < sub.Rounds()[0].Batches; i++ {
			b, ok := st.Next()
			if !ok {
				sess.Close()
				return nil, nil, nil, fmt.Errorf("bench: churn stream ended early: %v", st.Err())
			}
			view.apply(b.Deltas)
		}
		return sess, sub, view, nil
	}

	// Sequential reference: every write is its own awaited round.
	seqSess, seqSub, seqView, err := subscribe()
	if err != nil {
		return nil, err
	}
	defer seqSess.Close()
	start := time.Now()
	for i := 0; i < churnIngestCount; i++ {
		if err := seqSess.Insert("graph", churnEdge(i, size)); err != nil {
			return nil, fmt.Errorf("bench: sequential churn ingest on %s: %w", transport, err)
		}
	}
	seqRounds := seqSub.Rounds()
	st := seqSub.Stream()
	for _, r := range seqRounds[1:] {
		for i := 0; i < r.Batches; i++ {
			b, ok := st.Next()
			if !ok {
				return nil, fmt.Errorf("bench: sequential churn stream ended early: %v", st.Err())
			}
			seqView.apply(b.Deltas)
		}
	}
	if err := seqSub.Close(); err != nil {
		return nil, err
	}
	seqMillis := float64(time.Since(start)) / float64(time.Millisecond)
	var seqBytes int64
	for _, r := range seqRounds[1:] {
		seqBytes += r.BytesSent
	}
	seqHash := bench.ResultHash(seqView.tuples())

	// Coalesced run: fire everything, wait for the acks afterwards.
	coSess, coSub, coView, err := subscribe()
	if err != nil {
		return nil, err
	}
	defer coSess.Close()
	coStart := time.Now()
	acks := make([]*rex.IngestAck, 0, churnIngestCount)
	for i := 0; i < churnIngestCount; i++ {
		ack, err := coSess.IngestAsync("graph", []rex.Delta{rex.Insert(churnEdge(i, size))})
		if err != nil {
			return nil, fmt.Errorf("bench: coalesced churn ingest on %s: %w", transport, err)
		}
		acks = append(acks, ack)
	}
	for i, ack := range acks {
		if _, err := ack.Wait(ctx); err != nil {
			return nil, fmt.Errorf("bench: coalesced churn ack %d on %s: %w", i, transport, err)
		}
	}
	coRounds := coSub.Rounds()
	st = coSub.Stream()
	row := bench.CIStanding{
		Query:        "inc-sssp-churn",
		Transport:    transport,
		Rounds:       len(coRounds) - 1,
		Ingests:      churnIngestCount,
		InitialBytes: coRounds[0].BytesSent,
	}
	for _, r := range coRounds[1:] {
		for i := 0; i < r.Batches; i++ {
			b, ok := st.Next()
			if !ok {
				return nil, fmt.Errorf("bench: coalesced churn stream ended early: %v", st.Err())
			}
			coView.apply(b.Deltas)
		}
		row.Strata += r.Strata
		row.IncrementalBytes += r.BytesSent
		row.IngestBytes += r.IngestBytes
		row.StagedDeltas += r.IngestedDeltas
		row.FoldedDeltas += r.CoalescedDeltas
	}
	if err := coSub.Close(); err != nil {
		return nil, err
	}
	row.SequentialBytes = seqBytes
	row.ResultHash = bench.ResultHash(coView.tuples())
	row.Millis = float64(time.Since(coStart)) / float64(time.Millisecond)
	if row.FoldedDeltas > 0 {
		row.CoalesceRatio = float64(row.StagedDeltas) / float64(row.FoldedDeltas)
	}
	if row.Millis > 0 {
		row.RowsPerSec = float64(row.StagedDeltas) / (row.Millis / 1000)
	}

	// The scenario's gates: identical folded streams, measurably fewer
	// rounds than ingests, and coalesced rounds shipping no more bytes
	// than the sequential reference.
	if row.ResultHash != seqHash {
		return nil, fmt.Errorf("bench: churn coalesced fold %s != sequential %s on %s", row.ResultHash, seqHash, transport)
	}
	if row.Rounds >= churnIngestCount {
		return nil, fmt.Errorf("bench: %d queued ingests still ran %d rounds on %s — coalescing failed", churnIngestCount, row.Rounds, transport)
	}
	if row.IncrementalBytes > seqBytes {
		return nil, fmt.Errorf("bench: coalesced rounds shipped %d bytes vs %d sequential on %s", row.IncrementalBytes, seqBytes, transport)
	}

	rep := &bench.Report{
		Title: fmt.Sprintf("Standing churn / coalescing (%s)", transport),
		Notes: fmt.Sprintf("%d queued single-edge ingests, sequential reference took %.1f ms",
			churnIngestCount, seqMillis),
		Headers: []string{"query", "ingests", "rounds", "staged", "folded", "coalesce_ratio",
			"coalesced_bytes", "sequential_bytes", "result_hash", "ms"},
		Rows: [][]string{{
			row.Query, fmt.Sprint(row.Ingests), fmt.Sprint(row.Rounds),
			fmt.Sprint(row.StagedDeltas), fmt.Sprint(row.FoldedDeltas),
			fmt.Sprintf("%.2f", row.CoalesceRatio),
			fmt.Sprint(row.IncrementalBytes), fmt.Sprint(row.SequentialBytes),
			row.ResultHash, fmt.Sprintf("%.1f", row.Millis),
		}},
	}
	rep.Print(w)
	return []bench.CIStanding{row}, nil
}

// fold replays a delta stream into the relation it describes.
type fold struct{ live []types.Tuple }

func (f *fold) apply(batch []types.Delta) {
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

func (f *fold) remove(t types.Tuple) {
	for i, x := range f.live {
		if x != nil && x.Equal(t) {
			f.live[i] = f.live[len(f.live)-1]
			f.live = f.live[:len(f.live)-1]
			return
		}
	}
}

func (f *fold) tuples() []types.Tuple { return f.live }
