package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/pagestore"
	"github.com/rex-data/rex/internal/rql"
	"github.com/rex-data/rex/internal/srvproto"
	"github.com/rex-data/rex/internal/storage"
	"github.com/rex-data/rex/internal/types"
)

// Replay legs: single-threaded timings of each layer's exported functions
// over inputs captured from the workload — its query texts, its table
// rows, the delta batches it ships, one of its ingest batches, its result
// sets. A layer's number here moves only when that layer's code changes;
// whether the end-to-end metric follows is what the README's prediction
// table is for.

// weightedResult is one captured result set and its share of the op mix.
type weightedResult struct {
	tuples []rex.Tuple
	weight float64
}

// replayInput is what a workload hands the replay legs.
type replayInput struct {
	cat   *catalog.Catalog
	nodes int
	// texts is the workload's query catalogue; stmtText/stmtArgs the
	// statement whose argument check + bind is timed (a workload without
	// parameters binds the empty list, and times the args codec on a
	// single integer).
	texts    []string
	stmtText string
	stmtArgs []rex.Value

	// table rows as staged, their column kinds, and a predicate over them
	// (the workload's own filter where it has one, else a stated probe).
	table  string
	keyCol int
	kinds  []types.Kind
	rows   []rex.Tuple
	pred   expr.Expr

	batches [][]rex.Delta // delta batches as the workload ships them
	churn   []rex.Delta   // one ingest batch
	results []weightedResult
	spec    *job.Spec // nil when the deployment ships no job spec

	dir    string // scratch directory for the pagestore legs
	budget time.Duration
}

// chunkInserts turns table rows into insert batches of the engine's
// default transport batch size.
func chunkInserts(rows []rex.Tuple) [][]rex.Delta {
	const batch = 1024
	var out [][]rex.Delta
	for len(rows) > 0 {
		n := min(batch, len(rows))
		out = append(out, types.Inserts(rows[:n]...))
		rows = rows[n:]
	}
	return out
}

// invert swaps inserts and deletes, so a churn batch can be applied and
// undone in alternation without the table drifting.
func invert(ds []rex.Delta) []rex.Delta {
	out := make([]rex.Delta, len(ds))
	for i, d := range ds {
		switch d.Op {
		case types.OpInsert:
			out[i] = types.Delete(d.Tup)
		case types.OpDelete:
			out[i] = types.Insert(d.Tup)
		default:
			out[i] = d
		}
	}
	return out
}

// leg times one named replay as a span and returns timeLoop's ns/call.
func leg(ln *lane, parent int64, name string, budget time.Duration, fn func()) float64 {
	h := ln.begin(name, parent, 0)
	ns := timeLoop(budget, fn)
	ln.end(h)
	return ns
}

// replayLayers runs every replay leg under the run's "legs" span, in the
// run's scratch directory, at the run's leg budget.
func replayLayers(e *env, in replayInput, m metricSet) error {
	in.dir, in.budget = e.tmpDir, e.legBudget
	ln, parent := e.tr.lane(), e.legSpan
	defer ln.flush()
	if err := replaySrvproto(in, m, ln, parent); err != nil {
		return err
	}
	if err := replayRQL(in, m, ln, parent); err != nil {
		return err
	}
	if err := replayExpr(in, m, ln, parent); err != nil {
		return err
	}
	if err := replayCodecs(in, m, ln, parent); err != nil {
		return err
	}
	if err := replayStorage(in, m, ln, parent); err != nil {
		return err
	}
	if err := replayPagestore(in, m, ln, parent); err != nil {
		return err
	}
	return replayJob(in, m, ln, parent)
}

// replaySrvproto frames each captured result the way the server's row
// writer does — one MsgRows frame of dictionary-encoded inserts, one
// closing frame with the trailer — and reads it back.
func replaySrvproto(in replayInput, m metricSet, ln *lane, parent int64) error {
	trailer := string(srvproto.EncodeJSON(&srvproto.Trailer{Result: &rex.Result{}}))
	var us, size, weight float64
	var failed error
	for _, r := range in.results {
		deltas := types.Inserts(r.tuples...)
		var buf bytes.Buffer
		ns := leg(ln, parent, "srvproto.rows_frame", in.budget, func() {
			buf.Reset()
			frames := 1
			if len(deltas) > 0 {
				frames = 2
				err := srvproto.WriteMsg(&buf, cluster.Message{Kind: cluster.MsgRows, Edge: 1,
					Payload: cluster.EncodeDeltas(deltas)})
				if err != nil {
					failed = err
				}
			}
			if err := srvproto.WriteMsg(&buf, cluster.Message{Kind: cluster.MsgRows, Edge: 1, Closed: true, Table: trailer}); err != nil {
				failed = err
			}
			size = float64(buf.Len())
			rd := bytes.NewReader(buf.Bytes())
			for i := 0; i < frames; i++ {
				msg, err := srvproto.ReadMsg(rd)
				if err != nil {
					failed = err
					return
				}
				if len(msg.Payload) > 0 {
					if _, err := cluster.DecodeDeltas(msg.Payload); err != nil {
						failed = err
					}
				}
			}
		})
		if failed != nil {
			return fmt.Errorf("srvproto replay: %w", failed)
		}
		us += r.weight * ns / 1e3
		m["srvproto.result_bytes_per_query"] += r.weight * size
		weight += r.weight
	}
	if weight > 0 {
		m["srvproto.rows_frame_us"] = us / weight
		m["srvproto.result_bytes_per_query"] /= weight
	}
	args := in.stmtArgs
	if len(args) == 0 {
		args = []rex.Value{int64(1)}
	}
	m["srvproto.args_codec_ns"] = leg(ln, parent, "srvproto.args_codec", in.budget, func() {
		if _, err := srvproto.DecodeArgs(srvproto.EncodeArgs(args)); err != nil {
			failed = err
		}
	})
	return failed
}

func replayRQL(in replayInput, m metricSet, ln *lane, parent int64) error {
	var failed error
	ns := leg(ln, parent, "rql.compile", in.budget, func() {
		for _, src := range in.texts {
			if _, _, err := rql.CompileStmt(src, in.cat, in.nodes); err != nil {
				failed = err
			}
		}
	})
	if failed != nil {
		return fmt.Errorf("rql replay: %w", failed)
	}
	m["rql.compile_us"] = ns / float64(len(in.texts)) / 1e3
	_, prep, err := rql.CompileStmt(in.stmtText, in.cat, in.nodes)
	if err != nil {
		return fmt.Errorf("rql replay: %w", err)
	}
	m["rql.bind_us"] = leg(ln, parent, "rql.bind", in.budget, func() {
		if _, err := prep.Check(in.stmtArgs); err != nil {
			failed = err
		}
		if err := prep.Bind(in.stmtArgs); err != nil {
			failed = err
		}
	}) / 1e3
	return failed
}

func replayExpr(in replayInput, m metricSet, ln *lane, parent int64) error {
	var kern *expr.Kernel
	var ok bool
	m["expr.kernel_compile_us"] = leg(ln, parent, "expr.kernel_compile", in.budget, func() {
		kern, ok = expr.Compile(in.pred, in.kinds)
	}) / 1e3
	if !ok {
		return fmt.Errorf("expr replay: predicate %s does not compile to a kernel", in.pred)
	}
	var batches []*types.DeltaBatch
	for _, ds := range chunkInserts(in.rows) {
		b, ok := types.FromDeltas(ds)
		if !ok {
			return fmt.Errorf("expr replay: table rows are not batchable")
		}
		batches = append(batches, b)
	}
	verdicts := make([]bool, 1024)
	kept, declined := 0, false
	ns := leg(ln, parent, "expr.filter_kernel", in.budget, func() {
		kept = 0
		for _, b := range batches {
			if !kern.EvalBools(b, false, kern.AllRows(b.Len()), verdicts) {
				declined = true
				return
			}
			for _, v := range verdicts[:b.Len()] {
				if v {
					kept++
				}
			}
		}
	})
	if declined {
		return fmt.Errorf("expr replay: kernel declined the staged batches")
	}
	m["expr.filter_kernel_ns_per_row"] = ns / float64(len(in.rows))
	var failed error
	keptInterp := 0
	ns = leg(ln, parent, "expr.filter_interp", in.budget, func() {
		keptInterp = 0
		for _, t := range in.rows {
			keep, err := expr.EvalBool(in.pred, t)
			if err != nil {
				failed = err
				return
			}
			if keep {
				keptInterp++
			}
		}
	})
	if failed != nil {
		return fmt.Errorf("expr replay: %w", failed)
	}
	if kept != keptInterp {
		return fmt.Errorf("expr replay: kernel kept %d rows, interpreter %d", kept, keptInterp)
	}
	m["expr.filter_interp_ns_per_row"] = ns / float64(len(in.rows))
	return nil
}

// replayCodecs times the shuffle path's per-delta work over the workload's
// own delta batches: the row-keyed compactor, both frame codecs, and the
// batch<->row conversions between them.
func replayCodecs(in replayInput, m metricSet, ln *lane, parent int64) error {
	total := 0
	var cols []*types.DeltaBatch
	for _, ds := range in.batches {
		total += len(ds)
		b, ok := types.FromDeltas(ds)
		if !ok {
			return fmt.Errorf("codec replay: captured batch is not batchable")
		}
		cols = append(cols, b)
	}
	if total == 0 {
		return fmt.Errorf("codec replay: no delta batches captured")
	}
	per := func(ns float64) float64 { return ns / float64(total) }
	key := func(t types.Tuple) types.Value { return t[in.keyCol] }

	m["cluster.compactor_ns_per_delta"] = per(leg(ln, parent, "cluster.compactor", in.budget, func() {
		for _, ds := range in.batches {
			c := cluster.NewCompactor(key, nil)
			for _, d := range ds {
				c.Add(d)
			}
			c.Drain()
		}
	}))

	colFrames := make([][]byte, len(cols))
	m["cluster.frame_encode_ns_per_delta"] = per(leg(ln, parent, "cluster.frame_encode", in.budget, func() {
		for i, b := range cols {
			colFrames[i] = cluster.EncodeDeltaBatch(colFrames[i][:0], b)
		}
	}))
	var failed error
	m["cluster.frame_decode_ns_per_delta"] = per(leg(ln, parent, "cluster.frame_decode", in.budget, func() {
		for _, f := range colFrames {
			if _, _, err := cluster.DecodeDeltasAny(f); err != nil {
				failed = err
			}
		}
	}))
	rowFrames := make([][]byte, len(in.batches))
	m["cluster.rowframe_encode_ns_per_delta"] = per(leg(ln, parent, "cluster.rowframe_encode", in.budget, func() {
		for i, ds := range in.batches {
			rowFrames[i] = cluster.EncodeDeltas(ds)
		}
	}))
	m["cluster.rowframe_decode_ns_per_delta"] = per(leg(ln, parent, "cluster.rowframe_decode", in.budget, func() {
		for _, f := range rowFrames {
			if _, err := cluster.DecodeDeltas(f); err != nil {
				failed = err
			}
		}
	}))

	raw := make([][]byte, len(cols))
	m["types.batch_encode_ns_per_delta"] = per(leg(ln, parent, "types.batch_encode", in.budget, func() {
		for i, b := range cols {
			raw[i] = types.AppendDeltaBatch(raw[i][:0], b)
		}
	}))
	m["types.batch_decode_ns_per_delta"] = per(leg(ln, parent, "types.batch_decode", in.budget, func() {
		for _, f := range raw {
			if _, _, err := types.DecodeDeltaBatch(f); err != nil {
				failed = err
			}
		}
	}))
	m["types.rows_to_batch_ns_per_delta"] = per(leg(ln, parent, "types.rows_to_batch", in.budget, func() {
		for _, ds := range in.batches {
			types.FromDeltas(ds)
		}
	}))
	m["types.batch_to_rows_ns_per_delta"] = per(leg(ln, parent, "types.batch_to_rows", in.budget, func() {
		for _, b := range cols {
			b.Deltas()
		}
	}))
	if failed != nil {
		return fmt.Errorf("codec replay: %w", failed)
	}
	return nil
}

func replayStorage(in replayInput, m metricSet, ln *lane, parent int64) error {
	st := storage.NewStore(0)
	ring := cluster.NewRing(1, 64, 1)
	loader := &storage.Loader{Ring: ring, Stores: []storage.Backend{st}}
	if err := loader.Load(in.table, in.keyCol, in.rows); err != nil {
		return fmt.Errorf("storage replay: %w", err)
	}
	snap := cluster.NewSnapshot(ring, []cluster.NodeID{0})
	var failed error
	m["storage.scan_ns_per_row"] = leg(ln, parent, "storage.scan", in.budget, func() {
		if err := st.ScanOwned(in.table, snap, func(types.Tuple) error { return nil }); err != nil {
			failed = err
		}
	}) / float64(len(in.rows))
	batch, undo := in.churn, invert(in.churn)
	m["storage.apply_ns_per_delta"] = leg(ln, parent, "storage.apply", in.budget, func() {
		if err := loader.Apply(in.table, in.keyCol, batch); err != nil {
			failed = err
		}
		batch, undo = undo, batch
	}) / float64(len(in.churn))
	if failed != nil {
		return fmt.Errorf("storage replay: %w", failed)
	}
	return nil
}

// replayPagestore stages the workload's table into a paged store with the
// benchmark's 32-page pool, then applies churn batches and commits each —
// fsync included, flush policy as shipped (one fsynced WAL mark per
// commit, a checkpoint image when the WAL passes its size limit).
func replayPagestore(in replayInput, m metricSet, ln *lane, parent int64) error {
	dir := filepath.Join(in.dir, "pagestore-replay")
	defer os.RemoveAll(dir)
	ps, err := pagestore.Open(dir, 0, 32)
	if err != nil {
		return fmt.Errorf("pagestore replay: %w", err)
	}
	defer ps.Close()
	ps.CreateTable(in.table, in.keyCol)

	h := ln.begin("pagestore.insert", parent, 0)
	t0 := time.Now()
	for _, t := range in.rows {
		if err := ps.Insert(in.table, t); err != nil {
			return fmt.Errorf("pagestore replay: %w", err)
		}
	}
	m["pagestore.insert_ns_per_row"] = float64(time.Since(t0)) / float64(len(in.rows))
	ln.end(h)
	if err := ps.Commit(0); err != nil {
		return fmt.Errorf("pagestore replay: %w", err)
	}

	snap := cluster.NewSnapshot(cluster.NewRing(1, 64, 1), []cluster.NodeID{0})
	var failed error
	m["pagestore.scan_ns_per_row"] = leg(ln, parent, "pagestore.scan", in.budget, func() {
		if err := ps.ScanOwned(in.table, snap, func(types.Tuple) error { return nil }); err != nil {
			failed = err
		}
	}) / float64(len(in.rows))
	if failed != nil {
		return fmt.Errorf("pagestore replay: %w", failed)
	}

	walPath := filepath.Join(dir, "wal.log")
	walSize := func() int64 {
		if fi, err := os.Stat(walPath); err == nil {
			return fi.Size()
		}
		return 0
	}
	var commits hist
	var walBytes, applied int64
	batch, undo := in.churn, invert(in.churn)
	h = ln.begin("pagestore.commit", parent, 0)
	start := time.Now()
	// 200 commits support a p95; a slow disk stops the loop at 10x budget
	// (never before 20 commits).
	for round := int64(1); round <= 200 && (round <= 20 || time.Since(start) < 10*in.budget); round++ {
		before := walSize()
		for _, d := range batch {
			if err := ps.ApplyDelta(in.table, d); err != nil {
				return fmt.Errorf("pagestore replay: %w", err)
			}
		}
		t0 := time.Now()
		if err := ps.Commit(round); err != nil {
			return fmt.Errorf("pagestore replay: %w", err)
		}
		commits.record(int64(time.Since(t0)))
		if grew := walSize() - before; grew > 0 { // a checkpoint truncates the WAL
			walBytes += grew
			applied += int64(len(batch))
		}
		batch, undo = undo, batch
	}
	ln.end(h)
	m["pagestore.commit_ms_p50"] = commits.quantile(0.5) / 1e6
	m["pagestore.commit_ms_p95"] = commits.quantile(0.95) / 1e6
	if applied > 0 {
		m["pagestore.wal_bytes_per_delta"] = float64(walBytes) / float64(applied)
	}
	if user := types.EncodedSize(types.Inserts(in.rows...)); user > 0 {
		m["pagestore.disk_bytes_per_user_byte"] = float64(dirBytes(dir)) / float64(user)
	}
	return nil
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

func replayJob(in replayInput, m metricSet, ln *lane, parent int64) error {
	if in.spec == nil {
		return nil
	}
	payload, err := in.spec.Encode()
	if err != nil {
		return fmt.Errorf("job replay: %w", err)
	}
	m["job.spec_bytes"] = float64(len(payload))
	var failed error
	m["job.build_ms"] = leg(ln, parent, "job.build", in.budget, func() {
		spec, err := job.Decode(payload)
		if err != nil {
			failed = err
			return
		}
		if _, _, _, err := spec.Build(); err != nil {
			failed = err
		}
	}) / 1e6
	if failed != nil {
		return fmt.Errorf("job replay: %w", failed)
	}
	return nil
}
