package rex

import (
	"context"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/rql"
	"github.com/rex-data/rex/internal/storage"
	"github.com/rex-data/rex/internal/types"
)

// inprocBackend runs every worker as a goroutine of this process: a
// catalog plus the engine over it.
type inprocBackend struct {
	cat *catalog.Catalog
	eng *exec.Engine
}

// openInProc boots the engine and stages cfg's handlers and dataset. On
// any error the engine is torn down again, so its paged stores and
// checkpoint logs do not outlive a failed Open.
func openInProc(cfg config) (*inprocBackend, error) {
	if cfg.nodes <= 0 {
		cfg.nodes = 4
	}
	cat := catalog.New()
	b := &inprocBackend{cat: cat, eng: exec.NewEngine(cfg.nodes, cfg.vnodes, cfg.replication, cat)}
	if err := b.stage(cfg); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *inprocBackend) stage(cfg config) error {
	if cfg.spillDir != "" {
		if err := b.eng.UseSpill(cfg.spillDir, cfg.poolPages); err != nil {
			return err
		}
	}
	if cfg.handlers != "" {
		if err := job.RegisterBundle(b.cat, cfg.handlers); err != nil {
			return err
		}
	}
	if cfg.dataset == "" {
		return nil
	}
	tables, err := job.StageDataset(b.cat, cfg.dataset, cfg.datasetSize, cfg.datasetSeed)
	if err != nil {
		return err
	}
	for _, tb := range tables {
		if err := b.loadTable(tb.Name, tb.Tuples); err != nil {
			return err
		}
	}
	return nil
}

func (b *inprocBackend) nodes() int { return b.eng.Transport.N() }

// close shuts the mailboxes, then flushes: dirty pages are sealed into each
// paged store's checkpoint image once the workers are gone (a no-op
// without WithSpillDir).
func (b *inprocBackend) close() error {
	err := b.eng.Transport.Close()
	if serr := b.eng.CloseStores(); err == nil {
		err = serr
	}
	return err
}

func (b *inprocBackend) stats(_ context.Context, st *Stats) error {
	st.Transport = "inproc"
	st.Pool = b.eng.PoolStats()
	st.Kernel = exec.ReadKernelStats()
	return nil
}

func (b *inprocBackend) catalogVersion() int64 { return b.cat.Version() }

func (b *inprocBackend) local(string) (*inprocBackend, error) { return b, nil }

func (b *inprocBackend) transport(string) (cluster.Transport, error) { return b.eng.Transport, nil }

// createTable declares the table in the catalog and in every local store,
// so it scans as empty before its first load or ingest.
func (b *inprocBackend) createTable(name string, schema *types.Schema, partitionKey int) error {
	if err := b.cat.AddTable(&catalog.Table{Name: name, Schema: schema, PartitionKey: partitionKey}); err != nil {
		return err
	}
	return b.eng.Load(name, partitionKey, nil)
}

func (b *inprocBackend) load(table string, tuples []Tuple, locked lockFunc) error {
	return locked(func() error { return b.loadTable(table, tuples) })
}

// loadTable checks every tuple's width before any store sees one, so a bad
// batch loads nothing, then bulk-loads the replicated partitions.
func (b *inprocBackend) loadTable(table string, tuples []Tuple) error {
	tab, err := b.cat.Table(table)
	if err != nil {
		return err
	}
	if err := checkArity(table, tab.Schema.Len(), tuples...); err != nil {
		return err
	}
	stats := tab.Stats
	stats.RowCount += int64(len(tuples))
	if err := b.eng.Load(table, tab.PartitionKey, tuples); err != nil {
		return err
	}
	return b.cat.SetStats(table, stats)
}

// ingest revises the stores directly. Every table is validated before any
// store is touched so a bad batch cannot apply partially.
func (b *inprocBackend) ingest(tables map[string][]Delta, locked lockFunc) (*IngestAck, error) {
	err := locked(func() error {
		names := sortedTables(tables)
		keys := make([]int, len(names))
		for i, table := range names {
			tab, err := b.cat.Table(table)
			if err != nil {
				return err
			}
			if err := checkDeltaArity(table, tab.Schema.Len(), tables[table]); err != nil {
				return err
			}
			keys[i] = tab.PartitionKey
		}
		loader := &storage.Loader{Ring: b.eng.Ring, Stores: b.eng.Stores}
		for i, table := range names {
			if err := loader.Apply(table, keys[i], tables[table]); err != nil {
				return err
			}
			b.bumpStats(table, tables[table])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return exec.ResolvedAck(nil, nil), nil
}

// roundApplied is a standing query's applied hook: the workers already
// revised the stores, so only the catalog's row estimates follow.
func (b *inprocBackend) roundApplied(tables map[string][]Delta) {
	for table, deltas := range tables {
		b.bumpStats(table, deltas)
	}
}

// bumpStats revises the catalog's row-count estimate after an ingest (the
// estimate steers costing, never correctness).
func (b *inprocBackend) bumpStats(table string, deltas []Delta) {
	tab, err := b.cat.Table(table)
	if err != nil {
		return
	}
	var net int64
	for _, d := range deltas {
		switch d.Op {
		case types.OpInsert, types.OpUpdate:
			net++
		case types.OpDelete:
			net--
		}
	}
	stats := tab.Stats
	stats.RowCount = max(stats.RowCount+net, 0)
	_ = b.cat.SetStats(table, stats)
}

func (b *inprocBackend) query(src string, opts Options) (query, error) {
	plan, err := rql.Compile(src, b.cat, b.nodes())
	if err != nil {
		return nil, err
	}
	return &planRun{b: b, plan: plan, opts: opts}, nil
}

func (b *inprocBackend) prepare(src string) (statement, error) {
	plan, prep, err := rql.CompileStmt(src, b.cat, b.nodes())
	if err != nil {
		return nil, err
	}
	return &inprocStmt{b: b, plan: plan, prep: prep}, nil
}

func (b *inprocBackend) workload(_ string, w *Workload, tune func(*Options)) (execution, error) {
	return &workloadRun{w: w, tune: tune}, nil
}

// planRun executes a physical plan on the session engine. bind, when set,
// fills a prepared plan's parameters first — under the session lock, since
// every execution of the statement shares the plan.
type planRun struct {
	b    *inprocBackend
	plan *exec.PlanSpec
	opts Options
	bind func() error
}

func (r *planRun) bound() error {
	if r.bind == nil {
		return nil
	}
	return r.bind()
}

func (r *planRun) run(ctx context.Context) (*Result, error) {
	if err := r.bound(); err != nil {
		return nil, err
	}
	return r.b.eng.RunCtx(ctx, r.plan, r.opts)
}

func (r *planRun) stream(ctx context.Context) (*exec.ResultStream, error) {
	if err := r.bound(); err != nil {
		return nil, err
	}
	return r.b.eng.Stream(ctx, r.plan, r.opts)
}

func (r *planRun) subscribe(ctx context.Context) (standing, error) {
	sq, err := r.b.eng.Standing(ctx, r.plan, r.opts)
	if err != nil {
		return nil, err
	}
	sq.SetOnRoundApplied(r.b.roundApplied)
	return sq, nil
}

// inprocStmt is a statement compiled once against the session catalog.
type inprocStmt struct {
	b    *inprocBackend
	plan *exec.PlanSpec
	prep *rql.Prepared
}

func (st *inprocStmt) numParams() int { return st.prep.NumParams() }

func (st *inprocStmt) bind(args []Value, opts Options) (execution, error) {
	return &planRun{b: st.b, plan: st.plan, opts: opts, bind: func() error { return st.prep.Bind(args) }}, nil
}

// workloadRun runs a self-contained workload on a fresh single-process
// engine, so results compare directly with a TCP session's.
type workloadRun struct {
	w    *Workload
	tune func(*Options)
}

func (r *workloadRun) run(ctx context.Context) (*Result, error) {
	clone := *r.w // the runner normalizes its copy; keep the caller's spec pristine
	return job.RunInProcCtx(ctx, &clone, r.tune)
}

func (r *workloadRun) stream(ctx context.Context) (*exec.ResultStream, error) {
	return job.StreamInProc(ctx, r.w, r.tune)
}
