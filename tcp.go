package rex

import (
	"context"
	"fmt"
	"os"
	"sync"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/rql"
	"github.com/rex-data/rex/internal/types"
)

// tcpBackend drives rexnode worker daemons over sockets. Daemons build
// catalog, plan and data partition from the job spec, and keep them for
// later jobs over the same data, so the session keeps what a spec must
// carry: the staged dataset's parameters and the base-table change log.
type tcpBackend struct {
	jc  *job.Cluster
	cfg config
	// schemaCat mirrors the staged dataset's schemas (plus the handler
	// bundle) for driver-side validation; nil without WithDataset.
	schemaCat *catalog.Catalog

	// logMu guards ingestLog, the base-table change log: every accepted
	// Insert/Delete/LoadDeltas is appended and replayed into each
	// subsequent job spec, so daemons — which build their tables from the
	// spec — rebuild the revised tables. The log is kept compacted: each
	// table's deltas fold to their net effect (insert+delete annihilation,
	// replace-chain folding) whenever a fold threshold of raw appends
	// accumulates, and again at snapshot time, so the log — and with it
	// every job spec — stays bounded by the net change under churn.
	logMu     sync.Mutex
	ingestLog map[string]*cluster.ChangeLog
	logOrder  []string
}

// openTCP attaches to cfg's peers, or spawns cfg.autospawn local daemons.
func openTCP(cfg config) (*tcpBackend, error) {
	var jc *job.Cluster
	var err error
	if len(cfg.peers) > 0 {
		jc, err = job.Connect(cfg.peers)
	} else {
		bin, args := cfg.spawnBin, cfg.spawnArgs
		if bin == "" {
			bin, args = os.Args[0], []string{"-node"}
		}
		jc, err = job.SpawnLocal(cfg.autospawn, bin, args)
	}
	if err != nil {
		return nil, err
	}
	b := &tcpBackend{jc: jc, cfg: cfg}
	if cfg.dataset != "" {
		if b.schemaCat, err = schemaCatalog(cfg); err != nil {
			jc.Close()
			return nil, err
		}
	}
	return b, nil
}

// schemaCatalog stages the dataset's schemas and the handler bundle into a
// driver-side validation catalog.
func schemaCatalog(cfg config) (*catalog.Catalog, error) {
	cat := catalog.New()
	if err := job.StageSchemas(cat, cfg.dataset, cfg.datasetSize); err != nil {
		return nil, err
	}
	if cfg.handlers != "" {
		if err := job.RegisterBundle(cat, cfg.handlers); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

func (b *tcpBackend) nodes() int { return len(b.jc.Addrs()) }

func (b *tcpBackend) close() error {
	b.jc.Close()
	return nil
}

func (b *tcpBackend) stats(_ context.Context, st *Stats) error {
	st.Transport = "tcp"
	st.Kernel = exec.ReadKernelStats()
	return nil
}

func (b *tcpBackend) catalogVersion() int64 {
	if b.schemaCat == nil {
		return 0
	}
	return b.schemaCat.Version()
}

func (b *tcpBackend) local(what string) (*inprocBackend, error) {
	return nil, fmt.Errorf("rex: %s is not available on a TCP session (workers rebuild state from job specs; stage data with WithDataset or run a Workload)", what)
}

func (b *tcpBackend) transport(string) (cluster.Transport, error) { return b.jc.Transport(), nil }

func (b *tcpBackend) createTable(string, *types.Schema, int) error {
	_, err := b.local("CreateTable")
	return err
}

func (b *tcpBackend) load(table string, tuples []Tuple, locked lockFunc) error {
	return loadAsInserts(b, table, tuples, locked)
}

// ingest validates the change against the staged schemas and appends it to
// the change log, under the session lock so a closed session rejects it
// instead of silently logging it.
func (b *tcpBackend) ingest(tables map[string][]Delta, locked lockFunc) (*IngestAck, error) {
	names := sortedTables(tables)
	for _, table := range names {
		if err := b.validateIngest(table, tables[table]); err != nil {
			return nil, err
		}
	}
	err := locked(func() error {
		for _, table := range names {
			b.appendIngestLog(table, tables[table])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return exec.ResolvedAck(nil, nil), nil
}

// roundApplied is a standing query's applied hook: a daemon whose store a
// round revised rebuilds its tables from the next job's spec, so the net
// change of every round joins the change log.
func (b *tcpBackend) roundApplied(tables map[string][]Delta) {
	for _, table := range sortedTables(tables) {
		b.appendIngestLog(table, tables[table])
	}
}

func (b *tcpBackend) validateIngest(table string, deltas []Delta) error {
	if b.schemaCat == nil {
		return fmt.Errorf("rex: TCP sessions need WithDataset before ingesting (tables are staged from it)")
	}
	tab, err := b.schemaCat.Table(table)
	if err != nil {
		return err
	}
	return checkDeltaArity(table, tab.Schema.Len(), deltas)
}

func (b *tcpBackend) query(src string, opts Options) (query, error) {
	spec, err := b.rqlSpec(src, opts)
	if err != nil {
		return nil, err
	}
	return &tcpJob{b: b, spec: spec, tune: driverTune(opts)}, nil
}

// prepare validates and plans src once driver-side against the schema
// catalog; plans cannot ship, so each execution binds its values into the
// text as literals and every daemon recompiles it.
func (b *tcpBackend) prepare(src string) (statement, error) {
	if b.schemaCat == nil {
		return nil, fmt.Errorf("rex: TCP sessions need WithDataset to stage data for RQL queries")
	}
	_, prep, err := rql.CompileStmt(src, b.schemaCat, b.nodes())
	if err != nil {
		return nil, err
	}
	return &tcpStmt{b: b, src: src, prep: prep}, nil
}

func (b *tcpBackend) workload(_ string, w *Workload, tune func(*Options)) (execution, error) {
	return &tcpJob{b: b, spec: w, tune: tune}, nil
}

// rqlSpec shapes an RQL query as a job spec for the daemon cluster.
func (b *tcpBackend) rqlSpec(src string, opts Options) (*job.Spec, error) {
	cfg := b.cfg
	if cfg.dataset == "" {
		return nil, fmt.Errorf("rex: TCP sessions need WithDataset to stage data for RQL queries (or run a self-contained Workload)")
	}
	return &job.Spec{
		Workload: "rql",
		Dataset:  cfg.dataset, Size: cfg.datasetSize, Seed: cfg.datasetSeed,
		Query:  src,
		VNodes: cfg.vnodes, Replication: cfg.replication,
		BatchSize: opts.BatchSize, Compaction: opts.Compaction,
		Checkpoint: opts.Checkpoint, CompactionHighWater: opts.CompactionHighWater,
		MaxStrata: opts.MaxStrata, NoVectorize: opts.NoVectorize,
		Handlers:        cfg.handlers,
		Ingest:          b.ingestSnapshot(),
		BufferPoolPages: cfg.poolPages,
	}, nil
}

// driverTune carries the driver-side (non-wire) options into a TCP run.
func driverTune(opts Options) func(*Options) {
	return func(o *Options) {
		o.Recovery = opts.Recovery
		o.TermFn = opts.TermFn
		o.OnStratum = opts.OnStratum
		o.Recover = opts.Recover
	}
}

// tcpJob runs one job spec over the daemon cluster.
type tcpJob struct {
	b    *tcpBackend
	spec *job.Spec
	tune func(*Options)
}

func (j *tcpJob) run(ctx context.Context) (*Result, error) {
	return j.b.jc.RunCtx(ctx, j.spec, j.tune)
}

func (j *tcpJob) stream(ctx context.Context) (*exec.ResultStream, error) {
	return j.b.jc.StreamCtx(ctx, j.spec, j.tune)
}

func (j *tcpJob) subscribe(ctx context.Context) (standing, error) {
	sq, err := j.b.jc.StandingCtx(ctx, j.spec, j.tune)
	if err != nil {
		return nil, err
	}
	sq.SetOnRoundApplied(j.b.roundApplied)
	return sq, nil
}

// tcpStmt is a statement validated against the schema catalog.
type tcpStmt struct {
	b    *tcpBackend
	src  string
	prep *rql.Prepared
}

func (st *tcpStmt) numParams() int { return st.prep.NumParams() }

// bind typechecks args against the inferred parameter kinds and renders
// the coerced values into the statement text — an int bound where a float
// was inferred ships as a float literal, matching what the in-process path
// would execute.
func (st *tcpStmt) bind(args []Value, opts Options) (execution, error) {
	vals, err := st.prep.Check(args)
	if err != nil {
		return nil, err
	}
	src, err := rql.BindText(st.src, vals)
	if err != nil {
		return nil, err
	}
	return st.b.query(src, opts)
}

// appendIngestLog records an accepted change for replay into future jobs;
// the table's log refolds as it goes, so it tracks the net change, not
// the churn.
func (b *tcpBackend) appendIngestLog(table string, deltas []Delta) {
	b.logMu.Lock()
	defer b.logMu.Unlock()
	if b.ingestLog == nil {
		b.ingestLog = map[string]*cluster.ChangeLog{}
	}
	tl := b.ingestLog[table]
	if tl == nil {
		keyCol := 0
		if b.schemaCat != nil {
			if tab, err := b.schemaCat.Table(table); err == nil {
				keyCol = tab.PartitionKey
			}
		}
		tl = cluster.NewChangeLog(keyCol)
		b.ingestLog[table] = tl
		b.logOrder = append(b.logOrder, table)
	}
	tl.Append(deltas)
}

// ingestSnapshot folds and encodes the change log for a job spec: at most
// one entry per table (first-touch order), carrying the net effect of
// every accepted change.
func (b *tcpBackend) ingestSnapshot() []job.IngestedTable {
	b.logMu.Lock()
	defer b.logMu.Unlock()
	var out []job.IngestedTable
	for _, table := range b.logOrder {
		net := b.ingestLog[table].Net()
		if len(net) == 0 {
			continue
		}
		out = append(out, job.IngestedTable{Table: table, Deltas: cluster.EncodeDeltas(net)})
	}
	return out
}

// ingestLogLen reports the change log's retained delta count (tests assert
// boundedness under churn).
func (b *tcpBackend) ingestLogLen() int {
	b.logMu.Lock()
	defer b.logMu.Unlock()
	n := 0
	for _, tl := range b.ingestLog {
		n += tl.Len()
	}
	return n
}
