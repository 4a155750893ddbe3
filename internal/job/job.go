// Package job defines the serializable job descriptions that make
// multi-process execution possible without shipping compiled plans: a
// Spec names a workload, its deterministic dataset parameters, and the
// execution options, and every process — the driver and each rexnode
// worker daemon — can rebuild the identical catalog, physical plan, and
// dataset from it. Only the spec crosses the wire (as a MsgJob payload);
// plans, delta handlers (Go closures), and data never do. A daemon whose
// loaded tables came from a spec with the same dataset fields keeps them
// and only compiles the new job's query (see internal/noded).
package job

import (
	"context"
	"encoding/json"
	"fmt"

	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/datagen"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/rql"
	"github.com/rex-data/rex/internal/types"
)

// Table is one generated base table of a job.
type Table struct {
	Name   string
	KeyCol int
	Tuples []types.Tuple
}

// Spec describes one query run. Everything in it is deterministic: two
// processes decoding the same spec build byte-identical plans and
// datasets, so a worker daemon can load exactly the partitions it owns.
type Spec struct {
	// Workload selects the plan builder: pagerank | sssp | kmeans | rql.
	Workload string `json:"workload"`

	// Cluster shape. Peers is filled by the driver before shipping; its
	// length is the node count and the MsgJob frame's To field tells
	// each daemon which entry is its own.
	Nodes       int      `json:"nodes"`
	VNodes      int      `json:"vnodes"`
	Replication int      `json:"replication"`
	Peers       []string `json:"peers,omitempty"`

	// Dataset parameters.
	Seed int64 `json:"seed"`
	Size int   `json:"size"`

	// Workload parameters.
	K             int     `json:"k,omitempty"`      // kmeans: cluster count
	Source        int64   `json:"source,omitempty"` // sssp: start vertex
	Epsilon       float64 `json:"epsilon,omitempty"`
	Delta         bool    `json:"delta"`
	MaxIterations int     `json:"max_iterations,omitempty"`

	// RQL mode: the query text, the dataset to stage for it, and an
	// optional named handler bundle to register before compiling.
	Query    string `json:"query,omitempty"`
	Dataset  string `json:"dataset,omitempty"`
	Handlers string `json:"handlers,omitempty"`

	// Ingest is the session's base-table change log: deltas accepted by
	// Session.Insert/Delete/LoadDeltas since the dataset was staged, in
	// arrival order. Every process folds the log into its generated tables
	// before loading, so a job sees the same revised base data everywhere —
	// this is what lets TCP sessions accept loads at all (their daemons
	// build their tables from the spec, and rebuild when the log changes).
	Ingest []IngestedTable `json:"ingest,omitempty"`

	// Execution options that must agree on both sides of the wire.
	BatchSize           int  `json:"batch_size,omitempty"`
	Compaction          bool `json:"compaction"`
	Checkpoint          bool `json:"checkpoint"`
	CompactionHighWater int  `json:"compaction_high_water,omitempty"`
	MaxStrata           int  `json:"max_strata,omitempty"`
	// Stream selects streaming-result mode: workers emit each stratum's
	// state changes as it closes instead of flushing the final relation
	// (both sides must agree — it changes fixpoint behavior). The
	// driver's entry point sets it: on for StreamCtx and StandingCtx, off
	// for RunCtx.
	Stream bool `json:"stream,omitempty"`
	// NoVectorize turns the compiled expression kernels off, so workers
	// run the interpreter (both sides must agree — it changes how every
	// worker evaluates expressions).
	NoVectorize bool `json:"no_vectorize,omitempty"`

	// BufferPoolPages sizes the page-store buffer pool on daemons running
	// with a data directory (0 = the daemon's own default). It crosses the
	// wire so one spec can pin the working-set budget cluster-wide.
	BufferPoolPages int `json:"buffer_pool_pages,omitempty"`
	// SpillDir, when set, backs the in-process engine's stores with paged
	// spill-to-disk files under this directory. Local-only: daemons place
	// their stores under their own -data-dir, never a driver path.
	SpillDir string `json:"-"`
}

// IngestedTable is one base-table delta batch of a session's change log.
// Deltas carries the batch in the cluster wire encoding (base64 inside the
// JSON spec), so the log costs what the wire would.
type IngestedTable struct {
	Table  string `json:"table"`
	Deltas []byte `json:"deltas"`
}

// Normalize fills defaults so both sides derive the same shape.
func (s *Spec) Normalize() {
	if s.Nodes <= 0 {
		s.Nodes = 4
	}
	if s.VNodes <= 0 {
		s.VNodes = 32
	}
	if s.Replication <= 0 {
		s.Replication = 3
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Size <= 0 {
		s.Size = 2000
	}
	if s.Workload == "kmeans" && s.K <= 0 {
		s.K = 8
	}
}

// Options derives the exec options every process must share. Driver-side
// concerns (recovery strategy, termination hooks) are layered on top by
// the caller — they never cross the wire.
func (s *Spec) Options() exec.Options {
	return exec.Options{
		BatchSize:           s.BatchSize,
		Compaction:          s.Compaction,
		Checkpoint:          s.Checkpoint,
		CompactionHighWater: s.CompactionHighWater,
		MaxStrata:           s.MaxStrata,
		Stream:              s.Stream,
		NoVectorize:         s.NoVectorize,
	}
}

// Encode serializes the spec for a MsgJob payload.
func (s *Spec) Encode() ([]byte, error) { return json.Marshal(s) }

// Decode parses a MsgJob payload.
func Decode(payload []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, fmt.Errorf("job: decode spec: %w", err)
	}
	s.Normalize()
	return &s, nil
}

// Build constructs the catalog (with registered delta handlers), the
// physical plan, and the generated base tables for this spec. Table row
// counts are installed as catalog stats before any RQL compilation so
// cost-based decisions are identical in every process.
func (s *Spec) Build() (*catalog.Catalog, *exec.PlanSpec, []Table, error) {
	s.Normalize()
	cat := catalog.New()
	var plan *exec.PlanSpec
	var tables []Table
	var err error
	switch s.Workload {
	case "pagerank":
		g := datagen.DBPediaGraph(s.Size, s.Seed)
		cfg := algos.PageRankConfig{Epsilon: s.Epsilon, Delta: s.Delta, MaxIterations: s.MaxIterations}
		if err = addTable(cat, "graph", 0, "srcId:Integer", "destId:Integer"); err != nil {
			return nil, nil, nil, err
		}
		jn, wn, rerr := algos.RegisterPageRank(cat, cfg)
		if rerr != nil {
			return nil, nil, nil, rerr
		}
		plan = algos.PageRankPlan(cfg, jn, wn)
		tables = []Table{{Name: "graph", KeyCol: 0, Tuples: g.Edges}}
	case "sssp":
		g := datagen.DBPediaGraph(s.Size, s.Seed)
		cfg := algos.SSSPConfig{Source: s.Source, Delta: s.Delta, MaxIterations: s.MaxIterations}
		if err = addTable(cat, "graph", 0, "srcId:Integer", "destId:Integer"); err != nil {
			return nil, nil, nil, err
		}
		if err = addTable(cat, "spseed", 0, "srcId:Integer", "dist:Double"); err != nil {
			return nil, nil, nil, err
		}
		jn, wn, rerr := algos.RegisterSSSP(cat, cfg)
		if rerr != nil {
			return nil, nil, nil, rerr
		}
		plan = algos.SSSPPlan(cfg, jn, wn)
		tables = []Table{
			{Name: "graph", KeyCol: 0, Tuples: g.Edges},
			{Name: "spseed", KeyCol: 0, Tuples: algos.SSSPSeed(cfg)},
		}
	case "kmeans":
		points := datagen.GeoPoints(s.Size, s.K, 1, s.Seed)
		cfg := algos.KMeansConfig{K: s.K, MaxIterations: s.MaxIterations}
		if err = addTable(cat, "points", 0, "id:Integer", "x:Double", "y:Double"); err != nil {
			return nil, nil, nil, err
		}
		if err = addTable(cat, "kmseed", 0, "cid:Integer", "x:Double", "y:Double"); err != nil {
			return nil, nil, nil, err
		}
		jn, wn, rerr := algos.RegisterKMeans(cat, cfg)
		if rerr != nil {
			return nil, nil, nil, rerr
		}
		plan = algos.KMeansPlan(cfg, jn, wn)
		tables = []Table{
			{Name: "points", KeyCol: 0, Tuples: points},
			{Name: "kmseed", KeyCol: 0, Tuples: algos.KMeansSeed(points, s.K)},
		}
	case "rql":
		tables, err = s.rqlTables(cat)
		if err != nil {
			return nil, nil, nil, err
		}
		if err = s.registerHandlers(cat); err != nil {
			return nil, nil, nil, err
		}
		if tables, err = s.applyIngest(tables); err != nil {
			return nil, nil, nil, err
		}
		// Stats must precede compilation: the optimizer reads them.
		if err = setStats(cat, tables); err != nil {
			return nil, nil, nil, err
		}
		if plan, err = s.CompileQuery(cat); err != nil {
			return nil, nil, nil, err
		}
		return cat, plan, tables, nil
	default:
		return nil, nil, nil, fmt.Errorf("job: unknown workload %q", s.Workload)
	}
	if tables, err = s.applyIngest(tables); err != nil {
		return nil, nil, nil, err
	}
	if err := setStats(cat, tables); err != nil {
		return nil, nil, nil, err
	}
	return cat, plan, tables, nil
}

// CompileQuery compiles an RQL spec's query against cat, a catalog that
// Build staged for a spec with the same dataset fields.
func (s *Spec) CompileQuery(cat *catalog.Catalog) (*exec.PlanSpec, error) {
	plan, err := rql.Compile(s.Query, cat, s.Nodes)
	if err != nil {
		return nil, fmt.Errorf("job: compile %q: %w", s.Query, err)
	}
	return plan, nil
}

// applyIngest folds the spec's base-table change log into the generated
// tables, in log order, so every process loads identically revised data.
func (s *Spec) applyIngest(tables []Table) ([]Table, error) {
	if len(s.Ingest) == 0 {
		return tables, nil
	}
	idx := map[string]int{}
	for i, tb := range tables {
		idx[tb.Name] = i
	}
	logs := make([][]types.Delta, len(tables))
	for _, entry := range s.Ingest {
		i, ok := idx[entry.Table]
		if !ok {
			return nil, fmt.Errorf("job: ingest log references table %q not in dataset", entry.Table)
		}
		deltas, err := cluster.DecodeDeltas(entry.Deltas)
		if err != nil {
			return nil, fmt.Errorf("job: ingest log for %s: %w", entry.Table, err)
		}
		logs[i] = append(logs[i], deltas...)
	}
	for i, log := range logs {
		tables[i].Tuples = foldLog(tables[i].Tuples, log)
	}
	return tables, nil
}

// foldLog applies a change log to rows: inserts and updates append, a
// delete removes the first equal row still present (none: no-op), a
// replace does both. Appends go to the end, so the rows a value loses are
// always the first ones equal to it, in row order: one pass counts the
// losses per value and a second drops them, keeping the survivors in order.
// (This groups rows by Equal, which is transitive while a column holds one
// kind of value, as a schema-checked table does. A tuple holding a NaN
// equals nothing, so deleting it is a no-op and its rows all survive.)
func foldLog(rows []types.Tuple, log []types.Delta) []types.Tuple {
	type tally struct {
		tup           types.Tuple
		seen, removed int
	}
	tallies := map[uint64][]*tally{}
	find := func(t types.Tuple) *tally {
		for _, c := range tallies[eqHash(t)] {
			if c.tup.Equal(t) {
				return c
			}
		}
		return nil
	}
	// Only values the log removes need counting.
	for _, d := range log {
		var t types.Tuple
		switch d.Op {
		case types.OpDelete:
			t = d.Tup
		case types.OpReplace:
			t = d.Old
		default:
			continue
		}
		if find(t) == nil {
			h := eqHash(t)
			tallies[h] = append(tallies[h], &tally{tup: t})
		}
	}
	see := func(t types.Tuple) {
		if len(tallies) == 0 {
			return // an insert-only log: nothing to count
		}
		if c := find(t); c != nil {
			c.seen++
		}
	}
	remove := func(t types.Tuple) {
		// No tally: a value not Equal to itself (a NaN), as absent as the
		// scan would find it.
		if c := find(t); c != nil && c.seen > c.removed {
			c.removed++
		}
	}
	for _, t := range rows {
		see(t)
	}
	for _, d := range log {
		switch d.Op {
		case types.OpInsert, types.OpUpdate:
			rows = append(rows, d.Tup)
			see(d.Tup)
		case types.OpDelete:
			remove(d.Tup)
		case types.OpReplace:
			remove(d.Old)
			rows = append(rows, d.Tup)
			see(d.Tup)
		}
	}
	if len(tallies) == 0 {
		return rows
	}
	out := rows[:0]
	for _, t := range rows {
		if c := find(t); c != nil && c.removed > 0 {
			c.removed--
			continue
		}
		out = append(out, t)
	}
	return out
}

// eqHash hashes a tuple so that Equal tuples collide: types.ValueEq
// compares a float against any value types.AsFloat reads as the same
// number, so every such value hashes as that float.
func eqHash(t types.Tuple) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range t {
		if f, ok := types.AsFloat(v); ok {
			v = f
		}
		h = h*1099511628211 ^ types.HashValue(v)
	}
	return h
}

// rqlTables stages the named dataset for an RQL job.
func (s *Spec) rqlTables(cat *catalog.Catalog) ([]Table, error) {
	return StageDataset(cat, s.Dataset, s.Size, s.Seed)
}

// StageDataset declares and generates one of the named deterministic
// datasets into cat: the tables any process can rebuild identically from
// (name, size, seed). The rex session layer uses it to stage the same data
// in-process that TCP daemons generate remotely.
func StageDataset(cat *catalog.Catalog, dataset string, size int, seed int64) ([]Table, error) {
	switch dataset {
	case "dbpedia", "twitter":
		var g *datagen.Graph
		if dataset == "dbpedia" {
			g = datagen.DBPediaGraph(size, seed)
		} else {
			g = datagen.TwitterGraph(size, seed)
		}
		if err := addTable(cat, "graph", 0, "srcId:Integer", "destId:Integer"); err != nil {
			return nil, err
		}
		return []Table{{Name: "graph", KeyCol: 0, Tuples: g.Edges}}, nil
	case "lineitem":
		if err := addTable(cat, "lineitem", 0, datagen.LineItemSchema...); err != nil {
			return nil, err
		}
		return []Table{{Name: "lineitem", KeyCol: 0, Tuples: datagen.LineItems(size, seed)}}, nil
	case "points":
		if err := addTable(cat, "points", 0, "id:Integer", "x:Double", "y:Double"); err != nil {
			return nil, err
		}
		return []Table{{Name: "points", KeyCol: 0, Tuples: datagen.GeoPoints(size, 8, 1, seed)}}, nil
	case "sssp":
		// Graph plus a one-row seed at vertex 0: the shape the recursive
		// shortest-path queries (and the standing-query suite) expect.
		g := datagen.DBPediaGraph(size, seed)
		if err := addTable(cat, "graph", 0, "srcId:Integer", "destId:Integer"); err != nil {
			return nil, err
		}
		if err := addTable(cat, "spseed", 0, "srcId:Integer", "dist:Double"); err != nil {
			return nil, err
		}
		return []Table{
			{Name: "graph", KeyCol: 0, Tuples: g.Edges},
			{Name: "spseed", KeyCol: 0, Tuples: []types.Tuple{types.NewTuple(int64(0), 0.0)}},
		}, nil
	default:
		return nil, fmt.Errorf("job: unknown dataset %q", dataset)
	}
}

// StageSchemas declares the named dataset's tables into cat — schemas and
// an estimated row count only, no tuple generation. Prepare-time
// validation needs the catalog shape, not the data; the row estimate only
// steers costing, never correctness, so it need not match the generated
// count exactly.
func StageSchemas(cat *catalog.Catalog, dataset string, size int) error {
	var names []string
	switch dataset {
	case "dbpedia", "twitter":
		names = []string{"graph"}
		if err := addTable(cat, "graph", 0, "srcId:Integer", "destId:Integer"); err != nil {
			return err
		}
	case "lineitem":
		names = []string{"lineitem"}
		if err := addTable(cat, "lineitem", 0, datagen.LineItemSchema...); err != nil {
			return err
		}
	case "points":
		names = []string{"points"}
		if err := addTable(cat, "points", 0, "id:Integer", "x:Double", "y:Double"); err != nil {
			return err
		}
	case "sssp":
		names = []string{"graph"}
		if err := addTable(cat, "graph", 0, "srcId:Integer", "destId:Integer"); err != nil {
			return err
		}
		if err := addTable(cat, "spseed", 0, "srcId:Integer", "dist:Double"); err != nil {
			return err
		}
	default:
		return fmt.Errorf("job: unknown dataset %q", dataset)
	}
	for _, name := range names {
		tab, err := cat.Table(name)
		if err != nil {
			return err
		}
		stats := tab.Stats
		stats.RowCount = int64(size)
		if err := cat.SetStats(name, stats); err != nil {
			return err
		}
	}
	return nil
}

// registerHandlers installs a named delta-handler bundle. Handler names
// are deterministic per bundle, so query text referencing them compiles
// identically everywhere.
func (s *Spec) registerHandlers(cat *catalog.Catalog) error {
	switch s.Handlers {
	case "":
		return nil
	case "pagerank":
		cfg := algos.PageRankConfig{Epsilon: s.Epsilon, Delta: s.Delta, MaxIterations: s.MaxIterations}
		_, _, err := algos.RegisterPageRank(cat, cfg)
		return err
	case "sssp-inc":
		return algos.RegisterIncSSSP(cat)
	default:
		return fmt.Errorf("job: unknown handler bundle %q", s.Handlers)
	}
}

// RegisterBundle installs a named handler bundle into a catalog with
// default parameters — how in-process sessions honor WithHandlers, so the
// same RQL text compiles against the same handler names on every
// transport.
func RegisterBundle(cat *catalog.Catalog, name string) error {
	s := Spec{Handlers: name}
	return s.registerHandlers(cat)
}

func addTable(cat *catalog.Catalog, name string, keyCol int, fields ...string) error {
	return cat.AddTable(&catalog.Table{
		Name: name, Schema: types.MustSchema(fields...), PartitionKey: keyCol,
	})
}

func setStats(cat *catalog.Catalog, tables []Table) error {
	for _, tb := range tables {
		tab, err := cat.Table(tb.Name)
		if err != nil {
			return err
		}
		stats := tab.Stats
		stats.RowCount = int64(len(tb.Tuples))
		if err := cat.SetStats(tb.Name, stats); err != nil {
			return err
		}
	}
	return nil
}

// RunInProc executes the spec on a fresh in-process engine — the
// single-process reference every multi-process run can be compared
// against. tune, when non-nil, adjusts the derived options (recovery
// strategy, stratum hooks) before the run.
func RunInProc(s *Spec, tune func(*exec.Options)) (*exec.Result, error) {
	return RunInProcCtx(context.Background(), s, tune)
}

// RunInProcCtx is RunInProc honoring a context.
func RunInProcCtx(ctx context.Context, s *Spec, tune func(*exec.Options)) (*exec.Result, error) {
	eng, plan, opts, err := InProcEngine(s)
	if err != nil {
		return nil, err
	}
	if tune != nil {
		tune(&opts)
	}
	return eng.RunCtx(ctx, plan, opts)
}

// StreamInProc executes the spec on a fresh in-process engine in
// streaming-result mode.
func StreamInProc(ctx context.Context, s *Spec, tune func(*exec.Options)) (*exec.ResultStream, error) {
	clone := *s // Normalize mutates; keep the caller's spec pristine
	s = &clone
	eng, plan, opts, err := InProcEngine(s)
	if err != nil {
		return nil, err
	}
	if tune != nil {
		tune(&opts)
	}
	return eng.Stream(ctx, plan, opts)
}

// InProcEngine builds a loaded in-process engine plus the spec's plan and
// options, for callers that need the engine handle (failure injection).
func InProcEngine(s *Spec) (*exec.Engine, *exec.PlanSpec, exec.Options, error) {
	s.Normalize()
	cat, plan, tables, err := s.Build()
	if err != nil {
		return nil, nil, exec.Options{}, err
	}
	eng := exec.NewEngine(s.Nodes, s.VNodes, s.Replication, cat)
	if s.SpillDir != "" {
		if err := eng.UseSpill(s.SpillDir, s.BufferPoolPages); err != nil {
			return nil, nil, exec.Options{}, err
		}
	}
	for _, tb := range tables {
		if err := eng.Load(tb.Name, tb.KeyCol, tb.Tuples); err != nil {
			return nil, nil, exec.Options{}, err
		}
	}
	return eng, plan, s.Options(), nil
}
