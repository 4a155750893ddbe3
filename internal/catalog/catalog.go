// Package catalog holds the metadata REX consults at plan time: table
// definitions (schema, partitioning key, statistics), the registries of
// user-defined scalar functions, aggregators, and delta handlers (the Go
// analogue of the paper's directly-loaded Java classes, §3), plus the
// programmer cost hints the optimizer uses for cost estimation (§5).
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// ErrUnknownTable is the sentinel wrapped by every table lookup that
// misses, so callers across the stack (sessions, the rexd server, the
// RQL binder) can classify the failure with errors.Is instead of
// matching message text.
var ErrUnknownTable = errors.New("catalog: unknown table")

// Table describes a base relation.
type Table struct {
	Name   string
	Schema *types.Schema
	// PartitionKey is the column index data is hash-partitioned by.
	PartitionKey int
	// Stats available to the optimizer.
	Stats TableStats
}

// TableStats are the offline-computed statistics of §5.
type TableStats struct {
	RowCount int64
	// DistinctKeys estimates the number of distinct partition-key values.
	DistinctKeys int64
	// AvgTupleBytes is the mean encoded tuple size.
	AvgTupleBytes float64
}

// CostHint is a programmer-supplied cost hint for a UDF (§5.1): a "big-O"
// shape combined with calibration to predict per-tuple cost.
type CostHint struct {
	// Shape maps the main input parameter value to a relative cost factor;
	// nil means value-independent cost.
	Shape func(arg types.Value) float64
}

// FuncDef is a registered scalar UDF with its optimizer metadata.
type FuncDef struct {
	Name     string
	ArgKinds []types.Kind
	RetKind  types.Kind
	Fn       expr.ScalarFn
	// Deterministic functions are cached by applyFunction (§5.1).
	Deterministic bool
	// CostPerTuple is the per-invocation CPU cost (abstract units).
	CostPerTuple float64
	// Selectivity in (0,1] for predicates; 1 for non-filtering functions.
	Selectivity float64
	// Hint optionally refines CostPerTuple by input value.
	Hint *CostHint
}

// Rank is the predicate-migration rank of [13]: cost per tuple divided by
// (1 - selectivity). Cheap, highly selective predicates rank first.
func (f *FuncDef) Rank() float64 {
	drop := 1 - f.Selectivity
	if drop <= 0 {
		// Non-filtering functions order purely by cost (infinite rank
		// would starve them; use a large but finite rank).
		return f.CostPerTuple * 1e6
	}
	return f.CostPerTuple / drop
}

// AggDef is a registered UDA (table-valued aggregator) plus its optimizer
// metadata from §5.2.
type AggDef struct {
	Name string
	Agg  uda.Aggregator
	// Composable UDAs may be pre-aggregated below arbitrary joins.
	Composable bool
	// MultFn compensates double-sided pre-aggregation on multiplicative
	// joins; nil when not supplied by the user.
	MultFn func(d types.Delta, oppositeCard int) (types.Delta, error)
	// PreAgg is the combiner, when supplied.
	PreAgg uda.Aggregator
}

// Catalog is the central metadata store. It is safe for concurrent use; the
// requestor snapshots it when distributing a query.
type Catalog struct {
	mu            sync.RWMutex
	tables        map[string]*Table
	funcs         map[string]*FuncDef
	aggs          map[string]*AggDef
	joinHandlers  map[string]uda.JoinHandler
	whileHandlers map[string]uda.WhileHandler
	tvfs          map[string]*TVFDef
	// version counts schema-shaping registrations (tables, routines,
	// handlers). Statistics updates do not bump it: they steer costing,
	// never plan validity, so a plan cache keyed on the version survives
	// ingest-driven stats churn.
	version int64
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:        map[string]*Table{},
		funcs:         map[string]*FuncDef{},
		aggs:          map[string]*AggDef{},
		joinHandlers:  map[string]uda.JoinHandler{},
		whileHandlers: map[string]uda.WhileHandler{},
		version:       1,
	}
}

// Version reports the catalog's schema version: 1 for a fresh catalog,
// bumped by every table, function, aggregator, handler, or TVF
// registration. Compiled-plan caches key on (query text, version) so a
// schema change invalidates every plan compiled against the old shape.
func (c *Catalog) Version() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// AddTable registers a base relation. It is an error to re-register a name.
func (c *Catalog) AddTable(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[t.Name]; dup {
		return fmt.Errorf("catalog: table %q already registered", t.Name)
	}
	if t.PartitionKey < 0 || t.PartitionKey >= t.Schema.Len() {
		return fmt.Errorf("catalog: table %q partition key %d out of range", t.Name, t.PartitionKey)
	}
	c.tables[t.Name] = t
	c.version++
	return nil
}

// Table resolves a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownTable, name)
	}
	return t, nil
}

// Tables lists registered table names, sorted.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SetStats replaces the statistics of a table.
func (c *Catalog) SetStats(table string, stats TableStats) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[table]
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownTable, table)
	}
	t.Stats = stats
	return nil
}

// RegisterFunc registers a scalar UDF. Defaults: selectivity 1,
// cost 1 unit/tuple.
func (c *Catalog) RegisterFunc(f *FuncDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.funcs[f.Name]; dup {
		return fmt.Errorf("catalog: function %q already registered", f.Name)
	}
	if f.Selectivity == 0 {
		f.Selectivity = 1
	}
	if f.CostPerTuple == 0 {
		f.CostPerTuple = 1
	}
	c.funcs[f.Name] = f
	c.version++
	return nil
}

// Func resolves a scalar UDF.
func (c *Catalog) Func(name string) (*FuncDef, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.funcs[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown function %q", name)
	}
	return f, nil
}

// RegisterAgg registers a UDA.
func (c *Catalog) RegisterAgg(a *AggDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.aggs[a.Name]; dup {
		return fmt.Errorf("catalog: aggregator %q already registered", a.Name)
	}
	c.aggs[a.Name] = a
	c.version++
	return nil
}

// Agg resolves a UDA.
func (c *Catalog) Agg(name string) (*AggDef, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	a, ok := c.aggs[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown aggregator %q", name)
	}
	return a, nil
}

// RegisterJoinHandler registers a join-state delta handler.
func (c *Catalog) RegisterJoinHandler(h uda.JoinHandler) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.joinHandlers[h.Name()]; dup {
		return fmt.Errorf("catalog: join handler %q already registered", h.Name())
	}
	c.joinHandlers[h.Name()] = h
	c.version++
	return nil
}

// JoinHandler resolves a join-state delta handler.
func (c *Catalog) JoinHandler(name string) (uda.JoinHandler, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	h, ok := c.joinHandlers[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown join handler %q", name)
	}
	return h, nil
}

// RegisterWhileHandler registers a while-state delta handler.
func (c *Catalog) RegisterWhileHandler(h uda.WhileHandler) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.whileHandlers[h.Name()]; dup {
		return fmt.Errorf("catalog: while handler %q already registered", h.Name())
	}
	c.whileHandlers[h.Name()] = h
	c.version++
	return nil
}

// WhileHandler resolves a while-state delta handler.
func (c *Catalog) WhileHandler(name string) (uda.WhileHandler, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	h, ok := c.whileHandlers[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown while handler %q", name)
	}
	return h, nil
}

// TVFDef is a registered table-valued function: one input delta in, any
// number of deltas out. REX's dependent join passes inputs to table-valued
// functions and combines the results (§4.2); the Hadoop MapWrap wrappers
// are TVFs.
type TVFDef struct {
	Name string
	Out  *types.Schema
	Fn   func(d types.Delta) ([]types.Delta, error)
	// CostPerTuple for the optimizer.
	CostPerTuple float64
	// Productivity is the expected output tuples per input tuple.
	Productivity float64
}

// RegisterTVF registers a table-valued function.
func (c *Catalog) RegisterTVF(f *TVFDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tvfs == nil {
		c.tvfs = map[string]*TVFDef{}
	}
	if _, dup := c.tvfs[f.Name]; dup {
		return fmt.Errorf("catalog: TVF %q already registered", f.Name)
	}
	if f.Productivity == 0 {
		f.Productivity = 1
	}
	if f.CostPerTuple == 0 {
		f.CostPerTuple = 1
	}
	c.tvfs[f.Name] = f
	c.version++
	return nil
}

// TVF resolves a table-valued function.
func (c *Catalog) TVF(name string) (*TVFDef, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.tvfs[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown TVF %q", name)
	}
	return f, nil
}
