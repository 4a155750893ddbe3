package wrap

import (
	"fmt"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/mapred"
	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// IterativeJobPlan builds a REX plan that executes a Hadoop job chain
// iteratively (§4.4): the fixpoint re-feeds the full MapReduce state each
// stratum (Hadoop semantics carry no deltas), MapWrap fans it through the
// mapper, a rehash shuffles by key, and ReduceWrap reduces per key. The
// state table must be loaded under stateTable with schema (k, v) keyed on
// column 0.
//
// The returned plan runs exactly iters strata — the fixed-iteration
// driver loop a Hadoop deployment would run externally.
func IterativeJobPlan(cat *catalog.Catalog, job *mapred.Job, stateTable string, iters int) (*exec.PlanSpec, error) {
	mapName := "mapwrap_" + job.Name
	redName := "reducewrap_" + job.Name
	whileName := "wrapwhile_" + job.Name
	if err := RegisterMapWrap(cat, mapName, job.Mapper); err != nil {
		return nil, err
	}
	if err := RegisterReduceWrap(cat, redName, job.Reducer); err != nil {
		return nil, err
	}
	// The while handler stores the latest (k, v) state record per key.
	err := cat.RegisterWhileHandler(&uda.FuncWhileHandler{
		HName: whileName,
		Fn: func(rel *uda.TupleSet, d types.Delta, out *uda.Emitter) error {
			if len(d.Tup) < 2 {
				return fmt.Errorf("wrap: state tuples must be (k, v)")
			}
			if rel.Len() == 0 {
				rel.Add(d.Tup)
			} else if rel.RowEqual(0, d.Tup) {
				return nil
			} else {
				rel.Set(0, d.Tup)
			}
			return out.Emit(d)
		},
	})
	if err != nil {
		return nil, err
	}

	p := exec.NewPlanSpec()
	p.MaxStrata = iters
	seed := p.Add(&exec.OpSpec{Kind: exec.OpScan, Table: stateTable})
	fix := p.Add(&exec.OpSpec{
		Kind: exec.OpFixpoint, FixpointKey: []int{0},
		WhileHandlerName: whileName, NoDelta: true,
	})
	mw := p.Add(&exec.OpSpec{Kind: exec.OpTVF, Inputs: []int{fix.ID}, TVFName: mapName})
	rehash := p.Add(&exec.OpSpec{Kind: exec.OpRehash, Inputs: []int{mw.ID}, HashKey: []int{0}})
	rw := p.Add(&exec.OpSpec{
		Kind: exec.OpGroupBy, Inputs: []int{rehash.ID},
		GroupKey: []int{0}, UDAName: redName,
	})
	fix.Inputs = []int{seed.ID, rw.ID}
	fix.RecursiveOut = mw.ID
	p.RootID = fix.ID
	return p, nil
}

// StateTuples converts MapReduce KV state into REX tuples for loading.
func StateTuples(state []mapred.KV) []types.Tuple {
	out := make([]types.Tuple, len(state))
	for i, kv := range state {
		out[i] = types.NewTuple(kv.K, kv.V)
	}
	return out
}
