// Package algos contains the paper's delta-oriented implementations of
// PageRank, single-source shortest path, and K-means clustering (§3.5 and
// the appendix listings), each as a set of REX delta handlers plus a
// physical-plan builder, in both delta and no-delta configurations, along
// with sequential reference implementations used to validate results.
package algos

import (
	"fmt"
	"math"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// Damping is the PageRank damping factor.
const Damping = 0.85

// PageRankConfig tunes the PageRank query.
type PageRankConfig struct {
	// Epsilon is the Δ threshold: diffs smaller than this are not
	// propagated (Listing 1 uses 0.01).
	Epsilon float64
	// Delta selects the incremental strategy; false builds the no-delta
	// variant that re-processes every vertex each iteration.
	Delta bool
	// MaxIterations caps the recursion (the no-delta variant relies on
	// this, matching the paper's fixed-iteration runs).
	MaxIterations int
}

// RegisterPageRank installs the PRAgg join handler and the PageRank while
// handler (Listing 1) into the catalog, under names unique to the config.
func RegisterPageRank(cat *catalog.Catalog, cfg PageRankConfig) (joinName, whileName string, err error) {
	suffix := "delta"
	if !cfg.Delta {
		suffix = "nodelta"
	}
	joinName = "pr_join_" + suffix
	whileName = "pr_while_" + suffix

	// PRAgg: graph edges accumulate in the left bucket; an incoming
	// PageRank diff δ(srcId, d) fans out d/outdeg to every out-neighbor
	// (Listing 1's resBag.add(nbr, deltaPr/nbrBucket.size())). In the
	// no-delta variant the incoming value is the full PageRank and the
	// contribution is pr/outdeg.
	join := &uda.FuncJoinHandler{
		HName: joinName,
		Out:   types.MustSchema("nbr:Integer", "prDiff:Double"),
		Fn: func(left, right *uda.TupleSet, d types.Delta, fromLeft bool, out *uda.Emitter) error {
			if fromLeft {
				left.Add(d.Tup)
				return nil
			}
			v, ok := types.AsFloat(d.Tup[1])
			if !ok {
				return fmt.Errorf("algos: PageRank delta with non-numeric value %v", d.Tup[1])
			}
			return emitNeighbors(out, left, v/float64(left.Len()))
		},
	}
	if err := cat.RegisterJoinHandler(join); err != nil {
		return "", "", err
	}

	// While handler: the mutable relation maps srcId → PageRank. The
	// recursive case delivers refreshed values 0.15 + 0.85·sum; the
	// handler refines the state in place and propagates only diffs above
	// Epsilon — exactly the refinement-of-state semantics of §3.3.
	eps := cfg.Epsilon
	delta := cfg.Delta
	while := &uda.FuncWhileHandler{
		HName: whileName,
		Fn: func(rel *uda.TupleSet, d types.Delta, out *uda.Emitter) error {
			newPr, ok := types.AsFloat(d.Tup[1])
			if !ok || math.IsNaN(newPr) || math.IsInf(newPr, 0) {
				return nil
			}
			if rel.Len() == 0 {
				addKeyed(rel, d, newPr)
				return emitUpdate(out, d.Tup[0], newPr)
			}
			old, _ := rel.Float(0, 1)
			diff := newPr - old
			if !delta {
				// No-delta mode: always refine the state; the fixpoint
				// re-feeds the whole relation each stratum, so emissions
				// only signal "still changing" for implicit termination.
				if diff == 0 {
					return nil
				}
				rel.SetFloat(0, 1, newPr)
				if math.Abs(diff) > eps {
					return emitUpdate(out, d.Tup[0], newPr)
				}
				return nil
			}
			// Delta mode: refine the state only when the change is worth
			// propagating; otherwise the stored value keeps marking the
			// last propagated rank, so sub-ε changes accumulate until
			// they cross the threshold instead of being silently lost.
			if math.Abs(diff) <= eps {
				return nil
			}
			rel.SetFloat(0, 1, newPr)
			return emitUpdate(out, d.Tup[0], diff)
		},
	}
	if err := cat.RegisterWhileHandler(while); err != nil {
		return "", "", err
	}
	return joinName, whileName, nil
}

// emitUpdate writes the δ(key, v) row every graph handler propagates.
func emitUpdate(out *uda.Emitter, key types.Value, v float64) error {
	out.Begin(types.OpUpdate)
	out.Value(key)
	out.Float(v)
	return out.End()
}

// addKeyed stores the tuple (d's key field, v) in rel: a while handler's
// one tuple per key.
func addKeyed(rel *uda.TupleSet, d types.Delta, v float64) {
	rel.Add(d.Tup[:2])
	rel.SetFloat(rel.Len()-1, 1, v)
}

// emitNeighbors writes δ(nbr, v) for every out-edge (src, nbr) in edges,
// straight from the bucket's lanes.
func emitNeighbors(out *uda.Emitter, edges *uda.TupleSet, v float64) error {
	for i := 0; i < edges.Len(); i++ {
		out.Begin(types.OpUpdate)
		out.Field(edges, i, 1)
		out.Float(v)
		if err := out.End(); err != nil {
			return err
		}
	}
	return nil
}

// PageRankPlan builds the physical plan of Figure 1 for the graph table
// (srcId, destId) partitioned by srcId.
func PageRankPlan(cfg PageRankConfig, joinName, whileName string) *exec.PlanSpec {
	p := exec.NewPlanSpec()
	if cfg.MaxIterations > 0 {
		p.MaxStrata = cfg.MaxIterations
	}

	// Base case: SELECT srcId, 1.0 FROM graph (duplicates per out-edge are
	// absorbed by the while handler).
	baseScan := p.Add(&exec.OpSpec{Kind: exec.OpScan, Table: "graph"})
	baseInit := p.Add(&exec.OpSpec{
		Kind: exec.OpProject, Inputs: []int{baseScan.ID},
		Exprs: []expr.Expr{expr.NewCol(0, types.KindInt, "srcId"), expr.NewConst(1.0)},
	})

	fix := p.Add(&exec.OpSpec{
		Kind: exec.OpFixpoint, FixpointKey: []int{0},
		WhileHandlerName: whileName,
		NoDelta:          !cfg.Delta,
	})

	// Recursive case: join diffs with the graph, split PageRank among
	// out-edges, redistribute by destination, and sum.
	graphScan := p.Add(&exec.OpSpec{Kind: exec.OpScan, Table: "graph"})
	join := p.Add(&exec.OpSpec{
		Kind: exec.OpHashJoin, Inputs: []int{graphScan.ID, fix.ID},
		LeftKey: []int{0}, RightKey: []int{0},
		JoinHandlerName: joinName, ImmutablePort: 0,
	})
	// Same-key contribution deltas may merge by summation in the shuffle
	// compactor because the downstream group-by sums them anyway.
	rehash := p.Add(&exec.OpSpec{
		Kind: exec.OpRehash, Inputs: []int{join.ID}, HashKey: []int{0},
		CompactMerge: map[int]string{1: "sum"},
	})
	gby := p.Add(&exec.OpSpec{
		Kind: exec.OpGroupBy, Inputs: []int{rehash.ID}, GroupKey: []int{0},
		Aggs: []exec.AggSpec{{
			Fn: "sum", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "prDiff")}, OutName: "prSum",
		}},
		ResetPerStratum: !cfg.Delta,
	})
	proj := p.Add(&exec.OpSpec{
		Kind: exec.OpProject, Inputs: []int{gby.ID},
		Exprs: []expr.Expr{
			expr.NewCol(0, types.KindInt, "nbr"),
			expr.NewArith(expr.OpAdd, expr.NewConst(1-Damping),
				expr.NewArith(expr.OpMul, expr.NewConst(Damping), expr.NewCol(1, types.KindFloat, "prSum"))),
		},
	})

	fix.Inputs = []int{baseInit.ID, proj.ID}
	fix.RecursiveOut = join.ID
	p.RootID = fix.ID
	return p
}
