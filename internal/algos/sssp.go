package algos

import (
	"math"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// SSSPConfig tunes the single-source shortest-path query (Listing 2).
type SSSPConfig struct {
	// Source is the start vertex.
	Source int64
	// Delta selects frontier-style incremental evaluation; false re-feeds
	// every known distance each iteration (REX no-delta).
	Delta bool
	// MaxIterations caps recursion (the paper runs 6 on DBPedia for every
	// strategy except REX delta, which runs to the true fixpoint).
	MaxIterations int
}

// RegisterSSSP installs the SPAgg join handler and shortest-path while
// handler under config-specific names.
func RegisterSSSP(cat *catalog.Catalog, cfg SSSPConfig) (joinName, whileName string, err error) {
	suffix := "delta"
	if !cfg.Delta {
		suffix = "nodelta"
	}
	joinName = "sp_join_" + suffix
	whileName = "sp_while_" + suffix

	// SPAgg (Listing 2): edges accumulate on the left; a distance delta
	// δ(srcId, d) emits d+1 to every out-neighbor.
	join := &uda.FuncJoinHandler{
		HName: joinName,
		Out:   types.MustSchema("nbr:Integer", "distOut:Double"),
		Fn: func(left, right *uda.TupleSet, d types.Delta, fromLeft bool, out *uda.Emitter) error {
			if fromLeft {
				left.Add(d.Tup)
				return nil
			}
			dist, ok := types.AsFloat(d.Tup[1])
			if !ok {
				return nil
			}
			return emitNeighbors(out, left, dist+1)
		},
	}
	if err := cat.RegisterJoinHandler(join); err != nil {
		return "", "", err
	}
	if err := cat.RegisterWhileHandler(&uda.FuncWhileHandler{HName: whileName, Fn: keepMin}); err != nil {
		return "", "", err
	}
	return joinName, whileName, nil
}

// keepMin is the shortest-path while handler: the mutable relation maps
// vertex → minimum distance; the Δᵢ set is exactly the vertices whose
// minimum improved (Fig. 3).
func keepMin(rel *uda.TupleSet, d types.Delta, out *uda.Emitter) error {
	nd, ok := types.AsFloat(d.Tup[1])
	if !ok || math.IsInf(nd, 0) {
		return nil
	}
	if rel.Len() > 0 {
		cur, _ := rel.Float(0, 1)
		if nd >= cur {
			return nil
		}
		rel.SetFloat(0, 1, nd)
	} else {
		addKeyed(rel, d, nd)
	}
	return emitUpdate(out, d.Tup[0], nd)
}

// RegisterIncSSSP installs the standing-query variant of the SSSP handlers
// under the fixed names "spinc" (join) and "spmin" (while). Unlike SPAgg,
// the join handler is ingestion-aware: it remembers each source's best
// known distance in the right bucket, so an edge INSERTED after the
// initial fixpoint immediately re-derives a distance for its endpoint from
// resident state — the incremental view-maintenance behavior standing
// queries need. Distances are monotone (keep-min), so incremental rounds
// and a from-scratch recompute converge to the identical relation for
// insert-only edge churn.
func RegisterIncSSSP(cat *catalog.Catalog) error {
	join := &uda.FuncJoinHandler{
		HName: "spinc",
		Out:   types.MustSchema("nbr:Integer", "distOut:Double"),
		Fn: func(left, right *uda.TupleSet, d types.Delta, fromLeft bool, out *uda.Emitter) error {
			if fromLeft {
				// Edge delta. Inserts join against the source's current
				// best distance; deletes only retire the edge (min
				// distances are not invertible — deletions need recompute).
				switch d.Op {
				case types.OpDelete:
					left.Remove(d.Tup)
					return nil
				default:
					left.Add(d.Tup)
					if right.Len() == 0 {
						return nil // source unreached so far
					}
					dist, ok := right.Float(0, 1)
					if !ok {
						return nil
					}
					return emitUpdate(out, d.Tup[1], dist+1)
				}
			}
			// Distance delta δ(srcId, d): remember the best distance for
			// future edge inserts, emit d+1 to every out-neighbor.
			dist, ok := types.AsFloat(d.Tup[1])
			if !ok {
				return nil
			}
			if right.Len() > 0 {
				cur, _ := right.Float(0, 1)
				if dist < cur {
					right.Set(0, d.Tup)
				}
			} else {
				right.Add(d.Tup)
			}
			return emitNeighbors(out, left, dist+1)
		},
	}
	if err := cat.RegisterJoinHandler(join); err != nil {
		return err
	}
	return cat.RegisterWhileHandler(&uda.FuncWhileHandler{HName: "spmin", Fn: keepMin})
}

// IncSSSPQuery is the standing shortest-path RQL text over the "sssp"
// dataset (graph + spseed), using the ingestion-aware handler bundle.
const IncSSSPQuery = `
WITH SP (srcId, dist) AS (
  SELECT srcId, dist FROM spseed
) UNION ALL UNTIL FIXPOINT BY srcId USING spmin (
  SELECT nbr, min(d)
  FROM (SELECT spinc(srcId, dist).{nbr, d}
        FROM graph, SP WHERE graph.srcId = SP.srcId GROUP BY srcId)
  GROUP BY nbr)`

// SSSPPlan builds the recursive shortest-path plan over graph(srcId,
// destId) and a single-row seed table spseed(srcId, dist).
func SSSPPlan(cfg SSSPConfig, joinName, whileName string) *exec.PlanSpec {
	p := exec.NewPlanSpec()
	if cfg.MaxIterations > 0 {
		p.MaxStrata = cfg.MaxIterations
	}
	seed := p.Add(&exec.OpSpec{Kind: exec.OpScan, Table: "spseed"})
	fix := p.Add(&exec.OpSpec{
		Kind: exec.OpFixpoint, FixpointKey: []int{0},
		WhileHandlerName: whileName,
		NoDelta:          !cfg.Delta,
	})
	graphScan := p.Add(&exec.OpSpec{Kind: exec.OpScan, Table: "graph"})
	join := p.Add(&exec.OpSpec{
		Kind: exec.OpHashJoin, Inputs: []int{graphScan.ID, fix.ID},
		LeftKey: []int{0}, RightKey: []int{0},
		JoinHandlerName: joinName, ImmutablePort: 0,
	})
	// Competing distance deltas for one vertex collapse to the minimum in
	// the shuffle compactor — the downstream group-by keeps only the min.
	rehash := p.Add(&exec.OpSpec{
		Kind: exec.OpRehash, Inputs: []int{join.ID}, HashKey: []int{0},
		CompactMerge: map[int]string{1: "min"},
	})
	gby := p.Add(&exec.OpSpec{
		Kind: exec.OpGroupBy, Inputs: []int{rehash.ID}, GroupKey: []int{0},
		Aggs: []exec.AggSpec{{
			Fn: "min", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "distOut")}, OutName: "dist",
		}},
		ResetPerStratum: !cfg.Delta,
	})
	fix.Inputs = []int{seed.ID, gby.ID}
	fix.RecursiveOut = join.ID
	p.RootID = fix.ID
	return p
}

// SSSPSeed builds the one-row seed relation for the source vertex.
func SSSPSeed(cfg SSSPConfig) []types.Tuple {
	return []types.Tuple{types.NewTuple(cfg.Source, 0.0)}
}
