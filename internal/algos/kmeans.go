package algos

import (
	"math"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// KMeansConfig tunes the K-means clustering query (Listing 3).
type KMeansConfig struct {
	K             int
	MaxIterations int
}

// Point-bucket tuple layout inside the join handler's left bucket:
// (pointId, x, y, assignedCid, distToAssigned).
const (
	kmPid = iota
	kmX
	kmY
	kmCid
	kmDist
)

// RegisterKMeans installs KMAgg (Listing 3) and the K-means while handler.
// KMAgg maintains nodeBucket (the local points with their current
// assignments — the mutable set of Fig. 3) and centrBucket (the centroid
// coordinates); each centroid movement re-checks the affected points and
// emits coordinate/count adjustments only for points that switched
// centroids — the Δᵢ set of Fig. 3.
func RegisterKMeans(cat *catalog.Catalog, cfg KMeansConfig) (joinName, whileName string, err error) {
	joinName = "km_join"
	whileName = "km_while"

	join := &uda.FuncJoinHandler{
		HName: joinName,
		Out:   types.MustSchema("cid:Integer", "xDiff:Double", "yDiff:Double", "nDiff:Integer"),
		Fn: func(nodeBucket, centrBucket *uda.TupleSet, d types.Delta, fromLeft bool, out *uda.Emitter) error {
			if fromLeft {
				// Point insert (key, pid, x, y). Base data arrives exactly
				// once per run: K-means recovers via the restart strategy
				// (its assignment state is join-handler-local), so no
				// duplicate-insert guard is needed on this hot path.
				nodeBucket.Add(types.NewTuple(d.Tup[1], d.Tup[2], d.Tup[3], int64(-1), math.Inf(1)))
				return nil
			}
			// Centroid delta (key, cid, cx, cy).
			cid, _ := types.AsInt(d.Tup[1])
			cx, _ := types.AsFloat(d.Tup[2])
			cy, _ := types.AsFloat(d.Tup[3])
			centrBucket.Put(0, cid, 1, cx, func() types.Tuple {
				return types.NewTuple(cid, 0.0, 0.0)
			})
			centrBucket.Put(0, cid, 2, cy, nil)

			for i := 0; i < nodeBucket.Len(); i++ {
				px, _ := nodeBucket.Float(i, kmX)
				py, _ := nodeBucket.Float(i, kmY)
				curCid, _ := nodeBucket.Int(i, kmCid)
				curDist, _ := nodeBucket.Float(i, kmDist)
				newCid, newDist := curCid, curDist
				if curCid == cid {
					// The point's own centroid moved: full re-check
					// against every centroid (its stored distance is
					// stale either way).
					newCid, newDist = nearestCentroid(centrBucket, px, py)
				} else {
					dd := dist2(px, py, cx, cy)
					if dd < curDist {
						newCid, newDist = cid, dd
					}
				}
				if newCid == curCid {
					if newDist != curDist {
						nodeBucket.SetFloat(i, kmDist, newDist)
					}
					continue
				}
				// The point switched centroids: Listing 3's
				// resBag.add({cid,nx,ny},{oldCid,-nx,-ny}).
				np := nodeBucket.Row(i)
				np[kmCid] = newCid
				np[kmDist] = newDist
				nodeBucket.Set(i, np)
				if err := emitMove(out, newCid, px, py, 1); err != nil {
					return err
				}
				if curCid >= 0 {
					if err := emitMove(out, curCid, -px, -py, -1); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}
	if err := cat.RegisterJoinHandler(join); err != nil {
		return "", "", err
	}

	// While handler: centroids are the fixpoint relation keyed by cid;
	// a recomputed centroid is propagated only when it actually moved.
	while := &uda.FuncWhileHandler{
		HName: whileName,
		Fn: func(rel *uda.TupleSet, d types.Delta, out *uda.Emitter) error {
			cid := d.Tup[0]
			cx, okx := types.AsFloat(d.Tup[1])
			cy, oky := types.AsFloat(d.Tup[2])
			if !okx || !oky || math.IsNaN(cx) || math.IsNaN(cy) || math.IsInf(cx, 0) || math.IsInf(cy, 0) {
				return nil // empty cluster: keep the old centroid
			}
			if rel.Len() == 0 {
				rel.Add(types.NewTuple(cid, cx, cy))
			} else {
				ox, _ := rel.Float(0, 1)
				oy, _ := rel.Float(0, 2)
				if ox == cx && oy == cy {
					return nil
				}
				rel.Set(0, types.NewTuple(cid, cx, cy))
			}
			out.Begin(types.OpUpdate)
			out.Value(cid)
			out.Float(cx)
			out.Float(cy)
			return out.End()
		},
	}
	if err := cat.RegisterWhileHandler(while); err != nil {
		return "", "", err
	}
	return joinName, whileName, nil
}

// emitMove writes KMAgg's δ(cid, x, y, n) coordinate and count adjustment.
func emitMove(out *uda.Emitter, cid int64, x, y float64, n int64) error {
	out.Begin(types.OpUpdate)
	out.Int(cid)
	out.Float(x)
	out.Float(y)
	out.Int(n)
	return out.End()
}

func nearestCentroid(centroids *uda.TupleSet, px, py float64) (int64, float64) {
	best := int64(-1)
	bestD := math.Inf(1)
	for i := 0; i < centroids.Len(); i++ {
		cid, _ := centroids.Int(i, 0)
		cx, _ := centroids.Float(i, 1)
		cy, _ := centroids.Float(i, 2)
		if d := dist2(px, py, cx, cy); d < bestD || (d == bestD && cid < best) {
			best, bestD = cid, d
		}
	}
	return best, bestD
}

func dist2(x1, y1, x2, y2 float64) float64 {
	dx, dy := x1-x2, y1-y2
	return dx*dx + dy*dy
}

// KMeansPlan builds the clustering plan over points(id, x, y) and the
// sampled centroid seed table kmseed(cid, x, y). Centroid deltas broadcast
// to every node (each node holds a partition of the points); coordinate
// and count adjustments rehash by centroid id and cumulative sums yield
// the refreshed centroid positions.
func KMeansPlan(cfg KMeansConfig, joinName, whileName string) *exec.PlanSpec {
	p := exec.NewPlanSpec()
	if cfg.MaxIterations > 0 {
		p.MaxStrata = cfg.MaxIterations
	}
	seed := p.Add(&exec.OpSpec{Kind: exec.OpScan, Table: "kmseed"})
	fix := p.Add(&exec.OpSpec{
		Kind: exec.OpFixpoint, FixpointKey: []int{0},
		WhileHandlerName: whileName,
	})

	pointScan := p.Add(&exec.OpSpec{Kind: exec.OpScan, Table: "points"})
	// Both join inputs get a constant bucket key so each node keeps one
	// nodeBucket of all its points and one centrBucket of all centroids.
	pointKey := p.Add(&exec.OpSpec{
		Kind: exec.OpProject, Inputs: []int{pointScan.ID},
		Exprs: []expr.Expr{
			expr.NewConst(int64(0)),
			expr.NewCol(0, types.KindInt, "id"),
			expr.NewCol(1, types.KindFloat, "x"),
			expr.NewCol(2, types.KindFloat, "y"),
		},
	})
	bcast := p.Add(&exec.OpSpec{Kind: exec.OpBroadcast, Inputs: []int{fix.ID}})
	centKey := p.Add(&exec.OpSpec{
		Kind: exec.OpProject, Inputs: []int{bcast.ID},
		Exprs: []expr.Expr{
			expr.NewConst(int64(0)),
			expr.NewCol(0, types.KindInt, "cid"),
			expr.NewCol(1, types.KindFloat, "x"),
			expr.NewCol(2, types.KindFloat, "y"),
		},
	})
	join := p.Add(&exec.OpSpec{
		Kind: exec.OpHashJoin, Inputs: []int{pointKey.ID, centKey.ID},
		LeftKey: []int{0}, RightKey: []int{0},
		JoinHandlerName: joinName, ImmutablePort: -1,
	})
	// Per-centroid coordinate/count adjustments sum in the shuffle
	// compactor, mirroring the downstream sums.
	rehash := p.Add(&exec.OpSpec{
		Kind: exec.OpRehash, Inputs: []int{join.ID}, HashKey: []int{0},
		CompactMerge: map[int]string{1: "sum", 2: "sum", 3: "sum"},
	})
	gby := p.Add(&exec.OpSpec{
		Kind: exec.OpGroupBy, Inputs: []int{rehash.ID}, GroupKey: []int{0},
		Aggs: []exec.AggSpec{
			{Fn: "sum", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "xDiff")}, OutName: "sx"},
			{Fn: "sum", Args: []expr.Expr{expr.NewCol(2, types.KindFloat, "yDiff")}, OutName: "sy"},
			{Fn: "sum", Args: []expr.Expr{expr.NewCol(3, types.KindFloat, "nDiff")}, OutName: "n"},
		},
	})
	proj := p.Add(&exec.OpSpec{
		Kind: exec.OpProject, Inputs: []int{gby.ID},
		Exprs: []expr.Expr{
			expr.NewCol(0, types.KindInt, "cid"),
			expr.NewArith(expr.OpDiv, expr.NewCol(1, types.KindFloat, "sx"),
				expr.NewCall("toFloat", asFloatFn, types.KindFloat, true, expr.NewCol(3, types.KindInt, "n"))),
			expr.NewArith(expr.OpDiv, expr.NewCol(2, types.KindFloat, "sy"),
				expr.NewCall("toFloat", asFloatFn, types.KindFloat, true, expr.NewCol(3, types.KindInt, "n"))),
		},
	})
	fix.Inputs = []int{seed.ID, proj.ID}
	fix.RecursiveOut = bcast.ID
	p.RootID = fix.ID
	return p
}

func asFloatFn(args []types.Value) (types.Value, error) {
	f, _ := types.AsFloat(args[0])
	return f, nil
}

// KMeansSeed deterministically samples k initial centroids from the point
// set (the role of the paper's KMSampleAgg): the k points with the
// smallest id hashes, giving a seed independent of partitioning.
func KMeansSeed(points []types.Tuple, k int) []types.Tuple {
	type cand struct {
		h uint64
		t types.Tuple
	}
	best := make([]cand, 0, k+1)
	for _, p := range points {
		h := types.HashValue(p[0])
		if len(best) < k || h < best[len(best)-1].h {
			best = append(best, cand{h, p})
			for i := len(best) - 1; i > 0 && best[i].h < best[i-1].h; i-- {
				best[i], best[i-1] = best[i-1], best[i]
			}
			if len(best) > k {
				best = best[:k]
			}
		}
	}
	out := make([]types.Tuple, len(best))
	for i, c := range best {
		x, _ := types.AsFloat(c.t[1])
		y, _ := types.AsFloat(c.t[2])
		out[i] = types.NewTuple(int64(i), x, y)
	}
	return out
}
