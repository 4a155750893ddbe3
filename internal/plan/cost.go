// Package plan implements REX's cost-based optimization (§5): resource-
// vector costing with CPU/disk/network overlap, rank-based ordering of
// expensive predicates and UDFs [Hellerstein & Stonebraker], UDA
// pre-aggregation pushdown with composability rules (§5.2), top-down join
// enumeration with branch-and-bound pruning, and the iterative cost
// estimation of recursive queries with monotone cardinality caps (§5.3).
package plan

import (
	"math"
	"sort"

	"github.com/rex-data/rex/internal/catalog"
)

// Resources is the utilization vector of §5 ("REX models pipelined
// operations using a vector of resource utilization levels"): abstract
// work units consumed per resource class.
type Resources struct {
	CPU  float64
	Disk float64
	Net  float64
}

// Add accumulates sequential work.
func (r Resources) Add(o Resources) Resources {
	return Resources{r.CPU + o.CPU, r.Disk + o.Disk, r.Net + o.Net}
}

// Scale multiplies all components.
func (r Resources) Scale(f float64) Resources {
	return Resources{r.CPU * f, r.Disk * f, r.Net * f}
}

// Runtime is the completion time of the vector executed alone: resources
// of different classes overlap (pipelining + threading), so the runtime is
// the maximum component, not the sum — §5 "in the extreme case where the
// two subplans use completely disjoint resources, the resulting runtime
// equals the maximum of the runtime of the subplans".
func (r Resources) Runtime() float64 {
	return math.Max(r.CPU, math.Max(r.Disk, r.Net))
}

// ParallelRuntime is the §5 overlap rule for two concurrently executing
// subplans: the smallest time allowing both to run with every resource's
// combined utilization under 100% — per-component sums, bounded below by
// each subplan's own runtime.
func ParallelRuntime(a, b Resources) float64 {
	sum := a.Add(b)
	return sum.Runtime()
}

// Estimate is a costed plan property set.
type Estimate struct {
	Rows float64
	Res  Resources
}

// Runtime of the estimate.
func (e Estimate) Runtime() float64 { return e.Res.Runtime() }

// Model derives operator cost estimates from the cluster calibration.
type Model struct {
	Cal   catalog.Calibration
	Nodes int
}

// NewModel builds a cost model for an n-node cluster.
func NewModel(cal catalog.Calibration, nodes int) *Model {
	if nodes <= 0 {
		nodes = 1
	}
	return &Model{Cal: cal, Nodes: nodes}
}

// perNode scales cluster-wide work down by the parallelism, using the
// slowest node for CPU-bound work (worst-case completion, §5).
func (m *Model) perNode(work float64) float64 {
	return work / float64(m.Nodes)
}

// ScanCost estimates a partitioned table scan.
func (m *Model) ScanCost(rows, avgBytes float64) Estimate {
	return Estimate{
		Rows: rows,
		Res: Resources{
			Disk: m.perNode(rows*avgBytes) / m.Cal.DiskBytesPerUnit,
			CPU:  m.perNode(rows) / m.Cal.CPUTuplesPerUnit / m.Cal.SlowestCPU(),
		},
	}
}

// FilterCost estimates a (possibly user-defined) predicate application.
func (m *Model) FilterCost(in Estimate, costPerTuple, selectivity float64) Estimate {
	cpu := m.perNode(in.Rows*costPerTuple) / m.Cal.CPUTuplesPerUnit / m.Cal.SlowestCPU()
	return Estimate{
		Rows: in.Rows * selectivity,
		Res:  in.Res.Add(Resources{CPU: cpu}),
	}
}

// RehashCost estimates a network re-partitioning of the stream.
func (m *Model) RehashCost(in Estimate, avgBytes float64) Estimate {
	// (Nodes-1)/Nodes of tuples leave their node.
	frac := float64(m.Nodes-1) / float64(m.Nodes)
	net := m.perNode(in.Rows*avgBytes*frac) / m.Cal.NetBytesPerUnit
	return Estimate{Rows: in.Rows, Res: in.Res.Add(Resources{Net: net})}
}

// JoinCost estimates a pipelined hash join of two inputs with the given
// match productivity (output rows per input-pair bucket probe).
func (m *Model) JoinCost(l, r Estimate, outRows float64) Estimate {
	cpu := m.perNode(l.Rows+r.Rows+outRows) / m.Cal.CPUTuplesPerUnit / m.Cal.SlowestCPU()
	// Both inputs execute concurrently: overlap their resource vectors.
	combined := Resources{
		CPU:  l.Res.CPU + r.Res.CPU + cpu,
		Disk: l.Res.Disk + r.Res.Disk,
		Net:  l.Res.Net + r.Res.Net,
	}
	return Estimate{Rows: outRows, Res: combined}
}

// GroupByCost estimates hash aggregation into the given group count.
func (m *Model) GroupByCost(in Estimate, groups float64) Estimate {
	cpu := m.perNode(in.Rows) / m.Cal.CPUTuplesPerUnit / m.Cal.SlowestCPU()
	return Estimate{Rows: groups, Res: in.Res.Add(Resources{CPU: cpu})}
}

// PredInfo describes one predicate/UDF for rank ordering (§5.1).
type PredInfo struct {
	Name         string
	CostPerTuple float64
	Selectivity  float64
}

// rank is cost / (1 − selectivity); see catalog.FuncDef.Rank.
func (p PredInfo) rank() float64 {
	drop := 1 - p.Selectivity
	if drop <= 0 {
		return p.CostPerTuple * 1e6
	}
	return p.CostPerTuple / drop
}

// OrderPredicates returns the evaluation order minimizing expected cost:
// ascending rank, the predicate-migration result the optimizer builds on
// (§5.1). The returned slice holds indexes into preds.
func OrderPredicates(preds []PredInfo) []int {
	idx := make([]int, len(preds))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return preds[idx[a]].rank() < preds[idx[b]].rank()
	})
	return idx
}

// PreAggDecision reports whether pushing a combiner-style pre-aggregation
// below the rehash pays off (§5.2): it does when the expected group count
// per node is smaller than the input rows per node (data actually
// collapses), and the aggregate is composable.
func (m *Model) PreAggDecision(inRows, distinctKeys float64, composable bool) bool {
	if !composable || inRows <= 0 {
		return false
	}
	perNodeRows := inRows / float64(m.Nodes)
	// Each node sees at most distinctKeys groups; pre-aggregation removes
	// (perNodeRows - distinctKeys) tuples from the wire per node.
	return distinctKeys < perNodeRows*0.8
}
