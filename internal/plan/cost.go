// Package plan implements the decisions REX's binder takes from §5's
// cost-based optimization: rank-based ordering of expensive predicates
// and UDFs [Hellerstein & Stonebraker] and UDA pre-aggregation pushdown
// with composability rules (§5.2).
package plan

import "sort"

// Model holds what the optimizer's decisions need to know about the
// cluster.
type Model struct {
	Nodes int
}

// NewModel builds a cost model for an n-node cluster.
func NewModel(nodes int) *Model {
	if nodes <= 0 {
		nodes = 1
	}
	return &Model{Nodes: nodes}
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
