package plan

import (
	"testing"
	"testing/quick"
)

func TestOrderPredicatesByRank(t *testing.T) {
	preds := []PredInfo{
		{Name: "expensiveUDF", CostPerTuple: 100, Selectivity: 0.5},
		{Name: "cheapSelective", CostPerTuple: 1, Selectivity: 0.01},
		{Name: "nonFiltering", CostPerTuple: 5, Selectivity: 1.0},
		{Name: "midCost", CostPerTuple: 10, Selectivity: 0.2},
	}
	order := OrderPredicates(preds)
	names := make([]string, len(order))
	for i, idx := range order {
		names[i] = preds[idx].Name
	}
	want := []string{"cheapSelective", "midCost", "expensiveUDF", "nonFiltering"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("order = %v, want %v", names, want)
		}
	}
}

// Property: OrderPredicates yields non-decreasing rank.
func TestOrderPredicatesProperty(t *testing.T) {
	f := func(costs []float64) bool {
		preds := make([]PredInfo, 0, len(costs))
		for i, c := range costs {
			if c < 0 {
				c = -c
			}
			preds = append(preds, PredInfo{
				CostPerTuple: c + 0.001,
				Selectivity:  float64(i%10) / 10,
			})
		}
		order := OrderPredicates(preds)
		for i := 1; i < len(order); i++ {
			if preds[order[i-1]].rank() > preds[order[i]].rank() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPreAggDecision(t *testing.T) {
	m := NewModel(4)
	// Many rows, few groups: push.
	if !m.PreAggDecision(1e6, 100, true) {
		t.Fatal("collapsing aggregation must push pre-agg")
	}
	// Nearly distinct keys: don't bother.
	if m.PreAggDecision(1e6, 9e5, true) {
		t.Fatal("non-collapsing aggregation must not pre-agg")
	}
	// Non-composable never pushes below arbitrary operators.
	if m.PreAggDecision(1e6, 100, false) {
		t.Fatal("non-composable must not pre-agg")
	}
}
