package plan

import (
	"testing"
	"testing/quick"

	"github.com/rex-data/rex/internal/catalog"
)

func model(nodes int) *Model {
	return NewModel(catalog.DefaultCalibration(), nodes)
}

func TestResourceOverlap(t *testing.T) {
	a := Resources{CPU: 10, Disk: 2}
	b := Resources{Net: 8, CPU: 1}
	// Sequential: components add.
	if got := a.Add(b); got.CPU != 11 || got.Net != 8 || got.Disk != 2 {
		t.Fatalf("Add = %+v", got)
	}
	// Runtime is the bottleneck resource, not the sum.
	if a.Runtime() != 10 {
		t.Fatalf("runtime = %v", a.Runtime())
	}
	// Disjoint resources overlap almost fully.
	cpuOnly := Resources{CPU: 10}
	netOnly := Resources{Net: 10}
	if got := ParallelRuntime(cpuOnly, netOnly); got != 10 {
		t.Fatalf("disjoint parallel runtime = %v, want 10", got)
	}
	// Contended resources add.
	if got := ParallelRuntime(cpuOnly, cpuOnly); got != 20 {
		t.Fatalf("contended parallel runtime = %v, want 20", got)
	}
}

func TestScanAndFilterEstimates(t *testing.T) {
	m := model(4)
	scan := m.ScanCost(1e6, 32)
	if scan.Rows != 1e6 || scan.Res.Disk <= 0 {
		t.Fatalf("scan = %+v", scan)
	}
	f := m.FilterCost(scan, 1, 0.1)
	if f.Rows != 1e5 {
		t.Fatalf("filter rows = %v", f.Rows)
	}
	if f.Res.CPU <= scan.Res.CPU {
		t.Fatal("filter must add CPU")
	}
	r := m.RehashCost(f, 16)
	if r.Res.Net <= 0 {
		t.Fatal("rehash must add network")
	}
	// More nodes → less per-node work → shorter runtime.
	m2 := model(16)
	if m2.ScanCost(1e6, 32).Runtime() >= scan.Runtime() {
		t.Fatal("scaling out must reduce scan runtime")
	}
}

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
	m := model(4)
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
