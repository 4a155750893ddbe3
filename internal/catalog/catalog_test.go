package catalog

import (
	"testing"

	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

func testTable(name string) *Table {
	return &Table{
		Name:         name,
		Schema:       types.MustSchema("srcId:Integer", "destId:Integer"),
		PartitionKey: 0,
		Stats:        TableStats{RowCount: 100, DistinctKeys: 10, AvgTupleBytes: 16},
	}
}

func TestTableRegistry(t *testing.T) {
	c := New()
	if err := c.AddTable(testTable("graph")); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(testTable("graph")); err == nil {
		t.Fatal("duplicate table must fail")
	}
	bad := testTable("bad")
	bad.PartitionKey = 9
	if err := c.AddTable(bad); err == nil {
		t.Fatal("out-of-range partition key must fail")
	}
	tab, err := c.Table("graph")
	if err != nil || tab.Stats.RowCount != 100 {
		t.Fatalf("lookup: %v", err)
	}
	if _, err := c.Table("nope"); err == nil {
		t.Fatal("unknown table must fail")
	}
	if err := c.SetStats("graph", TableStats{RowCount: 7}); err != nil {
		t.Fatal(err)
	}
	if tab, _ := c.Table("graph"); tab.Stats.RowCount != 7 {
		t.Fatal("SetStats not applied")
	}
	if err := c.SetStats("nope", TableStats{}); err == nil {
		t.Fatal("SetStats on unknown table must fail")
	}
	if got := c.Tables(); len(got) != 2 || got[0] != "bad" && got[0] != "graph" {
		// "bad" failed to register, so only graph remains
		if len(got) != 1 || got[0] != "graph" {
			t.Fatalf("Tables() = %v", got)
		}
	}
}

func TestFuncRegistryAndRank(t *testing.T) {
	c := New()
	f := &FuncDef{Name: "f", RetKind: types.KindInt}
	if err := c.RegisterFunc(f); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterFunc(f); err == nil {
		t.Fatal("duplicate func must fail")
	}
	got, err := c.Func("f")
	if err != nil || got.Selectivity != 1 || got.CostPerTuple != 1 {
		t.Fatalf("defaults not applied: %+v", got)
	}
	if _, err := c.Func("g"); err == nil {
		t.Fatal("unknown func must fail")
	}
	// Rank ordering (§5.1): cheaper or more selective ranks lower.
	cheapSelective := &FuncDef{Name: "a", CostPerTuple: 1, Selectivity: 0.1}
	expensive := &FuncDef{Name: "b", CostPerTuple: 100, Selectivity: 0.1}
	nonFiltering := &FuncDef{Name: "c", CostPerTuple: 1, Selectivity: 1}
	if cheapSelective.Rank() >= expensive.Rank() {
		t.Fatal("cheap selective must rank before expensive")
	}
	if nonFiltering.Rank() <= expensive.Rank() {
		t.Fatal("non-filtering must rank after filtering predicates")
	}
}

func TestHandlerRegistries(t *testing.T) {
	c := New()
	jh := &uda.FuncJoinHandler{HName: "j", Out: types.MustSchema("x:Integer")}
	if err := c.RegisterJoinHandler(jh); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterJoinHandler(jh); err == nil {
		t.Fatal("duplicate join handler must fail")
	}
	if _, err := c.JoinHandler("j"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.JoinHandler("zzz"); err == nil {
		t.Fatal("unknown join handler must fail")
	}
	wh := &uda.FuncWhileHandler{HName: "w"}
	if err := c.RegisterWhileHandler(wh); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterWhileHandler(wh); err == nil {
		t.Fatal("duplicate while handler must fail")
	}
	if _, err := c.WhileHandler("w"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WhileHandler("zzz"); err == nil {
		t.Fatal("unknown while handler must fail")
	}
}

type fakeAgg struct{ uda.Aggregator }

func (fakeAgg) Name() string { return "fake" }

func TestAggRegistry(t *testing.T) {
	c := New()
	if err := c.RegisterAgg(&AggDef{Name: "fake", Agg: fakeAgg{}}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterAgg(&AggDef{Name: "fake"}); err == nil {
		t.Fatal("duplicate agg must fail")
	}
	if _, err := c.Agg("fake"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Agg("zzz"); err == nil {
		t.Fatal("unknown agg must fail")
	}
}
