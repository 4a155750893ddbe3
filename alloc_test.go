package rex

import (
	"context"
	"runtime"
	"testing"

	"github.com/rex-data/rex/internal/algos"
)

// raceEnabled is set under -race, whose instrumentation allocates too.
var raceEnabled bool

// TestPageRankRunAllocs gates what one Δ PageRank run allocates: a
// 2-node in-process session over the 7 000-vertex DBpedia graph, ε 0.001,
// measured around one drained QueryCtx after a warm-up run. The keyed
// join and fixpoint state hold their tuples unboxed and handlers borrow
// their input rows, so a run stays under 40 MB in 150 k allocations.
func TestPageRankRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const (
		vertices  = 7000
		maxBytes  = 40e6
		maxAllocs = 150_000
	)
	ctx := context.Background()
	s, err := Open(ctx, WithInProc(2), WithDataset("sssp", vertices, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	joinH, whileH, err := algos.RegisterPageRank(s.Catalog(), algos.PageRankConfig{Epsilon: 0.001, Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	text := `
WITH PR (srcId, pr) AS (
  SELECT srcId, 1.0 AS pr FROM graph
) UNION UNTIL FIXPOINT BY srcId USING ` + whileH + ` (
  SELECT nbr, 0.15 + 0.85 * sum(prDiff)
  FROM (SELECT ` + joinH + `(srcId, pr).{nbr, prDiff}
        FROM graph, PR WHERE graph.srcId = PR.srcId GROUP BY srcId)
  GROUP BY nbr)`
	if _, err := s.QueryCtx(ctx, text, WithMaxStrata(500)); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := s.QueryCtx(ctx, text, WithMaxStrata(500))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != vertices {
		t.Fatalf("%d ranks for %d vertices", len(res.Tuples), vertices)
	}
	bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("one PageRank run: %.1f MB in %d allocations over %d strata", float64(bytes)/1e6, allocs, len(res.Strata))
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("one PageRank run allocated %.1f MB in %d allocations, want ≤ %.0f MB in ≤ %d",
			float64(bytes)/1e6, allocs, maxBytes/1e6, maxAllocs)
	}
}
