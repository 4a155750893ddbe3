package exec

import (
	"context"
	"sync"
	"testing"

	"github.com/rex-data/rex/internal/types"
)

// TestStratumDecisionPolicy pins the requestor's advance-or-terminate
// decision for every way to ask a question: a one-shot Run, a Stream, and
// a standing query's ingestion round. A run stops on a zero vote, when
// MaxStrata strata (counted round-relative) have run, or when TermFn says
// so; OnStratum sees every closed stratum as (rel, total). An ingestion
// round never stops at its base stratum, whatever the verdict there.
func TestStratumDecisionPolicy(t *testing.T) {
	// Two chains: 0→…→7 hangs off the seed, 10→…→17 is cut off until the
	// ingestion round adds 0→10, so every mode has a long natural run.
	var edges []types.Tuple
	for _, start := range []int64{0, 10} {
		for v := start; v < start+7; v++ {
			edges = append(edges, types.NewTuple(v, v+1))
		}
	}
	bridge := map[string][]types.Delta{"edges": {types.Insert(types.NewTuple(int64(0), int64(10)))}}

	type call struct{ rel, total int }
	// run executes one mode and returns the strata its OnStratum saw and
	// the per-stratum vote totals the mode reports itself.
	modes := []struct {
		name   string
		ingest bool
		run    func(t *testing.T, eng *Engine, opts Options, seen func() []call) []int
	}{
		{"run", false, func(t *testing.T, eng *Engine, opts Options, _ func() []call) []int {
			res, err := eng.Run(reachPlan(), opts)
			must(t, err)
			return strataTotals(res.Strata)
		}},
		{"stream", false, func(t *testing.T, eng *Engine, opts Options, _ func() []call) []int {
			st, err := eng.Stream(context.Background(), reachPlan(), opts)
			must(t, err)
			res, err := st.Drain()
			must(t, err)
			return strataTotals(res.Strata)
		}},
		{"ingest", true, func(t *testing.T, eng *Engine, opts Options, seen func() []call) []int {
			sq, err := eng.Standing(context.Background(), reachPlan(), opts)
			must(t, err)
			defer sq.Close()
			initial := len(seen())
			rs, err := sq.Ingest(context.Background(), bridge)
			must(t, err)
			round := seen()[initial:]
			if len(round) != rs.Strata {
				t.Fatalf("OnStratum saw %d strata of the round, RoundStats.Strata = %d", len(round), rs.Strata)
			}
			sum := 0
			totals := make([]int, len(round))
			for i, c := range round {
				totals[i] = c.total
				sum += c.total
			}
			if sum != rs.NewTuples {
				t.Fatalf("OnStratum totals sum to %d, RoundStats.NewTuples = %d", sum, rs.NewTuples)
			}
			return totals
		}},
	}
	cases := []struct {
		name      string
		maxStrata int
		termFn    func(rel, total int) bool
		// want is the number of strata the run executes: natural marks a
		// run that must end on its first zero vote.
		want, wantIngest int
		natural          bool
	}{
		{name: "zero vote", maxStrata: 100, natural: true},
		{name: "max strata", maxStrata: 3, want: 3, wantIngest: 3},
		{name: "max strata 1", maxStrata: 1, want: 1, wantIngest: 2},
		{name: "term fn", maxStrata: 100, termFn: func(rel, _ int) bool { return rel >= 2 }, want: 3, wantIngest: 3},
		{name: "term fn always", maxStrata: 100, termFn: func(int, int) bool { return true }, want: 1, wantIngest: 2},
	}
	for _, tc := range cases {
		for _, m := range modes {
			t.Run(tc.name+"/"+m.name, func(t *testing.T) {
				eng := NewEngine(3, 32, 2, reachCatalog(t))
				must(t, eng.Load("edges", 0, edges))
				must(t, eng.Load("seed", 0, []types.Tuple{types.NewTuple(int64(0))}))
				var mu sync.Mutex
				var calls []call
				seen := func() []call {
					mu.Lock()
					defer mu.Unlock()
					return append([]call(nil), calls...)
				}
				opts := Options{MaxStrata: tc.maxStrata, TermFn: tc.termFn, OnStratum: func(rel, total int) {
					mu.Lock()
					calls = append(calls, call{rel, total})
					mu.Unlock()
				}}
				totals := m.run(t, eng, opts, seen)
				got := seen()
				if m.ingest {
					got = got[len(got)-len(totals):]
				}
				for i, c := range got {
					if c.rel != i || c.total != totals[i] {
						t.Fatalf("OnStratum call %d = (%d, %d), want (%d, %d)", i, c.rel, c.total, i, totals[i])
					}
				}
				n := len(totals)
				if tc.natural {
					if totals[n-1] != 0 {
						t.Fatalf("run ended on a vote of %d, want 0 (totals %v)", totals[n-1], totals)
					}
					for i, v := range totals[:n-1] {
						// An ingestion round's base stratum votes zero here:
						// the bridge edge enters through the join and reaches
						// the fixpoint one stratum later.
						if v == 0 && !(m.ingest && i == 0) {
							t.Fatalf("zero vote at stratum %d did not terminate (totals %v)", i, totals)
						}
					}
					if m.ingest && (totals[0] != 0 || n < 2) {
						t.Fatalf("ingestion round must pass its zero-vote base stratum (totals %v)", totals)
					}
					if n < 4 {
						t.Fatalf("natural run of %d strata is too short to tell the policies apart", n)
					}
					return
				}
				want := tc.want
				if m.ingest {
					want = tc.wantIngest
				}
				if n != want {
					t.Fatalf("ran %d strata, want %d (totals %v)", n, want, totals)
				}
			})
		}
	}
}

func strataTotals(strata []StratumStats) []int {
	out := make([]int, len(strata))
	for i, s := range strata {
		out[i] = s.NewTuples
	}
	return out
}
