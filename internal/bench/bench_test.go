package bench

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinyScale keeps the full figure suite runnable inside the unit tests.
func tinyScale() Scale {
	return Scale{
		Nodes:           3,
		Workers:         3,
		DBPediaVertices: 300,
		TwitterVertices: 400,
		GeoBasePoints:   120,
		LineItemRows:    2000,
		HadoopStartup:   time.Millisecond,
		Epsilon:         0.001,
	}
}

func TestAllFiguresProduceReports(t *testing.T) {
	sc := tinyScale()
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, sc); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if !strings.Contains(out, "==") || len(out) < 50 {
				t.Fatalf("%s produced no table:\n%s", e.ID, out)
			}
		})
	}
}

func TestFig4ResultsAgreeAcrossStrategies(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig4(&buf, tinyScale()); err != nil {
		t.Fatal(err)
	}
	// All four strategies must report the same sum and count columns.
	lines := strings.Split(buf.String(), "\n")
	var sums, counts []string
	for _, l := range lines {
		fields := strings.Fields(l)
		if len(fields) >= 4 && (strings.HasPrefix(l, "REX") || strings.HasPrefix(l, "Hadoop")) {
			sums = append(sums, fields[len(fields)-2])
			counts = append(counts, fields[len(fields)-1])
		}
	}
	if len(sums) != 4 {
		t.Fatalf("expected 4 strategies, parsed %d from:\n%s", len(sums), buf.String())
	}
	for i := 1; i < 4; i++ {
		if counts[i] != counts[0] {
			t.Fatalf("count mismatch across strategies: %v", counts)
		}
		if sums[i] != sums[0] {
			t.Fatalf("sum mismatch across strategies: %v", sums)
		}
	}
}

func TestReportPrint(t *testing.T) {
	var buf bytes.Buffer
	r := &Report{
		Title:   "t",
		Notes:   "n",
		Headers: []string{"a", "bbbb"},
		Rows:    [][]string{{"xxxxx", "y"}},
	}
	r.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "== t ==") || !strings.Contains(out, "xxxxx") {
		t.Fatalf("bad report:\n%s", out)
	}
}

// TestFig11WireBytesOrdering is Fig 11's count gate: on both Twitter
// workloads REX ships fewer wire bytes than HaLoop LB, which ships fewer
// than Hadoop LB. The graph is the one `rexbench -scale 0.25` uses; wire
// bytes repeat exactly from run to run, so the ordering is not noise.
func TestFig11WireBytesOrdering(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig11(&buf, Scale{Nodes: 4, Workers: 4, TwitterVertices: 1500, Epsilon: 0.001}); err != nil {
		t.Fatal(err)
	}
	// Report cells are separated by at least two spaces; a strategy
	// name holds one.
	wire := map[string]int64{}
	for _, l := range strings.Split(buf.String(), "\n") {
		cells := regexp.MustCompile(`\s{2,}`).Split(l, -1)
		if len(cells) < 3 {
			continue
		}
		if n, err := strconv.ParseInt(cells[2], 10, 64); err == nil {
			wire[cells[0]+"/"+cells[1]] = n
		}
	}
	for _, workload := range []string{"shortest-path", "pagerank"} {
		rex, haloop, hadoop := wire[workload+"/REX Δ"], wire[workload+"/HaLoop LB"], wire[workload+"/Hadoop LB"]
		t.Logf("%s: REX %d, HaLoop LB %d, Hadoop LB %d wire bytes", workload, rex, haloop, hadoop)
		if rex <= 0 || rex >= haloop || haloop >= hadoop {
			t.Errorf("%s: want REX (%d) < HaLoop LB (%d) < Hadoop LB (%d) wire bytes\n%s", workload, rex, haloop, hadoop, buf.String())
		}
	}
}

// TestFig3DeltaSeriesReachZero is Fig 3's count gate: the Δi series of
// PageRank, shortest path and K-means each reaches 0 — the fixpoint
// closes on an empty stratum — before the plan's stratum cap would stop
// it. A Δ set that keeps re-propagating what did not change runs into
// the cap instead.
func TestFig3DeltaSeriesReachZero(t *testing.T) {
	runs, err := fig3Runs(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		strata := r.res.Strata
		t.Logf("%s: Δi %s over %d strata (cap %d)", r.name, deltaSeries(r.res), len(strata), r.maxStrata)
		if len(strata) == 0 || len(strata) >= r.maxStrata || strata[len(strata)-1].NewTuples != 0 {
			t.Errorf("%s: Δi series %s did not reach 0 within %d strata", r.name, deltaSeries(r.res), r.maxStrata)
		}
	}
}
