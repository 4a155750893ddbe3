package bench

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/types"
)

// Runner executes one job spec — either in-process (job.RunInProc) or on
// a multi-process TCP cluster (job.Cluster.Run). The suite below is
// runner-agnostic, so the same workloads produce comparable hashes on
// both transports.
type Runner func(spec *job.Spec, tune func(*exec.Options)) (*exec.Result, error)

// SuiteSpecs are the transport-comparison workloads: the paper's three
// recursive algorithms plus a filter-heavy TPC-H-style aggregation, at
// benchmark scale. Every parameter is pinned so an inproc run and a TCP
// run (or two runs on different machines) execute the identical query on
// identical data. The rql workload's scan→filter→pre-agg chain is where
// the compiled column kernels live, so its row_path_ms column is the
// end-to-end kernels-vs-interpreter A/B.
func SuiteSpecs(sc Scale) []*job.Spec {
	return []*job.Spec{
		{
			Workload: "pagerank", Nodes: sc.Nodes, Seed: 1, Size: sc.DBPediaVertices,
			Epsilon: sc.Epsilon, Delta: true, MaxIterations: 60,
		},
		{
			Workload: "sssp", Nodes: sc.Nodes, Seed: 1, Size: sc.DBPediaVertices,
			Source: 0, Delta: true, MaxIterations: 300,
		},
		{
			Workload: "kmeans", Nodes: sc.Nodes, Seed: 3, Size: sc.GeoBasePoints,
			K: 8, MaxIterations: 100,
		},
		{
			Workload: "rql", Nodes: sc.Nodes, Seed: 5, Size: sc.LineItemRows,
			Dataset: "lineitem",
			Query:   `SELECT returnflag, sum(extendedprice), count(*) FROM lineitem WHERE quantity < 30.0 AND linenumber > 1 GROUP BY returnflag`,
		},
	}
}

// TransportSuite runs the comparison workloads through the given runner
// and prints their table. Each workload runs twice, with compiled kernels
// on and off, and the two result hashes must agree; the printed hashes
// are what an inproc run and a tcp run are compared by.
func TransportSuite(w io.Writer, sc Scale, transport string, run Runner) error {
	rep := &Report{
		Title: fmt.Sprintf("Transport suite (%s)", transport),
		Notes: "same plans + seeds on every transport; result_hash must match across backends and with compiled kernels off",
		Headers: []string{"workload", "rows", "strata", "wire_bytes", "deltas_in", "deltas_out",
			"result_hash", "row_path_hash", "ms", "row_path_ms"},
	}
	for _, spec := range SuiteSpecs(sc) {
		start := time.Now()
		res, err := run(spec, nil)
		if err != nil {
			return fmt.Errorf("bench: %s on %s: %w", spec.Workload, transport, err)
		}
		elapsed := time.Since(start)
		hash := ResultHash(res.Tuples)

		// Re-run the identical spec with compiled kernels off: the
		// interpreter must produce the same result set. NoVectorize
		// travels in the spec so multi-process workers agree with the
		// driver.
		rowSpec := *spec
		rowSpec.NoVectorize = true
		rowStart := time.Now()
		rowRes, err := run(&rowSpec, nil)
		if err != nil {
			return fmt.Errorf("bench: %s (kernels off) on %s: %w", spec.Workload, transport, err)
		}
		rowElapsed := time.Since(rowStart)
		rowHash := ResultHash(rowRes.Tuples)
		if rowHash != hash {
			return fmt.Errorf("bench: %s on %s: kernel hash %s != interpreter hash %s",
				spec.Workload, transport, hash, rowHash)
		}

		rep.Rows = append(rep.Rows, []string{
			spec.Workload, fmt.Sprint(len(res.Tuples)), fmt.Sprint(len(res.Strata)),
			fmt.Sprint(res.BytesSent), fmt.Sprint(res.CompactIn), fmt.Sprint(res.CompactOut),
			hash, rowHash, ms(elapsed), ms(rowElapsed),
		})
	}
	rep.Print(w)
	return nil
}

// ResultHash canonicalizes a result set — order-independent, floats
// rounded past the bits where summation order can wiggle — and hashes it,
// so two runs of one workload can be compared across transports without
// shipping the tuples.
func ResultHash(tuples []types.Tuple) string {
	lines := make([]string, len(tuples))
	for i, t := range tuples {
		var b strings.Builder
		for j, v := range t {
			if j > 0 {
				b.WriteByte('|')
			}
			switch x := v.(type) {
			case float64:
				fmt.Fprintf(&b, "%.6g", x)
			case nil:
				b.WriteString("∅")
			default:
				fmt.Fprintf(&b, "%v", x)
			}
		}
		lines[i] = b.String()
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		_, _ = h.Write([]byte(l))
		_, _ = h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
