package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// endToEnd assembles the end-to-end metrics of an untraced run.
func endToEnd(r *runResult) metricSet {
	return metricSet{
		"setup_s":          r.setupS,
		"ops_per_s":        r.win.opsPerSec(),
		"primary_p50_ms":   r.win.hists[0].quantile(0.5) / 1e6,
		"secondary_p50_ms": r.win.hists[1].quantile(0.5) / 1e6,
		"live_heap_mb":     r.heapMB,
	}
}

// clientLayerMetrics adds the per-class numbers of the traced window, and
// the tracing overhead: the untraced stretch's throughput against the
// traced stretch's, same deployment, back to back.
func clientLayerMetrics(r *runResult, untraced *windowResult) {
	m := r.layers
	for i, role := range []string{"primary", "secondary"} {
		t := r.win.hists[i].timing()
		m["client."+role+"_tail_ms"] = t.Tailms
		m["client."+role+"_tail_pctl"] = t.TailPct
	}
	if r.win.deltas > 0 {
		m["client.ingest_deltas_per_s"] = float64(r.win.deltas) / r.win.elapsed.Seconds()
	}
	if u := untraced.opsPerSec(); u > 0 {
		m["harness.trace_overhead_pct"] = 100 * (u - r.win.opsPerSec()) / u
	}
}

// spanLayerMetrics derives the harness's own cost per operation from the
// trace: the self time of "op" spans is what the benchmark spends between
// the calls into rex (drawing the op, hashing the response).
func spanLayerMetrics(r *runResult) {
	if op, ok := selfTimes(r.spans)["op"]; ok && op.Count > 0 {
		r.layers["harness.op_self_us"] = float64(op.SelfNs) / float64(op.Count) / 1e3
	}
}

// resultLine is the contract's machine-readable last line of stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine renders a run as the contract line: every end-to-end metric
// on the untraced pass, every per-layer metric on the traced pass.
func contractLine(r *runResult, traced bool) resultLine {
	defs, vals := endToEndDefs, metricSet(nil)
	if traced {
		defs, vals = perLayerDefs, r.layers
	} else {
		vals = endToEnd(r)
	}
	out := resultLine{Correct: r.correct, Attempted: max(r.attempted, 1), Failed: r.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

func printContractLine(w io.Writer, line resultLine) error {
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printRun writes the human-readable report of one run: every metric by
// name with its unit, the issue's per-class names beside the contract's
// role names, and n for every timing.
func printRun(w io.Writer, r *runResult, traced bool) {
	pass := "untraced"
	if traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s pass) ==\n", r.workload, pass)
	fmt.Fprintf(w, "  window %.2f s, %d ops attempted, %d failed, error_rate %.6f (%d/%d), correct=%v\n",
		r.win.elapsed.Seconds(), r.attempted, r.failed,
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted, r.correct)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	roles := classRoles[r.workload]
	for i, class := range r.classes {
		t := r.win.hists[i].timing()
		alias := ""
		if i < 2 {
			alias = fmt.Sprintf(" [%s = %s]", []string{"primary", "secondary"}[i], roles[i])
		}
		fmt.Fprintf(w, "  %-9s n=%-6d p50 %9.3f ms", class, t.N, t.P50ms)
		if t.TailPct > 50 {
			fmt.Fprintf(w, "  p%g %9.3f ms", t.TailPct, t.Tailms)
		}
		fmt.Fprintf(w, "%s\n", alias)
	}
	if r.win.deltas > 0 {
		fmt.Fprintf(w, "  ingest_deltas_per_s %.1f 1/s\n", float64(r.win.deltas)/r.win.elapsed.Seconds())
	}
	if !traced {
		vals := endToEnd(r)
		fmt.Fprintf(w, "  set-ups (s): %v\n", fmtFloats(r.setups))
		for _, d := range endToEndDefs {
			fmt.Fprintf(w, "  %-28s %12.4f %s\n", d.Name, vals[d.Name], d.Unit)
		}
		return
	}
	for _, d := range perLayerDefs {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.Name, r.layers[d.Name], d.Unit)
	}
	type row struct {
		name string
		t    selfTotal
	}
	var rows []row
	for name, t := range selfTimes(r.spans) {
		rows = append(rows, row{name, t})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].t.SelfNs > rows[j].t.SelfNs })
	fmt.Fprintf(w, "  spans (self time = duration minus child coverage):\n")
	for _, x := range rows {
		fmt.Fprintf(w, "    %-34s n=%-7d total %10.2f ms  self %10.2f ms\n",
			x.name, x.t.Count, float64(x.t.DurNs)/1e6, float64(x.t.SelfNs)/1e6)
	}
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// repeatReport compares full sets of untraced runs: per end-to-end metric
// and workload, the medians of the first and second half of the sets,
// their relative difference in the metric's worse direction, and PASS/FAIL
// against the metric's bound. sets[i][workload] holds set i's values.
func repeatReport(w io.Writer, sets []map[string]metricSet) (allPass bool) {
	allPass = true
	half := len(sets) / 2
	fmt.Fprintf(w, "\n== repeatability: sets 1..%d vs %d..%d ==\n", half, half+1, len(sets))
	fmt.Fprintf(w, "%-16s %-18s %12s %12s %9s %7s  %s\n", "workload", "metric", "median A", "median B", "worse by", "bound", "")
	for _, wl := range workloadDefs {
		for _, d := range endToEndDefs {
			var a, b []float64
			for i, s := range sets {
				if v, ok := s[wl.Name][d.Name]; ok {
					if i < half {
						a = append(a, v)
					} else {
						b = append(b, v)
					}
				}
			}
			ma, mb := median(a), median(b)
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / ma
				if d.Better == "higher" {
					worse = -worse
				}
			}
			verdict := "PASS"
			if worse > d.Bound {
				verdict, allPass = "FAIL", false
			}
			fmt.Fprintf(w, "%-16s %-18s %12.4f %12.4f %+8.1f%% %6.0f%%  %s\n",
				wl.Name, d.Name, ma, mb, 100*worse, 100*d.Bound, verdict)
		}
	}
	return allPass
}
