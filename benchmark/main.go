// Command benchmark is REX's load benchmark: four workloads, end-to-end and
// per-layer metrics, a traced pass — all in one OS process with no
// children. rexd is hosted with server.New + Listen on loopback, worker
// daemons with noded.Listen + Serve, clients are ordinary rex.Open
// sessions. See README.md for the workloads, the metric tables and how to
// read the output.
//
// The driver's contract form runs one workload and prints one JSON line:
//
//	bash benchmark/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
//
// Without --workload it runs all four, untraced then traced, and prints the
// full report; -repeat N runs N untraced sets and compares them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func newWorkload(name string) workload {
	switch name {
	case "serve-mixed":
		return &serveMixed{}
	case "fixpoint-batch":
		return &fixpointBatch{}
	case "standing-churn":
		return &standingChurn{}
	case "cluster-durable":
		return &clusterDurable{}
	}
	return nil
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	repeat   int
	traceOut string
	tmpDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the contract's JSON line (default: all four, full report)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for datasets, key draws and churn schedules")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured window per workload, seconds")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	flag.BoolVar(&o.smoke, "smoke", false, "small datasets: exercises every code path quickly, numbers are not comparable")
	flag.IntVar(&o.repeat, "repeat", 1, "without -workload: run this many untraced sets and compare their medians against the bounds")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to this file (JSON)")
	flag.StringVar(&o.tmpDir, "tmp-dir", os.TempDir(), "directory for temp dirs (daemon data, spill files)")
	flag.Parse()
	os.Exit(run(o, os.Stdout, os.Stderr))
}

// run is the single exit path: everything a workload opens is closed by
// runWorkload before its result is reported, and the watchdog turns a hang
// into a goroutine dump and a non-zero exit rather than a lingering
// process.
func run(o options, stdout, stderr io.Writer) int {
	if flag.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %v\n", flag.Args())
		return 2
	}
	if o.seconds <= 0 || o.repeat < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -repeat at least 1, -trace 0 or 1")
		return 2
	}
	if o.workload != "" {
		if newWorkload(o.workload) == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
		// The contract gives a run 180 s; leave room to print and exit.
		defer watchdog(170*time.Second, stderr)()
		return runContract(o, stdout, stderr)
	}
	runs := 4 * (o.repeat + 1)
	defer watchdog(time.Duration(runs)*(time.Duration(2*o.seconds)*time.Second+60*time.Second), stderr)()
	return runAll(o, stdout, stderr)
}

// watchdog arms a timer that dumps every goroutine and exits non-zero if
// the returned stop function has not been called in time.
func watchdog(limit time.Duration, stderr io.Writer) (stop func()) {
	t := time.AfterFunc(limit, func() {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(stderr, "benchmark: watchdog: still running after %v; goroutines:\n%s\n", limit, buf)
		os.Exit(3)
	})
	return func() { t.Stop() }
}

// runOne runs one workload once with a private temp dir and tracer.
func runOne(o options, name string, traced bool) (*runResult, error) {
	dir, err := os.MkdirTemp(o.tmpDir, "rexload-*")
	if err != nil {
		return nil, err
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	e := &env{seed: o.seed, sz: fullSizes, tmpDir: dir, legBudget: 100 * time.Millisecond}
	if o.smoke {
		e.sz, e.legBudget = smokeSizes, 5*time.Millisecond
	}
	if traced {
		e.tr = newTracer()
	}
	return runWorkload(newWorkload(name), e, defaultOpts(o.seconds, traced))
}

func runContract(o options, stdout, stderr io.Writer) int {
	traced := o.trace == 1
	r, err := runOne(o, o.workload, traced)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	printRun(stderr, r, traced)
	if traced && o.traceOut != "" {
		if err := writeSpans(o.traceOut, r.spans); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if err := printContractLine(stdout, contractLine(r, traced)); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

// runAll is the human form: every workload untraced (the end-to-end
// numbers), then every workload traced (the per-layer numbers), or with
// -repeat N, N untraced sets and the repeatability table.
func runAll(o options, stdout, stderr io.Writer) int {
	ok := true
	var sets []map[string]metricSet
	for set := 0; set < o.repeat; set++ {
		vals := map[string]metricSet{}
		for _, wl := range workloadDefs {
			r, err := runOne(o, wl.Name, false)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			printRun(stdout, r, false)
			vals[wl.Name] = endToEnd(r)
			ok = ok && r.correct
		}
		sets = append(sets, vals)
	}
	if o.repeat > 1 {
		ok = repeatReport(stdout, sets) && ok
	} else {
		var spans []span
		for _, wl := range workloadDefs {
			r, err := runOne(o, wl.Name, true)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			printRun(stdout, r, true)
			ok = ok && r.correct
			spans = append(spans, r.spans...)
		}
		if o.traceOut != "" {
			if err := writeSpans(o.traceOut, spans); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: FAILED (incorrect results or a bound exceeded)")
		return 1
	}
	return 0
}
