package job_test

// Kernel equivalence over real sockets: with compaction off the shuffle
// ships every delta as a columnar frame, so these runs exercise the
// near-zero-copy wire path end to end across OS-process boundaries. The
// result hash must be identical with compiled kernels on and off
// (NoVectorize travels in the spec and runs the interpreter on every
// daemon), and both must match the in-process run of the same spec.

import (
	"testing"

	"github.com/rex-data/rex/internal/bench"
	"github.com/rex-data/rex/internal/job"
)

func TestVectorizeTCPEquivalence(t *testing.T) {
	const nodes = 3
	cl := startCluster(t, nodes)
	specs := []*job.Spec{
		{Workload: "sssp", Nodes: nodes, Seed: 1, Size: 300, Source: 0,
			Delta: true, MaxIterations: 300},
		{Workload: "pagerank", Nodes: nodes, Seed: 1, Size: 250, Epsilon: 0.001,
			Delta: true, MaxIterations: 60},
	}
	for _, spec := range specs {
		inRes, err := job.RunInProc(clone(spec), nil)
		if err != nil {
			t.Fatalf("inproc %s: %v", spec.Workload, err)
		}
		want := bench.ResultHash(inRes.Tuples)

		vecRes, err := cl.Run(clone(spec), nil)
		if err != nil {
			t.Fatalf("tcp %s (kernels): %v", spec.Workload, err)
		}
		if got := bench.ResultHash(vecRes.Tuples); got != want {
			t.Errorf("%s: tcp kernel hash %s != inproc %s", spec.Workload, got, want)
		}

		rowSpec := clone(spec)
		rowSpec.NoVectorize = true
		rowRes, err := cl.Run(rowSpec, nil)
		if err != nil {
			t.Fatalf("tcp %s (interpreter): %v", spec.Workload, err)
		}
		if got := bench.ResultHash(rowRes.Tuples); got != want {
			t.Errorf("%s: tcp interpreter hash %s != inproc %s", spec.Workload, got, want)
		}
	}
}
