package job_test

// Kernel equivalence over real sockets: the shuffle ships every flush as
// a columnar frame, so these runs exercise the near-zero-copy wire path
// end to end across OS-process boundaries. Every workload of the
// transport suite (PageRank, SSSP, k-means and the filter + group-by rql
// query) must produce the in-process run's result hash and strata count
// with compiled kernels on and off (NoVectorize travels in the spec and
// runs the interpreter on every daemon).

import (
	"testing"

	"github.com/rex-data/rex/internal/bench"
	"github.com/rex-data/rex/internal/job"
)

func TestVectorizeTCPEquivalence(t *testing.T) {
	// The scale of internal/bench's TestVectorizeModesHashIdentical.
	sc := bench.Scale{Nodes: 4, DBPediaVertices: 800, GeoBasePoints: 150, LineItemRows: 3000, Epsilon: 0.001}
	cl := startCluster(t, sc.Nodes)
	for _, spec := range bench.SuiteSpecs(sc) {
		inRes, err := job.RunInProc(clone(spec), nil)
		if err != nil {
			t.Fatalf("inproc %s: %v", spec.Workload, err)
		}
		want := bench.ResultHash(inRes.Tuples)
		for _, novec := range []bool{false, true} {
			s := clone(spec)
			s.NoVectorize = novec
			res, err := cl.Run(s, nil)
			if err != nil {
				t.Fatalf("tcp %s novec=%v: %v", spec.Workload, novec, err)
			}
			if got := bench.ResultHash(res.Tuples); got != want {
				t.Errorf("%s novec=%v: tcp hash %s != inproc %s", spec.Workload, novec, got, want)
			}
			if len(res.Strata) != len(inRes.Strata) {
				t.Errorf("%s novec=%v: tcp ran %d strata, inproc %d", spec.Workload, novec, len(res.Strata), len(inRes.Strata))
			}
		}
	}
}
