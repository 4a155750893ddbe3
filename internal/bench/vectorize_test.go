package bench

// Kernel-vs-interpreter equivalence over the {fold} × {kernels} matrix:
// every workload of the transport suite must produce the identical result
// hash with compiled expression kernels on and off (NoVectorize runs
// every expression through the interpreter), with every shuffle edge
// folding and with every edge only appending — whatever the plan decided.
// Kernels change throughput, never results.

import (
	"fmt"
	"testing"

	"github.com/rex-data/rex/internal/job"
)

func TestVectorizeModesHashIdentical(t *testing.T) {
	sc := Scale{Nodes: 4, DBPediaVertices: 800, GeoBasePoints: 150, LineItemRows: 3000, Epsilon: 0.001}
	for _, spec := range SuiteSpecs(sc) {
		hashes := map[string]string{}
		for _, fold := range []bool{false, true} {
			for _, novec := range []bool{false, true} {
				s := *spec
				s.NoVectorize = novec
				eng, plan, opts, err := job.InProcEngine(&s)
				if err != nil {
					t.Fatalf("%s: %v", spec.Workload, err)
				}
				for _, op := range plan.Ops {
					op.Fold = fold
				}
				res, err := eng.Run(plan, opts)
				if err != nil {
					t.Fatalf("%s fold=%v novec=%v: %v", spec.Workload, fold, novec, err)
				}
				hashes[fmt.Sprintf("fold=%v novec=%v", fold, novec)] = ResultHash(res.Tuples)
			}
		}
		want := hashes["fold=true novec=true"]
		for mode, h := range hashes {
			if h != want {
				t.Errorf("%s: %s hashed %s, want %s", spec.Workload, mode, h, want)
			}
		}
	}
}
