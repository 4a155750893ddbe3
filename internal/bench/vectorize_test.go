package bench

// Kernel-vs-interpreter equivalence over the {compaction} × {kernels}
// matrix: every workload of the transport suite must produce the
// identical result hash with compiled expression kernels on and off
// (NoVectorize runs every expression through the interpreter), with and
// without the shuffle compactor. Kernels change throughput, never results.

import (
	"fmt"
	"testing"

	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/job"
)

func TestVectorizeModesHashIdentical(t *testing.T) {
	sc := Scale{Nodes: 4, DBPediaVertices: 800, GeoBasePoints: 150, LineItemRows: 3000, Epsilon: 0.001}
	for _, spec := range SuiteSpecs(sc) {
		hashes := map[string]string{}
		for _, compaction := range []bool{false, true} {
			for _, novec := range []bool{false, true} {
				s := *spec
				s.Compaction = compaction
				s.NoVectorize = novec
				res, err := job.RunInProc(&s, func(o *exec.Options) {})
				if err != nil {
					t.Fatalf("%s compaction=%v novec=%v: %v", spec.Workload, compaction, novec, err)
				}
				hashes[fmt.Sprintf("compaction=%v novec=%v", compaction, novec)] = ResultHash(res.Tuples)
			}
		}
		want := hashes["compaction=true novec=true"]
		for mode, h := range hashes {
			if h != want {
				t.Errorf("%s: %s hashed %s, want %s", spec.Workload, mode, h, want)
			}
		}
	}
}
