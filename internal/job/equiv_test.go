package job_test

import (
	"context"
	"io"
	"testing"
	"time"

	"github.com/rex-data/rex/internal/bench"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/noded"
	"github.com/rex-data/rex/internal/types"
)

// startCluster boots n worker daemons on loopback sockets (real TCP, one
// transport per daemon, all inside the test process) and a driver
// connected to them.
func startCluster(t *testing.T, n int) *job.Cluster {
	t.Helper()
	addrs := make([]string, n)
	served := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		nd, err := noded.Listen("127.0.0.1:0", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = nd.Addr()
		go func() {
			defer func() { served <- struct{}{} }()
			if err := nd.Serve(); err != nil {
				t.Errorf("daemon: %v", err)
			}
		}()
	}
	cl, err := job.Connect(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close() // Quit → daemons' Serve returns
		for i := 0; i < n; i++ {
			select {
			case <-served:
			case <-time.After(10 * time.Second):
				t.Error("daemon did not shut down")
				return
			}
		}
	})
	return cl
}

// equivSpecs are the equivalence workloads, sized for test time. The huge
// batch size makes shuffle flushes punctuation-aligned, so compaction
// counters are deterministic and must match across transports exactly.
func equivSpecs(nodes int, seed int64) []*job.Spec {
	return []*job.Spec{
		{Workload: "sssp", Nodes: nodes, Seed: seed, Size: 300, Source: 0,
			Delta: true, MaxIterations: 300, BatchSize: 1 << 20},
		{Workload: "pagerank", Nodes: nodes, Seed: seed, Size: 250, Epsilon: 0.001,
			Delta: true, MaxIterations: 60, BatchSize: 1 << 20},
		{Workload: "kmeans", Nodes: nodes, Seed: seed, Size: 120, K: 4,
			MaxIterations: 100, BatchSize: 1 << 20},
	}
}

func clone(s *job.Spec) *job.Spec { c := *s; return &c }

func ratio(in, out int64) float64 {
	if out == 0 {
		return 0
	}
	return float64(in) / float64(out)
}

// TestTransportEquivalence is the property check of the transport
// refactor: the same plan + seed must yield identical result tuples,
// strata counts, and compaction ratios whether the nodes are goroutines
// in one process (InProcTransport) or OS-level peers over loopback TCP
// (TCPTransport). Several seeds vary the data; several workloads vary
// the plan shape (broadcast, checkpointable fixpoints, handler joins).
func TestTransportEquivalence(t *testing.T) {
	const nodes = 3
	cl := startCluster(t, nodes)
	for _, seed := range []int64{1, 7} {
		for _, spec := range equivSpecs(nodes, seed) {
			inRes, err := job.RunInProc(clone(spec), nil)
			if err != nil {
				t.Fatalf("inproc %s seed %d: %v", spec.Workload, seed, err)
			}
			tcpRes, err := cl.Run(clone(spec), nil)
			if err != nil {
				t.Fatalf("tcp %s seed %d: %v", spec.Workload, seed, err)
			}
			if got, want := bench.ResultHash(tcpRes.Tuples), bench.ResultHash(inRes.Tuples); got != want {
				t.Errorf("%s seed %d: result hash tcp=%s inproc=%s (rows %d vs %d)",
					spec.Workload, seed, got, want, len(tcpRes.Tuples), len(inRes.Tuples))
			}
			if len(tcpRes.Strata) != len(inRes.Strata) {
				t.Errorf("%s seed %d: strata count tcp=%d inproc=%d",
					spec.Workload, seed, len(tcpRes.Strata), len(inRes.Strata))
			} else {
				for i := range inRes.Strata {
					if tcpRes.Strata[i].NewTuples != inRes.Strata[i].NewTuples {
						t.Errorf("%s seed %d stratum %d: Δ size tcp=%d inproc=%d", spec.Workload,
							seed, i, tcpRes.Strata[i].NewTuples, inRes.Strata[i].NewTuples)
					}
				}
			}
			if spec.Workload == "kmeans" {
				// The k-means join handler is stateful across arrivals
				// (each centroid delta re-checks points against the
				// bucket built so far), so the number of intermediate
				// adjustments — and with it CompactIn — legitimately
				// varies with cross-peer arrival order on ANY transport.
				// The self-cancelling extras still fold away: demand a
				// comparable ratio, not an identical count.
				rIn, rTCP := ratio(inRes.CompactIn, inRes.CompactOut), ratio(tcpRes.CompactIn, tcpRes.CompactOut)
				if tcpRes.CompactOut <= 0 || rTCP < rIn*0.75 || rTCP > rIn*1.25 {
					t.Errorf("%s seed %d: compaction ratio tcp=%.2f inproc=%.2f", spec.Workload, seed, rTCP, rIn)
				}
			} else if tcpRes.CompactIn != inRes.CompactIn || tcpRes.CompactOut != inRes.CompactOut {
				// SSSP and PageRank aggregate punctuation-aligned, so with
				// batch flushes pushed past the stratum size their
				// compactor traffic is deterministic: counts must match
				// across transports exactly.
				t.Errorf("%s seed %d: compaction tcp=%d/%d inproc=%d/%d", spec.Workload, seed,
					tcpRes.CompactIn, tcpRes.CompactOut, inRes.CompactIn, inRes.CompactOut)
			}
			if tcpRes.BytesSent <= 0 {
				t.Errorf("%s seed %d: tcp run must report measured socket bytes", spec.Workload, seed)
			}
		}
	}
}

// TestStreamDrainEquivalence is the streaming property check: the
// concatenation of a streaming run's per-stratum delta batches, folded in
// order, must equal the buffered Query result — per workload, per seed,
// on both transports. It also asserts streams really are incremental
// (recursive workloads yield one batch per revising stratum, not one
// final flush).
func TestStreamDrainEquivalence(t *testing.T) {
	const nodes = 3
	ctx := context.Background()
	cl := startCluster(t, nodes)
	for _, seed := range []int64{1, 7} {
		for _, spec := range equivSpecs(nodes, seed) {
			want, err := job.RunInProc(clone(spec), nil)
			if err != nil {
				t.Fatalf("inproc %s seed %d: %v", spec.Workload, seed, err)
			}
			wantHash := bench.ResultHash(want.Tuples)

			inStream, err := job.StreamInProc(ctx, clone(spec), nil)
			if err != nil {
				t.Fatal(err)
			}
			inBatches := 0
			inFold := newFold()
			for b, ok := inStream.Next(); ok; b, ok = inStream.Next() {
				inBatches++
				inFold.apply(b.Deltas)
			}
			if err := inStream.Err(); err != nil {
				t.Fatalf("inproc stream %s seed %d: %v", spec.Workload, seed, err)
			}
			if got := bench.ResultHash(inFold.tuples()); got != wantHash {
				t.Errorf("%s seed %d: inproc stream fold %s, want %s", spec.Workload, seed, got, wantHash)
			}
			if inBatches < 2 {
				t.Errorf("%s seed %d: stream yielded %d batches; expected per-stratum increments", spec.Workload, seed, inBatches)
			}

			tcpStream, err := cl.StreamCtx(ctx, clone(spec), nil)
			if err != nil {
				t.Fatal(err)
			}
			tcpFold := newFold()
			for b, ok := tcpStream.Next(); ok; b, ok = tcpStream.Next() {
				tcpFold.apply(b.Deltas)
			}
			if err := tcpStream.Err(); err != nil {
				t.Fatalf("tcp stream %s seed %d: %v", spec.Workload, seed, err)
			}
			if got := bench.ResultHash(tcpFold.tuples()); got != wantHash {
				t.Errorf("%s seed %d: tcp stream fold %s, want %s", spec.Workload, seed, got, wantHash)
			}
		}
	}
}

// fold replays a delta stream into a tuple multiset the way the
// engine's result accumulator would.
type fold struct{ live []types.Tuple }

func newFold() *fold { return &fold{} }

func (f *fold) apply(batch []types.Delta) {
	for _, d := range batch {
		switch d.Op {
		case types.OpInsert, types.OpUpdate:
			f.live = append(f.live, d.Tup)
		case types.OpDelete:
			f.remove(d.Tup)
		case types.OpReplace:
			f.remove(d.Old)
			f.live = append(f.live, d.Tup)
		}
	}
}

func (f *fold) remove(t types.Tuple) {
	for i, x := range f.live {
		if x != nil && x.Equal(t) {
			f.live[i] = f.live[len(f.live)-1]
			f.live = f.live[:len(f.live)-1]
			return
		}
	}
}

func (f *fold) tuples() []types.Tuple { return f.live }

// TestTCPKillRecovery injects a node failure over real sockets: the
// driver declares a node dead mid-query, the survivors re-run (restart
// strategy) or resume from replicated checkpoints (incremental), and the
// answer must match an undisturbed in-process run. A follow-up run on the
// same cluster proves Revive re-arms the daemon.
func TestTCPKillRecovery(t *testing.T) {
	const nodes = 3
	base := &job.Spec{Workload: "sssp", Nodes: nodes, Seed: 3, Size: 250, Source: 0,
		Delta: true, MaxIterations: 300, Checkpoint: true}
	want, err := job.RunInProc(clone(base), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantHash := bench.ResultHash(want.Tuples)

	cl := startCluster(t, nodes)
	for _, strategy := range []exec.RecoveryStrategy{exec.RecoveryRestart, exec.RecoveryIncremental} {
		res, err := cl.Run(clone(base), func(o *exec.Options) {
			o.Recovery = strategy
			o.OnStratum = func(s, newTuples int) {
				if s == 2 {
					cl.Transport().Kill(1)
				}
			}
		})
		if err != nil {
			t.Fatalf("strategy %d: %v", strategy, err)
		}
		if res.Recoveries != 1 {
			t.Errorf("strategy %d: recoveries = %d, want 1", strategy, res.Recoveries)
		}
		if got := bench.ResultHash(res.Tuples); got != wantHash {
			t.Errorf("strategy %d: result hash %s after recovery, want %s", strategy, got, wantHash)
		}
		// The next Run revives node 1; a clean full-cluster run must
		// still agree.
		res, err = cl.Run(clone(base), nil)
		if err != nil {
			t.Fatalf("post-revive run: %v", err)
		}
		if res.Recoveries != 0 {
			t.Errorf("post-revive run recovered %d times", res.Recoveries)
		}
		if got := bench.ResultHash(res.Tuples); got != wantHash {
			t.Errorf("post-revive run: result hash %s, want %s", got, wantHash)
		}
	}
}

// TestRQLOverTCP compiles the same RQL text in every process and checks
// the multi-process answer against the in-process one.
func TestRQLOverTCP(t *testing.T) {
	const nodes = 2
	spec := &job.Spec{
		Workload: "rql", Dataset: "lineitem", Size: 3000, Seed: 4, Nodes: nodes,
		Query: `SELECT sum(tax), count(*) FROM lineitem WHERE linenumber > 1`,
	}
	want, err := job.RunInProc(clone(spec), nil)
	if err != nil {
		t.Fatal(err)
	}
	cl := startCluster(t, nodes)
	got, err := cl.Run(clone(spec), nil)
	if err != nil {
		t.Fatal(err)
	}
	if bench.ResultHash(got.Tuples) != bench.ResultHash(want.Tuples) {
		t.Errorf("rql over tcp: %v, want %v", got.Tuples, want.Tuples)
	}
}
