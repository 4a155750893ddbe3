package job_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/bench"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/types"
)

// TestStandingCoalescedBurstTCP is internal/exec's
// TestStandingCoalescedBurst over worker daemons on loopback sockets: a
// burst of IngestAsync requests enqueued from OnStratum while the
// bridging round runs must fold into ONE follow-up round over TCP too,
// with the burst's insert+delete pair annihilated before it ships, and
// the folded stream must equal a from-scratch run over the net edges.
func TestStandingCoalescedBurstTCP(t *testing.T) {
	cl := startCluster(t, 3)
	spec := &job.Spec{
		Workload: "rql", Query: algos.IncSSSPQuery,
		Dataset: "sssp", Handlers: "sssp-inc",
		Seed: 1, Size: 300, MaxStrata: 300,
	}
	bridgeEdge := types.NewTuple(int64(0), int64(280))
	var chords []types.Delta
	for i := 0; i < 18; i++ {
		chords = append(chords, types.Insert(types.NewTuple(int64(3*i), int64(5*i+1))))
	}
	var burst [][]types.Delta
	for _, d := range chords {
		burst = append(burst, []types.Delta{d})
	}
	phantom := types.NewTuple(int64(2), int64(299))
	burst = append(burst, []types.Delta{types.Insert(phantom)}, []types.Delta{types.Delete(phantom)})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var sq *exec.StandingQuery
	var armed atomic.Bool
	var once sync.Once
	acks := make([]*exec.IngestAck, 0, len(burst))
	sq, err := cl.StandingCtx(ctx, spec, func(o *exec.Options) {
		o.OnStratum = func(rel, total int) {
			// rel==1 runs inside the bridging round: the requestor has
			// not decided the next stratum yet, so everything enqueued
			// here waits for round 2.
			if armed.Load() && rel == 1 {
				once.Do(func() {
					for _, ds := range burst {
						ack, err := sq.IngestAsync(map[string][]types.Delta{"graph": ds})
						if err != nil {
							t.Errorf("burst enqueue: %v", err)
							return
						}
						acks = append(acks, ack)
					}
				})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sq.Stream()
	view := &deltaFold{}
	fold := func(rs *exec.RoundStats) {
		t.Helper()
		for i := 0; i < rs.Batches; i++ {
			b, ok := st.Next()
			if !ok {
				t.Fatalf("stream ended early on round %d: %v", rs.Round, st.Err())
			}
			view.apply(b.Deltas)
		}
	}
	fold(&sq.Rounds()[0])
	armed.Store(true)

	bridge, err := sq.Ingest(ctx, map[string][]types.Delta{"graph": {types.Insert(bridgeEdge)}})
	if err != nil {
		t.Fatal(err)
	}
	if bridge.Round != 1 || bridge.Ingests != 1 {
		t.Fatalf("bridge round stats: %+v", bridge)
	}
	if len(acks) != len(burst) {
		t.Fatalf("enqueued %d of %d burst requests", len(acks), len(burst))
	}
	var covering *exec.RoundStats
	for i, ack := range acks {
		rs, err := ack.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if covering == nil {
			covering = rs
		} else if rs != covering {
			t.Fatalf("ack %d resolved with round %d, want shared round %d", i, rs.Round, covering.Round)
		}
	}
	if covering.Round != 2 || covering.Ingests != len(burst) {
		t.Fatalf("covering round: %+v", covering)
	}
	if covering.IngestedDeltas != len(burst) || covering.CoalescedDeltas != len(burst)-2 {
		t.Fatalf("coalescing: staged %d folded %d, want %d/%d",
			covering.IngestedDeltas, covering.CoalescedDeltas, len(burst), len(burst)-2)
	}
	rounds := sq.Rounds()
	if len(rounds) != 3 {
		t.Fatalf("%d rounds for %d ingests over TCP — burst did not coalesce", len(rounds), 1+len(burst))
	}
	for i := range rounds[1:] {
		fold(&rounds[1+i])
	}
	if err := sq.Close(); err != nil {
		t.Fatal(err)
	}

	// Recompute over the net edge set (phantom annihilated).
	ref := clone(spec)
	ref.Ingest = []job.IngestedTable{{Table: "graph",
		Deltas: cluster.EncodeDeltas(append([]types.Delta{types.Insert(bridgeEdge)}, chords...))}}
	want, err := job.RunInProc(ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := bench.ResultHash(view.live), bench.ResultHash(want.Tuples); got != w {
		t.Fatalf("coalesced burst over TCP %s != recompute %s", got, w)
	}
}
