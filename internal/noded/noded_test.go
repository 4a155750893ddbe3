package noded

import (
	"context"
	"io"
	"slices"
	"testing"
	"time"

	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/bench"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/types"
)

// rig is a set of in-process daemons on loopback sockets.
type rig struct {
	t     *testing.T
	nodes []*Node
	dirs  []string        // data directories ("" for RAM daemons)
	all   []*Node         // every daemon started, replaced ones included
	done  []chan struct{} // closed when the matching Serve returns
}

// newRig starts n daemons, each with its own data directory when durable.
func newRig(t *testing.T, n int, durable bool) *rig {
	t.Helper()
	r := &rig{t: t}
	t.Cleanup(func() {
		for _, nd := range r.all {
			nd.Close()
		}
		for _, done := range r.done {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Error("daemon did not shut down")
				return
			}
		}
	})
	for i := 0; i < n; i++ {
		r.add(durable)
	}
	return r
}

// add starts one more daemon, with its own data directory when durable.
func (r *rig) add(durable bool) {
	dir := ""
	if durable {
		dir = r.t.TempDir()
	}
	r.dirs = append(r.dirs, dir)
	r.nodes = append(r.nodes, r.start("127.0.0.1:0", dir, false))
}

// start runs a daemon on addr over dir, restoring its persisted job first
// when restore is set.
func (r *rig) start(addr, dir string, restore bool) *Node {
	r.t.Helper()
	nd, err := Listen(addr, io.Discard)
	if err != nil {
		r.t.Fatal(err)
	}
	r.all = append(r.all, nd)
	if dir != "" {
		if err := nd.UseDataDir(dir, 16); err != nil {
			r.t.Fatal(err)
		}
	}
	if restore {
		if ok, err := nd.Restore(); err != nil || !ok {
			r.t.Fatalf("restore: %v, %v", ok, err)
		}
	}
	done := make(chan struct{})
	r.done = append(r.done, done)
	go func() {
		defer close(done)
		if err := nd.Serve(); err != nil {
			r.t.Errorf("daemon: %v", err)
		}
	}()
	return nd
}

// restart closes the first k daemons and brings new ones up on their
// addresses and data directories, restored from what the old ones
// persisted. All k go down first: a closed in-process daemon, unlike a
// dead process, leaves its accepted connections open, so a survivor would
// keep writing to the old daemon.
func (r *rig) restart(k int) {
	r.t.Helper()
	for _, nd := range r.nodes[:k] {
		nd.Close()
		<-r.done[slices.Index(r.all, nd)]
	}
	for i, nd := range r.nodes[:k] {
		r.nodes[i] = r.start(nd.Addr(), r.dirs[i], true)
	}
}

// connect attaches a driver to the first k daemons. A later driver
// supersedes it; the daemons keep serving.
func (r *rig) connect(k int) *job.Cluster {
	r.t.Helper()
	addrs := make([]string, k)
	for i := range addrs {
		addrs[i] = r.nodes[i].Addr()
	}
	cl, err := job.Connect(addrs)
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { _ = cl.Transport().Close() })
	return cl
}

// builds reports each daemon's count of full builds.
func (r *rig) builds() []int64 {
	out := make([]int64, len(r.nodes))
	for i, nd := range r.nodes {
		out[i] = nd.builds.Load()
	}
	return out
}

func (r *rig) wantBuilds(step string, want ...int64) {
	r.t.Helper()
	if got := r.builds(); !slices.Equal(got, want) {
		r.t.Fatalf("%s: builds per daemon = %v, want %v", step, got, want)
	}
}

// run executes spec on cl and checks its answer against the in-process
// reference.
func run(t *testing.T, cl *job.Cluster, spec *job.Spec, tune func(*exec.Options)) *exec.Result {
	t.Helper()
	ref := *spec
	ref.Nodes = len(cl.Addrs())
	want, err := job.RunInProc(&ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := *spec
	got, err := cl.Run(&s, tune)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := bench.ResultHash(got.Tuples), bench.ResultHash(want.Tuples); g != w {
		t.Fatalf("%s job: result hash %s, in-process %s", spec.Workload, g, w)
	}
	return got
}

// startRaw ships spec to the daemons without the driver-side build, so a
// spec the daemons cannot ready reaches them, and waits for every daemon
// to refuse it.
func startRaw(t *testing.T, cl *job.Cluster, spec job.Spec) {
	t.Helper()
	spec.Peers = cl.Addrs()
	spec.Nodes = len(spec.Peers)
	payload, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	tr := cl.Transport()
	gen, err := tr.StartJob(payload)
	if err != nil {
		t.Fatal(err)
	}
	watchdog := time.AfterFunc(30*time.Second, func() {
		tr.Requestor().Put(cluster.Message{Kind: cluster.MsgCancel})
	})
	defer watchdog.Stop()
	refused := map[cluster.NodeID]bool{}
	for len(refused) < len(spec.Peers) {
		msg, ok := tr.Requestor().Get()
		switch {
		case !ok || msg.Kind == cluster.MsgCancel:
			t.Fatal("daemons did not refuse the job")
		case msg.Job != gen:
		case msg.Kind == cluster.MsgError:
			refused[msg.From] = true
		case msg.Kind == cluster.MsgJobReady:
			t.Fatalf("node %d readied a job it should refuse", msg.From)
		}
	}
}

func graphSpec(query string) *job.Spec {
	return &job.Spec{Workload: "rql", Dataset: "sssp", Handlers: "sssp-inc",
		Size: 300, Seed: 1, Query: query, MaxStrata: 300}
}

const countEdges = `SELECT count(*), sum(destId) FROM graph`

func ingestLog(deltas ...types.Delta) []job.IngestedTable {
	return []job.IngestedTable{{Table: "graph", Deltas: cluster.EncodeDeltas(deltas)}}
}

func edge(src, dst int64) types.Delta { return types.Insert(types.NewTuple(src, dst)) }

// subscribe opens a standing query for spec on cl, ingests each batch as
// one round, closes it, and returns the relation its stream describes.
func subscribe(t *testing.T, cl *job.Cluster, spec *job.Spec, batches ...[]types.Delta) []types.Tuple {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sq, err := cl.StandingCtx(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var view []types.Tuple
	remove := func(t types.Tuple) {
		if i := slices.IndexFunc(view, t.Equal); i >= 0 {
			view = slices.Delete(view, i, i+1)
		}
	}
	fold := func(rs *exec.RoundStats) {
		for i := 0; i < rs.Batches; i++ {
			b, ok := sq.Stream().Next()
			if !ok {
				t.Fatalf("stream ended early on round %d: %v", rs.Round, sq.Stream().Err())
			}
			for _, d := range b.Deltas {
				switch d.Op {
				case types.OpInsert, types.OpUpdate:
					view = append(view, d.Tup)
				case types.OpDelete:
					remove(d.Tup)
				case types.OpReplace:
					remove(d.Old)
					view = append(view, d.Tup)
				}
			}
		}
	}
	fold(&sq.Rounds()[0])
	for _, batch := range batches {
		rs, err := sq.Ingest(ctx, map[string][]types.Delta{"graph": batch})
		if err != nil {
			t.Fatal(err)
		}
		fold(rs)
	}
	if err := sq.Close(); err != nil {
		t.Fatal(err)
	}
	return view
}

// TestTablesReused runs each case over RAM daemons and over daemons with a
// data directory (paged, durable stores).
func TestTablesReused(t *testing.T) {
	sssp := &job.Spec{Workload: "sssp", Seed: 3, Size: 250, Source: 0,
		Delta: true, MaxIterations: 300}
	cases := []struct {
		name string
		run  func(t *testing.T, r *rig)
	}{
		{"same spec twice", func(t *testing.T, r *rig) {
			cl := r.connect(2)
			run(t, cl, sssp, nil)
			r.wantBuilds("first job", 1, 1, 0)
			run(t, cl, sssp, nil)
			r.wantBuilds("same spec", 1, 1, 0)
		}},
		{"another query over the same dataset", func(t *testing.T, r *rig) {
			cl := r.connect(2)
			run(t, cl, graphSpec(countEdges), nil)
			r.wantBuilds("first query", 1, 1, 0)
			run(t, cl, graphSpec(algos.IncSSSPQuery), nil)
			r.wantBuilds("second query", 1, 1, 0)
		}},
		{"a drained query after a stream over the same dataset", func(t *testing.T, r *rig) {
			// Stream is an execution option, outside the data key: the
			// drained run after a streamed one reuses the tables.
			cl := r.connect(2)
			spec := *graphSpec(algos.IncSSSPQuery)
			st, err := cl.StreamCtx(context.Background(), &spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := st.Drain()
			if err != nil {
				t.Fatal(err)
			}
			r.wantBuilds("stream", 1, 1, 0)
			got := run(t, cl, graphSpec(algos.IncSSSPQuery), nil)
			r.wantBuilds("drained query after the stream", 1, 1, 0)
			if g, w := bench.ResultHash(got.Tuples), bench.ResultHash(streamed.Tuples); g != w || len(got.Tuples) != len(streamed.Tuples) {
				t.Fatalf("drained query: %d rows (hash %s), stream folded to %d rows (hash %s)", len(got.Tuples), g, len(streamed.Tuples), w)
			}
		}},
		{"a data field change rebuilds", func(t *testing.T, r *rig) {
			changes := []struct {
				field  string
				nodes  int
				change func(*job.Spec)
			}{
				{"Ingest", 2, func(s *job.Spec) { s.Ingest = ingestLog(edge(0, 7), edge(7, 9)) }},
				{"Size", 2, func(s *job.Spec) { s.Size = 320 }},
				{"Seed", 2, func(s *job.Spec) { s.Seed = 2 }},
				{"BufferPoolPages", 2, func(s *job.Spec) { s.BufferPoolPages = 24 }},
				{"node count", 3, func(*job.Spec) {}},
			}
			base := graphSpec(countEdges)
			cl := r.connect(2)
			run(t, cl, base, nil)
			want := []int64{1, 1, 0}
			for _, c := range changes {
				changed := *base
				c.change(&changed)
				ccl := cl
				if c.nodes != 2 {
					ccl = r.connect(c.nodes)
				}
				run(t, ccl, &changed, nil)
				for i := 0; i < c.nodes; i++ {
					want[i]++
				}
				r.wantBuilds(c.field, want...)
				// Back to the base data on the two-node driver.
				cl = r.connect(2)
				run(t, cl, base, nil)
				want[0]++
				want[1]++
				r.wantBuilds(c.field+" undone", want...)
			}
		}},
		{"a standing round that commits deltas forces a rebuild", func(t *testing.T, r *rig) {
			cl := r.connect(2)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			sq, err := cl.StandingCtx(ctx, graphSpec(algos.IncSSSPQuery), nil)
			if err != nil {
				t.Fatal(err)
			}
			batch := []types.Delta{edge(0, 171), edge(171, 243)}
			if _, err := sq.Ingest(ctx, map[string][]types.Delta{"graph": batch}); err != nil {
				t.Fatal(err)
			}
			if err := sq.Close(); err != nil {
				t.Fatal(err)
			}
			r.wantBuilds("standing query", 1, 1, 0)
			// The same data key: only the revised store tells the daemons
			// their tables no longer match the spec.
			run(t, cl, graphSpec(countEdges), nil)
			r.wantBuilds("job after the round", 2, 2, 0)
			// run checks the count against an in-process engine that
			// folds the same log: the rebuilt tables hold the ingest.
			revised := graphSpec(countEdges)
			revised.Ingest = ingestLog(batch...)
			run(t, cl, revised, nil)
			r.wantBuilds("job with the ingest log", 3, 3, 0)
		}},
		{"a round that held no deltas for a node still forces its rebuild", func(t *testing.T, r *rig) {
			// Four nodes at replication 3: the one edge below reaches three
			// of them, yet all four commit its round and move their round
			// watermarks, so all four rebuild: no reused store carries a
			// watermark past its load into the next job.
			r.add(r.dirs[0] != "")
			cl := r.connect(4)
			spec := graphSpec(countEdges)
			subscribe(t, cl, spec, []types.Delta{edge(0, 171)})
			r.wantBuilds("first subscription", 1, 1, 1, 1)
			var batch []types.Delta
			for src := int64(1); src <= 24; src++ {
				batch = append(batch, edge(src, 300-src))
			}
			got := subscribe(t, cl, spec, batch)
			r.wantBuilds("second subscription", 2, 2, 2, 2)
			// The daemons rebuilt from a spec without the first round's
			// edge, so the fold is the dataset plus the second batch.
			ref := *spec
			ref.Nodes = 4
			ref.Ingest = ingestLog(batch...)
			want, err := job.RunInProc(&ref, nil)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := bench.ResultHash(got), bench.ResultHash(want.Tuples); g != w {
				t.Fatalf("folded stream %v (hash %s), in-process %v (hash %s)", got, g, want.Tuples, w)
			}
		}},
		{"a failed build forces a rebuild", func(t *testing.T, r *rig) {
			cl := r.connect(2)
			run(t, cl, sssp, nil)
			startRaw(t, cl, job.Spec{Workload: "no-such-workload"})
			run(t, cl, sssp, nil)
			r.wantBuilds("after the failed build", 2, 2, 0)
		}},
		{"a query that fails to compile keeps the tables", func(t *testing.T, r *rig) {
			cl := r.connect(2)
			run(t, cl, graphSpec(countEdges), nil)
			startRaw(t, cl, *graphSpec(`SELECT nosuchcol FROM graph`))
			run(t, cl, graphSpec(`SELECT count(*) FROM graph WHERE srcId > 10`), nil)
			r.wantBuilds("after the compile failure", 1, 1, 0)
		}},
		{"a restored daemon rebuilds", func(t *testing.T, r *rig) {
			if r.dirs[1] == "" {
				t.Skip("only a daemon with a data directory restores")
			}
			run(t, r.connect(2), sssp, nil)
			r.restart(2)
			r.wantBuilds("restore", 1, 1, 0) // reopening the store counts as a build
			// A new driver: the old one's sockets died with the daemons.
			run(t, r.connect(2), sssp, nil)
			r.wantBuilds("job after the restore", 2, 2, 0)
		}},
		{"incremental recovery after a reused job", func(t *testing.T, r *rig) {
			cl := r.connect(2)
			run(t, cl, sssp, nil)
			ckpt := *sssp
			ckpt.Checkpoint = true
			res := run(t, cl, &ckpt, func(o *exec.Options) {
				o.Recovery = exec.RecoveryIncremental
				o.OnStratum = func(s, _ int) {
					if s == 2 {
						cl.Transport().Kill(1)
					}
				}
			})
			if res.Recoveries != 1 {
				t.Errorf("recoveries = %d, want 1", res.Recoveries)
			}
			r.wantBuilds("checkpointed job", 1, 1, 0)
		}},
	}
	for _, mode := range []struct {
		name    string
		durable bool
	}{{"ram", false}, {"data-dir", true}} {
		t.Run(mode.name, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					c.run(t, newRig(t, 3, mode.durable))
				})
			}
		})
	}
}

func TestDataKey(t *testing.T) {
	base := job.Spec{Workload: "rql", Dataset: "sssp", Size: 300, Seed: 1,
		Peers: []string{"a", "b"}, Query: "SELECT 1"}
	key := func(s job.Spec, self cluster.NodeID) string {
		k, err := dataKey(&s, self)
		if err != nil {
			t.Fatal(err)
		}
		return string(k)
	}
	same := base
	same.Query, same.BatchSize, same.Compaction, same.Checkpoint = "SELECT 2", 7, true, true
	same.CompactionHighWater, same.MaxStrata, same.Stream, same.NoVectorize = 9, 11, true, true
	if key(base, 0) != key(same, 0) {
		t.Error("execution-only fields changed the data key")
	}
	if key(base, 0) == key(base, 1) {
		t.Error("the node id is not in the data key")
	}
	for name, change := range map[string]func(*job.Spec){
		"Handlers": func(s *job.Spec) { s.Handlers = "sssp-inc" },
		"Peers":    func(s *job.Spec) { s.Peers = []string{"a", "c"} },
		"Dataset":  func(s *job.Spec) { s.Dataset = "dbpedia" },
		"Ingest":   func(s *job.Spec) { s.Ingest = ingestLog(edge(1, 2)) },
	} {
		changed := base
		change(&changed)
		if key(base, 0) == key(changed, 0) {
			t.Errorf("%s is not in the data key", name)
		}
	}
}
