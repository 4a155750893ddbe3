// Package noded implements the rexnode worker daemon: one OS process
// hosting one REX worker node over the TCP transport. The daemon serves a
// sequence of jobs — for each MsgJob it readies the catalog, plan, and its
// data partition from the job spec, runs the worker event loop until the
// driver tears the query down, and then waits for the next job. It also
// answers daemon-level control traffic (stats requests, kill/revive
// failure injection, quit).
//
// The loaded tables outlive the job. A later job whose spec describes the
// same data (same dataset fields, ingest log, cluster shape and node id)
// reuses the store, ring and catalog and only compiles its query, as long
// as no standing round has committed on this node since the load.
// Anything else — another dataset, a committed round, a failed build, a
// restore — rebuilds from the spec.
//
// With a data directory configured, the daemon becomes crash-durable: its
// store is a paged spill-to-disk store, the active job description is
// persisted next to it, and Restore rebuilds the whole runtime — job,
// plan, committed store state, running worker loop — at boot. A SIGKILLed
// daemon respawned on the same address and data directory rejoins the
// cluster with every committed round intact.
package noded

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/pagestore"
	"github.com/rex-data/rex/internal/storage"
)

// jobFile is the persisted active-job description inside the data
// directory; jobMagic versions its framing.
const (
	jobFile  = "job.bin"
	jobMagic = "REXJOB01"
)

// Node is one worker daemon instance.
type Node struct {
	tr   *cluster.TCPTransport
	logw io.Writer
	jobs int

	// dataDir, when non-empty, roots the daemon's durable state: the
	// paged store lives under it and the active job is persisted to it.
	// storeMu guards store and ckpts: Close may tear them down from a
	// different goroutine than the Serve loop that builds and uses them.
	dataDir   string
	poolPages int
	storeMu   sync.Mutex
	// closedPool holds the pool counters of the store closeStore last shut,
	// so PoolStats still answers after the daemon saw its driver leave.
	closedPool storage.PoolStats
	store      storage.Durable // nil when running in-memory
	ckpts      *storage.CheckpointStore

	// The loaded data, kept across jobs: tables is the store the worker
	// runs over (the durable store, or a RAM one), loaded under ring and
	// cat from a spec whose data key is loadedKey. loadedKey is nil when a
	// job must rebuild; plan is kept for the built-in workloads, whose
	// plan depends on keyed fields only. builds counts full builds.
	loadedKey []byte
	tables    storage.Backend
	ring      *cluster.Ring
	cat       *catalog.Catalog
	plan      *exec.PlanSpec
	builds    atomic.Int64

	// current job state, kept across kill/revive so a revived node can
	// rejoin the next run of the same job.
	worker   *exec.Worker
	loopDone chan struct{}
}

// Listen binds the daemon's listener (":0" picks a free port).
func Listen(addr string, logw io.Writer) (*Node, error) {
	tr, err := cluster.ListenTCPNode(addr)
	if err != nil {
		return nil, err
	}
	if logw == nil {
		logw = io.Discard
	}
	return &Node{tr: tr, logw: logw}, nil
}

// UseDataDir roots the daemon's durable state under dir: its store
// becomes a paged spill-to-disk store with a poolPages-frame buffer pool
// (0 = default), and the active job survives a crash. Call before Serve
// or Restore.
func (n *Node) UseDataDir(dir string, poolPages int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n.dataDir = dir
	n.poolPages = poolPages
	return nil
}

// Addr reports the bound listen address.
func (n *Node) Addr() string { return n.tr.Addr() }

// Close tears the daemon down without waiting for a MsgQuit.
func (n *Node) Close() {
	_ = n.tr.Close()
	n.closeStore()
}

// closeStore flushes and closes the durable store, sealing dirty state
// into a checkpoint image (graceful shutdown).
func (n *Node) closeStore() {
	n.storeMu.Lock()
	store, ckpts := n.store, n.ckpts
	n.store, n.ckpts = nil, nil
	if ps, ok := store.(storage.PoolStatter); ok {
		n.closedPool = ps.PoolStats()
	}
	n.storeMu.Unlock()
	if store != nil {
		if err := store.Close(); err != nil {
			fmt.Fprintf(n.logw, "rexnode: store close: %v\n", err)
		}
	}
	if ckpts != nil {
		if err := ckpts.Close(); err != nil {
			fmt.Fprintf(n.logw, "rexnode: checkpoint close: %v\n", err)
		}
	}
}

// PoolStats reports the buffer-pool counters of the durable store the
// daemon runs over, or of the one it last closed (zero when running
// in-memory).
func (n *Node) PoolStats() storage.PoolStats {
	n.storeMu.Lock()
	defer n.storeMu.Unlock()
	if ps, ok := n.store.(storage.PoolStatter); ok {
		return ps.PoolStats()
	}
	return n.closedPool
}

// Serve processes daemon control traffic until MsgQuit (or Close). Engine
// traffic flows to the worker loop goroutine, so Serve stays responsive
// during query execution.
func (n *Node) Serve() error {
	for {
		msg, ok := n.tr.Control().Get()
		if !ok {
			n.closeStore()
			return nil // transport closed
		}
		switch msg.Kind {
		case cluster.MsgQuit:
			// Close first: it shuts the inbox, so a worker loop blocked
			// mid-query wakes up and waitLoop cannot deadlock.
			_ = n.tr.Close()
			n.waitLoop()
			n.closeStore()
			return nil
		case cluster.MsgStatsReq:
			n.tr.SendControl(cluster.Message{
				From: n.tr.Self(), Kind: cluster.MsgStats, Payload: n.tr.StatsPayload(),
			})
		case cluster.MsgJob:
			if err := n.startJob(msg); err != nil {
				fmt.Fprintf(n.logw, "rexnode: job: %v\n", err)
				// SendControl with the job's own generation: the node may
				// be unconfigured (decode/Configure failure), where the
				// worker-path SendToRequestor would drop the reply and
				// leave the driver waiting out its ready timeout.
				n.tr.SendControl(cluster.Message{
					From: msg.To, Kind: cluster.MsgError, Table: err.Error(), Job: msg.Job,
				})
			}
		case cluster.MsgKill:
			// The transport already marked this node dead and closed its
			// inbox; wait for the worker loop to notice so a revive
			// cannot race two loops over one inbox.
			n.waitLoop()
			// Push a final stats frame: the driver skips dead nodes in its
			// end-of-run metrics sync, so without this the victim's bytes
			// would vanish from the run's accounting (SendControl works
			// while the simulated node is "dead" — the process is alive).
			n.tr.SendControl(cluster.Message{
				From: n.tr.Self(), Kind: cluster.MsgStats, Payload: n.tr.StatsPayload(),
			})
			fmt.Fprintf(n.logw, "rexnode: node %d killed\n", n.tr.Self())
		case cluster.MsgRevive:
			// Rejoin the current job with a fresh worker: a revived node
			// lost its volatile state, and per-epoch state is rebuilt on
			// the next MsgStart anyway.
			n.waitLoop()
			if n.worker != nil {
				n.spawnLoop()
			}
			fmt.Fprintf(n.logw, "rexnode: node %d revived\n", n.tr.Self())
		}
	}
}

// startJob configures the transport for the new generation, rebuilds the
// job's runtime from its spec, and starts the worker loop.
func (n *Node) startJob(msg cluster.Message) error {
	spec, err := job.Decode(msg.Payload)
	if err != nil {
		return err
	}
	self := msg.To
	// Stop the previous job's worker loop BEFORE the generation bumps:
	// the transport stamps outgoing frames with its current generation at
	// send time, so a loop joined only after Configure could sign its
	// final stragglers with the new job's generation and smuggle them
	// past the staleness filters into the next run.
	n.tr.Quiesce()
	n.waitLoop()
	if err := n.tr.Configure(self, spec.Peers, msg.Job); err != nil {
		return err
	}
	if n.worker != nil {
		if n.worker.Committed() {
			// A standing round moved the store past its load: its tables
			// or its durable watermark no longer match a fresh build.
			n.loadedKey = nil
		}
		n.worker.DropQuery()
		n.worker = nil
	}
	if n.dataDir != "" {
		// Persist the job before building it: a crash at any later point
		// must find the description a respawn restores from.
		if err := writeJobFile(n.dataDir, msg.Job, self, msg.Payload); err != nil {
			return err
		}
	}
	start := time.Now()
	rows, err := n.buildJob(spec, self, false)
	if err != nil {
		return err
	}
	n.spawnLoop()
	n.tr.SendControl(cluster.Message{From: self, Kind: cluster.MsgJobReady})
	how := "reused its tables"
	if rows >= 0 {
		how = fmt.Sprintf("built %d rows in %d ms", rows, time.Since(start).Milliseconds())
	}
	fmt.Fprintf(n.logw, "rexnode: node %d ready for %s job (gen %d, %d peers, %s)\n",
		self, spec.Workload, msg.Job, len(spec.Peers), how)
	return nil
}

// Restore rebuilds the daemon's runtime from its data directory: the
// persisted job is decoded, the transport configured, the paged store
// reopened on its last committed state, and the worker loop started. It
// reports whether a job was restored. Call after Listen (the restored
// runtime needs the listener) and before announcing the address to a
// spawner — the driver's respawn handshake treats the announcement as
// "ready to serve the restored job".
func (n *Node) Restore() (bool, error) {
	if n.dataDir == "" {
		return false, nil
	}
	gen, self, payload, err := readJobFile(n.dataDir)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	spec, err := job.Decode(payload)
	if err != nil {
		return false, err
	}
	if err := n.tr.Configure(self, spec.Peers, gen); err != nil {
		return false, err
	}
	if _, err := n.buildJob(spec, self, true); err != nil {
		return false, err
	}
	n.spawnLoop()
	n.storeMu.Lock()
	committed := int64(-1)
	if n.store != nil {
		committed = n.store.CommittedRound()
	}
	n.storeMu.Unlock()
	fmt.Fprintf(n.logw, "rexnode: node %d restored %s job (gen %d, committed round %d)\n",
		self, spec.Workload, gen, committed)
	return true, nil
}

// buildJob readies the job's catalog, plan, store, and worker. It reuses
// the loaded tables when the spec's data key matches theirs (restore
// never does) and reports the rows loaded, or -1 on reuse. A query that
// fails to compile on reuse leaves the tables reusable; any other failure
// leaves nothing to reuse.
func (n *Node) buildJob(spec *job.Spec, self cluster.NodeID, restore bool) (int, error) {
	key, err := dataKey(spec, self)
	if err != nil {
		return 0, err
	}
	hit := !restore && n.loadedKey != nil && bytes.Equal(key, n.loadedKey)
	rows := -1
	if !hit {
		n.loadedKey = nil
		if rows, err = n.load(spec, self, restore); err != nil {
			return 0, err
		}
		if !restore {
			n.loadedKey = key
		}
	}
	plan := n.plan
	if hit && spec.Workload == "rql" {
		if plan, err = spec.CompileQuery(n.cat); err != nil {
			return 0, err
		}
	}
	// A fresh checkpoint store per job: the §4.3 Δ-set checkpoints belong
	// to one query and persist next to the page files (surviving a
	// respawn alongside the store image, which is why restore keeps them).
	ckpts := storage.NewCheckpointStore()
	if n.dataDir != "" {
		if err := n.useCheckpoints(ckpts, restore); err != nil {
			n.loadedKey = nil
			return 0, err
		}
	}
	n.jobs++
	n.worker = exec.NewWorker(exec.WorkerConfig{
		Node: self, Transport: n.tr, Store: n.tables,
		Checkpoints: ckpts, Catalog: n.cat, Ring: n.ring,
		Plan: plan, QueryID: fmt.Sprintf("node%d-job%d", self, n.jobs),
		Options: spec.Options(),
	})
	return rows, nil
}

// load builds the job's catalog, plan, ring, and store from the spec and
// loads this node's partition of the generated tables, reporting the rows
// stored. restore=true reuses the store's committed on-disk state instead
// of loading; if the store turns out to hold no committed data (the crash
// hit before the initial load was sealed), it falls back to a fresh load.
func (n *Node) load(spec *job.Spec, self cluster.NodeID, restore bool) (int, error) {
	cat, plan, tables, err := spec.Build()
	if err != nil {
		return 0, err
	}
	n.builds.Add(1)
	ring := cluster.NewRing(len(spec.Peers), spec.VNodes, spec.Replication)
	var store storage.Backend
	var durable storage.Durable
	n.closeStore()
	n.tables = nil
	if n.dataDir != "" {
		storeDir := filepath.Join(n.dataDir, "store")
		if !restore {
			// A new job's data replaces the previous job's: wipe before
			// opening so stale durable state cannot leak across jobs.
			if err := os.RemoveAll(storeDir); err != nil {
				return 0, err
			}
		}
		pool := spec.BufferPoolPages
		if pool <= 0 {
			pool = n.poolPages
		}
		ps, err := pagestore.Open(storeDir, self, pool)
		if err != nil {
			return 0, err
		}
		if restore && ps.CommittedRound() < 0 {
			restore = false // nothing durable: crashed before the base commit
		}
		n.storeMu.Lock()
		n.store = ps
		n.storeMu.Unlock()
		store, durable = ps, ps
	} else {
		store = storage.NewStore(self)
	}
	rows := 0
	if !restore {
		stores := make([]storage.Backend, len(spec.Peers))
		stores[self] = store
		loader := &storage.Loader{Ring: ring, Stores: stores}
		for _, tb := range tables {
			if err := loader.Load(tb.Name, tb.KeyCol, tb.Tuples); err != nil {
				return 0, err
			}
			rows += store.CountLocal(tb.Name)
		}
		if durable != nil {
			// Seal the loaded base as committed round 0 so a crash at any
			// later point recovers to it (and a respawn can skip the load).
			if err := durable.Commit(0); err != nil {
				return 0, err
			}
		}
	}
	n.tables, n.ring, n.cat, n.plan = store, ring, cat, plan
	return rows, nil
}

// useCheckpoints closes the previous job's checkpoint store and roots
// ckpts under the data directory, dropping the files the previous job
// left there unless keep is set.
func (n *Node) useCheckpoints(ckpts *storage.CheckpointStore, keep bool) error {
	n.storeMu.Lock()
	old := n.ckpts
	n.ckpts = nil
	n.storeMu.Unlock()
	if old != nil {
		if err := old.Close(); err != nil {
			fmt.Fprintf(n.logw, "rexnode: checkpoint close: %v\n", err)
		}
	}
	dir := filepath.Join(n.dataDir, "store", "ckpt")
	if !keep {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	if err := ckpts.UseDir(dir); err != nil {
		return err
	}
	n.storeMu.Lock()
	n.ckpts = ckpts
	n.storeMu.Unlock()
	return nil
}

// dataKey identifies the data a spec loads on node self: the encoded spec
// with its execution-only fields cleared. Clearing rather than listing
// the fields that count keeps any field added later in the key.
func dataKey(spec *job.Spec, self cluster.NodeID) ([]byte, error) {
	s := *spec
	s.Query = ""
	s.BatchSize = 0
	s.Compaction = false
	s.Checkpoint = false
	s.CompactionHighWater = 0
	s.MaxStrata = 0
	s.Stream = false
	s.NoVectorize = false
	key, err := s.Encode()
	if err != nil {
		return nil, err
	}
	return binary.AppendVarint(key, int64(self)), nil
}

// writeJobFile atomically persists the active job (generation, node id,
// encoded spec) into dir.
func writeJobFile(dir string, gen int, self cluster.NodeID, payload []byte) error {
	buf := []byte(jobMagic)
	buf = binary.AppendVarint(buf, int64(gen))
	buf = binary.AppendVarint(buf, int64(self))
	buf = append(buf, payload...)
	tmp := filepath.Join(dir, jobFile+".tmp")
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, jobFile))
}

// readJobFile loads the persisted job description from dir.
func readJobFile(dir string) (gen int, self cluster.NodeID, payload []byte, err error) {
	buf, err := os.ReadFile(filepath.Join(dir, jobFile))
	if err != nil {
		return 0, 0, nil, err
	}
	if len(buf) < len(jobMagic) || string(buf[:len(jobMagic)]) != jobMagic {
		return 0, 0, nil, fmt.Errorf("noded: corrupt %s", jobFile)
	}
	rest := buf[len(jobMagic):]
	g, used := binary.Varint(rest)
	if used <= 0 {
		return 0, 0, nil, fmt.Errorf("noded: corrupt %s", jobFile)
	}
	rest = rest[used:]
	s, used := binary.Varint(rest)
	if used <= 0 {
		return 0, 0, nil, fmt.Errorf("noded: corrupt %s", jobFile)
	}
	return int(g), cluster.NodeID(s), rest[used:], nil
}

// spawnLoop runs the current worker's event loop on its own goroutine.
func (n *Node) spawnLoop() {
	done := make(chan struct{})
	w := n.worker
	go func() {
		defer close(done)
		w.Loop()
	}()
	n.loopDone = done
}

// waitLoop joins the worker loop goroutine if one was ever started. The
// loop exits on shutdown (job end) or on a closed inbox (kill or
// reconfigure), so this only blocks while the worker drains its current
// message.
func (n *Node) waitLoop() {
	if n.loopDone != nil {
		<-n.loopDone
		n.loopDone = nil
	}
}
