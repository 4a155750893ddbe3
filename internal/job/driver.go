package job

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/exec"
)

// readyTimeout bounds the wait for every daemon to ready a job. A daemon
// that must build its tables is the slow case: dataset generation scales
// with Spec.Size. One that reuses its loaded tables only compiles.
const readyTimeout = 120 * time.Second

// SpawnPrefix is the line a worker daemon prints once its listener is
// bound; the spawner scans child stdout for it to learn the port.
const SpawnPrefix = "REXNODE_LISTEN="

// Cluster is the driver-side handle on a set of rexnode worker daemons:
// it ships job descriptions, runs queries over the TCP transport, and
// (for daemons it spawned itself) manages the child processes.
type Cluster struct {
	tr    *cluster.TCPTransport
	addrs []string
	procs []*osexec.Cmd

	// Respawn support (SpawnLocal clusters with a data root): the binary
	// and the per-node argument lists — pinned listen address included —
	// that bring a crashed daemon back on the same identity.
	bin         string
	respawnArgs [][]string

	// procMu guards procs/respawn state against concurrent pump-driven
	// recovery and driver-side process control.
	procMu sync.Mutex

	// buildMu guards builds, the driver-side compiled-job cache: Build is
	// deterministic from the encoded spec, so identical consecutive jobs
	// (a prepared statement re-executed, a server replaying cached RQL)
	// reuse the driver's catalog and plan instead of recompiling per run.
	// The daemons keep their own loaded tables between jobs over the same
	// data (see internal/noded), so neither side regenerates the dataset.
	buildMu sync.Mutex
	builds  map[uint64]*builtJob
}

// builtJob is one cached driver-side Build result; payload is kept to
// rule out hash collisions by comparison.
type builtJob struct {
	payload []byte
	cat     *catalog.Catalog
	plan    *exec.PlanSpec
}

// buildCacheCap bounds the driver cache; on overflow it resets (the
// cache is a recompile saver, not a correctness structure).
const buildCacheCap = 64

// Connect attaches to already-running worker daemons. The address order
// fixes NodeIDs: addrs[i] becomes node i.
func Connect(addrs []string) (*Cluster, error) {
	tr, err := cluster.NewTCPDriver(addrs)
	if err != nil {
		return nil, err
	}
	return &Cluster{tr: tr, addrs: append([]string(nil), addrs...)}, nil
}

// SpawnLocal launches n worker daemons as child processes of the given
// binary (extraArgs must put it in daemon mode, e.g. "-node") on loopback
// ports, then connects to them. Use Close to tear the children down.
func SpawnLocal(n int, bin string, extraArgs []string) (*Cluster, error) {
	return SpawnLocalData(n, bin, extraArgs, "")
}

// SpawnLocalData is SpawnLocal giving each daemon a private data
// directory (dataRoot/node<i>, passed as -data-dir): daemon stores page
// to disk, the active job is persisted, and RespawnProcess can bring a
// SIGKILLed daemon back on the same address and state.
func SpawnLocalData(n int, bin string, extraArgs []string, dataRoot string) (*Cluster, error) {
	var procs []*osexec.Cmd
	var addrs []string
	var respawn [][]string
	fail := func(err error) (*Cluster, error) {
		for _, p := range procs {
			_ = p.Process.Kill()
			_ = p.Wait()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		args := append([]string(nil), extraArgs...)
		if dataRoot != "" {
			args = append(args, "-data-dir", filepath.Join(dataRoot, fmt.Sprintf("node%d", i)))
		}
		cmd := osexec.Command(bin, append(args, "-listen", "127.0.0.1:0")...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return fail(err)
		}
		if err := cmd.Start(); err != nil {
			return fail(fmt.Errorf("job: spawn %s: %w", bin, err))
		}
		procs = append(procs, cmd)
		addr, err := scanSpawnAddr(stdout)
		if err != nil {
			return fail(fmt.Errorf("job: node %d: %w", i, err))
		}
		addrs = append(addrs, addr)
		// The respawn arg list pins the learned address: the replacement
		// process must come back where its peers expect it.
		respawn = append(respawn, append(args, "-listen", addr))
	}
	c, err := Connect(addrs)
	if err != nil {
		return fail(err)
	}
	c.procs = procs
	c.bin = bin
	if dataRoot != "" {
		c.respawnArgs = respawn
	}
	return c, nil
}

// scanSpawnAddr reads a daemon's stdout until its SpawnPrefix
// announcement, then keeps draining the pipe in the background so the
// child never blocks on it.
func scanSpawnAddr(stdout io.Reader) (string, error) {
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); strings.HasPrefix(line, SpawnPrefix) {
			go func() {
				for sc.Scan() {
				}
			}()
			return strings.TrimPrefix(line, SpawnPrefix), nil
		}
	}
	return "", fmt.Errorf("never announced %q", SpawnPrefix)
}

// Transport exposes the underlying TCP driver transport (failure
// injection, metrics).
func (c *Cluster) Transport() *cluster.TCPTransport { return c.tr }

// Addrs lists the worker daemon addresses (index = NodeID).
func (c *Cluster) Addrs() []string { return c.addrs }

// Run ships spec to every daemon, waits until each has built its plan and
// loaded its partition, then executes the query from this process as the
// requestor. tune, when non-nil, adjusts the driver-side options
// (recovery strategy, stratum hooks) before the run; the wire-shared
// options always come from the spec so both sides agree.
func (c *Cluster) Run(spec *Spec, tune func(*exec.Options)) (*exec.Result, error) {
	return c.RunCtx(context.Background(), spec, tune)
}

// RunCtx is Run honoring a context: cancellation aborts the query between
// strata (see exec.Engine.RunCtx) and the cluster stays usable for the
// next run. The daemons run it unstreamed: a recursive query's fixpoint
// ships its final relation once.
func (c *Cluster) RunCtx(ctx context.Context, spec *Spec, tune func(*exec.Options)) (*exec.Result, error) {
	eng, plan, opts, err := c.prepare(ctx, spec, tune, false)
	if err != nil {
		return nil, err
	}
	return eng.RunCtx(ctx, plan, opts)
}

// StreamCtx runs spec in streaming-result mode: the returned stream yields
// each stratum's delta batch as punctuation closes it on every daemon.
func (c *Cluster) StreamCtx(ctx context.Context, spec *Spec, tune func(*exec.Options)) (*exec.ResultStream, error) {
	eng, plan, opts, err := c.prepare(ctx, spec, tune, true)
	if err != nil {
		return nil, err
	}
	return eng.Stream(ctx, plan, opts)
}

// StandingCtx runs spec as a standing query: every daemon keeps its worker
// loop, operator state, and data resident after the initial fixpoint, and
// the returned handle ingests base-table deltas as incremental rounds over
// the sockets (see exec.StandingQuery). On a respawnable cluster
// (SpawnLocalData), crash recovery is installed automatically: a daemon
// whose process dies mid-query is respawned on its persisted state and the
// interrupted round replays (override by setting Options.Recover in tune).
func (c *Cluster) StandingCtx(ctx context.Context, spec *Spec, tune func(*exec.Options)) (*exec.StandingQuery, error) {
	eng, plan, opts, err := c.prepare(ctx, spec, tune, true)
	if err != nil {
		return nil, err
	}
	if opts.Recover == nil && c.Respawnable() {
		opts.Recover = func(victim cluster.NodeID) error {
			return c.RespawnProcess(int(victim))
		}
	}
	return eng.Standing(ctx, plan, opts)
}

// prepare ships the job, waits for every daemon to build it, and returns
// the driver-side engine, plan, and options for the run. The entry point
// decides whether the daemons stream per-stratum changelogs (stream) or
// ship the final relation once, whatever spec.Stream says.
func (c *Cluster) prepare(ctx context.Context, spec *Spec, tune func(*exec.Options), stream bool) (*exec.Engine, *exec.PlanSpec, exec.Options, error) {
	var none exec.Options
	s := *spec
	s.Peers = c.addrs
	s.Nodes = len(c.addrs)
	s.Stream = stream
	s.Normalize()
	payload, err := s.Encode()
	if err != nil {
		return nil, nil, none, err
	}
	// The driver builds the same catalog and plan the daemons do (the
	// generated data is discarded here; daemons load their own), memoized
	// by the encoded spec so repeat executions skip the rebuild.
	cat, plan, err := c.buildCached(payload, &s)
	if err != nil {
		return nil, nil, none, err
	}
	gen, err := c.tr.StartJob(payload)
	if err != nil {
		return nil, nil, none, err
	}
	if err := c.awaitReady(ctx, len(c.addrs), gen); err != nil {
		return nil, nil, none, err
	}
	eng := exec.NewEngineOn(c.tr, s.VNodes, s.Replication, cat)
	opts := s.Options()
	if tune != nil {
		tune(&opts)
	}
	return eng, plan, opts, nil
}

// buildCached returns the driver-side catalog and plan for an encoded
// spec, compiling on first sight. Keying on the full encoded payload is
// what makes reuse safe: any field that could change the build — query
// text, dataset parameters, the replayed ingest log — changes the key.
func (c *Cluster) buildCached(payload []byte, s *Spec) (*catalog.Catalog, *exec.PlanSpec, error) {
	h := fnv.New64a()
	h.Write(payload)
	key := h.Sum64()
	c.buildMu.Lock()
	defer c.buildMu.Unlock()
	if b, ok := c.builds[key]; ok && string(b.payload) == string(payload) {
		return b.cat, b.plan, nil
	}
	cat, plan, _, err := s.Build()
	if err != nil {
		return nil, nil, err
	}
	if len(c.builds) >= buildCacheCap {
		c.builds = nil
	}
	if c.builds == nil {
		c.builds = map[uint64]*builtJob{}
	}
	c.builds[key] = &builtJob{payload: append([]byte(nil), payload...), cat: cat, plan: plan}
	return cat, plan, nil
}

// awaitReady drains the requestor mailbox until every daemon acknowledged
// the job generation (or one reported a build error, or ctx expired).
func (c *Cluster) awaitReady(ctx context.Context, n, gen int) error {
	done := make(chan error, 1)
	go func() {
		ready := map[cluster.NodeID]bool{}
		for len(ready) < n {
			msg, ok := c.tr.Requestor().Get()
			if !ok {
				done <- fmt.Errorf("job: transport closed while waiting for workers")
				return
			}
			if msg.Kind != cluster.MsgCancel && msg.Job != gen {
				continue // debris from an earlier, abandoned job
			}
			switch msg.Kind {
			case cluster.MsgJobReady:
				ready[msg.From] = true
			case cluster.MsgError:
				done <- fmt.Errorf("job: node %d: %s", msg.From, msg.Table)
				return
			case cluster.MsgFailure:
				// The transport saw the daemon's connection drop: the
				// process died while building the job.
				done <- fmt.Errorf("job: node %d died while preparing the job", msg.From)
				return
			case cluster.MsgCancel:
				done <- fmt.Errorf("job: wait for workers abandoned")
				return
			}
		}
		done <- nil
	}()
	abandon := func(reason error) error {
		// Unblock the collector so it cannot keep consuming requestor
		// frames that a retry on this cluster would need.
		c.tr.Requestor().Put(cluster.Message{Kind: cluster.MsgCancel})
		<-done
		return reason
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return abandon(ctx.Err())
	case <-time.After(readyTimeout):
		return abandon(fmt.Errorf("job: workers not ready after %v", readyTimeout))
	}
}

// KillProcess SIGKILLs the i-th spawned daemon's OS process — real failure
// injection, unlike Transport().Kill which only tells a healthy daemon to
// play dead. The driver discovers the death through the broken connection
// and surfaces it as a node failure. Only valid on SpawnLocal clusters.
func (c *Cluster) KillProcess(i int) error {
	c.procMu.Lock()
	defer c.procMu.Unlock()
	if i < 0 || i >= len(c.procs) {
		return fmt.Errorf("job: no spawned process %d (cluster spawned %d)", i, len(c.procs))
	}
	return c.procs[i].Process.Kill()
}

// RespawnProcess restarts the i-th spawned daemon after its process died:
// the replacement runs the same binary with the same pinned listen
// address and data directory, restores its persisted job and committed
// store state at boot, and announces the address once it is serving
// again. The driver then marks the node alive — without MsgRevive, which
// is the simulated-death re-arm and would deadlock a daemon whose worker
// loop is already running. Only valid on SpawnLocalData clusters.
func (c *Cluster) RespawnProcess(i int) error {
	c.procMu.Lock()
	defer c.procMu.Unlock()
	if c.respawnArgs == nil {
		return fmt.Errorf("job: respawn needs a cluster spawned with SpawnLocalData")
	}
	if i < 0 || i >= len(c.procs) {
		return fmt.Errorf("job: no spawned process %d (cluster spawned %d)", i, len(c.procs))
	}
	// Reap the corpse so the listen port frees up before the replacement
	// binds it.
	_ = c.procs[i].Process.Kill()
	_ = c.procs[i].Wait()
	cmd := osexec.Command(c.bin, c.respawnArgs[i]...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("job: respawn %s: %w", c.bin, err)
	}
	addr, err := scanSpawnAddr(stdout)
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return fmt.Errorf("job: respawned node %d: %w", i, err)
	}
	if addr != c.addrs[i] {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return fmt.Errorf("job: respawned node %d bound %s, want %s", i, addr, c.addrs[i])
	}
	c.procs[i] = cmd
	c.tr.MarkAlive(cluster.NodeID(i))
	return nil
}

// Respawnable reports whether RespawnProcess can revive this cluster's
// daemons (spawned with SpawnLocalData).
func (c *Cluster) Respawnable() bool {
	c.procMu.Lock()
	defer c.procMu.Unlock()
	return c.respawnArgs != nil
}

// Close shuts down the daemons (sending MsgQuit) and, for spawned
// children, reaps the processes.
func (c *Cluster) Close() {
	c.tr.Quit()
	for _, p := range c.procs {
		donech := make(chan struct{})
		go func(p *osexec.Cmd) {
			_ = p.Wait()
			close(donech)
		}(p)
		select {
		case <-donech:
		case <-time.After(5 * time.Second):
			_ = p.Process.Kill()
			<-donech
		}
	}
}

// ParsePeers splits a comma-separated peer list.
func ParsePeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
