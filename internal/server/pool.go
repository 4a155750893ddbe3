package server

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"

	rex "github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// backend owns the server's engine sub-pools. A rex.Session executes one
// query at a time (its internal lock is the engine's admission order), so
// true intra-server concurrency comes from partitioning: K identically
// staged in-process sessions, each a full worker pool over the same
// deterministic data, let K independent queries run genuinely in
// parallel. Catalog declarations and ingests apply to every sub-pool in
// one serialized order, so any pool answers any query with the same
// result — the CI hash gates hold concurrent runs against sequential
// ones. With Peers the pool is a single TCP session (the daemons are the
// parallelism budget) and SubPools is forced to 1.
//
// The backend also keeps a replay log — catalog declarations plus the
// folded net effect of every ingest — so a standing-query flow session
// created later (see srvSub) boots to the exact current state: dataset
// staging re-derives the base data and the log replays the server-side
// mutations in their original order.
type backend struct {
	cfg   Config
	pools []*rex.Session

	// mu serializes staging (creates, ingests) across the pools and makes
	// ingest fan-out atomic with replay-log appends and flow registration,
	// so a flow session never misses or double-applies a batch.
	mu      sync.Mutex
	creates []createOp
	ingests map[string]*cluster.ChangeLog
	logOrd  []string
	subs    map[*srvSub]struct{}
}

// createOp is one recorded CreateTable declaration.
type createOp struct {
	name   string
	schema *types.Schema
	key    int
}

// subTarget pairs a standing flow with the staged sequence number an
// ingest reply must await.
type subTarget struct {
	sub    *srvSub
	target int64
}

// newBackend boots the sub-pools.
func newBackend(ctx context.Context, cfg Config) (*backend, error) {
	b := &backend{cfg: cfg, ingests: map[string]*cluster.ChangeLog{}, subs: map[*srvSub]struct{}{}}
	for i := 0; i < cfg.SubPools; i++ {
		var opts []rex.Option
		if len(cfg.Peers) > 0 {
			opts = append(opts, rex.WithTCPPeers(cfg.Peers...))
		} else {
			opts = append(opts, rex.WithInProc(cfg.Nodes))
		}
		if cfg.Dataset != "" {
			opts = append(opts, rex.WithDataset(cfg.Dataset, cfg.Size, cfg.Seed))
		}
		if cfg.Handlers != "" {
			opts = append(opts, rex.WithHandlers(cfg.Handlers))
		}
		if cfg.Replication > 0 {
			opts = append(opts, rex.WithReplication(cfg.Replication))
		}
		if cfg.DataDir != "" {
			// Every sub-pool pages under its own subdirectory — page files
			// are single-writer.
			opts = append(opts, rex.WithSpillDir(filepath.Join(cfg.DataDir, fmt.Sprintf("pool%d", i))))
		}
		if cfg.BufferPoolPages > 0 {
			opts = append(opts, rex.WithBufferPoolPages(cfg.BufferPoolPages))
		}
		sess, err := rex.Open(ctx, opts...)
		if err != nil {
			for _, p := range b.pools {
				p.Close()
			}
			return nil, fmt.Errorf("server: open sub-pool %d: %w", i, err)
		}
		b.pools = append(b.pools, sess)
	}
	return b, nil
}

// pool returns sub-pool i's session.
func (b *backend) pool(i int) *rex.Session { return b.pools[i] }

// size reports the sub-pool count.
func (b *backend) size() int { return len(b.pools) }

// catalogVersion reports the shared schema version (the pools advance in
// lockstep: identical staging at open, identical declaration order after).
func (b *backend) catalogVersion() int64 { return b.pools[0].CatalogVersion() }

// createTable declares a table on every sub-pool and records the op for
// flow replay.
func (b *backend) createTable(name string, schema *types.Schema, key int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, p := range b.pools {
		if err := p.CreateTable(name, schema, key); err != nil {
			if i > 0 {
				// Later pools can only fail on errors pool 0 also hits
				// (identical catalogs); a divergence here is a bug worth
				// surfacing loudly rather than serving from skewed pools.
				return fmt.Errorf("server: sub-pool %d diverged on create %s: %w", i, name, err)
			}
			return err
		}
	}
	b.creates = append(b.creates, createOp{name: name, schema: schema, key: key})
	return nil
}

// ingest applies the batches to every sub-pool in one serialized order,
// records them for flow replay, and stages them on every live standing
// flow — all atomically, so a concurrently registering flow sees each
// batch exactly once (in its replay snapshot or its staging buffer,
// never both or neither). Returns the per-flow await targets.
func (b *backend) ingest(batches map[string][]rex.Delta) ([]subTarget, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, p := range b.pools {
		if _, err := p.Ingests(batches); err != nil {
			if i > 0 {
				return nil, fmt.Errorf("server: sub-pool %d diverged on ingest: %w", i, err)
			}
			return nil, err
		}
	}
	for table, deltas := range batches {
		rl := b.ingests[table]
		if rl == nil {
			rl = cluster.NewChangeLog(b.partitionKeyLocked(table))
			b.ingests[table] = rl
			b.logOrd = append(b.logOrd, table)
		}
		rl.Append(deltas)
	}
	targets := make([]subTarget, 0, len(b.subs))
	for sub := range b.subs {
		if t := sub.stage(batches); t > 0 {
			targets = append(targets, subTarget{sub, t})
		}
	}
	return targets, nil
}

// partitionKeyLocked resolves a table's partition column for log folding
// (0 when unknown — folding stays correct, just groups less finely).
func (b *backend) partitionKeyLocked(table string) int {
	for _, op := range b.creates {
		if op.name == table {
			return op.key
		}
	}
	if cat := b.pools[0].Catalog(); cat != nil {
		if tab, err := cat.Table(table); err == nil {
			return tab.PartitionKey
		}
	}
	return 0
}

// replaySnapshot is the state a new flow session replays on top of its
// dataset staging.
type replaySnapshot struct {
	creates []createOp
	ingests []struct {
		table  string
		deltas []types.Delta
	}
}

// register adds a standing flow to the ingest fan-out set and returns
// the replay snapshot its session must boot from. The two happen under
// one critical section — every ingest is either in the snapshot or will
// be staged on the flow, exactly one of the two.
func (b *backend) register(sub *srvSub) replaySnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	var snap replaySnapshot
	snap.creates = append(snap.creates, b.creates...)
	for _, table := range b.logOrd {
		net := b.ingests[table].Net()
		if len(net) == 0 {
			continue
		}
		snap.ingests = append(snap.ingests, struct {
			table  string
			deltas []types.Delta
		}{table, append([]types.Delta(nil), net...)})
	}
	b.subs[sub] = struct{}{}
	return snap
}

// unregister removes a flow from the fan-out set.
func (b *backend) unregister(sub *srvSub) {
	b.mu.Lock()
	delete(b.subs, sub)
	b.mu.Unlock()
}

// flows reports the live standing-flow count.
func (b *backend) flows() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// newFlowSession boots a dedicated in-process session for one standing
// query — always in-process, even when the pools front TCP daemons: the
// deterministic dataset plus the replay snapshot reproduce the exact
// served state, and a resident dataflow needs a session it can own.
func (b *backend) newFlowSession(ctx context.Context, snap replaySnapshot) (*rex.Session, error) {
	opts := []rex.Option{rex.WithInProc(b.cfg.Nodes)}
	if b.cfg.Dataset != "" {
		opts = append(opts, rex.WithDataset(b.cfg.Dataset, b.cfg.Size, b.cfg.Seed))
	}
	if b.cfg.Handlers != "" {
		opts = append(opts, rex.WithHandlers(b.cfg.Handlers))
	}
	if b.cfg.Replication > 0 {
		opts = append(opts, rex.WithReplication(b.cfg.Replication))
	}
	flow, err := rex.Open(ctx, opts...)
	if err != nil {
		return nil, fmt.Errorf("server: open flow session: %w", err)
	}
	for _, op := range snap.creates {
		if err := flow.CreateTable(op.name, op.schema, op.key); err != nil {
			flow.Close()
			return nil, fmt.Errorf("server: flow replay create %s: %w", op.name, err)
		}
	}
	for _, ing := range snap.ingests {
		if err := flow.LoadDeltas(ing.table, ing.deltas); err != nil {
			flow.Close()
			return nil, fmt.Errorf("server: flow replay ingest %s: %w", ing.table, err)
		}
	}
	return flow, nil
}

// poolStats sums buffer-pool traffic across the sub-pools.
func (b *backend) poolStats() rex.PoolStats {
	var out rex.PoolStats
	for _, p := range b.pools {
		st, err := p.Stats(context.Background())
		if err != nil {
			continue // in-proc Stats never errors; guard anyway
		}
		ps := st.Pool
		out.Hits += ps.Hits
		out.Misses += ps.Misses
		out.Evictions += ps.Evictions
		out.BytesSpilled += ps.BytesSpilled
	}
	return out
}

// close tears every sub-pool down.
func (b *backend) close() error {
	var first error
	for _, p := range b.pools {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
