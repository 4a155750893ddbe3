package server

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"

	rex "github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/job"
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
// The pools' tables are the served state; nothing else records it. A
// standing-query flow session created later (see srvSub) boots from a
// copy of those tables, captured when the flow registers.
type backend struct {
	cfg   Config
	pools []*rex.Session

	// mu serializes staging (creates, ingests) across the pools and makes
	// ingest fan-out atomic with flow registration, so a flow session
	// never misses or double-applies a batch.
	mu   sync.Mutex
	subs map[*srvSub]struct{}
}

// servedTable is one table as a pool serves it: its declaration and its
// current rows.
type servedTable struct {
	name   string
	schema *types.Schema
	key    int
	rows   []types.Tuple
}

// subTarget pairs a standing flow with the staged sequence number an
// ingest reply must await.
type subTarget struct {
	sub    *srvSub
	target int64
}

// newBackend boots the sub-pools.
func newBackend(ctx context.Context, cfg Config) (*backend, error) {
	b := &backend{cfg: cfg, subs: map[*srvSub]struct{}{}}
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

// createTable declares a table on every sub-pool.
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
	return nil
}

// ingest applies the batches to every sub-pool in one serialized order
// and stages them on every live standing flow — atomically, so a
// concurrently registering flow sees each batch exactly once (in its
// captured tables or its staging buffer, never both or neither). Returns
// the per-flow await targets.
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
	targets := make([]subTarget, 0, len(b.subs))
	for sub := range b.subs {
		if t := sub.stage(batches); t > 0 {
			targets = append(targets, subTarget{sub, t})
		}
	}
	return targets, nil
}

// register adds a standing flow to the ingest fan-out set and captures
// the tables its session must boot from. The two happen under one
// critical section — every ingest is either in the capture or will be
// staged on the flow, exactly one of the two. The capture reads sub-pool
// pool, the calling runner's own: runners are pinned one per pool, so
// nothing else queries it meanwhile.
func (b *backend) register(ctx context.Context, pool int, sub *srvSub) ([]servedTable, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.pools[pool]
	cat := p.Catalog()
	if cat == nil {
		// A TCP pool serves exactly its dataset's tables.
		cat = catalog.New()
		if b.cfg.Dataset != "" {
			if err := job.StageSchemas(cat, b.cfg.Dataset, b.cfg.Size); err != nil {
				return nil, err
			}
		}
	}
	var tables []servedTable
	for _, name := range cat.Tables() {
		tab, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		res, err := p.QueryCtx(ctx, "SELECT * FROM "+name)
		if err != nil {
			return nil, fmt.Errorf("server: capture %s: %w", name, err)
		}
		tables = append(tables, servedTable{name, tab.Schema, tab.PartitionKey, res.Tuples})
	}
	b.subs[sub] = struct{}{}
	return tables, nil
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
// captured tables are the exact served state, and a resident dataflow
// needs a session it can own.
func (b *backend) newFlowSession(ctx context.Context, tables []servedTable) (*rex.Session, error) {
	opts := []rex.Option{rex.WithInProc(b.cfg.Nodes)}
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
	for _, t := range tables {
		err := flow.CreateTable(t.name, t.schema, t.key)
		if err == nil {
			err = flow.Load(t.name, t.rows)
		}
		if err != nil {
			flow.Close()
			return nil, fmt.Errorf("server: flow load %s: %w", t.name, err)
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
