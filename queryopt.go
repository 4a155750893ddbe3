package rex

// Per-query priority levels for the rexd admission scheduler. Normal is
// the zero value, so queries that never mention priority schedule as
// they always did.
const (
	PriorityLow    = -1
	PriorityNormal = 0
	PriorityHigh   = 1
)

// QueryOption tunes one query execution, stream, or subscription. The
// variadic form is the canonical way to pass per-query knobs:
//
//	res, err := s.QueryCtx(ctx, src, rex.WithTenant("acme"), rex.WithPriority(rex.PriorityHigh))
//
// Options compose left to right; WithOptions bridges from an Options
// struct. Prepare accepts the same set as statement defaults.
type QueryOption func(*Options)

// WithPriority sets the query's scheduling priority (PriorityLow,
// PriorityNormal, PriorityHigh). On a server session the rexd scheduler
// drains higher priorities first within each tenant's lane; on direct
// sessions the engine executes immediately and the value is inert.
func WithPriority(p int) QueryOption {
	return func(o *Options) { o.Priority = p }
}

// WithTenant tags the query with a tenant id for the rexd server's
// per-tenant admission quotas and fair scheduling. It overrides the
// session-level default (see the WithServerTenant Open option); quota
// exhaustion surfaces as ErrTenantBusy.
func WithTenant(id string) QueryOption {
	return func(o *Options) { o.Tenant = id }
}

// WithNoVectorize builds this query's expression kernels
// interpreter-only: every expression runs through the interpreter row by
// row, the reference compiled kernels are tested against. Results are
// identical. It is kept as that reference until
// benchmark/fixpoint_batch.go, its last benchmark caller, stops using it
// (ROADMAP item 15g).
func WithNoVectorize() QueryOption {
	return func(o *Options) { o.NoVectorize = true }
}

// WithBatchSize sets the transport batching granularity (default 1024).
func WithBatchSize(n int) QueryOption {
	return func(o *Options) { o.BatchSize = n }
}

// WithMaxStrata caps the query's recursion depth.
func WithMaxStrata(n int) QueryOption {
	return func(o *Options) { o.MaxStrata = n }
}

// Deprecated: WithCompaction does nothing. Every shuffle edge of a
// recursive plan folds same-key deltas before the wire, and no other
// edge does.
func WithCompaction(highWater int) QueryOption {
	return func(*Options) {}
}

// WithCheckpoint enables per-stratum Δᵢ replication (required for
// incremental recovery).
func WithCheckpoint() QueryOption {
	return func(o *Options) { o.Checkpoint = true }
}

// WithRecovery selects the failure-handling strategy for direct
// sessions (server sessions reject it — the server owns recovery).
func WithRecovery(strategy RecoveryStrategy) QueryOption {
	return func(o *Options) { o.Recovery = strategy }
}

// WithOptions overlays a full Options struct — the bridge for callers
// holding pre-built option state, and the only way to set the driver-side
// hooks (TermFn, OnStratum, Recover). Fields set by earlier QueryOptions
// are replaced wholesale.
func WithOptions(opts Options) QueryOption {
	return func(o *Options) { *o = opts }
}

// buildOptions folds a QueryOption list into an Options value.
func buildOptions(qopts []QueryOption) Options {
	var o Options
	for _, q := range qopts {
		if q != nil {
			q(&o)
		}
	}
	return o
}
