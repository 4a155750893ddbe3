package rex

import (
	"context"

	"github.com/rex-data/rex/internal/exec"
)

// KernelStats snapshots the expression-kernel counters: kernels compiled
// at operator instantiation, batches evaluated column-wise, batches
// bridged row-by-row through scratch tuples, and batches a compiled
// kernel declined back to the row interpreter.
type KernelStats = exec.KernelStats

// Stats is the unified session snapshot: buffer pool, wire bytes, kernel
// counters, the rexd server's counters, and the live subscription's
// rounds in one call. Fields that do not apply to the session's transport
// are zero — an in-process session has no Server block, a server
// session's pool counters live inside it.
type Stats struct {
	// Transport names the session's backend: "inproc", "tcp", or
	// "server". Nodes is the worker count (the server pool's size on a
	// server session).
	Transport string
	Nodes     int
	// Pool aggregates buffer-pool traffic across an in-process session's
	// paged stores (WithSpillDir); all-zero otherwise. A rexd server's
	// pool counters are inside Server.
	Pool PoolStats
	// BytesShipped is the measured inter-worker wire volume (zero on a
	// server session — the server's pool does the shipping).
	BytesShipped int64
	// Kernel is the process-wide expression-kernel counter snapshot for
	// local (inproc/tcp) sessions. On a server session the server's own
	// kernel counters travel inside Server instead.
	Kernel KernelStats
	// Server is the rexd server's counter snapshot on server sessions —
	// admission, plan cache, scheduler (sub-pools, inflight, queue
	// depth), and the per-tenant quota counters. Nil otherwise.
	Server *ServerStats
	// SubscriptionRounds is the live subscription's round history as
	// Subscription.Rounds returns it: round 0 and the latest 1 023
	// rounds. Nil when no subscription is live.
	SubscriptionRounds []RoundStats
}

// Stats reports the session's unified statistics snapshot. On a server
// session it round-trips to the server for the scheduler and plan-cache
// counters; elsewhere it assembles locally and the error is always nil.
func (s *Session) Stats(ctx context.Context) (*Stats, error) {
	st := &Stats{Nodes: s.Nodes(), BytesShipped: s.BytesShipped()}
	if err := s.be.stats(ctx, st); err != nil {
		return nil, err
	}
	if sub := s.liveSub(); sub != nil {
		st.SubscriptionRounds = sub.Rounds()
	}
	return st, nil
}
