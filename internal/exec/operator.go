package exec

import (
	"fmt"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/storage"
	"github.com/rex-data/rex/internal/types"
)

// Operator is a push-based physical operator instance on one worker node.
// Operators run on the node's single event-loop goroutine, so they are
// free of locks.
type Operator interface {
	// Push processes a batch of deltas arriving on the given input port.
	// The batch is borrowed for the duration of the call: an operator must
	// not retain it or any slice derived from it (decoded batches alias
	// transport frame buffers, built ones return to a pool). Anything kept
	// past the call is materialized via Delta/Deltas/Value, which yield
	// fresh tuples, or copied into a uda.TupleSet.
	Push(port int, b *types.DeltaBatch) error
	// Punct signals the end of the current stratum on the given port.
	// closed marks the port's final punctuation: no data will ever arrive
	// on it again (base-case inputs close after stratum 0).
	Punct(port, stratum int, closed bool) error
}

// starter is implemented by source operators that produce data when the
// query (or a recovery re-run) starts.
type starter interface {
	Start() error
}

// resetter clears operator state for a recovery re-run.
type resetter interface {
	Reset()
}

// roundReopener is implemented by operators whose punctuation trackers
// treat "closed" as final. A standing query reopens them at the start of
// every ingestion round: base edges close again each round, while all
// accumulated operator state (join buckets, aggregate groups, the fixpoint
// relation) stays resident — that is what makes the re-run incremental.
type roundReopener interface {
	ReopenRound()
}

// checkpointer is implemented by stateful operators participating in
// incremental recovery (§4.3): after every stratum the worker collects the
// state entries dirtied during that stratum and replicates them; on
// recovery, the takeover node restores them in stratum order.
type checkpointer interface {
	// DirtyState drains the entries changed in the current stratum. Each
	// entry is a tuple whose first field is the int64 partition-key hash
	// used for replica placement; the rest is operator-specific.
	DirtyState() []types.Tuple
	// Restore applies checkpointed entries; strata[i] holds the entries
	// of stratum i, applied in ascending order. Entries arrive from peers
	// and from the checkpoint log on disk, so a malformed one is an error.
	Restore(strata [][]types.Tuple) error
}

// entrySpan returns the n fields of checkpoint entry e starting at pos,
// or false when the entry does not hold them.
func entrySpan(e types.Tuple, pos int, n int64) (types.Tuple, bool) {
	if pos > len(e) || n < 0 || n > int64(len(e)-pos) {
		return nil, false
	}
	return e[pos : pos+int(n)], true
}

// Context carries the per-node runtime a worker exposes to its operators.
type Context struct {
	Node      cluster.NodeID
	Snap      *cluster.Snapshot
	Transport cluster.Transport
	Store     storage.Backend
	Catalog   *catalog.Catalog
	QueryID   string
	Epoch     int
	// BatchSize is the rehash message batching granularity (§4.1:
	// "query processing passes batched messages").
	BatchSize int
	// Stratum is the stratum currently executing on this node.
	Stratum int
	// Drain is this node's delta drain-rate meter; credit grants are sized
	// from it (Drain.Window) instead of the static defaultHighWater.
	Drain *cluster.DrainMeter
}

// output is a wired edge to a consumer within the same node.
type output struct {
	op   Operator
	port int
}

// outputs is the fan-out of one operator to its local consumers.
type outputs []output

// send is the row adapter for operators whose logic is per-row (group-by
// flushes, TVF output, the fixpoint's final relation, ingest injection;
// delta handlers write through a uda.Emitter instead): the rows are packed into a pooled batch and pushed through
// sendBatch. Rows of differing arity go out as consecutive batches, one
// per types.UniformRun, so ragged output keeps its order. The rows are
// copied, so the caller may reuse the slice once send returns.
func (o outputs) send(rows []types.Delta) error {
	if len(rows) == 0 || len(o) == 0 {
		return nil
	}
	b := types.GetBatch()
	defer types.PutBatch(b)
	for len(rows) > 0 {
		n := types.UniformRun(rows)
		for _, d := range rows[:n] {
			b.Append(d)
		}
		if err := o.sendBatch(b); err != nil {
			return err
		}
		b.Reset()
		rows = rows[n:]
	}
	return nil
}

// sendBatch pushes a batch to every consumer. The batch is borrowed:
// consumers must not retain it past their call.
func (o outputs) sendBatch(b *types.DeltaBatch) error {
	if b == nil || b.Len() == 0 {
		return nil
	}
	for _, out := range o {
		if err := out.op.Push(out.port, b); err != nil {
			return err
		}
	}
	return nil
}

// rowChunk is how many rows eachRow materializes at a time: it bounds
// the operator's reused row buffer.
const rowChunk = 1024

// rowBuf is an operator's handler rows: eachRow's reused deltas and the
// values their tuples are slices of.
type rowBuf struct {
	rows []types.Delta
	vals []types.Value
}

// eachRow calls fn on every row of b, with its index, materialized
// rowChunk rows at a time (AppendDeltas) into buf. The rows are borrowed:
// the []Value behind d.Tup and d.Old is valid only during fn's call, so a
// handler that keeps a tuple copies it (TupleSet and Emitter copy what
// they store). The values themselves are fresh and stay valid. buf is
// detached while fn runs, so a re-entrant push cannot overwrite it. Under
// the pooldebug tag each row's slots are scribbled once fn returns.
func eachRow(b *types.DeltaBatch, buf *rowBuf, fn func(int, types.Delta) error) error {
	for lo := 0; lo < b.Len(); lo += rowChunk {
		rows, vals := b.AppendDeltas(buf.rows[:0], buf.vals, lo, min(lo+rowChunk, b.Len()))
		*buf = rowBuf{}
		var err error
		for k, d := range rows {
			if err = fn(lo+k, d); err != nil {
				break
			}
			types.PoisonValues(d.Tup)
			types.PoisonValues(d.Old)
		}
		clear(vals) // each value pins its column's lane copy
		*buf = rowBuf{rows: rows[:0], vals: vals[:0]}
		if err != nil {
			return err
		}
	}
	return nil
}

// punct forwards punctuation to every consumer.
func (o outputs) punct(stratum int, closed bool) error {
	for _, out := range o {
		if err := out.op.Punct(out.port, stratum, closed); err != nil {
			return err
		}
	}
	return nil
}

// portTracker aligns punctuation across an operator's input ports: an
// n-ary operator forwards punctuation only once every open port has seen
// the current stratum's marker (§4.2: "n-ary operators such as a join or
// rehash wait until all inputs have received appropriate punctuation").
type portTracker struct {
	punctAt []int // last punctuated stratum per port, -1 initially
	closed  []bool
}

func newPortTracker(n int) *portTracker {
	t := &portTracker{punctAt: make([]int, n), closed: make([]bool, n)}
	for i := range t.punctAt {
		t.punctAt[i] = -1
	}
	return t
}

// mark records punctuation and reports whether the stratum is complete on
// all ports.
func (t *portTracker) mark(port, stratum int, closed bool) (bool, error) {
	if port < 0 || port >= len(t.punctAt) {
		return false, fmt.Errorf("exec: punct on invalid port %d", port)
	}
	if t.closed[port] {
		return false, fmt.Errorf("exec: punct on closed port %d", port)
	}
	t.punctAt[port] = stratum
	if closed {
		t.closed[port] = true
	}
	return t.aligned(stratum), nil
}

// aligned reports whether all ports are punctuated at stratum or closed.
func (t *portTracker) aligned(stratum int) bool {
	for i := range t.punctAt {
		if t.closed[i] {
			continue
		}
		if t.punctAt[i] < stratum {
			return false
		}
	}
	return true
}

// allClosed reports whether every port is closed.
func (t *portTracker) allClosed() bool {
	for _, c := range t.closed {
		if !c {
			return false
		}
	}
	return true
}

func (t *portTracker) reset() {
	for i := range t.punctAt {
		t.punctAt[i] = -1
		t.closed[i] = false
	}
}

// reopen clears the closed flags while keeping the per-port stratum
// watermarks: a standing query's ingestion round re-punctuates base edges
// (closing them again for the round) at strata past every previous one, so
// watermarks must survive the reopen for alignment to stay monotonic.
func (t *portTracker) reopen() {
	for i := range t.closed {
		t.closed[i] = false
	}
}
