package exec

import (
	"fmt"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// rehashOp re-partitions a delta stream across worker nodes by key hash
// (§3.2: "a physical level operator called rehash that is responsible for
// shipping state from one node to another by key"). The send side (port 0)
// accumulates deltas per destination in one columnar cluster.DeltaStore
// and every flush ships a columnar wire frame; the receive side (port 1)
// is fed by the worker loop from the transport and aligns punctuation
// from all alive senders before forwarding downstream (§4.2).
//
// With Options.Compaction on, the stores fold same-key deltas in place
// before encoding (see cluster.DeltaStore), and flushes follow two rules.
// While a window has folded nothing, a full store flushes under
// credit-based flow control: every shipped batch spends one credit from
// the sender's window to that destination, and a flush with an exhausted
// window is deferred instead of flooding a backlogged peer. Once a window
// has folded something the stream repeats keys, so the store keeps folding
// until the hard cap. Receivers size the credit windows from their own
// inbox depth and piggyback the grants on the punctuation frames they
// already send every stratum, so the same signal works in-process and
// across sockets (where a peer's queue depth is unobservable). Punctuation
// always flushes.
//
// OpBroadcast is the same operator with every batch delivered to every
// node (used when one side of a computation — e.g. K-means centroids —
// must be visible cluster-wide).
type rehashOp struct {
	spec *OpSpec
	ctx  *Context
	outs outputs

	broadcast bool
	stores    map[cluster.NodeID]*cluster.DeltaStore
	scratch   types.Tuple // reused by multi-column HashKeyAt calls

	// receive-side punctuation alignment
	punctCount  map[int]int
	closedCount map[int]int
	nSenders    int
}

// compactionOverflow bounds how long a compacting store stays open: once
// it holds this many batches' worth of rows it flushes regardless of
// folding or the destination's credit window.
const compactionOverflow = 8

func newRehashOp(spec *OpSpec, ctx *Context, broadcast bool) *rehashOp {
	return &rehashOp{
		spec:        spec,
		ctx:         ctx,
		broadcast:   broadcast,
		stores:      map[cluster.NodeID]*cluster.DeltaStore{},
		punctCount:  map[int]int{},
		closedCount: map[int]int{},
		nSenders:    len(ctx.Snap.AliveNodes()),
	}
}

// Push routes or delivers a batch. Send side: rows are routed by key hash
// computed straight off the typed vectors (no boxing) and copied lane to
// lane into the per-destination stores. Receive side: the batch passes
// downstream as-is.
func (r *rehashOp) Push(port int, b *types.DeltaBatch) error {
	switch port {
	case 0:
		return r.routeBatch(b)
	case 1:
		return r.outs.sendBatch(b)
	default:
		return fmt.Errorf("exec: rehash port %d out of range", port)
	}
}

func (r *rehashOp) routeBatch(b *types.DeltaBatch) error {
	if cap(r.scratch) < b.NumCols() {
		r.scratch = make(types.Tuple, 0, b.NumCols())
	}
	for i := 0; i < b.Len(); i++ {
		if r.broadcast {
			h := b.HashAt(i)
			for _, n := range r.ctx.Snap.AliveNodes() {
				if err := r.enqueueRow(n, b, i, h); err != nil {
					return err
				}
			}
			continue
		}
		h := b.HashKeyAt(i, r.spec.HashKey, r.scratch)
		dest, err := r.ctx.Snap.Primary(h)
		if err != nil {
			return err
		}
		if b.Op(i) == types.OpReplace && b.HasOld() {
			oh := b.OldHashKeyAt(i, r.spec.HashKey, r.scratch)
			oldDest, err := r.ctx.Snap.Primary(oh)
			if err != nil {
				return err
			}
			if oldDest != dest {
				// Cross-partition replace: split into a deletion at the
				// old home and an insertion at the new one. The scratch
				// rows are copied value-wise by the store, never retained.
				r.scratch = b.OldRow(i, r.scratch)
				if err := r.enqueue(oldDest, types.Delete(r.scratch), oh); err != nil {
					return err
				}
				r.scratch = b.Row(i, r.scratch)
				if err := r.enqueue(dest, types.Insert(r.scratch), h); err != nil {
					return err
				}
				continue
			}
		}
		if err := r.enqueueRow(dest, b, i, h); err != nil {
			return err
		}
	}
	return nil
}

func (r *rehashOp) store(dest cluster.NodeID) *cluster.DeltaStore {
	st := r.stores[dest]
	if st == nil {
		st = cluster.NewDeltaStore(r.spec.HashKey, r.spec.CompactMerge, r.ctx.Compaction)
		r.stores[dest] = st
	}
	return st
}

// enqueueRow appends row i of src (routing hash h) to dest's store,
// flushing first when the row's arity diverges from the pending rows'.
func (r *rehashOp) enqueueRow(dest cluster.NodeID, src *types.DeltaBatch, i int, h uint64) error {
	st := r.store(dest)
	before := st.Len()
	if !st.AppendRowFrom(src, i, h) {
		if err := r.flush(dest); err != nil {
			return err
		}
		before = 0
		st.AppendRowFrom(src, i, h)
	}
	return r.appended(dest, st, before)
}

// enqueue is enqueueRow for a row-form delta (the halves of a split
// cross-partition replace).
func (r *rehashOp) enqueue(dest cluster.NodeID, d types.Delta, h uint64) error {
	st := r.store(dest)
	before := st.Len()
	if !st.Append(d, h) {
		if err := r.flush(dest); err != nil {
			return err
		}
		before = 0
		st.Append(d, h)
	}
	return r.appended(dest, st, before)
}

// appended applies the flush rule after an append. Only an append that
// grew the store crosses a batch boundary, so a folding stream (and a
// store deferred above BatchSize) does not probe the credit book — whose
// mutex every sender shares — once per delta.
func (r *rehashOp) appended(dest cluster.NodeID, st *cluster.DeltaStore, before int) error {
	n := st.Len()
	if n == before || n%r.ctx.BatchSize != 0 {
		return nil
	}
	if r.ctx.Compaction && !r.shouldFlush(dest, st) {
		return nil
	}
	return r.flush(dest)
}

// shouldFlush is the compacting sender's rule at a batch boundary: the
// hard cap always flushes; below it a window that is folding stays open,
// and one that is not flushes while the sender still holds send credits
// for the destination (loopback needs none).
func (r *rehashOp) shouldFlush(dest cluster.NodeID, st *cluster.DeltaStore) bool {
	if st.Len() >= r.ctx.BatchSize*compactionOverflow {
		return true
	}
	if st.Folded() {
		return false
	}
	return dest == r.ctx.Node || r.ctx.Transport.Credits(r.ctx.Node, dest) > 0
}

// flush ships dest's pending deltas. Loopback hands the batch straight
// downstream; remote destinations encode the columnar wire format into a
// pooled payload buffer (returned to the pool once Send has copied it into
// the frame). The store and its index are kept for the next window.
func (r *rehashOp) flush(dest cluster.NodeID) error {
	st := r.stores[dest]
	if st == nil || st.Pending() == 0 {
		return nil
	}
	b := st.Drain()
	defer st.Reset()
	if r.ctx.Compaction {
		m := r.ctx.Transport.Metrics()
		m.CompactIn[r.ctx.Node].Add(int64(st.Pending()))
		m.CompactOut[r.ctx.Node].Add(int64(b.Len()))
	}
	if b.Len() == 0 {
		return nil
	}
	if dest == r.ctx.Node {
		return r.outs.sendBatch(b)
	}
	if r.ctx.Compaction {
		// Every shipped batch spends one credit from this sender's window
		// to the destination (a cap-forced flush may overdraw to zero).
		// Only compacting senders gate on credits, so the plain path
		// skips the book entirely.
		r.ctx.Transport.SpendCredits(r.ctx.Node, dest, 1)
	}
	buf := cluster.GetPayloadBuf()
	payload := cluster.EncodeDeltaBatch(buf, b)
	r.ctx.Transport.Send(cluster.Message{
		From: r.ctx.Node, To: dest, Edge: edgeID(r.spec.ID, 1),
		Stratum: r.ctx.Stratum, Kind: cluster.MsgData,
		Payload: payload, Count: b.Len(), Epoch: r.ctx.Epoch,
	})
	cluster.PutPayloadBuf(payload)
	return nil
}

func (r *rehashOp) flushAll() error {
	for dest := range r.stores {
		if err := r.flush(dest); err != nil {
			return err
		}
	}
	return nil
}

func (r *rehashOp) Punct(port, stratum int, closed bool) error {
	switch port {
	case 0:
		// Local upstream finished the stratum: flush everything, then tell
		// every peer (and ourselves) so receivers can align. When
		// compaction is on — the only mode whose senders consult credits —
		// each outgoing punctuation piggybacks a grant sized from this
		// node's OWN inbox depth: a drained inbox re-arms the peer's full
		// window, a backlogged one shrinks it toward zero, and the peer's
		// sender defers flushes (coalescing more) until the window
		// refreshes.
		if err := r.flushAll(); err != nil {
			return err
		}
		grant := 0
		if r.ctx.Compaction {
			// Adaptive window: size the grant from this node's measured
			// drain rate (how many batches it expects to absorb over the
			// next horizon), falling back to the static high-water constant
			// until the meter has a sample, then subtract the backlog
			// already sitting in the inbox.
			window := r.ctx.CompactionHighWater
			if r.ctx.Drain != nil {
				window = r.ctx.Drain.Window(r.ctx.BatchSize, r.ctx.CompactionHighWater)
			}
			grant = window - r.ctx.Transport.InboxLen(r.ctx.Node)
			if grant < 0 {
				grant = 0
			}
		}
		for _, n := range r.ctx.Snap.AliveNodes() {
			if n == r.ctx.Node {
				if err := r.Punct(1, stratum, closed); err != nil {
					return err
				}
				continue
			}
			r.ctx.Transport.Send(cluster.Message{
				From: r.ctx.Node, To: n,
				Edge: edgeID(r.spec.ID, 1), Kind: cluster.MsgPunct,
				Stratum: stratum, Closed: closed, Epoch: r.ctx.Epoch,
				CreditGrant: r.ctx.Compaction, Credits: grant,
			})
		}
		return nil
	case 1:
		r.punctCount[stratum]++
		if closed {
			r.closedCount[stratum]++
		}
		if r.punctCount[stratum] < r.nSenders {
			return nil
		}
		allClosed := r.closedCount[stratum] == r.nSenders
		delete(r.punctCount, stratum)
		delete(r.closedCount, stratum)
		return r.outs.punct(stratum, allClosed)
	default:
		return fmt.Errorf("exec: rehash punct port %d out of range", port)
	}
}

func (r *rehashOp) Reset() {
	for _, st := range r.stores {
		st.Release()
	}
	r.stores = map[cluster.NodeID]*cluster.DeltaStore{}
	r.punctCount = map[int]int{}
	r.closedCount = map[int]int{}
	r.nSenders = len(r.ctx.Snap.AliveNodes())
}
