package exec

import (
	"fmt"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// rehashOp re-partitions a delta stream across worker nodes by key hash
// (§3.2: "a physical level operator called rehash that is responsible for
// shipping state from one node to another by key"). The send side (port 0)
// routes a batch at a time: it hashes every row's routing key in one typed
// loop per key column (DeltaBatch.HashKeys), finds each row's destination
// with a table read (Snapshot.Primary over Ring.SegmentOf's top-bits
// table), and hands each destination its rows as one selection. Rows
// accumulate per destination in one columnar cluster.DeltaStore, and
// every flush ships a columnar wire frame; the receive side (port 1) is
// fed by the worker loop from the transport and aligns punctuation from
// all alive senders before forwarding downstream (§4.2).
//
// Where the plan decided the edge folds (OpSpec.Fold: every shuffle of a
// recursive plan), the stores fold same-key deltas in place before
// encoding (see cluster.DeltaStore); a δ() delta that merges into its
// key's pending δ() row folds straight from the source batch's lanes
// without being copied. Flushes follow two rules.
// While a window has folded nothing, a full store flushes under
// credit-based flow control: every shipped batch spends one credit from
// the sender's window to that destination, and a flush with an exhausted
// window is deferred instead of flooding a backlogged peer. Once a window
// has folded something the stream repeats keys, so the store keeps folding
// until the hard cap. Receivers size the credit windows from their own
// inbox depth and piggyback the grants on the punctuation frames they
// already send every stratum, so the same signal works in-process and
// across sockets (where a peer's queue depth is unobservable). Punctuation
// always flushes. An edge that only appends flushes every full batch and
// never consults credits.
//
// OpBroadcast is the same operator with every batch delivered to every
// node (used when one side of a computation — e.g. K-means centroids —
// must be visible cluster-wide).
type rehashOp struct {
	spec *OpSpec
	ctx  *Context
	outs outputs

	broadcast bool
	stores    []*cluster.DeltaStore // per destination, indexed by NodeID

	// Scratch for routing one batch: every row's routing hash (and
	// old-image hash), and per destination the rows bound there.
	hashes, oldHashes []uint64
	sels              [][]int32

	// receive-side punctuation alignment
	punctCount  map[int]int
	closedCount map[int]int
	nSenders    int
}

// compactionOverflow bounds how long a folding store stays open: once
// it holds this many batches' worth of rows it flushes regardless of
// folding or the destination's credit window.
const compactionOverflow = 8

func newRehashOp(spec *OpSpec, ctx *Context, broadcast bool) *rehashOp {
	nodes := len(ctx.Snap.Ring().Nodes())
	return &rehashOp{
		spec:        spec,
		ctx:         ctx,
		broadcast:   broadcast,
		stores:      make([]*cluster.DeltaStore, nodes),
		sels:        make([][]int32, nodes),
		punctCount:  map[int]int{},
		closedCount: map[int]int{},
		nSenders:    len(ctx.Snap.AliveNodes()),
	}
}

// Push routes or delivers a batch. Send side: the batch's routing hashes
// are computed a column at a time straight off the typed vectors (no
// boxing), and each destination's rows go to its store as one selection.
// Receive side: the batch passes downstream as-is.
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

// routeBatch hands every destination its rows in batch order. Each
// destination sees the same sequence of rows, and so folds and flushes at
// the same points, as if the rows arrived one at a time.
func (r *rehashOp) routeBatch(b *types.DeltaBatch) error {
	for n := range r.sels {
		r.sels[n] = r.sels[n][:0] // rows an earlier batch left behind when it failed
	}
	if b.Len() == 0 {
		return nil
	}
	if r.broadcast {
		r.hashes = b.HashRows(r.hashes)
		for _, n := range r.ctx.Snap.AliveNodes() {
			for i := range b.Len() {
				r.sels[n] = append(r.sels[n], int32(i))
			}
		}
		return r.enqueueSels(b)
	}
	r.hashes = b.HashKeys(r.spec.HashKey, r.hashes)
	var old []uint64
	if b.HasOld() {
		r.oldHashes = b.OldHashKeys(r.spec.HashKey, r.oldHashes)
		old = r.oldHashes
	}
	for i, h := range r.hashes {
		dest, err := r.ctx.Snap.Primary(h)
		if err != nil {
			return err
		}
		if old != nil && b.Op(i) == types.OpReplace {
			oldDest, err := r.ctx.Snap.Primary(old[i])
			if err != nil {
				return err
			}
			if oldDest != dest {
				// Cross-partition replace: split into a deletion at the
				// old home and an insertion at the new one, behind the
				// rows routed so far.
				if err := r.enqueueSels(b); err != nil {
					return err
				}
				d := b.Delta(i)
				if err := r.enqueue(oldDest, types.Delete(d.Old), old[i]); err != nil {
					return err
				}
				if err := r.enqueue(dest, types.Insert(d.Tup), h); err != nil {
					return err
				}
				continue
			}
		}
		r.sels[dest] = append(r.sels[dest], int32(i))
	}
	return r.enqueueSels(b)
}

// enqueueSels appends every destination's selected rows of src to its
// store, in node order, and empties the selections.
func (r *rehashOp) enqueueSels(src *types.DeltaBatch) error {
	for n, sel := range r.sels {
		if len(sel) == 0 {
			continue
		}
		r.sels[n] = sel[:0]
		if err := r.enqueueRows(cluster.NodeID(n), src, sel); err != nil {
			return err
		}
	}
	return nil
}

func (r *rehashOp) store(dest cluster.NodeID) *cluster.DeltaStore {
	st := r.stores[dest]
	if st == nil {
		st = cluster.NewDeltaStore(r.spec.HashKey, r.spec.CompactMerge, r.spec.Fold)
		r.stores[dest] = st
	}
	return st
}

// enqueueRows appends the rows sel of src to dest's store, applying the
// flush rule wherever the store stops: at a batch boundary, or before a
// row whose arity diverges from the pending rows' (flush, then retry).
func (r *rehashOp) enqueueRows(dest cluster.NodeID, src *types.DeltaBatch, sel []int32) error {
	st := r.store(dest)
	for len(sel) > 0 {
		n, full := st.AppendRows(src, sel, r.hashes, r.ctx.BatchSize)
		sel = sel[n:]
		var err error
		switch {
		case full:
			err = r.atBoundary(dest, st)
		case len(sel) > 0:
			err = r.flush(dest)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// enqueue is enqueueRows for a row-form delta (the halves of a split
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
	if n := st.Len(); n == before || n%r.ctx.BatchSize != 0 {
		return nil
	}
	return r.atBoundary(dest, st)
}

// atBoundary applies the flush rule once an append has grown the store to
// a multiple of BatchSize. Only such an append crosses a batch boundary,
// so a folding stream (and a store deferred above BatchSize) does not
// probe the credit book — whose mutex every sender shares — once per
// delta.
func (r *rehashOp) atBoundary(dest cluster.NodeID, st *cluster.DeltaStore) error {
	if r.spec.Fold && !r.shouldFlush(dest, st) {
		return nil
	}
	return r.flush(dest)
}

// shouldFlush is the folding sender's rule at a batch boundary: the
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
	if r.spec.Fold {
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
	if r.spec.Fold {
		// Every shipped batch spends one credit from this sender's window
		// to the destination (a cap-forced flush may overdraw to zero).
		// Only folding senders gate on credits, so an appending edge
		// skips the book entirely.
		r.ctx.Transport.SpendCredits(r.ctx.Node, dest, 1)
	}
	buf := cluster.GetPayloadBuf()
	*buf = cluster.EncodeDeltaBatch(*buf, b)
	r.ctx.Transport.Send(cluster.Message{
		From: r.ctx.Node, To: dest, Edge: edgeID(r.spec.ID, 1),
		Stratum: r.ctx.Stratum, Kind: cluster.MsgData,
		Payload: *buf, Count: b.Len(), Epoch: r.ctx.Epoch,
	})
	cluster.PutPayloadBuf(buf)
	return nil
}

// flushAll flushes every destination, in node order.
func (r *rehashOp) flushAll() error {
	for dest := range r.stores {
		if err := r.flush(cluster.NodeID(dest)); err != nil {
			return err
		}
	}
	return nil
}

func (r *rehashOp) Punct(port, stratum int, closed bool) error {
	switch port {
	case 0:
		// Local upstream finished the stratum: flush everything, then tell
		// every peer (and ourselves) so receivers can align. On a folding
		// edge — the only kind whose senders consult credits — each
		// outgoing punctuation piggybacks a grant sized from this
		// node's OWN inbox depth: a drained inbox re-arms the peer's full
		// window, a backlogged one shrinks it toward zero, and the peer's
		// sender defers flushes (coalescing more) until the window
		// refreshes.
		if err := r.flushAll(); err != nil {
			return err
		}
		grant := 0
		if r.spec.Fold {
			// Adaptive window: size the grant from this node's measured
			// drain rate (how many batches it expects to absorb over the
			// next horizon), falling back to defaultHighWater until the
			// meter has a sample, then subtract the backlog already
			// sitting in the inbox.
			window := defaultHighWater
			if r.ctx.Drain != nil {
				window = r.ctx.Drain.Window(r.ctx.BatchSize, defaultHighWater)
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
				CreditGrant: r.spec.Fold, Credits: grant,
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
	for n, st := range r.stores {
		if st != nil {
			st.Release()
			r.stores[n] = nil
		}
	}
	r.punctCount = map[int]int{}
	r.closedCount = map[int]int{}
	r.nSenders = len(r.ctx.Snap.AliveNodes())
}
