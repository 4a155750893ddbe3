package cluster

import (
	"fmt"
	"sync"
)

// InProcTransport is the in-process Transport backend: every worker is an
// event loop on a goroutine and links are mailboxes. It models the paper's
// batched TCP links: data is encoded once at send time, byte counts
// accumulate per node, and frames to dead nodes vanish (the network drops
// them; the requestor learns of the death separately). All cross-node data
// still passes through the binary codec, so the bandwidth experiments
// measure real serialized bytes.
type InProcTransport struct {
	n         int
	inboxes   []*Mailbox
	requestor *Mailbox
	metrics   *Metrics
	credits   creditBook

	mu    sync.Mutex
	alive []bool
}

var _ Transport = (*InProcTransport)(nil)

// NewInProcTransport creates an in-process transport for n worker nodes
// plus one requestor.
func NewInProcTransport(n int) *InProcTransport {
	t := &InProcTransport{
		n:         n,
		inboxes:   make([]*Mailbox, n),
		requestor: NewMailbox(),
		metrics:   NewMetrics(n),
		alive:     make([]bool, n),
	}
	for i := range t.inboxes {
		t.inboxes[i] = NewMailbox()
		t.alive[i] = true
	}
	return t
}

// N reports the worker count.
func (t *InProcTransport) N() int { return t.n }

// LocalNodes lists every worker: in-process, all event loops share this
// process.
func (t *InProcTransport) LocalNodes() []NodeID {
	out := make([]NodeID, t.n)
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// Metrics exposes the transport counters.
func (t *InProcTransport) Metrics() *Metrics { return t.metrics }

// Inbox returns the mailbox of worker n.
func (t *InProcTransport) Inbox(n NodeID) *Mailbox { return t.inboxes[n] }

// Requestor returns the requestor's mailbox.
func (t *InProcTransport) Requestor() *Mailbox { return t.requestor }

// Alive reports whether node n is currently alive.
func (t *InProcTransport) Alive(n NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.alive[n]
}

// AliveNodes lists currently alive nodes.
func (t *InProcTransport) AliveNodes() []NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]NodeID, 0, t.n)
	for i, a := range t.alive {
		if a {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Kill marks node n dead, drops its queued traffic, and notifies the
// requestor — the failure-detection path of §4.1/§4.3.
func (t *InProcTransport) Kill(n NodeID) {
	t.mu.Lock()
	wasAlive := t.alive[n]
	t.alive[n] = false
	t.mu.Unlock()
	if !wasAlive {
		return
	}
	t.inboxes[n].Close()
	t.requestor.Put(Message{From: n, Kind: MsgFailure})
}

// Revive restores a node (fresh mailbox) so successive experiment runs can
// reuse one cluster.
func (t *InProcTransport) Revive(n NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.alive[n] {
		return
	}
	t.alive[n] = true
	t.inboxes[n] = NewMailbox()
}

// Send routes msg to its destination worker over the simulated link:
// inter-node frames are wire-encoded, their frame size accounted, then
// decoded on the receiving side — what arrives is what survived
// serialization, and BytesSent is the measured wire volume. Frames to dead
// nodes are dropped. Self-sends are delivered (loopback, never encoded)
// and not counted as network traffic; requestor traffic (From=-1) is
// control-plane and also skips the wire.
func (t *InProcTransport) Send(msg Message) {
	if msg.To < 0 || int(msg.To) >= t.n {
		return
	}
	t.mu.Lock()
	aliveTo := t.alive[msg.To]
	aliveFrom := msg.From < 0 || t.alive[msg.From] // requestor is From=-1
	inbox := t.inboxes[msg.To]
	t.mu.Unlock()
	if !aliveFrom {
		return // a dead node sends nothing
	}
	if msg.From != msg.To && msg.From >= 0 {
		frame := EncodeFrame(msg)
		sz := int64(len(frame))
		t.metrics.BytesSent[msg.From].Add(sz)
		t.metrics.MessagesSent[msg.From].Add(1)
		t.metrics.TuplesSent[msg.From].Add(int64(msg.Count))
		if !aliveTo {
			return // dropped on the floor: the sender still paid the bytes
		}
		t.metrics.BytesReceived[msg.To].Add(sz)
		decoded, err := DecodeFrame(frame)
		if err != nil {
			// A frame that fails to round-trip is a codec bug, not a
			// runtime condition; fail loudly rather than deliver garbage.
			panic(fmt.Sprintf("cluster: wire frame round-trip: %v", err))
		}
		msg = decoded
	}
	if !aliveTo {
		return
	}
	// Flow-control side effects apply at delivery, exactly where a TCP
	// node would observe them coming off its socket: punctuation grants
	// install send windows, start/round barriers reset them.
	t.credits.observe(msg)
	inbox.Put(msg)
}

// InboxLen reports the queue depth of worker n's mailbox (0 for dead or
// out-of-range nodes). Folding senders use it as the backpressure
// high-water signal: rather than flooding a backlogged peer they hold
// deltas back for further coalescing.
func (t *InProcTransport) InboxLen(n NodeID) int {
	if n < 0 || int(n) >= t.n {
		return 0
	}
	t.mu.Lock()
	alive := t.alive[n]
	inbox := t.inboxes[n]
	t.mu.Unlock()
	if !alive {
		return 0
	}
	return inbox.Len()
}

// Credits reports the send window from worker `from` to worker `to`; see
// Transport.Credits. Grants are installed as punctuation frames pass the
// simulated links, so the in-process fabric exercises the same machinery
// the socket backend relies on.
func (t *InProcTransport) Credits(from, to NodeID) int {
	return t.credits.credits(from, to)
}

// SpendCredits consumes send credits from `from`'s window to `to`.
func (t *InProcTransport) SpendCredits(from, to NodeID, n int) {
	t.credits.spend(from, to, n)
}

// SendToRequestor delivers a control frame to the requestor. Requestor
// deliveries observe the credit book the same way worker deliveries do,
// so a worker's MsgCreditAck grant re-arms the standing-query pump's
// staging window toward it.
func (t *InProcTransport) SendToRequestor(msg Message) {
	t.mu.Lock()
	aliveFrom := msg.From < 0 || t.alive[msg.From]
	t.mu.Unlock()
	if !aliveFrom {
		return
	}
	t.credits.observe(msg)
	t.requestor.Put(msg)
}

// Broadcast sends msg to every alive worker (used for decisions).
func (t *InProcTransport) Broadcast(msg Message) {
	for _, n := range t.AliveNodes() {
		m := msg
		m.To = n
		t.Send(m)
	}
}

// CloseAll closes every mailbox; used at query teardown.
func (t *InProcTransport) CloseAll() {
	for _, in := range t.inboxes {
		in.Close()
	}
	t.requestor.Close()
}

// Close implements Transport.
func (t *InProcTransport) Close() error {
	t.CloseAll()
	return nil
}
