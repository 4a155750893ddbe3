package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCPTransport is the socket-backed Transport: workers are separate OS
// processes connected by real TCP links carrying PR 1's wire format in
// length-prefixed frames. One type serves both roles:
//
//   - Driver (NewTCPDriver): runs the query requestor. It dials each
//     worker daemon lazily and keeps the connections open for the whole
//     session; everything a worker writes back on those connections lands
//     in the requestor mailbox. The driver owns the alive-set — Kill and
//     Revive ship MsgKill/MsgRevive control frames to the daemons, so
//     failure injection works across process boundaries.
//
//   - Node (ListenTCPNode): runs inside a worker daemon. It accepts
//     connections from the driver and from peer workers, routes engine
//     frames to the local worker inbox, daemon control frames (MsgJob,
//     MsgStatsReq, MsgQuit, …) to the Control mailbox, and dials peers
//     directly for shuffle traffic. A node is unconfigured until the
//     first MsgJob arrives: Configure assigns its NodeID and peer list.
//
// Byte accounting matches InProcTransport semantics: only inter-worker
// frames count (loopback and requestor control-plane traffic do not), but
// here the counted size is what the socket actually carried — frame plus
// length prefix. Each process accumulates its own counters; the driver's
// SyncMetrics pulls them over at the end of a run.
//
// Frames from a previous run can still be in flight when the next one
// starts, so every frame carries a job generation; receivers drop frames
// from stale generations (decode hardening drops malformed frames and
// poisons their connection).
type TCPTransport struct {
	driver bool
	ln     net.Listener

	// credits is the flow-control book: a node installs the windows its
	// peers grant it (piggybacked on punctuation frames arriving off the
	// sockets) and its local worker spends them. The driver never ships
	// shuffle data, so its book stays at the defaults.
	credits creditBook

	mu        sync.Mutex
	self      NodeID // -1 on the driver and on unconfigured nodes
	addrs     []string
	n         int
	gen       int // current job generation
	metrics   *Metrics
	alive     []bool
	inbox     *Mailbox // node side: the local worker's inbox
	requestor *Mailbox // driver side
	control   *Mailbox // node side: daemon control queue
	conns     map[string]*tcpConn
	reqConn   *tcpConn // node side: the connection back to the driver
	closed    bool
}

var _ Transport = (*TCPTransport)(nil)
var _ MetricsSyncer = (*TCPTransport)(nil)

// tcpConn serializes writers on one outbound connection.
type tcpConn struct {
	mu sync.Mutex
	c  net.Conn
}

const (
	// tcpFrameHeader is the length prefix every frame travels behind.
	tcpFrameHeader = 4
	// tcpMaxFrame bounds a frame a receiver will buffer; a forged length
	// cannot make the decoder allocate unboundedly.
	tcpMaxFrame = 1 << 26 // 64 MiB
	// tcpDialTimeout bounds lazy connection establishment.
	tcpDialTimeout = 5 * time.Second
	// tcpSyncTimeout bounds a driver's wait for remote counters.
	tcpSyncTimeout = 15 * time.Second
)

// NewTCPDriver creates the requestor-side transport over the given worker
// daemon addresses (index = NodeID). Connections are dialed lazily on
// first send.
func NewTCPDriver(addrs []string) (*TCPTransport, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: tcp driver needs at least one worker address")
	}
	t := &TCPTransport{
		driver:    true,
		self:      -1,
		addrs:     append([]string(nil), addrs...),
		n:         len(addrs),
		metrics:   NewMetrics(len(addrs)),
		alive:     make([]bool, len(addrs)),
		requestor: NewMailbox(),
		conns:     map[string]*tcpConn{},
	}
	for i := range t.alive {
		t.alive[i] = true
	}
	return t, nil
}

// ListenTCPNode creates the worker-side transport, listening on addr
// (":0" picks a free port; see Addr). The node is unconfigured — it only
// routes daemon control frames — until Configure runs.
func ListenTCPNode(addr string) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &TCPTransport{
		self:    -1,
		ln:      ln,
		control: NewMailbox(),
		conns:   map[string]*tcpConn{},
	}
	go t.acceptLoop(ln)
	return t, nil
}

// Addr reports the node listener's bound address.
func (t *TCPTransport) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// Self reports this process's node id (-1 on the driver or before
// Configure).
func (t *TCPTransport) Self() NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.self
}

// Control returns the daemon control mailbox (node side): MsgJob,
// MsgKill, MsgRevive, MsgStatsReq, and MsgQuit land here.
func (t *TCPTransport) Control() *Mailbox { return t.control }

// Configure assigns the node its identity for a new job generation: its
// NodeID, the full peer address list, and the generation whose frames it
// should accept. Any previous inbox is closed (stopping a stale worker
// loop) and replaced. Counters persist across jobs when the cluster shape
// is unchanged, so SyncMetrics sees cumulative values.
func (t *TCPTransport) Configure(self NodeID, peers []string, gen int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.driver {
		return fmt.Errorf("cluster: Configure on a driver transport")
	}
	if self < 0 || int(self) >= len(peers) {
		return fmt.Errorf("cluster: node id %d out of range for %d peers", self, len(peers))
	}
	if t.metrics == nil || t.n != len(peers) {
		t.metrics = NewMetrics(len(peers))
	}
	t.self = self
	t.addrs = append([]string(nil), peers...)
	t.n = len(peers)
	t.gen = gen
	t.alive = make([]bool, t.n)
	for i := range t.alive {
		t.alive[i] = true
	}
	if t.inbox != nil {
		t.inbox.Close()
	}
	t.inbox = NewMailbox()
	t.credits.reset() // a new job starts with full send windows
	return nil
}

// Quiesce closes the node's current inbox without touching its identity
// or generation: the worker loop draining that inbox wakes up and exits,
// and anything it sends on the way out is still stamped with the OLD
// generation, so peers and the driver drop it as stale. Daemons call
// this (and join the loop) BEFORE Configure bumps the generation for the
// next job — Send stamps frames with the current generation at send
// time, so a loop joined only after the bump could sign its final
// stragglers (votes, flushed shuffle batches) with the new job's
// generation and poison the next run's mailboxes.
func (t *TCPTransport) Quiesce() {
	t.mu.Lock()
	inbox := t.inbox
	t.mu.Unlock()
	if inbox != nil {
		inbox.Close()
	}
}

// StartJob begins a new job generation on the driver: it revives its view
// of every node and ships a MsgJob carrying payload to each daemon. The
// per-node frame's To field tells each daemon its NodeID.
func (t *TCPTransport) StartJob(payload []byte) (gen int, err error) {
	t.mu.Lock()
	if !t.driver {
		t.mu.Unlock()
		return 0, fmt.Errorf("cluster: StartJob on a node transport")
	}
	t.gen++
	gen = t.gen
	for i := range t.alive {
		t.alive[i] = true
	}
	addrs := append([]string(nil), t.addrs...)
	t.mu.Unlock()
	// Clear debris of the previous generation (a cancelled run leaves
	// votes and result frames behind). The generation bump above makes
	// this race-free: stragglers arriving after the drain carry the old
	// generation and are dropped on receipt.
	t.requestor.Drain()
	for i, addr := range addrs {
		frame := EncodeFrame(Message{
			From: -1, To: NodeID(i), Kind: MsgJob, Payload: payload, Job: gen,
		})
		if werr := t.write(addr, frame); werr != nil {
			return gen, fmt.Errorf("cluster: job to node %d (%s): %w", i, addr, werr)
		}
	}
	return gen, nil
}

// Quit shuts down every worker daemon (even ones marked dead — a "dead"
// daemon is still a live process dropping frames) and closes the driver.
func (t *TCPTransport) Quit() {
	t.mu.Lock()
	driver := t.driver
	addrs := append([]string(nil), t.addrs...)
	gen := t.gen
	t.mu.Unlock()
	if driver {
		for i, addr := range addrs {
			_ = t.write(addr, EncodeFrame(Message{From: -1, To: NodeID(i), Kind: MsgQuit, Job: gen}))
		}
	}
	_ = t.Close()
}

// N reports the worker count (0 before a node is configured).
func (t *TCPTransport) N() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// LocalNodes lists the workers hosted by this process: none on the
// driver, the configured self on a node.
func (t *TCPTransport) LocalNodes() []NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.driver || t.self < 0 {
		return nil
	}
	return []NodeID{t.self}
}

// Metrics exposes this process's transport counters.
func (t *TCPTransport) Metrics() *Metrics {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.metrics == nil {
		t.metrics = NewMetrics(1)
	}
	return t.metrics
}

// Inbox returns the local worker's inbox; nil for non-local nodes.
func (t *TCPTransport) Inbox(n NodeID) *Mailbox {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.driver && n == t.self {
		return t.inbox
	}
	return nil
}

// Requestor returns the requestor mailbox (driver side; nil on nodes).
func (t *TCPTransport) Requestor() *Mailbox { return t.requestor }

// Alive reports liveness: the driver tracks every node; a node knows only
// itself authoritatively and assumes peers are alive (a dead peer's
// transport drops the frames on arrival, like a real network).
func (t *TCPTransport) Alive(n NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 0 || int(n) >= t.n {
		return false
	}
	if t.driver || n == t.self {
		return t.alive[n]
	}
	return true
}

// AliveNodes lists alive nodes as this process believes them.
func (t *TCPTransport) AliveNodes() []NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]NodeID, 0, t.n)
	for i := 0; i < t.n; i++ {
		if t.driver || NodeID(i) == t.self {
			if !t.alive[i] {
				continue
			}
		}
		out = append(out, NodeID(i))
	}
	return out
}

// Kill (driver only) marks node n dead, ships MsgKill so the remote
// daemon starts dropping traffic, and notifies the local requestor.
func (t *TCPTransport) Kill(n NodeID) {
	t.mu.Lock()
	if !t.driver || n < 0 || int(n) >= t.n || !t.alive[n] {
		t.mu.Unlock()
		return
	}
	t.alive[n] = false
	addr := t.addrs[n]
	gen := t.gen
	t.mu.Unlock()
	// Best effort: if the daemon is unreachable it is dead already.
	_ = t.write(addr, EncodeFrame(Message{From: -1, To: n, Kind: MsgKill, Job: gen}))
	t.requestor.Put(Message{From: n, Kind: MsgFailure, Job: gen})
}

// MarkAlive (driver only) restores the driver's view of a node WITHOUT
// shipping MsgRevive. It is the respawn counterpart of Revive: a daemon
// that died for real and was restarted restored its own job state at
// boot, so the simulated-death re-arm protocol does not apply — a
// MsgRevive would reach the restored daemon with its worker loop already
// running and deadlock its control loop waiting for the loop to exit.
func (t *TCPTransport) MarkAlive(n NodeID) {
	t.mu.Lock()
	if t.driver && n >= 0 && int(n) < t.n {
		t.alive[n] = true
	}
	t.mu.Unlock()
}

// Revive (driver only) restores a node and re-arms the remote daemon.
func (t *TCPTransport) Revive(n NodeID) {
	t.mu.Lock()
	if !t.driver || n < 0 || int(n) >= t.n || t.alive[n] {
		t.mu.Unlock()
		return
	}
	t.alive[n] = true
	addr := t.addrs[n]
	gen := t.gen
	t.mu.Unlock()
	_ = t.write(addr, EncodeFrame(Message{From: -1, To: n, Kind: MsgRevive, Job: gen}))
}

// Send routes msg to a worker. Loopback self-sends skip the socket and
// the counters; inter-worker frames are counted at their measured socket
// size (length prefix included). The driver drops frames to nodes it
// declared dead without dialing; workers cannot observe peer death, so
// they pay the bytes and the dead receiver drops the frame — exactly the
// in-process semantics.
func (t *TCPTransport) Send(msg Message) {
	t.mu.Lock()
	if t.closed || msg.To < 0 || int(msg.To) >= t.n {
		t.mu.Unlock()
		return
	}
	self := t.self
	selfAlive := t.driver || (self >= 0 && t.alive[self])
	aliveTo := !t.driver || t.alive[msg.To]
	inbox := t.inbox
	addr := t.addrs[msg.To]
	msg.Job = t.gen
	t.mu.Unlock()
	if !selfAlive {
		return // a dead node sends nothing
	}
	if !t.driver && msg.To == self {
		inbox.Put(msg) // loopback: no socket, no accounting
		return
	}
	if !aliveTo {
		return // driver control to a dead node: the network drops it
	}
	frame := EncodeFrame(msg)
	if msg.From >= 0 {
		sz := int64(len(frame) + tcpFrameHeader)
		t.metrics.BytesSent[msg.From].Add(sz)
		t.metrics.MessagesSent[msg.From].Add(1)
		t.metrics.TuplesSent[msg.From].Add(int64(msg.Count))
	} else if msg.Kind == MsgStart || msg.Kind == MsgRound {
		// The driver never receives its own barriers, so reset its book
		// (the requestor's MsgIngest staging windows) at send time — the
		// same barrier semantics the workers' books observe on delivery.
		t.credits.reset()
	}
	// A write error means the peer process is gone — the distributed
	// analogue of a dropped frame. The sender already paid the bytes;
	// the requestor learns about real failures via its own channels.
	_ = t.write(addr, frame)
}

// SendToRequestor delivers a control frame to the requestor: locally on
// the driver, over the stored driver connection on a node. Requestor
// traffic is control-plane and never counted.
func (t *TCPTransport) SendToRequestor(msg Message) {
	if t.driver {
		t.requestor.Put(msg)
		return
	}
	t.mu.Lock()
	rc := t.reqConn
	selfAlive := t.self >= 0 && t.alive[t.self]
	msg.Job = t.gen
	t.mu.Unlock()
	if rc == nil || !selfAlive {
		return
	}
	_ = writeConn(rc, EncodeFrame(msg))
}

// SendControl writes a daemon-level reply (stats, readiness, job errors)
// back to the driver regardless of the node's alive flag or configuration
// state: the daemon process must answer even while the simulated node is
// "dead", and must be able to report a job that failed before Configure
// ran. A Job generation already set on msg is preserved (pre-Configure
// error replies echo the failing job's generation — the local generation
// would be stale and the driver would drop the frame); otherwise the
// current generation is stamped.
func (t *TCPTransport) SendControl(msg Message) {
	t.mu.Lock()
	rc := t.reqConn
	if msg.Job == 0 {
		msg.Job = t.gen
	}
	t.mu.Unlock()
	if rc == nil {
		return
	}
	_ = writeConn(rc, EncodeFrame(msg))
}

// Broadcast sends msg to every alive worker.
func (t *TCPTransport) Broadcast(msg Message) {
	for _, n := range t.AliveNodes() {
		m := msg
		m.To = n
		t.Send(m)
	}
}

// InboxLen reports the local inbox depth; remote queue depths are not
// observable over a socket, which is exactly why senders gate on Credits
// instead — a worker only reads its OWN depth here, to size the windows
// it grants.
func (t *TCPTransport) InboxLen(n NodeID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.driver && n == t.self && t.inbox != nil && t.alive[n] {
		return t.inbox.Len()
	}
	return 0
}

// Credits reports the send window from `from` to `to`. On a node the
// windows are those its peers granted over the sockets; the driver never
// ships shuffle data and reports the defaults.
func (t *TCPTransport) Credits(from, to NodeID) int {
	return t.credits.credits(from, to)
}

// SpendCredits consumes send credits from `from`'s window to `to`.
func (t *TCPTransport) SpendCredits(from, to NodeID, n int) {
	t.credits.spend(from, to, n)
}

// Close tears down sockets and mailboxes. Worker daemons keep running —
// use Quit to also terminate them.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.conns
	t.conns = map[string]*tcpConn{}
	inbox, control, requestor := t.inbox, t.control, t.requestor
	ln := t.ln
	t.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, tc := range conns {
		_ = tc.c.Close()
	}
	if inbox != nil {
		inbox.Close()
	}
	if control != nil {
		control.Close()
	}
	if requestor != nil {
		requestor.Close()
	}
	return nil
}

// SyncMetrics (driver) asks every alive daemon for its cumulative
// counters and installs them locally, so Metrics totals reflect measured
// remote socket traffic. Counters of nodes dead at sync time keep their
// last synced values. A polled node that dies during the sync is no
// longer waited for, and its failure frame goes back to the requestor
// mailbox for the next round to recover from.
func (t *TCPTransport) SyncMetrics() error {
	alive := t.AliveNodes()
	for _, n := range alive {
		t.Send(Message{From: -1, To: n, Kind: MsgStatsReq})
	}
	wanted := map[NodeID]bool{}
	for _, n := range alive {
		wanted[n] = true
	}
	done := make(chan error, 1)
	go func() {
		got := map[NodeID]bool{}
		var failures []Message
		finish := func(err error) {
			for _, m := range failures {
				t.requestor.Put(m)
			}
			done <- err
		}
		for len(got) < len(wanted) {
			msg, ok := t.requestor.Get()
			if !ok {
				finish(fmt.Errorf("cluster: transport closed during metrics sync"))
				return
			}
			switch msg.Kind {
			case MsgCancel:
				finish(fmt.Errorf("cluster: metrics sync timed out after %v", tcpSyncTimeout))
				return
			case MsgFailure:
				failures = append(failures, msg)
				if !got[msg.From] {
					delete(wanted, msg.From)
				}
				continue
			case MsgStats:
			default:
				continue // late control debris from the finished run
			}
			if err := t.applyStats(msg.From, msg.Payload); err != nil {
				finish(err)
				return
			}
			if wanted[msg.From] {
				// Count only the nodes polled this round: a dead node's
				// final pushed stats frame must not satisfy the quorum in
				// place of a live node's reply.
				got[msg.From] = true
			}
		}
		finish(nil)
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(tcpSyncTimeout):
		// Unblock the collector with the local cancel sentinel so it
		// cannot linger and steal a later run's requestor frames.
		t.requestor.Put(Message{Kind: MsgCancel})
		return <-done
	}
}

// StatsPayload encodes this node's cumulative counters for MsgStats.
func (t *TCPTransport) StatsPayload() []byte {
	t.mu.Lock()
	m, self := t.metrics, t.self
	t.mu.Unlock()
	if m == nil || self < 0 {
		return nil
	}
	var buf []byte
	for _, c := range []int64{
		m.BytesSent[self].Load(), m.BytesReceived[self].Load(),
		m.MessagesSent[self].Load(), m.TuplesSent[self].Load(),
		m.CompactIn[self].Load(), m.CompactOut[self].Load(),
	} {
		buf = binary.AppendVarint(buf, c)
	}
	return buf
}

// applyStats installs a node's reported counters into the driver metrics.
func (t *TCPTransport) applyStats(n NodeID, payload []byte) error {
	if n < 0 || int(n) >= t.n {
		return fmt.Errorf("cluster: stats from unknown node %d", n)
	}
	vals := make([]int64, 6)
	off := 0
	for i := range vals {
		v, used := binary.Varint(payload[off:])
		if used <= 0 {
			return fmt.Errorf("cluster: malformed stats payload from node %d", n)
		}
		vals[i] = v
		off += used
	}
	m := t.Metrics()
	m.BytesSent[n].Store(vals[0])
	m.BytesReceived[n].Store(vals[1])
	m.MessagesSent[n].Store(vals[2])
	m.TuplesSent[n].Store(vals[3])
	m.CompactIn[n].Store(vals[4])
	m.CompactOut[n].Store(vals[5])
	return nil
}

// acceptLoop admits inbound connections (driver and peer workers alike).
func (t *TCPTransport) acceptLoop(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		go t.readLoop(nc, &tcpConn{c: nc}, "")
	}
}

// readLoop decodes frames off one connection and routes them. A frame
// that fails length or decode validation poisons the connection: framing
// is byte-exact, so garbage means the stream can never resynchronize.
// addr, when non-empty, names the worker daemon this (outbound) connection
// reaches: a driver treats its loss as the node's death.
func (t *TCPTransport) readLoop(nc net.Conn, tc *tcpConn, addr string) {
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 64<<10)
	for {
		frame, err := readFrame(br)
		if err != nil {
			break
		}
		msg, err := DecodeFrame(frame)
		if err != nil {
			break
		}
		t.deliver(msg, len(frame), tc)
	}
	if addr != "" {
		t.nodeDown(addr)
	}
}

// nodeDown is the driver's broken-connection failure signal: when the
// socket to a worker daemon drops (read EOF or write error) the process
// behind it is gone, which is a real node death — not the driver-declared
// MsgKill kind. The node is marked dead and the requestor notified, so a
// query in flight errors out (RecoveryNone) or recovers on the survivors
// instead of waiting forever for votes that will never come.
func (t *TCPTransport) nodeDown(addr string) {
	t.mu.Lock()
	if !t.driver || t.closed {
		t.mu.Unlock()
		return
	}
	n := NodeID(-1)
	for i, a := range t.addrs {
		if a == addr {
			n = NodeID(i)
			break
		}
	}
	if n < 0 || !t.alive[n] {
		t.mu.Unlock()
		return
	}
	t.alive[n] = false
	gen := t.gen
	t.mu.Unlock()
	t.requestor.Put(Message{From: n, Kind: MsgFailure, Job: gen})
}

// deliver routes one received frame by role and kind.
func (t *TCPTransport) deliver(msg Message, frameLen int, via *tcpConn) {
	if t.driver {
		t.mu.Lock()
		stale := msg.Job != t.gen
		t.mu.Unlock()
		if stale {
			return
		}
		if msg.Kind == MsgStats {
			// Install counters on arrival, not only inside SyncMetrics: a
			// daemon killed mid-run pushes a final stats frame with no
			// collector waiting, and applying it here is what folds the
			// dead node's traffic into the driver totals.
			_ = t.applyStats(msg.From, msg.Payload)
		}
		// Flow-control side effects on the driver side: a worker's
		// MsgCreditAck grant re-arms the requestor's MsgIngest staging
		// window toward it.
		t.credits.observe(msg)
		t.requestor.Put(msg)
		return
	}
	t.mu.Lock()
	if msg.From == -1 {
		// Any driver frame refreshes the return path for requestor
		// traffic (a reconnecting driver supersedes the old one).
		t.reqConn = via
	}
	switch msg.Kind {
	case MsgJob, MsgStatsReq, MsgQuit:
		t.mu.Unlock()
		t.control.Put(msg)
	case MsgKill:
		var inbox *Mailbox
		if t.self >= 0 && t.alive[t.self] {
			t.alive[t.self] = false
			inbox = t.inbox
		}
		t.mu.Unlock()
		if inbox != nil {
			inbox.Close()
		}
		t.control.Put(msg)
	case MsgRevive:
		if t.self >= 0 && !t.alive[t.self] {
			t.alive[t.self] = true
			t.inbox = NewMailbox()
		}
		t.mu.Unlock()
		t.control.Put(msg)
	default:
		if t.self < 0 || msg.Job != t.gen || !t.alive[t.self] {
			t.mu.Unlock()
			return // unconfigured, stale generation, or dead: drop
		}
		inbox, self := t.inbox, t.self
		t.mu.Unlock()
		if msg.From >= 0 && msg.From != self {
			t.metrics.BytesReceived[self].Add(int64(frameLen + tcpFrameHeader))
		}
		// Flow-control side effects: peer punctuation installs the send
		// window it grants this node; MsgStart/MsgRound reset all windows.
		t.credits.observe(msg)
		inbox.Put(msg)
	}
}

// conn returns (dialing if needed) the shared outbound connection to addr.
func (t *TCPTransport) conn(addr string) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("cluster: transport closed")
	}
	if tc := t.conns[addr]; tc != nil {
		t.mu.Unlock()
		return tc, nil
	}
	t.mu.Unlock()
	nc, err := net.DialTimeout("tcp", addr, tcpDialTimeout)
	if err != nil {
		return nil, err
	}
	tc := &tcpConn{c: nc}
	t.mu.Lock()
	if exist := t.conns[addr]; exist != nil {
		t.mu.Unlock()
		_ = nc.Close()
		return exist, nil
	}
	if t.closed {
		t.mu.Unlock()
		_ = nc.Close()
		return nil, fmt.Errorf("cluster: transport closed")
	}
	t.conns[addr] = tc
	t.mu.Unlock()
	// Responses can flow back on the same connection (the driver never
	// listens; workers answer on whatever link the frame arrived on). On
	// the driver the connection's loss doubles as the node-death signal.
	downAddr := ""
	if t.driver {
		downAddr = addr
	}
	go t.readLoop(nc, tc, downAddr)
	return tc, nil
}

// write frames and ships one encoded message to addr. A failed write on a
// cached connection is retried exactly once on a fresh dial: after a
// daemon is respawned on the same address, every process that talked to
// its predecessor still holds a dead cached connection, and without the
// retry the first frame to the new process — a recovery MsgStart, a
// shuffle batch — would be silently lost. If the fresh dial (or its
// write) also fails, the process behind the address is really gone.
func (t *TCPTransport) write(addr string, frame []byte) error {
	tc, err := t.conn(addr)
	if err != nil {
		// No connection was ever established, so no read loop exists to
		// observe the death: a driver must report it here or a daemon that
		// died before the first dial would hang the requestor forever.
		t.nodeDown(addr)
		return err
	}
	werr := writeConn(tc, frame)
	if werr == nil {
		return nil
	}
	t.dropConn(addr, tc)
	if tc, err = t.conn(addr); err != nil {
		t.nodeDown(addr)
		return err
	}
	if werr = writeConn(tc, frame); werr != nil {
		t.dropConn(addr, tc)
		// The fresh connection's read loop reports the death.
		return werr
	}
	return nil
}

// dropConn closes a broken connection and evicts it from the dial cache
// (unless a newer connection already replaced it).
func (t *TCPTransport) dropConn(addr string, tc *tcpConn) {
	_ = tc.c.Close()
	t.mu.Lock()
	if t.conns[addr] == tc {
		delete(t.conns, addr)
	}
	t.mu.Unlock()
}

// writeConn writes one length-prefixed frame under the connection lock.
func writeConn(tc *tcpConn, frame []byte) error {
	buf := make([]byte, tcpFrameHeader+len(frame))
	binary.BigEndian.PutUint32(buf, uint32(len(frame)))
	copy(buf[tcpFrameHeader:], frame)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	_, err := tc.c.Write(buf)
	return err
}

// readFrame reads one length-prefixed frame, rejecting absurd lengths
// before allocating.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [tcpFrameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > tcpMaxFrame {
		return nil, fmt.Errorf("cluster: tcp frame length %d out of range", n)
	}
	return ReadBody(r, int(n))
}

// bodyChunk is the buffer a frame body is first read into.
const bodyChunk = 64 << 10

// ReadBody reads the n-byte body of a length-prefixed frame. A body of at
// most 64 KiB takes one allocation; a longer one is read into a buffer
// that, once full, grows to four times the bytes received (or to n, if
// smaller). A large frame so takes few steps, and a forged length makes
// the reader allocate no more than a small multiple of what the peer
// actually sent.
func ReadBody(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, bodyChunk))
	got := 0
	for {
		m, err := io.ReadFull(r, buf[got:])
		got += m
		if err == io.EOF && got > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if got == n {
			return buf, nil
		}
		next := make([]byte, min(n, 4*got))
		copy(next, buf)
		buf = next
	}
}
