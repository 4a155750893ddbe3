package cluster

// MsgKind discriminates transport messages.
type MsgKind uint8

const (
	// MsgData carries an encoded delta batch for one plan edge.
	MsgData MsgKind = iota
	// MsgPunct is an end-of-stratum punctuation marker (§4.2).
	MsgPunct
	// MsgVote carries a fixpoint operator's new-tuple count to the
	// requestor at the end of a stratum.
	MsgVote
	// MsgDecision is the requestor's verdict: advance or terminate.
	MsgDecision
	// MsgCheckpoint replicates Δᵢ-set state to ring replicas (§4.3).
	MsgCheckpoint
	// MsgFailure notifies the requestor that a node died.
	MsgFailure
	// MsgShutdown stops a node loop.
	MsgShutdown
	// MsgStart begins (or, after a failure, resumes) query execution on a
	// worker for a given epoch.
	MsgStart
	// MsgError reports a fatal operator error to the requestor; the error
	// text travels in the Table field.
	MsgError
	// MsgJob ships a serialized job description to a worker daemon: the
	// recipe from which the remote process rebuilds the catalog, plan,
	// and its data partition before the query starts (multi-process
	// execution only; in-process transports never see it).
	MsgJob
	// MsgJobReady acknowledges a MsgJob: the worker built its plan and
	// loaded its partition, and is ready for MsgStart.
	MsgJobReady
	// MsgKill tells a remote worker daemon the driver declared it dead
	// (failure injection over a real network).
	MsgKill
	// MsgRevive re-arms a remote worker after a MsgKill.
	MsgRevive
	// MsgStatsReq asks a worker daemon for its cumulative transport
	// counters.
	MsgStatsReq
	// MsgStats answers a MsgStatsReq; the counters travel in Payload.
	MsgStats
	// MsgQuit terminates a worker daemon process.
	MsgQuit
	// MsgAbort tells workers the requestor abandoned the current query
	// (cancellation or deadline): drop the per-query operator state so the
	// remaining in-flight frames of the epoch drain without processing.
	// Stores and checkpoints are untouched — the next query on the same
	// session starts clean.
	MsgAbort
	// MsgCancel is a local-only sentinel: it never crosses the wire.
	// Timed waits on the requestor mailbox inject it so their collector
	// goroutine unblocks and exits instead of consuming frames forever.
	MsgCancel
	// MsgIngest ships a base-table delta batch to a worker of a standing
	// query: Table names the base table, Payload is the encoded batch
	// (every delta routed to each ring owner of its partition key). The
	// worker applies the deltas to its store and buffers them; the next
	// MsgRound injects the buffered deltas into the resident dataflow.
	MsgIngest
	// MsgRound begins one incremental ingestion round on a resident
	// (standing-query) dataflow: the worker reopens its per-round
	// punctuation state, feeds the buffered ingest deltas through the base
	// scans' edges, and re-runs the fixpoint from current operator state.
	MsgRound
	// MsgRoundReq is a local-only sentinel (it never crosses the wire): a
	// subscriber's Ingest call injects it into the requestor mailbox to
	// hand the pending round request to the standing query's pump loop,
	// which is the mailbox's only reader.
	MsgRoundReq
	// MsgHello opens (and acknowledges) a client session on a rexd query
	// server connection: Payload carries a small JSON negotiation record
	// (see internal/srvproto). It is the mandatory first frame in each
	// direction.
	MsgHello
	// MsgQuery is a client request on a rexd server connection: Edge
	// carries the client-chosen request id and Payload a JSON request
	// record (op, RQL text, encoded arguments, options).
	MsgQuery
	// MsgRows answers a MsgQuery with result data: Edge echoes the
	// request id, Payload carries an encoded delta batch, Count the
	// ingestion round, Terminate marks a standing query's round boundary,
	// and Closed marks the request's final frame — its Table field then
	// carries a JSON trailer with run statistics.
	MsgRows
	// MsgErr fails a MsgQuery: Edge echoes the request id, Table carries
	// the message, and Count a sentinel error code (see internal/srvproto).
	MsgErr
	// MsgCreditAck acknowledges applied MsgIngest staging frames back to
	// the requestor: From is the acking worker, and the piggybacked credit
	// grant re-arms the requestor's staging window toward that worker
	// (Credits sized from the worker's measured drain rate). It is the
	// MsgIngest counterpart of the punctuation grants workers exchange on
	// the shuffle path, closing the one flow-control gap the control plane
	// had.
	MsgCreditAck
	// MsgCommit is the standing-query round-commit barrier. Driver → worker
	// (From=-1): the round in Stratum closed its fixpoint on every node —
	// apply the round's buffered base-table deltas to local storage and,
	// on a durable backend, fsync a commit mark. Worker → requestor: the
	// ack, echoing the round. Store mutation happens only here, so a node
	// that dies mid-round leaves its store exactly at the last committed
	// round — the invariant crash recovery rebuilds from.
	MsgCommit
)

// Message is one transport frame. Data frames carry the encoded batch in
// Payload; the decoded form is never shipped across nodes.
type Message struct {
	From    NodeID
	To      NodeID
	Edge    int // plan edge id for data/punct routing
	Stratum int
	Kind    MsgKind
	Payload []byte
	// Count is the tuple count for data frames or the vote count.
	Count int
	// Terminate is set on MsgDecision frames when the query is done.
	Terminate bool
	// Closed marks a punctuation as final: the sender will never produce
	// on this edge again (base-case data closes after stratum 0).
	Closed bool
	// Epoch identifies the execution attempt; after a failure the
	// requestor re-runs the query under a new epoch and workers drop
	// frames from stale epochs.
	Epoch int
	// Job identifies the job generation on multi-process transports:
	// every query run bumps it, and receivers drop frames from stale
	// generations (a socket can still carry a prior run's stragglers
	// when the next one starts). Always zero in-process.
	Job int
	// Table names the checkpoint target for MsgCheckpoint frames.
	Table string
	// CreditGrant marks the frame as carrying a flow-control window grant:
	// the punctuating worker (From) grants the addressed peer (To) a fresh
	// window of Credits data-frame sends back to it. Transports intercept
	// the grant on delivery and install it in their credit book; see
	// Transport.Credits.
	CreditGrant bool
	Credits     int
	// Priority is scheduling metadata on client-facing frames (MsgHello /
	// MsgQuery between a rex client and a rexd server): -1 low, 0 normal,
	// +1 high. Encoded only when nonzero (flag bit + varint, like credit
	// grants) so inter-worker data frames pay nothing for it. Workers
	// ignore it; the server's admission scheduler reads it off the frame
	// before the request payload is even parsed.
	Priority int
}

// Transport connects worker nodes and the query requestor. The executor is
// written against this interface only, so the same engine, operators, and
// recovery protocol run over the in-process mailbox fabric
// (InProcTransport) or real sockets (TCPTransport).
//
// Node -1 is the requestor everywhere: control frames from the requestor
// carry From=-1, and requestor-bound traffic travels via SendToRequestor.
type Transport interface {
	// N reports the worker count.
	N() int
	// LocalNodes lists the workers whose event loops run in this
	// process: all of them in-process, exactly one inside a worker
	// daemon, none on a TCP driver (its workers live in other
	// processes).
	LocalNodes() []NodeID
	// Metrics exposes the per-node transport counters. On multi-process
	// transports the driver's view of remote counters is refreshed by
	// SyncMetrics (see MetricsSyncer).
	Metrics() *Metrics
	// Inbox returns the mailbox of worker n. Only valid for local nodes.
	Inbox(n NodeID) *Mailbox
	// Requestor returns the requestor's mailbox (driver side only).
	Requestor() *Mailbox
	// Alive reports whether node n is currently alive.
	Alive(n NodeID) bool
	// AliveNodes lists currently alive nodes.
	AliveNodes() []NodeID
	// Kill marks node n dead, drops its traffic, and notifies the
	// requestor — the failure-injection path of §4.1/§4.3.
	Kill(n NodeID)
	// Revive restores a node so successive runs can reuse one cluster.
	Revive(n NodeID)
	// Send routes msg to its destination worker. Inter-node frames are
	// wire-encoded and their measured size accounted; loopback
	// self-sends skip the wire and the counters.
	Send(msg Message)
	// SendToRequestor delivers a control frame to the requestor.
	SendToRequestor(msg Message)
	// Broadcast sends msg to every alive worker (used for decisions).
	Broadcast(msg Message)
	// InboxLen reports the queue depth of worker n's mailbox where the
	// transport can observe it (0 for dead, remote, or out-of-range
	// nodes). It is a local observability hook only — a worker reads its
	// OWN depth to compute the credit windows it grants; senders gate on
	// Credits, never on a peer's InboxLen (which is unobservable over a
	// real network).
	InboxLen(n NodeID) int
	// Credits reports the flow-control window worker `from` currently
	// holds for shipping data frames to worker `to`: the number of sends
	// the receiver has granted (InitialCredits before any grant arrives).
	// Receivers piggyback grants on punctuation frames (Message.
	// CreditGrant) and every MsgStart/MsgRound resets all windows, so the
	// signal works identically in-process and across sockets.
	Credits(from, to NodeID) int
	// SpendCredits consumes n send credits from `from`'s window to `to`,
	// flooring at zero. Compacting senders spend one per shipped batch;
	// an exhausted window defers flushing (coalescing more) until the
	// next grant or the sender's hard overflow cap.
	SpendCredits(from, to NodeID, n int)
	// Close releases transport resources (sockets, listeners, mailboxes).
	Close() error
}

// MetricsSyncer is implemented by transports whose per-node counters live
// in other processes: SyncMetrics pulls the remote counters into the local
// Metrics so totals reflect measured wire traffic. The engine calls it
// after a successful run, before reading byte counts.
type MetricsSyncer interface {
	SyncMetrics() error
}
