package exec

import (
	"fmt"
	"time"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/storage"
	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// Worker is one node's query-execution event loop. All operator calls run
// on the Loop goroutine, so operator state is single-threaded by
// construction. The engine spawns one per local node; a worker daemon
// (cmd/rexnode) builds one per job over its TCP transport.
type Worker struct {
	node        cluster.NodeID
	transport   cluster.Transport
	store       storage.Backend
	durable     storage.Durable // non-nil when store survives process death
	ckpt        *storage.CheckpointStore
	cat         *catalog.Catalog
	ring        *cluster.Ring
	spec        *PlanSpec
	queryID     string
	batchSize   int
	checkpoints bool
	stream      bool
	// kernels compiles expression kernels for filter, project, group-by
	// and pre-aggregation; off (Options.NoVectorize) every expression runs
	// through the interpreter, the reference the kernels are tested
	// against.
	kernels bool

	// drain meters this worker's delta-application rate between
	// punctuation marks; credit grants (shuffle punctuation and MsgIngest
	// acks) are sized from it.
	drain *cluster.DrainMeter

	// per-epoch state, rebuilt on MsgStart
	ctx      *Context
	ops      map[int]Operator
	scans    []*scanOp
	baseScan map[int]bool
	fixpoint *fixpointOp
	ckptOps  map[int]checkpointer
	epoch    int

	// early buffers peer frames (data, punctuation, checkpoint replicas)
	// that arrive ahead of this worker's MsgStart for their epoch. The
	// requestor's MsgStart and a peer's first stratum frames travel on
	// different links (different sockets over TCP, different goroutines
	// in-process), so nothing orders them: a fast peer can finish its
	// stratum before a slow one has even dequeued MsgStart. Dropping the
	// early arrivals loses punctuation, the stratum barrier never
	// completes, and the whole query hangs — so they are held here and
	// replayed by handleStart once the epoch's operators exist. aborted
	// marks the current epoch abandoned by MsgAbort, whose debris must
	// drain (not buffer) until the next MsgStart.
	early   []cluster.Message
	aborted bool

	// standing-query round state: lastStratum is the highest stratum this
	// worker has started (strata grow monotonically across ingestion
	// rounds so punctuation alignment stays ordered), and ingest buffers
	// base-table deltas received via MsgIngest until the next MsgRound
	// injects them into the resident dataflow.
	lastStratum int
	ingest      map[string][]types.Delta

	// pending buffers the same staged deltas for local storage: stores
	// mutate only at the MsgCommit barrier, after the round's fixpoint
	// closed on every node, so a crash mid-round leaves every surviving
	// store exactly at its last committed round. appliedRound is the
	// watermark of the last round committed here; recovery re-stages an
	// interrupted round to everyone, and nodes that already committed it
	// skip the replayed frames by this watermark.
	pending      []pendingIngest
	appliedRound int
}

// pendingIngest is one staged MsgIngest frame awaiting the round's commit
// barrier, in arrival order.
type pendingIngest struct {
	table  string
	keyCol int
	deltas []types.Delta
}

// WorkerConfig assembles a Worker. Plan, transport, and storage must
// already agree on the cluster shape (node count, ring parameters).
type WorkerConfig struct {
	Node        cluster.NodeID
	Transport   cluster.Transport
	Store       storage.Backend
	Checkpoints *storage.CheckpointStore
	Catalog     *catalog.Catalog
	Ring        *cluster.Ring
	Plan        *PlanSpec
	QueryID     string
	Options     Options
}

// NewWorker builds a worker over the given runtime, normalizing option
// defaults the same way Engine.start does.
func NewWorker(cfg WorkerConfig) *Worker {
	opts := cfg.Options
	if opts.BatchSize <= 0 {
		opts.BatchSize = defaultBatchSize
	}
	var durable storage.Durable
	if d, ok := cfg.Store.(storage.Durable); ok {
		durable = d
	}
	applied := 0
	if durable != nil {
		// A worker built over a recovered store resumes at its durable
		// watermark, so re-staged frames for rounds already committed here
		// are skipped rather than applied twice.
		if cr := durable.CommittedRound(); cr > 0 {
			applied = int(cr)
		}
	}
	return &Worker{
		node: cfg.Node, transport: cfg.Transport, store: cfg.Store,
		durable: durable, appliedRound: applied,
		ckpt: cfg.Checkpoints, cat: cfg.Catalog, ring: cfg.Ring,
		spec: cfg.Plan, queryID: cfg.QueryID, batchSize: opts.BatchSize,
		checkpoints: opts.Checkpoint, stream: opts.Stream, kernels: !opts.NoVectorize,
		drain: &cluster.DrainMeter{},
	}
}

// Loop processes the worker's inbox until shutdown or mailbox close. It
// returns true on an orderly shutdown and false when the node was killed
// (its mailbox closed under it) — a daemon uses the distinction to decide
// whether to respawn the loop on revival.
func (w *Worker) Loop() bool {
	inbox := w.transport.Inbox(w.node)
	if inbox == nil {
		return false
	}
	for {
		msg, ok := inbox.Get()
		if !ok {
			return false // killed: mailbox closed
		}
		if err := w.handle(msg); err != nil {
			w.transport.SendToRequestor(cluster.Message{
				From: w.node, Kind: cluster.MsgError,
				Table: err.Error(), Epoch: w.epoch,
			})
		}
		if msg.Kind == cluster.MsgShutdown {
			return true
		}
	}
}

// Committed reports whether the worker committed an ingestion round, so
// its store may have moved past the state it was built over (a node that
// held no deltas for the round still advanced its durable watermark).
// Read it only after Loop has returned.
func (w *Worker) Committed() bool { return w.appliedRound > 0 }

// DropQuery discards this worker's checkpoints for its query; daemons
// call it at job teardown (the engine does the equivalent for local
// workers).
func (w *Worker) DropQuery() {
	if w.ckpt != nil {
		w.ckpt.Drop(w.queryID)
	}
}

func (w *Worker) handle(msg cluster.Message) error {
	switch msg.Kind {
	case cluster.MsgShutdown:
		return nil
	case cluster.MsgAbort:
		// The requestor abandoned the query (cancellation/deadline): drop
		// the per-query operator state so the epoch's remaining in-flight
		// frames drain without processing. Base-table stores and the
		// checkpoint store are untouched; the next MsgStart rebuilds.
		w.ops = nil
		w.scans = nil
		w.baseScan = nil
		w.fixpoint = nil
		w.ckptOps = nil
		// Uncommitted staged deltas die with the round: an abort during
		// recovery must leave the store at its last committed round, and
		// re-staging after MsgStart rebuilds both buffers.
		w.pending = nil
		w.ingest = nil
		// The abandoned query's remaining frames must drain unprocessed,
		// including any held for an epoch that will now never start.
		w.early = nil
		w.aborted = true
		return nil
	case cluster.MsgStart:
		return w.handleStart(msg)
	case cluster.MsgCheckpoint:
		// Checkpoint debris from a cancelled run must not be stored under
		// the next query's ID; early replicas are held like data frames.
		if w.triage(msg) {
			return nil
		}
		return w.handleCheckpoint(msg)
	case cluster.MsgData:
		if w.triage(msg) {
			return nil // early: held for replay; stale: dropped
		}
		op, port := splitEdge(msg.Edge)
		inst, ok := w.ops[op]
		if !ok {
			return fmt.Errorf("exec: node %d: data for unknown op %d", w.node, op)
		}
		// Columnar frames stay columnar all the way into the operator:
		// decode checks the frame and aliases column payloads out of the
		// frame buffer, and values materialize only where an operator
		// actually touches them.
		_, cb, err := cluster.DecodeDeltasAny(msg.Payload)
		if err != nil {
			return err
		}
		w.drain.Observe(cb.Len())
		return inst.Push(port, cb)
	case cluster.MsgPunct:
		if w.triage(msg) {
			return nil
		}
		op, port := splitEdge(msg.Edge)
		inst, ok := w.ops[op]
		if !ok {
			return fmt.Errorf("exec: node %d: punct for unknown op %d", w.node, op)
		}
		// Punctuation is the drain meter's clock tick: fold the deltas
		// applied since the last marker into the EWMA rate.
		w.drain.Mark(time.Now())
		return inst.Punct(port, msg.Stratum, msg.Closed)
	case cluster.MsgDecision:
		if msg.Epoch != w.epoch || w.fixpoint == nil {
			return nil
		}
		if msg.Terminate {
			return w.fixpoint.Finish()
		}
		w.lastStratum = msg.Stratum
		return w.fixpoint.Advance(msg.Stratum)
	case cluster.MsgIngest:
		if msg.Epoch != w.epoch || w.ops == nil {
			return nil // no resident dataflow (stale epoch or aborted query)
		}
		return w.handleIngest(msg)
	case cluster.MsgRound:
		if msg.Epoch != w.epoch || w.ops == nil {
			return nil
		}
		return w.startRound()
	case cluster.MsgCommit:
		if msg.Epoch != w.epoch || w.ops == nil {
			return nil
		}
		return w.handleCommit(msg)
	default:
		return nil
	}
}

// triage classifies a peer frame (data, punctuation, or a checkpoint
// replica) against the worker's epoch state and reports whether the
// caller should skip it. A frame that outran its epoch's MsgStart — a
// future epoch, or the current epoch before the operators exist — is
// appended to w.early for replay by handleStart; a frame from a stale
// epoch or an aborted query is dropped. Only peer frames need this:
// requestor-origin control frames share a link with MsgStart and
// therefore arrive in order behind it.
func (w *Worker) triage(msg cluster.Message) bool {
	if msg.Epoch > w.epoch || (msg.Epoch == w.epoch && w.ops == nil && !w.aborted) {
		w.early = append(w.early, msg)
		return true
	}
	return msg.Epoch != w.epoch || w.ops == nil
}

// startMode values carried in MsgStart.Count.
const (
	startFresh       = 0
	startIncremental = 1
	// startRecover rebuilds a standing query's dataflow after a crash:
	// like startFresh (full base scans, fresh operator state) but the
	// durable round watermark is read back instead of reset, so an
	// interrupted round's re-staged frames are skipped where already
	// committed and applied where not.
	startRecover = 2
)

func (w *Worker) handleStart(msg cluster.Message) error {
	w.epoch = msg.Epoch
	w.lastStratum = msg.Stratum
	w.ingest = nil
	w.pending = nil
	w.aborted = false
	switch msg.Count {
	case startFresh:
		w.appliedRound = 0
		if w.durable != nil {
			// Seal the loaded base state as round 0. This also resets a
			// stale watermark left by a prior query on a reused store —
			// without it, this query's recovery would skip re-staged rounds
			// the old query committed.
			if err := w.durable.Commit(0); err != nil {
				return err
			}
		}
	case startRecover:
		if w.durable != nil {
			w.appliedRound = 0
			if cr := w.durable.CommittedRound(); cr > 0 {
				w.appliedRound = int(cr)
			}
		}
	}
	alive, err := decodeNodeList(msg.Payload)
	if err != nil {
		return err
	}
	snap := cluster.NewSnapshot(w.ring, alive)
	if err := w.build(snap); err != nil {
		return err
	}
	resume := msg.Stratum
	incremental := msg.Count == startIncremental
	if incremental {
		w.ckpt.DropAbove(w.queryID, resume)
		for opID, ck := range w.ckptOps {
			strata := w.ckpt.Restore(w.queryID, opID, resume, w.node, snap)
			if err := ck.Restore(strata); err != nil {
				return err
			}
		}
	}
	for _, s := range w.scans {
		if incremental && w.baseScan[s.id] {
			continue // base case already folded into restored state
		}
		if err := s.Start(); err != nil {
			return err
		}
	}
	if incremental && w.fixpoint != nil {
		// Report the restored Δ set as this (already completed) stratum's
		// vote so the requestor can advance past it.
		w.stratumEnd(resume, w.fixpoint.PendingCount(), false)
	}
	// Replay peer frames that outran this MsgStart, in arrival order (so
	// per-sender FIFO — data before its punctuation — is preserved).
	// Frames held for any other epoch are dead by construction: the
	// requestor abandoned that epoch before starting this one.
	if len(w.early) > 0 {
		replay := w.early
		w.early = nil
		for _, m := range replay {
			if m.Epoch != w.epoch {
				continue
			}
			if err := w.handle(m); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *Worker) handleCheckpoint(msg cluster.Message) error {
	batch, err := cluster.DecodeDeltas(msg.Payload)
	if err != nil {
		return err
	}
	hashes := make([]uint64, len(batch))
	tuples := make([]types.Tuple, len(batch))
	for i, d := range batch {
		// The first field is the replica-placement key hash; a frame
		// without it would checkpoint under hash 0 and silently corrupt
		// recovery for whatever keys it carried. Reject it instead.
		if len(d.Tup) == 0 {
			return fmt.Errorf("exec: node %d: empty checkpoint tuple (op %d, stratum %d)",
				w.node, msg.Edge, msg.Stratum)
		}
		h, ok := types.AsInt(d.Tup[0])
		if !ok {
			return fmt.Errorf("exec: node %d: checkpoint tuple with non-integer key hash %v (op %d, stratum %d)",
				w.node, d.Tup[0], msg.Edge, msg.Stratum)
		}
		hashes[i] = uint64(h)
		tuples[i] = d.Tup
	}
	w.ckpt.Put(w.queryID, msg.Edge, msg.Stratum, hashes, tuples)
	return nil
}

// handleIngest stages a base-table delta batch: buffered for the next
// round's dataflow injection (ingest) and for local storage (pending).
// The store itself is NOT touched here — mutation happens at the round's
// MsgCommit barrier, after the fixpoint closed cluster-wide, so a crash
// mid-round never leaves a partially applied round in any store. The
// frame's deltas were routed to every ring owner of each delta's key;
// injection (startRound) picks out primarily-owned keys.
//
// Frames carry their round in Stratum: a recovery re-stages the
// interrupted round to every node, and a node whose durable watermark
// already covers that round drops the replay (acking its credit so the
// pump's window still re-arms).
func (w *Worker) handleIngest(msg cluster.Message) error {
	ackCredit := func() {
		// The pump spends one staging credit per MsgIngest frame it ships
		// to this node and blocks when the window runs dry, so the ack both
		// confirms staging and re-arms the window — sized from this
		// worker's measured drain rate. To=-1 addresses the grant at the
		// requestor pair in the credit book.
		w.transport.SendToRequestor(cluster.Message{
			From: w.node, To: -1, Kind: cluster.MsgCreditAck, Epoch: w.epoch,
			CreditGrant: true, Credits: w.drain.Window(w.batchSize, defaultHighWater),
		})
	}
	if msg.Stratum > 0 && msg.Stratum <= w.appliedRound {
		ackCredit()
		return nil // replayed frame for a round this node already committed
	}
	batch, err := cluster.DecodeDeltas(msg.Payload)
	if err != nil {
		return err
	}
	tab, err := w.cat.Table(msg.Table)
	if err != nil {
		return fmt.Errorf("exec: node %d: ingest: %w", w.node, err)
	}
	if w.ingest == nil {
		w.ingest = map[string][]types.Delta{}
	}
	w.ingest[msg.Table] = append(w.ingest[msg.Table], batch...)
	w.pending = append(w.pending, pendingIngest{
		table: msg.Table, keyCol: tab.PartitionKey, deltas: batch,
	})
	w.drain.Observe(len(batch))
	ackCredit()
	return nil
}

// handleCommit is the worker side of the round-commit barrier: apply the
// round's staged deltas to local storage (the only place stores mutate
// during a standing query), fsync the round mark on a durable backend,
// advance the watermark, and ack.
func (w *Worker) handleCommit(msg cluster.Message) error {
	for _, pb := range w.pending {
		if w.store == nil {
			break
		}
		w.store.CreateTable(pb.table, pb.keyCol)
		for _, d := range pb.deltas {
			if err := w.store.ApplyDelta(pb.table, d); err != nil {
				return err
			}
		}
	}
	w.pending = nil
	if w.durable != nil {
		if err := w.durable.Commit(int64(msg.Stratum)); err != nil {
			return err
		}
	}
	w.appliedRound = msg.Stratum
	w.transport.SendToRequestor(cluster.Message{
		From: w.node, Kind: cluster.MsgCommit,
		Stratum: msg.Stratum, Epoch: w.epoch,
	})
	return nil
}

// startRound begins one incremental round on the resident dataflow: it
// reopens per-round punctuation state, injects the buffered base deltas
// through every scan's edge (data first on every table, then punctuation,
// preserving the data-before-punctuation discipline across tables), and
// lets the ordinary fixpoint protocol re-run from current operator state.
// The round's base stratum continues the monotonic stratum numbering so
// punctuation watermarks never move backwards.
func (w *Worker) startRound() error {
	s := w.lastStratum + 1
	w.lastStratum = s
	w.ctx.Stratum = s
	for _, inst := range w.ops {
		if r, ok := inst.(roundReopener); ok {
			r.ReopenRound()
		}
	}
	ingest := w.ingest
	w.ingest = nil
	owned := map[string][]types.Delta{}
	for table, batch := range ingest {
		o, err := w.primaryOwned(table, batch)
		if err != nil {
			return err
		}
		owned[table] = o
	}
	for _, sc := range w.scans {
		if batch := owned[sc.table]; len(batch) > 0 {
			if err := sc.Inject(batch); err != nil {
				return err
			}
		}
	}
	for _, sc := range w.scans {
		if err := sc.punctRound(s); err != nil {
			return err
		}
	}
	return nil
}

// primaryOwned filters an ingest batch down to the deltas this node
// primarily owns under the query snapshot — replicas store the data but
// must not inject it, or the dataflow would see every change R times.
func (w *Worker) primaryOwned(table string, batch []types.Delta) ([]types.Delta, error) {
	tab, err := w.cat.Table(table)
	if err != nil {
		return nil, err
	}
	key := tab.PartitionKey
	var out []types.Delta
	for _, d := range batch {
		primary, err := w.ctx.Snap.Primary(types.HashValue(d.Tup[key]))
		if err != nil {
			return nil, err
		}
		if primary == w.node {
			out = append(out, d)
		}
	}
	return out, nil
}

// stratumEnd is the fixpoint's end-of-stratum callback: ship the stratum's
// state-change batch when streaming, replicate this stratum's dirty state
// (§4.3), then vote. The stream batch MUST precede the vote on the ordered
// requestor channel — the requestor treats vote completion as "all of
// stratum s's deltas have arrived".
func (w *Worker) stratumEnd(stratum, count int, checkpoint bool) {
	if w.stream && w.fixpoint != nil {
		if batch := w.fixpoint.StreamDelta(); len(batch) > 0 {
			w.transport.SendToRequestor(cluster.Message{
				From: w.node, Kind: cluster.MsgData, Edge: resultEdge,
				Stratum: stratum, Payload: cluster.EncodeDeltas(batch),
				Count: len(batch), Epoch: w.epoch,
			})
		}
	}
	if checkpoint && w.checkpoints {
		for opID, ck := range w.ckptOps {
			entries := ck.DirtyState()
			if len(entries) == 0 {
				continue
			}
			w.replicate(opID, stratum, entries)
		}
	}
	if w.stream && w.fixpoint != nil {
		// StreamDelta needs the dirty-key set to mean "changed this
		// stratum"; with checkpointing off nothing else clears it, so the
		// streaming path does (a no-op when DirtyState just drained it).
		w.fixpoint.ClearDirty()
	}
	w.transport.SendToRequestor(cluster.Message{
		From: w.node, Kind: cluster.MsgVote,
		Stratum: stratum, Count: count, Epoch: w.epoch,
	})
}

// replicate stores checkpoint entries locally and ships them to the other
// ring owners of each entry's key.
func (w *Worker) replicate(opID, stratum int, entries []types.Tuple) {
	byDest := map[cluster.NodeID][]types.Delta{}
	var selfHashes []uint64
	var selfTuples []types.Tuple
	for _, e := range entries {
		h64, _ := types.AsInt(e[0])
		h := uint64(h64)
		for _, owner := range w.ring.Owners(h) {
			if owner == w.node {
				selfHashes = append(selfHashes, h)
				selfTuples = append(selfTuples, e)
				continue
			}
			byDest[owner] = append(byDest[owner], types.Insert(e))
		}
	}
	if len(selfTuples) > 0 {
		w.ckpt.Put(w.queryID, opID, stratum, selfHashes, selfTuples)
	}
	for dest, batch := range byDest {
		w.transport.Send(cluster.Message{
			From: w.node, To: dest, Kind: cluster.MsgCheckpoint,
			Edge: opID, Stratum: stratum,
			Payload: cluster.EncodeDeltas(batch), Count: len(batch),
			Epoch: w.epoch,
		})
	}
}

// build instantiates the plan for the given snapshot.
func (w *Worker) build(snap *cluster.Snapshot) error {
	ctx := &Context{
		Node: w.node, Snap: snap, Transport: w.transport,
		Store: w.store, Catalog: w.cat, QueryID: w.queryID,
		Epoch: w.epoch, BatchSize: w.batchSize,
		Drain: w.drain,
	}
	w.ctx = ctx
	w.ops = map[int]Operator{}
	w.scans = nil
	w.baseScan = map[int]bool{}
	w.fixpoint = nil
	w.ckptOps = map[int]checkpointer{}

	// Phase 1: instantiate.
	for _, spec := range w.spec.Ops {
		inst, err := w.instantiate(spec, ctx)
		if err != nil {
			return err
		}
		w.ops[spec.ID] = inst
		switch o := inst.(type) {
		case *scanOp:
			o.id = spec.ID
			w.scans = append(w.scans, o)
		case *fixpointOp:
			w.fixpoint = o
			o.stream = w.stream
			o.onStratumEnd = func(stratum, count int) {
				w.stratumEnd(stratum, count, true)
			}
			if !w.checkpoints && !w.stream {
				o.state.untrack(0) // neither DirtyState nor StreamDelta runs
			}
		case *hashJoinOp:
			if !w.checkpoints || !w.spec.Recursive() {
				o.untrack() // only a recursive plan's checkpoints read it
			}
		}
		if ck, ok := inst.(checkpointer); ok && w.spec.Recursive() {
			w.ckptOps[spec.ID] = ck
		}
	}

	// Phase 2: wire local edges.
	outOp := &outputOp{ctx: ctx}
	cons := w.spec.consumers()
	for id, inst := range w.ops {
		var outs outputs
		for _, ref := range cons[id] {
			outs = append(outs, output{op: w.ops[ref.op], port: ref.port})
		}
		if id == w.spec.RootID && !w.spec.Recursive() {
			outs = append(outs, output{op: outOp, port: 0})
		}
		w.setOuts(inst, outs)
	}
	// Kernel chains: with every edge wired, a kernel filter feeding only
	// a kernel stage hands its survivors on as a selection.
	for _, inst := range w.ops {
		if f, ok := inst.(*filterOp); ok {
			f.link()
		}
	}
	if w.spec.Recursive() {
		fx := w.ops[w.spec.FixpointID].(*fixpointOp)
		fx.finalOuts = outputs{{op: outOp, port: 0}}
	}

	// Mark base-case scans: those whose dataflow reaches the fixpoint's
	// base port (0) without passing through the fixpoint itself.
	if w.spec.Recursive() {
		for _, s := range w.scans {
			if w.reachesFixpointBase(s.id, cons) {
				w.baseScan[s.id] = true
			}
		}
	}
	return nil
}

func (w *Worker) reachesFixpointBase(from int, cons map[int][]portRef) bool {
	seen := map[int]bool{}
	var walk func(id int) bool
	walk = func(id int) bool {
		if seen[id] {
			return false
		}
		seen[id] = true
		for _, ref := range cons[id] {
			if ref.op == w.spec.FixpointID {
				if ref.port == 0 {
					return true
				}
				continue // recursive port: do not cross the fixpoint
			}
			if walk(ref.op) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

func (w *Worker) setOuts(inst Operator, outs outputs) {
	switch o := inst.(type) {
	case *scanOp:
		o.outs = outs
	case *filterOp:
		o.outs = outs
	case *projectOp:
		o.outs = outs
	case *tvfOp:
		o.outs = outs
	case *hashJoinOp:
		o.outs = outs
	case *groupByOp:
		o.outs = outs
	case *preAggOp:
		o.outs = outs
	case *rehashOp:
		o.outs = outs
	case *fixpointOp:
		o.recursiveOuts = outs
	}
}

// inputKinds resolves the column kinds feeding an expression operator's
// first input (filter and project are single-input), used to compile
// typed column kernels. It returns nil when kernels are disabled or the
// plan carries no upstream schema, as hand-built plans may; group-by and
// pre-aggregation then interpret their arguments, while filter and
// project compile against declared column kinds unless kernels are off.
func (w *Worker) inputKinds(spec *OpSpec) []types.Kind {
	if !w.kernels || len(spec.Inputs) == 0 {
		return nil
	}
	in := w.spec.Op(spec.Inputs[0])
	if in == nil || in.Out == nil {
		return nil
	}
	ks := make([]types.Kind, len(in.Out.Fields))
	for i, f := range in.Out.Fields {
		ks[i] = f.Kind
	}
	return ks
}

func (w *Worker) instantiate(spec *OpSpec, ctx *Context) (Operator, error) {
	switch spec.Kind {
	case OpScan:
		return &scanOp{ctx: ctx, table: spec.Table, keyEq: spec.KeyEq, batch: ctx.BatchSize}, nil
	case OpFilter:
		return newFilterOp(spec.Pred, w.inputKinds(spec), w.kernels), nil
	case OpProject:
		return newProjectOp(spec.Exprs, spec.UDFArgKinds, w.inputKinds(spec), w.kernels), nil
	case OpTVF:
		fn, err := ctx.Catalog.TVF(spec.TVFName)
		if err != nil {
			return nil, err
		}
		return &tvfOp{fn: fn}, nil
	case OpHashJoin:
		var handler uda.JoinHandler
		if spec.JoinHandlerName != "" {
			h, err := ctx.Catalog.JoinHandler(spec.JoinHandlerName)
			if err != nil {
				return nil, err
			}
			handler = h
		}
		return newHashJoinOp(spec, handler, ctx.BatchSize), nil
	case OpGroupBy:
		var agg uda.Aggregator
		if spec.UDAName != "" {
			def, err := ctx.Catalog.Agg(spec.UDAName)
			if err != nil {
				return nil, err
			}
			agg = def.Agg
		}
		return newGroupByOp(spec, max(1, len(spec.Inputs)), agg, w.inputKinds(spec))
	case OpPreAgg:
		return newPreAggOp(spec, max(1, len(spec.Inputs)), w.inputKinds(spec))
	case OpRehash:
		return newRehashOp(spec, ctx, false), nil
	case OpBroadcast:
		return newRehashOp(spec, ctx, true), nil
	case OpFixpoint:
		var handler uda.WhileHandler
		if spec.WhileHandlerName != "" {
			h, err := ctx.Catalog.WhileHandler(spec.WhileHandlerName)
			if err != nil {
				return nil, err
			}
			handler = h
		}
		return newFixpointOp(spec, ctx, handler), nil
	default:
		return nil, fmt.Errorf("exec: cannot instantiate op kind %v", spec.Kind)
	}
}

// encodeNodeList serializes a node list for MsgStart payloads.
func encodeNodeList(nodes []cluster.NodeID) []byte {
	t := make(types.Tuple, len(nodes))
	for i, n := range nodes {
		t[i] = int64(n)
	}
	return types.AppendTuple(nil, t)
}

func decodeNodeList(payload []byte) ([]cluster.NodeID, error) {
	t, used, err := types.DecodeTuple(payload)
	if err != nil || used != len(payload) {
		return nil, fmt.Errorf("exec: bad node list payload")
	}
	out := make([]cluster.NodeID, len(t))
	for i, v := range t {
		n, _ := types.AsInt(v)
		out[i] = cluster.NodeID(n)
	}
	return out, nil
}
