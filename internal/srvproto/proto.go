// Package srvproto defines the client↔rexd server protocol: the JSON
// request/reply records that ride inside MsgHello/MsgQuery/MsgRows/MsgErr
// transport frames, the length-prefixed frame I/O both ends share, the
// sentinel error codes that survive the wire, and the ServerStats record
// the /stats endpoint and the "stats" op report.
//
// The package sits below both the public rex client (which dials a
// server) and internal/server (which serves it), so neither imports the
// other. Frames reuse the cluster wire codec — the same varint-packed
// Message encoding and 4-byte big-endian length prefix worker daemons
// speak — so a server connection is one more dialect of the existing
// wire format, not a second one.
package srvproto

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/types"
)

// Version is the protocol revision a Hello negotiates. Servers reject
// clients whose version they do not speak.
const Version = 1

// Frame size limits, mirroring the worker-transport hardening: a forged
// length prefix must not make either side buffer unbounded memory.
const (
	frameHeader = 4
	// MaxFrame bounds a frame either side will buffer (64 MiB).
	MaxFrame = 1 << 26
)

// Request ops.
const (
	// OpStream executes Src and streams result delta batches back. It is
	// the single execution op: buffered Query is a client-side Drain.
	OpStream = "stream"
	// OpSubscribe installs Src as a standing query: the initial result
	// arrives as round 0, and every covering ingestion round after it
	// streams net-change deltas until the request is cancelled.
	OpSubscribe = "subscribe"
	// OpPrepare compiles Src (with $N placeholders) into the server's
	// plan cache and reports its parameter count.
	OpPrepare = "prepare"
	// OpIngest applies base-table delta batches. The reply arrives after
	// every covering standing-query round has completed, so a
	// subscriber's stream holds the whole round when its ingest returns.
	OpIngest = "ingest"
	// OpCreateTable declares a table on the server's catalog.
	OpCreateTable = "create_table"
	// OpStats reports the server's counters.
	OpStats = "stats"
	// OpCancel aborts the in-flight request identified by Target. It has
	// no reply of its own; the target request ends with its own frame.
	OpCancel = "cancel"
)

// Hello is the first frame a client sends (inside MsgHello). Tenant is
// the session-level default tenant id for admission quotas and fair
// scheduling; per-request QueryOpts.Tenant overrides it.
type Hello struct {
	Version int    `json:"version"`
	Tenant  string `json:"tenant,omitempty"`
}

// Welcome is the server's MsgHello reply.
type Welcome struct {
	OK    bool   `json:"ok"`
	Nodes int    `json:"nodes,omitempty"`
	Code  int    `json:"code,omitempty"`
	Err   string `json:"err,omitempty"`
}

// Priority levels carried by QueryOpts.Priority and the frame header.
// The rex package re-exports them as rex.PriorityLow/Normal/High.
const (
	PriorityLow    = -1
	PriorityNormal = 0
	PriorityHigh   = 1
)

// QueryOpts is the wire subset of exec.Options — the fields that travel;
// driver-side hooks (recovery, termination callbacks) stay client-side
// and are rejected before a request is sent.
type QueryOpts struct {
	BatchSize   int  `json:"batch,omitempty"`
	MaxStrata   int  `json:"max_strata,omitempty"`
	Checkpoint  bool `json:"checkpoint,omitempty"`
	NoVectorize bool `json:"no_vectorize,omitempty"`
	// Tenant overrides the session's Hello tenant for this request;
	// Priority (-1 low / 0 normal / +1 high) orders the scheduler's
	// runnable queue. Priority also rides the frame header (see
	// cluster.Message.Priority) so the server can classify a request
	// before parsing its body.
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
}

// Request is the JSON body of a MsgQuery frame; which fields are
// meaningful depends on Op.
type Request struct {
	Op  string `json:"op"`
	Src string `json:"src,omitempty"`
	// Args carries bound $N parameter values as one encoded tuple
	// (EncodeArgs/DecodeArgs).
	Args []byte     `json:"args,omitempty"`
	Opts *QueryOpts `json:"opts,omitempty"`
	// Tables carries OpIngest batches: table name → encoded delta batch.
	Tables map[string][]byte `json:"tables,omitempty"`
	// Table/Fields/Key describe an OpCreateTable declaration; Fields uses
	// the "name:Type" spec form.
	Table  string   `json:"table,omitempty"`
	Fields []string `json:"fields,omitempty"`
	Key    int      `json:"key,omitempty"`
	// Target is the request id an OpCancel addresses.
	Target int `json:"target,omitempty"`
}

// Trailer is the JSON record riding in the Table field of a request's
// final MsgRows frame (and of standing-query round-boundary frames).
type Trailer struct {
	// Result carries the completed run's statistics (Tuples always nil —
	// the tuples travelled as delta frames).
	Result *exec.Result `json:"result,omitempty"`
	// NumParams answers OpPrepare.
	NumParams int `json:"params,omitempty"`
	// Round carries a standing-query round's statistics on round-boundary
	// frames, and the requester's covering round on OpIngest replies.
	Round *exec.RoundStats `json:"round,omitempty"`
	// Stats answers OpStats.
	Stats *ServerStats `json:"stats,omitempty"`
}

// ServerStats is the rexd server's counter snapshot, served on /stats
// and by the "stats" op.
type ServerStats struct {
	// Sessions counts accepted client connections; ActiveSessions the
	// currently-open ones.
	Sessions       int64 `json:"sessions"`
	ActiveSessions int64 `json:"active_sessions"`
	// Queries counts admitted interactive executions (streams and
	// subscription initial rounds); Rejected the admission-control
	// rejections (ErrServerBusy); QuotaRejections the per-tenant quota
	// rejections (ErrTenantBusy), counted separately so a deliberately
	// throttled tenant does not read as server overload.
	Queries         int64 `json:"queries"`
	Rejected        int64 `json:"rejected"`
	QuotaRejections int64 `json:"quota_rejections"`
	// SubPools is the number of independent engine sub-pools queries
	// run on (true intra-server concurrency = min(SubPools, runnable));
	// Inflight and QueueDepth snapshot the admission gate: requests
	// holding slots and requests parked in the bounded wait queue.
	SubPools   int64 `json:"sub_pools"`
	Inflight   int64 `json:"inflight"`
	QueueDepth int64 `json:"queue_depth"`
	// Tenants snapshots the per-tenant scheduler counters, keyed by
	// tenant id ("" = untagged sessions).
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
	// Compiles counts real plan compilations; PlanCacheHits/Misses the
	// cache outcomes. Hits > 0 with Compiles < Queries is the cache win.
	Compiles        int64 `json:"compiles"`
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	PlanCacheSize   int64 `json:"plan_cache_size"`
	// Subscriptions counts standing queries installed; Rounds the
	// incremental refresh rounds run; Ingests the applied ingest requests.
	Subscriptions int64 `json:"subscriptions"`
	Rounds        int64 `json:"rounds"`
	Ingests       int64 `json:"ingests"`
	// CatalogVersion is the backing catalog's current schema version.
	CatalogVersion int64 `json:"catalog_version"`
	// Buffer-pool traffic of the backing pool's paged stores (a server
	// started with -data-dir): page-cache hits and misses, pages evicted
	// to make room, and dirty page bytes written to spill files. All-zero
	// on an in-memory pool.
	PoolHits         int64 `json:"pool_hits"`
	PoolMisses       int64 `json:"pool_misses"`
	PoolEvictions    int64 `json:"pool_evictions"`
	PoolBytesSpilled int64 `json:"pool_bytes_spilled"`
	// Expression-kernel traffic of the pool's workers: kernels compiled
	// at operator instantiation, batches evaluated column-wise by a
	// compiled kernel, batches bridged row-by-row because no kernel
	// compiled, and batches a kernel declined at eval time.
	KernelCompiled       int64 `json:"kernel_compiled"`
	KernelVectorBatches  int64 `json:"kernel_vector_batches"`
	KernelBridgedBatches int64 `json:"kernel_bridged_batches"`
	KernelFallbackEvals  int64 `json:"kernel_fallback_evals"`
}

// TenantStats is one tenant's slice of the scheduler counters.
type TenantStats struct {
	// Admitted counts requests that won an admission slot; Inflight the
	// ones currently holding one (admitted or parked in the wait queue);
	// QuotaRejections the ErrTenantBusy rejections.
	Admitted        int64 `json:"admitted"`
	Inflight        int64 `json:"inflight"`
	QuotaRejections int64 `json:"quota_rejections"`
}

// Sentinel error codes carried in MsgErr.Count (and Welcome.Code), so
// typed errors survive the wire and errors.Is works on both sides.
const (
	CodeInternal = iota
	CodeBusy
	CodeUnknownTable
	CodeSessionClosed
	CodeCanceled
	CodeBadRequest
	CodeTenantBusy
)

// Sentinels shared by the client session and the server. The rex package
// re-exports them as rex.ErrServerBusy / rex.ErrSessionClosed /
// rex.ErrTenantBusy.
var (
	// ErrServerBusy rejects work when the admission queue is full (or the
	// server is at its session cap).
	ErrServerBusy = errors.New("rex: server busy")
	// ErrSessionClosed rejects operations on a closed session.
	ErrSessionClosed = errors.New("rex: session is closed")
	// ErrTenantBusy rejects work past the requesting tenant's inflight
	// quota; other tenants' capacity is unaffected.
	ErrTenantBusy = errors.New("rex: tenant quota exhausted")
	// ErrBadRequest rejects a request the server cannot parse: a malformed
	// body, or an ingest batch or argument tuple that does not decode.
	ErrBadRequest = errors.New("rex: bad request")
)

// CodeFor classifies an error as a wire code. ErrTenantBusy is checked
// before ErrServerBusy so a quota rejection never degrades into the
// generic busy code.
func CodeFor(err error) int {
	switch {
	case errors.Is(err, ErrTenantBusy):
		return CodeTenantBusy
	case errors.Is(err, ErrServerBusy):
		return CodeBusy
	case errors.Is(err, ErrBadRequest):
		return CodeBadRequest
	case errors.Is(err, catalog.ErrUnknownTable):
		return CodeUnknownTable
	case errors.Is(err, ErrSessionClosed):
		return CodeSessionClosed
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return CodeCanceled
	default:
		return CodeInternal
	}
}

// codedErr reconstructs a server-side error client-side: the original
// message, wrapping the sentinel its code names so errors.Is holds.
type codedErr struct {
	msg  string
	base error
}

func (e *codedErr) Error() string { return e.msg }
func (e *codedErr) Unwrap() error { return e.base }

// Rehydrate turns a wire (code, message) pair back into a typed error.
func Rehydrate(code int, msg string) error {
	var base error
	switch code {
	case CodeBusy:
		base = ErrServerBusy
	case CodeTenantBusy:
		base = ErrTenantBusy
	case CodeBadRequest:
		base = ErrBadRequest
	case CodeUnknownTable:
		base = catalog.ErrUnknownTable
	case CodeSessionClosed:
		base = ErrSessionClosed
	case CodeCanceled:
		base = context.Canceled
	default:
		return errors.New(msg)
	}
	if msg == "" || msg == base.Error() {
		return base
	}
	return &codedErr{msg: msg, base: base}
}

// WriteMsg writes one length-prefixed frame. Callers serialize writes to
// a shared connection themselves.
func WriteMsg(w io.Writer, m cluster.Message) error {
	frame := cluster.EncodeFrame(m)
	if len(frame) > MaxFrame {
		return fmt.Errorf("srvproto: frame of %d bytes exceeds the %d limit", len(frame), MaxFrame)
	}
	buf := make([]byte, frameHeader+len(frame))
	binary.BigEndian.PutUint32(buf[:frameHeader], uint32(len(frame)))
	copy(buf[frameHeader:], frame)
	_, err := w.Write(buf)
	return err
}

// ReadMsg reads one length-prefixed frame, rejecting forged lengths
// before buffering.
func ReadMsg(r io.Reader) (cluster.Message, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return cluster.Message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return cluster.Message{}, fmt.Errorf("srvproto: bad frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return cluster.Message{}, err
	}
	return cluster.DecodeFrame(buf)
}

// EncodeArgs packs bound parameter values as a one-row delta payload; nil
// for no arguments.
func EncodeArgs(args []types.Value) []byte {
	if len(args) == 0 {
		return nil
	}
	return cluster.EncodeDeltas([]types.Delta{types.Insert(types.Tuple(args))})
}

// DecodeArgs unpacks EncodeArgs.
func DecodeArgs(b []byte) ([]types.Value, error) {
	if len(b) == 0 {
		return nil, nil
	}
	ds, err := cluster.DecodeDeltas(b)
	if err != nil {
		return nil, fmt.Errorf("%w: decode args: %w", ErrBadRequest, err)
	}
	if len(ds) != 1 {
		return nil, fmt.Errorf("%w: decode args: %d deltas, want 1", ErrBadRequest, len(ds))
	}
	return []types.Value(ds[0].Tup), nil
}

// EncodeJSON marshals a protocol record, panicking on marshal failure —
// every record here is marshalable by construction.
func EncodeJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("srvproto: marshal %T: %v", v, err))
	}
	return b
}
