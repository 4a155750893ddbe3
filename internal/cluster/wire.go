package cluster

import (
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/rex-data/rex/internal/types"
)

// The wire codec gives the simulated cluster a real wire format: every
// inter-node frame is serialized to a compact binary layout before its size
// is accounted, then decoded on the receiving side, so Metrics reports
// measured — not estimated — network volume (the bandwidth figures of §6.5).
//
// Two layers:
//
//   - Frame layer: EncodeFrame/DecodeFrame serialize a whole Message
//     (header fields varint-packed, payload length-prefixed).
//   - Batch layer: one delta payload format, columnar. A payload is the
//     tag byte 0xC3, a uvarint run count, then that many schema-uniform
//     runs in the types.AppendDeltaBatch layout. Shuffle, result, ingest
//     and argument payloads are one run; ragged row batches (checkpoint
//     entries mix tombstone and full arities) split into several. The
//     encoded run IS the in-memory DeltaBatch layout, so decode checks
//     the payload once and aliases the op vector and column payloads out
//     of the frame buffer — values materialize lazily, on first operator
//     access. EncodeDeltaBatch ships a batch; EncodeDeltas ships rows.
//     Every payload decodes through decodeRuns.

// wireVersion leads every frame; decoders reject unknown versions.
// History: 1 = PR 1 layout; 2 adds the optional credit-grant field
// (flow-control windows piggybacked on punctuation frames); 3 adds the
// columnar delta-batch payload format, the MsgCreditAck kind, and the
// optional priority field on client-facing frames (same flag+varint
// trick as credits, so it costs nothing when absent — no version bump
// needed: v3 decoders that predate it never saw the flag set).
const wireVersion = 3

// Frame flag bits.
const (
	flagTerminate = 1 << iota
	flagClosed
	// flagCreditGrant marks a frame carrying a flow-control window grant:
	// the Credits varint follows the payload. The flag (rather than an
	// always-present field) keeps the common data frame free of the cost
	// and lets an explicit zero-window grant stay distinguishable from
	// "no grant".
	flagCreditGrant
	// flagPriority marks a frame carrying a scheduling priority: the
	// Priority varint follows the payload (after the credits varint when
	// both flags are set). Only nonzero priorities are encoded — normal
	// priority is the zero value, so the common frame stays untouched.
	flagPriority
)

// EncodeFrame serializes msg to its wire representation. The payload is
// treated as opaque bytes; batch payloads are produced by EncodeDeltas or
// EncodeDeltaBatch.
func EncodeFrame(msg Message) []byte {
	buf := make([]byte, 0, 24+len(msg.Table)+len(msg.Payload))
	buf = append(buf, wireVersion, byte(msg.Kind))
	var flags byte
	if msg.Terminate {
		flags |= flagTerminate
	}
	if msg.Closed {
		flags |= flagClosed
	}
	if msg.CreditGrant {
		flags |= flagCreditGrant
	}
	if msg.Priority != 0 {
		flags |= flagPriority
	}
	buf = append(buf, flags)
	buf = binary.AppendVarint(buf, int64(msg.From))
	buf = binary.AppendVarint(buf, int64(msg.To))
	buf = binary.AppendVarint(buf, int64(msg.Edge))
	buf = binary.AppendVarint(buf, int64(msg.Stratum))
	buf = binary.AppendVarint(buf, int64(msg.Count))
	buf = binary.AppendVarint(buf, int64(msg.Epoch))
	buf = binary.AppendVarint(buf, int64(msg.Job))
	buf = binary.AppendUvarint(buf, uint64(len(msg.Table)))
	buf = append(buf, msg.Table...)
	buf = binary.AppendUvarint(buf, uint64(len(msg.Payload)))
	buf = append(buf, msg.Payload...)
	if msg.CreditGrant {
		buf = binary.AppendUvarint(buf, uint64(msg.Credits))
	}
	if msg.Priority != 0 {
		buf = binary.AppendVarint(buf, int64(msg.Priority))
	}
	return buf
}

// DecodeFrame decodes a frame produced by EncodeFrame.
func DecodeFrame(buf []byte) (Message, error) {
	var msg Message
	if len(buf) < 3 {
		return msg, fmt.Errorf("cluster: decode frame: short buffer (%d bytes)", len(buf))
	}
	if buf[0] != wireVersion {
		return msg, fmt.Errorf("cluster: decode frame: unknown version %d", buf[0])
	}
	msg.Kind = MsgKind(buf[1])
	msg.Terminate = buf[2]&flagTerminate != 0
	msg.Closed = buf[2]&flagClosed != 0
	msg.CreditGrant = buf[2]&flagCreditGrant != 0
	off := 3
	readInt := func(field string) (int64, error) {
		v, n := binary.Varint(buf[off:])
		if n <= 0 {
			return 0, fmt.Errorf("cluster: decode frame: bad %s varint", field)
		}
		off += n
		return v, nil
	}
	var err error
	var v int64
	if v, err = readInt("from"); err != nil {
		return msg, err
	}
	msg.From = NodeID(v)
	if v, err = readInt("to"); err != nil {
		return msg, err
	}
	msg.To = NodeID(v)
	if v, err = readInt("edge"); err != nil {
		return msg, err
	}
	msg.Edge = int(v)
	if v, err = readInt("stratum"); err != nil {
		return msg, err
	}
	msg.Stratum = int(v)
	if v, err = readInt("count"); err != nil {
		return msg, err
	}
	msg.Count = int(v)
	if v, err = readInt("epoch"); err != nil {
		return msg, err
	}
	msg.Epoch = int(v)
	if v, err = readInt("job"); err != nil {
		return msg, err
	}
	msg.Job = int(v)
	// Length fields compare as uint64 against the remaining bytes so a
	// forged huge length cannot overflow int and slip past the check.
	tl, n := binary.Uvarint(buf[off:])
	if n <= 0 || tl > uint64(len(buf)-off-n) {
		return msg, fmt.Errorf("cluster: decode frame: bad table length")
	}
	off += n
	if tl > 0 {
		msg.Table = string(buf[off : off+int(tl)])
		off += int(tl)
	}
	pl, n := binary.Uvarint(buf[off:])
	if n <= 0 || pl > uint64(len(buf)-off-n) {
		return msg, fmt.Errorf("cluster: decode frame: bad payload length")
	}
	off += n
	if pl > 0 {
		msg.Payload = buf[off : off+int(pl) : off+int(pl)]
		off += int(pl)
	}
	if msg.CreditGrant {
		cr, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return msg, fmt.Errorf("cluster: decode frame: bad credits varint")
		}
		off += n
		msg.Credits = int(cr)
	}
	if buf[2]&flagPriority != 0 {
		pr, n := binary.Varint(buf[off:])
		if n <= 0 {
			return msg, fmt.Errorf("cluster: decode frame: bad priority varint")
		}
		off += n
		msg.Priority = int(pr)
	}
	if off != len(buf) {
		return msg, fmt.Errorf("cluster: decode frame: %d trailing bytes", len(buf)-off)
	}
	return msg, nil
}

// deltaFormatCol tags a delta payload. Any other leading byte — a corrupt
// payload, or a row-dictionary (0xD1) one from an older build — fails
// loudly.
const deltaFormatCol = 0xC3

// payloadBufPool recycles encode buffers for delta payloads. The frame
// layer copies the payload into the frame buffer on every Send (both
// transports), so the payload buffer is dead the moment Send returns and
// can go straight back to the pool — the encode side of the steady-state
// O(1) allocation story.
var payloadBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// GetPayloadBuf returns a pooled payload buffer, empty. The caller encodes
// into *buf, keeps the pointer, and hands the same pointer back to
// PutPayloadBuf, so a round trip through the pool allocates nothing.
func GetPayloadBuf() *[]byte {
	buf := payloadBufPool.Get().(*[]byte)
	*buf = (*buf)[:0]
	return buf
}

// PutPayloadBuf returns a payload buffer to the pool. Callers must be
// done with every alias into it (Send has returned; the frame layer owns
// its own copy).
func PutPayloadBuf(buf *[]byte) {
	payloadBufPool.Put(buf)
}

// EncodeDeltaBatch appends the one-run payload encoding of b to buf.
func EncodeDeltaBatch(buf []byte, b *types.DeltaBatch) []byte {
	buf = append(buf, deltaFormatCol, 1)
	return types.AppendDeltaBatch(buf, b)
}

// EncodeDeltas encodes row-form deltas as a payload: one run per
// schema-uniform stretch of ds, each built in a pooled batch and encoded
// into a pooled buffer. The returned payload is an exact-size copy the
// caller owns.
func EncodeDeltas(ds []types.Delta) []byte {
	runs := 0
	for rest := ds; len(rest) > 0; rest = rest[types.UniformRun(rest):] {
		runs++
	}
	pooled := payloadBufPool.Get().(*[]byte)
	buf := append((*pooled)[:0], deltaFormatCol)
	buf = binary.AppendUvarint(buf, uint64(runs))
	b := types.GetBatch()
	for rest := ds; len(rest) > 0; {
		n := types.UniformRun(rest)
		for _, d := range rest[:n] {
			b.Append(d)
		}
		buf = types.AppendDeltaBatch(buf, b)
		b.Reset()
		rest = rest[n:]
	}
	if len(ds) <= types.MaxPooledRows {
		types.PutBatch(b)
	}
	out := append([]byte(nil), buf...)
	*pooled = buf
	payloadBufPool.Put(pooled)
	return out
}

// decodeRuns is the one delta payload decoder: it checks the tag and the
// run count, then hands each run — checked by types.DecodeDeltaBatch and
// aliasing buf — to each, in order.
func decodeRuns(buf []byte, each func(*types.DeltaBatch)) error {
	if len(buf) == 0 {
		return fmt.Errorf("cluster: decode deltas: empty payload")
	}
	if buf[0] != deltaFormatCol {
		return fmt.Errorf("cluster: decode deltas: unknown format 0x%02X", buf[0])
	}
	// Every run costs at least its three counts, so a forged run count
	// errors before any work.
	runs, n := binary.Uvarint(buf[1:])
	if n <= 0 || runs > uint64(len(buf)-1-n)/3 {
		return fmt.Errorf("cluster: decode deltas: bad run count")
	}
	off := 1 + n
	for r := uint64(0); r < runs; r++ {
		b, used, err := types.DecodeDeltaBatch(buf[off:])
		if err != nil {
			return fmt.Errorf("cluster: decode deltas: run %d: %w", r, err)
		}
		off += used
		each(b)
	}
	if off != len(buf) {
		return fmt.Errorf("cluster: decode deltas: %d trailing bytes", len(buf)-off)
	}
	return nil
}

// DecodeDeltasAny decodes a one-run payload — what every data edge
// carries — to a lazily-materializing batch aliasing buf, so columnar
// frames reach vector-capable operators without materializing row
// tuples. The row result is always nil; it stays in the signature for
// callers written when rows had a format of their own.
func DecodeDeltasAny(buf []byte) ([]types.Delta, *types.DeltaBatch, error) {
	var batch *types.DeltaBatch
	runs := 0
	err := decodeRuns(buf, func(b *types.DeltaBatch) {
		batch = b
		runs++
	})
	if err == nil && runs != 1 {
		err = fmt.Errorf("cluster: decode delta batch: %d runs, want 1", runs)
	}
	if err != nil {
		return nil, nil, err
	}
	return nil, batch, nil
}

// DecodeDeltas decodes a payload to row form: fresh tuples, safe to
// retain. Callers that can consume vectors use DecodeDeltasAny instead.
func DecodeDeltas(buf []byte) ([]types.Delta, error) {
	var out []types.Delta
	err := decodeRuns(buf, func(b *types.DeltaBatch) {
		if out == nil {
			out = b.Deltas()
		} else {
			out = append(out, b.Deltas()...)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
