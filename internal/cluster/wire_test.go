package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/rex-data/rex/internal/types"
)

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(from, to int16, edge, stratum, count, epoch int32, kind uint8,
		terminate, closed, grant bool, credits uint16, prio int8, table string, payload []byte) bool {
		msg := Message{
			From: NodeID(from), To: NodeID(to), Edge: int(edge),
			Stratum: int(stratum), Kind: MsgKind(kind % 9), Payload: payload,
			Count: int(count), Terminate: terminate, Closed: closed,
			Epoch: int(epoch), Table: table,
			CreditGrant: grant,
			Priority:    int(prio),
		}
		if grant {
			msg.Credits = int(credits)
		}
		got, err := DecodeFrame(EncodeFrame(msg))
		if err != nil {
			return false
		}
		if got.From != msg.From || got.To != msg.To || got.Edge != msg.Edge ||
			got.Stratum != msg.Stratum || got.Kind != msg.Kind ||
			got.Count != msg.Count || got.Terminate != msg.Terminate ||
			got.Closed != msg.Closed || got.Epoch != msg.Epoch || got.Table != msg.Table ||
			got.CreditGrant != msg.CreditGrant || got.Credits != msg.Credits ||
			got.Priority != msg.Priority {
			return false
		}
		if len(got.Payload) != len(msg.Payload) {
			return false
		}
		for i := range got.Payload {
			if got.Payload[i] != msg.Payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// randValue draws one scalar from every kind the engine supports,
// including NULL. NaN is excluded: it is not equal to itself, so it cannot
// satisfy an equality-based round-trip property (the codec still carries
// it bit-exactly).
func randValue(r *rand.Rand) types.Value {
	switch r.Intn(6) {
	case 0:
		return nil
	case 1:
		return r.Int63() - (1 << 62) // negative and positive ints
	case 2:
		return int64(r.Intn(64)) // small ints: repeated, varint-short
	case 3:
		f := math.Float64frombits(r.Uint64())
		if math.IsNaN(f) {
			f = 0.5
		}
		return f
	case 4:
		const alphabet = "αβγ abcdefXYZ0123456789"
		n := r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(b)
	default:
		return r.Intn(2) == 0
	}
}

func randDelta(r *rand.Rand) types.Delta {
	arity := 1 + r.Intn(5)
	tup := make(types.Tuple, arity)
	for i := range tup {
		tup[i] = randValue(r)
	}
	op := types.Op(r.Intn(4))
	d := types.Delta{Op: op, Tup: tup}
	if op == types.OpReplace {
		old := make(types.Tuple, arity)
		for i := range old {
			old[i] = randValue(r)
		}
		d.Old = old
	}
	return d
}

// Property: random ragged delta batches — arities 1–5, mixed-kind
// columns, NULLs, replace deltas, repeated values — round-trip the wire
// format exactly.
func TestDeltaBatchRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(20260729))
	for iter := 0; iter < 300; iter++ {
		batch := make([]types.Delta, r.Intn(40))
		for i := range batch {
			batch[i] = randDelta(r)
		}
		got, err := DecodeDeltas(EncodeDeltas(batch))
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if len(got) != len(batch) {
			t.Fatalf("iter %d: got %d deltas, want %d", iter, len(got), len(batch))
		}
		for i := range got {
			if got[i].Op != batch[i].Op || !got[i].Tup.Equal(batch[i].Tup) {
				t.Fatalf("iter %d delta %d: %v != %v", iter, i, got[i], batch[i])
			}
			if batch[i].Op == types.OpReplace && !got[i].Old.Equal(batch[i].Old) {
				t.Fatalf("iter %d delta %d: old %v != %v", iter, i, got[i].Old, batch[i].Old)
			}
		}
	}
}

// Kind fidelity: an int64 and an integral float64 compare ValueEq, but the
// wire must preserve the original kind (1 must not come back as 1.0).
func TestDeltaBatchPreservesKinds(t *testing.T) {
	batch := []types.Delta{
		types.Insert(types.NewTuple(int64(7), 7.0, "7", true, nil)),
		types.Insert(types.NewTuple(int64(7), 7.0, "7", true, nil)),
		types.Insert(types.NewTuple(int64(7), 7.0, "7", true, nil)),
	}
	got, err := DecodeDeltas(EncodeDeltas(batch))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range got {
		if _, ok := d.Tup[0].(int64); !ok {
			t.Fatalf("column 0 lost int kind: %T", d.Tup[0])
		}
		if _, ok := d.Tup[1].(float64); !ok {
			t.Fatalf("column 1 lost float kind: %T", d.Tup[1])
		}
		if _, ok := d.Tup[2].(string); !ok {
			t.Fatalf("column 2 lost string kind: %T", d.Tup[2])
		}
		if _, ok := d.Tup[3].(bool); !ok {
			t.Fatalf("column 3 lost bool kind: %T", d.Tup[3])
		}
		if d.Tup[4] != nil {
			t.Fatalf("column 4 lost NULL: %v", d.Tup[4])
		}
	}
}

// checkpointBatch is the ragged shape checkpoint replicas ship: tombstone
// entries (h, "S", key) beside full entries (h, "S", key, fields...).
func checkpointBatch() []types.Delta {
	return types.Inserts(
		types.NewTuple(int64(11), "S", int64(1), 0.5, int64(3)),
		types.NewTuple(int64(12), "S", int64(2), 0.25, int64(4)),
		types.NewTuple(int64(13), "S", int64(3)),
		types.NewTuple(int64(14), "S", int64(4), 1.5, int64(1)),
	)
}

// A ragged batch splits into one run per schema-uniform stretch; uniform
// batches and EncodeDeltaBatch payloads are a single run, which is all
// DecodeDeltasAny (the data-edge decoder) accepts.
func TestEncodeDeltasRuns(t *testing.T) {
	ragged := checkpointBatch()
	payload := EncodeDeltas(ragged)
	if payload[0] != deltaFormatCol || payload[1] != 3 {
		t.Fatalf("ragged payload header % x, want c3 03", payload[:2])
	}
	got, err := DecodeDeltas(payload)
	if err != nil || len(got) != len(ragged) {
		t.Fatalf("ragged round trip: %v %v", got, err)
	}
	for i := range got {
		if !got[i].Tup.Equal(ragged[i].Tup) {
			t.Fatalf("delta %d: %v != %v", i, got[i], ragged[i])
		}
	}
	if _, _, err := DecodeDeltasAny(payload); err == nil {
		t.Fatal("a ragged payload must not decode as one batch")
	}

	uniform := ragged[:2]
	if p := EncodeDeltas(uniform); p[1] != 1 {
		t.Fatalf("uniform payload has %d runs, want 1", p[1])
	}
	cb, _ := types.FromDeltas(uniform)
	_, dec, err := DecodeDeltasAny(EncodeDeltaBatch(nil, cb))
	if err != nil || dec.Len() != 2 {
		t.Fatalf("one-run batch decode: %v %v", dec, err)
	}
	if p := EncodeDeltas(nil); len(p) != 2 || p[1] != 0 {
		t.Fatalf("empty payload % x, want c3 00", p)
	}
	if got, err := DecodeDeltas(EncodeDeltas(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v %v", got, err)
	}
}

// Decoded tuples own their storage: appending to one must never overwrite
// the next row's values.
func TestDecodeDeltasTuplesIndependent(t *testing.T) {
	got, err := DecodeDeltas(EncodeDeltas(types.Inserts(
		types.NewTuple(int64(1), "a"), types.NewTuple(int64(2), "b"))))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(got[0].Tup, "clobber")
	if got[1].Tup[0] != int64(2) {
		t.Fatalf("append to tuple 0 overwrote tuple 1: %v", got[1].Tup)
	}
}

// Truncated, corrupt and forged buffers must error, never panic.
func TestDecodeDeltasCorrupt(t *testing.T) {
	batch := []types.Delta{
		types.Insert(types.NewTuple(int64(1), "hello", 2.5)),
		types.Replace(types.NewTuple(int64(1), "hello", 2.5), types.NewTuple(int64(1), "world", 3.5)),
		types.Insert(types.NewTuple(int64(2))),
	}
	wire := EncodeDeltas(batch)
	for cut := 0; cut < len(wire); cut++ {
		if _, err := DecodeDeltas(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d must fail", cut)
		}
	}
	if _, err := DecodeDeltas(append(wire[:len(wire):len(wire)], 0xFF)); err == nil {
		t.Fatal("trailing garbage must fail")
	}
	if _, err := DecodeDeltas([]byte{0x42}); err == nil {
		t.Fatal("unknown format byte must fail")
	}
	if _, err := DecodeDeltas([]byte{0xD1, 0, 1, 0, 1, byte(types.KindInt), 2}); err == nil {
		t.Fatal("a row-dictionary payload must fail")
	}
	if _, err := DecodeFrame([]byte{9, 9}); err == nil {
		t.Fatal("short frame must fail")
	}
	// Forged (huge) counts and lengths must error, not panic in makeslice
	// or slicing: runs, rows, columns, old columns, a column payload
	// length and a string length inside a string lane.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	c := byte(deltaFormatCol)
	forged := map[string][]byte{
		"runs":        append([]byte{c}, huge...),
		"rows":        append([]byte{c, 1}, huge...),
		"columns":     append([]byte{c, 1, 0}, huge...),
		"old columns": append([]byte{c, 1, 0, 0}, huge...),
		"payload":     append([]byte{c, 1, 1, 1, 0, 0, 1}, huge...),
		"string":      append(append([]byte{c, 1, 1, 1, 0, 0, 3, 10}, huge...), 0),
	}
	// Well-framed runs whose lanes lie: the checks DecodeDeltaBatch makes
	// so that materializing a column can no longer fail. The first two
	// hold a truncated varint in an int lane, which panicked the process
	// before decode checked lanes (a hostile ingest or argument frame
	// crashed rexd).
	crafted := map[string][]byte{
		"crasher":             {c, 1, 1, 1, 0, 0, 1, 0x81, 0x80, 0x80, 0, 0x80},
		"crasher, old layout": {c, 1, 1, 0, 0, 1, 0x81, 0x80, 0x80, 0, 0x80},
		"op byte":             {c, 1, 1, 0, 0, 9},
		"repr":                {c, 1, 1, 1, 0, 0, 6, 0},
		"short floats":        {c, 1, 1, 1, 0, 0, 2, 4, 1, 2, 3, 4},
		"long bools":          {c, 1, 1, 1, 0, 0, 4, 2, 1, 1},
		"extra varint":        {c, 1, 1, 1, 0, 0, 1, 2, 2, 2},
		"null lane payload":   {c, 1, 1, 1, 0, 0, 0, 1, 0},
		"any lane kind":       {c, 1, 1, 1, 0, 0, 5, 1, 99},
		"any lane string":     {c, 1, 1, 1, 0, 0, 5, 3, byte(types.KindString), 5, 'a'},
		"old lane":            {c, 1, 1, 0, 1, 2, 1, 1, 0x80},
	}
	for name, cases := range map[string]map[string][]byte{"forged": forged, "crafted": crafted} {
		for what, buf := range cases {
			if _, err := DecodeDeltas(buf); err == nil {
				t.Errorf("%s %s: DecodeDeltas must fail", name, what)
			}
			if _, _, err := DecodeDeltasAny(buf); err == nil {
				t.Errorf("%s %s: DecodeDeltasAny must fail", name, what)
			}
		}
	}
	frame := EncodeFrame(Message{From: 0, To: 1, Kind: MsgData, Table: "t", Payload: []byte{1}})
	for cut := 3; cut < len(frame); cut++ {
		if _, err := DecodeFrame(frame[:cut]); err == nil {
			t.Fatalf("frame truncation at %d must fail", cut)
		}
	}
	// Frame with a forged table length in place of the real one.
	bad := append(frame[:len(frame)-5:len(frame)-5], huge...)
	if _, err := DecodeFrame(bad); err == nil {
		t.Fatal("forged frame length must fail")
	}
}
