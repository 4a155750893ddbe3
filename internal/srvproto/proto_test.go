package srvproto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"testing"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// Bound arguments round-trip with their kinds intact: every scalar kind,
// NULL, and a mix of kinds in one argument list.
func TestArgsRoundTrip(t *testing.T) {
	cases := map[string][]types.Value{
		"int":    {int64(-42)},
		"float":  {math.Inf(-1)},
		"string": {"héllo"},
		"bool":   {true},
		"null":   {nil},
		"mixed":  {int64(1 << 60), 2.5, "", false, nil, int64(0)},
	}
	for name, args := range cases {
		got, err := DecodeArgs(EncodeArgs(args))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(args) {
			t.Fatalf("%s: %d args, want %d", name, len(got), len(args))
		}
		for i := range args {
			if got[i] != args[i] {
				t.Fatalf("%s: arg %d = %#v, want %#v", name, i, got[i], args[i])
			}
		}
	}
	if EncodeArgs(nil) != nil {
		t.Fatal("no arguments must encode to nil")
	}
	if got, err := DecodeArgs(nil); err != nil || got != nil {
		t.Fatalf("DecodeArgs(nil) = %v, %v", got, err)
	}
}

// Hostile argument bytes are a typed bad-request error, never a panic.
func TestDecodeArgsHostile(t *testing.T) {
	two := cluster.EncodeDeltas(types.Inserts(types.NewTuple(int64(1)), types.NewTuple(int64(2))))
	hostile := map[string][]byte{
		"unknown format": {0x42, 1, 2},
		"row dictionary": {0xD1, 0, 1, 0, 1, byte(types.KindInt), 2},
		"truncated":      EncodeArgs([]types.Value{int64(7), "x"})[:6],
		"bad int lane":   {0xC3, 1, 1, 1, 0, 0, 1, 0x81, 0x80, 0x80, 0, 0x80},
		"forged rows":    {0xC3, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"two rows":       two,
	}
	for name, b := range hostile {
		_, err := DecodeArgs(b)
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s: err = %v, want ErrBadRequest", name, err)
		}
		if CodeFor(err) != CodeBadRequest {
			t.Fatalf("%s: code %d, want CodeBadRequest", name, CodeFor(err))
		}
	}
}

// ReadMsg refuses a zero or over-limit length prefix before buffering,
// and round-trips a frame WriteMsg wrote.
func TestReadMsgFrameLimits(t *testing.T) {
	for _, n := range []uint32{0, MaxFrame + 1, math.MaxUint32} {
		var hdr [frameHeader]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		if _, err := ReadMsg(bytes.NewReader(hdr[:])); err == nil {
			t.Fatalf("length %d accepted", n)
		}
	}
	var buf bytes.Buffer
	in := cluster.Message{Kind: cluster.MsgQuery, Edge: 3, Payload: []byte(`{"op":"stats"}`)}
	if err := WriteMsg(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMsg(&buf)
	if err != nil || out.Kind != in.Kind || out.Edge != in.Edge || string(out.Payload) != string(in.Payload) {
		t.Fatalf("round trip: %+v, %v", out, err)
	}
}

// A lone header claiming MaxFrame errors, and ReadMsg allocates for the
// bytes that arrived, not for the 64 MiB claimed: the unauthenticated
// Hello reads through it too.
func TestReadMsgForgedLengthAllocatesLittle(t *testing.T) {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadMsg(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a lone header read as a frame")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("a forged header allocated %d bytes", alloc)
	}
}

// A frame longer than the first read chunk round-trips.
func TestReadMsgBeyondFirstChunk(t *testing.T) {
	payload := make([]byte, 300<<10)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	var buf bytes.Buffer
	in := cluster.Message{Kind: cluster.MsgData, Edge: 2, Payload: payload}
	if err := WriteMsg(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMsg(&buf)
	if err != nil || out.Kind != in.Kind || out.Edge != in.Edge || !bytes.Equal(out.Payload, payload) {
		t.Fatalf("round trip: kind %v edge %d, %d payload bytes, %v", out.Kind, out.Edge, len(out.Payload), err)
	}
}

// A request from a client that still sends the retired compaction
// options decodes: the server ignores the two fields and keeps the rest.
func TestRequestWithRetiredCompactionDecodes(t *testing.T) {
	body := `{"op":"stream","src":"SELECT 1","opts":{"batch":64,"compaction":true,"compaction_hw":9,"checkpoint":true}}`
	var req Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	want := QueryOpts{BatchSize: 64, Checkpoint: true}
	if req.Op != OpStream || req.Src != "SELECT 1" || req.Opts == nil || *req.Opts != want {
		t.Fatalf("decoded %+v with opts %+v, want opts %+v", req, req.Opts, want)
	}
}
