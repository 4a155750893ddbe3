package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	rex "github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/srvproto"
	"github.com/rex-data/rex/internal/types"
)

// rawConn speaks srvproto framing directly, so a test can send bytes the
// rex client would never produce.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(30 * time.Second))
	r := &rawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
	if err := srvproto.WriteMsg(nc, cluster.Message{Kind: cluster.MsgHello,
		Payload: srvproto.EncodeJSON(srvproto.Hello{Version: srvproto.Version})}); err != nil {
		t.Fatal(err)
	}
	if m := r.read(); m.Kind != cluster.MsgHello {
		t.Fatalf("handshake reply %v", m.Kind)
	}
	return r
}

func (r *rawConn) read() cluster.Message {
	r.t.Helper()
	m, err := srvproto.ReadMsg(r.br)
	if err != nil {
		r.t.Fatalf("read: %v (did the server die?)", err)
	}
	return m
}

// request sends req as request id and collects its reply: the rows of
// every data frame, or the error frame that ended it.
func (r *rawConn) request(id int, req srvproto.Request) ([]types.Delta, *cluster.Message) {
	r.t.Helper()
	if err := srvproto.WriteMsg(r.nc, cluster.Message{Kind: cluster.MsgQuery, Edge: id,
		Payload: srvproto.EncodeJSON(req)}); err != nil {
		r.t.Fatal(err)
	}
	var rows []types.Delta
	for {
		m := r.read()
		if m.Edge != id {
			r.t.Fatalf("reply for request %d while waiting on %d", m.Edge, id)
		}
		if m.Kind == cluster.MsgErr {
			return rows, &m
		}
		if len(m.Payload) > 0 {
			ds, err := cluster.DecodeDeltas(m.Payload)
			if err != nil {
				r.t.Fatal(err)
			}
			rows = append(rows, ds...)
		}
		if m.Closed {
			return rows, nil
		}
	}
}

// TestHostilePayloadsOverWire: a client sending corrupt delta payloads —
// as ingest batches or as prepared-statement arguments — gets a typed
// bad-request error, and the server keeps answering it and every other
// client correctly. Before lane checks in decode, the first payload below
// panicked rexd outright.
func TestHostilePayloadsOverWire(t *testing.T) {
	ctx := context.Background()
	_, addr := startServer(t, Config{Nodes: 2})
	admin := dial(t, addr)
	stage(t, admin)
	raw := dialRaw(t, addr)

	const q = `SELECT count(*) FROM graph WHERE srcId > $1`
	want := int64(0)
	for _, row := range graphRows(200, 40) {
		if row[0].(int64) > 10 {
			want++
		}
	}
	check := func(stage string) {
		t.Helper()
		res, err := admin.QueryCtx(ctx, `SELECT count(*) FROM graph WHERE srcId > 10`)
		if err != nil {
			t.Fatalf("%s: admin query: %v", stage, err)
		}
		if n, _ := types.AsInt(res.Tuples[0][0]); n != want {
			t.Fatalf("%s: admin count %d, want %d", stage, n, want)
		}
		rows, errFrame := raw.request(90, srvproto.Request{Op: srvproto.OpStream, Src: q,
			Args: srvproto.EncodeArgs([]types.Value{int64(10)})})
		if errFrame != nil {
			t.Fatalf("%s: raw query: %s", stage, errFrame.Table)
		}
		if len(rows) != 1 || rows[0].Tup[0] != want {
			t.Fatalf("%s: raw count %v, want %d", stage, rows, want)
		}
	}
	check("before")

	crafted := []struct {
		name    string
		payload []byte
	}{
		// An int lane holding a truncated varint, laid out without a run
		// count — what crashed the previous tree. Here it reads as a
		// zero-column run followed by trailing garbage.
		{"old-layout crasher", []byte{0xC3, 1, 1, 0, 0, 1, 0x81, 0x80, 0x80, 0, 0x80}},
		// The same lane in a one-run payload.
		{"bad int lane", []byte{0xC3, 1, 1, 1, 0, 0, 1, 0x81, 0x80, 0x80, 0, 0x80}},
		{"unknown op", []byte{0xC3, 1, 1, 0, 0, 7}},
		{"short float lane", []byte{0xC3, 1, 1, 1, 0, 0, 2, 1, 0}},
	}
	id := 1
	for _, c := range crafted {
		name, payload := c.name, c.payload
		for _, req := range []srvproto.Request{
			{Op: srvproto.OpIngest, Tables: map[string][]byte{"feed": payload}},
			{Op: srvproto.OpStream, Src: q, Args: payload},
		} {
			_, errFrame := raw.request(id, req)
			id++
			if errFrame == nil {
				t.Fatalf("%s %s: accepted", name, req.Op)
			}
			if errFrame.Count != srvproto.CodeBadRequest {
				t.Fatalf("%s %s: error code %d (%s), want CodeBadRequest", name, req.Op, errFrame.Count, errFrame.Table)
			}
			if err := srvproto.Rehydrate(errFrame.Count, errFrame.Table); !errors.Is(err, srvproto.ErrBadRequest) {
				t.Fatalf("%s %s: rehydrated %v, want ErrBadRequest", name, req.Op, err)
			}
		}
	}
	check("after")
	// Nothing half-applied: the rejected ingests left feed untouched.
	res, err := admin.QueryCtx(ctx, `SELECT count(*) FROM feed`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := types.AsInt(res.Tuples[0][0]); n != int64(len(feedRows(0, 7))) {
		t.Fatalf("feed has %d rows after rejected ingests, want %d", n, len(feedRows(0, 7)))
	}
	if err := admin.Insert("feed", rex.NewTuple(int64(99), int64(1))); err != nil {
		t.Fatalf("ingest after rejected ingests: %v", err)
	}
}
