package cluster

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/rex-data/rex/internal/types"
)

// getTimeout polls a mailbox so a broken delivery path fails the test
// instead of hanging it.
func getTimeout(t *testing.T, m *Mailbox, what string) Message {
	t.Helper()
	done := make(chan Message, 1)
	go func() {
		if msg, ok := m.Get(); ok {
			done <- msg
		}
	}()
	select {
	case msg := <-done:
		return msg
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return Message{}
	}
}

// tcpPair builds a configured node transport and a driver attached to it
// (single-node cluster over loopback).
func tcpPair(t *testing.T) (*TCPTransport, *TCPTransport) {
	t.Helper()
	node, err := ListenTCPNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	drv, err := NewTCPDriver([]string{node.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = drv.Close() })
	gen, err := drv.StartJob([]byte("job"))
	if err != nil {
		t.Fatal(err)
	}
	jobMsg := getTimeout(t, node.Control(), "job frame")
	if jobMsg.Kind != MsgJob || jobMsg.Job != gen || string(jobMsg.Payload) != "job" {
		t.Fatalf("job frame: %+v", jobMsg)
	}
	if err := node.Configure(0, []string{node.Addr()}, jobMsg.Job); err != nil {
		t.Fatal(err)
	}
	return node, drv
}

func TestTCPRoundTripAndAccounting(t *testing.T) {
	node, drv := tcpPair(t)

	// Driver control frame → node inbox.
	drv.Send(Message{From: -1, To: 0, Kind: MsgStart, Epoch: 3})
	msg := getTimeout(t, node.Inbox(0), "start frame")
	if msg.Kind != MsgStart || msg.Epoch != 3 {
		t.Fatalf("start: %+v", msg)
	}
	// Control-plane traffic is never counted.
	if drv.Metrics().TotalBytesSent() != 0 {
		t.Fatal("driver control traffic must not count as wire bytes")
	}

	// Node → requestor (vote path).
	node.SendToRequestor(Message{From: 0, Kind: MsgVote, Count: 9})
	vote := getTimeout(t, drv.Requestor(), "vote")
	if vote.Kind != MsgVote || vote.Count != 9 || vote.From != 0 {
		t.Fatalf("vote: %+v", vote)
	}

	// Loopback data skips socket and counters; the batch still arrives.
	batch := types.Inserts(types.NewTuple(int64(7), "x"))
	sendData(node, 0, 0, 5, 1, batch)
	data := getTimeout(t, node.Inbox(0), "loopback batch")
	if data.Kind != MsgData || data.Edge != 5 {
		t.Fatalf("loopback: %+v", data)
	}
	if node.Metrics().BytesSent[0].Load() != 0 {
		t.Fatal("loopback must not count")
	}

	// Stats round trip installs remote counters on the driver.
	node.Metrics().BytesSent[0].Store(1234)
	node.Metrics().CompactIn[0].Store(11)
	if err := drv.applyStats(0, node.StatsPayload()); err != nil {
		t.Fatal(err)
	}
	if drv.Metrics().BytesSent[0].Load() != 1234 || drv.Metrics().CompactIn[0].Load() != 11 {
		t.Fatal("stats did not transfer")
	}
}

func TestTCPKillReviveDropsTraffic(t *testing.T) {
	node, drv := tcpPair(t)

	drv.Kill(0)
	fail := getTimeout(t, drv.Requestor(), "failure notification")
	if fail.Kind != MsgFailure || fail.From != 0 {
		t.Fatalf("failure: %+v", fail)
	}
	if drv.Alive(0) || len(drv.AliveNodes()) != 0 {
		t.Fatal("driver still believes node 0 alive")
	}
	// Kill is processed by the node's reader; wait for the control echo.
	kill := getTimeout(t, node.Control(), "kill control")
	if kill.Kind != MsgKill {
		t.Fatalf("control: %+v", kill)
	}
	if node.Alive(0) {
		t.Fatal("node did not mark itself dead")
	}
	if node.Inbox(0) != nil {
		if _, ok := node.Inbox(0).Get(); ok {
			t.Fatal("dead inbox must drain closed")
		}
	}
	// A dead node sends nothing.
	node.SendToRequestor(Message{From: 0, Kind: MsgVote})
	drv.Revive(0)
	revive := getTimeout(t, node.Control(), "revive control")
	if revive.Kind != MsgRevive {
		t.Fatalf("control: %+v", revive)
	}
	if !node.Alive(0) || !drv.Alive(0) {
		t.Fatal("revive did not restore the node")
	}
	// The re-armed inbox delivers again.
	drv.Send(Message{From: -1, To: 0, Kind: MsgDecision, Stratum: 4})
	dec := getTimeout(t, node.Inbox(0), "post-revive decision")
	if dec.Kind != MsgDecision || dec.Stratum != 4 {
		t.Fatalf("decision: %+v", dec)
	}
	// The suppressed dead-node vote must not surface later.
	drv.Send(Message{From: -1, To: 0, Kind: MsgShutdown})
	sd := getTimeout(t, node.Inbox(0), "shutdown")
	if sd.Kind != MsgShutdown {
		t.Fatalf("expected shutdown, got stale %+v", sd)
	}
}

func TestTCPStaleGenerationDropped(t *testing.T) {
	node, drv := tcpPair(t)
	// Next generation: frames stamped with the old one must not reach
	// the new inbox.
	if _, err := drv.StartJob([]byte("job2")); err != nil {
		t.Fatal(err)
	}
	jobMsg := getTimeout(t, node.Control(), "job2")
	if err := node.Configure(0, []string{node.Addr()}, jobMsg.Job); err != nil {
		t.Fatal(err)
	}
	// Hand-craft a stale-generation data frame straight onto the socket.
	stale := EncodeFrame(Message{From: 1, To: 0, Kind: MsgData, Job: jobMsg.Job - 1})
	fresh := EncodeFrame(Message{From: -1, To: 0, Kind: MsgDecision, Job: jobMsg.Job, Stratum: 8})
	nc, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	for _, frame := range [][]byte{stale, fresh} {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
		if _, err := nc.Write(append(hdr[:], frame...)); err != nil {
			t.Fatal(err)
		}
	}
	got := getTimeout(t, node.Inbox(0), "fresh frame")
	if got.Kind != MsgDecision || got.Stratum != 8 {
		t.Fatalf("stale frame leaked through: %+v", got)
	}
}

// TestTCPUnconfiguredNodeCanReportErrors: a daemon whose job failed
// before Configure (so self is still -1 and the local generation stale)
// must still get an error frame back to the driver — SendControl bypasses
// the alive/configured checks and echoes the failing job's generation so
// the driver's stale-frame filter admits it.
func TestTCPUnconfiguredNodeCanReportErrors(t *testing.T) {
	node, err := ListenTCPNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	drv, err := NewTCPDriver([]string{node.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = drv.Close() })
	gen, err := drv.StartJob([]byte("broken job payload"))
	if err != nil {
		t.Fatal(err)
	}
	jobMsg := getTimeout(t, node.Control(), "job frame")
	// Deliberately skip Configure: reply as the daemon's error path does.
	node.SendControl(Message{From: jobMsg.To, Kind: MsgError, Table: "bad spec", Job: jobMsg.Job})
	errMsg := getTimeout(t, drv.Requestor(), "error reply")
	if errMsg.Kind != MsgError || errMsg.Table != "bad spec" || errMsg.Job != gen {
		t.Fatalf("error reply: %+v", errMsg)
	}
}

func TestReadFrameHardening(t *testing.T) {
	// Oversized length must be rejected before allocation.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], tcpMaxFrame+1)
	buf.Write(hdr[:])
	if _, err := readFrame(&buf); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("oversized frame: %v", err)
	}
	// Zero length is never legal (frames have at least a header byte).
	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], 0)
	buf.Write(hdr[:])
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	// Truncated body errors instead of blocking forever.
	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], 10)
	buf.Write(hdr[:])
	buf.Write([]byte("abc"))
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// A well-formed frame round-trips.
	frame := EncodeFrame(Message{From: 2, To: 1, Kind: MsgPunct, Stratum: 6, Job: 3})
	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
	buf.Write(hdr[:])
	buf.Write(frame)
	got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := DecodeFrame(got)
	if err != nil || msg.Kind != MsgPunct || msg.Stratum != 6 || msg.Job != 3 {
		t.Fatalf("round trip: %+v %v", msg, err)
	}
}

// A daemon that dies while the driver syncs metrics ends the sync instead
// of running it into its timeout, and its failure frame is still there
// for the requestor afterwards.
func TestSyncMetricsNodeDiesMidSync(t *testing.T) {
	var nodes []*TCPTransport
	var addrs []string
	for i := 0; i < 2; i++ {
		node, err := ListenTCPNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		nodes, addrs = append(nodes, node), append(addrs, node.Addr())
	}
	drv, err := NewTCPDriver(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = drv.Close() })
	gen, err := drv.StartJob([]byte("job"))
	if err != nil {
		t.Fatal(err)
	}
	for i, node := range nodes {
		getTimeout(t, node.Control(), "job frame")
		if err := node.Configure(NodeID(i), addrs, gen); err != nil {
			t.Fatal(err)
		}
	}
	// Node 0 answers; node 1 is found dead with the request unanswered.
	go func() {
		if msg, ok := nodes[0].Control().Get(); ok && msg.Kind == MsgStatsReq {
			nodes[0].SendControl(Message{From: 0, Kind: MsgStats, Payload: nodes[0].StatsPayload()})
		}
	}()
	go func() {
		if msg, ok := nodes[1].Control().Get(); ok && msg.Kind == MsgStatsReq {
			drv.Kill(1)
		}
	}()
	start := time.Now()
	if err := drv.SyncMetrics(); err != nil {
		t.Fatalf("sync with a node dying: %v", err)
	}
	if d := time.Since(start); d > tcpSyncTimeout/2 {
		t.Fatalf("sync took %v", d)
	}
	if msg := getTimeout(t, drv.Requestor(), "failure frame"); msg.Kind != MsgFailure || msg.From != 1 {
		t.Fatalf("requestor got %+v, want node 1's failure", msg)
	}
}

// A lone header claiming the largest legal frame errors, and the reader
// allocates for the bytes that arrived, not for the 64 MiB claimed.
func TestReadFrameForgedLengthAllocatesLittle(t *testing.T) {
	var hdr [tcpFrameHeader]byte
	binary.BigEndian.PutUint32(hdr[:], tcpMaxFrame)
	var err error
	if alloc := allocated(func() { _, err = readFrame(bytes.NewReader(hdr[:])) }); alloc > 1<<20 {
		t.Fatalf("a forged header allocated %d bytes", alloc)
	}
	if err == nil {
		t.Fatal("a lone header read as a frame")
	}
}

// Frames longer than the first read chunk round-trip, and one cut short
// mid-chunk errors.
func TestReadFrameBeyondFirstChunk(t *testing.T) {
	for _, n := range []int{bodyChunk, bodyChunk + 1, 5*bodyChunk + 7} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 7)
		}
		var hdr [tcpFrameHeader]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(n))
		in := append(hdr[:], body...)
		got, err := readFrame(bytes.NewReader(in))
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%d-byte frame: %d bytes back, %v", n, len(got), err)
		}
		if n > bodyChunk {
			if _, err := readFrame(bytes.NewReader(in[:len(in)-1])); err != io.ErrUnexpectedEOF {
				t.Fatalf("%d-byte frame cut short: %v", n, err)
			}
		}
	}
	// A body of up to one chunk takes exactly one allocation.
	r := bytes.NewReader(make([]byte, bodyChunk))
	if allocs := testing.AllocsPerRun(1, func() { r.Seek(0, io.SeekStart); ReadBody(r, bodyChunk) }); allocs != 1 {
		t.Fatalf("a %d-byte body took %v allocations", bodyChunk, allocs)
	}
	if alloc := allocated(func() { r.Seek(0, io.SeekStart); ReadBody(r, bodyChunk) }); alloc > bodyChunk+512 {
		t.Fatalf("a %d-byte body allocated %d bytes", bodyChunk, alloc)
	}
	// A large honest body grows in few steps: 64 KiB, 256 KiB, then n.
	big := 1 << 20
	r = bytes.NewReader(make([]byte, big))
	if allocs := testing.AllocsPerRun(1, func() { r.Seek(0, io.SeekStart); ReadBody(r, big) }); allocs > 3 {
		t.Fatalf("a %d-byte body took %v allocations", big, allocs)
	}
	if alloc := allocated(func() { r.Seek(0, io.SeekStart); ReadBody(r, big) }); alloc > uint64(big)*3/2 {
		t.Fatalf("a %d-byte body allocated %d bytes", big, alloc)
	}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTCPMalformedFramePoisonsConn: a frame that fails decode kills the
// connection (framing cannot resynchronize), but a fresh connection still
// works — the daemon survives garbage input.
func TestTCPMalformedFramePoisonsConn(t *testing.T) {
	node, drv := tcpPair(t)
	nc, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	garbage := []byte{0xFF, 0xFF, 0xFF}
	binary.BigEndian.PutUint32(hdr[:], uint32(len(garbage)))
	if _, err := nc.Write(append(hdr[:], garbage...)); err != nil {
		t.Fatal(err)
	}
	// The reader should close the poisoned connection.
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	one := make([]byte, 1)
	if _, err := nc.Read(one); err == nil {
		t.Fatal("poisoned connection left open")
	}
	_ = nc.Close()
	// Healthy traffic still flows on the driver's own connection.
	drv.Send(Message{From: -1, To: 0, Kind: MsgStart, Epoch: 1})
	msg := getTimeout(t, node.Inbox(0), "post-garbage start")
	if msg.Kind != MsgStart {
		t.Fatalf("start: %+v", msg)
	}
}

func TestMailboxReleasesDrainedPrefix(t *testing.T) {
	m := NewMailbox()
	// Interleaved puts/gets must preserve FIFO order while the head
	// index compacts the backing array.
	next, got := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 37; i++ {
			m.Put(Message{Count: next, Payload: make([]byte, 1024)})
			next++
		}
		for i := 0; i < 31; i++ {
			msg, ok := m.Get()
			if !ok || msg.Count != got {
				t.Fatalf("round %d: got %d (ok=%v), want %d", round, msg.Count, ok, got)
			}
			got++
		}
		if want := next - got; m.Len() != want {
			t.Fatalf("round %d: len=%d want %d", round, m.Len(), want)
		}
	}
	for got < next {
		msg, ok := m.Get()
		if !ok || msg.Count != got {
			t.Fatalf("drain: got %d (ok=%v), want %d", msg.Count, ok, got)
		}
		got++
	}
	if m.Len() != 0 {
		t.Fatalf("drained mailbox reports len %d", m.Len())
	}
	// After a full drain the queue must have reset its head (the
	// backing array is reused from index 0, not grown forever).
	if m.head != 0 || len(m.queue) != 0 {
		t.Fatalf("queue not compacted: head=%d len=%d", m.head, len(m.queue))
	}
}
