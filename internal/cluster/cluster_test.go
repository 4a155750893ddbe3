package cluster

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"github.com/rex-data/rex/internal/types"
)

func TestRingOwnersDistinctAndStable(t *testing.T) {
	r := NewRing(5, 64, 3)
	if r.Replication() != 3 || len(r.Nodes()) != 5 {
		t.Fatal("ring metadata")
	}
	for h := uint64(0); h < 1000; h += 37 {
		owners := r.Owners(splitmix64(h))
		if len(owners) != 3 {
			t.Fatalf("want 3 owners, got %v", owners)
		}
		seen := map[NodeID]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("duplicate owner in %v", owners)
			}
			seen[o] = true
		}
		// stability
		again := r.Owners(splitmix64(h))
		for i := range owners {
			if owners[i] != again[i] {
				t.Fatal("owners not deterministic")
			}
		}
	}
}

func TestRingReplicationCap(t *testing.T) {
	r := NewRing(2, 16, 5)
	if r.Replication() != 2 {
		t.Fatal("replication must cap at node count")
	}
	if got := len(r.Owners(12345)); got != 2 {
		t.Fatalf("owners = %d", got)
	}
}

func TestRingBalance(t *testing.T) {
	// With enough virtual nodes the primary-ownership distribution should
	// be roughly balanced (the ablation DESIGN.md calls out).
	r := NewRing(8, 128, 1)
	counts := map[NodeID]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[r.Owners(types.HashValue(int64(i)))[0]]++
	}
	want := keys / 8
	for n, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("node %d owns %d keys, want within [%d,%d]", n, c, want/2, want*2)
		}
	}
}

func TestSnapshotFailover(t *testing.T) {
	r := NewRing(4, 64, 2)
	snap := NewSnapshot(r, []NodeID{0, 1, 2, 3})
	h := types.HashValue(int64(42))
	primary, err := snap.Primary(h)
	if err != nil {
		t.Fatal(err)
	}
	owners := r.Owners(h)
	if primary != owners[0] {
		t.Fatal("primary must be first owner when all alive")
	}
	// Kill the primary: the replica takes over.
	snap2 := snap.Without(primary)
	if snap2.Alive(primary) {
		t.Fatal("Without must remove node")
	}
	p2, err := snap2.Primary(h)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != owners[1] {
		t.Fatalf("takeover should be the replica %v, got %v", owners[1], p2)
	}
	if got := len(snap2.AliveNodes()); got != 3 {
		t.Fatalf("alive nodes = %d", got)
	}
	// Even with every configured owner dead, Primary falls back to some
	// alive node rather than failing.
	s := snap
	for _, o := range owners {
		s = s.Without(o)
	}
	if _, err := s.Primary(h); err != nil {
		t.Fatalf("fallback primary: %v", err)
	}
}

// Primary runs once per shuffled delta and once per scanned row: it must
// not allocate, and walking the ring in place must agree with its
// definition over Owners — the first alive owner, else the first alive
// node in ring order — for any set of dead nodes.
func TestSnapshotPrimaryAllocFreeAndEqualsOwners(t *testing.T) {
	r := NewRing(5, 16, 3)
	snap := NewSnapshot(r, r.Nodes()).Without(1)
	var sink NodeID
	if allocs := testing.AllocsPerRun(200, func() {
		n, _ := snap.Primary(0x9e3779b97f4a7c15)
		sink += n
	}); allocs != 0 {
		t.Fatalf("Primary allocates %v times per call", allocs)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		var alive []NodeID
		for _, n := range r.Nodes() {
			if rng.Intn(3) > 0 {
				alive = append(alive, n)
			}
		}
		s := NewSnapshot(r, alive)
		h := rng.Uint64()
		got, err := s.Primary(h)
		if len(alive) == 0 {
			if err == nil {
				t.Fatal("Primary over an empty snapshot must fail")
			}
			continue
		}
		want := NodeID(-1)
		for _, o := range r.Owners(h) {
			if s.Alive(o) {
				want = o
				break
			}
		}
		if want < 0 {
			all := NewRing(5, 16, 5).Owners(h) // every node, in ring order from h
			for _, o := range all {
				if s.Alive(o) {
					want = o
					break
				}
			}
		}
		if err != nil || got != want {
			t.Fatalf("hash %x alive %v: Primary = %v, %v; want %v", h, alive, got, err, want)
		}
	}
}

// Property: every key has exactly min(replication, n) distinct owners and
// the primary is always among them.
func TestRingOwnersProperty(t *testing.T) {
	r := NewRing(7, 32, 3)
	snap := NewSnapshot(r, r.Nodes())
	f := func(key int64) bool {
		h := types.HashValue(key)
		owners := r.Owners(h)
		if len(owners) != 3 {
			return false
		}
		p, err := snap.Primary(h)
		return err == nil && p == owners[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Owners runs per loaded row and per ingested delta: it answers from the
// ring's precomputed table without allocating.
func TestRingOwnersDoesNotAllocate(t *testing.T) {
	r := NewRing(5, 16, 3)
	var sink int
	if allocs := testing.AllocsPerRun(200, func() {
		sink += len(r.Owners(0x9e3779b97f4a7c15))
	}); allocs != 0 {
		t.Fatalf("Owners allocates %v times per call, want 0", allocs)
	}
}

// walkOwners0 is Owners as it was before the per-segment table: a fresh
// walk of the ring from h's segment, found by binary search.
func walkOwners0(r *Ring, h uint64) []NodeID {
	idx := binarySegmentOf(r, h)
	owners := make([]NodeID, 0, r.replication)
	for i := 0; len(owners) < r.replication && i < len(r.entries); i++ {
		j := idx + i
		if j >= len(r.entries) {
			j -= len(r.entries)
		}
		if n := r.entries[j].node; !slices.Contains(owners, n) {
			owners = append(owners, n)
		}
	}
	return owners
}

// binarySegmentOf is SegmentOf as it was before the top-bits table: a
// binary search of the sorted entries.
func binarySegmentOf(r *Ring, h uint64) int {
	lo, hi := 0, len(r.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.entries[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.entries) {
		return 0
	}
	return lo
}

// probeHashes lists the hashes where a segment lookup can go wrong: every
// entry's hash and its neighbours, both ends of the hash space, and
// random hashes.
func probeHashes(r *Ring, rng *rand.Rand, random int) []uint64 {
	hs := []uint64{0, 1, ^uint64(0), ^uint64(0) - 1}
	for _, e := range r.entries {
		hs = append(hs, e.hash-1, e.hash, e.hash+1)
	}
	for k := 0; k < random; k++ {
		hs = append(hs, rng.Uint64())
	}
	return hs
}

// The table-backed SegmentOf answers exactly what a binary search of the
// entries does, over rings of 1–8 nodes × {1, 7, 64} virtual nodes.
func TestSegmentOfMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 8; n++ {
		for _, vnodes := range []int{1, 7, 64} {
			r := NewRing(n, vnodes, 1)
			for _, h := range probeHashes(r, rng, 10000) {
				if got, want := r.SegmentOf(h), binarySegmentOf(r, h); got != want {
					t.Fatalf("%d nodes × %d vnodes, hash %#x: SegmentOf = %d, binary search = %d", n, vnodes, h, got, want)
				}
			}
		}
	}
}

// The precomputed owner lists answer exactly what a fresh walk of the
// ring does, over rings of 1–8 nodes × replication 1–3.
func TestRingOwnersMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 1; n <= 8; n++ {
		for rep := 1; rep <= 3; rep++ {
			for _, vnodes := range []int{1, 7, 64} {
				r := NewRing(n, vnodes, rep)
				for _, h := range probeHashes(r, rng, 500) {
					if got, want := r.Owners(h), walkOwners0(r, h); !slices.Equal(got, want) {
						t.Fatalf("%d nodes rep %d × %d vnodes, hash %#x: Owners = %v, walk = %v", n, rep, vnodes, h, got, want)
					}
				}
			}
		}
	}
}

// Owners' linear distinctness check answers exactly what a seen-set walk
// of the ring does, over random ring shapes and hashes.
func TestRingOwnersEqualsSeenSetWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		r := NewRing(1+rng.Intn(5), 1+rng.Intn(24), 1+rng.Intn(3))
		for k := 0; k < 50; k++ {
			h := rng.Uint64()
			idx := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].hash >= h })
			var want []NodeID
			seen := map[NodeID]bool{}
			for i := 0; len(want) < r.replication && i < len(r.entries); i++ {
				e := r.entries[(idx+i)%len(r.entries)]
				if !seen[e.node] {
					seen[e.node] = true
					want = append(want, e.node)
				}
			}
			if got := r.Owners(h); !slices.Equal(got, want) {
				t.Fatalf("ring %d nodes rep %d hash %x: Owners = %v, want %v", len(r.nodes), r.replication, h, got, want)
			}
		}
	}
}

// The per-segment ownership table agrees with Primary: every hash in a
// segment has the segment's primary, and SegmentOf places every ring entry
// in its own segment (entries sharing a position leave the later ones'
// segments empty).
func TestSegmentPrimaryMatchesPrimary(t *testing.T) {
	r := NewRing(4, 8, 2)
	snap := NewSnapshot(r, r.Nodes()).Without(2)
	for i, e := range r.entries {
		if got := r.SegmentOf(e.hash); got != i && (got > i || r.entries[got].hash != e.hash) {
			t.Fatalf("entry %d hash %x: SegmentOf = %d", i, e.hash, got)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 5000; k++ {
		h := rng.Uint64()
		p, err := snap.Primary(h)
		if err != nil || p != snap.SegmentPrimary(r.SegmentOf(h)) {
			t.Fatalf("hash %x: Primary %v, %v; segment %d primary %v", h, p, err, r.SegmentOf(h), snap.SegmentPrimary(r.SegmentOf(h)))
		}
	}
	if none := NewSnapshot(r, nil); none.SegmentPrimary(0) != -1 {
		t.Fatal("a snapshot with no alive node has a segment primary")
	}
}

func TestMailboxFIFOAndClose(t *testing.T) {
	m := NewMailbox()
	for i := 0; i < 5; i++ {
		m.Put(Message{Count: i})
	}
	if m.Len() != 5 {
		t.Fatal("len")
	}
	for i := 0; i < 5; i++ {
		msg, ok := m.Get()
		if !ok || msg.Count != i {
			t.Fatalf("FIFO violated at %d: %v %v", i, msg.Count, ok)
		}
	}
	done := make(chan bool)
	go func() {
		_, ok := m.Get()
		done <- ok
	}()
	m.Close()
	if <-done {
		t.Fatal("Get after close on empty mailbox must report closed")
	}
	m.Put(Message{}) // no-op after close
	if m.Len() != 0 {
		t.Fatal("Put after close must be dropped")
	}
}

func TestMailboxConcurrent(t *testing.T) {
	m := NewMailbox()
	const producers, each = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				m.Put(Message{Count: 1})
			}
		}()
	}
	got := 0
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			msg, ok := m.Get()
			if !ok {
				return
			}
			got += msg.Count
			if got == producers*each {
				return
			}
		}
	}()
	wg.Wait()
	<-recvDone
	if got != producers*each {
		t.Fatalf("received %d of %d", got, producers*each)
	}
}

// sendData ships a row batch along a plan edge the way a sender does:
// encode, then Send. It returns the encoded payload size.
func sendData(tr Transport, from, to NodeID, edge, stratum int, batch []types.Delta) int {
	payload := EncodeDeltas(batch)
	tr.Send(Message{
		From: from, To: to, Edge: edge, Stratum: stratum,
		Kind: MsgData, Payload: payload, Count: len(batch),
	})
	return len(payload)
}

func TestTransportAccountingAndFailure(t *testing.T) {
	tr := NewInProcTransport(3)
	batch := types.Inserts(types.NewTuple(int64(1), 2.5))
	n := sendData(tr, 0, 1, 7, 0, batch)
	if n <= 0 {
		t.Fatal("encoded size must be positive")
	}
	msg, ok := tr.Inbox(1).Get()
	if !ok || msg.Kind != MsgData || msg.Edge != 7 {
		t.Fatalf("delivery: %+v %v", msg, ok)
	}
	decoded, err := DecodeDeltas(msg.Payload)
	if err != nil || len(decoded) != 1 || !decoded[0].Tup.Equal(batch[0].Tup) {
		t.Fatal("payload round trip")
	}
	// BytesSent counts full frame bytes: payload plus the wire header.
	sent := tr.Metrics().BytesSent[0].Load()
	if sent <= int64(n) || tr.Metrics().BytesReceived[1].Load() != sent {
		t.Fatalf("byte accounting: sent=%d payload=%d", sent, n)
	}
	// Loopback is free.
	sendData(tr, 2, 2, 1, 0, batch)
	if tr.Metrics().BytesSent[2].Load() != 0 {
		t.Fatal("self-send must not count as network traffic")
	}
	if _, ok := tr.Inbox(2).Get(); !ok {
		t.Fatal("self-send must still deliver")
	}
	// Failure: node 1 dies → requestor notified, sends from 1 dropped.
	tr.Kill(1)
	if tr.Alive(1) {
		t.Fatal("killed node still alive")
	}
	fail, ok := tr.Requestor().Get()
	if !ok || fail.Kind != MsgFailure || fail.From != 1 {
		t.Fatalf("failure notification: %+v", fail)
	}
	before := tr.Metrics().BytesSent[1].Load()
	sendData(tr, 1, 0, 1, 0, batch) // from dead node: dropped
	if tr.Metrics().BytesSent[1].Load() != before {
		t.Fatal("dead node must not send")
	}
	if got := len(tr.AliveNodes()); got != 2 {
		t.Fatalf("alive = %d", got)
	}
	tr.Kill(1) // double kill is a no-op
	tr.Revive(1)
	if !tr.Alive(1) {
		t.Fatal("revive failed")
	}
	tr.Revive(1) // no-op
}

func TestTransportBroadcastAndDecision(t *testing.T) {
	tr := NewInProcTransport(3)
	tr.Broadcast(Message{From: -1, Kind: MsgDecision, Stratum: 2, Terminate: true})
	for i := 0; i < 3; i++ {
		msg, ok := tr.Inbox(NodeID(i)).Get()
		if !ok || msg.Kind != MsgDecision || !msg.Terminate || msg.Stratum != 2 {
			t.Fatalf("node %d decision: %+v", i, msg)
		}
	}
	tr.SendToRequestor(Message{From: 2, Kind: MsgVote, Count: 5})
	msg, ok := tr.Requestor().Get()
	if !ok || msg.Kind != MsgVote || msg.Count != 5 {
		t.Fatal("vote delivery")
	}
	tr.Metrics().Reset()
	if tr.Metrics().TotalBytesSent() != 0 {
		t.Fatal("reset")
	}
	tr.CloseAll()
	if _, ok := tr.Requestor().Get(); ok {
		t.Fatal("closed requestor should drain empty")
	}
}

func TestSendOutOfRange(t *testing.T) {
	tr := NewInProcTransport(1)
	tr.Send(Message{From: 0, To: 99}) // must not panic
	tr.Send(Message{From: 0, To: -1})
}
