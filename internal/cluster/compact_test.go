package cluster

import (
	"testing"

	"github.com/rex-data/rex/internal/types"
)

func keyCol0(t types.Tuple) types.Value { return t[0] }

// sumCol1 merges two δ() deltas by summing column 1 (key in column 0).
func sumCol1(a, b types.Delta) (types.Delta, bool) {
	af, aok := types.AsFloat(a.Tup[1])
	bf, bok := types.AsFloat(b.Tup[1])
	if !aok || !bok {
		return a, false
	}
	return types.Update(types.NewTuple(a.Tup[0], af+bf)), true
}

func TestCompactorAnnihilation(t *testing.T) {
	c := NewCompactor(keyCol0, nil)
	tup := types.NewTuple(int64(1), "x")
	c.Add(types.Insert(tup))
	c.Add(types.Delete(tup))
	if c.Len() != 0 {
		t.Fatalf("live = %d after +/− annihilation", c.Len())
	}
	if got := c.Drain(); len(got) != 0 {
		t.Fatalf("drain = %v, want empty", got)
	}
	added, annihilated, _ := c.Stats()
	if added != 2 || annihilated != 2 {
		t.Fatalf("stats: added=%d annihilated=%d", added, annihilated)
	}
}

func TestCompactorNoFalseAnnihilation(t *testing.T) {
	// A delete of a *different* tuple under the same key must survive.
	c := NewCompactor(keyCol0, nil)
	c.Add(types.Insert(types.NewTuple(int64(1), "x")))
	c.Add(types.Delete(types.NewTuple(int64(1), "y")))
	if got := c.Drain(); len(got) != 2 {
		t.Fatalf("drain = %v, want both deltas", got)
	}
}

func TestCompactorUpsertAndChainFolding(t *testing.T) {
	a := types.NewTuple(int64(1), "a")
	b := types.NewTuple(int64(1), "b")
	cc := types.NewTuple(int64(1), "c")

	// +(a) then →(a⇒b) folds to +(b).
	c := NewCompactor(keyCol0, nil)
	c.Add(types.Insert(a))
	c.Add(types.Replace(a, b))
	got := c.Drain()
	if len(got) != 1 || got[0].Op != types.OpInsert || !got[0].Tup.Equal(b) {
		t.Fatalf("upsert folding: %v", got)
	}

	// →(a⇒b) then →(b⇒c) folds to →(a⇒c).
	c = NewCompactor(keyCol0, nil)
	c.Add(types.Replace(a, b))
	c.Add(types.Replace(b, cc))
	got = c.Drain()
	if len(got) != 1 || got[0].Op != types.OpReplace || !got[0].Old.Equal(a) || !got[0].Tup.Equal(cc) {
		t.Fatalf("chain folding: %v", got)
	}

	// →(a⇒b) then −(b) folds to −(a).
	c = NewCompactor(keyCol0, nil)
	c.Add(types.Replace(a, b))
	c.Add(types.Delete(b))
	got = c.Drain()
	if len(got) != 1 || got[0].Op != types.OpDelete || !got[0].Tup.Equal(a) {
		t.Fatalf("retraction folding: %v", got)
	}
}

func TestCompactorMergesUpdates(t *testing.T) {
	c := NewCompactor(keyCol0, sumCol1)
	c.Add(types.Update(types.NewTuple(int64(1), 1.5)))
	c.Add(types.Update(types.NewTuple(int64(2), 10.0)))
	c.Add(types.Update(types.NewTuple(int64(1), 2.5)))
	c.Add(types.Update(types.NewTuple(int64(1), -1.0)))
	got := c.Drain()
	if len(got) != 2 {
		t.Fatalf("drain = %v, want 2 merged deltas", got)
	}
	byKey := map[int64]float64{}
	for _, d := range got {
		k, _ := types.AsInt(d.Tup[0])
		v, _ := types.AsFloat(d.Tup[1])
		byKey[k] = v
	}
	if byKey[1] != 3.0 || byKey[2] != 10.0 {
		t.Fatalf("merged values: %v", byKey)
	}
	if c.Len() != 0 {
		t.Fatal("drain must reset")
	}
	// Without a merge function, updates pass through unmerged.
	c = NewCompactor(keyCol0, nil)
	c.Add(types.Update(types.NewTuple(int64(1), 1.5)))
	c.Add(types.Update(types.NewTuple(int64(1), 2.5)))
	if got := c.Drain(); len(got) != 2 {
		t.Fatalf("no-merge drain = %v", got)
	}
}

func TestCompactorKeepsPerKeyOrder(t *testing.T) {
	c := NewCompactor(keyCol0, nil)
	a1 := types.NewTuple(int64(1), "a1")
	a2 := types.NewTuple(int64(1), "a2")
	b1 := types.NewTuple(int64(2), "b1")
	c.Add(types.Insert(a1))
	c.Add(types.Insert(b1))
	c.Add(types.Replace(a1, a2)) // folds into the first slot
	got := c.Drain()
	if len(got) != 2 {
		t.Fatalf("drain = %v", got)
	}
	if got[0].Op != types.OpInsert || !got[0].Tup.Equal(a2) {
		t.Fatalf("key 1 should fold to +(a2): %v", got)
	}
	if !got[1].Tup.Equal(b1) {
		t.Fatalf("key 2 delta lost: %v", got)
	}
}

// Kill/Revive vs in-flight encoded batches: sends to a dead destination
// must neither panic nor leak previously buffered frames into the revived
// node's fresh mailbox.
func TestKillReviveWithInFlightBatches(t *testing.T) {
	tr := NewInProcTransport(3)
	batch := types.Inserts(
		types.NewTuple(int64(1), "payload", 2.5),
		types.NewTuple(int64(2), "payload", 3.5),
	)
	// Queue several encoded batches at node 1 without consuming them.
	for i := 0; i < 4; i++ {
		sendData(tr, 0, 1, 5, i, batch)
	}
	if got := tr.InboxLen(1); got != 4 {
		t.Fatalf("in-flight frames = %d, want 4", got)
	}

	tr.Kill(1)
	if fail, ok := tr.Requestor().Get(); !ok || fail.Kind != MsgFailure {
		t.Fatal("missing failure notification")
	}
	// Dead destination: sends must not panic; sender still pays the bytes
	// (the network drops the frame, the NIC already shipped it).
	before := tr.Metrics().BytesSent[0].Load()
	sendData(tr, 0, 1, 5, 9, batch)
	if tr.Metrics().BytesSent[0].Load() <= before {
		t.Fatal("sender must account bytes even to a dead destination")
	}
	if got := tr.InboxLen(1); got != 0 {
		t.Fatalf("dead inbox reports %d queued", got)
	}

	tr.Revive(1)
	// The revived node starts with a fresh mailbox: the pre-failure
	// buffered frames are gone, not leaked into the new epoch.
	if got := tr.InboxLen(1); got != 0 {
		t.Fatalf("revived inbox has %d leaked frames", got)
	}
	sendData(tr, 0, 1, 5, 10, batch)
	msg, ok := tr.Inbox(1).Get()
	if !ok || msg.Kind != MsgData || msg.Stratum != 10 {
		t.Fatalf("post-revive delivery: %+v %v", msg, ok)
	}
	decoded, err := DecodeDeltas(msg.Payload)
	if err != nil || len(decoded) != len(batch) {
		t.Fatalf("post-revive decode: %v %v", decoded, err)
	}
}

// Heavy insert+delete churn keeps the live count near zero; the physical
// buffer must still be observable via Buffered so callers can flush and
// reclaim the annihilated slots.
func TestCompactorBufferedGrowsUnderChurn(t *testing.T) {
	c := NewCompactor(keyCol0, nil)
	for i := 0; i < 100; i++ {
		tup := types.NewTuple(int64(i), "x")
		c.Add(types.Insert(tup))
		c.Add(types.Delete(tup))
	}
	if c.Len() != 0 {
		t.Fatalf("live = %d, want 0", c.Len())
	}
	if c.Buffered() != 100 {
		t.Fatalf("buffered = %d, want 100 annihilated slots", c.Buffered())
	}
	if got := c.Drain(); len(got) != 0 {
		t.Fatalf("drain = %v", got)
	}
	if c.Buffered() != 0 {
		t.Fatalf("buffered = %d after drain", c.Buffered())
	}
}
