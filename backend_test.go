package rex

import (
	"context"
	"os"
	"testing"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// Load checks every tuple's width against the schema before it touches a
// store: a short tuple errors instead of panicking, a wide one is refused
// like Insert refuses it, and a batch with one bad tuple loads nothing.
func TestLoadRejectsWrongArity(t *testing.T) {
	ctx := context.Background()
	sess, err := Open(ctx, WithInProc(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.CreateTable("t", Schema("a:Integer", "b:Integer"), 1); err != nil {
		t.Fatal(err)
	}
	if err := sess.Load("t", []Tuple{NewTuple(int64(7), int64(8))}); err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]Tuple{
		{NewTuple(int64(1))},
		{NewTuple(int64(1), int64(2), int64(3))},
		{NewTuple(int64(1), int64(2)), NewTuple(int64(3))},
	} {
		if err := sess.Load("t", batch); err == nil {
			t.Errorf("Load(%v) succeeded, want an arity error", batch)
		}
	}
	res, err := sess.QueryCtx(ctx, `SELECT count(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := types.AsInt(res.Tuples[0][0]); n != 1 {
		t.Fatalf("table holds %d rows after refused loads, want the 1 accepted", n)
	}
}

// A failed in-process Open closes the paged stores and checkpoint logs it
// opened: repeated failures leave the descriptor count where it was.
func TestFailedOpenClosesStores(t *testing.T) {
	countFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	before := countFDs()
	for i := 0; i < 5; i++ {
		sess, err := Open(context.Background(), WithInProc(2), WithSpillDir(t.TempDir()), WithDataset("nope", 10, 1))
		if err == nil {
			sess.Close()
			t.Fatal("Open with an unknown dataset succeeded")
		}
	}
	if after := countFDs(); after > before+1 {
		t.Fatalf("five failed Opens left %d descriptors open (%d before, %d after)", after-before, before, after)
	}
}

// The TCP backend carries every driver-side option into the run, Recover
// included.
func TestDriverTuneCarriesRecover(t *testing.T) {
	called := false
	var o Options
	driverTune(Options{Recover: func(cluster.NodeID) error { called = true; return nil }})(&o)
	if o.Recover == nil {
		t.Fatal("driverTune dropped Recover")
	}
	_ = o.Recover(0)
	if !called {
		t.Fatal("driverTune installed a different Recover")
	}
}
