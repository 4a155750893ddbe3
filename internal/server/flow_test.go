package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	rex "github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/bench"
	"github.com/rex-data/rex/internal/noded"
	"github.com/rex-data/rex/internal/srvproto"
)

// closeAndFold ends a server-side subscription and folds its stream into
// the relation it describes.
func closeAndFold(t *testing.T, sub *rex.Subscription) string {
	t.Helper()
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	<-sub.Done()
	if err := sub.Err(); err != nil {
		t.Fatalf("subscription ended with: %v", err)
	}
	return bench.ResultHash(foldStream(sub.Stream()))
}

// queryHash is the hash of a from-scratch answer.
func queryHash(t *testing.T, s *rex.Session, q string) string {
	t.Helper()
	res, err := s.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return bench.ResultHash(res.Tuples)
}

// TestSubscribeOverPeers: rexd in front of TCP daemons boots a standing
// flow from the tables its pool serves — the dataset plus every ingest
// that came before the subscription — and the folded stream equals a
// direct in-process session fed the same changes.
func TestSubscribeOverPeers(t *testing.T) {
	ctx := context.Background()
	addrs := make([]string, 2)
	var served sync.WaitGroup
	for i := range addrs {
		nd, err := noded.Listen("127.0.0.1:0", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = nd.Addr()
		served.Add(1)
		go func() {
			defer served.Done()
			if err := nd.Serve(); err != nil {
				t.Errorf("daemon: %v", err)
			}
		}()
		t.Cleanup(func() { nd.Close() })
	}
	// Cleanups run last-in first-out: the server closes before the
	// daemons, and the daemons are waited for last.
	t.Cleanup(served.Wait)
	_, addr := startServer(t, Config{Peers: addrs, Dataset: "dbpedia", Size: 200, Seed: 3})
	client := dial(t, addr)
	local, err := rex.Open(ctx, rex.WithInProc(2), rex.WithDataset("dbpedia", 200, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	insert := func(round int) {
		t.Helper()
		rows := []rex.Tuple{
			rex.NewTuple(int64(round), int64(1000+round)),
			rex.NewTuple(int64(7), int64(2000+round)),
		}
		if err := client.Insert("graph", rows...); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := local.Insert("graph", rows...); err != nil {
			t.Fatal(err)
		}
	}
	const q = `SELECT srcId, count(*) FROM graph GROUP BY srcId`
	insert(0)
	sub, err := client.Subscribe(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 3; r++ {
		insert(r)
	}
	if got, want := closeAndFold(t, sub), queryHash(t, local, q); got != want {
		t.Fatalf("folded stream %s != direct in-process %s", got, want)
	}
}

// TestFlowCaptureExactlyOnce: a flow boots from the served tables with
// every change applied exactly once — deletes and replacements included,
// an empty table scans as empty, and a subscription registered while
// another receives ingests neither misses nor doubles a batch. Every fold
// must equal the server's own from-scratch answer.
func TestFlowCaptureExactlyOnce(t *testing.T) {
	ctx := context.Background()
	_, addr := startServer(t, Config{Nodes: 2, SubPools: 2})
	admin := dial(t, addr)
	schema := rex.Schema("k:Integer", "v:Integer")
	for _, name := range []string{"t", "e"} {
		if err := admin.CreateTable(name, schema, 0); err != nil {
			t.Fatal(err)
		}
	}
	var rows []rex.Tuple
	for i := 0; i < 40; i++ {
		rows = append(rows, rex.NewTuple(int64(i%9), int64(i)))
	}
	if err := admin.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := admin.Delete("t", rows[3], rows[17]); err != nil {
		t.Fatal(err)
	}
	if err := admin.LoadDeltas("t", []rex.Delta{
		rex.Replace(rows[5], rex.NewTuple(int64(5), int64(500))),  // same key
		rex.Replace(rows[6], rex.NewTuple(int64(42), int64(600))), // moves key
	}); err != nil {
		t.Fatal(err)
	}
	res, err := admin.QueryCtx(ctx, `SELECT * FROM e`)
	if err != nil {
		t.Fatalf("query of an empty declared table: %v", err)
	}
	if len(res.Tuples) != 0 {
		t.Fatalf("empty table returned %d rows", len(res.Tuples))
	}

	const qt = `SELECT k, count(*), sum(v) FROM t GROUP BY k`
	const qe = `SELECT k, count(*) FROM e GROUP BY k`
	subscribe := func(q string) *rex.Subscription {
		t.Helper()
		sub, err := dial(t, addr).Subscribe(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	first := subscribe(qt)
	empty := subscribe(qe)

	// A second subscription registers while the first receives ingests.
	ingester := dial(t, addr)
	const rounds = 12
	ingested := make(chan error, 1)
	go func() {
		for r := 1; r <= rounds; r++ {
			batch := map[string][]rex.Delta{
				"t": {rex.Insert(rex.NewTuple(int64(r%5), int64(100*r)))},
				"e": {rex.Insert(rex.NewTuple(int64(r%3), int64(r)))},
			}
			ack, err := ingester.Ingests(batch)
			if err == nil {
				_, err = ack.Wait(ctx)
			}
			if err != nil {
				ingested <- fmt.Errorf("round %d: %w", r, err)
				return
			}
		}
		ingested <- nil
	}()
	second := subscribe(qt)
	if err := <-ingested; err != nil {
		t.Fatal(err)
	}

	wantT, wantE := queryHash(t, admin, qt), queryHash(t, admin, qe)
	for name, c := range map[string]struct {
		sub  *rex.Subscription
		want string
	}{"first": {first, wantT}, "empty": {empty, wantE}, "second": {second, wantT}} {
		if got := closeAndFold(t, c.sub); got != c.want {
			t.Fatalf("%s subscription folded %s != server query %s", name, got, c.want)
		}
	}
}

// TestCreateTableRejectsUnscannableName: every served table must be
// nameable in RQL, so the server refuses keywords and non-identifiers.
func TestCreateTableRejectsUnscannableName(t *testing.T) {
	_, addr := startServer(t, Config{Nodes: 2})
	s := dial(t, addr)
	for _, name := range []string{"select", "Group", "two words", "9lives", "t-1", ""} {
		err := s.CreateTable(name, rex.Schema("x:Integer"), 0)
		if !errors.Is(err, srvproto.ErrBadRequest) {
			t.Fatalf("CreateTable(%q) err = %v, want ErrBadRequest", name, err)
		}
	}
	if err := s.CreateTable("ok_name2", rex.Schema("x:Integer"), 0); err != nil {
		t.Fatal(err)
	}
}

// TestCloseRightAfterSubscribe: a subscription closed as soon as
// Subscribe returns still ends. The client returns on the round-0
// boundary, so the server must have registered the sub for cancellation
// before writing it; a cancel that found no sub was dropped, and Close
// waited forever for a final frame.
func TestCloseRightAfterSubscribe(t *testing.T) {
	ctx := context.Background()
	_, addr := startServer(t, Config{Nodes: 2})
	s := dial(t, addr)
	if err := s.CreateTable("t", rex.Schema("k:Integer", "v:Integer"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Load("t", []rex.Tuple{rex.NewTuple(int64(1), int64(2))}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sub, err := s.Subscribe(ctx, `SELECT k, count(*) FROM t GROUP BY k`)
		if err != nil {
			t.Fatal(err)
		}
		closed := make(chan error, 1)
		go func() { closed <- sub.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatalf("subscription %d: Close: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("subscription %d: Close did not return", i)
		}
	}
}
