package exec_test

import (
	"context"
	"io"
	"testing"
	"time"

	"github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/noded"
)

// startDaemons boots n rexnode worker daemons on loopback sockets inside
// the test process and returns their addresses.
func startDaemons(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	served := make(chan struct{}, n)
	for i := range addrs {
		nd, err := noded.Listen("127.0.0.1:0", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = nd.Addr()
		t.Cleanup(func() { nd.Close() })
		go func() {
			defer func() { served <- struct{}{} }()
			if err := nd.Serve(); err != nil {
				t.Errorf("daemon: %v", err)
			}
		}()
	}
	t.Cleanup(func() {
		for range addrs {
			select {
			case <-served:
			case <-time.After(10 * time.Second):
				t.Error("daemon did not shut down")
				return
			}
		}
	})
	return addrs
}

// TestDrainedQueryShipsAnswerOnly is the result-path count gate, on both
// transports: a drained recursive query (Session.QueryCtx, Stmt.QueryCtx)
// delivers exactly its answer's rows to the requestor, while Stream
// delivers the per-stratum changelog, which here is larger. A second seed
// far from the source makes it so: vertices near it are reached first
// over long paths, and their distances are revised down later.
func TestDrainedQueryShipsAnswerOnly(t *testing.T) {
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			ctx := context.Background()
			opts := []rex.Option{rex.WithDataset("sssp", 300, 1), rex.WithHandlers("sssp-inc"), rex.WithInProc(2)}
			if transport == "tcp" {
				opts[2] = rex.WithTCPPeers(startDaemons(t, 2)...)
			}
			sess, err := rex.Open(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if err := sess.Insert("spseed", rex.NewTuple(int64(150), 40.0)); err != nil {
				t.Fatal(err)
			}
			stmt, err := sess.Prepare(algos.IncSSSPQuery, rex.WithMaxStrata(300))
			if err != nil {
				t.Fatal(err)
			}
			var answer int
			for _, q := range []struct {
				name string
				run  func() (*rex.Result, error)
			}{
				{"Session.QueryCtx", func() (*rex.Result, error) {
					return sess.QueryCtx(ctx, algos.IncSSSPQuery, rex.WithMaxStrata(300))
				}},
				{"Stmt.QueryCtx", func() (*rex.Result, error) { return stmt.QueryCtx(ctx, rex.Options{}) }},
			} {
				before := exec.ResultRows()
				res, err := q.run()
				if err != nil {
					t.Fatalf("%s: %v", q.name, err)
				}
				if got := exec.ResultRows() - before; got != int64(len(res.Tuples)) {
					t.Errorf("%s delivered %d result rows to the requestor for a %d-row answer", q.name, got, len(res.Tuples))
				}
				answer = len(res.Tuples)
			}

			before := exec.ResultRows()
			st, err := sess.Stream(ctx, algos.IncSSSPQuery, rex.WithMaxStrata(300))
			if err != nil {
				t.Fatal(err)
			}
			changelog := 0
			for _, deltas := range st.Seq() {
				changelog += len(deltas)
			}
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}
			if got := exec.ResultRows() - before; got != int64(changelog) {
				t.Errorf("Stream delivered %d result rows to the requestor and yielded %d", got, changelog)
			}
			if changelog <= answer {
				t.Errorf("the stream's changelog has %d rows, no more than the %d-row answer: the gate cannot tell the paths apart", changelog, answer)
			}
		})
	}
}
