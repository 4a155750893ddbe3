package rex_test

import (
	"context"
	"io"
	"testing"
	"time"

	"github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/noded"
	"github.com/rex-data/rex/internal/server"
	"github.com/rex-data/rex/internal/types"
)

// refusalDataset is staged on every deployment so the follow-up query has
// a table to count.
const (
	refusalDataset = "dbpedia"
	refusalSize    = 100
	refusalQuery   = `SELECT count(*) FROM graph`
)

// startNodes boots n rexnode worker daemons on loopback sockets inside the
// test process and returns their addresses.
func startNodes(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	nodes := make([]*noded.Node, n)
	served := make(chan struct{}, n)
	for i := range nodes {
		nd, err := noded.Listen("127.0.0.1:0", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], addrs[i] = nd, nd.Addr()
		go func() {
			defer func() { served <- struct{}{} }()
			_ = nd.Serve()
		}()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
		for range nodes {
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

// startServer runs an in-process rexd staged with the refusal dataset and
// returns its address.
func startServer(t *testing.T) string {
	t.Helper()
	srv, err := server.New(server.Config{Nodes: 2, SubPools: 1, Dataset: refusalDataset, Size: refusalSize, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln.Addr().String()
}

// openDeployments opens one session per deployment shape, each staged with
// the same dataset.
func openDeployments(t *testing.T) map[string]*rex.Session {
	t.Helper()
	ctx := context.Background()
	data := rex.WithDataset(refusalDataset, refusalSize, 1)
	opts := map[string][]rex.Option{
		"inproc": {rex.WithInProc(2), data},
		"tcp":    {rex.WithTCPPeers(startNodes(t, 2)...), data},
		"rexd":   {rex.WithServer(startServer(t))},
	}
	sessions := map[string]*rex.Session{}
	for name, o := range opts {
		sess, err := rex.Open(ctx, o...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Cleanup(func() { sess.Close() })
		sessions[name] = sess
	}
	return sessions
}

// TestBackendRefusals pins every call a deployment cannot serve: each must
// return an error on the backends listed, and leave the session answering
// the next query.
func TestBackendRefusals(t *testing.T) {
	ctx := context.Background()
	plan := exec.NewPlanSpec()
	plan.RootID = plan.Add(&exec.OpSpec{Kind: exec.OpScan, Table: "graph"}).ID
	workload := &rex.Workload{Workload: "sssp", Nodes: 2, Seed: 1, Size: 50, Delta: true, MaxIterations: 50}
	remote := []string{"tcp", "rexd"}

	cases := []struct {
		name     string
		backends []string
		call     func(s *rex.Session) error
	}{
		{"RegisterFunc", remote, func(s *rex.Session) error {
			return s.RegisterFunc("sq", []types.Kind{types.KindInt}, types.KindInt, true,
				func(args []rex.Value) (rex.Value, error) { return args[0], nil })
		}},
		{"JoinHandler", remote, func(s *rex.Session) error {
			return s.JoinHandler("j", rex.Schema("x:Integer"),
				func(l, r *rex.TupleSet, d rex.Delta, fromLeft bool, out *rex.Emitter) error { return nil })
		}},
		{"WhileHandler", remote, func(s *rex.Session) error {
			return s.WhileHandler("w", func(rel *rex.TupleSet, d rex.Delta, out *rex.Emitter) error { return nil })
		}},
		{"RunPlan", remote, func(s *rex.Session) error {
			_, err := s.RunPlan(ctx, plan, rex.Options{})
			return err
		}},
		{"StreamPlan", remote, func(s *rex.Session) error {
			_, err := s.StreamPlan(ctx, plan, rex.Options{})
			return err
		}},
		{"CreateTable", []string{"tcp"}, func(s *rex.Session) error {
			return s.CreateTable("fresh", rex.Schema("x:Integer"), 0)
		}},
		{"RunWorkload", []string{"rexd"}, func(s *rex.Session) error {
			_, err := s.RunWorkload(ctx, workload, nil)
			return err
		}},
		{"StreamWorkload", []string{"rexd"}, func(s *rex.Session) error {
			_, err := s.StreamWorkload(ctx, workload, nil)
			return err
		}},
		{"Kill", []string{"rexd"}, func(s *rex.Session) error { return s.Kill(0) }},
		{"Revive", []string{"rexd"}, func(s *rex.Session) error { return s.Revive(0) }},
		{"KillOutOfRange", []string{"inproc", "tcp", "rexd"}, func(s *rex.Session) error { return s.Kill(99) }},
		{"WithRecovery", []string{"rexd"}, func(s *rex.Session) error {
			_, err := s.QueryCtx(ctx, refusalQuery, rex.WithRecovery(rex.RecoveryRestart))
			return err
		}},
		{"TermFn", []string{"rexd"}, func(s *rex.Session) error {
			_, err := s.QueryCtx(ctx, refusalQuery, rex.WithOptions(rex.Options{
				TermFn: func(stratum, newTuples int) bool { return true },
			}))
			return err
		}},
	}

	sessions := openDeployments(t)
	for _, c := range cases {
		for _, b := range c.backends {
			t.Run(c.name+"/"+b, func(t *testing.T) {
				sess := sessions[b]
				if err := c.call(sess); err == nil {
					t.Fatalf("%s on a %s session succeeded, want a refusal", c.name, b)
				}
				res, err := sess.QueryCtx(ctx, refusalQuery)
				if err != nil {
					t.Fatalf("query after refused %s: %v", c.name, err)
				}
				if n, _ := types.AsInt(res.Tuples[0][0]); n == 0 {
					t.Fatalf("query after refused %s counted no rows", c.name)
				}
			})
		}
	}
}

// A rexd server owns recovery, so a subscription asking for a driver-side
// Recover hook is refused rather than run without it.
func TestServerSubscribeRefusesRecover(t *testing.T) {
	ctx := context.Background()
	sess, err := rex.Open(ctx, rex.WithServer(startServer(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	hook := func(node cluster.NodeID) error { return nil }
	sub, err := sess.Subscribe(ctx, refusalQuery, rex.WithOptions(rex.Options{Recover: hook}))
	if err == nil {
		sub.Close()
		t.Fatal("Subscribe with Recover on a server session succeeded, want a refusal")
	}
	if _, err := sess.QueryCtx(ctx, refusalQuery); err != nil {
		t.Fatalf("query after refused Subscribe: %v", err)
	}
}
