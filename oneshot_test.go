package rex

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/rex-data/rex/internal/algos"
)

// oneShotPath is one way a session runs a one-shot query to its Result.
type oneShotPath struct {
	name string
	run  func(ctx context.Context, s *Session, x execution) (*Result, error)
}

// oneShotPaths are the three one-shot paths, which must agree exactly:
// the drained query QueryCtx runs, a Stream folded by Drain, and the
// buffered RunCtx under a recovery strategy or RunWorkload.
var oneShotPaths = []oneShotPath{
	{"QueryCtx", func(ctx context.Context, s *Session, x execution) (*Result, error) {
		return s.execute(ctx, x, Options{})
	}},
	{"Stream", func(ctx context.Context, s *Session, x execution) (*Result, error) {
		st, err := s.startStream(ctx, x)
		if err != nil {
			return nil, err
		}
		return st.Drain()
	}},
	{"RunCtx", func(ctx context.Context, s *Session, x execution) (*Result, error) {
		return s.run(ctx, x)
	}},
}

// oneShotCase is a recursive query of the one-shot equivalence suite,
// built for one session and option set.
type oneShotCase struct {
	name  string
	build func(s *Session, opts Options) (execution, error)
	// arrivalOrdered marks k-means: its join handler is stateful across
	// arrivals, so its per-stratum Δ sizes, wire bytes and fold traffic
	// vary with cross-peer arrival order from one buffered run to
	// the next (see TestTransportEquivalence). Its answer and its number
	// of strata do not.
	arrivalOrdered bool
}

// workloadCase runs w with opts' kernel setting. The huge batch size
// makes shuffle flushes punctuation-aligned, so wire bytes and fold
// counters repeat exactly from run to run.
func workloadCase(w Workload) oneShotCase {
	return oneShotCase{name: w.Workload, build: func(s *Session, opts Options) (execution, error) {
		w := w
		w.Nodes = s.Nodes()
		w.NoVectorize = opts.NoVectorize
		w.BatchSize = 1 << 20
		return s.be.workload("test", &w, nil)
	}, arrivalOrdered: w.Workload == "kmeans"}
}

// oneShotCases are PageRank, SSSP and k-means as workloads, plus the
// incremental-SSSP RQL recursion over the session's staged dataset.
func oneShotCases() []oneShotCase {
	return []oneShotCase{
		workloadCase(Workload{Workload: "pagerank", Seed: 7, Size: 250, Epsilon: 0.001,
			Delta: true, MaxIterations: 60}),
		workloadCase(Workload{Workload: "sssp", Seed: 7, Size: 300, Source: 0,
			Delta: true, MaxIterations: 300}),
		workloadCase(Workload{Workload: "kmeans", Seed: 7, Size: 120, K: 4, MaxIterations: 100}),
		{name: "rql-sssp", build: func(s *Session, opts Options) (execution, error) {
			opts.BatchSize = 1 << 20
			opts.MaxStrata = 300
			return s.be.query(algos.IncSSSPQuery, opts)
		}},
	}
}

// oneShotDataset stages the RQL case's tables on every transport.
func oneShotDataset() []Option {
	return []Option{WithDataset("sssp", 300, 1), WithHandlers("sssp-inc")}
}

// canonical renders a result's tuples in sorted order, floats rounded
// past the bits where summation order wiggles from run to run (the form
// bench.ResultHash hashes).
func canonical(res *Result) []string {
	out := make([]string, len(res.Tuples))
	for i, t := range res.Tuples {
		var b strings.Builder
		for _, v := range t {
			if f, ok := v.(float64); ok {
				fmt.Fprintf(&b, "%.6g|", f)
			} else {
				fmt.Fprintf(&b, "%#v|", v)
			}
		}
		out[i] = b.String()
	}
	slices.Sort(out)
	return out
}

// sameOneShot reports how got differs from want: tuples, per-stratum Δ
// sizes, wire bytes and fold counters must all be identical; an
// arrival-ordered case is held to its tuples and number of strata.
func sameOneShot(got, want *Result, arrivalOrdered bool) error {
	if g, w := canonical(got), canonical(want); !slices.Equal(g, w) {
		return fmt.Errorf("%d tuples differ from %d", len(g), len(w))
	}
	if len(got.Strata) != len(want.Strata) {
		return fmt.Errorf("%d strata, want %d", len(got.Strata), len(want.Strata))
	}
	if arrivalOrdered {
		return nil
	}
	for i, s := range got.Strata {
		if w := want.Strata[i]; s.Stratum != w.Stratum || s.NewTuples != w.NewTuples {
			return fmt.Errorf("stratum %d: %d/%d new tuples, want %d/%d", i, s.Stratum, s.NewTuples, w.Stratum, w.NewTuples)
		}
	}
	if got.BytesSent != want.BytesSent {
		return fmt.Errorf("BytesSent %d, want %d", got.BytesSent, want.BytesSent)
	}
	if got.CompactIn != want.CompactIn || got.CompactOut != want.CompactOut {
		return fmt.Errorf("fold %d/%d, want %d/%d", got.CompactIn, got.CompactOut, want.CompactIn, want.CompactOut)
	}
	return nil
}

// testOneShotEquivalence runs every case on sess through every path, with
// kernels on and off, against the buffered run. Every case is recursive,
// so its shuffle edges fold; the append leg of the same equivalence runs
// in-process in internal/bench's TestVectorizeModesHashIdentical.
func testOneShotEquivalence(t *testing.T, sess *Session) {
	ctx := context.Background()
	for _, c := range oneShotCases() {
		for _, kernels := range []bool{true, false} {
			opts := Options{NoVectorize: !kernels}
			name := fmt.Sprintf("%s/kernels=%v", c.name, kernels)
			var want *Result
			for _, p := range slices.Backward(oneShotPaths) {
				x, err := c.build(sess, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, err := p.run(ctx, sess, x)
				if err != nil {
					t.Fatalf("%s %s: %v", name, p.name, err)
				}
				if want == nil {
					want = got // RunCtx, the buffered reference
					if len(want.Tuples) == 0 || len(want.Strata) < 3 {
						t.Fatalf("%s: %d tuples over %d strata is no recursion", name, len(want.Tuples), len(want.Strata))
					}
					continue
				}
				if err := sameOneShot(got, want, c.arrivalOrdered); err != nil {
					t.Errorf("%s: %s against RunCtx: %v", name, p.name, err)
				}
			}
		}
	}
}

func TestOneShotEquivalenceInProc(t *testing.T) {
	sess, err := Open(context.Background(), append(oneShotDataset(), WithInProc(3))...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	testOneShotEquivalence(t, sess)
}

func TestOneShotEquivalenceTCP(t *testing.T) {
	sess, err := Open(context.Background(), append(oneShotDataset(), WithTCPPeers(startDaemons(t, 3)...))...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	testOneShotEquivalence(t, sess)
}

// TestCloseCancelsQueryCtx closes the session while a drained QueryCtx is
// between strata: Close must cancel it rather than wait it out, the query
// reports context.Canceled, and the closed session refuses the next one.
func TestCloseCancelsQueryCtx(t *testing.T) {
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			opts := append(oneShotDataset(), WithInProc(2))
			if transport == "tcp" {
				opts[len(opts)-1] = WithTCPPeers(startDaemons(t, 2)...)
			}
			sess, err := Open(context.Background(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			tr, err := sess.be.transport("test")
			if err != nil {
				t.Fatal(err)
			}
			inFlight, release := make(chan struct{}), make(chan struct{})
			hook := Options{MaxStrata: 300, OnStratum: func(s, _ int) {
				if s == 1 {
					close(inFlight)
					<-release // hold the query between strata until Close runs
				}
			}}
			closed := make(chan error, 1)
			go func() {
				<-inFlight
				// Close blocks until the query tears down. The workers idle
				// until this stratum's decision, so the next frame in the
				// requestor's mailbox is the cancellation Close causes:
				// release the hook once it is there.
				queued := tr.Requestor().Len()
				go func() {
					defer close(release)
					for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
						if tr.Requestor().Len() > queued {
							return
						}
						time.Sleep(time.Millisecond)
					}
				}()
				closed <- sess.Close()
			}()
			_, err = sess.QueryCtx(context.Background(), algos.IncSSSPQuery, WithOptions(hook))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("QueryCtx under Close: err = %v, want context.Canceled", err)
			}
			select {
			case err := <-closed:
				if err != nil {
					t.Fatalf("close: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Session.Close did not return")
			}
			if _, err := sess.QueryCtx(context.Background(), algos.IncSSSPQuery); !errors.Is(err, ErrSessionClosed) {
				t.Fatalf("query on the closed session: err = %v, want ErrSessionClosed", err)
			}
		})
	}
}
