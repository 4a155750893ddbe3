package rex_test

import (
	"context"
	"testing"

	"github.com/rex-data/rex"
)

// TestSubscriptionRoundHistoryBounded: a resident subscription that runs
// more rounds than its history keeps reports round 0 and the latest
// rounds, 1 024 in all, on both the in-process and the rexd deployment.
// The in-process teardown Result still sums every round, dropped ones
// included.
func TestSubscriptionRoundHistoryBounded(t *testing.T) {
	const rounds = 1100
	ctx := context.Background()
	for name, opt := range map[string]rex.Option{
		"inproc": rex.WithInProc(2),
		"rexd":   rex.WithServer(startServer(t)),
	} {
		t.Run(name, func(t *testing.T) {
			sess, err := rex.Open(ctx, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if err := sess.CreateTable("hist", rex.Schema("k:Integer", "v:Integer"), 0); err != nil {
				t.Fatal(err)
			}
			sub, err := sess.Subscribe(ctx, `SELECT k, count(*) FROM hist GROUP BY k`)
			if err != nil {
				t.Fatal(err)
			}
			first := sub.Rounds()
			if len(first) != 1 {
				t.Fatalf("%d rounds before any ingest, want 1", len(first))
			}
			bytes, strata := first[0].BytesSent, first[0].Strata
			for r := 1; r <= rounds; r++ {
				st, err := sub.Ingest(ctx, "hist", []rex.Delta{rex.Insert(rex.NewTuple(int64(r%7), int64(r)))})
				if err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				bytes += st.BytesSent
				strata += st.Strata
			}
			got := sub.Rounds()
			if len(got) > 1024 {
				t.Fatalf("kept %d rounds, want <= 1024", len(got))
			}
			if got[0].Round != 0 || got[len(got)-1].Round != rounds {
				t.Fatalf("kept rounds %d..%d, want 0..%d", got[0].Round, got[len(got)-1].Round, rounds)
			}
			for i := 2; i < len(got); i++ {
				if got[i].Round != got[i-1].Round+1 {
					t.Fatalf("kept rounds skip from %d to %d after round 0", got[i-1].Round, got[i].Round)
				}
			}
			if err := sub.Close(); err != nil {
				t.Fatal(err)
			}
			if name != "inproc" {
				return
			}
			res := sub.Stream().Result()
			if res == nil || res.BytesSent != bytes || len(res.Strata) != strata {
				t.Fatalf("teardown result %+v, want %d bytes over %d strata", res, bytes, strata)
			}
		})
	}
}
