package pagestore

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay replays arbitrary bytes as a write-ahead log. Replay must
// not panic, the records it returns must end at a commit mark, and
// lastRound must be that mark's round (-1 with no records). Seeds under
// testdata/fuzz/FuzzWALReplay hold a log of every record kind, an
// uncommitted tail, and a torn tail.
func FuzzWALReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, log []byte) {
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, lastRound, err := replayWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			if lastRound != -1 {
				t.Fatalf("no records, lastRound = %d", lastRound)
			}
			return
		}
		end := recs[len(recs)-1]
		if end.kind != walCommit {
			t.Fatalf("records end with kind %q, not a commit mark", end.kind)
		}
		if lastRound != end.round {
			t.Fatalf("lastRound = %d, last commit mark has round %d", lastRound, end.round)
		}
	})
}
