package rex

import (
	"context"
	"errors"
	"testing"
)

// TestSentinelErrors asserts the typed sentinels with errors.Is on the
// in-process paths (the server paths are covered in internal/server).
func TestSentinelErrors(t *testing.T) {
	ctx := context.Background()
	sess, err := Open(ctx, WithInProc(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.QueryCtx(ctx, `SELECT x FROM nope`); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("unknown table: err = %v, want ErrUnknownTable", err)
	}
	if err := sess.CreateTable("t", Schema("x:Integer"), 0); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.QueryCtx(ctx, `SELECT x FROM t`); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("closed session: err = %v, want ErrSessionClosed", err)
	}
	if err := sess.Load("t", []Tuple{NewTuple(int64(1))}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("closed session load: err = %v, want ErrSessionClosed", err)
	}
}
