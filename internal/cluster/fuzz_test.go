package cluster

// Fuzz targets for the two byte parsers every socket and disk feeds: the
// frame header and the delta payload. Tier-1 `go test` runs the committed
// seeds under testdata/fuzz (a lane crasher, a ragged checkpoint payload,
// a replace batch with NULLs); CI fuzzes each target for 30 s.

import (
	"math"
	"reflect"
	"testing"

	"github.com/rex-data/rex/internal/types"
)

// Property: decoding never panics, and whatever decodes materializes and
// re-encodes to identical deltas — as rows, and (for one-run payloads) as
// the lazily decoded batch.
func FuzzDecodeDeltas(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		ds, err := DecodeDeltas(buf)
		_, batch, errAny := DecodeDeltasAny(buf)
		if err != nil {
			if errAny == nil {
				t.Fatalf("DecodeDeltasAny accepted what DecodeDeltas refused: %v", err)
			}
			return
		}
		again, err := DecodeDeltas(EncodeDeltas(ds))
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		sameDeltas(t, "re-encoded rows", again, ds)
		if errAny == nil {
			sameDeltas(t, "batch", batch.Deltas(), ds)
			_, re, err := DecodeDeltasAny(EncodeDeltaBatch(nil, batch))
			if err != nil {
				t.Fatalf("re-encoded batch does not decode: %v", err)
			}
			sameDeltas(t, "re-encoded batch", re.Deltas(), ds)
		}
	})
}

// Property: DecodeFrame never panics, and a decoded frame re-encodes to a
// frame that decodes to the same message.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		msg, err := DecodeFrame(buf)
		if err != nil {
			return
		}
		again, err := DecodeFrame(EncodeFrame(msg))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, msg) {
			t.Fatalf("frame round trip: %+v != %+v", again, msg)
		}
	})
}

// sameDeltas compares delta lists value for value, kinds included, with
// floats compared bitwise so NaN payloads count as preserved.
func sameDeltas(t *testing.T, what string, got, want []types.Delta) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d deltas, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Op != want[i].Op || !sameTuple(got[i].Tup, want[i].Tup) ||
			(want[i].Op == types.OpReplace && !sameTuple(got[i].Old, want[i].Old)) {
			t.Fatalf("%s: delta %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func sameTuple(a, b types.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if reflect.TypeOf(a[i]) != reflect.TypeOf(b[i]) {
			return false
		}
		if x, ok := a[i].(float64); ok {
			if math.Float64bits(x) != math.Float64bits(b[i].(float64)) {
				return false
			}
		} else if a[i] != b[i] {
			return false
		}
	}
	return true
}
