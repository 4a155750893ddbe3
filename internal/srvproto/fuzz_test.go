package srvproto

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// Property: ReadMsg returns a message or an error on any byte stream and
// never panics, and a message it returns survives WriteMsg → ReadMsg
// unchanged. The same bytes read as a frame body: a message the frame
// codec decodes from them must come back from WriteMsg → ReadMsg. Seeds
// under testdata/fuzz run in every `go test`.
func FuzzReadMsg(f *testing.F) {
	roundTrip := func(t *testing.T, msg cluster.Message) {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteMsg(&buf, msg); err != nil {
			t.Fatalf("WriteMsg: %v", err)
		}
		again, err := ReadMsg(&buf)
		if err != nil {
			t.Fatalf("written frame does not read: %v", err)
		}
		if !reflect.DeepEqual(again, msg) {
			t.Fatalf("frame round trip: %+v != %+v", again, msg)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if msg, err := ReadMsg(bytes.NewReader(data)); err == nil {
			roundTrip(t, msg)
		}
		if msg, err := cluster.DecodeFrame(data); err == nil {
			roundTrip(t, msg)
		}
	})
}

// Property: DecodeArgs either refuses its input with an error wrapping
// ErrBadRequest, or returns arguments whose EncodeArgs form decodes to
// the same arguments, kinds included.
func FuzzDecodeArgs(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		args, err := DecodeArgs(data)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("refusal does not wrap ErrBadRequest: %v", err)
			}
			return
		}
		again, err := DecodeArgs(EncodeArgs(args))
		if err != nil {
			t.Fatalf("re-encoded arguments do not decode: %v", err)
		}
		if !sameValues(again, args) {
			t.Fatalf("argument round trip: %#v != %#v", again, args)
		}
	})
}

// sameValues compares argument lists kind for kind, floats bitwise so a
// NaN payload counts as preserved.
func sameValues(a, b []types.Value) bool {
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
