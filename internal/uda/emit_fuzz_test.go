package uda

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// stagedEmitter is the emitter as it was before rows went straight into
// the lanes: every row is staged as scalars and appended whole by
// DeltaBatch.AppendScalars at End. FuzzEmitter holds Emitter to it.
type stagedEmitter struct {
	b       *types.DeltaBatch
	width   int
	op      types.Op
	open    bool
	row     []types.Scalar
	flushAt int
	flush   func(*types.DeltaBatch) error
}

func (e *stagedEmitter) Begin(op types.Op) {
	e.op, e.open, e.row = op, true, e.row[:0]
}

func (e *stagedEmitter) Int(v int64) {
	e.row = append(e.row, types.Scalar{K: types.KindInt, I: v})
}

func (e *stagedEmitter) Float(v float64) {
	e.row = append(e.row, types.Scalar{K: types.KindFloat, F: v})
}

func (e *stagedEmitter) Str(v string) {
	e.row = append(e.row, types.Scalar{K: types.KindString, S: v})
}

func (e *stagedEmitter) Value(v types.Value) {
	e.row = append(e.row, types.Scalar{V: v})
}

func (e *stagedEmitter) Field(s *TupleSet, i, c int) {
	e.row = append(e.row, s.scalar(s.at(i, c)))
}

func (e *stagedEmitter) End() error {
	if !e.open {
		return fmt.Errorf("uda: Emitter.End without Begin")
	}
	e.open = false
	row, old := e.row, []types.Scalar(nil)
	if e.op == types.OpReplace {
		half := len(row) / 2
		if len(row) != 2*half {
			return fmt.Errorf("uda: replace row has %d values, want the new image's columns then the old image's", len(row))
		}
		row, old = row[:half], row[half:]
	}
	if err := e.fit(len(row)); err != nil {
		return err
	}
	e.Batch().AppendScalars(e.op, row, old)
	return e.full()
}

func (e *stagedEmitter) Emit(d types.Delta) error {
	if d.Op == types.OpReplace && len(d.Old) != len(d.Tup) {
		return fmt.Errorf("uda: replace old image has %d columns, new image %d", len(d.Old), len(d.Tup))
	}
	if err := e.fit(len(d.Tup)); err != nil {
		return err
	}
	e.Batch().Append(d)
	return e.full()
}

func (e *stagedEmitter) fit(n int) error {
	if e.width == 0 && (e.b == nil || e.b.Len() == 0) {
		e.width = n
	}
	if n != e.width {
		return fmt.Errorf("uda: emitted row has %d columns, want %d", n, e.width)
	}
	return nil
}

func (e *stagedEmitter) full() error {
	if e.flushAt > 0 && e.b.Len() >= e.flushAt {
		return e.Flush()
	}
	return nil
}

func (e *stagedEmitter) Batch() *types.DeltaBatch {
	if e.b == nil {
		e.b = types.GetBatch()
	}
	return e.b
}

func (e *stagedEmitter) Flush() error {
	b := e.b
	if b == nil || b.Len() == 0 || e.flush == nil {
		return nil
	}
	e.b = nil
	err := e.flush(b)
	if e.b == nil {
		b.Reset()
		e.b = b
	}
	return err
}

// encoded is a batch's wire encoding; an empty batch encodes as nothing
// (a pooled batch may keep a stale column count).
func encoded(b *types.DeltaBatch) []byte {
	if b.Len() == 0 {
		return nil
	}
	return cluster.EncodeDeltaBatch(nil, b)
}

// Property: driven by the same calls, Emitter and the staged reference
// return the same errors at the same calls and flush the same batches,
// byte for byte; so does Batch wherever it is read, mid-row included.
// The calls mix kinds (so lanes demote), NULLs and values of no engine
// kind, rows of too few or too many columns, Begin without End, End
// without Begin, replace rows, Emit between values, width-0 emitters and
// FlushEvery thresholds. Header: the width (0–3) and the flush threshold
// (0: only explicit flushes); then one call per byte, its operand (if
// any) in the next byte.
func FuzzEmitter(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		width, every := next()%4, next()%6
		set := &TupleSet{}
		set.Add(types.Tuple(fuzzValues))
		got, ref := NewEmitter(width), &stagedEmitter{width: width}
		var gotOut, refOut [][]byte
		got.FlushEvery(every, func(b *types.DeltaBatch) error { gotOut = append(gotOut, encoded(b)); return nil })
		ref.flushAt, ref.flush = every, func(b *types.DeltaBatch) error { refOut = append(refOut, encoded(b)); return nil }
		ops := [4]types.Op{types.OpInsert, types.OpDelete, types.OpUpdate, types.OpReplace}
		sameErr := func(at string, g, r error) {
			if (g == nil) != (r == nil) || g != nil && g.Error() != r.Error() {
				t.Fatalf("%s: Emitter returned %v, the staged emitter %v", at, g, r)
			}
		}
		for step := 0; len(data) > 0 && step < 256; step++ {
			at := fmt.Sprintf("step %d", step)
			switch call := next() % 10; call {
			case 0:
				op := ops[next()%4]
				got.Begin(op)
				ref.Begin(op)
			case 1:
				v := int64(next()%5 - 2)
				got.Int(v)
				ref.Int(v)
			case 2:
				v, _ := fuzzValues[5+next()%6].(float64) // 0, −0, NaN, 3, 0.5, −Inf
				got.Float(v)
				ref.Float(v)
			case 3:
				v := fuzzValues[11+next()%4].(string)
				got.Str(v)
				ref.Str(v)
			case 4:
				v := fuzzValues[next()%len(fuzzValues)]
				got.Value(v)
				ref.Value(v)
			case 5:
				c := next() % len(fuzzValues)
				got.Field(set, 0, c)
				ref.Field(set, 0, c)
			case 6, 7:
				sameErr(at+" End", got.End(), ref.End())
			case 8:
				tup := make(types.Tuple, next()%4)
				for c := range tup {
					tup[c] = fuzzValues[next()%len(fuzzValues)]
				}
				d := types.Delta{Op: ops[next()%4], Tup: tup}
				if d.Op == types.OpReplace {
					d.Old = make(types.Tuple, len(tup)+next()%2) // sometimes an old image too wide
					for c := range d.Old {
						d.Old[c] = fuzzValues[next()%len(fuzzValues)]
					}
				}
				sameErr(at+" Emit", got.Emit(d), ref.Emit(d))
			case 9:
				if next()%2 == 0 {
					sameErr(at+" Flush", got.Flush(), ref.Flush())
				} else if g, r := encoded(got.Batch()), encoded(ref.Batch()); !bytes.Equal(g, r) {
					t.Fatalf("%s: Batch holds\n%x\nthe staged emitter's\n%x", at, g, r)
				}
			}
			if len(gotOut) != len(refOut) {
				t.Fatalf("%s: Emitter flushed %d batches, the staged emitter %d", at, len(gotOut), len(refOut))
			}
		}
		sameErr("final Flush", got.Flush(), ref.Flush())
		if len(gotOut) != len(refOut) {
			t.Fatalf("Emitter flushed %d batches, the staged emitter %d", len(gotOut), len(refOut))
		}
		for i := range gotOut {
			if !bytes.Equal(gotOut[i], refOut[i]) {
				t.Fatalf("flush %d: Emitter flushed\n%x\nthe staged emitter\n%x", i, gotOut[i], refOut[i])
			}
		}
	})
}
