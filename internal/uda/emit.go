package uda

import (
	"fmt"

	"github.com/rex-data/rex/internal/types"
)

// Emitter is where a delta handler writes its output: straight into the
// operator's output batch, in typed column lanes. The typed path appends
// a row without allocating — Begin, then one Int / Float / Str / Value
// call per output column in order, then End:
//
//	out.Begin(types.OpUpdate)
//	out.Value(edge[1])
//	out.Float(rank / degree)
//	if err := out.End(); err != nil {
//		return err
//	}
//
// Once the batch holds a row, each value of a row whose lane already has
// the value's kind goes straight into that lane, and End commits the row:
// it appends the op and counts the row. Any other row — one with a NULL,
// a value of another kind, the wrong column count, a replace, or the
// batch's first row — is staged as scalars and appended by
// DeltaBatch.AppendScalars at End; a row that turns out so midway first
// moves the values it already wrote back to staging. So a column adopts
// and demotes kinds exactly as types.Column.AppendValue does, and only a
// row End accepts ever does either.
//
// A replace row takes its new image's columns, then its old image's.
// Emit copies a row-form delta instead. A row whose column count differs
// from the emitter's width is an error, and nothing of it is written. The
// emitter never retains what it is given, and the batch never shows a
// row that is still open.
type Emitter struct {
	b *types.DeltaBatch // nil until the first row: then a pooled batch
	// width is the column count of every row; 0 until the first row when
	// the owner could not declare it.
	width int
	op    types.Op
	open  bool
	// put counts the open row's values written straight into b's lanes;
	// -1 while the row is staged in row.
	put int
	row []types.Scalar

	flushAt int
	flush   func(*types.DeltaBatch) error
}

// NewEmitter returns an emitter of rows of width columns (0: the first
// row sets it) into a batch of its own.
func NewEmitter(width int) *Emitter {
	return &Emitter{width: width, put: -1}
}

// FlushEvery hands the batch to flush whenever it holds n rows (n ≤ 0:
// only when Flush is called). End and Emit return flush's error.
func (e *Emitter) FlushEvery(n int, flush func(*types.DeltaBatch) error) {
	e.flushAt, e.flush = n, flush
}

// Begin opens a row with annotation op, discarding any row left open.
func (e *Emitter) Begin(op types.Op) {
	if e.put > 0 {
		e.b.DropOpen()
	}
	e.op, e.open, e.row, e.put = op, true, e.row[:0], -1
	if op != types.OpReplace && e.width > 0 && e.b != nil && e.b.Len() > 0 {
		e.put = 0
	}
}

// direct reports whether the open row's next value may go straight into
// its lane.
func (e *Emitter) direct() bool { return e.put >= 0 && e.put < e.width }

// Int supplies the open row's next column.
func (e *Emitter) Int(v int64) {
	if e.direct() && e.b.PutInt(e.put, v) {
		e.put++
		return
	}
	e.stage(types.Scalar{K: types.KindInt, I: v})
}

// Float supplies the open row's next column.
func (e *Emitter) Float(v float64) {
	if e.direct() && e.b.PutFloat(e.put, v) {
		e.put++
		return
	}
	e.stage(types.Scalar{K: types.KindFloat, F: v})
}

// Str supplies the open row's next column.
func (e *Emitter) Str(v string) {
	if e.direct() && e.b.PutStr(e.put, v) {
		e.put++
		return
	}
	e.stage(types.Scalar{K: types.KindString, S: v})
}

// Value supplies the open row's next column as a boxed value (nil for
// NULL); an int64, float64 or string still lands in a typed lane.
func (e *Emitter) Value(v types.Value) {
	if e.direct() && putValue(e.b, e.put, v) {
		e.put++
		return
	}
	e.stage(types.Scalar{V: v})
}

// putValue is the Put of v's kind; false for NULL and non-scalar values.
func putValue(b *types.DeltaBatch, c int, v types.Value) bool {
	switch x := v.(type) {
	case int64:
		return b.PutInt(c, x)
	case float64:
		return b.PutFloat(c, x)
	case string:
		return b.PutStr(c, x)
	case bool:
		return b.PutBool(c, x)
	}
	return false
}

// Field supplies the open row's next column: field c of tuple i of s,
// unboxed and of its stored kind.
func (e *Emitter) Field(s *TupleSet, i, c int) {
	p := s.at(i, c)
	if e.direct() && s.putField(e.b, e.put, p) {
		e.put++
		return
	}
	e.stage(s.scalar(p))
}

// stage appends v to the staged row, first moving the values the open
// row wrote to the lanes back to staging.
func (e *Emitter) stage(v types.Scalar) {
	e.unput()
	e.row = append(e.row, v)
}

// unput moves the values the open row wrote to the lanes back to
// staging, leaving every lane as it was before the row.
func (e *Emitter) unput() {
	if e.put > 0 {
		for c := 0; c < e.put; c++ {
			e.row = append(e.row, e.b.OpenScalar(c))
		}
		e.b.DropOpen()
	}
	e.put = -1
}

// End checks the open row's column count and appends it.
func (e *Emitter) End() error {
	if !e.open {
		return fmt.Errorf("uda: Emitter.End without Begin")
	}
	e.open = false
	if n := e.put; n >= 0 {
		e.put = -1
		if err := e.fit(n); err != nil {
			e.b.DropOpen()
			return err
		}
		e.b.CommitRow(e.op)
		return e.full()
	}
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

// Emit appends a copy of d, including a replace's old image, which must
// have d's width.
func (e *Emitter) Emit(d types.Delta) error {
	if d.Op == types.OpReplace && len(d.Old) != len(d.Tup) {
		return fmt.Errorf("uda: replace old image has %d columns, new image %d", len(d.Old), len(d.Tup))
	}
	if err := e.fit(len(d.Tup)); err != nil {
		return err
	}
	e.Batch().Append(d)
	return e.full()
}

// fit checks a row of n columns against the width, adopting n as the
// width when none is set: every row of the batch has the width. A width
// of 0 stays unset only while the batch is empty, so a zero-column first
// row still fixes it.
func (e *Emitter) fit(n int) error {
	if e.width == 0 && (e.b == nil || e.b.Len() == 0) {
		e.width = n
	}
	if n != e.width {
		return fmt.Errorf("uda: emitted row has %d columns, want %d", n, e.width)
	}
	return nil
}

func (e *Emitter) full() error {
	if e.flushAt > 0 && e.b.Len() >= e.flushAt {
		return e.Flush()
	}
	return nil
}

// Batch returns the rows emitted since the last flush. The batch stays
// the emitter's; a row still open is staged first, so the batch holds
// none of it.
func (e *Emitter) Batch() *types.DeltaBatch {
	e.unput()
	if e.b == nil {
		e.b = types.GetBatch()
	}
	return e.b
}

// Flush hands the emitted rows to the flush function, then empties the
// batch for reuse. The batch is detached while flush runs, so rows
// emitted meanwhile (a push that re-enters the operator) start a fresh
// pooled batch, which the emitter keeps from then on; the detached one
// goes back to the pool unless it grew past types.MaxPooledRows.
func (e *Emitter) Flush() error {
	e.unput()
	b := e.b
	if b == nil || b.Len() == 0 || e.flush == nil {
		return nil
	}
	e.b = nil
	err := e.flush(b)
	if e.b == nil {
		b.Reset()
		e.b = b
	} else if b.Len() <= types.MaxPooledRows {
		types.PutBatch(b)
	}
	return err
}
