// Columnar wire codec for DeltaBatch. The encoded layout IS the in-memory
// layout: a row count, the Op vector as raw bytes, then each column as a
// repr byte, optional validity bitmap, and a length-prefixed payload.
// DecodeDeltaBatch aliases the ops/bitmap/payload spans out of the input
// buffer after one bounds-checked walk over each payload, so column values
// materialize lazily, on first access, via Column.mat — which can then no
// longer fail.
package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// colNullsFlag marks a column header whose validity bitmap follows.
const colNullsFlag byte = 0x80

// AppendDeltaBatch appends the columnar encoding of b to buf. Columns
// still lazy (decoded but never touched) are re-emitted from their raw
// payload spans without materializing.
func AppendDeltaBatch(buf []byte, b *DeltaBatch) []byte {
	buf = binary.AppendUvarint(buf, uint64(b.n))
	buf = binary.AppendUvarint(buf, uint64(len(b.cols)))
	buf = binary.AppendUvarint(buf, uint64(len(b.old)))
	buf = append(buf, b.ops[:b.n]...)
	for i := range b.cols {
		buf = appendColumn(buf, &b.cols[i])
	}
	for i := range b.old {
		buf = appendColumn(buf, &b.old[i])
	}
	return buf
}

func appendColumn(buf []byte, c *Column) []byte {
	// Lazy column: its encoded payload is already in hand.
	if c.raw != nil {
		head := c.rawRepr
		if len(c.nulls) > 0 {
			head |= colNullsFlag
		}
		buf = append(buf, head)
		if len(c.nulls) > 0 {
			buf = append(buf, c.nulls[:(c.n+7)/8]...)
		}
		buf = append(buf, 0, 0, 0, 0)
		putUvarint4(buf[len(buf)-4:], uint64(len(c.raw)))
		return append(buf, c.raw...)
	}
	repr := c.repr()
	head := repr
	hasNulls := false
	for i := 0; i < c.n; i++ {
		if c.IsNull(i) {
			hasNulls = true
			break
		}
	}
	if hasNulls {
		head |= colNullsFlag
	}
	buf = append(buf, head)
	if hasNulls {
		nb := (c.n + 7) / 8
		start := len(buf)
		buf = append(buf, make([]byte, nb)...)
		for i := 0; i < c.n; i++ {
			if c.IsNull(i) {
				buf[start+i>>3] |= 1 << (i & 7)
			}
		}
	}
	// Reserve a 4-byte-uvarint slot for the payload length, then encode in
	// place and backpatch — avoids a second buffer.
	lenAt := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	start := len(buf)
	switch repr {
	case colNulls:
		// no payload
	case colInts:
		for i := 0; i < c.n; i++ {
			buf = binary.AppendVarint(buf, c.ints[i])
		}
	case colFloats:
		for i := 0; i < c.n; i++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.floats[i]))
		}
	case colStrs:
		for i := 0; i < c.n; i++ {
			s := c.strs[i]
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	case colBools:
		nb := (c.n + 7) / 8
		at := len(buf)
		buf = append(buf, make([]byte, nb)...)
		for i := 0; i < c.n; i++ {
			if c.bools[i] {
				buf[at+i>>3] |= 1 << (i & 7)
			}
		}
	case colAnys:
		for i := 0; i < c.n; i++ {
			if c.IsNull(i) {
				buf = append(buf, byte(KindNull))
				continue
			}
			buf = AppendValue(buf, c.anys[i])
		}
	}
	putUvarint4(buf[lenAt:lenAt+4], uint64(len(buf)-start))
	return buf
}

// putUvarint4 writes v as a fixed-width 4-byte uvarint (continuation bits
// padded), so the slot can be reserved before the length is known.
func putUvarint4(dst []byte, v uint64) {
	if v >= 1<<28 {
		panic("types: column payload exceeds 4-byte uvarint")
	}
	dst[0] = byte(v) | 0x80
	dst[1] = byte(v>>7) | 0x80
	dst[2] = byte(v>>14) | 0x80
	dst[3] = byte(v >> 21)
}

// DecodeDeltaBatch decodes a batch encoded by AppendDeltaBatch, aliasing
// the Op vector, validity bitmaps, and column payloads out of buf. Every
// op byte and column payload is checked here, so a hostile buffer errors
// instead of panicking later in an operator. The returned batch is
// borrowed: it must not outlive buf's owner past the usual message
// lifetime, must not be pooled, and materializing accessors (Delta,
// Deltas, Row) always copy out of it.
func DecodeDeltaBatch(buf []byte) (*DeltaBatch, int, error) {
	n64, n := binary.Uvarint(buf)
	if n <= 0 || n64 > uint64(len(buf)-n) {
		return nil, 0, fmt.Errorf("types: decode delta batch: bad row count")
	}
	off := n
	ncols, n := binary.Uvarint(buf[off:])
	if n <= 0 || ncols > uint64(len(buf)-off-n) {
		return nil, 0, fmt.Errorf("types: decode delta batch: bad column count")
	}
	off += n
	nold, n := binary.Uvarint(buf[off:])
	if n <= 0 || nold > uint64(len(buf)-off-n) {
		return nil, 0, fmt.Errorf("types: decode delta batch: bad old-column count")
	}
	off += n
	rows := int(n64)
	if rows > len(buf)-off {
		return nil, 0, fmt.Errorf("types: decode delta batch: truncated op vector")
	}
	b := &DeltaBatch{n: rows, borrowed: true}
	b.ops = buf[off : off+rows : off+rows]
	for i, op := range b.ops {
		if op > byte(OpUpdate) {
			return nil, 0, fmt.Errorf("types: decode delta batch: unknown op %d at row %d", op, i)
		}
	}
	off += rows
	// A column costs at least its head and length bytes; bounding the
	// count first keeps a forged header from buying a huge allocation.
	if 2*(ncols+nold) > uint64(len(buf)-off) {
		return nil, 0, fmt.Errorf("types: decode delta batch: %d columns overrun the payload", ncols+nold)
	}
	cols := make([]Column, ncols+nold) // both groups, one allocation
	for j := range cols {
		used, err := decodeColumn(&cols[j], buf[off:], rows)
		if err != nil {
			return nil, 0, fmt.Errorf("types: decode delta batch: column %d: %w", j, err)
		}
		off += used
	}
	b.cols = cols[:ncols:ncols]
	if nold > 0 {
		b.old = cols[ncols:]
	}
	return b, off, nil
}

func decodeColumn(c *Column, buf []byte, rows int) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("truncated header")
	}
	head := buf[0]
	repr := head &^ colNullsFlag
	if repr > colAnys {
		return 0, fmt.Errorf("unknown repr %d", repr)
	}
	off := 1
	if head&colNullsFlag != 0 {
		nb := (rows + 7) / 8
		if nb > len(buf)-off {
			return 0, fmt.Errorf("truncated validity bitmap")
		}
		c.nulls = buf[off : off+nb : off+nb]
		off += nb
	}
	pl, n := binary.Uvarint(buf[off:])
	if n <= 0 || pl > uint64(len(buf)-off-n) {
		return 0, fmt.Errorf("bad payload length")
	}
	off += n
	c.n = rows
	c.rawRepr = repr
	c.raw = buf[off : off+int(pl) : off+int(pl)]
	off += int(pl)
	if err := checkPayload(repr, c.raw, rows); err != nil {
		return 0, err
	}
	return off, nil
}

// checkPayload walks a column payload once, so that mat can trust it: the
// payload must hold exactly rows values of its repr, each inside bounds.
func checkPayload(repr byte, raw []byte, rows int) error {
	used := 0 // bytes the rows' values occupy
	switch repr {
	case colFloats:
		used = 8 * rows
	case colBools:
		used = (rows + 7) / 8
	case colInts:
		for i := 0; i < rows; i++ {
			_, n := binary.Varint(raw[used:])
			if n <= 0 {
				return fmt.Errorf("bad varint at row %d", i)
			}
			used += n
		}
	case colStrs:
		for i := 0; i < rows; i++ {
			l, n := binary.Uvarint(raw[used:])
			if n <= 0 || l > uint64(len(raw)-used-n) {
				return fmt.Errorf("bad string at row %d", i)
			}
			used += n + int(l)
		}
	case colAnys:
		for i := 0; i < rows; i++ {
			n, err := valueLen(raw[used:])
			if err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
			used += n
		}
	}
	if used != len(raw) {
		return fmt.Errorf("payload is %d bytes, its %d rows need %d", len(raw), rows, used)
	}
	return nil
}

// mat materializes a lazy column: decodes raw into the typed vector and
// drops the alias. Materialized values (including strings, which copy
// out of the payload) own their storage. DecodeDeltaBatch checked the
// payload, so the loops below read it without error paths. The check is
// kept apart from the decode so that it inlines: hot loops call mat once
// per row on columns that are long materialized.
func (c *Column) mat() {
	if c.raw != nil {
		c.decodeRaw()
	}
}

func (c *Column) decodeRaw() {
	raw := c.raw
	c.raw = nil
	switch c.rawRepr {
	case colNulls:
		c.kind = KindNull
	case colInts:
		c.kind = KindInt
		c.ints = growZero(c.ints, c.n)
		off := 0
		for i := 0; i < c.n; i++ {
			v, n := binary.Varint(raw[off:])
			c.ints[i] = v
			off += n
		}
	case colFloats:
		c.kind = KindFloat
		c.floats = growZero(c.floats, c.n)
		for i := 0; i < c.n; i++ {
			c.floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	case colStrs:
		c.kind = KindString
		c.strs = growZero(c.strs, c.n)
		off := 0
		for i := 0; i < c.n; i++ {
			l, n := binary.Uvarint(raw[off:])
			off += n
			c.strs[i] = string(raw[off : off+int(l)])
			off += int(l)
		}
	case colBools:
		c.kind = KindBool
		c.bools = growZero(c.bools, c.n)
		for i := 0; i < c.n; i++ {
			c.bools[i] = raw[i>>3]&(1<<(i&7)) != 0
		}
	case colAnys:
		c.anys = make([]Value, c.n)
		off := 0
		for i := 0; i < c.n; i++ {
			v, n, _ := DecodeValue(raw[off:])
			c.anys[i] = v
			off += n
		}
	}
}

// boxPayload writes the values of a checked payload into column j of
// rows' tuples, boxed straight off the bytes — the row-form decode, which
// never builds the typed vector. NULL rows get whatever the payload holds
// there; the caller applies the validity bitmap.
func boxPayload(repr byte, raw []byte, rows []Delta, j int) {
	off := 0
	for i := range rows {
		var v Value
		switch repr {
		case colInts:
			x, k := binary.Varint(raw[off:])
			v, off = x, off+k
		case colFloats:
			v = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		case colStrs:
			l, k := binary.Uvarint(raw[off:])
			off += k
			v, off = string(raw[off:off+int(l)]), off+int(l)
		case colBools:
			v = raw[i>>3]&(1<<(i&7)) != 0
		case colAnys:
			x, k, _ := DecodeValue(raw[off:])
			v, off = x, off+k
		}
		rows[i].Tup[j] = v
	}
}
