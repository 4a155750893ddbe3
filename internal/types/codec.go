package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary codec gives the simulated transport realistic message sizes:
// the bandwidth experiment (Fig. 11) measures exactly these encoded bytes.
// Layout per value: 1 kind byte + varint / fixed64 / length-prefixed bytes.

// AppendValue encodes v onto buf.
func AppendValue(buf []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, byte(KindNull))
	case int64:
		buf = append(buf, byte(KindInt))
		return binary.AppendVarint(buf, x)
	case float64:
		buf = append(buf, byte(KindFloat))
		return binary.BigEndian.AppendUint64(buf, math.Float64bits(x))
	case string:
		buf = append(buf, byte(KindString))
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		return append(buf, x...)
	case bool:
		buf = append(buf, byte(KindBool))
		if x {
			return append(buf, 1)
		}
		return append(buf, 0)
	default:
		// Fall back to the string rendering; keeps the codec total.
		s := AsString(x)
		buf = append(buf, byte(KindString))
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		return append(buf, s...)
	}
}

// DecodeValue decodes one value from buf, returning it and the bytes read.
func DecodeValue(buf []byte) (Value, int, error) {
	n, err := valueLen(buf)
	if err != nil {
		return nil, 0, err
	}
	switch Kind(buf[0]) {
	case KindInt:
		v, _ := binary.Varint(buf[1:])
		return v, n, nil
	case KindFloat:
		return math.Float64frombits(binary.BigEndian.Uint64(buf[1:])), n, nil
	case KindString:
		_, k := binary.Uvarint(buf[1:])
		return string(buf[1+k : n]), n, nil
	case KindBool:
		return buf[1] != 0, n, nil
	default:
		return nil, n, nil
	}
}

// valueLen reports the encoded size of the value at the head of buf
// without decoding it (no string copy), or why DecodeValue would fail.
func valueLen(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("types: decode value: empty buffer")
	}
	switch Kind(buf[0]) {
	case KindNull:
		return 1, nil
	case KindInt:
		if _, n := binary.Varint(buf[1:]); n > 0 {
			return 1 + n, nil
		}
	case KindFloat:
		if len(buf) >= 9 {
			return 9, nil
		}
	case KindString:
		// uint64 comparison so a forged huge length cannot overflow int
		// and slip past the bounds check.
		if l, n := binary.Uvarint(buf[1:]); n > 0 && l <= uint64(len(buf)-1-n) {
			return 1 + n + int(l), nil
		}
	case KindBool:
		if len(buf) >= 2 {
			return 2, nil
		}
	default:
		return 0, fmt.Errorf("types: decode: unknown kind %d", buf[0])
	}
	return 0, fmt.Errorf("types: decode %v: short buffer", Kind(buf[0]))
}

// AppendTuple encodes t (field count + values).
func AppendTuple(buf []byte, t Tuple) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t)))
	for _, v := range t {
		buf = AppendValue(buf, v)
	}
	return buf
}

// DecodeTuple decodes one tuple, returning it and the bytes consumed.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	n64, n := binary.Uvarint(buf)
	// Every field costs at least one byte; bounding the count before the
	// allocation keeps forged buffers from panicking in makeslice.
	if n <= 0 || n64 > uint64(len(buf)-n) {
		return nil, 0, fmt.Errorf("types: decode tuple: bad count")
	}
	off := n
	t := make(Tuple, n64)
	for i := range t {
		v, used, err := DecodeValue(buf[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("types: decode tuple field %d: %w", i, err)
		}
		t[i] = v
		off += used
	}
	return t, off, nil
}

// AppendDelta encodes a delta (op byte, tuple, optional old tuple).
func AppendDelta(buf []byte, d Delta) []byte {
	buf = append(buf, byte(d.Op))
	buf = AppendTuple(buf, d.Tup)
	if d.Op == OpReplace {
		buf = AppendTuple(buf, d.Old)
	}
	return buf
}

// DecodeDelta decodes one delta, returning it and the bytes consumed.
func DecodeDelta(buf []byte) (Delta, int, error) {
	if len(buf) == 0 {
		return Delta{}, 0, fmt.Errorf("types: decode delta: empty buffer")
	}
	d := Delta{Op: Op(buf[0])}
	off := 1
	tup, used, err := DecodeTuple(buf[off:])
	if err != nil {
		return Delta{}, 0, err
	}
	d.Tup = tup
	off += used
	if d.Op == OpReplace {
		old, used, err := DecodeTuple(buf[off:])
		if err != nil {
			return Delta{}, 0, err
		}
		d.Old = old
		off += used
	}
	return d, off, nil
}

// EncodedSize reports the size of a count-prefixed run of AppendDelta
// records without materializing it — the per-record codec's cost of a
// batch.
func EncodedSize(ds []Delta) int {
	n := uvarintLen(uint64(len(ds)))
	for _, d := range ds {
		n += 1 + tupleSize(d.Tup)
		if d.Op == OpReplace {
			n += tupleSize(d.Old)
		}
	}
	return n
}

func tupleSize(t Tuple) int {
	n := uvarintLen(uint64(len(t)))
	for _, v := range t {
		n += valueSize(v)
	}
	return n
}

// valueSize reports the encoded size of one value without materializing
// it.
func valueSize(v Value) int {
	switch x := v.(type) {
	case nil:
		return 1
	case int64:
		return 1 + varintLen(x)
	case float64:
		return 9
	case string:
		return 1 + uvarintLen(uint64(len(x))) + len(x)
	case bool:
		return 2
	default:
		s := AsString(x)
		return 1 + uvarintLen(uint64(len(s))) + len(s)
	}
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func varintLen(v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return uvarintLen(uv)
}
