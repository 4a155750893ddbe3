package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Tuple is an ordered list of scalar values. Tuples are treated as
// immutable once emitted by an operator; operators copy before mutating.
type Tuple []Value

// NewTuple builds a tuple from values.
func NewTuple(vs ...Value) Tuple { return Tuple(vs) }

// Clone returns a copy of the tuple (shallow — values are scalars).
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports value equality of two tuples.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !ValueEq(t[i], o[i]) {
			return false
		}
	}
	return true
}

// Hash combines the hashes of all fields.
func (t Tuple) Hash() uint64 {
	h := uint64(1469598103934665603)
	for _, v := range t {
		h = h*1099511628211 ^ HashValue(v)
	}
	return h
}

// HashKey hashes the projection of t onto the given column indexes; this is
// the hash rehash uses to route tuples to partitions. It is defined as the
// hash of the normalized Key value so that rehash routing, base-table
// placement (which hashes the single partition-key value), and checkpoint
// replica placement all agree on where a key lives.
func (t Tuple) HashKey(cols []int) uint64 {
	return HashValue(t.Key(cols))
}

// Project returns a new tuple with the given columns of t, in order.
func (t Tuple) Project(cols []int) Tuple {
	out := make(Tuple, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// Key renders the projection of t onto cols as a comparable map key.
// Scalars are comparable in Go, so single columns use the raw value and
// multi-column keys use an encoded composite (see appendKeyPart).
func (t Tuple) Key(cols []int) Value {
	if len(cols) == 1 {
		return normKey(t[cols[0]])
	}
	var arr [64]byte
	buf := arr[:0]
	for _, c := range cols {
		buf = appendKeyPart(buf, t[c])
	}
	return string(buf)
}

// SplitKey is Key's inverse for a key of n columns: the column values it
// renders, with integral floats as int64. ok is false when key is no
// composite Key of n columns (a single-column key is its own value).
func SplitKey(key Value, n int) (t Tuple, ok bool) {
	if n == 1 {
		return Tuple{key}, true
	}
	s, ok := key.(string)
	if !ok {
		return nil, false
	}
	for len(t) < n {
		if len(s) == 0 {
			return nil, false
		}
		tag := s[0]
		s = s[1:]
		switch tag {
		case 0:
			t = append(t, nil)
		case 1, 2:
			if len(s) < 8 {
				return nil, false
			}
			w := binary.LittleEndian.Uint64([]byte(s[:8]))
			s = s[8:]
			if tag == 1 {
				t = append(t, int64(w))
			} else {
				t = append(t, math.Float64frombits(w))
			}
		case 3:
			l, m := binary.Uvarint([]byte(s[:min(len(s), binary.MaxVarintLen64)]))
			if m <= 0 || l > uint64(len(s)-m) {
				return nil, false
			}
			t = append(t, s[m:m+int(l)])
			s = s[m+int(l):]
		case 4:
			if len(s) < 1 || s[0] > 1 {
				return nil, false
			}
			t = append(t, s[0] == 1)
			s = s[1:]
		default: // 5, a value of no engine kind, has no inverse
			return nil, false
		}
	}
	return t, len(s) == 0
}

// normKey folds integral floats onto int64 so keys compare consistently.
func normKey(v Value) Value {
	if f, ok := v.(float64); ok {
		if float64(int64(f)) == f {
			return int64(f)
		}
	}
	return v
}

// appendKeyPart appends one column of a composite key: a kind tag, then
// the value in fixed width or, for strings, behind a length prefix, so
// distinct tuples never encode alike (NULL differs from the empty string,
// and no byte inside a string can shift a column boundary). Integral
// floats fold onto int64 first, as normKey does, so 1 and 1.0 still share
// a key.
func appendKeyPart(buf []byte, v Value) []byte {
	switch x := normKey(v).(type) {
	case nil:
		return append(buf, 0)
	case int64:
		return binary.LittleEndian.AppendUint64(append(buf, 1), uint64(x))
	case float64:
		return binary.LittleEndian.AppendUint64(append(buf, 2), math.Float64bits(x))
	case string:
		buf = binary.AppendUvarint(append(buf, 3), uint64(len(x)))
		return append(buf, x...)
	case bool:
		if x {
			return append(buf, 4, 1)
		}
		return append(buf, 4, 0)
	default:
		s := fmt.Sprint(x)
		buf = binary.AppendUvarint(append(buf, 5), uint64(len(s)))
		return append(buf, s...)
	}
}

// String renders the tuple for diagnostics.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = AsString(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Field is one column of a schema.
type Field struct {
	Name string
	Kind Kind
}

// Schema describes the shape of a tuple stream.
type Schema struct {
	Fields []Field
}

// MustSchema builds a schema from "name:Type" specs, panicking on bad specs.
// It mirrors the paper's inTypes/outTypes declarations ("nbr:Integer").
func MustSchema(specs ...string) *Schema {
	s := &Schema{}
	for _, spec := range specs {
		name, typ, ok := strings.Cut(spec, ":")
		if !ok {
			panic(fmt.Sprintf("types: bad field spec %q (want name:Type)", spec))
		}
		k, err := ParseKind(typ)
		if err != nil {
			panic(err)
		}
		s.Fields = append(s.Fields, Field{Name: name, Kind: k})
	}
	return s
}

// Len reports the number of columns.
func (s *Schema) Len() int { return len(s.Fields) }

// ColIndex resolves a (possibly qualified) column name to its index, or -1.
// Qualified references ("graph.srcId") match fields named either exactly or
// by their unqualified suffix.
func (s *Schema) ColIndex(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return s.ColIndex(name[i+1:])
	}
	// Also allow matching "x" against a qualified field "t.x".
	for i, f := range s.Fields {
		if j := strings.LastIndexByte(f.Name, '.'); j >= 0 && f.Name[j+1:] == name {
			return i
		}
	}
	return -1
}

// Concat returns the concatenation of two schemas (used by join).
func (s *Schema) Concat(o *Schema) *Schema {
	out := &Schema{Fields: make([]Field, 0, len(s.Fields)+len(o.Fields))}
	out.Fields = append(out.Fields, s.Fields...)
	out.Fields = append(out.Fields, o.Fields...)
	return out
}

// Rename returns a copy with every field qualified by alias ("alias.name").
func (s *Schema) Rename(alias string) *Schema {
	out := &Schema{Fields: make([]Field, len(s.Fields))}
	for i, f := range s.Fields {
		base := f.Name
		if j := strings.LastIndexByte(base, '.'); j >= 0 {
			base = base[j+1:]
		}
		out.Fields[i] = Field{Name: alias + "." + base, Kind: f.Kind}
	}
	return out
}

// Names returns the column names.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		out[i] = f.Name
	}
	return out
}

// String renders the schema for EXPLAIN output.
func (s *Schema) String() string {
	parts := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		parts[i] = f.Name + ":" + f.Kind.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
