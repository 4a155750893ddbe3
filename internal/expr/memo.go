package expr

import (
	"encoding/binary"
	"math"
	"slices"

	"github.com/rex-data/rex/internal/types"
)

// memoLimit bounds each memoized call's cache.
const memoLimit = 1 << 16

// memoize returns e with every deterministic call wrapped in a cache of
// its results by argument values (§5.1 "Caching"), copying the nodes above
// such a call; e itself when it holds none. The copies print as e does,
// so error texts are unchanged.
func memoize(e Expr) Expr {
	switch v := e.(type) {
	case *Call:
		args := make([]Expr, len(v.Args))
		same := true
		for i, a := range v.Args {
			args[i] = memoize(a)
			same = same && args[i] == a
		}
		if v.Deterministic {
			return &memoCall{Call: v, args: args, memo: map[string]types.Value{}}
		}
		if same {
			return v
		}
		c := *v
		c.Args = args
		return &c
	case *Arith:
		if l, r := memoize(v.L), memoize(v.R); l != v.L || r != v.R {
			return &Arith{Op: v.Op, L: l, R: r}
		}
	case *Cmp:
		if l, r := memoize(v.L), memoize(v.R); l != v.L || r != v.R {
			return &Cmp{Op: v.Op, L: l, R: r}
		}
	case *Logic:
		if l, r := memoize(v.L), memoize(v.R); l != v.L || r != v.R {
			return &Logic{Op: v.Op, L: l, R: r}
		}
	case *Not:
		if x := memoize(v.E); x != v.E {
			return &Not{E: x}
		}
	}
	return e
}

// memoCall is a deterministic call whose results are cached by the exact
// values of its arguments — kind, bits and all, so 1, 1.0, '1', 0.0 and
// -0.0 are distinct keys. Errors are not cached. It prints, and reports
// its kind, as the call it wraps.
type memoCall struct {
	*Call
	args []Expr // the call's arguments, memoized in turn
	memo map[string]types.Value

	vals []types.Value // scratch: one call's argument values
	key  []byte
}

// Eval evaluates the arguments and answers from the cache when it can.
func (m *memoCall) Eval(t types.Tuple) (types.Value, error) {
	m.vals, m.key = m.vals[:0], m.key[:0]
	keyed := true
	for _, a := range m.args {
		v, err := a.Eval(t)
		if err != nil {
			return nil, err
		}
		m.vals = append(m.vals, v)
		if keyed {
			m.key, keyed = appendMemoKey(m.key, v)
		}
	}
	if keyed {
		if v, ok := m.memo[string(m.key)]; ok {
			return v, nil
		}
	}
	v, err := m.invoke(slices.Clone(m.vals))
	if err != nil {
		return nil, err
	}
	if keyed && len(m.memo) < memoLimit {
		m.memo[string(m.key)] = v
	}
	return v, nil
}

// appendMemoKey appends v's kind and exact bits to key. It reports false
// for a value of no scalar kind, which is not memoized.
func appendMemoKey(key []byte, v types.Value) ([]byte, bool) {
	switch x := v.(type) {
	case nil:
		return append(key, 0), true
	case int64:
		return binary.LittleEndian.AppendUint64(append(key, 1), uint64(x)), true
	case float64:
		return binary.LittleEndian.AppendUint64(append(key, 2), math.Float64bits(x)), true
	case string:
		key = binary.AppendUvarint(append(key, 3), uint64(len(x)))
		return append(key, x...), true
	case bool:
		if x {
			return append(key, 5), true
		}
		return append(key, 4), true
	}
	return key, false
}
