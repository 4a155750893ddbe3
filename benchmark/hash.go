package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/rex-data/rex"
	"github.com/rex-data/rex/internal/types"
)

// The benchmark carries its own canonical result hash (rather than
// importing internal/bench) so that code outside benchmark/ cannot change
// what the benchmark checks.

// canonLine renders a tuple order-independently comparable: floats to six
// significant digits (past the bits where summation order wiggles), NULL as
// a marker, everything else by value.
func canonLine(t rex.Tuple) string {
	var b strings.Builder
	for j, v := range t {
		if j > 0 {
			b.WriteByte('|')
		}
		switch x := v.(type) {
		case float64:
			b.WriteString(strconv.FormatFloat(x, 'g', 6, 64))
		case nil:
			b.WriteString("\x00null")
		default:
			fmt.Fprintf(&b, "%v", x)
		}
	}
	return b.String()
}

// resultHash hashes a result set independent of row order.
func resultHash(tuples []rex.Tuple) string {
	lines := make([]string, len(tuples))
	for i, t := range tuples {
		lines[i] = canonLine(t)
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// reference is what a response is checked against: the canonical hash,
// and the tuples behind it for the rare response whose float sums land on
// the other side of a rounding boundary (delta PageRank is never
// bit-identical between two runs; its ranks differ by ~1e-15).
type reference struct {
	hash   string
	tuples []rex.Tuple
}

func newReference(tuples []rex.Tuple) reference {
	return reference{hash: resultHash(tuples), tuples: tuples}
}

// matches reports whether got is the reference result: hash-equal, or
// equal row for row with floats within 1e-9 relative.
func (r reference) matches(got []rex.Tuple) bool {
	if resultHash(got) == r.hash {
		return true
	}
	return tuplesClose(got, r.tuples)
}

func tuplesClose(a, b []rex.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = sortedTuples(a), sortedTuples(b)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, xf := a[i][j].(float64)
			y, yf := b[i][j].(float64)
			if xf && yf {
				if math.Abs(x-y) > 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
					return false
				}
				continue
			}
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// sortedTuples orders rows by their non-float columns first (the key
// columns of every result here), so a float wiggle cannot reorder them.
func sortedTuples(ts []rex.Tuple) []rex.Tuple {
	key := func(t rex.Tuple) string {
		var b strings.Builder
		for _, v := range t {
			if _, isFloat := v.(float64); !isFloat {
				fmt.Fprintf(&b, "%v|", v)
			}
		}
		b.WriteString(canonLine(t))
		return b.String()
	}
	out := append([]rex.Tuple(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

// fold replays a delta stream into the relation it describes (multiset
// semantics, like the engine's own result fold): the benchmark's check
// that fold(stream) equals a from-scratch query.
type fold struct {
	rows map[string][]rex.Tuple // exact-value key → live copies
	n    int
}

func newFold() *fold { return &fold{rows: map[string][]rex.Tuple{}} }

func exactKey(t rex.Tuple) string {
	var b strings.Builder
	for _, v := range t {
		switch x := v.(type) {
		case float64:
			b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		default:
			fmt.Fprintf(&b, "%T:%v", x, x)
		}
		b.WriteByte('|')
	}
	return b.String()
}

func (f *fold) add(t rex.Tuple) {
	k := exactKey(t)
	f.rows[k] = append(f.rows[k], t)
	f.n++
}

func (f *fold) remove(t rex.Tuple) {
	k := exactKey(t)
	if live := f.rows[k]; len(live) > 0 {
		if len(live) == 1 {
			delete(f.rows, k)
		} else {
			f.rows[k] = live[:len(live)-1]
		}
		f.n--
	}
}

func (f *fold) apply(deltas []rex.Delta) {
	for _, d := range deltas {
		switch d.Op {
		case types.OpInsert, types.OpUpdate:
			f.add(d.Tup)
		case types.OpDelete:
			f.remove(d.Tup)
		case types.OpReplace:
			f.remove(d.Old)
			f.add(d.Tup)
		}
	}
}

func (f *fold) tuples() []rex.Tuple {
	out := make([]rex.Tuple, 0, f.n)
	for _, live := range f.rows {
		out = append(out, live...)
	}
	return out
}
