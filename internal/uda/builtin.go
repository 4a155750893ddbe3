package uda

import (
	"fmt"
	"sort"

	"github.com/rex-data/rex/internal/types"
)

// ScalarAgg is the interface for built-in scalar aggregates used by the
// group-by operator. Update applies the argument values of one input delta
// to the state following the aggregate's delta rules (§3.3); Result renders
// the current value.
//
// The distinction from Aggregator: ScalarAggs produce one scalar per group
// and have engine-provided delta rules, whereas Aggregators (UDAs) are
// table-valued and manage delta semantics themselves.
type ScalarAgg interface {
	Name() string
	// NArgs reports the number of argument expressions (0 for count(*)).
	NArgs() int
	Kind(arg types.Kind) types.Kind
	NewState() State
	Update(st State, op types.Op, args, oldArgs []types.Value) error
	Result(st State) types.Value
	// Composable aggregates can be computed in parts and merged; the
	// optimizer uses this for pre-aggregation pushdown (§5.2).
	Composable() bool
	// Merge folds a partial state into st (only for composable aggregates).
	Merge(st, partial State) error
	// Save serializes state to a tuple for Δᵢ checkpointing (§4.3);
	// Load is its inverse.
	Save(st State) types.Tuple
	Load(t types.Tuple) (State, error)
}

// NewScalarAgg resolves a built-in aggregate by its SQL name.
func NewScalarAgg(name string) (ScalarAgg, error) {
	switch name {
	case "sum":
		return sumAgg{}, nil
	case "count":
		return countAgg{}, nil
	case "min":
		return minAgg{}, nil
	case "max":
		return maxAgg{}, nil
	case "avg", "average":
		return avgAgg{}, nil
	case "argmin":
		return argMinAgg{}, nil
	default:
		return nil, fmt.Errorf("uda: unknown aggregate %q", name)
	}
}

// --- sum -------------------------------------------------------------

type sumState struct {
	sum   float64
	isInt bool
	n     int64
}

type sumAgg struct{}

func (sumAgg) Name() string                 { return "sum" }
func (sumAgg) NArgs() int                   { return 1 }
func (sumAgg) Kind(a types.Kind) types.Kind { return a }
func (sumAgg) NewState() State              { return &sumState{isInt: true} }
func (sumAgg) Composable() bool             { return true }

func (sumAgg) Update(st State, op types.Op, args, oldArgs []types.Value) error {
	s := st.(*sumState)
	v, ok := types.AsFloat(args[0])
	if !ok {
		return fmt.Errorf("uda: sum over non-numeric %v", args[0])
	}
	if _, isInt := args[0].(int64); !isInt {
		s.isInt = false
	}
	switch op {
	case types.OpInsert, types.OpUpdate:
		// A δ() value-update to sum is an arithmetic adjustment (the
		// paper's PageRank diff): add the delta amount.
		s.sum += v
		s.n++
	case types.OpDelete:
		s.sum -= v
		s.n--
	case types.OpReplace:
		old, ok := types.AsFloat(oldArgs[0])
		if !ok {
			return fmt.Errorf("uda: sum replace with non-numeric old %v", oldArgs[0])
		}
		s.sum += v - old
	default:
		return ErrUnsupportedDelta
	}
	return nil
}

func (sumAgg) Result(st State) types.Value {
	s := st.(*sumState)
	if s.isInt {
		return int64(s.sum)
	}
	return s.sum
}

func (sumAgg) Merge(st, partial State) error {
	s, p := st.(*sumState), partial.(*sumState)
	s.sum += p.sum
	s.n += p.n
	s.isInt = s.isInt && p.isInt
	return nil
}

// --- count -----------------------------------------------------------

type countState struct{ n int64 }

type countAgg struct{}

func (countAgg) Name() string               { return "count" }
func (countAgg) NArgs() int                 { return 0 }
func (countAgg) Kind(types.Kind) types.Kind { return types.KindInt }
func (countAgg) NewState() State            { return &countState{} }
func (countAgg) Composable() bool           { return true }

func (countAgg) Update(st State, op types.Op, args, oldArgs []types.Value) error {
	s := st.(*countState)
	switch op {
	case types.OpInsert:
		s.n++
	case types.OpDelete:
		s.n--
	case types.OpReplace:
		// replacement does not change cardinality
	case types.OpUpdate:
		// count of a pre-aggregated partial: argument carries the partial count
		if len(args) > 0 {
			if n, ok := types.AsInt(args[0]); ok {
				s.n += n
				return nil
			}
		}
		s.n++
	default:
		return ErrUnsupportedDelta
	}
	return nil
}

func (countAgg) Result(st State) types.Value { return st.(*countState).n }

func (countAgg) Merge(st, partial State) error {
	st.(*countState).n += partial.(*countState).n
	return nil
}

// --- min / max -------------------------------------------------------

// extremeState keeps the full multiset of values so that deleting the
// current extremum can expose the next one — precisely the subtlety §3.3
// describes for min under deletion deltas.
type extremeState struct {
	counts map[types.Value]int64
	sorted []types.Value // lazily maintained sort
	dirty  bool
}

func newExtremeState() *extremeState {
	return &extremeState{counts: map[types.Value]int64{}}
}

func (s *extremeState) update(op types.Op, v, old types.Value) error {
	key := normScalar(v)
	switch op {
	case types.OpInsert, types.OpUpdate:
		s.counts[key]++
	case types.OpDelete:
		s.counts[key]--
		if s.counts[key] <= 0 {
			delete(s.counts, key)
		}
	case types.OpReplace:
		okey := normScalar(old)
		s.counts[okey]--
		if s.counts[okey] <= 0 {
			delete(s.counts, okey)
		}
		s.counts[key]++
	default:
		return ErrUnsupportedDelta
	}
	s.dirty = true
	return nil
}

func (s *extremeState) extremum(max bool) types.Value {
	if s.dirty {
		s.sorted = s.sorted[:0]
		for v := range s.counts {
			s.sorted = append(s.sorted, v)
		}
		sort.Slice(s.sorted, func(i, j int) bool {
			return types.ValueCompare(s.sorted[i], s.sorted[j]) < 0
		})
		s.dirty = false
	}
	if len(s.sorted) == 0 {
		return nil
	}
	if max {
		return s.sorted[len(s.sorted)-1]
	}
	return s.sorted[0]
}

func normScalar(v types.Value) types.Value {
	if f, ok := v.(float64); ok && float64(int64(f)) == f {
		return v // keep floats as floats; map key equality is fine per kind
	}
	return v
}

type minAgg struct{}

func (minAgg) Name() string                 { return "min" }
func (minAgg) NArgs() int                   { return 1 }
func (minAgg) Kind(a types.Kind) types.Kind { return a }
func (minAgg) NewState() State              { return newExtremeState() }
func (minAgg) Composable() bool             { return true }

func (minAgg) Update(st State, op types.Op, args, oldArgs []types.Value) error {
	var old types.Value
	if len(oldArgs) > 0 {
		old = oldArgs[0]
	}
	return st.(*extremeState).update(op, args[0], old)
}

func (minAgg) Result(st State) types.Value { return st.(*extremeState).extremum(false) }

func (minAgg) Merge(st, partial State) error {
	s, p := st.(*extremeState), partial.(*extremeState)
	for v, c := range p.counts {
		s.counts[v] += c
	}
	s.dirty = true
	return nil
}

type maxAgg struct{}

func (maxAgg) Name() string                 { return "max" }
func (maxAgg) NArgs() int                   { return 1 }
func (maxAgg) Kind(a types.Kind) types.Kind { return a }
func (maxAgg) NewState() State              { return newExtremeState() }
func (maxAgg) Composable() bool             { return true }

func (maxAgg) Update(st State, op types.Op, args, oldArgs []types.Value) error {
	var old types.Value
	if len(oldArgs) > 0 {
		old = oldArgs[0]
	}
	return st.(*extremeState).update(op, args[0], old)
}

func (maxAgg) Result(st State) types.Value { return st.(*extremeState).extremum(true) }

func (maxAgg) Merge(st, partial State) error {
	s, p := st.(*extremeState), partial.(*extremeState)
	for v, c := range p.counts {
		s.counts[v] += c
	}
	s.dirty = true
	return nil
}

// --- average ---------------------------------------------------------

// avgState is the paper's two-part decomposition: a (sum, count)
// pre-aggregate with the division applied only at result time.
type avgState struct {
	sum float64
	n   int64
}

type avgAgg struct{}

func (avgAgg) Name() string               { return "avg" }
func (avgAgg) NArgs() int                 { return 1 }
func (avgAgg) Kind(types.Kind) types.Kind { return types.KindFloat }
func (avgAgg) NewState() State            { return &avgState{} }
func (avgAgg) Composable() bool           { return true }

func (avgAgg) Update(st State, op types.Op, args, oldArgs []types.Value) error {
	s := st.(*avgState)
	v, ok := types.AsFloat(args[0])
	if !ok {
		return fmt.Errorf("uda: avg over non-numeric %v", args[0])
	}
	switch op {
	case types.OpInsert, types.OpUpdate:
		s.sum += v
		s.n++
	case types.OpDelete:
		s.sum -= v
		s.n--
	case types.OpReplace:
		old, _ := types.AsFloat(oldArgs[0])
		s.sum += v - old
	default:
		return ErrUnsupportedDelta
	}
	return nil
}

func (avgAgg) Result(st State) types.Value {
	s := st.(*avgState)
	if s.n == 0 {
		return nil
	}
	return s.sum / float64(s.n)
}

func (avgAgg) Merge(st, partial State) error {
	s, p := st.(*avgState), partial.(*avgState)
	s.sum += p.sum
	s.n += p.n
	return nil
}

// --- argmin ----------------------------------------------------------

// argMinAgg is the paper's general-purpose ArgMin(id, value) aggregate
// returning the id with the minimum value (used by the shortest-path query).
type argMinState struct {
	byID map[types.Value]float64
}

type argMinAgg struct{}

func (argMinAgg) Name() string                 { return "argmin" }
func (argMinAgg) NArgs() int                   { return 2 }
func (argMinAgg) Kind(a types.Kind) types.Kind { return a }
func (argMinAgg) NewState() State              { return &argMinState{byID: map[types.Value]float64{}} }
func (argMinAgg) Composable() bool             { return true }

func (argMinAgg) Update(st State, op types.Op, args, oldArgs []types.Value) error {
	s := st.(*argMinState)
	id := args[0]
	v, ok := types.AsFloat(args[1])
	if !ok {
		return fmt.Errorf("uda: argmin over non-numeric %v", args[1])
	}
	switch op {
	case types.OpInsert, types.OpUpdate:
		if cur, exists := s.byID[id]; !exists || v < cur {
			s.byID[id] = v
		}
	case types.OpDelete:
		delete(s.byID, id)
	case types.OpReplace:
		s.byID[id] = v
	default:
		return ErrUnsupportedDelta
	}
	return nil
}

func (argMinAgg) Result(st State) types.Value {
	s := st.(*argMinState)
	var bestID types.Value
	best := 0.0
	first := true
	for id, v := range s.byID {
		if first || v < best || (v == best && types.ValueCompare(id, bestID) < 0) {
			bestID, best, first = id, v, false
		}
	}
	return bestID
}

func (argMinAgg) Merge(st, partial State) error {
	s, p := st.(*argMinState), partial.(*argMinState)
	for id, v := range p.byID {
		if cur, exists := s.byID[id]; !exists || v < cur {
			s.byID[id] = v
		}
	}
	return nil
}

// --- state serialization (for incremental checkpoints, §4.3) -----------

// Save serializes a sum state.
func (sumAgg) Save(st State) types.Tuple {
	s := st.(*sumState)
	return types.NewTuple(s.sum, s.isInt, s.n)
}

// Load restores a sum state.
func (sumAgg) Load(t types.Tuple) (State, error) {
	if len(t) != 3 {
		return nil, fmt.Errorf("uda: bad sum state %v", t)
	}
	sum, _ := types.AsFloat(t[0])
	isInt, _ := types.AsBool(t[1])
	n, _ := types.AsInt(t[2])
	return &sumState{sum: sum, isInt: isInt, n: n}, nil
}

// Save serializes a count state.
func (countAgg) Save(st State) types.Tuple {
	return types.NewTuple(st.(*countState).n)
}

// Load restores a count state.
func (countAgg) Load(t types.Tuple) (State, error) {
	if len(t) != 1 {
		return nil, fmt.Errorf("uda: bad count state %v", t)
	}
	n, _ := types.AsInt(t[0])
	return &countState{n: n}, nil
}

func (s *extremeState) save() types.Tuple {
	out := make(types.Tuple, 0, 2*len(s.counts))
	for v, c := range s.counts {
		out = append(out, v, c)
	}
	return out
}

func loadExtreme(t types.Tuple) (State, error) {
	if len(t)%2 != 0 {
		return nil, fmt.Errorf("uda: bad extreme state %v", t)
	}
	s := newExtremeState()
	for i := 0; i < len(t); i += 2 {
		c, _ := types.AsInt(t[i+1])
		s.counts[t[i]] = c
	}
	s.dirty = true
	return s, nil
}

// Save serializes a min state.
func (minAgg) Save(st State) types.Tuple { return st.(*extremeState).save() }

// Load restores a min state.
func (minAgg) Load(t types.Tuple) (State, error) { return loadExtreme(t) }

// Save serializes a max state.
func (maxAgg) Save(st State) types.Tuple { return st.(*extremeState).save() }

// Load restores a max state.
func (maxAgg) Load(t types.Tuple) (State, error) { return loadExtreme(t) }

// Save serializes an avg state.
func (avgAgg) Save(st State) types.Tuple {
	s := st.(*avgState)
	return types.NewTuple(s.sum, s.n)
}

// Load restores an avg state.
func (avgAgg) Load(t types.Tuple) (State, error) {
	if len(t) != 2 {
		return nil, fmt.Errorf("uda: bad avg state %v", t)
	}
	sum, _ := types.AsFloat(t[0])
	n, _ := types.AsInt(t[1])
	return &avgState{sum: sum, n: n}, nil
}

// Save serializes an argmin state.
func (argMinAgg) Save(st State) types.Tuple {
	s := st.(*argMinState)
	out := make(types.Tuple, 0, 2*len(s.byID))
	for id, v := range s.byID {
		out = append(out, id, v)
	}
	return out
}

// Load restores an argmin state.
func (argMinAgg) Load(t types.Tuple) (State, error) {
	if len(t)%2 != 0 {
		return nil, fmt.Errorf("uda: bad argmin state %v", t)
	}
	s := &argMinState{byID: map[types.Value]float64{}}
	for i := 0; i < len(t); i += 2 {
		v, _ := types.AsFloat(t[i+1])
		s.byID[t[i]] = v
	}
	return s, nil
}

// --- typed rules over a types.GroupTable ---------------------------------

// TypedAgg is the typed form of a built-in aggregate: per-group state
// lives in accumulator lanes of a types.GroupTable (a types.Acc) rather
// than in a boxed State, and Fold applies a whole batch in one loop over
// argument vectors — compiled-kernel results or interpreter output, both
// as types.Vec. The rules are the ScalarAgg ones value for value, and
// SaveAt/LoadAt write and read the ScalarAgg Save layout, so checkpoints
// interchange between the two forms.
type TypedAgg interface {
	Name() string
	// Lanes names the accumulator lanes the rules fold into.
	Lanes() types.AccLanes
	// Fold applies each row i of b to group gids[i]: annotation b.Op(i),
	// arguments args[k] row i and, for a replacement, the old image's
	// oldArgs[k] row i. With oldGids set a replacement is split instead:
	// the old image is deleted from group oldGids[i] and the new one
	// inserted into gids[i] (pre-aggregation, where the two images may
	// key different groups).
	Fold(a *types.Acc, b *types.DeltaBatch, gids, oldGids []int32, args, oldArgs []*types.Vec) error
	// ResultAt renders group g's current value.
	ResultAt(a *types.Acc, g int32, out *types.Scalar)
	// SaveAt appends group g's state in the ScalarAgg Save layout.
	SaveAt(a *types.Acc, g int32, dst types.Tuple) types.Tuple
	// LoadAt overwrites group g's state from a ScalarAgg Save tuple.
	LoadAt(a *types.Acc, g int32, st types.Tuple) error
}

// NewTypedAgg resolves a built-in aggregate's typed form by SQL name.
func NewTypedAgg(name string) (TypedAgg, error) {
	a, err := NewScalarAgg(name)
	if err != nil {
		return nil, err
	}
	return a.(TypedAgg), nil
}

// rowRule is one aggregate's typed delta rule for a single row.
type rowRule interface {
	step(a *types.Acc, g int32, op types.Op, args, old []*types.Vec, i int) error
}

// foldRows drives a row rule over a batch (see TypedAgg.Fold).
func foldRows(r rowRule, a *types.Acc, b *types.DeltaBatch, gids, oldGids []int32, args, oldArgs []*types.Vec) error {
	for i, g := range gids {
		op := b.Op(i)
		if op == types.OpReplace && oldGids != nil {
			if err := r.step(a, oldGids[i], types.OpDelete, oldArgs, nil, i); err != nil {
				return err
			}
			op = types.OpInsert
		}
		if err := r.step(a, g, op, args, oldArgs, i); err != nil {
			return err
		}
	}
	return nil
}

// numAt is AsFloat of row i of v, and whether the value is an int64.
func numAt(v *types.Vec, i int) (f float64, isInt, ok bool) {
	if v.Anys == nil && !v.Null(i) {
		switch v.K {
		case types.KindFloat:
			return v.Floats[i], false, true
		case types.KindInt:
			return float64(v.Ints[i]), true, true
		}
	}
	x := v.Value(i)
	f, ok = types.AsFloat(x)
	_, isInt = x.(int64)
	return f, isInt, ok
}

// intAt is AsInt of row i of v.
func intAt(v *types.Vec, i int) (int64, bool) {
	if v.Anys == nil && !v.Null(i) && v.K == types.KindInt {
		return v.Ints[i], true
	}
	return types.AsInt(v.Value(i))
}

func (sumAgg) Lanes() types.AccLanes { return types.AccF | types.AccN | types.AccFlag }

// Fold runs the common case — int or float arguments without NULLs,
// nothing to split — as one typed loop, and every other row through step.
func (s sumAgg) Fold(a *types.Acc, b *types.DeltaBatch, gids, oldGids []int32, args, oldArgs []*types.Vec) error {
	arg := args[0]
	if oldGids != nil || arg.Anys != nil || (arg.K != types.KindFloat && arg.K != types.KindInt) || arg.AnyNull() {
		return foldRows(s, a, b, gids, oldGids, args, oldArgs)
	}
	isFloat := arg.K == types.KindFloat
	for i, g := range gids {
		var v float64
		if isFloat {
			v = arg.Floats[i]
		} else {
			v = float64(arg.Ints[i])
		}
		switch op := b.Op(i); op {
		case types.OpInsert, types.OpUpdate:
			a.F[g] += v
			a.N[g]++
		case types.OpDelete:
			a.F[g] -= v
			a.N[g]--
		default:
			if err := s.step(a, g, op, args, oldArgs, i); err != nil {
				return err
			}
			continue
		}
		if isFloat {
			a.Flag[g] = true
		}
	}
	return nil
}

func (sumAgg) step(a *types.Acc, g int32, op types.Op, args, old []*types.Vec, i int) error {
	v, isInt, ok := numAt(args[0], i)
	if !ok {
		return fmt.Errorf("uda: sum over non-numeric %v", args[0].Value(i))
	}
	if !isInt {
		a.Flag[g] = true
	}
	switch op {
	case types.OpInsert, types.OpUpdate:
		a.F[g] += v
		a.N[g]++
	case types.OpDelete:
		a.F[g] -= v
		a.N[g]--
	case types.OpReplace:
		o, _, ok := numAt(old[0], i)
		if !ok {
			return fmt.Errorf("uda: sum replace with non-numeric old %v", old[0].Value(i))
		}
		a.F[g] += v - o
	default:
		return ErrUnsupportedDelta
	}
	return nil
}

func (sumAgg) ResultAt(a *types.Acc, g int32, out *types.Scalar) {
	if a.Flag[g] {
		*out = types.Scalar{K: types.KindFloat, F: a.F[g]}
	} else {
		*out = types.Scalar{K: types.KindInt, I: int64(a.F[g])}
	}
}

func (sumAgg) SaveAt(a *types.Acc, g int32, dst types.Tuple) types.Tuple {
	return append(dst, a.F[g], !a.Flag[g], a.N[g])
}

func (sumAgg) LoadAt(a *types.Acc, g int32, t types.Tuple) error {
	if len(t) != 3 {
		return fmt.Errorf("uda: bad sum state %v", t)
	}
	a.F[g], _ = types.AsFloat(t[0])
	isInt, _ := types.AsBool(t[1])
	a.Flag[g] = !isInt
	a.N[g], _ = types.AsInt(t[2])
	return nil
}

func (countAgg) Lanes() types.AccLanes { return types.AccN }

// Fold runs count(*) with nothing to split as one typed loop, and every
// other case through step.
func (c countAgg) Fold(a *types.Acc, b *types.DeltaBatch, gids, oldGids []int32, args, oldArgs []*types.Vec) error {
	if oldGids != nil || len(args) > 0 {
		return foldRows(c, a, b, gids, oldGids, args, oldArgs)
	}
	for i, g := range gids {
		switch b.Op(i) {
		case types.OpInsert, types.OpUpdate:
			a.N[g]++
		case types.OpDelete:
			a.N[g]--
		case types.OpReplace:
		default:
			return ErrUnsupportedDelta
		}
	}
	return nil
}

func (countAgg) step(a *types.Acc, g int32, op types.Op, args, _ []*types.Vec, i int) error {
	switch op {
	case types.OpInsert:
		a.N[g]++
	case types.OpDelete:
		a.N[g]--
	case types.OpReplace:
		// replacement does not change cardinality
	case types.OpUpdate:
		// count of a pre-aggregated partial: argument carries the partial count
		if len(args) > 0 {
			if n, ok := intAt(args[0], i); ok {
				a.N[g] += n
				return nil
			}
		}
		a.N[g]++
	default:
		return ErrUnsupportedDelta
	}
	return nil
}

func (countAgg) ResultAt(a *types.Acc, g int32, out *types.Scalar) {
	*out = types.Scalar{K: types.KindInt, I: a.N[g]}
}

func (countAgg) SaveAt(a *types.Acc, g int32, dst types.Tuple) types.Tuple {
	return append(dst, a.N[g])
}

func (countAgg) LoadAt(a *types.Acc, g int32, t types.Tuple) error {
	if len(t) != 1 {
		return fmt.Errorf("uda: bad count state %v", t)
	}
	a.N[g], _ = types.AsInt(t[0])
	return nil
}

func (avgAgg) Lanes() types.AccLanes { return types.AccF | types.AccN }

func (v avgAgg) Fold(a *types.Acc, b *types.DeltaBatch, gids, oldGids []int32, args, oldArgs []*types.Vec) error {
	return foldRows(v, a, b, gids, oldGids, args, oldArgs)
}

func (avgAgg) step(a *types.Acc, g int32, op types.Op, args, old []*types.Vec, i int) error {
	v, _, ok := numAt(args[0], i)
	if !ok {
		return fmt.Errorf("uda: avg over non-numeric %v", args[0].Value(i))
	}
	switch op {
	case types.OpInsert, types.OpUpdate:
		a.F[g] += v
		a.N[g]++
	case types.OpDelete:
		a.F[g] -= v
		a.N[g]--
	case types.OpReplace:
		o, _, _ := numAt(old[0], i)
		a.F[g] += v - o
	default:
		return ErrUnsupportedDelta
	}
	return nil
}

func (avgAgg) ResultAt(a *types.Acc, g int32, out *types.Scalar) {
	if a.N[g] == 0 {
		*out = types.Scalar{}
		return
	}
	*out = types.Scalar{K: types.KindFloat, F: a.F[g] / float64(a.N[g])}
}

func (avgAgg) SaveAt(a *types.Acc, g int32, dst types.Tuple) types.Tuple {
	return append(dst, a.F[g], a.N[g])
}

func (avgAgg) LoadAt(a *types.Acc, g int32, t types.Tuple) error {
	if len(t) != 2 {
		return fmt.Errorf("uda: bad avg state %v", t)
	}
	a.F[g], _ = types.AsFloat(t[0])
	a.N[g], _ = types.AsInt(t[1])
	return nil
}

// extremeRule is min's and max's typed rule: each group's distinct
// argument values are Bag rows counted by multiplicity, and the Bag
// caches the group's extreme row until a delete takes it away.
type extremeRule struct{ max bool }

func (minAgg) Lanes() types.AccLanes { return types.AccBag }
func (maxAgg) Lanes() types.AccLanes { return types.AccBag }

func (minAgg) Fold(a *types.Acc, b *types.DeltaBatch, gids, oldGids []int32, args, oldArgs []*types.Vec) error {
	return foldRows(extremeRule{}, a, b, gids, oldGids, args, oldArgs)
}

func (maxAgg) Fold(a *types.Acc, b *types.DeltaBatch, gids, oldGids []int32, args, oldArgs []*types.Vec) error {
	return foldRows(extremeRule{max: true}, a, b, gids, oldGids, args, oldArgs)
}

func (e extremeRule) step(a *types.Acc, g int32, op types.Op, args, old []*types.Vec, i int) error {
	switch op {
	case types.OpInsert, types.OpUpdate:
		e.add(a.Bag, g, args[0], i)
	case types.OpDelete:
		e.remove(a.Bag, g, args[0], i)
	case types.OpReplace:
		e.remove(a.Bag, g, old[0], i)
		e.add(a.Bag, g, args[0], i)
	default:
		return ErrUnsupportedDelta
	}
	return nil
}

func (e extremeRule) better(bag *types.Bag, r, q int32) bool {
	c := bag.Compare(r, q)
	if e.max {
		return c > 0
	}
	return c < 0
}

func (e extremeRule) add(bag *types.Bag, g int32, v *types.Vec, i int) {
	r := bag.Find(g, v, i)
	bag.Count[r]++
	switch best := bag.Best(g); {
	case best == types.BagNone:
		bag.SetBest(g, r)
	case best >= 0 && e.better(bag, r, best):
		bag.SetBest(g, r)
	}
}

// remove takes one occurrence away; removing an absent value is a no-op,
// as deleting an absent key from the boxed multiset is.
func (e extremeRule) remove(bag *types.Bag, g int32, v *types.Vec, i int) {
	r, ok := bag.Lookup(g, v, i)
	if !ok || bag.Count[r] == 0 {
		return
	}
	bag.Count[r]--
	if bag.Count[r] == 0 && bag.Best(g) == r {
		bag.SetBest(g, types.BagStale)
	}
}

func (e extremeRule) result(a *types.Acc, g int32, out *types.Scalar) {
	bag := a.Bag
	best := bag.Best(g)
	if best == types.BagStale {
		best = types.BagNone
		for r := bag.First(g); r >= 0; r = bag.Next(r) {
			if bag.Count[r] > 0 && (best < 0 || e.better(bag, r, best)) {
				best = r
			}
		}
		bag.SetBest(g, best)
	}
	if best < 0 {
		*out = types.Scalar{}
		return
	}
	bag.Value(best, out)
}

func (minAgg) ResultAt(a *types.Acc, g int32, out *types.Scalar) {
	extremeRule{}.result(a, g, out)
}

func (maxAgg) ResultAt(a *types.Acc, g int32, out *types.Scalar) {
	extremeRule{max: true}.result(a, g, out)
}

func saveBag(a *types.Acc, g int32, dst types.Tuple, count bool) types.Tuple {
	bag := a.Bag
	for r := bag.First(g); r >= 0; r = bag.Next(r) {
		if bag.Count[r] <= 0 {
			continue
		}
		if count {
			dst = append(dst, bag.BoxedValue(r), bag.Count[r])
		} else {
			dst = append(dst, bag.BoxedValue(r), bag.Num[r])
		}
	}
	return dst
}

func loadExtremeAt(a *types.Acc, g int32, t types.Tuple) error {
	if len(t)%2 != 0 {
		return fmt.Errorf("uda: bad extreme state %v", t)
	}
	bag := a.Bag
	bag.Clear(g)
	for i := 0; i < len(t); i += 2 {
		c, _ := types.AsInt(t[i+1])
		bag.Count[bag.FindValue(g, t[i])] = max(c, 0)
	}
	bag.SetBest(g, types.BagStale)
	return nil
}

func (minAgg) SaveAt(a *types.Acc, g int32, dst types.Tuple) types.Tuple {
	return saveBag(a, g, dst, true)
}

func (maxAgg) SaveAt(a *types.Acc, g int32, dst types.Tuple) types.Tuple {
	return saveBag(a, g, dst, true)
}

func (minAgg) LoadAt(a *types.Acc, g int32, t types.Tuple) error { return loadExtremeAt(a, g, t) }
func (maxAgg) LoadAt(a *types.Acc, g int32, t types.Tuple) error { return loadExtremeAt(a, g, t) }

// argmin keeps each id as a Bag row: Count 1 while present, Num its
// value.

func (argMinAgg) Lanes() types.AccLanes { return types.AccBag }

func (m argMinAgg) Fold(a *types.Acc, b *types.DeltaBatch, gids, oldGids []int32, args, oldArgs []*types.Vec) error {
	return foldRows(m, a, b, gids, oldGids, args, oldArgs)
}

func (argMinAgg) step(a *types.Acc, g int32, op types.Op, args, _ []*types.Vec, i int) error {
	bag := a.Bag
	v, _, ok := numAt(args[1], i)
	if !ok {
		return fmt.Errorf("uda: argmin over non-numeric %v", args[1].Value(i))
	}
	switch op {
	case types.OpInsert, types.OpUpdate:
		r := bag.Find(g, args[0], i)
		if bag.Count[r] == 0 || v < bag.Num[r] {
			bag.Count[r], bag.Num[r] = 1, v
		}
	case types.OpDelete:
		if r, ok := bag.Lookup(g, args[0], i); ok {
			bag.Count[r] = 0
		}
	case types.OpReplace:
		r := bag.Find(g, args[0], i)
		bag.Count[r], bag.Num[r] = 1, v
	default:
		return ErrUnsupportedDelta
	}
	return nil
}

func (argMinAgg) ResultAt(a *types.Acc, g int32, out *types.Scalar) {
	bag := a.Bag
	best := int32(-1)
	for r := bag.First(g); r >= 0; r = bag.Next(r) {
		if bag.Count[r] == 0 {
			continue
		}
		if best < 0 || bag.Num[r] < bag.Num[best] || (bag.Num[r] == bag.Num[best] && bag.Compare(r, best) < 0) {
			best = r
		}
	}
	if best < 0 {
		*out = types.Scalar{}
		return
	}
	bag.Value(best, out)
}

func (argMinAgg) SaveAt(a *types.Acc, g int32, dst types.Tuple) types.Tuple {
	return saveBag(a, g, dst, false)
}

func (argMinAgg) LoadAt(a *types.Acc, g int32, t types.Tuple) error {
	if len(t)%2 != 0 {
		return fmt.Errorf("uda: bad argmin state %v", t)
	}
	bag := a.Bag
	bag.Clear(g)
	for i := 0; i < len(t); i += 2 {
		r := bag.FindValue(g, t[i])
		bag.Count[r] = 1
		bag.Num[r], _ = types.AsFloat(t[i+1])
	}
	return nil
}
