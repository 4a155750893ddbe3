package exec

import (
	"errors"
	"sync/atomic"

	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
)

// Kernel counters: process-wide tallies of how the expression kernels of
// filter, project, group-by and pre-aggregation evaluated their batches,
// one count per operator batch. They answer "is the fast path on?"
// through Session.Stats, the rexd /stats endpoint, and
// srvproto.ServerStats.
var (
	// kernelCompiled counts kernels that compiled to typed loops at
	// operator instantiation (one per kernel, not per batch).
	kernelCompiled atomic.Int64
	// kernelVectorBatches counts batches the compiled trees evaluated.
	kernelVectorBatches atomic.Int64
	// kernelBridgedBatches counts batches an interpreter-only kernel
	// evaluated: an expression that does not compile (a UDF call, an
	// uncompilable shape), or kernels built interpreter-only
	// (Options.NoVectorize).
	kernelBridgedBatches atomic.Int64
	// kernelFallbackEvals counts batches a compiled tree declined at eval
	// time (boxed-any columns, kind drift, rows the interpreter would
	// reject), which its kernel then interpreted.
	kernelFallbackEvals atomic.Int64
)

// KernelStats is a snapshot of the expression-kernel counters.
type KernelStats struct {
	// Compiled is the number of kernels compiled to typed loops at
	// operator instantiation since process start.
	Compiled int64 `json:"kernel_compiled"`
	// VectorBatches / BridgedBatches / FallbackEvals split the batch
	// traffic of expression operators: evaluated by the compiled trees,
	// by an interpreter-only kernel, or declined by a compiled tree at
	// eval time and interpreted.
	VectorBatches  int64 `json:"kernel_vector_batches"`
	BridgedBatches int64 `json:"kernel_bridged_batches"`
	FallbackEvals  int64 `json:"kernel_fallback_evals"`
}

// ReadKernelStats snapshots the process-wide kernel counters.
func ReadKernelStats() KernelStats {
	return KernelStats{
		Compiled:       kernelCompiled.Load(),
		VectorBatches:  kernelVectorBatches.Load(),
		BridgedBatches: kernelBridgedBatches.Load(),
		FallbackEvals:  kernelFallbackEvals.Load(),
	}
}

// kernelSet is the kernels of one operator, which it counts as a unit.
type kernelSet struct {
	all     []*expr.Kernel
	compile bool // compile kernels; off builds them interpreter-only
	// bridged is set when the set holds an interpreter-only kernel, or
	// is built interpreter-only: the count of an operator with no
	// expression to evaluate, such as count(*), follows the option.
	bridged bool
}

func newKernelSet(compile bool) kernelSet {
	return kernelSet{compile: compile, bridged: !compile}
}

// add builds e's kernel: compiled against schema, or interpreter-only
// when the set is.
func (s *kernelSet) add(e expr.Expr, schema []types.Kind) *expr.Kernel {
	var k *expr.Kernel
	if s.compile {
		var ok bool
		if k, ok = expr.Compile(e, schema); ok {
			kernelCompiled.Add(1)
		} else {
			s.bridged = true
		}
	} else {
		k = expr.Interpret(e)
	}
	s.all = append(s.all, k)
	return k
}

// count tallies one operator batch: bridged when an interpreter-only
// kernel took part, a fallback when a compiled tree declined, else
// vector.
func (s *kernelSet) count() {
	declined := false
	for _, k := range s.all {
		declined = k.Declined() || declined
	}
	switch {
	case s.bridged:
		kernelBridgedBatches.Add(1)
	case declined:
		kernelFallbackEvals.Add(1)
	default:
		kernelVectorBatches.Add(1)
	}
}

// firstErr keeps, of the errors an operator's kernels return for one
// batch, the one the row interpreter meets first: the lowest row and, on
// one row, the lowest rank — the order in which a row's expressions and
// images are evaluated. It keeps the interpreter's own error, unwrapped
// from the kernel's expr.RowError.
type firstErr struct {
	err  error
	row  int32
	rank int
}

func (f *firstErr) note(err error, rank int) {
	if err == nil {
		return
	}
	re := &expr.RowError{Err: err}
	errors.As(err, &re)
	if f.err == nil || re.Row < f.row || re.Row == f.row && rank < f.rank {
		*f = firstErr{err: re.Err, row: re.Row, rank: rank}
	}
}
