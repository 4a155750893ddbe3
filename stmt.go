package rex

import "context"

// Stmt is a prepared RQL statement: the query is parsed, bound, and
// planned once at Prepare time, and executed many times with $1-style
// parameter values bound per run — serving workloads skip the
// reparse/replan entirely. Parameter types are inferred from context
// during binding (comparison partner, arithmetic partner, UDF signature);
// integer values coerce to float where a float was inferred.
//
// On a TCP session plans cannot ship across the wire (every daemon
// recompiles from the job spec), so Prepare validates and plans once
// driver-side and each execution binds the values into the query text as
// literals instead. On a server session the statement compiles into the
// rexd server's shared plan cache, and executions ship the text plus the
// bound argument values — the cached plan is keyed by the text alone, so
// every execution of the statement, whatever its arguments, reuses it.
type Stmt struct {
	sess *Session
	prep statement

	// def carries the statement's Prepare-time default options; an
	// execution passing a zero Options value inherits them.
	def Options
}

// Prepare compiles an RQL statement with $N placeholders for repeated
// execution. QueryOptions become the statement's defaults: executions
// that pass a zero Options value inherit them (a non-zero per-execution
// Options replaces them wholesale).
func (s *Session) Prepare(src string, qopts ...QueryOption) (*Stmt, error) {
	prep, err := s.be.prepare(src)
	if err != nil {
		return nil, err
	}
	return &Stmt{sess: s, prep: prep, def: buildOptions(qopts)}, nil
}

// effOpts resolves one execution's options: a zero per-call Options
// falls back to the statement's Prepare-time defaults.
func (st *Stmt) effOpts(opts Options) Options {
	if isZeroOpts(opts) {
		return st.def
	}
	return opts
}

// isZeroOpts reports whether o is the zero Options value (Options holds
// func fields, so it is not comparable with ==).
func isZeroOpts(o Options) bool {
	return o.BatchSize == 0 && o.MaxStrata == 0 && o.Recovery == RecoveryNone &&
		!o.Checkpoint && !o.Stream && !o.NoVectorize && o.TermFn == nil && o.OnStratum == nil &&
		o.Recover == nil && o.SpillDir == "" && o.BufferPoolPages == 0 &&
		o.Tenant == "" && o.Priority == 0
}

// NumParams reports the statement's placeholder count.
func (st *Stmt) NumParams() int { return st.prep.numParams() }

// QueryCtx executes the statement under a context with the given options
// and parameter values. A zero Options inherits the Prepare-time
// defaults (see Prepare's QueryOptions).
func (st *Stmt) QueryCtx(ctx context.Context, opts Options, args ...Value) (*Result, error) {
	opts = st.effOpts(opts)
	x, err := st.prep.bind(args, opts)
	if err != nil {
		return nil, err
	}
	return st.sess.execute(ctx, x, opts)
}

// StreamCtx executes the statement in streaming-result mode (see
// Session.Stream). A zero Options inherits the Prepare-time defaults.
func (st *Stmt) StreamCtx(ctx context.Context, opts Options, args ...Value) (*DeltaStream, error) {
	x, err := st.prep.bind(args, st.effOpts(opts))
	if err != nil {
		return nil, err
	}
	return st.sess.startStream(ctx, x)
}
