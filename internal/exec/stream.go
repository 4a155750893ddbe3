package exec

import (
	"context"
	"errors"
	"iter"

	"github.com/rex-data/rex/internal/types"
)

// StreamBatch is one element of a streaming result: the state changes one
// stratum made to the recursive relation (or, for non-recursive plans, one
// batch of result deltas under stratum 0). Folding every batch of a stream
// in order reproduces the final relation a buffered run would return.
type StreamBatch struct {
	Stratum int
	Deltas  []types.Delta
	// Round is the ingestion round that produced this batch on a standing
	// query: 0 for the initial fixpoint (and for every batch of a plain
	// streaming query), r for the r-th incremental ingestion. Stratum is
	// round-relative on standing queries.
	Round int
}

// ResultStream is an iterator over the per-stratum delta batches of a
// running query. The query executes concurrently with consumption; batches
// are yielded as punctuation closes each stratum, so a standing consumer
// observes the fixpoint converge instead of waiting for the full result
// set to buffer in the requestor.
//
// A stream must be fully consumed (Next until false) or Closed; otherwise
// the producing query blocks forever on the batch channel.
type ResultStream struct {
	batches chan StreamBatch
	done    chan struct{}
	ctx     context.Context
	cancel  context.CancelCauseFunc

	// src, when non-nil, replaces the channel with an unbounded spool — the
	// standing-query delivery path, where a consumer may interleave Ingest
	// calls and reads on one goroutine and must never deadlock on a full
	// buffer. Exactly one of batches/src is set.
	src *spool

	res *Result
	err error
}

// errStreamClosed is the cancellation cause Close installs, so it can tell
// its own cancellation apart from one arriving through the caller's ctx.
var errStreamClosed = errors.New("exec: stream closed")

// Stream executes the plan in streaming mode and returns the result
// stream. The run honors ctx like RunCtx; Close cancels it. Setup,
// validation and teardown are the ones every query shares (see
// Engine.start), which rejects failure-recovery options on a stream — a
// mid-stream recovery would re-emit deltas the consumer already saw.
func (e *Engine) Stream(ctx context.Context, spec *PlanSpec, opts Options) (*ResultStream, error) {
	opts.Stream = true
	ctx, cancel := context.WithCancelCause(ctx)
	r, err := e.start(ctx, spec, opts)
	if err != nil {
		cancel(nil)
		return nil, err
	}
	s := &ResultStream{
		batches: make(chan StreamBatch, 16),
		done:    make(chan struct{}),
		ctx:     ctx,
		cancel:  cancel,
	}
	go func() {
		defer cancel(nil)
		s.res, s.err = r.run(func(b StreamBatch) {
			select {
			case s.batches <- b:
			case <-ctx.Done():
				// Consumer gone (Close) or deadline hit: drop the batch;
				// the run is unwinding with ctx.Err().
			}
		})
		// done must close before batches: a consumer unblocked by the
		// batches close may immediately call Err/Result, which are only
		// valid once done is observable.
		close(s.done)
		close(s.batches)
	}()
	return s, nil
}

// Next returns the next delta batch, blocking until one closes or the
// stream ends. ok is false when the stream is exhausted (or failed — check
// Err).
func (s *ResultStream) Next() (batch StreamBatch, ok bool) {
	if s.src != nil {
		return s.src.pop()
	}
	batch, ok = <-s.batches
	return batch, ok
}

// TryNext returns the next buffered batch without blocking; ok is false
// when nothing is currently buffered (the stream may still be live). On a
// standing query's stream this drains exactly the batches already emitted —
// after an Ingest call returns, the whole round is buffered.
func (s *ResultStream) TryNext() (batch StreamBatch, ok bool) {
	if s.src != nil {
		return s.src.tryPop()
	}
	select {
	case batch, ok = <-s.batches:
		return batch, ok
	default:
		return StreamBatch{}, false
	}
}

// Seq adapts the stream to a Go range-over-func iterator yielding
// (stratum, deltas) pairs:
//
//	for stratum, deltas := range stream.Seq() { ... }
//
// Breaking out of the loop abandons the stream; call Close to release it.
func (s *ResultStream) Seq() iter.Seq2[int, []types.Delta] {
	return func(yield func(int, []types.Delta) bool) {
		for {
			b, ok := s.Next()
			if !ok {
				return
			}
			if !yield(b.Stratum, b.Deltas) {
				return
			}
		}
	}
}

// Err reports the query's terminal error. Valid after Next returned
// ok=false (or after Close); nil on clean completion.
func (s *ResultStream) Err() error {
	select {
	case <-s.done:
		return s.err
	default:
		return nil
	}
}

// Result returns the completed run's statistics (strata, duration, wire
// bytes; Tuples is nil — the tuples travelled through the stream). Valid
// after the stream is exhausted; nil before that or on error.
func (s *ResultStream) Result() *Result {
	select {
	case <-s.done:
		if s.err != nil {
			return nil
		}
		return s.res
	default:
		return nil
	}
}

// Done is closed when the producing run has fully torn down (workers
// joined, metrics synced). Session-level callers use it to serialize the
// next query behind a stream still unwinding.
func (s *ResultStream) Done() <-chan struct{} { return s.done }

// Close abandons the stream: it cancels the underlying run, drains any
// buffered batches, and waits for teardown. Returns the terminal error; a
// cancellation caused by Close itself reports nil, while one that arrived
// through the caller's ctx reports context.Canceled.
func (s *ResultStream) Close() error {
	s.cancel(errStreamClosed)
	if s.src != nil {
		for {
			if _, ok := s.src.pop(); !ok {
				break
			}
		}
	} else {
		for range s.batches {
		}
	}
	<-s.done
	if errors.Is(s.err, context.Canceled) && errors.Is(context.Cause(s.ctx), errStreamClosed) {
		return nil
	}
	return s.err
}

// Detach cancels the producing run like Close but does NOT consume the
// buffer: already-emitted batches stay readable (Next/TryNext) after it
// returns. It waits for the run's teardown and reports the terminal
// error, nil when the cancellation was Detach's own. Standing-query
// subscriptions close through it — "ingest, close, then fold the stream"
// must see every round that completed before the close.
func (s *ResultStream) Detach() error {
	s.cancel(errStreamClosed)
	<-s.done
	if errors.Is(s.err, context.Canceled) && errors.Is(context.Cause(s.ctx), errStreamClosed) {
		return nil
	}
	return s.err
}

// Drain consumes the remainder of the stream, folding every batch into a
// result set, and returns the completed Result with Tuples materialized —
// the streaming equivalent of a buffered RunCtx.
func (s *ResultStream) Drain() (*Result, error) {
	acc := newResultSet()
	for {
		b, ok := s.Next()
		if !ok {
			break
		}
		acc.apply(b.Deltas)
	}
	<-s.done
	if s.err != nil {
		return nil, s.err
	}
	res := *s.res
	res.Tuples = acc.materialize()
	return &res, nil
}
