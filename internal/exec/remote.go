package exec

import (
	"context"
	"sync"
)

// StreamFeeder is the producer half of a ResultStream not fed by
// Engine.Stream: the consumer half behaves exactly like an
// engine-produced stream (Next, Seq, Drain, Close), while the batches
// arrive from outside the engine — the client side of a server-routed
// query, where frames decoded off a socket are pushed in and the run's
// terminal result follows them. A session's drained one-shot query uses
// one with no batches at all: the handle only lets Close cancel the
// buffered run, and Finish reports it.
type StreamFeeder struct {
	s    *ResultStream
	once sync.Once
}

// NewRemoteStream builds a ResultStream not backed by a local run. The
// feeder pushes delta batches — never blocking; the buffer is the same
// unbounded spool standing queries use — and Finish ends the stream with
// the run's result or error. Closing the returned stream cancels its
// context; onClose, when non-nil, observes that cancellation exactly
// once if it happens before Finish (the client uses it to send the
// server a cancel frame). The stream's Done channel closes only when
// Finish is called, so the feeding side must guarantee a Finish on every
// path, including connection teardown.
func NewRemoteStream(onClose func()) (*ResultStream, *StreamFeeder) {
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &ResultStream{
		src:    newSpool(),
		done:   make(chan struct{}),
		ctx:    ctx,
		cancel: cancel,
	}
	if onClose != nil {
		go func() {
			<-ctx.Done()
			select {
			case <-s.done:
				// Finished first: nothing left to cancel remotely.
			default:
				onClose()
			}
		}()
	}
	return s, &StreamFeeder{s: s}
}

// Push appends a batch to the stream. It never blocks; batches pushed
// after Finish are dropped (the spool is closed).
func (f *StreamFeeder) Push(b StreamBatch) { f.s.src.push(b) }

// Finish ends the stream: res carries the completed run's statistics
// (required on success — Drain dereferences it), err its terminal error.
// Buffered batches remain readable; Next reports false once they are
// drained. Finish is idempotent; only the first call takes effect.
func (f *StreamFeeder) Finish(res *Result, err error) {
	f.once.Do(func() {
		f.s.res, f.s.err = res, err
		// done before the spool closes, mirroring Engine.Stream: a reader
		// unblocked by the close may immediately call Err/Result.
		close(f.s.done)
		f.s.src.close()
		f.s.cancel(nil)
	})
}
