package cluster

import (
	"sync"
	"time"
)

// Credit-based flow control for the shuffle path. The old backpressure
// signal — a sender probing the destination mailbox's depth — only worked
// when sender and receiver shared a process; over sockets a peer's queue
// is unobservable. Credits invert the direction of the signal so it works
// on every transport: each receiver grants its peers an explicit window of
// data-frame sends, piggybacked on the punctuation frames the protocol
// already exchanges at every stratum boundary, and senders spend from the
// granted window instead of probing. MsgStart and MsgRound reset all
// windows to the initial default, so each query (and each standing-query
// ingestion round) begins with full windows and stale grants from a prior
// round cannot throttle the next one.

// InitialCredits is the send window every (sender, receiver) pair holds
// before the first grant arrives — and again after each MsgStart/MsgRound
// reset. A window counts shipped batches, not bytes: with the default
// batch size it bounds the uncoalesced in-flight volume per link while
// leaving the first strata free to run before any grant has circulated.
const InitialCredits = 16

// creditBook tracks per-(sender, receiver) send windows. Both transports
// embed one: InProcTransport intercepts grants as frames pass its
// simulated links; a TCP node installs grants as frames arrive off its
// sockets (the driver never shuffles, so its book stays empty).
type creditBook struct {
	mu  sync.Mutex
	win map[creditPair]int
}

type creditPair struct{ from, to NodeID }

// credits reports the remaining window, InitialCredits when no grant has
// been installed for the pair.
func (b *creditBook) credits(from, to NodeID) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if w, ok := b.win[creditPair{from, to}]; ok {
		return w
	}
	return InitialCredits
}

// grant installs an absolute window: receiver `to` allows sender `from` w
// further data-frame sends. Grants replace (never add to) the window, so
// repeated grants — one per rehash edge per stratum — are idempotent and a
// lost grant only delays the refresh until the next punctuation.
func (b *creditBook) grant(from, to NodeID, w int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.win == nil {
		b.win = map[creditPair]int{}
	}
	b.win[creditPair{from, to}] = w
}

// spend consumes n credits from the pair's window, flooring at zero (an
// overflow-forced flush may legitimately overdraw).
func (b *creditBook) spend(from, to NodeID, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.win == nil {
		b.win = map[creditPair]int{}
	}
	k := creditPair{from, to}
	w, ok := b.win[k]
	if !ok {
		w = InitialCredits
	}
	w -= n
	if w < 0 {
		w = 0
	}
	b.win[k] = w
}

// reset clears every window back to InitialCredits (the MsgStart/MsgRound
// barrier semantics).
func (b *creditBook) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.win = nil
}

// observe applies one delivered frame's flow-control side effects to the
// book: punctuation grants install windows, start/round barriers reset
// them. Called by both transports on the receiving side of a link —
// including the requestor's side, where MsgCreditAck grants (From=worker,
// To=-1) re-arm the standing-query pump's MsgIngest staging windows.
func (b *creditBook) observe(msg Message) {
	switch {
	case msg.Kind == MsgStart || msg.Kind == MsgRound:
		b.reset()
	case msg.CreditGrant && msg.From >= 0:
		// From punctuated (or acked); To is being granted a window for
		// sending back.
		b.grant(msg.To, msg.From, msg.Credits)
	}
}

// Adaptive credit windows. A static high-water constant sizes every grant
// the same regardless of how fast the receiver actually drains; the
// DrainMeter replaces it with a measured signal. Each worker meters the
// deltas it applies between punctuation marks, folds the instantaneous
// rate into an EWMA, and sizes outgoing grants as "the number of batches
// I can absorb over the next horizon". Fast consumers open senders up;
// slow ones throttle them early — before the inbox backlog the old
// constant reacted to has even formed.
const (
	// MinCreditWindow / MaxCreditWindow clamp adaptive grants: the floor
	// keeps a momentarily idle (zero-rate) receiver from closing a link
	// entirely, the ceiling bounds in-flight volume per link no matter
	// how fast the drain looks.
	MinCreditWindow = 2
	MaxCreditWindow = 256

	// drainAlpha is the EWMA smoothing factor for the drain rate.
	drainAlpha = 0.3
	// drainHorizon is how far ahead a grant provisions: a window covers
	// the deltas the receiver expects to absorb over this span.
	drainHorizon = 100 * time.Millisecond
	// drainMinSample ignores punctuation intervals too short to divide
	// by meaningfully; their deltas roll into the next interval.
	drainMinSample = 2 * time.Millisecond
)

// DrainMeter measures one worker's delta drain rate: an EWMA of deltas
// applied per unit time between punctuation marks. Workers keep one per
// event loop and size every credit grant from it.
type DrainMeter struct {
	mu      sync.Mutex
	applied int       // deltas applied since the last mark
	last    time.Time // previous punctuation mark
	rate    float64   // EWMA, deltas per second
}

// Observe records n deltas applied by the owning worker.
func (m *DrainMeter) Observe(n int) {
	m.mu.Lock()
	m.applied += n
	m.mu.Unlock()
}

// Mark folds the deltas applied since the previous mark into the EWMA
// rate. Workers call it at punctuation boundaries — the protocol's
// natural clock ticks.
func (m *DrainMeter) Mark(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.last.IsZero() {
		m.last = now
		m.applied = 0
		return
	}
	elapsed := now.Sub(m.last)
	if elapsed < drainMinSample {
		return // roll these deltas into the next interval
	}
	inst := float64(m.applied) / elapsed.Seconds()
	if m.rate == 0 {
		m.rate = inst
	} else {
		m.rate = drainAlpha*inst + (1-drainAlpha)*m.rate
	}
	m.last = now
	m.applied = 0
}

// Window sizes a credit grant from the measured drain rate: the number
// of batchSize-delta batches this worker expects to absorb over the
// drain horizon, clamped to [MinCreditWindow, MaxCreditWindow]. Before
// the first measurement it falls back to the caller's static default
// (clamped the same way), so cold starts behave exactly like the old
// high-water constant.
func (m *DrainMeter) Window(batchSize, fallback int) int {
	if batchSize <= 0 {
		batchSize = 1
	}
	m.mu.Lock()
	rate := m.rate
	m.mu.Unlock()
	w := fallback
	if rate > 0 {
		w = int(rate * drainHorizon.Seconds() / float64(batchSize))
	}
	if w < MinCreditWindow {
		w = MinCreditWindow
	}
	if w > MaxCreditWindow {
		w = MaxCreditWindow
	}
	return w
}
