package cluster

import "sync/atomic"

// Metrics aggregates transport statistics. The bandwidth figures of §6.5
// read BytesSent: "we measured the total amount of data sent by each node".
// BytesSent counts encoded frame bytes — the measured wire volume, not an
// estimate (on TCP, including the length prefix the socket actually
// carries). CompactIn/CompactOut count deltas entering and leaving the
// shuffle's compacting stores, so callers can report the compaction ratio.
type Metrics struct {
	BytesSent     []atomic.Int64
	BytesReceived []atomic.Int64
	MessagesSent  []atomic.Int64
	TuplesSent    []atomic.Int64
	CompactIn     []atomic.Int64
	CompactOut    []atomic.Int64
}

// NewMetrics sizes counters for n nodes.
func NewMetrics(n int) *Metrics {
	return &Metrics{
		BytesSent:     make([]atomic.Int64, n),
		BytesReceived: make([]atomic.Int64, n),
		MessagesSent:  make([]atomic.Int64, n),
		TuplesSent:    make([]atomic.Int64, n),
		CompactIn:     make([]atomic.Int64, n),
		CompactOut:    make([]atomic.Int64, n),
	}
}

// TotalBytesSent sums sent bytes over all nodes.
func (m *Metrics) TotalBytesSent() int64 {
	var t int64
	for i := range m.BytesSent {
		t += m.BytesSent[i].Load()
	}
	return t
}

// TotalCompaction sums the shuffle compactor in/out delta counts.
func (m *Metrics) TotalCompaction() (in, out int64) {
	for i := range m.CompactIn {
		in += m.CompactIn[i].Load()
		out += m.CompactOut[i].Load()
	}
	return in, out
}

// Reset zeroes all counters.
func (m *Metrics) Reset() {
	for i := range m.BytesSent {
		m.BytesSent[i].Store(0)
		m.BytesReceived[i].Store(0)
		m.MessagesSent[i].Store(0)
		m.TuplesSent[i].Store(0)
		m.CompactIn[i].Store(0)
		m.CompactOut[i].Store(0)
	}
}
