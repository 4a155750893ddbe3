package main

import "math/bits"

// hist is a fixed-bucket latency histogram over nanoseconds: 128
// log-linear buckets per power of two, so a bucket is at most 0.8 % wide
// and recording is two shifts and an increment — no per-sample storage,
// no sort at report time. Quantiles interpolate inside the bucket that
// holds the rank, so two runs whose medians fall in the same bucket still
// read differently (the driver rejects a time that repeats exactly).
type hist struct {
	counts   [histBuckets]uint32
	n        uint64
	min, max int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values below histSub are their own bucket; above, every power of two
	// e >= histSubBits adds one row of histSub buckets. int64 tops out at
	// e = 62.
	histBuckets = (62 - histSubBits + 2) << histSubBits
)

func histBucket(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - 1 - histSubBits
	return (shift+1)<<histSubBits + int(ns>>shift)&(histSub-1)
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi int64) {
	if i < histSub {
		return int64(i), int64(i) + 1
	}
	shift := i>>histSubBits - 1
	lo = (histSub + int64(i&(histSub-1))) << shift
	return lo, lo + 1<<shift
}

func (h *hist) record(ns int64) {
	if h.n == 0 || ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q < 1) in nanoseconds, linearly
// interpolated inside the bucket holding rank q·n and clamped to the
// observed range. Zero when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, hi := histBounds(i)
			v := float64(lo) + float64(hi-lo)*(target-cum)/float64(c)
			if v < float64(h.min) {
				v = float64(h.min)
			}
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
		cum = next
	}
	return float64(h.max)
}

// tailPercentiles are the candidates for the reported tail, highest first,
// with the share of samples beyond each in parts per thousand.
var tailPercentiles = []struct {
	pct      float64
	perMille uint64
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}}

// tailPercentile picks the highest percentile that still has at least ten
// samples beyond it (p95 needs n >= 200). With fewer than 40 samples no
// tail qualifies and the median (50) is all that is reported.
func tailPercentile(n uint64) float64 {
	for _, t := range tailPercentiles {
		if n*t.perMille >= 10*1000 {
			return t.pct
		}
	}
	return 50
}

// timing summarises one latency class the way every report line needs it:
// the median, the highest supportable percentile and its value, and n.
type timing struct {
	N       uint64
	P50ms   float64
	TailPct float64
	Tailms  float64
}

func (h *hist) timing() timing {
	t := timing{N: h.n, P50ms: h.quantile(0.5) / 1e6, TailPct: tailPercentile(h.n)}
	t.Tailms = h.quantile(t.TailPct/100) / 1e6
	return t
}
