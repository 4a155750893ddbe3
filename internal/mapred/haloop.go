package mapred

import (
	"slices"
	"time"

	"github.com/rex-data/rex/internal/types"
)

// HaLoopEngine extends the MapReduce engine with HaLoop's loop-aware
// optimizations [Bu et al., VLDB 2010]: a reducer-input cache holding the
// loop-invariant relation so it is neither re-mapped nor re-shuffled in
// later iterations. Per the paper's lower-bound methodology (§6
// Platforms), building the cache costs nothing.
type haloopCache struct {
	parts [][]KV // per-reduce-partition invariant pairs
	index map[types.Value][]types.Value
}

// HaLoopEngine extends the MapReduce engine with HaLoop's loop-aware
// caches.
type HaLoopEngine struct {
	eng    *Engine
	caches map[string]*haloopCache
}

// NewHaLoopEngine wraps a MapReduce engine.
func NewHaLoopEngine(eng *Engine) *HaLoopEngine {
	return &HaLoopEngine{eng: eng, caches: map[string]*haloopCache{}}
}

// BuildCache installs the loop-invariant relation under cacheName,
// partitioned the same way the shuffle would and hash-indexed for
// mapper-side lookups. Free of charge (no metrics, no startup),
// reproducing the Hadoop-LB/HaLoop-LB accounting of §6.
func (h *HaLoopEngine) BuildCache(cacheName string, invariant []KV) {
	w := h.eng.cfg.Workers
	c := &haloopCache{
		parts: make([][]KV, w),
		index: make(map[types.Value][]types.Value, len(invariant)),
	}
	for _, kv := range invariant {
		p := int(types.HashValue(kv.K) % uint64(w))
		c.parts[p] = append(c.parts[p], kv)
		c.index[kv.K] = append(c.index[kv.K], kv.V)
	}
	h.caches[cacheName] = c
}

// CacheLookup exposes a cached invariant relation to map tasks (HaLoop's
// mapper-input cache): values for a key, or nil.
func (h *HaLoopEngine) CacheLookup(cacheName string, k types.Value) []types.Value {
	c, ok := h.caches[cacheName]
	if !ok {
		return nil
	}
	return c.index[k]
}

// Run executes one loop body over the variant input only; reduce groups
// are augmented with the reducer-input cache entries for their key.
func (h *HaLoopEngine) Run(job *Job, variant []KV, cacheName string) ([]KV, error) {
	time.Sleep(h.eng.cfg.StartupOverhead)
	defer h.eng.cfg.Metrics.jobDone()
	w := h.eng.cfg.Workers

	splits := make([][]KV, w)
	for i, kv := range variant {
		splits[i%w] = append(splits[i%w], kv)
	}
	mapped := make([][]KV, w)
	errs := make([]error, w)
	done := make(chan int, w)
	for i := 0; i < w; i++ {
		go func(i int) {
			defer func() { done <- i }()
			var out []KV
			emit := func(k, v types.Value) { out = append(out, KV{k, v}) }
			for _, kv := range splits[i] {
				if err := job.Mapper.Map(kv.K, kv.V, emit); err != nil {
					errs[i] = err
					return
				}
			}
			if job.Combiner != nil {
				combined, err := combine(job.Combiner, out)
				if err != nil {
					errs[i] = err
					return
				}
				out = combined
			}
			mapped[i] = out
		}(i)
	}
	for i := 0; i < w; i++ {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	parts := make([][]KV, w)
	var pairs, bytes int64
	for _, out := range mapped {
		for _, kv := range out {
			p := int(types.HashValue(kv.K) % uint64(w))
			parts[p] = append(parts[p], kv)
			pairs++
			bytes += kvSize(kv)
		}
	}
	h.eng.cfg.Metrics.add(pairs, bytes)

	cache := h.caches[cacheName]
	results := make([][]KV, w)
	for i := 0; i < w; i++ {
		go func(i int) {
			defer func() { done <- i }()
			part := parts[i]
			if cache != nil {
				// Reducer-input cache: merge the invariant pairs of this
				// partition (free: not shuffled, not counted).
				part = append(append([]KV{}, part...), cache.parts[i]...)
			}
			slices.SortStableFunc(part, func(a, b KV) int {
				return types.ValueCompare(a.K, b.K)
			})
			var out []KV
			emit := func(k, v types.Value) { out = append(out, KV{k, v}) }
			for s := 0; s < len(part); {
				t := s
				for t < len(part) && types.ValueCompare(part[t].K, part[s].K) == 0 {
					t++
				}
				vs := make([]types.Value, 0, t-s)
				for _, kv := range part[s:t] {
					vs = append(vs, kv.V)
				}
				if err := job.Reducer.Reduce(part[s].K, vs, emit); err != nil {
					errs[i] = err
					return
				}
				s = t
			}
			results[i] = out
		}(i)
	}
	for i := 0; i < w; i++ {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var out []KV
	for _, r := range results {
		out = append(out, r...)
	}
	return out, nil
}
