// Package mapred is a from-scratch Hadoop-style MapReduce engine used as
// the comparison baseline of §6, plus a HaLoop-style loop-aware extension.
// It reproduces the cost structure the paper measures against:
//
//   - map tasks over input splits (parallel across simulated workers),
//   - optional combiners,
//   - a sort-merge shuffle (keys really are sorted, like Hadoop's
//     external merge sort, in contrast to REX's hash-based grouping),
//   - reduce tasks, and materialization of job output ("HDFS"),
//   - a configurable per-job startup overhead (the JVM/task-scheduling
//     cost the paper identifies as Hadoop's key weakness for iteration).
//
// Following the paper's lower-bound methodology (§6 Platforms), the
// convergence test between iterations and input/output formatting cost
// nothing, and HaLoop's caches are built for free.
package mapred

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/rex-data/rex/internal/types"
)

// KV is one key-value pair.
type KV struct {
	K types.Value
	V types.Value
}

// Mapper transforms one input pair into output pairs.
type Mapper interface {
	Map(k, v types.Value, emit func(k, v types.Value)) error
}

// Reducer folds all values of one key into output pairs.
type Reducer interface {
	Reduce(k types.Value, vs []types.Value, emit func(k, v types.Value)) error
}

// MapperFunc adapts a function to Mapper.
type MapperFunc func(k, v types.Value, emit func(k, v types.Value)) error

// Map invokes the function.
func (f MapperFunc) Map(k, v types.Value, emit func(k, v types.Value)) error { return f(k, v, emit) }

// ReducerFunc adapts a function to Reducer.
type ReducerFunc func(k types.Value, vs []types.Value, emit func(k, v types.Value)) error

// Reduce invokes the function.
func (f ReducerFunc) Reduce(k types.Value, vs []types.Value, emit func(k, v types.Value)) error {
	return f(k, vs, emit)
}

// Job is one MapReduce job.
type Job struct {
	Name     string
	Mapper   Mapper
	Combiner Reducer // optional pre-aggregation before the shuffle
	Reducer  Reducer
}

// Config shapes the simulated Hadoop deployment.
type Config struct {
	// Workers is the number of parallel map/reduce slots (the paper runs
	// 4 concurrent tasks per machine on 28 machines).
	Workers int
	// StartupOverhead is charged once per job — Hadoop's task scheduling
	// and JVM startup cost. The paper's Hadoop-LB numbers exclude many
	// costs but still include job startup, which dominates iterative
	// workloads (§6.7).
	StartupOverhead time.Duration
	// SortBytes enables accounting of shuffle traffic.
	Metrics *Metrics
}

// Metrics accumulates engine statistics.
type Metrics struct {
	mu            sync.Mutex
	Jobs          int
	ShuffledPairs int64
	ShuffledBytes int64
	SpilledBytes  int64
}

// Add accumulates shuffle counters.
func (m *Metrics) add(pairs, bytes int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ShuffledPairs += pairs
	m.ShuffledBytes += bytes
}

func (m *Metrics) jobDone() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Jobs++
}

// Snapshot returns a copy of the counters.
func (m *Metrics) Snapshot() (jobs int, pairs, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Jobs, m.ShuffledPairs, m.ShuffledBytes
}

// Engine runs MapReduce jobs over in-memory "HDFS" datasets.
type Engine struct {
	cfg Config
}

// NewEngine creates an engine.
func NewEngine(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	return &Engine{cfg: cfg}
}

// kvSize estimates the serialized size of a pair (same codec as REX so
// shuffle-byte comparisons are apples-to-apples).
func kvSize(kv KV) int64 {
	return int64(len(types.AppendValue(types.AppendValue(nil, kv.K), kv.V)))
}

// Run executes one job over the input, returning the materialized output.
func (e *Engine) Run(job *Job, input []KV) ([]KV, error) {
	time.Sleep(e.cfg.StartupOverhead)
	defer e.cfg.Metrics.jobDone()

	// Map phase: split input across workers.
	w := e.cfg.Workers
	splits := make([][]KV, w)
	for i, kv := range input {
		splits[i%w] = append(splits[i%w], kv)
	}
	mapped := make([][]KV, w)
	errs := make([]error, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
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
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Shuffle: partition by key hash, then sort-merge within each
	// partition (Hadoop's sort happens even when grouping alone would
	// suffice — one of the overheads REX's hash GROUP BY avoids, §6.3).
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
	e.cfg.Metrics.add(pairs, bytes)

	// Reduce phase.
	results := make([][]KV, w)
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			part := parts[i]
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
	wg.Wait()
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

// combine groups a single map task's output and applies the combiner.
func combine(c Reducer, out []KV) ([]KV, error) {
	slices.SortStableFunc(out, func(a, b KV) int {
		return types.ValueCompare(a.K, b.K)
	})
	var combined []KV
	emit := func(k, v types.Value) { combined = append(combined, KV{k, v}) }
	for s := 0; s < len(out); {
		t := s
		for t < len(out) && types.ValueCompare(out[t].K, out[s].K) == 0 {
			t++
		}
		vs := make([]types.Value, 0, t-s)
		for _, kv := range out[s:t] {
			vs = append(vs, kv.V)
		}
		if err := c.Reduce(out[s].K, vs, emit); err != nil {
			return nil, err
		}
		s = t
	}
	return combined, nil
}

// IterativeDriver is the external control loop MapReduce needs for
// recursive computations (§2): it re-runs the job chain until the
// convergence callback says stop or maxIters is reached. Following the
// paper's lower-bound methodology the convergence test itself is free.
type IterativeDriver struct {
	Engine *Engine
	// OnIteration observes each finished iteration (for per-iteration
	// timing in the figures).
	OnIteration func(iter int, output []KV, elapsed time.Duration)
}

// RunIterative repeatedly applies step to the evolving state.
func (d *IterativeDriver) RunIterative(state []KV, step func(iter int, state []KV) (*Job, []KV, error),
	converged func(iter int, prev, next []KV) bool, maxIters int) ([]KV, int, error) {
	for iter := 1; iter <= maxIters; iter++ {
		start := time.Now()
		job, input, err := step(iter, state)
		if err != nil {
			return nil, iter, err
		}
		next, err := d.Engine.Run(job, input)
		if err != nil {
			return nil, iter, err
		}
		if d.OnIteration != nil {
			d.OnIteration(iter, next, time.Since(start))
		}
		stop := converged != nil && converged(iter, state, next)
		state = next
		if stop {
			return state, iter, nil
		}
	}
	return state, maxIters, nil
}

// ErrNoReducer is returned for jobs missing a reducer.
var ErrNoReducer = fmt.Errorf("mapred: job has no reducer")
