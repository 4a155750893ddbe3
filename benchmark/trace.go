package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced pass. Spans are recorded from
// the benchmark's own files, around each call into a layer; spans inside
// rex / internal/* are a later issue (ROADMAP item 2). Times are
// nanoseconds since the tracer's epoch. Spans of one client operation
// share Op; Parent is the span that caused this one (0 = root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op_id"`
}

// tracer hands out span ids and collects finished lanes. A nil tracer is
// the untraced pass: every method is a no-op, so the client loop carries
// one code path.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// lane is one goroutine's private span buffer: recording takes no lock.
type lane struct {
	t     *tracer
	spans []span
}

func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	return &lane{t: t}
}

// begin opens a span and returns its index in the lane, or -1 untraced.
func (l *lane) begin(name string, parent, op int64) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Start: int64(time.Since(l.t.epoch)),
		ID: l.t.ids.Add(1), Parent: parent, Op: op})
	return len(l.spans) - 1
}

// id reports the span id behind a begin handle (0 untraced).
func (l *lane) id(h int) int64 {
	if l == nil || h < 0 {
		return 0
	}
	return l.spans[h].ID
}

func (l *lane) end(h int) {
	if l == nil || h < 0 {
		return
	}
	l.spans[h].End = int64(time.Since(l.t.epoch))
}

// flush hands the lane's spans to the tracer.
func (l *lane) flush() {
	if l == nil {
		return
	}
	l.t.mu.Lock()
	l.t.spans = append(l.t.spans, l.spans...)
	l.t.mu.Unlock()
	l.spans = nil
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes folds spans into per-name totals: how often the name ran, its
// summed duration, and its summed self time — duration minus the part of
// the interval its child spans cover (overlapping children count once).
type selfTotal struct {
	Count  int64
	DurNs  int64
	SelfNs int64
}

func selfTimes(spans []span) map[string]selfTotal {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]selfTotal{}
	for _, s := range spans {
		dur := s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, upto int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upto), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		t := out[s.Name]
		t.Count++
		t.DurNs += dur
		t.SelfNs += dur - covered
		out[s.Name] = t
	}
	return out
}

// writeSpans writes the spans as one JSON array, ordered by start time.
func writeSpans(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
