package pagestore

import (
	"fmt"

	"github.com/rex-data/rex/internal/storage"
)

// DefaultPoolPages is the buffer-pool capacity when the caller does not
// set one (1024 pages = 8 MiB per node).
const DefaultPoolPages = 1024

// frame is one resident page.
type frame struct {
	table *table
	no    uint32
	buf   []byte
	pins  int
	ref   bool // clock reference bit
	dirty bool
}

type frameKey struct {
	table string
	no    uint32
}

// pool is the buffer pool: a fixed budget of page frames shared by every
// table of one store, with pin/unpin, dirty tracking, and clock (second
// chance) eviction. Callers hold the store mutex; the pool itself is not
// concurrency-safe.
type pool struct {
	cap    int
	frames map[frameKey]*frame
	clock  []*frame
	hand   int
	stats  *storage.PoolStats
	// free holds evicted frames, whose page buffers the next misses
	// reuse: no caller holds a frame past its unpin.
	free []*frame
}

func newPool(capPages int, stats *storage.PoolStats) *pool {
	if capPages <= 0 {
		capPages = DefaultPoolPages
	}
	return &pool{cap: capPages, frames: make(map[frameKey]*frame), stats: stats}
}

// get pins the page, loading it from the table's page file on a miss
// (load=true) or initializing it fresh (load=false, for newly allocated
// pages). The caller must unpin.
func (p *pool) get(t *table, no uint32, load bool) (*frame, error) {
	key := frameKey{t.name, no}
	if f, ok := p.frames[key]; ok {
		p.stats.Hits++
		f.pins++
		f.ref = true
		return f, nil
	}
	p.stats.Misses++
	if err := p.evictTo(p.cap - 1); err != nil {
		return nil, err
	}
	f := p.frame()
	*f = frame{table: t, no: no, buf: f.buf, pins: 1, ref: true}
	if load {
		// A page absent from the pool was necessarily written by a prior
		// eviction (pages are born in the pool and only leave through
		// evictTo), so the read cannot hit a hole.
		if err := t.file.read(no, f.buf); err != nil {
			p.free = append(p.free, f)
			return nil, err
		}
	} else {
		clear(f.buf)
		initPage(f.buf)
		f.dirty = true
	}
	p.frames[key] = f
	p.clock = append(p.clock, f)
	return f, nil
}

// frame returns an evicted frame to reuse, or a new one.
func (p *pool) frame() *frame {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		return f
	}
	return &frame{buf: make([]byte, PageSize)}
}

func (p *pool) unpin(f *frame, dirty bool) {
	f.pins--
	if dirty {
		f.dirty = true
	}
}

// evictTo evicts clock victims until at most n frames remain. Pinned
// frames are skipped; if every frame is pinned the pool grows past its
// budget rather than deadlocking (pins are scoped to single operations,
// so the overshoot is transient).
func (p *pool) evictTo(n int) error {
	passesLeft := 2 * len(p.clock) // ref-bit clearing needs at most two sweeps
	for len(p.clock) > n && passesLeft > 0 {
		passesLeft--
		if p.hand >= len(p.clock) {
			p.hand = 0
		}
		f := p.clock[p.hand]
		if f.pins > 0 {
			p.hand++
			continue
		}
		if f.ref {
			f.ref = false
			p.hand++
			continue
		}
		if err := p.writeBack(f); err != nil {
			return err
		}
		delete(p.frames, frameKey{f.table.name, f.no})
		p.clock[p.hand] = p.clock[len(p.clock)-1]
		p.clock = p.clock[:len(p.clock)-1]
		f.table = nil
		p.free = append(p.free, f)
		p.stats.Evictions++
	}
	return nil
}

func (p *pool) writeBack(f *frame) error {
	if !f.dirty {
		return nil
	}
	if err := f.table.file.write(f.no, f.buf); err != nil {
		return fmt.Errorf("pagestore: evict %s page %d: %w", f.table.name, f.no, err)
	}
	p.stats.BytesSpilled += PageSize
	f.dirty = false
	return nil
}

// reset discards every frame without write-back (used when the whole
// store reloads), keeping the frames for reuse.
func (p *pool) reset() {
	for _, f := range p.clock {
		f.table = nil
		p.free = append(p.free, f)
	}
	p.frames = make(map[frameKey]*frame)
	p.clock = p.clock[:0]
	p.hand = 0
}
