package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// ckptFrame frames one checkpoint-log payload as appendLocked writes it.
func ckptFrame(payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return append(hdr[:], payload...)
}

// A CRC-valid record whose query-id length does not fit in an int is a
// corrupt record like any other: replay skips it instead of panicking,
// and keeps what the log held before it.
func TestCheckpointLogHugeStringLength(t *testing.T) {
	dir := t.TempDir()
	cs := NewCheckpointStore()
	if err := cs.UseDir(dir); err != nil {
		t.Fatal(err)
	}
	cs.Put("q", 1, 0, []uint64{types.HashValue(int64(7))}, []types.Tuple{types.NewTuple(int64(7))})
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	// 'P', then the uvarint 2^64−1 as the query id's length.
	crafted := ckptFrame([]byte{ckptRecPut, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	path := filepath.Join(dir, ckptLogName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(crafted); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := NewCheckpointStore()
	if err := re.UseDir(dir); err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Size("q"); got != 1 {
		t.Fatalf("replayed size = %d, want 1", got)
	}
}

// A record put after reopening a log with a torn tail survives the next
// reopen: UseDir cuts the tail off instead of appending behind it.
func TestCheckpointLogAppendAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	cs := NewCheckpointStore()
	if err := cs.UseDir(dir); err != nil {
		t.Fatal(err)
	}
	cs.Put("a", 1, 0, []uint64{types.HashValue(int64(1))}, []types.Tuple{types.NewTuple(int64(1))})
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	// A frame header promising 64 payload bytes, and 2 of them.
	torn := ckptFrame(make([]byte, 64))[:6]
	f, err := os.OpenFile(filepath.Join(dir, ckptLogName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cs = NewCheckpointStore()
	if err := cs.UseDir(dir); err != nil {
		t.Fatal(err)
	}
	cs.Put("b", 1, 0, []uint64{types.HashValue(int64(2))}, []types.Tuple{types.NewTuple(int64(2))})
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	re := NewCheckpointStore()
	if err := re.UseDir(dir); err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Size("a"); got != 1 {
		t.Fatalf("Size(a) = %d, want 1", got)
	}
	if got := re.Size("b"); got != 1 {
		t.Fatalf("Size(b) = %d after reopen, want 1", got)
	}
}

// FuzzCheckpointLog replays arbitrary bytes as a checkpoint log. Replay
// must not panic and what it imports must answer LastStratum and
// Restore. A record put right after that first open — behind whatever
// tail the log had — must survive a reopen, and the store must then
// survive a compaction and another reopen unchanged. Seeds under
// testdata/fuzz/FuzzCheckpointLog hold a log of every record kind, a
// torn tail, and the huge-length record above.
func FuzzCheckpointLog(f *testing.F) {
	ring := cluster.NewRing(2, 8, 1)
	snap := cluster.NewSnapshot(ring, ring.Nodes())
	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ckptLogName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		c := NewCheckpointStore()
		if err := c.UseDir(dir); err != nil {
			t.Fatal(err)
		}
		for k := range c.entries {
			if last := c.LastStratum(k.queryID, k.opID); last < k.stratum {
				t.Fatalf("LastStratum(%q, %d) = %d below stratum %d", k.queryID, k.opID, last, k.stratum)
			}
			for _, node := range ring.Nodes() {
				c.Restore(k.queryID, k.opID, min(k.stratum, 64), node, snap)
			}
		}
		c.Put("after-open", 1, 0, []uint64{types.HashValue(int64(1))}, []types.Tuple{types.NewTuple(int64(1))})
		want := ckptDump(c)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		re := NewCheckpointStore()
		if err := re.UseDir(dir); err != nil {
			t.Fatal(err)
		}
		if got := ckptDump(re); !bytes.Equal(got, want) {
			t.Fatalf("reopened after a put:\n%x\nwant\n%x", got, want)
		}
		re.mu.Lock()
		re.compactLocked()
		re.mu.Unlock()
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		again := NewCheckpointStore()
		if err := again.UseDir(dir); err != nil {
			t.Fatal(err)
		}
		defer again.Close()
		if got := ckptDump(again); !bytes.Equal(got, want) {
			t.Fatalf("reopened after compaction:\n%x\nwant\n%x", got, want)
		}
	})
}

// ckptDump encodes a store's entries in key order, for comparison.
func ckptDump(c *CheckpointStore) []byte {
	var out [][]byte
	for k, entries := range c.entries {
		p := ckptAppendString(nil, k.queryID)
		p = binary.AppendVarint(p, int64(k.opID))
		p = binary.AppendVarint(p, int64(k.stratum))
		for _, e := range entries {
			p = binary.LittleEndian.AppendUint64(p, e.keyHash)
			p = types.AppendTuple(p, e.tup)
		}
		out = append(out, p)
	}
	slices.SortFunc(out, bytes.Compare)
	return bytes.Join(out, []byte{0})
}
