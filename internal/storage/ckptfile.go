package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"github.com/rex-data/rex/internal/types"
)

// File-backed checkpoint persistence. UseDir turns an in-memory
// CheckpointStore into a durable one: every Put appends a record to an
// append-only log under the directory, Drop/DropAbove append tombstones,
// and opening a store over an existing directory replays the log — so a
// restarted node still holds the per-stratum Δ-set checkpoints of §4.3
// and incremental recovery can resume from the last checkpointed stratum
// instead of stratum zero.
//
// Record framing matches the page-store WAL: uint32 payload length,
// uint32 CRC-32 (IEEE), payload. A torn tail (crash mid-append) fails the
// CRC or length check and is cut off on replay; checkpoints are a
// recovery accelerator, so a lost tail only costs re-derivation. When
// tombstones accumulate, the log compacts by rewriting the live entries
// to a temp file and renaming over the old log.
const ckptLogName = "ckpt.log"

const (
	ckptRecPut       = byte('P') // queryID, opID, stratum, n × (keyHash, tuple)
	ckptRecDropAbove = byte('>') // queryID, stratum
	ckptRecDrop      = byte('D') // queryID
)

// ckptCompactAfter bounds tombstone debris: after this many drop records
// the log is rewritten from live memory.
const ckptCompactAfter = 64

// UseDir attaches file persistence to the store, replaying any existing
// log under dir into memory first. Call before the store sees traffic.
func (c *CheckpointStore) UseDir(dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f != nil {
		return fmt.Errorf("storage: checkpoint store already has a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, ckptLogName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	keep := c.replayLocked(data)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	// Cut a torn tail off before appending: a record written behind it
	// would be unreachable by the next replay.
	if keep < len(data) {
		if err := f.Truncate(int64(keep)); err != nil {
			f.Close()
			return err
		}
	}
	c.dir, c.f = dir, f
	return nil
}

// Close flushes and closes the log file (no-op without UseDir).
func (c *CheckpointStore) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}

// replayLocked folds log records into the in-memory map, stopping at the
// first torn or corrupt frame, and returns the length of the prefix it
// replayed.
func (c *CheckpointStore) replayLocked(data []byte) int {
	off := 0
	for len(data)-off >= 8 {
		n := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if len(data)-off-8 < int(n) {
			return off // torn tail
		}
		payload := data[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return off
		}
		off += 8 + int(n)
		c.applyRecordLocked(payload)
	}
	return off
}

func (c *CheckpointStore) applyRecordLocked(p []byte) {
	if len(p) == 0 {
		return
	}
	kind, p := p[0], p[1:]
	qid, m := ckptReadString(p)
	if m < 0 {
		return
	}
	p = p[m:]
	switch kind {
	case ckptRecPut:
		opID, m1 := binary.Varint(p)
		if m1 <= 0 {
			return
		}
		p = p[m1:]
		stratum, m2 := binary.Varint(p)
		if m2 <= 0 || stratum < 0 {
			return // strata count from 0: Restore indexes by them
		}
		p = p[m2:]
		count, m3 := binary.Uvarint(p)
		if m3 <= 0 {
			return
		}
		p = p[m3:]
		k := ckptKey{qid, int(opID), int(stratum)}
		for i := uint64(0); i < count; i++ {
			if len(p) < 8 {
				return
			}
			kh := binary.LittleEndian.Uint64(p)
			p = p[8:]
			tup, n, err := types.DecodeTuple(p)
			if err != nil {
				return
			}
			p = p[n:]
			c.entries[k] = append(c.entries[k], ckptEntry{keyHash: kh, tup: tup})
		}
	case ckptRecDropAbove:
		stratum, m1 := binary.Varint(p)
		if m1 <= 0 {
			return
		}
		for k := range c.entries {
			if k.queryID == qid && k.stratum > int(stratum) {
				delete(c.entries, k)
			}
		}
	case ckptRecDrop:
		for k := range c.entries {
			if k.queryID == qid {
				delete(c.entries, k)
			}
		}
	}
}

// appendLocked frames and writes one record. A write error disables
// further persistence instead of failing the Put: a checkpoint that did
// not reach disk only weakens recovery acceleration — the delta replay
// tail still reconstructs the state.
func (c *CheckpointStore) appendLocked(payload []byte) {
	if c.f == nil {
		return
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := c.f.Write(hdr[:]); err != nil {
		c.f.Close()
		c.f = nil
		return
	}
	if _, err := c.f.Write(payload); err != nil {
		c.f.Close()
		c.f = nil
	}
}

// persistPutLocked appends a Put record.
func (c *CheckpointStore) persistPutLocked(k ckptKey, keyHashes []uint64, tuples []types.Tuple) {
	if c.f == nil {
		return
	}
	p := []byte{ckptRecPut}
	p = ckptAppendString(p, k.queryID)
	p = binary.AppendVarint(p, int64(k.opID))
	p = binary.AppendVarint(p, int64(k.stratum))
	p = binary.AppendUvarint(p, uint64(len(tuples)))
	for i, t := range tuples {
		p = binary.LittleEndian.AppendUint64(p, keyHashes[i])
		p = types.AppendTuple(p, t)
	}
	c.appendLocked(p)
}

// persistDropLocked appends a tombstone and compacts when debris piles up.
func (c *CheckpointStore) persistDropLocked(kind byte, queryID string, stratum int) {
	if c.f == nil {
		return
	}
	p := []byte{kind}
	p = ckptAppendString(p, queryID)
	if kind == ckptRecDropAbove {
		p = binary.AppendVarint(p, int64(stratum))
	}
	c.appendLocked(p)
	if c.drops++; c.drops >= ckptCompactAfter {
		c.compactLocked()
	}
}

// compactLocked rewrites the log from live memory (tmp + rename, so a
// crash mid-compaction leaves the old log intact) and reopens it.
func (c *CheckpointStore) compactLocked() {
	if c.f == nil {
		return
	}
	c.drops = 0
	path := filepath.Join(c.dir, ckptLogName)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return
	}
	var buf []byte
	for k, entries := range c.entries {
		p := []byte{ckptRecPut}
		p = ckptAppendString(p, k.queryID)
		p = binary.AppendVarint(p, int64(k.opID))
		p = binary.AppendVarint(p, int64(k.stratum))
		p = binary.AppendUvarint(p, uint64(len(entries)))
		for _, e := range entries {
			p = binary.LittleEndian.AppendUint64(p, e.keyHash)
			p = types.AppendTuple(p, e.tup)
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(p))
		buf = append(buf, hdr[:]...)
		buf = append(buf, p...)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return
	}
	c.f.Close()
	if nf, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644); err == nil {
		c.f = nf
	} else {
		c.f = nil
	}
}

func ckptAppendString(p []byte, s string) []byte {
	p = binary.AppendUvarint(p, uint64(len(s)))
	return append(p, s...)
}

func ckptReadString(p []byte) (string, int) {
	n, m := binary.Uvarint(p)
	if m <= 0 || n > uint64(len(p)-m) {
		return "", -1
	}
	return string(p[m : m+int(n)]), m + int(n)
}
