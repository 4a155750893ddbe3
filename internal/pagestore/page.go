// Package pagestore implements a paged, spill-to-disk storage backend:
// fixed-size slotted pages behind a buffer pool with clock eviction, one
// page file per table under a node data directory, a write-ahead log with
// round-commit marks, and durable checkpoint images. It exposes the same
// Insert/Delete/ApplyDelta/ScanBatches surface as storage.Store (the
// storage.Backend interface), so the executor runs against it
// transparently; the Durable capability set on top is what lets a
// SIGKILLed node rejoin a standing query from its last committed round.
package pagestore

import (
	"encoding/binary"

	"github.com/rex-data/rex/internal/types"
)

// PageSize is the fixed page size. 8 KiB keeps a page a few tuples to a
// few hundred tuples wide for the datasets we generate, and divides every
// sane filesystem block size.
const PageSize = 8 * 1024

// Slotted-page layout:
//
//	[0:2]  uint16 slot count
//	[2:4]  uint16 dataStart — offset of the lowest record byte; record
//	       space grows DOWN from PageSize while the slot directory grows
//	       UP from the header, and the page is full when they meet.
//	[4:..] slot directory, 4 bytes per slot: offset uint16, length uint16
//
// A record is an 8-byte little-endian partition-key hash followed by the
// row codec's tuple encoding (types.AppendTuple). Deletion compacts the
// page in place, so every slot is live and free space is exact.
const (
	pageHeaderSize = 4
	slotSize       = 4
)

// maxRecordSize is the largest record one page can hold (one slot).
const maxRecordSize = PageSize - pageHeaderSize - slotSize

func initPage(buf []byte) {
	binary.LittleEndian.PutUint16(buf[0:2], 0)
	binary.LittleEndian.PutUint16(buf[2:4], PageSize)
}

func pageSlots(buf []byte) int { return int(binary.LittleEndian.Uint16(buf[0:2])) }

func pageDataStart(buf []byte) int { return int(binary.LittleEndian.Uint16(buf[2:4])) }

// pageFree reports the contiguous free bytes between the slot directory
// and the record region (a new record also costs one slot entry).
func pageFree(buf []byte) int {
	return pageDataStart(buf) - pageHeaderSize - pageSlots(buf)*slotSize
}

func pageSlot(buf []byte, i int) (off, length int) {
	base := pageHeaderSize + i*slotSize
	return int(binary.LittleEndian.Uint16(buf[base : base+2])),
		int(binary.LittleEndian.Uint16(buf[base+2 : base+4]))
}

func putPageSlot(buf []byte, i, off, length int) {
	base := pageHeaderSize + i*slotSize
	binary.LittleEndian.PutUint16(buf[base:base+2], uint16(off))
	binary.LittleEndian.PutUint16(buf[base+2:base+4], uint16(length))
}

func pageRecord(buf []byte, i int) []byte {
	off, length := pageSlot(buf, i)
	return buf[off : off+length]
}

// pageInsert appends a record, reporting false when the page is full.
func pageInsert(buf, rec []byte) bool {
	if len(rec)+slotSize > pageFree(buf) {
		return false
	}
	n := pageSlots(buf)
	off := pageDataStart(buf) - len(rec)
	copy(buf[off:], rec)
	binary.LittleEndian.PutUint16(buf[2:4], uint16(off))
	putPageSlot(buf, n, off, len(rec))
	binary.LittleEndian.PutUint16(buf[0:2], uint16(n+1))
	return true
}

// pageDelete removes slot i, compacting the record region in place:
// records below the removed one slide up by its length, and affected slot
// offsets are rebased. O(page) per delete keeps pages dense so free-space
// accounting stays a subtraction.
func pageDelete(buf []byte, i int) {
	n := pageSlots(buf)
	off, length := pageSlot(buf, i)
	start := pageDataStart(buf)
	// Slide the record bytes below (at lower offsets than) the deleted
	// record up over it.
	copy(buf[start+length:off+length], buf[start:off])
	binary.LittleEndian.PutUint16(buf[2:4], uint16(start+length))
	// Rebase slots pointing into the moved region and drop slot i.
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		o, l := pageSlot(buf, j)
		if o < off {
			o += length
		}
		dst := j
		if j > i {
			dst = j - 1
		}
		putPageSlot(buf, dst, o, l)
	}
	binary.LittleEndian.PutUint16(buf[0:2], uint16(n-1))
}

// encodeRecord builds a record: key hash then the row-encoded tuple.
func encodeRecord(buf []byte, hash uint64, t types.Tuple) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, hash)
	return types.AppendTuple(buf, t)
}

// recordHash reads a record's partition-key hash without decoding the
// tuple — the scan fast path compares hashes before materializing.
func recordHash(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec[:8]) }

// recordTuple decodes a record's tuple (a fresh allocation: the page
// buffer may be evicted or rewritten after the pin drops).
func recordTuple(rec []byte) (types.Tuple, error) {
	t, _, err := types.DecodeTuple(rec[8:])
	return t, err
}
