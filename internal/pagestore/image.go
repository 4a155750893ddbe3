package pagestore

import (
	"encoding/binary"
	"fmt"
	"os"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// A checkpoint image is the durable full-state snapshot a node restarts
// from: every table's local tuples (primary and replica copies alike), as
// one cluster delta payload per table — the same columnar format the wire
// uses, split into runs where a table's tuples differ in arity. The image
// is written to a temp file, fsynced, and atomically renamed over the
// previous one, so a crash mid-checkpoint leaves the old image intact.
//
// Layout: magic, varint committedRound, uvarint table count, then per
// table: name, uvarint keyCol, uvarint payload length, payload. Version 01
// images (a per-table format byte, row or columnar) are refused by magic.
var imageMagic = []byte("REXIMG02")

type imageTable struct {
	name   string
	keyCol int
	tuples []types.Tuple
}

func writeImage(path string, committedRound int64, tables []imageTable) error {
	buf := append([]byte(nil), imageMagic...)
	buf = binary.AppendVarint(buf, committedRound)
	buf = binary.AppendUvarint(buf, uint64(len(tables)))
	for _, t := range tables {
		buf = encodeString(buf, t.name)
		buf = binary.AppendUvarint(buf, uint64(t.keyCol))
		payload := cluster.EncodeDeltas(types.Inserts(t.tuples...))
		buf = binary.AppendUvarint(buf, uint64(len(payload)))
		buf = append(buf, payload...)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readImage(path string) (committedRound int64, tables []imageTable, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return -1, nil, err
	}
	if len(buf) < len(imageMagic)+1 || string(buf[:len(imageMagic)]) != string(imageMagic) {
		return -1, nil, fmt.Errorf("pagestore: %s: not a %s checkpoint image", path, imageMagic)
	}
	buf = buf[len(imageMagic):]
	round, n := binary.Varint(buf)
	if n <= 0 {
		return -1, nil, fmt.Errorf("pagestore: %s: bad round", path)
	}
	buf = buf[n:]
	nt, n := binary.Uvarint(buf)
	if n <= 0 {
		return -1, nil, fmt.Errorf("pagestore: %s: bad table count", path)
	}
	buf = buf[n:]
	for i := uint64(0); i < nt; i++ {
		name, used, ok := decodeString(buf)
		if !ok {
			return -1, nil, fmt.Errorf("pagestore: %s: bad table name", path)
		}
		buf = buf[used:]
		keyCol, n := binary.Uvarint(buf)
		if n <= 0 {
			return -1, nil, fmt.Errorf("pagestore: %s: bad key column", path)
		}
		buf = buf[n:]
		plen, n := binary.Uvarint(buf)
		if n <= 0 || plen > uint64(len(buf)-n) {
			return -1, nil, fmt.Errorf("pagestore: %s: bad payload length", path)
		}
		payload := buf[n : n+int(plen)]
		buf = buf[n+int(plen):]
		ds, err := cluster.DecodeDeltas(payload)
		if err != nil {
			return -1, nil, fmt.Errorf("pagestore: %s: table %s: %w", path, name, err)
		}
		tuples := make([]types.Tuple, len(ds))
		for j, d := range ds {
			tuples[j] = d.Tup
		}
		tables = append(tables, imageTable{name: name, keyCol: int(keyCol), tuples: tuples})
	}
	return round, tables, nil
}
