package cluster

// Wire-codec microbenchmarks over the one delta payload format. The Row
// legs enter and leave in row form (EncodeDeltas builds the columnar runs
// from tuples, DecodeDeltas materializes fresh tuples); the Columnar legs
// stay columnar (the decode checks the lanes and aliases the frame, values
// materialize lazily). BenchmarkRoundTrip sizes the row-form round trip
// from a one-row argument frame up to a PageRank-sized result. CI's
// bench-micro step uploads the output.

import (
	"fmt"
	"testing"

	"github.com/rex-data/rex/internal/types"
)

func codecStream(n int) []types.Delta {
	ds := make([]types.Delta, n)
	for i := range ds {
		op := types.OpUpdate
		if i%5 == 0 {
			op = types.OpInsert
		}
		ds[i] = types.Delta{Op: op, Tup: types.NewTuple(int64(i%997), float64(i%31))}
	}
	return ds
}

func BenchmarkEncodeRow(b *testing.B) {
	rows := codecStream(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload := EncodeDeltas(rows)
		if len(payload) == 0 {
			b.Fatal("empty payload")
		}
	}
}

func BenchmarkEncodeColumnar(b *testing.B) {
	cb, ok := types.FromDeltas(codecStream(4096))
	if !ok {
		b.Fatal("stream not batchable")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := GetPayloadBuf()
		*buf = EncodeDeltaBatch(*buf, cb)
		if len(*buf) == 0 {
			b.Fatal("empty payload")
		}
		PutPayloadBuf(buf)
	}
}

func BenchmarkDecodeRow(b *testing.B) {
	payload := EncodeDeltas(codecStream(4096))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := DecodeDeltas(payload)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4096 {
			b.Fatal("short decode")
		}
	}
}

// BenchmarkDecodeColumnar is the data-edge decode: header parse plus one
// bounds-checked walk over the varint lane (the float lane is checked by
// length), aliasing the payload without materializing rows.
func BenchmarkDecodeColumnar(b *testing.B) {
	cb, ok := types.FromDeltas(codecStream(4096))
	if !ok {
		b.Fatal("stream not batchable")
	}
	payload := EncodeDeltaBatch(nil, cb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, dec, err := DecodeDeltasAny(payload)
		if err != nil {
			b.Fatal(err)
		}
		if dec == nil || dec.Len() != 4096 {
			b.Fatal("short decode")
		}
	}
}

// BenchmarkDecodeColumnarHashRoute adds the typical consumer work on top
// of the aliasing decode: hashing every row's key column, as the rehash
// operator does, without materializing tuples.
func BenchmarkDecodeColumnarHashRoute(b *testing.B) {
	cb, ok := types.FromDeltas(codecStream(4096))
	if !ok {
		b.Fatal("stream not batchable")
	}
	payload := EncodeDeltaBatch(nil, cb)
	key := []int{0}
	var hashes []uint64
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		_, dec, err := DecodeDeltasAny(payload)
		if err != nil {
			b.Fatal(err)
		}
		hashes = dec.HashKeys(key, hashes)
		for _, h := range hashes {
			sum ^= h
		}
	}
	if sum == 42 {
		b.Log(sum) // keep the loop observable
	}
}

// roundTripRows is an (int, int, float) result stream: vertex, degree and
// rank, the shape PageRank's result and checkpoint frames carry.
func roundTripRows(n int) []types.Delta {
	ds := make([]types.Delta, n)
	for i := range ds {
		ds[i] = types.Insert(types.NewTuple(int64(i), int64(1+i%9), 0.15+float64(i%1000)/997))
	}
	return ds
}

// BenchmarkRoundTrip is EncodeDeltas + DecodeDeltas at the sizes the
// row-form call sites ship: a prepared statement's argument tuple (1),
// a point lookup's result (4), a small result or ingest chunk (170), and
// a PageRank-sized result (7000).
func BenchmarkRoundTrip(b *testing.B) {
	for _, n := range []int{1, 4, 170, 7000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			rows := roundTripRows(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := DecodeDeltas(EncodeDeltas(rows))
				if err != nil || len(got) != n {
					b.Fatalf("round trip: %d rows, %v", len(got), err)
				}
			}
			b.ReportMetric(float64(len(EncodeDeltas(rows))), "payload_B")
		})
	}
}
