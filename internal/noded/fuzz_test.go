package noded

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/rex-data/rex/internal/job"
)

// FuzzReadJobFile feeds arbitrary job.bin contents through what Restore
// reads them with: readJobFile, then job.Decode. Any input must come back
// as an error or a spec, never a panic; a file that parses must round-trip
// through writeJobFile, and its spec must give a data key. A spec small
// enough to generate is built too, so its ingest log gets folded into its
// dataset as Restore would (without its query: the fold is the target, not
// the RQL compiler). Seeds live in testdata/fuzz/FuzzReadJobFile.
func FuzzReadJobFile(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, jobFile)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		gen, self, payload, err := readJobFile(dir)
		if err != nil {
			return
		}
		spec, err := job.Decode(payload)
		if err != nil {
			return
		}
		if _, err := dataKey(spec, self); err != nil {
			t.Fatalf("decoded spec has no data key: %v", err)
		}
		if spec.Size <= 64 && spec.K <= 16 {
			small := *spec
			small.Query = ""
			_, _, _, _ = small.Build()
		}
		if err := writeJobFile(dir, gen, self, payload); err != nil {
			t.Fatal(err)
		}
		gen2, self2, payload2, err := readJobFile(dir)
		if err != nil || gen2 != gen || self2 != self || !bytes.Equal(payload2, payload) {
			t.Fatalf("job file did not round-trip: (%d, %d, %q, %v), want (%d, %d, %q)",
				gen2, self2, payload2, err, gen, self, payload)
		}
	})
}
