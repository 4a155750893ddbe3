package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"github.com/rex-data/rex/internal/job"
)

// CISpill is the spill workload row (schema v5): the SSSP suite workload
// re-run through paged stores whose buffer pool is far smaller than the
// dataset, against the identical all-in-RAM run. The hashes must match
// exactly; the pool counters prove the run genuinely paged; and the
// bench-trend gate holds hit rate and rows/sec against the committed
// baseline floors.
type CISpill struct {
	Workload        string `json:"workload"`
	BufferPoolPages int    `json:"buffer_pool_pages"`
	// DatasetRows is the loaded base-table row count (what had to fit —
	// or not fit — through the pool).
	DatasetRows int `json:"dataset_rows"`
	// ResultHash is the paged run's canonical result hash; RAMHash the
	// in-memory reference's. They must be identical.
	ResultHash string `json:"result_hash"`
	RAMHash    string `json:"ram_hash"`
	// Pool traffic: hit rate over all page lookups, pages evicted, dirty
	// bytes written by eviction. Evictions == 0 means the dataset fit and
	// the row proves nothing — the gate rejects it.
	PoolHitRate  float64 `json:"pool_hit_rate"`
	Evictions    int64   `json:"evictions"`
	BytesSpilled int64   `json:"bytes_spilled"`
	// RowsPerSec is dataset rows over the paged run's wall time — the
	// regression trend for the paging overhead.
	RowsPerSec float64 `json:"rows_per_sec"`
	Millis     float64 `json:"ms"`
	RAMMillis  float64 `json:"ram_ms"`
}

// spillPoolPages is the deliberately tiny budget: 8 pages = 64 KiB per
// node, a small fraction of the suite dataset at every CI scale.
const spillPoolPages = 8

// SpillBench runs the SSSP suite workload twice in-process — all in RAM,
// then through paged stores with a tiny buffer pool — and reports the
// spill row. In-process only: TCP daemons page under their own data
// directories and are covered by the recovery smoke instead.
func SpillBench(w io.Writer, sc Scale) ([]CISpill, error) {
	spec := &job.Spec{
		Workload: "sssp", Nodes: sc.Nodes, Seed: 1, Size: sc.DBPediaVertices,
		Source: 0, Delta: true, MaxIterations: 300,
	}

	ramStart := time.Now()
	ramRes, err := job.RunInProc(spec, nil)
	if err != nil {
		return nil, fmt.Errorf("bench: spill reference run: %w", err)
	}
	ramMs := float64(time.Since(ramStart)) / float64(time.Millisecond)

	dir, err := os.MkdirTemp("", "rexspill")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sp := *spec
	sp.SpillDir = dir
	sp.BufferPoolPages = spillPoolPages
	start := time.Now()
	eng, plan, opts, err := job.InProcEngine(&sp)
	if err != nil {
		return nil, fmt.Errorf("bench: spill engine: %w", err)
	}
	defer eng.Transport.Close()
	defer eng.CloseStores()
	res, err := eng.Run(plan, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: spill run: %w", err)
	}
	elapsed := time.Since(start)

	rows := datasetRows(&sp)
	ps := eng.PoolStats()
	row := CISpill{
		Workload:        "sssp",
		BufferPoolPages: spillPoolPages,
		DatasetRows:     rows,
		ResultHash:      ResultHash(res.Tuples),
		RAMHash:         ResultHash(ramRes.Tuples),
		PoolHitRate:     ps.HitRate(),
		Evictions:       ps.Evictions,
		BytesSpilled:    ps.BytesSpilled,
		RowsPerSec:      float64(rows) / elapsed.Seconds(),
		Millis:          float64(elapsed) / float64(time.Millisecond),
		RAMMillis:       ramMs,
	}
	if row.ResultHash != row.RAMHash {
		return nil, fmt.Errorf("bench: spill hash %s != in-RAM hash %s", row.ResultHash, row.RAMHash)
	}

	rep := &Report{
		Title: "Spill workload (paged stores, larger-than-pool dataset)",
		Notes: fmt.Sprintf("pool %d pages/node; hashes must match the in-RAM run; evictions must be > 0", spillPoolPages),
		Headers: []string{"workload", "rows", "pool_pages", "hit_rate", "evictions",
			"spilled_bytes", "rows_per_sec", "ms", "ram_ms"},
		Rows: [][]string{{
			row.Workload, fmt.Sprint(rows), fmt.Sprint(spillPoolPages),
			fmt.Sprintf("%.3f", row.PoolHitRate), fmt.Sprint(row.Evictions),
			fmt.Sprint(row.BytesSpilled), fmt.Sprintf("%.0f", row.RowsPerSec),
			fmt.Sprintf("%.1f", row.Millis), fmt.Sprintf("%.1f", row.RAMMillis),
		}},
	}
	rep.Print(w)
	return []CISpill{row}, nil
}

// datasetRows counts the spec's loaded base rows (tables regenerated from
// the same deterministic parameters the run used).
func datasetRows(s *job.Spec) int {
	clone := *s
	_, _, tables, err := clone.Build()
	if err != nil {
		return 0
	}
	n := 0
	for _, tb := range tables {
		n += len(tb.Tuples)
	}
	return n
}
