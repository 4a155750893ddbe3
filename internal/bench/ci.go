// CI summary support: rexbench -json emits a machine-readable record of
// the experiments it ran plus a wire-traffic benchmark, which the CI
// bench-smoke job uploads as an artifact so the performance trajectory
// accumulates across commits.
package bench

import (
	"encoding/json"
	"io"
	"time"

	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/exec"
)

// CISchemaVersion stamps every rexbench JSON record. Bump it whenever a
// field changes meaning, so trend tooling comparing artifacts across
// commits can tell records apart instead of silently misreading them.
// History: 1 = unversioned PR 1 records; 2 = adds schema_version, go,
// commit, and the standing-query section; 3 = adds the write-heavy churn
// scenario's coalescing fields (ingests, staged/folded deltas,
// coalesce_ratio, sequential_bytes); 4 = adds the inner_loop section
// (rows_per_sec, allocs_per_round, heap_growth_bytes), the suite rows'
// row_path_hash (compiled kernels off), and the churn row's rows_per_sec;
// 5 = adds the spill section (paged stores with a larger-than-pool
// dataset: buffer-pool hit rate, evictions, bytes spilled, rows/sec);
// 6 = adds the kernel section (filter microloop: compiled column kernel
// vs scratch-tuple bridge, speedup_vs_bridged) and the filter-heavy rql
// suite workload; 7 drops the inner loop's row mode (its mode and
// speedup_vs_row fields) with the row-dictionary codec it measured; 8
// drops the wire rows' compaction field: the plan decides where the
// shuffle folds, so the wire benchmark runs each workload once.
const CISchemaVersion = 8

// CIRecord is the top-level JSON document.
type CIRecord struct {
	// SchemaVersion, Transport, GoVersion, and Commit identify the record:
	// artifacts from different commits/toolchains/backends are comparable
	// only when these say so.
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go,omitempty"`
	Commit        string `json:"commit,omitempty"`

	Scale float64 `json:"scale"`
	Nodes int     `json:"nodes"`
	// Transport names the backend the suite ran on (inproc | tcp).
	Transport   string         `json:"transport,omitempty"`
	Experiments []CIExperiment `json:"experiments"`
	Wire        []CIWire       `json:"wire,omitempty"`
	// Suite holds the transport-comparison workloads; records from an
	// inproc run and a tcp run should agree on result_hash exactly.
	Suite []CIWire `json:"suite,omitempty"`
	// Standing holds the standing-query (incremental view maintenance)
	// measurements; result hashes must also agree across transports.
	Standing []CIStanding `json:"standing,omitempty"`
	// InnerLoop holds the shuffle inner-loop measurements; CI gates on a
	// rows_per_sec floor and on steady-state heap growth staying at zero.
	InnerLoop []CIInnerLoop `json:"inner_loop,omitempty"`
	// Spill holds the paged-store workload rows (dataset larger than the
	// buffer pool); CI gates on hash equality with the in-RAM run, on
	// evictions proving the run paged, and on hit-rate/throughput floors.
	Spill []CISpill `json:"spill,omitempty"`
	// Kernel holds the expression-kernel filter microloop rows (compiled
	// column kernel vs scratch-tuple bridge over one resident batch); CI
	// gates on the kernel row's speedup_vs_bridged floor.
	Kernel []CIKernel `json:"kernel,omitempty"`
}

// CIStanding records one standing-query measurement (produced by the
// rexbench standing suite, which drives the public session API).
type CIStanding struct {
	Query     string `json:"query"`
	Transport string `json:"transport"`
	// Rounds is the number of incremental ingestion rounds (the initial
	// fixpoint is not counted) and Strata the strata they executed.
	Rounds int `json:"rounds"`
	Strata int `json:"strata"`
	// InitialBytes is the initial fixpoint's wire volume,
	// IncrementalBytes the ingestion rounds' total, IngestBytes the
	// driver→worker staging payloads, and RecomputeBytes what one
	// from-scratch query over the revised tables shipped. The serving
	// claim is IncrementalBytes < RecomputeBytes.
	InitialBytes     int64 `json:"initial_bytes"`
	IncrementalBytes int64 `json:"incremental_bytes"`
	IngestBytes      int64 `json:"ingest_bytes"`
	RecomputeBytes   int64 `json:"recompute_bytes"`
	// ResultHash canonicalizes the folded subscription stream; it must
	// equal the recompute's hash on every transport.
	ResultHash string  `json:"result_hash"`
	Millis     float64 `json:"ms"`

	// Write-heavy churn scenario fields (zero on the plain standing row).
	// Ingests counts the IngestAsync requests fired; Rounds (above) is how
	// many coalesced rounds covered them — the serving claim is
	// Rounds < Ingests. StagedDeltas/FoldedDeltas report the pre-/post-
	// coalescing delta counts and CoalesceRatio their ratio.
	// SequentialBytes is the wire volume of the same churn ingested one
	// awaited round at a time on a reference session: the gate is
	// IncrementalBytes (coalesced) <= SequentialBytes.
	Ingests         int     `json:"ingests,omitempty"`
	StagedDeltas    int     `json:"staged_deltas,omitempty"`
	FoldedDeltas    int     `json:"folded_deltas,omitempty"`
	CoalesceRatio   float64 `json:"coalesce_ratio,omitempty"`
	SequentialBytes int64   `json:"sequential_bytes,omitempty"`
	// RowsPerSec is staged deltas applied per second of coalesced wall
	// time (churn row only); the bench-trend gate holds it against the
	// committed bench/baseline.json floor.
	RowsPerSec float64 `json:"rows_per_sec,omitempty"`
}

// CIExperiment records one figure run.
type CIExperiment struct {
	ID     string  `json:"id"`
	Millis float64 `json:"ms"`
}

// CIWire records one wire-traffic measurement: measured frame bytes and
// the shuffle's fold counts for a workload at this scale.
type CIWire struct {
	Workload   string `json:"workload"`
	Transport  string `json:"transport,omitempty"`
	WireBytes  int64  `json:"wire_bytes"`
	DeltasIn   int64  `json:"deltas_in"`
	DeltasOut  int64  `json:"deltas_out"`
	ResultRows int    `json:"result_rows"`
	Strata     int    `json:"strata,omitempty"`
	ResultHash string `json:"result_hash,omitempty"`
	// RowPathHash is the same workload re-run with compiled kernels off
	// (NoVectorize: every expression through the interpreter); it must
	// equal ResultHash — the kernels change nothing observable.
	// RowPathMillis is that run's wall time, the end-to-end A/B against
	// Millis. The row_path_* JSON names stay so trend tooling keeps
	// comparing records across commits.
	RowPathHash   string  `json:"row_path_hash,omitempty"`
	RowPathMillis float64 `json:"row_path_ms,omitempty"`
	Millis        float64 `json:"ms"`
}

// WireBench measures SSSP and PageRank wire traffic on the DBPedia-like
// graph.
func WireBench(sc Scale) ([]CIWire, error) {
	g := datagenDBPedia(sc)
	res, _, err := runRexSSSP(g, sc.Nodes, algos.SSSPConfig{Source: 0, Delta: true, MaxIterations: 300}, exec.Options{})
	if err != nil {
		return nil, err
	}
	out := []CIWire{ciWire("sssp", res)}
	res, _, err = runRexPageRank(g, sc.Nodes, algos.PageRankConfig{Epsilon: sc.Epsilon, Delta: true, MaxIterations: 60}, exec.Options{})
	if err != nil {
		return nil, err
	}
	return append(out, ciWire("pagerank", res)), nil
}

func ciWire(workload string, res *exec.Result) CIWire {
	return CIWire{
		Workload:   workload,
		WireBytes:  res.BytesSent,
		DeltasIn:   res.CompactIn,
		DeltasOut:  res.CompactOut,
		ResultRows: len(res.Tuples),
		Millis:     float64(res.Duration) / float64(time.Millisecond),
	}
}

// WriteJSON renders the record as indented JSON.
func (r *CIRecord) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
