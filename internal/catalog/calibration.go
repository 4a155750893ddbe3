package catalog

// Calibration is the per-cluster resource profile of §5 ("we assume that
// each node has run an initial calibration that provides the optimizer with
// information about its relative CPU and disk speeds, and all pairwise
// network bandwidths"). Costs are abstract "work units"; the optimizer only
// compares plans, so units cancel out.
type Calibration struct {
	// CPUTuplesPerUnit: tuples one node can process per cost unit.
	CPUTuplesPerUnit float64
	// DiskBytesPerUnit: bytes one node can scan from disk per cost unit.
	DiskBytesPerUnit float64
	// NetBytesPerUnit: bytes one link can ship per cost unit (the minimum
	// pairwise bandwidth — the worst-case completion estimate of §5).
	NetBytesPerUnit float64
	// NodeCPURelative holds per-node relative CPU speeds (1.0 = baseline);
	// empty means homogeneous.
	NodeCPURelative []float64
	// UDFBaseCost is the reflection-call overhead per boxed UDF invocation.
	UDFBaseCost float64
}

// DefaultCalibration is a homogeneous-cluster profile.
func DefaultCalibration() Calibration {
	return Calibration{
		CPUTuplesPerUnit: 100_000,
		DiskBytesPerUnit: 4 << 20,
		NetBytesPerUnit:  1 << 20,
		UDFBaseCost:      2e-5,
	}
}

// SlowestCPU returns the relative speed of the slowest node — the
// worst-case completion estimate the optimizer uses for CPU-bound work.
func (c Calibration) SlowestCPU() float64 {
	slowest := 1.0
	for _, s := range c.NodeCPURelative {
		if s > 0 && s < slowest {
			slowest = s
		}
	}
	return slowest
}
