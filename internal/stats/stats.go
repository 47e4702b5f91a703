// Package stats defines the execution-statistic feature vectors the ANN
// predictor consumes. The paper profiles each application once in the base
// configuration on the profiling core and records 18 cache-relevant
// execution statistics from hardware counters; feature selection then keeps
// the 10 inputs of the {10, 18, 5, 1} network (Section IV.C–D).
package stats

import (
	"fmt"
	"math"

	"hetsched/internal/vm"
)

// NumFeatures is the number of raw execution statistics recorded during
// profiling, matching the paper's 18.
const NumFeatures = 18

// NumSelected is the number of inputs kept after feature selection,
// matching the ANN's 10-input layer.
const NumSelected = 10

// Features is one application's raw execution statistics, recorded while
// executing in the base configuration.
type Features [NumFeatures]float64

// Feature indices. The first block are direct hardware counters; the second
// are counter-derived ratios; the last are the cache counters observed in
// the base configuration.
const (
	FInstructions = iota
	FCycles
	FLoads
	FStores
	FBranches
	FBranchesTaken
	FIntALU
	FMulDiv
	FFPOps
	FLoadBytes
	FStoreBytes
	FMemIntensity // (loads+stores)/instructions
	FIPC          // instructions/cycles (base, perfect-L1)
	FBranchRatio  // taken/branches
	FFootprint64  // distinct 64B blocks touched
	FFootprint16  // distinct 16B blocks touched
	FBaseMisses   // L1 misses in the base configuration
	FBaseMissRate // miss rate in the base configuration
)

// FeatureNames returns human-readable names indexed like Features.
func FeatureNames() [NumFeatures]string {
	return [NumFeatures]string{
		"instructions", "cycles", "loads", "stores",
		"branches", "branches_taken", "int_alu", "mul_div", "fp_ops",
		"load_bytes", "store_bytes",
		"mem_intensity", "ipc", "branch_ratio",
		"footprint64", "footprint16",
		"base_misses", "base_miss_rate",
	}
}

// FootprintSource is the slice of the trace API the feature vector needs:
// distinct-block working-set counts. *vm.Trace, *vm.FlatTrace and
// *vm.StreamSink satisfy it, so the streaming pipeline never materializes
// a trace just for features.
type FootprintSource interface {
	Footprint(blockBytes int) int
}

// FromExecution assembles the feature vector from a profiling run: the
// hardware counters, the recorded access trace (nil skips the footprint
// features), and the base-configuration cache counters (hits/misses
// observed while profiling on Core 4).
func FromExecution(ctr vm.Counters, tr FootprintSource, baseHits, baseMisses uint64) Features {
	var f Features
	f[FInstructions] = float64(ctr.Instructions)
	f[FCycles] = float64(ctr.Cycles)
	f[FLoads] = float64(ctr.Loads)
	f[FStores] = float64(ctr.Stores)
	f[FBranches] = float64(ctr.Branches)
	f[FBranchesTaken] = float64(ctr.BranchesTaken)
	f[FIntALU] = float64(ctr.IntALU)
	f[FMulDiv] = float64(ctr.MulDiv)
	f[FFPOps] = float64(ctr.FPOps)
	f[FLoadBytes] = float64(ctr.LoadBytes)
	f[FStoreBytes] = float64(ctr.StoreBytes)
	if ctr.Instructions > 0 {
		f[FMemIntensity] = float64(ctr.MemOps()) / float64(ctr.Instructions)
	}
	if ctr.Cycles > 0 {
		f[FIPC] = float64(ctr.Instructions) / float64(ctr.Cycles)
	}
	if ctr.Branches > 0 {
		f[FBranchRatio] = float64(ctr.BranchesTaken) / float64(ctr.Branches)
	}
	if tr != nil {
		f[FFootprint64] = float64(tr.Footprint(64))
		f[FFootprint16] = float64(tr.Footprint(16))
	}
	f[FBaseMisses] = float64(baseMisses)
	if total := baseHits + baseMisses; total > 0 {
		f[FBaseMissRate] = float64(baseMisses) / float64(total)
	}
	return f
}

// selectedIndices are the 10 statistics kept by feature selection: the
// paper names instruction count, cycle count, loads, stores, branches, and
// integer/floating-point instruction counts; the remaining slots carry the
// strongest cache-size signals (memory intensity, working-set footprint,
// base miss rate).
var selectedIndices = [NumSelected]int{
	FInstructions, FCycles, FLoads, FStores, FBranches,
	FIntALU, FFPOps, FMemIntensity, FFootprint64, FBaseMissRate,
}

// SelectedIndices returns a copy of the post-selection feature indices.
func SelectedIndices() [NumSelected]int { return selectedIndices }

// Select reduces the raw vector to the 10 ANN inputs.
func (f Features) Select() []float64 {
	out := make([]float64, NumSelected)
	for i, idx := range selectedIndices {
		out[i] = f[idx]
	}
	return out
}

// Slice returns the full vector as a []float64 copy.
func (f Features) Slice() []float64 {
	out := make([]float64, NumFeatures)
	copy(out, f[:])
	return out
}

// Normalizer standardizes feature vectors to zero mean and unit variance
// per dimension (z-score), the usual conditioning for small-MLP training.
type Normalizer struct {
	Mean []float64
	Std  []float64
}

// FitNormalizer computes per-dimension mean and standard deviation over the
// sample set. Dimensions with zero variance get Std 1 so they pass through
// as zero after centering.
func FitNormalizer(samples [][]float64) (*Normalizer, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("stats: no samples to fit")
	}
	dim := len(samples[0])
	if dim == 0 {
		return nil, fmt.Errorf("stats: zero-dimensional samples")
	}
	n := &Normalizer{Mean: make([]float64, dim), Std: make([]float64, dim)}
	for _, s := range samples {
		if len(s) != dim {
			return nil, fmt.Errorf("stats: ragged samples: %d vs %d", len(s), dim)
		}
		for j, v := range s {
			n.Mean[j] += v
		}
	}
	for j := range n.Mean {
		n.Mean[j] /= float64(len(samples))
	}
	for _, s := range samples {
		for j, v := range s {
			d := v - n.Mean[j]
			n.Std[j] += d * d
		}
	}
	for j := range n.Std {
		n.Std[j] = math.Sqrt(n.Std[j] / float64(len(samples)))
		if n.Std[j] < 1e-12 {
			n.Std[j] = 1
		}
	}
	return n, nil
}

// Apply standardizes one vector (allocating a new slice).
func (n *Normalizer) Apply(x []float64) ([]float64, error) {
	if len(x) != len(n.Mean) {
		return nil, fmt.Errorf("stats: vector dim %d != normalizer dim %d", len(x), len(n.Mean))
	}
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - n.Mean[j]) / n.Std[j]
	}
	return out, nil
}

// ApplyAll standardizes a batch.
func (n *Normalizer) ApplyAll(xs [][]float64) ([][]float64, error) {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		y, err := n.Apply(x)
		if err != nil {
			return nil, err
		}
		out[i] = y
	}
	return out, nil
}
