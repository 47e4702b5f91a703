package stats

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

// Count returns the number of observations fed so far (not the retained
// sample size).
func (r *Reservoir) Count() int64 { return r.n }

// Reset clears the stream while keeping capacity and RNG state.
func (r *Reservoir) Reset() {
	r.vals = r.vals[:0]
	r.n = 0
}
