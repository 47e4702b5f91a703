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
