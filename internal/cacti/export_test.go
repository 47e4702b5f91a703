package cacti

// LeakageEnergy returns the static energy (nJ) dissipated by a cache of the
// given capacity over the given number of cycles.
func (m *Model) LeakageEnergy(sizeKB int, cycles uint64) float64 {
	return m.p.LeakPerKBPerMCycle * float64(sizeKB) * float64(cycles) / 1e6
}
