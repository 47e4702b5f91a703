package tuner

// MaxExplorations returns the worst-case number of configurations the tuner
// can evaluate for this core size.
func (t *Tuner) MaxExplorations() int {
	return len(t.assocs) + len(t.lines) - 1
}

// MinExplorations returns the best-case (earliest-terminating) count.
func (t *Tuner) MinExplorations() int {
	min := 2 // first config plus one failed line step
	if len(t.assocs) > 1 {
		min = 3 // first config, one failed assoc step, one failed line step
	}
	return min
}
