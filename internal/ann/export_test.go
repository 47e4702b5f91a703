package ann

// Evaluations reports how many times p has run its bag: one per memo miss.
func Evaluations(p *SizePredictor) int64 { return p.evals.Load() }
