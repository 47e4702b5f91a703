package ann

import (
	"encoding/json"
	"fmt"
	"io"
)

// Evaluations reports how many times p has run its bag: one per memo miss.
func Evaluations(p *SizePredictor) int64 { return p.evals.Load() }

// Save serializes the predictor as JSON.
func (p *SizePredictor) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(p)
}

// LoadPredictor deserializes a predictor written by Save.
func LoadPredictor(r io.Reader) (*SizePredictor, error) {
	var p SizePredictor
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("ann: load predictor: %v", err)
	}
	if p.Ens == nil || p.Norm == nil {
		return nil, fmt.Errorf("ann: loaded predictor is incomplete")
	}
	return &p, nil
}
