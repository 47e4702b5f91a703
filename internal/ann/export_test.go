package ann

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"hetsched/internal/characterize"
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

var (
	defaultOnce sync.Once
	defaultPred *SizePredictor
	defaultRep  PredictorReport
	defaultErr  error
)

// DefaultPredictor trains (once per process) the canonical predictor on the
// augmented characterization pool with the paper's hyperparameters.
func DefaultPredictor() (*SizePredictor, PredictorReport, error) {
	defaultOnce.Do(func() {
		db, err := characterize.Augmented()
		if err != nil {
			defaultErr = err
			return
		}
		defaultPred, defaultRep, defaultErr = TrainSizePredictor(db, PredictorConfig{Seed: 42})
	})
	return defaultPred, defaultRep, defaultErr
}

// MSE evaluates mean squared error over the dataset.
func MSE(n *Network, d Dataset) (float64, error) {
	if d.Len() == 0 {
		return 0, fmt.Errorf("ann: MSE over empty dataset")
	}
	return mse(n, d, newWorkspace(n))
}
