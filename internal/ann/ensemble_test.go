package ann

import (
	"math"
	"testing"
)

// voteDataset is a small synthetic regression problem: y = sin(2x0) + x1.
func voteDataset(n int) Dataset {
	ds := Dataset{X: make([][]float64, n), Y: make([][]float64, n)}
	for i := 0; i < n; i++ {
		x0 := float64(i) / float64(n)
		x1 := float64(i%7) / 7
		ds.X[i] = []float64{x0, x1}
		ds.Y[i] = []float64{math.Sin(2*x0) + x1}
	}
	return ds
}

// TestTrainEnsembleWorkerDeterminism: training the same seed across
// different worker counts must produce identical networks, because every
// member derives its own rng from (Seed, member index) alone.
func TestTrainEnsembleWorkerDeterminism(t *testing.T) {
	ds := voteDataset(40)
	cfg := EnsembleConfig{
		Members: 6,
		Sizes:   []int{2, 5, 1},
		Train:   TrainConfig{Epochs: 40, LearningRate: 0.05, BatchSize: 8},
		Seed:    7,
	}
	trainWith := func(workers int) *Ensemble {
		c := cfg
		c.Workers = workers
		ens, err := TrainEnsemble(ds, Dataset{}, c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return ens
	}
	serial := trainWith(1)
	parallel := trainWith(8)
	probe := []float64{0.3, 0.6}
	a, err := serial.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Fatalf("worker count changed the trained ensemble: %v vs %v", a[0], b[0])
	}
}

// TestPredictEmptyEnsemble pins the error path.
func TestPredictEmptyEnsemble(t *testing.T) {
	var e Ensemble
	if _, err := e.Predict([]float64{1}); err == nil {
		t.Fatal("empty ensemble predicted")
	}
}
