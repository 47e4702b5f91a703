package ann

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"strings"
	"testing"

	"hetsched/internal/characterize"
)

// TestTrainedPredictorSaveHash pins the bytes of the paper's trained bag:
// the SHA-256 of Save for TrainSizePredictor on the augmented pool with
// seed 42, at one and two training workers. Any change to the training
// arithmetic or its order moves a weight and with it the hash.
func TestTrainedPredictorSaveHash(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the 30-member bag twice; skipped in -short")
	}
	raw, err := os.ReadFile("testdata/predictor_seed42.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(raw))
	db, err := characterize.Augmented()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		p, _, err := TrainSizePredictor(db, PredictorConfig{Seed: 42, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("workers=%d: Save SHA-256 %s, want %s", workers, got, want)
		}
	}
}

// TestTrainAllocsIndependentOfEpochs: Train sizes every buffer once per
// call, so a run of 40 epochs allocates exactly what a run of 4 does, even
// though every epoch improves the validation error and saves its weights.
func TestTrainAllocsIndependentOfEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var d Dataset
	for i := 0; i < 40; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		d.X = append(d.X, x)
		d.Y = append(d.Y, []float64{x[0]*x[1] - x[2]})
	}
	train, val := d.Subset(seq(0, 32)), d.Subset(seq(32, 40))
	n, err := New([]int{3, 6, 4, 1}, Tanh, Identity, rng)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(epochs int) float64 {
		return testing.AllocsPerRun(5, func() {
			net := n.Clone()
			if _, err := Train(net, train, val, TrainConfig{Epochs: epochs, Patience: 1000, Seed: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(4), allocs(40)
	if short != long {
		t.Errorf("Train allocs: %v at 4 epochs, %v at 40; want equal", short, long)
	}
}

func seq(from, to int) []int {
	idx := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		idx = append(idx, i)
	}
	return idx
}
