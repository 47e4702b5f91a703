package ann

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := New([]int{5}, Tanh, Identity, rng); err == nil {
		t.Error("New(single layer) succeeded")
	}
	if _, err := New([]int{5, 0, 1}, Tanh, Identity, rng); err == nil {
		t.Error("New(zero width) succeeded")
	}
	if _, err := New([]int{5, 3, 1}, Tanh, Identity, nil); err == nil {
		t.Error("New(nil rng) succeeded")
	}
}

func TestPaperTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, err := New([]int{10, 18, 5, 1}, Tanh, Identity, rng)
	if err != nil {
		t.Fatal(err)
	}
	if n.InputDim() != 10 || n.OutputDim() != 1 {
		t.Errorf("dims %d/%d", n.InputDim(), n.OutputDim())
	}
	if len(n.Layers) != 3 {
		t.Errorf("layers = %d, want 3", len(n.Layers))
	}
	if len(n.Layers[0].W) != 18 || len(n.Layers[1].W) != 5 || len(n.Layers[2].W) != 1 {
		t.Error("hidden widths do not match {18, 5, 1}")
	}
	out, err := n.Forward(make([]float64, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Errorf("output width %d", len(out))
	}
}

func TestForwardDimMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, _ := New([]int{3, 2, 1}, Tanh, Identity, rng)
	if _, err := n.Forward([]float64{1, 2}); err == nil {
		t.Error("Forward(wrong dim) succeeded")
	}
}

func TestActivations(t *testing.T) {
	cases := []struct {
		act  Activation
		in   float64
		want float64
	}{
		{Identity, 3, 3},
		{Tanh, 0, 0},
		{Sigmoid, 0, 0.5},
		{ReLU, -2, 0},
		{ReLU, 2, 2},
	}
	for _, tc := range cases {
		if got := tc.act.apply(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%v(%v) = %v, want %v", tc.act, tc.in, got, tc.want)
		}
	}
	for _, a := range []Activation{Identity, Tanh, Sigmoid, ReLU} {
		if a.String() == "" {
			t.Error("unnamed activation")
		}
	}
}

// Numerical gradient check: backprop gradients must match finite
// differences on a small random network.
func TestBackpropMatchesNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, err := New([]int{3, 4, 2}, Tanh, Identity, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -0.8, 0.5}
	y := []float64{0.2, -0.4}
	g := newGrads(n)
	n.backprop(x, y, g, newWorkspace(n))

	loss := func() float64 {
		out, _ := n.Forward(x)
		var l float64
		for o := range out {
			d := out[o] - y[o]
			l += d * d
		}
		return 0.5 * l
	}
	const eps = 1e-6
	for l := range n.Layers {
		for o := range n.Layers[l].W {
			for i := range n.Layers[l].W[o] {
				orig := n.Layers[l].W[o][i]
				n.Layers[l].W[o][i] = orig + eps
				lp := loss()
				n.Layers[l].W[o][i] = orig - eps
				lm := loss()
				n.Layers[l].W[o][i] = orig
				num := (lp - lm) / (2 * eps)
				if math.Abs(num-g.dW[l][o][i]) > 1e-5*(1+math.Abs(num)) {
					t.Fatalf("gradient mismatch at layer %d w[%d][%d]: backprop %v vs numerical %v",
						l, o, i, g.dW[l][o][i], num)
				}
			}
			orig := n.Layers[l].B[o]
			n.Layers[l].B[o] = orig + eps
			lp := loss()
			n.Layers[l].B[o] = orig - eps
			lm := loss()
			n.Layers[l].B[o] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-g.dB[l][o]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("bias gradient mismatch at layer %d b[%d]", l, o)
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, _ := New([]int{2, 3, 1}, Tanh, Identity, rng)
	c := n.Clone()
	c.Layers[0].W[0][0] += 100
	c.Layers[0].B[0] += 100
	if n.Layers[0].W[0][0] == c.Layers[0].W[0][0] {
		t.Error("clone shares weight storage")
	}
	if n.Layers[0].B[0] == c.Layers[0].B[0] {
		t.Error("clone shares bias storage")
	}
}

// Training must drive the loss down on a learnable function (XOR-like).
func TestTrainLearnsXOR(t *testing.T) {
	ds := Dataset{
		X: [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}},
		Y: [][]float64{{0}, {1}, {1}, {0}},
	}
	rng := rand.New(rand.NewSource(5))
	n, err := New([]int{2, 8, 1}, Tanh, Identity, rng)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := MSE(n, ds)
	res, err := Train(n, ds, Dataset{}, TrainConfig{Epochs: 3000, LearningRate: 0.05, BatchSize: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	after, _ := MSE(n, ds)
	if after >= before {
		t.Errorf("training did not reduce MSE: %v -> %v", before, after)
	}
	if after > 0.05 {
		t.Errorf("XOR not learned: final MSE %v (result %+v)", after, res)
	}
}

func TestTrainValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, _ := New([]int{2, 2, 1}, Tanh, Identity, rng)
	if _, err := Train(n, Dataset{}, Dataset{}, TrainConfig{}); err == nil {
		t.Error("Train(empty) succeeded")
	}
	bad := Dataset{X: [][]float64{{1}}, Y: [][]float64{{1}}}
	if _, err := Train(n, bad, Dataset{}, TrainConfig{}); err == nil {
		t.Error("Train(dim mismatch) succeeded")
	}
	badY := Dataset{X: [][]float64{{1, 2}}, Y: [][]float64{{1, 2, 3}}}
	if _, err := Train(n, badY, Dataset{}, TrainConfig{}); err == nil {
		t.Error("Train(target dim mismatch) succeeded")
	}
}

func TestEarlyStoppingRestoresBest(t *testing.T) {
	// Validation set disjoint from training forces early stopping to kick
	// in; the restored network must score bestVal on val.
	rng := rand.New(rand.NewSource(2))
	train := Dataset{X: [][]float64{{0}, {1}}, Y: [][]float64{{0}, {1}}}
	val := Dataset{X: [][]float64{{0.5}}, Y: [][]float64{{0.5}}}
	n, _ := New([]int{1, 4, 1}, Tanh, Identity, rng)
	res, err := Train(n, train, val, TrainConfig{Epochs: 500, Patience: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := MSE(n, val)
	if math.Abs(got-res.ValMSE) > 1e-9 {
		t.Errorf("restored val MSE %v != reported best %v", got, res.ValMSE)
	}
}

func TestSplitFractions(t *testing.T) {
	n := 100
	ds := Dataset{X: make([][]float64, n), Y: make([][]float64, n)}
	for i := 0; i < n; i++ {
		ds.X[i] = []float64{float64(i)}
		ds.Y[i] = []float64{float64(i)}
	}
	rng := rand.New(rand.NewSource(1))
	train, val, test, err := Split(ds, 0.7, 0.15, rng)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 70 || val.Len() != 15 || test.Len() != 15 {
		t.Errorf("split %d/%d/%d, want 70/15/15", train.Len(), val.Len(), test.Len())
	}
	// Partition property: no sample lost or duplicated.
	seen := map[float64]int{}
	for _, part := range []Dataset{train, val, test} {
		for _, x := range part.X {
			seen[x[0]]++
		}
	}
	if len(seen) != n {
		t.Errorf("split covers %d distinct samples, want %d", len(seen), n)
	}
	for v, c := range seen {
		if c != 1 {
			t.Errorf("sample %v appears %d times", v, c)
		}
	}
}

func TestSplitErrors(t *testing.T) {
	ds := Dataset{X: [][]float64{{1}}, Y: [][]float64{{1}}}
	rng := rand.New(rand.NewSource(1))
	if _, _, _, err := Split(ds, 0, 0.5, rng); err == nil {
		t.Error("Split(0 train) succeeded")
	}
	if _, _, _, err := Split(ds, 0.9, 0.5, rng); err == nil {
		t.Error("Split(>1 total) succeeded")
	}
	if _, _, _, err := Split(ds, 0.7, 0.15, nil); err == nil {
		t.Error("Split(nil rng) succeeded")
	}
}

func TestDatasetValidate(t *testing.T) {
	good := Dataset{X: [][]float64{{1, 2}}, Y: [][]float64{{3}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	bad := []Dataset{
		{},
		{X: [][]float64{{1}}, Y: nil},
		{X: [][]float64{{1}, {2, 3}}, Y: [][]float64{{1}, {2}}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad dataset %d validated", i)
		}
	}
}

// Property: forward pass is deterministic and bounded for tanh output.
func TestForwardDeterministicQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, _ := New([]int{3, 5, 1}, Tanh, Tanh, rng)
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		x := []float64{clamp(a), clamp(b), clamp(c)}
		y1, err1 := n.Forward(x)
		y2, err2 := n.Forward(x)
		if err1 != nil || err2 != nil {
			return false
		}
		return y1[0] == y2[0] && y1[0] >= -1 && y1[0] <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clamp(v float64) float64 {
	if math.IsInf(v, 0) {
		return 0
	}
	for math.Abs(v) > 100 {
		v /= 100
	}
	return v
}

func BenchmarkForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, err := New([]int{10, 18, 5, 1}, Tanh, Identity, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 10)
	for i := range x {
		x[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBackpropStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, err := New([]int{10, 18, 5, 1}, Tanh, Identity, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 10)
	for i := range x {
		x[i] = rng.Float64()
	}
	y := []float64{0.5}
	g := newGrads(n)
	vel := newGrads(n)
	ws := newWorkspace(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.zero()
		n.backprop(x, y, g, ws)
		n.step(g, vel, 0.02, 0.9, 1)
	}
}
