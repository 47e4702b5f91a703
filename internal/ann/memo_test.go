package ann

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hetsched/internal/characterize"
	"hetsched/internal/stats"
)

// memoTestPredictor trains a quick bag of the paper's 30 members on the
// augmented pool. Few epochs: the memo tests need a bag, not a good one.
func memoTestPredictor(t testing.TB) (*SizePredictor, *characterize.DB) {
	t.Helper()
	db, err := characterize.Augmented()
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := TrainSizePredictor(db, PredictorConfig{
		Seed:     3,
		Ensemble: EnsembleConfig{Train: TrainConfig{Epochs: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, db
}

// memoFeatures returns every augmented record's features, clean and with
// each counter scaled by up to ±5 %, the shape of fault-injected counter
// noise.
func memoFeatures(db *characterize.DB) []stats.Features {
	rng := rand.New(rand.NewSource(1))
	var fs []stats.Features
	for i := range db.Records {
		clean := db.Records[i].Features
		noisy := clean
		for j := range noisy {
			noisy[j] *= 1 + 0.05*(2*rng.Float64()-1)
		}
		fs = append(fs, clean, noisy)
	}
	return fs
}

// reference is the bag's answer computed without the memo, as it was
// before it: Ensemble.Predict for the size, one Forward per member for the
// votes.
type reference struct {
	sizeKB int
	votes  map[int]int
}

func uncached(t testing.TB, p *SizePredictor, f stats.Features) reference {
	t.Helper()
	x, err := p.Norm.Apply(f.Select())
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Ens.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	ref := reference{sizeKB: targetToSize(out[0]), votes: map[int]int{}}
	for _, n := range p.Ens.Nets {
		y, err := n.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		ref.votes[targetToSize(y[0])]++
	}
	return ref
}

// checkAnswer compares p's answers for f with want; it returns a
// description of the difference, or "" when they are equal.
func checkAnswer(p *SizePredictor, f stats.Features, want reference) string {
	size, err := p.PredictSizeKB(f)
	if err != nil {
		return err.Error()
	}
	votes, err := p.MemberVotes(f)
	if err != nil {
		return err.Error()
	}
	if size != want.sizeKB || !reflect.DeepEqual(votes, want.votes) {
		return fmt.Sprintf("got %d KB %v, want %d KB %v", size, votes, want.sizeKB, want.votes)
	}
	return ""
}

// TestMemoMatchesUncached: the memoized answers equal an uncached
// evaluation for every augmented record, clean and noisy, on the miss and
// on the hit, and the bag runs once per distinct feature vector.
func TestMemoMatchesUncached(t *testing.T) {
	p, db := memoTestPredictor(t)
	fs := memoFeatures(db)
	distinct := map[stats.Features]bool{}
	for _, f := range fs {
		distinct[f] = true
	}
	for pass := 0; pass < 2; pass++ {
		for i, f := range fs {
			if diff := checkAnswer(p, f, uncached(t, p, f)); diff != "" {
				t.Fatalf("pass %d, features %d: %s", pass, i, diff)
			}
		}
	}
	if n := p.evals.Load(); n != int64(len(distinct)) {
		t.Errorf("%d bag evaluations for %d distinct feature vectors", n, len(distinct))
	}
}

// TestMemoNaNFeatures: a NaN never equals itself, so NaN features never
// hit; every call still answers exactly, and the cap bounds the entries
// they leave behind.
func TestMemoNaNFeatures(t *testing.T) {
	p, db := memoTestPredictor(t)
	small := &SizePredictor{Ens: &Ensemble{Nets: p.Ens.Nets[:2]}, Norm: p.Norm}
	f := db.Records[0].Features
	f[stats.FBaseMissRate] = math.NaN()
	want := uncached(t, small, f)
	for i := 0; i <= memoCap; i++ {
		if diff := checkAnswer(small, f, want); diff != "" {
			t.Fatalf("call %d: %s", i, diff)
		}
	}
	if n := small.evals.Load(); n != 2*(memoCap+1) {
		t.Errorf("%d bag evaluations for %d calls: a NaN key hit", n, 2*(memoCap+1))
	}
	if len(small.memo) > memoCap {
		t.Errorf("memo holds %d entries, cap %d", len(small.memo), memoCap)
	}
}

// TestMemoSkipsErrors: a failed evaluation is not memoized, so every call
// evaluates again and the memo stays empty.
func TestMemoSkipsErrors(t *testing.T) {
	p, db := memoTestPredictor(t)
	f := db.Records[0].Features
	for name, bad := range map[string]*SizePredictor{
		"normalizer dim": {Ens: p.Ens, Norm: &stats.Normalizer{Mean: []float64{0}, Std: []float64{1}}},
		"empty ensemble": {Ens: &Ensemble{}, Norm: p.Norm},
	} {
		for i := 0; i < 2; i++ {
			if _, err := bad.PredictSizeKB(f); err == nil {
				t.Errorf("%s: PredictSizeKB succeeded", name)
			}
			if _, err := bad.MemberVotes(f); err == nil {
				t.Errorf("%s: MemberVotes succeeded", name)
			}
		}
		if n := bad.evals.Load(); n != 4 {
			t.Errorf("%s: %d evaluations for 4 failing calls", name, n)
		}
		if len(bad.memo) != 0 {
			t.Errorf("%s: memo kept %d failed answers", name, len(bad.memo))
		}
	}
}

// TestMemoForgetsPanics: an evaluation that panics leaves nothing behind,
// so the next call evaluates again instead of waiting for it forever.
func TestMemoForgetsPanics(t *testing.T) {
	p, db := memoTestPredictor(t)
	broken := &SizePredictor{Ens: p.Ens, Norm: &stats.Normalizer{Mean: p.Norm.Mean, Std: p.Norm.Std[:1]}}
	f := db.Records[0].Features
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("call %d: a normalizer with a short Std did not panic", i)
				}
			}()
			_, _ = broken.PredictSizeKB(f)
		}()
	}
	if n := broken.evals.Load(); n != 2 {
		t.Errorf("%d evaluations for 2 panicking calls", n)
	}
}

// TestMemoResetsAtCap: filling the memo past its cap clears it, and the
// answers stay exact across the reset.
func TestMemoResetsAtCap(t *testing.T) {
	p, db := memoTestPredictor(t)
	small := &SizePredictor{Ens: &Ensemble{Nets: p.Ens.Nets[:2]}, Norm: p.Norm}
	base := db.Records[0].Features
	feature := func(i int) stats.Features {
		f := base
		f[stats.FFootprint64] += float64(i)
		return f
	}
	const over = 10
	for i := 0; i < memoCap+over; i++ {
		f := feature(i)
		if diff := checkAnswer(small, f, uncached(t, small, f)); diff != "" {
			t.Fatalf("features %d: %s", i, diff)
		}
	}
	if len(small.memo) != over {
		t.Errorf("memo holds %d entries after the reset, want %d", len(small.memo), over)
	}
	before := small.evals.Load()
	if diff := checkAnswer(small, feature(0), uncached(t, small, feature(0))); diff != "" {
		t.Errorf("features 0 after the reset: %s", diff)
	}
	if n := small.evals.Load() - before; n != 1 {
		t.Errorf("features cleared by the reset evaluated %d times, want 1", n)
	}
}

// TestMemoConcurrent hammers one predictor from many goroutines; run it
// under -race. Concurrent first callers share one evaluation.
func TestMemoConcurrent(t *testing.T) {
	p, db := memoTestPredictor(t)
	fs := memoFeatures(db)
	want := make([]reference, len(fs))
	distinct := map[stats.Features]bool{}
	for i, f := range fs {
		want[i] = uncached(t, p, f)
		distinct[f] = true
	}
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range fs {
				i := (k + g*len(fs)/goroutines) % len(fs)
				if diff := checkAnswer(p, fs[i], want[i]); diff != "" {
					t.Errorf("goroutine %d, features %d: %s", g, i, diff)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := p.evals.Load(); n > int64(len(distinct)) {
		t.Errorf("%d bag evaluations for %d distinct feature vectors", n, len(distinct))
	}
}

// TestMemoNotSaved: the memo is not part of the model, so Save writes the
// same bytes before and after predictions, and a loaded predictor starts
// empty and memoizes lazily.
func TestMemoNotSaved(t *testing.T) {
	p, db := memoTestPredictor(t)
	var before, after bytes.Buffer
	if err := p.Save(&before); err != nil {
		t.Fatal(err)
	}
	fs := memoFeatures(db)
	for _, f := range fs {
		if _, err := p.PredictSizeKB(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("Save output changed after predictions")
	}

	q, err := LoadPredictor(&after)
	if err != nil {
		t.Fatal(err)
	}
	if q.memo != nil || q.evals.Load() != 0 {
		t.Fatal("a loaded predictor starts with a memo")
	}
	for pass := 0; pass < 2; pass++ {
		if diff := checkAnswer(q, fs[0], uncached(t, p, fs[0])); diff != "" {
			t.Fatalf("loaded predictor, pass %d: %s", pass, diff)
		}
	}
	if n := q.evals.Load(); n != 1 {
		t.Errorf("loaded predictor evaluated %d times for one feature vector", n)
	}
}

// benchBag is an untrained bag of the paper's shape ({10, 18, 5, 1}, 30
// members) with an identity normalizer: timing needs no training.
func benchBag(b *testing.B) (*Ensemble, *stats.Normalizer, stats.Features) {
	rng := rand.New(rand.NewSource(1))
	ens := &Ensemble{}
	for m := 0; m < 30; m++ {
		n, err := New([]int{stats.NumSelected, 18, 5, 1}, Tanh, Identity, rng)
		if err != nil {
			b.Fatal(err)
		}
		ens.Nets = append(ens.Nets, n)
	}
	norm := &stats.Normalizer{Mean: make([]float64, stats.NumSelected), Std: make([]float64, stats.NumSelected)}
	for i := range norm.Std {
		norm.Std[i] = 1
	}
	var f stats.Features
	for i := range f {
		f[i] = rng.Float64()
	}
	return ens, norm, f
}

// BenchmarkSizePredict times one prediction: cold on a fresh predictor, a
// memo miss that runs the 30-member pass; warm on a predictor that has
// answered the features before, a memo hit.
func BenchmarkSizePredict(b *testing.B) {
	ens, norm, f := benchBag(b)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := &SizePredictor{Ens: ens, Norm: norm}
			if _, err := p.PredictSizeKB(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		p := &SizePredictor{Ens: ens, Norm: norm}
		if _, err := p.PredictSizeKB(f); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.PredictSizeKB(f); err != nil {
				b.Fatal(err)
			}
		}
	})
}
