package ann

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"hetsched/internal/characterize"
	"hetsched/internal/stats"
)

// sizeToTarget encodes a cache size (KB) as the single regression target:
// log2(sizeKB) centered at 4 KB, i.e. 2→-1, 4→0, 8→+1.
func sizeToTarget(sizeKB int) float64 {
	return math.Log2(float64(sizeKB)) - 2
}

// sizesKB are the design-space sizes a network output decodes to,
// ascending; sizeIndex indexes them.
var sizesKB = [...]int{2, 4, 8}

// targetToSize decodes a network output to the nearest design-space size.
func targetToSize(y float64) int { return sizesKB[sizeIndex(y)] }

// sizeIndex buckets a network output to its sizesKB index.
func sizeIndex(y float64) int {
	switch {
	case y < -0.5:
		return 0
	case y < 0.5:
		return 1
	default:
		return 2
	}
}

// SizePredictor is the trained best-cache-size (best-core) predictor: a
// bagged ANN ensemble plus the feature normalizer fitted on its training
// pool.
//
// A SizePredictor memoizes its answers: PredictSizeKB and MemberVotes run
// the bag once per distinct feature vector and answer every repeat from the
// memo. This is exact because the bag is a pure function of its features.
// A SizePredictor is safe for concurrent use. It must not be copied after
// first use (go vet's copylocks check reports copies), and Ens and Norm
// must not be mutated after the first prediction: the memo would go on
// answering for the old bag.
type SizePredictor struct {
	Ens  *Ensemble
	Norm *stats.Normalizer

	mu    sync.Mutex
	memo  map[stats.Features]*answer
	evals atomic.Int64 // bag evaluations (memo misses), for tests
}

// memoCap bounds the memo. The features of /v1/predict bodies and of
// noise-perturbed counters are unbounded, so a full memo is dropped rather
// than grown; 4096 entries take about 1 MB.
const memoCap = 4096

// answer is one bag evaluation: the predicted size and the per-size member
// votes, both from one member pass. Its fields are set before wg is done
// and only read after.
type answer struct {
	wg     sync.WaitGroup
	sizeKB int
	votes  [len(sizesKB)]int // indexed like sizesKB
	err    error
}

// errNoAnswer is what callers waiting on an evaluation that panicked get.
var errNoAnswer = errors.New("ann: the bag evaluation for these features panicked")

// answer returns the bag's answer for f, evaluating the bag only when f is
// not in the memo. Concurrent first callers of one f share one evaluation.
// A failed evaluation leaves the memo, so errors are never memoized.
func (p *SizePredictor) answer(f stats.Features) *answer {
	p.mu.Lock()
	a, hit := p.memo[f]
	if !hit {
		if p.memo == nil || len(p.memo) >= memoCap {
			p.memo = make(map[stats.Features]*answer)
		}
		a = &answer{err: errNoAnswer}
		a.wg.Add(1)
		p.memo[f] = a
	}
	p.mu.Unlock()
	if hit {
		a.wg.Wait()
		return a
	}
	defer func() {
		if a.err != nil {
			p.mu.Lock()
			if p.memo[f] == a {
				delete(p.memo, f)
			}
			p.mu.Unlock()
		}
		a.wg.Done()
	}()
	p.evals.Add(1)
	a.sizeKB, a.votes, a.err = p.evaluate(f)
	return a
}

// evaluate runs the bag on f. One member pass yields both the size
// Ensemble.Predict's average decodes to and the member votes.
func (p *SizePredictor) evaluate(f stats.Features) (sizeKB int, votes [len(sizesKB)]int, err error) {
	x, err := p.Norm.Apply(f.Select())
	if err != nil {
		return 0, votes, err
	}
	ys, err := p.Ens.memberOutputs(x)
	if err != nil {
		return 0, votes, err
	}
	for _, y := range ys {
		votes[sizeIndex(y[0])]++
	}
	return targetToSize(mean(ys)[0]), votes, nil
}

// PredictorConfig controls TrainSizePredictor.
type PredictorConfig struct {
	// Ensemble configures the bagged networks (defaults follow the paper:
	// 30 members of topology {10, 18, 5, 1}).
	Ensemble EnsembleConfig
	// TrainFrac/ValFrac partition the dataset (defaults 0.70/0.15; the
	// remaining 15 % is the held-out test set).
	TrainFrac, ValFrac float64
	// Seed drives the split shuffle.
	Seed int64
	// Workers bounds the member-training pool (default
	// runtime.GOMAXPROCS(0)); it never changes the trained model.
	Workers int
}

func (c *PredictorConfig) fillDefaults() {
	if c.TrainFrac == 0 {
		c.TrainFrac = 0.70
	}
	if c.ValFrac == 0 {
		c.ValFrac = 0.15
	}
}

// PredictorReport summarizes training and held-out evaluation.
type PredictorReport struct {
	Samples       int
	TrainSamples  int
	TestSamples   int
	Members       int
	TestMSE       float64
	TrainAccuracy float64 // fraction of exact best-size hits on train
	TestAccuracy  float64 // fraction of exact best-size hits on test
}

// BuildDataset converts a characterization DB into the ANN's dataset: the 10
// selected, normalized execution statistics against the encoded best size.
func BuildDataset(db *characterize.DB) (Dataset, *stats.Normalizer, error) {
	if db == nil || len(db.Records) == 0 {
		return Dataset{}, nil, fmt.Errorf("ann: empty characterization DB")
	}
	raw := make([][]float64, len(db.Records))
	ys := make([][]float64, len(db.Records))
	for i := range db.Records {
		r := &db.Records[i]
		raw[i] = r.Features.Select()
		ys[i] = []float64{sizeToTarget(r.BestSizeKB())}
	}
	norm, err := stats.FitNormalizer(raw)
	if err != nil {
		return Dataset{}, nil, err
	}
	xs, err := norm.ApplyAll(raw)
	if err != nil {
		return Dataset{}, nil, err
	}
	return Dataset{X: xs, Y: ys}, norm, nil
}

// TrainSizePredictor trains the paper's predictor on a characterization DB:
// 70/15/15 split, bagged ensemble, returning the predictor and an evaluation
// report over the held-out test split.
func TrainSizePredictor(db *characterize.DB, cfg PredictorConfig) (*SizePredictor, PredictorReport, error) {
	cfg.fillDefaults()
	ds, norm, err := BuildDataset(db)
	if err != nil {
		return nil, PredictorReport{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed*31 + 7))
	train, val, test, err := Split(ds, cfg.TrainFrac, cfg.ValFrac, rng)
	if err != nil {
		return nil, PredictorReport{}, err
	}
	ecfg := cfg.Ensemble
	ecfg.Seed = cfg.Seed
	if ecfg.Workers == 0 {
		ecfg.Workers = cfg.Workers
	}
	ens, err := TrainEnsemble(train, val, ecfg)
	if err != nil {
		return nil, PredictorReport{}, err
	}
	p := &SizePredictor{Ens: ens, Norm: norm}
	rep := PredictorReport{
		Samples:      ds.Len(),
		TrainSamples: train.Len(),
		TestSamples:  test.Len(),
		Members:      len(ens.Nets),
	}
	rep.TrainAccuracy = p.accuracy(train)
	if test.Len() > 0 {
		rep.TestAccuracy = p.accuracy(test)
		rep.TestMSE, err = ens.MSE(test)
		if err != nil {
			return nil, rep, err
		}
	}
	return p, rep, nil
}

// accuracy computes the exact-size hit rate on a pre-normalized dataset.
func (p *SizePredictor) accuracy(d Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	hits := 0
	for i := range d.X {
		out, err := p.Ens.Predict(d.X[i])
		if err != nil {
			return 0
		}
		if targetToSize(out[0]) == targetToSize(d.Y[i][0]) {
			hits++
		}
	}
	return float64(hits) / float64(d.Len())
}

// PredictSizeKB predicts the best cache size for an application's raw
// profiling features.
func (p *SizePredictor) PredictSizeKB(f stats.Features) (int, error) {
	a := p.answer(f)
	return a.sizeKB, a.err
}

// MemberVotes reports, for an application's raw profiling features, how
// many ensemble members vote for each cache size (keyed by size in KB).
// This is the decision-audit view behind PredictSizeKB: the prediction
// itself averages the member outputs, so the plurality size here can
// differ from the predicted size when members straddle a bucket boundary.
// The map is the caller's own.
func (p *SizePredictor) MemberVotes(f stats.Features) (map[int]int, error) {
	a := p.answer(f)
	if a.err != nil {
		return nil, a.err
	}
	votes := make(map[int]int, len(sizesKB))
	for i, n := range a.votes {
		if n > 0 {
			votes[sizesKB[i]] = n
		}
	}
	return votes, nil
}
