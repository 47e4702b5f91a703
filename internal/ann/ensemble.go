package ann

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
)

// EnsembleConfig controls bagging (Section IV.D: 30 ANNs trained on
// bootstrap subsets with random weight initialization, outputs averaged).
type EnsembleConfig struct {
	// Members is the ensemble size (default 30, the paper's value).
	Members int
	// Sizes is the per-network topology (default {in, 18, 5, out} — the
	// paper's {10, 18, 5, 1} for 10 inputs and 1 output).
	Sizes []int
	// HiddenAct and OutAct choose activations (default Tanh / Identity).
	HiddenAct, OutAct Activation
	// Train configures each member's backpropagation.
	Train TrainConfig
	// BagFraction is the bootstrap sample size as a fraction of the
	// training set (default 1.0, sampled with replacement).
	BagFraction float64
	// Seed drives member initialization and bootstrap sampling.
	Seed int64
	// Workers bounds the goroutines training members (default
	// runtime.GOMAXPROCS(0)). Training is deterministic for a fixed Seed
	// at any worker count: each member derives its own seeded rng.
	Workers int
}

func (c *EnsembleConfig) fillDefaults(inputDim, outputDim int) {
	if c.Members == 0 {
		c.Members = 30
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{inputDim, 18, 5, outputDim}
	}
	if c.HiddenAct == Identity && c.OutAct == Identity {
		c.HiddenAct = Tanh
	}
	if c.BagFraction == 0 {
		c.BagFraction = 1.0
	}
}

// Ensemble is a bagged set of networks whose outputs are averaged.
type Ensemble struct {
	Nets []*Network
}

// TrainEnsemble fits cfg.Members networks on bootstrap resamples of train,
// each early-stopped against val. Members train in parallel; results are
// deterministic for a fixed cfg.Seed because each member derives its own
// seeded rng.
func TrainEnsemble(train, val Dataset, cfg EnsembleConfig) (*Ensemble, error) {
	if err := train.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults(len(train.X[0]), len(train.Y[0]))
	if cfg.Sizes[0] != len(train.X[0]) {
		return nil, fmt.Errorf("ann: topology input %d != data %d", cfg.Sizes[0], len(train.X[0]))
	}
	if cfg.Sizes[len(cfg.Sizes)-1] != len(train.Y[0]) {
		return nil, fmt.Errorf("ann: topology output %d != data %d", cfg.Sizes[len(cfg.Sizes)-1], len(train.Y[0]))
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ens := &Ensemble{Nets: make([]*Network, cfg.Members)}
	errs := make([]error, cfg.Members)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for m := 0; m < cfg.Members; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			memberSeed := cfg.Seed*7919 + int64(m)*104729 + 13
			rng := rand.New(rand.NewSource(memberSeed))
			net, err := New(cfg.Sizes, cfg.HiddenAct, cfg.OutAct, rng)
			if err != nil {
				errs[m] = err
				return
			}
			// Bootstrap resample with replacement.
			bagN := int(cfg.BagFraction * float64(train.Len()))
			if bagN < 1 {
				bagN = 1
			}
			idx := make([]int, bagN)
			for i := range idx {
				idx[i] = rng.Intn(train.Len())
			}
			bag := train.Subset(idx)
			tc := cfg.Train
			tc.Seed = memberSeed
			if _, err := Train(net, bag, val, tc); err != nil {
				errs[m] = err
				return
			}
			ens.Nets[m] = net
		}(m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ens, nil
}

// Predict averages member outputs.
func (e *Ensemble) Predict(x []float64) ([]float64, error) {
	ys, err := e.memberOutputs(x)
	if err != nil {
		return nil, err
	}
	return mean(ys), nil
}

// memberOutputs runs every member's forward pass, in member order.
func (e *Ensemble) memberOutputs(x []float64) ([][]float64, error) {
	if len(e.Nets) == 0 {
		return nil, fmt.Errorf("ann: empty ensemble")
	}
	ys := make([][]float64, len(e.Nets))
	for m, n := range e.Nets {
		y, err := n.Forward(x)
		if err != nil {
			return nil, err
		}
		ys[m] = y
	}
	return ys, nil
}

// mean averages a non-empty set of member outputs. It sums in member order
// and then scales, so every caller gets the same bits for the same outputs.
func mean(ys [][]float64) []float64 {
	out := make([]float64, len(ys[0]))
	for _, y := range ys {
		for o, v := range y {
			out[o] += v
		}
	}
	inv := 1.0 / float64(len(ys))
	for o := range out {
		out[o] *= inv
	}
	return out
}

// MSE evaluates the ensemble's mean squared error over a dataset.
func (e *Ensemble) MSE(d Dataset) (float64, error) {
	if d.Len() == 0 {
		return 0, fmt.Errorf("ann: MSE over empty dataset")
	}
	var total float64
	for i := range d.X {
		out, err := e.Predict(d.X[i])
		if err != nil {
			return 0, err
		}
		for o := range out {
			diff := out[o] - d.Y[i][o]
			total += diff * diff
		}
	}
	return total / float64(d.Len()), nil
}
