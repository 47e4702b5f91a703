package ann

import (
	"fmt"
	"math"
	"math/rand"
)

// Dataset pairs inputs with targets.
type Dataset struct {
	X [][]float64
	Y [][]float64
}

// Len returns the sample count.
func (d Dataset) Len() int { return len(d.X) }

// Validate checks shape consistency.
func (d Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("ann: dataset X/Y length mismatch %d/%d", len(d.X), len(d.Y))
	}
	if len(d.X) == 0 {
		return fmt.Errorf("ann: empty dataset")
	}
	for i := range d.X {
		if len(d.X[i]) != len(d.X[0]) || len(d.Y[i]) != len(d.Y[0]) {
			return fmt.Errorf("ann: ragged dataset at sample %d", i)
		}
	}
	return nil
}

// Subset returns the dataset restricted to idx (shared backing arrays).
func (d Dataset) Subset(idx []int) Dataset {
	sub := Dataset{X: make([][]float64, len(idx)), Y: make([][]float64, len(idx))}
	for i, j := range idx {
		sub.X[i] = d.X[j]
		sub.Y[i] = d.Y[j]
	}
	return sub
}

// Split shuffles and partitions the dataset into train/validation/test
// parts with the given fractions (test receives the remainder). The paper
// uses 70/15/15.
func Split(d Dataset, trainFrac, valFrac float64, rng *rand.Rand) (train, val, test Dataset, err error) {
	if err := d.Validate(); err != nil {
		return train, val, test, err
	}
	if trainFrac <= 0 || valFrac < 0 || trainFrac+valFrac >= 1.0001 {
		return train, val, test, fmt.Errorf("ann: bad split fractions %v/%v", trainFrac, valFrac)
	}
	if rng == nil {
		return train, val, test, fmt.Errorf("ann: nil rng")
	}
	n := d.Len()
	perm := rng.Perm(n)
	nTrain := int(math.Round(trainFrac * float64(n)))
	nVal := int(math.Round(valFrac * float64(n)))
	if nTrain < 1 {
		nTrain = 1
	}
	if nTrain+nVal > n {
		nVal = n - nTrain
	}
	train = d.Subset(perm[:nTrain])
	val = d.Subset(perm[nTrain : nTrain+nVal])
	test = d.Subset(perm[nTrain+nVal:])
	return train, val, test, nil
}

// mse is MSE over a non-empty dataset, with every forward pass run in ws.
func mse(n *Network, d Dataset, ws *workspace) (float64, error) {
	var total float64
	for i := range d.X {
		if len(d.X[i]) != n.InputDim() {
			return 0, fmt.Errorf("ann: input dim %d, want %d", len(d.X[i]), n.InputDim())
		}
		out := n.forward(d.X[i], ws)
		for o := range out {
			diff := out[o] - d.Y[i][o]
			total += diff * diff
		}
	}
	return total / float64(d.Len()), nil
}

// TrainConfig controls backpropagation.
type TrainConfig struct {
	// LearningRate for SGD (default 0.02).
	LearningRate float64
	// Momentum coefficient (default 0.9).
	Momentum float64
	// Epochs is the maximum pass count over the training set (default 600).
	Epochs int
	// BatchSize for minibatch SGD (default 8).
	BatchSize int
	// Patience stops training after this many epochs without validation
	// improvement (default 60); 0 disables early stopping.
	Patience int
	// Seed drives shuffling.
	Seed int64
}

func (c *TrainConfig) fillDefaults() {
	if c.LearningRate == 0 {
		c.LearningRate = 0.02
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.Epochs == 0 {
		c.Epochs = 600
	}
	if c.BatchSize == 0 {
		c.BatchSize = 8
	}
	if c.Patience == 0 {
		c.Patience = 60
	}
}

// TrainResult reports the training outcome.
type TrainResult struct {
	Epochs    int
	TrainMSE  float64
	ValMSE    float64
	BestEpoch int
}

// Train fits the network to train, early-stopping on val (if non-empty).
// The network is left holding the best-validation weights. Every buffer is
// sized once per call: the passes run in one workspace and an improving
// epoch copies its weights into one preallocated network.
func Train(n *Network, train, val Dataset, cfg TrainConfig) (TrainResult, error) {
	if err := train.Validate(); err != nil {
		return TrainResult{}, err
	}
	if len(train.X[0]) != n.InputDim() {
		return TrainResult{}, fmt.Errorf("ann: train input dim %d != network %d", len(train.X[0]), n.InputDim())
	}
	if len(train.Y[0]) != n.OutputDim() {
		return TrainResult{}, fmt.Errorf("ann: train target dim %d != network %d", len(train.Y[0]), n.OutputDim())
	}
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := newGrads(n)
	vel := newGrads(n)
	ws := newWorkspace(n)

	useVal := val.Len() > 0
	bestVal := math.Inf(1)
	var best *Network
	if useVal {
		best = n.Clone()
	}
	bestEpoch := 0
	sinceBest := 0

	res := TrainResult{}
	order := make([]int, train.Len())
	for i := range order {
		order[i] = i
	}
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			g.zero()
			for _, idx := range order[start:end] {
				epochLoss += n.backprop(train.X[idx], train.Y[idx], g, ws)
			}
			n.step(g, vel, cfg.LearningRate, cfg.Momentum, end-start)
		}
		res.Epochs = epoch
		res.TrainMSE = 2 * epochLoss / float64(train.Len())
		if useVal {
			v, err := mse(n, val, ws)
			if err != nil {
				return res, err
			}
			res.ValMSE = v
			if v < bestVal-1e-12 {
				bestVal = v
				best.copyWeights(n)
				bestEpoch = epoch
				sinceBest = 0
			} else {
				sinceBest++
				if cfg.Patience > 0 && sinceBest >= cfg.Patience {
					break
				}
			}
		}
	}
	if bestEpoch > 0 {
		n.copyWeights(best)
		res.ValMSE = bestVal
		res.BestEpoch = bestEpoch
	}
	return res, nil
}
