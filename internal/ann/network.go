// Package ann implements the paper's artificial neural network predictor
// from scratch: dense feed-forward networks (Figure 3's {10, 18, 5, 1}
// topology), stochastic-gradient backpropagation with momentum and early
// stopping, a 70/15/15 train/validation/test split, and a 30-network bagging
// ensemble whose averaged output predicts an application's best cache size
// (and therefore its best core).
package ann

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer nonlinearity.
type Activation int

// Supported activations.
const (
	Identity Activation = iota
	Tanh
	Sigmoid
	ReLU
)

// String returns the activation name.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	case ReLU:
		return "relu"
	}
	return fmt.Sprintf("activation(%d)", int(a))
}

func (a Activation) apply(x float64) float64 {
	switch a {
	case Tanh:
		return math.Tanh(x)
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	default:
		return x
	}
}

// derivFromOut computes the activation derivative given the activation
// output (cheap for tanh/sigmoid) and the pre-activation input (for ReLU).
func (a Activation) derivFromOut(out, in float64) float64 {
	switch a {
	case Tanh:
		return 1 - out*out
	case Sigmoid:
		return out * (1 - out)
	case ReLU:
		if in <= 0 {
			return 0
		}
		return 1
	default:
		return 1
	}
}

// Layer is one dense layer: Out = act(W·In + B). Fields are exported for
// JSON serialization.
type Layer struct {
	W   [][]float64 // [out][in]
	B   []float64   // [out]
	Act Activation
}

// Network is a feed-forward multilayer perceptron.
type Network struct {
	Sizes  []int // layer widths including input, e.g. {10, 18, 5, 1}
	Layers []Layer
}

// New builds a network with the given layer widths (first entry is the
// input width). Hidden layers use hiddenAct; the final layer uses outAct.
// Weights are initialized with scaled uniform noise from rng
// (Xavier/Glorot-style fan-in scaling).
func New(sizes []int, hiddenAct, outAct Activation, rng *rand.Rand) (*Network, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("ann: need at least input and output layers, got %v", sizes)
	}
	for _, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("ann: non-positive layer width in %v", sizes)
		}
	}
	if rng == nil {
		return nil, fmt.Errorf("ann: nil rng (pass a seeded source for reproducibility)")
	}
	n := &Network{Sizes: append([]int(nil), sizes...)}
	for l := 1; l < len(sizes); l++ {
		in, out := sizes[l-1], sizes[l]
		act := hiddenAct
		if l == len(sizes)-1 {
			act = outAct
		}
		scale := math.Sqrt(1.0 / float64(in))
		layer := Layer{
			W:   make([][]float64, out),
			B:   make([]float64, out),
			Act: act,
		}
		for o := 0; o < out; o++ {
			layer.W[o] = make([]float64, in)
			for i := 0; i < in; i++ {
				layer.W[o][i] = (rng.Float64()*2 - 1) * scale
			}
		}
		n.Layers = append(n.Layers, layer)
	}
	return n, nil
}

// InputDim returns the expected input width.
func (n *Network) InputDim() int { return n.Sizes[0] }

// OutputDim returns the output width.
func (n *Network) OutputDim() int { return n.Sizes[len(n.Sizes)-1] }

// Forward evaluates the network on x.
func (n *Network) Forward(x []float64) ([]float64, error) {
	if len(x) != n.InputDim() {
		return nil, fmt.Errorf("ann: input dim %d, want %d", len(x), n.InputDim())
	}
	return n.forward(x, newWorkspace(n)), nil
}

// workspace is the scratch one forward/backward pass writes into: per-layer
// pre-activations, activations and deltas sized from the network's Sizes.
// Train holds one for the whole call, so its epochs allocate nothing.
type workspace struct {
	acts  [][]float64 // acts[0] is the input; acts[l+1] is layer l's output
	pre   [][]float64 // pre[l] is layer l's pre-activation
	delta [][]float64 // delta[l] is dL/dz at layer l
}

// newWorkspace sizes a workspace for n: two allocations, one for the
// per-layer slice headers and one backing array for every buffer.
func newWorkspace(n *Network) *workspace {
	L := len(n.Layers)
	width := 0
	for _, layer := range n.Layers {
		width += len(layer.B)
	}
	rows := make([][]float64, 3*L+1)
	ws := &workspace{acts: rows[:L+1], pre: rows[L+1 : 2*L+1], delta: rows[2*L+1:]}
	buf := make([]float64, 3*width)
	for l, layer := range n.Layers {
		k := len(layer.B)
		ws.pre[l], ws.acts[l+1], ws.delta[l] = buf[:k:k], buf[k:2*k:2*k], buf[2*k:3*k:3*k]
		buf = buf[3*k:]
	}
	return ws
}

// forward evaluates the network on x into ws and returns the output
// layer's activations, which alias ws.
func (n *Network) forward(x []float64, ws *workspace) []float64 {
	ws.acts[0] = x
	cur := x
	for l, layer := range n.Layers {
		z, a := ws.pre[l], ws.acts[l+1]
		for o := range layer.W {
			s := layer.B[o]
			row := layer.W[o]
			for i, v := range cur {
				s += row[i] * v
			}
			z[o] = s
			a[o] = layer.Act.apply(s)
		}
		cur = a
	}
	return cur
}

// grads mirrors the network's weight/bias shapes.
type grads struct {
	dW [][][]float64
	dB [][]float64
}

func newGrads(n *Network) *grads {
	g := &grads{
		dW: make([][][]float64, len(n.Layers)),
		dB: make([][]float64, len(n.Layers)),
	}
	for l, layer := range n.Layers {
		g.dW[l] = make([][]float64, len(layer.W))
		for o := range layer.W {
			g.dW[l][o] = make([]float64, len(layer.W[o]))
		}
		g.dB[l] = make([]float64, len(layer.B))
	}
	return g
}

func (g *grads) zero() {
	for l := range g.dW {
		for o := range g.dW[l] {
			for i := range g.dW[l][o] {
				g.dW[l][o][i] = 0
			}
		}
		for o := range g.dB[l] {
			g.dB[l][o] = 0
		}
	}
}

// backprop accumulates MSE-loss gradients for one (x, y) pair into g and
// returns the sample's squared error. The passes run in ws.
func (n *Network) backprop(x, y []float64, g *grads, ws *workspace) float64 {
	out := n.forward(x, ws)
	acts, pre := ws.acts, ws.pre
	last := len(n.Layers) - 1

	// delta at output: dL/dz = (out - y) * act'(z), L = 1/2 Σ (out-y)^2.
	delta := ws.delta[last]
	var loss float64
	for o := range out {
		diff := out[o] - y[o]
		loss += diff * diff
		delta[o] = diff * n.Layers[last].Act.derivFromOut(out[o], pre[last][o])
	}

	for l := last; l >= 0; l-- {
		in := acts[l]
		for o := range n.Layers[l].W {
			g.dB[l][o] += delta[o]
			row := g.dW[l][o]
			for i := range in {
				row[i] += delta[o] * in[i]
			}
		}
		if l == 0 {
			break
		}
		// Propagate delta to the previous layer.
		prev := ws.delta[l-1]
		for i := range prev {
			var s float64
			for o := range n.Layers[l].W {
				s += n.Layers[l].W[o][i] * delta[o]
			}
			prev[i] = s * n.Layers[l-1].Act.derivFromOut(acts[l][i], pre[l-1][i])
		}
		delta = prev
	}
	return 0.5 * loss
}

// step applies accumulated gradients with learning rate lr, momentum mu and
// velocity state vel, scaled by 1/batch.
func (n *Network) step(g *grads, vel *grads, lr, mu float64, batch int) {
	inv := 1.0 / float64(batch)
	for l := range n.Layers {
		for o := range n.Layers[l].W {
			for i := range n.Layers[l].W[o] {
				v := mu*vel.dW[l][o][i] - lr*g.dW[l][o][i]*inv
				vel.dW[l][o][i] = v
				n.Layers[l].W[o][i] += v
			}
			v := mu*vel.dB[l][o] - lr*g.dB[l][o]*inv
			vel.dB[l][o] = v
			n.Layers[l].B[o] += v
		}
	}
}

// Clone deep-copies the network.
func (n *Network) Clone() *Network {
	c := &Network{Sizes: append([]int(nil), n.Sizes...)}
	for _, layer := range n.Layers {
		nl := Layer{
			W:   make([][]float64, len(layer.W)),
			B:   append([]float64(nil), layer.B...),
			Act: layer.Act,
		}
		for o := range layer.W {
			nl.W[o] = append([]float64(nil), layer.W[o]...)
		}
		c.Layers = append(c.Layers, nl)
	}
	return c
}

// copyWeights overwrites n's weights and biases with src's; both networks
// must share one topology.
func (n *Network) copyWeights(src *Network) {
	for l := range n.Layers {
		for o := range n.Layers[l].W {
			copy(n.Layers[l].W[o], src.Layers[l].W[o])
		}
		copy(n.Layers[l].B, src.Layers[l].B)
	}
}
