package mlbase

import (
	"fmt"

	"hetsched/internal/characterize"
	"hetsched/internal/stats"
)

// TreeNode is one node of the CART classifier (exported for JSON).
type TreeNode struct {
	// Leaf nodes predict SizeKB; internal nodes route on Feature < Cut.
	Leaf    bool
	SizeKB  int
	Feature int
	Cut     float64
	Left    *TreeNode // Feature < Cut
	Right   *TreeNode // Feature >= Cut
}

// Tree is a depth-limited CART decision tree over the selected features —
// the step up from Stump in the "different machine learning techniques"
// comparison.
type Tree struct {
	Root     *TreeNode
	MaxDepth int
	Norm     *stats.Normalizer
}

// TrainTree grows a Gini-impurity CART to maxDepth (2..8) with a minimum
// leaf size of 2 samples.
func TrainTree(db *characterize.DB, maxDepth int) (*Tree, error) {
	if maxDepth < 2 || maxDepth > 8 {
		return nil, fmt.Errorf("mlbase: tree depth %d out of range [2,8]", maxDepth)
	}
	xs, ys, norm, err := trainingPool(db)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, len(ys))
	for i, y := range ys {
		sizes[i] = targetToSize(y)
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	root := growTree(xs, sizes, idx, maxDepth)
	return &Tree{Root: root, MaxDepth: maxDepth, Norm: norm}, nil
}

// gini computes impurity of a sample subset.
func gini(sizes []int, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	counts := map[int]int{}
	for _, i := range idx {
		counts[sizes[i]]++
	}
	g := 1.0
	n := float64(len(idx))
	for _, c := range counts {
		p := float64(c) / n
		g -= p * p
	}
	return g
}

// majority returns the most common class (smallest size wins ties for
// determinism).
func majority(sizes []int, idx []int) int {
	counts := map[int]int{}
	for _, i := range idx {
		counts[sizes[i]]++
	}
	best, bestC := 0, -1
	for _, size := range []int{2, 4, 8} {
		if counts[size] > bestC {
			best, bestC = size, counts[size]
		}
	}
	return best
}

const minLeaf = 2

func growTree(xs [][]float64, sizes []int, idx []int, depth int) *TreeNode {
	leaf := &TreeNode{Leaf: true, SizeKB: majority(sizes, idx)}
	if depth == 0 || len(idx) < 2*minLeaf || gini(sizes, idx) == 0 {
		return leaf
	}
	parentImpurity := gini(sizes, idx) * float64(len(idx))
	bestGain := 0.0
	bestFeature, bestCut := -1, 0.0
	var bestLeft, bestRight []int

	dims := len(xs[0])
	for f := 0; f < dims; f++ {
		// Candidate cuts at midpoints between distinct sorted values.
		vals := make([]float64, 0, len(idx))
		for _, i := range idx {
			vals = append(vals, xs[i][f])
		}
		sortFloats(vals)
		for v := 1; v < len(vals); v++ {
			if vals[v] == vals[v-1] {
				continue
			}
			cut := (vals[v] + vals[v-1]) / 2
			var left, right []int
			for _, i := range idx {
				if xs[i][f] < cut {
					left = append(left, i)
				} else {
					right = append(right, i)
				}
			}
			if len(left) < minLeaf || len(right) < minLeaf {
				continue
			}
			childImpurity := gini(sizes, left)*float64(len(left)) +
				gini(sizes, right)*float64(len(right))
			gain := parentImpurity - childImpurity
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeature, bestCut = f, cut
				bestLeft, bestRight = left, right
			}
		}
	}
	if bestFeature < 0 {
		return leaf
	}
	return &TreeNode{
		Feature: bestFeature,
		Cut:     bestCut,
		Left:    growTree(xs, sizes, bestLeft, depth-1),
		Right:   growTree(xs, sizes, bestRight, depth-1),
	}
}

func sortFloats(v []float64) {
	// Insertion sort: candidate lists are small and mostly sorted reuse is
	// irrelevant here; avoids pulling sort into the hot training loop API.
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && v[j] > x {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
}

// PredictSizeKB implements core.Predictor.
func (t *Tree) PredictSizeKB(f stats.Features) (int, error) {
	x, err := t.Norm.Apply(f.Select())
	if err != nil {
		return 0, err
	}
	n := t.Root
	for !n.Leaf {
		if x[n.Feature] < n.Cut {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.SizeKB, nil
}
