package mlbase

// Depth returns the realized depth of the grown tree.
func (t *Tree) Depth() int { return nodeDepth(t.Root) }

func nodeDepth(n *TreeNode) int {
	if n == nil || n.Leaf {
		return 0
	}
	l, r := nodeDepth(n.Left), nodeDepth(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Leaves counts the tree's leaf nodes.
func (t *Tree) Leaves() int { return countLeaves(t.Root) }

func countLeaves(n *TreeNode) int {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return 1
	}
	return countLeaves(n.Left) + countLeaves(n.Right)
}
