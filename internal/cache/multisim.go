package cache

import (
	"fmt"
	"sort"
)

// MultiSim scores every configuration of a design space in a single
// traversal of a memory trace, replacing the replay-per-configuration loop
// the characterization pipeline started with. Results are bit-identical to
// running each configuration through its own L1 (or Hierarchy) with the
// default policies (write-back, true LRU).
//
// Two structural facts about the Table 1 space make one pass cheap:
//
//   - Configurations sharing a line size decompose every address with the
//     same shift, so the block stream is computed once per line-size group.
//
//   - Within a group, configurations sharing a set count are LRU-nested
//     (Mattson's inclusion property): an access that hits way position d of
//     the LRU ordering hits every member with associativity > d. One LRU
//     stack of depth max(ways) per (line size, set count) cluster therefore
//     scores all its members, collapsing the 18-configuration space to 9
//     stacks. This is exact, not approximate — see DESIGN.md.
//
// The hierarchy mode (NewMultiSimHierarchy) cannot share stacks: each L1
// configuration emits a different miss/writeback stream into its private L2,
// so it keeps per-configuration two-level state, still filled in a single
// traversal of the trace.
//
// A MultiSim allocates all state at construction; AccessBatch performs no
// allocation and no interface dispatch.
type MultiSim struct {
	space  []Config
	groups []msGroup // Mattson engine (L1-only mode), ascending line size
	sims   []*msHier // per-config two-level state (hierarchy mode)
	// scratchA/B ping-pong the per-chunk deduplicated block decomposition
	// as it is coarsened group by group.
	scratchA []uint64
	scratchB []uint64
	total    uint64 // accesses observed
}

// msChunk bounds how many packed accesses each stack traverses at a time:
// large enough to amortize the per-group loop switch, small enough that the
// chunk and the touched stack state stay cache-resident while every stack in
// every group walks the same window.
const msChunk = 2048

// msStack is one per-set LRU stack shared by every configuration of a
// (line size, set count) cluster. tags is sets×depth, most-recently-used
// first within each set; hist[d] counts hits at stack depth d.
type msStack struct {
	tagShift uint
	setMask  uint64
	depth    int
	tags     []uint64
	hist     []uint64
	misses   uint64
}

// msInvalid marks an empty stack slot. Real tags cannot collide with it:
// that would need a 64-bit block address, and the decomposition has already
// shifted line and write bits out.
const msInvalid = ^uint64(0)

// msNoBlock marks a group's dedup state as empty. No decomposed block can
// equal it: the decomposition shifts at least the write bit out, so real
// blocks top out below 1<<63.
const msNoBlock = ^uint64(0)

func newMsStack(sets, depth int) *msStack {
	s := &msStack{
		tagShift: uint(log2(sets)),
		setMask:  uint64(sets - 1),
		depth:    depth,
		tags:     make([]uint64, sets*depth),
		hist:     make([]uint64, depth),
	}
	s.reset()
	return s
}

// reset restores the freshly-constructed state: every slot invalid, every
// counter zero.
func (s *msStack) reset() {
	for i := range s.tags {
		s.tags[i] = msInvalid
	}
	for i := range s.hist {
		s.hist[i] = 0
	}
	s.misses = 0
}

// run pushes a chunk of already-decomposed, run-length-deduplicated block
// addresses through the stack. The depth-1/2/4 cases cover the whole Table 1
// space and keep the inner loop free of bounds checks; other depths fall
// back to the generic move-to-front.
func (s *msStack) run(blocks []uint64) {
	mask, shift := s.setMask, s.tagShift
	tags := s.tags
	switch s.depth {
	case 1:
		h0, miss := s.hist[0], s.misses
		for _, block := range blocks {
			set := block & mask
			tag := block >> shift
			if tags[set] == tag {
				h0++
			} else {
				tags[set] = tag
				miss++
			}
		}
		s.hist[0], s.misses = h0, miss
	case 2:
		h0, h1, miss := s.hist[0], s.hist[1], s.misses
		for _, block := range blocks {
			set := block & mask
			tag := block >> shift
			base := set * 2
			t0 := tags[base]
			if t0 == tag {
				h0++
				continue
			}
			if tags[base+1] == tag {
				h1++
			} else {
				miss++
			}
			tags[base+1] = t0
			tags[base] = tag
		}
		s.hist[0], s.hist[1], s.misses = h0, h1, miss
	case 4:
		h0, h1, h2, h3, miss := s.hist[0], s.hist[1], s.hist[2], s.hist[3], s.misses
		for _, block := range blocks {
			set := block & mask
			tag := block >> shift
			base := set * 4
			w := tags[base : base+4 : base+4]
			t0 := w[0]
			if t0 == tag {
				h0++
				continue
			}
			t1 := w[1]
			if t1 == tag {
				h1++
				w[0], w[1] = tag, t0
				continue
			}
			t2 := w[2]
			if t2 == tag {
				h2++
			} else if w[3] == tag {
				h3++
				w[3] = t2
			} else {
				miss++
				w[3] = t2
			}
			w[0], w[1], w[2] = tag, t0, t1
		}
		s.hist[0], s.hist[1], s.hist[2], s.hist[3], s.misses = h0, h1, h2, h3, miss
	default:
		for _, block := range blocks {
			set := block & mask
			tag := block >> shift
			w := tags[int(set)*s.depth : int(set+1)*s.depth]
			d := 0
			for d < s.depth && w[d] != tag {
				d++
			}
			if d < s.depth {
				s.hist[d]++
			} else {
				s.misses++
				d = s.depth - 1
			}
			copy(w[1:d+1], w[:d])
			w[0] = tag
		}
	}
}

// hitsUpTo sums the hits a ways-associative member of the cluster sees.
func (s *msStack) hitsUpTo(ways int) uint64 {
	var h uint64
	for d := 0; d < ways && d < s.depth; d++ {
		h += s.hist[d]
	}
	return h
}

// msGroup is one line-size group: a shared block decomposition feeding the
// group's set-count clusters.
type msGroup struct {
	shift  uint   // log2(lineBytes) + 1: drops the write bit and the offset
	last   uint64 // last block observed, for run-length dedup (msNoBlock when none)
	stacks []*msStack
	// byConfig maps design-space index -> the stack scoring that config
	// (only indices whose config belongs to this group are present).
	byConfig map[int]*msStack
}

// NewMultiSim builds a one-pass simulator for the given configurations in
// L1-only mode (the paper's Figure 4 setting: every miss goes off-chip).
// The space is typically DesignSpace(); any set of valid configurations
// works — sharing simply degrades gracefully as the space loses structure.
func NewMultiSim(space []Config) (*MultiSim, error) {
	if len(space) == 0 {
		return nil, fmt.Errorf("cache: multisim: empty design space")
	}
	m := &MultiSim{
		space:    append([]Config(nil), space...),
		scratchA: make([]uint64, 0, msChunk),
		scratchB: make([]uint64, 0, msChunk),
	}
	// Group by line size, cluster by set count, one stack per cluster at
	// the cluster's maximum associativity.
	groupIdx := map[int]int{} // lineBytes -> index in m.groups
	for i, cfg := range space {
		if !cfg.Valid() {
			return nil, fmt.Errorf("cache: multisim: invalid config %+v", cfg)
		}
		gi, ok := groupIdx[cfg.LineBytes]
		if !ok {
			gi = len(m.groups)
			groupIdx[cfg.LineBytes] = gi
			m.groups = append(m.groups, msGroup{
				shift:    uint(log2(cfg.LineBytes)) + 1,
				last:     msNoBlock,
				byConfig: map[int]*msStack{},
			})
		}
		g := &m.groups[gi]
		sets := cfg.Sets()
		var stack *msStack
		for _, s := range g.stacks {
			if s.setMask == uint64(sets-1) {
				stack = s
				break
			}
		}
		if stack == nil {
			stack = newMsStack(sets, cfg.Ways)
			g.stacks = append(g.stacks, stack)
		} else if cfg.Ways > stack.depth {
			// A deeper member joined the cluster; regrow the stack.
			// Construction-time only — traversal never resizes.
			grown := newMsStack(sets, cfg.Ways)
			copy(grown.hist, stack.hist)
			*stack = *grown
		}
		g.byConfig[i] = stack
	}
	// Ascending line-size order lets AccessBatch derive each group's block
	// stream by coarsening the previous group's deduplicated stream instead
	// of re-decomposing the full chunk (line sizes nest, and run-length
	// dedup commutes with coarsening).
	sort.Slice(m.groups, func(a, b int) bool { return m.groups[a].shift < m.groups[b].shift })
	return m, nil
}

// Reset returns the simulator to its freshly-constructed state — every
// stack slot and cache line invalid, every counter zero — without touching
// any allocation, and is proven bit-identical to building a new MultiSim
// (TestMultiSimResetReuse). It is the reuse hook behind the streaming
// characterization engine's per-worker simulator, which scores kernel after
// kernel on one set of arrays instead of reconstructing ~50 KB of state per
// trace.
func (m *MultiSim) Reset() {
	m.total = 0
	for gi := range m.groups {
		m.groups[gi].last = msNoBlock
		for _, s := range m.groups[gi].stacks {
			s.reset()
		}
	}
	for _, h := range m.sims {
		h.l1.reset()
		h.l2.reset()
		h.l1Hits, h.l2Hits, h.offChip = 0, 0, 0
	}
}

// AccessBatch replays a batch of packed accesses (vm.Pack encoding:
// addr<<1 | writeBit) through every configuration. It implements
// vm.BatchSink and performs no allocation.
func (m *MultiSim) AccessBatch(packed []uint64) {
	m.total += uint64(len(packed))
	if m.sims != nil {
		m.accessBatchHier(packed)
		return
	}
	for len(packed) > 0 {
		n := len(packed)
		if n > msChunk {
			n = msChunk
		}
		part := packed[:n]
		// Run-length dedup: a repeat of a group's previous block is a
		// guaranteed depth-0 hit in every stack of the group (same set, same
		// tag, just moved to MRU), so consecutive duplicates are counted
		// once instead of traversing each stack. Groups are sorted by line
		// size, so each group coarsens the previous group's surviving
		// stream (delta shift) rather than re-decomposing the full chunk —
		// every access dropped at a finer line is by construction a repeat
		// at every coarser line too.
		src := part
		applied := uint(0)
		for gi := range m.groups {
			g := &m.groups[gi]
			dst := m.scratchA
			if gi&1 == 1 {
				dst = m.scratchB
			}
			dst = dst[:0]
			last := g.last
			for _, x := range src {
				b := x >> (g.shift - applied)
				if b == last {
					continue
				}
				last = b
				dst = append(dst, b)
			}
			g.last = last
			dup0 := uint64(n - len(dst))
			for _, s := range g.stacks {
				s.hist[0] += dup0
				s.run(dst)
			}
			src = dst
			applied = g.shift
		}
		packed = packed[n:]
	}
}

// MultiStats is the per-configuration outcome of a one-pass run.
type MultiStats struct {
	Config Config
	Hits   uint64
	Misses uint64
	// Writebacks, L2Hits and OffChip are filled only in hierarchy mode;
	// the L1-only stacks do not track dirty state because nothing in the
	// paper's energy model consumes it.
	Writebacks uint64
	L2Hits     uint64
	OffChip    uint64
}

// Stats returns one entry per configuration, in the order the space was
// given to the constructor.
func (m *MultiSim) Stats() []MultiStats {
	out := make([]MultiStats, len(m.space))
	for i, cfg := range m.space {
		out[i].Config = cfg
		if m.sims != nil {
			h := m.sims[i]
			out[i].Hits = h.l1Hits
			out[i].Misses = h.l2Hits + h.offChip
			out[i].Writebacks = h.l1.writebacks
			out[i].L2Hits = h.l2Hits
			out[i].OffChip = h.offChip
			continue
		}
		for gi := range m.groups {
			if s, ok := m.groups[gi].byConfig[i]; ok {
				hits := s.hitsUpTo(cfg.Ways)
				out[i].Hits = hits
				out[i].Misses = m.total - hits
				break
			}
		}
	}
	return out
}

// --- hierarchy mode -------------------------------------------------------

// msCache is a compact write-back LRU cache used by hierarchy mode. Per
// line it stores the tag and meta = lru<<1 | dirtyBit; meta==0 means
// invalid (the clock starts at 1, so a valid line always has meta >= 2).
// Victim choice scans for minimal meta: an invalid line (0) always wins,
// and among valid lines the LRU timestamps are distinct, so the dirty bit
// can never reorder two candidates — the choice is exactly the L1 engine's
// first-invalid-else-least-recently-used.
type msCache struct {
	shift      uint
	tagShift   uint
	setMask    uint64
	ways       int
	tags       []uint64
	meta       []uint64
	clock      uint64
	hits       uint64
	misses     uint64
	writebacks uint64
}

func newMsCache(cfg Config) *msCache {
	c := &msCache{
		shift:    uint(log2(cfg.LineBytes)),
		tagShift: uint(log2(cfg.Sets())),
		setMask:  uint64(cfg.Sets() - 1),
		ways:     cfg.Ways,
		tags:     make([]uint64, cfg.Sets()*cfg.Ways),
		meta:     make([]uint64, cfg.Sets()*cfg.Ways),
	}
	c.reset()
	return c
}

// reset restores the freshly-constructed state: all lines invalid, the LRU
// clock and every counter back to zero.
func (c *msCache) reset() {
	for i := range c.tags {
		c.tags[i] = msInvalid
	}
	for i := range c.meta {
		c.meta[i] = 0
	}
	c.clock = 0
	c.hits, c.misses, c.writebacks = 0, 0, 0
}

// access performs one access; wb reports a dirty eviction and its
// reconstructed block-aligned address.
func (c *msCache) access(addr uint64, write bool) (hit, wb bool, wbAddr uint64) {
	c.clock++
	block := addr >> c.shift
	set := block & c.setMask
	tag := block >> c.tagShift
	base := int(set) * c.ways
	tags := c.tags[base : base+c.ways : base+c.ways]
	meta := c.meta[base : base+c.ways : base+c.ways]
	for w := range tags {
		if tags[w] == tag {
			d := meta[w] & 1
			if write {
				d = 1
			}
			meta[w] = c.clock<<1 | d
			c.hits++
			return true, false, 0
		}
	}
	vi, vm := 0, meta[0]
	for w := 1; w < len(meta); w++ {
		if meta[w] < vm {
			vm, vi = meta[w], w
		}
	}
	if vm != 0 && vm&1 == 1 {
		wb = true
		wbAddr = ((tags[vi] << c.tagShift) | set) << c.shift
		c.writebacks++
	}
	tags[vi] = tag
	var d uint64
	if write {
		d = 1
	}
	meta[vi] = c.clock<<1 | d
	c.misses++
	return false, wb, wbAddr
}

// msHier is one configuration's private two-level state.
type msHier struct {
	l1, l2  *msCache
	l1Hits  uint64
	l2Hits  uint64
	offChip uint64
}

func (h *msHier) access(addr uint64, write bool) {
	hit, wb, wbAddr := h.l1.access(addr, write)
	if hit {
		h.l1Hits++
		return
	}
	// Dirty L1 eviction lands in the L2, then the fill reads the block —
	// the same order Hierarchy.Access uses.
	if wb {
		h.l2.access(wbAddr, true)
	}
	if l2hit, _, _ := h.l2.access(addr, false); l2hit {
		h.l2Hits++
	} else {
		h.offChip++
	}
}

// NewMultiSimHierarchy builds a one-pass simulator in two-level mode: every
// configuration carries its own private L1+L2, because each L1 shape emits
// a different miss and writeback stream into its L2 (sharing L2 state
// across configurations would be approximate; see DESIGN.md).
func NewMultiSimHierarchy(space []Config, l2 L2Config) (*MultiSim, error) {
	if len(space) == 0 {
		return nil, fmt.Errorf("cache: multisim: empty design space")
	}
	l2cfg := l2.asConfig()
	if !l2cfg.Valid() {
		return nil, fmt.Errorf("cache: multisim: bad L2: %+v", l2)
	}
	m := &MultiSim{
		space:    append([]Config(nil), space...),
		scratchA: make([]uint64, 0, msChunk),
		scratchB: make([]uint64, 0, msChunk),
	}
	for _, cfg := range space {
		if !cfg.Valid() {
			return nil, fmt.Errorf("cache: multisim: invalid config %+v", cfg)
		}
		m.sims = append(m.sims, &msHier{l1: newMsCache(cfg), l2: newMsCache(l2cfg)})
	}
	return m, nil
}

// accessBatchHier replays a batch through every per-configuration
// hierarchy, chunked so the trace slice stays hot across configurations.
func (m *MultiSim) accessBatchHier(packed []uint64) {
	for len(packed) > 0 {
		n := len(packed)
		if n > msChunk {
			n = msChunk
		}
		part := packed[:n]
		for _, h := range m.sims {
			for _, p := range part {
				h.access(p>>1, p&1 == 1)
			}
		}
		packed = packed[n:]
	}
}
