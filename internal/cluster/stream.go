package cluster

import (
	"context"
	"sync"

	"hetsched/internal/core"
	"hetsched/internal/trace"
)

// nodeRun is one node's simulation as the pool sees it. Every field is
// guarded by the pool's mutex, except that the worker holding the node
// advances sim outside it.
type nodeRun struct {
	sim      *core.Simulator
	rec      *trace.Recorder // the node's Fork of Config.Trace, or nil
	inbox    [][]core.Job    // published batches not yet fed to sim
	waitsFor uint64          // sim.WaitsFor after its last Advance
	held     bool            // a worker is advancing sim
	done     bool            // finished, or failed with err
	err      error
}

// pool simulates the nodes while the router runs. The router publishes
// each settle's batches and watermark under mu; a worker takes the
// lowest-indexed ready node, feeds it under mu and advances it outside,
// so one goroutine at a time advances a simulator and hands it back under
// the lock. Nothing spins: an idle worker waits on wake.
type pool struct {
	c   *Cluster
	ctx context.Context

	mu     sync.Mutex
	wake   sync.Cond
	until  uint64 // the last published watermark
	closed bool   // every job is published
	halted bool   // routing failed: abandon the nodes
	ready  nodeSet
	runs   []nodeRun
}

func (c *Cluster) newPool(ctx context.Context) *pool {
	p := &pool{c: c, ctx: ctx, runs: make([]nodeRun, len(c.cfg.Nodes))}
	p.wake.L = &p.mu
	return p
}

// runnable reports whether a worker could advance node i now: it has new
// jobs, or its simulator has started and the watermark has passed what it
// waits for, or the input has closed. The caller holds mu.
func (p *pool) runnable(i int) bool {
	n := &p.runs[i]
	if n.held || n.done {
		return false
	}
	return len(n.inbox) > 0 || n.sim != nil && (p.closed || p.until > n.waitsFor)
}

// publish hands each node its batch of newly settled jobs and raises the
// watermark; settledAll closes every node's input. Closing wakes every
// idle worker even when no node is ready, so each sees the input closed
// and returns.
func (p *pool) publish(until uint64, batches [][]core.Job) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.until, p.closed = until, until == settledAll
	woke := p.closed
	for i, b := range batches {
		if len(b) > 0 {
			p.runs[i].inbox = append(p.runs[i].inbox, b)
		}
		if p.runnable(i) {
			p.ready.add(i)
			woke = true
		}
	}
	if woke {
		p.wake.Broadcast()
	}
}

// halt abandons the nodes: workers return once their current advance
// does. After a finished run it changes nothing.
func (p *pool) halt() {
	p.mu.Lock()
	p.halted = true
	p.wake.Broadcast()
	p.mu.Unlock()
}

// work advances ready nodes until the input is closed and none is ready,
// or the pool halts. A node held by another worker is that worker's to
// finish: it re-readies the node itself.
func (p *pool) work() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		i := p.ready.next(0)
		for i < 0 && !p.closed && !p.halted {
			p.wake.Wait()
			i = p.ready.next(0)
		}
		if i < 0 || p.halted {
			return
		}
		p.ready.remove(i)
		n := &p.runs[i]
		n.held = true
		if n.sim == nil {
			p.mu.Unlock()
			if p.c.cfg.Trace != nil {
				n.rec = p.c.cfg.Trace.Fork()
			}
			sim, err := p.c.newNodeSim(i, n.rec)
			p.mu.Lock()
			if err != nil {
				n.held, n.done, n.err = false, true, err
				continue
			}
			n.sim = sim
		}
		for _, b := range n.inbox {
			n.sim.Feed(b, 0)
		}
		n.inbox = n.inbox[:0]
		n.sim.Feed(nil, p.until)
		if p.closed {
			n.sim.Close()
		}
		p.mu.Unlock()
		done, err := n.sim.Advance(p.ctx)
		p.mu.Lock()
		n.held, n.done, n.err, n.waitsFor = false, done || err != nil, err, n.sim.WaitsFor()
		if p.runnable(i) {
			p.ready.add(i)
		}
	}
}
