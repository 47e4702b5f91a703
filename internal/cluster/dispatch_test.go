package cluster

import (
	"reflect"
	"slices"
	"testing"

	"hetsched/internal/core"
	"hetsched/internal/fault"
)

// TestAliveSummaryCache checks the per-node surviving-core cache against
// a from-scratch scan at every cycle around each death, including a
// backwards step the forward-only dispatcher never takes.
func TestAliveSummaryCache(t *testing.T) {
	ns := &nodeState{
		sizes:  []int{8, 2, 4, 8, 2},
		deadAt: []uint64{0, 100, 50, 300, 100},
		freeAt: make([]uint64, 5),
	}
	scan := func(t uint64) ([]int, int) {
		var classes []int
		alive := 0
		for i, s := range ns.sizes {
			if ns.deadAt[i] == 0 || ns.deadAt[i] > t {
				alive++
				if !slices.Contains(classes, s) {
					classes = append(classes, s)
				}
			}
		}
		slices.Sort(classes)
		return classes, alive
	}
	for _, at := range []uint64{0, 49, 50, 51, 99, 100, 101, 299, 300, 1000, 60, 0, 400} {
		wantClasses, wantAlive := scan(at)
		if got := ns.aliveSizeClasses(at); !slices.Equal(got, wantClasses) {
			t.Errorf("t=%d: classes %v, want %v", at, got, wantClasses)
		}
		if got := ns.aliveCount(at); got != wantAlive {
			t.Errorf("t=%d: alive %d, want %d", at, got, wantAlive)
		}
		for _, size := range []int{2, 4, 8} {
			if got, want := ns.hasAliveSize(size, at), slices.Contains(wantClasses, size); got != want {
				t.Errorf("t=%d: hasAliveSize(%d) = %v, want %v", at, size, got, want)
			}
		}
	}
}

// TestBacklogBalances routes a faulted, stealing workload and checks the
// running backlog sums stay equal to a re-sum of each queue at every
// arrival boundary, ending at zero once the drain empties every queue.
func TestBacklogBalances(t *testing.T) {
	db := testDB(t)
	jobs := testJobs(t, db, 600, 36, 0.9, 3)
	c := newTestCluster(t, db, Config{
		Nodes: mustNodes(t, "4*quad;2*4x8;2*16x2"),
		Sim:   core.SimConfig{Faults: fault.Plan{Seed: 4, PermanentMTTF: 3_000_000}},
	})
	d := c.newDispatch()
	check := func(when string) {
		t.Helper()
		for i, ns := range d.nodes {
			var sum uint64
			for _, j := range ns.queue {
				sum += d.est(j.AppID)
			}
			if ns.backlog != sum {
				t.Fatalf("%s: node %d backlog %d, queue sums to %d", when, i, ns.backlog, sum)
			}
		}
	}
	for _, job := range jobs {
		for _, ns := range d.nodes {
			ns.advance(job.ArrivalCycle, d.est)
		}
		d.stealPass(job.ArrivalCycle)
		check("after steal pass")
		if err := d.routeOne(job, job.ArrivalCycle); err != nil {
			t.Fatal(err)
		}
		check("after route")
	}
	if err := d.drain(jobs[len(jobs)-1].ArrivalCycle); err != nil {
		t.Fatal(err)
	}
	check("after drain")
	if d.steals == 0 {
		t.Error("no steals; the workload does not exercise the steal path")
	}

	// The step-by-step walk above is route itself, so a fresh dispatch
	// assigns every job identically.
	again := c.newDispatch()
	if err := again.route(jobs); err != nil {
		t.Fatal(err)
	}
	for i := range d.nodes {
		if !reflect.DeepEqual(d.nodes[i].jobs, again.nodes[i].jobs) {
			t.Fatalf("node %d assignment differs between the walk and route", i)
		}
	}
}
