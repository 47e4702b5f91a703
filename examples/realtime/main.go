// Real-time extension (the paper's Section VIII future work): priorities,
// deadlines and preemption on top of the proposed scheduler. An overloaded
// mixed-criticality workload shows plain FIFO missing most high-priority
// deadlines while priority+preemption meets nearly all of them — at a
// quantified energy cost.
//
//	go run ./examples/realtime
package main

import (
	"fmt"
	"log"
	"os"

	"hetsched"
)

func main() {
	log.SetFlags(0)

	fmt.Fprintln(os.Stderr, "setting up (characterization + ANN training)...")
	sys, err := hetsched.New(hetsched.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// An overloaded system (utilization 1.2): someone must lose. Two
	// criticality classes; the high class carries deadlines at 3x its
	// best-case execution time.
	jobs, err := sys.Workload(2000, 1.2, 13)
	if err != nil {
		log.Fatal(err)
	}
	sys.AssignPriorities(jobs, 2, 99)
	if err := sys.AssignDeadlines(jobs, 3); err != nil {
		log.Fatal(err)
	}
	// Deadlines matter only for the high-criticality class; background
	// jobs (priority 0) run best effort.
	for i := range jobs {
		if jobs[i].Priority == 0 {
			jobs[i].ClearDeadline()
		}
	}

	fifo := hetsched.SimConfig{}
	rt := hetsched.SimConfig{}
	rtBase, err := sys.RunSystem("proposed", jobs, fifo)
	if err != nil {
		log.Fatal(err)
	}
	rt.PriorityScheduling = true
	rt.Preemptive = true
	rtFull, err := sys.RunSystem("proposed", jobs, rt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("proposed scheduler, %d arrivals at 1.2x overload, deadlines at 3x best case\n\n", len(jobs))
	fmt.Printf("%-28s %12s %12s %12s %12s\n", "variant", "misses", "miss rate", "preemptions", "total mJ")
	for _, row := range []struct {
		name string
		m    hetsched.Metrics
	}{
		{"FIFO (paper baseline)", rtBase},
		{"priority + preemption", rtFull},
	} {
		fmt.Printf("%-28s %12d %11.1f%% %12d %12.1f\n",
			row.name, row.m.DeadlineMisses,
			100*row.m.MissRate(), row.m.Preemptions,
			row.m.TotalEnergy()/1e6)
	}
	fmt.Printf("\nenergy cost of meeting deadlines: %+.1f%%\n",
		100*(rtFull.TotalEnergy()/rtBase.TotalEnergy()-1))
}
