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
	// criticality classes: half the jobs form the high class "hi"
	// (priority 1), the rest run at priority 0. Every deadline sits at 3x
	// the job's best-case execution time; only the high class's count.
	spec := hetsched.MustParseScenarioSpec("uniform;slo=deadline:slack=3,classes=hi@0.5")
	jobs, err := sys.ScenarioWorkload(spec, 2000, 1.2, 13)
	if err != nil {
		log.Fatal(err)
	}

	// Explicit configurations, not spec.ApplySim: the comparison is plain
	// FIFO against priority+preemption, without the SLO-aware rule.
	rtBase, err := sys.RunSystem("proposed", jobs, hetsched.SimConfig{})
	if err != nil {
		log.Fatal(err)
	}
	rtFull, err := sys.RunSystem("proposed", jobs, hetsched.SimConfig{PriorityScheduling: true, Preemptive: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("proposed scheduler, %d arrivals at 1.2x overload, deadlines at 3x best case\n\n", len(jobs))
	fmt.Printf("%-28s %12s %12s %12s %12s\n", "variant", "hi misses", "hi miss rate", "preemptions", "total mJ")
	for _, row := range []struct {
		name string
		m    hetsched.Metrics
	}{
		{"FIFO (paper baseline)", rtBase},
		{"priority + preemption", rtFull},
	} {
		fmt.Printf("%-28s %12d %11.1f%% %12d %12.1f\n",
			row.name, row.m.ClassDeadlineMisses["hi"],
			100*row.m.ClassMissRate("hi"), row.m.Preemptions,
			row.m.TotalEnergy()/1e6)
	}
	fmt.Printf("\nenergy cost of meeting deadlines: %+.1f%%\n",
		100*(rtFull.TotalEnergy()/rtBase.TotalEnergy()-1))
}
