// Policy comparison: run all five scheduling strategies — the paper's four
// systems plus the never-stall ablation — over one identical workload and
// tabulate the trade-offs, reproducing Section VI's closing observation that
// neither "never stall" nor "always stall" wins; the energy-advantageous
// decision does.
//
//	go run ./examples/policycompare [-util 0.9]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hetsched"
)

func main() {
	log.SetFlags(0)
	util := flag.Float64("util", 0.9, "offered load")
	flag.Parse()

	fmt.Fprintln(os.Stderr, "setting up (characterization + ANN training)...")
	sys, err := hetsched.New(hetsched.Options{})
	if err != nil {
		log.Fatal(err)
	}
	jobs, err := sys.Workload(2000, *util, 11)
	if err != nil {
		log.Fatal(err)
	}

	systems := []string{"base", "optimal", "sat", "energy-centric", "proposed-noEadv", "proposed"}
	results := make([]hetsched.Metrics, 0, len(systems))
	for _, name := range systems {
		m, err := sys.RunSystem(name, jobs, hetsched.SimConfig{})
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, m)
	}

	base := results[0]
	fmt.Printf("%d arrivals at utilization %.2f\n\n", len(jobs), *util)
	fmt.Printf("%-16s %9s %9s %9s %9s %9s %8s\n",
		"system", "total", "idle", "dynamic", "cycles", "stalls", "nonbest")
	for _, m := range results {
		fmt.Printf("%-16s %8.3fx %8.3fx %8.3fx %8.3fx %9d %8d\n",
			m.System,
			m.TotalEnergy()/base.TotalEnergy(),
			m.IdleEnergy/base.IdleEnergy,
			m.DynamicEnergy/base.DynamicEnergy,
			float64(m.TurnaroundCycles)/float64(base.TurnaroundCycles),
			m.StallDecisions, m.NonBestPlacements)
	}
	fmt.Println("\n(all columns normalized to the base system; lower is better)")
}
