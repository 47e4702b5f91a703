// Automotive scenario: the workload mix the paper's introduction motivates —
// an engine-management ECU dominated by crank-synchronous tasks (a2time,
// ttsprk, puwmod, rspeed) with periodic signal processing (aifirf, iirflt)
// and occasional diagnostics (canrdr, tblook). The mix is deliberately
// skewed toward small-cache kernels, so the heterogeneous system's 2 KB and
// 4 KB cores earn their keep.
//
//	go run ./examples/automotive
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

	// Weight by repetition: crank-synchronous tasks fire most often.
	mix := hetsched.MustParseScenarioSpec("uniform;mix=a2time*3+ttsprk*3+puwmod*2+rspeed*2+aifirf+iirflt+canrdr+tblook")
	jobs, err := sys.ScenarioWorkload(mix, 2000, 0.7, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("automotive mix: %d arrivals over %d task types\n\n", len(jobs), len(mix.Mix))

	for _, name := range []string{"base", "proposed"} {
		m, err := sys.RunSystem(name, jobs, hetsched.SimConfig{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(hetsched.FormatMetrics(m))
	}

	base, err := sys.RunSystem("base", jobs, hetsched.SimConfig{})
	if err != nil {
		log.Fatal(err)
	}
	prop, err := sys.RunSystem("proposed", jobs, hetsched.SimConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nECU energy saving with the proposed scheduler: %.1f%%\n",
		100*(1-prop.TotalEnergy()/base.TotalEnergy()))
	fmt.Printf("ECU turnaround ratio vs base: %.2fx\n",
		float64(prop.TurnaroundCycles)/float64(base.TurnaroundCycles))
	fmt.Println("(the base system runs every task on uniformly large 8 KB caches — fast but")
	fmt.Println(" energy-hungry; the heterogeneous scheduler trades a slice of turnaround for")
	fmt.Println(" the energy budget, which is the design goal in this domain)")
}
