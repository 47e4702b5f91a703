// Multi-domain scheduling (Section IV.D): "for diverse systems executing
// different application domains, the scheduler could have multiple ANNs
// each of which would be specialized for a different domain." This example
// extends the population with the four telecom kernels and contrasts a
// single ANN trained on the mixed pool against per-domain ANNs behind a
// nearest-sample router.
//
//	go run ./examples/multidomain
package main

import (
	"fmt"
	"log"
	"os"

	"hetsched"
)

func main() {
	log.SetFlags(0)

	fmt.Fprintln(os.Stderr, "training single mixed-domain ANN (20 kernels)...")
	single, err := hetsched.New(hetsched.Options{IncludeTelecom: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(os.Stderr, "training per-domain ANNs + router...")
	multi, err := hetsched.New(hetsched.Options{
		IncludeTelecom: true,
		MultiDomainANN: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	score := func(sys *hetsched.System) (acc float64) {
		hits := 0
		for i := range sys.Eval.Records {
			r := &sys.Eval.Records[i]
			got, err := sys.Pred.PredictSizeKB(r.Features)
			if err != nil {
				log.Fatal(err)
			}
			if got == r.BestSizeKB() {
				hits++
			}
		}
		return float64(hits) / float64(len(sys.Eval.Records))
	}

	fmt.Printf("best-size accuracy over 20 kernels (16 automotive + 4 telecom):\n")
	fmt.Printf("  single mixed ANN:        %.2f\n", score(single))
	fmt.Printf("  per-domain ANNs + router: %.2f\n", score(multi))

	// The predictors also drive the scheduler end to end.
	jobs, err := multi.Workload(1200, 0.85, 17)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range []struct {
		name string
		sys  *hetsched.System
	}{
		{"single ANN ", single},
		{"multi-domain", multi},
	} {
		m, err := row.sys.RunSystem("proposed", jobs, hetsched.SimConfig{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("proposed system with %s: total %.1f mJ, turnaround %d Mcycles\n",
			row.name, m.TotalEnergy()/1e6, m.TurnaroundCycles/1_000_000)
	}
}
