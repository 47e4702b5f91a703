// Tuning walkthrough: for each benchmark, contrast exhaustive design-space
// search (18 configurations) with the Figure 5 heuristic (at most
// associativities + line sizes - 1 per core), showing that the heuristic
// lands on or near the per-core best while executing a fraction of the
// configurations — the paper's Section VI efficiency result.
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"
	"os"

	"hetsched"
)

func main() {
	log.SetFlags(0)

	fmt.Fprintln(os.Stderr, "characterizing suite...")
	sys, err := hetsched.New(hetsched.Options{Spec: hetsched.MustParsePredictorSpec("oracle")})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Figure 5 tuning heuristic vs exhaustive search, per benchmark:")
	fmt.Printf("%-8s %28s %28s %28s\n", "", "2KB core", "4KB core", "8KB core")
	totalExplored, totalConfigs := 0, 0
	worst := 0
	for _, k := range hetsched.Kernels() {
		fmt.Printf("%-8s", k.Name)
		for _, size := range []int{2, 4, 8} {
			explored, best, err := sys.TuneKernel(k.Name, size)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" (%d steps -> %-10s)", len(explored), best)
			totalExplored += len(explored)
			totalConfigs += len(hetsched.DesignSpace())
			if len(explored) > worst {
				worst = len(explored)
			}
		}
		fmt.Println()
	}
	fmt.Printf("\nheuristic explored %d configurations where exhaustive search would execute %d\n",
		totalExplored, totalConfigs)
	fmt.Printf("worst case per core: %d (paper observed no benchmark above 6)\n", worst)
}
