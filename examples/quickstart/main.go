// Quickstart: characterize the benchmark suite, train the paper's ANN
// predictor, run the four-system comparison and print the Figure 6/7 report.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"hetsched"
)

func main() {
	log.SetFlags(0)

	// New characterizes all sixteen EEMBC-like kernels against the 18-entry
	// cache design space and trains the bagged {10,18,5,1} ANN — everything
	// the paper's scheduler needs.
	fmt.Fprintln(os.Stderr, "setting up (characterization + ANN training)...")
	sys, err := hetsched.New(hetsched.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Show what the predictor learned.
	fmt.Println("best-cache-size predictions (ANN vs oracle):")
	for _, k := range hetsched.Kernels() {
		pred, oracle, err := sys.PredictBestSize(k.Name)
		if err != nil {
			log.Fatal(err)
		}
		mark := " "
		if pred == oracle {
			mark = "*"
		}
		fmt.Printf("  %-8s predicted %dKB, oracle %dKB %s\n", k.Name, pred, oracle, mark)
	}
	fmt.Println()

	// Run a reduced version of the paper's experiment (full scale: 5000
	// arrivals via cmd/hmsim).
	cfg := hetsched.DefaultExperimentConfig()
	cfg.Arrivals = 1000
	res, err := sys.Experiment(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(hetsched.FormatFigure6(res))
	fmt.Println()
	fmt.Print(hetsched.FormatFigure7(res))
	saving := 1 - res.Proposed.TotalEnergy()/res.Base.TotalEnergy()
	fmt.Printf("\nproposed scheduler saves %.1f%% total energy vs the fixed-configuration system\n",
		100*saving)
}
