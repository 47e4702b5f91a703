// Command anntrain trains the paper's bagged ANN predictor (Figure 3:
// {10, 18, 5, 1}, 30 members, 70/15/15 split) on the augmented
// characterization pool, reports its held-out accuracy and the canonical
// suite's energy degradation versus the oracle best cache size (the paper's
// < 2% claim).
//
// Usage:
//
//	anntrain [-members 30] [-seed 42] [-compare] [-cv k] [-j N] [-cache-dir auto]
//
// Characterization replays and ensemble members both fan out across -j
// workers, and with -cache-dir auto the characterization pools persist on
// disk, so a repeat run goes straight to training.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"

	"hetsched"
	"hetsched/internal/ann"
	"hetsched/internal/characterize"
	"hetsched/internal/energy"
	"hetsched/internal/mlbase"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("anntrain: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run parses args, trains and scores the predictor, and prints the report
// to stdout; progress lines go to stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("anntrain", flag.ContinueOnError)
	members := fs.Int("members", 30, "ensemble size (paper: 30)")
	seed := fs.Int64("seed", 42, "training seed")
	compare := fs.Bool("compare", false, "also train and score the non-ANN baselines")
	cv := fs.Int("cv", 0, "additionally run k-fold cross-validation (0 = off)")
	jobs := fs.Int("j", runtime.NumCPU(), "parallel workers for characterization and training")
	cacheDir := fs.String("cache-dir", "auto", "persistent characterization cache: auto|off|<dir>")
	if err := fs.Parse(args); err != nil {
		return err
	}

	dir, err := hetsched.ResolveCacheDir(*cacheDir)
	if err != nil {
		return err
	}
	em := energy.NewDefault()

	fmt.Fprintln(os.Stderr, "characterizing training pool (16 kernels x scales x seeds)...")
	tier := characterize.NewTier(0, 0, dir, em, characterize.Options{Workers: *jobs})
	train, src, err := tier.Characterize(characterize.AugmentedVariants())
	if err != nil {
		return err
	}
	eval, _, err := tier.Characterize(characterize.CanonicalVariants())
	if err != nil {
		return err
	}
	if src == characterize.SourceDisk {
		fmt.Fprintln(os.Stderr, "characterization served from cache (no kernel replay)")
	}

	fmt.Fprintf(os.Stderr, "training %d bagged networks...\n", *members)
	pred, rep, err := ann.TrainSizePredictor(train, ann.PredictorConfig{
		Seed:     *seed,
		Workers:  *jobs,
		Ensemble: ann.EnsembleConfig{Members: *members},
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "training pool: %d samples (%d train / %d test)\n",
		rep.Samples, rep.TrainSamples, rep.TestSamples)
	fmt.Fprintf(stdout, "ensemble:      %d members, topology {10, 18, 5, 1}\n", rep.Members)
	fmt.Fprintf(stdout, "train accuracy %.2f   held-out accuracy %.2f   held-out MSE %.4f\n",
		rep.TrainAccuracy, rep.TestAccuracy, rep.TestMSE)

	// The paper's metric: energy degradation on the benchmark suite when
	// the predicted best size replaces the oracle best size.
	var degraded, optimal float64
	hits := 0
	for i := range eval.Records {
		r := &eval.Records[i]
		size, err := pred.PredictSizeKB(r.Features)
		if err != nil {
			return err
		}
		if size == r.BestSizeKB() {
			hits++
		}
		chosen, err := r.BestConfigForSize(size)
		if err != nil {
			return err
		}
		degraded += chosen.Energy.Total
		optimal += r.BestConfig().Energy.Total
	}
	fmt.Fprintf(stdout, "canonical suite: accuracy %.2f, energy degradation %.2f%% (paper: <2%%)\n",
		float64(hits)/float64(len(eval.Records)), 100*(degraded/optimal-1))

	if *compare {
		fmt.Fprintln(stdout, "\nbaseline comparison (canonical-suite accuracy):")
		lin, err := mlbase.TrainLinear(train, 0)
		if err != nil {
			return err
		}
		knn, err := mlbase.TrainKNN(train, 3)
		if err != nil {
			return err
		}
		stump, err := mlbase.TrainStump(train)
		if err != nil {
			return err
		}
		tree, err := mlbase.TrainTree(train, 4)
		if err != nil {
			return err
		}
		linAcc, err := mlbase.Accuracy(lin, eval)
		if err != nil {
			return err
		}
		knnAcc, err := mlbase.Accuracy(knn, eval)
		if err != nil {
			return err
		}
		stumpAcc, err := mlbase.Accuracy(stump, eval)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  linear regression  %.2f\n", linAcc)
		fmt.Fprintf(stdout, "  3-NN               %.2f\n", knnAcc)
		fmt.Fprintf(stdout, "  decision stump     %.2f\n", stumpAcc)
		treeAcc, err := mlbase.Accuracy(tree, eval)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  CART tree (d=4)    %.2f\n", treeAcc)
	}

	if *cv > 0 {
		fmt.Fprintf(os.Stderr, "running %d-fold cross-validation...\n", *cv)
		res, err := ann.CrossValidate(train, *cv, ann.PredictorConfig{
			Seed:     *seed,
			Workers:  *jobs,
			Ensemble: ann.EnsembleConfig{Members: *members},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n%d-fold cross-validation: mean accuracy %.2f, mean MSE %.4f\n",
			res.Folds, res.MeanAccuracy, res.MeanMSE)
		fmt.Fprintf(stdout, "per-fold accuracy: %v\n", res.FoldAccuracy)
	}
	return nil
}
