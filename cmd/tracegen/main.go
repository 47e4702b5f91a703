// Command tracegen executes one benchmark on the VM and writes its full
// data-memory access trace in the compact binary format, along with the
// hardware-counter summary the profiler would record. Saved traces replay
// through cachetune -fromtrace without re-executing the program — the
// record-once/replay-everywhere flow the paper uses with SimpleScalar.
//
// Usage:
//
//	tracegen -kernel matrix -o matrix.trc [-scale 1] [-seed 1] [-iters 4]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"hetsched/internal/eembc"
	"hetsched/internal/isa"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run parses args, records the kernel's trace into the -o file and prints
// the counter summary to stdout. A failed write or close of the trace file
// is an error.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	kernel := fs.String("kernel", "", "benchmark to trace (required; see cachetune -list)")
	out := fs.String("o", "", "output trace file (required)")
	scale := fs.Int("scale", 1, "dataset scale")
	seed := fs.Int64("seed", 1, "data seed")
	iters := fs.Int("iters", 4, "outer iterations")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *kernel == "" || *out == "" {
		fs.Usage()
		return errors.New("-kernel and -o are required")
	}
	k, err := eembc.ByName(*kernel)
	if err != nil {
		return err
	}
	params := eembc.Params{Scale: *scale, Iterations: *iters, Seed: *seed}
	ctr, tr, err := eembc.Record(k, params)
	if err != nil {
		return err
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if err := tr.Save(f); err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}

	prog, err := k.Program(params)
	if err != nil {
		return err
	}
	mix := prog.Mix()
	fmt.Fprintf(stdout, "kernel        %s (scale %d, seed %d, iters %d)\n", k.Name, *scale, *seed, *iters)
	fmt.Fprintf(stdout, "static mix    %d instrs: %d int, %d mul/div, %d fp, %d load, %d store, %d branch\n",
		prog.Len(), mix[isa.ClassIntALU], mix[isa.ClassMulDiv], mix[isa.ClassFP],
		mix[isa.ClassLoad], mix[isa.ClassStore], mix[isa.ClassBranch])
	fmt.Fprintf(stdout, "instructions  %d\n", ctr.Instructions)
	fmt.Fprintf(stdout, "base cycles   %d\n", ctr.Cycles)
	fmt.Fprintf(stdout, "accesses      %d (%d loads, %d stores)\n", tr.Len(), tr.Reads(), tr.Writes())
	fmt.Fprintf(stdout, "footprint     %d x 64B blocks (%.1f KB)\n",
		tr.Footprint(64), float64(tr.Footprint(64)*64)/1024)
	fmt.Fprintf(stdout, "trace file    %s: %d bytes (%.2f bytes/access)\n",
		*out, info.Size(), float64(info.Size())/float64(tr.Len()))
	return nil
}
