// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout, so benchmark baselines can be committed and diffed
// (`make bench-baseline` writes BENCH_core.json with it), and compares two
// such documents as a regression gate (`make bench-gate` in CI).
//
// Usage:
//
//	go test -bench=. -benchmem ./internal/cache/ | benchjson > BENCH_core.json
//	benchjson -compare BENCH_core.json fresh.json -tolerance 0.15
//
// Compare mode matches benchmarks by package and name, prints a per-benchmark
// ns/op and allocs/op delta table, and exits nonzero when any matched
// benchmark slowed by more than the tolerance (a fraction; 0.15 means +15%),
// allocated more than its baseline allows (see allocSlack), or disappeared
// from the fresh run. New benchmarks absent from the baseline are reported
// but never fail the gate.
//
// The parser understands the standard benchmark line
//
//	BenchmarkL1Access/direct-8   5000000   250.0 ns/op   0 B/op   0 allocs/op
//
// plus the goos/goarch/pkg/cpu context lines; every other line (PASS, ok,
// test chatter) is ignored. The trailing -GOMAXPROCS suffix ("-8" above) is
// dropped, so rows recorded at different core counts match; a sub-benchmark
// name must therefore not itself end in a dash and digits. Custom
// b.ReportMetric units are carried through into the metrics map.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmark path, without
	// the trailing -GOMAXPROCS suffix, e.g. "BenchmarkL1Access/direct".
	Name string `json:"name"`
	// Package is the import path from the preceding "pkg:" line, when seen.
	Package    string  `json:"package,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp appear with -benchmem; -1 means absent.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Metrics holds any extra unit pairs (MB/s, custom ReportMetric units).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the whole document.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	args := os.Args[1:]
	if len(args) > 0 && (args[0] == "-compare" || args[0] == "--compare") {
		os.Exit(compareMain(args[1:]))
	}
	if len(args) > 0 { // filter mode takes no arguments
		fmt.Fprintln(os.Stderr, `usage: go test -bench=... -benchmem <pkgs> | benchjson > out.json
       benchjson -compare old.json new.json [-tolerance 0.15]`)
		os.Exit(2)
	}
	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		log.Fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		log.Fatal("no benchmark lines on stdin (run with `go test -bench=...`)")
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
}

// parse consumes go-test output line by line.
func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if !ok {
				continue // a Benchmark* identifier in test chatter, not a result
			}
			b.Package = pkg
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	return rep, sc.Err()
}

// parseBenchLine parses one result line into a Benchmark. One malformed
// (value, unit) pair — chatter glued onto the line, a unit with no value, a
// dangling trailing token — must not discard the whole result: the other
// pairs are real measurements (notably custom ReportMetric units on lines
// without the -benchmem columns), so the scan resynchronizes past the bad
// token and keeps what it can. A line yielding no valid pair at all is
// rejected as chatter.
func parseBenchLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	// Minimum shape: name, iterations, value, unit.
	if len(f) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: trimProcs(f[0]), Iterations: iters, BytesPerOp: -1, AllocsPerOp: -1}
	pairs := 0
	for i := 2; i+1 < len(f); {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			i++ // not a value; resynchronize on the next token
			continue
		}
		pairs++
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
		i += 2
	}
	if pairs == 0 {
		return Benchmark{}, false
	}
	return b, true
}

// trimProcs drops the -GOMAXPROCS suffix go test appends to a benchmark
// name when GOMAXPROCS > 1: a final dash followed only by digits.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}

// allocSlack is how many allocs/op a benchmark may exceed its baseline by:
// 1% of the baseline, but at least 2, the run-to-run wobble of the
// HTTP-serving benchmark. Every other row allocates exactly the same
// count on every run, so a rise beyond the slack is a real regression.
func allocSlack(base int64) int64 {
	return max(2, base/100)
}

// compareMain implements `benchjson -compare old.json new.json
// [-tolerance f]`. It returns the process exit code: 0 when every matched
// benchmark is within tolerance, 1 on any regression or missing baseline
// benchmark, 2 on usage errors.
func compareMain(args []string) int {
	tol := 0.15
	var files []string
	for i := 0; i < len(args); i++ {
		switch a := args[i]; {
		case a == "-tolerance" || a == "--tolerance":
			i++
			if i >= len(args) {
				log.Print("-tolerance needs a value")
				return 2
			}
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil || v < 0 {
				log.Printf("bad tolerance %q", args[i])
				return 2
			}
			tol = v
		case strings.HasPrefix(a, "-tolerance="):
			v, err := strconv.ParseFloat(strings.TrimPrefix(a, "-tolerance="), 64)
			if err != nil || v < 0 {
				log.Printf("bad tolerance %q", a)
				return 2
			}
			tol = v
		case strings.HasPrefix(a, "-"):
			log.Printf("unknown flag %q", a)
			return 2
		default:
			files = append(files, a)
		}
	}
	if len(files) != 2 {
		log.Print("usage: benchjson -compare old.json new.json [-tolerance 0.15]")
		return 2
	}
	oldRep, err := loadReport(files[0])
	if err != nil {
		log.Print(err)
		return 2
	}
	newRep, err := loadReport(files[1])
	if err != nil {
		log.Print(err)
		return 2
	}

	type key struct{ pkg, name string }
	fresh := map[key]Benchmark{}
	for _, b := range newRep.Benchmarks {
		fresh[key{b.Package, b.Name}] = b
	}
	seen := map[key]bool{}

	fmt.Printf("%-58s %14s %14s %8s %10s %10s\n", "benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs")
	failed := 0
	for _, ob := range oldRep.Benchmarks {
		k := key{ob.Package, ob.Name}
		seen[k] = true
		nb, ok := fresh[k]
		if !ok {
			fmt.Printf("%-58s %14.0f %14s %8s %10d %10s  MISSING\n", ob.Name, ob.NsPerOp, "-", "-", ob.AllocsPerOp, "-")
			failed++
			continue
		}
		delta := 0.0
		if ob.NsPerOp > 0 {
			delta = (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
		}
		status := ""
		if delta > tol {
			status += "  REGRESSION"
		}
		// Allocations are gated only where both runs measured them
		// (-benchmem; -1 means absent).
		if ob.AllocsPerOp >= 0 && nb.AllocsPerOp > ob.AllocsPerOp+allocSlack(ob.AllocsPerOp) {
			status += "  ALLOCS"
		}
		if status != "" {
			failed++
		}
		fmt.Printf("%-58s %14.0f %14.0f %+7.1f%% %10d %10d%s\n", ob.Name, ob.NsPerOp, nb.NsPerOp, delta*100, ob.AllocsPerOp, nb.AllocsPerOp, status)
	}
	for _, nb := range newRep.Benchmarks {
		if k := (key{nb.Package, nb.Name}); !seen[k] {
			fmt.Printf("%-58s %14s %14.0f %8s %10s %10d  new\n", nb.Name, "-", nb.NsPerOp, "-", "-", nb.AllocsPerOp)
		}
	}
	if failed > 0 {
		fmt.Printf("FAIL: %d benchmark(s) slowed beyond %.0f%%, allocated beyond the slack, or went missing\n", failed, tol*100)
		return 1
	}
	fmt.Printf("OK: all matched benchmarks within %.0f%% of baseline ns/op and within the allocs/op slack\n", tol*100)
	return 0
}

// loadReport reads one benchjson document from disk.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in report", path)
	}
	return &rep, nil
}
