package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: hetsched/internal/cache
cpu: Imaginary CPU @ 2.00GHz
BenchmarkL1Access/direct-8         	 5000000	       250.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkL1Access/4KB-2way-64B-8   	 3000000	       400 ns/op
BenchmarkThroughput-8              	 1000000	      1000 ns/op	        64.00 MB/s
PASS
ok  	hetsched/internal/cache	3.210s
`

func TestParse(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.CPU != "Imaginary CPU @ 2.00GHz" {
		t.Errorf("context lines misparsed: %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}

	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkL1Access/direct" || b.Package != "hetsched/internal/cache" {
		t.Errorf("first benchmark misparsed: %+v", b)
	}
	if b.Iterations != 5000000 || b.NsPerOp != 250.5 || b.BytesPerOp != 0 || b.AllocsPerOp != 0 {
		t.Errorf("first benchmark values: %+v", b)
	}

	// Without -benchmem the memory columns must read as absent, not zero.
	if b := rep.Benchmarks[1]; b.BytesPerOp != -1 || b.AllocsPerOp != -1 {
		t.Errorf("missing -benchmem columns not marked absent: %+v", b)
	}

	// Extra units land in the metrics map.
	if got := rep.Benchmarks[2].Metrics["MB/s"]; got != 64 {
		t.Errorf("MB/s metric = %v, want 64", got)
	}
}

func TestParseRejectsChatter(t *testing.T) {
	chatter := `BenchmarkFoo was mentioned in a log line
Benchmark
BenchmarkBar-8 notanumber 12 ns/op
BenchmarkBaz-8 100 chatter only here
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(chatter)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("chatter parsed as benchmarks: %+v", rep.Benchmarks)
	}
}

// TestParseKeepsMetricsOnMalformedPairs is the regression gate for the
// dropped-metrics bug: one unparsable token (or a dangling odd token) on a
// result line used to throw away the entire line, silently losing custom
// ReportMetric values — most visibly on benchmarks reporting a custom unit
// without the -benchmem allocs columns.
func TestParseKeepsMetricsOnMalformedPairs(t *testing.T) {
	input := `BenchmarkCustom-8 200 1500 ns/op 42.5 events/op
BenchmarkGlued-8 300 2000 ns/op [recovered] 7.25 misses/op
BenchmarkDangling-8 400 3000 ns/op 64.00 MB/s stray
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(input)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}

	// Custom metric on a no-allocs line survives.
	b := rep.Benchmarks[0]
	if b.NsPerOp != 1500 || b.Metrics["events/op"] != 42.5 {
		t.Errorf("custom metric dropped: %+v", b)
	}
	if b.BytesPerOp != -1 || b.AllocsPerOp != -1 {
		t.Errorf("absent -benchmem columns misread: %+v", b)
	}

	// A non-numeric token glued mid-line loses only itself, not the line.
	b = rep.Benchmarks[1]
	if b.NsPerOp != 2000 || b.Metrics["misses/op"] != 7.25 {
		t.Errorf("metrics after a malformed token dropped: %+v", b)
	}

	// A dangling odd token is ignored; earlier pairs survive.
	b = rep.Benchmarks[2]
	if b.NsPerOp != 3000 || b.Metrics["MB/s"] != 64 {
		t.Errorf("metrics before a dangling token dropped: %+v", b)
	}
}

// writeReport drops a minimal benchjson document for compare-mode tests.
func writeReport(t *testing.T, name string, benches []Benchmark) string {
	t.Helper()
	data, err := json.Marshal(Report{Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareMain covers the regression gate: within-tolerance passes,
// beyond-tolerance fails, a vanished baseline benchmark fails, improvements
// and new benchmarks never fail, and usage errors exit 2.
func TestCompareMain(t *testing.T) {
	old := writeReport(t, "old.json", []Benchmark{
		{Name: "BenchmarkA", Package: "p", Iterations: 1, NsPerOp: 1000},
		{Name: "BenchmarkB", Package: "p", Iterations: 1, NsPerOp: 500},
	})
	within := writeReport(t, "within.json", []Benchmark{
		{Name: "BenchmarkA", Package: "p", Iterations: 1, NsPerOp: 1100},
		{Name: "BenchmarkB", Package: "p", Iterations: 1, NsPerOp: 400}, // improvement
		{Name: "BenchmarkNew", Package: "p", Iterations: 1, NsPerOp: 9},
	})
	beyond := writeReport(t, "beyond.json", []Benchmark{
		{Name: "BenchmarkA", Package: "p", Iterations: 1, NsPerOp: 1300},
		{Name: "BenchmarkB", Package: "p", Iterations: 1, NsPerOp: 500},
	})
	missing := writeReport(t, "missing.json", []Benchmark{
		{Name: "BenchmarkA", Package: "p", Iterations: 1, NsPerOp: 1000},
	})

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"within tolerance", []string{old, within, "-tolerance", "0.15"}, 0},
		{"regression", []string{old, beyond, "-tolerance", "0.15"}, 1},
		{"regression forgiven by loose tolerance", []string{old, beyond, "-tolerance=0.5"}, 0},
		{"missing benchmark", []string{old, missing}, 1},
		{"identical", []string{old, old}, 0},
		{"one file", []string{old}, 2},
		{"bad tolerance", []string{old, within, "-tolerance", "x"}, 2},
		{"unreadable file", []string{old, filepath.Join(t.TempDir(), "nope.json")}, 2},
	}
	for _, c := range cases {
		if got := compareMain(c.args); got != c.want {
			t.Errorf("%s: compareMain(%v) = %d, want %d", c.name, c.args, got, c.want)
		}
	}
}

// TestParseStripsProcsSuffix pins the GOMAXPROCS rule: only a final dash
// followed by digits is dropped, so a row parses to the same name at any
// core count, while dashes inside sub-benchmark names survive.
func TestParseStripsProcsSuffix(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"BenchmarkL1Access-8", "BenchmarkL1Access"},
		{"BenchmarkL1Access", "BenchmarkL1Access"},
		{"BenchmarkL1Access/4KB-2way-64B-16", "BenchmarkL1Access/4KB-2way-64B"},
		{"BenchmarkL1Access/4KB-2way-64B", "BenchmarkL1Access/4KB-2way-64B"},
		{"BenchmarkCharacterizeWorkers/workers=2-2", "BenchmarkCharacterizeWorkers/workers=2"},
		{"BenchmarkTrailingDash-", "BenchmarkTrailingDash-"},
	} {
		rep, err := parse(bufio.NewScanner(strings.NewReader(c.in + " 10 5 ns/op\n")))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != c.want {
			t.Errorf("%q parsed as %+v, want name %q", c.in, rep.Benchmarks, c.want)
		}
	}
}

// TestCompareAllocGate covers the allocation ratchet: a row may exceed its
// baseline allocs/op by max(2, 1% of the baseline) and no more, fewer
// allocations never fail, and rows without -benchmem columns are not
// gated.
func TestCompareAllocGate(t *testing.T) {
	row := func(name string, allocs int64) Benchmark {
		return Benchmark{Name: name, Package: "p", Iterations: 1, NsPerOp: 100, AllocsPerOp: allocs}
	}
	old := writeReport(t, "old.json", []Benchmark{row("BenchmarkSmall", 10), row("BenchmarkLarge", 1000), row("BenchmarkZero", 0)})
	cases := []struct {
		name         string
		small, large int64
		zero         int64
		want         int
	}{
		{"unchanged", 10, 1000, 0, 0},
		{"fewer allocations", 5, 900, 0, 0},
		{"small row at the floor slack", 12, 1000, 0, 0},
		{"small row past the floor slack", 13, 1000, 0, 1},
		{"large row at 1%", 10, 1010, 0, 0},
		{"large row past 1%", 10, 1011, 0, 1},
		{"zero row within the floor", 10, 1000, 2, 0},
		{"zero row starts allocating", 10, 1000, 3, 1},
	}
	for _, c := range cases {
		fresh := writeReport(t, "fresh.json", []Benchmark{row("BenchmarkSmall", c.small), row("BenchmarkLarge", c.large), row("BenchmarkZero", c.zero)})
		if got := compareMain([]string{old, fresh}); got != c.want {
			t.Errorf("%s: compareMain = %d, want %d", c.name, got, c.want)
		}
	}

	// A baseline without -benchmem columns gates on ns/op only.
	noMem := writeReport(t, "nomem.json", []Benchmark{row("BenchmarkSmall", -1)})
	fresh := writeReport(t, "fresh.json", []Benchmark{row("BenchmarkSmall", 500)})
	if got := compareMain([]string{noMem, fresh}); got != 0 {
		t.Errorf("baseline without allocs: compareMain = %d, want 0", got)
	}
}
