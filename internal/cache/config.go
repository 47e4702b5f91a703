// Package cache implements the configurable cache models used by the
// heterogeneous multicore scheduler: a runtime-reconfigurable L1 data cache
// (size, associativity and line size per Table 1 of the paper), a fixed
// private L2, and a two-level hierarchy that replays memory-access streams
// and reports hit/miss statistics.
package cache

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Config identifies a single L1 cache configuration from the paper's design
// space (Table 1). Configurations are written in the paper's notation, e.g.
// "8KB_4W_64B": total size in kilobytes, associativity in ways, line size in
// bytes.
type Config struct {
	// SizeKB is the total cache capacity in kilobytes (2, 4 or 8).
	SizeKB int
	// Ways is the set associativity (1, 2 or 4).
	Ways int
	// LineBytes is the cache line (block) size in bytes (16, 32 or 64).
	LineBytes int
}

// String formats the configuration in the paper's notation, e.g. "8KB_4W_64B".
func (c Config) String() string {
	return fmt.Sprintf("%dKB_%dW_%dB", c.SizeKB, c.Ways, c.LineBytes)
}

// SizeBytes returns the total capacity in bytes.
func (c Config) SizeBytes() int { return c.SizeKB * 1024 }

// Sets returns the number of cache sets implied by the configuration.
func (c Config) Sets() int {
	return c.SizeBytes() / (c.Ways * c.LineBytes)
}

// Valid reports whether the configuration is internally consistent: positive
// power-of-two fields and at least one set.
func (c Config) Valid() bool {
	if c.SizeKB <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return false
	}
	if !isPow2(c.SizeKB) || !isPow2(c.Ways) || !isPow2(c.LineBytes) {
		return false
	}
	return c.SizeBytes() >= c.Ways*c.LineBytes
}

// InDesignSpace reports whether the configuration is one of the 18 entries of
// the paper's Table 1.
func (c Config) InDesignSpace() bool {
	for _, d := range DesignSpace() {
		if d == c {
			return true
		}
	}
	return false
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// ParseConfig parses the paper's configuration notation ("8KB_4W_64B",
// case-insensitive). It returns an error for malformed strings or
// configurations that are not internally consistent.
func ParseConfig(s string) (Config, error) {
	parts := strings.Split(strings.ToUpper(strings.TrimSpace(s)), "_")
	if len(parts) != 3 {
		return Config{}, fmt.Errorf("cache: malformed config %q: want SIZE_WAYS_LINE", s)
	}
	size, err := parseSuffixed(parts[0], "KB")
	if err != nil {
		return Config{}, fmt.Errorf("cache: config %q: %v", s, err)
	}
	ways, err := parseSuffixed(parts[1], "W")
	if err != nil {
		return Config{}, fmt.Errorf("cache: config %q: %v", s, err)
	}
	line, err := parseSuffixed(parts[2], "B")
	if err != nil {
		return Config{}, fmt.Errorf("cache: config %q: %v", s, err)
	}
	c := Config{SizeKB: size, Ways: ways, LineBytes: line}
	if !c.Valid() {
		return Config{}, fmt.Errorf("cache: config %q is not realizable", s)
	}
	return c, nil
}

func parseSuffixed(s, suffix string) (int, error) {
	if !strings.HasSuffix(s, suffix) {
		return 0, fmt.Errorf("field %q missing suffix %q", s, suffix)
	}
	v, err := strconv.Atoi(strings.TrimSuffix(s, suffix))
	if err != nil {
		return 0, fmt.Errorf("field %q: %v", s, err)
	}
	if v <= 0 {
		return 0, fmt.Errorf("field %q: must be positive", s)
	}
	return v, nil
}

// MustParseConfig is like ParseConfig but panics on error. It is intended for
// package-level constants and tests.
func MustParseConfig(s string) Config {
	c, err := ParseConfig(s)
	if err != nil {
		panic(err)
	}
	return c
}

// BaseConfig is the paper's base/profiling configuration: the largest cache
// with maximum associativity and line size (8KB_4W_64B). Profiling always
// executes in this configuration, and the "base" comparison system runs every
// core fixed at it.
var BaseConfig = Config{SizeKB: 8, Ways: 4, LineBytes: 64}

// Paper parameter sets for the Table 1 design space.
var (
	sizesKB   = []int{2, 4, 8}
	waysSet   = []int{1, 2, 4}
	lineSizes = []int{16, 32, 64}
)

// maxWaysForSize encodes the Table 1 subsetting: 2 KB caches are direct
// mapped only, 4 KB caches reach 2-way, 8 KB caches reach 4-way. This keeps
// the minimum set count reasonable for small caches and yields exactly the 18
// configurations of Table 1.
func maxWaysForSize(sizeKB int) int {
	switch {
	case sizeKB <= 2:
		return 1
	case sizeKB <= 4:
		return 2
	default:
		return 4
	}
}

// table is Table 1, built once per process and ordered by size, then
// associativity, then line size (smallest first, the exploration order the
// tuning heuristic relies on). The accessors below hand out read-only
// views of it, so a scheduling decision never rebuilds the design space.
var table = buildTable()

// sizeClass is one cache size's slice of table: its configurations (a
// contiguous run of table, cap == len) and its distinct associativities
// in ascending order.
type sizeClass struct {
	sizeKB  int
	configs []Config
	assocs  []int
}

// classes indexes table by size, ascending; sizes lists the same sizes.
var (
	classes = buildClasses(table)
	sizes   = classSizes(classes)
)

func buildTable() []Config {
	var out []Config
	for _, size := range sizesKB {
		for _, w := range waysSet {
			if w > maxWaysForSize(size) {
				continue
			}
			for _, l := range lineSizes {
				out = append(out, Config{SizeKB: size, Ways: w, LineBytes: l})
			}
		}
	}
	return slices.Clip(out)
}

// buildClasses splits the size-ordered table into per-size runs. Within a
// run the ways are ascending, so distinct associativities are the points
// where the ways change.
func buildClasses(t []Config) []sizeClass {
	var out []sizeClass
	for start := 0; start < len(t); {
		end := start
		var assocs []int
		for ; end < len(t) && t[end].SizeKB == t[start].SizeKB; end++ {
			if n := len(assocs); n == 0 || assocs[n-1] != t[end].Ways {
				assocs = append(assocs, t[end].Ways)
			}
		}
		out = append(out, sizeClass{
			sizeKB:  t[start].SizeKB,
			configs: t[start:end:end],
			assocs:  slices.Clip(assocs),
		})
		start = end
	}
	return out
}

func classSizes(cs []sizeClass) []int {
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = c.sizeKB
	}
	return out
}

// classOf returns the size class of sizeKB, or nil outside Table 1.
func classOf(sizeKB int) *sizeClass {
	for i := range classes {
		if classes[i].sizeKB == sizeKB {
			return &classes[i]
		}
	}
	return nil
}

// DesignSpace returns the complete 18-configuration design space of Table 1,
// ordered by size, then associativity, then line size (smallest first, the
// exploration order the tuning heuristic relies on).
//
// The result is the package's shared table: callers must not modify its
// elements. Its capacity equals its length, so an append copies.
func DesignSpace() []Config { return table }

// ConfigsForSize returns the subset of the design space offered by a core
// whose fixed cache size is sizeKB, ordered smallest-associativity and
// smallest-line first, or nil for a size outside Table 1.
//
// The result is a read-only view of the shared table (see DesignSpace).
func ConfigsForSize(sizeKB int) []Config {
	if c := classOf(sizeKB); c != nil {
		return c.configs
	}
	return nil
}

// Sizes returns the distinct cache sizes (KB) present in the design space in
// ascending order.
//
// The result is shared and read-only: callers must not modify it. Its
// capacity equals its length, so an append copies.
func Sizes() []int { return sizes }

// Associativities returns the candidate associativities for a given size in
// ascending order (the tuning heuristic's exploration order), or nil for a
// size outside Table 1.
//
// The result is shared and read-only: callers must not modify it. Its
// capacity equals its length, so an append copies.
func Associativities(sizeKB int) []int {
	if c := classOf(sizeKB); c != nil {
		return c.assocs
	}
	return nil
}

// LineSizes returns the candidate line sizes in ascending order.
//
// The result is shared and read-only: callers must not modify it. Its
// capacity equals its length, so an append copies.
func LineSizes() []int { return lineSizes }

// CoreSizesKB is the Figure 1 core subsetting: Core 1 through Core 4 offer
// fixed cache sizes of 2, 4, 8 and 8 KB respectively. Index is core ID.
var CoreSizesKB = []int{2, 4, 8, 8}
