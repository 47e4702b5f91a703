package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"hetsched/internal/cache"
)

// MaxSpecCores bounds how many cores a single SystemSpec may declare. The
// cluster layer multiplies node shapes by node counts, so the parser caps
// each node at a size the discrete-event simulator handles comfortably.
const MaxSpecCores = 1024

// SystemSpec is the declarative description of one simulated multicore
// node: its per-core L1 cache sizes plus the reconfiguration and profiling
// latencies. It is the data form of what SimConfig previously hard-coded —
// node shapes become values that a cluster can mix (e.g. 4×big, 16×little)
// instead of constants compiled into the simulator.
//
// The zero value is invalid (no cores); use DefaultSystemSpec or
// ParseSystemSpec. Latency fields left zero take the paper's defaults when
// the spec is lowered to a SimConfig.
type SystemSpec struct {
	// CoreSizesKB lists each core's cache size in KB, one entry per core.
	// Every size must be a member of the Table 1 design space
	// (cache.Sizes()).
	CoreSizesKB []int
	// ReconfigCycles overrides SimConfig.ReconfigCycles (0 = default 200).
	ReconfigCycles uint64
	// ProfilingCycles overrides SimConfig.ProfilingCycles (0 = default
	// 2000).
	ProfilingCycles uint64
}

// DefaultSystemSpec returns the paper's Figure 1 quad-core shape
// ({2, 4, 8, 8} KB with default latencies).
func DefaultSystemSpec() SystemSpec {
	return SystemSpec{CoreSizesKB: append([]int(nil), cache.CoreSizesKB...)}
}

// namedShapes maps spec aliases to core-size lists. "quad" and "paper" are
// the Figure 1 machine.
var namedShapes = map[string][]int{
	"quad":  cache.CoreSizesKB,
	"paper": cache.CoreSizesKB,
}

// ParseSystemSpec parses the node-shape grammar used by the -cluster and
// node-spec flags: a comma-separated list of terms, each either one core
// size in KB ("8"), an NxS repetition ("16x2" = sixteen 2 KB cores), or a
// named shape ("quad" / "paper" = the Figure 1 {2,4,8,8}). Terms
// concatenate, so "4x8,16x2" is four big cores followed by sixteen little
// ones. Sizes must lie in the Table 1 design space.
func ParseSystemSpec(s string) (SystemSpec, error) {
	var spec SystemSpec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, fmt.Errorf("core: empty system spec")
	}
	for _, term := range strings.Split(s, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			return spec, fmt.Errorf("core: empty term in system spec %q", s)
		}
		if sizes, ok := namedShapes[term]; ok {
			spec.CoreSizesKB = append(spec.CoreSizesKB, sizes...)
			continue
		}
		count, size := 1, term
		if i := strings.IndexByte(term, 'x'); i >= 0 {
			n, err := strconv.Atoi(term[:i])
			if err != nil || n < 1 {
				return spec, fmt.Errorf("core: bad repetition %q in system spec (want NxS, e.g. 16x2)", term)
			}
			count, size = n, term[i+1:]
		}
		kb, err := strconv.Atoi(size)
		if err != nil {
			return spec, fmt.Errorf("core: bad core size %q in system spec (want a size in KB or a named shape)", size)
		}
		if !designSpaceSize(kb) {
			return spec, fmt.Errorf("core: core size %dKB outside the design space %v", kb, cache.Sizes())
		}
		if count > MaxSpecCores {
			return spec, fmt.Errorf("core: repetition %q exceeds %d cores", term, MaxSpecCores)
		}
		for i := 0; i < count; i++ {
			spec.CoreSizesKB = append(spec.CoreSizesKB, kb)
		}
	}
	if err := spec.Validate(); err != nil {
		return SystemSpec{}, err
	}
	return spec, nil
}

// designSizes is the Table 1 size axis, built once: Validate and
// NewSimulator check every core against it.
var designSizes = cache.Sizes()

func designSpaceSize(kb int) bool { return slices.Contains(designSizes, kb) }

// Validate reports whether the spec describes a machine the simulator
// accepts: at least one core, at most MaxSpecCores, every size in the
// design space.
func (s SystemSpec) Validate() error {
	if len(s.CoreSizesKB) == 0 {
		return fmt.Errorf("core: system spec has no cores")
	}
	if len(s.CoreSizesKB) > MaxSpecCores {
		return fmt.Errorf("core: system spec has %d cores, max %d", len(s.CoreSizesKB), MaxSpecCores)
	}
	for _, kb := range s.CoreSizesKB {
		if !designSpaceSize(kb) {
			return fmt.Errorf("core: core size %dKB outside the design space %v", kb, cache.Sizes())
		}
	}
	return nil
}

// Cores reports the node's core count.
func (s SystemSpec) Cores() int { return len(s.CoreSizesKB) }

// String renders the spec in the grammar ParseSystemSpec accepts,
// run-length encoding consecutive equal sizes ("2,4,2x8" for the paper
// machine), so String ∘ ParseSystemSpec round-trips the core list.
func (s SystemSpec) String() string {
	if len(s.CoreSizesKB) == 0 {
		return ""
	}
	var parts []string
	for i := 0; i < len(s.CoreSizesKB); {
		j := i
		for j < len(s.CoreSizesKB) && s.CoreSizesKB[j] == s.CoreSizesKB[i] {
			j++
		}
		if n := j - i; n > 1 {
			parts = append(parts, fmt.Sprintf("%dx%d", n, s.CoreSizesKB[i]))
		} else {
			parts = append(parts, strconv.Itoa(s.CoreSizesKB[i]))
		}
		i = j
	}
	return strings.Join(parts, ",")
}

// MarshalText implements encoding.TextMarshaler, so a spec encodes as its
// grammar string in JSON.
func (s SystemSpec) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// SimConfig lowers the spec to a simulator configuration, filling the
// paper's default latencies for zero fields.
func (s SystemSpec) SimConfig() SimConfig {
	cfg := SimConfig{
		CoreSizesKB:     append([]int(nil), s.CoreSizesKB...),
		ReconfigCycles:  s.ReconfigCycles,
		ProfilingCycles: s.ProfilingCycles,
	}
	if cfg.ReconfigCycles == 0 {
		cfg.ReconfigCycles = 200
	}
	if cfg.ProfilingCycles == 0 {
		cfg.ProfilingCycles = 2000
	}
	return cfg
}
