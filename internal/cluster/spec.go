package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"hetsched/internal/core"
)

// MaxNodes bounds how many nodes one cluster may declare.
const MaxNodes = 256

// ScorerKind selects the dispatcher's scoring strategy: how the surviving
// filter candidates are ranked for each arriving job. All scorers minimize
// their score and break ties toward the lowest node index, so routing is a
// total order and bit-deterministic.
type ScorerKind int

// Scoring strategies.
const (
	// ScoreHybrid (the default) minimizes the job's estimated execution
	// energy on the node's best surviving size, inflated by the node's
	// estimated queueing wait in units of the job's own runtime — cheap
	// energy affinity that still backs off from congested nodes.
	ScoreHybrid ScorerKind = iota
	// ScoreBalance minimizes the node's estimated queueing wait (classic
	// least-loaded routing; ignores heterogeneity).
	ScoreBalance
	// ScoreEnergy minimizes the estimated execution energy on the node's
	// best surviving size, ignoring load entirely (work stealing is what
	// rescues it from convoying).
	ScoreEnergy
	// ScoreRoundRobin rotates over the surviving candidates by job index —
	// the null hypothesis the smarter scorers are measured against.
	ScoreRoundRobin

	scorerCount // sentinel
)

var scorerNames = [scorerCount]string{"hybrid", "balance", "energy", "roundrobin"}

// String names the scorer as used by flags and the wire API.
func (k ScorerKind) String() string {
	if k >= 0 && int(k) < len(scorerNames) {
		return scorerNames[k]
	}
	return fmt.Sprintf("scorer(%d)", int(k))
}

// ParseScorer is the inverse of ScorerKind.String.
func ParseScorer(s string) (ScorerKind, error) {
	for i, name := range scorerNames {
		if s == name {
			return ScorerKind(i), nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown scorer %q (want %s)", s, strings.Join(scorerNames[:], "|"))
}

// Set implements flag.Value.
func (k *ScorerKind) Set(s string) error {
	parsed, err := ParseScorer(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// MarshalText implements encoding.TextMarshaler.
func (k ScorerKind) MarshalText() ([]byte, error) {
	if k < 0 || k >= scorerCount {
		return nil, fmt.Errorf("cluster: unknown scorer kind %d", int(k))
	}
	return []byte(k.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler (flag.TextVar).
func (k *ScorerKind) UnmarshalText(text []byte) error { return k.Set(string(text)) }

// ParseClusterSpec parses the -cluster flag grammar: node shapes joined by
// ';', each either a core.SystemSpec term list ("4x8,16x2", "quad") or an
// N*shape repetition ("16*quad", "8*4x8"). Examples:
//
//	16*quad            sixteen Figure 1 quad-cores
//	8*4x8;8*16x2       eight big nodes and eight little nodes
//	2,4,8,8;16x2       one explicit quad plus one 16-core little node
func ParseClusterSpec(s string) ([]core.SystemSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("cluster: empty cluster spec")
	}
	var nodes []core.SystemSpec
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("cluster: empty node spec in %q", s)
		}
		count := 1
		if i := strings.IndexByte(part, '*'); i >= 0 {
			n, err := strconv.Atoi(strings.TrimSpace(part[:i]))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("cluster: bad node repetition in %q (want N*shape, e.g. 16*quad)", part)
			}
			count, part = n, strings.TrimSpace(part[i+1:])
		}
		spec, err := core.ParseSystemSpec(part)
		if err != nil {
			return nil, err
		}
		if count > MaxNodes {
			return nil, fmt.Errorf("cluster: repetition %d exceeds %d nodes", count, MaxNodes)
		}
		for i := 0; i < count; i++ {
			nodes = append(nodes, spec)
		}
	}
	if len(nodes) > MaxNodes {
		return nil, fmt.Errorf("cluster: %d nodes, max %d", len(nodes), MaxNodes)
	}
	return nodes, nil
}

// FormatClusterSpec renders node shapes in the grammar ParseClusterSpec
// accepts, run-length encoding consecutive identical shapes.
func FormatClusterSpec(nodes []core.SystemSpec) string {
	var parts []string
	for i := 0; i < len(nodes); {
		j := i
		for j < len(nodes) && nodes[j].String() == nodes[i].String() {
			j++
		}
		if n := j - i; n > 1 {
			parts = append(parts, fmt.Sprintf("%d*%s", n, nodes[i]))
		} else {
			parts = append(parts, nodes[i].String())
		}
		i = j
	}
	return strings.Join(parts, ";")
}
