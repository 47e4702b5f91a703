package profile

import (
	"sort"

	"hetsched/internal/cache"
)

// Lookup returns the entry for an application, or nil if the application
// has never been seen.
func (t *Table) Lookup(appID int) *Entry {
	return t.entries[appID]
}

// ExploredCount returns how many distinct configurations have been executed.
func (e *Entry) ExploredCount() int { return len(e.explored) }

// ExploredConfigs returns the explored configurations in deterministic
// (design-space string) order.
func (e *Entry) ExploredConfigs() []cache.Config {
	out := make([]cache.Config, 0, len(e.explored))
	for c := range e.explored {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// KnowsBestForAll reports whether the best configuration is known for every
// listed core size — the precondition for the energy-advantageous decision
// to trust its comparison (Section IV.E).
func (e *Entry) KnowsBestForAll(sizes []int) bool {
	for _, s := range sizes {
		if _, ok := e.BestForSize(s); !ok {
			return false
		}
	}
	return true
}

// Len returns the number of applications with entries.
func (t *Table) Len() int { return len(t.entries) }
