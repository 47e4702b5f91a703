package cluster

// Test-only API: the uncancellable run the tests drive.

import (
	"context"

	"hetsched/internal/core"
)

// Run schedules jobs across the cluster: the dispatcher routes (and
// steals), then every node simulates its share. Jobs must be sorted by
// arrival cycle (GenerateWorkload's order).
func (c *Cluster) Run(jobs []core.Job) (*Result, error) {
	return c.RunContext(context.Background(), jobs)
}
