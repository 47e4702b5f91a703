package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"hetsched"
	"hetsched/internal/characterize"
	"hetsched/internal/core"
	"hetsched/internal/eembc"
	"hetsched/internal/server"
)

// The batch-skew workload: POST /v1/schedule/batch, the only path that
// characterizes at serving time.
const (
	skewRows = 10 // jobs per batch
	skewCold = 2  // rows per batch naming a variant not requested before in the run
	// skewRate is the open-loop rate: about a fifth of what the seed commit
	// completes in the closed loop on 2 cores (measured, then fixed here),
	// so the loop keeps up when a neighbour on the host takes a core. At
	// half the capacity it fell behind then, and op_p50_ms grew tenfold.
	skewRate = 125.0
	// The server's characterization tier: its default LRU size and TTL.
	tierEntries = 256
	tierTTL     = 15 * time.Minute
)

// skewGen generates batch-skew's op sequence. 80% of every batch repeats
// one hot variant; the other rows name variants never requested before in
// the run (fresh data seeds of two fixed kernels). So every op reads the
// tier's hot entry and computes and inserts skewCold new ones, and once
// the LRU is full evicts as many: a fixed read/write ratio per op, with a
// fixed kernel mix so op cost does not drift through the run.
type skewGen struct {
	hot      server.BatchJob
	cold     [skewCold]string
	seedBase int64
}

func newSkewGen(seed int64) skewGen {
	return skewGen{
		hot:  server.BatchJob{Kernel: "a2time"}, // canonical parameters
		cold: [skewCold]string{"aifirf", "tblook"},
		// Data seed 1 is the canonical one; cold seeds start above it.
		seedBase: 2 + int64(splitmix64(uint64(seed))>>24),
	}
}

func (g skewGen) rows(op int) []server.BatchJob {
	rows := make([]server.BatchJob, skewRows)
	stride := skewRows / skewCold
	for r := range rows {
		if r%stride != stride-1 {
			rows[r] = g.hot
			continue
		}
		c := r / stride
		rows[r] = server.BatchJob{Kernel: g.cold[c], DataSeed: g.seedBase + int64(op*skewCold+c)}
	}
	return rows
}

// variants resolves rows the way the server does: the distinct variants in
// first-appearance order, and each row's index into them.
func variants(rows []server.BatchJob) ([]characterize.Variant, []int) {
	var out []characterize.Variant
	appOf := make([]int, len(rows))
	seen := map[characterize.Variant]int{}
	for i, r := range rows {
		p := eembc.DefaultParams()
		if r.DataSeed != 0 {
			p.Seed = r.DataSeed
		}
		v := characterize.Variant{Kernel: r.Kernel, Params: p}
		id, ok := seen[v]
		if !ok {
			id = len(out)
			seen[v] = id
			out = append(out, v)
		}
		appOf[i] = id
	}
	return out, appOf
}

func runBatchSkew(ctx context.Context, b *bench) error {
	gen := newSkewGen(b.opts.seed)
	var (
		mu                      sync.Mutex
		got                     = map[int]server.BatchScheduleResponse{} // traced ops' responses
		lookups, computed, hits int
		measured                int
		tier                    *characterize.Tier // replay's standalone tier
	)
	err := runHTTP(ctx, b, &httpWorkload{
		predictor: "ensemble:table,markov,ann",
		meter:     "predict",
		path:      "/v1/schedule/batch",
		series:    "batch",
		rate:      skewRate,
		body: func(op int) ([]byte, error) {
			return json.Marshal(server.BatchScheduleRequest{System: "proposed", Utilization: 0.9, Jobs: gen.rows(op)})
		},
		check: func(op int, traced bool, data []byte) (int, []byte, error) {
			var r server.BatchScheduleResponse
			if err := json.Unmarshal(data, &r); err != nil {
				return 0, nil, fmt.Errorf("decode response: %w", err)
			}
			if r.Jobs != skewRows || r.Scheduled != skewRows || r.Rejected != 0 || r.Completed != skewRows {
				return 0, nil, fmt.Errorf("batch of %d: scheduled %d, rejected %d, completed %d", r.Jobs, r.Scheduled, r.Rejected, r.Completed)
			}
			for _, row := range r.Results {
				if row.Error != "" || row.Executions < 1 || row.CompletionCycle < row.ArrivalCycle {
					return 0, nil, fmt.Errorf("row %d: error %q, %d executions", row.Index, row.Error, row.Executions)
				}
			}
			c := r.Characterization
			// Cold rows are never requested twice, so each one computes;
			// the hot variant computes once per server, then hits.
			if c.UniqueVariants != 1+skewCold || c.Memory+c.Coalesced+c.Disk+c.Computed != c.UniqueVariants ||
				c.Computed < skewCold || c.Computed > skewCold+1 {
				return 0, nil, fmt.Errorf("characterization %+v, want %d cold computes", c, skewCold)
			}
			mu.Lock()
			if op >= httpWarmup {
				measured++
				lookups += c.UniqueVariants
				computed += c.Computed
				hits += c.Memory + c.Coalesced
			}
			if traced {
				got[op] = r
			}
			mu.Unlock()
			// Which tier level answered depends on timing; the simulated
			// output must not.
			r.Characterization = server.BatchCharacterizationWire{}
			out, err := json.Marshal(r)
			return r.Completed, out, err
		},
		// Replay runs every op's lookups through a standalone tier sized
		// like the server's, in sequence order, so the LRU fills and
		// evicts as it did in the server; only traced ops are timed.
		replay: func(ctx context.Context, sys *hetsched.System, op int, traced bool) error {
			if tier == nil {
				tier = characterize.NewTier(tierEntries, tierTTL, "", sys.Energy, characterize.Options{})
			}
			var tr *tracer
			if traced {
				tr = b.tr
			}
			vs, appOf := variants(gen.rows(op))
			root := tr.begin("server.lib", -1, op)
			defer tr.end(root)
			tsp := tr.begin("characterize.tier", root, op)
			db := &hetsched.DB{Records: make([]characterize.Record, len(vs))}
			for i, v := range vs {
				vdb, _, err := tier.Characterize([]characterize.Variant{v})
				if err != nil {
					tr.end(tsp)
					return err
				}
				rec := vdb.Records[0]
				rec.ID = i
				db.Records[i] = rec
			}
			tr.end(tsp)
			if !traced {
				return nil
			}
			// The server's implicit arrivals: job k of n at horizon·k/n.
			wsp := tr.begin("core.workload", root, op)
			horizon, err := core.HorizonForUtilization(db, appOf, len(appOf), len(core.DefaultSimConfig().CoreSizesKB), 0.9)
			jobs := make([]hetsched.Job, len(appOf))
			for k, app := range appOf {
				jobs[k] = hetsched.Job{Index: k, AppID: app, ArrivalCycle: horizon * uint64(k) / uint64(len(appOf))}
			}
			tr.end(wsp)
			if err != nil {
				return err
			}
			m, err := b.simulate(tr, "core.sim.proposed", root, op, len(jobs), func(span int) (core.Metrics, error) {
				b.meter.attribute(span, op)
				return sys.RunOnDBContext(ctx, db, "proposed", jobs, hetsched.SimConfig{RecordSchedule: true})
			})
			if err != nil {
				return err
			}
			mu.Lock()
			r := got[op]
			mu.Unlock()
			return checkRerun(m, r.Completed, r.MakespanCycles, r.TotalEnergyNJ)
		},
	})
	if measured > 0 {
		b.layer["characterize.tier_lookups"] = float64(lookups) / float64(measured)
		b.layer["characterize.tier_computed"] = float64(computed) / float64(measured)
		b.layer["characterize.tier_hit_ratio"] = float64(hits) / float64(lookups)
		b.note("tier: %d lookups, %d computed, %d memory or coalesced over %d measured ops", lookups, computed, hits, measured)
	}
	return err
}
