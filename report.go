package hetsched

import (
	"fmt"
	"sort"
	"strings"

	"hetsched/internal/core"
)

// FormatMetrics renders one system's metrics as a human-readable block.
func FormatMetrics(m Metrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s jobs=%d completed=%d\n", m.System, m.Jobs, m.Completed)
	fmt.Fprintf(&b, "  makespan        %15d cycles\n", m.Makespan)
	fmt.Fprintf(&b, "  turnaround      %15d cycles (p50 %d, p99 %d)\n",
		m.TurnaroundCycles, m.TurnaroundPercentile(50), m.TurnaroundPercentile(99))
	fmt.Fprintf(&b, "  idle energy     %15.0f nJ\n", m.IdleEnergy)
	fmt.Fprintf(&b, "  dynamic energy  %15.0f nJ\n", m.DynamicEnergy)
	fmt.Fprintf(&b, "  static energy   %15.0f nJ\n", m.StaticEnergy)
	fmt.Fprintf(&b, "  core energy     %15.0f nJ\n", m.CoreEnergy)
	fmt.Fprintf(&b, "  profiling       %15.0f nJ (%.3f%% of total)\n",
		m.ProfilingEnergy, 100*core.ProfilingOverheadFraction(m))
	fmt.Fprintf(&b, "  total energy    %15.0f nJ\n", m.TotalEnergy())
	fmt.Fprintf(&b, "  profiling runs %d, tuning runs %d, non-best placements %d, stalls %d (+%d resource), max queue %d\n",
		m.ProfilingRuns, m.TuningRuns, m.NonBestPlacements, m.StallDecisions, m.ResourceStalls, m.MaxQueueDepth)
	if m.FaultInjected {
		fmt.Fprintf(&b, "  faults: %d events, %d jobs re-dispatched, %d recoveries (MTTR %d cycles), downtime %d cycles\n",
			m.FaultEvents, m.JobsRedispatched, m.Recoveries, m.MTTRCycles, m.CoreDowntimeCycles)
		fmt.Fprintf(&b, "  fault energy    %15.0f nJ lost to killed executions; %d stuck reconfigs, %d fallback placements\n",
			m.FaultEnergyNJ, m.StuckReconfigs, m.FallbackPlacements)
	}
	if m.DeadlinesTotal > 0 {
		fmt.Fprintf(&b, "  deadlines: %d/%d missed (%.2f%%), %d slo-forced migrations (+%.0f nJ)\n",
			m.DeadlineMisses, m.DeadlinesTotal, 100*m.MissRate(), m.SLOMigrations, m.SLOEnergyPenaltyNJ)
		if len(m.ClassDeadlines) > 0 {
			var names []string
			for name := range m.ClassDeadlines {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				n, miss := m.ClassDeadlines[name], m.ClassDeadlineMisses[name]
				rate := 0.0
				if n > 0 {
					rate = 100 * float64(miss) / float64(n)
				}
				fmt.Fprintf(&b, "    class %-10s %d/%d missed (%.2f%%)\n", name, miss, n, rate)
			}
		}
	}
	return b.String()
}

// bar renders a terminal bar scaled so 1.0 spans barUnit characters,
// clamped to keep pathological ratios printable.
func bar(v float64) string {
	const barUnit = 24
	n := int(v*barUnit + 0.5)
	if n < 0 {
		n = 0
	}
	if n > 3*barUnit {
		n = 3 * barUnit
	}
	return strings.Repeat("#", n)
}

// FormatFigure6 renders the Figure 6 rows: idle/dynamic/total energy
// normalized to the base system, with terminal bars for the total column
// (1.0 = the base system = 24 columns).
func FormatFigure6(res *ExperimentResult) string {
	var b strings.Builder
	b.WriteString("Figure 6 — energy normalized to the base system\n")
	fmt.Fprintf(&b, "  %-16s %8s %8s %8s  %s\n", "system", "idle", "dynamic", "total", "total (1.0 = base)")
	for _, r := range res.Figure6() {
		fmt.Fprintf(&b, "  %-16s %8.3f %8.3f %8.3f  %s\n", r.System, r.Idle, r.Dynamic, r.Total, bar(r.Total))
	}
	return b.String()
}

// FormatFigure7 renders the Figure 7 rows: cycles and energies normalized
// to the optimal system.
func FormatFigure7(res *ExperimentResult) string {
	var b strings.Builder
	b.WriteString("Figure 7 — cycles and energy normalized to the optimal system\n")
	fmt.Fprintf(&b, "  %-16s %8s %8s %8s %8s\n", "system", "cycles", "idle", "dynamic", "total")
	for _, r := range res.Figure7() {
		fmt.Fprintf(&b, "  %-16s %8.3f %8.3f %8.3f %8.3f\n", r.System, r.Cycles, r.Idle, r.Dynamic, r.Total)
	}
	return b.String()
}

// FormatFigures renders the complete experiment report: per-system metrics
// followed by both figures and the headline numbers.
func FormatFigures(res *ExperimentResult) string {
	var b strings.Builder
	for _, m := range res.Systems() {
		b.WriteString(FormatMetrics(m))
	}
	b.WriteString("\n")
	b.WriteString(FormatFigure6(res))
	b.WriteString("\n")
	b.WriteString(FormatFigure7(res))
	saving := 1 - res.Proposed.TotalEnergy()/res.Base.TotalEnergy()
	fmt.Fprintf(&b, "\nproposed system total-energy reduction vs base: %.1f%% (paper: 28%%)\n", 100*saving)
	return b.String()
}

// FormatPerApp renders a per-benchmark execution-energy table for one run:
// kernel, completed runs, attributed energy, and energy per run. Rows are
// ordered by total attributed energy.
func FormatPerApp(s *System, m Metrics) string {
	type row struct {
		name   string
		runs   int
		energy float64
	}
	var rows []row
	for app, e := range m.PerAppEnergy {
		name := fmt.Sprintf("app-%d", app)
		if rec, err := s.Eval.Record(app); err == nil {
			name = rec.Kernel
		}
		rows = append(rows, row{name: name, runs: m.PerAppRuns[app], energy: e})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].energy != rows[j].energy {
			return rows[i].energy > rows[j].energy
		}
		return rows[i].name < rows[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "per-benchmark energy (%s)\n", m.System)
	fmt.Fprintf(&b, "  %-10s %8s %14s %14s\n", "kernel", "runs", "energy nJ", "nJ/run")
	for _, r := range rows {
		per := 0.0
		if r.runs > 0 {
			per = r.energy / float64(r.runs)
		}
		fmt.Fprintf(&b, "  %-10s %8d %14.0f %14.0f\n", r.name, r.runs, r.energy, per)
	}
	return b.String()
}

// FormatSchedule renders the first maxEvents entries of a recorded
// execution timeline (SimConfig.RecordSchedule), one line per execution.
// Fault events from the run's timeline are interleaved chronologically, and
// executions cut short by a crash carry a [failed] tag.
func FormatSchedule(s *System, m Metrics, maxEvents int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule timeline (%s): %d executions", m.System, len(m.Schedule))
	if m.FaultInjected {
		fmt.Fprintf(&b, ", %d fault events", len(m.FaultTimeline))
	}
	b.WriteString("\n")
	if maxEvents <= 0 || maxEvents > len(m.Schedule) {
		maxEvents = len(m.Schedule)
	}
	faults := m.FaultTimeline
	emitFaultsThrough := func(cycle uint64) {
		for len(faults) > 0 && faults[0].Cycle <= cycle {
			fmt.Fprintf(&b, "  core%d %12d !! %s\n", faults[0].Core, faults[0].Cycle, faults[0].Kind)
			faults = faults[1:]
		}
	}
	for _, e := range m.Schedule[:maxEvents] {
		emitFaultsThrough(e.Start)
		name := fmt.Sprintf("app-%d", e.AppID)
		if rec, err := s.Eval.Record(e.AppID); err == nil {
			name = rec.Kernel
		}
		tag := ""
		if e.Profiling {
			tag = " [profiling]"
		}
		if e.SLOForced {
			tag = " [slo-migrated]"
		}
		if e.Preempted {
			tag = " [preempted]"
		}
		if e.Failed {
			tag = " [failed]"
		}
		fmt.Fprintf(&b, "  core%d %12d..%-12d %-8s %s%s\n",
			e.CoreID, e.Start, e.End, name, e.Config, tag)
	}
	if maxEvents == len(m.Schedule) {
		emitFaultsThrough(m.Makespan)
	}
	if maxEvents < len(m.Schedule) {
		fmt.Fprintf(&b, "  ... %d more\n", len(m.Schedule)-maxEvents)
	}
	return b.String()
}

// FormatCluster renders a cluster run: the per-node routing and simulation
// table (shape, routed jobs, steal flows, completion, makespan, energy)
// followed by the cluster-wide totals.
func FormatCluster(res *ClusterResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster (%s, scorer=%s): %d nodes, %d cores, %d jobs\n",
		res.System, res.Scorer, len(res.Nodes), res.Cores(), res.Jobs)
	fmt.Fprintf(&b, "  %-5s %-14s %6s %7s %7s %7s %15s %16s\n",
		"node", "shape", "jobs", "in", "out", "maxq", "makespan", "energy nJ")
	for _, nr := range res.Nodes {
		fmt.Fprintf(&b, "  %-5d %-14s %6d %7d %7d %7d %15d %16.0f\n",
			nr.Node, nr.Spec.String(), nr.JobsRouted, nr.StolenIn, nr.StolenOut,
			nr.MaxPending, nr.Metrics.Makespan, nr.Metrics.TotalEnergy())
	}
	fmt.Fprintf(&b, "  completed %d/%d, steals %d, makespan %d cycles\n",
		res.Completed, res.Jobs, res.Steals, res.Makespan)
	fmt.Fprintf(&b, "  turnaround %d cycles (p50 %d, p99 %d)\n",
		res.TurnaroundCycles, res.TurnaroundPercentile(50), res.TurnaroundPercentile(99))
	fmt.Fprintf(&b, "  total energy %.0f nJ (idle %.0f, dynamic %.0f, static %.0f, core %.0f, profiling %.0f)\n",
		res.TotalEnergyNJ(), res.IdleEnergyNJ, res.DynamicEnergyNJ,
		res.StaticEnergyNJ, res.CoreEnergyNJ, res.ProfilingEnergyNJ)
	return b.String()
}

// FormatClusterSchedule renders the first maxEvents entries of the merged
// cluster execution timeline (ClusterConfig.Sim.RecordSchedule): every node's
// recorded placements interleaved chronologically with node-qualified core
// names ("n3/core1").
func FormatClusterSchedule(s *System, res *ClusterResult, maxEvents int) string {
	type row struct {
		node int
		e    core.PlacementEvent
	}
	var rows []row
	total := 0
	for _, nr := range res.Nodes {
		total += len(nr.Metrics.Schedule)
		for _, e := range nr.Metrics.Schedule {
			rows = append(rows, row{node: nr.Node, e: e})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].e.Start != rows[j].e.Start {
			return rows[i].e.Start < rows[j].e.Start
		}
		if rows[i].node != rows[j].node {
			return rows[i].node < rows[j].node
		}
		return rows[i].e.CoreID < rows[j].e.CoreID
	})
	var b strings.Builder
	fmt.Fprintf(&b, "cluster schedule timeline (%s): %d executions across %d nodes\n",
		res.System, total, len(res.Nodes))
	if maxEvents <= 0 || maxEvents > len(rows) {
		maxEvents = len(rows)
	}
	for _, r := range rows[:maxEvents] {
		name := fmt.Sprintf("app-%d", r.e.AppID)
		if rec, err := s.Eval.Record(r.e.AppID); err == nil {
			name = rec.Kernel
		}
		tag := ""
		if r.e.Profiling {
			tag = " [profiling]"
		}
		if r.e.SLOForced {
			tag = " [slo-migrated]"
		}
		if r.e.Preempted {
			tag = " [preempted]"
		}
		if r.e.Failed {
			tag = " [failed]"
		}
		fmt.Fprintf(&b, "  n%d/core%d %12d..%-12d %-8s %s%s\n",
			r.node, r.e.CoreID, r.e.Start, r.e.End, name, r.e.Config, tag)
	}
	if maxEvents < len(rows) {
		fmt.Fprintf(&b, "  ... %d more\n", len(rows)-maxEvents)
	}
	return b.String()
}

// FormatDesignSpace renders Table 1.
func FormatDesignSpace() string {
	var b strings.Builder
	b.WriteString("Table 1 — cache configuration design space\n")
	for i, c := range DesignSpace() {
		fmt.Fprintf(&b, "  %-12s", c)
		if (i+1)%3 == 0 {
			b.WriteString("\n")
		}
	}
	return b.String()
}
