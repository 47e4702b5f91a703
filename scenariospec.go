package hetsched

// Facade over internal/scenario: the scenario engine's spec grammar,
// workload generation, and load-shape helper, re-exported alongside the
// other -flag types (see PredictorSpec for the idiom).

import "hetsched/internal/scenario"

// ScenarioSpec is a parsed workload scenario: an arrival process
// (uniform | poisson | bursty | diurnal | closed | replay) with its
// parameters, an optional weighted kernel mix, an optional uniform random
// priority draw, and an optional SLO layer of deadline slack and job
// classes.
// It implements flag.Value and encoding.TextMarshaler/TextUnmarshaler, so
// it drops into flag sets and JSON configs; the zero value means "no
// scenario". Grammar:
//
//	poisson:rate=0.8,jobs=5000;slo=deadline:slack=2.0,classes=hi@0.2
//	uniform;mix=a2time*3+matrix;prio=uniform:3;slo=deadline:slack=2
type ScenarioSpec = scenario.Spec

// ParseScenarioSpec parses the scenario grammar; "" parses to the zero
// "no scenario" spec.
func ParseScenarioSpec(s string) (ScenarioSpec, error) { return scenario.Parse(s) }

// MustParseScenarioSpec is ParseScenarioSpec for known-good literals.
func MustParseScenarioSpec(s string) ScenarioSpec { return scenario.MustParse(s) }

// ScenarioArrivalFractions renders a scenario's arrival shape as n
// normalized [0, 1] fractions of the run duration — the pacing schedule
// load generators use to shape request streams by the scenario's process.
func ScenarioArrivalFractions(sp ScenarioSpec, n int, seed int64) ([]float64, error) {
	return scenario.ArrivalFractions(sp, n, seed)
}

// ScenarioWorkload materializes a scenario into a reproducible job stream
// over the system's characterization DB: arrivals from the spec's source,
// apps from its mix= (the whole suite without one), SLO
// classes/priorities/deadlines and the prio= draw applied on top. The
// spec's rate= and jobs= override utilization and arrivals. Pair with
// ScenarioSpec.ApplySim, which arms SimConfig.SLOAware (and priority
// scheduling when the spec sets priorities: classes or prio=).
func (s *System) ScenarioWorkload(sp ScenarioSpec, arrivals int, utilization float64, seed int64) ([]Job, error) {
	return s.generate(sp, nil, arrivals, utilization, seed)
}

// generate is the facade's one workload generator: sp over the system's
// evaluation DB, with the horizon sized for the nodes' total cores (none
// is one Figure 1 node).
func (s *System) generate(sp ScenarioSpec, nodes []SystemSpec, arrivals int, utilization float64, seed int64) ([]Job, error) {
	cores := 0
	for _, spec := range nodes {
		cores += spec.Cores()
	}
	return sp.Generate(scenario.Params{
		DB:          s.Eval,
		Arrivals:    arrivals,
		Cores:       cores,
		Utilization: utilization,
		Seed:        seed,
	})
}
