// Package scenario is the workload-scenario engine: pluggable deterministic
// arrival processes (uniform, poisson, bursty MMPP, diurnal, closed-loop),
// an SLO layer assigning job classes with priorities and per-class deadline
// slack, a uniform random priority draw, and a replay source that
// reconstructs a workload from a recorded decision-audit trace — all behind
// one compact spec grammar:
//
//	poisson:rate=0.8,jobs=5000;slo=deadline:slack=2.0,classes=hi@0.2
//	uniform;prio=uniform:3;slo=deadline:slack=2
//
// The spec is the only thing that stamps priorities and deadlines on a job
// stream: prio=uniform:N gives every job a uniform random priority in
// [0, N), and classes= gives each class its own; the two are exclusive.
//
// Determinism contract: every generator draws from its own SplitMix64
// stream seeded by the caller, so a fixed (spec, seed) produces the
// identical workload at any worker count — the same invariance the sweep
// grid and the trace recorder guarantee. The uniform source delegates to
// core.GenerateWorkload, the paper's stream, and reproduces it
// bit-identically; every other synthetic stream in the repository comes
// from this package.
package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Source names, in presentation order.
var sourceNames = []string{"uniform", "poisson", "bursty", "diurnal", "closed", "replay"}

// Defaults applied at generation time for parameters the spec leaves unset.
const (
	DefaultBurst   = 4.0  // bursty: burst-state rate multiplier
	DefaultQuiet   = 0.25 // bursty: quiet-state rate multiplier
	DefaultPhases  = 16   // bursty: expected state changes over the horizon
	DefaultAmp     = 0.8  // diurnal: modulation amplitude
	DefaultPeriods = 4    // diurnal: sinusoid periods over the horizon
	DefaultClients = 8    // closed: client population
	DefaultThink   = 1.0  // closed: think time as a multiple of service time
	DefaultSlack   = 2.0  // slo: deadline slack when unset
)

// Class is one SLO job class: a named fraction of the workload with its
// own deadline slack. Classes are listed highest-priority first; class i
// of k gets simulated priority k-i, and unclassified jobs (the remainder,
// class "default") run at priority 0.
type Class struct {
	Name string
	// Frac is the fraction of jobs drawn into this class, in (0, 1].
	Frac float64
	// Slack is the class's deadline slack; 0 inherits the SLO default.
	Slack float64
}

// SLO is the spec's service-level layer: every job gets a deadline of
// arrival + slack × best-config execution time, and the SLO-aware
// stall-vs-migrate rule (core.SimConfig.SLOAware) is armed.
type SLO struct {
	Enabled bool
	// Slack is the default deadline slack; 0 means DefaultSlack.
	Slack float64
	// Classes partitions a fraction of the workload into named classes.
	Classes []Class
}

// Spec is one parsed scenario: an arrival source with its parameters plus
// the optional prio draw and SLO layer. The zero value is "no scenario"
// (IsZero); unset numeric fields are zero and default at generation time.
type Spec struct {
	// Source names the arrival process or workload source.
	Source string
	// Rate overrides the caller's offered-load utilization when > 0.
	Rate float64
	// Jobs overrides the caller's arrival count when > 0 (for replay, it
	// truncates the replayed stream).
	Jobs int

	// Bursty (two-state MMPP) parameters.
	Burst  float64 // burst-state rate multiplier (> quiet for a real burst)
	Quiet  float64 // quiet-state rate multiplier
	Phases int     // expected number of state sojourns over the horizon

	// Diurnal (sinusoidal-rate) parameters.
	Amp     float64 // modulation amplitude in [0, 1)
	Periods int     // sinusoid periods over the horizon

	// Closed-loop parameters.
	Clients int     // client population
	Think   float64 // think time as a multiple of the job's service time

	// Path is the replay source's trace CSV file.
	Path string

	// PrioLevels > 0 gives each job a uniform random priority in
	// [0, PrioLevels) (the prio=uniform:N section) and arms priority
	// scheduling; 1 arms it with every job at priority 0.
	PrioLevels int

	SLO SLO
}

// IsZero reports the empty "no scenario" spec.
func (sp Spec) IsZero() bool { return sp.Source == "" }

func knownSource(name string) bool {
	for _, s := range sourceNames {
		if s == name {
			return true
		}
	}
	return false
}

// classNameOK restricts class names to a delimiter-free charset so the
// grammar round-trips.
func classNameOK(name string) bool {
	if name == "" || name == "default" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// finite rejects NaN and ±Inf, which pass one-sided range checks (NaN
// compares false against everything) but do not survive the String
// round trip and make no sense as rates or slacks.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Validate reports grammar-level errors: unknown sources, out-of-range
// parameters, parameters that do not apply to the source, and malformed
// class mixes. The zero spec is valid (it means "no scenario").
func (sp Spec) Validate() error {
	if sp.IsZero() {
		return nil
	}
	if !knownSource(sp.Source) {
		return fmt.Errorf("scenario: unknown source %q (want %s)", sp.Source, strings.Join(sourceNames, "|"))
	}
	for _, f := range []float64{sp.Rate, sp.Burst, sp.Quiet, sp.Amp, sp.Think, sp.SLO.Slack} {
		if !finite(f) {
			return fmt.Errorf("scenario: non-finite parameter %v", f)
		}
	}
	if sp.Rate < 0 || sp.Rate > 4 {
		return fmt.Errorf("scenario: rate %v out of (0, 4]", sp.Rate)
	}
	if sp.Jobs < 0 {
		return fmt.Errorf("scenario: jobs %d negative", sp.Jobs)
	}
	if sp.Source == "replay" {
		if sp.Path == "" {
			return fmt.Errorf("scenario: replay needs file=<trace.csv>")
		}
		if sp.Rate != 0 {
			return fmt.Errorf("scenario: replay has no rate (arrivals come from the trace)")
		}
	} else if sp.Path != "" {
		return fmt.Errorf("scenario: file= applies only to replay")
	}
	if strings.ContainsAny(sp.Path, ",;") {
		return fmt.Errorf("scenario: replay path %q must not contain ',' or ';'", sp.Path)
	}
	if sp.Source != "bursty" && (sp.Burst != 0 || sp.Quiet != 0 || sp.Phases != 0) {
		return fmt.Errorf("scenario: burst/quiet/phases apply only to bursty")
	}
	if sp.Source != "diurnal" && (sp.Amp != 0 || sp.Periods != 0) {
		return fmt.Errorf("scenario: amp/periods apply only to diurnal")
	}
	if sp.Source != "closed" && (sp.Clients != 0 || sp.Think != 0) {
		return fmt.Errorf("scenario: clients/think apply only to closed")
	}
	if sp.Burst < 0 || sp.Quiet < 0 || (sp.Source == "bursty" && sp.Burst != 0 && sp.Quiet != 0 && sp.Burst <= sp.Quiet) {
		return fmt.Errorf("scenario: bursty needs burst > quiet > 0")
	}
	if sp.Phases < 0 || sp.Phases > 1<<20 {
		return fmt.Errorf("scenario: phases %d out of range", sp.Phases)
	}
	if sp.Amp < 0 || sp.Amp >= 1 {
		return fmt.Errorf("scenario: amp %v out of [0, 1)", sp.Amp)
	}
	if sp.Periods < 0 || sp.Periods > 1<<20 {
		return fmt.Errorf("scenario: periods %d out of range", sp.Periods)
	}
	if sp.Clients < 0 || sp.Clients > 1<<20 {
		return fmt.Errorf("scenario: clients %d out of range", sp.Clients)
	}
	if sp.Think < 0 || sp.Think > 1e6 {
		return fmt.Errorf("scenario: think %v out of range", sp.Think)
	}
	if sp.PrioLevels < 0 {
		return fmt.Errorf("scenario: prio levels %d negative", sp.PrioLevels)
	}
	if sp.PrioLevels > 0 && len(sp.SLO.Classes) > 0 {
		return fmt.Errorf("scenario: prio= and classes= both set priorities; use one")
	}
	if !sp.SLO.Enabled {
		if sp.SLO.Slack != 0 || len(sp.SLO.Classes) != 0 {
			return fmt.Errorf("scenario: SLO parameters without slo=deadline")
		}
		return nil
	}
	if sp.SLO.Slack < 0 || sp.SLO.Slack > 1e6 {
		return fmt.Errorf("scenario: slo slack %v out of range", sp.SLO.Slack)
	}
	total := 0.0
	seen := map[string]bool{}
	for _, c := range sp.SLO.Classes {
		if !classNameOK(c.Name) {
			return fmt.Errorf("scenario: bad class name %q (letters, digits, _ and -; %q is reserved)", c.Name, "default")
		}
		if seen[c.Name] {
			return fmt.Errorf("scenario: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		if !(c.Frac > 0) || c.Frac > 1 {
			return fmt.Errorf("scenario: class %q fraction %v out of (0, 1]", c.Name, c.Frac)
		}
		if !finite(c.Slack) || c.Slack < 0 || c.Slack > 1e6 {
			return fmt.Errorf("scenario: class %q slack %v out of range", c.Name, c.Slack)
		}
		total += c.Frac
	}
	if total > 1+1e-9 {
		return fmt.Errorf("scenario: class fractions sum to %v > 1", total)
	}
	return nil
}

// Parse parses the scenario grammar:
//
//	<source>[:k=v,...][;prio=uniform:<N>][;slo=deadline[:slack=<f>[,classes=<name@frac[@slack]>+...]]]
//
// The empty string parses to the zero "no scenario" spec. See the package
// doc for the full vocabulary.
func Parse(s string) (Spec, error) {
	if s == "" {
		return Spec{}, nil
	}
	var sp Spec
	sections := strings.Split(s, ";")
	if err := parseSource(sections[0], &sp); err != nil {
		return Spec{}, err
	}
	for _, sec := range sections[1:] {
		key, val, _ := strings.Cut(sec, "=")
		var err error
		switch {
		case key == "slo" && sp.SLO.Enabled, key == "prio" && sp.PrioLevels > 0:
			err = fmt.Errorf("scenario: duplicate %s section", key)
		case key == "slo":
			err = parseSLO(val, &sp.SLO)
		case key == "prio":
			sp.PrioLevels, err = parsePrio(val)
		default:
			err = fmt.Errorf("scenario: unknown section %q (want slo=... or prio=...)", sec)
		}
		if err != nil {
			return Spec{}, err
		}
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// MustParse is Parse for known-good literals; it panics on a parse error.
func MustParse(s string) Spec {
	sp, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return sp
}

func parseSource(s string, sp *Spec) error {
	name, params, hasParams := strings.Cut(s, ":")
	if !knownSource(name) {
		return fmt.Errorf("scenario: unknown source %q (want %s)", name, strings.Join(sourceNames, "|"))
	}
	sp.Source = name
	if !hasParams {
		return nil
	}
	if params == "" {
		return fmt.Errorf("scenario: %s: empty parameter list", name)
	}
	set := map[string]bool{}
	for _, part := range strings.Split(params, ",") {
		key, val, ok := strings.Cut(part, "=")
		if !ok || val == "" {
			return fmt.Errorf("scenario: %s: bad parameter %q (want key=value)", name, part)
		}
		if set[key] {
			return fmt.Errorf("scenario: %s: duplicate parameter %q", name, key)
		}
		set[key] = true
		if err := setSourceParam(sp, key, val); err != nil {
			return err
		}
	}
	return nil
}

func setSourceParam(sp *Spec, key, val string) error {
	badFloat := func(err error) error {
		return fmt.Errorf("scenario: %s: bad %s %q", sp.Source, key, val)
	}
	switch key {
	case "rate":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || !(f > 0) {
			return badFloat(err)
		}
		sp.Rate = f
	case "jobs":
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return badFloat(err)
		}
		sp.Jobs = n
	case "burst", "quiet", "think", "amp":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			return badFloat(err)
		}
		switch key {
		case "burst":
			sp.Burst = f
		case "quiet":
			sp.Quiet = f
		case "think":
			sp.Think = f
		case "amp":
			sp.Amp = f
		}
	case "phases", "periods", "clients":
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return badFloat(err)
		}
		switch key {
		case "phases":
			sp.Phases = n
		case "periods":
			sp.Periods = n
		case "clients":
			sp.Clients = n
		}
	case "file":
		sp.Path = val
	default:
		return fmt.Errorf("scenario: %s: unknown parameter %q", sp.Source, key)
	}
	return nil
}

func parseSLO(s string, slo *SLO) error {
	kind, params, hasParams := strings.Cut(s, ":")
	if kind != "deadline" {
		return fmt.Errorf("scenario: unknown slo kind %q (want deadline)", kind)
	}
	slo.Enabled = true
	if !hasParams {
		return nil
	}
	if params == "" {
		return fmt.Errorf("scenario: slo: empty parameter list")
	}
	set := map[string]bool{}
	for _, part := range strings.Split(params, ",") {
		key, val, ok := strings.Cut(part, "=")
		if !ok || val == "" {
			return fmt.Errorf("scenario: slo: bad parameter %q (want key=value)", part)
		}
		if set[key] {
			return fmt.Errorf("scenario: slo: duplicate parameter %q", key)
		}
		set[key] = true
		switch key {
		case "slack":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f > 0) {
				return fmt.Errorf("scenario: slo: bad slack %q", val)
			}
			slo.Slack = f
		case "classes":
			for _, cs := range strings.Split(val, "+") {
				c, err := parseClass(cs)
				if err != nil {
					return err
				}
				slo.Classes = append(slo.Classes, c)
			}
		default:
			return fmt.Errorf("scenario: slo: unknown parameter %q", key)
		}
	}
	return nil
}

// parsePrio parses the prio section's value, uniform:<N> with N >= 1.
func parsePrio(s string) (int, error) {
	kind, levels, _ := strings.Cut(s, ":")
	if kind != "uniform" {
		return 0, fmt.Errorf("scenario: unknown prio kind %q (want uniform:<levels>)", kind)
	}
	n, err := strconv.Atoi(levels)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("scenario: prio: bad levels %q (want an integer >= 1)", levels)
	}
	return n, nil
}

func parseClass(s string) (Class, error) {
	fields := strings.Split(s, "@")
	if len(fields) < 2 || len(fields) > 3 {
		return Class{}, fmt.Errorf("scenario: bad class %q (want name@frac or name@frac@slack)", s)
	}
	c := Class{Name: fields[0]}
	f, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return Class{}, fmt.Errorf("scenario: class %q: bad fraction %q", c.Name, fields[1])
	}
	c.Frac = f
	if len(fields) == 3 {
		sl, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || !(sl > 0) {
			return Class{}, fmt.Errorf("scenario: class %q: bad slack %q", c.Name, fields[2])
		}
		c.Slack = sl
	}
	return c, nil
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// String renders the canonical minimal form: parameters the spec leaves
// unset are omitted, so Parse(sp.String()) reproduces sp exactly — the
// round-trip identity the fuzz target pins.
func (sp Spec) String() string {
	if sp.IsZero() {
		return ""
	}
	var b strings.Builder
	b.WriteString(sp.Source)
	var params []string
	add := func(key, val string) { params = append(params, key+"="+val) }
	if sp.Rate != 0 {
		add("rate", fmtFloat(sp.Rate))
	}
	if sp.Jobs != 0 {
		add("jobs", strconv.Itoa(sp.Jobs))
	}
	if sp.Burst != 0 {
		add("burst", fmtFloat(sp.Burst))
	}
	if sp.Quiet != 0 {
		add("quiet", fmtFloat(sp.Quiet))
	}
	if sp.Phases != 0 {
		add("phases", strconv.Itoa(sp.Phases))
	}
	if sp.Amp != 0 {
		add("amp", fmtFloat(sp.Amp))
	}
	if sp.Periods != 0 {
		add("periods", strconv.Itoa(sp.Periods))
	}
	if sp.Clients != 0 {
		add("clients", strconv.Itoa(sp.Clients))
	}
	if sp.Think != 0 {
		add("think", fmtFloat(sp.Think))
	}
	if sp.Path != "" {
		add("file", sp.Path)
	}
	if len(params) > 0 {
		b.WriteByte(':')
		b.WriteString(strings.Join(params, ","))
	}
	if sp.PrioLevels > 0 {
		b.WriteString(";prio=uniform:" + strconv.Itoa(sp.PrioLevels))
	}
	if sp.SLO.Enabled {
		b.WriteString(";slo=deadline")
		var sloParams []string
		if sp.SLO.Slack != 0 {
			sloParams = append(sloParams, "slack="+fmtFloat(sp.SLO.Slack))
		}
		if len(sp.SLO.Classes) > 0 {
			var cs []string
			for _, c := range sp.SLO.Classes {
				s := c.Name + "@" + fmtFloat(c.Frac)
				if c.Slack != 0 {
					s += "@" + fmtFloat(c.Slack)
				}
				cs = append(cs, s)
			}
			sloParams = append(sloParams, "classes="+strings.Join(cs, "+"))
		}
		if len(sloParams) > 0 {
			b.WriteByte(':')
			b.WriteString(strings.Join(sloParams, ","))
		}
	}
	return b.String()
}

// Set implements flag.Value.
func (sp *Spec) Set(s string) error {
	parsed, err := Parse(s)
	if err != nil {
		return err
	}
	*sp = parsed
	return nil
}

// MarshalText implements encoding.TextMarshaler; an invalid spec is an
// error rather than a silently serialized junk string. The zero spec
// marshals to the empty string, so flag.TextVar defaults work.
func (sp Spec) MarshalText() ([]byte, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return []byte(sp.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler (flag.TextVar, JSON,
// config files).
func (sp *Spec) UnmarshalText(text []byte) error {
	return sp.Set(string(text))
}
