package hetsched

// PredictorSpec is the predictor-selection vocabulary: a composable spec
// naming one predictor or a weighted ensemble of them, with a full
// flag.Value / encoding.Text* round-trip contract. A single kind name
// ("ann", "oracle", ...) selects that predictor; the ensemble grammar adds
//
//	ensemble:table,markov,ann        (uniform starting weights)
//	ensemble:table=2,markov,ann=0.5  (explicit relative weights)
//
// over the member vocabulary ann|oracle|linear|knn|stump|tree (the fixed
// trained kinds) plus table|markov|nn (the online low-cost learners; see
// internal/predict).

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"hetsched/internal/core"
	"hetsched/internal/eembc"
	"hetsched/internal/mlbase"
	"hetsched/internal/predict"
)

// Extended predictor API re-exports (see internal/core/predictorapi.go).
type (
	// Vote is one ensemble member's ballot: name, size, weight, confidence.
	Vote = core.Vote
	// PredictorStats is a predictor's scorecard: prequential hit/regret
	// accounting with per-member detail (Metrics.Predictor).
	PredictorStats = core.PredictorStats
	// MemberStats is one ensemble member's scorecard within PredictorStats.
	MemberStats = core.MemberStats
)

// ensemblePrefix introduces the composite grammar.
const ensemblePrefix = "ensemble:"

// predictorKinds is the member vocabulary in presentation order.
var predictorKinds = []string{"ann", "oracle", "linear", "knn", "stump", "tree", "table", "markov", "nn"}

// onlineKinds are the members that learn from outcome feedback.
var onlineKinds = map[string]bool{"table": true, "markov": true, "nn": true}

func knownKind(kind string) bool {
	for _, k := range predictorKinds {
		if k == kind {
			return true
		}
	}
	return false
}

// MemberSpec is one member of a PredictorSpec: a kind name and its
// relative starting weight (1 when unspecified).
type MemberSpec struct {
	Kind   string
	Weight float64
}

// PredictorSpec selects the predictor a System schedules with: a single
// kind or a weighted ensemble. The zero value is empty (IsZero) and makes
// New build DefaultPredictorSpec.
type PredictorSpec struct {
	Members []MemberSpec
}

// DefaultPredictorSpec returns the paper's predictor, the bagged ANN.
func DefaultPredictorSpec() PredictorSpec {
	return PredictorSpec{Members: []MemberSpec{{Kind: "ann", Weight: 1}}}
}

// IsZero reports the empty spec.
func (p PredictorSpec) IsZero() bool { return len(p.Members) == 0 }

// IsSingle reports whether the spec is exactly one member of the given
// kind (any weight — a single member's weight is immaterial).
func (p PredictorSpec) IsSingle(kind string) bool {
	return len(p.Members) == 1 && p.Members[0].Kind == kind
}

// Online reports whether any member learns from outcome feedback. Single
// fixed kinds ("ann", "oracle", ...) build the exact legacy predictor and
// are not online.
func (p PredictorSpec) Online() bool {
	if len(p.Members) == 1 {
		return onlineKinds[p.Members[0].Kind]
	}
	return len(p.Members) > 1 // every multi-member ensemble learns weights
}

// Validate checks the member vocabulary, weight positivity and name
// uniqueness.
func (p PredictorSpec) Validate() error {
	if len(p.Members) == 0 {
		return fmt.Errorf("hetsched: empty predictor spec")
	}
	seen := map[string]bool{}
	for _, m := range p.Members {
		if !knownKind(m.Kind) {
			return fmt.Errorf("hetsched: unknown predictor %q (want %s)", m.Kind, strings.Join(predictorKinds, "|"))
		}
		if seen[m.Kind] {
			return fmt.Errorf("hetsched: duplicate ensemble member %q", m.Kind)
		}
		seen[m.Kind] = true
		if !(m.Weight > 0) || math.IsInf(m.Weight, 0) {
			return fmt.Errorf("hetsched: member %q weight %v must be a positive finite number", m.Kind, m.Weight)
		}
	}
	return nil
}

// ParsePredictorSpec parses the -predictor vocabulary: every legacy kind
// name verbatim, or the ensemble grammar documented on PredictorSpec.
func ParsePredictorSpec(s string) (PredictorSpec, error) {
	if !strings.HasPrefix(s, ensemblePrefix) {
		if !knownKind(s) {
			return PredictorSpec{}, fmt.Errorf("hetsched: unknown predictor %q (want %s, or %s<members>)",
				s, strings.Join(predictorKinds, "|"), ensemblePrefix)
		}
		return PredictorSpec{Members: []MemberSpec{{Kind: s, Weight: 1}}}, nil
	}
	body := strings.TrimPrefix(s, ensemblePrefix)
	if body == "" {
		return PredictorSpec{}, fmt.Errorf("hetsched: empty ensemble spec %q", s)
	}
	var spec PredictorSpec
	for _, part := range strings.Split(body, ",") {
		kind, weightStr, hasWeight := strings.Cut(part, "=")
		m := MemberSpec{Kind: kind, Weight: 1}
		if hasWeight {
			w, err := strconv.ParseFloat(weightStr, 64)
			if err != nil {
				return PredictorSpec{}, fmt.Errorf("hetsched: ensemble member %q: bad weight %q", kind, weightStr)
			}
			m.Weight = w
		}
		spec.Members = append(spec.Members, m)
	}
	if err := spec.Validate(); err != nil {
		return PredictorSpec{}, err
	}
	return spec, nil
}

// MustParsePredictorSpec is ParsePredictorSpec for known-good literals
// (flag defaults, tests); it panics on a parse error.
func MustParsePredictorSpec(s string) PredictorSpec {
	spec, err := ParsePredictorSpec(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// String renders the canonical form: the bare kind name for single-member
// specs of weight 1 (so legacy values round-trip verbatim), the ensemble
// grammar otherwise. Weights of 1 are omitted.
func (p PredictorSpec) String() string {
	if p.IsZero() {
		return ""
	}
	if len(p.Members) == 1 && p.Members[0].Weight == 1 {
		return p.Members[0].Kind
	}
	var b strings.Builder
	b.WriteString(ensemblePrefix)
	for i, m := range p.Members {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(m.Kind)
		if m.Weight != 1 {
			b.WriteByte('=')
			b.WriteString(strconv.FormatFloat(m.Weight, 'g', -1, 64))
		}
	}
	return b.String()
}

// Set implements flag.Value.
func (p *PredictorSpec) Set(s string) error {
	parsed, err := ParsePredictorSpec(s)
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}

// MarshalText implements encoding.TextMarshaler; an invalid spec is an
// error rather than a silently serialized junk string.
func (p PredictorSpec) MarshalText() ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return []byte(p.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler (flag.TextVar, JSON,
// config files).
func (p *PredictorSpec) UnmarshalText(text []byte) error {
	return p.Set(string(text))
}

// buildBasePredictor constructs one fixed trained kind over the System's
// DBs.
func (s *System) buildBasePredictor(kind string) (Predictor, error) {
	switch kind {
	case "ann":
		return s.bag.get(s.Train)
	case "oracle":
		return core.OraclePredictor{DB: s.Eval}, nil
	case "linear":
		return mlbase.TrainLinear(s.Train, 0)
	case "knn":
		return mlbase.TrainKNN(s.Train, 3)
	case "stump":
		return mlbase.TrainStump(s.Train)
	case "tree":
		return mlbase.TrainTree(s.Train, 4)
	}
	return nil, fmt.Errorf("hetsched: unknown predictor %q", kind)
}

// buildPredictor constructs the predictor a spec names. Single fixed kinds
// return the trained predictor object itself; online kinds and
// multi-member specs build a predict.Ensemble wired for outcome feedback.
func (s *System) buildPredictor(spec PredictorSpec) (Predictor, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(spec.Members) == 1 && !onlineKinds[spec.Members[0].Kind] {
		return s.buildBasePredictor(spec.Members[0].Kind)
	}
	members := make([]predict.Member, len(spec.Members))
	weights := make([]float64, len(spec.Members))
	for i, ms := range spec.Members {
		weights[i] = ms.Weight
		switch ms.Kind {
		case "table":
			members[i] = predict.NewTable()
		case "markov":
			members[i] = predict.NewMarkov()
		case "nn":
			members[i] = predict.NewNearest(0)
		default:
			p, err := s.buildBasePredictor(ms.Kind)
			if err != nil {
				return nil, err
			}
			members[i] = predict.Wrap(ms.Kind, p)
		}
	}
	return predict.New(spec.String(), members, weights, 0)
}

// PredictorSpecValue reports the spec the System was built with (or
// hot-swapped to).
func (s *System) PredictorSpec() PredictorSpec { return s.spec }

// WithPredictorSpec returns a new System scheduling with the given spec,
// sharing the receiver's characterization DBs and energy model — the
// daemon's hot-swap path. The receiver is not modified; a failed build
// returns an error and no System, so the caller's active set stays live.
// Not supported on MultiDomainANN systems (their predictor is not
// spec-addressable).
func (s *System) WithPredictorSpec(spec PredictorSpec) (*System, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if s.multiDomain {
		return nil, fmt.Errorf("hetsched: hot-swap is not supported on MultiDomainANN systems")
	}
	pred, err := s.buildPredictor(spec)
	if err != nil {
		return nil, err
	}
	ns := *s
	ns.spec = spec
	ns.Pred = pred
	return &ns, nil
}

// PredictDetail is the vote/confidence form of PredictBestSize: the
// prediction, the oracle, the energy regret of running the kernel at the
// predicted size (best energy at that size minus the global best), and —
// for vote-exposing predictors — the per-member ballots.
type PredictDetail struct {
	PredictedKB int
	OracleKB    int
	RegretNJ    float64
	Votes       []Vote // nil unless the predictor exposes votes
}

// PredictBestSizeDetail evaluates the predictor on a characterized
// benchmark's recorded features, like PredictBestSize, and additionally
// reports the prediction's energy regret and the member ballots behind it.
func (s *System) PredictBestSizeDetail(kernel string) (PredictDetail, error) {
	rec, err := s.Eval.Find(kernel, eembc.DefaultParams())
	if err != nil {
		return PredictDetail{}, err
	}
	predicted, err := s.Pred.PredictSizeKB(rec.Features)
	if err != nil {
		return PredictDetail{}, err
	}
	d := PredictDetail{PredictedKB: predicted, OracleKB: rec.BestSizeKB()}
	atSize, err := rec.BestConfigForSize(predicted)
	if err != nil {
		return PredictDetail{}, err
	}
	if r := atSize.Energy.Total - rec.BestConfig().Energy.Total; r > 0 {
		d.RegretNJ = r
	}
	if vp, ok := s.Pred.(core.VotingPredictor); ok {
		votes, err := vp.Votes(rec.Features)
		if err != nil {
			return PredictDetail{}, err
		}
		d.Votes = votes
	}
	return d, nil
}
