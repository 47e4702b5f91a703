package scenario

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"", Spec{}},
		{"uniform", Spec{Source: "uniform"}},
		{"poisson:rate=0.8,jobs=5000", Spec{Source: "poisson", Rate: 0.8, Jobs: 5000}},
		{"bursty:burst=6,quiet=0.1,phases=8", Spec{Source: "bursty", Burst: 6, Quiet: 0.1, Phases: 8}},
		{"diurnal:amp=0.5,periods=2", Spec{Source: "diurnal", Amp: 0.5, Periods: 2}},
		{"closed:clients=16,think=0.5", Spec{Source: "closed", Clients: 16, Think: 0.5}},
		{"replay:file=trace.csv", Spec{Source: "replay", Path: "trace.csv"}},
		{"poisson;slo=deadline", Spec{Source: "poisson", SLO: SLO{Enabled: true}}},
		{
			"bursty:rate=1.2;slo=deadline:slack=1.5,classes=hi@0.2+lo@0.3@4",
			Spec{Source: "bursty", Rate: 1.2, SLO: SLO{
				Enabled: true, Slack: 1.5,
				Classes: []Class{{Name: "hi", Frac: 0.2}, {Name: "lo", Frac: 0.3, Slack: 4}},
			}},
		},
		{"uniform;prio=uniform:3", Spec{Source: "uniform", PrioLevels: 3}},
		{
			"poisson;slo=deadline:slack=2;prio=uniform:1",
			Spec{Source: "poisson", PrioLevels: 1, SLO: SLO{Enabled: true, Slack: 2}},
		},
	}
	for _, tc := range cases {
		got, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"laplace",                                            // unknown source
		"poisson:",                                           // empty parameter list
		"poisson:rate",                                       // no value
		"poisson:rate=",                                      // empty value
		"poisson:rate=-1",                                    // non-positive rate
		"poisson:rate=9",                                     // rate above cap
		"poisson:rate=0.5,rate=0.6",                          // duplicate key
		"poisson:burst=2",                                    // bursty-only param on poisson
		"poisson:jobs=0",                                     // jobs < 1
		"bursty:burst=0.2,quiet=0.8",                         // burst <= quiet
		"diurnal:amp=1.0",                                    // amp out of [0,1)
		"closed:clients=0",                                   // clients < 1
		"replay",                                             // replay without file=
		"replay:file=t.csv,rate=0.5",                         // replay has no rate
		"uniform:file=t.csv",                                 // file= outside replay
		"uniform;slo=latency",                                // unknown slo kind
		"uniform;slo=deadline:slack=0",                       // non-positive slack
		"uniform;slo=deadline;slo=deadline",                  // duplicate slo section
		"uniform;qos=deadline",                               // unknown section
		"uniform;slo=deadline:classes=hi@0.6+hi@0.2",         // duplicate class
		"uniform;slo=deadline:classes=default@0.5",           // reserved name
		"uniform;slo=deadline:classes=a@0.7+b@0.7",           // fractions sum > 1
		"uniform;slo=deadline:classes=hi@0",                  // zero fraction
		"uniform;slo=deadline:classes=hi",                    // missing fraction
		"uniform;slo=deadline:classes=h i@0.5",               // bad charset
		"uniform;prio=uniform:0",                             // zero levels
		"uniform;prio=uniform:-2",                            // negative levels
		"uniform;prio=uniform:x",                             // non-integer levels
		"uniform;prio=uniform",                               // no levels
		"uniform;prio=normal:3",                              // unknown prio kind
		"uniform;prio=uniform:2;prio=uniform:3",              // duplicate prio section
		"uniform;prio=uniform:2;slo=deadline:classes=hi@0.2", // prio with classes
	}
	for _, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): want error, got nil", in)
		}
	}
}

// TestStringRoundTrip pins the canonical-form identity Parse(sp.String()) ==
// sp for representative specs — the same property the fuzz target explores.
func TestStringRoundTrip(t *testing.T) {
	cases := []string{
		"uniform",
		"poisson:rate=0.9,jobs=5000",
		"bursty:rate=1.2,burst=6,quiet=0.1,phases=8;slo=deadline:slack=1.5,classes=hi@0.2",
		"diurnal:amp=0.5,periods=2;slo=deadline",
		"closed:clients=16,think=0.5",
		"replay:file=trace.csv;slo=deadline:slack=3",
		"uniform;prio=uniform:3;slo=deadline:slack=2",
	}
	for _, in := range cases {
		sp := MustParse(in)
		if got := sp.String(); got != in {
			t.Errorf("String(%q) = %q (canonical form should match a canonical input)", in, got)
		}
		back, err := Parse(sp.String())
		if err != nil {
			t.Errorf("reparse %q: %v", sp.String(), err)
		} else if !reflect.DeepEqual(back, sp) {
			t.Errorf("round trip %q: %+v != %+v", in, back, sp)
		}
	}
}

func TestFlagTextInterfaces(t *testing.T) {
	var sp Spec
	if err := sp.Set("poisson:rate=0.9"); err != nil {
		t.Fatal(err)
	}
	b, err := sp.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "poisson:rate=0.9" {
		t.Errorf("MarshalText = %q", b)
	}
	var back Spec
	if err := back.UnmarshalText(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, sp) {
		t.Errorf("text round trip: %+v != %+v", back, sp)
	}
	// The zero spec marshals to "" so flag.TextVar defaults print empty.
	if b, err := (Spec{}).MarshalText(); err != nil || len(b) != 0 {
		t.Errorf("zero MarshalText = %q, %v", b, err)
	}
	// An invalid spec refuses to marshal rather than emitting junk.
	if _, err := (Spec{Source: "laplace"}).MarshalText(); err == nil {
		t.Error("invalid spec marshaled")
	}
}

// FuzzParseScenarioSpec fuzzes the grammar for two properties: Parse never
// panics, and every accepted spec survives the Parse -> String -> Parse
// round trip structurally unchanged.
func FuzzParseScenarioSpec(f *testing.F) {
	seeds := []string{
		"",
		"uniform",
		"poisson:rate=0.8,jobs=5000;slo=deadline:slack=2,classes=hi@0.2",
		"bursty:burst=6,quiet=0.1,phases=8",
		"diurnal:amp=0.5,periods=2",
		"closed:clients=16,think=0.5",
		"replay:file=trace.csv",
		"uniform;slo=deadline:classes=a@0.2+b@0.3@1.5",
		"poisson:rate=1e-3",
		"bursty:burst=1e300,quiet=1",
		"uniform;prio=uniform:3",
		"poisson:rate=0.8;slo=deadline:slack=2;prio=uniform:1",
		"closed;prio=uniform:7;slo=deadline",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sp, err := Parse(in)
		if err != nil {
			return // rejected inputs need only not panic
		}
		canon := sp.String()
		back, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) ok but reparse of %q failed: %v", in, canon, err)
		}
		if !reflect.DeepEqual(back, sp) {
			t.Fatalf("round trip %q -> %q: %+v != %+v", in, canon, back, sp)
		}
		if again := back.String(); again != canon {
			t.Fatalf("String not canonical: %q -> %q", canon, again)
		}
	})
}

func TestValidateRejectsSLOParamsWithoutSection(t *testing.T) {
	sp := Spec{Source: "uniform", SLO: SLO{Slack: 2}}
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "slo") {
		t.Errorf("want slo error, got %v", err)
	}
}
