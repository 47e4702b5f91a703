package core

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestParseSystemSpec(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"quad", []int{2, 4, 8, 8}},
		{"paper", []int{2, 4, 8, 8}},
		{"2,4,8,8", []int{2, 4, 8, 8}},
		{"4x8", []int{8, 8, 8, 8}},
		{"4x8,16x2", []int{8, 8, 8, 8, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}},
		{" 2 , 4x4 ", []int{2, 4, 4, 4, 4}},
		{"quad,quad", []int{2, 4, 8, 8, 2, 4, 8, 8}},
	}
	for _, c := range cases {
		spec, err := ParseSystemSpec(c.in)
		if err != nil {
			t.Errorf("ParseSystemSpec(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(spec.CoreSizesKB, c.want) {
			t.Errorf("ParseSystemSpec(%q) = %v, want %v", c.in, spec.CoreSizesKB, c.want)
		}
	}
}

func TestParseSystemSpecErrors(t *testing.T) {
	for _, in := range []string{
		"", ",", "3", "0x8", "-1x8", "x8", "4x", "4x3", "quadx", "2000x8",
	} {
		if _, err := ParseSystemSpec(in); err == nil {
			t.Errorf("ParseSystemSpec(%q) accepted", in)
		}
	}
}

func TestSystemSpecRoundTrip(t *testing.T) {
	for _, in := range []string{"quad", "4x8,16x2", "2,4,8,8", "8", "2,2,4,4,8"} {
		spec, err := ParseSystemSpec(in)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSystemSpec(spec.String())
		if err != nil {
			t.Fatalf("re-parsing %q (from %q): %v", spec.String(), in, err)
		}
		if !reflect.DeepEqual(back.CoreSizesKB, spec.CoreSizesKB) {
			t.Errorf("%q: round trip %v != %v", in, back.CoreSizesKB, spec.CoreSizesKB)
		}
	}
	if got := DefaultSystemSpec().String(); got != "2,4,2x8" {
		t.Errorf("default spec renders %q", got)
	}
}

func TestSystemSpecSimConfig(t *testing.T) {
	spec := DefaultSystemSpec()
	cfg := spec.SimConfig()
	def := DefaultSimConfig()
	if !reflect.DeepEqual(cfg.CoreSizesKB, def.CoreSizesKB) ||
		cfg.ReconfigCycles != def.ReconfigCycles || cfg.ProfilingCycles != def.ProfilingCycles {
		t.Errorf("default spec lowers to %+v, want %+v", cfg, def)
	}
	spec.ReconfigCycles, spec.ProfilingCycles = 500, 3000
	cfg = spec.SimConfig()
	if cfg.ReconfigCycles != 500 || cfg.ProfilingCycles != 3000 {
		t.Errorf("latency overrides lost: %+v", cfg)
	}
}

func TestSystemSpecSizeClasses(t *testing.T) {
	spec, err := ParseSystemSpec("4x8,16x2,4")
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.SizeClasses(); !reflect.DeepEqual(got, []int{2, 4, 8}) {
		t.Errorf("SizeClasses = %v", got)
	}
	if spec.Cores() != 21 {
		t.Errorf("Cores = %d", spec.Cores())
	}
}

func TestSystemSpecMarshalText(t *testing.T) {
	spec, err := ParseSystemSpec("16x2")
	if err != nil {
		t.Fatal(err)
	}
	text, err := json.Marshal(struct{ Spec SystemSpec }{spec})
	if err != nil || string(text) != `{"Spec":"16x2"}` {
		t.Errorf("json.Marshal = %s, %v", text, err)
	}
}
