package eembc

import (
	"testing"
)

func TestTelecomSuiteShape(t *testing.T) {
	suite := TelecomSuite()
	if len(suite) != 4 {
		t.Fatalf("telecom suite has %d kernels, want 4", len(suite))
	}
	names := map[string]bool{}
	for _, k := range suite {
		if k.Name == "" || k.Description == "" || k.Program == nil || k.Init == nil {
			t.Errorf("kernel %q incomplete", k.Name)
		}
		names[k.Name] = true
	}
	for _, want := range []string{"autcor", "conven", "fbital", "viterb"} {
		if !names[want] {
			t.Errorf("telecom suite missing %q", want)
		}
	}
	if len(AllKernels()) != 20 {
		t.Errorf("AllKernels returned %d, want 20", len(AllKernels()))
	}
	// The automotive canonical suite must stay untouched at 16.
	if len(Suite()) != 16 {
		t.Errorf("canonical suite changed size: %d", len(Suite()))
	}
}

func TestTelecomKernelsRunToCompletion(t *testing.T) {
	p := DefaultParams()
	for _, k := range TelecomSuite() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			ctr, tr, err := Record(k, p)
			if err != nil {
				t.Fatal(err)
			}
			if ctr.Instructions < 10_000 {
				t.Errorf("only %d instructions", ctr.Instructions)
			}
			if tr.Len() < 1_000 {
				t.Errorf("only %d accesses", tr.Len())
			}
			if ctr.MemOps() != uint64(tr.Len()) {
				t.Errorf("counters disagree with trace")
			}
			limit := uint64(k.MemBytes(p))
			for _, a := range tr.Accesses {
				if a.Addr >= limit {
					t.Fatalf("access %#x beyond declared %#x", a.Addr, limit)
				}
			}
		})
	}
}

func TestTelecomByName(t *testing.T) {
	k, err := ByName("viterb")
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "viterb" {
		t.Errorf("ByName returned %q", k.Name)
	}
}

func TestConvenEncodesDeterministically(t *testing.T) {
	k, err := ByName("conven")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Scale: 1, Iterations: 1, Seed: 9}
	run := func() int32 {
		prog, err := k.Program(p)
		if err != nil {
			t.Fatal(err)
		}
		machine := mustVM(k.MemBytes(p))
		if err := k.Init(machine, p); err != nil {
			t.Fatal(err)
		}
		if _, err := machine.Run(prog, 0); err != nil {
			t.Fatal(err)
		}
		// First encoded output word.
		w, err := peekWord(machine, uint64(256+256*4))
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	if run() != run() {
		t.Error("encoder output not deterministic")
	}
	if run() == 0 {
		t.Error("encoder produced all-zero output for random input")
	}
}

func TestFbitalAllocatesBudget(t *testing.T) {
	k, err := ByName("fbital")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Scale: 1, Iterations: 1, Seed: 4}
	prog, err := k.Program(p)
	if err != nil {
		t.Fatal(err)
	}
	machine := mustVM(k.MemBytes(p))
	if err := k.Init(machine, p); err != nil {
		t.Fatal(err)
	}
	if _, err := machine.Run(prog, 0); err != nil {
		t.Fatal(err)
	}
	// Sum allocated bits == the 48-round budget.
	total := int32(0)
	for i := 0; i < 768; i++ {
		v, err := peekWord(machine, uint64(768*4+i*4))
		if err != nil {
			t.Fatal(err)
		}
		total += v
	}
	if total != 48 {
		t.Errorf("allocated %d bits, want the 48-round budget", total)
	}
}

func TestViterbMetricsStayBounded(t *testing.T) {
	k, err := ByName("viterb")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Scale: 1, Iterations: 2, Seed: 2}
	prog, err := k.Program(p)
	if err != nil {
		t.Fatal(err)
	}
	machine := mustVM(k.MemBytes(p))
	if err := k.Init(machine, p); err != nil {
		t.Fatal(err)
	}
	if _, err := machine.Run(prog, 0); err != nil {
		t.Fatal(err)
	}
	// Path metrics grow by at most 3 per step; after 2*448 steps they must
	// stay below initial(1000) + 3*896.
	for s := 0; s < 64; s++ {
		m, err := peekWord(machine, uint64(s*4))
		if err != nil {
			t.Fatal(err)
		}
		if m < 0 || m > 1000+3*896 {
			t.Errorf("state %d metric %d out of bounds", s, m)
		}
	}
}

func TestTelecomWorkingSetsDiverse(t *testing.T) {
	p := DefaultParams()
	foot := map[string]int{}
	for _, k := range TelecomSuite() {
		_, tr, err := Record(k, p)
		if err != nil {
			t.Fatal(err)
		}
		foot[k.Name] = tr.Footprint(64) * 64
	}
	t.Logf("telecom footprints: %v", foot)
	if foot["conven"] >= foot["viterb"] {
		t.Errorf("conven (%d) should be far smaller than viterb (%d)",
			foot["conven"], foot["viterb"])
	}
}
