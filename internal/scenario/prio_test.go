package scenario

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hetsched/internal/characterize"
	"hetsched/internal/core"
)

// legacyAssignPriorities and legacyAssignDeadlines are the hand decorators
// the prio= and slo= terms replaced, kept as the reference the spec is
// checked against.
func legacyAssignPriorities(jobs []core.Job, levels int, seed int64) {
	if levels < 2 {
		for i := range jobs {
			jobs[i].Priority = 0
		}
		return
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range jobs {
		jobs[i].Priority = rng.Intn(levels)
	}
}

func legacyAssignDeadlines(jobs []core.Job, db *characterize.DB, slack float64) error {
	if slack <= 0 {
		return fmt.Errorf("core: deadline slack %v must be positive", slack)
	}
	for i := range jobs {
		rec, err := db.Record(jobs[i].AppID)
		if err != nil {
			return err
		}
		jobs[i].SetDeadline(jobs[i].ArrivalCycle +
			uint64(slack*float64(rec.BestConfig().Cycles)))
	}
	return nil
}

// TestPrioMatchesLegacyDecorators is the differential check behind
// spelling the daemon's retired priority_levels=N and deadline_slack=S
// fields as uniform;prio=uniform:N;slo=deadline:slack=S: the spec's jobs equal the
// uniform stream decorated by the reference, field for field. The one
// difference is the SLO layer's class label on deadline-bearing jobs.
func TestPrioMatchesLegacyDecorators(t *testing.T) {
	db := testDB(t)
	for _, levels := range []int{1, 2, 3, 7} {
		for _, slack := range []float64{0, 1.5, 4} {
			for _, seed := range []int64{1, 5, 42} {
				spec := fmt.Sprintf("uniform;prio=uniform:%d", levels)
				if slack > 0 {
					spec += fmt.Sprintf(";slo=deadline:slack=%g", slack)
				}
				p := testParams(db, seed)
				got, err := MustParse(spec).Generate(p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := MustParse("uniform").Generate(p)
				if err != nil {
					t.Fatal(err)
				}
				legacyAssignPriorities(want, levels, seed+1)
				if slack > 0 {
					if err := legacyAssignDeadlines(want, db, slack); err != nil {
						t.Fatal(err)
					}
					for i := range want {
						want[i].Class = "default"
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %d: jobs differ from the legacy decorators", spec, seed)
				}
			}
		}
	}
}

// TestPrioDraw checks the prio draw on its own: every level in range and
// drawn, deterministic per seed, the arrival stream untouched, and one
// level putting every job at priority 0.
func TestPrioDraw(t *testing.T) {
	db := testDB(t)
	p := testParams(db, 5)
	plain, err := MustParse("uniform").Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := MustParse("uniform;prio=uniform:3").Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i, j := range jobs {
		if j.Priority < 0 || j.Priority > 2 {
			t.Fatalf("job %d priority %d out of [0, 3)", i, j.Priority)
		}
		seen[j.Priority] = true
		if j.AppID != plain[i].AppID || j.ArrivalCycle != plain[i].ArrivalCycle || j.Deadlined() {
			t.Fatalf("job %d: the prio draw touched more than the priority", i)
		}
	}
	if len(seen) != 3 {
		t.Errorf("only %d priority levels drawn", len(seen))
	}
	again, err := MustParse("uniform;prio=uniform:3").Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs, again) {
		t.Error("prio draw not deterministic")
	}
	one, err := MustParse("poisson;prio=uniform:1").Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range one {
		if j.Priority != 0 {
			t.Fatalf("prio=uniform:1 gave job %d priority %d", i, j.Priority)
		}
	}
}

// TestSLODeadlineErrors pins what the deadline stamping rejects: a job of
// an application the DB does not know, and a negative slack.
func TestSLODeadlineErrors(t *testing.T) {
	db := testDB(t)
	bad := []core.Job{{AppID: 999}}
	if err := MustParse("uniform;slo=deadline:slack=2").ApplySLO(bad, db, 1); err == nil {
		t.Error("unknown app accepted")
	}
	sp := Spec{Source: "uniform", SLO: SLO{Enabled: true, Slack: -1}}
	if _, err := sp.Generate(testParams(db, 1)); err == nil {
		t.Error("negative slack accepted")
	}
}
