package predict

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"hetsched/internal/cache"
	"hetsched/internal/stats"
)

// bagStub is a fixed predictor with the ANN bag's capabilities: a size and
// a per-size member vote count, both pure functions of the features. It
// counts its PredictSizeKB calls.
type bagStub struct{ calls atomic.Int64 }

func (b *bagStub) PredictSizeKB(f stats.Features) (int, error) {
	b.calls.Add(1)
	sizes := cache.Sizes()
	return sizes[int(f[0])%len(sizes)], nil
}

func (b *bagStub) MemberVotes(f stats.Features) (map[int]int, error) {
	sizes := cache.Sizes()
	i := int(f[0]) % len(sizes)
	return map[int]int{sizes[i]: 20, sizes[(i+1)%len(sizes)]: 10}, nil
}

// TestStaticMemoMatchesFreshEnsemble is the exactness proof of the static
// ballot memo: a Fork (which memoizes its Static member's ballots) and a
// freshly built ensemble over the same members (which keeps no memo) fed the same
// feedback end with equal votes, weights and scorecards. Meanwhile other
// goroutines predict on the shared original, which must stay memo-free
// and read-only (run under -race).
func TestStaticMemoMatchesFreshEnsemble(t *testing.T) {
	shared := &bagStub{}
	original, err := New("e", []Member{Wrap("bag", shared), NewTable(), NewMarkov()}, []float64{2, 1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fork := original.Fork().(*Ensemble)
	forkBag := &bagStub{}
	fork.members[0] = Wrap("bag", forkBag) // count the fork's calls alone
	freshBag := &bagStub{}
	fresh, err := New("e", []Member{Wrap("bag", freshBag), NewTable(), NewMarkov()}, []float64{2, 1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := original.PredictSizeKB(feat(i % 5)); err != nil {
					t.Error(err)
					return
				}
				if _, err := original.Votes(feat(g)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	const apps = 5
	for i := 0; i < 60; i++ {
		f := feat(i % apps)
		best := cache.Sizes()[(i/apps)%3]
		regret := map[int]float64{2: 30, 4: 70, 8: 110}
		regret[best] = 0
		fork.ObserveRegret(f, 8, best, regret, 1000)
		fresh.ObserveRegret(f, 8, best, regret, 1000)
	}
	close(stop)
	wg.Wait()

	for i := 0; i < apps; i++ {
		fv, err := fork.Votes(feat(i))
		if err != nil {
			t.Fatal(err)
		}
		nv, err := fresh.Votes(feat(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fv, nv) {
			t.Errorf("app %d votes: fork %+v, fresh %+v", i, fv, nv)
		}
	}
	if !reflect.DeepEqual(fork.weights, fresh.weights) {
		t.Errorf("weights: fork %v, fresh %v", fork.weights, fresh.weights)
	}
	if fs, ns := fork.PredictorSnapshot(), fresh.PredictorSnapshot(); !reflect.DeepEqual(fs, ns) {
		t.Errorf("snapshot: fork %+v, fresh %+v", fs, ns)
	}

	// The memo did its job: one bag call per distinct feature vector.
	if got := forkBag.calls.Load(); got != apps {
		t.Errorf("fork called its static member %d times for %d distinct features", got, apps)
	}
	if freshBag.calls.Load() <= apps {
		t.Errorf("fresh ensemble made only %d static calls; the comparison exercised no memo", freshBag.calls.Load())
	}
	if original.memo != nil || original.round != nil {
		t.Error("the shared original grew a memo")
	}
	if snap := original.PredictorSnapshot(); snap.Predictions != 0 {
		t.Errorf("fork learning leaked into the original: %+v", snap)
	}
}

// forkFixture builds a fork over the serving mix (a bag-like static
// member, the table and the markov chain) plus the nearest neighbor.
func forkFixture(t testing.TB) *Ensemble {
	t.Helper()
	e, err := New("e", []Member{Wrap("bag", &bagStub{}), NewTable(), NewMarkov(), NewNearest(0)}, []float64{2, 1, 1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return e.Fork().(*Ensemble)
}

// forget drops every memo a fork carries, as if it had just been forked.
func forget(e *Ensemble) {
	clear(e.memo)
	e.round.valid = false
}

// TestEnsembleForkMemoMatchesFresh is the exactness proof of a fork's
// memos: a seeded random sequence of predictions, votes and feedback on a
// fork answers exactly as the same sequence on a fork whose memos are
// dropped before every call, down to the final scorecards.
func TestEnsembleForkMemoMatchesFresh(t *testing.T) {
	memo, fresh := forkFixture(t), forkFixture(t)
	rng := rand.New(rand.NewSource(7))
	features := func() stats.Features {
		f := feat(rng.Intn(6))
		if rng.Intn(4) == 0 { // a noisy re-profile: same bucket, new features
			f[stats.FCycles] *= 1.01
		}
		return f
	}
	sizes := cache.Sizes()
	f := features()
	for step := 0; step < 400; step++ {
		if rng.Intn(3) == 0 {
			f = features()
		}
		var got, want any
		switch rng.Intn(4) {
		case 0:
			g, gerr := memo.PredictSizeKB(f)
			forget(fresh)
			w, werr := fresh.PredictSizeKB(f)
			got, want = fmt.Sprint(g, gerr), fmt.Sprint(w, werr)
		case 1:
			g, gerr := memo.Votes(f)
			forget(fresh)
			w, werr := fresh.Votes(f)
			got, want = fmt.Sprint(g, gerr), fmt.Sprint(w, werr)
		case 2:
			chosen, best := sizes[rng.Intn(len(sizes))], sizes[rng.Intn(len(sizes))]
			regret := map[int]float64{}
			for _, s := range sizes {
				if s != best {
					regret[s] = float64(10 + rng.Intn(100))
				}
			}
			memo.ObserveRegret(f, chosen, best, regret, 1000)
			forget(fresh)
			fresh.ObserveRegret(f, chosen, best, regret, 1000)
		case 3:
			best := sizes[rng.Intn(len(sizes))]
			memo.Observe(f, 8, best, 1000)
			forget(fresh)
			fresh.Observe(f, 8, best, 1000)
		}
		if got != want {
			t.Fatalf("step %d: memoized fork answered %v, fresh %v", step, got, want)
		}
	}
	if ms, fs := memo.PredictorSnapshot(), fresh.PredictorSnapshot(); !reflect.DeepEqual(ms, fs) {
		t.Errorf("snapshot: memoized %+v, fresh %+v", ms, fs)
	}
	if len(memo.memo) == 0 {
		t.Error("the memoized fork remembered nothing; the comparison exercised no memo")
	}
}

// warmFork returns a fork that has seen every feature vector of apps and
// learned from each, with the regret profile its cycle reports.
func warmFork(t testing.TB, apps int) (*Ensemble, map[int]float64) {
	t.Helper()
	e := forkFixture(t)
	regret := map[int]float64{2: 0, 4: 60, 8: 150}
	for i := 0; i < 4*apps; i++ {
		e.ObserveRegret(feat(i%apps), 8, 2, regret, 1000)
	}
	return e, regret
}

// completion is the ensemble's share of one completed job in core's
// observeOutcome: the prequential prediction, the feedback round and the
// refreshed prediction.
func completion(tb testing.TB, e *Ensemble, f stats.Features, regret map[int]float64) {
	if _, err := e.PredictSizeKB(f); err != nil {
		tb.Fatal(err)
	}
	e.ObserveRegret(f, 8, 2, regret, 1000)
	if _, err := e.PredictSizeKB(f); err != nil {
		tb.Fatal(err)
	}
}

// TestEnsembleFeedbackAllocates nothing: on a warmed fork, a completion
// reuses the round buffer, the memo entries and every member's counts.
func TestEnsembleFeedbackAllocatesNothing(t *testing.T) {
	const apps = 5
	e, regret := warmFork(t, apps)
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		completion(t, e, feat(i%apps), regret)
		i++
	})
	if allocs != 0 {
		t.Errorf("one completion on a warmed fork made %v allocations, want 0", allocs)
	}
}

// TestEnsembleConcurrentReadOnly: an unforked ensemble keeps no memo, so
// concurrent predictions and votes race on nothing and answer as a
// serial caller does (run under -race).
func TestEnsembleConcurrentReadOnly(t *testing.T) {
	e, err := New("e", []Member{Wrap("bag", &bagStub{}), NewTable(), NewMarkov(), NewNearest(0)}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	const apps = 6
	regret := map[int]float64{2: 0, 4: 60, 8: 150}
	for i := 0; i < 3*apps; i++ {
		e.ObserveRegret(feat(i%apps), 8, cache.Sizes()[i%3], regret, 1000)
	}
	want := make([]string, apps)
	for i := range want {
		size, err := e.PredictSizeKB(feat(i))
		votes, verr := e.Votes(feat(i))
		want[i] = fmt.Sprint(size, err, votes, verr)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				app := (g + i) % apps
				size, err := e.PredictSizeKB(feat(app))
				votes, verr := e.Votes(feat(app))
				if got := fmt.Sprint(size, err, votes, verr); got != want[app] {
					t.Errorf("goroutine %d app %d: %s, want %s", g, app, got, want[app])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if e.memo != nil || e.round != nil {
		t.Error("an unforked ensemble grew a memo")
	}
}

// BenchmarkEnsembleFeedback times one completion's ensemble work on a
// warmed fork of the serving mix, cycling over five applications.
func BenchmarkEnsembleFeedback(b *testing.B) {
	const apps = 5
	e, regret := warmFork(b, apps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		completion(b, e, feat(i%apps), regret)
	}
}
