package predict

import (
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
// ballot memo: a Fork (whose Static member memoizes) and a freshly built
// ensemble over the same members (whose Wrap keeps no memo) fed the same
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
	fork.members[0].(*Static).p = forkBag // count the fork's calls alone
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
	if original.members[0].(*Static).memo != nil {
		t.Error("the shared original grew a memo")
	}
	if snap := original.PredictorSnapshot(); snap.Predictions != 0 {
		t.Errorf("fork learning leaked into the original: %+v", snap)
	}
}
