package protocol

import (
	"fmt"
	"testing"

	"repro/internal/bins"
	"repro/internal/xrand"
)

// reweightFactories are the six placers, Greedy at each devirtualized
// d, under the names the rebuild-parity tests report.
var reweightFactories = []struct {
	name string
	f    Factory
}{
	{"greedy2", GreedyFactory(2)},
	{"greedy3", GreedyFactory(3)},
	{"greedy4", GreedyFactory(4)},
	{"standard2", StandardFactory(2)},
	{"standard3", StandardFactory(3)},
	{"single", SingleFactory()},
	{"goleft3", GoLeftFactory(3)},
	{"oneplusbeta", OnePlusBetaFactory(0.4)},
	{"batched", BatchedFactory(2, 7)},
}

// reweightArray is a class-structured array with ties to break.
func reweightArray(t *testing.T) *bins.Array {
	t.Helper()
	caps := make([]int64, 300)
	for i := range caps {
		caps[i] = int64(1 + i%3*4)
	}
	return bins.MustNew(caps)
}

// randomWeights draws a weight vector over n bins with some zeros and
// positive weight in every third (every go-left group).
func randomWeights(r *xrand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		if r.Intn(5) > 0 {
			w[i] = r.Float64()
		}
	}
	for g := 0; g < 3; g++ {
		w[g*n/3] = 1
	}
	return w
}

// TestReweightParity: a placer built over w₁ that has placed balls
// (the batched one stopped mid-round) and is then reweighted to w₂
// places exactly the bins, with exactly the draws, of a fresh
// factory(a, w₂) — per ball through Place and per batch through
// PlaceBatch. Once reweighted, it reweights again without allocating.
func TestReweightParity(t *testing.T) {
	for _, tc := range reweightFactories {
		t.Run(tc.name, func(t *testing.T) {
			r := xrand.New(17)
			a := reweightArray(t)
			w1, w2 := randomWeights(r, a.N()), randomWeights(r, a.N())
			p, err := tc.f(a, w1)
			if err != nil {
				t.Fatal(err)
			}
			warm := xrand.New(1)
			for i := 0; i < 10; i++ { // 10 = one round of 7 and 3 into the next
				p.Place(a, warm)
			}
			p.PlaceBatch(a, warm, 600)
			for i := 0; i < 3; i++ {
				p.Place(a, warm)
			}
			if err := p.Reweight(w2); err != nil {
				t.Fatal(err)
			}
			b := a.Clone()
			fresh, err := tc.f(b, w2)
			if err != nil {
				t.Fatal(err)
			}
			ra, rb := xrand.New(2), xrand.New(2)
			for i := 0; i < 50; i++ {
				if got, want := p.Place(a, ra), fresh.Place(b, rb); got != want {
					t.Fatalf("ball %d: reweighted placer chose bin %d, fresh placer %d", i, got, want)
				}
			}
			p.PlaceBatch(a, ra, 1500)
			fresh.PlaceBatch(b, rb, 1500)
			if *ra != *rb {
				t.Fatal("reweighted and fresh placers consumed different draws")
			}
			for i := 0; i < a.N(); i++ {
				if a.Balls(i) != b.Balls(i) {
					t.Fatalf("after PlaceBatch bin %d holds %d balls, fresh placer %d", i, a.Balls(i), b.Balls(i))
				}
			}
			if allocs := testing.AllocsPerRun(5, func() {
				if err := p.Reweight(w1); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("a repeated Reweight allocates %v times", allocs)
			}
		})
	}
}

// TestReweightErrors: Reweight rejects what the factory rejects — a
// wrong length, all-zero weights, a go-left group without weight —
// with the factory's error, and a later valid Reweight recovers.
func TestReweightErrors(t *testing.T) {
	a := reweightArray(t)
	n := a.N()
	emptyGroup := randomWeights(xrand.New(4), n)
	for i := n / 3; i < 2*n/3; i++ {
		emptyGroup[i] = 0
	}
	bad := []struct {
		name string
		w    []float64
	}{
		{"short", make([]float64, n-1)},
		{"long", make([]float64, n+1)},
		{"all zero", make([]float64, n)},
		{"go-left group 1 empty", emptyGroup},
	}
	for _, tc := range reweightFactories {
		for _, b := range bad {
			t.Run(fmt.Sprintf("%s/%s", tc.name, b.name), func(t *testing.T) {
				good := randomWeights(xrand.New(5), n)
				p, err := tc.f(a, good)
				if err != nil {
					t.Fatal(err)
				}
				_, want := tc.f(a, b.w)
				got := p.Reweight(b.w)
				if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
					t.Fatalf("Reweight error %v, factory error %v", got, want)
				}
				if err := p.Reweight(good); err != nil {
					t.Fatalf("Reweight after a rejected one: %v", err)
				}
			})
		}
	}
}
