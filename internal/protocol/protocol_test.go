package protocol

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bins"
	"repro/internal/dist"
	"repro/internal/xrand"
)

func proportionalWeights(t *testing.T, a *bins.Array) []float64 {
	t.Helper()
	w, err := dist.Proportional{}.Weights(a)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGreedyValidation(t *testing.T) {
	a := bins.MustNew([]int64{1, 2})
	w := proportionalWeights(t, a)
	if _, err := NewGreedy(nil, w, 2); err == nil {
		t.Error("nil array accepted")
	}
	if _, err := NewGreedy(a, []float64{1}, 2); err == nil {
		t.Error("weight length mismatch accepted")
	}
	if _, err := NewGreedy(a, w, 0); err == nil {
		t.Error("d = 0 accepted")
	}
	if _, err := NewGreedy(a, w, maxChoices+1); err == nil {
		t.Error("huge d accepted")
	}
	if _, err := NewGreedy(a, []float64{0, 0}, 2); err == nil {
		t.Error("all-zero weights accepted")
	}
}

// TestGreedyPicksLowerPostLoad: with two bins where one is clearly less
// loaded, every ball that sees both must go to the lighter one.
func TestGreedyPicksLowerPostLoad(t *testing.T) {
	a := bins.MustNew([]int64{1, 1})
	// preload bin 0 with 5 balls
	for i := 0; i < 5; i++ {
		a.Add(0)
	}
	g, err := NewGreedy(a, []float64{1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(1)
	// with d=2 over 2 bins, most draws see both; bin 1 must catch up and
	// the final spread must be tiny.
	for i := 0; i < 100; i++ {
		g.Place(a, r)
	}
	if d := a.Balls(0) - a.Balls(1); d < -2 || d > 7 {
		t.Fatalf("counts %d vs %d, greedy failed to balance", a.Balls(0), a.Balls(1))
	}
	if a.TotalBalls() != 105 {
		t.Fatalf("TotalBalls = %d", a.TotalBalls())
	}
}

// TestGreedyCapacityTieBreak: Algorithm 1 steps 4-5 — when post loads tie,
// the larger-capacity bin must receive the ball. Construct an exact tie:
// bin 0 (cap 1, 0 balls) post load 1; bin 1 (cap 4, 3 balls) post load 1.
func TestGreedyCapacityTieBreak(t *testing.T) {
	a := bins.MustNew([]int64{1, 4})
	for i := 0; i < 3; i++ {
		a.Add(1)
	}
	g, err := NewGreedy(a, []float64{1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(7)
	// Place one ball repeatedly from the same initial state; whenever the
	// draw includes both bins, the ball must land in bin 1 (capacity 4).
	sawBoth := 0
	for trial := 0; trial < 200; trial++ {
		b := a.Clone()
		got := g.Place(b, r)
		if b.Balls(0) == 0 && got == 1 {
			// ambiguous: single-bin draw of bin 1 also lands there; detect
			// "saw both" by re-checking: if bin 0 was drawn it would have
			// tied and lost, so we can't distinguish. Instead assert the
			// negative: bin 0 must never receive the ball unless bin 1 was
			// not drawn at all — which happens with probability 1/4 per
			// trial. Then post load of bin 0 would be 1 and of bin 1 (not
			// drawn) irrelevant.
			sawBoth++
		}
		if got == 0 {
			// bin 0 can only win when the draw was {0} alone (prob 1/4);
			// then Bopt = {0}. That is legal. But if bin 1 was in the draw
			// the capacity tie-break forbids bin 0. We can't observe the
			// draw, so just count: bin 0 wins should be ~25%.
			continue
		}
	}
	// statistical assertion: bin 0 should win only ~1/4 of trials (when
	// it is the only drawn bin: draw = {0,0}).
	wins0 := 0
	const trials = 4000
	for trial := 0; trial < trials; trial++ {
		b := a.Clone()
		if g.Place(b, r) == 0 {
			wins0++
		}
	}
	frac := float64(wins0) / trials
	if math.Abs(frac-0.25) > 0.03 {
		t.Fatalf("bin 0 won %.3f of tie trials, want ~0.25 (only when drawn alone)", frac)
	}
}

// TestGreedyUniformCapacityMatchesStandardDistribution: with all
// capacities equal, Algorithm 1 reduces to the standard d-choice game
// (§4.1). Verify the resulting max-load distribution matches Standard's
// statistically.
func TestGreedyReducesToStandardOnUniformBins(t *testing.T) {
	const n, m, reps = 100, 100, 300
	var accG, accS float64
	for rep := 0; rep < reps; rep++ {
		aG := bins.MustNew(make64(n, 1))
		aS := bins.MustNew(make64(n, 1))
		wG, _ := dist.Uniform{}.Weights(aG)
		g, err := NewGreedy(aG, wG, 2)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStandard(aS, wG, 2)
		if err != nil {
			t.Fatal(err)
		}
		rg := xrand.NewStream(400, uint64(rep))
		rs := xrand.NewStream(500, uint64(rep))
		for i := 0; i < m; i++ {
			g.Place(aG, rg)
			s.Place(aS, rs)
		}
		accG += aG.MaxLoad()
		accS += aS.MaxLoad()
	}
	meanG, meanS := accG/reps, accS/reps
	if math.Abs(meanG-meanS) > 0.15 {
		t.Fatalf("greedy mean max %.3f vs standard %.3f on uniform bins", meanG, meanS)
	}
}

func make64(n int, c int64) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = c
	}
	return v
}

func TestSinglePlacesEveryBall(t *testing.T) {
	a := bins.MustNew([]int64{1, 3})
	s, err := NewSingle(a, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(3)
	const m = 40000
	for i := 0; i < m; i++ {
		s.Place(a, r)
	}
	if a.TotalBalls() != m {
		t.Fatalf("TotalBalls = %d", a.TotalBalls())
	}
	// proportional weights: bin 1 gets ~3/4 of balls
	frac := float64(a.Balls(1)) / m
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("bin 1 got fraction %.3f, want ~0.75", frac)
	}
}

func TestSingleBeatsNothing(t *testing.T) {
	// d=2 greedy should produce a max load no larger than single choice
	// on the same workload (statistically).
	const n, m, reps = 50, 200, 200
	var accG, accS float64
	for rep := 0; rep < reps; rep++ {
		aG := bins.MustNew(make64(n, 1))
		aS := bins.MustNew(make64(n, 1))
		w, _ := dist.Uniform{}.Weights(aG)
		g, _ := NewGreedy(aG, w, 2)
		s, _ := NewSingle(aS, w)
		rg := xrand.NewStream(600, uint64(rep))
		rs := xrand.NewStream(700, uint64(rep))
		for i := 0; i < m; i++ {
			g.Place(aG, rg)
			s.Place(aS, rs)
		}
		accG += aG.MaxLoad()
		accS += aS.MaxLoad()
	}
	if accG >= accS {
		t.Fatalf("greedy(2) mean max %.3f not better than single %.3f", accG/reps, accS/reps)
	}
}

func TestGoLeft(t *testing.T) {
	a := bins.MustNew(make64(64, 1))
	w, _ := dist.Uniform{}.Weights(a)
	g, err := NewGoLeft(a, w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() == "" {
		t.Error("empty name")
	}
	r := xrand.New(9)
	const m = 6400
	for i := 0; i < m; i++ {
		g.Place(a, r)
	}
	if a.TotalBalls() != m {
		t.Fatalf("TotalBalls = %d", a.TotalBalls())
	}
	// max ball count should be close to m/n for a 2-choice scheme
	if a.MaxLoad() > float64(m)/64+8 {
		t.Fatalf("go-left max load %v too high", a.MaxLoad())
	}
	if _, err := NewGoLeft(bins.MustNew([]int64{1}), []float64{1}, 2); err == nil {
		t.Error("d > n accepted")
	}
	// group without positive weight must be rejected
	bad := make([]float64, 64)
	for i := 32; i < 64; i++ {
		bad[i] = 1
	}
	if _, err := NewGoLeft(a, bad, 2); err == nil {
		t.Error("zero-weight group accepted")
	}
}

func TestOnePlusBeta(t *testing.T) {
	a := bins.MustNew(make64(10, 1))
	w, _ := dist.Uniform{}.Weights(a)
	if _, err := NewOnePlusBeta(a, w, -0.1); err == nil {
		t.Error("negative beta accepted")
	}
	if _, err := NewOnePlusBeta(a, w, 1.1); err == nil {
		t.Error("beta > 1 accepted")
	}
	// NaN fails both bound tests; accepted, it played single choice
	// under its own name, since Bernoulli(NaN) is always false.
	if _, err := NewOnePlusBeta(a, w, math.NaN()); err == nil {
		t.Error("beta = NaN accepted")
	}
	p, err := NewOnePlusBeta(a, w, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(11)
	for i := 0; i < 100; i++ {
		p.Place(a, r)
	}
	if a.TotalBalls() != 100 {
		t.Fatalf("TotalBalls = %d", a.TotalBalls())
	}
	// beta = 0 must behave exactly like single choice with same stream
	p0, _ := NewOnePlusBeta(a, w, 0)
	s0, _ := NewSingle(a, w)
	b1, b2 := a.Clone(), a.Clone()
	r1, r2 := xrand.New(42), xrand.New(42)
	for i := 0; i < 50; i++ {
		// consume the Bernoulli draw identically: beta=0 short-circuits
		// Bernoulli(0) without consuming randomness.
		p0.Place(b1, r1)
		s0.Place(b2, r2)
	}
	for i := 0; i < b1.N(); i++ {
		if b1.Balls(i) != b2.Balls(i) {
			t.Fatal("OnePlusBeta(0) diverged from Single")
		}
	}
}

func TestFactories(t *testing.T) {
	a := bins.MustNew(make64(8, 2))
	w := proportionalWeights(t, a)
	for _, f := range []Factory{
		GreedyFactory(2), StandardFactory(3), SingleFactory(),
		GoLeftFactory(2), OnePlusBetaFactory(0.3),
	} {
		p, err := f(a, w)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() == "" {
			t.Error("factory produced unnamed placer")
		}
		r := xrand.New(1)
		b := a.Clone()
		idx := p.Place(b, r)
		if idx < 0 || idx >= b.N() {
			t.Fatalf("%s placed out of range: %d", p.Name(), idx)
		}
		if b.TotalBalls() != 1 {
			t.Fatalf("%s did not add exactly one ball", p.Name())
		}
	}
}

// Property: every placer adds exactly one ball per Place, in range, and
// never touches capacities.
func TestQuickPlaceInvariants(t *testing.T) {
	f := func(seed uint64, nRaw, dRaw uint8) bool {
		n := int(nRaw%20) + 2
		d := int(dRaw%4) + 1
		r := xrand.New(seed)
		caps := make([]int64, n)
		for i := range caps {
			caps[i] = int64(r.Intn(10)) + 1
		}
		a := bins.MustNew(caps)
		w, err := dist.Proportional{}.Weights(a)
		if err != nil {
			return false
		}
		placers := []Placer{}
		if g, err := NewGreedy(a, w, d); err == nil {
			placers = append(placers, g)
		} else {
			return false
		}
		if s, err := NewStandard(a, w, d); err == nil {
			placers = append(placers, s)
		}
		for _, p := range placers {
			before := a.TotalBalls()
			idx := p.Place(a, r)
			if idx < 0 || idx >= n {
				return false
			}
			if a.TotalBalls() != before+1 {
				return false
			}
			for i := 0; i < n; i++ {
				if a.Capacity(i) != caps[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: greedy with proportional selection never places a ball into a
// zero-weight bin when using a TopOnly distribution (Theorem 5 setup).
func TestQuickTopOnlyNeverHitsSmall(t *testing.T) {
	f := func(seed uint64) bool {
		a := bins.MustNew([]int64{1, 1, 1, 5, 5, 5})
		w, err := dist.TopOnly{MinCapacity: 5}.Weights(a)
		if err != nil {
			return false
		}
		g, err := NewGreedy(a, w, 2)
		if err != nil {
			return false
		}
		r := xrand.New(seed)
		for i := 0; i < 60; i++ {
			idx := g.Place(a, r)
			if a.Capacity(idx) < 5 {
				return false
			}
		}
		return a.Balls(0) == 0 && a.Balls(1) == 0 && a.Balls(2) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGreedyPlace(b *testing.B) {
	a := bins.MustNew(make64(10000, 1))
	w, _ := dist.Proportional{}.Weights(a)
	g, _ := NewGreedy(a, w, 2)
	r := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Place(a, r)
	}
}

func BenchmarkStandardPlace(b *testing.B) {
	a := bins.MustNew(make64(10000, 1))
	w, _ := dist.Proportional{}.Weights(a)
	s, _ := NewStandard(a, w, 2)
	r := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Place(a, r)
	}
}
