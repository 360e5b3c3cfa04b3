package sampling

import (
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// TestBinomialEdgeCases pins the forced-outcome contract: n == 0,
// p <= 0 and p >= 1 return without touching the RNG — part of the
// routing pass's pinned draw sequence.
func TestBinomialEdgeCases(t *testing.T) {
	r := xrand.New(1)
	before := *r
	if got := Binomial(r, 0, 0.3); got != 0 {
		t.Fatalf("Binomial(0, 0.3) = %d", got)
	}
	if got := Binomial(r, 17, 0); got != 0 {
		t.Fatalf("Binomial(17, 0) = %d", got)
	}
	if got := Binomial(r, 17, 1); got != 17 {
		t.Fatalf("Binomial(17, 1) = %d", got)
	}
	if *r != before {
		t.Fatal("forced outcomes consumed RNG draws")
	}
	for _, tc := range []struct {
		n int64
		p float64
	}{{1, 0.5}, {5, 0.01}, {5, 0.99}, {100000, 0.5}, {3, 1e-12}} {
		for i := 0; i < 200; i++ {
			k := Binomial(r, tc.n, tc.p)
			if k < 0 || k > tc.n {
				t.Fatalf("Binomial(%d, %v) = %d out of range", tc.n, tc.p, k)
			}
		}
	}
}

func TestBinomialPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative n": func() { Binomial(xrand.New(1), -1, 0.5) },
		"negative p": func() { Binomial(xrand.New(1), 5, -0.1) },
		"p above 1":  func() { Binomial(xrand.New(1), 5, 1.5) },
		"NaN p":      func() { Binomial(xrand.New(1), 5, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// chiSquareBinomial draws `draws` samples of Binomial(n, p) and runs a
// Pearson goodness-of-fit test against the exact pmf, pooling the tail
// cells so every expected count is >= 5.
func chiSquareBinomial(t *testing.T, seed uint64, n int64, p float64, draws int) {
	t.Helper()
	r := xrand.New(seed)
	counts := make(map[int64]int64)
	for i := 0; i < draws; i++ {
		counts[Binomial(r, n, p)]++
	}
	// Walk the support in order, pooling cells with small expectation
	// into their neighbours.
	var obs, exp []float64
	var obsAcc, expAcc float64
	for k := int64(0); k <= n; k++ {
		expAcc += float64(draws) * stats.BinomialPMF(int(n), p, int(k))
		obsAcc += float64(counts[k])
		if expAcc >= 5 {
			obs = append(obs, obsAcc)
			exp = append(exp, expAcc)
			obsAcc, expAcc = 0, 0
		}
	}
	if len(exp) == 0 {
		t.Fatalf("n=%d p=%v: no cells with expectation >= 5", n, p)
	}
	// Residual tail mass folds into the last cell.
	obs[len(obs)-1] += obsAcc
	exp[len(exp)-1] += expAcc
	x2, err := stats.ChiSquare(obs, exp)
	if err != nil {
		t.Fatal(err)
	}
	df := len(exp) - 1
	if df < 1 {
		df = 1
	}
	crit, err := stats.ChiSquareCritical(df, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if x2 > crit {
		t.Fatalf("Binomial(%d, %v): chi2 = %.2f > critical %.2f (df %d, %d draws)",
			n, p, x2, crit, df, draws)
	}
}

// TestBinomialChiSquare covers both algorithm regimes (BINV below
// n·min(p,1−p) = 30, BTRS above) and the p > 1/2 reflection. The RNG
// is fixed, so the test is deterministic; alpha = 0.001 leaves ample
// slack for the seeds chosen here.
func TestBinomialChiSquare(t *testing.T) {
	cases := []struct {
		n int64
		p float64
	}{
		{8, 0.3},      // BINV, tiny support
		{50, 0.1},     // BINV
		{50, 0.9},     // BINV after reflection
		{200, 0.5},    // BTRS
		{1000, 0.07},  // BTRS, skewed
		{1000, 0.93},  // BTRS after reflection
		{65536, 0.01}, // routing-block scale
	}
	for i, tc := range cases {
		chiSquareBinomial(t, uint64(1000+i), tc.n, tc.p, 20000)
	}
}

// TestBinomialMean sanity-checks first moments at routing-block scale:
// the sample mean over many draws must sit within a few standard
// errors of n·p.
func TestBinomialMean(t *testing.T) {
	r := xrand.New(7)
	const n, p, draws = 65536, 0.25, 4000
	var sum float64
	for i := 0; i < draws; i++ {
		sum += float64(Binomial(r, n, p))
	}
	mean := sum / draws
	se := math.Sqrt(n*p*(1-p)) / math.Sqrt(draws)
	if math.Abs(mean-n*p) > 5*se {
		t.Fatalf("mean %v, want %v ± %v", mean, n*p, 5*se)
	}
}

func TestMultinomialValidation(t *testing.T) {
	if _, err := NewMultinomial(nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := NewMultinomial([]float64{0, 0}); err == nil {
		t.Error("all-zero weights accepted")
	}
	if _, err := NewMultinomial([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	m, err := NewMultinomial([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short output accepted")
			}
		}()
		m.Draw(xrand.New(1), 10, make([]int64, 2))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative n accepted")
			}
		}()
		m.Draw(xrand.New(1), -1, make([]int64, 3))
	}()
}

// TestMultinomialInvariants: Σ counts == n always, zero-weight
// categories never receive counts, n == 0 consumes no draws, and a
// single category absorbs everything.
func TestMultinomialInvariants(t *testing.T) {
	weights := []float64{3, 0, 1, 7, 0.5, 0, 2, 1}
	m, err := NewMultinomial(weights)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(42)
	out := make([]int64, len(weights))
	for _, n := range []int64{0, 1, 7, 100, 65536} {
		m.Draw(r, n, out)
		var sum int64
		for i, c := range out {
			if c < 0 {
				t.Fatalf("n=%d: negative count %d at %d", n, c, i)
			}
			if weights[i] == 0 && c != 0 {
				t.Fatalf("n=%d: zero-weight category %d got %d balls", n, i, c)
			}
			sum += c
		}
		if sum != n {
			t.Fatalf("n=%d: counts sum to %d", n, sum)
		}
	}
	before := *r
	m.Draw(r, 0, out)
	if *r != before {
		t.Fatal("Draw(0) consumed RNG draws")
	}
	single, err := NewMultinomial([]float64{2.5})
	if err != nil {
		t.Fatal(err)
	}
	one := make([]int64, 1)
	before = *r
	single.Draw(r, 99, one)
	if one[0] != 99 || *r != before {
		t.Fatalf("single category: got %d (draws consumed: %v)", one[0], *r != before)
	}
}

// TestMultinomialChiSquare checks every marginal against its expected
// share across many draws — the goodness-of-fit contract of the
// conditional binomial decomposition.
func TestMultinomialChiSquare(t *testing.T) {
	weights := []float64{1, 4, 2, 8, 0.5, 3, 6, 1.5, 2, 4}
	var total float64
	for _, w := range weights {
		total += w
	}
	m, err := NewMultinomial(weights)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(20260727)
	const n, draws = 512, 3000
	out := make([]int64, len(weights))
	obs := make([]float64, len(weights))
	exp := make([]float64, len(weights))
	for i := 0; i < draws; i++ {
		m.Draw(r, n, out)
		for j, c := range out {
			obs[j] += float64(c)
		}
	}
	for j, w := range weights {
		exp[j] = float64(n) * float64(draws) * w / total
	}
	x2, err := stats.ChiSquare(obs, exp)
	if err != nil {
		t.Fatal(err)
	}
	crit, err := stats.ChiSquareCritical(len(weights)-1, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if x2 > crit {
		t.Fatalf("multinomial marginals: chi2 = %.2f > critical %.2f", x2, crit)
	}
}

// TestMultinomialMatchesPerCategoryLaw cross-checks one marginal's full
// distribution (not just its mean) against the exact Binomial(n, w/W)
// law — the defining property of multinomial marginals.
func TestMultinomialMatchesPerCategoryLaw(t *testing.T) {
	weights := []float64{1, 2, 5}
	m, err := NewMultinomial(weights)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(5)
	const n, draws = 40, 20000
	out := make([]int64, 3)
	counts := make(map[int64]int64)
	for i := 0; i < draws; i++ {
		m.Draw(r, n, out)
		counts[out[1]]++ // middle category, p = 2/8
	}
	var obs, exp []float64
	var obsAcc, expAcc float64
	for k := int64(0); k <= n; k++ {
		expAcc += float64(draws) * stats.BinomialPMF(n, 0.25, int(k))
		obsAcc += float64(counts[k])
		if expAcc >= 5 {
			obs = append(obs, obsAcc)
			exp = append(exp, expAcc)
			obsAcc, expAcc = 0, 0
		}
	}
	obs[len(obs)-1] += obsAcc
	exp[len(exp)-1] += expAcc
	x2, err := stats.ChiSquare(obs, exp)
	if err != nil {
		t.Fatal(err)
	}
	crit, err := stats.ChiSquareCritical(len(exp)-1, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if x2 > crit {
		t.Fatalf("marginal law: chi2 = %.2f > critical %.2f", x2, crit)
	}
}

// TestMultinomialDeterministic: identical (seed, n, weights) produce
// identical count vectors — the routing pass's bit-identity substrate.
func TestMultinomialDeterministic(t *testing.T) {
	weights := []float64{1, 3, 2, 2, 9}
	m1, _ := NewMultinomial(weights)
	m2, _ := NewMultinomial(weights)
	a := make([]int64, 5)
	b := make([]int64, 5)
	r1 := xrand.New(99)
	r2 := xrand.New(99)
	for i := 0; i < 50; i++ {
		m1.Draw(r1, 4096, a)
		m2.Draw(r2, 4096, b)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("draw %d: %v vs %v", i, a, b)
			}
		}
		if *r1 != *r2 {
			t.Fatalf("draw %d: RNG states diverged", i)
		}
	}
}

// TestMultinomialRebuildParity: Rebuild gives exactly NewMultinomial's
// split probabilities for the same K, allocates nothing after the
// first, and rejects a different K or invalid weights with m
// unchanged.
func TestMultinomialRebuildParity(t *testing.T) {
	r := xrand.New(9)
	for _, k := range []int{1, 2, 5, 64, 1000} {
		random := func() []float64 {
			w := make([]float64, k)
			for i := range w {
				if r.Intn(3) > 0 {
					w[i] = r.Float64()
				}
			}
			w[r.Intn(k)] = 0.5
			return w
		}
		m, err := NewMultinomial(random())
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			w := random()
			if err := m.Rebuild(w); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewMultinomial(w)
			if err != nil {
				t.Fatal(err)
			}
			if m.k != fresh.k || !slices.Equal(m.pLeft, fresh.pLeft) {
				t.Fatalf("k = %d: rebuilt tree differs from a fresh build", k)
			}
		}
		w := random()
		if allocs := testing.AllocsPerRun(10, func() {
			if err := m.Rebuild(w); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("k = %d: Rebuild allocates %v times", k, allocs)
		}
		before := slices.Clone(m.pLeft)
		zero := make([]float64, k)
		_, want := NewMultinomial(zero)
		if err := m.Rebuild(zero); err == nil || err.Error() != want.Error() {
			t.Fatalf("k = %d: Rebuild(zeros) = %v, want %v", k, err, want)
		}
		if err := m.Rebuild(make([]float64, k+1)); err == nil {
			t.Fatalf("k = %d: Rebuild over %d weights accepted", k, k+1)
		}
		if !slices.Equal(m.pLeft, before) {
			t.Fatalf("k = %d: a rejected Rebuild changed the tree", k)
		}
	}
}
