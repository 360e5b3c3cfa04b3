package sampling

import (
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

// TestHypergeometricForcedOutcomesDrawNothing pins the forced-outcome
// contract: n == 0, K == 0, K == N and n == N return without touching
// the RNG, and so does a MultiHypergeometric split that draws nothing
// or everything — part of the deletion router's pinned draw sequence.
func TestHypergeometricForcedOutcomesDrawNothing(t *testing.T) {
	r := xrand.New(1)
	before := *r
	for _, tc := range []struct{ N, K, n, want int64 }{
		{0, 0, 0, 0},
		{10, 4, 0, 0},  // n == 0
		{10, 0, 7, 0},  // K == 0
		{10, 10, 7, 7}, // K == N
		{10, 4, 10, 4}, // n == N
		{1 << 62, 1 << 61, 1 << 62, 1 << 61},
	} {
		if got := Hypergeometric(r, tc.N, tc.K, tc.n); got != tc.want {
			t.Fatalf("Hypergeometric(%d, %d, %d) = %d, want %d", tc.N, tc.K, tc.n, got, tc.want)
		}
	}
	counts := []int64{3, 0, 2, 4}
	out := make([]int64, len(counts))
	MultiHypergeometric(r, counts, 9, out)
	if !slices.Equal(out, counts) {
		t.Fatalf("drawing every item: %v, want %v", out, counts)
	}
	MultiHypergeometric(r, counts, 0, out)
	if !slices.Equal(out, []int64{0, 0, 0, 0}) {
		t.Fatalf("drawing nothing: %v", out)
	}
	if *r != before {
		t.Fatal("forced outcomes consumed RNG draws")
	}
}

func TestHypergeometricPanics(t *testing.T) {
	out := make([]int64, 2)
	for name, fn := range map[string]func(){
		"negative K":          func() { Hypergeometric(xrand.New(1), 5, -1, 2) },
		"K above N":           func() { Hypergeometric(xrand.New(1), 5, 6, 2) },
		"negative n":          func() { Hypergeometric(xrand.New(1), 5, 2, -1) },
		"n above N":           func() { Hypergeometric(xrand.New(1), 5, 2, 6) },
		"negative count":      func() { MultiHypergeometric(xrand.New(1), []int64{3, -1}, 1, out) },
		"total overflow":      func() { MultiHypergeometric(xrand.New(1), []int64{math.MaxInt64, 1}, 1, out) },
		"d above total":       func() { MultiHypergeometric(xrand.New(1), []int64{3, 1}, 5, out) },
		"negative d":          func() { MultiHypergeometric(xrand.New(1), []int64{3, 1}, -1, out) },
		"output length":       func() { MultiHypergeometric(xrand.New(1), []int64{3, 1, 2}, 1, out) },
		"negative N, K and n": func() { Hypergeometric(xrand.New(1), -1, -1, -1) },
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

// hypergeometricPMF returns P(X = k) for X ~ Hypergeometric(N, K, n)
// over k in [lo, lo+len(pmf)), every k whose probability is within
// 10⁻²⁰ of the mode's. It walks the ratio recurrence
// f(k+1)/f(k) = (K−k)(n−k) / ((k+1)(N−K−n+k+1)) out from the mode and
// normalises, so it shares no log-factorial code with the sampler.
func hypergeometricPMF(N, K, n int64) (lo int64, pmf []float64) {
	kmin, kmax := max(0, n-(N-K)), min(n, K)
	mode := min(max(int64((float64(n)+1)*(float64(K)+1)/(float64(N)+2)), kmin), kmax)
	ratio := func(k int64) float64 { // f(k+1)/f(k)
		return float64(K-k) * float64(n-k) / (float64(k+1) * float64(N-K-n+k+1))
	}
	var down, up []float64 // f(mode−1), f(mode−2), … and f(mode+1), …
	for k, w := mode, 1.0; k > kmin; {
		k--
		if w /= ratio(k); w < 1e-20 {
			break
		}
		down = append(down, w)
	}
	for k, w := mode, 1.0; k < kmax; k++ {
		if w *= ratio(k); w < 1e-20 {
			break
		}
		up = append(up, w)
	}
	slices.Reverse(down)
	pmf = append(append(down, 1), up...)
	var sum float64
	for _, w := range pmf {
		sum += w
	}
	for i := range pmf {
		pmf[i] /= sum
	}
	return mode - int64(len(down)), pmf
}

// chiSquareHypergeometric draws `draws` samples of
// Hypergeometric(N, K, n) and runs a Pearson goodness-of-fit test
// against the exact pmf at α = 0.001, pooling cells in support order
// so every expected count is >= 5. Samples beyond the pmf's range
// (probability below 10⁻²⁰ of the mode's) pool into the end cells.
func chiSquareHypergeometric(t *testing.T, seed uint64, N, K, n int64, draws int) {
	t.Helper()
	r := xrand.New(seed)
	kmin, kmax := max(0, n-(N-K)), min(n, K)
	lo, pmf := hypergeometricPMF(N, K, n)
	hi := lo + int64(len(pmf)) - 1
	counts := make(map[int64]int64)
	for i := 0; i < draws; i++ {
		k := Hypergeometric(r, N, K, n)
		if k < kmin || k > kmax {
			t.Fatalf("Hypergeometric(%d, %d, %d) = %d outside the support [%d, %d]", N, K, n, k, kmin, kmax)
		}
		counts[min(max(k, lo), hi)]++
	}
	var obs, exp []float64
	var obsAcc, expAcc float64
	for k := lo; k <= hi; k++ {
		expAcc += float64(draws) * pmf[k-lo]
		obsAcc += float64(counts[k])
		if expAcc >= 5 {
			obs = append(obs, obsAcc)
			exp = append(exp, expAcc)
			obsAcc, expAcc = 0, 0
		}
	}
	if len(exp) < 2 {
		t.Fatalf("Hypergeometric(%d, %d, %d): %d cells with expectation >= 5", N, K, n, len(exp))
	}
	obs[len(obs)-1] += obsAcc
	exp[len(exp)-1] += expAcc
	x2, err := stats.ChiSquare(obs, exp)
	if err != nil {
		t.Fatal(err)
	}
	df := len(exp) - 1
	crit, err := stats.ChiSquareCritical(df, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if x2 > crit {
		t.Fatalf("Hypergeometric(%d, %d, %d): chi2 = %.2f > critical %.2f (df %d, %d draws)",
			N, K, n, x2, crit, df, draws)
	}
}

// TestHypergeometricLaw checks the sampler against the exact pmf in
// both algorithm regimes (HIN below mean hinCutoff after the
// reflections, HRUA at and above it), under the K ↔ N−K and n ↔ N−n
// reflections, one at a time and together, and at N = 2^60, where
// subtracting lgammas would lose every digit of the log-factorial
// ratios. The RNG seeds are pinned, so the test is deterministic.
func TestHypergeometricLaw(t *testing.T) {
	cases := []struct {
		N, K, n int64
		hrua    bool
	}{
		{20, 7, 5, false},                  // HIN
		{20, 15, 5, false},                 // HIN, K reflected
		{20, 7, 16, false},                 // HIN, n reflected
		{20, 14, 15, false},                // HIN, both reflected
		{100, 49, 20, false},               // HIN just below the cutoff (mean 9.8)
		{100000, 3, 900, false},            // HIN, large population
		{100, 50, 20, true},                // HRUA at the cutoff (mean 10)
		{200, 80, 60, true},                // HRUA
		{200, 130, 60, true},               // HRUA, K reflected
		{200, 80, 150, true},               // HRUA, n reflected
		{200, 150, 140, true},              // HRUA, both reflected
		{1000000, 460000, 400000, true},    // a stream-churn routing split
		{1 << 60, 1 << 30, 1 << 31, false}, // HIN, where lgamma(N) has an ulp of 2^13
		{1 << 60, 1 << 59, 1 << 20, true},  // HRUA, where lgamma(N) has an ulp of 2^13
	}
	for i, tc := range cases {
		m, s := min(tc.K, tc.N-tc.K), min(tc.n, tc.N-tc.n)
		if hrua := float64(s)*float64(m)/float64(tc.N) >= hinCutoff; hrua != tc.hrua {
			t.Fatalf("case %d %+v: HRUA regime = %v", i, tc, hrua)
		}
		chiSquareHypergeometric(t, uint64(2000+i), tc.N, tc.K, tc.n, 20000)
	}
}

// TestMultiHypergeometricInvariants: every split conserves d, never
// takes more than a category holds, leaves empty categories at 0, and
// is a pure function of (counts, d, RNG state).
func TestMultiHypergeometricInvariants(t *testing.T) {
	counts := []int64{5, 0, 17, 1, 0, 0, 40, 3, 9}
	var total int64
	for _, c := range counts {
		total += c
	}
	r := xrand.New(3)
	out := make([]int64, len(counts))
	again := make([]int64, len(counts))
	for d := int64(0); d <= total; d++ {
		saved := *r
		MultiHypergeometric(r, counts, d, out)
		rr := saved
		MultiHypergeometric(&rr, counts, d, again)
		if !slices.Equal(out, again) || rr != *r {
			t.Fatalf("d = %d: split not deterministic: %v vs %v", d, out, again)
		}
		var sum int64
		for i, q := range out {
			if q < 0 || q > counts[i] {
				t.Fatalf("d = %d: out[%d] = %d of %d", d, i, q, counts[i])
			}
			sum += q
		}
		if sum != d {
			t.Fatalf("d = %d: split sums to %d (%v)", d, sum, out)
		}
	}
}

// BenchmarkHypergeometric times one draw in each regime: a small-mean
// HIN walk and a large-mean HRUA draw at a stream-churn routing split.
func BenchmarkHypergeometric(b *testing.B) {
	for _, bc := range []struct {
		name    string
		N, K, n int64
	}{
		{"SmallMean", 15625, 40, 1000},
		{"LargeMean", 1000000, 460000, 400000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := xrand.New(1)
			b.ReportAllocs()
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += Hypergeometric(r, bc.N, bc.K, bc.n)
			}
			_ = sink
		})
	}
}
