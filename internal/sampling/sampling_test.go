package sampling

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// chiSquare returns the chi-square statistic of observed counts against
// the expected distribution given by weights (normalised internally).
// Zero-weight categories must have zero observations or the statistic is
// +Inf.
func chiSquare(counts []int, weights []float64, samples int) float64 {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	chi2 := 0.0
	for i, c := range counts {
		expected := float64(samples) * weights[i] / total
		if expected == 0 {
			if c != 0 {
				return math.Inf(1)
			}
			continue
		}
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	return chi2
}

// mustAlias builds an alias table over weights or fails the test.
func mustAlias(t *testing.T, weights []float64) *AliasTable {
	t.Helper()
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatalf("NewAlias: %v", err)
	}
	return a
}

// TestSamplersMatchDistribution checks the alias table against the
// exact law by chi-square, zero weights included.
func TestSamplersMatchDistribution(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
	}{
		{"uniform4", []float64{1, 1, 1, 1}},
		{"proportional", []float64{1, 2, 3, 4}},
		{"skewed", []float64{100, 1, 1, 1, 1}},
		{"withZeros", []float64{0, 5, 0, 5, 0}},
		{"single", []float64{3}},
		{"paper-two-class", []float64{1, 1, 1, 1, 1, 10, 10, 10, 10, 10}},
		{"jagged", []float64{0.5, 9, 3.25, 0, 7, 1, 1, 2.5}},
	}
	const samples = 200000
	// 99.9% chi-square quantiles by degrees of freedom (k-1 categories
	// with nonzero weight).
	quantile := map[int]float64{
		0: 0, 1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47,
		5: 20.52, 6: 22.46, 7: 24.32, 8: 26.12, 9: 27.88,
	}
	for _, tc := range cases {
		a := mustAlias(t, tc.weights)
		r := xrand.New(0xabcde)
		counts := make([]int, len(tc.weights))
		for i := 0; i < samples; i++ {
			counts[a.Sample(r)]++
		}
		nonzero := 0
		for _, w := range tc.weights {
			if w > 0 {
				nonzero++
			}
		}
		chi2 := chiSquare(counts, tc.weights, samples)
		if lim := quantile[nonzero-1]; chi2 > lim {
			t.Errorf("%s: chi-square %.2f > %.2f (counts %v)",
				tc.name, chi2, lim, counts)
		}
	}
}

func TestSamplersRejectBadWeights(t *testing.T) {
	bad := [][]float64{
		nil,
		{},
		{0, 0, 0},
		{-1, 2},
		{math.NaN(), 1},
	}
	for _, w := range bad {
		if _, err := NewAlias(w); err == nil {
			t.Errorf("NewAlias(%v) accepted invalid weights", w)
		}
	}
}

func TestSamplersNeverReturnZeroWeightIndex(t *testing.T) {
	weights := []float64{0, 1, 0, 2, 0, 3, 0}
	a := mustAlias(t, weights)
	r := xrand.New(99)
	for i := 0; i < 20000; i++ {
		if idx := a.Sample(r); weights[idx] == 0 {
			t.Fatalf("alias returned zero-weight index %d", idx)
		}
	}
}

func TestSamplersInRange(t *testing.T) {
	weights := []float64{2, 3, 5, 7, 11}
	a := mustAlias(t, weights)
	if a.N() != len(weights) {
		t.Fatalf("N() = %d, want %d", a.N(), len(weights))
	}
	r := xrand.New(7)
	for i := 0; i < 10000; i++ {
		if idx := a.Sample(r); idx < 0 || idx >= len(weights) {
			t.Fatalf("index %d out of range", idx)
		}
	}
}

func TestAliasSingleCategory(t *testing.T) {
	a, err := NewAlias([]float64{42})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(1)
	for i := 0; i < 100; i++ {
		if a.Sample(r) != 0 {
			t.Fatal("single-category alias returned nonzero index")
		}
	}
}

// Property: alias tables built from arbitrary positive weights produce
// only in-range indices, and every alias target is in range.
func TestQuickAliasValid(t *testing.T) {
	f := func(seed uint64, raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		weights := make([]float64, len(raw))
		anyPos := false
		for i, v := range raw {
			weights[i] = float64(v)
			if v > 0 {
				anyPos = true
			}
		}
		a, err := NewAlias(weights)
		if !anyPos {
			return err != nil
		}
		if err != nil {
			return false
		}
		if len(a.cols) != len(weights) {
			return false
		}
		for _, c := range a.cols {
			if c.alias < 0 || int(c.alias) >= len(weights) {
				return false
			}
		}
		r := xrand.New(seed)
		for i := 0; i < 32; i++ {
			idx := a.Sample(r)
			if idx < 0 || idx >= len(weights) || weights[idx] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Cross-check: the alias table agrees with the exact CDF of a jagged
// distribution (a zero weight included), category by category and in
// its running sum. Compares empirical frequencies rather than streams.
func TestAliasCDFAgree(t *testing.T) {
	weights := []float64{0.5, 9, 3.25, 0, 7, 1, 1, 2.5}
	alias := mustAlias(t, weights)
	total := 0.0
	for _, w := range weights {
		total += w
	}
	const samples = 300000
	counts := make([]float64, len(weights))
	r := xrand.New(2)
	for i := 0; i < samples; i++ {
		counts[alias.Sample(r)]++
	}
	var cumW, cumC float64
	for i, w := range weights {
		cumW += w
		cumC += counts[i]
		if fa, fw := counts[i]/samples, w/total; math.Abs(fa-fw) > 0.01 {
			t.Fatalf("category %d: alias %.4f vs exact %.4f", i, fa, fw)
		}
		if fa, fw := cumC/samples, cumW/total; math.Abs(fa-fw) > 0.01 {
			t.Fatalf("cdf at %d: alias %.4f vs exact %.4f", i, fa, fw)
		}
	}
	if counts[3] != 0 {
		t.Fatalf("zero-weight category 3 drawn %v times", counts[3])
	}
}

func benchWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(1 + i%10)
	}
	return w
}

func BenchmarkAliasSample(b *testing.B) {
	a, _ := NewAlias(benchWeights(10000))
	r := xrand.New(1)
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += a.Sample(r)
	}
	_ = sink
}

// BenchmarkAliasBuild times one NewAlias over the paper's n = 10^4
// ten-class weights and over one 15,625-bin binomial shard (a
// 10^6-bin array in 64 shards), reporting ns per bin; B/op is the
// table, its columns (8 B/bin) and the small/large mask (n/8 bytes).
func BenchmarkAliasBuild(b *testing.B) {
	for _, c := range []struct {
		name string
		w    []float64
	}{
		{"n=10000", benchWeights(10000)},
		{"binomial-shard", binomialWeights(15625, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewAlias(c.w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(c.w)), "ns/bin")
		})
	}
}

// TestThresholdOfNearOne: for p within a few ulps of 1 the scaled
// product sits at the very top of the uint32 range; the conversion must
// saturate at the maximum threshold (near-certain acceptance), never
// wrap around to a tiny threshold (certain alias redirect). p = 1−2⁻³⁴
// is the regression pin: its exact product is 2³² − 0.25.
func TestThresholdOfNearOne(t *testing.T) {
	cases := []struct {
		name string
		p    float64
		want uint32
	}{
		{"1-2^-34", 1 - 0x1p-34, ^uint32(0)},
		{"largest-below-1", math.Nextafter(1, 0), ^uint32(0)},
		{"exactly-1", 1, ^uint32(0)},
		{"above-1", 1 + 0x1p-16, ^uint32(0)},
		{"half", 0.5, 1 << 31},
		{"zero", 0, 0},
		{"tiny", 0x1p-40, 0}, // rounds down: below one threshold step
	}
	for _, c := range cases {
		if got := thresholdOf(c.p); got != c.want {
			t.Errorf("thresholdOf(%s) = %d, want %d", c.name, got, c.want)
		}
	}
	// A table built with a near-1 acceptance column must accept nearly
	// always: weights {1, 2^-40} give column 0 acceptance ~1−2^-40.
	a, err := NewAlias([]float64{1, 0x1p-40})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(123)
	hits := 0
	for i := 0; i < 100000; i++ {
		if a.Sample(r) == 1 {
			hits++
		}
	}
	if hits > 2 {
		t.Fatalf("near-zero-weight index drawn %d times in 1e5 samples", hits)
	}
}

// TestSampleNStreamContract: SampleN(n) must consume exactly
// ceil(n/2) draws and reproduce the concatenation of floor(n/2)
// Sample2 calls plus, for odd n, one Sample call — the packing the
// d = 3 and d = 4 kernels rely on.
func TestSampleNStreamContract(t *testing.T) {
	weights := []float64{5, 1, 3, 0.5, 2, 8, 0.25, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8} {
		r1 := xrand.New(999)
		out := make([]int, n)
		a.SampleN(r1, out)

		r2 := xrand.New(999)
		want := make([]int, 0, n)
		for len(want)+1 < n {
			i, j := a.Sample2(r2)
			want = append(want, i, j)
		}
		if len(want) < n {
			want = append(want, a.Sample(r2))
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("n=%d: SampleN[%d] = %d, reference %d", n, i, out[i], want[i])
			}
		}
		if *r1 != *r2 {
			t.Fatalf("n=%d: RNG states diverge (draw counts differ)", n)
		}
	}
	// Sample3 and Sample4 are the flattened kernels of the same packing.
	r1, r2 := xrand.New(31), xrand.New(31)
	x0, x1, x2 := a.Sample3(r1)
	out := make([]int, 3)
	a.SampleN(r2, out)
	if x0 != out[0] || x1 != out[1] || x2 != out[2] || *r1 != *r2 {
		t.Fatal("Sample3 diverges from SampleN(3)")
	}
	r1, r2 = xrand.New(32), xrand.New(32)
	y0, y1, y2, y3 := a.Sample4(r1)
	out = make([]int, 4)
	a.SampleN(r2, out)
	if y0 != out[0] || y1 != out[1] || y2 != out[2] || y3 != out[3] || *r1 != *r2 {
		t.Fatal("Sample4 diverges from SampleN(4)")
	}
}

// TestSampleBatchStreamContract: SampleBatch(d) over b balls must
// reproduce, ball for ball, d SampleN candidates followed by one raw
// Uint64 tie draw — the exact per-ball draw order of the greedy
// kernels — and consume exactly b·(ceil(d/2)+1) advances.
func TestSampleBatchStreamContract(t *testing.T) {
	weights := []float64{5, 1, 3, 0.5, 2, 8, 0.25, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{1, 2, 3, 4, 5, 7} {
		for _, b := range []int{1, 2, 17} {
			r1 := xrand.New(uint64(1000*d + b))
			cand := make([]int, d*b)
			tie := make([]uint64, b)
			a.SampleBatch(r1, d, cand, tie)

			r2 := xrand.New(uint64(1000*d + b))
			wantCand := make([]int, d)
			for ball := 0; ball < b; ball++ {
				a.SampleN(r2, wantCand)
				for i, w := range wantCand {
					if cand[ball*d+i] != w {
						t.Fatalf("d=%d b=%d: ball %d candidate %d = %d, reference %d",
							d, b, ball, i, cand[ball*d+i], w)
					}
				}
				if u := r2.Uint64(); tie[ball] != u {
					t.Fatalf("d=%d b=%d: ball %d tie draw %#x, reference %#x",
						d, b, ball, tie[ball], u)
				}
			}
			if *r1 != *r2 {
				t.Fatalf("d=%d b=%d: RNG states diverge (draw counts differ)", d, b)
			}
		}
	}
}

func TestSampleBatchPanicsOnSizeMismatch(t *testing.T) {
	a, err := NewAlias([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		d          int
		cand, ties int
	}{
		{0, 0, 0},
		{2, 3, 2},
		{3, 3, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SampleBatch(d=%d, %d cand, %d ties) did not panic",
						bad.d, bad.cand, bad.ties)
				}
			}()
			a.SampleBatch(xrand.New(1), bad.d, make([]int, bad.cand), make([]uint64, bad.ties))
		}()
	}
}

// TestSampleNMatchesDistribution: chi-square agreement of the packed
// multi-candidate draws with the build weights, on skewed and
// near-degenerate vectors — every position of the packed draw must
// carry the same marginal as Sample.
func TestSampleNMatchesDistribution(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
	}{
		{"skewed", []float64{1000, 1, 1, 1, 1}},
		{"near-degenerate", []float64{1, 1e-7, 1e-7}},
		{"paper-two-class", []float64{1, 1, 1, 1, 1, 10, 10, 10, 10, 10}},
		{"with-zeros", []float64{0, 4, 0, 6, 0, 2}},
	}
	// 99.9% chi-square quantiles by degrees of freedom.
	quantile := map[int]float64{
		1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47,
		5: 20.52, 6: 22.46, 7: 24.32, 8: 26.12, 9: 27.88,
	}
	const rounds = 60000
	for _, tc := range cases {
		a, err := NewAlias(tc.weights)
		if err != nil {
			t.Fatal(err)
		}
		r := xrand.New(0x5a5a)
		// draw in packs of 3 and 4, counting every position
		counts := make([]int, len(tc.weights))
		buf := make([]int, 4)
		samples := 0
		for i := 0; i < rounds; i++ {
			n := 3 + i%2
			a.SampleN(r, buf[:n])
			for _, idx := range buf[:n] {
				counts[idx]++
			}
			samples += n
		}
		nonzero := 0
		for i, w := range tc.weights {
			if w > 0 {
				nonzero++
			} else if counts[i] != 0 {
				t.Fatalf("%s: zero-weight index %d drawn %d times", tc.name, i, counts[i])
			}
		}
		// near-degenerate weights have expected counts far below the
		// chi-square validity floor for the tiny categories; fall back
		// to a direct frequency bound there.
		if tc.name == "near-degenerate" {
			f := float64(counts[1]+counts[2]) / float64(samples)
			if f > 1e-5 {
				t.Fatalf("%s: tiny categories frequency %v", tc.name, f)
			}
			continue
		}
		chi2 := chiSquare(counts, tc.weights, samples)
		if lim := quantile[nonzero-1]; chi2 > lim {
			t.Errorf("%s: chi-square %.2f > %.2f (counts %v)", tc.name, chi2, lim, counts)
		}
	}
}

// TestAliasRebuildParity: Rebuild gives exactly NewAlias's columns —
// over shorter, longer and equal-length weights, zero weights included
// — keeps its scratch so a rebuild within the capacity allocates
// nothing, and leaves the table unchanged when it rejects its weights.
func TestAliasRebuildParity(t *testing.T) {
	r := xrand.New(3)
	random := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			if r.Intn(4) > 0 {
				w[i] = r.Float64() * 10
			}
		}
		w[r.Intn(n)] = 1
		return w
	}
	tab, err := NewAlias(random(50))
	if err != nil {
		t.Fatal(err)
	}
	if tab.mask != nil {
		t.Fatal("NewAlias kept its mask")
	}
	for _, n := range []int{50, 1, 17, 200, 200, 3, 64} {
		w := random(n)
		if err := tab.Rebuild(w); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewAlias(w)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(tab.cols, fresh.cols) {
			t.Fatalf("n = %d: rebuilt columns differ from a fresh build", n)
		}
	}
	w := random(64)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := tab.Rebuild(w); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Rebuild within capacity allocates %v times", allocs)
	}
	before := slices.Clone(tab.cols)
	for _, bad := range [][]float64{nil, {0, 0, 0}, {1, -1}, {1, math.NaN()}} {
		_, want := NewAlias(bad)
		if err := tab.Rebuild(bad); err == nil || err.Error() != want.Error() {
			t.Fatalf("Rebuild(%v) = %v, want %v", bad, err, want)
		}
		if !slices.Equal(tab.cols, before) {
			t.Fatalf("a rejected Rebuild(%v) changed the table", bad)
		}
	}
}
