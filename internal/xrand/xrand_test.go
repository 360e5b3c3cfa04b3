package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

// TestSplitMix64ReferenceVectors checks the first outputs of splitmix64
// for seed 0 and seed 1234567 against the published reference values of
// Steele, Lea and Flood's algorithm (as used by Vigna's seeding code).
func TestSplitMix64ReferenceVectors(t *testing.T) {
	cases := []struct {
		seed uint64
		want []uint64
	}{
		{0, []uint64{
			0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4,
			0x06c45d188009454f, 0xf88bb8a8724c81ec,
		}},
		{1234567, []uint64{
			0x599ed017fb08fc85, 0x2c73f08458540fa5,
			0x883ebce5a3f27c77, 0x3fbef740e9177b3f,
		}},
	}
	for _, c := range cases {
		state := c.seed
		for i, want := range c.want {
			got := SplitMix64(&state)
			if got != want {
				t.Errorf("SplitMix64 seed=%d output %d = %#016x, want %#016x",
					c.seed, i, got, want)
			}
		}
	}
}

// TestXoshiroNonDegenerate ensures seeding never yields the all-zero state
// (which would be a fixed point emitting only zeros).
func TestXoshiroNonDegenerate(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0xffffffffffffffff, 42} {
		r := New(seed)
		if r.s0 == 0 && r.s1 == 0 && r.s2 == 0 && r.s3 == 0 {
			t.Fatalf("seed %d produced all-zero state", seed)
		}
	}
}

// TestDeterminism: same seed, same stream; different seeds, different
// streams (with overwhelming probability).
func TestDeterminism(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
	c, d := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-seed streams agree on %d of 1000 outputs", same)
	}
}

// TestMix64Distinct: stream derivation must give distinct seeds for
// distinct (seed, index) pairs in a realistic range.
func TestMix64Distinct(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 8; seed++ {
		for idx := uint64(0); idx < 1024; idx++ {
			v := Mix64(seed, idx)
			if seen[v] {
				t.Fatalf("Mix64 collision at seed=%d idx=%d", seed, idx)
			}
			seen[v] = true
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(7)
	for _, n := range []uint64{1, 2, 3, 10, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

// TestUint64nUniform applies a chi-square goodness-of-fit test over a
// small modulus; the statistic threshold is the 99.9% quantile so the test
// is deterministic (fixed seed) and extremely unlikely to be wrong about a
// correct generator.
func TestUint64nUniform(t *testing.T) {
	const n, samples = 10, 100000
	r := New(20240611)
	var counts [n]int
	for i := 0; i < samples; i++ {
		counts[r.Uint64n(n)]++
	}
	expected := float64(samples) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 99.9% quantile of chi-square with 9 degrees of freedom ~ 27.88.
	if chi2 > 27.88 {
		t.Fatalf("chi-square = %.2f exceeds 27.88; counts = %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const nSamples = 100000
	for i := 0; i < nSamples; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
	}
	mean := sum / nSamples
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f too far from 0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(3)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(17)
	const p, nSamples = 0.3, 200000
	hits := 0
	for i := 0; i < nSamples; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / nSamples
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%.1f) frequency %.4f", p, got)
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(23)
	if v := r.Binomial(0, 0.5); v != 0 {
		t.Fatalf("Binomial(0, .5) = %d", v)
	}
	if v := r.Binomial(10, 0); v != 0 {
		t.Fatalf("Binomial(10, 0) = %d", v)
	}
	if v := r.Binomial(10, 1); v != 10 {
		t.Fatalf("Binomial(10, 1) = %d", v)
	}
}

func TestBinomialPanicsOnNegativeN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Binomial(-1, .5) did not panic")
		}
	}()
	New(1).Binomial(-1, 0.5)
}

// TestBinomialMoments checks mean and variance of Bin(7, p) — exactly the
// generator the paper's randomised capacities use.
func TestBinomialMoments(t *testing.T) {
	r := New(31)
	const n, p, samples = 7, 3.0 / 7.0, 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < samples; i++ {
		v := float64(r.Binomial(n, p))
		sum += v
		sumSq += v * v
	}
	mean := sum / samples
	variance := sumSq/samples - mean*mean
	wantMean := n * p
	wantVar := n * p * (1 - p)
	if math.Abs(mean-wantMean) > 0.03 {
		t.Fatalf("Binomial mean %.3f, want %.3f", mean, wantMean)
	}
	if math.Abs(variance-wantVar) > 0.05 {
		t.Fatalf("Binomial variance %.3f, want %.3f", variance, wantVar)
	}
}

// Property: Uint64n(n) < n for arbitrary seeds and moduli.
func TestQuickUint64nInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint64) bool {
		n := nRaw%(1<<32) + 1
		r := New(seed)
		for i := 0; i < 16; i++ {
			if r.Uint64n(n) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: streams derived with NewStream are reproducible functions of
// (seed, index).
func TestQuickStreamReproducible(t *testing.T) {
	f := func(seed, index uint64) bool {
		a := NewStream(seed, index)
		b := NewStream(seed, index)
		for i := 0; i < 8; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Binomial stays within [0, n].
func TestQuickBinomialRange(t *testing.T) {
	f := func(seed uint64, nRaw uint8, p float64) bool {
		n := int(nRaw % 32)
		pp := math.Mod(math.Abs(p), 1)
		v := New(seed).Binomial(n, pp)
		return v >= 0 && v <= n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkUint64n(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64n(10007)
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}

// TestNewBlockStream pins the two-level substream derivation used by
// the block-wise routing pass: NewBlockStream(seed, index, block) is
// exactly New(Mix64(Mix64(seed, index), block)), distinct blocks give
// distinct streams, and block streams never collide with the plain
// per-index streams of the same seed.
func TestNewBlockStream(t *testing.T) {
	const seed = 99
	seen := map[uint64]string{}
	for index := uint64(0); index < 4; index++ {
		if v := NewStream(seed, index).Uint64(); seen[v] != "" {
			t.Fatalf("stream collision with %s", seen[v])
		} else {
			seen[v] = "stream"
		}
		for block := uint64(0); block < 4; block++ {
			want := New(Mix64(Mix64(seed, index), block))
			got := NewBlockStream(seed, index, block)
			if *got != *want {
				t.Fatalf("(%d,%d): state differs from documented composition", index, block)
			}
			if v := got.Uint64(); seen[v] != "" {
				t.Fatalf("(%d,%d) collides with a %s", index, block, seen[v])
			} else {
				seen[v] = "block stream"
			}
		}
	}
}

// TestRoundWindowStreams pins the round-windowed substream layout the
// streaming engine freezes on top of this package: round r of a run
// with S shards owns the top-level stream indices
// [r·(3S+2), (r+1)·(3S+2)) — arrival routing, S placement streams,
// deletion shard-routing, S deletion streams, S move-out streams —
// and every stream in every window must be distinct, across rounds
// and across the plain single-run layout (whose round-0 window it is).
func TestRoundWindowStreams(t *testing.T) {
	const (
		seed   = 20260808
		shards = 4
		rounds = 6
		k      = 3*shards + 2
	)
	seen := map[uint64][2]uint64{}
	for r := uint64(0); r < rounds; r++ {
		base := r * k
		for j := uint64(0); j < k; j++ {
			v := NewStream(seed, base+j).Uint64()
			if prev, dup := seen[v]; dup {
				t.Fatalf("stream (round %d, offset %d) collides with (round %d, offset %d)",
					r, j, prev[0], prev[1])
			}
			seen[v] = [2]uint64{r, j}
		}
	}
}
