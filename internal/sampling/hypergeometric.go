// Hypergeometric and multivariate-hypergeometric count generation: the
// without-replacement twin of binomial.go. Drawing d items uniformly
// without replacement from categories holding counts c_i gives a
// multivariate-hypergeometric count vector; splitting it over a
// balanced interval tree, the left half's count given the node's total
// is Hypergeometric(N_node, N_left, d_node) — the same conditional
// decomposition as Multinomial, in O(k) draws for k categories instead
// of one O(log k) tree descent per item.
//
// Both samplers follow Binomial's contract: exact up to float64
// rounding of their log-factorial ratios, deterministic for a
// fixed RNG state, algorithm chosen from the parameters only, forced
// outcomes consume no draws, and no product is fused into an add.
package sampling

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// hinCutoff is the mean (after both reflections) below which
// Hypergeometric walks the pmf by inversion (HIN); at or above it the
// HRUA ratio-of-uniforms sampler is faster.
const hinCutoff = 10

// Ratio-of-uniforms hat constants of HRUA (Stadlober 1989):
// hruaD1 = 2·sqrt(2/e), hruaD2 = 3 − 2·sqrt(3/e).
const (
	hruaD1 = 1.7155277699214135
	hruaD2 = 0.8989161620588988
)

// Hypergeometric returns one exact sample of the number of marked items
// among n drawn uniformly without replacement from a population of N
// items, K of them marked (0 <= K <= N, 0 <= n <= N).
//
// Draw-consumption contract (part of the stream engine's pinned
// deletion-routing layout): forced outcomes — n == 0 or K == 0
// (returns 0), K == N (returns n) and n == N (returns K) — consume NO
// draws; every other case consumes a data-dependent but deterministic
// number of 64-bit advances. The sample is taken for m = min(K, N−K)
// marked items and s = min(n, N−n) draws and reflected back; algorithm
// selection (HIN inversion for mean s·m/N < hinCutoff, HRUA otherwise)
// depends only on (N, K, n), never on the draws. It allocates nothing.
func Hypergeometric(r *xrand.Rand, N, K, n int64) int64 {
	if K < 0 || K > N || n < 0 || n > N {
		panic(fmt.Sprintf("sampling: Hypergeometric with N = %d, K = %d, n = %d", N, K, n))
	}
	switch {
	case n == 0 || K == 0:
		return 0
	case K == N:
		return n
	case n == N:
		return K
	}
	m, s := min(K, N-K), min(n, N-n)
	var x int64
	if float64(s)*float64(m)/float64(N) < hinCutoff {
		x = hypergeometricInv(r, N, m, s)
	} else {
		x = hypergeometricHRUA(r, N, m, s)
	}
	if m != K {
		x = s - x // x counted the unmarked items among the s drawn
	}
	if s != n {
		x = K - x // the s drawn are the complement of the n drawn
	}
	return x
}

// hypergeometricInv is HIN sequential inversion: one uniform walks the
// pmf recurrence f(x)/f(x−1) = (m−x+1)(s−x+1) / (x·(N−m−s+x)) up from
// f(0) = C(N−m, s)/C(N, s). Requires m, s <= N/2 and mean s·m/N below
// hinCutoff, which keeps f(0) far above float64 underflow (at
// m = s = N/2 = 19 it is 1/C(38, 19) ≈ 3e-11) and the expected walk at
// ~mean steps. A walk that runs past min(m, s) (float residue of the
// recurrence summing below 1) restarts with a fresh uniform —
// deterministic, vanishingly rare.
func hypergeometricInv(r *xrand.Rand, N, m, s int64) int64 {
	// f(0) = C(N−m, s)/C(N, s) = C(N−s, m)/C(N, m): take the form whose
	// two ratios span the shorter run, min(m, s) factors each.
	hi, long := min(m, s), max(m, s)
	base := math.Exp(lnFactRatio(N-long, N-long-hi) - lnFactRatio(N, N-hi))
	for {
		u := float64(r.Float64())
		p := base
		var x int64
		for u > p {
			u -= p
			x++
			if x > hi {
				break
			}
			p *= float64(m-x+1) * float64(s-x+1) / (float64(x) * float64(N-m-s+x))
		}
		if x <= hi {
			return x
		}
	}
}

// hypergeometricHRUA is Stadlober's HRUA ratio-of-uniforms sampler
// with Frohne's correction (the form NumPy uses): a proposal
// X = a + h·(V − 1/2)/U from the "table mountain" hat around the mean
// is accepted against the pmf scaled to 1 at the mode, with a quadratic
// squeeze on each side of the log test. Requires m, s <= N/2. Unlike
// NumPy it does not truncate proposals 16 standard deviations out, so
// the hat covers the whole support and the law is exact; such far
// proposals simply reject on the full test. U == 0 proposals reject.
func hypergeometricHRUA(r *xrand.Rand, N, m, s int64) int64 {
	nf, mf, sf := float64(N), float64(m), float64(s)
	p := mf / nf
	q := float64(N-m) / nf
	a := float64(sf*p) + 0.5
	c := math.Sqrt(float64(N-s)*sf*p*q/float64(N-1) + 0.5)
	h := float64(hruaD1*c) + hruaD2
	mode := int64(math.Floor((sf + 1) * (mf + 1) / (nf + 2)))
	// lnRatio(k) = ln f(k)/f(mode) = ln mode!(m−mode)!(s−mode)!(N−m−s+mode)!
	// − ln k!(m−k)!(s−k)!(N−m−s+k)!, one ratio per factorial pair.
	rest := N - m - s
	lnRatio := func(k int64) float64 {
		return lnFactRatio(mode, k) + lnFactRatio(m-mode, m-k) +
			lnFactRatio(s-mode, s-k) + lnFactRatio(rest+mode, rest+k)
	}
	b := float64(min(m, s) + 1)
	for {
		// Float64 is a scaled product; the conversions keep it out of
		// the adds below on compilers that fuse.
		u := float64(r.Float64())
		v := float64(r.Float64())
		if u == 0 {
			continue
		}
		x := a + h*(v-0.5)/u
		if x < 0 || x >= b {
			continue
		}
		k := int64(x)
		t := lnRatio(k)
		if float64(u*(4-u))-3 <= t {
			return k // squeeze accept: 2·log(u) <= u(4−u) − 3
		}
		if u*(u-t) >= 1 {
			continue // squeeze reject: 2·log(u) >= u − 1/u
		}
		if 2*math.Log(u) <= t {
			return k
		}
	}
}

// stirlerrMin is the smallest argument stirlerr's series serves; below
// it lgamma is small enough to subtract directly.
const stirlerrMin = 16

// lnFactRatio returns ln(a!/b!) for a, b >= 0. Unlike
// lgamma(a+1) − lgamma(b+1) it does not cancel: two lgammas of ~a·ln a
// lose more digits of their difference the larger a grows (every digit
// by a = 2^60, where lgamma's ulp is 2^13). With Stirling's
// ln x! = (x+½)·ln x − x + ln√(2π) + stirlerr(x), the large parts
// subtract exactly:
//
//	ln(a!/b!) = (a−b)·ln a − (b+½)·log1p((b−a)/a) − (a−b) + stirlerr(a) − stirlerr(b),
//
// whose terms are at most of the order of (a−b)·ln a. Below
// stirlerrMin, b! is small and lgamma serves.
func lnFactRatio(a, b int64) float64 {
	switch {
	case a == b:
		return 0
	case a < b:
		return -lnFactRatio(b, a)
	case b < stirlerrMin:
		return lgamma(float64(a+1)) - lgamma(float64(b+1))
	}
	af, bf, d := float64(a), float64(b), float64(a-b)
	return float64(d*math.Log(af)) - float64((bf+0.5)*math.Log1p(-d/af)) - d + stirlerr(af) - stirlerr(bf)
}

// stirlerr is ln x! − ((x+½)·ln x − x + ln√(2π)), the error of
// Stirling's formula, by its asymptotic series; for x >= stirlerrMin
// five terms are exact to float64 rounding (Loader 2000).
func stirlerr(x float64) float64 {
	const s0, s1, s2, s3, s4 = 1.0 / 12, 1.0 / 360, 1.0 / 1260, 1.0 / 1680, 1.0 / 1188
	xx := x * x
	return (s0 - (s1-(s2-(s3-s4/xx)/xx)/xx)/xx) / x
}

// MultiHypergeometric overwrites out (length len(counts)) with one
// exact multivariate-hypergeometric sample: out[i] is the number of
// items of category i among d items drawn uniformly without
// replacement from a population of counts[i] items of each category i.
// Σ out = d, and out[i] <= counts[i].
//
// The split follows Multinomial's balanced interval tree: the node
// covering [lo, hi) with total N_node and count d_node gives its left
// half [lo, (lo+hi)/2) a count of Hypergeometric(N_node, N_left,
// d_node), in preorder. A subtree handed 0 is zeroed without a draw
// (and Hypergeometric's forced outcomes draw nothing), so drawing every
// item (d == Σ counts) consumes no draws at all and the draw sequence
// is a deterministic function of (counts, d) and the RNG state. Node
// totals are summed on the way down (O(k log k) integer adds, no
// scratch), so it allocates nothing. It panics on a negative count, a
// total above MaxInt64, or d outside [0, Σ counts].
func MultiHypergeometric(r *xrand.Rand, counts []int64, d int64, out []int64) {
	if len(out) != len(counts) {
		panic(fmt.Sprintf("sampling: MultiHypergeometric into %d counts for %d categories", len(out), len(counts)))
	}
	var total int64
	for i, c := range counts {
		if c < 0 || c > math.MaxInt64-total {
			panic(fmt.Sprintf("sampling: MultiHypergeometric with count %d at index %d (total so far %d)", c, i, total))
		}
		total += c
	}
	if d < 0 || d > total {
		panic(fmt.Sprintf("sampling: MultiHypergeometric drawing %d of %d", d, total))
	}
	if len(counts) > 0 {
		multiHypergeometric(r, counts, total, d, 0, len(counts), out)
	}
}

func multiHypergeometric(r *xrand.Rand, counts []int64, total, d int64, lo, hi int, out []int64) {
	if hi-lo == 1 {
		out[lo] = d
		return
	}
	if d == 0 {
		clear(out[lo:hi])
		return
	}
	mid := (lo + hi) / 2
	var left int64
	for _, c := range counts[lo:mid] {
		left += c
	}
	dl := Hypergeometric(r, total, left, d)
	multiHypergeometric(r, counts, left, dl, lo, mid, out)
	multiHypergeometric(r, counts, total-left, d-dl, mid, hi, out)
}
