// Binomial and multinomial count generation: the substrate of the
// block-wise routing pass in internal/sim. Instead of drawing one
// categorical sample per ball and keeping only the counts, the sharded
// engines generate the count vector of a whole routing block directly —
// the conditional binomial decomposition of Devroye & Los ("An
// asymptotically optimal algorithm for generating bin cardinalities"),
// which produces an exact Multinomial(n, w/W) sample in O(k) binomial
// draws instead of O(n) categorical draws.
//
// Both samplers are exact (no normal approximation anywhere) and
// deterministic: for a fixed RNG state the draw sequence is a pure
// function of (n, p) resp. (n, weights). They trade the last ulp of
// cross-architecture float identity for speed only in their math
// package calls (math.Exp, math.Log, math.Lgamma), whose amd64 code
// may take a CPU-dependent FMA path; the engines give every routing
// block its own dedicated substream, so block results never depend on
// another block's draw count.
package sampling

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// binvCutoff is the n·min(p,1-p) threshold below which Binomial uses
// sequential inversion (BINV); above it the BTRS rejection sampler is
// both faster and numerically safe (it requires n·p >= 10).
const binvCutoff = 30

// Binomial returns one exact sample of Binomial(n, p).
//
// Draw-consumption contract (part of the pinned stream layout): forced
// outcomes — n == 0, p <= 0 (returns 0) and p >= 1 (returns n) —
// consume NO draws; every other case consumes a data-dependent but
// deterministic number of 64-bit advances. Algorithm selection (BINV
// inversion for n·min(p,1-p) <= 30, the BTRS transformed-rejection
// sampler of Hörmann otherwise, with the p > 1/2 cases reflected
// through n − Binomial(n, 1−p)) depends only on (n, p), never on the
// draws.
func Binomial(r *xrand.Rand, n int64, p float64) int64 {
	if n < 0 {
		panic(fmt.Sprintf("sampling: Binomial with n = %d", n))
	}
	if p != p || p < 0 || p > 1 {
		panic(fmt.Sprintf("sampling: Binomial with p = %v", p))
	}
	if n == 0 || p == 0 {
		return 0
	}
	if p == 1 {
		return n
	}
	pp, flip := p, false
	if p > 0.5 {
		pp, flip = 1-p, true
	}
	var k int64
	if float64(n)*pp <= binvCutoff {
		k = binomialInv(r, n, pp)
	} else {
		k = binomialBTRS(r, n, pp)
	}
	if flip {
		k = n - k
	}
	return k
}

// binomialInv is the classic BINV sequential inversion: one uniform
// walks the pmf recurrence from k = 0. Requires p <= 1/2 and
// n·p <= binvCutoff, so q^n >= e^(-2·binvCutoff) never underflows and
// the expected walk length stays ~n·p. A walk that runs past n (float
// residue of the pmf recurrence summing below 1) restarts with a fresh
// uniform — deterministic, vanishingly rare.
func binomialInv(r *xrand.Rand, n int64, p float64) int64 {
	q := 1 - p
	s := p / q
	a := float64(n+1) * s
	base := math.Exp(float64(n) * math.Log(q))
	for {
		u := r.Float64()
		rr := base
		var x int64
		for u > rr {
			u -= rr
			x++
			if x > n {
				break
			}
			rr *= a/float64(x) - s
		}
		if x <= n {
			return x
		}
	}
}

// lgamma is math.Lgamma without the sign result (all arguments here
// are >= 1, where the gamma function is positive).
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// binomialBTRS is Hörmann's BTRS sampler (transformed rejection with
// the one built-in immediate-accept region, no further squeeze steps):
// the integer transform k = floor((2a/(1/2−|u|) + b)·u + c) of a
// uniform u maps the dominating density onto the binomial pmf so that
// ~80-90% of proposals accept, most of them in the first branch with a
// single uniform and no transcendental call. Requires p <= 1/2 and
// n·p > binvCutoff (the constants need n·p >= 10).
func binomialBTRS(r *xrand.Rand, n int64, p float64) int64 {
	nf := float64(n)
	q := 1 - p
	spq := math.Sqrt(nf * p * q)
	b := 1.15 + float64(2.53*spq)
	a := -0.0873 + float64(0.0248*b) + float64(0.01*p)
	c := float64(nf*p) + 0.5
	vr := 0.92 - 4.2/b
	urvr := 0.86 * vr
	alpha := (2.83 + 5.1/b) * spq
	lpq := math.Log(p / q)
	mode := math.Floor((nf + 1) * p)
	h := lgamma(mode+1) + lgamma(nf-mode+1)
	for {
		v := r.Float64()
		if v <= urvr {
			// Immediate accept: for n·p >= 10 the transform of this
			// region lands inside [0, n]; the clamp only guards float
			// rounding at the region edge.
			u := v/vr - 0.43
			k := math.Floor(float64((2*a/(0.5-math.Abs(u))+b)*u) + c)
			if k < 0 {
				k = 0
			} else if k > nf {
				k = nf
			}
			return int64(k)
		}
		var u float64
		if v >= vr {
			u = float64(r.Float64()) - 0.5
		} else {
			u = v/vr - 0.93
			u = math.Copysign(0.5, u) - u
			v = vr * r.Float64()
		}
		us := 0.5 - math.Abs(u)
		k := math.Floor(float64((2*a/us+b)*u) + c)
		if k < 0 || k > nf {
			continue
		}
		v = v * alpha / (a/(us*us) + b)
		if math.Log(v) <= h-lgamma(k+1)-lgamma(nf-k+1)+float64((k-mode)*lpq) {
			return int64(k)
		}
	}
}

// Multinomial generates exact Multinomial(n, w/W) count vectors over k
// categories in O(k) binomial draws, by recursive conditional binomial
// splitting over a balanced interval tree: the count of the left half
// of an interval given the interval's total is Binomial(total,
// W_left/W_interval), recursively down to single categories. Node
// split probabilities are precomputed at build; Draw touches only them
// plus the caller's RNG and output, so one Multinomial is safe to
// share across concurrent Draw calls with distinct RNGs and outputs.
type Multinomial struct {
	k int
	// pLeft holds the left-half split probability of every internal
	// node of the interval tree, in preorder: the node covering
	// [lo, hi) at index i has its left child ([lo, mid)) at i+1 and
	// its right child ([mid, hi)) at i+(mid-lo) — an interval of
	// length L contains exactly L−1 internal nodes, so the layout is
	// dense with no child pointers.
	pLeft []float64
	// prefix is Rebuild's prefix-sum scratch, kept for the next Rebuild;
	// nil on a Multinomial that was never rebuilt.
	prefix []float64
}

// NewMultinomial builds the splitting tree for the given non-negative
// weights (same validation as the other samplers: at least one weight
// must be positive). Zero-weight categories always receive count 0.
func NewMultinomial(weights []float64) (*Multinomial, error) {
	if _, err := validateWeights(weights); err != nil {
		return nil, err
	}
	k := len(weights)
	m := &Multinomial{k: k, pLeft: make([]float64, k-1)}
	if k > 1 {
		m.split(weights, make([]float64, k+1))
	}
	return m, nil
}

// Rebuild recomputes the splitting tree in place over new weights for
// the same K categories, with NewMultinomial's validation and
// probabilities. Its prefix-sum scratch stays on the Multinomial, so
// every Rebuild after the first allocates nothing. On an error m is
// unchanged. Like the build, it must not run concurrently with Draw.
func (m *Multinomial) Rebuild(weights []float64) error {
	if len(weights) != m.k {
		return fmt.Errorf("sampling: Multinomial.Rebuild with %d weights for %d categories", len(weights), m.k)
	}
	if _, err := validateWeights(weights); err != nil {
		return err
	}
	if m.k > 1 {
		if m.prefix == nil {
			m.prefix = make([]float64, m.k+1)
		}
		m.split(weights, m.prefix)
	}
	return nil
}

// split fills pLeft from weights, with prefix (length K+1) as scratch.
func (m *Multinomial) split(weights, prefix []float64) {
	// prefix[i] = Σ weights[:i]; computed once, left to right, so every
	// node's interval weight is an exact difference of two monotone
	// prefix values and pLeft never exceeds 1.
	for i, w := range weights {
		prefix[i+1] = prefix[i] + w
	}
	m.build(prefix, 0, 0, m.k)
}

func (m *Multinomial) build(prefix []float64, node, lo, hi int) {
	if hi-lo <= 1 {
		return
	}
	mid := (lo + hi) / 2
	wl := prefix[mid] - prefix[lo]
	wt := prefix[hi] - prefix[lo]
	p := 0.0
	if wt > 0 {
		p = wl / wt
	}
	m.pLeft[node] = p
	m.build(prefix, node+1, lo, mid)
	m.build(prefix, node+(mid-lo), mid, hi)
}

// K returns the number of categories.
func (m *Multinomial) K() int { return m.k }

// Draw overwrites out (length K()) with one exact Multinomial(n, w/W)
// sample: Σ out = n always, and out[i] = 0 whenever weight i is 0.
//
// Draw-consumption contract: a subtree handed count 0 is zeroed
// without consuming a single draw (and forced binomial splits — a
// zero-weight half — consume none either, per Binomial), so the draw
// sequence is a deterministic function of (n, weights) and the RNG
// state. The routing pass pins this via its block substreams.
func (m *Multinomial) Draw(r *xrand.Rand, n int64, out []int64) {
	if len(out) != m.k {
		panic(fmt.Sprintf("sampling: Multinomial.Draw into %d counts for %d categories", len(out), m.k))
	}
	if n < 0 {
		panic(fmt.Sprintf("sampling: Multinomial.Draw with n = %d", n))
	}
	m.draw(r, n, 0, 0, m.k, out)
}

func (m *Multinomial) draw(r *xrand.Rand, n int64, node, lo, hi int, out []int64) {
	if hi-lo == 1 {
		out[lo] = n
		return
	}
	if n == 0 {
		for i := lo; i < hi; i++ {
			out[i] = 0
		}
		return
	}
	mid := (lo + hi) / 2
	nl := Binomial(r, n, m.pLeft[node])
	m.draw(r, nl, node+1, lo, mid, out)
	m.draw(r, n-nl, node+(mid-lo), mid, hi, out)
}
