// Package sampling implements discrete weighted sampling, the substrate
// underneath "a ball chooses bin i with probability c_i/C" and every other
// bin-probability distribution in the paper.
//
// One sampler serves every static weight vector: AliasTable, Vose's
// alias method, with an O(n) build using n/8 bytes of working memory
// (or Rebuild in place, allocation-free once rebuilt) and O(1) samples.
// Acceptance tests are integer threshold comparisons, so one Sample
// costs exactly one 64-bit RNG draw: the high product bits of a Lemire
// reduction select the column and the low bits decide column-vs-alias.
// Every placer holds its table as a concrete *AliasTable, so the
// per-ball call is direct and inlinable.
//
// # Alias build without work lists
//
// Vose's build pairs each "small" column (scaled weight below 1) with a
// "large" one, topping the small column up from the large one's
// excess; a large column whose weight drops below 1 turns small. The
// textbook build keeps two stacks of indices for this. Filled from
// index n−1 down to 0, each stack pops its initial columns in
// ascending index order. A large column turned small is pushed onto
// the small stack and popped by the very next pairing; one that stays
// large is pushed back onto the large stack and popped by the very next
// pairing too. So at any moment at most one pushed-back column exists,
// and the stacks' pop order is: that column if there is one, else the
// next initial column in ascending order.
//
// The build therefore needs no stacks: one bit per column (small or
// large, n/64 words) and two ascending cursors over it give the same
// pairings in the same order, hence bit-identical columns. The large
// column in hand and a column just turned small live in registers;
// every other column's scaled weight waits in its own column slot,
// whose 8 bytes are free until the column is final (its bits split
// across thresh and alias). The build's only working memory is the
// mask, which Rebuild keeps for the next build.
//
// The sharded engines generate whole count vectors instead of one index
// per ball:
//
//   - Binomial and Multinomial (binomial.go) split n balls WITH
//     replacement over weighted categories, for arrival routing.
//   - Hypergeometric and MultiHypergeometric (hypergeometric.go) split d
//     draws WITHOUT replacement over integer counts, for deletions.
//     Hypergeometric(r, N, K, n) is the number of marked items among n
//     drawn from N, K of them marked. MultiHypergeometric splits d over
//     counts down Multinomial's balanced interval tree, one
//     Hypergeometric draw per internal node handed a non-zero count.
//   - CountTree (counttree.go) samples and removes single items exactly;
//     BuildNodes and SampleDecNodes run its build and its fused descent
//     on a caller's node slice.
//
// The count generators share one contract: forced outcomes (an empty
// population or sample, a sure category, drawing everything) consume no
// draws, the algorithm is chosen from the parameters alone, and a draw
// allocates nothing. Every product that feeds an add is rounded by an
// explicit float64 conversion, so no compiler may fuse it into a
// multiply-add (scripts/fma_audit.sh checks the arm64 build).
package sampling

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/xrand"
)

// ErrNoWeights is returned when a sampler is built from an empty or
// all-zero weight vector.
var ErrNoWeights = errors.New("sampling: no positive weights")

func validateWeights(weights []float64) (total float64, err error) {
	if len(weights) == 0 {
		return 0, ErrNoWeights
	}
	for i, w := range weights {
		if w < 0 || w != w { // w != w catches NaN
			return 0, fmt.Errorf("sampling: weight %d is invalid (%v)", i, w)
		}
		total += w
	}
	if total <= 0 {
		return 0, ErrNoWeights
	}
	return total, nil
}

// AliasTable samples from a discrete distribution in O(1) using Vose's
// alias method. Weights need not be normalised; zero weights are allowed
// (those indices are simply never returned).
//
// The acceptance probability of each column is stored as a uint32
// threshold scaled to 2^32, so Sample performs a single RNG draw and one
// integer compare: a 32-bit Lemire multiply-shift maps half the draw to
// a column while the product's low bits — uniform residue the reduction
// would otherwise discard — test against the threshold. The quantisation
// error per column is below n/2^32, orders of magnitude under anything a
// Monte-Carlo experiment can resolve.
//
// Threshold and alias index are packed into one 8-byte column so a
// sample touches a single cache line regardless of the accept/alias
// outcome, and the whole table is half the footprint of a split layout —
// for the paper's n = 10^4 arrays the table already exceeds L1, so every
// byte saved is a hot-loop cache miss avoided.
type AliasTable struct {
	cols []aliasCol
	// mask is Rebuild's small/large mask, kept for the next Rebuild;
	// nil on a table that was never rebuilt.
	mask []uint64
}

// aliasCol is one packed column: acceptance threshold (probability ×
// 2^32) plus the alias index taken on rejection. Eight columns per
// cache line.
type aliasCol struct {
	thresh uint32
	alias  int32
}

// thresholdOf converts an acceptance probability to its uint32 threshold.
// The scaled product is clamped below 2^32 before the float64→uint32
// conversion: for p within one ulp of 1 the product sits right at the
// top of the uint32 range, and a conversion of a value >= 2^32 is
// undefined in Go (amd64 yields 0) — which would turn a near-certain
// acceptance into a certain alias redirect.
func thresholdOf(p float64) uint32 {
	if p >= 1 {
		return ^uint32(0)
	}
	if p <= 0 {
		return 0
	}
	f := p * 0x1p32
	if f >= 0x1p32 {
		return ^uint32(0)
	}
	return uint32(f)
}

// NewAlias builds an alias table from the given non-negative weights.
// Besides the table and its columns it allocates only the build's
// small/large mask (n/8 bytes), which it drops: a table that is never
// rebuilt keeps only its columns.
func NewAlias(weights []float64) (*AliasTable, error) {
	total, err := validateWeights(weights)
	if err != nil {
		return nil, err
	}
	t := &AliasTable{cols: make([]aliasCol, len(weights))}
	t.vose(weights, total, make([]uint64, maskWords(len(weights))))
	return t, nil
}

// Rebuild rebuilds the table in place over new weights (of any length)
// with the same validation and the same columns as NewAlias. Its mask
// stays on the table, so rebuilding over weights no longer than any
// earlier ones allocates nothing. On an error the table is unchanged.
func (t *AliasTable) Rebuild(weights []float64) error {
	total, err := validateWeights(weights)
	if err != nil {
		return err
	}
	if cap(t.cols) < len(weights) {
		t.cols = make([]aliasCol, len(weights))
	}
	t.cols = t.cols[:len(weights)]
	w := maskWords(len(weights))
	if cap(t.mask) < w {
		t.mask = make([]uint64, w)
	}
	t.vose(weights, total, t.mask[:w])
	return nil
}

// maskWords is the length of the small/large mask of n columns.
func maskWords(n int) int { return (n + 63) / 64 }

// vose fills every column of t (len(weights) of them) by Vose's alias
// method over weights summing to total, with mask (one bit per column)
// as its only working memory. See the package comment for why the two
// cursors give the work-list build's columns.
func (t *AliasTable) vose(weights []float64, total float64, mask []uint64) {
	n := len(weights)
	cols := t.cols[:n]
	// Scale weights so the average column is exactly 1, parking each
	// scaled weight in its own column until the column is final, and
	// mark the small ones.
	fn := float64(n)
	for k := range mask {
		lo := k * 64
		var word uint64
		for j, w := range weights[lo:min(lo+64, n)] {
			s := w * fn / total
			b := math.Float64bits(s)
			cols[lo+j] = aliasCol{thresh: uint32(b), alias: int32(b >> 32)}
			if s < 1 {
				word |= 1 << uint(j)
			}
		}
		mask[k] = word
	}
	// Two cursors run upward: l over the small columns, g over the
	// large ones. g is also the large column in hand, gs its running
	// scaled weight; p (when >= 0) is a large column just turned
	// small, with weight ps, which the next pairing takes before l's.
	l := nextMarked(mask, 0, n, 0)
	g := nextMarked(mask, 0, n, ^uint64(0))
	var gs, ps float64
	if g < n {
		gs = parked(cols[g])
	}
	p := -1
	for g < n {
		var ls float64
		j := p
		if j >= 0 {
			ls, p = ps, -1
		} else if l < n {
			j, ls = l, parked(cols[l])
			l = nextMarked(mask, l+1, n, 0)
		} else {
			break
		}
		cols[j] = aliasCol{thresh: thresholdOf(ls), alias: int32(g)}
		if gs = (gs + ls) - 1; gs < 1 {
			p, ps = g, gs
			if g = nextMarked(mask, g+1, n, ^uint64(0)); g < n {
				gs = parked(cols[g])
			}
		}
	}
	// Numerical leftovers: one side ran dry with the other's columns at
	// (about) 1, which become certain acceptances.
	for ; g < n; g = nextMarked(mask, g+1, n, ^uint64(0)) {
		cols[g] = aliasCol{thresh: ^uint32(0), alias: int32(g)}
	}
	if p >= 0 {
		cols[p] = aliasCol{thresh: ^uint32(0), alias: int32(p)}
	}
	for ; l < n; l = nextMarked(mask, l+1, n, 0) {
		cols[l] = aliasCol{thresh: ^uint32(0), alias: int32(l)}
	}
}

// parked restores the scaled weight vose parked in a not-yet-final
// column.
func parked(c aliasCol) float64 {
	return math.Float64frombits(uint64(uint32(c.alias))<<32 | uint64(c.thresh))
}

// nextMarked returns the first index in [from, n) whose mask bit,
// XORed with flip's, is set — flip 0 finds small columns, all ones
// large ones — or n when there is none.
func nextMarked(mask []uint64, from, n int, flip uint64) int {
	if from >= n {
		return n
	}
	k := from >> 6
	word := (mask[k] ^ flip) >> uint(from&63) << uint(from&63)
	for word == 0 {
		if k++; k == len(mask) {
			return n
		}
		word = mask[k] ^ flip
	}
	return min(k<<6+bits.TrailingZeros64(word), n)
}

// sampleHi maps the high 32 bits of a 64-bit draw to an index: a 32-bit
// Lemire reduction whose product's high half selects the column and low
// half tests the acceptance threshold.
func (t *AliasTable) sampleHi(u uint64) int {
	p := (u >> 32) * uint64(len(t.cols))
	i := int(p >> 32)
	c := t.cols[i]
	if uint32(p) >= c.thresh {
		i = int(c.alias)
	}
	return i
}

// sampleBoth maps both 32-bit halves of a 64-bit draw to two independent
// indices (high half first). This is the draw-packing core shared by
// Sample2 and SampleN.
func (t *AliasTable) sampleBoth(u uint64) (int, int) {
	n := uint64(len(t.cols))
	p1 := (u >> 32) * n
	p2 := (u & 0xffffffff) * n
	i1 := int(p1 >> 32)
	i2 := int(p2 >> 32)
	c1 := t.cols[i1]
	c2 := t.cols[i2]
	if uint32(p1) >= c1.thresh {
		i1 = int(c1.alias)
	}
	if uint32(p2) >= c2.thresh {
		i2 = int(c2.alias)
	}
	return i1, i2
}

// Sample returns an index distributed according to the build weights.
// It consumes exactly one 64-bit draw: the top 32 bits run the Lemire
// reduction, whose product's high half selects the column and low half
// tests the threshold (the draw's own low 32 bits are unused).
func (t *AliasTable) Sample(r *xrand.Rand) int {
	return t.sampleHi(r.Uint64())
}

// Sample2 returns two independent samples from a single 64-bit draw: the
// d = 2 hot path's whole random budget is one RNG advance per ball. Each
// half of the draw runs a 32-bit Lemire reduction whose low product bits
// test the acceptance threshold; per-sample granularity is n/2^32 — for
// the paper's n <= 10^5 below 10^-4 relative error, invisible to
// Monte-Carlo statistics while keeping the stream fully deterministic.
// The threshold selects via conditional moves, not branches: accept vs
// alias is a coin toss the branch predictor would lose.
func (t *AliasTable) Sample2(r *xrand.Rand) (int, int) {
	return t.sampleBoth(r.Uint64())
}

// Sample3 returns three independent samples from exactly two 64-bit
// draws — the SampleN packing for n = 3 (one Sample2 draw plus one
// Sample draw), flattened into a single call so the d = 3 kernel's
// three table loads can issue together instead of serialising behind
// two function calls. The reduction bodies are deliberately duplicated
// rather than composed from sampleBoth/sampleHi: sampleBoth exceeds
// the compiler's inlining budget, and a composed Sample3/Sample4 would
// put one or two calls back into the hottest per-ball path. Any change
// to the reduction or threshold logic must be mirrored across
// sampleHi, sampleBoth, Sample3 and Sample4 (the stream-contract test
// pins them against each other).
func (t *AliasTable) Sample3(r *xrand.Rand) (int, int, int) {
	u1 := r.Uint64()
	u2 := r.Uint64()
	n := uint64(len(t.cols))
	p1 := (u1 >> 32) * n
	p2 := (u1 & 0xffffffff) * n
	p3 := (u2 >> 32) * n
	i1 := int(p1 >> 32)
	i2 := int(p2 >> 32)
	i3 := int(p3 >> 32)
	c1 := t.cols[i1]
	c2 := t.cols[i2]
	c3 := t.cols[i3]
	if uint32(p1) >= c1.thresh {
		i1 = int(c1.alias)
	}
	if uint32(p2) >= c2.thresh {
		i2 = int(c2.alias)
	}
	if uint32(p3) >= c3.thresh {
		i3 = int(c3.alias)
	}
	return i1, i2, i3
}

// Sample4 returns four independent samples from exactly two 64-bit
// draws — the SampleN packing for n = 4 (two Sample2 draws), flattened
// into a single call for the d = 4 kernel.
func (t *AliasTable) Sample4(r *xrand.Rand) (int, int, int, int) {
	u1 := r.Uint64()
	u2 := r.Uint64()
	n := uint64(len(t.cols))
	p1 := (u1 >> 32) * n
	p2 := (u1 & 0xffffffff) * n
	p3 := (u2 >> 32) * n
	p4 := (u2 & 0xffffffff) * n
	i1 := int(p1 >> 32)
	i2 := int(p2 >> 32)
	i3 := int(p3 >> 32)
	i4 := int(p4 >> 32)
	c1 := t.cols[i1]
	c2 := t.cols[i2]
	c3 := t.cols[i3]
	c4 := t.cols[i4]
	if uint32(p1) >= c1.thresh {
		i1 = int(c1.alias)
	}
	if uint32(p2) >= c2.thresh {
		i2 = int(c2.alias)
	}
	if uint32(p3) >= c3.thresh {
		i3 = int(c3.alias)
	}
	if uint32(p4) >= c4.thresh {
		i4 = int(c4.alias)
	}
	return i1, i2, i3, i4
}

// SampleN fills out with len(out) independent samples, packing two
// candidates into every 64-bit draw: it consumes exactly
// ceil(len(out)/2) RNG advances. Each draw runs the two 32-bit Lemire
// reductions of Sample2 (high half first); when len(out) is odd, the
// final draw contributes only its high half — exactly a Sample call —
// so the stream is the concatenation of floor(n/2) Sample2 draws and,
// for odd n, one Sample draw. Per-sample quantisation is the Sample2
// contract: below n/2^32 relative error, invisible to Monte-Carlo
// statistics.
func (t *AliasTable) SampleN(r *xrand.Rand, out []int) {
	i := 0
	for ; i+1 < len(out); i += 2 {
		out[i], out[i+1] = t.sampleBoth(r.Uint64())
	}
	if i < len(out) {
		out[i] = t.sampleHi(r.Uint64())
	}
}

// SampleBatch fills cand with len(tie) groups of d candidate indices and
// tie with one raw 64-bit draw per group, amortising RNG advances and
// table-load latency across a whole ball batch: the fill loop carries no
// dependency from one ball to the next, so the table loads of many balls
// are in flight at once instead of serialising behind each ball's
// placement decision. len(cand) must equal d·len(tie).
//
// The draw sequence is pinned to the per-ball kernels: for each ball,
// first the candidate draws — the SampleN packing, two candidates per
// 64-bit advance, ceil(d/2) advances — then one further advance stored
// raw in tie (the d = 2 kernels read their coin from tie's low bit, the
// d >= 3 kernels feed it to the step-6 tie pick). A batch of b balls
// therefore consumes exactly the draws of b sequential per-ball kernel
// calls, in the same order, so wiring SampleBatch into PlaceBatch does
// not move a single bit of any pinned placement stream.
//
// The d = 2/3/4 reduction bodies are deliberately duplicated from
// Sample2/Sample3/Sample4 rather than composed: a per-ball call into
// sampleBoth would put a function call back into the hottest loop (see
// the Sample3 comment). Any change to the reduction or threshold logic
// must be mirrored here as well; the stream-contract tests pin all
// paths against each other.
func (t *AliasTable) SampleBatch(r *xrand.Rand, d int, cand []int, tie []uint64) {
	if d < 1 || len(cand) != d*len(tie) {
		panic(fmt.Sprintf("sampling: SampleBatch(d=%d) with %d candidates for %d balls",
			d, len(cand), len(tie)))
	}
	n := uint64(len(t.cols))
	switch d {
	case 2:
		j := 0
		for i := range tie {
			u := r.Uint64()
			p1 := (u >> 32) * n
			p2 := (u & 0xffffffff) * n
			i1 := int(p1 >> 32)
			i2 := int(p2 >> 32)
			c1 := t.cols[i1]
			c2 := t.cols[i2]
			if uint32(p1) >= c1.thresh {
				i1 = int(c1.alias)
			}
			if uint32(p2) >= c2.thresh {
				i2 = int(c2.alias)
			}
			cand[j] = i1
			cand[j+1] = i2
			tie[i] = r.Uint64()
			j += 2
		}
	case 3:
		j := 0
		for i := range tie {
			u1 := r.Uint64()
			u2 := r.Uint64()
			p1 := (u1 >> 32) * n
			p2 := (u1 & 0xffffffff) * n
			p3 := (u2 >> 32) * n
			i1 := int(p1 >> 32)
			i2 := int(p2 >> 32)
			i3 := int(p3 >> 32)
			c1 := t.cols[i1]
			c2 := t.cols[i2]
			c3 := t.cols[i3]
			if uint32(p1) >= c1.thresh {
				i1 = int(c1.alias)
			}
			if uint32(p2) >= c2.thresh {
				i2 = int(c2.alias)
			}
			if uint32(p3) >= c3.thresh {
				i3 = int(c3.alias)
			}
			cand[j] = i1
			cand[j+1] = i2
			cand[j+2] = i3
			tie[i] = r.Uint64()
			j += 3
		}
	case 4:
		j := 0
		for i := range tie {
			u1 := r.Uint64()
			u2 := r.Uint64()
			p1 := (u1 >> 32) * n
			p2 := (u1 & 0xffffffff) * n
			p3 := (u2 >> 32) * n
			p4 := (u2 & 0xffffffff) * n
			i1 := int(p1 >> 32)
			i2 := int(p2 >> 32)
			i3 := int(p3 >> 32)
			i4 := int(p4 >> 32)
			c1 := t.cols[i1]
			c2 := t.cols[i2]
			c3 := t.cols[i3]
			c4 := t.cols[i4]
			if uint32(p1) >= c1.thresh {
				i1 = int(c1.alias)
			}
			if uint32(p2) >= c2.thresh {
				i2 = int(c2.alias)
			}
			if uint32(p3) >= c3.thresh {
				i3 = int(c3.alias)
			}
			if uint32(p4) >= c4.thresh {
				i4 = int(c4.alias)
			}
			cand[j] = i1
			cand[j+1] = i2
			cand[j+2] = i3
			cand[j+3] = i4
			tie[i] = r.Uint64()
			j += 4
		}
	default:
		for i := range tie {
			t.SampleN(r, cand[i*d:(i+1)*d])
			tie[i] = r.Uint64()
		}
	}
}

// N returns the number of categories.
func (t *AliasTable) N() int { return len(t.cols) }
