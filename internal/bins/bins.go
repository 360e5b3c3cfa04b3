// Package bins models the state of a balls-into-bins game with
// heterogeneous (non-uniform) bins, per Section 2 of the paper.
//
// Each bin i has a positive integer capacity c_i ("size"); the total
// capacity is C = Σ c_i. When a bin holds m_i balls its load is
// ℓ_i = m_i / c_i. Capacity does not cap the number of balls a bin can
// receive — think "speed" or "bandwidth", not "volume".
//
// All load comparisons the allocation protocol performs are exact: loads
// are rationals with integer numerator and denominator, so comparisons use
// cross-multiplied int64 arithmetic rather than floating point. This makes
// simulations bit-reproducible and immune to float tie ambiguity. The
// arithmetic is safe while max(m_i+1) · max(c_j) < 2^63, far beyond any
// configuration in the paper (the heaviest run holds ~10^7 balls in bins
// of capacity ≤ 10).
package bins

import (
	"fmt"
	"math/bits"
	"slices"
	"unsafe"
)

// Array is a heterogeneous bin array: capacities plus current ball counts.
// The zero value is unusable; construct with New or a builder.
//
// Capacity and ball count are interleaved per bin (one 16-byte struct)
// rather than held in parallel slices: the allocation hot path touches a
// handful of random bins per ball, and the packed layout makes each
// touched bin exactly one cache line instead of two.
//
// The header fills one whole cache line. The shard views of one array
// may sit back to back in memory, and every Add or Remove on a view
// writes its ball total m: without the pad, neighbouring shards' headers
// would share a line that concurrent shard tasks false-share.
type Array struct {
	bins []bin
	c    int64 // total capacity
	m    int64 // total balls currently allocated
	_    [64 - (24 + 2*8)]byte
}

// Compile-time guard: Array stays exactly one 64-byte cache line
// (re-size the pad above when fields change; any other size makes this
// constant negative or non-zero, which does not compile).
const _ uintptr = 0 - (unsafe.Sizeof(Array{}) ^ 64)

// bin packs one bin's capacity and current ball count.
type bin struct {
	cap   int64
	balls int64
}

// New constructs an Array from integer capacities. Every capacity must be
// at least 1.
func New(capacities []int64) (*Array, error) {
	if len(capacities) == 0 {
		return nil, fmt.Errorf("bins: empty capacity vector")
	}
	a := &Array{bins: make([]bin, len(capacities))}
	for i, c := range capacities {
		if c < 1 {
			return nil, fmt.Errorf("bins: capacity of bin %d is %d, must be >= 1", i, c)
		}
		a.bins[i].cap = c
		a.c += c
	}
	return a, nil
}

// MustNew is New but panics on error; for tests and literals.
func MustNew(capacities []int64) *Array {
	a, err := New(capacities)
	if err != nil {
		panic(err)
	}
	return a
}

// N returns the number of bins.
func (a *Array) N() int { return len(a.bins) }

// Capacity returns c_i.
func (a *Array) Capacity(i int) int64 { return a.bins[i].cap }

// Capacities returns a copy of the capacity vector.
func (a *Array) Capacities() []int64 {
	out := make([]int64, len(a.bins))
	for i := range a.bins {
		out[i] = a.bins[i].cap
	}
	return out
}

// TotalCapacity returns C = Σ c_i.
func (a *Array) TotalCapacity() int64 { return a.c }

// Balls returns m_i, the number of balls currently in bin i.
func (a *Array) Balls(i int) int64 { return a.bins[i].balls }

// TotalBalls returns the number of balls allocated so far.
func (a *Array) TotalBalls() int64 { return a.m }

// PostLoad returns (m_i + 1, c_i) — the numerator and denominator of
// the load bin i would have after receiving one more ball — in a single
// probe, so the allocation kernels pay one bounds check per candidate
// instead of two.
func (a *Array) PostLoad(i int) (int64, int64) {
	b := &a.bins[i]
	return b.balls + 1, b.cap
}

// Add places one ball into bin i.
func (a *Array) Add(i int) {
	a.bins[i].balls++
	a.m++
}

// AddBalls places k balls into bin i at once — the bulk entry point of
// the closed-form multinomial engine, which materialises whole count
// vectors instead of placing balls one by one. It panics on k < 0.
func (a *Array) AddBalls(i int, k int64) {
	if k < 0 {
		panic(fmt.Sprintf("bins: AddBalls(%d, %d) with negative count", i, k))
	}
	a.bins[i].balls += k
	a.m += k
}

// Remove takes one ball out of bin i (queueing-style departures; the
// dynamic setting of the cluster simulator). It panics if bin i is
// empty — a departure without a prior arrival is a programming error.
func (a *Array) Remove(i int) {
	if a.bins[i].balls == 0 {
		panic(fmt.Sprintf("bins: Remove from empty bin %d", i))
	}
	a.bins[i].balls--
	a.m--
}

// RemoveBalls takes k balls out of bin i at once — the bulk departure
// entry point of the cluster engines, whose service phase completes up
// to `capacity` requests per server per tick. It panics on k < 0 and on
// k exceeding the bin's current ball count: draining more than arrived
// is a programming error, exactly as for Remove.
func (a *Array) RemoveBalls(i int, k int64) {
	if k < 0 {
		panic(fmt.Sprintf("bins: RemoveBalls(%d, %d) with negative count", i, k))
	}
	if k > a.bins[i].balls {
		panic(fmt.Sprintf("bins: RemoveBalls(%d, %d) exceeds %d balls", i, k, a.bins[i].balls))
	}
	a.bins[i].balls -= k
	a.m -= k
}

// Load returns ℓ_i = m_i / c_i as a float64 (for reporting only; the
// protocol never compares floats).
func (a *Array) Load(i int) float64 {
	return float64(a.bins[i].balls) / float64(a.bins[i].cap)
}

// AverageLoad returns m / C, the load every bin would have under a perfect
// capacity-proportional split. For uniform unit bins this is the familiar
// m/n.
func (a *Array) AverageLoad() float64 {
	return float64(a.m) / float64(a.c)
}

// CompareLoads compares ℓ_i with ℓ_j exactly, returning -1, 0 or +1.
func (a *Array) CompareLoads(i, j int) int {
	bi, bj := &a.bins[i], &a.bins[j]
	return compareRatio(bi.balls, bi.cap, bj.balls, bj.cap)
}

// ComparePostLoads compares the loads bins i and j would have after
// receiving one more ball: (m_i+1)/c_i vs (m_j+1)/c_j, exactly.
func (a *Array) ComparePostLoads(i, j int) int {
	bi, bj := &a.bins[i], &a.bins[j]
	return compareRatio(bi.balls+1, bi.cap, bj.balls+1, bj.cap)
}

// compareRatio compares p/q with r/s for positive q, s via cross
// multiplication.
func compareRatio(p, q, r, s int64) int {
	lhs, rhs := p*s, r*q
	switch {
	case lhs < rhs:
		return -1
	case lhs > rhs:
		return 1
	default:
		return 0
	}
}

// MaxLoad returns the maximum load over all bins as a float64. The
// argmax is found by exact cross-multiplied comparison — never by
// comparing float quotients, so rational ties that collide (or split)
// in float64 can never misreport it; only the winning pair's final
// report converts to float.
func (a *Array) MaxLoad() float64 {
	b, c := a.MaxLoadPair()
	return float64(b) / float64(c)
}

// MaxLoadPair returns the exact (balls, capacity) pair of the first
// bin attaining the maximum load — the rational the protocol's
// comparisons actually rank, before any float conversion.
func (a *Array) MaxLoadPair() (balls, capacity int64) {
	bb, bc := a.bins[0].balls, a.bins[0].cap
	for i := 1; i < len(a.bins); i++ {
		b := &a.bins[i]
		if b.balls*bc > bb*b.cap {
			bb, bc = b.balls, b.cap
		}
	}
	return bb, bc
}

// ArgMaxLoad returns every bin index attaining the maximum load
// (ties resolved exactly, by cross multiplication).
func (a *Array) ArgMaxLoad() []int {
	best := []int{0}
	bb, bc := a.bins[0].balls, a.bins[0].cap
	for i := 1; i < len(a.bins); i++ {
		b := &a.bins[i]
		switch compareRatio(b.balls, b.cap, bb, bc) {
		case 1:
			best = append(best[:0], i)
			bb, bc = b.balls, b.cap
		case 0:
			best = append(best, i)
		}
	}
	return best
}

// LoadVector returns the vector of bin loads in bin order.
func (a *Array) LoadVector() []float64 {
	return a.LoadVectorInto(nil)
}

// LoadVectorInto fills dst with the bin loads in bin order, growing it
// if needed, and returns the filled slice. It lets hot loops reuse one
// buffer across calls instead of allocating per call.
func (a *Array) LoadVectorInto(dst []float64) []float64 {
	if cap(dst) < len(a.bins) {
		dst = make([]float64, len(a.bins))
	}
	dst = dst[:len(a.bins)]
	for i := range dst {
		dst[i] = a.Load(i)
	}
	return dst
}

// Shard returns a view of bins [lo, hi): it shares the parent's
// underlying bin storage — mutations through the view are visible to
// the parent — while carrying its own capacity and ball totals computed
// over the range. Disjoint shard views may be mutated concurrently
// (none of the parent's other methods may run while they are), which
// is the substrate of the sharded single-run engine: each worker owns
// one contiguous slice of one huge array. Shard itself reads only bins
// [lo, hi), so it may run while views disjoint from that range mutate.
// The parent's cached ball total does not see balls added or removed
// through views (a view's Reset included); call Recount on the parent
// after the views quiesce.
func (a *Array) Shard(lo, hi int) (*Array, error) {
	if lo < 0 || hi > len(a.bins) || lo >= hi {
		return nil, fmt.Errorf("bins: shard [%d,%d) of %d bins", lo, hi, len(a.bins))
	}
	s := &Array{bins: a.bins[lo:hi:hi]}
	for i := range s.bins {
		s.c += s.bins[i].cap
		s.m += s.bins[i].balls
	}
	return s, nil
}

// Recount rebuilds the cached ball total from the per-bin counts after
// out-of-band mutation through shard views.
func (a *Array) Recount() {
	var m int64
	for i := range a.bins {
		m += a.bins[i].balls
	}
	a.m = m
}

// RecountViews sets the cached ball total to the sum of the views'
// cached totals: O(len(views)) where Recount is O(n). The views must be
// quiesced shard views of a that together hold every ball of a; a nil
// entry stands for a view whose bins hold none.
func (a *Array) RecountViews(views []*Array) {
	var m int64
	for _, v := range views {
		if v != nil {
			m += v.m
		}
	}
	a.m = m
}

// Reset removes all balls.
func (a *Array) Reset() {
	for i := range a.bins {
		a.bins[i].balls = 0
	}
	a.m = 0
}

// Clone returns a deep copy of the array (capacities and ball counts).
func (a *Array) Clone() *Array {
	b := &Array{
		bins: make([]bin, len(a.bins)),
		c:    a.c,
		m:    a.m,
	}
	copy(b.bins, a.bins)
	return b
}

// denseClassBits is the capacity bound below which CapacityClasses
// marks classes in a bitset (64 words, on the stack): one shift and OR
// per bin, whatever the class count.
const denseClassBits = 64 * 64

// capacityClassScanLimit is the class count up to which CapacityClasses
// dedupes capacities of denseClassBits or more by linear containment
// scan. Such class sets are tiny in practice, and a handful of
// predictable compares per bin is far cheaper than hashing every one of
// n capacities; past the limit a map takes over so adversarial inputs
// stay O(n).
const capacityClassScanLimit = 32

// CapacityClasses returns the sorted distinct capacity values present.
func (a *Array) CapacityClasses() []int64 {
	var dense [denseClassBits / 64]uint64
	var large []int64 // classes of denseClassBits or more
	var seen map[int64]bool
	last := int64(-1) // large capacities often come in runs; skip repeats for free
	for i := range a.bins {
		c := a.bins[i].cap
		if c < denseClassBits {
			dense[c>>6] |= 1 << uint(c&63)
			continue
		}
		if c == last {
			continue
		}
		last = c
		if seen != nil {
			if !seen[c] {
				seen[c] = true
				large = append(large, c)
			}
			continue
		}
		if slices.Contains(large, c) {
			continue
		}
		large = append(large, c)
		if len(large) > capacityClassScanLimit {
			seen = make(map[int64]bool, 2*len(large))
			for _, k := range large {
				seen[k] = true
			}
		}
	}
	n := len(large)
	for _, w := range dense {
		n += bits.OnesCount64(w)
	}
	classes := make([]int64, 0, n)
	for k, w := range dense {
		for ; w != 0; w &= w - 1 {
			classes = append(classes, int64(k<<6+bits.TrailingZeros64(w)))
		}
	}
	slices.Sort(large)
	return append(classes, large...)
}

// CountClass returns how many bins have exactly capacity c.
func (a *Array) CountClass(c int64) int {
	n := 0
	for i := range a.bins {
		if a.bins[i].cap == c {
			n++
		}
	}
	return n
}

// MaxLoadInClassC reports whether any bin of capacity class c attains the
// global maximum load (exact tie handling). This powers Figures 7 and 9.
func (a *Array) MaxLoadInClassC(c int64) bool {
	for _, i := range a.ArgMaxLoad() {
		if a.bins[i].cap == c {
			return true
		}
	}
	return false
}
