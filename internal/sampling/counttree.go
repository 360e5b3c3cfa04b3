package sampling

import (
	"fmt"
	"unsafe"

	"repro/internal/xrand"
)

// CountTree is a Fenwick tree over non-negative integer counts,
// supporting exact uniform sampling WITHOUT replacement: Sample picks
// index i with probability count_i / total using one bounded integer
// draw (no floating point anywhere, so the draw law is exact and the
// structure never accumulates rounding residue the way the float64
// Fenwick sampler can), and Dec removes one unit from an index. Both
// cost O(log n).
//
// SampleDec is the deletion kernel of the streaming engine: it fuses
// Sample and Dec into one top-down descent. Deleting D balls exactly
// uniformly without replacement is D SampleDec calls over the bin (or
// shard) ball counts — each a single Uint64n draw on the caller's
// stream, so the draw sequence is pinned by (counts, stream) alone.
//
// The tree has one padded layout: it spans P indices, P the smallest
// power of two >= n, and indices n..P-1 hold zero counts that no draw
// can select. Its memory is (P+1)·8 bytes, at most twice the unpadded
// tree. The padding lets every descent run all log2(P) steps without
// a bounds test, which is what makes SampleDec branchless.
//
// A CountTree is not safe for concurrent use. The zero value is
// unusable; allocate with NewCountTree and (re)fill with Build, which
// is allocation-free so per-round rebuilds cost no steady-state
// garbage.
//
// The header fills one whole cache line. The streaming engine
// allocates one tree per shard back to back, and every SampleDec
// writes the header's total: without the pad, neighbouring shards'
// headers would share a line that concurrent deletion tasks
// false-share.
type CountTree struct {
	tree []int64 // 1-based Fenwick tree over P indices: len(tree) == P+1
	n    int
	mask int // P/2, the first step of a descent (tree[P] is the total)
	tot  int64
	_    [64 - (24 + 3*8)]byte
}

// Compile-time guard: CountTree stays exactly one 64-byte cache line
// (re-size the pad above when fields change; any other size makes this
// constant negative or non-zero, which does not compile).
const _ uintptr = 0 - (unsafe.Sizeof(CountTree{}) ^ 64)

// maxCountTotal bounds Total(): with every prefix sum at most 2^62,
// the descents' differences u - tree[next] stay inside int64, so their
// sign bit is exact.
const maxCountTotal = 1 << 62

// NewCountTree allocates a tree over n indices (n >= 1), all counts
// zero. Call Build (or Inc) before sampling.
func NewCountTree(n int) (*CountTree, error) {
	if n < 1 {
		return nil, fmt.Errorf("sampling: CountTree over %d indices, need >= 1", n)
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return &CountTree{tree: make([]int64, p+1), n: n, mask: p >> 1}, nil
}

// N returns the number of indices.
func (t *CountTree) N() int { return t.n }

// Total returns the current sum of counts.
func (t *CountTree) Total() int64 { return t.tot }

// Build refills the tree from count(i) for i in [0, N()) in O(n)
// without allocating, so a tree can be rebuilt every round. count must
// return non-negative values; Build panics on a negative count (a
// negative ball count is always an upstream accounting bug, and
// sampling would silently misbehave on it) and when the total exceeds
// 2^62 (it would wrap, or break the descents' sign arithmetic).
func (t *CountTree) Build(count func(i int) int64) {
	clear(t.tree)
	t.tot = 0
	p := len(t.tree) - 1
	for i := 1; i <= p; i++ {
		if i <= t.n {
			c := count(i - 1)
			if c < 0 {
				panic(fmt.Sprintf("sampling: CountTree.Build: negative count %d at index %d", c, i-1))
			}
			if c > maxCountTotal-t.tot {
				panic(fmt.Sprintf("sampling: CountTree.Build: total exceeds 2^62 at index %d", i-1))
			}
			t.tot += c
			t.tree[i] += c
		}
		if j := i + (i & -i); j <= p {
			t.tree[j] += t.tree[i]
		}
	}
}

// Count returns the current count of index i in O(log n).
func (t *CountTree) Count(i int) int64 {
	c := t.tree[i+1]
	// Subtract the sibling ranges folded into tree[i+1].
	for j, stop := i, (i+1)-((i+1)&-(i+1)); j > stop; j -= j & -j {
		c -= t.tree[j]
	}
	return c
}

// Sample returns an index with probability count_i / Total(), using a
// single exact bounded draw from r. It panics when Total() == 0 —
// sampling from an empty population is always a caller bug.
func (t *CountTree) Sample(r *xrand.Rand) int {
	if t.tot <= 0 {
		panic("sampling: CountTree.Sample with zero total")
	}
	// u is uniform on [0, tot); descend to the first index whose prefix
	// sum exceeds u. All-integer: the sampled law is exactly the counts.
	u := int64(r.Uint64n(uint64(t.tot)))
	idx := 0
	for mask := t.mask; mask > 0; mask >>= 1 {
		if next := idx + mask; t.tree[next] <= u {
			u -= t.tree[next]
			idx = next
		}
	}
	return idx // 0-based: idx entries have prefix sum <= u
}

// SampleDec is Sample followed by Dec of the sampled index, in one
// pass: the same single draw from r, the same returned index and the
// same tree afterwards. In a top-down descent the nodes it does not
// step right past are exactly the chosen index's update path below
// tree[P], so each step decrements the node it compares against by
// the comparison's sign bit. It panics, like Sample, when Total() == 0.
// The chosen index's prefix sums bracket u, so its count is positive
// and needs no check.
func (t *CountTree) SampleDec(r *xrand.Rand) int {
	if t.tot <= 0 {
		panic("sampling: CountTree.Sample with zero total")
	}
	u := int64(r.Uint64n(uint64(t.tot)))
	tree := t.tree
	idx := 0
	for mask := t.mask; mask > 0; mask >>= 1 {
		next := idx + mask
		v := tree[next]
		d := (u - v) >> 63 // -1 when u < v: stay left, next is on the path
		u -= v &^ d
		idx += mask &^ int(d)
		tree[next] += d
	}
	tree[len(tree)-1]--
	t.tot--
	return idx
}

// Dec removes one unit from index i (O(log n)). It panics when the
// index's count is already zero: a without-replacement stream can
// never remove what is not there.
func (t *CountTree) Dec(i int) {
	if t.Count(i) <= 0 {
		panic(fmt.Sprintf("sampling: CountTree.Dec at index %d with zero count", i))
	}
	t.tot--
	for j, p := i+1, len(t.tree)-1; j <= p; j += j & -j {
		t.tree[j]--
	}
}

// Inc adds one unit to index i (O(log n)).
func (t *CountTree) Inc(i int) {
	t.tot++
	for j, p := i+1, len(t.tree)-1; j <= p; j += j & -j {
		t.tree[j]++
	}
}
