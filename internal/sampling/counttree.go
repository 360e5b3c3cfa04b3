package sampling

import (
	"fmt"

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
// SampleDec fuses Sample and Dec into one top-down descent. Deleting D
// balls exactly uniformly without replacement is D SampleDec calls over
// the bin (or shard) ball counts — each a single Uint64n draw on the
// caller's stream, so the draw sequence is pinned by (counts, stream)
// alone. The descent runs on a plain node slice (SampleDecNodes), and
// BuildNodes builds such a slice in place, so a caller can keep many
// small trees side by side in one slice of its own: the streaming
// engine's deletion kernel does, one 64-leaf tree per 64-bin block.
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
type CountTree struct {
	tree []int64 // 1-based Fenwick tree over P indices: len(tree) == P+1
	n    int
	mask int // P/2, the first step of a descent (tree[P] is the total)
	tot  int64
}

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
	nodes := t.tree[1:]
	for i := range nodes {
		var c int64
		if i < t.n {
			c = count(i)
		}
		nodes[i] = c
	}
	t.tot = BuildNodes(nodes)
}

// BuildNodes turns nodes into a count tree in place and returns its
// total. On entry nodes[i] is the count of index i; on return nodes
// holds CountTree's node layout without its unused slot 0 — nodes[j-1]
// is Fenwick node j, nodes[len(nodes)-1] the total — ready for
// SampleDecNodes. len(nodes) must be a power of two; the counts of a
// shorter population pad it with zeros, which no draw can select. It
// panics like CountTree.Build on a negative count or a total above
// 2^62.
func BuildNodes(nodes []int64) int64 {
	p := len(nodes)
	if p == 0 || p&(p-1) != 0 {
		panic(fmt.Sprintf("sampling: count tree over %d nodes, need a power of two", p))
	}
	var tot int64
	for i, c := range nodes {
		if c < 0 {
			panic(fmt.Sprintf("sampling: CountTree.Build: negative count %d at index %d", c, i))
		}
		if c > maxCountTotal-tot {
			panic(fmt.Sprintf("sampling: CountTree.Build: total exceeds 2^62 at index %d", i))
		}
		tot += c
	}
	// Each node, complete once its lower children have been added,
	// adds itself to its parent j + lowbit(j).
	for j := 1; j < p; j++ {
		nodes[j+(j&-j)-1] += nodes[j-1]
	}
	return tot
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
// same tree afterwards. It panics, like Sample, when Total() == 0.
func (t *CountTree) SampleDec(r *xrand.Rand) int {
	i := SampleDecNodes(r, t.tree[1:])
	t.tot--
	return i
}

// SampleDecNodes is the one fused draw-and-decrement descent, on a
// node slice in BuildNodes' layout (CountTree.SampleDec runs it on its
// own tree): one Uint64n(total) draw u, then the first index whose
// prefix sum exceeds u, with one unit removed from it. So the index
// depends only on u and the counts, never on the padding. In a
// top-down descent the nodes it does not step right past are exactly
// the chosen index's update path below the root, so each step
// decrements the node it compares against by the comparison's sign
// bit; then the root loses the unit. The chosen index's prefix sums
// bracket u, so its count is positive and needs no check. It panics
// when the total is zero.
func SampleDecNodes(r *xrand.Rand, nodes []int64) int {
	root := len(nodes) - 1
	tot := nodes[root]
	if tot <= 0 {
		panic("sampling: CountTree.Sample with zero total")
	}
	u := int64(r.Uint64n(uint64(tot)))
	idx := 0
	for mask := len(nodes) >> 1; mask > 0; mask >>= 1 {
		next := idx + mask - 1 // node idx+mask
		v := nodes[next]
		d := (u - v) >> 63 // -1 when u < v: stay left, the node is on the path
		u -= v &^ d
		idx += mask &^ int(d)
		nodes[next] += d
	}
	nodes[root]--
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
