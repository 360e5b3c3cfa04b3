// Package chash implements the consistent-hashing ring that motivates the
// paper's non-uniform selection probabilities (§1 and §1.1) — and the
// membership substrate of the churn-tolerant cluster engine.
//
// Peers are mapped to random points on the unit ring; a key at position x
// is owned by the first peer point at or after x (wrapping). Each peer's
// total arc length is therefore random, and — as the paper recalls from
// Karger et al. — the maximum arc is a Θ(log n) factor above the average
// arc. Treating arcs as bin selection probabilities turns the d-point
// game of Byers et al. into exactly the kind of non-uniform
// balls-into-bins game the paper generalises, which this package
// demonstrates by exporting the arc vector as selection weights.
//
// # Membership churn
//
// A ring remembers every peer's virtual points forever: the positions are
// drawn once, at construction, and stay in one sorted array for the
// ring's lifetime. Membership is a per-peer live flag, so
// RemovePeer/AddPeer are O(1) flips — no splice, no re-sort, and
// crucially no RNG draw, so churn is deterministic given the
// construction seed and a peer that crashes and recovers returns to
// exactly its old points (its keys come home). Lookups and arc lengths
// skip dead peers' points; a dead peer therefore owns nothing, lookups
// can never land on it, and its former arcs accrue to its live ring
// successors — the consistent-hashing property that only neighbouring
// shares move under churn. TouchedPeers names exactly those successors,
// and PeerArc recomputes one peer's arc in O(its points), so a caller
// tracking arc weights pays O(vnodes) per membership change instead of
// a pass over the whole ring.
package chash

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/xrand"
)

// Ring is a consistent-hashing ring over n peers, each owning a fixed
// set of virtual points drawn at construction. Peers may be live (their
// points own keys) or removed (points kept, skipped by every query).
type Ring struct {
	n      int
	vnodes int
	points []float64 // sorted positions in [0,1) of every peer's points
	owner  []int32   // peer owning each point
	// peerIdx[peerOff[p]:peerOff[p+1]] are the ascending indices into
	// points of peer p's points.
	peerIdx []int32
	peerOff []int32
	live    []bool
	nLive   int
	mark    []bool // TouchedPeers de-duplication scratch, all false between calls
}

// maxPoints bounds a ring's total point count: points, owners and
// per-peer offsets are indexed with int32.
const maxPoints = math.MaxInt32

// tooManyPoints is the error of a ring whose points through peer p
// would exceed maxPoints.
func tooManyPoints(p int) error {
	return fmt.Errorf("chash: the points of peers 0..%d exceed %d", p, maxPoints)
}

// NewRing places n peers with the given number of virtual nodes each at
// positions drawn from r. All peers start live. A ring of more than
// MaxInt32 points is rejected, naming the first peer past the limit,
// before anything of its size is allocated.
func NewRing(n, vnodes int, r *xrand.Rand) (*Ring, error) {
	if n <= 0 {
		return nil, fmt.Errorf("chash: n = %d", n)
	}
	if vnodes <= 0 {
		return nil, fmt.Errorf("chash: vnodes = %d", vnodes)
	}
	if n > maxPoints/vnodes {
		return nil, tooManyPoints(maxPoints / vnodes)
	}
	counts := make([]int, n)
	for p := range counts {
		counts[p] = vnodes
	}
	ring, err := build(counts, r)
	if err != nil {
		return nil, err
	}
	ring.vnodes = vnodes
	return ring, nil
}

// NewWeightedRing places peer p with vnodesPerUnit·capacity[p] virtual
// nodes, the standard way to give heterogeneous peers arc shares
// proportional to capacity. Combined with the d-point game this is the
// ring-level equivalent of the paper's capacity-proportional selection:
// the expected arc share of peer p is capacity[p]/ΣC. A peer whose
// product overflows, or a total of more than MaxInt32 points, is
// rejected by name before anything of the ring's size is allocated.
func NewWeightedRing(capacities []int64, vnodesPerUnit int, r *xrand.Rand) (*Ring, error) {
	if len(capacities) == 0 {
		return nil, fmt.Errorf("chash: no capacities")
	}
	if vnodesPerUnit <= 0 {
		return nil, fmt.Errorf("chash: vnodesPerUnit = %d", vnodesPerUnit)
	}
	counts := make([]int, len(capacities))
	for i, c := range capacities {
		if c < 1 {
			return nil, fmt.Errorf("chash: capacity %d of peer %d", c, i)
		}
		if c > int64(maxPoints/vnodesPerUnit) {
			return nil, fmt.Errorf("chash: peer %d: capacity %d × %d vnodes per unit exceeds %d points",
				i, c, vnodesPerUnit, maxPoints)
		}
		counts[i] = int(c) * vnodesPerUnit
	}
	ring, err := build(counts, r)
	if err != nil {
		return nil, err
	}
	ring.vnodes = -1 // heterogeneous
	return ring, nil
}

// build draws counts[p] points for every peer IN PEER ORDER (the draw
// sequence is part of the model) and lays them out in ascending
// (position, owner) order with sortPoints — a bucket sort, O(points)
// for the uniform positions a ring draws — then indexes each peer's
// points in ascending order. The counts' total is checked against
// maxPoints before any allocation of its size.
func build(counts []int, r *xrand.Rand) (*Ring, error) {
	n := len(counts)
	total := 0
	for p, c := range counts {
		if c > maxPoints-total {
			return nil, tooManyPoints(p)
		}
		total += c
	}
	ring := &Ring{
		n:       n,
		points:  make([]float64, total),
		owner:   make([]int32, total),
		peerIdx: make([]int32, total),
		peerOff: make([]int32, n+1),
		live:    make([]bool, n),
		nLive:   n,
		mark:    make([]bool, n),
	}
	pos := make([]float64, total)
	for p := 0; p < n; p++ {
		lo := ring.peerOff[p]
		hi := lo + int32(counts[p])
		for i := lo; i < hi; i++ {
			pos[i] = r.Float64()
		}
		ring.peerOff[p+1] = hi
		ring.live[p] = true
	}
	sortPoints(pos, ring.peerOff, ring.points, ring.owner)
	next := slices.Clone(ring.peerOff[:n])
	for i, o := range ring.owner {
		ring.peerIdx[next[o]] = int32(i)
		next[o]++
	}
	return ring, nil
}

// sortPoints writes every position of pos into points in ascending
// (position, owner) order and each one's peer into owner: peer p's
// positions are pos[off[p]:off[p+1]], all in [0, 1). It is a bucket
// sort on the positions' 53-bit fixed-point keys x·2⁵³ (exact for
// xrand.Float64 draws, and monotone in x for any x): a counting pass
// over the top ⌈log₂ len(pos)⌉ key bits, a scatter in peer order, and
// an insertion sort that only ever moves points within their bucket.
// Scatter and insertion sort are both stable, so equal positions keep
// the scatter's peer order: the result is the same total order the
// (position, owner) comparator sort gives. The buckets hold about one
// point each for uniform positions, so the whole sort is O(len(pos))
// in expectation.
func sortPoints(pos []float64, off []int32, points []float64, owner []int32) {
	if len(pos) == 0 {
		return
	}
	top := bits.Len(uint(len(pos) - 1)) // ⌈log₂ len(pos)⌉ bucket bits
	bucket := func(x float64) uint64 { return uint64(x*0x1p53) >> (53 - top) }
	start := make([]int32, 1<<top)
	for _, x := range pos {
		start[bucket(x)]++
	}
	var sum int32
	for b, c := range start {
		start[b] = sum
		sum += c
	}
	for p := 0; p+1 < len(off); p++ {
		for _, x := range pos[off[p]:off[p+1]] {
			b := bucket(x)
			j := start[b]
			start[b]++
			points[j], owner[j] = x, int32(p)
		}
	}
	for i := 1; i < len(points); i++ {
		x, o := points[i], owner[i]
		j := i
		for ; j > 0 && points[j-1] > x; j-- {
			points[j], owner[j] = points[j-1], owner[j-1]
		}
		points[j], owner[j] = x, o
	}
}

// N returns the number of peers (live or not).
func (r *Ring) N() int { return r.n }

// NumLive returns the number of live peers.
func (r *Ring) NumLive() int { return r.nLive }

// Live reports whether peer p is currently live (its points own keys).
func (r *Ring) Live(p int) bool { return r.live[p] }

// RemovePeer takes peer p off the ring: O(1), one live-flag flip — its
// points stay in place and every query skips them. No RNG. The last
// live peer cannot be removed: an empty ring owns nothing and Lookup
// would be undefined.
func (r *Ring) RemovePeer(p int) error {
	if p < 0 || p >= r.n {
		return fmt.Errorf("chash: RemovePeer(%d) of %d peers", p, r.n)
	}
	if !r.live[p] {
		return fmt.Errorf("chash: RemovePeer(%d): peer is not live", p)
	}
	if r.nLive == 1 {
		return fmt.Errorf("chash: RemovePeer(%d) would empty the ring", p)
	}
	r.live[p] = false
	r.nLive--
	return nil
}

// AddPeer puts peer p back on the ring: O(1), one live-flag flip, no
// RNG. Its points never left the sorted array, so a peer that crashes
// and recovers returns to exactly the points it held before, bit for
// bit.
func (r *Ring) AddPeer(p int) error {
	if p < 0 || p >= r.n {
		return fmt.Errorf("chash: AddPeer(%d) of %d peers", p, r.n)
	}
	if r.live[p] {
		return fmt.Errorf("chash: AddPeer(%d): peer is already live", p)
	}
	r.live[p] = true
	r.nLive++
	return nil
}

// liveAt reports whether point i belongs to a live peer.
func (r *Ring) liveAt(i int) bool { return r.live[r.owner[i]] }

// nextLive returns the index of the first live point at or after i,
// wrapping around. At least one peer is always live, and every peer has
// at least one point, so the scan terminates.
func (r *Ring) nextLive(i int) int {
	for {
		if i == len(r.points) {
			i = 0
		}
		if r.liveAt(i) {
			return i
		}
		i++
	}
}

// prevLive returns the index of the last live point at or before i,
// wrapping around.
func (r *Ring) prevLive(i int) int {
	for {
		if i < 0 {
			i = len(r.points) - 1
		}
		if r.liveAt(i) {
			return i
		}
		i--
	}
}

// Lookup returns the peer owning position x in [0,1): the peer of the
// first live point at or after x, wrapping around.
func (r *Ring) Lookup(x float64) int {
	return int(r.owner[r.nextLive(sort.SearchFloat64s(r.points, x))])
}

// LookupBatch resolves many positions at once: the queries are sorted
// once and resolved in a single forward pass against the sorted ring,
// skipping dead peers' points as it goes — O(P + Q·log Q) for Q queries
// over P points however many peers are dead — writing each query's
// owner to the matching out slot. Results are exactly Lookup's, element
// for element. out is reused when it has the capacity; the filled slice
// is returned.
func (r *Ring) LookupBatch(xs []float64, out []int) []int {
	if cap(out) < len(xs) {
		out = make([]int, len(xs))
	}
	out = out[:len(xs)]
	if len(xs) == 0 {
		return out
	}
	order := make([]int32, len(xs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(xs[a], xs[b]) })
	// i is the first point at or after the current query; j the first
	// live point at or after i (== len(points) once none is left).
	i, j := 0, 0
	wrap := -1 // owner of the first live point, resolved on demand
	for _, q := range order {
		x := xs[q]
		for i < len(r.points) && r.points[i] < x {
			i++
		}
		if j < i {
			j = i
		}
		for j < len(r.points) && !r.liveAt(j) {
			j++
		}
		if j == len(r.points) {
			if wrap < 0 {
				wrap = int(r.owner[r.nextLive(0)])
			}
			out[q] = wrap // wrap, like Lookup
			continue
		}
		out[q] = int(r.owner[j])
	}
	return out
}

// ArcLengths returns each peer's total owned arc length; the entries
// sum to 1 and removed peers hold 0. The arc ending at live point i
// (owned by peer owner[i]) starts at the previous live point.
func (r *Ring) ArcLengths() []float64 {
	return r.ArcLengthsInto(nil)
}

// ArcLengthsInto fills dst (grown if needed) with the per-peer arc
// lengths, allocation-free when dst has the capacity. Each peer's arc
// is summed over its live points in ascending position order — the
// same float operations, in the same order, as PeerArc.
func (r *Ring) ArcLengthsInto(dst []float64) []float64 {
	if cap(dst) < r.n {
		dst = make([]float64, r.n)
	}
	dst = dst[:r.n]
	clear(dst)
	// wrap-around arc of the first live point: from the last live point
	// to 1, plus 0 to the point itself
	prev := r.points[r.prevLive(len(r.points)-1)] - 1
	for i, pt := range r.points {
		if !r.liveAt(i) {
			continue
		}
		dst[r.owner[i]] += pt - prev
		prev = pt
	}
	return dst
}

// PeerArc returns peer p's total arc length, bit-identical to
// ArcLengthsInto's entry for p, in O(p's points) when few peers are
// dead: every point's arc starts at the previous live point, wrapping
// at the first. A removed peer's arc is 0.
func (r *Ring) PeerArc(p int) float64 {
	if !r.live[p] {
		return 0
	}
	var arc float64
	for _, i := range r.peerIdx[r.peerOff[p]:r.peerOff[p+1]] {
		j := r.prevLive(int(i) - 1)
		prev := r.points[j]
		if j >= int(i) {
			prev-- // wrapped: i is the first live point
		}
		arc += r.points[i] - prev
	}
	return arc
}

// TouchedPeers appends to dst, once each, every peer whose arc may have
// changed through the membership flips of the given peers: each toggled
// peer, plus the owner of the next live point after each of its points
// — evaluated on the CURRENT membership, so call it after all of a
// batch's RemovePeer/AddPeer calls. Every other peer's previous-live
// point is unchanged, so its PeerArc is too. toggled may repeat peers.
func (r *Ring) TouchedPeers(toggled []int, dst []int) []int {
	start := len(dst)
	add := func(p int) {
		if !r.mark[p] {
			r.mark[p] = true
			dst = append(dst, p)
		}
	}
	for _, p := range toggled {
		add(p)
		for _, i := range r.peerIdx[r.peerOff[p]:r.peerOff[p+1]] {
			add(int(r.owner[r.nextLive(int(i)+1)]))
		}
	}
	for _, p := range dst[start:] {
		r.mark[p] = false
	}
	return dst
}

// ArcStats summarises the arc length distribution.
type ArcStats struct {
	Min, Max, Avg float64
	// MaxOverAvg is the imbalance factor the paper quotes as Θ(log n)
	// for vnodes = 1.
	MaxOverAvg float64
}

// Stats computes arc statistics for the ring (over all peers,
// including removed ones, whose arcs are 0).
func (r *Ring) Stats() ArcStats {
	arcs := r.ArcLengths()
	st := ArcStats{Min: arcs[0], Max: arcs[0]}
	sum := 0.0
	for _, a := range arcs {
		if a < st.Min {
			st.Min = a
		}
		if a > st.Max {
			st.Max = a
		}
		sum += a
	}
	st.Avg = sum / float64(r.n)
	st.MaxOverAvg = st.Max / st.Avg
	return st
}

// dchoiceChunk is the number of balls whose positions DChoiceLoads
// pre-draws and batch-resolves per chunk: big enough to amortise the
// batch sort against per-ball binary searches, small enough that the
// scratch stays cache-resident.
const dchoiceChunk = 4096

// DChoiceLoads plays the Byers et al. d-point game: m balls each draw d
// uniform ring positions, look up the owning peers, and commit to a peer
// currently holding the fewest balls (ties to the first drawn). It
// returns the final ball counts per peer.
//
// Positions are pre-drawn in ball order and resolved chunk-wise through
// LookupBatch — lookups consume no randomness and never read the loads,
// so the batched pass is bit-identical to the serial per-ball original
// (pinned by TestDChoiceBatchParity).
func (r *Ring) DChoiceLoads(m int64, d int, rng *xrand.Rand) ([]int64, error) {
	if d < 1 {
		return nil, fmt.Errorf("chash: d = %d", d)
	}
	loads := make([]int64, r.n)
	chunk := int64(dchoiceChunk)
	xs := make([]float64, 0, chunk*int64(d))
	var owners []int
	for b := int64(0); b < m; b += chunk {
		balls := chunk
		if left := m - b; balls > left {
			balls = left
		}
		xs = xs[:balls*int64(d)]
		for i := range xs {
			xs[i] = rng.Float64()
		}
		owners = r.LookupBatch(xs, owners)
		for i := int64(0); i < balls; i++ {
			cand := owners[i*int64(d) : (i+1)*int64(d)]
			best := cand[0]
			for _, p := range cand[1:] {
				if loads[p] < loads[best] {
					best = p
				}
			}
			loads[best]++
		}
	}
	return loads, nil
}

// MaxLoad returns the maximum entry of loads.
func MaxLoad(loads []int64) int64 {
	var max int64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}
