package chash

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestNewRingValidation(t *testing.T) {
	r := xrand.New(1)
	if _, err := NewRing(0, 1, r); err == nil {
		t.Error("n = 0 accepted")
	}
	if _, err := NewRing(5, 0, r); err == nil {
		t.Error("vnodes = 0 accepted")
	}
}

func TestArcLengthsSumToOne(t *testing.T) {
	r := xrand.New(2)
	for _, cfg := range []struct{ n, v int }{{1, 1}, {10, 1}, {100, 4}, {3, 50}} {
		ring, err := NewRing(cfg.n, cfg.v, r)
		if err != nil {
			t.Fatal(err)
		}
		arcs := ring.ArcLengths()
		if len(arcs) != cfg.n {
			t.Fatalf("%d arcs for %d peers", len(arcs), cfg.n)
		}
		sum := 0.0
		for _, a := range arcs {
			if a < 0 {
				t.Fatalf("negative arc %v", a)
			}
			sum += a
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("arcs sum to %v", sum)
		}
	}
}

func TestLookupConsistentWithArcs(t *testing.T) {
	r := xrand.New(3)
	ring, err := NewRing(50, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	// Monte-Carlo: lookup frequencies should approximate arc lengths.
	arcs := ring.ArcLengths()
	counts := make([]float64, ring.N())
	const samples = 200000
	for i := 0; i < samples; i++ {
		counts[ring.Lookup(r.Float64())]++
	}
	for p := 0; p < ring.N(); p++ {
		got := counts[p] / samples
		if math.Abs(got-arcs[p]) > 0.01 {
			t.Fatalf("peer %d: lookup freq %.4f vs arc %.4f", p, got, arcs[p])
		}
	}
}

func TestSinglePeerOwnsEverything(t *testing.T) {
	r := xrand.New(4)
	ring, err := NewRing(1, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if ring.Lookup(r.Float64()) != 0 {
			t.Fatal("single peer does not own everything")
		}
	}
	arcs := ring.ArcLengths()
	if math.Abs(arcs[0]-1) > 1e-9 {
		t.Fatalf("single peer arc = %v", arcs[0])
	}
}

// TestArcImbalanceShrinksWithVnodes: virtual nodes reduce the max/avg arc
// imbalance — the standard consistent-hashing smoothing.
func TestArcImbalanceShrinksWithVnodes(t *testing.T) {
	const n = 200
	avg1, avg32 := 0.0, 0.0
	const reps = 20
	for rep := 0; rep < reps; rep++ {
		r1 := xrand.NewStream(100, uint64(rep))
		r2 := xrand.NewStream(200, uint64(rep))
		ring1, _ := NewRing(n, 1, r1)
		ring32, _ := NewRing(n, 32, r2)
		avg1 += ring1.Stats().MaxOverAvg
		avg32 += ring32.Stats().MaxOverAvg
	}
	avg1 /= reps
	avg32 /= reps
	if avg32 >= avg1 {
		t.Fatalf("vnodes did not reduce imbalance: %v vs %v", avg1, avg32)
	}
	// vnodes = 1 imbalance should be on the order of ln(n) ≈ 5.3; allow a
	// broad band.
	if avg1 < 2 || avg1 > 12 {
		t.Fatalf("vnodes=1 imbalance %v outside sanity band", avg1)
	}
}

// TestDChoiceBeatsSingleChoice: the Byers et al. d-point game must beat
// single-point placement on max load.
func TestDChoiceBeatsSingleChoice(t *testing.T) {
	const n = 300
	var max1, max2 float64
	const reps = 20
	for rep := 0; rep < reps; rep++ {
		r := xrand.NewStream(300, uint64(rep))
		ring, err := NewRing(n, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		l1, err := ring.DChoiceLoads(n, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := ring.DChoiceLoads(n, 2, r)
		if err != nil {
			t.Fatal(err)
		}
		max1 += float64(MaxLoad(l1))
		max2 += float64(MaxLoad(l2))
	}
	if max2 >= max1 {
		t.Fatalf("d=2 mean max %v not better than d=1 %v", max2/reps, max1/reps)
	}
}

func TestDChoiceValidation(t *testing.T) {
	r := xrand.New(5)
	ring, _ := NewRing(4, 1, r)
	if _, err := ring.DChoiceLoads(10, 0, r); err == nil {
		t.Error("d = 0 accepted")
	}
}

func TestDChoiceConservesBalls(t *testing.T) {
	r := xrand.New(6)
	ring, _ := NewRing(20, 2, r)
	loads, err := ring.DChoiceLoads(500, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, l := range loads {
		sum += l
	}
	if sum != 500 {
		t.Fatalf("loads sum %d, want 500", sum)
	}
}

func TestMaxLoadHelper(t *testing.T) {
	if MaxLoad([]int64{1, 7, 3}) != 7 {
		t.Fatal("MaxLoad wrong")
	}
	if MaxLoad(nil) != 0 {
		t.Fatal("MaxLoad(nil) != 0")
	}
}

func TestWeightedRingValidation(t *testing.T) {
	r := xrand.New(7)
	if _, err := NewWeightedRing(nil, 1, r); err == nil {
		t.Error("empty capacities accepted")
	}
	if _, err := NewWeightedRing([]int64{1, 0}, 1, r); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewWeightedRing([]int64{1}, 0, r); err == nil {
		t.Error("vnodesPerUnit = 0 accepted")
	}
}

// TestWeightedRingArcShares: with many vnodes per capacity unit, each
// peer's arc share approaches capacity/C.
func TestWeightedRingArcShares(t *testing.T) {
	caps := []int64{1, 1, 4, 4, 10}
	var total int64
	for _, c := range caps {
		total += c
	}
	// average arc shares over several rings to beat single-ring variance
	shares := make([]float64, len(caps))
	const reps = 30
	for rep := 0; rep < reps; rep++ {
		r := xrand.NewStream(500, uint64(rep))
		ring, err := NewWeightedRing(caps, 64, r)
		if err != nil {
			t.Fatal(err)
		}
		arcs := ring.ArcLengths()
		for i, a := range arcs {
			shares[i] += a / reps
		}
	}
	for i, c := range caps {
		want := float64(c) / float64(total)
		if math.Abs(shares[i]-want) > 0.25*want+0.01 {
			t.Fatalf("peer %d (cap %d): arc share %.4f, want ~%.4f", i, c, shares[i], want)
		}
	}
}

// TestWeightedRingGame: the d-point game on a capacity-weighted ring is
// playable and conserves balls.
func TestWeightedRingGame(t *testing.T) {
	r := xrand.New(11)
	ring, err := NewWeightedRing([]int64{1, 2, 3, 4}, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	if ring.N() != 4 {
		t.Fatalf("N = %d", ring.N())
	}
	loads, err := ring.DChoiceLoads(100, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, l := range loads {
		sum += l
	}
	if sum != 100 {
		t.Fatalf("loads sum %d", sum)
	}
}

// Property: lookups always return a valid peer and arcs are a probability
// vector for arbitrary ring shapes.
func TestQuickRingInvariants(t *testing.T) {
	f := func(seed uint64, nRaw, vRaw uint8) bool {
		n := int(nRaw%50) + 1
		v := int(vRaw%4) + 1
		r := xrand.New(seed)
		ring, err := NewRing(n, v, r)
		if err != nil {
			return false
		}
		for i := 0; i < 16; i++ {
			p := ring.Lookup(r.Float64())
			if p < 0 || p >= n {
				return false
			}
		}
		sum := 0.0
		for _, a := range ring.ArcLengths() {
			if a < -1e-12 {
				return false
			}
			sum += a
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLookupBatchParity: LookupBatch resolves every query to exactly
// the peer the serial Lookup returns, whatever the query order.
func TestLookupBatchParity(t *testing.T) {
	ring, err := NewWeightedRing([]int64{3, 1, 4, 1, 5}, 3, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(42)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	// Include wrap-around and boundary-adjacent queries.
	xs = append(xs, 0, 0.9999999, 1e-12)
	out := ring.LookupBatch(xs, nil)
	for i, x := range xs {
		if want := ring.Lookup(x); out[i] != want {
			t.Fatalf("query %d (%v): batch %d, serial %d", i, x, out[i], want)
		}
	}
}

// TestChurnLookupOracle: after RemovePeer(p), every point keeps its
// owner unless it was owned by p — those move to SOME other live peer —
// and AddPeer(p) restores the original ring bit-identically (ownership
// AND arc lengths), because a peer's vnode points are cached, not
// redrawn.
func TestChurnLookupOracle(t *testing.T) {
	ring, err := NewWeightedRing([]int64{2, 3, 4, 5}, 4, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(99)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	origOwner := ring.LookupBatch(xs, nil)
	origOwner = append([]int(nil), origOwner...)
	origArcs := ring.ArcLengths()

	const p = 2
	if err := ring.RemovePeer(p); err != nil {
		t.Fatal(err)
	}
	if ring.NumLive() != 3 || ring.Live(p) {
		t.Fatalf("NumLive/Live after remove: %d/%v", ring.NumLive(), ring.Live(p))
	}
	if got := ring.ArcLengths()[p]; got != 0 {
		t.Fatalf("dead peer's arc length = %v, want 0", got)
	}
	after := ring.LookupBatch(xs, nil)
	for i := range xs {
		switch {
		case origOwner[i] != p && after[i] != origOwner[i]:
			t.Fatalf("query %d moved from live peer %d to %d", i, origOwner[i], after[i])
		case origOwner[i] == p && after[i] == p:
			t.Fatalf("query %d still resolves to the dead peer", i)
		}
	}

	if err := ring.AddPeer(p); err != nil {
		t.Fatal(err)
	}
	restored := ring.LookupBatch(xs, nil)
	for i := range xs {
		if restored[i] != origOwner[i] {
			t.Fatalf("query %d: owner %d after recover, originally %d", i, restored[i], origOwner[i])
		}
	}
	for i, a := range ring.ArcLengths() {
		if a != origArcs[i] {
			t.Fatalf("arc %d = %v after recover, originally %v", i, a, origArcs[i])
		}
	}
}

// TestChurnErrors: the membership operations reject out-of-range,
// double-down, double-up and last-live-peer transitions by name.
func TestChurnErrors(t *testing.T) {
	ring, err := NewRing(2, 3, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ring.RemovePeer(5); err == nil {
		t.Error("out-of-range RemovePeer accepted")
	}
	if err := ring.AddPeer(0); err == nil {
		t.Error("AddPeer of a live peer accepted")
	}
	if err := ring.RemovePeer(0); err != nil {
		t.Fatal(err)
	}
	if err := ring.RemovePeer(0); err == nil {
		t.Error("double RemovePeer accepted")
	}
	if err := ring.RemovePeer(1); err == nil {
		t.Error("last live peer removed")
	}
}

// dchoiceSerial is the pre-batching reference implementation: one
// Lookup per drawn position, in ball order.
func dchoiceSerial(r *Ring, m int64, d int, rng *xrand.Rand) []int64 {
	loads := make([]int64, r.N())
	cand := make([]int, d)
	for b := int64(0); b < m; b++ {
		for j := 0; j < d; j++ {
			cand[j] = r.Lookup(rng.Float64())
		}
		best := cand[0]
		for _, p := range cand[1:] {
			if loads[p] < loads[best] {
				best = p
			}
		}
		loads[best]++
	}
	return loads
}

// TestDChoiceBatchParity: the batched DChoiceLoads is bit-identical to
// the serial per-ball reference — same seed, same loads — including
// across a chunk boundary and after churn. This is the ring-parity
// oracle the cluster engine's dispatch path leans on.
func TestDChoiceBatchParity(t *testing.T) {
	ring, err := NewWeightedRing([]int64{1, 2, 3, 4, 5, 6}, 3, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	check := func(m int64, d int) {
		t.Helper()
		got, err := ring.DChoiceLoads(m, d, xrand.New(77))
		if err != nil {
			t.Fatal(err)
		}
		want := dchoiceSerial(ring, m, d, xrand.New(77))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("m=%d d=%d: peer %d batched %d, serial %d", m, d, i, got[i], want[i])
			}
		}
	}
	check(100, 2)
	check(5000, 2) // spans a chunk boundary (chunk = 4096)
	check(300, 3)
	if err := ring.RemovePeer(3); err != nil {
		t.Fatal(err)
	}
	check(5000, 2) // churned ring: dead peer owns nothing
	loads, err := ring.DChoiceLoads(5000, 2, xrand.New(77))
	if err != nil {
		t.Fatal(err)
	}
	if loads[3] != 0 {
		t.Fatalf("dead peer received %d balls", loads[3])
	}
}

// spliceRing is the reference membership algorithm the live-flag Ring
// replaced: only live peers' points are mounted, in one compacted
// sorted array; RemovePeer compacts a peer's points out and AddPeer
// merges its cached ascending point set back in. Kept here as the
// oracle for the live-flag design.
type spliceRing struct {
	points  []float64
	owner   []int32
	peerPts [][]float64
	n       int
}

// newSpliceRing draws the points exactly as build does (peer order)
// and mounts them with a position-only sort, as the reference did.
func newSpliceRing(counts []int, r *xrand.Rand) *spliceRing {
	type pv struct {
		pos   float64
		owner int32
	}
	s := &spliceRing{n: len(counts), peerPts: make([][]float64, len(counts))}
	var pvs []pv
	for p, c := range counts {
		pts := make([]float64, c)
		for v := range pts {
			pts[v] = r.Float64()
			pvs = append(pvs, pv{pts[v], int32(p)})
		}
		sort.Float64s(pts)
		s.peerPts[p] = pts
	}
	sort.Slice(pvs, func(i, j int) bool { return pvs[i].pos < pvs[j].pos })
	for _, e := range pvs {
		s.points = append(s.points, e.pos)
		s.owner = append(s.owner, e.owner)
	}
	return s
}

func (s *spliceRing) remove(p int) {
	k := 0
	for i := range s.points {
		if s.owner[i] == int32(p) {
			continue
		}
		s.points[k], s.owner[k] = s.points[i], s.owner[i]
		k++
	}
	s.points, s.owner = s.points[:k], s.owner[:k]
}

func (s *spliceRing) add(p int) {
	pts := s.peerPts[p]
	old := len(s.points)
	s.points = append(s.points, pts...)
	s.owner = append(s.owner, make([]int32, len(pts))...)
	i, k := old-1, len(s.points)-1
	for j := len(pts) - 1; j >= 0; k-- {
		if i >= 0 && s.points[i] > pts[j] {
			s.points[k], s.owner[k] = s.points[i], s.owner[i]
			i--
		} else {
			s.points[k], s.owner[k] = pts[j], int32(p)
			j--
		}
	}
}

func (s *spliceRing) lookup(x float64) int {
	i := sort.SearchFloat64s(s.points, x)
	if i == len(s.points) {
		i = 0
	}
	return int(s.owner[i])
}

func (s *spliceRing) arcs() []float64 {
	dst := make([]float64, s.n)
	for i := range s.points {
		prev := 0.0
		if i == 0 {
			prev = s.points[len(s.points)-1] - 1
		} else {
			prev = s.points[i-1]
		}
		dst[s.owner[i]] += s.points[i] - prev
	}
	return dst
}

// TestChurnSpliceOracleIdentical drives the live-flag Ring and the
// splice reference through the same random RemovePeer/AddPeer batches
// — including a phase with over 90% of peers dead — and asserts, bit
// for bit after every batch: ArcLengthsInto, an arc vector maintained
// incrementally through TouchedPeers/PeerArc (every entry, touched or
// not), Lookup and LookupBatch all equal the reference.
func TestChurnSpliceOracleIdentical(t *testing.T) {
	cases := []struct {
		name   string
		counts []int
	}{
		{"uniform-v1", repeatCount(60, 1)},
		{"uniform-v4", repeatCount(40, 4)},
		{"weighted", []int{2, 6, 4, 2, 10, 8, 2, 4, 6, 2, 20, 2, 4, 6, 8, 2, 2, 4, 10, 2}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ring, err := build(tc.counts, xrand.NewStream(31, uint64(ci)))
			if err != nil {
				t.Fatal(err)
			}
			ref := newSpliceRing(tc.counts, xrand.NewStream(31, uint64(ci)))
			n := len(tc.counts)
			rng := xrand.New(uint64(1000 + ci))
			xs := make([]float64, 0, 600)
			for len(xs) < 500 {
				xs = append(xs, rng.Float64())
			}
			// exact point hits, the ring ends and the wrap region
			for i := 0; i < len(ring.points); i += 7 {
				xs = append(xs, ring.points[i])
			}
			xs = append(xs, 0, math.Nextafter(1, 0), ring.points[len(ring.points)-1], math.Nextafter(ring.points[0], 0))

			inc := ring.ArcLengths()
			var dst []float64
			var owners, touched []int
			var toggled []int
			check := func(step int) {
				t.Helper()
				want := ref.arcs()
				dst = ring.ArcLengthsInto(dst)
				for p := 0; p < n; p++ {
					if math.Float64bits(dst[p]) != math.Float64bits(want[p]) {
						t.Fatalf("step %d: ArcLengthsInto[%d] = %v, reference %v", step, p, dst[p], want[p])
					}
					if math.Float64bits(inc[p]) != math.Float64bits(want[p]) {
						t.Fatalf("step %d: incremental arc[%d] = %v, reference %v", step, p, inc[p], want[p])
					}
				}
				owners = ring.LookupBatch(xs, owners)
				for i, x := range xs {
					w := ref.lookup(x)
					if got := ring.Lookup(x); got != w {
						t.Fatalf("step %d: Lookup(%v) = %d, reference %d", step, x, got, w)
					}
					if owners[i] != w {
						t.Fatalf("step %d: LookupBatch(%v) = %d, reference %d", step, x, owners[i], w)
					}
				}
			}
			toggle := func(p int) {
				if ring.Live(p) {
					if ring.NumLive() == 1 {
						return
					}
					if err := ring.RemovePeer(p); err != nil {
						t.Fatal(err)
					}
					ref.remove(p)
				} else {
					if err := ring.AddPeer(p); err != nil {
						t.Fatal(err)
					}
					ref.add(p)
				}
				toggled = append(toggled, p)
			}
			commit := func() {
				touched = ring.TouchedPeers(toggled, touched[:0])
				for _, p := range touched {
					inc[p] = ring.PeerArc(p)
				}
				toggled = toggled[:0]
			}
			check(-1)
			step := 0
			// Phase 1: random batches of 1..4 toggles.
			for ; step < 150; step++ {
				for k := 1 + int(rng.Uint64()%4); k > 0; k-- {
					toggle(int(rng.Uint64() % uint64(n)))
				}
				commit()
				check(step)
			}
			// Phase 2: kill peers until over 90% are dead, in batches.
			for ring.NumLive()*10 >= n {
				for k := 1 + int(rng.Uint64()%6); k > 0; k-- {
					if p := int(rng.Uint64() % uint64(n)); ring.Live(p) {
						toggle(p)
					}
				}
				commit()
				check(step)
				step++
			}
			// Phase 3: churn at the floor — mostly removals of the few
			// live peers, with the occasional recovery — then recover.
			for k := 0; k < 100; k++ {
				p := int(rng.Uint64() % uint64(n))
				if ring.Live(p) || rng.Float64() < 0.1 {
					toggle(p)
				}
				if rng.Float64() < 0.5 {
					commit()
					check(step)
				}
				step++
			}
			commit()
			for p := 0; p < n; p++ {
				if !ring.Live(p) {
					toggle(p)
				}
			}
			commit()
			check(step)
		})
	}
}

func repeatCount(n, v int) []int {
	c := make([]int, n)
	for i := range c {
		c[i] = v
	}
	return c
}

// TestRingPointCountOverflow: a ring of more than MaxInt32 points — a
// capacity × vnodes product that overflows int, or a total past the
// int32 index range — is an error naming the peer, returned before
// anything of the ring's size is allocated (the 1<<62 cases used to
// panic in makeslice).
func TestRingPointCountOverflow(t *testing.T) {
	r := xrand.New(1)
	for _, tc := range []struct {
		name string
		make func() (*Ring, error)
		peer string
	}{
		{"weighted product", func() (*Ring, error) { return NewWeightedRing([]int64{1, 10}, 1<<62, r) }, "peer 0"},
		{"weighted product of a later peer", func() (*Ring, error) { return NewWeightedRing([]int64{1, 1 << 40}, 1<<20, r) }, "peer 1"},
		{"weighted total", func() (*Ring, error) { return NewWeightedRing([]int64{1 << 30, 1 << 30, 1}, 1, r) }, "0..1"},
		{"uniform vnodes", func() (*Ring, error) { return NewRing(3, 1<<62, r) }, "0..0"},
		{"uniform total", func() (*Ring, error) { return NewRing(1<<20, 1<<12, r) }, "0..524287"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ring, err := tc.make()
			if err == nil {
				t.Fatalf("ring of %d points accepted", len(ring.points))
			}
			if !strings.Contains(err.Error(), tc.peer) {
				t.Fatalf("error %q does not name %s", err, tc.peer)
			}
		})
	}
	// The limit itself is exact: a ring just under it is only checked
	// here, not built (it would need gigabytes).
	if err := tooManyPoints(0); !strings.Contains(err.Error(), fmt.Sprint(math.MaxInt32)) {
		t.Fatalf("error %q does not name the limit", err)
	}
}

// sortPointsRef is the reference order sortPoints must reproduce: the
// (position, owner) comparator sort the ring was built with before the
// bucket sort.
func sortPointsRef(pos []float64, off []int32) ([]float64, []int32) {
	type pv struct {
		pos   float64
		owner int32
	}
	pvs := make([]pv, 0, len(pos))
	for p := 0; p+1 < len(off); p++ {
		for _, x := range pos[off[p]:off[p+1]] {
			pvs = append(pvs, pv{x, int32(p)})
		}
	}
	slices.SortFunc(pvs, func(a, b pv) int {
		if c := cmp.Compare(a.pos, b.pos); c != 0 {
			return c
		}
		return cmp.Compare(a.owner, b.owner)
	})
	points, owner := make([]float64, len(pvs)), make([]int32, len(pvs))
	for i, e := range pvs {
		points[i], owner[i] = e.pos, e.owner
	}
	return points, owner
}

// TestSortPointsParity: the bucket sort lays out exactly the
// comparator sort's (position, owner) order — on forced ties within
// and across peers, the extreme positions 0 and 1−2⁻⁵³, every point in
// one bucket, and random rings of 1 to 10⁵ points.
func TestSortPointsParity(t *testing.T) {
	const top = 1 - 0x1p-53
	type input struct {
		name   string
		counts []int
		pos    func(i int, r *xrand.Rand) float64
	}
	inputs := []input{
		{"single point", []int{1}, func(int, *xrand.Rand) float64 { return 0.5 }},
		{"ties across peers", []int{3, 2, 4, 1}, func(i int, _ *xrand.Rand) float64 { return float64(i%3) / 4 }},
		{"ties within a peer", []int{5, 5}, func(i int, _ *xrand.Rand) float64 { return float64(i%2) * 0.25 }},
		{"extremes", []int{2, 2, 2}, func(i int, _ *xrand.Rand) float64 { return []float64{top, 0}[i%2] }},
		{"all equal", repeatCount(50, 3), func(int, *xrand.Rand) float64 { return 0.125 }},
		{"one bucket", repeatCount(40, 25), func(_ int, r *xrand.Rand) float64 { return r.Float64() * 0x1p-40 }},
		{"one bucket at the top", repeatCount(30, 10), func(_ int, r *xrand.Rand) float64 { return top - r.Float64()*0x1p-45 }},
		{"coarse grid", repeatCount(100, 20), func(_ int, r *xrand.Rand) float64 { return float64(r.Intn(64)) / 64 }},
		{"off-grid values", repeatCount(30, 30), func(_ int, r *xrand.Rand) float64 { return r.Float64() * r.Float64() * 1e-300 }},
	}
	r := xrand.New(5)
	for _, total := range []int{1, 2, 3, 7, 64, 1000, 12345, 100_000} {
		var counts []int
		for left := total; left > 0; {
			c := min(1+r.Intn(12), left)
			counts = append(counts, c)
			left -= c
		}
		inputs = append(inputs, input{fmt.Sprintf("random %d", total), counts, func(_ int, r *xrand.Rand) float64 { return r.Float64() }})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			off := make([]int32, len(in.counts)+1)
			for p, c := range in.counts {
				off[p+1] = off[p] + int32(c)
			}
			pos := make([]float64, off[len(in.counts)])
			rng := xrand.New(uint64(len(pos)))
			for i := range pos {
				pos[i] = in.pos(i, rng)
			}
			points, owner := make([]float64, len(pos)), make([]int32, len(pos))
			sortPoints(pos, off, points, owner)
			wantPoints, wantOwner := sortPointsRef(pos, off)
			for i := range points {
				if math.Float64bits(points[i]) != math.Float64bits(wantPoints[i]) || owner[i] != wantOwner[i] {
					t.Fatalf("point %d of %d: (%v, %d), want (%v, %d)",
						i, len(points), points[i], owner[i], wantPoints[i], wantOwner[i])
				}
			}
		})
	}
}

// BenchmarkRingBuild builds the ring of the cluster-serve workload:
// 10⁴ two-class peers (capacities 1 and 10) at 2 vnodes per capacity
// unit, 110k points.
func BenchmarkRingBuild(b *testing.B) {
	caps := make([]int64, 10_000)
	for i := range caps {
		caps[i] = 1
		if i >= len(caps)/2 {
			caps[i] = 10
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring, err := NewWeightedRing(caps, 2, xrand.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		ringSink = ring
	}
}

// ringSink keeps BenchmarkRingBuild's rings live.
var ringSink *Ring
