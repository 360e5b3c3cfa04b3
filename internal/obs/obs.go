// Package obs is the observation subsystem: the merge-able collectors
// that every simulation engine behind sim.Dispatch — the classic and
// closed-form chunked engines, the sharded engine, and the streaming
// and cluster engines — folds its observations into.
//
// # Cuts and merge order
//
// Checkpoints, Heights and SortedLoads are fed observations of
// bin-array state at deterministic cut points: SnapshotHist(cut, ...)
// (or the array-scanning Snapshot) with cut >= 0 records the running
// state at checkpoint index cut, and cut == Final records the
// end-of-game state; each collector ignores the cuts that do not
// concern it. Classes takes whole observations through Observe, and
// ShardStats one shard's at a time. Partial collectors from different
// aggregation domains (repetition chunks, shards, repetitions) are
// folded with each type's Merge, which takes a collector of the same
// type and shape; engines
// MUST merge in a deterministic order (chunk order, shard order,
// repetition order) so that floating-point aggregation is
// bit-identical for any worker topology.
//
// # Cost model: one pass, then pairs
//
// Collectors are block-grained, never ball-grained — and since the
// histogram kernel (bins.LoadHistogram) they share ONE pass, not one
// scan each. A snapshot builds an exact integer histogram over the
// distinct (ball count, capacity class) pairs in one O(n) (or
// O(shard)) sweep; every collector then derives its rows from the
// pairs (SnapshotHist, or Observe for Classes): Checkpoints take an
// exact rational argmax over at most (classes) candidate pairs,
// Heights a weighted suffix sum, SortedLoads a counting sort by
// cross-multiplied rational order over the few hundred distinct pairs
// (never an O(n log n) float sort), Classes one histogram column per
// class. Histograms merge by integer addition, so sharded engines
// build them per shard in parallel and fold in shard order; every
// derived float is then computed once, from the same integers, for any
// worker topology.
// The array-scanning Snapshot methods remain as the reference path —
// equivalence tests pin the two bit-identical. When no collector is
// requested the engines skip every observation hook, so the
// no-collector hot path costs nothing (bench-gated).
//
// # Sharded checkpoint cuts are part of the model
//
// In the sharded engines there is no per-ball order, only the
// block-wise multinomial routing pass (internal/sim's route.go): the
// model orders balls routing block by routing block and, within a
// block, by shard index. A checkpoint at B balls is realised as
// per-shard cuts — the number of balls among the first B so ordered
// that belong to shard s (full blocks below B plus a shard-ordered
// partial fill of the boundary block) — aligned DOWN to a multiple of
// the placement kernel's block size (AlignShardCuts), so snapshots
// land between 256-ball SampleBatch blocks and never split a kernel
// block. The realised ball count at a cut (Σ over shards, itself a
// multiple of the block size) is therefore at most B — and can be 0
// for a cut whose aligned per-shard prefixes all vanish (B below
// roughly the kernel block size), in which case the engines skip the
// observation entirely (like a cut beyond m, visible through
// CheckpointRow.Reps) rather than record a fictitious empty state.
// Like Shards and the routing-block structure, this cut rule is part
// of the model: it depends only on (seed, shards, checkpoints), never
// on Workers.
package obs

import (
	"fmt"
	"slices"

	"repro/internal/bins"
	"repro/internal/stats"
)

// Final is the Snapshot cut index of the end-of-game observation.
const Final = -1

// LoadHistogram is the one-pass observation kernel every collector can
// derive its rows from; see bins.LoadHistogram and the package
// comment's cost model.
type LoadHistogram = bins.LoadHistogram

// NormalizeCuts validates the requested checkpoint ball counts and
// returns a private copy. Cuts must be positive (a checkpoint at 0
// balls can never be reached by a placement) and strictly increasing:
// an unsorted or duplicated list is rejected with a field-named error
// instead of being silently reordered — a caller who passes cuts out
// of order almost certainly has a bug upstream, and silent sorting
// would make the mistake invisible in every downstream row.
func NormalizeCuts(cuts []int64) ([]int64, error) {
	for i, c := range cuts {
		if c < 1 {
			return nil, fmt.Errorf("obs: Checkpoints[%d] = %d balls, need >= 1", i, c)
		}
		if i > 0 && c <= cuts[i-1] {
			return nil, fmt.Errorf("obs: Checkpoints[%d] = %d after Checkpoints[%d] = %d: cuts must be strictly increasing", i, c, i-1, cuts[i-1])
		}
	}
	return slices.Clone(cuts), nil
}

// CountReached returns how many of the (ascending) cuts are <= m.
// Cuts beyond the ball count are never observed; callers can see the
// shortfall through CheckpointRow.Reps.
func CountReached(cuts []int64, m int64) int {
	n := 0
	for _, c := range cuts {
		if c > m {
			break
		}
		n++
	}
	return n
}

// AlignShardCuts converts per-checkpoint per-shard routing prefix
// counts into block-aligned cut counts, in place: prefix[k][s] — the
// number of balls among the first cuts[k] routed balls that went to
// shard s — is rounded down to a multiple of align, and realized[k]
// receives the per-checkpoint total Σ_s of the aligned cuts. align
// must be >= 1 (the engines pass the placement kernel's block size).
// The aligned matrix stays monotone in k column-wise, so per-shard
// placement segments are never negative.
func AlignShardCuts(prefix [][]int64, align int64, realized []int64) {
	for k, row := range prefix {
		var total int64
		for s := range row {
			row[s] -= row[s] % align
			total += row[s]
		}
		realized[k] = total
	}
}

// ---------------------------------------------------------------------
// Checkpoints

// CheckpointRow aggregates one checkpoint across repetitions. Its JSON
// keys, like HeightRow's and ShardRow's, are the sharded engine's
// resume-file format: renaming one breaks files already written.
type CheckpointRow struct {
	// Balls is the requested cut: a global ball count in the
	// repetition engines, a ROUND index in the streaming engine (cut k
	// observes the system at the end of round Balls).
	Balls int64 `json:"balls"`
	// RealBalls aggregates the realised ball count at the cut: equal
	// to Balls in the classic engine, the block-aligned per-shard sum
	// (<= Balls, and varying per repetition with the routing stream)
	// in the sharded engines, and the occupancy at the end of the cut
	// round in the streaming engine.
	RealBalls stats.Accumulator `json:"realBalls"`
	// MaxLoad aggregates the running maximum load at the cut.
	MaxLoad stats.Accumulator `json:"maxLoad"`
	// Deviation aggregates max − average load at the cut, where the
	// average is realised balls / total capacity.
	Deviation stats.Accumulator `json:"deviation"`
}

// Reps is the number of repetitions that actually observed this cut.
// Checkpoints beyond a repetition's ball count — and, in the sharded
// engines, cuts whose block-aligned realisation is empty — are
// skipped, so Reps may be smaller than the run's repetition count
// (and 0 when no repetition observed the cut at all).
func (r *CheckpointRow) Reps() int64 { return r.MaxLoad.N() }

// Checkpoints collects running (max, max − average) load observations
// at fixed ball counts — the paper's §4.4 heavy-load series.
type Checkpoints struct {
	rows []CheckpointRow
}

// NewCheckpoints builds a collector over the given cuts (normalized
// with NormalizeCuts). Every cut gets a row up front, so unreached
// cuts surface as rows with Reps() == 0 rather than disappearing.
func NewCheckpoints(cuts []int64) *Checkpoints {
	c := &Checkpoints{rows: make([]CheckpointRow, len(cuts))}
	for i, b := range cuts {
		c.rows[i].Balls = b
	}
	return c
}

// Observe records one repetition's realised observation at cut index
// i: balls placed at the cut, the array's total capacity, and the
// running maximum load. The deviation is maxLoad − balls/totalCap.
func (c *Checkpoints) Observe(i int, balls, totalCap int64, maxLoad float64) {
	r := &c.rows[i]
	r.RealBalls.Add(float64(balls))
	r.MaxLoad.Add(maxLoad)
	r.Deviation.Add(maxLoad - float64(balls)/float64(totalCap))
}

// Snapshot records a whole-array observation at checkpoint index
// cut; balls is the realised ball count behind it. Final is ignored —
// checkpoints observe only their own cuts.
func (c *Checkpoints) Snapshot(cut int, a *bins.Array, balls int64) error {
	if cut == Final {
		return nil
	}
	c.Observe(cut, balls, a.TotalCapacity(), a.MaxLoad())
	return nil
}

// SnapshotHist records the observation Snapshot would, derived from a
// histogram of the array: the max load is an exact rational argmax
// over the histogram's pairs, the capacity the per-class bin-count sum
// — bit-identical to the array scan.
func (c *Checkpoints) SnapshotHist(cut int, h *LoadHistogram, balls int64) error {
	if cut == Final {
		return nil
	}
	c.Observe(cut, balls, h.TotalCapacity(), h.MaxLoad())
	return nil
}

// Merge folds o, a collector over the same cuts, into c.
func (c *Checkpoints) Merge(o *Checkpoints) error {
	if len(o.rows) != len(c.rows) {
		return fmt.Errorf("obs: merging %d checkpoints into %d", len(o.rows), len(c.rows))
	}
	for i := range c.rows {
		if c.rows[i].Balls != o.rows[i].Balls {
			return fmt.Errorf("obs: checkpoint %d cut mismatch: %d vs %d", i, c.rows[i].Balls, o.rows[i].Balls)
		}
		c.rows[i].RealBalls.Merge(&o.rows[i].RealBalls)
		c.rows[i].MaxLoad.Merge(&o.rows[i].MaxLoad)
		c.rows[i].Deviation.Merge(&o.rows[i].Deviation)
	}
	return nil
}

// Rows returns the per-checkpoint aggregates in ascending cut order.
func (c *Checkpoints) Rows() []CheckpointRow { return c.rows }

// ---------------------------------------------------------------------
// Heights

// HeightRow aggregates, across repetitions, the number of bins whose
// final load is at least Level — the observable of the balls-into-bins
// concentration bounds (bins above height k).
type HeightRow struct {
	Level int64             `json:"level"`
	Bins  stats.Accumulator `json:"bins"`
}

// Heights counts bins at load >= k for k = 1..levels over the final
// state of each repetition. Bins at or above the top level all count
// into every row they dominate (the rows are cumulative from above).
type Heights struct {
	rows    []HeightRow
	scratch []int64
}

// NewHeights builds a collector for levels k = 1..levels (levels >= 1).
func NewHeights(levels int) *Heights {
	h := &Heights{rows: make([]HeightRow, levels), scratch: make([]int64, levels)}
	for i := range h.rows {
		h.rows[i].Level = int64(i + 1)
	}
	return h
}

// CountAtOrAbove fills counts[k-1] with the number of bins of a whose
// load is >= k, for k = 1..len(counts). Load comparisons are exact:
// load >= k iff balls >= k·capacity in integers.
func CountAtOrAbove(a *bins.Array, counts []int64) {
	levels := len(counts)
	for i := range counts {
		counts[i] = 0
	}
	for i := 0; i < a.N(); i++ {
		k := int(a.Balls(i) / a.Capacity(i))
		if k > levels {
			k = levels
		}
		if k >= 1 {
			counts[k-1]++
		}
	}
	// cumulate from the top: load >= k includes every higher bucket
	for k := levels - 1; k >= 1; k-- {
		counts[k-1] += counts[k]
	}
}

// Observe folds one repetition's bins-at-or-above counts (as produced
// by CountAtOrAbove with one count per level).
func (h *Heights) Observe(counts []int64) {
	for i := range h.rows {
		h.rows[i].Bins.Add(float64(counts[i]))
	}
}

// Snapshot records the final state of a; Heights ignores every other
// cut.
func (h *Heights) Snapshot(cut int, a *bins.Array, balls int64) error {
	if cut != Final {
		return nil
	}
	CountAtOrAbove(a, h.scratch)
	h.Observe(h.scratch)
	return nil
}

// SnapshotHist records the observation Snapshot would, derived from a
// histogram: the per-level counts are weighted suffix sums over the
// histogram's pairs — integer-exact, identical to the per-bin scan.
func (h *Heights) SnapshotHist(cut int, hist *LoadHistogram, balls int64) error {
	if cut != Final {
		return nil
	}
	hist.CountAtOrAbove(h.scratch)
	h.Observe(h.scratch)
	return nil
}

// Merge folds o, a collector over the same levels, into h.
func (h *Heights) Merge(o *Heights) error {
	if len(o.rows) != len(h.rows) {
		return fmt.Errorf("obs: merging %d height levels into %d", len(o.rows), len(h.rows))
	}
	for i := range h.rows {
		h.rows[i].Bins.Merge(&o.rows[i].Bins)
	}
	return nil
}

// Rows returns the per-level aggregates in ascending level order.
func (h *Heights) Rows() []HeightRow { return h.rows }

// ---------------------------------------------------------------------
// SortedLoads

// SortedLoads accumulates the element-wise mean of the non-increasing
// sorted load vector across repetitions — the paper's "load
// distribution" curves. Per-repetition vectors are never retained.
type SortedLoads struct {
	sum     []float64
	n       int64
	scratch []float64
	pairs   []bins.LoadPair // SnapshotHist scratch, reused across reps
}

// NewSortedLoads builds an empty collector; the vector length is fixed
// by the first observation.
func NewSortedLoads() *SortedLoads { return &SortedLoads{} }

// Observe folds one repetition's ASCENDING-sorted load vector (the
// sort order the engines' scratch buffers already produce); the
// accumulated mean is reported non-increasing.
func (s *SortedLoads) Observe(sortedAsc []float64) error {
	if s.sum == nil {
		s.sum = make([]float64, len(sortedAsc))
	}
	if len(s.sum) != len(sortedAsc) {
		return fmt.Errorf("obs: load vector of %d bins, earlier repetitions had %d", len(sortedAsc), len(s.sum))
	}
	for i := range sortedAsc {
		s.sum[i] += sortedAsc[len(sortedAsc)-1-i]
	}
	s.n++
	return nil
}

// Snapshot records the final state of a, sorting its loads into an
// internal scratch buffer; SortedLoads ignores every other cut.
func (s *SortedLoads) Snapshot(cut int, a *bins.Array, balls int64) error {
	if cut != Final {
		return nil
	}
	s.scratch = a.LoadVectorInto(s.scratch)
	slices.Sort(s.scratch)
	return s.Observe(s.scratch)
}

// SnapshotHist records the observation Snapshot would, derived from a
// histogram: a counting sort over the histogram's distinct pairs
// replaces the O(n log n) float sort. The
// pairs are ranked by exact cross-multiplied rational order
// (descending) and expanded by multiplicity into the running sums;
// float64 conversion is monotone on exactly-representable operands, so
// the emitted sequence — and therefore every accumulated sum — is
// bit-identical to sorting the float load vector.
func (s *SortedLoads) SnapshotHist(cut int, h *LoadHistogram, balls int64) error {
	if cut != Final {
		return nil
	}
	n := h.Bins()
	if s.sum == nil {
		s.sum = make([]float64, n)
	}
	if int64(len(s.sum)) != n {
		return fmt.Errorf("obs: load histogram over %d bins, earlier repetitions had %d", n, len(s.sum))
	}
	s.pairs = h.AppendPairs(s.pairs[:0])
	slices.SortFunc(s.pairs, func(p, q bins.LoadPair) int {
		return bins.CompareLoadPairs(q, p) // descending load order
	})
	pos := 0
	for _, p := range s.pairs {
		v := float64(p.Balls) / float64(p.Cap)
		for j := int64(0); j < p.Count; j++ {
			s.sum[pos] += v
			pos++
		}
	}
	s.n++
	return nil
}

// Merge folds o, a collector over as many bins, into s.
func (s *SortedLoads) Merge(o *SortedLoads) error {
	if o.sum == nil {
		return nil
	}
	if s.sum == nil {
		s.sum = make([]float64, len(o.sum))
	}
	if len(s.sum) != len(o.sum) {
		return fmt.Errorf("obs: merging load vectors of %d and %d bins", len(o.sum), len(s.sum))
	}
	for i, v := range o.sum {
		s.sum[i] += v
	}
	s.n += o.n
	return nil
}

// Reps returns the number of repetitions observed.
func (s *SortedLoads) Reps() int64 { return s.n }

// State exposes the running sum vector and observation count for
// checkpoint/resume serialization. The returned slice is the live
// backing array — callers must not mutate it.
func (s *SortedLoads) State() (sum []float64, n int64) { return s.sum, s.n }

// RestoreSortedLoads rebuilds a collector from serialized state; a
// restored collector continues bit-identically (float64 addition onto
// the exact same running sums).
func RestoreSortedLoads(sum []float64, n int64) *SortedLoads {
	return &SortedLoads{sum: slices.Clone(sum), n: n}
}

// Mean returns the element-wise mean non-increasing load vector, or
// nil when nothing was observed.
func (s *SortedLoads) Mean() []float64 {
	if s.n == 0 {
		return nil
	}
	out := make([]float64, len(s.sum))
	for i, v := range s.sum {
		out[i] = v / float64(s.n)
	}
	return out
}

// ---------------------------------------------------------------------
// ShardStats

// ShardRow aggregates one shard across repetitions.
type ShardRow struct {
	Shard int `json:"shard"`
	// Balls aggregates the number of balls routed to the shard.
	Balls stats.Accumulator `json:"balls"`
	// MaxLoad aggregates the shard-local final maximum load.
	MaxLoad stats.Accumulator `json:"maxLoad"`
}

// ShardStats collects per-shard routing and load statistics for the
// sharded engines — the imbalance view of the two-level protocol.
type ShardStats struct {
	rows []ShardRow
}

// NewShardStats builds a collector over the given shard count.
func NewShardStats(shards int) *ShardStats {
	s := &ShardStats{rows: make([]ShardRow, shards)}
	for i := range s.rows {
		s.rows[i].Shard = i
	}
	return s
}

// Observe folds shard shard's routed ball count and final shard-local
// maximum load of one repetition.
func (s *ShardStats) Observe(shard int, balls int64, maxLoad float64) error {
	if shard < 0 || shard >= len(s.rows) {
		return fmt.Errorf("obs: shard %d outside the collector's %d shards", shard, len(s.rows))
	}
	s.rows[shard].Balls.Add(float64(balls))
	s.rows[shard].MaxLoad.Add(maxLoad)
	return nil
}

// Rows returns the per-shard aggregates in shard order.
func (s *ShardStats) Rows() []ShardRow { return s.rows }

// ---------------------------------------------------------------------
// Classes

// Classes collects the per-capacity-class observables of each final
// state (Figs 7, 9, 12-13 and Observation 1) from its LoadHistogram:
// for every tracked class the repetitions in which one of its bins
// attains the maximum load, for every max-load class an accumulator of
// its maximum load, and for every vector class the running sums of its
// non-increasing load vector. Each list names a class at most once.
type Classes struct {
	track, maxLoads, vectors []int64

	maxCount map[int64]int64
	maxLoad  map[int64]*stats.Accumulator
	loadSum  map[int64][]float64
}

// NewClasses builds a collector over the given class lists (an empty
// list collects nothing). It returns a value, so a collector set
// embeds it without an allocation of its own.
func NewClasses(track, maxLoads, vectors []int64) Classes {
	c := Classes{track: track, maxLoads: maxLoads, vectors: vectors}
	if len(track) > 0 {
		c.maxCount = make(map[int64]int64, len(track))
	}
	if len(maxLoads) > 0 {
		c.maxLoad = make(map[int64]*stats.Accumulator, len(maxLoads))
	}
	if len(vectors) > 0 {
		c.loadSum = make(map[int64][]float64, len(vectors))
	}
	return c
}

// Observe folds one final state's class observables.
func (c *Classes) Observe(h *LoadHistogram) error {
	for _, class := range c.track {
		if h.ClassAttainsMax(class) {
			c.maxCount[class]++
		}
	}
	for _, class := range c.maxLoads {
		if c.maxLoad[class] == nil {
			c.maxLoad[class] = new(stats.Accumulator)
		}
		c.maxLoad[class].Add(h.MaxLoadOfClass(class))
	}
	for _, class := range c.vectors {
		if c.loadSum[class] == nil {
			c.loadSum[class] = make([]float64, h.ClassBins(class))
		}
		if err := h.AddClassLoadsDesc(class, c.loadSum[class]); err != nil {
			return fmt.Errorf("obs: class %d: %w", class, err)
		}
	}
	return nil
}

// Merge folds another collector over the same class lists into c.
func (c *Classes) Merge(o *Classes) error {
	for class, n := range o.maxCount {
		c.maxCount[class] += n
	}
	for class, acc := range o.maxLoad {
		if c.maxLoad[class] == nil {
			c.maxLoad[class] = new(stats.Accumulator)
		}
		c.maxLoad[class].Merge(acc)
	}
	for class, sum := range o.loadSum {
		if c.loadSum[class] == nil {
			c.loadSum[class] = make([]float64, len(sum))
		}
		dst := c.loadSum[class]
		if len(dst) != len(sum) {
			return fmt.Errorf("obs: merging class %d load vectors of %d and %d bins", class, len(sum), len(dst))
		}
		for i, v := range sum {
			dst[i] += v
		}
	}
	return nil
}

// Rows returns the observables over reps >= 1 folded repetitions: the
// fraction of them in which each tracked class attained the maximum
// load (a class that never did is absent), each max-load class's
// accumulator, and each vector class's mean load vector — divided in
// place, so Rows is called once, at the end. Unrequested maps are nil.
func (c *Classes) Rows(reps int64) (maxFraction map[int64]float64, maxLoad map[int64]*stats.Accumulator, meanLoads map[int64][]float64) {
	if c.maxCount != nil {
		maxFraction = make(map[int64]float64, len(c.maxCount))
		for class, n := range c.maxCount {
			maxFraction[class] = float64(n) / float64(reps)
		}
	}
	for _, sum := range c.loadSum {
		for i := range sum {
			sum[i] /= float64(reps)
		}
	}
	return maxFraction, c.maxLoad, c.loadSum
}
