// Streaming engine: the balls-into-bins game as a round-structured
// stream. Balls ARRIVE in rounds (a fixed per-round count or an
// explicit schedule), a deterministic deletion stream EXPIRES balls
// between arrivals, and an optional inter-round rebalance pass bounds
// how far the per-shard occupancies drift from the shard weights. One
// round is: arrivals → deletions → rebalance → observation.
//
// # Model
//
// Arrivals reuse the sharded engine's two-level protocol unchanged:
// the round's balls are routed to shards block-wise (exact
// Multinomial(blockBalls, shardWeights) per routing block, route.go)
// and each shard places its routed balls with its own pre-built
// protocol state on its own bins.Shard view.
//
// Deletions are exactly uniform WITHOUT replacement over the balls
// currently in the system, factorised like routing. The delete-route
// step splits the round's deletion count over the shards by one
// multivariate-hypergeometric draw over the per-shard occupancies
// (sampling.MultiHypergeometric: conditional Hypergeometric splits
// down the shards' balanced interval tree, at most Shards−1 draws on
// the orchestrator). Each shard's delete task reads the shard's loads
// once, building a 64-leaf count tree per 64-bin block in a forest of
// the running worker slot's scratch, splits its quota the same way over
// the blocks' totals, then takes every block's share with one fused
// draw-and-decrement descent (sampling.SampleDecNodes) per deleted
// ball on the block's tree. Every stage draws from the exact
// without-replacement law — the splits up to float64 rounding of their
// acceptance tests, the descents all-integer — so the deletion law is
// exact, not a relaxation.
//
// The rebalance pass (enabled by RebalanceTol > 0) moves balls from
// shards above (1+tol)·target to shards below target, where shard s's
// target is its weight share of the current occupancy. Surplus balls
// are removed uniformly without replacement from their shard and
// re-placed by the destination shard's protocol; destinations receive
// the surplus apportioned to their deficits by largest remainder — a
// deterministic integer rule with no RNG of its own.
//
// # Determinism: the substream layout is part of the model
//
// One round consumes K = 3·Shards + 2 consecutive RNG streams; round
// r's base stream is r·K. Within a round:
//
//	base+0            arrival routing (routing blocks as substreams)
//	base+1+s          shard s placement (arrivals, then move-ins)
//	base+1+S          deletion shard-routing (S = Shards)
//	base+2+S+s        shard s within-shard deletion draws
//	base+2+2S+s      shard s rebalance move-out draws
//
// Every stream is owned by exactly one deterministic actor, so the
// result is a pure function of (capacities, distribution, protocol,
// schedule, Deletions, RebalanceTol, Seed, Shards, Rounds) and — bit
// for bit — independent of Workers. The layout is FROZEN: with
// Rounds = 1, Deletions = 0 and RebalanceTol = 0, round 0 consumes
// exactly the streams of the sharded engine's repetition 0 (routing on
// stream 0, shard s placement on stream 1+s), so a one-round quiet
// stream reproduces the single sharded game bit for bit — pinned by
// tests, like the stream goldens.
//
// # Observation
//
// Checkpoints are ROUND indices: cut k observes the whole system at
// the end of round Checkpoints[k] (1-based) through the existing
// obs.Checkpoints collector — CheckpointRow.Balls is the round index,
// RealBalls the occupancy at that round's end. Cuts beyond Rounds are
// skipped (visible through Reps), like cuts beyond m elsewhere.
//
// # Cancellation and faults
//
// A round is one step of the step driver (runner.go): every phase is
// one barrier of tasks per shard or routing group, and the deletion
// routing is an inline task on the orchestrator, all behind the
// runner's panic containment with Rep = the round index. Cancellation
// is polled at task boundaries (routing blocks, placement strides,
// deletion blocks), at every barrier and at every round boundary. A
// cancelled run returns a *CancelledError plus a deterministic
// partial: counters, shard occupancies and trajectory rows of the
// COMPLETED-ROUND prefix, bit-identical to a run configured with
// Rounds = CompletedRounds. Fault-injection sites cover routing blocks
// (OpRoute), placement strides (OpPlace), the deletion router and
// per-shard deletion tasks (OpDelete) and move-out tasks
// (OpRebalance).
package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"unsafe"

	"repro/internal/bins"
	"repro/internal/fault"
	"repro/internal/sampling"
	"repro/internal/xrand"
)

// StreamResult holds a streaming run's own counters (Result.Stream);
// the trajectory, the final whole-array statistics and the height
// counts live on the Result itself.
type StreamResult struct {
	// Rounds is the number of COMPLETED rounds (== the spec's rounds
	// unless the run was cancelled).
	Rounds int
	// Arrived, Deleted and Moved count the balls that arrived, were
	// deleted and were rebalanced across the completed rounds.
	Arrived int64
	Deleted int64
	Moved   int64
	// Balls is the occupancy after the last completed round
	// (== Arrived − Deleted).
	Balls int64
	// ShardBalls[s] is shard s's occupancy after the last completed
	// round.
	ShardBalls []int64
}

// StreamParams carries the round-structure parameters of a streaming
// run (RunSpec.Stream). Their presence is what makes a spec a
// streaming spec: EngineAuto dispatches to the streaming engine iff
// Stream is non-nil, and no other engine will silently run such a
// spec. The spec's Balls/BallsFactor become the per-round arrival
// count: a fixed count, or BallsFactor·C, or exactly C — Config's
// ball-count rules, per round.
type StreamParams struct {
	// Rounds is the number of rounds (>= 1). When Schedule is set and
	// Rounds is 0, Rounds defaults to len(Schedule). The run's
	// arrivals, Rounds times the per-round count, may total at most
	// 2^62.
	Rounds int
	// Schedule, when non-empty, gives every round's arrival count
	// explicitly (entries >= 0, summing to at most 2^62; length must
	// equal Rounds when Rounds is set). Mutually exclusive with
	// Balls/BallsFactor.
	Schedule []int64
	// Deletions is the number of balls deleted per round, clamped to
	// the current occupancy (>= 0).
	Deletions int64
	// RebalanceTol enables the inter-round rebalance pass when > 0:
	// after deletions, every shard holding more than
	// (1+RebalanceTol)·target balls sheds the excess to shards below
	// target. 0 disables the pass; a tolerance whose ceiling reaches
	// 2^63 balls (+Inf, 1e300) runs the pass but never moves a ball.
	RebalanceTol float64
}

// rounds is the run's round count: Rounds, or len(Schedule) when
// Rounds is 0.
func (p *StreamParams) rounds() int {
	if p.Rounds == 0 {
		return len(p.Schedule)
	}
	return p.Rounds
}

// validate checks the round parameters against the spec's ball count.
func (p *StreamParams) validate(c *Config) error {
	if len(p.Schedule) > 0 {
		if c.Balls != 0 || c.BallsFactor != 0 {
			return fmt.Errorf("sim: Schedule is mutually exclusive with Balls/BallsFactor")
		}
		if p.Rounds != 0 && p.Rounds != len(p.Schedule) {
			return fmt.Errorf("sim: Rounds = %d but len(Schedule) = %d", p.Rounds, len(p.Schedule))
		}
		var total int64
		for r, a := range p.Schedule {
			if a < 0 {
				return fmt.Errorf("sim: Schedule[%d] = %d, need >= 0", r, a)
			}
			if a > maxRunArrivals-total {
				return fmt.Errorf("sim: Schedule[%d] = %d takes the run past 2^62 arrivals", r, a)
			}
			total += a
		}
	}
	if p.rounds() < 1 {
		return fmt.Errorf("sim: Rounds = %d, need >= 1", p.Rounds)
	}
	if len(p.Schedule) == 0 {
		if m := c.BallCount(c.Array.TotalCapacity()); m > maxRunArrivals/int64(p.rounds()) {
			return fmt.Errorf("sim: Rounds = %d of %d arrivals (Balls/BallsFactor) exceed 2^62 arrivals", p.Rounds, m)
		}
	}
	if p.Deletions < 0 {
		return fmt.Errorf("sim: Deletions = %d, need >= 0", p.Deletions)
	}
	if p.RebalanceTol < 0 || p.RebalanceTol != p.RebalanceTol {
		return fmt.Errorf("sim: RebalanceTol = %v, need >= 0", p.RebalanceTol)
	}
	return nil
}

// Stream task kinds, after the step driver's: one per phase of a
// round, plus the inline deletion-routing step. Every task is
// identified by (kind, shard or routing-group index).
const (
	streamPlace = stepKinds + iota
	streamDeleteRoute
	streamDelete
	streamMoveOut
	streamMoveIn
)

var streamKinds = slices.Concat(stepNames, []taskName{
	{"place", "shard"}, {"delete-route", "deletion routing"},
	{"delete", "deletion shard"}, {"move-out", "move-out shard"}, {"move-in", "move-in shard"},
})

// apportion is the largest-remainder apportionment shared by the
// streaming rebalance and the cluster engine's redistribution and
// retry dispatch. It ranks candidate indices by descending residue
// (ties by ascending index — a total order, so the result is unique
// whatever selection or sort algorithm runs). Engines keep one in
// their state so splitting allocates nothing.
type apportion struct {
	rem []float64 // residue per shard (indexed by shard)
	idx []int     // candidate shard indices being sorted
}

func (a *apportion) Len() int           { return len(a.idx) }
func (a *apportion) Swap(i, j int)      { a.idx[i], a.idx[j] = a.idx[j], a.idx[i] }
func (a *apportion) Less(i, j int) bool { return a.ranks(a.idx[i], a.idx[j]) }

// ranks reports whether candidate x ranks before candidate y.
func (a *apportion) ranks(x, y int) bool {
	if a.rem[x] != a.rem[y] {
		return a.rem[x] > a.rem[y]
	}
	return x < y
}

// selectTop reorders idx so that its first r entries are the r
// top-ranked candidates, in no particular order — quickselect,
// expected O(len(idx)). 0 <= r <= len(idx).
func (a *apportion) selectTop(r int) {
	idx := a.idx
	lo, hi := 0, len(idx) // the top-r boundary r lies in [lo, hi]
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		idx[mid], idx[hi-1] = idx[hi-1], idx[mid]
		pivot := idx[hi-1]
		k := lo
		for j := lo; j < hi-1; j++ {
			if a.ranks(idx[j], pivot) {
				idx[k], idx[j] = idx[j], idx[k]
				k++
			}
		}
		idx[k], idx[hi-1] = idx[hi-1], idx[k]
		// idx[lo:k] rank before the pivot, now at k; idx[k+1:hi] after.
		switch {
		case r < k:
			hi = k
		case r > k+1:
			lo = k + 1
		default:
			return
		}
	}
}

// split apportions m balls over the entries of w with positive weight
// (sum = Σ w) and overwrites out (0 for weightless entries):
//
//   - floor quotas of m·w[s]/sum first;
//   - then one extra ball to each of the r = m − assigned top-ranked
//     candidates, found by selection since only the set matters;
//   - in the float-residue corner case of at least as much leftover as
//     candidates, wrapping around in descending-residue order, and
//     should the floors over-assign, taking back from the smallest
//     residues.
//
// The rule draws no randomness, and all arithmetic is exact integer or
// correctly-rounded IEEE binary (+, ·, /, Floor — no fused operations),
// so the split is bit-identical across platforms and worker counts.
func (a *apportion) split(m int64, w []float64, sum float64, out []int64) {
	clear(out)
	if m == 0 || sum <= 0 {
		return
	}
	a.idx = a.idx[:0]
	var assigned int64
	for s, ws := range w {
		if ws <= 0 {
			continue
		}
		ideal := float64(m) * ws / sum
		q := math.Floor(ideal)
		out[s] = int64(q)
		a.rem[s] = ideal - q
		assigned += int64(q)
		a.idx = append(a.idx, s)
	}
	k := len(a.idx)
	if k == 0 {
		return
	}
	if r := m - assigned; r >= 0 && r < int64(k) {
		if r > 0 {
			a.selectTop(int(r))
			for _, s := range a.idx[:r] {
				out[s]++
			}
		}
		return
	}
	sort.Sort(a)
	for r := m - assigned; r > 0; {
		for j := 0; j < k && r > 0; j++ {
			out[a.idx[j]]++
			r--
		}
	}
	for r := assigned - m; r > 0; {
		for j := k - 1; j >= 0 && r > 0; j-- {
			if out[a.idx[j]] > 0 {
				out[a.idx[j]]--
				r--
			}
		}
	}
}

// streamState is the engine's whole working set, allocated once before
// round 0: after a two-round warm-up a steady-state round performs no
// allocation at all (pinned by TestStreamSteadyStateAllocFree and the
// rounds/sec benchmark).
type streamState struct {
	stepper
	p StreamParams

	takes []takeScratch // per-worker-slot deletion scratch (deletion / move-out tasks)
	srand xrand.Rand    // deletion shard-routing stream

	sballs   []int64 // live per-shard occupancy
	total    int64   // live occupancy
	del      int64   // this round's deletions
	delQuota []int64
	moveOut  []int64
	moveIn   []int64
	targets  []float64 // rebalance scratch: per-shard occupancy targets
	defW     []float64 // rebalance scratch: per-shard deficit weights
	ap       apportion

	fixedM int64   // per-round arrivals when no schedule is set
	sched  []int64 // explicit schedule (nil when fixedM applies)

	// res is the committed prefix, updated only when a round completes,
	// so a cancelled run reports exactly the completed-round state.
	res StreamResult
}

// runStream executes one streaming run of spec.Stream's rounds: the
// spec's Balls/BallsFactor give the per-round arrivals, its
// Checkpoints are ROUND indices, and CancelAfter counts completed
// rounds. Dispatch (Engine = EngineStream) is its only entry point.
func runStream(spec *RunSpec) (*Result, error) {
	shards, err := spec.validate(EngineStream)
	if err != nil {
		return nil, err
	}
	sh, err := newSharded(engRunStream, spec, shards, nil)
	if err != nil {
		return nil, err
	}
	st := &streamState{p: *spec.Stream}
	if len(st.p.Schedule) > 0 {
		st.sched = st.p.Schedule
	} else {
		st.fixedM = spec.BallCount(sh.arr.TotalCapacity())
	}
	maxM := st.fixedM
	for _, a := range st.sched {
		maxM = max(maxM, a)
	}
	// Zero-weight shards get no view: routing never sends them a ball,
	// deletion and rebalance never touch an empty shard, and skipping
	// them keeps degenerate weight slices from failing the placer build.
	if err := st.init(engRunStream, spec, sh, st.p.rounds(), maxM, false); err != nil {
		return nil, err
	}
	st.kk, st.placeAt = uint64(3*shards+2), 1

	st.sballs = make([]int64, shards)
	st.res.ShardBalls = make([]int64, shards)
	st.delQuota = make([]int64, shards)
	st.moveOut = make([]int64, shards)
	st.moveIn = make([]int64, shards)
	st.targets = make([]float64, shards)
	st.defW = make([]float64, shards)
	st.ap = apportion{rem: make([]float64, shards), idx: make([]int, 0, shards)}
	cerr, err := st.run(st, engRunStream, streamKinds)
	if err != nil {
		return nil, err
	}
	res, err := st.result(st.res.Balls, cerr == nil)
	if err != nil {
		return nil, err
	}
	counters := st.res
	res.Stream = &counters
	if cerr != nil {
		return res, cerr
	}
	return res, nil
}

// prepare gives every worker slot the phases run its deletion scratch,
// sized for the widest shard: slots, not Workers, bound its memory.
func (st *streamState) prepare() error {
	widest := 0
	for s := 0; s < st.shards; s++ {
		widest = max(widest, st.bounds[s+1]-st.bounds[s])
	}
	st.takes = make([]takeScratch, st.ph.workers())
	for w := range st.takes {
		st.takes[w] = newTakeScratch(widest)
	}
	return nil
}

// exec executes one task. Task state is indexed by (kind, idx) and every
// task touches only its own shard's (or routing group's) state, plus a
// deletion task the running worker slot's scratch, which it fills
// before use, so any scheduling of tasks onto workers produces
// identical bits.
func (st *streamState) exec(kind, s, worker int) error {
	switch kind {
	case streamPlace:
		st.place(s, st.counts[s])
	case streamDeleteRoute:
		st.routeDeletions()
	case streamDelete:
		st.takeShard(s, worker, st.delQuota[s], fault.OpDelete, 2+uint64(st.shards))
	case streamMoveOut:
		st.takeShard(s, worker, st.moveOut[s], fault.OpRebalance, 2+2*uint64(st.shards))
	case streamMoveIn:
		st.place(s, st.moveIn[s])
	default:
		return st.stepExec(kind, s)
	}
	return nil
}

// takeBlock is the block width of the within-shard deletion kernel:
// 64 bins, whose count tree (64 nodes) fits eight cache lines.
const takeBlock = 64

// takeScratch is one worker slot's deletion scratch. Its headers are
// written once, before round 0; a deletion task re-seeds rng and
// refills the slices for the shard it takes from. The pad keeps rng,
// the only field written per draw, off the next slot's cache lines.
type takeScratch struct {
	rng    xrand.Rand
	forest []int64 // a 64-node count tree per block, block b at [64b, 64b+64)
	blk    []int64 // per-block ball totals
	quota  []int64 // per-block takes
	_      [24]byte
}

// Compile-time guard: takeScratch is two whole cache lines (re-size the
// pad when fields change; any other size makes the constant negative or
// non-zero, which does not compile).
const _ uintptr = 0 - (unsafe.Sizeof(takeScratch{}) ^ 128)

// newTakeScratch sizes the scratch for shards of up to n bins.
func newTakeScratch(n int) takeScratch {
	nb := (n + takeBlock - 1) / takeBlock
	return takeScratch{
		forest: make([]int64, nb*takeBlock),
		blk:    make([]int64, nb),
		quota:  make([]int64, nb),
	}
}

// takeShard removes q balls from shard s on worker slot worker's
// scratch, exactly uniformly without replacement, on the shard's
// stream base+off+s (take). It is both the deletion pass (delQuota,
// the within-shard deletion streams) and the rebalance move-out
// (moveOut, the move-out streams); moved-out balls are re-placed by the
// deficit shards' move-in tasks, and ball identity is not tracked,
// exactly as in the count-based routing model.
func (st *streamState) takeShard(s, worker int, q int64, op fault.Op, off uint64) {
	if q == 0 {
		return
	}
	if fault.Enabled {
		fault.Hit(fault.Site{Engine: engRunStream, Op: op, Rep: st.step, Shard: s, Block: -1})
	}
	tk := &st.takes[worker]
	tk.rng.Seed(xrand.Mix64(st.seed, st.base+off+uint64(s)))
	tk.take(st.cc, st.views[s], q)
}

// take removes q balls from view, exactly uniformly without
// replacement, on tk.rng, reading the view's loads once:
//
//   - one pass over the loads writes each 64-bin block's loads into
//     the block's slice of the forest, builds its count tree there in
//     place and takes the block's ball total from the tree's root;
//   - one MultiHypergeometric draw over the block totals splits q over
//     the blocks (at most blocks−1 Hypergeometric draws);
//   - every block with a take makes one SampleDecNodes descent (draw
//     and decrement) plus one Remove per ball on its own tree.
//
// Each descent draws Uint64n(block total) and picks the first bin whose
// prefix sum exceeds the draw, so the bins and the stream are those of
// a CountTree over the block's bins alone: a partial block's zero
// padding is never chosen. The trees mirror the view exactly, so Remove
// never hits an empty bin.
func (tk *takeScratch) take(cc *canceller, view *bins.Array, q int64) {
	n := view.N()
	nb := (n + takeBlock - 1) / takeBlock
	blk, quota := tk.blk[:nb], tk.quota[:nb]
	for b := range blk {
		lo := b * takeBlock
		nodes := tk.forest[lo : lo+takeBlock]
		w := min(takeBlock, n-lo)
		for i := range nodes[:w] {
			nodes[i] = view.Balls(lo + i)
		}
		clear(nodes[w:])
		blk[b] = sampling.BuildNodes(nodes)
	}
	sampling.MultiHypergeometric(&tk.rng, blk, q, quota)
	for b, k := range quota {
		if k == 0 {
			continue
		}
		if cc.cancelled() {
			return
		}
		lo := b * takeBlock
		nodes := tk.forest[lo : lo+takeBlock]
		for ; k > 0; k-- {
			view.Remove(lo + sampling.SampleDecNodes(&tk.rng, nodes))
		}
	}
}

// routeDeletions is the round's deletion shard-routing step, an inline
// task on the orchestrator: one MultiHypergeometric split of st.del
// over the shard occupancies on the round's deletion-routing stream —
// at most Shards−1 Hypergeometric draws down the shards' balanced
// interval tree. The quota vector is therefore
// multivariate-hypergeometric: exactly the shard counts of deleting
// st.del balls uniformly without replacement.
func (st *streamState) routeDeletions() {
	if fault.Enabled {
		fault.Hit(fault.Site{Engine: engRunStream, Op: fault.OpDelete, Rep: st.step, Shard: -1, Block: -1})
	}
	st.srand.Seed(xrand.Mix64(st.seed, st.base+1+uint64(st.shards)))
	sampling.MultiHypergeometric(&st.srand, st.sballs, st.del, st.delQuota)
}

// planRebalance fills moveOut/moveIn for the round and returns the
// total moved. Shard s's target is shardW[s]/ΣW · occupancy; surplus
// above (1+tol)·target moves out, apportioned to the deficit shards
// (weight = target − occupancy) by largest remainder — floor quotas
// first, then one extra ball per candidate in descending-residue order
// (ties by shard index), a deterministic rule with no RNG draw. All
// arithmetic is either exact integer or correctly-rounded IEEE binary
// (+, ·, /, Floor, Ceil — no fused operations), so the plan is
// bit-identical across platforms and worker counts.
func (st *streamState) planRebalance(tol float64) int64 {
	if st.total == 0 || st.sumW <= 0 {
		return 0
	}
	b := float64(st.total)
	var m int64
	for s := 0; s < st.shards; s++ {
		st.targets[s] = st.shardW[s] / st.sumW * b
		// A limit of 2^63 or more is no surplus: no occupancy reaches
		// it, and converting it to int64 would be implementation-
		// defined. So is NaN, an infinite tol times a zero target.
		var out int64
		if lim := math.Ceil((1 + tol) * st.targets[s]); lim < math.MaxInt64 {
			out = max(st.sballs[s]-int64(lim), 0)
		}
		st.moveOut[s] = out
		m += out
	}
	if m == 0 {
		return 0
	}
	var wd float64
	for s := 0; s < st.shards; s++ {
		st.defW[s] = 0
		if st.views[s] == nil {
			continue
		}
		if def := st.targets[s] - float64(st.sballs[s]); def > 0 {
			st.defW[s] = def
			wd += def
		}
	}
	if wd <= 0 {
		// No shard is below target (possible only through float
		// corner cases): nothing can absorb the surplus, skip the pass.
		clear(st.moveOut)
		return 0
	}
	st.ap.split(m, st.defW, wd, st.moveIn)
	return m
}

// runStep plays round r: arrivals → deletions → rebalance →
// observation → commit.
func (st *streamState) runStep(r int) (ok bool, err error) {
	// Phase 1+2 — arrivals: block-wise multinomial routing on the
	// round's routing stream, then per-shard placement.
	m := st.fixedM
	if st.sched != nil {
		m = st.sched[r]
	}
	if m > 0 {
		if ok, err := st.route(m, stepRoute, 0); !ok {
			return false, err
		}
		if ok, err := st.phase(streamPlace, st.shards); !ok {
			return false, err
		}
		for s, c := range st.counts {
			st.sballs[s] += c
		}
		st.total += m
	}

	// Phase 3 — deletions: exactly uniform without replacement over
	// the current occupancy, P(shard)·P(bin|shard) factorised.
	st.del = min(st.p.Deletions, st.total)
	if st.del > 0 {
		if ok, err := st.inline(streamDeleteRoute); !ok {
			return false, err
		}
		if ok, err := st.phase(streamDelete, st.shards); !ok {
			return false, err
		}
		for s, q := range st.delQuota {
			st.sballs[s] -= q
		}
		st.total -= st.del
	}

	// Phase 4 — rebalance: shed surpluses above (1+tol)·target to the
	// deficit shards. Source and destination shards are disjoint, but
	// the model orders move-outs before move-ins.
	var moved int64
	if tol := st.p.RebalanceTol; tol > 0 {
		if moved = st.planRebalance(tol); moved > 0 {
			if ok, err := st.phase(streamMoveOut, st.shards); !ok {
				return false, err
			}
			if ok, err := st.phase(streamMoveIn, st.shards); !ok {
				return false, err
			}
			for s := 0; s < st.shards; s++ {
				st.sballs[s] += st.moveIn[s] - st.moveOut[s]
			}
		}
	}

	// Phase 5 — observation of a cut at round r+1.
	if ok, err := st.observe(st.total); !ok {
		return false, err
	}

	// Commit: the round is now part of the result prefix.
	c := &st.res
	c.Rounds = r + 1
	c.Arrived += m
	c.Deleted += st.del
	c.Moved += moved
	c.Balls = st.total
	copy(c.ShardBalls, st.sballs)
	return true, nil
}
