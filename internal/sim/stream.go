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
// currently in the system, factorised like routing as
// P(shard)·P(bin | shard): a shard-level Fenwick count tree
// (sampling.CountTree) over the per-shard occupancies draws the
// deletion's shard, then each shard's own count tree over its bin
// loads draws the bin — both stages all-integer, so the deletion law
// is exact, not a relaxation. Each stage costs one fused
// CountTree.SampleDec descent (draw and decrement) per deleted ball.
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
// exactly the streams of RunLargeMonte's repetition 0 (routing on
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
// Every phase of a round is one barrier on the phase runner
// (runner.go): a task per shard or routing group, each behind the
// runner's panic containment. Cancellation is polled at task
// boundaries (routing blocks, placement strides, deletion strides) and
// at every phase barrier. A cancelled run returns a *CancelledError
// plus a deterministic partial: counters, shard occupancies and
// trajectory rows of the COMPLETED-ROUND prefix, bit-identical to a
// run configured with Rounds = CompletedRounds. Fault-injection sites
// cover routing blocks (OpRoute), placement strides (OpPlace), the
// deletion router and per-shard deletion tasks (OpDelete) and move-out
// tasks (OpRebalance), all with Rep = the round index.
package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bins"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/xrand"
)

// StreamResult aggregates one streaming run.
type StreamResult struct {
	// N is the number of bins; Shards the realised shard count.
	N      int
	Shards int
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
	// MaxLoad, AvgLoad and Deviation are the final whole-array load
	// statistics (deviation = max − average). Zero on a cancelled run,
	// whose mid-round array state is not a model state.
	MaxLoad   float64
	AvgLoad   float64
	Deviation float64
	// ShardBalls[s] is shard s's occupancy after the last completed
	// round.
	ShardBalls []int64
	// Checkpoints holds the round-indexed trajectory rows (one row per
	// requested cut, in ascending round order; Balls is the round
	// index, RealBalls the occupancy, unreached cuts have Reps 0).
	Checkpoints []obs.CheckpointRow
	// HeightCounts holds the bins-at-load>=k counts of the final state
	// (only when HeightLevels was requested; nil on a cancelled run).
	HeightCounts []obs.HeightRow
	// Array is the final bin state (nil on a cancelled run).
	Array *bins.Array
}

// Stream task kinds: one per phase of a round (plus the one-time
// placer-build setup phase). Every task is identified by (kind, shard
// or routing-group index).
const (
	streamRoute = iota
	streamSetup
	streamPlace
	streamDelete
	streamMoveOut
	streamMoveIn
	streamObserve
)

var streamKinds = []taskName{
	{"route", "routing group"}, {"setup", "setup shard"}, {"place", "shard"},
	{"delete", "deletion shard"}, {"move-out", "move-out shard"},
	{"move-in", "move-in shard"}, {"observe", "observe shard"},
}

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
// (sum = Σ w): floor quotas of m·w[s]/sum first, then one extra ball
// to each of the r = m − assigned top-ranked candidates — found by
// selection, since only the set matters — wrapping around in
// descending-residue order in the float-residue corner case of at
// least as much leftover as candidates, and taking back from the
// smallest residues should the floors over-assign. out is overwritten (0 for weightless entries). The rule
// draws no randomness, and all arithmetic is exact integer or
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
	sharded
	p    StreamParams
	cc   *canceller
	seed uint64
	kk   uint64 // RNG streams consumed per round: 3·shards + 2
	sumW float64
	// levels and cancelAfter are the spec's HeightLevels and
	// CancelAfter (in rounds).
	levels, cancelAfter int

	views   []*bins.Array
	placers []protocol.Placer
	trees   []*sampling.CountTree // per-shard bin count trees (deletion/move-out)
	shardT  *sampling.CountTree   // shard-level occupancy tree (deletion routing)

	rands   []xrand.Rand // per-shard placement streams, re-seeded every round
	scratch []xrand.Rand // per-shard scratch streams (deletion / move-out tasks)
	srand   xrand.Rand   // deletion shard-routing stream

	groups   []routeGroup
	counts   []int64 // per-round arrival routing counts
	sballs   []int64 // live per-shard occupancy
	total    int64   // live occupancy
	delQuota []int64
	moveOut  []int64
	moveIn   []int64
	targets  []float64 // rebalance scratch: per-shard occupancy targets
	defW     []float64 // rebalance scratch: per-shard deficit weights
	ap       apportion

	fixedM   int64   // per-round arrivals when no schedule is set
	sched    []int64 // explicit schedule (nil when fixedM applies)
	totalCap int64

	cuts     []int64 // normalized round-index cuts
	nCuts    int     // cuts reachable within Rounds
	nextCut  int
	cp       *obs.Checkpoints
	trackRow []float64   // per-shard max-load scratch for the current cut
	trackMat [][]float64 // {trackRow}, the shape combineShardMaxima folds
	maxOut   []float64   // combineShardMaxima output scratch (len 1)

	pl pool
	ph phase

	// Round-scoped fields, written by the orchestrator strictly
	// between phase barriers (the task-channel sends order the writes
	// before any worker reads).
	round  int
	rbase  uint64 // round base stream index: round·kk
	rrbase uint64 // Mix64(seed, rbase): arrival routing base
	curM   int64  // this round's arrivals
	rgr    int    // routing groups active this round

	// Committed prefix: updated only when a round completes, so a
	// cancelled run reports exactly the completed-round state.
	rounds  int
	arrived int64
	deleted int64
	moved   int64
	ctotal  int64
	csballs []int64
}

// runStream executes one streaming run of spec.Stream's rounds: the
// spec's Balls/BallsFactor give the per-round arrivals, its
// Checkpoints are ROUND indices, and CancelAfter counts completed
// rounds. Unexported by design: Dispatch (Engine = EngineStream) is
// the only public entry point, so every caller shares the eligibility
// checks and the Result mapping.
func runStream(spec *RunSpec) (*StreamResult, error) {
	shards, err := spec.validate(EngineStream)
	if err != nil {
		return nil, err
	}
	sh, err := newSharded(engRunStream, spec, shards, nil)
	if err != nil {
		return nil, err
	}
	st := &streamState{
		sharded:     sh,
		p:           *spec.Stream,
		cc:          newCanceller(spec.Context),
		seed:        spec.Seed,
		kk:          uint64(3*shards + 2),
		levels:      spec.HeightLevels,
		cancelAfter: spec.CancelAfter,
	}
	rounds := st.p.rounds()
	for _, w := range sh.shardW {
		st.sumW += w
	}
	st.totalCap = sh.arr.TotalCapacity()
	if len(st.p.Schedule) > 0 {
		st.sched = st.p.Schedule
	} else {
		st.fixedM = spec.ballCount(st.totalCap)
	}

	maxM := st.fixedM
	for _, a := range st.sched {
		maxM = max(maxM, a)
	}
	rg := sh.routeWidth(maxM)
	st.groups = newRouteGroups(rg, shards, 0)

	st.counts = make([]int64, shards)
	st.sballs = make([]int64, shards)
	st.csballs = make([]int64, shards)
	st.delQuota = make([]int64, shards)
	st.moveOut = make([]int64, shards)
	st.moveIn = make([]int64, shards)
	st.targets = make([]float64, shards)
	st.defW = make([]float64, shards)
	st.ap = apportion{rem: make([]float64, shards), idx: make([]int, 0, shards)}
	st.rands = make([]xrand.Rand, shards)
	st.scratch = make([]xrand.Rand, shards)
	st.views = make([]*bins.Array, shards)
	st.placers = make([]protocol.Placer, shards)
	st.trees = make([]*sampling.CountTree, shards)
	st.shardT, err = sampling.NewCountTree(shards)
	if err != nil {
		return nil, fmt.Errorf("sim: RunStream: %w", err)
	}

	cuts, _ := obs.NormalizeCuts(spec.Checkpoints) // validated above
	st.cuts = cuts
	st.nCuts = obs.CountReached(cuts, int64(rounds))
	if len(cuts) > 0 {
		st.cp = obs.NewCheckpoints(cuts)
		st.trackRow = make([]float64, shards)
		st.trackMat = [][]float64{st.trackRow}
		st.maxOut = make([]float64, 1)
	}

	// Shard views are built before the pool does any work: Array.Shard
	// is a parent method, and the bins.Shard contract forbids running
	// parent methods while views mutate. Zero-weight shards get no
	// view: routing never sends them a ball, deletion and rebalance
	// never touch an empty shard, and skipping them keeps degenerate
	// weight slices from failing the placer build.
	for s := 0; s < shards; s++ {
		if sh.shardW[s] <= 0 {
			continue
		}
		st.views[s], err = sh.arr.Shard(sh.bounds[s], sh.bounds[s+1])
		if err != nil {
			return nil, fmt.Errorf("sim: RunStream shard %d: %w", s, err)
		}
		st.trees[s], err = sampling.NewCountTree(st.views[s].N())
		if err != nil {
			return nil, fmt.Errorf("sim: RunStream shard %d: %w", s, err)
		}
	}

	st.ph = phase{pool: &st.pl, x: st, engine: engRunStream, names: streamKinds}
	st.pl.start(sh.poolWidth(rg))
	res, err := st.orchestrate(rounds)
	st.pl.close()
	return res, err
}

// exec executes one task. Task state is indexed by (kind, idx) and every
// task touches only its own shard's (or routing group's) state, so any
// scheduling of tasks onto workers produces identical bits.
func (st *streamState) exec(kind, s int) (err error) {
	switch kind {
	case streamRoute:
		st.groups[s].reset()
		st.groups[s].route(st.cc, engRunStream, st.round, st.rrbase, st.router, st.curM, s, st.rgr, nil, nil)
	case streamSetup:
		if st.views[s] != nil {
			st.placers[s], err = st.factory(st.views[s], st.weights[st.bounds[s]:st.bounds[s+1]])
		}
	case streamPlace:
		if st.counts[s] > 0 {
			placeSegment(st.cc, engRunStream, st.round, s, st.placers[s], st.views[s], &st.rands[s], st.counts[s])
		}
	case streamDelete:
		st.takeShard(s, st.delQuota[s], fault.OpDelete, 2+uint64(st.shards))
	case streamMoveOut:
		st.takeShard(s, st.moveOut[s], fault.OpRebalance, 2+2*uint64(st.shards))
	case streamMoveIn:
		if st.moveIn[s] > 0 {
			placeSegment(st.cc, engRunStream, st.round, s, st.placers[s], st.views[s], &st.rands[s], st.moveIn[s])
		}
	case streamObserve:
		if v := st.views[s]; v != nil {
			st.trackRow[s] = v.MaxLoad()
		} else {
			st.trackRow[s] = 0
		}
	}
	return err
}

// takeShard removes q balls from shard s, exactly uniformly without
// replacement: rebuild the shard's bin count tree from the live loads,
// then one SampleDec + Remove per ball on the shard's stream base+off+s.
// The tree mirrors the view exactly, so Remove can never hit an empty
// bin. It is both the deletion pass (delQuota, the within-shard
// deletion streams) and the rebalance move-out (moveOut, the move-out
// streams); moved-out balls are re-placed by the deficit shards'
// move-in tasks, and ball identity is not tracked, exactly as in the
// count-based routing model.
func (st *streamState) takeShard(s int, q int64, op fault.Op, off uint64) {
	if q == 0 {
		return
	}
	if fault.Enabled {
		fault.Hit(fault.Site{Engine: engRunStream, Op: op, Rep: st.round, Shard: s, Block: -1})
	}
	view := st.views[s]
	tree := st.trees[s]
	tree.Build(view.Balls)
	rng := &st.scratch[s]
	rng.Seed(xrand.Mix64(st.seed, st.rbase+off+uint64(s)))
	for k := int64(0); k < q; k++ {
		if k&(RoutingBlock-1) == 0 && st.cc.cancelled() {
			return
		}
		view.Remove(tree.SampleDec(rng))
	}
}

// routeDeletions is the round's deletion shard-routing step: D
// sequential SampleDec draws from the shard-occupancy count tree on
// the round's deletion-routing stream, each decrementing the drawn
// shard — the quota vector is multivariate-hypergeometric, exactly the
// shard counts of deleting D balls uniformly without replacement. It runs on the orchestrator
// goroutine behind its own recover so an injected (or genuine) panic
// surfaces as a *PanicError like any pool task's.
func (st *streamState) routeDeletions(d int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: RunStream deletion routing: %w", newPanicError(engRunStream, "delete-route", st.round, -1, r))
		}
	}()
	if fault.Enabled {
		fault.Hit(fault.Site{Engine: engRunStream, Op: fault.OpDelete, Rep: st.round, Shard: -1, Block: -1})
	}
	st.shardT.Build(func(s int) int64 { return st.sballs[s] })
	st.srand.Seed(xrand.Mix64(st.seed, st.rbase+1+uint64(st.shards)))
	clear(st.delQuota)
	for k := int64(0); k < d; k++ {
		st.delQuota[st.shardT.SampleDec(&st.srand)]++
	}
	return nil
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
		lim := int64(math.Ceil((1 + tol) * st.targets[s]))
		out := st.sballs[s] - lim
		if out < 0 {
			out = 0
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

// arrivalsAt returns round r's arrival count.
func (st *streamState) arrivalsAt(r int) int64 {
	if st.sched != nil {
		return st.sched[r]
	}
	return st.fixedM
}

// orchestrate runs the setup phase and then the rounds, committing the
// completed-round prefix as it goes.
func (st *streamState) orchestrate(rounds int) (*StreamResult, error) {
	// One-time setup: per-shard placer builds (alias tables,
	// O(shard size) each) fan out across the pool. Built once, not per
	// round — a steady-state round allocates nothing.
	if err := st.ph.run(streamSetup, st.shards); err != nil {
		return nil, err
	}
	if st.cc.cancelled() {
		return st.partial(st.cc.err())
	}
	for r := 0; r < rounds; r++ {
		ok, err := st.runRound(r)
		if err != nil {
			return nil, err
		}
		if !ok {
			return st.partial(st.cc.err())
		}
		if ca := st.cancelAfter; ca > 0 && st.rounds == ca && st.rounds < rounds {
			return st.partial(nil)
		}
	}
	return st.final()
}

// runRound executes round r: arrivals → deletions → rebalance →
// observation → commit. ok == false means the round was abandoned at a
// cancellation point — nothing of it is committed.
func (st *streamState) runRound(r int) (ok bool, err error) {
	if st.cc.cancelled() {
		return false, nil
	}
	st.round, st.ph.rep = r, r
	st.rbase = uint64(r) * st.kk
	// Placement streams are re-seeded for EVERY shard at the start of
	// every round — whether or not the shard receives arrivals — so a
	// shard's draws depend only on (seed, round, shard), never on the
	// quiet rounds before.
	for s := 0; s < st.shards; s++ {
		st.rands[s].Seed(xrand.Mix64(st.seed, st.rbase+1+uint64(s)))
	}

	// Phase 1+2 — arrivals: block-wise multinomial routing on the
	// round's routing stream, then per-shard placement.
	m := st.arrivalsAt(r)
	st.curM = m
	if m > 0 {
		st.rrbase = xrand.Mix64(st.seed, st.rbase)
		rgr := len(st.groups)
		if nb := numRouteBlocks(m); rgr > nb {
			rgr = nb
		}
		st.rgr = rgr
		if err := st.ph.run(streamRoute, rgr); err != nil {
			return false, err
		}
		if st.cc.cancelled() {
			return false, nil
		}
		mergeRouteGroups(st.groups[:rgr], st.counts, nil)
		if err := st.ph.run(streamPlace, st.shards); err != nil {
			return false, err
		}
		if st.cc.cancelled() {
			return false, nil
		}
		for s, c := range st.counts {
			st.sballs[s] += c
		}
		st.total += m
	}

	// Phase 3 — deletions: exactly uniform without replacement over
	// the current occupancy, P(shard)·P(bin|shard) factorised.
	d := st.p.Deletions
	if d > st.total {
		d = st.total
	}
	if d > 0 {
		if err := st.routeDeletions(d); err != nil {
			return false, err
		}
		if st.cc.cancelled() {
			return false, nil
		}
		if err := st.ph.run(streamDelete, st.shards); err != nil {
			return false, err
		}
		if st.cc.cancelled() {
			return false, nil
		}
		for s, q := range st.delQuota {
			st.sballs[s] -= q
		}
		st.total -= d
	}

	// Phase 4 — rebalance: shed surpluses above (1+tol)·target to the
	// deficit shards. Source and destination shards are disjoint, but
	// the model orders move-outs before move-ins.
	var moved int64
	if tol := st.p.RebalanceTol; tol > 0 {
		moved = st.planRebalance(tol)
		if moved > 0 {
			if err := st.ph.run(streamMoveOut, st.shards); err != nil {
				return false, err
			}
			if st.cc.cancelled() {
				return false, nil
			}
			if err := st.ph.run(streamMoveIn, st.shards); err != nil {
				return false, err
			}
			if st.cc.cancelled() {
				return false, nil
			}
			for s := 0; s < st.shards; s++ {
				st.sballs[s] += st.moveIn[s] - st.moveOut[s]
			}
		}
	}

	// Phase 5 — observation: a cut at round r+1 snapshots the system
	// before the commit, so a cancellation inside the observe phase
	// abandons the whole round and the trajectory stays exactly the
	// committed prefix's.
	if st.nextCut < st.nCuts && st.cuts[st.nextCut] == int64(r)+1 {
		if err := st.ph.run(streamObserve, st.shards); err != nil {
			return false, err
		}
		if st.cc.cancelled() {
			return false, nil
		}
		combineShardMaxima(st.trackMat, st.maxOut)
		st.cp.Observe(st.nextCut, st.total, st.totalCap, st.maxOut[0])
		st.nextCut++
	}

	// Commit: the round is now part of the result prefix.
	st.rounds = r + 1
	st.arrived += m
	st.deleted += d
	st.moved += moved
	st.ctotal = st.total
	copy(st.csballs, st.sballs)
	return true, nil
}

// partialResult builds the committed-prefix result every cancelled
// path shares.
func (st *streamState) partialResult() *StreamResult {
	res := &StreamResult{
		N:          st.n,
		Shards:     st.shards,
		Rounds:     st.rounds,
		Arrived:    st.arrived,
		Deleted:    st.deleted,
		Moved:      st.moved,
		Balls:      st.ctotal,
		ShardBalls: st.csballs,
	}
	if st.cp != nil {
		res.Checkpoints = st.cp.Rows()
	}
	return res
}

// partial is the cancelled exit: the committed-round prefix plus a
// *CancelledError whose cause is the context's error, or nil for the
// deterministic CancelAfter stop.
func (st *streamState) partial(cause error) (*StreamResult, error) {
	return st.partialResult(), &CancelledError{
		Engine:          engRunStream,
		CompletedReps:   -1,
		CompletedCuts:   st.nextCut,
		CompletedRounds: st.rounds,
		CompletedTicks:  -1,
		Cause:           cause,
	}
}

// final builds the completed-run result: the committed counters plus
// the final whole-array statistics and (optionally) height counts. The
// per-round observe phase keeps its direct per-shard MaxLoad scan —
// max-only snapshots need no histogram and the scan is alloc-free.
func (st *streamState) final() (*StreamResult, error) {
	res := st.partialResult()
	var err error
	res.MaxLoad, res.AvgLoad, res.HeightCounts, err = finalState(engRunStream, st.arr, st.levels, st.arrived)
	if err != nil {
		return nil, err
	}
	res.Deviation = res.MaxLoad - res.AvgLoad
	res.Array = st.arr
	return res, nil
}
