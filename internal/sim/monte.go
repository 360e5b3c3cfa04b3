// Sharded Monte-Carlo engine: R repetitions of the sharded game
// (large.go), scheduled as a two-level pipeline so that huge-n
// aggregates — the regime where the paper's gap bounds become
// empirically sharp — run at full machine width without holding more
// than a handful of bin arrays in memory. Reps = 1 is the single
// sharded game.
//
// # Scheduling model
//
// All CPU work (routing blocks, per-shard placement, per-repetition
// summaries) executes on ONE shared bounded pool of at most spec.Workers
// goroutines (the phase runner, runner.go). On top of it,
// min(Workers, Reps) repetition orchestrators each own a single
// reusable bin array (plus its shard views, per-shard placers and
// routing groups, built once and reset between repetitions) and pump
// their repetitions through the pool, one phase barrier at a time:
//
//	route blocks(rep) ∥ reset shards → place shards in parallel → summarise
//
// Orchestrator 0 plays on the run's own array; every other one plays
// on a clone taken before any orchestrator starts. A fresh array skips
// the reset, and each shard's placer is built by its first placement
// task, so the single game (Reps = 1) pays for no clone, no reset and
// no serial placer build.
//
// Orchestrators only coordinate — they never burn a core — so shard
// tasks of one repetition overlap the routing blocks of the next, and
// total CPU concurrency never exceeds Workers. Peak memory is
// min(Workers, Reps) bin arrays plus one O(Reps)-free running summary:
// O(Shards · shardSize) per in-flight repetition, never O(Reps · n),
// so n = 10^7 with hundreds of repetitions fits in RAM.
//
// # Determinism contract
//
// Repetition rep offsets the single-run stream layout by
// rep·(Shards+1): its routing blocks draw from the substreams of
// stream rep·(Shards+1) (block b from (Seed, rep·(Shards+1), b) — see
// route.go) and shard s places from stream rep·(Shards+1)+1+s of the
// base seed. Repetition 0 therefore consumes exactly the single
// game's streams (routing on stream 0, shard s on stream 1+s), and
// every repetition is a pure function of (capacities, distribution,
// protocol, balls, Seed, Shards, rep). Aggregation folds
// repetition summaries strictly in repetition order (a turn-based
// in-order fold), so every accumulator and the mean load vector are
// bit-identical for any Workers value. Shards and the routing-block
// structure remain part of the model.
package sim

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/bins"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/xrand"
)

// monteAgg folds per-repetition summaries strictly in repetition order:
// an orchestrator that finished repetition rep waits until every
// repetition below rep has folded. Welford updates and the load-vector
// float sums therefore happen in one fixed order, which is what makes
// the aggregate bit-identical across worker topologies.
type monteAgg struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int // next repetition index allowed to fold
	// stopAt caps the folded prefix: a repetition folds its summary
	// only while rep < stopAt. It starts at the run's planned last
	// repetition (Reps, or CancelAfter) and only ever decreases —
	// the earliest cancelled repetition wins — so the folded prefix
	// [0, stopAt) is always contiguous, whatever the timing.
	stopAt int
	// aborted releases every fold waiter unconditionally: set when an
	// orchestrator dies without taking its remaining turns (recovered
	// panic), so the ladder can never strand the other orchestrators
	// on cond.Wait.
	aborted bool
	err     error
	// The result-level collectors. fold runs strictly in repetition
	// order, so every Observe below happens in one fixed order — the
	// unified observation contract's requirement for bit-identical
	// aggregates across worker topologies.
	loads *obs.SortedLoads
	cp    *obs.Checkpoints
	hl    *obs.Heights
	ss    *obs.ShardStats

	// cuts0/rows0 are repetition 0's completed checkpoint-cut prefix
	// when repetition 0 was cancelled — the single game's partial.
	// Written only by the orchestrator that runs repetition 0, read
	// after every orchestrator has exited.
	cuts0 int
	rows0 []obs.CheckpointRow
}

// fold blocks until it is rep's turn, runs fn under the aggregation
// lock (skipped once an earlier repetition has failed or the prefix
// was capped below rep), and passes the turn on. Every repetition must
// take its turn exactly once — fold, foldCancelled or abort — or the
// turn chain stalls.
func (ag *monteAgg) fold(rep int, fn func(ag *monteAgg)) {
	ag.mu.Lock()
	for ag.next != rep && !ag.aborted {
		ag.cond.Wait()
	}
	if ag.aborted {
		ag.mu.Unlock()
		return
	}
	if ag.err == nil && rep < ag.stopAt {
		fn(ag)
	}
	ag.next++
	ag.cond.Broadcast()
	ag.mu.Unlock()
}

// foldCancelled takes rep's fold turn without folding and caps the
// folded prefix at rep: the partial result then covers exactly the
// repetitions below the earliest cancelled one.
func (ag *monteAgg) foldCancelled(rep int) {
	ag.mu.Lock()
	for ag.next != rep && !ag.aborted {
		ag.cond.Wait()
	}
	if ag.aborted {
		ag.mu.Unlock()
		return
	}
	if rep < ag.stopAt {
		ag.stopAt = rep
	}
	ag.next++
	ag.cond.Broadcast()
	ag.mu.Unlock()
}

// abort records err (first error wins) and releases every waiter on
// the fold ladder — the recovery path for an orchestrator that dies
// and can never take its remaining turns.
func (ag *monteAgg) abort(err error) {
	ag.mu.Lock()
	if ag.err == nil {
		ag.err = err
	}
	ag.aborted = true
	ag.cond.Broadcast()
	ag.mu.Unlock()
}

// failed reports whether an earlier repetition has recorded an error —
// later orchestrators use it to skip useless work.
func (ag *monteAgg) failed() bool {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	return ag.err != nil
}

// monteRepState is one orchestrator's reusable per-repetition state:
// its own bin array, shard views, per-shard placers and generators,
// and routing groups (built once, reset between repetitions), routing
// counts and summary scratch. It is touched by pool tasks of at most
// one repetition at a time.
type monteRepState struct {
	sh      *sharded
	arr     *bins.Array
	fresh   bool              // arr has never been placed on: skip the reset
	views   []*bins.Array     // nil for zero-weight shards (never routed to)
	placers []protocol.Placer // built by the shard's first placement task
	rands   []shardRand       // per-shard placement generators, re-seeded each rep
	counts  []int64
	max     float64
	avg     float64

	// Per-shard load histograms (non-nil iff the run requests a
	// distribution-shaped observable: load vector or height counts).
	// Phase B rebuilds each routed shard's histogram over its own view
	// in parallel; Phase C merges them in shard order into histAll —
	// exact integer addition, so the merged histogram is identical to
	// a whole-array pass for any worker count. All share the master
	// array's class skeleton, which is what makes the shard views'
	// histograms mergeable.
	hists   []*bins.LoadHistogram
	histAll *bins.LoadHistogram

	// Per-repetition task parameters, set by runRep before submitting
	// any task of the repetition (tasks of at most one repetition
	// touch the state at a time, so plain fields suffice).
	seed   uint64
	base   uint64 // stream base rep·(shards+1)
	rbase  uint64 // Mix64(seed, base): the routing substream base
	m      int64
	rep    int
	router *sampling.Multinomial

	// cc is the run's shared canceller (nil when no Context); ph is the
	// orchestrator's phase on the run's shared pool.
	cc *canceller
	ph phase

	// Routing state: the orchestrator's routing groups (route.go),
	// reused across its repetitions, plus the cut plan (shared,
	// read-only across orchestrators).
	routeGroups []routeGroup
	cutBlocks   []int64
	cutRems     []int64

	// Observation scratch, allocated once per orchestrator and reused
	// across its repetitions (all nil/empty when not requested).
	cuts     []int64     // the reached cuts (shared, read-only)
	prefix   [][]int64   // [cut][shard] routing prefixes → aligned cuts
	cutBalls []int64     // realised balls per cut
	track    [][]float64 // [cut][shard] shard-local running max at cut
	cpMax    []float64   // combined whole-array max per cut
	hlCounts []int64     // bins at load >= k (HeightLevels)
	shardMax []float64   // final shard-local max (ShardStats)
	// cutsDone[s] is how many cuts shard s fully placed and tracked in
	// the current repetition (nil unless cancellation is armed and a
	// cut is reachable).
	cutsDone []int
}

// newMonteRepState builds an orchestrator's state over arr, a fresh
// (reset) array — the plan's own or a clone of it: the shard views,
// routing groups and phase on the shared pool. Zero-weight shards get
// no view, so never a placer — the router can never send a ball there,
// and building a placer over an all-zero weight slice would fail.
// routeWidth is the number of routing groups, and cutBlocks/cutRems
// the shared cut plan.
func newMonteRepState(sh *sharded, arr *bins.Array, spec *RunSpec, cc *canceller, cuts []int64, routeWidth int, cutBlocks, cutRems []int64, protoHist *bins.LoadHistogram, pl *pool) (*monteRepState, error) {
	shards, bounds := sh.shards, sh.bounds
	st := &monteRepState{
		sh:          sh,
		arr:         arr,
		fresh:       true,
		views:       make([]*bins.Array, shards),
		placers:     make([]protocol.Placer, shards),
		rands:       make([]shardRand, shards),
		counts:      make([]int64, shards),
		routeGroups: newRouteGroups(routeWidth, shards, len(cuts)),
		cutBlocks:   cutBlocks,
		cutRems:     cutRems,
		cuts:        cuts,
		cc:          cc,
	}
	st.ph = phase{pool: pl, x: st, engine: engRunLargeMC, names: monteKinds}
	if len(cuts) > 0 {
		st.prefix = make([][]int64, len(cuts))
		st.track = make([][]float64, len(cuts))
		pflat := make([]int64, len(cuts)*shards)
		tflat := make([]float64, len(cuts)*shards)
		for k := range cuts {
			st.prefix[k] = pflat[k*shards : (k+1)*shards]
			st.track[k] = tflat[k*shards : (k+1)*shards]
		}
		st.cutBalls = make([]int64, len(cuts))
		st.cpMax = make([]float64, len(cuts))
		if cc != nil {
			st.cutsDone = make([]int, shards)
		}
	}
	if spec.HeightLevels > 0 {
		st.hlCounts = make([]int64, spec.HeightLevels)
	}
	if spec.ShardStats {
		st.shardMax = make([]float64, shards)
	}
	for s := 0; s < shards; s++ {
		if sh.shardW[s] <= 0 {
			continue
		}
		v, err := st.arr.Shard(bounds[s], bounds[s+1])
		if err != nil {
			return nil, fmt.Errorf("sim: RunLargeMonte shard %d: %w", s, err)
		}
		st.views[s] = v
	}
	if protoHist != nil {
		st.histAll = protoHist.CloneEmpty()
		st.hists = make([]*bins.LoadHistogram, shards)
		for s := 0; s < shards; s++ {
			st.hists[s] = protoHist.CloneEmpty()
			if st.views[s] != nil {
				continue // rebuilt by Phase B every repetition
			}
			// Zero-weight shards are never routed to, reset or placed:
			// their bins stay empty for the whole run, so one build at
			// height zero stands for every repetition.
			v, err := st.arr.Shard(bounds[s], bounds[s+1])
			if err != nil {
				return nil, fmt.Errorf("sim: RunLargeMonte shard %d: %w", s, err)
			}
			if err := v.HistogramInto(st.hists[s]); err != nil {
				return nil, fmt.Errorf("sim: RunLargeMonte shard %d histogram: %w", s, err)
			}
		}
	}
	return st, nil
}

// cutPrefix returns the checkpoint rows of the cuts every shard of a
// cancelled repetition completed — each bit-identical to the row the
// uninterrupted repetition reports — and their count. A repetition
// cancelled during routing completed none.
func (st *monteRepState) cutPrefix(totalCap int64) (int, []obs.CheckpointRow) {
	if st.cutsDone == nil {
		return 0, nil
	}
	done := len(st.cuts)
	for _, d := range st.cutsDone {
		done = min(done, d)
	}
	if done == 0 {
		return 0, nil
	}
	cp := obs.NewCheckpoints(st.cuts[:done])
	combineShardMaxima(st.track[:done], st.cpMax[:done])
	for k := 0; k < done; k++ {
		// An empty block-aligned realisation saw no state at the cut.
		if st.cutBalls[k] != 0 {
			cp.Observe(k, st.cutBalls[k], totalCap, st.cpMax[k])
		}
	}
	return done, cp.Rows()
}

// Monte's task kinds: Phase A overlaps routing groups with shard
// resets, Phase B places shards, Phase C summarises the whole array.
const (
	monteRoute = iota
	monteReset
	montePlace
	monteSummary
)

var monteKinds = []taskName{{task: "route"}, {task: "reset"}, {task: "place"}, {task: "summary"}}

// exec runs one pool task of the current repetition. Per-repetition
// parameters (seed, stream base, ball count, router) live on the
// repetition state, set by runRep before any task of that repetition
// is submitted.
func (st *monteRepState) exec(kind, idx int) error {
	switch kind {
	case monteRoute:
		rg := &st.routeGroups[idx]
		rg.reset()
		rg.route(st.cc, engRunLargeMC, st.rep, st.rbase, st.router, st.m, idx, len(st.routeGroups), st.cutBlocks, st.cutRems)
	case monteReset:
		if fault.Enabled {
			fault.Hit(fault.Site{Engine: engRunLargeMC, Op: fault.OpReset, Rep: st.rep, Shard: idx, Block: -1})
		}
		st.views[idx].Reset()
	case montePlace:
		s := idx
		p := st.placers[s]
		if p == nil {
			// The alias-table build is O(shard size): it runs here, in
			// parallel across shards, reading only the shard's own
			// weights and view.
			var err error
			lo, hi := st.sh.bounds[s], st.sh.bounds[s+1]
			if p, err = st.sh.factory(st.views[s], st.sh.weights[lo:hi]); err != nil {
				return fmt.Errorf("sim: RunLargeMonte shard %d placer: %w", s, err)
			}
			st.placers[s] = p
		} else if rp, ok := p.(interface{ Reset() }); ok {
			// Stateful placers (e.g. the batched protocol's round
			// snapshot) must forget the previous repetition.
			rp.Reset()
		}
		// Re-seeding the shard's reusable generator is NewStream
		// without the allocation (pinned by the stream-contract
		// tests).
		rs := &st.rands[s].Rand
		rs.Seed(xrand.Mix64(st.seed, st.base+1+uint64(s)))
		done, _ := placeShardSegments(st.cc, engRunLargeMC, st.rep, p, st.views[s], rs, st.counts[s], s, st.prefix, st.track)
		if st.cutsDone != nil {
			st.cutsDone[s] = done
		}
		if st.hists != nil {
			// The shard's one-pass histogram, rebuilt over its own view
			// while other shards are still placing. A zero-count shard
			// reaches here too (its segment schedule places nothing and
			// consumes no draws) so its freshly reset view overwrites
			// last repetition's rows.
			if err := st.views[s].HistogramInto(st.hists[s]); err != nil {
				return fmt.Errorf("sim: RunLargeMonte shard %d histogram: %w", s, err)
			}
		}
		if st.shardMax != nil {
			if st.hists != nil {
				st.shardMax[s] = st.hists[s].MaxLoad()
			} else {
				st.shardMax[s] = st.views[s].MaxLoad()
			}
		}
	case monteSummary:
		if fault.Enabled {
			fault.Hit(fault.Site{Engine: engRunLargeMC, Op: fault.OpSummary, Rep: st.rep, Shard: -1, Block: -1})
		}
		if st.hists != nil {
			// Shard-order merge: exact integer addition, so the result
			// is identical to one whole-array pass — and every final
			// observable (max, average, heights, sorted loads) derives
			// from the merged histogram without touching the bins again.
			ha := st.histAll
			ha.Reset()
			for s := range st.hists {
				if err := ha.Merge(st.hists[s]); err != nil {
					return fmt.Errorf("sim: RunLargeMonte merge shard %d: %w", s, err)
				}
			}
			st.max = ha.MaxLoad()
			st.avg = float64(ha.Balls()) / float64(st.arr.TotalCapacity())
			if st.hlCounts != nil {
				ha.CountAtOrAbove(st.hlCounts)
			}
		} else {
			st.arr.Recount()
			st.avg = st.arr.AverageLoad()
			if st.shardMax != nil {
				// Division is correctly rounded, hence monotone: the max
				// of the shard-local maxima the placement tasks scanned
				// is the whole-array max, bit for bit.
				st.max = slices.Max(st.shardMax)
			} else {
				st.max = st.arr.MaxLoad()
			}
		}
		combineShardMaxima(st.track, st.cpMax)
	}
	return nil
}

// runRep executes one repetition through the shared pool in three
// phases. Phase A overlaps the routing blocks (substreams of stream
// base = rep·(shards+1), fanned out across the orchestrator's routing
// groups) with the per-shard resets: routing touches only the
// splitting tree and the group's own buffers, resets touch only view
// bins; the orchestrator folds the groups afterwards (exact integer
// sums, order-free). Phase B places every routed shard in parallel on
// stream base+1+s. Phase C summarises the whole array (the only phase
// that may run parent-array methods, which the bins.Shard contract
// forbids while views mutate).
//
// It returns ok = false when the repetition was abandoned because the
// run's context fired (the state is then never read again — every
// later repetition of this orchestrator is skipped too), and a non-nil
// err when a pool task of this repetition panicked.
func (st *monteRepState) runRep(seed, rep uint64, shards int, m int64, router *sampling.Multinomial) (ok bool, err error) {
	st.seed = seed
	st.rep = int(rep)
	st.ph.rep = st.rep
	st.base = rep * uint64(shards+1)
	st.rbase = xrand.Mix64(seed, st.base)
	st.m = m
	st.router = router
	clear(st.cutsDone)
	for g := range st.routeGroups {
		st.ph.submit(monteRoute, g)
	}
	for s := range st.views {
		if st.views[s] != nil && !st.fresh {
			st.ph.submit(monteReset, s)
		}
	}
	st.fresh = false
	if err := st.ph.wait(); err != nil {
		return false, err
	}
	if st.cc.cancelled() {
		return false, nil
	}
	// Folding the groups is O(groups·shards·cuts) — orchestrator-side
	// bookkeeping, not pool work.
	mergeRouteGroups(st.routeGroups, st.counts, st.prefix)
	if len(st.cuts) > 0 {
		obs.AlignShardCuts(st.prefix, protocol.BlockSize, st.cutBalls)
	}
	for k := range st.track {
		clear(st.track[k])
	}
	clear(st.shardMax)

	for s := range st.views {
		// A zero-count shard normally needs no Phase B at all; with
		// histograms on it still gets a (draw-free) taskPlace so its
		// empty view refreshes st.hists[s] for the Phase C merge.
		if st.views[s] == nil || (st.counts[s] == 0 && st.hists == nil) {
			if st.cutsDone != nil {
				st.cutsDone[s] = len(st.cuts)
			}
			continue
		}
		st.ph.submit(montePlace, s)
	}
	if err := st.ph.wait(); err != nil {
		return false, err
	}
	if st.cc.cancelled() {
		return false, nil
	}

	if err := st.ph.run(monteSummary, 1); err != nil {
		return false, err
	}
	return true, nil
}

// runLargeMonte executes spec.Reps repetitions of the sharded game
// (large.go) and aggregates them onto the classic Result shape; Reps =
// 1 is the single sharded game. See the package comment of this file
// for the scheduling model and the determinism contract. Repetition
// rep derives its RNG streams by offsetting the single game's layout —
// routing on stream rep·(Shards+1), shard s on stream
// rep·(Shards+1)+1+s. Checkpoint rows keep the sharded model's
// block-aligned realised cuts (RealBalls <= the requested cut).
//
// When spec.Context fires (or CancelAfter triggers), runLargeMonte
// returns a partial *Result covering a contiguous repetition prefix —
// bit-identical to a run configured with that many Reps — plus a
// *CancelledError whose Checkpoint resumes the run. When the prefix is
// empty, the partial's Checkpoints are instead the cuts every shard of
// repetition 0 completed (CancelledError.CompletedCuts of them), each
// row bit-identical to the uninterrupted run's. A panic in any pool
// task or orchestrator surfaces as a *PanicError, never as a crash or
// a stuck fold ladder.
func runLargeMonte(spec RunSpec) (*Result, error) {
	shards, err := spec.validate(EngineSharded)
	if err != nil {
		return nil, err
	}
	// The shard plan (boundaries, per-shard weights, routing table) is
	// shared read-only across repetitions: AliasTable.Sample only reads
	// the packed columns, so concurrent routing passes of different
	// repetitions can use one router.
	sh, err := newSharded(engRunLargeMC, &spec, shards, nil)
	if err != nil {
		return nil, err
	}
	cc := newCanceller(spec.Context)
	n, master := sh.n, sh.arr
	m := spec.BallCount(master.TotalCapacity())

	allCuts, _ := obs.NormalizeCuts(spec.Checkpoints) // validated above
	cuts := allCuts[:obs.CountReached(allCuts, m)]
	totalCap := master.TotalCapacity()

	// Routing fan-out per repetition.
	routeWidth := sh.routeWidth(m)
	cutBlocks, cutRems := cutPlan(cuts)

	// One class skeleton for the whole run: every orchestrator's shard
	// and whole-array histograms clone it, which is what makes shard
	// merges exact (identical class set) and keeps CapacityClasses out
	// of the per-repetition path. Max/avg-only runs skip histograms
	// entirely and keep the direct exact scans.
	var proto *bins.LoadHistogram
	if spec.CollectLoadVector || spec.HeightLevels > 0 {
		proto = master.NewLoadHistogram()
	}

	res := &Result{N: n, Shards: shards}
	agg := &monteAgg{}
	agg.cond = sync.NewCond(&agg.mu)
	if spec.CollectLoadVector {
		agg.loads = obs.NewSortedLoads()
	}
	if len(allCuts) > 0 {
		agg.cp = obs.NewCheckpoints(allCuts)
	}
	if spec.HeightLevels > 0 {
		agg.hl = obs.NewHeights(spec.HeightLevels)
	}
	if spec.ShardStats {
		agg.ss = obs.NewShardStats(shards)
	}

	// The fingerprint pins the experiment a checkpoint belongs to. It
	// costs an O(n) capacity hash, so it is computed only when a
	// checkpoint can actually be read (Resume) or written (a cancel
	// source exists) — the plain path pays nothing.
	var fp MonteFingerprint
	if spec.Resume != nil || cc != nil || spec.CancelAfter > 0 {
		fp = MonteFingerprint{
			N: n, Shards: shards, Balls: m, Seed: spec.Seed,
			TotalCapacity: totalCap, CapHash: capHash(master),
			Checkpoints: allCuts, HeightLevels: spec.HeightLevels,
			CollectLoadVector: spec.CollectLoadVector, ShardStats: spec.ShardStats,
		}
	}
	resumed := 0
	if spec.Resume != nil {
		if err := spec.Resume.restore(fp, res, agg); err != nil {
			return nil, err
		}
		resumed = agg.next
		if resumed > spec.Reps {
			return nil, fmt.Errorf("sim: resume checkpoint covers %d repetitions, run has only %d", resumed, spec.Reps)
		}
	}
	// planned is the last repetition the run intends to fold: Reps, or
	// the deterministic self-cancel point. A real context cancellation
	// lowers the realised prefix further through foldCancelled.
	planned := spec.Reps
	if spec.CancelAfter > 0 && spec.CancelAfter < planned {
		planned = spec.CancelAfter
	}
	if planned < resumed {
		planned = resumed
	}
	agg.stopAt = planned
	// Single-assignment copies for the orchestrator closures: captured
	// by value, so the mutable variables above (planning state, proto
	// histogram) never escape to the heap.
	start, stop := resumed, planned
	protoHist := proto

	inflight := min(sh.workers, spec.Reps-start)

	// The shared bounded pool: every CPU-heavy task of every phase of
	// every repetition runs here, so concurrency never exceeds Workers.
	// Orchestrator 0 plays on the master array itself; the others'
	// clones are all taken here, before orchestrator 0 starts placing
	// on the master.
	var pl pool
	states := make([]*monteRepState, inflight)
	for w := range states {
		arr := master
		if w > 0 {
			arr = master.Clone()
		}
		if states[w], err = newMonteRepState(&sh, arr, &spec, cc, cuts, routeWidth, cutBlocks, cutRems, protoHist, &pl); err != nil {
			return nil, err
		}
	}
	pl.start(sh.poolWidth(routeWidth))

	var orchWG sync.WaitGroup
	for w := 0; w < inflight; w++ {
		orchWG.Add(1)
		go func(w int) {
			defer orchWG.Done()
			// A panic in orchestrator bookkeeping (pool tasks carry
			// their own recover) would leave the fold ladder waiting
			// for turns that never come; abort releases every waiter
			// and surfaces the provenance error instead.
			defer func() {
				if r := recover(); r != nil {
					agg.abort(newPanicError(engRunLargeMC, "orchestrator", -1, w, r))
				}
			}()
			st := states[w]
			// One fold body per orchestrator, not per repetition: it
			// snapshots whatever st holds when its repetition's turn
			// comes, so hoisting it out of the loop only removes the
			// per-rep closure allocation, never a bit of the result.
			foldRep := func(ag *monteAgg) {
				res.MaxLoad.Add(st.max)
				res.AvgLoad.Add(st.avg)
				res.Deviation.Add(st.max - st.avg)
				if ag.loads != nil {
					if err := ag.loads.SnapshotHist(obs.Final, st.histAll, m); err != nil {
						ag.err = err
						return
					}
				}
				if ag.cp != nil {
					for k := range cuts {
						// An empty block-aligned realisation means
						// this repetition saw no state at the cut;
						// skip it (like a cut beyond m) so zeros
						// never contaminate the maxima aggregates.
						if st.cutBalls[k] == 0 {
							continue
						}
						ag.cp.Observe(k, st.cutBalls[k], totalCap, st.cpMax[k])
					}
				}
				if ag.hl != nil {
					ag.hl.Observe(st.hlCounts)
				}
				if ag.ss != nil {
					if err := ag.ss.Observe(st.counts, st.shardMax); err != nil {
						ag.err = err
						return
					}
				}
			}
			skip := func(*monteAgg) {}
			// Static strided assignment: orchestrator w owns reps
			// start+w, start+w+inflight, … — processed in increasing
			// order, which the in-order fold relies on for progress.
			for rep := start + w; rep < spec.Reps; rep += inflight {
				if fault.Enabled {
					fault.Hit(fault.Site{Engine: engRunLargeMC, Op: fault.OpOrchestrator, Rep: rep, Shard: -1, Block: -1})
				}
				if rep >= stop || cc.cancelled() {
					agg.foldCancelled(rep)
					continue
				}
				if agg.failed() {
					agg.fold(rep, skip)
					continue
				}
				ok, rerr := st.runRep(spec.Seed, uint64(rep), shards, m, sh.router)
				switch {
				case rerr != nil:
					agg.fold(rep, func(ag *monteAgg) { ag.err = rerr })
				case !ok:
					if rep == 0 {
						agg.cuts0, agg.rows0 = st.cutPrefix(totalCap)
					}
					agg.foldCancelled(rep)
				default:
					agg.fold(rep, foldRep)
				}
			}
		}(w)
	}
	orchWG.Wait()
	pl.close()

	if agg.err != nil {
		return nil, agg.err
	}
	if agg.loads != nil {
		res.MeanSortedLoads = agg.loads.Mean()
	}
	if agg.cp != nil {
		res.Checkpoints = agg.cp.Rows()
	}
	if agg.hl != nil {
		res.HeightCounts = agg.hl.Rows()
	}
	res.ShardStats = agg.ss
	// The array is fixed, so balls and capacity are the same constant
	// in every folded repetition.
	completed := agg.stopAt
	res.Balls.AddN(float64(m), int64(completed))
	res.TotalCapacity.AddN(float64(totalCap), int64(completed))
	if completed < spec.Reps {
		// Cancelled (context or CancelAfter): the aggregates cover
		// exactly repetitions [0, completed) — bit-identical to a run
		// configured with Reps = completed — and the checkpoint resumes
		// from there.
		cerr := &CancelledError{
			Engine:          engRunLargeMC,
			CompletedReps:   completed,
			CompletedCuts:   -1,
			CompletedRounds: -1,
			CompletedTicks:  -1,
			Checkpoint:      captureMonteCheckpoint(fp, completed, res, agg),
			Cause:           cc.err(),
		}
		if completed == 0 {
			cerr.CompletedCuts, res.Checkpoints = agg.cuts0, agg.rows0
		}
		return res, cerr
	}
	if spec.AdoptArray && proto != nil {
		// The histogram summaries never recount the array: the adopted
		// array leaves with an exact cached ball total.
		master.Recount()
	}
	return res, nil
}
