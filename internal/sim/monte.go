// Sharded Monte-Carlo engine: R repetitions of the sharded game
// (large.go), played one after another over the run's own bin array,
// each at full machine width, so that huge-n aggregates — the regime
// where the paper's gap bounds become empirically sharp — never hold
// more than one bin array in memory. Reps = 1 is the single sharded
// game.
//
// # Scheduling model
//
// One repetition state owns the run's bin array, its shard views,
// per-shard placers and generators, and routing groups (built once,
// reset between repetitions), plus one phase (the phase runner,
// runner.go) whose tasks run on the calling goroutine and at most
// spec.Workers−1 helpers. The calling goroutine plays the repetitions
// in order, one phase barrier at a time:
//
//	route blocks ∥ reset shards → place shards in parallel → summarise → fold
//
// Every O(n) pass — reset, placement, the shard-local max scan or
// histogram — is a per-shard pool task; the summary (O(shards) shard
// maxima and histogram merges) and the fold are inline tasks on the
// calling goroutine. A fresh array
// skips the reset, and each shard's placer is built by its first
// placement task, so the single game (Reps = 1) pays for no reset and
// no serial placer build. Peak memory is one bin array plus the
// running summary for any Workers, never O(Reps · n), so n = 10^7 with
// hundreds of repetitions fits in RAM.
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
// protocol, balls, Seed, Shards, rep). Repetition summaries fold in
// repetition order, so every accumulator and the mean load vector are
// bit-identical for any Workers value. Shards and the routing-block
// structure remain part of the model.
package sim

import (
	"fmt"
	"slices"

	"repro/internal/bins"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/xrand"
)

// monteRepState is the run's reusable per-repetition state: the bin
// array, shard views, per-shard placers and generators, and routing
// groups (built once, reset between repetitions), routing counts,
// summary scratch and the result's collectors. Pool tasks of one
// repetition at a time touch it; the fold runs between barriers.
type monteRepState struct {
	sh       *sharded
	fresh    bool              // the array has never been placed on: skip the reset
	views    []*bins.Array     // nil for zero-weight shards (never routed to)
	placers  []protocol.Placer // built by the shard's first placement task
	rands    []shardRand       // per-shard placement generators, re-seeded each rep
	counts   []int64
	shardMax []float64 // final shard-local max, taken by the shard's placement task
	max      float64

	// Per-shard load histograms (non-nil iff the run requests a
	// distribution-shaped observable: load vector or height counts).
	// Phase B rebuilds each routed shard's histogram over its own view
	// in parallel; the summary merges them in shard order into histAll —
	// exact integer addition, so the merged histogram is identical to
	// a whole-array pass for any worker count. All share the array's
	// class skeleton, which is what makes the shard views' histograms
	// mergeable.
	hists   []*bins.LoadHistogram
	histAll *bins.LoadHistogram

	// Run constants: the seed, balls per repetition, total capacity and
	// the average load m/C, identical in every repetition.
	seed     uint64
	m        int64
	totalCap int64
	avg      float64

	// Per-repetition task parameters, set by runRep before submitting
	// any task of the repetition.
	rep   int
	base  uint64 // stream base rep·(shards+1)
	rbase uint64 // Mix64(seed, base): the routing substream base

	// cc is the run's canceller (nil when no Context).
	cc *canceller
	ph phase

	// Routing state: the routing groups (route.go), reused across
	// repetitions, plus the cut plan.
	routeGroups []routeGroup
	cutBlocks   []int64
	cutRems     []int64

	// Observation scratch, allocated once and reused across
	// repetitions (all nil/empty when not requested).
	cuts     []int64     // the reached cuts
	prefix   [][]int64   // [cut][shard] routing prefixes → aligned cuts
	cutBalls []int64     // realised balls per cut
	track    [][]float64 // [cut][shard] shard-local running max at cut
	cpMax    []float64   // combined whole-array max per cut
	hlCounts []int64     // bins at load >= k (HeightLevels)
	// cutsDone[s] is how many cuts shard s fully placed and tracked in
	// the current repetition (nil unless cancellation is armed and a
	// cut is reachable).
	cutsDone []int

	// The result and its collectors. The fold runs in repetition order,
	// so every Observe happens in one fixed order — the unified
	// observation contract's requirement for bit-identical aggregates
	// across worker topologies.
	res   *Result
	loads *obs.SortedLoads
	cp    *obs.Checkpoints
	hl    *obs.Heights
	ss    *obs.ShardStats
}

// newMonteRepState builds the run's state over the prologue's fresh
// (reset) array: the shard views, routing groups, observation scratch,
// the collectors over the normalized cuts allCuts, and the phase.
// Zero-weight shards get no view, so never a placer — the router can
// never send a ball there, and building a placer over an all-zero
// weight slice would fail.
func newMonteRepState(sh *sharded, spec *RunSpec, cc *canceller, allCuts []int64) (*monteRepState, error) {
	shards, bounds := sh.shards, sh.bounds
	totalCap := sh.arr.TotalCapacity()
	m := spec.BallCount(totalCap)
	cuts := allCuts[:obs.CountReached(allCuts, m)]
	st := &monteRepState{
		sh:          sh,
		fresh:       true,
		views:       make([]*bins.Array, shards),
		placers:     make([]protocol.Placer, shards),
		rands:       make([]shardRand, shards),
		counts:      make([]int64, shards),
		shardMax:    make([]float64, shards),
		seed:        spec.Seed,
		m:           m,
		totalCap:    totalCap,
		avg:         float64(m) / float64(totalCap),
		routeGroups: newRouteGroups(sh.routeWidth(m), shards, len(cuts)),
		cuts:        cuts,
		cc:          cc,
		res:         &Result{N: sh.n, Shards: shards},
	}
	st.ph = phase{x: st, engine: engRunLargeMC, names: monteKinds}
	st.cutBlocks, st.cutRems = cutPlan(cuts)
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
	if spec.CollectLoadVector {
		st.loads = obs.NewSortedLoads()
	}
	if len(allCuts) > 0 {
		st.cp = obs.NewCheckpoints(allCuts)
	}
	if spec.HeightLevels > 0 {
		st.hl = obs.NewHeights(spec.HeightLevels)
		st.hlCounts = make([]int64, spec.HeightLevels)
	}
	if spec.ShardStats {
		st.ss = obs.NewShardStats(shards)
	}
	for s := 0; s < shards; s++ {
		if sh.shardW[s] <= 0 {
			continue
		}
		v, err := sh.arr.Shard(bounds[s], bounds[s+1])
		if err != nil {
			return nil, fmt.Errorf("sim: RunLargeMonte shard %d: %w", s, err)
		}
		st.views[s] = v
	}
	if spec.CollectLoadVector || spec.HeightLevels > 0 {
		// One class skeleton for the whole run: every shard histogram
		// clones it, which is what makes shard merges exact (identical
		// class set) and keeps CapacityClasses out of the
		// per-repetition path. Max/avg-only runs skip histograms
		// entirely.
		proto := sh.arr.NewLoadHistogram()
		st.histAll = proto.CloneEmpty()
		st.hists = make([]*bins.LoadHistogram, shards)
		for s := 0; s < shards; s++ {
			st.hists[s] = proto.CloneEmpty()
			if st.views[s] != nil {
				continue // rebuilt by Phase B every repetition
			}
			// Zero-weight shards are never routed to, reset or placed:
			// their bins stay empty for the whole run, so one build at
			// height zero stands for every repetition.
			v, err := sh.arr.Shard(bounds[s], bounds[s+1])
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
func (st *monteRepState) cutPrefix() (int, []obs.CheckpointRow) {
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
			cp.Observe(k, st.cutBalls[k], st.totalCap, st.cpMax[k])
		}
	}
	return done, cp.Rows()
}

// Monte's task kinds: Phase A overlaps routing groups with shard
// resets, Phase B places shards; the summary and the fold are inline
// tasks on the calling goroutine.
const (
	monteRoute = iota
	monteReset
	montePlace
	monteSummary
	monteFold
)

var monteKinds = []taskName{{task: "route"}, {task: "reset"}, {task: "place"}, {task: "summary"}, {task: "orchestrator"}}

// exec runs one task of the current repetition. Per-repetition
// parameters (stream base, provenance) live on the state, set by
// runRep before any task of that repetition is submitted.
func (st *monteRepState) exec(kind, idx int) error {
	switch kind {
	case monteRoute:
		rg := &st.routeGroups[idx]
		rg.reset()
		rg.route(st.cc, engRunLargeMC, st.rep, st.rbase, st.sh.router, st.m, idx, len(st.routeGroups), st.cutBlocks, st.cutRems)
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
		if st.hists == nil {
			st.shardMax[s] = st.views[s].MaxLoad()
			break
		}
		// The shard's one-pass histogram, rebuilt over its own view
		// while other shards are still placing. A zero-count shard
		// reaches here too (its segment schedule places nothing and
		// consumes no draws) so its freshly reset view overwrites last
		// repetition's rows.
		if err := st.views[s].HistogramInto(st.hists[s]); err != nil {
			return fmt.Errorf("sim: RunLargeMonte shard %d histogram: %w", s, err)
		}
		st.shardMax[s] = st.hists[s].MaxLoad()
	case monteSummary:
		if fault.Enabled {
			fault.Hit(fault.Site{Engine: engRunLargeMC, Op: fault.OpSummary, Rep: st.rep, Shard: -1, Block: -1})
		}
		if st.hists != nil {
			// Shard-order merge: exact integer addition, so the result
			// is identical to one whole-array pass — and the
			// distribution-shaped observables derive from the merged
			// histogram without touching the bins again.
			ha := st.histAll
			ha.Reset()
			for s := range st.hists {
				if err := ha.Merge(st.hists[s]); err != nil {
					return fmt.Errorf("sim: RunLargeMonte merge shard %d: %w", s, err)
				}
			}
			if st.hlCounts != nil {
				ha.CountAtOrAbove(st.hlCounts)
			}
		}
		// Division is correctly rounded, hence monotone: the max of the
		// shard-local maxima the placement tasks took is the
		// whole-array max, bit for bit.
		st.max = slices.Max(st.shardMax)
		combineShardMaxima(st.track, st.cpMax)
	case monteFold:
		if fault.Enabled {
			fault.Hit(fault.Site{Engine: engRunLargeMC, Op: fault.OpOrchestrator, Rep: st.rep, Shard: -1, Block: -1})
		}
		return st.fold()
	}
	return nil
}

// fold adds the repetition's summary to the result and its collectors.
func (st *monteRepState) fold() error {
	res := st.res
	res.MaxLoad.Add(st.max)
	res.AvgLoad.Add(st.avg)
	res.Deviation.Add(st.max - st.avg)
	if st.loads != nil {
		if err := st.loads.SnapshotHist(obs.Final, st.histAll, st.m); err != nil {
			return err
		}
	}
	if st.cp != nil {
		for k := range st.cuts {
			// An empty block-aligned realisation means this repetition
			// saw no state at the cut; skip it (like a cut beyond m) so
			// zeros never contaminate the maxima aggregates.
			if st.cutBalls[k] != 0 {
				st.cp.Observe(k, st.cutBalls[k], st.totalCap, st.cpMax[k])
			}
		}
	}
	if st.hl != nil {
		st.hl.Observe(st.hlCounts)
	}
	if st.ss != nil {
		return st.ss.Observe(st.counts, st.shardMax)
	}
	return nil
}

// runRep executes one repetition on the pool in three phases. Phase A
// overlaps the routing blocks (substreams of stream base =
// rep·(shards+1), fanned out across the routing groups) with the
// per-shard resets: routing touches only the splitting tree and the
// group's own buffers, resets touch only view bins; the groups are
// folded afterwards (exact integer sums, order-free). Phase B places
// every routed shard in parallel on stream base+1+s and takes its
// shard-local max. The summary then combines the shards inline.
//
// It returns ok = false when the repetition was abandoned, with a
// non-nil err when a task of it failed and a nil one when the run's
// context fired.
func (st *monteRepState) runRep(rep int) (ok bool, err error) {
	st.rep, st.ph.rep = rep, rep
	st.base = uint64(rep) * uint64(st.sh.shards+1)
	st.rbase = xrand.Mix64(st.seed, st.base)
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
	if err := st.ph.wait(); err != nil || st.cc.cancelled() {
		return false, err
	}
	// Folding the groups is O(groups·shards·cuts) — bookkeeping, not
	// pool work.
	mergeRouteGroups(st.routeGroups, st.counts, st.prefix)
	if len(st.cuts) > 0 {
		obs.AlignShardCuts(st.prefix, protocol.BlockSize, st.cutBalls)
	}
	for k := range st.track {
		clear(st.track[k])
	}
	clear(st.shardMax)

	for s := range st.views {
		// A zero-count shard normally needs no Phase B at all (its
		// reset view's max is the cleared 0); with histograms on it
		// still gets a (draw-free) placement task so its empty view
		// refreshes st.hists[s] for the summary's merge.
		if st.views[s] == nil || (st.counts[s] == 0 && st.hists == nil) {
			if st.cutsDone != nil {
				st.cutsDone[s] = len(st.cuts)
			}
			continue
		}
		st.ph.submit(montePlace, s)
	}
	if err := st.ph.wait(); err != nil || st.cc.cancelled() {
		return false, err
	}
	if err := st.ph.inline(monteSummary); err != nil {
		return false, err
	}
	return true, nil
}

// play runs repetitions start … stop−1 in order on the calling
// goroutine, folding each one as an inline task, and returns the
// folded prefix. The first cancellation or error ends it, so both are
// the lowest repetition's whatever Workers is.
func (st *monteRepState) play(start, stop int) (int, error) {
	// The widest phase is Phase A: every routing group and every reset.
	st.ph.start(st.sh.workers, len(st.routeGroups)+st.sh.shards)
	defer st.ph.close()
	for rep := start; rep < stop; rep++ {
		if st.cc.cancelled() {
			return rep, nil
		}
		if ok, err := st.runRep(rep); !ok {
			return rep, err
		}
		if err := st.ph.inline(monteFold); err != nil {
			return rep, err
		}
	}
	return stop, nil
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
// row bit-identical to the uninterrupted run's. A panic in any task,
// the fold included, surfaces as a *PanicError, never as a crash.
func runLargeMonte(spec RunSpec) (*Result, error) {
	shards, err := spec.validate(EngineSharded)
	if err != nil {
		return nil, err
	}
	sh, err := newSharded(engRunLargeMC, &spec, shards, nil)
	if err != nil {
		return nil, err
	}
	cc := newCanceller(spec.Context)
	allCuts, _ := obs.NormalizeCuts(spec.Checkpoints) // validated above
	st, err := newMonteRepState(&sh, &spec, cc, allCuts)
	if err != nil {
		return nil, err
	}
	res := st.res

	// The fingerprint pins the experiment a checkpoint belongs to. It
	// costs an O(n) capacity hash, so it is computed only when a
	// checkpoint can actually be read (Resume) or written (a cancel
	// source exists) — the plain path pays nothing.
	var fp MonteFingerprint
	if spec.Resume != nil || cc != nil || spec.CancelAfter > 0 {
		fp = MonteFingerprint{
			N: sh.n, Shards: shards, Balls: st.m, Seed: spec.Seed,
			TotalCapacity: st.totalCap, CapHash: capHash(sh.arr),
			Checkpoints: allCuts, HeightLevels: spec.HeightLevels,
			CollectLoadVector: spec.CollectLoadVector, ShardStats: spec.ShardStats,
		}
	}
	start := 0
	if spec.Resume != nil {
		if err := spec.Resume.restore(fp, st); err != nil {
			return nil, err
		}
		if start = spec.Resume.CompletedReps; start > spec.Reps {
			return nil, fmt.Errorf("sim: resume checkpoint covers %d repetitions, run has only %d", start, spec.Reps)
		}
	}
	// stop is the last repetition the run intends to fold: Reps, or
	// the deterministic self-cancel point. A context cancellation ends
	// the realised prefix earlier.
	stop := spec.Reps
	if spec.CancelAfter > 0 {
		stop = max(min(stop, spec.CancelAfter), start)
	}
	completed, err := st.play(start, stop)
	if err != nil {
		return nil, err
	}
	if st.loads != nil {
		res.MeanSortedLoads = st.loads.Mean()
	}
	if st.cp != nil {
		res.Checkpoints = st.cp.Rows()
	}
	if st.hl != nil {
		res.HeightCounts = st.hl.Rows()
	}
	res.ShardStats = st.ss
	// The array is fixed, so balls and capacity are the same constant
	// in every folded repetition.
	res.Balls.AddN(float64(st.m), int64(completed))
	res.TotalCapacity.AddN(float64(st.totalCap), int64(completed))
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
			Checkpoint:      captureMonteCheckpoint(fp, completed, st),
			Cause:           cc.err(),
		}
		if completed == 0 {
			// Repetition 0 was the one cancelled: its cut prefix is
			// the single game's partial.
			cerr.CompletedCuts, res.Checkpoints = st.cutPrefix()
		}
		return res, cerr
	}
	if spec.AdoptArray {
		// Placement writes through the shard views: the adopted array
		// leaves with an exact cached ball total.
		sh.arr.Recount()
	}
	return res, nil
}
