// Sharded single-run engine: one huge repetition (n up to 10^7 bins)
// partitioned across workers, so a single game scales across cores the
// way Run scales repetitions.
//
// # Model and determinism contract
//
// The bin array is split into Shards contiguous shards of (nearly)
// equal size. Placement is a two-level protocol:
//
//  1. Routing: the m balls are routed to shards in fixed-size routing
//     blocks (RoutingBlock balls each; see route.go). Each block's
//     per-shard count vector is an exact Multinomial(blockBalls,
//     shardWeights) sample — shard weight = the shard's total
//     selection weight — generated by conditional binomial splitting
//     on the block's own substream (Seed, stream 0, block index).
//     Only per-shard counts (and, for checkpoints, per-cut prefixes)
//     exist; there is no per-ball routing pass.
//  2. Placement: each shard runs the configured protocol over its own
//     bins, with selection weights restricted (and renormalised by the
//     alias build) to the shard, its own pre-built alias tables, and
//     its own RNG stream (stream 1+s for shard s), placing exactly the
//     balls routed to it.
//
// Because a candidate's marginal probability factorises as
// P(shard)·P(bin | shard), each individual candidate draw has exactly
// the configured distribution; the relaxation is that all d choices of
// one ball land in the same shard, so load comparisons never cross a
// shard boundary. This is the standard partitioned-d-choice relaxation
// (cf. the batched-arrival relaxation in protocol.Batched): for shards
// of roughly equal total weight the per-shard games are independent
// copies of the original game at n/Shards scale. The multinomial
// block counts are exactly the counts an (unordered) per-ball routing
// pass would produce in distribution — only the draw sequence is
// redefined, not the model's law.
//
// # Determinism contract
//
// The result is a deterministic function of (capacities, distribution,
// protocol, balls, Seed, Shards) and — bit for bit — independent of
// Workers. Routing blocks are part of the model, like Shards: block b
// draws from substream (Seed, stream 0, b), so blocks merge by exact
// integer addition no matter which worker generates which block, and
// shard s's placement depends only on its own stream and its routed
// count. Workers only schedules which core runs which block or shard:
// both phases are task lists on the shared phase runner (runner.go).
// Changing Shards (or RoutingBlock) changes the game, like changing
// Seed. The model orders balls block by block and, within a routing
// block, by shard index — the ordering behind the checkpoint cut rule
// in route.go.
package sim

import (
	"fmt"

	"repro/internal/bins"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/xrand"
)

// DefaultShards is the shard count used when RunSpec.Shards is 0.
// It is a fixed constant (not derived from the machine) so results are
// reproducible across environments; 64 shards keep 4-16 workers busy
// with low imbalance while leaving per-shard arrays large enough that
// the within-shard game is statistically meaningful.
const DefaultShards = 64

// LargeResult aggregates one sharded run.
type LargeResult struct {
	// N is the number of bins; Shards the realised shard count.
	N      int
	Shards int
	// Balls is the total number of balls placed (spec.ballCount).
	Balls int64
	// MaxLoad, AvgLoad and Deviation are the final whole-array load
	// statistics (deviation = max − average).
	MaxLoad   float64
	AvgLoad   float64
	Deviation float64
	// ShardBalls[s] is the number of balls routed to shard s.
	ShardBalls []int64
	// Checkpoints holds the single run's checkpoint observations in
	// ascending cut order (each row has one observation; only when
	// Checkpoints were requested).
	Checkpoints []obs.CheckpointRow
	// HeightCounts holds the bins-at-load>=k counts of the final state
	// (only when HeightLevels was requested).
	HeightCounts []obs.HeightRow
	// Array is the final bin state (owned by the caller).
	Array *bins.Array
}

// RunLarge's task kinds: routing groups (phase 1), then shards
// (phase 2).
const (
	largeRoute = iota
	largePlace
)

var largeKinds = []taskName{{"route", "routing group"}, {"place", "shard"}}

// largeRun is RunLarge's working set: the shard plan plus the state its
// routing and placement phases touch. The main goroutine writes the
// placement inputs (views, aligned prefix, track rows) strictly between
// the phases; the task sends order those writes before the reads.
type largeRun struct {
	sharded
	cc        *canceller
	seed      uint64
	m         int64
	rbase     uint64 // Mix64(seed, 0): the routing substream base
	groups    []routeGroup
	cutBlocks []int64
	cutRems   []int64
	counts    []int64
	views     []*bins.Array
	// prefix[k][s] is shard s's routing prefix at cut k (aligned to its
	// block-aligned cut between the phases) and track[k][s] its local
	// running max at cut k. Each shard writes only its own column, so
	// any worker schedule produces the same matrices.
	prefix [][]int64
	track  [][]float64
	// cutsDone[s] is how many cuts shard s fully placed and tracked —
	// the bookkeeping behind a cancelled partial's cut prefix (nil
	// unless cancellation is armed and a cut is reachable).
	cutsDone []int
	pl       pool
	ph       phase
}

func (r *largeRun) exec(kind, i int) error {
	if kind == largeRoute {
		r.groups[i].route(r.cc, engRunLarge, 0, r.rbase, r.router, r.m, i, len(r.groups), r.cutBlocks, r.cutRems)
		return nil
	}
	// Placer construction (alias table builds, O(shard size)) runs in the
	// task too: it reads only the shard's own weights slice and view.
	return placeShard(r.cc, r.views[i], r.weights[r.bounds[i]:r.bounds[i+1]], r.factory, r.seed, r.counts[i], i, r.prefix, r.track, r.cutsDone)
}

// RunLarge executes one sharded single run of the spec's game. See the
// package comment of this file for the model and the determinism
// contract. The spec's Array is cloned and reset (mutated in place
// under AdoptArray); Balls/BallsFactor follow Config's rules; the
// observation options follow the sharded cut rule (ObsOptions).
//
// When spec.Context is cancelled mid-run, RunLarge returns a partial
// *LargeResult together with a *CancelledError: the partial carries
// the longest checkpoint-cut prefix every shard completed (rows
// bit-identical to the corresponding rows of an uninterrupted run) but
// no final array state. A panic in any routing or placement task
// surfaces as a *PanicError, never as a crash or a hang.
func RunLarge(spec RunSpec) (*LargeResult, error) {
	shards, err := spec.validate(engineLarge)
	if err != nil {
		return nil, err
	}
	sh, err := newSharded(engRunLarge, &spec, shards, nil)
	if err != nil {
		return nil, err
	}
	cc := newCanceller(spec.Context)
	arr, n := sh.arr, sh.n
	m := spec.ballCount(arr.TotalCapacity())

	cuts, _ := obs.NormalizeCuts(spec.Checkpoints) // validated above
	nCuts := obs.CountReached(cuts, m)
	r := &largeRun{
		sharded: sh, cc: cc, seed: spec.Seed, m: m, rbase: xrand.Mix64(spec.Seed, 0),
		counts: make([]int64, shards), views: make([]*bins.Array, shards),
	}
	var realized []int64
	if nCuts > 0 {
		r.prefix = make([][]int64, nCuts)
		flat := make([]int64, nCuts*shards)
		for k := range r.prefix {
			r.prefix[k] = flat[k*shards : (k+1)*shards]
		}
		r.track = make([][]float64, nCuts)
		realized = make([]int64, nCuts)
		if cc != nil {
			r.cutsDone = make([]int, shards)
		}
	}
	// Routing fan-out: blocks spread across routeWidth groups and merge
	// bit-identically regardless of the grouping.
	rg := sh.routeWidth(m)
	r.cutBlocks, r.cutRems = cutPlan(cuts[:nCuts])
	r.groups = newRouteGroups(rg, shards, nCuts)
	// ONE pool serves both phases, so the routing pass adds no
	// goroutines beyond the pool the placement phase always needed.
	r.ph = phase{pool: &r.pl, x: r, engine: engRunLarge, names: largeKinds}
	r.pl.start(sh.poolWidth(rg))
	defer r.pl.close()

	// Phase 1 — block-wise multinomial routing on stream 0 (see
	// route.go): only the per-shard counts exist (plus, when
	// checkpoints are requested, the per-cut routing prefixes),
	// because within a shard the placement order is the shard's own
	// affair.
	if err := r.ph.run(largeRoute, rg); err != nil {
		return nil, err
	}
	if cc.cancelled() {
		// Routing did not complete: no counts, no cuts — the partial
		// carries only the run's identity.
		return &LargeResult{N: n, Shards: shards, Balls: m},
			&CancelledError{Engine: engRunLarge, CompletedReps: -1, CompletedCuts: 0, CompletedRounds: -1, CompletedTicks: -1, Cause: cc.err()}
	}
	mergeRouteGroups(r.groups, r.counts, r.prefix)
	if nCuts > 0 {
		obs.AlignShardCuts(r.prefix, protocol.BlockSize, realized)
		tflat := make([]float64, nCuts*shards)
		for k := range r.track {
			r.track[k] = tflat[k*shards : (k+1)*shards]
		}
	}

	// Shard views are built sequentially, between the phases (no task
	// is in flight here — phase 1 is fully drained): Array.Shard is a
	// parent method, and the bins.Shard contract forbids running
	// parent methods while views mutate concurrently. A shard with no
	// routed balls gets no view and no placer — which also keeps
	// zero-weight shards (e.g. under a top-only distribution) from
	// failing the placer build.
	for s := 0; s < shards; s++ {
		if r.counts[s] == 0 {
			continue
		}
		if r.views[s], err = arr.Shard(sh.bounds[s], sh.bounds[s+1]); err != nil {
			return nil, fmt.Errorf("sim: RunLarge shard %d: %w", s, err)
		}
	}

	// Phase 2 — parallel per-shard placement. Shard s touches only its
	// own view, placer and stream, so any scheduling of shards onto
	// workers produces identical bits.
	if err := r.ph.run(largePlace, shards); err != nil {
		return nil, err
	}
	if cc.cancelled() {
		// The array holds partially placed shards — inconsistent as a
		// final state, but the checkpoint cuts every shard completed
		// are exactly the rows an uninterrupted run would report: the
		// partial is the longest complete cut prefix.
		done := 0
		if r.cutsDone != nil {
			done = nCuts
			for s := 0; s < shards; s++ {
				done = min(done, r.cutsDone[s])
			}
		}
		res := &LargeResult{N: n, Shards: shards, Balls: m, ShardBalls: r.counts}
		if done > 0 {
			res.Checkpoints = cutRows(cuts[:done], realized, r.track[:done], arr.TotalCapacity())
		}
		return res, &CancelledError{Engine: engRunLarge, CompletedReps: -1, CompletedCuts: done, CompletedRounds: -1, CompletedTicks: -1, Cause: cc.err()}
	}

	res := &LargeResult{
		N:          n,
		Shards:     shards,
		Balls:      m,
		ShardBalls: r.counts,
		Array:      arr,
	}
	if len(cuts) > 0 {
		res.Checkpoints = cutRows(cuts, realized, r.track, arr.TotalCapacity())
	}
	res.MaxLoad, res.AvgLoad, res.HeightCounts, err = finalState(engRunLarge, arr, spec.HeightLevels, m)
	if err != nil {
		return nil, err
	}
	res.Deviation = res.MaxLoad - res.AvgLoad
	return res, nil
}

// cutRows observes the leading cuts whose per-shard maxima track holds
// (one row per entry of cuts; track has a row per reached cut) through
// the combined whole-array max. A cut so small that every shard's
// block-aligned prefix is empty realises no state at all; it is
// skipped like a cut beyond m (visible through Reps) instead of
// recording a fictitious max load of 0.
func cutRows(cuts, realized []int64, track [][]float64, totalCap int64) []obs.CheckpointRow {
	cp := obs.NewCheckpoints(cuts)
	maxs := make([]float64, len(track))
	combineShardMaxima(track, maxs)
	for k := range track {
		if realized[k] == 0 {
			continue
		}
		cp.Observe(k, realized[k], totalCap, maxs[k])
	}
	return cp.Rows()
}

// shardPlan computes the contiguous shard boundaries, each shard's
// total selection weight and the multinomial routing generator over
// those weights. RunLarge and RunLargeMonte share it so the shard
// geometry and routing distribution can never diverge: the Monte
// engine's "repetition 0 reproduces RunLarge bit for bit" contract
// depends on both engines using the identical plan.
func shardPlan(weights []float64, n, shards int) (bounds []int, shardW []float64, router *sampling.Multinomial, err error) {
	bounds = make([]int, shards+1)
	for s := 0; s <= shards; s++ {
		bounds[s] = s * n / shards
	}
	shardW = make([]float64, shards)
	for s := 0; s < shards; s++ {
		for i := bounds[s]; i < bounds[s+1]; i++ {
			shardW[s] += weights[i]
		}
	}
	router, err = sampling.NewMultinomial(shardW)
	if err != nil {
		return nil, nil, nil, err
	}
	return bounds, shardW, router, nil
}

// placeShard runs shard s's game: its own pre-built view, its own
// alias tables and its own RNG stream. A nil view means no balls were
// routed here — every cut is trivially complete. When checkpoint cuts
// are requested (cuts[k][s] is the block-aligned count of this shard's
// balls at cut k), placement is segmented at the cuts and the
// shard-local running max is recorded into track[k][s]. Segmenting
// PlaceBatch never moves a draw — PlaceBatch(a)+PlaceBatch(b) consumes
// exactly the draws of PlaceBatch(a+b) — so the final state is
// bit-identical with and without checkpoints (pinned by tests). When
// cutsDone is non-nil, slot s receives the number of cuts the shard
// fully completed before cancellation (each shard writes only its own
// slot).
func placeShard(cc *canceller, view *bins.Array, weights []float64, factory protocol.Factory, seed uint64, count int64, s int, cuts [][]int64, track [][]float64, cutsDone []int) error {
	if view == nil {
		if cutsDone != nil {
			cutsDone[s] = len(cuts)
		}
		return nil
	}
	placer, err := factory(view, weights)
	if err != nil {
		return err
	}
	rs := xrand.NewStream(seed, uint64(s)+1)
	done, _ := placeShardSegments(cc, engRunLarge, 0, placer, view, rs, count, s, cuts, track)
	if cutsDone != nil {
		cutsDone[s] = done
	}
	return nil
}

// placeShardSegments runs one shard's placement, segmented at the
// block-aligned cuts (cuts[k][s]), recording the shard-local running
// max into track[k][s]. It is shared by RunLarge's placeShard and
// RunLargeMonte's placement tasks so the cut schedule can never
// diverge between the engines — the "Reps = 1 reproduces a
// checkpointed RunLarge bit for bit" contract depends on both using
// this exact schedule. With no cuts it is a single PlaceBatch per
// cancellation stride. It returns the number of fully completed cuts
// and whether the whole count was placed (false only under
// cancellation).
func placeShardSegments(cc *canceller, eng string, rep int, placer protocol.Placer, view *bins.Array, rs *xrand.Rand, count int64, s int, cuts [][]int64, track [][]float64) (cutsDone int, ok bool) {
	placed := int64(0)
	for k := range cuts {
		cut := cuts[k][s]
		if !placeSegment(cc, eng, rep, s, placer, view, rs, cut-placed) {
			return k, false
		}
		placed = cut
		if cut > 0 {
			track[k][s] = view.MaxLoad()
		}
	}
	if !placeSegment(cc, eng, rep, s, placer, view, rs, count-placed) {
		return len(cuts), false
	}
	return len(cuts), true
}

// placeSegment places one segment of a shard's balls. Without
// cancellation (and in normal, non-faultinject builds) it is exactly
// one PlaceBatch — the pre-existing hot path, untouched. With
// cancellation armed it strides the segment in RoutingBlock-sized
// sub-batches, polling the flag between strides: sub-segmenting never
// moves a draw (the PlaceBatch additivity contract), so the placement
// granularity of cancellation costs one flag load per 65536 balls and
// zero allocations. Returns false when cancelled before finishing.
func placeSegment(cc *canceller, eng string, rep, s int, placer protocol.Placer, view *bins.Array, rs *xrand.Rand, count int64) bool {
	if cc == nil && !fault.Enabled {
		placer.PlaceBatch(view, rs, count)
		return true
	}
	block := 0
	for placed := int64(0); placed < count; block++ {
		if cc.cancelled() {
			return false
		}
		if fault.Enabled {
			fault.Hit(fault.Site{Engine: eng, Op: fault.OpPlace, Rep: rep, Shard: s, Block: block})
		}
		n := count - placed
		if n > RoutingBlock {
			n = RoutingBlock
		}
		placer.PlaceBatch(view, rs, n)
		placed += n
	}
	return true
}

// combineShardMaxima reduces the per-shard cut maxima spatially:
// out[k] = max over shards of track[k][s] — a pure max in shard
// order, order-independent for finite floats, so any worker schedule
// that filled track produces the same combination.
func combineShardMaxima(track [][]float64, out []float64) {
	for k := range track {
		max := 0.0
		for _, v := range track[k] {
			if v > max {
				max = v
			}
		}
		out[k] = max
	}
}
