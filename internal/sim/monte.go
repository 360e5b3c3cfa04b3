// Sharded Monte-Carlo engine: R repetitions of the sharded game
// (large.go), played one after another over the run's own bin array,
// each at full machine width, so that huge-n aggregates — the regime
// where the paper's gap bounds become empirically sharp — never hold
// more than one bin array in memory. Reps = 1 is the single sharded
// game.
//
// # Scheduling model
//
// A repetition is one step of the step driver (runner.go), which owns
// the run's bin array, its shard views, per-shard placers and
// generators, and routing groups (built once, reset between
// repetitions), and whose phases run on the calling goroutine and at
// most spec.Workers−1 helpers. The setup phase resets every shard,
// sums its weight, records its capacity classes (their union is the
// histograms' class skeleton) and builds its placer, all in parallel;
// then the calling goroutine plays the repetitions in order, one phase
// barrier at a time:
//
//	route blocks ∥ reset shards → place shards in parallel → summarise → fold
//
// Every O(n) pass — reset, placement, the shard-local max scan or
// histogram — is a per-shard pool task; the summary (O(shards) shard
// maxima and histogram merges) and the fold are inline tasks on the
// calling goroutine. The fold is the repetition's commit: once it has
// run the repetition counts, even if the context fired meanwhile. The
// first repetition played skips the reset (the setup phase reset every
// shard). The run's state is 32 B per bin for any Workers, never
// O(Reps · n): the array's bins (16 B), the selection weights (8 B)
// and the shards' alias columns (8 B), plus the running summary.
// Nothing transient is added: an alias build works in a 1-bit-per-bin
// mask. So n = 10^7 with hundreds of repetitions fits in RAM.
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
)

// monteState is the run's state on top of the step driver's: the
// repetition constants, the summary scratch and the result's
// collectors. Pool tasks of one repetition at a time touch it; the
// summary and the fold run between barriers.
type monteState struct {
	stepper
	m        int64     // balls per repetition
	avg      float64   // m/C, identical in every repetition
	shardMax []float64 // final shard-local max, taken by the shard's placement task
	max      float64

	// Per-shard load histograms (non-nil iff the run requests a
	// distribution-shaped observable: load vector or height counts).
	// Each routed shard's placement task rebuilds its histogram over
	// its own view in parallel; the summary merges them in shard order
	// into histAll — exact integer addition, so the merged histogram
	// is identical to a whole-array pass for any worker count. All
	// share the array's class skeleton, which is what makes the shard
	// views' histograms mergeable.
	hists   []*bins.LoadHistogram
	histAll *bins.LoadHistogram

	// Observation scratch over the nCuts reached ball-count cuts,
	// allocated once and reused across repetitions (nil when not
	// requested); the shard maxima at the cuts are the driver's cutMax.
	cutBalls []int64 // realised balls per cut
	// cutsDone[s] is how many cuts shard s fully placed and tracked in
	// the current repetition (nil unless cancellation is armed and a
	// cut is reachable).
	cutsDone []int

	ss *obs.ShardStats // the rest fold into the driver's collector set

	// resume, when non-nil, is restored by prepare once the router
	// stands; fp is the run's fingerprint it must match.
	resume *MonteCheckpoint
	fp     MonteFingerprint
}

// newMonteState builds the run's state over the prologue: the driver
// with the repetition's stream layout, the observation scratch and the
// collectors. The setup phase resets the array, and prepare builds the
// histograms.
func newMonteState(spec *RunSpec, sh sharded) (*monteState, error) {
	st := &monteState{m: spec.BallCount(sh.arr.TotalCapacity())}
	if err := st.init(engRunLargeMC, spec, sh, spec.Reps, st.m, false); err != nil {
		return nil, err
	}
	st.kk, st.placeAt = uint64(sh.shards+1), 1
	st.avg = float64(st.m) / float64(st.totalCap)
	st.shardMax = make([]float64, sh.shards)
	if st.nCuts > 0 {
		st.cutBalls = make([]int64, st.nCuts)
		if st.cc != nil {
			st.cutsDone = make([]int, sh.shards)
		}
	}
	if spec.ShardStats {
		st.ss = obs.NewShardStats(sh.shards)
	}
	if spec.CollectLoadVector || spec.HeightLevels > 0 {
		st.classes = make([][]int64, sh.shards) // recorded by the setup tasks
	}
	return st, nil
}

// prepare finishes the state once the setup phase has passed: it
// restores a resumed run's prefix, then builds the per-shard
// histograms when the run asks for them. Zero-weight shards have no
// view, so never a placer — the router can never send a ball there.
func (st *monteState) prepare() error {
	if st.resume != nil {
		if err := st.resume.restore(st.fp, st); err != nil {
			return err
		}
		st.start = st.resume.CompletedReps
	}
	if st.classes == nil {
		return nil
	}
	// One class skeleton for the whole run, the union of the shards'
	// classes: every shard histogram clones it, which is what makes
	// shard merges exact (identical class set) and keeps
	// CapacityClasses out of the per-repetition path. Max/avg-only runs
	// skip histograms entirely.
	var classes []int64
	for _, c := range st.classes {
		classes = append(classes, c...)
	}
	slices.Sort(classes)
	proto, err := bins.NewLoadHistogram(slices.Compact(classes))
	if err != nil {
		return fmt.Errorf("sim: RunLargeMonte histogram: %w", err)
	}
	st.histAll = proto.CloneEmpty()
	st.hists = make([]*bins.LoadHistogram, st.shards)
	for s := range st.hists {
		st.hists[s] = proto.CloneEmpty()
		if st.views[s] != nil {
			continue // rebuilt by the placement task every repetition
		}
		// Zero-weight shards are never routed to, reset or placed:
		// their bins stay empty for the whole run, so one build at
		// height zero stands for every repetition.
		v, err := st.arr.Shard(st.bounds[s], st.bounds[s+1])
		if err != nil {
			return fmt.Errorf("sim: RunLargeMonte shard %d: %w", s, err)
		}
		if err := v.HistogramInto(st.hists[s]); err != nil {
			return fmt.Errorf("sim: RunLargeMonte shard %d histogram: %w", s, err)
		}
	}
	return nil
}

// cutPrefix returns the checkpoint rows of the cuts every shard of a
// cancelled repetition completed — each bit-identical to the row the
// uninterrupted repetition reports — and their count. A repetition
// cancelled during routing completed none.
func (st *monteState) cutPrefix() (int, []obs.CheckpointRow) {
	if st.cutsDone == nil {
		return 0, nil
	}
	done := st.nCuts
	for _, d := range st.cutsDone {
		done = min(done, d)
	}
	if done == 0 {
		return 0, nil
	}
	cp := obs.NewCheckpoints(st.cuts[:done])
	for k := 0; k < done; k++ {
		// An empty block-aligned realisation saw no state at the cut.
		if st.cutBalls[k] != 0 {
			cp.Observe(k, st.cutBalls[k], st.totalCap, st.cutTop(k))
		}
	}
	return done, cp.Rows()
}

// Monte's task kinds, after the step driver's: resets share the
// routing phase, placements have one of their own, and the summary
// and the fold are inline tasks on the calling goroutine.
const (
	monteReset = stepKinds + iota
	montePlace
	monteSummary
	monteFold
)

var monteKinds = slices.Concat(stepNames, []taskName{{task: "reset"}, {task: "place"}, {task: "summary"}, {task: "orchestrator"}})

// exec runs one task of the repetition in flight.
func (st *monteState) exec(kind, s, _ int) error {
	switch kind {
	case monteReset:
		if st.views[s] == nil {
			return nil // never placed on
		}
		if fault.Enabled {
			fault.Hit(fault.Site{Engine: engRunLargeMC, Op: fault.OpReset, Rep: st.step, Shard: s, Block: -1})
		}
		st.views[s].Reset()
	case montePlace:
		// Stateful placers (e.g. the batched protocol's round snapshot)
		// must forget the previous repetition.
		if rp, ok := st.placers[s].(interface{ Reset() }); ok {
			rp.Reset()
		}
		done, _ := placeShardSegments(st.cc, engRunLargeMC, st.step, st.placers[s], st.views[s], &st.rands[s].Rand, st.counts[s], s, st.prefix, st.cutMax)
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
			fault.Hit(fault.Site{Engine: engRunLargeMC, Op: fault.OpSummary, Rep: st.step, Shard: -1, Block: -1})
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
		}
		// Division is correctly rounded, hence monotone: the max of the
		// shard-local maxima the placement tasks took is the
		// whole-array max, bit for bit.
		st.max = slices.Max(st.shardMax)
	case monteFold:
		if fault.Enabled {
			fault.Hit(fault.Site{Engine: engRunLargeMC, Op: fault.OpOrchestrator, Rep: st.step, Shard: -1, Block: -1})
		}
		return st.fold()
	default:
		return st.stepExec(kind, s)
	}
	return nil
}

// fold adds the repetition's summary to the collectors: its final
// state (the merged histogram feeds the load vector and the height
// counts), its cut rows and its shard rows.
func (st *monteState) fold() error {
	if err := st.col.observe(st.max, st.avg, st.m, st.totalCap, st.histAll); err != nil {
		return err
	}
	for k := 0; k < st.nCuts; k++ {
		// An empty block-aligned realisation means this repetition saw
		// no state at the cut; skip it (like a cut beyond m) so zeros
		// never contaminate the maxima aggregates.
		if st.cutBalls[k] != 0 {
			st.col.cp.Observe(k, st.cutBalls[k], st.totalCap, st.cutTop(k))
		}
	}
	if st.ss != nil {
		return st.ss.Observe(st.counts, st.shardMax)
	}
	return nil
}

// runStep plays repetition rep. The routing phase overlaps the routing
// blocks with the per-shard resets: routing touches only the splitting
// tree and the groups' own buffers, resets touch only view bins. The
// placement phase places every routed shard in parallel and takes its
// shard-local max; the summary then combines the shards and the fold
// commits the repetition, both inline.
func (st *monteState) runStep(rep int) (ok bool, err error) {
	clear(st.cutsDone)
	resets := 0
	if rep > st.start {
		resets = st.shards
	}
	if ok, err := st.route(st.m, monteReset, resets); !ok {
		return false, err
	}
	if st.nCuts > 0 {
		obs.AlignShardCuts(st.prefix, protocol.BlockSize, st.cutBalls)
	}
	for k := range st.cutMax {
		clear(st.cutMax[k])
	}
	clear(st.shardMax)
	for s := range st.views {
		// A zero-count shard normally needs no placement task (its
		// reset view's max is the cleared 0); with histograms on it
		// still gets a draw-free one so its empty view refreshes
		// st.hists[s] for the summary's merge.
		if st.views[s] == nil || (st.counts[s] == 0 && st.hists == nil) {
			if st.cutsDone != nil {
				st.cutsDone[s] = st.nCuts
			}
			continue
		}
		st.ph.submit(montePlace, s)
	}
	if ok, err := st.phase(montePlace, 0); !ok {
		return false, err
	}
	if err := st.ph.inline(monteSummary); err != nil {
		return false, err
	}
	if err := st.ph.inline(monteFold); err != nil {
		return false, err
	}
	return true, nil
}

// runLargeMonte executes spec.Reps repetitions of the sharded game
// (large.go) and aggregates them onto the classic Result shape; Reps =
// 1 is the single sharded game. See the package comment of this file
// for the scheduling model and the determinism contract. Checkpoint
// rows keep the sharded model's block-aligned realised cuts (RealBalls
// <= the requested cut).
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
	st, err := newMonteState(&spec, sh)
	if err != nil {
		return nil, err
	}

	// The fingerprint pins the experiment a checkpoint belongs to. It
	// costs an O(n) capacity hash, so it is computed only when a
	// checkpoint can actually be read (Resume) or written (a cancel
	// source exists) — the plain path pays nothing.
	if spec.Resume != nil || st.cc != nil || spec.CancelAfter > 0 {
		st.fp = MonteFingerprint{
			N: sh.n, Shards: shards, Balls: st.m, Seed: spec.Seed,
			TotalCapacity: st.totalCap, CapHash: capHash(sh.arr),
			Checkpoints: st.cuts, HeightLevels: spec.HeightLevels,
			CollectLoadVector: spec.CollectLoadVector, ShardStats: spec.ShardStats,
		}
	}
	st.resume = spec.Resume
	cerr, err := st.run(st, engRunLargeMC, monteKinds)
	if err != nil {
		return nil, err
	}
	if spec.AdoptArray {
		// Placement writes through the shard views: the adopted array
		// leaves with an exact cached ball total, also when cancelled.
		st.arr.Recount()
	}
	res := st.col.result(&Result{N: sh.n, Shards: shards})
	res.ShardStats = st.ss
	if cerr != nil {
		// The aggregates cover exactly repetitions [0, done) —
		// bit-identical to a run configured with Reps = done — and the
		// checkpoint resumes from there.
		cerr.Checkpoint = captureMonteCheckpoint(st.fp, st.done, st)
		if st.done == 0 {
			// Repetition 0 was the one cancelled: its cut prefix is
			// the single game's partial.
			cerr.CompletedCuts, res.Checkpoints = st.cutPrefix()
		}
		return res, cerr
	}
	return res, nil
}
