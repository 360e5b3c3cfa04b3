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
//	route blocks ∥ reset shards → place and summarise shards → merge → fold
//
// Every O(n) pass — reset, placement, the shard-local max scan or
// histogram — is a per-shard pool task. The shard summaries are the
// step driver's, shared with the stream and cluster engines: each
// placement task places its shard segmented at the ball-count cuts
// (stepper.place) and takes its max at each cut and at the end, and
// its histogram when one is asked for (stepper.summarise), into the
// driver's rows. The merge of the shard histograms in shard order and
// the fold, which takes the top of the final maxima, are inline tasks
// on the calling goroutine. The fold is the repetition's commit: once
// it has run the repetition counts, even if the context fired
// meanwhile. The first repetition played skips the reset (the setup
// phase reset every shard). The run's state is 32 B per bin for any
// Workers, never O(Reps · n): the array's bins (16 B), the selection
// weights (8 B) and the shards' alias columns (8 B), plus the running
// summary. Nothing transient is added: an alias build works in a
// 1-bit-per-bin mask. So n = 10^7 with hundreds of repetitions fits in
// RAM.
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
	"slices"

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
	m   int64   // balls per repetition
	avg float64 // m/C, identical in every repetition

	// Observation scratch over the nCuts reached ball-count cuts,
	// allocated once and reused across repetitions (nil when not
	// requested); the shard maxima and histograms are the driver's.
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
// collectors. The setup phase resets the array and builds the
// histograms.
func newMonteState(spec *RunSpec, sh sharded) (*monteState, error) {
	st := &monteState{m: spec.BallCount(sh.arr.TotalCapacity())}
	if err := st.init(engRunLargeMC, spec, sh, spec.Reps, st.m, false); err != nil {
		return nil, err
	}
	st.kk, st.placeAt = uint64(sh.shards+1), 1
	st.avg = float64(st.m) / float64(st.totalCap)
	if st.nCuts > 0 {
		st.cutBalls = make([]int64, st.nCuts)
		if st.cc != nil {
			st.cutsDone = make([]int, sh.shards)
		}
	}
	if spec.ShardStats {
		st.ss = obs.NewShardStats(sh.shards)
	}
	return st, nil
}

// prepare restores a resumed run's prefix once the setup phase has
// passed.
func (st *monteState) prepare() error {
	if st.resume != nil {
		if err := st.resume.restore(st.fp, st); err != nil {
			return err
		}
		st.start = st.resume.CompletedReps
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
		st.placers[s].newRep()
		done := st.place(s, st.counts[s])
		if st.cutsDone != nil {
			st.cutsDone[s] = done
		}
		// The shard's final max, and its histogram when armed, while
		// other shards still place. A zero-count shard's segments place
		// nothing and draw nothing; its summary is its reset view's.
		return st.summarise(s, true)
	case monteSummary:
		if fault.Enabled {
			fault.Hit(fault.Site{Engine: engRunLargeMC, Op: fault.OpSummary, Rep: st.step, Shard: -1, Block: -1})
		}
		return st.mergeHists()
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
// state (the top of the shards' final maxima; the merged histogram
// feeds the load vector and the height counts), its cut rows and its
// shard rows.
func (st *monteState) fold() error {
	fin := st.finalRow()
	if err := st.col.observe(st.cutTop(fin), st.avg, st.m, st.totalCap, st.histAll); err != nil {
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
		for s, m := range st.maxRow(fin) {
			if err := st.ss.Observe(s, st.counts[s], m.v); err != nil {
				return err
			}
		}
	}
	return nil
}

// runStep plays repetition rep. The routing phase overlaps the routing
// blocks with the per-shard resets: routing touches only the splitting
// tree and the groups' own buffers, resets touch only view bins. The
// placement phase places and summarises every shard with a view in
// parallel; the summary then merges the shard histograms and the fold
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
	clear(st.cutMax)
	for s := range st.views {
		if st.views[s] == nil {
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
		// leaves with an exact cached ball total, the sum of the views'
		// (a shard without a view holds no ball), also when cancelled.
		st.arr.RecountViews(st.views)
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
