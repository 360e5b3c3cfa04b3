// Shared execution skeleton: the one phase runner — task list, barrier,
// helper goroutines and per-task panic containment — every engine
// schedules its work through, the chunk driver behind the classic and
// closed-form engines, and the prologue, generators and step driver of
// the sharded engines (Monte-Carlo repetitions, streaming rounds,
// cluster ticks).
//
// # Phases
//
// A phase is one barrier over the tasks an actor submits: the chunk
// driver and the step driver each drive one. Submitting appends (kind,
// index) to the phase's task list, sized once at start for the widest
// phase; the barrier wakes at most workers−1 helper goroutines — one
// channel token each, once per phase — and the calling goroutine
// works too, as worker 0. Each helper has a fixed worker slot (1, 2, …)
// that the phase passes to every task it runs, so a task may use
// per-worker scratch: the chunk driver's array and placer, the stream
// engine's deletion forest. Such scratch is sized by the slots the
// phase starts (phase.workers), never by the requested Workers.
// Dispatching work therefore allocates nothing and sends nothing per
// task, and a one-worker phase starts no goroutine and no channel.
//
// Workers claim slots from the two ends of the list, through one
// atomic word that packs a front and a back cursor: worker 0 claims
// upward from slot 0, the helpers downward from the last slot, and the
// phase's work is handed out when the cursors meet. The step driver
// submits shard s's task at the same slot on every step (slot s, or
// after the routing groups when the phase overlaps routing), so at two
// workers a shard's task runs on the same core from step to step and
// finds the shard's state (queue arena, view, alias table) in that
// core's cache, instead of wherever one shared counter last handed it
// out. The helpers block on the wake channel between phases and never
// spin: a spin-then-park helper made cluster ticks faster but the
// Monte and stream engines slower at two workers.
//
// Every task runs behind a recover that converts a panic into a
// *PanicError carrying {engine, task name, rep, index}: the worker
// survives and the barrier is always reached. A task that runs several
// named sub-steps (the cluster engine's shard task) is named by the
// sub-step it failed in (subStepper). Orchestrator-side steps
// (deletion routing, churn, re-shard, admission, the Monte summary
// and fold) run as inline tasks on the calling goroutine behind the
// same recover, with index −1. A phase may mix task kinds (Monte
// overlaps routing with resets); slots number the tasks in submission
// order, and the barrier reports the failure of the LOWEST failing
// slot, so which error a multi-failure phase surfaces never depends on
// timing.
//
// Tasks touch only the state their (kind, index) names — a shard, a
// routing group, a chunk's partial — plus the running worker's
// scratch, which a chunk resets per repetition and a stream deletion
// task refills and re-seeds per shard, so any assignment of tasks to
// workers produces identical bits. Workers only decides
// how many tasks run at once. Per-shard state that tasks write sits on
// cache lines of its own (padded types with compile-time size guards),
// so neighbouring shards' tasks never false-share a line.
//
// # Chunk driver
//
// The classic and closed-form engines run two phases: one setup task
// per worker slot builds that slot's array and placer or router, then
// one task per chunk of chunkSize repetitions plays them in order
// (runRep) on the claiming worker's state and folds them into the
// chunk's own collector set. Sets merge in chunk order (reduce), so
// the result is bit-identical for any Workers, and a failing run
// reports its lowest failing chunk, whatever the topology.
//
// # Step driver
//
// Every sharded engine plays a sequence of steps over one sharded
// array: a Monte-Carlo step is one repetition, a streaming step one
// round, a cluster step one tick. stepper is the loop they share: the
// setup phase, the step loop from its start
// step (a resumed run's restored prefix) with its step-boundary
// CancelAfter stop and cancellation check, per-step re-seeding of the
// shard placement streams, arrival routing up to the merged per-shard
// counts and ball-count cut prefixes, placement segmented at those
// prefixes (empty for stream and cluster), the step-indexed
// observation cut, the *CancelledError of an early stop, and the
// *Result of a single trajectory. An engine supplies only its step
// body (runStep) and its task bodies (exec); runStep commits the step
// last — Monte's fold, the trajectory engines' counters straight into
// the StreamResult or ClusterResult they return a copy of — so an
// abandoned step leaves the committed prefix untouched.
//
// The driver owns the per-shard summaries every final state derives
// from: the shard maxima, a padded matrix with a row per ball-count cut
// (Monte) and a final row that a trajectory's step cuts share, and —
// for the load vector or height counts — shard histograms over one
// class skeleton, merged in shard order. A shard's summary is one pass
// over its own view (summarise), in Monte's placement task or a
// trajectory's observe and final phases (histograms in the final one
// only), so none scans the whole array on the calling goroutine.
//
// The setup phase holds every O(n) pass of a sharded run's prologue
// beyond the distribution's Weights call: one task per shard builds
// the shard's view, resets it, sums its weights (in bin order, so the
// router's weights keep their bits), records its capacity classes when
// histograms are asked for (the skeleton is their union) and builds
// its placer. The calling goroutine then does the O(shards) rest — the
// router, the histograms, the weight total, dropping the views of
// shards that can never receive a ball (their height-zero histograms
// built first, in one final-summary phase) — and the engine's prepare.
package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/bins"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/xrand"
)

// resolveWorkers maps a Workers field to a worker count (0 means
// GOMAXPROCS).
func resolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// executor is the engine state behind a phase: exec runs the task of
// the given kind on the shard, routing group, chunk or worker slot idx
// names. worker is the slot of the worker running it — 0 for the
// calling goroutine, a fixed slot per helper goroutine — so a task can
// use per-worker scratch.
type executor interface {
	exec(kind, idx, worker int) error
}

// task is one submitted unit of work: its kind and the index it names.
// Its slot — its position in the phase's submission order — is its
// index in the phase's list.
type task struct{ kind, idx int32 }

// taskName names one task kind: task is the PanicError task name, and
// a non-empty label wraps a failing task's error as
// "sim: <engine> <label> <index>: ..." (no index for inline tasks).
type taskName struct{ task, label string }

// phase is one barrier over the tasks an actor submits, and the helper
// goroutines that run them with it. Engines embed it in their state.
type phase struct {
	x      executor
	engine string
	names  []taskName // indexed by task kind
	// rep is the repetition, round or tick of the tasks in flight (panic
	// provenance); written only between barriers.
	rep int

	tasks []task // the batch in submission order, run by wait
	// claim packs the unclaimed slots [front, back) of tasks: front in
	// the low 32 bits, back in the high 32 (see claimSlot).
	claim atomic.Uint64
	wake  chan struct{}  // one token per woken helper; buffered for all helpers
	busy  sync.WaitGroup // the helpers woken for the batch in flight
	live  sync.WaitGroup // the helper goroutines

	mu    sync.Mutex
	err   error // failure of the lowest failing slot so far
	errAt int32
}

// start sizes the task list for the widest phase — width tasks — and
// starts min(workers, width)−1 helper goroutines: the calling
// goroutine is worker 0, so one worker starts no goroutine and no
// channel.
func (ph *phase) start(workers, width int) {
	ph.tasks = make([]task, 0, width)
	if helpers := min(workers, width) - 1; helpers > 0 {
		ph.wake = make(chan struct{}, helpers)
		ph.live.Add(helpers)
		for w := 1; w <= helpers; w++ {
			go ph.help(w)
		}
	}
}

// help is the helper goroutine of worker slot worker: once per token,
// it claims tasks of the batch in flight until none is left.
func (ph *phase) help(worker int) {
	defer ph.live.Done()
	for range ph.wake {
		ph.drain(worker)
		ph.busy.Done()
	}
}

// close stops the helpers and waits for them to exit. Every phase must
// have passed its barrier first.
func (ph *phase) close() {
	if ph.wake != nil {
		close(ph.wake)
		ph.live.Wait()
	}
}

// workers is the number of worker slots the phase runs tasks on: the
// caller's slot 0 plus one per helper started.
func (ph *phase) workers() int { return cap(ph.wake) + 1 }

// submit appends one task to the batch; wait runs it.
func (ph *phase) submit(kind, idx int) {
	ph.tasks = append(ph.tasks, task{kind: int32(kind), idx: int32(idx)})
}

// wait is the barrier: it wakes at most one helper per task beyond
// the first, claims tasks itself until none is left, waits for the
// helpers it woke, and returns the error of the lowest failing slot,
// leaving the phase ready for its next batch. The wake sends order
// every write the caller made before wait — the cursors' reset too —
// before any helper's task.
func (ph *phase) wait() error {
	ph.claim.Store(uint64(len(ph.tasks)) << 32)
	if n := min(cap(ph.wake), len(ph.tasks)-1); n > 0 {
		ph.busy.Add(n)
		for i := 0; i < n; i++ {
			ph.wake <- struct{}{}
		}
	}
	ph.drain(0)
	ph.busy.Wait()
	ph.tasks = ph.tasks[:0]
	err := ph.err
	ph.err = nil
	return err
}

// drain claims and runs tasks of the batch in flight on worker slot
// worker until none is left: worker 0 from the front, a helper from
// the back.
func (ph *phase) drain(worker int) {
	for {
		slot, ok := ph.claimSlot(worker != 0)
		if !ok {
			return
		}
		ph.runTask(ph.tasks[slot], slot, worker)
	}
}

// claimSlot claims the lowest unclaimed slot of the batch in flight,
// or with back the highest. Each claim is one atomic add on claim —
// front += 1 or back −= 1 — and wins its slot iff the cursors had not
// met before it (front < back). A losing add leaves them crossed, so
// every later claim of the batch loses too, and the winners hold each
// slot exactly once. A worker makes one losing add per batch, so front
// stays far below 2^32; back may drop below 0, which borrows only
// within the high word (it reads as a negative int32).
func (ph *phase) claimSlot(back bool) (slot int32, ok bool) {
	if !back {
		c := ph.claim.Add(1)
		slot = int32(uint32(c)) - 1
		return slot, slot < int32(c>>32)
	}
	c := ph.claim.Add(^uint64(1<<32 - 1)) // −2^32 mod 2^64
	slot = int32(c >> 32)
	return slot, int32(uint32(c)) <= slot
}

// run submits the tasks (kind, 0) … (kind, count−1) and waits for them.
func (ph *phase) run(kind, count int) error {
	for i := 0; i < count; i++ {
		ph.submit(kind, i)
	}
	return ph.wait()
}

// inline runs one task of the given kind on the calling goroutine —
// an orchestrator-side step — behind the same containment as pool
// tasks, with index −1.
func (ph *phase) inline(kind int) error {
	ph.runTask(task{kind: int32(kind), idx: -1}, 0, 0)
	return ph.wait()
}

// subStepper is an executor whose tasks run several named sub-steps in
// turn (the cluster engine's one shard task per tick): subStep maps a
// failing task's kind to the kind of the sub-step it was in, so the
// failure carries that sub-step's name and label.
type subStepper interface {
	subStep(kind, idx int) int
}

// runTask executes the task in slot on worker slot worker behind the
// phase's panic containment.
func (ph *phase) runTask(t task, slot int32, worker int) {
	defer func() {
		if r := recover(); r != nil {
			t := ph.named(t)
			ph.fail(t, slot, newPanicError(ph.engine, ph.names[t.kind].task, ph.rep, int(t.idx), r))
		}
	}()
	if err := ph.x.exec(int(t.kind), int(t.idx), worker); err != nil {
		ph.fail(ph.named(t), slot, err)
	}
}

// named resolves a failed task's kind to its sub-step's when the
// executor runs sub-steps; only failures pay for the check.
func (ph *phase) named(t task) task {
	if sx, ok := ph.x.(subStepper); ok {
		t.kind = int32(sx.subStep(int(t.kind), int(t.idx)))
	}
	return t
}

// fail records a task's error unless a lower slot already failed.
func (ph *phase) fail(t task, slot int32, err error) {
	switch label := ph.names[t.kind].label; {
	case label == "":
	case t.idx < 0:
		err = fmt.Errorf("sim: %s %s: %w", ph.engine, label, err)
	default:
		err = fmt.Errorf("sim: %s %s %d: %w", ph.engine, label, t.idx, err)
	}
	ph.mu.Lock()
	if ph.err == nil || slot < ph.errAt {
		ph.err, ph.errAt = err, slot
	}
	ph.mu.Unlock()
}

// The chunk driver's task kinds: a setup builds one worker slot's
// fixed state, a chunk plays chunkSize repetitions.
const (
	chunkSetup = iota
	chunkReps
)

var chunkNames = []taskName{{task: "setup"}, {task: "chunk"}}

// chunkRun is the chunk driver's run state (see the file comment).
type chunkRun struct {
	cfg         Config // the driver's own copy, so the spec never escapes to the heap
	cc          *canceller
	checkpoints []int64
	workers     []repWorker  // by worker slot
	partials    []collectors // by chunk
	ph          phase
}

// repWorker is one worker slot's reusable state: the array and its
// placer (classic) or multinomial router (closed form) — built once
// and reset between repetitions, or under ArrayFn rebuilt by every
// repetition — plus scratch buffers.
type repWorker struct {
	arr    *bins.Array
	placer boundPlacer
	router *sampling.Multinomial
	hist   *bins.LoadHistogram // reusable one-pass load histogram
	counts []int64             // closed form: one multinomial increment vector
}

// runChunked validates the spec for a chunked engine (classic or
// closed-form) and runs its Config through the chunk driver.
//
// When the Context fires mid-run it returns a partial *Result together
// with a *CancelledError: the partial covers a contiguous repetition
// prefix and is bit-identical to a run configured with that many Reps.
func runChunked(e Engine, spec *RunSpec) (*Result, error) {
	if _, err := spec.validate(e); err != nil {
		return nil, err
	}
	eng := engRun
	if e == EngineClosedForm {
		eng = engRunClosed
	}
	r := &chunkRun{cfg: spec.Config, cc: newCanceller(spec.Context)}
	cfg := &r.cfg
	r.checkpoints, _ = obs.NormalizeCuts(cfg.Checkpoints) // validated above
	nChunks := (cfg.Reps + chunkSize - 1) / chunkSize
	workers := min(resolveWorkers(cfg.Workers), nChunks)
	r.workers, r.partials = make([]repWorker, workers), make([]collectors, nChunks)
	for i := range r.partials {
		var err error
		if r.partials[i], err = newCollectors(cfg, r.checkpoints); err != nil {
			return nil, err
		}
	}
	r.ph = phase{x: r, engine: eng, names: chunkNames, rep: -1}
	r.ph.start(workers, nChunks)
	err := r.ph.run(chunkSetup, workers)
	if err == nil {
		err = r.ph.run(chunkReps, nChunks)
	}
	r.ph.close()
	if perr, ok := err.(*PanicError); ok && perr.Task == "chunk" {
		// The repetition in flight: the chunk's completed ones precede it.
		perr.Rep = perr.Index*chunkSize + r.partials[perr.Index].reps()
	}
	if err != nil {
		return nil, err
	}
	res, completed, err := reduce(cfg, r.partials)
	if err != nil {
		return nil, err
	}
	if completed < cfg.Reps {
		return res, &CancelledError{Engine: eng, CompletedReps: completed, CompletedCuts: -1, CompletedRounds: -1, CompletedTicks: -1, Cause: r.cc.err()}
	}
	return res, nil
}

// exec runs a setup task (idx is the worker slot it builds) or a chunk
// task (idx is the chunk) on worker slot worker. A repetition error or
// contained panic ends its chunk, and cancellation skips the chunk's
// remaining repetitions, so an abandoned chunk holds exactly its
// leading repetitions.
func (r *chunkRun) exec(kind, idx, worker int) error {
	if kind == chunkSetup {
		return r.setup(&r.workers[idx])
	}
	// One repetition bounds the chunk engines' cancellation latency.
	for rep := idx * chunkSize; rep < min((idx+1)*chunkSize, r.cfg.Reps) && !r.cc.cancelled(); rep++ {
		// The closed engine shares the chunk topology, so its fault site
		// reuses OpChunk with its own engine name.
		if fault.Enabled {
			fault.Hit(fault.Site{Engine: r.ph.engine, Op: fault.OpChunk, Rep: rep, Shard: -1, Block: -1})
		}
		if err := r.runRep(uint64(rep), &r.workers[worker], &r.partials[idx]); err != nil {
			return err
		}
	}
	return nil
}

// setup builds a worker slot's fixed array and its placer or router;
// ArrayFn runs build theirs per repetition.
func (r *chunkRun) setup(w *repWorker) error {
	if r.cfg.ArrayFn != nil {
		return nil
	}
	w.arr = r.cfg.Array.Clone()
	w.arr.Reset()
	weights, err := r.cfg.distribution().Weights(w.arr)
	if err != nil {
		return err
	}
	return r.build(w, weights)
}

// build builds the worker's kernel over its array's weights: the
// protocol's placer (classic) or the multinomial router (closed form).
func (r *chunkRun) build(w *repWorker, weights []float64) (err error) {
	if r.ph.engine == engRunClosed {
		w.router, err = sampling.NewMultinomial(weights)
	} else {
		w.placer, err = newPlacer(r.cfg.factory(), w.arr, weights)
	}
	return err
}

// boundPlacer is a placer with its Reset, if it has one, resolved once
// when the placer is built. A stateful placer (the batched protocol's
// round snapshot) must forget the previous repetition; resolving the
// method up front spares every repetition a type assertion.
type boundPlacer struct {
	protocol.Placer
	reset interface{ Reset() } // nil for a placer without state across balls
}

// newPlacer builds factory's placer over a and weights and resolves
// its Reset.
func newPlacer(factory protocol.Factory, a *bins.Array, weights []float64) (boundPlacer, error) {
	p, err := factory(a, weights)
	b := boundPlacer{Placer: p}
	b.reset, _ = p.(interface{ Reset() })
	return b, err
}

// newRep makes a stateful placer forget the previous repetition.
func (b *boundPlacer) newRep() {
	if b.reset != nil {
		b.reset.Reset()
	}
}

// resolveShards validates a Shards field against n bins: 0 means
// DefaultShards clamped to n, anything else must lie in [1, n].
func resolveShards(shards, n int) (int, error) {
	if shards == 0 {
		return min(DefaultShards, n), nil
	}
	if shards < 1 || shards > n {
		return 0, fmt.Errorf("sim: Shards = %d outside [1,%d]", shards, n)
	}
	return shards, nil
}

// sharded is the prologue every sharded engine opens with: its own
// array, the selection weights and protocol factory with their
// defaults applied, the shard plan, and the resolved worker count.
// The array is reset, shardW summed and router built by the step
// driver's setup (stepper.setup), not here: those are O(n) passes the
// per-shard setup tasks share out.
type sharded struct {
	arr     *bins.Array
	n       int
	shards  int
	weights []float64
	factory protocol.Factory
	bounds  []int
	shardW  []float64
	router  *sampling.Multinomial
	workers int
}

// newSharded builds the prologue from a validated spec. The array is
// cloned unless AdoptArray is set; weights, when non-nil, replace the
// distribution's (the cluster engine routes on ring arcs). Weights
// read only capacities, so the array's balls need no reset first.
func newSharded(eng string, spec *RunSpec, shards int, weights []float64) (sharded, error) {
	arr := spec.Array
	if !spec.AdoptArray {
		arr = spec.Array.Clone()
	}
	if weights == nil {
		var err error
		if weights, err = spec.distribution().Weights(arr); err != nil {
			return sharded{}, fmt.Errorf("sim: %s weights: %w", eng, err)
		}
	}
	return sharded{
		arr: arr, n: arr.N(), shards: shards, weights: weights, factory: spec.factory(),
		bounds: shardBounds(arr.N(), shards), shardW: make([]float64, shards),
		workers: resolveWorkers(spec.Workers),
	}, nil
}

// routeWidth is the routing-group count of an m-ball routing pass: one
// group per worker, capped at the pass's routing blocks, at least one.
// The grouping never affects the merged counts — integer sums are
// exact.
func (sh *sharded) routeWidth(m int64) int {
	return max(min(sh.workers, numRouteBlocks(m)), 1)
}

// shardRand is one shard's placement generator, padded so that no two
// shards' generators share a cache line: the placement tasks of
// neighbouring shards advance theirs on every draw, concurrently.
type shardRand struct {
	xrand.Rand
	_ [96]byte
}

// cutMax is one shard's max load at a cut, padded to a cache line: the
// placement or observe tasks of neighbouring shards write theirs
// concurrently.
type cutMax struct {
	v float64
	_ [56]byte
}

// Compile-time guards: shardRand is two whole cache lines and cutMax
// one (re-size the pads when fields change; any other size makes a
// constant negative or non-zero, which does not compile).
const (
	_ uintptr = 0 - (unsafe.Sizeof(shardRand{}) ^ 128)
	_ uintptr = 0 - (unsafe.Sizeof(cutMax{}) ^ 64)
)

// stepEngine is a sharded engine as the step driver sees it: its task
// bodies (exec), the rest of its state built once the setup phase has
// passed (prepare), and its step body. runStep plays and commits the
// step in flight; ok == false means it was abandoned at a cancellation
// point, with nothing of it committed.
type stepEngine interface {
	executor
	prepare() error
	runStep(t int) (ok bool, err error)
}

// The step driver's own task kinds. An engine numbers its kinds from
// stepKinds on, and its name table extends stepNames.
const (
	stepRoute = iota
	stepObserve
	stepFinal
	stepSetup
	stepKinds
)

var stepNames = []taskName{{"route", "routing group"}, {"observe", "observe shard"}, {"final", "final shard"}, {"setup", "setup shard"}}

// stepper is the step driver and the working set the sharded engines
// share, allocated once before the first step.
type stepper struct {
	sharded
	cc   *canceller
	seed uint64
	// Step t consumes the kk RNG streams from first + t·kk on; routeAt
	// and placeAt are the offsets of its arrival-routing stream and of
	// shard 0's placement stream (shard s: placeAt + s) within them.
	first, kk, routeAt, placeAt uint64

	cancelAfter int // the spec's CancelAfter, in steps
	start       int // the first step played: a resumed run's restored prefix
	steps       int // steps in the run
	done        int // completed steps: the committed prefix
	totalCap    int64
	sumW        float64 // Σ shardW
	all         bool    // every shard keeps its view, weight or none

	// views are built by the setup phase; after it, nil for a shard
	// that can never receive a ball (unless all is set).
	views   []*bins.Array
	placers []boundPlacer
	rands   []shardRand // per-shard placement streams, re-seeded every step

	// Shard histograms, armed by the load vector or height counts:
	// classes[s] are shard s's capacity classes (its setup task's),
	// hists[s] its histogram over their union, histAll their merge.
	classes [][]int64
	hists   []*bins.LoadHistogram
	histAll *bins.LoadHistogram

	groups []routeGroup
	counts []int64 // the step's merged per-shard arrival counts

	// cuts are the normalized cuts: step indices, or for the Monte
	// engine ball counts within one step. nCuts of them are reachable —
	// within the run, or within one step's m balls, whose routing then
	// takes the per-shard prefix[k] of cut k (cutBlocks/cutRems is
	// their cutPlan; all three nil for step-indexed cuts).
	cuts               []int64
	nCuts              int
	cutBlocks, cutRems []int64
	prefix             [][]int64
	nextCut            int
	// cutMax holds the shard maxima, row k at [k·shards, (k+1)·shards)
	// (maxRow): a row per reachable ball-count cut, then the final row
	// (finalRow), which a trajectory's step cuts share.
	cutMax []cutMax

	// col is the run's collector set: Monte's repetition folds, a
	// trajectory's cut rows and final state.
	col collectors

	ph phase

	// Step-scoped fields, written by the orchestrator strictly between
	// phase barriers (a phase's wake sends order the writes before any
	// helper reads).
	step   int
	base   uint64 // the step's first stream: first + step·kk
	rrbase uint64 // Mix64(seed, base+routeAt): arrival routing base
	curM   int64  // arrivals being routed
	rgr    int    // routing groups active
}

// init builds the driver over a validated spec and its sharded
// prologue: routing groups for up to maxM arrivals per step and the
// cuts. The setup phase builds a view per shard; after it, only shards
// of positive weight keep theirs — every shard when all is set.
func (d *stepper) init(eng string, spec *RunSpec, sh sharded, steps int, maxM int64, all bool) error {
	d.sharded = sh
	d.cc = newCanceller(spec.Context)
	d.seed = spec.Seed
	d.cancelAfter = spec.CancelAfter
	d.steps = steps
	d.all = all
	d.totalCap = sh.arr.TotalCapacity()
	d.views = make([]*bins.Array, sh.shards)
	d.placers = make([]boundPlacer, sh.shards)
	d.rands = make([]shardRand, sh.shards)
	d.counts = make([]int64, sh.shards)
	d.cuts, _ = obs.NormalizeCuts(spec.Checkpoints) // validated by the caller
	var err error
	if d.col, err = newCollectors(&spec.Config, d.cuts); err != nil {
		return err
	}
	if eng == engRunLargeMC {
		d.nCuts = obs.CountReached(d.cuts, maxM)
		if d.nCuts > 0 {
			d.cutBlocks, d.cutRems = cutPlan(d.cuts[:d.nCuts])
			flat := make([]int64, d.nCuts*sh.shards)
			d.prefix = make([][]int64, d.nCuts)
			for k := range d.prefix {
				d.prefix[k] = flat[k*sh.shards : (k+1)*sh.shards]
			}
		}
	} else {
		d.nCuts = obs.CountReached(d.cuts, int64(steps))
	}
	d.cutMax = make([]cutMax, (len(d.prefix)+1)*sh.shards)
	if spec.CollectLoadVector || spec.HeightLevels > 0 {
		d.classes = make([][]int64, sh.shards)
	}
	d.groups = newRouteGroups(sh.routeWidth(maxM), sh.shards, len(d.prefix))
	return nil
}

// run drives x: the setup phase and x's prepare (setup), then
// steps start … steps−1, each opened by the CancelAfter stop and a
// cancellation check, its stream base and provenance, and a re-seed
// of EVERY shard's placement stream — whether or not the shard
// receives balls — so a shard's draws depend only on (seed, step,
// shard), never on the steps before. A non-nil *CancelledError means
// the run stopped early (context or CancelAfter): the engine's
// committed prefix is then its partial.
func (d *stepper) run(x stepEngine, eng string, kinds []taskName) (*CancelledError, error) {
	d.ph = phase{x: x, engine: eng, names: kinds}
	// The widest phase is a routing pass with one task per shard
	// alongside (Monte's resets).
	d.ph.start(d.workers, len(d.groups)+d.shards)
	defer d.ph.close()
	ok, err := d.setup(x)
	d.done = d.start
	for t := d.start; ok && t < d.steps; t++ {
		if d.cancelAfter > 0 && t >= d.cancelAfter {
			return d.cancelled(nil), nil
		}
		if d.cc.cancelled() {
			break
		}
		d.step, d.ph.rep = t, t
		d.base = d.first + uint64(t)*d.kk
		for s := range d.rands {
			d.rands[s].Seed(xrand.Mix64(d.seed, d.base+d.placeAt+uint64(s)))
		}
		if ok, err = x.runStep(t); ok {
			d.done = t + 1
		}
	}
	if err != nil {
		return nil, err
	}
	if d.done < d.steps {
		return d.cancelled(d.cc.err()), nil
	}
	if d.ph.engine != engRunLargeMC {
		// A completed trajectory's final state (final): the shard maxima,
		// and the shard histograms when armed, in one phase while the
		// helpers still run.
		return nil, d.ph.run(stepFinal, d.shards)
	}
	return nil, nil
}

// setup runs the setup phase — one task per shard builds the shard's
// view, resets it, sums the shard's weights into shardW, records its
// capacity classes when asked and builds its placer — and then, on the
// calling goroutine, the O(shards) rest of the prologue: the router
// over shardW, the shard histograms when armed (newHists), sumW, and
// the views dropped for shards that can never receive a ball; last
// x.prepare. A router error is reported before any setup task's: it
// describes the whole weight vector, a placer's error only one shard's
// slice of it.
func (d *stepper) setup(x stepEngine) (ok bool, err error) {
	for s := 0; s < d.shards; s++ {
		d.ph.submit(stepSetup, s)
	}
	serr := d.ph.wait()
	if d.router, err = sampling.NewMultinomial(d.shardW); err != nil {
		return false, fmt.Errorf("sim: %s router: %w", d.ph.engine, err)
	}
	if serr != nil {
		return false, serr
	}
	if d.classes != nil {
		if err := d.newHists(); err != nil {
			return false, err
		}
	}
	for s, w := range d.shardW {
		d.sumW += w
		if !d.all && w <= 0 {
			d.views[s] = nil
		}
	}
	if err := x.prepare(); err != nil {
		return false, err
	}
	return !d.cc.cancelled(), nil
}

// newHists builds the shard histograms over the union of the shards'
// classes, and in one phase those of the shards about to lose their
// views: never routed to, reset or placed on, such a shard stays empty,
// so one build at height zero stands for the whole run.
func (d *stepper) newHists() error {
	var classes []int64
	for _, c := range d.classes {
		classes = append(classes, c...)
	}
	slices.Sort(classes)
	proto, err := bins.NewLoadHistogram(slices.Compact(classes))
	if err != nil {
		return fmt.Errorf("sim: %s histogram: %w", d.ph.engine, err)
	}
	d.histAll = proto.CloneEmpty()
	d.hists = make([]*bins.LoadHistogram, d.shards)
	for s := range d.hists {
		d.hists[s] = proto.CloneEmpty()
		if !d.all && d.shardW[s] <= 0 {
			d.ph.submit(stepFinal, s)
		}
	}
	return d.ph.wait()
}

// prepare is the engines' default: nothing to add after the setup
// phase.
func (d *stepper) prepare() error { return nil }

// cancelled is the early stop's error: the committed prefix (done
// steps; for the step-indexed engines also nextCut cuts) and its cause
// — the context's error, or nil for the deterministic CancelAfter
// stop.
func (d *stepper) cancelled(cause error) *CancelledError {
	e := &CancelledError{Engine: d.ph.engine, CompletedReps: -1, CompletedCuts: d.nextCut, CompletedRounds: -1, CompletedTicks: -1, Cause: cause}
	switch d.ph.engine {
	case engRunStream:
		e.CompletedRounds = d.done
	case engRunCluster:
		e.CompletedTicks = d.done
	default:
		e.CompletedReps, e.CompletedCuts = d.done, -1
	}
	return e
}

// phase adds n tasks of kind to those the step already submitted,
// runs them on the pool and reports whether the step goes on: ok ==
// false on a task error (returned) or a fired context.
func (d *stepper) phase(kind, n int) (ok bool, err error) {
	for i := 0; i < n; i++ {
		d.ph.submit(kind, i)
	}
	if err := d.ph.wait(); err != nil {
		return false, err
	}
	return !d.cc.cancelled(), nil
}

// inline is phase for one orchestrator-side task (phase.inline).
func (d *stepper) inline(kind int) (ok bool, err error) {
	if err := d.ph.inline(kind); err != nil {
		return false, err
	}
	return !d.cc.cancelled(), nil
}

// route routes the step's m arrivals block-wise on its routing stream,
// fanned out over the routing groups in one phase with n tasks of kind
// (work that overlaps routing), and merges the groups into counts and
// the cut prefixes (exact integer sums, so the grouping never shows).
func (d *stepper) route(m int64, kind, n int) (ok bool, err error) {
	d.curM = m
	d.rrbase = xrand.Mix64(d.seed, d.base+d.routeAt)
	d.rgr = min(len(d.groups), numRouteBlocks(m))
	for g := 0; g < d.rgr; g++ {
		d.ph.submit(stepRoute, g)
	}
	if ok, err := d.phase(kind, n); !ok {
		return false, err
	}
	mergeRouteGroups(d.groups[:d.rgr], d.counts, d.prefix)
	return true, nil
}

// place places n balls on shard s from its placement stream,
// segmented at Monte's cut prefixes (none for stream and cluster) with
// the shard's max taken at each. Segmenting never moves a draw —
// PlaceBatch(a)+PlaceBatch(b) draws exactly as PlaceBatch(a+b) — so
// checkpoints leave the final state bit-identical. It returns the cuts
// fully placed: fewer than all only when cancelled.
func (d *stepper) place(s int, n int64) (cutsDone int) {
	var placed int64
	for k, pre := range d.prefix {
		if !d.segment(s, pre[s]-placed) {
			return k
		}
		if placed = pre[s]; placed > 0 {
			d.maxRow(k)[s].v = d.views[s].MaxLoad()
		}
	}
	d.segment(s, n-placed)
	return len(d.prefix)
}

// segment places n balls on shard s: one PlaceBatch, or with
// cancellation or fault injection armed RoutingBlock-sized strides
// that poll the flag in between (the same draws, by the additivity
// above). It returns false when cancelled before finishing.
func (d *stepper) segment(s int, n int64) bool {
	if n <= 0 {
		return true
	}
	placer, view, rs := d.placers[s], d.views[s], &d.rands[s].Rand
	if d.cc == nil && !fault.Enabled {
		placer.PlaceBatch(view, rs, n)
		return true
	}
	for block := 0; n > 0; block++ {
		if d.cc.cancelled() {
			return false
		}
		if fault.Enabled {
			fault.Hit(fault.Site{Engine: d.ph.engine, Op: fault.OpPlace, Rep: d.step, Shard: s, Block: block})
		}
		k := min(n, RoutingBlock)
		placer.PlaceBatch(view, rs, k)
		n -= k
	}
	return true
}

// observe takes the step cut that falls at the end of the step in
// flight, if any: the shard maxima in parallel, then one trajectory
// row holding balls resident balls. Engines call it just before their
// commit, so a cancellation inside it abandons the whole step and the
// trajectory stays exactly the committed prefix's.
func (d *stepper) observe(balls int64) (ok bool, err error) {
	if d.nextCut == d.nCuts || d.cuts[d.nextCut] != int64(d.step)+1 {
		return true, nil
	}
	if ok, err := d.phase(stepObserve, d.shards); !ok {
		return false, err
	}
	d.col.cp.Observe(d.nextCut, balls, d.totalCap, d.cutTop(d.finalRow()))
	d.nextCut++
	return true, nil
}

// maxRow is row k of the shard maxima.
func (d *stepper) maxRow(k int) []cutMax { return d.cutMax[k*d.shards : (k+1)*d.shards] }

// finalRow is the row of the shards' final maxima: the one after
// Monte's ball-count cut rows, and a trajectory's only row.
func (d *stepper) finalRow() int { return len(d.prefix) }

// cutTop is the whole-array max load at cut row k: the max of the
// shards' maxima — a pure max, order-independent for finite floats,
// so any schedule that filled the row gives the same value. Division
// is correctly rounded, hence monotone, so it is the whole-array
// max's bits.
func (d *stepper) cutTop(k int) float64 {
	top := 0.0
	for _, m := range d.maxRow(k) {
		top = max(top, m.v)
	}
	return top
}

// summarise takes shard s's summary: its max load into the final row
// and, when hist is set and histograms are armed, its load histogram,
// from which the max then derives (the same bits as the scan). A shard
// without a view holds no ball: its max is 0 and its histogram the
// height-zero one newHists built.
func (d *stepper) summarise(s int, hist bool) error {
	m, v := &d.maxRow(d.finalRow())[s], d.views[s]
	switch {
	case v == nil:
		m.v = 0
	case hist && d.hists != nil:
		h := d.hists[s]
		if err := v.HistogramInto(h); err != nil {
			return fmt.Errorf("sim: %s shard %d histogram: %w", d.ph.engine, s, err)
		}
		m.v = h.MaxLoad()
	default:
		m.v = v.MaxLoad()
	}
	return nil
}

// mergeHists merges the shard histograms, if any, into histAll in
// shard order: exact integer addition, so the result is identical to
// one whole-array pass.
func (d *stepper) mergeHists() error {
	if d.histAll == nil {
		return nil
	}
	d.histAll.Reset()
	for s, h := range d.hists {
		if err := d.histAll.Merge(h); err != nil {
			return fmt.Errorf("sim: %s merge shard %d: %w", d.ph.engine, s, err)
		}
	}
	return nil
}

// stepExec runs the driver's own task kinds; engines' exec methods
// delegate every kind below stepKinds here.
func (d *stepper) stepExec(kind, idx int) (err error) {
	switch kind {
	case stepRoute:
		g := &d.groups[idx]
		g.reset()
		g.route(d.cc, d.ph.engine, d.step, d.rrbase, d.router, d.curM, idx, d.rgr, d.cutBlocks, d.cutRems)
	case stepObserve, stepFinal:
		// Only a final summary builds histograms: a trajectory's step
		// cuts need the maxima alone.
		return d.summarise(idx, kind == stepFinal)
	case stepSetup:
		// The shard's share of the prologue, once per run: O(shard
		// size) each, so no whole-array pass runs on the calling
		// goroutine. Shard reads only the shard's own bins, which no
		// other task touches. The sum runs in bin order, the order the
		// router's weights always had. Only a shard of positive weight
		// gets a placer: an all-zero weight slice has no alias table.
		lo, hi := d.bounds[idx], d.bounds[idx+1]
		var v *bins.Array
		if v, err = d.arr.Shard(lo, hi); err != nil {
			return err
		}
		v.Reset()
		d.views[idx] = v
		w := d.weights[lo:hi]
		var sum float64
		for _, x := range w {
			sum += x
		}
		d.shardW[idx] = sum
		if d.classes != nil {
			d.classes[idx] = v.CapacityClasses()
		}
		if sum > 0 {
			d.placers[idx], err = newPlacer(d.factory, v, w)
		}
	}
	return err
}

// result is a single-trajectory run's *Result: the trajectory rows
// always, and for a completed run the final state — one observation of
// each whole-array statistic with balls resident. A cancelled partial
// has no final state: its accumulators stay empty and it has no height
// rows.
func (d *stepper) result(balls int64, completed bool) (*Result, error) {
	c := &d.col
	if !completed {
		c.hl = nil
	} else if err := d.final(balls); err != nil {
		return nil, fmt.Errorf("sim: %s final state: %w", d.ph.engine, err)
	}
	return c.result(&Result{N: d.n, Shards: d.shards}), nil
}

// final folds the completed trajectory's final state without reading
// a bin: the max load is the top of the shard maxima that run's final
// phase left in the final row (the same bits as a whole-array
// scan, by cutTop's argument), the array's ball total is the sum of
// the views' totals, and the height rows come from the shard
// histograms that phase built, merged in shard order.
func (d *stepper) final(balls int64) error {
	d.arr.RecountViews(d.views)
	if err := d.mergeHists(); err != nil {
		return err
	}
	return d.col.observe(d.cutTop(d.finalRow()), d.arr.AverageLoad(), balls, d.totalCap, d.histAll)
}
