// Shared execution skeleton: the one worker pool, phase barrier and
// per-task panic containment every engine schedules its work through,
// the chunk driver behind Run and RunClosed, and the prologue and final
// fold the sharded engines share.
//
// # Pool and phases
//
// A pool is a bounded set of worker goroutines draining one channel of
// tasks passed by VALUE — (phase, kind, index, slot) — so dispatching
// work allocates nothing. A phase is one barrier over the tasks an
// actor submits to a pool: the chunk driver, the streaming and the
// cluster engine each drive one phase; in RunLargeMonte every
// repetition orchestrator drives its own phase on the shared pool.
// Every task runs behind a recover that converts a panic into a
// *PanicError carrying {engine, task name, rep, index}: the worker
// survives and the barrier is always reached. A phase may mix task
// kinds (Monte overlaps routing with resets); slots number the tasks in
// submission order, and the barrier reports the failure of the LOWEST
// failing slot, so which error a multi-failure phase surfaces never
// depends on timing.
//
// Tasks touch only the state their (kind, index) names — a shard, a
// routing group, a worker's chunks — so any assignment of tasks to
// workers produces identical bits. Workers only decides how many tasks
// run at once.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bins"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sampling"
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
// the given kind on the shard, routing group or worker idx names.
type executor interface {
	exec(kind, idx int) error
}

// task is one unit of pool work: the phase it belongs to, its kind and
// index, and its slot — its position in the phase's submission order.
type task struct {
	ph              *phase
	kind, idx, slot int32
}

// pool is a bounded set of workers draining tasks. Engines embed it in
// their state, so starting one allocates only the channel and the
// worker goroutines.
type pool struct {
	tasks chan task
	wg    sync.WaitGroup
}

// start launches workers goroutines.
func (p *pool) start(workers int) {
	p.tasks = make(chan task)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.work()
	}
}

func (p *pool) work() {
	defer p.wg.Done()
	for t := range p.tasks {
		t.ph.runTask(t)
	}
}

// close stops the workers and waits for them to exit. Every phase must
// have passed its barrier first.
func (p *pool) close() {
	close(p.tasks)
	p.wg.Wait()
}

// taskName names one task kind: task is the PanicError task name, and
// a non-empty label wraps a failing task's error as
// "sim: <engine> <label> <index>: ...".
type taskName struct{ task, label string }

// phase is one barrier over the tasks an actor submits to a pool.
type phase struct {
	pool   *pool
	x      executor
	engine string
	names  []taskName // indexed by task kind
	// rep is the repetition, round or tick of the tasks in flight (panic
	// provenance); written only between barriers.
	rep  int
	next int32 // slot of the next submitted task
	wg   sync.WaitGroup

	mu    sync.Mutex
	err   error // failure of the lowest failing slot so far
	errAt int32
}

// submit queues one task on the pool.
func (ph *phase) submit(kind, idx int) {
	ph.wg.Add(1)
	ph.pool.tasks <- task{ph: ph, kind: int32(kind), idx: int32(idx), slot: ph.next}
	ph.next++
}

// wait is the barrier: it blocks until every submitted task finished
// and returns the error of the lowest failing slot, leaving the phase
// ready for its next batch.
func (ph *phase) wait() error {
	ph.wg.Wait()
	ph.next = 0
	err := ph.err
	ph.err = nil
	return err
}

// run submits the tasks (kind, 0) … (kind, count−1) and waits for them.
func (ph *phase) run(kind, count int) error {
	for i := 0; i < count; i++ {
		ph.submit(kind, i)
	}
	return ph.wait()
}

// runTask executes one task behind the phase's panic containment.
func (ph *phase) runTask(t task) {
	defer ph.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			ph.fail(t, newPanicError(ph.engine, ph.names[t.kind].task, ph.rep, int(t.idx), r))
		}
	}()
	if err := ph.x.exec(int(t.kind), int(t.idx)); err != nil {
		ph.fail(t, err)
	}
}

// fail records a task's error unless a lower slot already failed.
func (ph *phase) fail(t task, err error) {
	if label := ph.names[t.kind].label; label != "" {
		err = fmt.Errorf("sim: %s %s %d: %w", ph.engine, label, t.idx, err)
	}
	ph.mu.Lock()
	if ph.err == nil || t.slot < ph.errAt {
		ph.err, ph.errAt = err, t.slot
	}
	ph.mu.Unlock()
}

// chunkKinds: the chunk driver's one task kind is a whole worker; its
// setup and repetitions carry their own, finer provenance.
var chunkKinds = []taskName{{task: "worker"}}

// chunkRun is the chunk driver shared by Run and RunClosed: repetitions
// in chunks of chunkSize, one pool task per worker. Each worker task
// builds its fixed state once, then claims chunks in ascending order
// until none is left, running the engine's repetition kernel (runRep or
// closedRep) on each repetition. Partials are per chunk and merge in
// chunk order (reduce), so the result is bit-identical for any Workers.
type chunkRun struct {
	cfg         *Config
	cc          *canceller
	checkpoints []int64
	partials    []chunkPartial
	nextChunk   atomic.Int64
	pl          pool
	ph          phase
}

// repWorker is one chunk worker's reusable state: the fixed array and
// its placer (classic) or multinomial router (closed form), built once
// and reset between repetitions — nil under ArrayFn, whose repetitions
// build their own — plus scratch buffers.
type repWorker struct {
	arr     *bins.Array
	placer  protocol.Placer
	router  *sampling.Multinomial
	scratch workerScratch
	counts  []int64 // closed form: one multinomial increment vector
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
	// The driver keeps its own copy of the Config, so the spec itself
	// never escapes to the heap.
	cfg := spec.Config
	checkpoints, _ := obs.NormalizeCuts(cfg.Checkpoints) // validated above
	nChunks := (cfg.Reps + chunkSize - 1) / chunkSize
	workers := min(resolveWorkers(cfg.Workers), nChunks)
	r := &chunkRun{cfg: &cfg, cc: newCanceller(cfg.Context), checkpoints: checkpoints, partials: make([]chunkPartial, nChunks)}
	r.ph = phase{pool: &r.pl, x: r, engine: eng, names: chunkKinds}
	r.pl.start(workers)
	err := r.ph.run(0, workers)
	r.pl.close()
	if err != nil {
		return nil, err
	}
	res, completed, err := reduce(&cfg, checkpoints, r.partials)
	if err != nil {
		return nil, err
	}
	if completed < cfg.Reps {
		return res, &CancelledError{Engine: eng, CompletedReps: completed, CompletedCuts: -1, CompletedRounds: -1, CompletedTicks: -1, Cause: r.cc.err()}
	}
	return res, nil
}

// exec is one worker's whole share of the run. A repetition error or
// contained panic ends its chunk (reduce surfaces the first in chunk
// order) and cancellation skips the remaining repetitions; either way
// the worker keeps claiming chunks, so a chunk abandoned by
// cancellation holds exactly its leading repetitions.
func (r *chunkRun) exec(_, _ int) error {
	var w repWorker
	if err := r.setup(&w); err != nil {
		return err
	}
	for {
		ci := int(r.nextChunk.Add(1) - 1)
		if ci >= len(r.partials) {
			return nil
		}
		p := &r.partials[ci]
		for rep := ci * chunkSize; rep < min((ci+1)*chunkSize, r.cfg.Reps); rep++ {
			// One repetition bounds the chunk engines' cancellation
			// latency.
			if r.cc.cancelled() {
				break
			}
			if err := r.guardedRep(uint64(rep), ci, &w, p); err != nil {
				p.err = err
				break
			}
			p.reps++
		}
	}
}

// setup builds a worker's fixed array and its placer or router,
// containing panics in distribution or protocol constructors.
func (r *chunkRun) setup(w *repWorker) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = newPanicError(r.ph.engine, "setup", -1, -1, v)
		}
	}()
	if r.cfg.ArrayFn != nil {
		return nil
	}
	w.arr = r.cfg.Array.Clone()
	w.arr.Reset()
	weights, err := r.cfg.distribution().Weights(w.arr)
	if err != nil {
		return err
	}
	if r.ph.engine == engRunClosed {
		w.router, err = sampling.NewMultinomial(weights)
	} else {
		w.placer, err = r.cfg.factory()(w.arr, weights)
	}
	return err
}

// guardedRep runs one repetition behind the fault hook and a recover
// that converts panics (in ArrayFn, distribution, protocol or collector
// code) into provenance errors. The closed engine shares the chunk
// topology, so its fault site reuses OpChunk with its own engine name.
func (r *chunkRun) guardedRep(rep uint64, chunk int, w *repWorker, p *chunkPartial) (err error) {
	eng := r.ph.engine
	defer func() {
		if v := recover(); v != nil {
			err = newPanicError(eng, "chunk", int(rep), chunk, v)
		}
	}()
	if fault.Enabled {
		fault.Hit(fault.Site{Engine: eng, Op: fault.OpChunk, Rep: int(rep), Shard: -1, Block: -1})
	}
	if eng == engRunClosed {
		return closedRep(r.cfg, r.checkpoints, rep, w, p)
	}
	return runRep(r.cfg, r.checkpoints, rep, w, p)
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
// reset array, the selection weights and protocol factory with their
// defaults applied, the shard plan, and the resolved worker count.
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
// distribution's (the cluster engine routes on ring arcs).
func newSharded(eng string, spec *RunSpec, shards int, weights []float64) (sharded, error) {
	arr := spec.Array
	if !spec.AdoptArray {
		arr = spec.Array.Clone()
	}
	arr.Reset()
	if weights == nil {
		var err error
		if weights, err = spec.distribution().Weights(arr); err != nil {
			return sharded{}, fmt.Errorf("sim: %s weights: %w", eng, err)
		}
	}
	bounds, shardW, router, err := shardPlan(weights, arr.N(), shards)
	if err != nil {
		return sharded{}, fmt.Errorf("sim: %s router: %w", eng, err)
	}
	return sharded{
		arr: arr, n: arr.N(), shards: shards, weights: weights, factory: spec.factory(),
		bounds: bounds, shardW: shardW, router: router, workers: resolveWorkers(spec.Workers),
	}, nil
}

// routeWidth is the routing-group count of an m-ball routing pass: one
// group per worker, capped at the pass's routing blocks, at least one.
// The grouping never affects the merged counts — integer sums are
// exact.
func (sh *sharded) routeWidth(m int64) int {
	return max(min(sh.workers, numRouteBlocks(m)), 1)
}

// poolWidth is the pool size: the workers, capped at the widest phase
// (one task per shard or per routing group).
func (sh *sharded) poolWidth(groups int) int {
	return min(sh.workers, max(sh.shards, groups))
}

// finalState is the end-of-run fold of the single-trajectory engines
// (streaming, cluster): recount the array, then the exact max
// load — from one histogram pass that also yields the bins-at-load>=k
// counts when levels > 0, else from a direct scan — and the average.
func finalState(eng string, arr *bins.Array, levels int, balls int64) (maxLoad, avg float64, heights []obs.HeightRow, err error) {
	arr.Recount()
	if levels > 0 {
		h := arr.NewLoadHistogram()
		if err := arr.HistogramInto(h); err != nil {
			return 0, 0, nil, fmt.Errorf("sim: %s histogram: %w", eng, err)
		}
		hl := obs.NewHeights(levels)
		if err := hl.SnapshotHist(obs.Final, h, balls); err != nil {
			return 0, 0, nil, fmt.Errorf("sim: %s heights: %w", eng, err)
		}
		maxLoad, heights = h.MaxLoad(), hl.Rows()
	} else {
		maxLoad = arr.MaxLoad()
	}
	return maxLoad, arr.AverageLoad(), heights, nil
}
