// Unified engine dispatch: one RunSpec, one entry point, five engines.
//
// The repo runs the balls-into-bins game five ways, each with its own
// sweet spot. Dispatch is the package's only exported way to run any
// of them: it hides the choice behind a single spec so the public
// wrappers and the figure/validate/tune harness can ask for "this
// game, these observables, at this n" and get the right engine. The
// engine functions are unexported:
//
//   - classic: runChunked with the runRep kernel (sim.go), the
//     reference engine. Supports every observable (random arrays,
//     per-ball heights, per-class vectors) at any n a per-ball pass
//     can afford.
//   - sharded: runLargeMonte (monte.go). Fixed arrays only; scales a
//     single repetition across cores via multinomial block routing, so
//     n = 10^6..10^7 repetitions are practical. Shards and the routing
//     blocks are part of the model (see large.go): results are
//     deterministic in the spec but not bit-identical to classic.
//   - closed-form: runChunked with the same runRep kernel, advancing
//     each checkpoint segment by one Multinomial draw (closed.go).
//     Single-choice protocols only; O(n + checkpoints·n) per rep with
//     no per-ball work.
//   - stream: runStream (stream.go), rounds of arrivals, deletions and
//     rebalancing over one sharded array; selected by RunSpec.Stream.
//   - cluster: runCluster (cluster.go), ticks of requests served by a
//     churning ring of peers; selected by RunSpec.Cluster.
//
// Sharded, stream and cluster are step bodies on the one step driver
// in runner.go (a step is a repetition, a round or a tick). RunSpec is the only engine input: every engine reads it
// directly, validate holds each check the engines share once, and
// unsupported is the one capability table.
//
// # Determinism contract
//
// Engine auto-selection is a pure function of the spec — never of the
// machine (worker count, core count, load). The same spec selects the
// same engine everywhere, and each engine is itself deterministic in
// (spec, seed), so Dispatch inherits every engine's reproducibility
// guarantee. Engines draw different random-number sequences, though:
// switching engines changes individual numbers while preserving the
// distributional law (see parity_test.go), which is why the selection
// rule only switches engines at scale thresholds, where distributional
// agreement is what matters.
package sim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/bins"
	"repro/internal/protocol"
)

// Engine names a simulation engine for RunSpec/Dispatch.
type Engine string

const (
	// EngineAuto lets Dispatch pick: closed-form when the protocol is
	// single-choice and n is at least AutoScaleMinBins, else sharded
	// when the spec supports it and n is at least AutoScaleMinBins,
	// else classic. The choice depends only on the spec.
	EngineAuto Engine = "auto"
	// EngineClassic forces the classic chunked engine.
	EngineClassic Engine = "classic"
	// EngineSharded forces the sharded Monte-Carlo engine.
	EngineSharded Engine = "sharded"
	// EngineClosedForm forces the closed-form multinomial engine.
	EngineClosedForm Engine = "closed-form"
	// EngineStream selects the streaming engine (stream.go): balls
	// arrive in rounds, a deterministic deletion stream expires them,
	// and an optional rebalance pass bounds cross-shard drift. It
	// requires RunSpec.Stream.
	EngineStream Engine = "stream"
	// EngineCluster selects the churn-tolerant serving engine
	// (cluster.go): ticks of batched arrivals over a consistent-hashing
	// ring of live peers, with crashes, recoveries, timeouts, retries
	// and shedding. It requires RunSpec.Cluster.
	EngineCluster Engine = "cluster"
)

// AutoScaleMinBins is the bin count at which EngineAuto switches from
// the classic engine to a scale engine (closed-form or sharded). It is
// a fixed constant — auto-selection must never depend on the machine —
// chosen so that paper-scale runs (n <= 3·10^4) keep their classic
// bit-exact behaviour while 100-1000× scale-ups move off the per-ball
// path.
const AutoScaleMinBins = 1 << 16

// ParseEngine parses a CLI engine name. The empty string means auto.
func ParseEngine(s string) (Engine, error) {
	switch Engine(s) {
	case "", EngineAuto:
		return EngineAuto, nil
	case EngineClassic, EngineSharded, EngineClosedForm, EngineStream, EngineCluster:
		return Engine(s), nil
	}
	return "", fmt.Errorf("sim: unknown engine %q (want auto, classic, sharded, closed-form, stream or cluster)", s)
}

// noun names the engine in error messages.
func (e Engine) noun() string {
	if e == EngineStream {
		return "the streaming engine"
	}
	return "the " + string(e) + " engine"
}

// RunSpec is the engine-independent description of one experiment and
// the only input of every engine: the classic Config (array,
// distribution, protocol, balls, reps, seed, workers, observables)
// plus an engine hint, the sharded engines' parameters and the
// streaming or serving parameters.
type RunSpec struct {
	Config
	// Engine selects the engine ("" = EngineAuto).
	Engine Engine
	// Shards is the sharded engines' shard count (0 = DefaultShards,
	// clamped to the number of bins). Part of the model: changing it
	// changes the result, like changing Seed. Ignored by the classic
	// and closed-form engines.
	Shards int
	// ShardStats requests per-shard aggregates across repetitions
	// (balls routed, final shard-local max load) — the imbalance view
	// of the two-level protocol, in Result.ShardStats. Costs one
	// O(shard) scan per shard per repetition. Sharded engine only.
	ShardStats bool
	// Resume continues a previously cancelled sharded run from its
	// checkpoint (see MonteCheckpoint): repetitions [0, CompletedReps)
	// are taken from the checkpoint and the run proceeds to Reps. The
	// final aggregates are byte-identical to an uninterrupted run. The
	// checkpoint's fingerprint must match this spec. Sharded engine
	// only.
	Resume *MonteCheckpoint
	// CancelAfter, when positive, deterministically stops the run
	// after exactly that many units of the engine's own progress —
	// repetitions (sharded), rounds (stream) or ticks (cluster) — as
	// if the context had fired there, with a nil
	// CancelledError.Cause. Unlike a real context it is timing-free,
	// which is what lets tests and scripts byte-compare an interrupted
	// run against an uninterrupted one. The classic and closed-form
	// engines reject it.
	CancelAfter int
	// Stream carries the streaming engine's round parameters. Setting
	// it makes the spec a streaming spec: EngineAuto (and
	// EngineStream) run the streaming engine, and every other explicit
	// engine rejects the spec — round structure is never silently
	// dropped.
	Stream *StreamParams
	// Cluster carries the serving engine's churn/retry/shedding
	// parameters. Setting it makes the spec a cluster spec, with the
	// same exclusivity contract as Stream (and at most one of the two
	// may be set).
	Cluster *ClusterParams
	// AdoptArray lets the sharded engines mutate Config.Array in place
	// (reset first) instead of cloning it. The public wrappers, which
	// build a private array from a capacity slice, use it to avoid a
	// transient second O(n) array at n = 10^7. The sharded engine plays
	// every repetition on it and leaves there the final state of the
	// last one: with Reps = 1, the game's final state.
	AdoptArray bool
}

// validate checks the spec for engine e and returns its resolved shard
// count (0 for the chunked engines, which ignore Shards). Every check
// several engines share lives here once; the round and serving
// parameters check their own fields, and unsupported says which
// fields each engine can honour. Every rejection names its field.
func (spec *RunSpec) validate(e Engine) (shards int, err error) {
	c := &spec.Config
	chunked := e == EngineClassic || e == EngineClosedForm
	switch {
	// Round parameters bind a spec to the streaming engine, serving
	// parameters to the cluster engine: any other engine would silently
	// drop that structure, so it errors instead.
	case e == EngineStream && spec.Stream == nil:
		return 0, fmt.Errorf("sim: engine stream needs round parameters (RunSpec.Stream is nil)")
	case e == EngineCluster && spec.Cluster == nil:
		return 0, fmt.Errorf("sim: engine cluster needs serving parameters (RunSpec.Cluster is nil)")
	case e != EngineStream && spec.Stream != nil:
		return 0, fmt.Errorf("sim: %s cannot run a streaming spec (Stream is set; use engine stream or auto)", e.noun())
	case e != EngineCluster && spec.Cluster != nil:
		return 0, fmt.Errorf("sim: %s cannot run a cluster spec (Cluster is set; use engine cluster or auto)", e.noun())
	case c.Array == nil && c.ArrayFn == nil:
		return 0, fmt.Errorf("sim: %s needs an Array (no Array or ArrayFn configured)", e.noun())
	case (chunked || e == EngineSharded) && c.Reps < 1:
		return 0, fmt.Errorf("sim: Reps = %d, need >= 1", c.Reps)
	case c.Balls < 0:
		return 0, fmt.Errorf("sim: Balls = %d, need >= 0", c.Balls)
	case !(c.BallsFactor >= 0) || math.IsInf(c.BallsFactor, 1):
		return 0, fmt.Errorf("sim: BallsFactor = %v, need a finite value >= 0", c.BallsFactor)
	case c.Workers < 0:
		return 0, fmt.Errorf("sim: Workers = %d, need >= 0", c.Workers)
	case spec.CancelAfter < 0:
		return 0, fmt.Errorf("sim: CancelAfter = %d, need >= 0", spec.CancelAfter)
	case len(c.ClassLoadVectors) > 0 && c.ArrayFn != nil:
		return 0, fmt.Errorf("sim: ClassLoadVectors requires a fixed Array")
	}
	// A class listed twice would be observed twice per repetition.
	for _, f := range [...]struct {
		name    string
		classes []int64
	}{{"ClassLoadVectors", c.ClassLoadVectors}, {"TrackClasses", c.TrackClasses}, {"ClassMaxLoads", c.ClassMaxLoads}} {
		for i, class := range f.classes {
			if class < 1 {
				return 0, fmt.Errorf("sim: %s[%d] = %d, capacity classes are >= 1", f.name, i, class)
			}
			if slices.Contains(f.classes[:i], class) {
				return 0, fmt.Errorf("sim: %s[%d] = %d repeats an earlier class", f.name, i, class)
			}
		}
	}
	if err := c.ObsOptions.validate(); err != nil {
		return 0, err
	}
	if err := spec.unsupported(e); err != nil {
		return 0, err
	}
	if c.ArrayFn == nil {
		// ArrayFn runs check their ball count per repetition (runRep).
		if err := c.ballCountErr(c.Array.TotalCapacity()); err != nil {
			return 0, err
		}
	}
	switch e {
	case EngineClassic, EngineClosedForm:
		return 0, nil
	case EngineStream:
		err = spec.Stream.validate(c)
	case EngineCluster:
		err = spec.Cluster.validate(c.Array.N())
	}
	if err != nil {
		return 0, err
	}
	return resolveShards(spec.Shards, c.Array.N())
}

// unsupported reports, by field name, the first field of the spec that
// engine e cannot honour (nil when e can run the spec). It is the one
// capability table: every engine rejects through it and EngineAuto
// uses it as its selection predicate. The chunked engines (classic,
// closed-form) run every Config observable on fixed or per-repetition
// arrays; the sharded engines work on one fixed array and its
// whole-array observables; stream and cluster run a single
// trajectory.
func (spec *RunSpec) unsupported(e Engine) error {
	c := &spec.Config
	chunked := e == EngineClassic || e == EngineClosedForm
	single := e == EngineStream || e == EngineCluster
	switch {
	case !chunked && c.ArrayFn != nil:
		return fmt.Errorf("sim: ArrayFn: %s needs a fixed Array (ArrayFn builds per-repetition arrays)", e.noun())
	case single && c.Reps > 1:
		return fmt.Errorf("sim: Reps = %d: %s runs a single trajectory", c.Reps, e.noun())
	case single && c.CollectLoadVector:
		return fmt.Errorf("sim: %s does not collect the sorted load vector (CollectLoadVector)", e.noun())
	case !chunked && len(c.TrackClasses) > 0:
		return fmt.Errorf("sim: %s does not collect TrackClasses", e.noun())
	case !chunked && len(c.ClassLoadVectors) > 0:
		return fmt.Errorf("sim: %s does not collect ClassLoadVectors", e.noun())
	case !chunked && len(c.ClassMaxLoads) > 0:
		return fmt.Errorf("sim: %s does not collect ClassMaxLoads", e.noun())
	case e != EngineClassic && c.HeightBins > 0:
		return fmt.Errorf("sim: HeightBins = %d: %s does not collect the per-ball height histogram (classic engine only)", c.HeightBins, e.noun())
	case chunked && spec.CancelAfter > 0:
		return fmt.Errorf("sim: CancelAfter = %d: %s has no deterministic stop (sharded, stream and cluster engines only)", spec.CancelAfter, e.noun())
	case e != EngineSharded && spec.ShardStats:
		return fmt.Errorf("sim: %s does not collect ShardStats (sharded engine only)", e.noun())
	case e != EngineSharded && spec.Resume != nil:
		return fmt.Errorf("sim: %s cannot Resume a checkpoint (sharded engine only)", e.noun())
	case e == EngineCluster && c.Dist != nil:
		return fmt.Errorf("sim: %s derives dispatch weights from the ring's live arcs (Dist is not configurable)", e.noun())
	case e == EngineCluster && (c.Balls != 0 || c.BallsFactor != 0):
		return fmt.Errorf("sim: %s takes arrivals from Cluster.ArrivalsPerTick, not Balls/BallsFactor", e.noun())
	case e == EngineClosedForm && !singleChoiceFactory(c.factory()):
		return fmt.Errorf("sim: %s needs a single-choice Placer (single, or d=1 / beta=0 variants)", e.noun())
	}
	return nil
}

// Dispatch resolves the spec's engine and runs it, converging on the
// classic Result shape whatever the engine. The returned Result's
// Engine field records the choice. Cancellation behaves like the
// underlying engine: a fired Context yields a deterministic partial
// Result plus a *CancelledError.
func Dispatch(spec RunSpec) (*Result, error) {
	engine, err := spec.resolveEngine()
	if err != nil {
		return nil, err
	}
	var res *Result
	switch engine {
	case EngineClassic, EngineClosedForm:
		res, err = runChunked(engine, &spec)
	case EngineSharded:
		res, err = runLargeMonte(spec)
	case EngineStream:
		res, err = runStream(&spec)
	case EngineCluster:
		res, err = runCluster(&spec)
	}
	if res != nil {
		res.Engine = engine
	}
	return res, err
}

// resolveEngine applies the selection rule. An explicitly requested
// engine is returned as is — its entry point rejects, by field name,
// any spec outside its capability — while EngineAuto only ever picks
// an engine that supports the spec.
func (spec *RunSpec) resolveEngine() (Engine, error) {
	if spec.Stream != nil && spec.Cluster != nil {
		return "", fmt.Errorf("sim: Stream and Cluster both set: a spec is streaming or serving, not both")
	}
	switch spec.Engine {
	case "", EngineAuto:
		if spec.Stream != nil {
			return EngineStream, nil
		}
		if spec.Cluster != nil {
			return EngineCluster, nil
		}
		// Auto: below the scale threshold stay classic (bit-compatible
		// with the seed harness); at scale prefer closed-form (exact
		// law, no per-ball work), then sharded.
		n, err := probeNBins(&spec.Config)
		if err != nil || n < AutoScaleMinBins {
			return EngineClassic, nil
		}
		if spec.unsupported(EngineClosedForm) == nil {
			return EngineClosedForm, nil
		}
		if spec.unsupported(EngineSharded) == nil {
			return EngineSharded, nil
		}
		return EngineClassic, nil
	case EngineClassic, EngineSharded, EngineClosedForm, EngineStream, EngineCluster:
		return spec.Engine, nil
	}
	return "", fmt.Errorf("sim: unknown engine %q (want auto, classic, sharded, closed-form, stream or cluster)", spec.Engine)
}

// probeNBins is nBins with panic containment: a panicking ArrayFn must
// fail the run through the engine's guarded paths, not crash the
// selection probe (auto then falls back to classic, which surfaces the
// panic as a *PanicError).
func probeNBins(c *Config) (n int, err error) {
	defer func() {
		if r := recover(); r != nil {
			n, err = 0, newPanicError(engRun, "probe", -1, -1, r)
		}
	}()
	return nBins(c)
}

// singleChoiceFactory reports whether the factory builds a protocol
// that places each ball by a single independent weighted draw — then
// and only then is the final load vector one Multinomial(m, p) sample,
// the closed-form engine's model. It probes the factory on a tiny
// array and matches the placer's name — the protocol package's names
// are part of its contract (they key the figure tables) — containing
// any probe panic as "not single-choice".
func singleChoiceFactory(f protocol.Factory) (single bool) {
	defer func() {
		if recover() != nil {
			single = false
		}
	}()
	probe, err := bins.New([]int64{1, 1})
	if err != nil {
		return false
	}
	p, err := f(probe, []float64{0.5, 0.5})
	if err != nil {
		return false
	}
	switch p.Name() {
	case "single", "greedy(d=1)", "standard(d=1)", "goleft(d=1)", "oneplusbeta(b=0)":
		return true
	}
	return false
}
