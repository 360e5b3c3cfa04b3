// Fault-tolerant execution layer: the failure and cancellation
// vocabulary every engine shares.
//
// # Cooperative cancellation
//
// Every spec carries an optional context.Context. Cancellation
// is checked at task boundaries — one classic repetition, one routing
// block, one RoutingBlock-sized placement or deletion stride — and at
// every phase barrier, so cancellation latency is bounded by one block
// of work, while the no-context hot path keeps its exact pre-existing
// instruction stream (the checks sit behind a nil canceller). A check
// is a non-blocking receive on the context's Done channel: there is no
// watcher goroutine, and a cancel() that has returned is seen by every
// later check. A cancelled run returns a typed *CancelledError AND a
// deterministic partial result: the partial is a prefix of the
// engine's deterministic model (completed repetitions, checkpoint cuts,
// rounds or ticks), so its content is bit-identical to the
// corresponding prefix of an uninterrupted run — only WHICH prefix you
// get depends on when the context fires.
//
// # Panic containment
//
// Every task of every engine runs behind the phase runner's one
// recover (runner.go), which converts a panic into a *PanicError
// carrying provenance (engine, task name, repetition/round/tick,
// shard/group/chunk index): the chunk engines' per-worker setups and
// chunks, the sharded engines' placer builds (the "setup" phase),
// routing groups and per-shard tasks (the cluster engine's one shard
// task per tick reports the sub-step it was in), and their
// orchestrator-side steps — the streaming engine's deletion routing,
// the cluster engine's churn, re-shard and admission, the Monte-Carlo
// engine's per-repetition summary and fold — which run as inline
// tasks. The
// lowest-slot failure of a phase wins, every barrier is still reached,
// and no worker goroutine is stranded — a panic anywhere surfaces as
// an ordinary error from the engine call, never as a process crash or
// a hang.
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// Engine names used in provenance (PanicError.Engine,
// CancelledError.Engine, fault.Site.Engine). They name the classic,
// sharded, closed-form, stream and cluster engines and are part of the
// output, so they keep their historical spelling.
const (
	engRun        = "Run"
	engRunLargeMC = "RunLargeMonte"
	engRunClosed  = "RunClosed"
	engRunStream  = "RunStream"
	engRunCluster = "RunCluster"
)

// ErrCancelled is the sentinel every cancellation error matches:
// errors.Is(err, ErrCancelled) is true exactly when a run stopped
// early because its context was cancelled (or a deterministic
// self-cancel — RunSpec.CancelAfter — fired) rather than because of a
// failure.
var ErrCancelled = errors.New("sim: run cancelled")

// CancelledError reports a cooperatively cancelled run. The engine
// that returns it ALSO returns a non-nil partial result; the fields
// here describe which deterministic prefix that partial covers.
type CancelledError struct {
	// Engine is the provenance name of the engine that was cancelled:
	// "Run" (classic), "RunClosed" (closed-form), "RunLargeMonte"
	// (sharded), "RunStream" or "RunCluster".
	Engine string
	// CompletedReps is the folded repetition prefix of the partial
	// (classic, closed-form and sharded engines): aggregates cover reps
	// [0, CompletedReps) and are bit-identical to a run configured with
	// that Reps value. -1 for the streaming and cluster engines (whose
	// units are completed rounds and ticks).
	CompletedReps int
	// CompletedCuts is the number of leading checkpoint rows present
	// in a cancelled stream or cluster partial, or in a sharded
	// partial with CompletedReps = 0 — there, the cuts
	// every shard of repetition 0 completed (each row bit-identical to
	// the corresponding row of an uninterrupted run). -1 otherwise.
	CompletedCuts int
	// CompletedRounds is the completed-round prefix of a cancelled
	// streaming run: the partial's trajectory, counters and shard
	// occupancies cover rounds [0, CompletedRounds) and are
	// bit-identical to a run configured with Rounds = CompletedRounds.
	// -1 for the other engines.
	CompletedRounds int
	// CompletedTicks is the completed-tick prefix of a cancelled
	// cluster run: the partial's counters, availability trace and
	// trajectory cover ticks [0, CompletedTicks) and are bit-identical
	// to a run configured with Ticks = CompletedTicks. -1 for the other
	// engines.
	CompletedTicks int
	// Checkpoint is the serializable resume state of a cancelled
	// sharded run (nil for the other engines): feeding it back
	// through RunSpec.Resume continues the run and produces
	// final aggregates byte-identical to an uninterrupted one.
	Checkpoint *MonteCheckpoint
	// Cause is the context error that triggered the cancellation, or
	// nil when a deterministic self-cancel (RunSpec.CancelAfter) fired.
	Cause error
}

// Error implements error.
func (e *CancelledError) Error() string {
	switch {
	case e.CompletedTicks >= 0:
		return fmt.Sprintf("sim: %s cancelled after %d completed ticks", e.Engine, e.CompletedTicks)
	case e.CompletedRounds >= 0:
		return fmt.Sprintf("sim: %s cancelled after %d completed rounds", e.Engine, e.CompletedRounds)
	case e.CompletedReps >= 0:
		return fmt.Sprintf("sim: %s cancelled after %d completed repetitions", e.Engine, e.CompletedReps)
	case e.CompletedCuts >= 0:
		return fmt.Sprintf("sim: %s cancelled with %d completed checkpoint cuts", e.Engine, e.CompletedCuts)
	}
	return fmt.Sprintf("sim: %s cancelled", e.Engine)
}

// Is makes errors.Is(err, ErrCancelled) — and, when the cause was a
// real context, errors.Is(err, context.Canceled) — work.
func (e *CancelledError) Is(target error) bool { return target == ErrCancelled }

// Unwrap exposes the context error as the cause chain.
func (e *CancelledError) Unwrap() error { return e.Cause }

// PanicError is a contained panic from inside an engine: provenance
// plus the recovered value and stack. It is how "a worker died"
// surfaces — as an error from the engine call, never as a crash.
type PanicError struct {
	// Engine is the engine the panic happened in.
	Engine string
	// Task names the task kind: the step driver's "route" and "setup"
	// (a sharded engine's per-shard placer build; a chunk engine's
	// per-worker array and placer or router), "chunk" (a classic or
	// closed-form chunk of repetitions), the Monte-Carlo
	// engine's "reset", "place", "summary" and "orchestrator" (a
	// repetition's fold), the streaming engine's phase names ("place",
	// "delete", "move-out", ...), and the cluster engine's inline steps
	// ("churn", "reshard", "shed") and the sub-step its shard task was
	// in ("setup", "redistribute", "place", "retry", "serve").
	Task string
	// Rep is the repetition, round or tick the task belonged to (for a
	// chunk, the repetition in flight; -1 when unknown).
	Rep int
	// Index is the task's shard index (place/reset), routing-group
	// index (route), chunk index (chunk) or worker slot (a chunk
	// engine's setup); -1 for inline tasks and when not applicable.
	Index int
	// Value is the recovered panic value; Stack the goroutine stack
	// captured at recovery.
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	if e.Index >= 0 {
		return fmt.Sprintf("sim: panic in %s %s task (rep %d, index %d): %v", e.Engine, e.Task, e.Rep, e.Index, e.Value)
	}
	return fmt.Sprintf("sim: panic in %s %s task (rep %d): %v", e.Engine, e.Task, e.Rep, e.Value)
}

// Unwrap exposes an error panic value to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// newPanicError builds the provenance error for a recovered value.
func newPanicError(engine, task string, rep, index int, v any) *PanicError {
	return &PanicError{Engine: engine, Task: task, Rep: rep, Index: index, Value: v, Stack: debug.Stack()}
}

// canceller is the check the hot loops poll. A nil *canceller means
// "cancellation not armed": the methods are nil-receiver safe and
// collapse to a register test, so engines pass the canceller
// unconditionally and pay nothing when no context is configured.
type canceller struct {
	ctx  context.Context
	done <-chan struct{} // ctx.Done(), captured once
}

// newCanceller arms cancellation for ctx; it returns nil (no checks)
// when ctx is nil or can never be cancelled.
func newCanceller(ctx context.Context) *canceller {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return &canceller{ctx: ctx, done: ctx.Done()}
}

// cancelled reports whether the context has fired: a non-blocking
// receive, so every check that starts after cancel() returned sees
// it. Safe on a nil receiver.
func (c *canceller) cancelled() bool {
	if c == nil {
		return false
	}
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// err returns the context's error once cancelled (nil otherwise).
func (c *canceller) err() error {
	if !c.cancelled() {
		return nil
	}
	return c.ctx.Err()
}
