// Public surface of the fault-tolerant execution layer: cancellation
// errors, panic provenance, and resume state.
//
// Every engine accepts a context.Context (SimConfig.Context,
// LargeConfig.Context — inherited by MonteLargeConfig —
// StreamConfig.Context and ClusterConfig.Context). When the context
// fires mid-run the engine stops at the next task boundary and
// returns BOTH a partial result and a *CancelledError describing which
// deterministic prefix the partial covers. Partial results are part of
// the model, like Shards and routing blocks: the prefix content is
// bit-identical to the corresponding prefix of an uninterrupted run —
// only WHICH prefix you get depends on timing. Use CancelAfterReps
// (CancelAfterRounds for streaming, CancelAfterTicks for serving) for
// a fully deterministic stop.
//
// A panic inside any engine worker never crashes or hangs the process:
// it surfaces as a *PanicError carrying provenance (engine, task kind,
// repetition, shard index) from the engine call.
package balls

import (
	"errors"

	"repro/internal/sim"
)

// ErrCancelled is the sentinel every cancellation error matches:
// errors.Is(err, ErrCancelled) is true exactly when a run stopped
// early because its context fired (or CancelAfterReps triggered)
// rather than because of a failure.
var ErrCancelled = sim.ErrCancelled

// CancelledError reports a cooperatively cancelled run; the engine
// that returns it also returns a non-nil partial result. See the
// field docs for which prefix the partial covers.
type CancelledError = sim.CancelledError

// PanicError is a contained panic from inside an engine: provenance
// (engine, task, repetition, index) plus the recovered value and
// stack.
type PanicError = sim.PanicError

// ResumeState is the serializable checkpoint of a cancelled
// MonteCarloLarge run (CancelledError.Checkpoint). Feeding it back
// through MonteLargeConfig.Resume — with an otherwise identical
// config — continues the run and produces final aggregates
// byte-identical to an uninterrupted one. It marshals as JSON;
// WriteFile persists it atomically.
type ResumeState = sim.MonteCheckpoint

// ReadResumeState loads a ResumeState previously persisted with
// (*ResumeState).WriteFile.
func ReadResumeState(path string) (*ResumeState, error) {
	return sim.ReadMonteCheckpoint(path)
}

// cancelledPartial reports whether err, an engine error, is a
// cancellation that came with a partial result (hasPartial), returning
// its *CancelledError; nil means err is a plain failure and the
// wrapper returns no result. Call it on the error path only: errors.As
// takes the target's address, which heap-allocates it.
func cancelledPartial(err error, hasPartial bool) *CancelledError {
	var cancelled *CancelledError
	if !errors.As(err, &cancelled) || !hasPartial {
		return nil
	}
	return cancelled
}
