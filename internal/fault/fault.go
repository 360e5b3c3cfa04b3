// Package fault is the deterministic fault-injection harness behind
// the engines' chaos test matrix: engines mark every task site
// (a routing block, a shard placement, a per-repetition reset or
// summary, a classic chunk repetition, a Monte repetition's fold) with
// a Hit call, and a test armed with a Plan makes exactly the matching
// site panic, stall, or cancel the run.
//
// # Zero cost in normal builds
//
// The package has two implementations selected by the `faultinject`
// build tag. The default build defines Enabled as the constant false
// and Hit as a no-op, so every engine call site
//
//	if fault.Enabled {
//		fault.Hit(fault.Site{...})
//	}
//
// is dead code the compiler deletes entirely — the hot paths carry no
// branch, no call, and no argument construction. Builds with
// -tags faultinject compile the real registry; the chaos CI job runs
// the engine test suite (plus the dedicated chaos matrix) that way,
// under -race.
//
// # Determinism
//
// A Plan matches on the site identity (engine, operation, repetition,
// shard/group index, routing-block index), not on timing: the engines'
// sites are part of their deterministic execution model, so "panic at
// {rep 3, shard 7}" fires at the same logical point of the computation
// on every run and under every worker topology. Wildcards (empty
// engine, OpAny, -1 indices) widen a match; Count selects the n-th
// matching hit when one logical site is visited repeatedly.
package fault

// Op identifies the kind of engine operation a site belongs to.
type Op uint8

const (
	// OpAny matches every operation (plans only; sites never carry it).
	OpAny Op = iota
	// OpRoute is one routing block of a sharded engine's Phase-1 pass.
	OpRoute
	// OpPlace is one shard's placement task.
	OpPlace
	// OpReset is one shard view's between-repetition reset (Monte).
	OpReset
	// OpSummary is a repetition's whole-array summary task (Monte).
	OpSummary
	// OpChunk is one repetition of the classic chunked engine.
	OpChunk
	// OpOrchestrator is a Monte repetition's fold on the calling
	// goroutine — after the repetition's tasks have drained, before its
	// summary is folded.
	OpOrchestrator
	// OpDelete is one deletion step of the streaming engine: the
	// round's shard-routing pass (Shard = -1) or one shard's
	// within-shard deletion task (Shard = the shard index). Rep is the
	// round index.
	OpDelete
	// OpRebalance is one shard's inter-round move-out task in the
	// streaming engine's rebalance pass. Rep is the round index.
	OpRebalance
	// OpCrash is one applied churn event of the cluster engine: a peer
	// crashing or recovering at a tick boundary. Rep is the tick index,
	// Shard the peer index.
	OpCrash
	// OpRetry is one shard's retry-dispatch sub-step in the cluster
	// engine's shard task: re-placing timed-out requests onto an
	// alternate candidate. Rep is the tick index, Shard the shard index.
	OpRetry
	// OpShed is the cluster engine's per-tick admission-control step
	// (orchestrator side, Shard = -1). Rep is the tick index.
	OpShed
	// OpReshard is one step of the cluster engine's incremental
	// re-sharding after churn: the ring/router rebuild (Shard = -1) or
	// one shard's redistribution sub-step (Shard = the shard index). Rep
	// is the tick index.
	OpReshard
)

// String returns the operation name used in provenance messages.
func (o Op) String() string {
	switch o {
	case OpAny:
		return "any"
	case OpRoute:
		return "route"
	case OpPlace:
		return "place"
	case OpReset:
		return "reset"
	case OpSummary:
		return "summary"
	case OpChunk:
		return "chunk"
	case OpOrchestrator:
		return "orchestrator"
	case OpDelete:
		return "delete"
	case OpRebalance:
		return "rebalance"
	case OpCrash:
		return "crash"
	case OpRetry:
		return "retry"
	case OpShed:
		return "shed"
	case OpReshard:
		return "reshard"
	}
	return "unknown"
}

// Site identifies one fault-injection point. Engines fill every field
// they know; fields that do not apply to an operation are -1.
type Site struct {
	// Engine is the engine name: "Run", "RunClosed", "RunLargeMonte",
	// "RunStream" or "RunCluster". Empty in a Plan's
	// Match means any engine.
	Engine string
	// Op is the operation kind (OpAny in a Plan's Match means any).
	Op Op
	// Rep is the repetition index (the round or tick for the streaming
	// and cluster engines; -1 in a Plan's Match means any repetition).
	Rep int
	// Shard is the shard index of a placement/reset site, or the
	// routing-group index of a routing site (-1 = any / not
	// applicable).
	Shard int
	// Block is the routing-block index of an OpRoute site (-1 = any /
	// not applicable).
	Block int
}

// matches reports whether the armed pattern p covers site s (p's
// wildcard fields — empty Engine, OpAny, -1 indices — match anything).
func (p Site) matches(s Site) bool {
	if p.Engine != "" && p.Engine != s.Engine {
		return false
	}
	if p.Op != OpAny && p.Op != s.Op {
		return false
	}
	if p.Rep >= 0 && p.Rep != s.Rep {
		return false
	}
	if p.Shard >= 0 && p.Shard != s.Shard {
		return false
	}
	if p.Block >= 0 && p.Block != s.Block {
		return false
	}
	return true
}

// Injected is the panic value of an injected panic, carrying the site
// it fired at so provenance assertions can tell injected faults from
// genuine bugs.
type Injected struct {
	Site Site
	Msg  string
}

// Error implements error so recovered injected panics unwrap cleanly.
func (i *Injected) Error() string {
	return "fault: injected " + i.Site.Op.String() + " fault: " + i.Msg
}
