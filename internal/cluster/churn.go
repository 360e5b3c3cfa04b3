// Package cluster is the serving-cluster domain model behind the
// paper's application framing (requests = balls, heterogeneous servers
// = bins, "capacity" = speed): ChurnPlan and RetryPolicy, the failure
// model of the churn-tolerant serving engine in internal/sim (reached
// through sim.Dispatch with engine "cluster") — scheduled and
// stochastic crash/recover events over a consistent-hashing ring
// (internal/chash), request timeouts with bounded exponential-backoff
// retries, and overload shedding. The engine lives in internal/sim so
// it can reuse the multinomial block router and the fault-tolerant
// execution layer; this package stays the dependency-free vocabulary
// both sides import.
package cluster

import "fmt"

// ChurnEvent is one scheduled membership change: peer Peer crashes
// (Down) or recovers (!Down) at the START of tick Tick, before any
// request of that tick is admitted or dispatched.
type ChurnEvent struct {
	Tick int
	Peer int
	Down bool
}

// ChurnPlan describes when peers crash and recover. The deterministic
// Schedule and the stochastic crash/recover process compose: scheduled
// events apply first each tick, then every peer flips state with its
// pinned-substream Bernoulli draw. Both paths refuse to take down the
// last live peer — a cluster with zero capacity would deadlock every
// request — so availability is degraded, never zero.
type ChurnPlan struct {
	// Schedule lists deterministic events, sorted by ascending Tick
	// (ties in any peer order). Events at or beyond the horizon never
	// fire.
	Schedule []ChurnEvent
	// CrashProb is the per-tick probability that a live peer crashes;
	// RecoverProb the per-tick probability that a down peer recovers.
	// Each peer consumes exactly one draw per tick from the tick's
	// churn substream — in peer order, whether or not the draw applies
	// — so the draw sequence is frozen whatever the membership state.
	CrashProb   float64
	RecoverProb float64
}

// Empty reports whether the plan never changes membership.
func (p *ChurnPlan) Empty() bool {
	return len(p.Schedule) == 0 && p.CrashProb == 0 && p.RecoverProb == 0
}

// Stochastic reports whether the plan draws per-tick Bernoulli churn.
func (p *ChurnPlan) Stochastic() bool {
	return p.CrashProb > 0 || p.RecoverProb > 0
}

// Validate checks the plan against a peer count.
func (p *ChurnPlan) Validate(peers int) error {
	if p.CrashProb < 0 || p.CrashProb > 1 || p.CrashProb != p.CrashProb {
		return fmt.Errorf("cluster: CrashProb = %v outside [0,1]", p.CrashProb)
	}
	if p.RecoverProb < 0 || p.RecoverProb > 1 || p.RecoverProb != p.RecoverProb {
		return fmt.Errorf("cluster: RecoverProb = %v outside [0,1]", p.RecoverProb)
	}
	last := 0
	for i, e := range p.Schedule {
		if e.Tick < 0 {
			return fmt.Errorf("cluster: Schedule[%d].Tick = %d, need >= 0", i, e.Tick)
		}
		if e.Tick < last {
			return fmt.Errorf("cluster: Schedule[%d].Tick = %d out of order (previous %d)", i, e.Tick, last)
		}
		last = e.Tick
		if e.Peer < 0 || e.Peer >= peers {
			return fmt.Errorf("cluster: Schedule[%d].Peer = %d outside [0,%d)", i, e.Peer, peers)
		}
	}
	return nil
}

// RetryPolicy is the per-request timeout/retry contract: a request
// queued longer than TimeoutTicks is pulled from its queue and — up to
// MaxRetries times — re-dispatched after a deterministic exponential
// backoff onto an alternate d-choice candidate. A request that exhausts
// its retries counts as failed, never silently dropped.
type RetryPolicy struct {
	// TimeoutTicks is the queueing age (in ticks since dispatch) at
	// which a request times out. 0 disables timeouts, and with them
	// retries and failures.
	TimeoutTicks int
	// MaxRetries bounds the re-dispatch attempts per request.
	MaxRetries int
	// BackoffBase is the first retry delay in ticks; attempt a waits
	// BackoffBase·2^(a-1) ticks (0 defaults to 1).
	BackoffBase int
}

// Validate checks the policy.
func (p *RetryPolicy) Validate() error {
	if p.TimeoutTicks < 0 {
		return fmt.Errorf("cluster: TimeoutTicks = %d, need >= 0", p.TimeoutTicks)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("cluster: MaxRetries = %d, need >= 0", p.MaxRetries)
	}
	if p.BackoffBase < 0 {
		return fmt.Errorf("cluster: BackoffBase = %d, need >= 0", p.BackoffBase)
	}
	if p.TimeoutTicks == 0 && p.MaxRetries > 0 {
		return fmt.Errorf("cluster: MaxRetries = %d without TimeoutTicks: retries need a timeout", p.MaxRetries)
	}
	return nil
}

// Backoff returns the delay in ticks before retry attempt a (1-based):
// BackoffBase·2^(a-1), with a zero base treated as 1 and the shift
// clamped so the delay can never overflow.
func (p *RetryPolicy) Backoff(attempt int) int {
	base := p.BackoffBase
	if base == 0 {
		base = 1
	}
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 30 {
		shift = 30
	}
	return base << shift
}
