// Cluster engine: the balls-into-bins game as a churn-tolerant serving
// system. Requests are balls, heterogeneous servers are bins, and time
// advances in ticks; each tick dispatches an arrival batch through the
// multinomial block router (route.go) onto live-peer weights derived
// from a consistent-hashing ring (internal/chash), places it with the
// PlaceBatch kernels on queue-relative load, and services up to
// `capacity` requests per live server. Unlike every other engine,
// membership is dynamic: peers crash and recover at tick boundaries,
// and the request path carries the production behaviours that
// distinguishes a serving system from a static allocation — timeouts
// with bounded exponential-backoff retries, overload shedding, and
// degraded-mode accounting.
//
// # Tick structure
//
// One tick is: churn → re-shard and drain → admission → arrival
// routing → retry apportionment → the shard phase → retry/failure fold
// → observation → commit. Everything before the shard phase runs on
// the orchestrator and reads no placement: the re-shard and the
// apportionments read only the live weights. The shard phase is one
// task per shard (tickShard) that runs, in its placement stream's
// frozen order, the placer re-bind, the redistribution, arrival and
// retry placements, service and the timeout scan: each touches only
// its shard's state, so the tick passes one shard barrier (two with
// the routing phase), not one per step.
//
//   - Churn (ChurnPlan): scheduled events apply first, then
//     every peer consumes one Bernoulli draw from the tick's churn
//     substream — in peer order, applied or not, so the draw sequence
//     is frozen whatever the membership state. The last live peer is
//     never taken down.
//   - Re-shard: a crash or recovery flips the peer's live flag on the
//     ring (chash.Ring.RemovePeer/AddPeer — O(1), no RNG; its points
//     never leave the sorted ring, so recovery restores the identical
//     points). Only the peers the flips touched — the flipped peers and
//     the live ring successors of their points — get their arc weights
//     recomputed, only the shards holding a changed weight re-sum their
//     weight and reweight their placers, and the shard router is
//     rebuilt over the new shard weight sums. Both rebuilds happen in
//     place (protocol.Placer.Reweight, sampling.Multinomial.Rebuild),
//     so a churn tick allocates nothing once every table has been
//     rebuilt once; a placer is built by the factory only at setup and
//     for a shard whose live weight returns from zero. The dead peer's
//     resident queue is redistributed: each cohort is split over the
//     live shard weights by largest remainder (the streaming rebalance
//     rule — deterministic, no RNG) and re-placed by the destination
//     shards' placers (in the shard tasks), KEEPING its original
//     dispatch tick — redistribution does not reset the timeout clock.
//     The split depends only on the batch size and the live weights, so
//     each distinct size up to splitMax is split once per re-shard
//     (splitMemo) and every later batch of that size, redistributed or
//     retried, replays the memoized (shard, count) list.
//   - Admission: when ShedThreshold > 0, arrivals beyond
//     floor(threshold·live capacity) − queued are shed — counted,
//     never silently dropped. Retries bypass admission: a request the
//     system already accepted is not shed on its second attempt.
//   - Dispatch: the admitted batch routes block-wise (exact
//     multinomial count vectors) to shards and places on
//     queue-relative load. Destinations are recovered from per-shard
//     before/after queue deltas and recorded as cohorts — every ball
//     of one batch shares (dispatch tick, origin tick, attempt), so
//     per-request metadata costs O(changed bins), not O(balls).
//   - Service: each live server completes up to `capacity` requests
//     FIFO; response time (now − origin + 1, in ticks) folds into an
//     exact integer obs.Latency histogram per shard.
//   - Timeout: requests queued for TimeoutTicks or longer are pulled
//     and either re-dispatched after a deterministic exponential
//     backoff onto a fresh d-choice placement (an alternate candidate
//     — the queue state has moved on) or, after MaxRetries attempts,
//     counted failed. Pending retries wait in a min-heap on (due tick,
//     insertion order), which holds only the pending batches; a due
//     batch is apportioned like a redistributed one (scatter).
//   - Observation: at a cut tick, and in the final phase at the
//     horizon, the step driver summarises each shard's own peers (max
//     queue-relative load; at the horizon with HeightLevels also its
//     queue-depth histogram). A peer's shard is arithmetic (shardOf).
//
// # Determinism: the substream layout is part of the model
//
// Global stream 0 builds the ring. One tick consumes K = Shards + 2
// consecutive streams; tick t's base is 1 + t·K:
//
//	base+0      churn draws (one Uint64 per peer, peer order)
//	base+1      arrival routing (routing blocks as substreams)
//	base+2+s    shard s placement (redistribution, then arrivals,
//	            then retries — in that frozen phase order)
//
// Every stream is owned by one deterministic actor and every
// cross-shard fold is exact-integer or in shard order, so the result —
// counters, availability trace, latency histogram, trajectory — is a
// pure function of the spec and bit-identical across worker
// topologies, even with mid-flight crashes, recoveries, retries and
// shedding (pinned by the bit-identity matrix in cluster_test.go).
//
// # Cancellation and faults
//
// A tick is one step of the step driver (runner.go): the routing
// phase (one task per routing group), the shard phase (one task per
// shard) and, at a cut, the observe phase, while the churn, re-shard
// and admission steps are inline tasks on the orchestrator, all behind
// the runner's panic containment with {engine, task, tick, shard}
// provenance (index −1 for the inline steps). A shard task records the
// sub-step it is in, and a failure names that sub-step (subStep): its
// PanicError.Task and error label are "setup", "redistribute",
// "place", "retry" or "serve", as when each was a phase of its own.
// Cancellation is polled at task boundaries, at every barrier and at
// every tick boundary; a cancel anywhere in the tick abandons the
// whole tick, so a cancelled run returns a *CancelledError with
// CompletedTicks = k plus a partial whose counters, availability
// trace, latency histogram and trajectory are bit-identical to a run
// configured with Ticks = k. Fault sites: OpCrash (each applied churn
// event, peer in Site.Shard), OpReshard (ring/router rebuild with
// Shard = −1, each shard's redistribution sub-step), OpShed (the
// admission step), OpRetry (each shard's retry sub-step), plus the
// inherited OpRoute and OpPlace sites of the routing and placement
// kernels.
package sim

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/chash"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// ClusterResult holds a cluster run's own counters (Result.Cluster);
// the trajectory, the final queue-state statistics and the height
// counts live on the Result itself. All counters cover the
// COMPLETED-tick prefix (== the whole run unless cancelled).
type ClusterResult struct {
	// Ticks is the number of completed ticks.
	Ticks int
	// Request accounting. Conservation:
	// Admitted + Retried = Completed + TimedOut + FinalQueued and
	// Admitted = Completed + Failed + PendingRetry + FinalQueued.
	Arrived       int64 // offered requests
	Shed          int64 // rejected by admission control
	Admitted      int64 // accepted into the system
	Dispatched    int64 // balls placed: Admitted + Retried + Redistributed
	Completed     int64 // serviced
	TimedOut      int64 // pulled from a queue after TimeoutTicks
	Retried       int64 // re-dispatched after a timeout
	Failed        int64 // timed out with retries exhausted
	Redistributed int64 // moved off crashed peers
	FinalQueued   int64 // resident at the horizon
	PendingRetry  int64 // timed out, waiting on backoff at the horizon
	// Churn accounting.
	Crashes    int
	Recoveries int
	// LivePerTick[t] is the live-peer count during tick t (after that
	// tick's churn); Availability its mean over peers and ticks.
	LivePerTick  []int
	Availability float64
	// Latency is the exact integer response-time histogram of every
	// completed request (goodput = Latency.Count() == Completed).
	Latency *obs.Latency
}

// ClusterParams carries the serving-model parameters of a cluster run
// (RunSpec.Cluster). Their presence is what makes a spec a cluster
// spec: EngineAuto dispatches to the cluster engine iff Cluster is
// non-nil, and no other engine will silently run such a spec. The
// spec's Array supplies the peer capacities (ball counts are queue
// lengths); arrivals come from ArrivalsPerTick, not Config.Balls.
type ClusterParams struct {
	// Ticks is the simulation horizon, in [1, 2^31−1]: a request
	// records its ticks as int32.
	Ticks int
	// ArrivalsPerTick is the per-tick request count (>= 0). The run's
	// arrivals, Ticks·ArrivalsPerTick, may total at most 2^62.
	ArrivalsPerTick int64
	// VnodesPerUnit gives every peer capacity·VnodesPerUnit ring
	// points (0 = 2), so arc shares are capacity-proportional in
	// expectation — the ring-level version of the paper's non-uniform
	// selection probabilities.
	VnodesPerUnit int
	// Churn is the crash/recover plan (zero value = no churn).
	Churn ChurnPlan
	// Retry is the timeout/retry policy (zero value = no timeouts).
	Retry RetryPolicy
	// ShedThreshold arms admission control when > 0: arrivals that
	// would push the total queue beyond threshold·(live capacity) are
	// shed. 0 admits everything.
	ShedThreshold float64
	// LatencyMax is the latency histogram's top bucket in ticks
	// (0 = 32, at most maxLatencyMax = 65,536); completions slower than
	// that land in the overflow bucket. Every shard keeps a histogram
	// of its own, so the cap bounds their memory.
	LatencyMax int
}

// maxLatencyMax caps ClusterParams.LatencyMax.
const maxLatencyMax = 1 << 16

// maxPresizedTicks caps the ticks the availability trace is presized
// for (32 KB).
const maxPresizedTicks = 1 << 12

// validate checks the serving parameters for n peers.
func (p *ClusterParams) validate(n int) error {
	switch {
	case p.Ticks < 1:
		return fmt.Errorf("sim: Ticks = %d, need >= 1", p.Ticks)
	case p.Ticks > math.MaxInt32:
		return fmt.Errorf("sim: Ticks = %d, need <= 2^31-1", p.Ticks)
	case p.ArrivalsPerTick < 0:
		return fmt.Errorf("sim: ArrivalsPerTick = %d, need >= 0", p.ArrivalsPerTick)
	case p.ArrivalsPerTick > maxRunArrivals/int64(p.Ticks):
		return fmt.Errorf("sim: ArrivalsPerTick = %d over %d ticks exceeds 2^62 arrivals", p.ArrivalsPerTick, p.Ticks)
	case p.VnodesPerUnit < 0:
		return fmt.Errorf("sim: VnodesPerUnit = %d, need >= 0", p.VnodesPerUnit)
	case p.ShedThreshold < 0 || p.ShedThreshold != p.ShedThreshold:
		return fmt.Errorf("sim: ShedThreshold = %v, need >= 0", p.ShedThreshold)
	case p.LatencyMax < 0 || p.LatencyMax > maxLatencyMax:
		return fmt.Errorf("sim: LatencyMax = %d outside [0,%d]", p.LatencyMax, maxLatencyMax)
	}
	if err := p.Churn.Validate(n); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := p.Retry.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

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
// BackoffBase·2^(a-1), with a zero base treated as 1, the shift clamped
// to [0, 30], and the product saturating at math.MaxInt. The delay is
// therefore positive and non-decreasing in the attempt, and never
// overflows.
func (p *RetryPolicy) Backoff(attempt int) int {
	base := max(p.BackoffBase, 1)
	shift := min(max(attempt-1, 0), 30)
	if base > math.MaxInt>>shift {
		return math.MaxInt
	}
	return base << shift
}

// Cluster task kinds, after the step driver's: the one shard task of a
// tick, the inline churn, re-shard and admission steps, and the shard
// task's sub-steps. The sub-step kinds are never submitted; they name a
// failing shard task's sub-step (subStep).
const (
	clusterShardTick = stepKinds + iota
	clusterChurn
	clusterReshard
	clusterAdmit
	clusterSetup
	clusterRedist
	clusterPlace
	clusterRetry
	clusterServe
)

var clusterKinds = slices.Concat(stepNames, []taskName{
	{"tick", "tick shard"}, {"churn", "churn"}, {"reshard", "reshard"}, {"shed", "admission"},
	{"setup", "setup shard"}, {"redistribute", "redistribution shard"}, {"place", "shard"},
	{"retry", "retry shard"}, {"serve", "service shard"},
})

// cohort is a batch of requests sharing (dispatch tick, origin tick,
// attempt): one FIFO queue entry per peer per batch, so per-request
// metadata costs O(batches), not O(requests). It doubles as the
// work-list item of the redistribution/retry sub-steps and the expired
// record of the timeout scan (disp unused there).
type cohort struct {
	disp  int32 // dispatch tick (timeout clock; preserved across redistribution)
	orig  int32 // original arrival tick (latency clock)
	att   int16 // retry attempt (0 = first dispatch)
	count int64
}

// retryEntry is one timed-out batch waiting for its backoff to elapse.
type retryEntry struct {
	due   int32 // the tick it re-enters
	orig  int32
	att   int16  // the attempt this retry will be (1-based)
	seq   uint64 // insertion order, which breaks ties on due
	count int64
}

// before orders entries by (due, seq).
func (e *retryEntry) before(o *retryEntry) bool {
	return e.due < o.due || e.due == o.due && e.seq < o.seq
}

// retryHeap holds the pending retries as a binary min-heap on (due
// tick, insertion sequence): the batches due at a tick pop in the order
// they were pushed. It holds only the pending entries, and its slice
// keeps its capacity, so it stops allocating once it has grown to the
// run's peak backlog.
type retryHeap struct {
	h   []retryEntry
	seq uint64
}

// push adds e, stamping its insertion sequence.
func (q *retryHeap) push(e retryEntry) {
	e.seq = q.seq
	q.seq++
	q.h = append(q.h, e)
	for i := len(q.h) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.h[i].before(&q.h[p]) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

// popDue removes and returns the first entry if it is due at or before
// tick t.
func (q *retryHeap) popDue(t int) (retryEntry, bool) {
	if len(q.h) == 0 || int(q.h[0].due) > t {
		return retryEntry{}, false
	}
	top, n := q.h[0], len(q.h)-1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q.h[r].before(&q.h[m]) {
			m = r
		}
		if !q.h[m].before(&q.h[i]) {
			break
		}
		q.h[i], q.h[m] = q.h[m], q.h[i]
		i = m
	}
	return top, true
}

// qnode is one resident cohort in a shard's queue arena, linked into
// its peer's FIFO.
type qnode struct {
	cohort
	next int32 // next node of the same peer's FIFO, or -1
}

// cohortQueues holds the FIFO cohort queues of one shard's peers in a
// single node arena: each peer's queue is a linked list of arena
// nodes, and released nodes go on a free list, so once the arena has
// grown to the shard's peak resident cohort count, queueing never
// allocates. Only the shard's own task (or the orchestrator, between
// phases) touches it.
type cohortQueues struct {
	nodes      []qnode
	free       int32   // head of the free list, or -1
	head, tail []int32 // per local peer: first and last node, or -1
}

func newCohortQueues(peers int) cohortQueues {
	q := cohortQueues{free: -1, head: make([]int32, peers), tail: make([]int32, peers)}
	for i := range q.head {
		q.head[i], q.tail[i] = -1, -1
	}
	return q
}

// push appends c to local peer i's queue.
func (q *cohortQueues) push(i int, c cohort) {
	k := q.free
	if k >= 0 {
		q.free = q.nodes[k].next
		q.nodes[k] = qnode{cohort: c, next: -1}
	} else {
		k = int32(len(q.nodes))
		q.nodes = append(q.nodes, qnode{cohort: c, next: -1})
	}
	if t := q.tail[i]; t >= 0 {
		q.nodes[t].next = k
	} else {
		q.head[i] = k
	}
	q.tail[i] = k
}

// unlink removes node k, whose predecessor in peer i's queue is prev
// (-1 at the head), and releases it; it returns k's successor.
func (q *cohortQueues) unlink(i int, prev, k int32) int32 {
	next := q.nodes[k].next
	if prev < 0 {
		q.head[i] = next
	} else {
		q.nodes[prev].next = next
	}
	if q.tail[i] == k {
		q.tail[i] = prev
	}
	q.nodes[k].next = q.free
	q.free = k
	return next
}

// clusterShard is one shard's serving state: its peers' cohort
// queues, the placer-rebuild mark, the sub-step its tick task is in
// (failure provenance), the work list its redistribution and retry
// sub-steps place — redistribution cohorts first, retries from retryAt
// on — placeCohort's before-snapshot, the expired list of its timeout
// scan, and its service sub-step's latency scratch and served count.
// The shard's task writes all of it, so the slot is padded to whole
// cache lines: neighbouring shards' tasks run concurrently, and
// unpadded slots would false-share their headers.
type clusterShard struct {
	q       cohortQueues
	dirty   bool
	sub     int32
	work    []cohort
	retryAt int
	before  []int64
	expired []cohort
	lat     obs.Latency
	served  int64
	_       [256 - (80 + 8 + 8 + 3*24 + 40 + 8)]byte
}

// Compile-time guard: clusterShard must stay a whole number of 64-byte
// cache lines (re-size the pad above when fields change; a non-zero
// remainder makes this constant negative, which does not compile).
const _ uintptr = 0 - unsafe.Sizeof(clusterShard{})%64

// splitMax is the largest batch whose split splitMemo keeps: retried
// and redistributed batches are one peer's share of a placement, a
// few requests each.
const splitMax = 32

// splitPair is one receiving shard of a memoized split and its count.
type splitPair struct{ shard, count int32 }

// splitMemo memoizes the largest-remainder split of each batch size
// m <= splitMax over the live shard weights, as m's receiving (shard,
// count) pairs in shard order. A split is a pure function of (m,
// shardW, sumW), and those change only in reshardPlan, which clears
// the memo. A split of m has at most m receiving shards, so m's pairs
// have a fixed home at pairs[m(m−1)/2:], and the memo is fixed-size:
// it never allocates.
type splitMemo struct {
	n     [splitMax + 1]int32 // n[m]: m's receiving shards; 0 until memoized
	pairs [splitMax * (splitMax + 1) / 2]splitPair
}

// clusterState is the engine's whole working set, allocated once.
type clusterState struct {
	// stepper's shard plan is over the live per-peer arc weights
	// (0 = dead); weights, shardW, sumW and router follow every
	// re-shard.
	stepper
	p ClusterParams

	ring      *chash.Ring // also the one record of which peers are live
	toggled   []int       // peers crashed or recovered this tick
	touched   []int       // peers whose arc the tick's toggles may have changed
	crashed   []int       // peers crashed this tick
	recovered int         // peers recovered this tick
	caps      []int64
	liveCap   int64

	slots []clusterShard // per-shard serving state
	// retries holds the timed-out batches waiting on their backoff;
	// batches due at or after the horizon are never stored (they only
	// count in pendingRetry).
	retries retryHeap
	aport   []int64 // apportionment scratch
	ap      apportion
	splits  splitMemo
	crand   xrand.Rand

	// Tick-scoped fields, written by the orchestrator strictly between
	// phase barriers.
	nextEv       int
	admit, shedT int64 // this tick's admitted and shed arrivals
	liveQ        int64 // live queued-request total
	pendingRetry int64

	// res is the committed prefix, updated only when a tick completes,
	// so a cancelled run reports exactly the completed-tick state.
	res ClusterResult
}

// runCluster executes one cluster run of spec.Cluster's serving model:
// the spec's Array gives the peer capacities (ball counts are queue
// lengths), its Checkpoints are TICK indices — cut k observes queue
// occupancy and the maximum queue-relative load at the end of tick
// Checkpoints[k] — HeightLevels reports the final queue-depth
// distribution, and CancelAfter counts completed ticks. Dispatch
// (RunSpec.Cluster) is its only entry point.
func runCluster(spec *RunSpec) (*Result, error) {
	shards, err := spec.validate(EngineCluster)
	if err != nil {
		return nil, err
	}
	p := spec.Cluster
	// Global stream 0: ring construction. The vnode positions are the
	// only randomness membership ever consumes — churn flips live
	// flags, so a crash/recover cycle is RNG-free.
	caps := spec.Array.Capacities()
	vpu := p.VnodesPerUnit
	if vpu == 0 {
		vpu = 2
	}
	ring, err := chash.NewWeightedRing(caps, vpu, xrand.NewStream(spec.Seed, 0))
	if err != nil {
		return nil, fmt.Errorf("sim: RunCluster ring: %w", err)
	}
	sh, err := newSharded(engRunCluster, spec, shards, ring.ArcLengths())
	if err != nil {
		return nil, err
	}
	st := &clusterState{p: *p, ring: ring, caps: caps}
	// Every shard gets a view: churn can move weight onto any of them.
	if err := st.init(engRunCluster, spec, sh, p.Ticks, p.ArrivalsPerTick, true); err != nil {
		return nil, err
	}
	st.first, st.kk, st.routeAt, st.placeAt = 1, uint64(shards+2), 1, 2
	n := sh.n
	st.liveCap = st.totalCap

	st.aport = make([]int64, shards)
	st.ap = apportion{rem: make([]float64, shards), idx: make([]int, 0, shards)}
	st.slots = make([]clusterShard, shards)
	st.crashed = make([]int, 0, n)
	// Presized for at most maxPresizedTicks ticks: a longer run's trace
	// grows as its ticks complete, so setup never allocates by the
	// horizon.
	st.res.LivePerTick = make([]int, 0, min(p.Ticks, maxPresizedTicks))

	latMax := p.LatencyMax
	if latMax == 0 {
		latMax = 32
	}
	st.res.Latency, err = obs.NewLatency(latMax)
	if err != nil {
		return nil, fmt.Errorf("sim: RunCluster: %w", err)
	}
	for s := range st.slots {
		sl := &st.slots[s]
		peers := st.bounds[s+1] - st.bounds[s]
		sl.q = newCohortQueues(peers)
		sl.before = make([]int64, peers)
		lat, _ := obs.NewLatency(latMax)
		sl.lat = *lat
	}

	cerr, err := st.run(st, engRunCluster, clusterKinds)
	if err != nil {
		return nil, err
	}
	res, err := st.result(st.res.FinalQueued, cerr == nil)
	if err != nil {
		return nil, err
	}
	counters := st.res
	if counters.Ticks > 0 {
		var liveSum int64
		for _, l := range counters.LivePerTick {
			liveSum += int64(l)
		}
		counters.Availability = float64(liveSum) / float64(int64(st.n)*int64(counters.Ticks))
	}
	res.Cluster = &counters
	if cerr != nil {
		return res, cerr
	}
	return res, nil
}

// exec executes one task. Task state is indexed by (kind, idx) and
// every task touches only its own shard's (or routing group's) peers,
// queues and scratch, so any scheduling onto workers is bit-identical.
// The inline steps (churn, reshard, admission) run on the orchestrator.
func (st *clusterState) exec(kind, s, _ int) error {
	switch kind {
	case clusterShardTick:
		return st.tickShard(s)
	case clusterChurn:
		st.churnStep()
	case clusterReshard:
		return st.reshardPlan()
	case clusterAdmit:
		st.admission()
	default:
		return st.stepExec(kind, s)
	}
	return nil
}

// subStep names a failing shard task by the sub-step it was in, so its
// PanicError.Task and error label say which step of the tick failed.
func (st *clusterState) subStep(kind, s int) int {
	if kind == clusterShardTick {
		return int(st.slots[s].sub)
	}
	return kind
}

// tickShard is shard s's whole share of a tick, in the frozen order of
// its placement stream: re-bind the placer if churn changed the
// shard's weights, place the redistribution cohorts, the arrival
// cohort and the retry cohorts, then serve and (timeouts armed) scan
// for timeouts. Each step touches only the shard's own state, and the
// orchestrator writes nothing the later steps read, so one task runs
// them all: one barrier per tick instead of one per step.
func (st *clusterState) tickShard(s int) error {
	sl := &st.slots[s]
	sl.sub = clusterSetup
	if err := st.setupShard(s); err != nil {
		return err
	}
	if sl.retryAt > 0 {
		sl.sub = clusterRedist
		st.placeWork(s, fault.OpReshard, sl.work[:sl.retryAt])
	}
	// counts is stale when the tick routed nothing.
	if st.admit > 0 && st.counts[s] > 0 {
		sl.sub = clusterPlace
		tick := int32(st.step)
		st.placeCohort(s, tick, tick, 0, st.counts[s])
	}
	if len(sl.work) > sl.retryAt {
		sl.sub = clusterRetry
		st.placeWork(s, fault.OpRetry, sl.work[sl.retryAt:])
	}
	sl.work, sl.retryAt = sl.work[:0], 0
	sl.sub = clusterServe
	st.serveShard(s)
	if st.p.Retry.TimeoutTicks > 0 {
		st.expireShard(s)
	}
	return nil
}

// placeWork re-places apportioned cohorts on shard s; op is the fault
// site of the sub-step (redistribution or retry).
func (st *clusterState) placeWork(s int, op fault.Op, work []cohort) {
	if fault.Enabled {
		fault.Hit(fault.Site{Engine: engRunCluster, Op: op, Rep: st.step, Shard: s, Block: -1})
	}
	for _, it := range work {
		st.placeCohort(s, it.disp, it.orig, it.att, it.count)
	}
}

// setupShard, the first sub-step of shard s's tick task, re-binds the
// shard's placer after churn to the live-peer weight slice reshardPlan
// re-summed: Reweight in place when the shard has a placer, the
// factory when it has none (live weight returning from zero). The step
// driver's setup phase made the initial binds. Only shards whose
// weights changed since the last bind are dirty; a shard whose live
// weight vanished entirely (every peer down) gets a nil placer — the
// router can never route a ball there.
func (st *clusterState) setupShard(s int) error {
	if !st.slots[s].dirty {
		return nil
	}
	st.slots[s].dirty = false
	if st.shardW[s] <= 0 {
		st.placers[s] = boundPlacer{}
		return nil
	}
	w := st.weights[st.bounds[s]:st.bounds[s+1]]
	if pl := st.placers[s].Placer; pl != nil {
		return pl.Reweight(w)
	}
	var err error
	st.placers[s], err = newPlacer(st.factory, st.views[s], w)
	return err
}

// placeCohort places one batch on shard s and records the receiving
// peers: snapshot the shard's queue lengths, run the placement kernel,
// and append a cohort to every peer whose queue grew. All balls of the
// batch share (disp, orig, att), so the delta scan loses nothing.
func (st *clusterState) placeCohort(s int, disp, orig int32, att int16, count int64) {
	if count == 0 {
		return
	}
	view := st.views[s]
	b := st.slots[s].before
	for i := range b {
		b[i] = view.Balls(i)
	}
	st.place(s, count)
	q := &st.slots[s].q
	for i := range b {
		if d := view.Balls(i) - b[i]; d > 0 {
			q.push(i, cohort{disp: disp, orig: orig, att: att, count: d})
		}
	}
}

// serveShard is the tick's service on shard s: every live peer
// completes up to `capacity` requests FIFO, folding response times
// into the shard's per-tick latency scratch.
func (st *clusterState) serveShard(s int) {
	sl := &st.slots[s]
	lat := &sl.lat
	lat.Reset()
	var done int64
	now := int64(st.step)
	q := &sl.q
	lo := st.bounds[s]
	for p := lo; p < st.bounds[s+1]; p++ {
		if !st.ring.Live(p) {
			continue
		}
		i := p - lo
		budget := st.caps[p]
		var served int64
		for k := q.head[i]; budget > 0 && k >= 0; k = q.head[i] {
			c := &q.nodes[k].cohort
			take := c.count
			if take > budget {
				take = budget
			}
			lat.ObserveN(now-int64(c.orig)+1, take)
			c.count -= take
			budget -= take
			served += take
			if c.count > 0 {
				break
			}
			q.unlink(i, -1, k)
		}
		if served > 0 {
			st.views[s].RemoveBalls(i, served)
			done += served
		}
	}
	sl.served = done
}

// expireShard is the tick's timeout scan on shard s, run by the
// shard's tick task right after serveShard when timeouts are armed:
// cohorts dispatched at or before tick − TimeoutTicks leave their
// queues and are recorded for the orchestrator's retry/failure fold.
// The scan covers whole queues, not just heads — redistributed cohorts
// keep their original dispatch ticks, so a queue is not disp-sorted.
func (st *clusterState) expireShard(s int) {
	// In int: a timeout beyond the int32 tick range must not wrap
	// into a cutoff that expires every cohort.
	cutoff := st.step - st.p.Retry.TimeoutTicks
	sl := &st.slots[s]
	exp := sl.expired[:0]
	q := &sl.q
	for i := range q.head {
		var gone int64
		prev := int32(-1)
		for k := q.head[i]; k >= 0; {
			c := q.nodes[k].cohort
			if int(c.disp) > cutoff {
				prev, k = k, q.nodes[k].next
				continue
			}
			exp = append(exp, c)
			gone += c.count
			k = q.unlink(i, prev, k)
		}
		if gone > 0 {
			st.views[s].RemoveBalls(i, gone)
		}
	}
	sl.expired = exp
}

// toggle crashes (down) or revives peer p, recording it in the tick's
// crashed list or recovery count. An event that does not apply — p is
// already in that state, or p is the last live peer (the engine
// degrades, it never dies) — changes nothing.
func (st *clusterState) toggle(p int, down bool) {
	if st.ring.Live(p) != down || (down && st.ring.NumLive() <= 1) {
		return
	}
	if fault.Enabled {
		fault.Hit(fault.Site{Engine: engRunCluster, Op: fault.OpCrash, Rep: st.step, Shard: p, Block: -1})
	}
	var err error
	if down {
		err = st.ring.RemovePeer(p)
		st.liveCap -= st.caps[p]
		st.crashed = append(st.crashed, p)
	} else {
		err = st.ring.AddPeer(p)
		st.liveCap += st.caps[p]
		st.recovered++
	}
	if err != nil {
		panic(err) // checked above; contained by the churn task
	}
	st.toggled = append(st.toggled, p)
}

// churnStep applies the tick's membership changes: scheduled events
// first, then one Bernoulli draw per peer (in peer order, consumed
// whether or not it applies) from the tick's churn substream. It runs
// as an inline task on the orchestrator and leaves the tick's crashed
// peers and recovery count in st.crashed and st.recovered.
func (st *clusterState) churnStep() {
	st.crashed, st.recovered, st.toggled = st.crashed[:0], 0, st.toggled[:0]
	sched := st.p.Churn.Schedule
	for ; st.nextEv < len(sched) && sched[st.nextEv].Tick <= st.step; st.nextEv++ {
		if e := sched[st.nextEv]; e.Tick == st.step {
			st.toggle(e.Peer, e.Down)
		}
	}
	if st.p.Churn.Stochastic() {
		st.crand.Seed(xrand.Mix64(st.seed, st.base))
		down, up := churnThreshold(st.p.Churn.CrashProb), churnThreshold(st.p.Churn.RecoverProb)
		for p := 0; p < st.n; p++ {
			k := st.crand.Uint64() >> 11
			if live := st.ring.Live(p); live && k < down || !live && k < up {
				st.toggle(p, live)
			}
		}
	}
}

// churnThreshold is the integer form of a churn draw's test: for the
// draw's top 53 bits k, k < churnThreshold(p) exactly when Float64's
// k/2^53 < p. p·2^53 is exact (a power-of-two scaling of p in [0,1],
// which ChurnPlan.Validate enforces), and for an integer k, k < x
// holds iff k < ⌈x⌉.
func churnThreshold(p float64) uint64 {
	return uint64(math.Ceil(p * 0x1p53))
}

// reshardPlan recomputes routing after churn: fresh arc weights for
// the peers the tick's toggles touched (bit-identical to a full arc
// pass — every other peer's arc is unchanged), dirty marks on exactly
// the shards whose weight slice changed, their re-summed shard
// weights, and the multinomial router rebuilt in place. O(toggled
// peers' points + shards), not O(ring). An inline task on the
// orchestrator.
func (st *clusterState) reshardPlan() error {
	if fault.Enabled {
		fault.Hit(fault.Site{Engine: engRunCluster, Op: fault.OpReshard, Rep: st.step, Shard: -1, Block: -1})
	}
	st.splits.n = [splitMax + 1]int32{} // the weights move: forget every split
	st.touched = st.ring.TouchedPeers(st.toggled, st.touched[:0])
	for _, p := range st.touched {
		if w := st.ring.PeerArc(p); w != st.weights[p] {
			st.weights[p] = w
			st.slots[st.shardOf(p)].dirty = true
		}
	}
	st.sumW = 0
	for s := 0; s < st.shards; s++ {
		if st.slots[s].dirty {
			var w float64
			for i := st.bounds[s]; i < st.bounds[s+1]; i++ {
				w += st.weights[i]
			}
			st.shardW[s] = w
		}
		st.sumW += st.shardW[s]
	}
	// The error is unreachable while a peer lives; surfaced loudly if not.
	return st.router.Rebuild(st.shardW)
}

// admission is the shedding step, an inline task on the orchestrator:
// of the tick's arrivals, admit what fits under ShedThreshold × live
// capacity given the current occupancy and shed the rest. A limit of
// 2^63 or more (+Inf included) admits everything: its conversion to
// int64 is implementation-dependent in Go (MinInt64 on amd64, which
// would shed everything; saturated on arm64).
func (st *clusterState) admission() {
	if fault.Enabled {
		fault.Hit(fault.Site{Engine: engRunCluster, Op: fault.OpShed, Rep: st.step, Shard: -1, Block: -1})
	}
	room := int64(math.MaxInt64)
	if limit := math.Floor(st.p.ShedThreshold * float64(st.liveCap)); limit < math.MaxInt64 {
		room = int64(limit) - st.liveQ
	}
	st.admit = min(st.p.ArrivalsPerTick, max(room, 0))
	st.shedT = st.p.ArrivalsPerTick - st.admit
}

// drainCrashed empties the queues of this tick's crashed peers into
// the shards' work lists, ahead of any retries (retryAt marks their
// end): each resident cohort is split over the live shard weights by
// largest remainder (deterministic, integer-exact, no RNG), keeping
// its original dispatch AND origin ticks, so neither the timeout nor
// the latency clock resets. Returns the number of requests moved.
func (st *clusterState) drainCrashed() int64 {
	var moved int64
	for _, p := range st.crashed {
		s := st.shardOf(p)
		q := &st.slots[s].q
		i := p - st.bounds[s]
		for k := q.head[i]; k >= 0; k = q.unlink(i, -1, k) {
			c := q.nodes[k].cohort
			st.views[s].RemoveBalls(i, c.count)
			st.scatter(c)
			moved += c.count
		}
	}
	// The work lists were empty before the drain.
	for s := range st.slots {
		st.slots[s].retryAt = len(st.slots[s].work)
	}
	return moved
}

// scatter splits batch c over the live shard weights and appends one
// piece per receiving shard, in shard order, to that shard's work
// list; a piece keeps c's ticks and attempt and carries its share as
// its count.
func (st *clusterState) scatter(c cohort) {
	if c.count <= splitMax {
		for _, sp := range st.split(int(c.count)) {
			c.count = int64(sp.count)
			sl := &st.slots[sp.shard]
			sl.work = append(sl.work, c)
		}
		return
	}
	st.ap.split(c.count, st.shardW, st.sumW, st.aport)
	for s, cnt := range st.aport {
		if cnt > 0 {
			c.count = cnt
			st.slots[s].work = append(st.slots[s].work, c)
		}
	}
}

// split is the memoized split of a batch of m <= splitMax balls: its
// receiving (shard, count) pairs in shard order, computed by
// apportion.split on the first batch of size m since the last re-shard.
func (st *clusterState) split(m int) []splitPair {
	memo := &st.splits
	at := m * (m - 1) / 2
	if n := int(memo.n[m]); n > 0 {
		return memo.pairs[at : at+n]
	}
	st.ap.split(int64(m), st.shardW, st.sumW, st.aport)
	n := 0
	for s, cnt := range st.aport {
		if cnt > 0 {
			memo.pairs[at+n] = splitPair{shard: int32(s), count: int32(cnt)}
			n++
		}
	}
	memo.n[m] = int32(n)
	return memo.pairs[at : at+n]
}

// runStep plays tick t: churn → re-shard and drain → admission →
// arrival routing → retry apportionment → one shard task per shard
// (re-bind, redistribution, arrivals, retries, service, timeout scan)
// → retry/failure fold → observation → commit.
func (st *clusterState) runStep(t int) (ok bool, err error) {
	// Churn, then (membership changed) the incremental re-shard and the
	// crashed peers' queues drained into the redistribution work lists.
	if ok, err := st.inline(clusterChurn); !ok {
		return false, err
	}
	tickLive := st.ring.NumLive()
	var movedT int64
	if len(st.crashed) > 0 || st.recovered > 0 {
		if ok, err := st.inline(clusterReshard); !ok {
			return false, err
		}
		movedT = st.drainCrashed()
	}

	// Admission: shed what would push the cluster past ShedThreshold ×
	// live capacity. Counted, never silently dropped.
	st.admit, st.shedT = st.p.ArrivalsPerTick, 0
	if st.p.ShedThreshold > 0 {
		if ok, err := st.inline(clusterAdmit); !ok {
			return false, err
		}
	}

	// Arrival routing: block-wise multinomial routing over the live
	// shard weights into counts; the shard tasks place them.
	if st.admit > 0 {
		if ok, err := st.route(st.admit, stepRoute, 0); !ok {
			return false, err
		}
		st.liveQ += st.admit
	}

	// Retry apportionment: batches whose backoff elapses this tick
	// re-enter, split over the live shard weights behind the
	// redistribution cohorts; the shard tasks re-place them on the
	// queue state their arrivals leave — a fresh d-choice placement,
	// hence an alternate candidate. Retries bypass admission.
	var retriedT int64
	for {
		e, ok := st.retries.popDue(t)
		if !ok {
			break
		}
		st.scatter(cohort{disp: int32(t), orig: e.orig, att: e.att, count: e.count})
		retriedT += e.count
	}
	st.pendingRetry -= retriedT
	st.liveQ += retriedT

	// The shard phase: every shard's placements, service and timeout
	// scan in one task (tickShard).
	if ok, err := st.phase(clusterShardTick, st.shards); !ok {
		return false, err
	}

	// Fold service and timeouts: each expired batch either schedules a
	// backed-off retry or — retries exhausted — counts failed. A retry
	// due at or after the horizon only counts as pending (d < Ticks − t
	// cannot overflow, however large the backoff).
	var doneT int64
	for s := 0; s < st.shards; s++ {
		doneT += st.slots[s].served
	}
	st.liveQ -= doneT
	var timedOutT, failedT int64
	if st.p.Retry.TimeoutTicks > 0 {
		for s := 0; s < st.shards; s++ {
			for _, e := range st.slots[s].expired {
				timedOutT += e.count
				if int(e.att) < st.p.Retry.MaxRetries {
					att := e.att + 1
					if d := st.p.Retry.Backoff(int(att)); d < st.p.Ticks-t {
						st.retries.push(retryEntry{due: int32(t + d), orig: e.orig, att: att, count: e.count})
					}
					st.pendingRetry += e.count
				} else {
					failedT += e.count
				}
			}
		}
		st.liveQ -= timedOutT
	}

	// Observation of a cut at tick t+1: queue occupancy and max
	// queue-relative load.
	if ok, err := st.observe(st.liveQ); !ok {
		return false, err
	}

	// Commit: the tick is now part of the result prefix. Latency folds
	// in shard order — integer adds, exactly associative.
	c := &st.res
	c.Ticks = t + 1
	c.Arrived += st.p.ArrivalsPerTick
	c.Shed += st.shedT
	c.Admitted += st.admit
	c.Retried += retriedT
	c.Redistributed += movedT
	c.Dispatched += st.admit + retriedT + movedT
	c.Completed += doneT
	c.TimedOut += timedOutT
	c.Failed += failedT
	c.Crashes += len(st.crashed)
	c.Recoveries += st.recovered
	c.LivePerTick = append(c.LivePerTick, tickLive)
	for s := 0; s < st.shards; s++ {
		if err := c.Latency.Merge(&st.slots[s].lat); err != nil {
			return false, err
		}
	}
	c.FinalQueued = st.liveQ
	c.PendingRetry = st.pendingRetry
	return true, nil
}
