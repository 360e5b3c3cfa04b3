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
// One tick is: churn → re-shard/redistribute → admission → arrival
// dispatch → retry dispatch → service → timeout scan → observation →
// commit.
//
//   - Churn (cluster.ChurnPlan): scheduled events apply first, then
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
//     weight and rebuild their placers, and the shard router is rebuilt
//     over the new shard weight sums. The dead peer's resident queue is
//     redistributed: each cohort is split over the live shard weights
//     by largest remainder (the streaming rebalance rule —
//     deterministic, no RNG) and re-placed by the destination shards'
//     placers, KEEPING its original dispatch tick — redistribution
//     does not reset the timeout clock.
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
//     counted failed.
//
// # Determinism: the substream layout is part of the model
//
// Global stream 0 builds the ring. One tick consumes K = Shards + 2
// consecutive streams; tick t's base is 1 + t·K:
//
//	base+0      churn draws (one Float64 per peer, peer order)
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
// Cancellation is tick-granular: a cancelled run returns a
// *CancelledError with CompletedTicks = k plus a partial whose
// counters, availability trace, latency histogram and trajectory are
// bit-identical to a run configured with Ticks = k. Every phase of a
// tick is one barrier on the phase runner (runner.go), each task behind
// its panic containment with {engine, task, tick, peer/shard}
// provenance. Fault sites: OpCrash (each applied churn event, peer in
// Site.Shard), OpReshard (ring/router rebuild with Shard = −1, each
// shard's redistribution task), OpShed (the admission step), OpRetry
// (each shard's retry-dispatch task), plus the inherited OpRoute and
// OpPlace sites of the routing and placement kernels.
package sim

import (
	"fmt"
	"math"

	"repro/internal/bins"
	"repro/internal/chash"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/xrand"
)

// ClusterResult aggregates one cluster run. All counters cover the
// COMPLETED-tick prefix (== the whole run unless cancelled).
type ClusterResult struct {
	// N is the number of peers; Shards the realised shard count; Ticks
	// the number of completed ticks.
	N      int
	Shards int
	Ticks  int
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
	// Checkpoints holds the tick-indexed trajectory rows (Balls is the
	// tick index, RealBalls the queued-request count at that tick's
	// end, MaxLoad the maximum queue-relative load).
	Checkpoints []obs.CheckpointRow
	// Final-state fields, zero/nil on a cancelled run: the maximum and
	// average queue-relative load at the horizon, the queue-depth
	// height counts (when HeightLevels was requested), and the final
	// queue state itself.
	MaxQueueLoad float64
	AvgQueueLoad float64
	HeightCounts []obs.HeightRow
	Array        *bins.Array
}

// Cluster task kinds: one per phase of a tick, plus the placer
// (re)build setup phase.
const (
	clusterSetup = iota
	clusterRoute
	clusterPlace
	clusterRedist
	clusterRetry
	clusterServe
	clusterExpire
	clusterObserve
)

var clusterKinds = []taskName{
	{"setup", "setup shard"}, {"route", "routing group"}, {"place", "shard"},
	{"redistribute", "redistribution shard"}, {"retry", "retry shard"},
	{"serve", "service shard"}, {"expire", "timeout shard"}, {"observe", "observe shard"},
}

// cohort is a batch of requests sharing (dispatch tick, origin tick,
// attempt): one FIFO queue entry per peer per batch, so per-request
// metadata costs O(batches), not O(requests). It doubles as the
// work-list item of the redistribution/retry phases and the expired
// record of the timeout scan (disp unused there).
type cohort struct {
	disp  int32 // dispatch tick (timeout clock; preserved across redistribution)
	orig  int32 // original arrival tick (latency clock)
	att   int16 // retry attempt (0 = first dispatch)
	count int64
}

// retryEntry is one timed-out batch waiting for its backoff to elapse.
type retryEntry struct {
	orig  int32
	att   int16 // the attempt this retry will be (1-based)
	count int64
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

// clusterState is the engine's whole working set, allocated once.
type clusterState struct {
	// sharded is the shard plan over the live per-peer arc weights
	// (0 = dead); weights, shardW and router follow every re-shard.
	sharded
	p    ClusterParams
	cc   *canceller
	seed uint64
	kk   uint64 // RNG streams consumed per tick: shards + 2
	// levels and cancelAfter are the spec's HeightLevels and
	// CancelAfter (in ticks).
	levels, cancelAfter int

	ring      *chash.Ring // also the one record of which peers are live
	toggled   []int       // peers crashed or recovered this tick
	touched   []int       // peers whose arc the tick's toggles may have changed
	caps      []int64
	totalCap  int64
	liveCap   int64
	peerShard []int32

	sumW    float64
	views   []*bins.Array
	placers []protocol.Placer
	dirty   []bool

	queues []cohortQueues // per-shard arenas of the peers' resident cohort FIFOs
	// retryWheel[d % len] holds the timed-out batches due at tick d.
	// Backoffs are at most len−1 ticks, so the pending due ticks never
	// share a slot; batches due at or after the horizon are never
	// stored (they only count in pendingRetry).
	retryWheel     [][]retryEntry
	work           [][]cohort // per-shard redistribution/retry work lists
	aport          []int64    // apportionment scratch
	ap             apportion
	before         [][]int64 // per-shard queue-snapshot scratch (delta scans)
	svcLat         []*obs.Latency
	svcDone        []int64
	expired        [][]cohort
	crashedScratch []int

	rands  []xrand.Rand
	crand  xrand.Rand
	groups []routeGroup
	counts []int64

	cuts     []int64
	nCuts    int
	nextCut  int
	cp       *obs.Checkpoints
	trackRow []float64
	trackMat [][]float64
	maxOut   []float64

	pl pool
	ph phase

	// Tick-scoped fields, written by the orchestrator strictly between
	// phase barriers.
	tick         int
	tbase        uint64
	rrbase       uint64
	curM         int64
	rgr          int
	nextEv       int
	liveQ        int64 // live queued-request total
	pendingRetry int64

	// Committed prefix: updated only when a tick completes, so a
	// cancelled run reports exactly the completed-tick state.
	ticksDone     int
	arrived       int64
	shed          int64
	admitted      int64
	dispatched    int64
	completed     int64
	timedOut      int64
	retried       int64
	failed        int64
	redistributed int64
	crashes       int
	recoveries    int
	livePerTick   []int
	lat           *obs.Latency
	cQueued       int64
	cPending      int64
}

// runCluster executes one cluster run of spec.Cluster's serving model:
// the spec's Array gives the peer capacities (ball counts are queue
// lengths), its Checkpoints are TICK indices — cut k observes queue
// occupancy and the maximum queue-relative load at the end of tick
// Checkpoints[k] — HeightLevels reports the final queue-depth
// distribution, and CancelAfter counts completed ticks. Unexported by
// design: Dispatch (RunSpec.Cluster) is the only public entry point.
func runCluster(spec *RunSpec) (*ClusterResult, error) {
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
	n := sh.n
	st := &clusterState{
		sharded:     sh,
		p:           *p,
		cc:          newCanceller(spec.Context),
		seed:        spec.Seed,
		kk:          uint64(shards + 2),
		levels:      spec.HeightLevels,
		cancelAfter: spec.CancelAfter,
		ring:        ring,
		caps:        caps,
	}
	st.totalCap = sh.arr.TotalCapacity()
	st.liveCap = st.totalCap

	for _, w := range st.shardW {
		st.sumW += w
	}
	st.peerShard = make([]int32, n)
	for s := 0; s < shards; s++ {
		for i := st.bounds[s]; i < st.bounds[s+1]; i++ {
			st.peerShard[i] = int32(s)
		}
	}

	rg := sh.routeWidth(p.ArrivalsPerTick)
	st.groups = newRouteGroups(rg, shards, 0)

	st.counts = make([]int64, shards)
	st.aport = make([]int64, shards)
	st.ap = apportion{rem: make([]float64, shards), idx: make([]int, 0, shards)}
	st.dirty = make([]bool, shards)
	st.rands = make([]xrand.Rand, shards)
	st.views = make([]*bins.Array, shards)
	st.placers = make([]protocol.Placer, shards)
	st.work = make([][]cohort, shards)
	st.before = make([][]int64, shards)
	st.svcLat = make([]*obs.Latency, shards)
	st.svcDone = make([]int64, shards)
	st.expired = make([][]cohort, shards)
	st.queues = make([]cohortQueues, shards)
	maxDelay := p.Retry.Backoff(p.Retry.MaxRetries)
	if maxDelay < 1 || maxDelay > p.Ticks {
		maxDelay = p.Ticks
	}
	st.retryWheel = make([][]retryEntry, maxDelay+1)
	st.crashedScratch = make([]int, 0, n)
	st.livePerTick = make([]int, 0, p.Ticks)

	latMax := p.LatencyMax
	if latMax == 0 {
		latMax = 32
	}
	st.lat, err = obs.NewLatency(latMax)
	if err != nil {
		return nil, fmt.Errorf("sim: RunCluster: %w", err)
	}
	for s := 0; s < shards; s++ {
		st.views[s], err = sh.arr.Shard(st.bounds[s], st.bounds[s+1])
		if err != nil {
			return nil, fmt.Errorf("sim: RunCluster shard %d: %w", s, err)
		}
		st.before[s] = make([]int64, st.views[s].N())
		st.queues[s] = newCohortQueues(st.views[s].N())
		st.svcLat[s], _ = obs.NewLatency(latMax)
		st.dirty[s] = true // initial build: every placer
	}

	cuts, _ := obs.NormalizeCuts(spec.Checkpoints) // validated above
	st.cuts = cuts
	st.nCuts = obs.CountReached(cuts, int64(p.Ticks))
	if len(cuts) > 0 {
		st.cp = obs.NewCheckpoints(cuts)
	}
	st.trackRow = make([]float64, shards)
	st.trackMat = [][]float64{st.trackRow}
	st.maxOut = make([]float64, 1)

	st.ph = phase{pool: &st.pl, x: st, engine: engRunCluster, names: clusterKinds}
	st.pl.start(sh.poolWidth(rg))
	res, err := st.orchestrate(p.Ticks)
	st.pl.close()
	return res, err
}

// exec executes one task. Task state is indexed by (kind, idx) and
// every task touches only its own shard's (or routing group's) peers,
// queues and scratch, so any scheduling onto workers is bit-identical.
func (st *clusterState) exec(kind, s int) error {
	switch kind {
	case clusterSetup:
		return st.setupShard(s)
	case clusterRoute:
		st.groups[s].reset()
		st.groups[s].route(st.cc, engRunCluster, st.tick, st.rrbase, st.router, st.curM, s, st.rgr, nil, nil)
	case clusterPlace:
		if st.counts[s] > 0 {
			tick := int32(st.tick)
			st.placeCohort(s, tick, tick, 0, st.counts[s])
		}
	case clusterRedist, clusterRetry:
		// Both re-place the shard's apportioned work list; only the
		// fault site differs.
		if len(st.work[s]) > 0 {
			if fault.Enabled {
				op := fault.OpReshard
				if kind == clusterRetry {
					op = fault.OpRetry
				}
				fault.Hit(fault.Site{Engine: engRunCluster, Op: op, Rep: st.tick, Shard: s, Block: -1})
			}
			for _, it := range st.work[s] {
				st.placeCohort(s, it.disp, it.orig, it.att, it.count)
			}
			st.work[s] = st.work[s][:0]
		}
	case clusterServe:
		st.serveShard(s)
	case clusterExpire:
		st.expireShard(s)
	case clusterObserve:
		st.trackRow[s] = st.views[s].MaxLoad()
	}
	return nil
}

// setupShard (re)builds shard s's placer over the current live-peer
// weight slice. Only shards whose weights changed since the last build
// are dirty; a shard whose live weight vanished entirely (every peer
// down) gets a nil placer — the router can never route a ball there.
func (st *clusterState) setupShard(s int) (err error) {
	if !st.dirty[s] {
		return nil
	}
	st.dirty[s] = false
	w := st.weights[st.bounds[s]:st.bounds[s+1]]
	var sum float64
	for _, v := range w {
		sum += v
	}
	if sum <= 0 {
		st.placers[s] = nil
		return nil
	}
	st.placers[s], err = st.factory(st.views[s], w)
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
	b := st.before[s]
	for i := range b {
		b[i] = view.Balls(i)
	}
	placeSegment(st.cc, engRunCluster, st.tick, s, st.placers[s], view, &st.rands[s], count)
	q := &st.queues[s]
	for i := range b {
		if d := view.Balls(i) - b[i]; d > 0 {
			q.push(i, cohort{disp: disp, orig: orig, att: att, count: d})
		}
	}
}

// serveShard is the tick's service phase on shard s: every live peer
// completes up to `capacity` requests FIFO, folding response times
// into the shard's per-tick latency scratch.
func (st *clusterState) serveShard(s int) {
	lat := st.svcLat[s]
	lat.Reset()
	var done int64
	now := int64(st.tick)
	q := &st.queues[s]
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
	st.svcDone[s] = done
}

// expireShard is the tick's timeout scan on shard s: cohorts
// dispatched at or before tick − TimeoutTicks leave their queues and
// are recorded for the orchestrator's retry/failure fold. The scan
// covers whole queues, not just heads — redistributed cohorts keep
// their original dispatch ticks, so a queue is not disp-sorted.
func (st *clusterState) expireShard(s int) {
	cutoff := int32(st.tick - st.p.Retry.TimeoutTicks)
	exp := st.expired[s][:0]
	q := &st.queues[s]
	for i := range q.head {
		var gone int64
		prev := int32(-1)
		for k := q.head[i]; k >= 0; {
			c := q.nodes[k].cohort
			if c.disp > cutoff {
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
	st.expired[s] = exp
}

// crash takes peer p off the ring. Returns false when the event does
// not apply (already down, or p is the last live peer — the engine
// degrades, it never dies).
func (st *clusterState) crash(t, p int) bool {
	if !st.ring.Live(p) || st.ring.NumLive() <= 1 {
		return false
	}
	if fault.Enabled {
		fault.Hit(fault.Site{Engine: engRunCluster, Op: fault.OpCrash, Rep: t, Shard: p, Block: -1})
	}
	if err := st.ring.RemovePeer(p); err != nil {
		panic(err) // checked above; contained by churnStep
	}
	st.liveCap -= st.caps[p]
	st.toggled = append(st.toggled, p)
	return true
}

// revive puts peer p's ring points back in service. Returns false when
// p is already live.
func (st *clusterState) revive(t, p int) bool {
	if st.ring.Live(p) {
		return false
	}
	if fault.Enabled {
		fault.Hit(fault.Site{Engine: engRunCluster, Op: fault.OpCrash, Rep: t, Shard: p, Block: -1})
	}
	if err := st.ring.AddPeer(p); err != nil {
		panic(err)
	}
	st.liveCap += st.caps[p]
	st.toggled = append(st.toggled, p)
	return true
}

// churnStep applies tick t's membership changes: scheduled events
// first, then one Bernoulli draw per peer (in peer order, consumed
// whether or not it applies) from the tick's churn substream. It runs
// on the orchestrator behind its own recover.
func (st *clusterState) churnStep(t int) (crashed []int, recovered int, err error) {
	defer func() {
		if r := recover(); r != nil {
			crashed, recovered = nil, 0
			err = fmt.Errorf("sim: RunCluster churn: %w", newPanicError(engRunCluster, "churn", t, -1, r))
		}
	}()
	crashed = st.crashedScratch[:0]
	st.toggled = st.toggled[:0]
	sched := st.p.Churn.Schedule
	for st.nextEv < len(sched) && sched[st.nextEv].Tick <= t {
		e := sched[st.nextEv]
		st.nextEv++
		if e.Tick < t {
			continue
		}
		if e.Down {
			if st.crash(t, e.Peer) {
				crashed = append(crashed, e.Peer)
			}
		} else if st.revive(t, e.Peer) {
			recovered++
		}
	}
	if st.p.Churn.Stochastic() {
		st.crand.Seed(xrand.Mix64(st.seed, st.tbase))
		for p := 0; p < st.n; p++ {
			u := st.crand.Float64()
			if st.ring.Live(p) {
				if u < st.p.Churn.CrashProb && st.crash(t, p) {
					crashed = append(crashed, p)
				}
			} else if u < st.p.Churn.RecoverProb && st.revive(t, p) {
				recovered++
			}
		}
	}
	st.crashedScratch = crashed[:0]
	return crashed, recovered, nil
}

// reshardPlan recomputes routing after churn: fresh arc weights for
// the peers the tick's toggles touched (bit-identical to a full arc
// pass — every other peer's arc is unchanged), dirty marks on exactly
// the shards whose weight slice changed, their re-summed shard
// weights, and a rebuilt multinomial router. O(toggled peers' points +
// shards), not O(ring). Orchestrator-side, behind its own recover.
func (st *clusterState) reshardPlan(t int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: RunCluster reshard: %w", newPanicError(engRunCluster, "reshard", t, -1, r))
		}
	}()
	if fault.Enabled {
		fault.Hit(fault.Site{Engine: engRunCluster, Op: fault.OpReshard, Rep: t, Shard: -1, Block: -1})
	}
	st.touched = st.ring.TouchedPeers(st.toggled, st.touched[:0])
	for _, p := range st.touched {
		if w := st.ring.PeerArc(p); w != st.weights[p] {
			st.weights[p] = w
			st.dirty[st.peerShard[p]] = true
		}
	}
	st.sumW = 0
	for s := 0; s < st.shards; s++ {
		if st.dirty[s] {
			var w float64
			for i := st.bounds[s]; i < st.bounds[s+1]; i++ {
				w += st.weights[i]
			}
			st.shardW[s] = w
		}
		st.sumW += st.shardW[s]
	}
	router, rerr := sampling.NewMultinomial(st.shardW)
	if rerr != nil {
		return rerr // unreachable while a peer lives; surfaced loudly if not
	}
	st.router = router
	return nil
}

// admission is the shedding step: of the tick's arrivals, admit what
// fits under threshold × live capacity given the current occupancy and
// shed the rest. Orchestrator-side, behind its own recover so an
// injected OpShed fault surfaces as a provenance error.
func (st *clusterState) admission(t int, arrived int64, th float64) (admit, shed int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			admit, shed = 0, 0
			err = fmt.Errorf("sim: RunCluster admission: %w", newPanicError(engRunCluster, "shed", t, -1, r))
		}
	}()
	if fault.Enabled {
		fault.Hit(fault.Site{Engine: engRunCluster, Op: fault.OpShed, Rep: t, Shard: -1, Block: -1})
	}
	admit = arrived
	room := int64(math.Floor(th*float64(st.liveCap))) - st.liveQ
	if room < 0 {
		room = 0
	}
	if admit > room {
		admit = room
		shed = arrived - admit
	}
	return admit, shed, nil
}

// redistribute drains the queues of this tick's crashed peers: each
// resident cohort leaves its dead queue, is split over the live shard
// weights by largest remainder (deterministic, integer-exact, no RNG),
// and re-placed by the destination shards — keeping its original
// dispatch AND origin ticks, so neither the timeout nor the latency
// clock resets. Returns the number of requests moved.
func (st *clusterState) redistribute(crashed []int) (int64, error) {
	var moved int64
	for _, p := range crashed {
		s := int(st.peerShard[p])
		q := &st.queues[s]
		i := p - st.bounds[s]
		for k := q.head[i]; k >= 0; k = q.unlink(i, -1, k) {
			c := q.nodes[k].cohort
			st.views[s].RemoveBalls(i, c.count)
			st.ap.split(c.count, st.shardW, st.sumW, st.aport)
			for s2, cnt := range st.aport {
				if cnt > 0 {
					st.work[s2] = append(st.work[s2], cohort{disp: c.disp, orig: c.orig, att: c.att, count: cnt})
				}
			}
			moved += c.count
		}
	}
	if moved == 0 {
		return 0, nil
	}
	if err := st.ph.run(clusterRedist, st.shards); err != nil {
		return 0, err
	}
	return moved, nil
}

// orchestrate runs the setup phase and then the ticks, committing the
// completed-tick prefix as it goes.
func (st *clusterState) orchestrate(ticks int) (*ClusterResult, error) {
	if err := st.ph.run(clusterSetup, st.shards); err != nil {
		return nil, err
	}
	if st.cc.cancelled() {
		return st.partial(st.cc.err())
	}
	for t := 0; t < ticks; t++ {
		ok, err := st.runTick(t)
		if err != nil {
			return nil, err
		}
		if !ok {
			return st.partial(st.cc.err())
		}
		if ca := st.cancelAfter; ca > 0 && st.ticksDone == ca && st.ticksDone < ticks {
			return st.partial(nil)
		}
	}
	return st.final()
}

// runTick executes tick t. ok == false means the tick was abandoned at
// a cancellation point — nothing of it is committed.
func (st *clusterState) runTick(t int) (ok bool, err error) {
	if st.cc.cancelled() {
		return false, nil
	}
	st.tick, st.ph.rep = t, t
	st.tbase = 1 + uint64(t)*st.kk
	// Placement streams are re-seeded for EVERY shard at the start of
	// every tick, so a shard's draws depend only on (seed, tick,
	// shard), never on the traffic of earlier ticks.
	for s := 0; s < st.shards; s++ {
		st.rands[s].Seed(xrand.Mix64(st.seed, st.tbase+2+uint64(s)))
	}

	// Phase 1 — churn + incremental re-shard + redistribution.
	crashed, recovered, err := st.churnStep(t)
	if err != nil {
		return false, err
	}
	tickLive := st.ring.NumLive()
	var movedT int64
	if len(crashed) > 0 || recovered > 0 {
		if err := st.reshardPlan(t); err != nil {
			return false, err
		}
		if st.cc.cancelled() {
			return false, nil
		}
		if err := st.ph.run(clusterSetup, st.shards); err != nil {
			return false, err
		}
		if st.cc.cancelled() {
			return false, nil
		}
		movedT, err = st.redistribute(crashed)
		if err != nil {
			return false, err
		}
		if st.cc.cancelled() {
			return false, nil
		}
	}

	// Phase 2 — admission: shed what would push the cluster past
	// ShedThreshold × live capacity. Counted, never silently dropped.
	arrivedT := st.p.ArrivalsPerTick
	admitT := arrivedT
	var shedT int64
	if th := st.p.ShedThreshold; th > 0 {
		admitT, shedT, err = st.admission(t, arrivedT, th)
		if err != nil {
			return false, err
		}
	}

	// Phase 3 — arrival dispatch: block-wise multinomial routing over
	// the live shard weights, then per-shard placement.
	if admitT > 0 {
		st.curM = admitT
		st.rrbase = xrand.Mix64(st.seed, st.tbase+1)
		rgr := len(st.groups)
		if nb := numRouteBlocks(admitT); rgr > nb {
			rgr = nb
		}
		st.rgr = rgr
		if err := st.ph.run(clusterRoute, rgr); err != nil {
			return false, err
		}
		if st.cc.cancelled() {
			return false, nil
		}
		mergeRouteGroups(st.groups[:rgr], st.counts, nil)
		if err := st.ph.run(clusterPlace, st.shards); err != nil {
			return false, err
		}
		if st.cc.cancelled() {
			return false, nil
		}
		st.liveQ += admitT
	}

	// Phase 4 — retry dispatch: batches whose backoff elapses this
	// tick re-enter, apportioned over the live shard weights and
	// re-placed on the CURRENT queue state — a fresh d-choice
	// placement, hence an alternate candidate. Retries bypass
	// admission.
	var retriedT int64
	if slot := &st.retryWheel[t%len(st.retryWheel)]; len(*slot) > 0 {
		due := *slot
		*slot = due[:0]
		for _, e := range due {
			st.ap.split(e.count, st.shardW, st.sumW, st.aport)
			for s, cnt := range st.aport {
				if cnt > 0 {
					st.work[s] = append(st.work[s], cohort{disp: int32(t), orig: e.orig, att: e.att, count: cnt})
				}
			}
			retriedT += e.count
		}
		st.pendingRetry -= retriedT
		if err := st.ph.run(clusterRetry, st.shards); err != nil {
			return false, err
		}
		if st.cc.cancelled() {
			return false, nil
		}
		st.liveQ += retriedT
	}

	// Phase 5 — service.
	if err := st.ph.run(clusterServe, st.shards); err != nil {
		return false, err
	}
	if st.cc.cancelled() {
		return false, nil
	}
	var doneT int64
	for s := 0; s < st.shards; s++ {
		doneT += st.svcDone[s]
	}
	st.liveQ -= doneT

	// Phase 6 — timeout scan: requests queued TimeoutTicks or longer
	// leave their queues; each either schedules a backed-off retry or
	// — retries exhausted — counts failed.
	var timedOutT, failedT int64
	if st.p.Retry.TimeoutTicks > 0 {
		if err := st.ph.run(clusterExpire, st.shards); err != nil {
			return false, err
		}
		if st.cc.cancelled() {
			return false, nil
		}
		for s := 0; s < st.shards; s++ {
			for _, e := range st.expired[s] {
				timedOutT += e.count
				if int(e.att) < st.p.Retry.MaxRetries {
					att := e.att + 1
					if due := t + st.p.Retry.Backoff(int(att)); due > t && due < st.p.Ticks {
						slot := &st.retryWheel[due%len(st.retryWheel)]
						*slot = append(*slot, retryEntry{orig: e.orig, att: att, count: e.count})
					}
					st.pendingRetry += e.count
				} else {
					failedT += e.count
				}
			}
		}
		st.liveQ -= timedOutT
	}

	// Phase 7 — observation: a cut at tick t+1 snapshots queue
	// occupancy and max queue-relative load before the commit.
	if st.nextCut < st.nCuts && st.cuts[st.nextCut] == int64(t)+1 {
		if err := st.ph.run(clusterObserve, st.shards); err != nil {
			return false, err
		}
		if st.cc.cancelled() {
			return false, nil
		}
		combineShardMaxima(st.trackMat, st.maxOut)
		st.cp.Observe(st.nextCut, st.liveQ, st.totalCap, st.maxOut[0])
		st.nextCut++
	}

	// Commit: the tick is now part of the result prefix. Latency folds
	// in shard order — integer adds, exactly associative.
	st.ticksDone = t + 1
	st.arrived += arrivedT
	st.shed += shedT
	st.admitted += admitT
	st.retried += retriedT
	st.redistributed += movedT
	st.dispatched += admitT + retriedT + movedT
	st.completed += doneT
	st.timedOut += timedOutT
	st.failed += failedT
	st.crashes += len(crashed)
	st.recoveries += recovered
	st.livePerTick = append(st.livePerTick, tickLive)
	for s := 0; s < st.shards; s++ {
		if err := st.lat.Merge(st.svcLat[s]); err != nil {
			return false, err
		}
	}
	st.cQueued = st.liveQ
	st.cPending = st.pendingRetry
	return true, nil
}

// partialResult builds the committed-prefix result every exit shares.
func (st *clusterState) partialResult() *ClusterResult {
	res := &ClusterResult{
		N:             st.n,
		Shards:        st.shards,
		Ticks:         st.ticksDone,
		Arrived:       st.arrived,
		Shed:          st.shed,
		Admitted:      st.admitted,
		Dispatched:    st.dispatched,
		Completed:     st.completed,
		TimedOut:      st.timedOut,
		Retried:       st.retried,
		Failed:        st.failed,
		Redistributed: st.redistributed,
		FinalQueued:   st.cQueued,
		PendingRetry:  st.cPending,
		Crashes:       st.crashes,
		Recoveries:    st.recoveries,
		LivePerTick:   st.livePerTick,
		Latency:       st.lat,
	}
	if st.ticksDone > 0 {
		var liveSum int64
		for _, l := range st.livePerTick {
			liveSum += int64(l)
		}
		res.Availability = float64(liveSum) / float64(int64(st.n)*int64(st.ticksDone))
	}
	if st.cp != nil {
		res.Checkpoints = st.cp.Rows()
	}
	return res
}

// partial is the cancelled exit: the committed-tick prefix plus a
// *CancelledError whose cause is the context's error, or nil for the
// deterministic CancelAfter stop.
func (st *clusterState) partial(cause error) (*ClusterResult, error) {
	return st.partialResult(), &CancelledError{
		Engine:          engRunCluster,
		CompletedReps:   -1,
		CompletedCuts:   st.nextCut,
		CompletedRounds: -1,
		CompletedTicks:  st.ticksDone,
		Cause:           cause,
	}
}

// final builds the completed-run result: the committed counters plus
// the final queue-state statistics (the queue-depth distribution, when
// HeightLevels is set, through the histogram kernel).
func (st *clusterState) final() (*ClusterResult, error) {
	res := st.partialResult()
	var err error
	res.MaxQueueLoad, res.AvgQueueLoad, res.HeightCounts, err = finalState(engRunCluster, st.arr, st.levels, st.cQueued)
	if err != nil {
		return nil, err
	}
	res.Array = st.arr
	return res, nil
}
