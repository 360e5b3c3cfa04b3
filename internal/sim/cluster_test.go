// Cluster engine tests: validation, conservation, the golden
// crash/recover availability trace, the peers×workers×ticks
// bit-identity matrix (the CI race job runs this package under -race),
// cancellation-prefix equality and the Dispatch wiring.
package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bins"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/stats"
)

func clusterArray(t testing.TB, caps ...int64) *bins.Array {
	t.Helper()
	a, err := bins.New(caps)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// clusterTrace flattens a cluster run into a comparable value: every
// counter, the availability trace, the latency buckets, the trajectory
// rows, the final queue-load statistics and the final queue vector.
type clusterTrace struct {
	Res      ClusterResult
	LatBkts  []int64
	Rows     []obs.CheckpointRow
	Max, Avg stats.Accumulator
	Queues   []int64
}

// traceOf flattens res, whose run adopted arr (read only when the run
// completed: a cancelled partial has no final state).
func traceOf(res *Result, arr *bins.Array) clusterTrace {
	tr := clusterTrace{Res: *res.Cluster, LatBkts: res.Cluster.Latency.Buckets(), Rows: res.Checkpoints, Max: res.MaxLoad, Avg: res.AvgLoad}
	tr.Res.Latency = nil
	if res.MaxLoad.N() > 0 {
		tr.Queues = make([]int64, arr.N())
		for i := range tr.Queues {
			tr.Queues[i] = arr.Balls(i)
		}
	}
	return tr
}

// stressPlan is the test-wide churn/retry/shedding configuration that
// exercises every degraded-mode path at once.
func stressPlan() (ChurnPlan, RetryPolicy) {
	churn := ChurnPlan{
		Schedule: []ChurnEvent{
			{Tick: 2, Peer: 0, Down: true},
			{Tick: 3, Peer: 5, Down: true},
			{Tick: 6, Peer: 0, Down: false},
		},
		CrashProb:   0.05,
		RecoverProb: 0.3,
	}
	retry := RetryPolicy{TimeoutTicks: 3, MaxRetries: 2, BackoffBase: 1}
	return churn, retry
}

// TestClusterValidation: every bad field fails by name before any work
// starts.
func TestClusterValidation(t *testing.T) {
	a := clusterArray(t, 2, 3, 4)
	base := func() RunSpec {
		return RunSpec{Config: Config{Array: a}, Cluster: &ClusterParams{Ticks: 4, ArrivalsPerTick: 5}}
	}
	cases := []struct {
		name string
		mut  func(*RunSpec)
		want string
	}{
		{"nil array", func(c *RunSpec) { c.Array = nil }, "needs an Array"},
		{"zero ticks", func(c *RunSpec) { c.Cluster.Ticks = 0 }, "Ticks"},
		{"negative arrivals", func(c *RunSpec) { c.Cluster.ArrivalsPerTick = -1 }, "Arrivals"},
		{"negative vnodes", func(c *RunSpec) { c.Cluster.VnodesPerUnit = -1 }, "VnodesPerUnit"},
		{"negative shed", func(c *RunSpec) { c.Cluster.ShedThreshold = -0.5 }, "ShedThreshold"},
		{"negative latency max", func(c *RunSpec) { c.Cluster.LatencyMax = -1 }, "LatencyMax"},
		{"negative workers", func(c *RunSpec) { c.Workers = -1 }, "Workers"},
		{"negative cancel", func(c *RunSpec) { c.CancelAfter = -1 }, "CancelAfter"},
		{"bad crash prob", func(c *RunSpec) { c.Cluster.Churn.CrashProb = 1.5 }, "CrashProb"},
		{"bad schedule peer", func(c *RunSpec) {
			c.Cluster.Churn.Schedule = []ChurnEvent{{Tick: 0, Peer: 9, Down: true}}
		}, "Peer"},
		{"unsorted schedule", func(c *RunSpec) {
			c.Cluster.Churn.Schedule = []ChurnEvent{{Tick: 3, Peer: 0, Down: true}, {Tick: 1, Peer: 1, Down: true}}
		}, "out of order"},
		{"retries without timeout", func(c *RunSpec) { c.Cluster.Retry.MaxRetries = 2 }, "MaxRetries"},
		{"height bins", func(c *RunSpec) { c.HeightBins = 4 }, "cluster engine"},
		{"shards out of range", func(c *RunSpec) { c.Shards = 7 }, "Shards"},
		{"bad checkpoints", func(c *RunSpec) { c.Checkpoints = []int64{3, 2} }, "cuts"},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		_, err := runCluster(&cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestClusterHugeTimeoutNeverExpires: a timeout at or beyond the
// horizon never fires, however large. TimeoutTicks = Ticks, 2^40 and
// MaxInt give bit-identical runs with no timed-out request; 2^40 used
// to wrap to a zero-tick timeout in the int32 cutoff and expire every
// cohort.
func TestClusterHugeTimeoutNeverExpires(t *testing.T) {
	const ticks = 5
	var want clusterTrace
	for i, timeout := range []int{ticks, 1 << 40, math.MaxInt} {
		arr := uniformArray(t, 64, 1)
		res, err := Dispatch(RunSpec{Config: Config{Array: arr, Seed: 4}, AdoptArray: true, Cluster: &ClusterParams{
			Ticks: ticks, ArrivalsPerTick: 500,
			Retry: RetryPolicy{TimeoutTicks: timeout, MaxRetries: 2, BackoffBase: 1},
		}})
		if err != nil {
			t.Fatal(err)
		}
		got := traceOf(res, arr)
		if got.Res.TimedOut != 0 || got.Res.Failed != 0 {
			t.Fatalf("TimeoutTicks %d: %d timed out, %d failed within a %d-tick horizon", timeout, got.Res.TimedOut, got.Res.Failed, ticks)
		}
		if i == 0 {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("TimeoutTicks %d: run differs from TimeoutTicks %d:\n%+v\n%+v", timeout, ticks, got, want)
		}
	}
}

// TestClusterSizeCaps: the fields that size a cluster run's memory or
// its int32 tick stamps are capped by validation, naming the field,
// instead of panicking inside Dispatch.
func TestClusterSizeCaps(t *testing.T) {
	for _, tc := range []struct {
		name, field string
		p           ClusterParams
	}{
		{"latency buckets", "LatencyMax", ClusterParams{Ticks: 4, ArrivalsPerTick: 5, LatencyMax: math.MaxInt}},
		{"arrivals", "ArrivalsPerTick", ClusterParams{Ticks: 1, ArrivalsPerTick: math.MaxInt64}},
		{"arrivals over ticks", "ArrivalsPerTick", ClusterParams{Ticks: 4, ArrivalsPerTick: 1<<60 + 1}},
		{"ticks", "Ticks", ClusterParams{Ticks: 1 << 31, ArrivalsPerTick: 1}},
	} {
		p := tc.p
		_, err := Dispatch(RunSpec{Config: Config{Array: uniformArray(t, 8, 1)}, Cluster: &p})
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: err = %v, want a rejection naming %s", tc.name, err, tc.field)
		}
	}
}

// TestClusterQuietConservation: no churn, no timeouts, no shedding —
// the engine is a plain batched queueing loop and every request is
// accounted for: admitted = completed + queued, full availability,
// goodput equals the latency histogram mass.
func TestClusterQuietConservation(t *testing.T) {
	a := clusterArray(t, 1, 2, 3, 4, 5, 6, 7, 8)
	out, err := runCluster(&RunSpec{Config: Config{Array: a, Seed: 7}, Shards: 3, Cluster: &ClusterParams{Ticks: 12, ArrivalsPerTick: 30}, AdoptArray: true})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Cluster
	if res.Arrived != 12*30 || res.Shed != 0 || res.Admitted != res.Arrived {
		t.Fatalf("arrived/shed/admitted = %d/%d/%d", res.Arrived, res.Shed, res.Admitted)
	}
	if res.Admitted != res.Completed+res.FinalQueued {
		t.Fatalf("conservation: admitted %d != completed %d + queued %d", res.Admitted, res.Completed, res.FinalQueued)
	}
	if res.TimedOut != 0 || res.Retried != 0 || res.Failed != 0 || res.Redistributed != 0 {
		t.Fatalf("degraded-mode counters nonzero on a quiet run: %+v", res)
	}
	if res.Availability != 1 || res.Crashes != 0 || res.Recoveries != 0 {
		t.Fatalf("availability %v crashes %d recoveries %d, want 1/0/0", res.Availability, res.Crashes, res.Recoveries)
	}
	if res.Latency.Count() != res.Completed {
		t.Fatalf("latency mass %d != completed %d", res.Latency.Count(), res.Completed)
	}
	var queued int64
	for i := 0; i < a.N(); i++ {
		queued += a.Balls(i)
	}
	if queued != res.FinalQueued {
		t.Fatalf("array holds %d queued, result says %d", queued, res.FinalQueued)
	}
}

// TestClusterStressConservation: with crashes, recoveries, retries and
// shedding all active, the two conservation identities still hold
// exactly.
func TestClusterStressConservation(t *testing.T) {
	churn, retry := stressPlan()
	a := clusterArray(t, 4, 1, 6, 2, 8, 3, 5, 7, 2, 4)
	out, err := runCluster(&RunSpec{
		Config: Config{Array: a, Seed: 11},
		Shards: 4,
		Cluster: &ClusterParams{
			Ticks:           40,
			ArrivalsPerTick: 25,
			Churn:           churn,
			Retry:           retry,
			ShedThreshold:   3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Cluster
	if res.Arrived != res.Shed+res.Admitted {
		t.Fatalf("arrived %d != shed %d + admitted %d", res.Arrived, res.Shed, res.Admitted)
	}
	if res.Admitted != res.Completed+res.Failed+res.PendingRetry+res.FinalQueued {
		t.Fatalf("conservation: admitted %d != completed %d + failed %d + pending %d + queued %d",
			res.Admitted, res.Completed, res.Failed, res.PendingRetry, res.FinalQueued)
	}
	if res.Dispatched != res.Admitted+res.Retried+res.Redistributed {
		t.Fatalf("dispatched %d != admitted %d + retried %d + redistributed %d",
			res.Dispatched, res.Admitted, res.Retried, res.Redistributed)
	}
	if res.Crashes == 0 || res.Recoveries == 0 || res.TimedOut == 0 || res.Retried == 0 {
		t.Fatalf("stress plan exercised nothing: %+v", res)
	}
	if res.Availability >= 1 || res.Availability <= 0 {
		t.Fatalf("availability = %v, want in (0,1)", res.Availability)
	}
	if res.Latency.Count() != res.Completed {
		t.Fatalf("latency mass %d != completed %d", res.Latency.Count(), res.Completed)
	}
}

// TestClusterBitIdenticalAcrossWorkers: the full degraded-mode
// trajectory — counters, availability trace, latency buckets,
// checkpoint rows, final queue vector — is bit-identical across
// worker counts for every shard count. Workers may only change the
// wall clock.
func TestClusterBitIdenticalAcrossWorkers(t *testing.T) {
	churn, retry := stressPlan()
	a := clusterArray(t, 4, 1, 6, 2, 8, 3, 5, 7, 2, 4)
	for _, shards := range []int{1, 3, 8} {
		var want clusterTrace
		for wi, workers := range []int{1, 2, 8} {
			out, err := runCluster(&RunSpec{
				Config: Config{
					Array:      a,
					Seed:       5,
					Workers:    workers,
					ObsOptions: ObsOptions{Checkpoints: []int64{5, 10, 20, 30}},
				},
				Shards: shards,
				Cluster: &ClusterParams{
					Ticks:           30,
					ArrivalsPerTick: 25,
					Churn:           churn,
					Retry:           retry,
					ShedThreshold:   3,
				},
				AdoptArray: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := traceOf(out, a)
			if wi == 0 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d workers=%d diverges from workers=1:\n got %+v\nwant %+v", shards, workers, got, want)
			}
		}
	}
}

// TestClusterGoldenAvailabilityTrace: a pinned crash/recover schedule
// yields the exact availability trace — peer 1 down ticks 2..5, peer 3
// down ticks 4..7 — and the matching crash/recovery counters. Purely
// scheduled churn, so the trace is readable by hand.
func TestClusterGoldenAvailabilityTrace(t *testing.T) {
	a := clusterArray(t, 2, 3, 4, 5)
	out, err := runCluster(&RunSpec{
		Config: Config{Array: a, Seed: 3},
		Shards: 2,
		Cluster: &ClusterParams{
			Ticks:           10,
			ArrivalsPerTick: 20,
			Churn: ChurnPlan{Schedule: []ChurnEvent{
				{Tick: 2, Peer: 1, Down: true},
				{Tick: 4, Peer: 3, Down: true},
				{Tick: 6, Peer: 1, Down: false},
				{Tick: 8, Peer: 3, Down: false},
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Cluster
	wantLive := []int{4, 4, 3, 3, 2, 2, 3, 3, 4, 4}
	if !reflect.DeepEqual(res.LivePerTick, wantLive) {
		t.Fatalf("LivePerTick = %v, want %v", res.LivePerTick, wantLive)
	}
	if res.Crashes != 2 || res.Recoveries != 2 {
		t.Fatalf("crashes/recoveries = %d/%d, want 2/2", res.Crashes, res.Recoveries)
	}
	// 4+4+3+3+2+2+3+3+4+4 = 32 live-peer-ticks over 4 peers × 10 ticks.
	if want := 32.0 / 40.0; res.Availability != want {
		t.Fatalf("availability = %v, want %v", res.Availability, want)
	}
	if res.Redistributed == 0 {
		t.Fatal("crashes with resident queues redistributed nothing")
	}
	if res.Admitted != res.Completed+res.FinalQueued {
		t.Fatalf("conservation: admitted %d != completed %d + queued %d", res.Admitted, res.Completed, res.FinalQueued)
	}
}

// TestClusterLastPeerNeverDies: a schedule and stochastic process that
// try to kill everything leave one live peer — availability degrades,
// the engine never deadlocks.
func TestClusterLastPeerNeverDies(t *testing.T) {
	a := clusterArray(t, 2, 2, 2)
	out, err := runCluster(&RunSpec{
		Config: Config{Array: a, Seed: 1},
		Shards: 3,
		Cluster: &ClusterParams{
			Ticks:           8,
			ArrivalsPerTick: 4,
			Churn: ChurnPlan{
				Schedule: []ChurnEvent{
					{Tick: 0, Peer: 0, Down: true},
					{Tick: 0, Peer: 1, Down: true},
					{Tick: 0, Peer: 2, Down: true},
				},
				CrashProb: 1,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Cluster
	for tick, live := range res.LivePerTick {
		if live < 1 {
			t.Fatalf("tick %d: %d live peers", tick, live)
		}
	}
	if res.Crashes != 2 {
		t.Fatalf("crashes = %d, want 2 (third refused)", res.Crashes)
	}
}

// TestClusterDeadPeerGetsNothing: a peer that crashes before any
// arrival keeps an empty queue for the whole run — the ring drops its
// arcs, the router its weight, redistribution its residents.
func TestClusterDeadPeerGetsNothing(t *testing.T) {
	a := clusterArray(t, 3, 3, 3, 3)
	out, err := runCluster(&RunSpec{
		Config: Config{Array: a, Seed: 9},
		Shards: 2,
		Cluster: &ClusterParams{
			Ticks:           10,
			ArrivalsPerTick: 20,
			Churn:           ChurnPlan{Schedule: []ChurnEvent{{Tick: 0, Peer: 2, Down: true}}},
		},
		AdoptArray: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Cluster
	if got := a.Balls(2); got != 0 {
		t.Fatalf("dead peer 2 holds %d queued requests", got)
	}
	if res.Redistributed != 0 {
		t.Fatalf("redistributed %d from a peer that never held anything", res.Redistributed)
	}
}

// TestClusterRetryFailureSplit: one server of capacity 1 and a flood
// of arrivals force timeouts; with MaxRetries = 0 every timeout is a
// failure, with retries allowed the timed-out mass splits between
// retried and failed exactly.
func TestClusterRetryFailureSplit(t *testing.T) {
	a := clusterArray(t, 1)
	out, err := runCluster(&RunSpec{
		Config: Config{Array: a, Seed: 2},
		Shards: 1,
		Cluster: &ClusterParams{
			Ticks:           10,
			ArrivalsPerTick: 5,
			Retry:           RetryPolicy{TimeoutTicks: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Cluster
	if res.TimedOut == 0 {
		t.Fatal("overload produced no timeouts")
	}
	if res.Failed != res.TimedOut || res.Retried != 0 || res.PendingRetry != 0 {
		t.Fatalf("MaxRetries=0: failed %d / timedOut %d / retried %d / pending %d",
			res.Failed, res.TimedOut, res.Retried, res.PendingRetry)
	}
	out2, err := runCluster(&RunSpec{
		Config: Config{Array: a, Seed: 2},
		Shards: 1,
		Cluster: &ClusterParams{
			Ticks:           10,
			ArrivalsPerTick: 5,
			Retry:           RetryPolicy{TimeoutTicks: 2, MaxRetries: 3, BackoffBase: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res2 := out2.Cluster
	if res2.Retried == 0 {
		t.Fatal("retries enabled but none dispatched")
	}
	if res2.Admitted != res2.Completed+res2.Failed+res2.PendingRetry+res2.FinalQueued {
		t.Fatalf("conservation: %+v", res2)
	}
}

// TestClusterHugeBackoffIsPending: a backoff far beyond the horizon
// (base 2^40, whose late attempts saturate at math.MaxInt) parks every
// timed-out request as pending, exactly like a backoff that lands on
// the horizon itself — the due-tick test never overflows.
func TestClusterHugeBackoffIsPending(t *testing.T) {
	const ticks = 10
	run := func(base int) clusterTrace {
		t.Helper()
		a := clusterArray(t, 1, 2)
		out, err := runCluster(&RunSpec{
			Config: Config{Array: a, Seed: 4},
			Shards: 1,
			Cluster: &ClusterParams{
				Ticks:           ticks,
				ArrivalsPerTick: 6,
				Retry:           RetryPolicy{TimeoutTicks: 2, MaxRetries: 40, BackoffBase: base},
			},
			AdoptArray: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return traceOf(out, a)
	}
	huge, horizon := run(1<<40), run(ticks)
	if huge.Res.PendingRetry == 0 || huge.Res.Retried != 0 {
		t.Fatalf("want every timeout pending: %+v", huge.Res)
	}
	if !reflect.DeepEqual(huge, horizon) {
		t.Fatalf("base 2^40:\n%+v\nbase = horizon:\n%+v", huge.Res, horizon.Res)
	}
}

// TestClusterShedding: a tight threshold sheds load and the occupancy
// cap holds at every checkpoint.
func TestClusterShedding(t *testing.T) {
	a := clusterArray(t, 2, 2, 2, 2)
	cuts := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	out, err := runCluster(&RunSpec{
		Config: Config{
			Array:      a,
			Seed:       4,
			ObsOptions: ObsOptions{Checkpoints: cuts},
		},
		Shards: 2,
		Cluster: &ClusterParams{
			Ticks:           8,
			ArrivalsPerTick: 40,
			ShedThreshold:   1.5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Cluster
	if res.Shed == 0 {
		t.Fatal("tight threshold shed nothing")
	}
	if res.Arrived != res.Shed+res.Admitted {
		t.Fatalf("arrived %d != shed %d + admitted %d", res.Arrived, res.Shed, res.Admitted)
	}
	// Queue cap: threshold 1.5 × total capacity 8 = 12 requests.
	for _, row := range out.Checkpoints {
		if row.Reps() > 0 && row.RealBalls.Mean() > 12 {
			t.Fatalf("checkpoint occupancy %v exceeds the admission cap", row.RealBalls.Mean())
		}
	}
}

// TestClusterHugeShedThresholdAdmitsAll: a threshold whose limit
// overflows int64 (1e18 × live capacity, +Inf) admits every arrival,
// exactly like shedding switched off — it must never wrap into a
// negative room that sheds everything.
func TestClusterHugeShedThresholdAdmitsAll(t *testing.T) {
	caps := make([]int64, 100)
	for i := range caps {
		caps[i] = 1 + 3*int64(i/50) // 50 servers of capacity 1, 50 of 4
	}
	run := func(threshold float64) clusterTrace {
		t.Helper()
		a := clusterArray(t, caps...)
		out, err := runCluster(&RunSpec{
			Config: Config{Array: a, Seed: 8},
			Shards: 4,
			Cluster: &ClusterParams{
				Ticks:           5,
				ArrivalsPerTick: 100,
				ShedThreshold:   threshold,
			},
			AdoptArray: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return traceOf(out, a)
	}
	off := run(0)
	for _, threshold := range []float64{1e18, math.Inf(1)} {
		got := run(threshold)
		if got.Res.Shed != 0 {
			t.Fatalf("threshold %v shed %d of %d arrivals", threshold, got.Res.Shed, got.Res.Arrived)
		}
		if !reflect.DeepEqual(got, off) {
			t.Fatalf("threshold %v:\n%+v\nthreshold 0:\n%+v", threshold, got.Res, off.Res)
		}
	}
}

// TestClusterCancelAfterTicksPrefix: stopping after k ticks yields
// counters, trace, latency and trajectory bit-identical to a run
// configured with Ticks = k, plus a typed *CancelledError carrying
// CompletedTicks = k and no Cause.
func TestClusterCancelAfterTicksPrefix(t *testing.T) {
	churn, retry := stressPlan()
	a := clusterArray(t, 4, 1, 6, 2, 8, 3, 5, 7, 2, 4)
	const k = 9
	cfg := RunSpec{
		Config: Config{
			Array:      a,
			Seed:       5,
			Workers:    4,
			ObsOptions: ObsOptions{Checkpoints: []int64{3, 6, 9, 20}},
		},
		Shards: 4,
		Cluster: &ClusterParams{
			Ticks:           30,
			ArrivalsPerTick: 25,
			Churn:           churn,
			Retry:           retry,
			ShedThreshold:   3,
		},
	}
	cp := *cfg.Cluster
	cp.Ticks = k
	short := cfg
	short.Cluster = &cp
	wantArr := adopt(&short)
	want, err := runCluster(&short)
	if err != nil {
		t.Fatal(err)
	}

	cancelledCfg := cfg
	cancelledCfg.CancelAfter = k
	got, err := runCluster(&cancelledCfg)
	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CancelledError", err)
	}
	if cerr.Engine != engRunCluster || cerr.CompletedTicks != k || cerr.Cause != nil {
		t.Fatalf("cancel error = %+v, want engine %q, %d ticks, nil cause", cerr, engRunCluster, k)
	}
	gt, wt := traceOf(got, nil), traceOf(want, wantArr)
	// The completed short run carries final-state fields the partial
	// cannot (the queue array, its max and average queue load); blank
	// them before comparing the committed prefix.
	wt.Queues = nil
	wt.Max, wt.Avg = stats.Accumulator{}, stats.Accumulator{}
	if !reflect.DeepEqual(gt, wt) {
		t.Fatalf("cancelled prefix diverges from Ticks=%d run:\n got %+v\nwant %+v", k, gt, wt)
	}
}

// TestClusterHugeHorizonSetup: a valid spec with the largest horizon
// and a backoff far beyond it returns its 2-tick prefix, and the run —
// setup included — allocates under 1 MB: no setup buffer is sized by
// Ticks or by the backoff.
func TestClusterHugeHorizonSetup(t *testing.T) {
	params := ClusterParams{
		Ticks:           math.MaxInt32,
		ArrivalsPerTick: 40,
		Retry:           RetryPolicy{TimeoutTicks: 1, MaxRetries: 30, BackoffBase: 1 << 20},
	}
	spec := func(p ClusterParams) *RunSpec {
		return &RunSpec{Config: Config{Array: clusterArray(t, 1, 2, 3, 1, 2, 3), Seed: 3, Workers: 2}, Shards: 2, Cluster: &p}
	}
	const k = 2
	huge := spec(params)
	huge.CancelAfter = k
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := runCluster(huge)
	runtime.ReadMemStats(&after)
	var cerr *CancelledError
	if !errors.As(err, &cerr) || cerr.CompletedTicks != k {
		t.Fatalf("err = %v, want a *CancelledError after %d ticks", err, k)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("a %d-tick prefix allocated %d bytes, want < 1 MB", k, alloc)
	}
	params.Ticks = k
	short := spec(params)
	wantArr := adopt(short)
	want, err := runCluster(short)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cluster.TimedOut == 0 || got.Cluster.PendingRetry == 0 {
		t.Fatalf("spec does not time out: %+v", *got.Cluster)
	}
	// Blank the final state the partial cannot carry, as in
	// TestClusterCancelAfterTicksPrefix.
	gt, wt := traceOf(got, nil), traceOf(want, wantArr)
	wt.Queues = nil
	wt.Max, wt.Avg = stats.Accumulator{}, stats.Accumulator{}
	if !reflect.DeepEqual(gt, wt) {
		t.Fatalf("prefix diverges from the Ticks=%d run:\n got %+v\nwant %+v", k, gt, wt)
	}
}

// TestClusterContextCancellation: a pre-fired context stops the run
// before the first tick with a well-formed empty partial.
func TestClusterContextCancellation(t *testing.T) {
	defer leakCheck(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := clusterArray(t, 2, 3, 4)
	res, err := runCluster(&RunSpec{Config: Config{Array: a, Context: ctx}, Cluster: &ClusterParams{Ticks: 10, ArrivalsPerTick: 5}})
	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CancelledError", err)
	}
	if cerr.CompletedTicks != 0 || !errors.Is(cerr.Cause, context.Canceled) {
		t.Fatalf("cancel error = %+v, want 0 ticks and context.Canceled", cerr)
	}
	if res == nil || res.Cluster.Ticks != 0 || res.Cluster.Admitted != 0 || res.Cluster.Latency.Count() != 0 {
		t.Fatalf("partial = %+v, want empty zero-tick prefix", res)
	}
}

// TestClusterHeights: HeightLevels reports the final queue-depth
// distribution through the histogram kernel, consistent with the final
// array.
func TestClusterHeights(t *testing.T) {
	a := clusterArray(t, 1, 2, 3, 4)
	out, err := runCluster(&RunSpec{
		Config: Config{
			Array:      a,
			Seed:       8,
			ObsOptions: ObsOptions{HeightLevels: 4},
		},
		Shards:     2,
		Cluster:    &ClusterParams{Ticks: 6, ArrivalsPerTick: 20},
		AdoptArray: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.HeightCounts) != 4 {
		t.Fatalf("HeightCounts rows = %d, want 4", len(out.HeightCounts))
	}
	var atLeast1 int64
	for i := 0; i < a.N(); i++ {
		if float64(a.Balls(i))/float64(a.Capacity(i)) >= 1 {
			atLeast1++
		}
	}
	if got := out.HeightCounts[0].Bins.Mean(); got != float64(atLeast1) {
		t.Fatalf("bins at load >= 1: rows say %v, array says %d", got, atLeast1)
	}
}

// TestClusterDispatch: the RunSpec wiring — engine selection,
// exclusivity against Stream, field-named unsupported errors, and the
// result mapping into the classic shape.
func TestClusterDispatch(t *testing.T) {
	a := clusterArray(t, 2, 3, 4, 5)
	params := &ClusterParams{Ticks: 6, ArrivalsPerTick: 8}
	res, err := Dispatch(RunSpec{Config: Config{Array: a, Seed: 2}, Cluster: params})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineCluster || res.Cluster == nil {
		t.Fatalf("engine %q, Cluster %v; want cluster engine with full result", res.Engine, res.Cluster)
	}
	if res.Cluster.Ticks != 6 || res.Balls.Mean() != float64(res.Cluster.FinalQueued) {
		t.Fatalf("result mapping: %+v", res.Cluster)
	}

	if _, err := Dispatch(RunSpec{Config: Config{Array: a}, Engine: EngineCluster}); err == nil || !strings.Contains(err.Error(), "RunSpec.Cluster") {
		t.Fatalf("engine cluster without params: %v", err)
	}
	if _, err := Dispatch(RunSpec{Config: Config{Array: a}, Engine: EngineSharded, Cluster: params}); err == nil || !strings.Contains(err.Error(), "cluster spec") {
		t.Fatalf("sharded on a cluster spec: %v", err)
	}
	if _, err := Dispatch(RunSpec{Config: Config{Array: a}, Cluster: params, Stream: &StreamParams{Rounds: 2}}); err == nil || !strings.Contains(err.Error(), "not both") {
		t.Fatalf("stream+cluster spec: %v", err)
	}
	bad := []struct {
		mut  func(*RunSpec)
		want string
	}{
		{func(s *RunSpec) { s.Balls = 10 }, "ArrivalsPerTick"},
		{func(s *RunSpec) { s.Reps = 3 }, "single trajectory"},
		{func(s *RunSpec) { s.CollectLoadVector = true }, "CollectLoadVector"},
		{func(s *RunSpec) { s.HeightBins = 2 }, "height histogram"},
	}
	for _, tc := range bad {
		spec := RunSpec{Config: Config{Array: a}, Cluster: params}
		tc.mut(&spec)
		if _, err := Dispatch(spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("unsupported spec: err = %v, want mention of %q", err, tc.want)
		}
	}
	if _, err := ParseEngine("cluster"); err != nil {
		t.Fatal(err)
	}
}

// TestClusterGreedyBeatsSingleOnTail: at 87.5% utilisation the
// capacity-aware two-choice dispatcher keeps the worst queue-relative
// load of the per-tick trajectory below single-choice dispatch, and
// its mean response time no higher. One shard, so every request's two
// candidates range over all servers.
func TestClusterGreedyBeatsSingleOnTail(t *testing.T) {
	a := clusterArray(t, 1, 1, 1, 1, 10, 10) // C = 24
	const ticks = 600
	everyTick := make([]int64, ticks)
	for i := range everyTick {
		everyTick[i] = int64(i + 1)
	}
	serve := func(f protocol.Factory) (worst, meanLatency float64) {
		res, err := Dispatch(RunSpec{
			Config:  Config{Array: a, Seed: 3, Placer: f, ObsOptions: ObsOptions{Checkpoints: everyTick}},
			Shards:  1,
			Cluster: &ClusterParams{Ticks: ticks, ArrivalsPerTick: 21},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Checkpoints {
			worst = max(worst, res.Checkpoints[i].MaxLoad.Max())
		}
		return worst, res.Cluster.Latency.Mean()
	}
	gWorst, gLat := serve(protocol.GreedyFactory(2))
	sWorst, sLat := serve(protocol.SingleFactory())
	if gWorst >= sWorst {
		t.Fatalf("greedy worst queue load %.3f not below single %.3f", gWorst, sWorst)
	}
	if gLat > sLat {
		t.Fatalf("greedy mean response %.3f above single %.3f", gLat, sLat)
	}
}

// TestClusterGoldenCounters: one pinned stress spec, every counter
// pinned. Catches any silent change to the routing, placement, churn
// or retry sequencing — the cluster analogue of the classic engine's
// golden tests.
func TestClusterGoldenCounters(t *testing.T) {
	churn, retry := stressPlan()
	a := clusterArray(t, 4, 1, 6, 2, 8, 3, 5, 7, 2, 4)
	out, err := runCluster(&RunSpec{
		Config: Config{Array: a, Seed: 5},
		Shards: 4,
		Cluster: &ClusterParams{
			Ticks:           30,
			ArrivalsPerTick: 38,
			Churn:           churn,
			Retry:           retry,
			ShedThreshold:   2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Cluster
	got := [...]int64{res.Arrived, res.Shed, res.Admitted, res.Dispatched, res.Completed,
		res.TimedOut, res.Retried, res.Failed, res.Redistributed, res.FinalQueued,
		res.PendingRetry, int64(res.Crashes), int64(res.Recoveries), res.Latency.Count(), res.Latency.Sum()}
	want := [...]int64{1140, 131, 1009, 1103, 975,
		30, 27, 0, 67, 31,
		3, 10, 9, 975, 2083}
	if got != want {
		t.Fatalf("golden counters drifted:\n got %v\nwant %v", got, want)
	}
}

// TestClusterGoldenHeavyChurn: a scheduled crash of 37 of 40 peers at
// tick 3, staggered recovery over ticks 8..12, stochastic churn on top,
// with timeouts, retries and shedding armed. Every counter and the
// availability trace are pinned, so the ring's membership bookkeeping
// and the queue/retry machinery are held to the exact trajectory when
// most of the ring is dead.
func TestClusterGoldenHeavyChurn(t *testing.T) {
	var sched []ChurnEvent
	for p := 0; p < 37; p++ {
		sched = append(sched, ChurnEvent{Tick: 3, Peer: p, Down: true})
	}
	for tick := 8; tick < 13; tick++ {
		for p := tick - 8; p < 37; p += 5 {
			sched = append(sched, ChurnEvent{Tick: tick, Peer: p, Down: false})
		}
	}
	caps := make([]int64, 40)
	for i := range caps {
		caps[i] = int64(1 + i%5)
	}
	out, err := runCluster(&RunSpec{
		Config: Config{Array: clusterArray(t, caps...), Seed: 9},
		Shards: 4,
		Cluster: &ClusterParams{
			Ticks:           20,
			ArrivalsPerTick: 90,
			Churn:           ChurnPlan{Schedule: sched, CrashProb: 0.02, RecoverProb: 0.1},
			Retry:           RetryPolicy{TimeoutTicks: 2, MaxRetries: 2, BackoffBase: 1},
			ShedThreshold:   3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Cluster
	got := [...]int64{res.Arrived, res.Shed, res.Admitted, res.Dispatched, res.Completed,
		res.TimedOut, res.Retried, res.Failed, res.Redistributed, res.FinalQueued,
		res.PendingRetry, int64(res.Crashes), int64(res.Recoveries), res.Latency.Count(), res.Latency.Sum()}
	want := [...]int64{1800, 238, 1562, 1702, 1487,
		77, 74, 2, 66, 72,
		1, 48, 43, 1487, 2941}
	if got != want {
		t.Fatalf("golden counters drifted:\n got %v\nwant %v", got, want)
	}
	wantLive := []int{40, 39, 38, 6, 9, 12, 15, 15, 18, 28, 33, 34, 37, 35, 35, 35, 36, 36, 36, 35}
	if !reflect.DeepEqual(res.LivePerTick, wantLive) {
		t.Fatalf("LivePerTick = %v, want %v", res.LivePerTick, wantLive)
	}
}

// TestClusterSteadyStateAllocFree is the serving engine's allocation
// gate: once the queue arenas and the retry wheel have grown to their
// working size, a churn-free tick with timeouts, retries and shedding
// armed allocates nothing — measured as the allocation DELTA between a
// long and a short run of the same spec (setup allocations cancel out).
// With stochastic churn on top, a churn tick reweights its dirty
// shards' placers and rebuilds the router in place, so it allocates
// nothing either once each table has kept its rebuild scratch; the
// first rebuilds of the shards the long run reaches later, and a
// shard whose live weight returns from zero, leave well under 2
// allocations per tick.
func TestClusterSteadyStateAllocFree(t *testing.T) {
	a := largeArray(t, 4096)
	for _, tc := range []struct {
		name    string
		churn   ChurnPlan
		maxTick float64
	}{
		{"churn-free", ChurnPlan{}, 0.5},
		{"churn", ChurnPlan{CrashProb: 0.002, RecoverProb: 0.05}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := func(ticks int) *RunSpec {
				return &RunSpec{
					Config: Config{Array: a, Seed: 11, Workers: 2},
					Shards: 8,
					Cluster: &ClusterParams{
						Ticks:           ticks,
						ArrivalsPerTick: 30_000,
						Churn:           tc.churn,
						Retry:           RetryPolicy{TimeoutTicks: 2, MaxRetries: 2, BackoffBase: 1},
						ShedThreshold:   2,
					},
				}
			}
			const short, long = 8, 28
			out, err := runCluster(spec(long))
			if err != nil {
				t.Fatal(err)
			}
			res := out.Cluster
			if res.Shed == 0 || res.TimedOut == 0 || res.Retried == 0 {
				t.Fatalf("spec does not exercise the degraded-mode paths: shed %d, timed out %d, retried %d",
					res.Shed, res.TimedOut, res.Retried)
			}
			if !tc.churn.Empty() && (res.Crashes == 0 || res.Recoveries == 0 || res.Redistributed == 0) {
				t.Fatalf("spec does not exercise churn: %d crashes, %d recoveries, %d redistributed",
					res.Crashes, res.Recoveries, res.Redistributed)
			}
			run := func(ticks int) float64 {
				return testing.AllocsPerRun(3, func() {
					if _, err := runCluster(spec(ticks)); err != nil {
						t.Fatal(err)
					}
				})
			}
			base := run(short)
			full := run(long)
			if perTick := (full - base) / (long - short); perTick >= tc.maxTick {
				t.Fatalf("steady-state ticks allocate %.2f allocs/tick, want < %v (%d ticks: %.0f, %d ticks: %.0f)",
					perTick, tc.maxTick, short, base, long, full)
			}
		})
	}
}

// TestClusterShardOf checks shardOf, the cluster's peer→shard map,
// against shardBounds for every n <= 300, every shard count and every
// peer, and near n = 2^31 against the bounds' formula, where
// (p+1)·shards must not overflow.
func TestClusterShardOf(t *testing.T) {
	for n := 1; n <= 300; n++ {
		for shards := 1; shards <= n; shards++ {
			sh := sharded{n: n, shards: shards}
			bounds := shardBounds(n, shards)
			for s := 0; s < shards; s++ {
				for p := bounds[s]; p < bounds[s+1]; p++ {
					if got := sh.shardOf(p); got != s {
						t.Fatalf("n=%d shards=%d: shardOf(%d) = %d, want %d", n, shards, p, got, s)
					}
				}
			}
		}
	}
	const n = 1<<31 - 1
	for _, shards := range []int{1, 64, 1 << 20, n - 1, n} {
		sh := sharded{n: n, shards: shards}
		for _, p := range []int{0, 1, n / 3, n / 2, n - 2, n - 1} {
			s := sh.shardOf(p)
			if lo, hi := s*n/shards, (s+1)*n/shards; s < 0 || s >= shards || p < lo || p >= hi {
				t.Fatalf("n=2^31-1 shards=%d: shardOf(%d) = %d, whose bins are [%d,%d)", shards, p, s, lo, hi)
			}
		}
	}
}

// TestChurnThreshold: the churn step's integer test k < churnThreshold(p)
// on a draw's top 53 bits k decides exactly as Float64's k/2^53 < p, at
// the threshold, on either side of it and at the ends of k's range.
func TestChurnThreshold(t *testing.T) {
	const top = 1<<53 - 1
	for _, p := range []float64{0, 0x1p-53, 2e-4, 0.05, math.Nextafter(0.05, 0), 0.5, 1 - 0x1p-53, 1} {
		thr := churnThreshold(p)
		for _, k := range []uint64{0, thr - 1, thr, thr + 1, top} {
			if k > top {
				continue // thr−1 at thr = 0, thr+1 past the top
			}
			if got, want := k < thr, float64(k)/(1<<53) < p; got != want {
				t.Errorf("p=%v k=%d: k < %d is %v, k/2^53 < p is %v", p, k, thr, got, want)
			}
		}
	}
}

// TestClusterSplitMemo: the memoized splits of the retry and
// redistribution apportionment (scatter) equal apportion.split for
// every batch size, served fresh or from the memo, over weight vectors
// with zero-weight shards; and a run whose scheduled crash and
// recovery fall between ticks that retry batches of the same size
// reproduces its pinned counters, so each re-shard forgets the splits
// made on the weights before it.
func TestClusterSplitMemo(t *testing.T) {
	for _, w := range [][]float64{
		{1},
		{0, 3, 0, 1.5, 2.25},
		{0.1, 0, 0, 0.7, 0.2, 0, 0.3, 1e-3},
		{5, 5, 5, 5, 0, 5, 5, 5, 5, 5, 5, 5},
	} {
		st := &clusterState{slots: make([]clusterShard, len(w))}
		st.shardW = w
		for _, x := range w {
			st.sumW += x
		}
		st.aport = make([]int64, len(w))
		st.ap = apportion{rem: make([]float64, len(w)), idx: make([]int, 0, len(w))}
		ref := apportion{rem: make([]float64, len(w)), idx: make([]int, 0, len(w))}
		want := make([]int64, len(w))
		for pass := 0; pass < 2; pass++ {
			for m := int64(1); m <= 130; m++ {
				ref.split(m, w, st.sumW, want)
				c := cohort{disp: 7, orig: 3, att: 1, count: m}
				st.scatter(c)
				for s := range st.slots {
					sl := &st.slots[s]
					var got int64
					switch {
					case len(sl.work) > 1:
						t.Fatalf("w=%v m=%d: shard %d got %d pieces", w, m, s, len(sl.work))
					case len(sl.work) == 1:
						if p := sl.work[0]; p.disp != c.disp || p.orig != c.orig || p.att != c.att || p.count <= 0 {
							t.Fatalf("w=%v m=%d: shard %d got piece %+v of %+v", w, m, s, p, c)
						}
						got = sl.work[0].count
					}
					if got != want[s] {
						t.Fatalf("w=%v m=%d pass %d: shard %d got %d, apportion.split gives %d", w, m, pass, s, got, want[s])
					}
					sl.work = sl.work[:0]
				}
			}
		}
	}

	// Peer 4 (capacity 8) crashes at tick 7 and recovers at tick 10;
	// the ticks on both sides of each re-shard retry batches of one
	// request, so a memo kept across a re-shard would place them by the
	// dead (or the pre-recovery) weights.
	out, err := runCluster(&RunSpec{
		Config: Config{Array: clusterArray(t, 4, 1, 6, 2, 8, 3, 5, 7, 2, 4), Seed: 3},
		Shards: 4,
		Cluster: &ClusterParams{
			Ticks:           14,
			ArrivalsPerTick: 44,
			Churn:           ChurnPlan{Schedule: []ChurnEvent{{Tick: 7, Peer: 4, Down: true}, {Tick: 10, Peer: 4}}},
			Retry:           RetryPolicy{TimeoutTicks: 1, MaxRetries: 3, BackoffBase: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Cluster
	got := [...]int64{res.Arrived, res.Shed, res.Admitted, res.Dispatched, res.Completed,
		res.TimedOut, res.Retried, res.Failed, res.Redistributed, res.FinalQueued,
		res.PendingRetry, int64(res.Crashes), int64(res.Recoveries), res.Latency.Count(), res.Latency.Sum()}
	want := [...]int64{616, 0, 616, 681, 547,
		76, 57, 0, 8, 50,
		19, 1, 1, 547, 921}
	if got != want {
		t.Fatalf("counters drifted:\n got %v\nwant %v", got, want)
	}
}
