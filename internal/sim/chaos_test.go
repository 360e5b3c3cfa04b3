//go:build faultinject

// Chaos test matrix: with -tags faultinject the engines' fault sites
// are live, and every test here arms a deterministic Plan — panic,
// stall, or cancel at one exact {engine, op, rep, shard, block} — then
// asserts the run surfaces a provenance error (never a crash, never a
// hang) and strands no goroutine. The CI chaos job runs this file,
// plus the whole engine suite, both under -race and without it (the
// race detector's slowdown can mask a timing dependence).
package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/bins"
	"repro/internal/fault"
)

// wantInjectedPanic asserts err is a *PanicError wrapping the injected
// fault at the expected operation, with engine/task provenance.
func wantInjectedPanic(t *testing.T, err error, engine string, op fault.Op) {
	t.Helper()
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if perr.Engine != engine {
		t.Fatalf("panic attributed to engine %q, want %q", perr.Engine, engine)
	}
	var inj *fault.Injected
	if !errors.As(err, &inj) {
		t.Fatalf("panic value %v is not the injected fault", perr.Value)
	}
	if inj.Site.Op != op {
		t.Fatalf("fault fired at op %v, want %v", inj.Site.Op, op)
	}
	if perr.Task != op.String() && op != fault.OpChunk {
		t.Fatalf("task %q does not match op %v", perr.Task, op)
	}
}

// TestChaosRunLargeMontePanicSites: every Monte task kind — a routing
// block, a shard placement, a between-rep reset, a summary, the fold
// (an orchestrator step) — dies at a pinned repetition and the run
// reports it instead of hanging, across shard and worker topologies.
func TestChaosRunLargeMontePanicSites(t *testing.T) {
	a := largeArray(t, 600)
	sites := []fault.Site{
		{Engine: engRunLargeMC, Op: fault.OpRoute, Rep: 2, Shard: -1, Block: -1},
		{Engine: engRunLargeMC, Op: fault.OpPlace, Rep: 1, Shard: 0, Block: -1},
		{Engine: engRunLargeMC, Op: fault.OpReset, Rep: -1, Shard: -1, Block: -1},
		{Engine: engRunLargeMC, Op: fault.OpSummary, Rep: 3, Shard: -1, Block: -1},
		{Engine: engRunLargeMC, Op: fault.OpOrchestrator, Rep: 2, Shard: -1, Block: -1},
	}
	for _, site := range sites {
		for _, shards := range []int{1, 4} {
			for _, workers := range []int{1, 4} {
				func() {
					defer leakCheck(t)()
					defer fault.Arm(fault.Plan{Match: site, Do: fault.Panic, Msg: "chaos"})()
					_, err := runLargeMonte(RunSpec{
						Config: Config{
							Array:   a,
							Seed:    1,
							Workers: workers,
							Reps:    6,
						},
						Shards: shards,
					})
					wantInjectedPanic(t, err, engRunLargeMC, site.Op)
				}()
			}
		}
	}
}

// TestChaosRunChunkPanic: a classic chunk repetition dying at a pinned
// repetition surfaces with rep provenance.
func TestChaosRunChunkPanic(t *testing.T) {
	a := largeArray(t, 200)
	for _, workers := range []int{1, 4} {
		func() {
			defer leakCheck(t)()
			defer fault.Arm(fault.Plan{
				Match: fault.Site{Engine: engRun, Op: fault.OpChunk, Rep: 3, Shard: -1, Block: -1},
				Do:    fault.Panic, Msg: "chaos",
			})()
			_, err := runClassic(Config{Array: a, Seed: 1, Reps: 24, Workers: workers})
			wantInjectedPanic(t, err, engRun, fault.OpChunk)
			var perr *PanicError
			errors.As(err, &perr)
			if perr.Rep != 3 {
				t.Fatalf("panic attributed to rep %d, want 3", perr.Rep)
			}
		}()
	}
}

// TestChaosCancelMidRouting: a CancelRun fault at routing block 1
// cancels the single-run engine inside Phase 1 — block 2's check sees
// it — and the partial carries shape but no state.
func TestChaosCancelMidRouting(t *testing.T) {
	defer leakCheck(t)()
	a := largeArray(t, 1500)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer fault.Arm(fault.Plan{
		Match: fault.Site{Op: fault.OpRoute, Rep: -1, Shard: -1, Block: 1},
		Do:    fault.CancelRun, Cancel: cancel, Once: true,
	})()
	// Four routing blocks (m = 30·C at C = 8250 is 247500 balls), one
	// worker so blocks are visited in order.
	res, err := runLarge(RunSpec{
		Config: Config{
			Array:       a,
			Seed:        6,
			Workers:     1,
			BallsFactor: 30,
			Context:     ctx,
			ObsOptions:  ObsOptions{Checkpoints: []int64{100000}},
		},
		Shards: 4,
	})
	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CancelledError", err)
	}
	if cerr.Engine != engRunLargeMC || cerr.CompletedCuts != 0 {
		t.Fatalf("provenance %+v, want RunLargeMonte cancelled during routing", cerr)
	}
	if res == nil || res.Array != nil || len(res.Checkpoints) != 0 {
		t.Fatalf("mid-routing partial carries state: %+v", res)
	}
}

// TestChaosCancelThenResume: a chaotic (timing-dependent) cancellation
// at an orchestrator step still leaves a checkpoint that resumes to the
// byte-identical uninterrupted aggregate — the resume contract does not
// depend on WHERE the cancel landed.
func TestChaosCancelThenResume(t *testing.T) {
	defer leakCheck(t)()
	a := largeArray(t, 600)
	cfg := RunSpec{
		Config: Config{
			Array:             a,
			Seed:              77,
			Workers:           3,
			ObsOptions:        ObsOptions{Checkpoints: []int64{500, 1500}, HeightLevels: 3},
			Reps:              8,
			CollectLoadVector: true,
		},
		Shards:     4,
		ShardStats: true,
	}
	full, err := runLargeMonte(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	disarm := fault.Arm(fault.Plan{
		Match: fault.Site{Engine: engRunLargeMC, Op: fault.OpOrchestrator, Rep: 3, Shard: -1, Block: -1},
		Do:    fault.CancelRun, Cancel: cancel, Once: true,
	})
	interrupted := cfg
	interrupted.Context = ctx
	_, err = runLargeMonte(interrupted)
	disarm()
	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CancelledError", err)
	}
	if cerr.Checkpoint == nil {
		t.Fatal("cancelled run carried no checkpoint")
	}
	resumedCfg := cfg
	resumedCfg.Resume = cerr.Checkpoint
	resumed, err := runLargeMonte(resumedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, full) {
		t.Fatalf("resumed-after-chaos aggregates differ from uninterrupted:\n got  %+v\n want %+v", resumed, full)
	}
}

// TestChaosDelayHarmless: a pure stall at a placement site slows a run
// down but never changes its result — fault hooks are observation
// points, not draws.
func TestChaosDelayHarmless(t *testing.T) {
	a := largeArray(t, 400)
	want, err := runLarge(RunSpec{Config: Config{Array: a, Seed: 9}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer fault.Arm(fault.Plan{
		Match: fault.Site{Op: fault.OpPlace, Rep: -1, Shard: 1, Block: -1},
		Do:    fault.Delay, Sleep: 30 * time.Millisecond,
	})()
	got, err := runLarge(RunSpec{Config: Config{Array: a, Seed: 9}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxLoad != want.MaxLoad || got.Deviation != want.Deviation ||
		!reflect.DeepEqual(got.ShardBalls, want.ShardBalls) {
		t.Fatal("a delay fault changed the result")
	}
}

// chaosStreamConfig is the streaming spec the stream chaos cases
// share: every phase (routing, placement, deletions, rebalance)
// active, every round doing real work.
func chaosStreamConfig(t *testing.T, ctx context.Context) *RunSpec {
	t.Helper()
	return &RunSpec{
		Config: Config{
			Array:      largeArray(t, 400),
			Seed:       20260808,
			Workers:    2,
			Balls:      2000,
			Context:    ctx,
			ObsOptions: ObsOptions{Checkpoints: []int64{2, 4}},
		},
		Shards: 4,
		Stream: &StreamParams{
			Rounds:       5,
			Deletions:    600,
			RebalanceTol: 0.001,
		},
	}
}

// TestChaosRunStreamPanicSites: an injected panic at each streaming
// fault site — a routing block, a placement stride, the deletion
// router, a shard deletion task, a rebalance move-out task — surfaces
// as a provenance-carrying *PanicError naming the round it fired in.
func TestChaosRunStreamPanicSites(t *testing.T) {
	cases := []struct {
		name  string
		match fault.Site
		op    fault.Op
		task  string
	}{
		{"route", fault.Site{Engine: engRunStream, Op: fault.OpRoute, Rep: 1, Shard: -1, Block: -1},
			fault.OpRoute, "route"},
		{"place", fault.Site{Engine: engRunStream, Op: fault.OpPlace, Rep: 1, Shard: 2, Block: -1},
			fault.OpPlace, "place"},
		{"delete-route", fault.Site{Engine: engRunStream, Op: fault.OpDelete, Rep: 1, Shard: -1, Block: -1},
			fault.OpDelete, "delete-route"},
		{"delete-shard", fault.Site{Engine: engRunStream, Op: fault.OpDelete, Rep: 1, Shard: 2, Block: -1},
			fault.OpDelete, "delete"},
		{"rebalance", fault.Site{Engine: engRunStream, Op: fault.OpRebalance, Rep: -1, Shard: -1, Block: -1},
			fault.OpRebalance, "move-out"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer leakCheck(t)()
			defer fault.Arm(fault.Plan{Match: tc.match, Do: fault.Panic, Msg: "chaos"})()
			_, err := runStream(chaosStreamConfig(t, nil))
			var perr *PanicError
			if !errors.As(err, &perr) {
				t.Fatalf("err = %v, want *PanicError", err)
			}
			if perr.Engine != engRunStream || perr.Task != tc.task {
				t.Fatalf("provenance engine %q task %q, want %s %s", perr.Engine, perr.Task, engRunStream, tc.task)
			}
			var inj *fault.Injected
			if !errors.As(err, &inj) {
				t.Fatalf("panic value %v is not the injected fault", perr.Value)
			}
			if inj.Site.Op != tc.op {
				t.Fatalf("fault fired at op %v, want %v", inj.Site.Op, tc.op)
			}
			if tc.match.Rep >= 0 && perr.Rep != tc.match.Rep {
				t.Fatalf("panic attributed to round %d, want %d", perr.Rep, tc.match.Rep)
			}
		})
	}
}

// TestChaosRunStreamRoundKill kills round 2 mid-flight at its pinned
// deletion-routing site and checks the cancelled partial is exactly the
// two-round prefix — bit-identical to an uninterrupted run configured
// with Rounds = 2.
func TestChaosRunStreamRoundKill(t *testing.T) {
	defer leakCheck(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	disarm := fault.Arm(fault.Plan{
		Match: fault.Site{Engine: engRunStream, Op: fault.OpDelete, Rep: 2, Shard: -1, Block: -1},
		Do:    fault.CancelRun, Cancel: cancel, Once: true,
	})
	out, err := runStream(chaosStreamConfig(t, ctx))
	disarm()
	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CancelledError", err)
	}
	res := out.Stream
	if cerr.Engine != engRunStream || cerr.CompletedRounds != res.Rounds {
		t.Fatalf("provenance %+v does not match partial rounds %d", cerr, res.Rounds)
	}
	if res.Rounds != 2 {
		t.Fatalf("cancel fired in round 2 but %d rounds committed", res.Rounds)
	}
	short := chaosStreamConfig(t, nil)
	short.Stream.Rounds = res.Rounds
	wantOut, err := runStream(short)
	if err != nil {
		t.Fatal(err)
	}
	want := wantOut.Stream
	if res.Arrived != want.Arrived || res.Deleted != want.Deleted ||
		res.Moved != want.Moved || res.Balls != want.Balls {
		t.Fatalf("partial counters %+v, want prefix %+v", res, want)
	}
	if !reflect.DeepEqual(res.ShardBalls, want.ShardBalls) {
		t.Fatal("partial shard occupancies differ from the equivalent shorter run")
	}
	if !reflect.DeepEqual(out.Checkpoints, wantOut.Checkpoints) {
		t.Fatal("partial trajectory differs from the equivalent shorter run")
	}
}

// TestChaosRunStreamDelayHarmless: stalls at streaming sites slow the
// run but never change a bit of the result.
func TestChaosRunStreamDelayHarmless(t *testing.T) {
	want, err := runStream(chaosStreamConfig(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer fault.Arm(
		fault.Plan{
			Match: fault.Site{Engine: engRunStream, Op: fault.OpDelete, Rep: -1, Shard: 1, Block: -1},
			Do:    fault.Delay, Sleep: 20 * time.Millisecond,
		},
		fault.Plan{
			Match: fault.Site{Engine: engRunStream, Op: fault.OpRoute, Rep: 3, Shard: -1, Block: -1},
			Do:    fault.Delay, Sleep: 20 * time.Millisecond, Once: true,
		},
	)()
	got, err := runStream(chaosStreamConfig(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxLoad != want.MaxLoad || got.Stream.Moved != want.Stream.Moved ||
		!reflect.DeepEqual(got.Stream.ShardBalls, want.Stream.ShardBalls) ||
		!reflect.DeepEqual(got.Checkpoints, want.Checkpoints) {
		t.Fatal("a delay fault changed the streaming result")
	}
}

// chaosClusterConfig is the cluster chaos spec: scheduled + stochastic
// churn, timeouts with retries, and shedding, so every new fault site
// is on the executed path.
func chaosClusterConfig(t *testing.T, ctx context.Context) *RunSpec {
	t.Helper()
	// Uniform peers, sustained overload: every queue is backlogged from
	// tick 1 on, so the crashed peer always has residents to
	// redistribute and every shard's retry task has work.
	a, err := bins.Uniform(12, 5)
	if err != nil {
		t.Fatal(err)
	}
	return &RunSpec{
		Config: Config{
			Array:   a,
			Seed:    5,
			Workers: 4,
			Context: ctx,
		},
		Shards: 4,
		Cluster: &ClusterParams{
			Ticks:           20,
			ArrivalsPerTick: 80,
			// Purely scheduled churn: every site's tick is exact, so a plan
			// pinned to {op, tick, peer} always fires.
			Churn: ChurnPlan{
				Schedule: []ChurnEvent{
					{Tick: 2, Peer: 7, Down: true},
					{Tick: 6, Peer: 7, Down: false},
				},
			},
			Retry:         RetryPolicy{TimeoutTicks: 2, MaxRetries: 2, BackoffBase: 1},
			ShedThreshold: 1.5,
		},
	}
}

// wantClusterInjected asserts err is a provenance *PanicError wrapping
// the injected fault at the expected op and task, attributed to the
// cluster engine.
func wantClusterInjected(t *testing.T, err error, op fault.Op, task string) {
	t.Helper()
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if perr.Engine != engRunCluster {
		t.Fatalf("panic attributed to engine %q, want %q", perr.Engine, engRunCluster)
	}
	var inj *fault.Injected
	if !errors.As(err, &inj) {
		t.Fatalf("panic value %v is not the injected fault", perr.Value)
	}
	if inj.Site.Op != op {
		t.Fatalf("fault fired at op %v, want %v", inj.Site.Op, op)
	}
	if perr.Task != task {
		t.Fatalf("task %q, want %q", perr.Task, task)
	}
}

// TestChaosRunClusterPanicSites: a panic at every churn-tolerant fault
// site — a crash event, the ring/router rebuild, a shard's
// redistribution task, the admission step, a shard's retry task, plus
// the inherited routing and placement sites — surfaces as a typed
// error with {engine, task, tick, peer/shard} provenance and strands
// no goroutine.
func TestChaosRunClusterPanicSites(t *testing.T) {
	cases := []struct {
		site fault.Site
		task string
	}{
		// Rep pins the scheduled crash tick; Shard carries the peer.
		{fault.Site{Engine: engRunCluster, Op: fault.OpCrash, Rep: 2, Shard: 7, Block: -1}, "churn"},
		{fault.Site{Engine: engRunCluster, Op: fault.OpReshard, Rep: 2, Shard: -1, Block: -1}, "reshard"},
		{fault.Site{Engine: engRunCluster, Op: fault.OpReshard, Rep: 2, Shard: 0, Block: -1}, "redistribute"},
		{fault.Site{Engine: engRunCluster, Op: fault.OpShed, Rep: 3, Shard: -1, Block: -1}, "shed"},
		{fault.Site{Engine: engRunCluster, Op: fault.OpRetry, Rep: -1, Shard: -1, Block: -1}, "retry"},
		{fault.Site{Engine: engRunCluster, Op: fault.OpRoute, Rep: 1, Shard: -1, Block: -1}, "route"},
		{fault.Site{Engine: engRunCluster, Op: fault.OpPlace, Rep: 1, Shard: 1, Block: -1}, "place"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			func() {
				defer leakCheck(t)()
				defer fault.Arm(fault.Plan{Match: tc.site, Do: fault.Panic, Msg: "chaos"})()
				cfg := chaosClusterConfig(t, nil)
				cfg.Workers = workers
				_, err := runCluster(cfg)
				wantClusterInjected(t, err, tc.site.Op, tc.task)
			}()
		}
	}
}

// TestChaosRunClusterCancelMidTick: a context fired from inside tick
// k's retry phase abandons that tick and returns a committed prefix
// bit-identical to a CancelAfter = k run.
func TestChaosRunClusterCancelMidTick(t *testing.T) {
	defer leakCheck(t)()
	const k = 7
	short := chaosClusterConfig(t, nil)
	short.CancelAfter = k
	want, werr := runCluster(short)
	var wcerr *CancelledError
	if !errors.As(werr, &wcerr) || wcerr.CompletedTicks != k {
		t.Fatalf("reference run: %v", werr)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer fault.Arm(fault.Plan{
		Match: fault.Site{Engine: engRunCluster, Op: fault.OpRetry, Rep: k, Shard: -1, Block: -1},
		Do:    fault.CancelRun, Cancel: cancel, Once: true,
	})()
	got, err := runCluster(chaosClusterConfig(t, ctx))
	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CancelledError", err)
	}
	if cerr.CompletedTicks != k {
		t.Fatalf("completed ticks = %d, want %d", cerr.CompletedTicks, k)
	}
	if !reflect.DeepEqual(traceOf(got, nil), traceOf(want, nil)) {
		t.Fatal("mid-tick cancellation prefix diverges from the CancelAfter run")
	}
}

// TestChaosRunClusterDelayHarmless: stalls at churn-path sites slow
// the run but never change a bit of the degraded-mode result.
func TestChaosRunClusterDelayHarmless(t *testing.T) {
	wantSpec := chaosClusterConfig(t, nil)
	wantArr := adopt(wantSpec)
	want, err := runCluster(wantSpec)
	if err != nil {
		t.Fatal(err)
	}
	defer fault.Arm(
		fault.Plan{
			Match: fault.Site{Engine: engRunCluster, Op: fault.OpReshard, Rep: -1, Shard: -1, Block: -1},
			Do:    fault.Delay, Sleep: 10 * time.Millisecond,
		},
		fault.Plan{
			Match: fault.Site{Engine: engRunCluster, Op: fault.OpRetry, Rep: -1, Shard: 2, Block: -1},
			Do:    fault.Delay, Sleep: 10 * time.Millisecond,
		},
	)()
	gotSpec := chaosClusterConfig(t, nil)
	gotArr := adopt(gotSpec)
	got, err := runCluster(gotSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traceOf(got, gotArr), traceOf(want, wantArr)) {
		t.Fatal("a delay fault changed the cluster result")
	}
}
