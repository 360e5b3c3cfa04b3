package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bins"
	"repro/internal/protocol"
	"repro/internal/xrand"
)

// leakCheck snapshots the goroutine count; the returned func fails the
// test if the count has not settled back to the baseline — a pool
// worker or orchestrator stranded by an error path.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
	}
}

// hookedPlacer wraps a real placer and runs a hook before every
// PlaceBatch — the test's way of triggering cancellation or a panic
// from inside the engines' placement hot path without build tags.
type hookedPlacer struct {
	protocol.Placer
	calls *atomic.Int64
	hook  func(call int64)
}

func (p *hookedPlacer) PlaceBatch(a *bins.Array, r *xrand.Rand, k int64) {
	p.hook(p.calls.Add(1))
	p.Placer.PlaceBatch(a, r, k)
}

// hookedFactory builds Greedy(2) placers whose PlaceBatch calls share
// one global counter and run hook first.
func hookedFactory(hook func(call int64)) protocol.Factory {
	var calls atomic.Int64
	return func(a *bins.Array, weights []float64) (protocol.Placer, error) {
		p, err := protocol.GreedyFactory(2)(a, weights)
		if err != nil {
			return nil, err
		}
		return &hookedPlacer{Placer: p, calls: &calls, hook: hook}, nil
	}
}

// TestRunCancelImmediate: a context that is already cancelled stops the
// classic engine before any repetition and still returns a well-formed
// (empty) partial.
func TestRunCancelImmediate(t *testing.T) {
	defer leakCheck(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := largeArray(t, 200)
	res, err := runClassic(Config{Array: a, Seed: 1, Reps: 10, Context: ctx})
	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CancelledError", err)
	}
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v does not match ErrCancelled/context.Canceled", err)
	}
	if cerr.Engine != engRun || cerr.CompletedReps != 0 || cerr.CompletedCuts != -1 {
		t.Fatalf("provenance %+v, want engine %q with 0 completed reps", cerr, engRun)
	}
	if res == nil || res.MaxLoad.N() != 0 {
		t.Fatalf("partial result %+v, want empty aggregates", res)
	}
}

// TestRunCancelPartialIsPrefix: the classic engine's cancelled partial
// must be bit-identical to an uninterrupted run configured with exactly
// CompletedReps repetitions — partial results are a prefix of the
// deterministic model, not a best-effort snapshot. One worker runs the
// repetitions in order, and each makes three PlaceBatch calls (two
// checkpoint segments and the rest), so a cancel from call 3 lands in
// repetition 0's last segment: exactly one repetition completes.
func TestRunCancelPartialIsPrefix(t *testing.T) {
	defer leakCheck(t)()
	a := largeArray(t, 300)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	factory := hookedFactory(func(call int64) {
		if call == 3 {
			cancel()
		}
	})
	res, err := runClassic(Config{
		Array: a, Seed: 5, Reps: 64, Workers: 1, Placer: factory,
		ObsOptions: ObsOptions{Checkpoints: []int64{500, 1000}},
		Context:    ctx,
	})
	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CancelledError", err)
	}
	k := cerr.CompletedReps
	if k != 1 {
		t.Fatalf("completed reps %d, want 1", k)
	}
	if res.MaxLoad.N() != int64(k) {
		t.Fatalf("partial aggregates %d observations, CompletedReps %d", res.MaxLoad.N(), k)
	}
	want, err := runClassic(Config{
		Array: a, Seed: 5, Reps: k, Workers: 3, Placer: hookedFactory(func(int64) {}),
		ObsOptions: ObsOptions{Checkpoints: []int64{500, 1000}},
	})
	if err != nil {
		t.Fatalf("prefix run: %v", err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("cancelled partial differs from a Reps=%d run:\n got  %+v\n want %+v", k, res, want)
	}
}

// TestRunLargeCancelImmediate: a pre-cancelled context stops the
// sharded single-run engine during routing; the partial carries shape
// but no checkpoint rows and no final state.
func TestRunLargeCancelImmediate(t *testing.T) {
	defer leakCheck(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := largeArray(t, 400)
	res, err := runLarge(RunSpec{
		Config: Config{
			Array:      a,
			Seed:       3,
			ObsOptions: ObsOptions{Checkpoints: []int64{500, 1000}},
			Context:    ctx,
		},
		Shards: 4,
	})
	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CancelledError", err)
	}
	if cerr.Engine != engRunLargeMC || cerr.CompletedCuts != 0 || cerr.CompletedReps != 0 {
		t.Fatalf("provenance %+v, want RunLargeMonte with 0 completed reps and cuts", cerr)
	}
	if res == nil || res.N != 400 || res.Shards != 4 {
		t.Fatalf("partial shape %+v", res)
	}
	if len(res.Checkpoints) != 0 || res.Array != nil {
		t.Fatalf("pre-routing partial carries state: %+v", res)
	}
}

// TestRunLargeCancelCheckpointPrefix: when cancellation lands during
// placement, the partial's checkpoint rows are a prefix of — and
// bit-identical to — the uninterrupted run's rows. One worker places
// the shards in index order, so where a cancel lands fixes the prefix
// length: a cancel in shard 0 keeps no cut (a nil row slice, which
// must still match the empty prefix), a cancel late in the last shard
// keeps some.
func TestRunLargeCancelCheckpointPrefix(t *testing.T) {
	defer leakCheck(t)()
	a := largeArray(t, 1500)
	cuts := []int64{2000, 20000, 100000, 300000}
	base := RunSpec{Config: Config{Array: a, Seed: 11, Workers: 1, BallsFactor: 50, ObsOptions: ObsOptions{Checkpoints: cuts}}, Shards: 4}
	want, err := runLarge(base)
	if err != nil {
		t.Fatal(err)
	}
	// An armed but never-cancelled context strides placement exactly
	// like the cancelled runs below; counting its PlaceBatch calls
	// locates the last shard's tail. The rows must not move: wrapping
	// the placer and striding never change the draw sequence.
	live, stop := context.WithCancel(context.Background())
	defer stop()
	var calls int64
	counted := base
	counted.Context = live
	counted.Placer = hookedFactory(func(call int64) { calls = call })
	got, err := runLarge(counted)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Checkpoints, want.Checkpoints) {
		t.Fatal("wrapping the placer or striding placement changed the draw sequence")
	}
	for _, at := range []int64{2, calls - 2} {
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := base
		cancelled.Context = ctx
		cancelled.Placer = hookedFactory(func(call int64) {
			if call == at {
				cancel()
			}
		})
		res, err := runLarge(cancelled)
		cancel()
		var cerr *CancelledError
		if !errors.As(err, &cerr) {
			t.Fatalf("cancel at call %d: err = %v, want *CancelledError", at, err)
		}
		done := cerr.CompletedCuts
		if done < 0 || done > len(cuts) || len(res.Checkpoints) != done {
			t.Fatalf("cancel at call %d: %d completed cuts, %d partial rows", at, done, len(res.Checkpoints))
		}
		if at > 2 && done == 0 {
			t.Fatalf("cancel at call %d, in the last shard, kept no cut", at)
		}
		for k := 0; k < done; k++ {
			if !reflect.DeepEqual(res.Checkpoints[k], want.Checkpoints[k]) {
				t.Fatalf("cancel at call %d: row %d differs from the uninterrupted run:\n got  %+v\n want %+v",
					at, k, res.Checkpoints[k], want.Checkpoints[k])
			}
		}
	}
}

// TestRunLargeMonteCancelAfterRepsIsPrefix: a deterministic self-cancel
// after k repetitions yields aggregates bit-identical to a Reps=k run,
// across shard and worker topologies, with a resumable checkpoint and a
// nil Cause.
func TestRunLargeMonteCancelAfterRepsIsPrefix(t *testing.T) {
	a := largeArray(t, 600)
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 3} {
			defer leakCheck(t)()
			cfg := RunSpec{
				Config: Config{
					Array:             a,
					Seed:              77,
					Workers:           workers,
					ObsOptions:        ObsOptions{Checkpoints: []int64{500, 1500}, HeightLevels: 3},
					Reps:              7,
					CollectLoadVector: true,
				},
				Shards:     shards,
				ShardStats: true,
			}
			prefix := cfg
			prefix.Reps = 3
			want, err := runLargeMonte(prefix)
			if err != nil {
				t.Fatalf("shards=%d workers=%d prefix run: %v", shards, workers, err)
			}
			cancelledCfg := cfg
			cancelledCfg.CancelAfter = 3
			res, err := runLargeMonte(cancelledCfg)
			var cerr *CancelledError
			if !errors.As(err, &cerr) {
				t.Fatalf("shards=%d workers=%d: err = %v, want *CancelledError", shards, workers, err)
			}
			if cerr.CompletedReps != 3 || cerr.Cause != nil || cerr.Checkpoint == nil {
				t.Fatalf("shards=%d workers=%d: provenance %+v, want 3 reps, nil cause, checkpoint", shards, workers, cerr)
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("shards=%d workers=%d: partial differs from a Reps=3 run:\n got  %+v\n want %+v",
					shards, workers, res, want)
			}
		}
	}
}

// TestRunLargeMonteContextCancel: a real context cancellation mid-run
// surfaces as ErrCancelled with a context cause and a contiguous
// completed prefix, and strands no goroutine.
func TestRunLargeMonteContextCancel(t *testing.T) {
	defer leakCheck(t)()
	a := largeArray(t, 600)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	factory := hookedFactory(func(call int64) {
		if call == 5 {
			cancel()
		}
	})
	res, err := runLargeMonte(RunSpec{
		Config: Config{
			Array:   a,
			Seed:    9,
			Workers: 3,
			Placer:  factory,
			Context: ctx,
			Reps:    50,
		},
		Shards: 4,
	})
	var cerr *CancelledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CancelledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cause chain %v does not include context.Canceled", err)
	}
	if cerr.CompletedReps < 0 || cerr.CompletedReps >= 50 {
		t.Fatalf("completed reps %d out of range", cerr.CompletedReps)
	}
	if res.MaxLoad.N() != int64(cerr.CompletedReps) {
		t.Fatalf("aggregates %d observations, CompletedReps %d", res.MaxLoad.N(), cerr.CompletedReps)
	}
}

// TestRunLargeMontePlacePanicReleasesFold is the Monte error-path
// regression: a pool task dying mid-repetition must surface as a
// provenance error, the repetition loop must stop without folding it,
// and every pool worker goroutine must exit.
func TestRunLargeMontePlacePanicReleasesFold(t *testing.T) {
	a := largeArray(t, 400)
	for _, workers := range []int{1, 4} {
		defer leakCheck(t)()
		factory := hookedFactory(func(call int64) {
			if call == 7 {
				panic("injected placement panic")
			}
		})
		_, err := runLargeMonte(RunSpec{
			Config: Config{
				Array:   a,
				Seed:    2,
				Workers: workers,
				Placer:  factory,
				Reps:    12,
			},
			Shards: 4,
		})
		var perr *PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if perr.Engine != engRunLargeMC || perr.Task != "place" {
			t.Fatalf("workers=%d: provenance %+v, want RunLargeMonte place task", workers, perr)
		}
		if len(perr.Stack) == 0 {
			t.Fatalf("workers=%d: no stack captured", workers)
		}
	}
}

// TestRunChunkPanicContained: the classic engine converts a repetition
// panic into a provenance error instead of crashing, and never masks it
// with a concurrent cancellation.
func TestRunChunkPanicContained(t *testing.T) {
	defer leakCheck(t)()
	a := largeArray(t, 200)
	factory := hookedFactory(func(call int64) {
		if call == 4 {
			panic("injected chunk panic")
		}
	})
	_, err := runClassic(Config{Array: a, Seed: 1, Reps: 24, Workers: 3, Placer: factory})
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if perr.Engine != engRun || perr.Task != "chunk" {
		t.Fatalf("provenance %+v, want Run chunk task", perr)
	}
}

// TestValidateFieldNamedErrors pins the config-validation hardening:
// malformed observation requests and negative knobs are rejected with
// errors naming the offending field, before any goroutine starts.
func TestValidateFieldNamedErrors(t *testing.T) {
	a := largeArray(t, 100)
	dispatch := func(spec RunSpec) func() error {
		return func() error { _, err := Dispatch(spec); return err }
	}
	heightBins := ObsOptions{HeightBins: 4}
	rounds, ticks := &StreamParams{Rounds: 1}, &ClusterParams{Ticks: 1}
	cases := []struct {
		name string
		frag string
		run  func() error
	}{
		{"classic negative checkpoint", "Checkpoints[", func() error {
			_, err := runClassic(Config{Array: a, Reps: 1, ObsOptions: ObsOptions{Checkpoints: []int64{-5}}})
			return err
		}},
		{"classic unsorted checkpoints", "Checkpoints[", func() error {
			_, err := runClassic(Config{Array: a, Reps: 1, ObsOptions: ObsOptions{Checkpoints: []int64{50, 10}}})
			return err
		}},
		{"classic duplicate checkpoints", "Checkpoints[", func() error {
			_, err := runClassic(Config{Array: a, Reps: 1, ObsOptions: ObsOptions{Checkpoints: []int64{10, 10}}})
			return err
		}},
		{"classic negative workers", "Workers", func() error {
			_, err := runClassic(Config{Array: a, Reps: 1, Workers: -2})
			return err
		}},
		{"classic negative height levels", "HeightLevels", func() error {
			_, err := runClassic(Config{Array: a, Reps: 1, ObsOptions: ObsOptions{HeightLevels: -1}})
			return err
		}},
		// A NaN HeightMax once passed silently without HeightBins and
		// failed unnamed in the histogram with them; +Inf built a
		// histogram of infinite width that put every height in bucket 0.
		{"classic NaN height max", "HeightMax", dispatch(RunSpec{Config: Config{Array: a, Reps: 2, ObsOptions: ObsOptions{HeightMax: math.NaN()}}})},
		{"classic NaN height max with bins", "HeightMax", dispatch(RunSpec{Config: Config{Array: a, Reps: 2, ObsOptions: ObsOptions{HeightBins: 4, HeightMax: math.NaN()}}})},
		{"classic infinite height max", "HeightMax", dispatch(RunSpec{Config: Config{Array: a, Reps: 2, ObsOptions: ObsOptions{HeightBins: 4, HeightMax: math.Inf(1)}}})},
		{"large zero checkpoint", "Checkpoints[", func() error {
			_, err := runLarge(RunSpec{Config: Config{Array: a, ObsOptions: ObsOptions{Checkpoints: []int64{0, 5}}}})
			return err
		}},
		{"large unsorted checkpoints", "Checkpoints[", func() error {
			_, err := runLarge(RunSpec{Config: Config{Array: a, ObsOptions: ObsOptions{Checkpoints: []int64{100, 20}}}})
			return err
		}},
		{"large negative workers", "Workers", func() error {
			_, err := runLarge(RunSpec{Config: Config{Array: a, Workers: -1}})
			return err
		}},
		{"monte unsorted checkpoints", "Checkpoints[", func() error {
			_, err := runLargeMonte(RunSpec{
				Config: Config{
					Array:      a,
					ObsOptions: ObsOptions{Checkpoints: []int64{9, 3}},
					Reps:       1,
				},
			})
			return err
		}},
		{"monte negative cancel-after", "CancelAfter", func() error {
			_, err := runLargeMonte(RunSpec{
				Config:      Config{Array: a, Reps: 1},
				CancelAfter: -1,
			})
			return err
		}},
		{"large shards out of range", "Shards", func() error {
			_, err := runLarge(RunSpec{Config: Config{Array: a}, Shards: 101})
			return err
		}},
		{"stream shards out of range", "Shards", func() error {
			_, err := runStream(&RunSpec{Config: Config{Array: a}, Shards: 101, Stream: &StreamParams{Rounds: 1}})
			return err
		}},
		{"cluster shards out of range", "Shards", func() error {
			_, err := runCluster(&RunSpec{Config: Config{Array: a}, Shards: -1, Cluster: &ClusterParams{Ticks: 1}})
			return err
		}},
		// The capability table: an engine names the field it cannot
		// honour, whichever engine the spec was sent to.
		{"sharded height bins", "HeightBins", dispatch(RunSpec{Config: Config{Array: a, Reps: 1, ObsOptions: heightBins}, Engine: EngineSharded})},
		{"stream height bins", "HeightBins", dispatch(RunSpec{Config: Config{Array: a, ObsOptions: heightBins}, Stream: rounds})},
		{"cluster height bins", "HeightBins", dispatch(RunSpec{Config: Config{Array: a, ObsOptions: heightBins}, Cluster: ticks})},
		{"sharded track classes", "TrackClasses", dispatch(RunSpec{Config: Config{Array: a, Reps: 1, TrackClasses: []int64{1}}, Engine: EngineSharded})},
		{"stream track classes", "TrackClasses", dispatch(RunSpec{Config: Config{Array: a, TrackClasses: []int64{1}}, Stream: rounds})},
		{"cluster track classes", "TrackClasses", dispatch(RunSpec{Config: Config{Array: a, TrackClasses: []int64{1}}, Cluster: ticks})},
		{"classic cancel-after", "CancelAfter", dispatch(RunSpec{Config: Config{Array: a, Reps: 1}, Engine: EngineClassic, CancelAfter: 2})},
		{"closed-form cancel-after", "CancelAfter", dispatch(RunSpec{Config: Config{Array: a, Reps: 1, Placer: protocol.SingleFactory()}, Engine: EngineClosedForm, CancelAfter: 2})},
		{"stream shard stats", "ShardStats", dispatch(RunSpec{Config: Config{Array: a}, ShardStats: true, Stream: rounds})},
	}
	for _, tc := range cases {
		err := tc.run()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not name the field (%q)", tc.name, err, tc.frag)
		}
	}
}
