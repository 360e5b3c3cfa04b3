package sim

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bins"
	"repro/internal/dist"
	"repro/internal/protocol"
	"repro/internal/xrand"
)

// runClassic and runClosed run cfg on the classic and closed-form
// chunked engines: what Dispatch does for EngineClassic and
// EngineClosedForm, minus the engine selection.
func runClassic(cfg Config) (*Result, error) {
	return runChunked(EngineClassic, &RunSpec{Config: cfg})
}

func runClosed(cfg Config) (*Result, error) {
	return runChunked(EngineClosedForm, &RunSpec{Config: cfg})
}

// runOnce plays repetition 0 of cfg's classic game directly — one
// PlaceBatch on stream (Seed, 0), no chunk driver, no observers — and
// returns the final array: the naive reference the engine tests compare
// against.
func runOnce(cfg Config) (*bins.Array, error) {
	r := xrand.NewStream(cfg.Seed, 0)
	arr := cfg.Array.Clone()
	arr.Reset()
	weights, err := cfg.distribution().Weights(arr)
	if err != nil {
		return nil, err
	}
	placer, err := cfg.factory()(arr, weights)
	if err != nil {
		return nil, err
	}
	placer.PlaceBatch(arr, r, cfg.BallCount(arr.TotalCapacity()))
	return arr, nil
}

func uniformArray(t *testing.T, n int, c int64) *bins.Array {
	t.Helper()
	a, err := bins.Uniform(n, c)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestValidation(t *testing.T) {
	if _, err := runClassic(Config{Reps: 1}); err == nil {
		t.Error("no array accepted")
	}
	a := uniformArray(t, 4, 1)
	if _, err := runClassic(Config{Array: a, Reps: 0}); err == nil {
		t.Error("zero reps accepted")
	}
	if _, err := runClassic(Config{Array: a, Reps: 1, Balls: -1}); err == nil {
		t.Error("negative balls accepted")
	}
	if _, err := runClassic(Config{Array: a, Reps: 1, BallsFactor: -2}); err == nil {
		t.Error("negative factor accepted")
	}
	if _, err := runClassic(Config{
		ArrayFn:          func(r *xrand.Rand) (*bins.Array, error) { return a.Clone(), nil },
		Reps:             1,
		ClassLoadVectors: []int64{1},
	}); err == nil {
		t.Error("ClassLoadVectors with ArrayFn accepted")
	}
}

func TestDefaultBallsEqualsCapacity(t *testing.T) {
	a := uniformArray(t, 16, 3) // C = 48
	res, err := runClassic(Config{Array: a, Reps: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Balls.Mean(); got != 48 {
		t.Fatalf("mean balls = %v, want 48 (m = C default)", got)
	}
	if res.N != 16 {
		t.Fatalf("N = %d", res.N)
	}
	if got := res.TotalCapacity.Mean(); got != 48 {
		t.Fatalf("mean capacity = %v", got)
	}
}

func TestBallsFactor(t *testing.T) {
	a := uniformArray(t, 10, 2) // C = 20
	res, err := runClassic(Config{Array: a, Reps: 2, BallsFactor: 2.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Balls.Mean(); got != 50 {
		t.Fatalf("mean balls = %v, want 50", got)
	}
	res, err = runClassic(Config{Array: a, Reps: 2, Balls: 7, BallsFactor: 2.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Balls.Mean(); got != 7 {
		t.Fatalf("explicit Balls overridden: %v", got)
	}
}

// TestDeterministicAcrossWorkerCounts is the core reproducibility claim:
// identical results for 1, 2, 3 and 8 workers.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	a := uniformArray(t, 64, 2)
	var base *Result
	for _, workers := range []int{1, 2, 3, 8} {
		res, err := runClassic(Config{
			Array: a, Reps: 40, Seed: 99, Workers: workers,
			CollectLoadVector: true,
			TrackClasses:      []int64{2},
			ObsOptions:        ObsOptions{Checkpoints: []int64{16, 64, 128}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.MaxLoad.Mean() != base.MaxLoad.Mean() {
			t.Fatalf("workers=%d: MaxLoad mean %v != %v", workers, res.MaxLoad.Mean(), base.MaxLoad.Mean())
		}
		if res.Deviation.Mean() != base.Deviation.Mean() {
			t.Fatalf("workers=%d: Deviation mean differs", workers)
		}
		for i := range base.MeanSortedLoads {
			if res.MeanSortedLoads[i] != base.MeanSortedLoads[i] {
				t.Fatalf("workers=%d: load vector differs at %d", workers, i)
			}
		}
		if res.ClassMaxFraction[2] != base.ClassMaxFraction[2] {
			t.Fatalf("workers=%d: class fraction differs", workers)
		}
		for i := range base.Checkpoints {
			if res.Checkpoints[i].MaxLoad.Mean() != base.Checkpoints[i].MaxLoad.Mean() {
				t.Fatalf("workers=%d: checkpoint %d differs", workers, i)
			}
		}
	}
}

func TestSeedChangesResults(t *testing.T) {
	a := uniformArray(t, 64, 1)
	r1, err := runClassic(Config{Array: a, Reps: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runClassic(Config{Array: a, Reps: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Mean max loads are discrete and could coincide; compare the full
	// accumulator state instead (variance too) and accept a tiny chance
	// of coincidence by checking both moments.
	if r1.MaxLoad.Mean() == r2.MaxLoad.Mean() && r1.MaxLoad.Variance() == r2.MaxLoad.Variance() &&
		r1.Deviation.Mean() == r2.Deviation.Mean() {
		t.Fatal("different seeds produced identical statistics")
	}
}

func TestCollectLoadVectorSorted(t *testing.T) {
	a := uniformArray(t, 32, 1)
	res, err := runClassic(Config{Array: a, Reps: 20, Seed: 5, CollectLoadVector: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MeanSortedLoads) != 32 {
		t.Fatalf("vector length %d", len(res.MeanSortedLoads))
	}
	if !sort.SliceIsSorted(res.MeanSortedLoads, func(i, j int) bool {
		return res.MeanSortedLoads[i] > res.MeanSortedLoads[j]
	}) {
		t.Fatalf("mean sorted loads not non-increasing: %v", res.MeanSortedLoads)
	}
	// mass conservation: sum of mean loads == m (capacity 1 bins)
	sum := 0.0
	for _, v := range res.MeanSortedLoads {
		sum += v
	}
	if math.Abs(sum-32) > 1e-9 {
		t.Fatalf("mean loads sum %v, want 32", sum)
	}
}

func TestTrackClasses(t *testing.T) {
	a, err := bins.TwoClass(10, 1, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runClassic(Config{Array: a, Reps: 50, Seed: 3, TrackClasses: []int64{1, 8}})
	if err != nil {
		t.Fatal(err)
	}
	f1, f8 := res.ClassMaxFraction[1], res.ClassMaxFraction[8]
	if f1 < 0 || f1 > 1 || f8 < 0 || f8 > 1 {
		t.Fatalf("fractions out of range: %v, %v", f1, f8)
	}
	// fractions can overlap (ties) but at least one class must hold the
	// max in every repetition
	if f1+f8 < 1 {
		t.Fatalf("classes cover %v < 1 of repetitions", f1+f8)
	}
}

func TestClassLoadVectors(t *testing.T) {
	a, err := bins.TwoClass(6, 1, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runClassic(Config{Array: a, Reps: 30, Seed: 4, ClassLoadVectors: []int64{1, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ClassMeanSortedLoads[1]) != 6 {
		t.Fatalf("class 1 vector length %d", len(res.ClassMeanSortedLoads[1]))
	}
	if len(res.ClassMeanSortedLoads[8]) != 4 {
		t.Fatalf("class 8 vector length %d", len(res.ClassMeanSortedLoads[8]))
	}
	for _, class := range []int64{1, 8} {
		v := res.ClassMeanSortedLoads[class]
		for i := 1; i < len(v); i++ {
			if v[i] > v[i-1]+1e-12 {
				t.Fatalf("class %d loads not sorted: %v", class, v)
			}
		}
	}
}

func TestCheckpoints(t *testing.T) {
	a := uniformArray(t, 16, 1)
	res, err := runClassic(Config{
		Array: a, Reps: 10, Seed: 6, Balls: 64,
		ObsOptions: ObsOptions{Checkpoints: []int64{16, 32, 48, 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) != 4 {
		t.Fatalf("%d checkpoints", len(res.Checkpoints))
	}
	prev := 0.0
	for i, cp := range res.Checkpoints {
		if cp.MaxLoad.N() != 10 {
			t.Fatalf("checkpoint %d has %d observations", i, cp.MaxLoad.N())
		}
		// running max load grows with more balls
		if cp.MaxLoad.Mean() < prev {
			t.Fatalf("checkpoint max load decreased: %v -> %v", prev, cp.MaxLoad.Mean())
		}
		prev = cp.MaxLoad.Mean()
		// deviation = max - avg is non-negative
		if cp.Deviation.Mean() < 0 {
			t.Fatalf("negative deviation at checkpoint %d", i)
		}
	}
}

func TestCheckpointBeyondBallsIgnored(t *testing.T) {
	a := uniformArray(t, 8, 1)
	res, err := runClassic(Config{
		Array: a, Reps: 5, Seed: 7, Balls: 8,
		ObsOptions: ObsOptions{Checkpoints: []int64{4, 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoints[0].MaxLoad.N() != 5 {
		t.Fatal("in-range checkpoint missing observations")
	}
	if res.Checkpoints[1].MaxLoad.N() != 0 {
		t.Fatal("out-of-range checkpoint has observations")
	}
}

func TestArrayFnRandomCapacities(t *testing.T) {
	res, err := runClassic(Config{
		ArrayFn: func(r *xrand.Rand) (*bins.Array, error) {
			return bins.RandomBinomial(100, 4, r)
		},
		Reps: 30, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 100 {
		t.Fatalf("N = %d", res.N)
	}
	// realised capacity varies across reps
	if res.TotalCapacity.Min() == res.TotalCapacity.Max() {
		t.Fatal("random capacities identical across reps (suspicious)")
	}
	// expected capacity 400
	if math.Abs(res.TotalCapacity.Mean()-400) > 15 {
		t.Fatalf("mean capacity %v, want ~400", res.TotalCapacity.Mean())
	}
}

func TestArrayFnErrorPropagates(t *testing.T) {
	called := false
	_, err := runClassic(Config{
		ArrayFn: func(r *xrand.Rand) (*bins.Array, error) {
			called = true
			return nil, errTest
		},
		Reps: 3, Seed: 1,
	})
	if err == nil {
		t.Fatal("builder error swallowed")
	}
	if !called {
		t.Fatal("builder never called")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }

// TestNBinsProbeErrorSurfaces: reduce probes ArrayFn once more (stream
// 0) to read the bin count. A builder that succeeds during the run but
// fails on the probe — only possible for a stateful ArrayFn — must
// surface that error instead of silently reporting N = 0.
func TestNBinsProbeErrorSurfaces(t *testing.T) {
	calls := 0
	_, err := runClassic(Config{
		ArrayFn: func(r *xrand.Rand) (*bins.Array, error) {
			calls++
			if calls > 2 { // reps succeed, the final probe fails
				return nil, errTest
			}
			return bins.Uniform(4, 1)
		},
		Reps: 2, Seed: 1, Workers: 1,
	})
	if err == nil {
		t.Fatal("probe error swallowed (N would silently read 0)")
	}
}

func TestUniformDistOption(t *testing.T) {
	// With uniform selection over a two-class array, large bins no longer
	// receive proportionally more choices; single-choice shows the raw
	// selection distribution directly.
	a, err := bins.TwoClass(5, 1, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Array: a, Reps: 1, Seed: 9, Balls: 50000,
		Dist:   dist.Uniform{},
		Placer: protocol.SingleFactory(),
	}
	arr, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// every bin gets ~1/10 of the balls
	for i := 0; i < arr.N(); i++ {
		frac := float64(arr.Balls(i)) / 50000
		if math.Abs(frac-0.1) > 0.02 {
			t.Fatalf("bin %d fraction %.3f under uniform dist", i, frac)
		}
	}
}

func TestRunOnce(t *testing.T) {
	a := uniformArray(t, 10, 1)
	arr, err := runOnce(Config{Array: a, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if arr.TotalBalls() != 10 {
		t.Fatalf("TotalBalls = %d", arr.TotalBalls())
	}
	// original array untouched
	if a.TotalBalls() != 0 {
		t.Fatal("RunOnce mutated the config array")
	}
	// deterministic
	arr2, err := runOnce(Config{Array: a, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < arr.N(); i++ {
		if arr.Balls(i) != arr2.Balls(i) {
			t.Fatal("RunOnce not deterministic")
		}
	}
	// The reference is repetition 0 of the classic engine, so a Reps = 1
	// run through Dispatch reports its max load.
	for seed := uint64(0); seed < 20; seed++ {
		b := bins.MustNew([]int64{1, 1, 2, 3, 5, 8, 13, 21})
		ref, err := runOnce(Config{Array: b, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Dispatch(RunSpec{Config: Config{Array: b, Reps: 1, Seed: seed}, Engine: EngineClassic})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.MaxLoad.Mean(), ref.MaxLoad(); got != want {
			t.Fatalf("seed %d: Dispatch max load %v, repetition 0 played directly %v", seed, got, want)
		}
	}
}

// TestGoldenValues pins exact outputs for fixed seeds. The RNG stream,
// the alias-table construction, and every protocol decision are
// deterministic, so these values must never change; a diff here means an
// unintended behavioural change to the allocation pipeline (or an
// intended one — then update the constants and say so in the commit).
func TestGoldenValues(t *testing.T) {
	golden := []struct {
		name          string
		caps          []int64
		wantMax       float64
		wantDeviation float64
	}{
		// Re-pinned when the hot path moved to the one-draw
		// integer-threshold alias sampler (the canonical draw sequence
		// changed once; see the batch-kernel PR).
		{"uniform8x1", []int64{1, 1, 1, 1, 1, 1, 1, 1}, 1.9800000000000002, 0.98},
		{"mix", []int64{1, 1, 1, 1, 10, 10}, 1.1960000000000002, 0.196},
		{"ladder", []int64{1, 2, 3, 4, 5}, 1.2816666666666665, 0.2816666666666667},
	}
	for _, g := range golden {
		arr, err := bins.New(g.caps)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runClassic(Config{Array: arr, Reps: 50, Seed: 12345})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.MaxLoad.Mean(); got != g.wantMax {
			t.Errorf("%s: MaxLoad mean = %v, golden %v", g.name, got, g.wantMax)
		}
		if got := res.Deviation.Mean(); got != g.wantDeviation {
			t.Errorf("%s: Deviation mean = %v, golden %v", g.name, got, g.wantDeviation)
		}
	}
}

// TestQuickRandomConfigInvariants: for arbitrary small configurations,
// the engine conserves mass (avg load = m/C), is deterministic, and the
// max load dominates the average.
func TestQuickRandomConfigInvariants(t *testing.T) {
	f := func(seed uint64, nRaw, capRaw uint8, reps uint8) bool {
		n := int(nRaw%12) + 1
		r := xrand.New(seed)
		caps := make([]int64, n)
		for i := range caps {
			caps[i] = int64(r.Intn(int(capRaw%8)+1)) + 1
		}
		arr, err := bins.New(caps)
		if err != nil {
			return false
		}
		cfg := Config{Array: arr, Reps: int(reps%8) + 1, Seed: seed}
		a, err := runClassic(cfg)
		if err != nil {
			return false
		}
		b, err := runClassic(cfg)
		if err != nil {
			return false
		}
		if a.MaxLoad.Mean() != b.MaxLoad.Mean() {
			return false
		}
		if a.AvgLoad.Mean() != 1 { // m = C default
			return false
		}
		return a.MaxLoad.Mean() >= a.AvgLoad.Mean()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHeightHistogram(t *testing.T) {
	a := uniformArray(t, 50, 1)
	res, err := runClassic(Config{
		Array: a, Reps: 20, Seed: 12,
		ObsOptions: ObsOptions{HeightBins: 16, HeightMax: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Heights == nil {
		t.Fatal("no height histogram")
	}
	// every ball contributes one height observation
	total := res.Heights.Total() + res.Heights.Underflow + res.Heights.Overflow
	if total != 20*50 {
		t.Fatalf("height observations %d, want %d", total, 20*50)
	}
	// heights are at least 1/c = 1 for unit bins: bin 0 covers [0,0.5)
	// and must be empty, bin 2 covers [1,1.5) and must hold mass.
	if res.Heights.Counts[0] != 0 {
		t.Fatal("height below 1 recorded for unit bins")
	}
	if res.Heights.Counts[2] == 0 {
		t.Fatal("no height-1 balls recorded")
	}
	// deterministic across worker counts
	res2, err := runClassic(Config{
		Array: a, Reps: 20, Seed: 12,
		Workers: 3, ObsOptions: ObsOptions{HeightBins: 16, HeightMax: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Heights.Counts {
		if res.Heights.Counts[i] != res2.Heights.Counts[i] {
			t.Fatal("height histogram depends on worker count")
		}
	}
}

func TestHeightHistogramDefaultMax(t *testing.T) {
	a := uniformArray(t, 10, 1)
	res, err := runClassic(Config{Array: a, Reps: 2, Seed: 1, ObsOptions: ObsOptions{HeightBins: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Heights.Hi != 8 {
		t.Fatalf("default HeightMax = %v", res.Heights.Hi)
	}
}

// TestMaxLoadSanity: the classical n=m d=2 game on 1000 unit bins must
// give mean max load between 2 and 5 (theory: ln ln n / ln 2 + O(1) ≈ 2.8).
func TestMaxLoadSanity(t *testing.T) {
	a := uniformArray(t, 1000, 1)
	res, err := runClassic(Config{Array: a, Reps: 50, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.MaxLoad.Mean(); m < 2 || m > 5 {
		t.Fatalf("d=2 max load mean %v outside [2,5]", m)
	}
}

// TestCheckpointValidation: non-positive checkpoints are rejected up
// front — a checkpoint at 0 balls can never be reached by a placement,
// and before validation existed the per-ball and batch paths disagreed
// on how to skip it.
func TestCheckpointValidation(t *testing.T) {
	a := uniformArray(t, 4, 1)
	if _, err := runClassic(Config{Array: a, Reps: 1, ObsOptions: ObsOptions{Checkpoints: []int64{0, 5}}}); err == nil {
		t.Fatal("checkpoint at 0 balls accepted")
	}
	if _, err := runClassic(Config{Array: a, Reps: 1, ObsOptions: ObsOptions{Checkpoints: []int64{-3}}}); err == nil {
		t.Fatal("negative checkpoint accepted")
	}
}

// TestObsOptionsSizeCaps: HeightLevels and HeightBins size result
// tables, so validation rejects them above 65,536, naming the field,
// instead of letting a run attempt the allocation. It calls validate
// directly, so a missing cap shows as a nil error and allocates
// nothing.
func TestObsOptionsSizeCaps(t *testing.T) {
	const limit = 1 << 16
	for _, tc := range []struct {
		field string
		o     ObsOptions
	}{
		{"HeightLevels", ObsOptions{HeightLevels: limit + 1}},
		{"HeightLevels", ObsOptions{HeightLevels: 1 << 40}},
		{"HeightLevels", ObsOptions{HeightLevels: math.MaxInt}},
		{"HeightBins", ObsOptions{HeightBins: limit + 1}},
		{"HeightBins", ObsOptions{HeightBins: 1 << 40}},
		{"HeightBins", ObsOptions{HeightBins: math.MaxInt}},
	} {
		err := tc.o.validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: err = %v, want a rejection naming %s", tc.o, err, tc.field)
		}
	}
	for _, o := range []ObsOptions{{HeightLevels: limit}, {HeightBins: limit}} {
		if err := o.validate(); err != nil {
			t.Errorf("%+v at the cap rejected: %v", o, err)
		}
	}
}

// TestCheckpointsAgreeAcrossPaths: requesting a height histogram swaps
// the engine onto the per-ball path; checkpoint statistics must not
// change.
func TestCheckpointsAgreeAcrossPaths(t *testing.T) {
	a := uniformArray(t, 8, 2)
	base := Config{Array: a, Reps: 4, Seed: 11, Balls: 40, ObsOptions: ObsOptions{Checkpoints: []int64{5, 20}}}
	plain, err := runClassic(base)
	if err != nil {
		t.Fatal(err)
	}
	withHeights := base
	withHeights.HeightBins = 8
	hres, err := runClassic(withHeights)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Checkpoints {
		pm := plain.Checkpoints[i].MaxLoad.Mean()
		hm := hres.Checkpoints[i].MaxLoad.Mean()
		if pm != hm {
			t.Fatalf("checkpoint %d: batch path mean %v, per-ball path %v",
				plain.Checkpoints[i].Balls, pm, hm)
		}
	}
}

// TestBatchedPlacerForgetsRepetition: a stateful placer (the batched
// protocol, whose round snapshot outlives a repetition that ends
// mid-round) is reset between repetitions, so each repetition plays
// as on a freshly built placer. Classic: a fixed array, whose worker
// placer serves every repetition, against an ArrayFn returning the
// same array, which builds a placer per repetition. Monte: an
// uninterrupted run against runs resumed after each repetition, whose
// shard placers are built afresh.
func TestBatchedPlacerForgetsRepetition(t *testing.T) {
	// Rounds of 150 balls: every repetition ends mid-round.
	batched := protocol.BatchedFactory(2, 150)
	a := largeArray(t, 64)
	cfg := Config{Array: a, Balls: 200, Reps: 5, Seed: 17, Workers: 1, Placer: batched, CollectLoadVector: true}
	fixed, err := runClassic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Array, cfg.ArrayFn = nil, func(*xrand.Rand) (*bins.Array, error) { return a.Clone(), nil }
	fresh, err := runClassic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fixed, fresh) {
		t.Fatalf("classic: a reused batched placer differs from fresh ones:\n got  %+v\n want %+v", fixed, fresh)
	}

	spec := RunSpec{Config: Config{Array: largeArray(t, 600), Balls: 1000, Reps: 4, Seed: 17, Workers: 2, Placer: batched, CollectLoadVector: true}, Shards: 4}
	full, err := runLargeMonte(spec)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < spec.Reps; k++ {
		cut := spec
		cut.CancelAfter = k
		_, err := runLargeMonte(cut)
		var cerr *CancelledError
		if !errors.As(err, &cerr) || cerr.Checkpoint == nil {
			t.Fatalf("monte k=%d: err = %v, want a checkpoint", k, err)
		}
		resumed := spec
		resumed.Resume = cerr.Checkpoint
		res, err := runLargeMonte(resumed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, full) {
			t.Fatalf("monte k=%d: resumed on fresh batched placers differs:\n got  %+v\n want %+v", k, res, full)
		}
	}
}
