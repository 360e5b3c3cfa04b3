package sim

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/bins"
	"repro/internal/dist"
	"repro/internal/protocol"
	"repro/internal/xrand"
)

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
	}{
		{"", EngineAuto},
		{"auto", EngineAuto},
		{"classic", EngineClassic},
		{"sharded", EngineSharded},
		{"closed-form", EngineClosedForm},
	} {
		got, err := ParseEngine(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Errorf("ParseEngine(warp): want error")
	}
}

func TestDispatchAutoSelection(t *testing.T) {
	small := uniformArray(t, 64, 1)
	big := uniformArray(t, AutoScaleMinBins, 1)
	cases := []struct {
		name string
		spec RunSpec
		want Engine
	}{
		{"small-single-classic", RunSpec{Config: Config{
			Array: small, Placer: protocol.SingleFactory(), Reps: 2, Seed: 1,
		}}, EngineClassic},
		{"small-greedy-classic", RunSpec{Config: Config{
			Array: small, Reps: 2, Seed: 1,
		}}, EngineClassic},
		{"big-single-closed", RunSpec{Config: Config{
			Array: big, Placer: protocol.SingleFactory(), Reps: 2, Seed: 1,
		}}, EngineClosedForm},
		{"big-greedy-sharded", RunSpec{Config: Config{
			Array: big, Reps: 2, Seed: 1,
		}}, EngineSharded},
		{"big-greedy-classes-classic", RunSpec{Config: Config{
			Array: big, Reps: 2, Seed: 1, TrackClasses: []int64{1},
		}}, EngineClassic},
		{"big-arrayfn-single-closed", RunSpec{Config: Config{
			ArrayFn: func(r *xrand.Rand) (*bins.Array, error) {
				return uniformArray(t, AutoScaleMinBins, 1), nil
			},
			Placer: protocol.SingleFactory(), Reps: 2, Seed: 1,
		}}, EngineClosedForm},
		{"big-arrayfn-greedy-classic", RunSpec{Config: Config{
			ArrayFn: func(r *xrand.Rand) (*bins.Array, error) {
				return uniformArray(t, AutoScaleMinBins, 1), nil
			},
			Reps: 2, Seed: 1,
		}}, EngineClassic},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.spec.resolveEngine()
			if err != nil {
				t.Fatalf("resolveEngine: %v", err)
			}
			if got != tc.want {
				t.Fatalf("resolveEngine = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestDispatchExplicitEngineErrors(t *testing.T) {
	arr := uniformArray(t, 32, 1)
	fn := func(r *xrand.Rand) (*bins.Array, error) { return uniformArray(t, 32, 1), nil }
	cases := []struct {
		name string
		spec RunSpec
	}{
		{"sharded-arrayfn", RunSpec{Engine: EngineSharded, Config: Config{ArrayFn: fn, Reps: 1}}},
		{"sharded-classes", RunSpec{Engine: EngineSharded, Config: Config{Array: arr, Reps: 1, TrackClasses: []int64{1}}}},
		{"sharded-heightbins", RunSpec{Engine: EngineSharded, Config: Config{Array: arr, Reps: 1, ObsOptions: ObsOptions{HeightBins: 8}}}},
		{"closed-greedy", RunSpec{Engine: EngineClosedForm, Config: Config{Array: arr, Reps: 1}}},
		{"closed-heightbins", RunSpec{Engine: EngineClosedForm, Config: Config{Array: arr, Placer: protocol.SingleFactory(), Reps: 1, ObsOptions: ObsOptions{HeightBins: 8}}}},
		{"unknown-engine", RunSpec{Engine: Engine("warp"), Config: Config{Array: arr, Reps: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Dispatch(tc.spec); err == nil {
				t.Fatalf("Dispatch: want error, got nil")
			}
		})
	}
}

// TestDispatchShardedResultShape pins the sharded engine's Result:
// every classic field it can fill must arrive filled.
func TestDispatchShardedResultShape(t *testing.T) {
	// n is large enough that the block-aligned per-shard cut
	// realisation (multiples of protocol.BlockSize per shard) is
	// non-empty at both cuts.
	n := 8192
	reps := 5
	arr := uniformArray(t, n, 1)
	res, err := Dispatch(RunSpec{
		Engine: EngineSharded,
		Shards: 4,
		Config: Config{
			Array:             arr,
			Reps:              reps,
			Seed:              7,
			CollectLoadVector: true,
			ObsOptions:        ObsOptions{Checkpoints: []int64{int64(n) / 2, int64(n)}, HeightLevels: 4},
		},
	})
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if res.Engine != EngineSharded {
		t.Errorf("Engine = %v, want sharded", res.Engine)
	}
	if res.N != n {
		t.Errorf("N = %d, want %d", res.N, n)
	}
	if res.Balls.N() != int64(reps) || res.Balls.Mean() != float64(n) {
		t.Errorf("Balls: N=%d mean=%v, want N=%d mean=%d", res.Balls.N(), res.Balls.Mean(), reps, n)
	}
	if res.TotalCapacity.N() != int64(reps) || res.TotalCapacity.Mean() != float64(n) {
		t.Errorf("TotalCapacity: N=%d mean=%v", res.TotalCapacity.N(), res.TotalCapacity.Mean())
	}
	if res.MaxLoad.N() != int64(reps) || res.MaxLoad.Mean() <= 0 {
		t.Errorf("MaxLoad: N=%d mean=%v", res.MaxLoad.N(), res.MaxLoad.Mean())
	}
	if len(res.MeanSortedLoads) != n {
		t.Errorf("MeanSortedLoads: len=%d, want %d", len(res.MeanSortedLoads), n)
	}
	if len(res.Checkpoints) != 2 {
		t.Fatalf("Checkpoints: len=%d, want 2", len(res.Checkpoints))
	}
	if res.Checkpoints[1].Balls != int64(n) || res.Checkpoints[1].Reps() != int64(reps) {
		t.Errorf("final checkpoint: balls=%d reps=%d", res.Checkpoints[1].Balls, res.Checkpoints[1].Reps())
	}
	if len(res.HeightCounts) != 4 {
		t.Errorf("HeightCounts: len=%d, want 4", len(res.HeightCounts))
	}
}

// TestClosedFormDeterminism pins the closed-form engine's worker
// independence: identical results for any Workers value.
func TestClosedFormDeterminism(t *testing.T) {
	arr := uniformArray(t, 512, 1)
	base := Config{
		Array:             arr,
		Placer:            protocol.SingleFactory(),
		Reps:              20,
		Seed:              99,
		CollectLoadVector: true,
		ObsOptions:        ObsOptions{Checkpoints: []int64{128, 512}, HeightLevels: 5},
		ClassMaxLoads:     []int64{1},
	}
	var ref *Result
	for _, workers := range []int{1, 3, 8} {
		cfg := base
		cfg.Workers = workers
		res, err := runClosed(cfg)
		if err != nil {
			t.Fatalf("runClosed(workers=%d): %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.MaxLoad != ref.MaxLoad || res.Deviation != ref.Deviation {
			t.Errorf("workers=%d: max-load accumulator differs", workers)
		}
		for i, v := range res.MeanSortedLoads {
			if v != ref.MeanSortedLoads[i] {
				t.Fatalf("workers=%d: MeanSortedLoads[%d] = %v != %v", workers, i, v, ref.MeanSortedLoads[i])
			}
		}
		for i := range res.Checkpoints {
			if res.Checkpoints[i] != ref.Checkpoints[i] {
				t.Errorf("workers=%d: checkpoint %d differs", workers, i)
			}
		}
		if *res.ClassMaxLoad[1] != *ref.ClassMaxLoad[1] {
			t.Errorf("workers=%d: ClassMaxLoad differs", workers)
		}
	}
}

// TestClassMaxLoads pins the classic engine's per-class max-load
// accumulator against a hand-rolled per-repetition replay.
func TestClassMaxLoads(t *testing.T) {
	arr, err := bins.TwoClass(24, 1, 8, 5)
	if err != nil {
		t.Fatalf("TwoClass: %v", err)
	}
	reps := 6
	cfg := Config{Array: arr, Reps: reps, Seed: 42, Workers: 2, ClassMaxLoads: []int64{1, 5}}
	res, err := runClassic(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, class := range []int64{1, 5} {
		acc := res.ClassMaxLoad[class]
		if acc == nil || acc.N() != int64(reps) {
			t.Fatalf("ClassMaxLoad[%d]: missing or short (%v)", class, acc)
		}
	}
	// Replay single-threaded: the per-class accumulators are part of
	// the deterministic result, so they must match bit for bit.
	serial := cfg
	serial.Workers = 1
	sres, err := runClassic(serial)
	if err != nil {
		t.Fatalf("serial Run: %v", err)
	}
	for _, class := range []int64{1, 5} {
		if *res.ClassMaxLoad[class] != *sres.ClassMaxLoad[class] {
			t.Errorf("ClassMaxLoad[%d] differs across worker counts", class)
		}
	}
	// The class-wise maximum can never exceed the overall maximum, and
	// at least one class attains it in every repetition.
	if res.ClassMaxLoad[1].Max() > res.MaxLoad.Max()+1e-12 ||
		res.ClassMaxLoad[5].Max() > res.MaxLoad.Max()+1e-12 {
		t.Errorf("class max exceeds overall max")
	}
	if m := math.Max(res.ClassMaxLoad[1].Max(), res.ClassMaxLoad[5].Max()); m < res.MaxLoad.Max()-1e-12 {
		t.Errorf("no class attains the overall max: %v < %v", m, res.MaxLoad.Max())
	}
}

// TestDuplicateClassesRejected: a capacity class listed twice in one
// class list would be observed twice per repetition (a max fraction of
// 1.75 over 8 repetitions, 16 observations in the max-load
// accumulator), so validation rejects it, naming the field and index.
func TestDuplicateClassesRejected(t *testing.T) {
	arr, err := bins.TwoClass(24, 1, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"TrackClasses[1]", Config{TrackClasses: []int64{10, 10}}},
		{"ClassMaxLoads[2]", Config{ClassMaxLoads: []int64{1, 10, 1}}},
		{"ClassLoadVectors[1]", Config{ClassLoadVectors: []int64{10, 10}}},
	} {
		tc.cfg.Array, tc.cfg.Reps = arr, 8
		for _, e := range []Engine{EngineClassic, EngineClosedForm} {
			spec := RunSpec{Config: tc.cfg, Engine: e}
			if e == EngineClosedForm {
				spec.Placer = protocol.SingleFactory()
			}
			if _, err := Dispatch(spec); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s %s: err = %v, want a rejection naming %s", e, tc.field, err, tc.field)
			}
		}
	}
	// The same class in two different lists is two observables.
	res, err := runClassic(Config{Array: arr, Reps: 8, TrackClasses: []int64{10}, ClassMaxLoads: []int64{10}})
	if err != nil || res.ClassMaxLoad[10].N() != 8 || res.ClassMaxFraction[10] > 1 {
		t.Fatalf("err = %v, class 10: %v observations, max fraction %v", err, res.ClassMaxLoad[10].N(), res.ClassMaxFraction[10])
	}
}

// TestShardedWeightErrorPrecedence: a weight vector the router
// rejects (a negative or zero shard total) fails with the router's
// error, even when a placer would fail too; weights that only a
// shard's placer rejects fail with that shard's setup error. Both
// messages are pinned verbatim.
func TestShardedWeightErrorPrecedence(t *testing.T) {
	for _, tc := range []struct {
		w    []float64
		want string // after "sim: <engine> "
	}{
		{[]float64{1, 1, 1, -5, 1, 1, 1, 1}, "router: sampling: weight 0 is invalid (-2)"},
		{[]float64{1, 1, 1, -5, 3, -1, 1, 1}, "router: sampling: weight 0 is invalid (-2)"},
		{[]float64{0, 0, 0, 0, 0, 0, 0, 0}, "router: sampling: no positive weights"},
		{[]float64{1, 1, 1, 1, 3, -1, 1, 1}, "setup shard 1: protocol: greedy sampler: sampling: weight 1 is invalid (-1)"},
		{[]float64{0, 0, 0, 0, 3, -1, 1, 1}, "setup shard 1: protocol: greedy sampler: sampling: weight 1 is invalid (-1)"},
	} {
		for _, e := range []Engine{EngineSharded, EngineStream} {
			spec := RunSpec{Engine: e, Config: Config{Array: uniformArray(t, 8, 1), Reps: 1, Dist: dist.Custom{W: tc.w}}, Shards: 2}
			eng := engRunLargeMC
			if e == EngineStream {
				spec.Stream, eng = &StreamParams{Rounds: 1}, engRunStream
			}
			want := "sim: " + eng + " " + tc.want
			if _, err := Dispatch(spec); err == nil || err.Error() != want {
				t.Errorf("%v %s: err = %v, want %s", tc.w, e, err, want)
			}
		}
	}
}

// TestDispatchCancelledPassthrough: a dead context yields the engine's
// partial plus a *CancelledError, with the engine recorded.
func TestDispatchCancelledPassthrough(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	arr := uniformArray(t, 32, 1)
	for _, engine := range []Engine{EngineClassic, EngineSharded, EngineClosedForm} {
		spec := RunSpec{Engine: engine, Config: Config{Array: arr, Reps: 4, Seed: 3, Context: ctx}}
		if engine == EngineClosedForm {
			spec.Placer = protocol.SingleFactory()
		}
		res, err := Dispatch(spec)
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("%s: err = %v, want ErrCancelled", engine, err)
		}
		if res == nil || res.Engine != engine {
			t.Fatalf("%s: partial result missing or engine unset (%+v)", engine, res)
		}
	}
}

// TestDispatchConservation asserts the model's ball-conservation
// identities at the Dispatch boundary of every engine: the ball count
// is the average load times the capacity, every engine reports the
// gap (Deviation), and the streaming and serving engines' counters
// account for every ball in the final array.
func TestDispatchConservation(t *testing.T) {
	a := largeArray(t, 600)
	churn, retry := stressPlan()
	specs := map[Engine]RunSpec{
		EngineClassic:    {Config: Config{Array: a, Reps: 4, Seed: 1}, Engine: EngineClassic},
		EngineClosedForm: {Config: Config{Array: a, Reps: 4, Seed: 2, Placer: protocol.SingleFactory()}, Engine: EngineClosedForm},
		EngineSharded:    {Config: Config{Array: a, Reps: 3, Seed: 3, BallsFactor: 2}, Engine: EngineSharded, Shards: 4},
		EngineStream: {Config: Config{Array: a, Seed: 4, Balls: 900}, Shards: 4,
			Stream: &StreamParams{Rounds: 4, Deletions: 500, RebalanceTol: 0.1}},
		EngineCluster: {Config: Config{Array: a, Seed: 5}, Shards: 4,
			Cluster: &ClusterParams{Ticks: 12, ArrivalsPerTick: 8000, Churn: churn, Retry: retry, ShedThreshold: 1.5}},
	}
	for engine, spec := range specs {
		arr := adopt(&spec)
		res, err := Dispatch(spec)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if res.Engine != engine {
			t.Fatalf("%s: dispatched to %s", engine, res.Engine)
		}
		balls, avg, capacity := res.Balls.Mean(), res.AvgLoad.Mean(), res.TotalCapacity.Mean()
		if balls <= 0 || math.Abs(avg*capacity-balls) > 1e-9*balls {
			t.Errorf("%s: Balls = %v, AvgLoad·TotalCapacity = %v·%v", engine, balls, avg, capacity)
		}
		if res.Deviation.N() == 0 || math.IsNaN(res.Deviation.Mean()) {
			t.Errorf("%s: Deviation not filled (n = %d)", engine, res.Deviation.N())
		}
		if s := res.Stream; s != nil {
			var shardSum int64
			for _, b := range s.ShardBalls {
				shardSum += b
			}
			if s.Arrived-s.Deleted != s.Balls || shardSum != s.Balls || arr.TotalBalls() != s.Balls || float64(s.Balls) != balls {
				t.Errorf("stream: arrived %d − deleted %d, balls %d, Σ shards %d, array %d, result %v",
					s.Arrived, s.Deleted, s.Balls, shardSum, arr.TotalBalls(), balls)
			}
		}
		if c := res.Cluster; c != nil {
			if c.FinalQueued != arr.TotalBalls() || float64(c.FinalQueued) != balls {
				t.Errorf("cluster: queued %d, array %d, result %v", c.FinalQueued, arr.TotalBalls(), balls)
			}
			if c.Arrived != c.Shed+c.Admitted || c.Admitted != c.Completed+c.Failed+c.PendingRetry+c.FinalQueued {
				t.Errorf("cluster admission identities broken: %+v", c)
			}
			if c.Shed == 0 || c.Retried == 0 || c.Redistributed == 0 {
				t.Errorf("cluster spec too quiet to test conservation: %+v", c)
			}
		}
	}
}

// TestDispatchIsTheOnlyEngineEntry guards the package's exported
// surface: Dispatch is the one exported function that runs an engine,
// so every caller shares its validation, engine selection and Result
// mapping. Any other exported top-level function must be on the
// allowlist below — an engine runner may not reappear.
func TestDispatchIsTheOnlyEngineEntry(t *testing.T) {
	allowed := []string{"Dispatch", "ParseEngine", "ReadMonteCheckpoint"}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
					exported = append(exported, fn.Name.Name)
				}
			}
		}
	}
	if len(exported) == 0 {
		t.Fatal("parsed no exported function: wrong directory?")
	}
	for _, name := range exported {
		if !slices.Contains(allowed, name) {
			t.Errorf("exported func %s: only Dispatch may run an engine (extend the allowlist only for non-engine helpers)", name)
		}
	}
	if !slices.Contains(exported, "Dispatch") {
		t.Error("Dispatch is not exported")
	}
}

// TestBallsFactorOutOfRange: a BallsFactor whose ball count is no
// int64 — a non-finite factor, or a rounded product of 2^63 or more —
// fails by field name on every engine that takes one (fixed arrays in
// validate, ArrayFn arrays where each repetition computes m), instead
// of silently playing another game: the wrapped conversion clamped to
// 1 ball, and NaN fell back to m = C.
func TestBallsFactorOutOfRange(t *testing.T) {
	a := uniformArray(t, 4, 1)
	fn := func(*xrand.Rand) (*bins.Array, error) { return uniformArray(t, 4, 1), nil }
	for _, f := range []float64{math.Inf(1), 1e19, 1e300, math.NaN()} {
		specs := map[string]RunSpec{
			"classic":         {Config: Config{Array: a, Reps: 2, Seed: 1, BallsFactor: f}, Engine: EngineClassic},
			"classic ArrayFn": {Config: Config{ArrayFn: fn, Reps: 2, Seed: 1, BallsFactor: f}, Engine: EngineClassic},
			"closed-form ArrayFn": {Config: Config{ArrayFn: fn, Reps: 2, Seed: 1, BallsFactor: f,
				Placer: protocol.SingleFactory()}, Engine: EngineClosedForm},
			"sharded": {Config: Config{Array: a, Reps: 2, Seed: 1, BallsFactor: f}, Engine: EngineSharded, Shards: 2},
			"stream":  {Config: Config{Array: a, Seed: 1, BallsFactor: f}, Shards: 2, Stream: &StreamParams{Rounds: 2}},
		}
		for name, spec := range specs {
			if _, err := Dispatch(spec); err == nil || !strings.Contains(err.Error(), "BallsFactor") {
				t.Errorf("%s, BallsFactor = %v: err = %v, want a BallsFactor rejection", name, f, err)
			}
		}
	}
	// The largest factor whose count fits still runs.
	ok := RunSpec{Config: Config{Array: a, Reps: 1, Seed: 1, BallsFactor: 0.5}, Engine: EngineClassic}
	if res, err := Dispatch(ok); err != nil || res.Balls.Mean() != 2 {
		t.Fatalf("BallsFactor = 0.5 on C = 4: balls %v, err %v", res.Balls.Mean(), err)
	}
}
