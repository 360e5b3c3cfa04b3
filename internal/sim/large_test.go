package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bins"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// largeResult is the single sharded game as the tests read it: the
// final statistics, observations, per-shard routed counts and final
// array of a Reps = 1 sharded run.
type largeResult struct {
	N            int
	Shards       int
	Balls        int64
	MaxLoad      float64
	AvgLoad      float64
	Deviation    float64
	ShardBalls   []int64
	Checkpoints  []obs.CheckpointRow
	HeightCounts []obs.HeightRow
	Array        *bins.Array // nil on a cancelled partial
}

// runLarge plays the spec's single sharded game: runLargeMonte with
// Reps = 1 on a private clone of spec.Array (on spec.Array itself
// under AdoptArray), which then holds the final state. A cancelled
// partial carries the shape and the completed cut prefix only.
func runLarge(spec RunSpec) (*largeResult, error) {
	spec.Reps = 1
	spec.ShardStats = true
	if spec.Array != nil && !spec.AdoptArray {
		adopt(&spec)
	}
	res, err := runLargeMonte(spec)
	if res == nil {
		return nil, err
	}
	out := &largeResult{N: res.N, Shards: res.Shards, Balls: spec.BallCount(spec.Array.TotalCapacity()), Checkpoints: res.Checkpoints}
	if err != nil {
		return out, err
	}
	out.MaxLoad, out.AvgLoad, out.Deviation = res.MaxLoad.Mean(), res.AvgLoad.Mean(), res.Deviation.Mean()
	out.HeightCounts = res.HeightCounts
	out.Array = spec.Array
	for _, row := range res.ShardStats.Rows() {
		out.ShardBalls = append(out.ShardBalls, int64(row.Balls.Mean()))
	}
	return out, nil
}

// adopt points spec at a private clone of its array, adopted by the
// engine, and returns the clone: after a completed run it holds the
// final state.
func adopt(spec *RunSpec) *bins.Array {
	spec.Array, spec.AdoptArray = spec.Array.Clone(), true
	return spec.Array
}

func largeArray(t testing.TB, n int) *bins.Array {
	t.Helper()
	a, err := bins.TwoClass(n/2, 1, n-n/2, 10)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRunLargeValidation(t *testing.T) {
	if _, err := runLarge(RunSpec{}); err == nil {
		t.Error("nil array accepted")
	}
	a := largeArray(t, 100)
	if _, err := runLarge(RunSpec{Config: Config{Array: a, Balls: -1}}); err == nil {
		t.Error("negative balls accepted")
	}
	if _, err := runLarge(RunSpec{Config: Config{Array: a, BallsFactor: -0.5}}); err == nil {
		t.Error("negative factor accepted")
	}
	if _, err := runLarge(RunSpec{Config: Config{Array: a}, Shards: -3}); err == nil {
		t.Error("negative shards accepted")
	}
	if _, err := runLarge(RunSpec{Config: Config{Array: a}, Shards: 101}); err == nil {
		t.Error("shards > n accepted")
	}
}

func TestRunLargeDefaults(t *testing.T) {
	a := largeArray(t, 1000)
	res, err := runLarge(RunSpec{Config: Config{Array: a, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != DefaultShards {
		t.Fatalf("shards = %d, want %d", res.Shards, DefaultShards)
	}
	if res.Balls != a.TotalCapacity() {
		t.Fatalf("balls = %d, want C = %d", res.Balls, a.TotalCapacity())
	}
	if got := res.Array.TotalBalls(); got != res.Balls {
		t.Fatalf("final array holds %d balls, want %d", got, res.Balls)
	}
	var routed int64
	for _, c := range res.ShardBalls {
		routed += c
	}
	if routed != res.Balls {
		t.Fatalf("routed %d balls across shards, want %d", routed, res.Balls)
	}
	if res.AvgLoad != 1 {
		t.Fatalf("avg load %v, want 1 (m = C)", res.AvgLoad)
	}
	if res.MaxLoad < res.AvgLoad {
		t.Fatalf("max load %v below average %v", res.MaxLoad, res.AvgLoad)
	}
	// the caller's array must stay untouched
	if a.TotalBalls() != 0 {
		t.Fatal("the single game mutated the config array")
	}
	// BallsFactor scales C, explicit Balls overrides it
	fres, err := runLarge(RunSpec{Config: Config{Array: a, Seed: 1, BallsFactor: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if fres.Balls != 2*a.TotalCapacity() {
		t.Fatalf("factor 2 placed %d balls, want %d", fres.Balls, 2*a.TotalCapacity())
	}
	ores, err := runLarge(RunSpec{Config: Config{Array: a, Seed: 1, Balls: 7, BallsFactor: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if ores.Balls != 7 {
		t.Fatalf("explicit Balls overridden: %d", ores.Balls)
	}
	// tiny-n default: shards clamp to n
	small, err := bins.Uniform(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := runLarge(RunSpec{Config: Config{Array: small, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Shards != 3 {
		t.Fatalf("default shards on n=3: %d, want 3", sres.Shards)
	}
}

// TestRunLargeBitIdenticalAcrossWorkers is the engine's core contract:
// the full final bin state is bit-identical for any worker count.
func TestRunLargeBitIdenticalAcrossWorkers(t *testing.T) {
	a := largeArray(t, 2000)
	var base *largeResult
	for _, workers := range []int{1, 2, 3, 8} {
		res, err := runLarge(RunSpec{
			Config: Config{
				Array:   a,
				Seed:    42,
				Workers: workers,
				Placer:  protocol.GreedyFactory(4),
			},
			Shards: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.MaxLoad != base.MaxLoad || res.Deviation != base.Deviation {
			t.Fatalf("workers=%d: stats differ", workers)
		}
		for i := 0; i < res.Array.N(); i++ {
			if res.Array.Balls(i) != base.Array.Balls(i) {
				t.Fatalf("workers=%d: bin %d has %d balls, want %d",
					workers, i, res.Array.Balls(i), base.Array.Balls(i))
			}
		}
	}
}

// TestRunLargeShardsArePartOfTheModel: changing Shards legitimately
// changes the result (like changing Seed) — pin that it does, so an
// accidental coupling of Shards to Workers would be caught by the
// bit-identity test above rather than hidden here.
func TestRunLargeShardsArePartOfTheModel(t *testing.T) {
	a := largeArray(t, 2000)
	r16, err := runLarge(RunSpec{Config: Config{Array: a, Seed: 7}, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	r32, err := runLarge(RunSpec{Config: Config{Array: a, Seed: 7}, Shards: 32})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < a.N(); i++ {
		if r16.Array.Balls(i) != r32.Array.Balls(i) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("16 and 32 shards produced identical states (suspicious)")
	}
}

// TestRunLargeRoutingProportional: with single-choice placement the
// final per-bin counts expose the end-to-end selection distribution;
// the two-level (shard, then bin) factorisation must reproduce the
// configured marginal. Compare class totals against expectation.
func TestRunLargeRoutingProportional(t *testing.T) {
	const n = 1000
	a := largeArray(t, n) // C = 500·1 + 500·10 = 5500
	res, err := runLarge(RunSpec{
		Config: Config{
			Array:  a,
			Seed:   3,
			Balls:  200000,
			Placer: protocol.SingleFactory(),
		},
		Shards: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	var small, large int64
	for i := 0; i < n; i++ {
		if res.Array.Capacity(i) == 1 {
			small += res.Array.Balls(i)
		} else {
			large += res.Array.Balls(i)
		}
	}
	wantSmall := 200000.0 * 500.0 / 5500.0
	if got := float64(small); math.Abs(got-wantSmall) > 0.05*wantSmall {
		t.Fatalf("small-class balls %v, want ~%v", got, wantSmall)
	}
	if small+large != 200000 {
		t.Fatalf("total %d", small+large)
	}
}

// TestRunLargeZeroWeightShards: a distribution that zeroes out whole
// shards (top-only zeroes every small bin, and the two-class array is
// contiguous) must route nothing there and not try to build placers on
// all-zero weight vectors.
func TestRunLargeZeroWeightShards(t *testing.T) {
	a := largeArray(t, 1000)
	res, err := runLarge(RunSpec{
		Config: Config{
			Array: a,
			Seed:  5,
			Dist:  dist.TopOnly{MinCapacity: 10},
		},
		Shards: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N(); i++ {
		if res.Array.Capacity(i) < 10 && res.Array.Balls(i) != 0 {
			t.Fatalf("small bin %d received balls under top-only", i)
		}
	}
}

// TestRunLargeGoldenValues pins exact outputs for a fixed (seed,
// shards) configuration, the way golden_test.go pins placement
// sequences: the routing substreams (stream 0 block substreams), the
// shard stream layout (1+s) and the per-shard kernels are all
// deterministic, so any change to these values means the sharded draw
// stream was redefined — which silently invalidates every pinned
// large-run result and must be deliberate. Re-pinned exactly once
// when routing moved from the serial per-ball alias pass to
// block-wise multinomial count generation; frozen from that point on.
func TestRunLargeGoldenValues(t *testing.T) {
	a := largeArray(t, 512)
	res, err := runLarge(RunSpec{Config: Config{Array: a, Seed: 20260727}, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	wantShardBalls := []int64{62, 68, 77, 64, 663, 636, 603, 643}
	for s, want := range wantShardBalls {
		if res.ShardBalls[s] != want {
			t.Fatalf("routing stream changed: shard %d got %d balls, golden %d",
				s, res.ShardBalls[s], want)
		}
	}
	if res.MaxLoad != 3 || res.Deviation != 2 {
		t.Fatalf("max/deviation = %v/%v, golden 3/2", res.MaxLoad, res.Deviation)
	}
	var h uint64
	for i := 0; i < res.Array.N(); i++ {
		h = h*1315423911 + uint64(res.Array.Balls(i))
	}
	const wantHash = uint64(17615593939143187072)
	if h != wantHash {
		t.Fatalf("final-state hash %d, golden %d (shard streams changed)", h, wantHash)
	}
}

// TestRunLargeCheckpointsDoNotMoveDraws is the tentpole contract of
// the observation subsystem: requesting checkpoints segments each
// shard's PlaceBatch at the block-aligned cuts, and segmentation must
// not move a single draw — the final state (and hence the golden
// hash of TestRunLargeGoldenValues' configuration) is bit-identical
// with and without checkpoints.
func TestRunLargeCheckpointsDoNotMoveDraws(t *testing.T) {
	a := largeArray(t, 512)
	plain, err := runLarge(RunSpec{Config: Config{Array: a, Seed: 20260727}, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	cped, err := runLarge(RunSpec{
		Config: Config{
			Array:      a,
			Seed:       20260727,
			ObsOptions: ObsOptions{Checkpoints: []int64{300, 1500, 2500}, HeightLevels: 4},
		},
		Shards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cped.MaxLoad != plain.MaxLoad || cped.Deviation != plain.Deviation {
		t.Fatalf("checkpoints moved final stats: %v/%v vs %v/%v",
			cped.MaxLoad, cped.Deviation, plain.MaxLoad, plain.Deviation)
	}
	for i := 0; i < plain.Array.N(); i++ {
		if cped.Array.Balls(i) != plain.Array.Balls(i) {
			t.Fatalf("bin %d: %d balls with checkpoints, %d without",
				i, cped.Array.Balls(i), plain.Array.Balls(i))
		}
	}
	if len(cped.Checkpoints) != 3 || len(cped.HeightCounts) != 4 {
		t.Fatalf("observations missing: %d checkpoints, %d height rows",
			len(cped.Checkpoints), len(cped.HeightCounts))
	}
}

// TestRunLargeCheckpointModel pins the sharded cut rule: each shard's
// cut is a multiple of the kernel block size, so the realised ball
// count at every cut is a multiple of protocol.BlockSize and at most
// the requested count, and observations grow monotonically. A cut too
// small to realise any block-aligned state at all (here: 1 ball) is
// skipped like a cut beyond m rather than recorded as max load 0.
func TestRunLargeCheckpointModel(t *testing.T) {
	a := largeArray(t, 4000) // C = 22000
	res, err := runLarge(RunSpec{
		Config: Config{
			Array:      a,
			Seed:       9,
			ObsOptions: ObsOptions{Checkpoints: []int64{1, 5000, 15000, 900000}},
		},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) != 4 {
		t.Fatalf("%d checkpoint rows", len(res.Checkpoints))
	}
	if tiny := &res.Checkpoints[0]; tiny.Reps() != 0 {
		t.Fatalf("empty-realisation cut observed %d times (max %v)", tiny.Reps(), tiny.MaxLoad.Mean())
	}
	var prevReal float64
	for i, row := range res.Checkpoints[1:3] {
		if row.Reps() != 1 {
			t.Fatalf("cut %d observed %d times in a single run", i, row.Reps())
		}
		real := row.RealBalls.Mean()
		if int64(real)%protocol.BlockSize != 0 {
			t.Fatalf("cut %d realised %v balls, not a multiple of %d", i, real, protocol.BlockSize)
		}
		if real > float64(row.Balls) {
			t.Fatalf("cut %d realised %v > requested %d", i, real, row.Balls)
		}
		if real < prevReal {
			t.Fatalf("realised balls shrank: %v -> %v", prevReal, real)
		}
		prevReal = real
		if row.Deviation.Mean() < 0 {
			t.Fatalf("cut %d negative deviation", i)
		}
	}
	// the cut beyond m = C stays unobserved, visible through Reps
	if beyond := &res.Checkpoints[3]; beyond.Reps() != 0 {
		t.Fatalf("cut beyond m observed %d times", beyond.Reps())
	}
}

// TestRunLargeCheckpointsBitIdenticalAcrossWorkers extends the core
// worker-independence contract to the observation pipeline.
func TestRunLargeCheckpointsBitIdenticalAcrossWorkers(t *testing.T) {
	a := largeArray(t, 2000)
	var base *largeResult
	for _, workers := range []int{1, 2, 3, 8} {
		res, err := runLarge(RunSpec{
			Config: Config{
				Array:      a,
				Seed:       42,
				Workers:    workers,
				ObsOptions: ObsOptions{Checkpoints: []int64{2000, 6000, 10000}, HeightLevels: 3},
			},
			Shards: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(res.Checkpoints, base.Checkpoints) {
			t.Fatalf("workers=%d: checkpoint rows differ", workers)
		}
		if !reflect.DeepEqual(res.HeightCounts, base.HeightCounts) {
			t.Fatalf("workers=%d: height rows differ", workers)
		}
	}
}

// TestRunLargeHeights cross-checks the obs.Heights counts against a
// direct scan of the final array.
func TestRunLargeHeights(t *testing.T) {
	a := largeArray(t, 1000)
	res, err := runLarge(RunSpec{
		Config: Config{
			Array:       a,
			Seed:        4,
			BallsFactor: 3,
			ObsOptions:  ObsOptions{HeightLevels: 5},
		},
		Shards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HeightCounts) != 5 {
		t.Fatalf("%d height rows", len(res.HeightCounts))
	}
	for k := int64(1); k <= 5; k++ {
		var want int64
		for i := 0; i < res.Array.N(); i++ {
			if res.Array.Balls(i) >= k*res.Array.Capacity(i) {
				want++
			}
		}
		row := res.HeightCounts[k-1]
		if row.Level != k || int64(row.Bins.Mean()) != want {
			t.Fatalf("level %d: got %v bins, scan says %d", k, row.Bins.Mean(), want)
		}
	}
}

// TestRunLargeAdoptArray: AdoptArray mutates the caller's array in
// place (saving the O(n) clone) and produces the identical result.
func TestRunLargeAdoptArray(t *testing.T) {
	a := largeArray(t, 800)
	ref, err := runLarge(RunSpec{Config: Config{Array: a, Seed: 6}, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	own := largeArray(t, 800)
	res, err := runLarge(RunSpec{Config: Config{Array: own, Seed: 6}, Shards: 8, AdoptArray: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Array != own {
		t.Fatal("AdoptArray cloned anyway")
	}
	if own.TotalBalls() != ref.Balls {
		t.Fatalf("adopted array holds %d balls, want %d", own.TotalBalls(), ref.Balls)
	}
	for i := 0; i < ref.Array.N(); i++ {
		if res.Array.Balls(i) != ref.Array.Balls(i) {
			t.Fatalf("bin %d differs under AdoptArray", i)
		}
	}
}

func TestRunLargeObservationValidation(t *testing.T) {
	a := largeArray(t, 100)
	if _, err := runLarge(RunSpec{Config: Config{Array: a, ObsOptions: ObsOptions{Checkpoints: []int64{0}}}}); err == nil {
		t.Error("checkpoint at 0 balls accepted")
	}
	if _, err := runLarge(RunSpec{Config: Config{Array: a, ObsOptions: ObsOptions{HeightLevels: -1}}}); err == nil {
		t.Error("negative HeightLevels accepted")
	}
}
