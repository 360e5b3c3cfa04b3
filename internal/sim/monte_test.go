package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/bins"
	"repro/internal/dist"
	"repro/internal/protocol"
)

func TestRunLargeMonteValidation(t *testing.T) {
	a := largeArray(t, 100)
	if _, err := runLargeMonte(RunSpec{Config: Config{Reps: 1}}); err == nil {
		t.Error("nil array accepted")
	}
	if _, err := runLargeMonte(RunSpec{Config: Config{Array: a}}); err == nil {
		t.Error("Reps = 0 accepted")
	}
	if _, err := runLargeMonte(RunSpec{Config: Config{Array: a, Reps: -2}}); err == nil {
		t.Error("negative Reps accepted")
	}
	if _, err := runLargeMonte(RunSpec{Config: Config{Array: a, Reps: 1}, Shards: 101}); err == nil {
		t.Error("shards > n accepted")
	}
	if _, err := runLargeMonte(RunSpec{Config: Config{Array: a, Balls: -1, Reps: 1}}); err == nil {
		t.Error("negative balls accepted")
	}
}

// TestRunLargeMonteBitIdenticalAcrossTopologies is the engine's core
// contract: the entire aggregate — every accumulator, the mean sorted
// load vector — is bit-identical for any Workers value, across shard
// and repetition counts (the race CI job runs these nested-pool
// combinations under -race as well).
func TestRunLargeMonteBitIdenticalAcrossTopologies(t *testing.T) {
	a := largeArray(t, 600)
	for _, shards := range []int{1, 4, 16} {
		for _, reps := range []int{1, 3, 10} {
			var base *Result
			for _, workers := range []int{1, 2, 3, 8} {
				res, err := runLargeMonte(RunSpec{
					Config: Config{
						Array:             a,
						Seed:              77,
						Workers:           workers,
						Reps:              reps,
						CollectLoadVector: true,
					},
					Shards: shards,
				})
				if err != nil {
					t.Fatalf("shards=%d reps=%d workers=%d: %v", shards, reps, workers, err)
				}
				if base == nil {
					base = res
					continue
				}
				if !reflect.DeepEqual(base, res) {
					t.Fatalf("shards=%d reps=%d workers=%d: result differs from workers=1:\n got  %+v\n want %+v",
						shards, reps, workers, res, base)
				}
			}
		}
	}
}

// TestRunLargeMonteMemoryFlatInWorkers: the run plays every repetition
// on its own array, so more workers add pool goroutines and routing
// groups, never another array with its shard views and placers. Two
// routing blocks per repetition make the 4-worker run use two routing
// groups.
func TestRunLargeMonteMemoryFlatInWorkers(t *testing.T) {
	a := largeArray(t, 10_000)
	run := func(workers int) (*Result, float64) {
		spec := RunSpec{
			Config: Config{Array: a, Balls: 100_000, Seed: 5, Workers: workers, Reps: 4},
			Shards: 64,
		}
		var res *Result
		allocs := testing.AllocsPerRun(2, func() {
			var err error
			if res, err = runLargeMonte(spec); err != nil {
				t.Fatal(err)
			}
		})
		return res, allocs
	}
	res1, allocs1 := run(1)
	res4, allocs4 := run(4)
	t.Logf("allocs/run: %v at Workers 1, %v at Workers 4", allocs1, allocs4)
	if allocs4 > allocs1+16 {
		t.Errorf("allocs/run: %v at Workers 4, %v at Workers 1; want at most 16 more", allocs4, allocs1)
	}
	if !reflect.DeepEqual(res1, res4) {
		t.Fatalf("Workers 4 result differs from Workers 1:\n got  %+v\n want %+v", res4, res1)
	}
}

// TestRunLargeMonteAggregates: repetitions are genuinely independent
// (nonzero variance), counts add up, and the gap aggregate is
// consistent with max/avg.
func TestRunLargeMonteAggregates(t *testing.T) {
	a := largeArray(t, 1000)
	res, err := runLargeMonte(RunSpec{
		Config: Config{
			Array: a,
			Seed:  13,
			Reps:  20,
		},
		Shards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLoad.N() != 20 || res.Deviation.N() != 20 {
		t.Fatalf("accumulated %d/%d observations, want 20", res.MaxLoad.N(), res.Deviation.N())
	}
	if res.AvgLoad.Mean() != 1 {
		t.Fatalf("avg load %v, want 1 (m = C)", res.AvgLoad.Mean())
	}
	if res.AvgLoad.Min() != res.AvgLoad.Max() {
		t.Fatalf("avg load varies across reps of a fixed array: [%v, %v]",
			res.AvgLoad.Min(), res.AvgLoad.Max())
	}
	if res.MaxLoad.Variance() == 0 {
		t.Fatal("max load variance is exactly 0 over 20 reps (streams not independent?)")
	}
	if got, want := res.Deviation.Mean(), res.MaxLoad.Mean()-res.AvgLoad.Mean(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("deviation mean %v, max−avg %v", got, want)
	}
	// the caller's array must stay untouched
	if a.TotalBalls() != 0 {
		t.Fatal("RunLargeMonte mutated the config array")
	}
}

// TestRunLargeMonteLoadVector: on a uniform unit-capacity array the
// sorted load vector is the sorted ball-count vector, so its sum is
// exactly m in every repetition — and therefore in the mean.
func TestRunLargeMonteLoadVector(t *testing.T) {
	a, err := bins.Uniform(400, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runLargeMonte(RunSpec{
		Config: Config{
			Array:             a,
			Seed:              21,
			Reps:              6,
			CollectLoadVector: true,
		},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MeanSortedLoads) != 400 {
		t.Fatalf("load vector length %d, want 400", len(res.MeanSortedLoads))
	}
	var sum float64
	for i, v := range res.MeanSortedLoads {
		sum += v
		if i > 0 && v > res.MeanSortedLoads[i-1] {
			t.Fatalf("mean sorted loads not non-increasing at %d", i)
		}
	}
	if math.Abs(sum-res.Balls.Mean()) > 1e-9 {
		t.Fatalf("mean sorted loads sum %v, want m = %v", sum, res.Balls.Mean())
	}
	// without the flag no vector is produced
	res2, err := runLargeMonte(RunSpec{
		Config: Config{
			Array: a,
			Seed:  21,
			Reps:  2,
		},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.MeanSortedLoads != nil {
		t.Fatal("MeanSortedLoads produced without CollectLoadVector")
	}
}

// TestRunLargeMonteZeroWeightShards mirrors the single-game test: whole
// shards with zero selection weight must never receive balls and must
// not fail placer construction, across many repetitions.
func TestRunLargeMonteZeroWeightShards(t *testing.T) {
	a := largeArray(t, 1000)
	res, err := runLargeMonte(RunSpec{
		Config: Config{
			Array: a,
			Seed:  5,
			Dist:  dist.TopOnly{MinCapacity: 10},
			Reps:  5,
		},
		Shards: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLoad.N() != 5 {
		t.Fatalf("aggregated %d reps, want 5", res.MaxLoad.N())
	}
}

// TestRunLargeMonteFactoryError: a failing placer factory surfaces as
// an error, not a hang — the repetition loop stops at the first
// failing repetition.
func TestRunLargeMonteFactoryError(t *testing.T) {
	a := largeArray(t, 200)
	boom := func(*bins.Array, []float64) (protocol.Placer, error) {
		return nil, fmt.Errorf("boom")
	}
	for _, workers := range []int{1, 3} {
		_, err := runLargeMonte(RunSpec{
			Config: Config{
				Array:   a,
				Seed:    1,
				Workers: workers,
				Placer:  boom,
				Reps:    7,
			},
			Shards: 4,
		})
		if err == nil {
			t.Fatalf("workers=%d: factory error swallowed", workers)
		}
	}
}

// TestRunLargeMonteGoldenValues pins the Monte stream layout the way
// TestRunLargeGoldenValues pins the single-run layout: any change to
// the per-repetition stream offsets silently redefines every
// aggregate, so it must show up here and be deliberate.
func TestRunLargeMonteGoldenValues(t *testing.T) {
	a := largeArray(t, 512)
	res, err := runLargeMonte(RunSpec{
		Config: Config{
			Array: a,
			Seed:  20260727,
			Reps:  4,
		},
		Shards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// rep 0 is the single-game golden configuration (max load 3, pinned
	// in TestRunLargeGoldenValues); the aggregate additionally pins
	// reps 1-3's offset streams. Re-pinned exactly once with the move
	// to block-wise multinomial routing; frozen from that point on.
	if res.MaxLoad.Min() != 3 || res.MaxLoad.Max() != 3 || res.MaxLoad.Mean() != 3 {
		t.Fatalf("max load min/max/mean = %v/%v/%v, golden 3/3/3",
			res.MaxLoad.Min(), res.MaxLoad.Max(), res.MaxLoad.Mean())
	}
	if res.Deviation.Mean() != 2 {
		t.Fatalf("deviation mean %v, golden 2", res.Deviation.Mean())
	}
}

// TestRunLargeMonteCheckpointedRepZero: with Reps = 1 and the full
// observation set requested, the Monte engine must reproduce the
// checkpointed single game (runLarge: ShardStats on, an adopted clone)
// bit for bit — same cuts, same realised balls, same maxima, same
// height counts.
func TestRunLargeMonteCheckpointedRepZero(t *testing.T) {
	a := largeArray(t, 1500)
	lc := RunSpec{
		Config: Config{
			Array:      a,
			Seed:       42,
			ObsOptions: ObsOptions{Checkpoints: []int64{1000, 4000, 8000}, HeightLevels: 4},
		},
		Shards: 16,
	}
	want, err := runLarge(lc)
	if err != nil {
		t.Fatal(err)
	}
	lc.Reps = 1
	got, err := runLargeMonte(lc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Checkpoints, want.Checkpoints) {
		t.Fatalf("checkpoint rows differ:\n got  %+v\n want %+v", got.Checkpoints, want.Checkpoints)
	}
	if !reflect.DeepEqual(got.HeightCounts, want.HeightCounts) {
		t.Fatalf("height rows differ:\n got  %+v\n want %+v", got.HeightCounts, want.HeightCounts)
	}
}

// TestRunLargeMonteObservationsBitIdenticalAcrossTopologies is the
// collector merge-determinism matrix of the unified observation
// subsystem: across shards × reps × workers, every checkpoint row,
// height row and shard-stat row must be bit-identical (the race CI
// job runs this under -race as well).
func TestRunLargeMonteObservationsBitIdenticalAcrossTopologies(t *testing.T) {
	a := largeArray(t, 600)
	for _, shards := range []int{1, 4, 16} {
		for _, reps := range []int{1, 3, 10} {
			var base *Result
			for _, workers := range []int{1, 2, 3, 8} {
				res, err := runLargeMonte(RunSpec{
					Config: Config{
						Array:             a,
						Seed:              77,
						Workers:           workers,
						ObsOptions:        ObsOptions{Checkpoints: []int64{500, 1500, 3000}, HeightLevels: 3},
						Reps:              reps,
						CollectLoadVector: true,
					},
					Shards:     shards,
					ShardStats: true,
				})
				if err != nil {
					t.Fatalf("shards=%d reps=%d workers=%d: %v", shards, reps, workers, err)
				}
				if base == nil {
					base = res
					continue
				}
				if !reflect.DeepEqual(base, res) {
					t.Fatalf("shards=%d reps=%d workers=%d: observations differ from workers=1:\n got  %+v\n want %+v",
						shards, reps, workers, res, base)
				}
			}
		}
	}
}

// TestRunLargeMonteCheckpointAggregates: realised balls vary with the
// per-repetition routing stream but stay block-aligned and <= the
// requested cut; every in-range cut is observed by every repetition.
func TestRunLargeMonteCheckpointAggregates(t *testing.T) {
	a := largeArray(t, 1000) // C = 5500
	res, err := runLargeMonte(RunSpec{
		Config: Config{
			Array:      a,
			Seed:       13,
			ObsOptions: ObsOptions{Checkpoints: []int64{2000, 4000, 50000}},
			Reps:       12,
		},
		Shards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) != 3 {
		t.Fatalf("%d checkpoint rows", len(res.Checkpoints))
	}
	for i, row := range res.Checkpoints[:2] {
		if row.Reps() != 12 {
			t.Fatalf("cut %d observed %d/12 times", i, row.Reps())
		}
		if row.RealBalls.Max() > float64(row.Balls) {
			t.Fatalf("cut %d realised %v > requested %d", i, row.RealBalls.Max(), row.Balls)
		}
		if int64(row.RealBalls.Min())%protocol.BlockSize != 0 ||
			int64(row.RealBalls.Max())%protocol.BlockSize != 0 {
			t.Fatalf("cut %d realised balls not block-aligned: [%v, %v]",
				i, row.RealBalls.Min(), row.RealBalls.Max())
		}
	}
	if res.Checkpoints[2].Reps() != 0 {
		t.Fatalf("cut beyond m observed %d times", res.Checkpoints[2].Reps())
	}
	// routing varies per repetition, so realised cuts should too (the
	// odds of 12 identical aligned prefixes are negligible)
	if row := res.Checkpoints[0]; row.RealBalls.Min() == row.RealBalls.Max() {
		t.Logf("warning: realised balls identical across reps: %v", row.RealBalls.Mean())
	}
}

// TestRunLargeMonteShardStats: shard rows aggregate exactly Reps
// observations, the routed-ball means sum to m, and shard maxima are
// consistent with the global max.
func TestRunLargeMonteShardStats(t *testing.T) {
	a := largeArray(t, 1000)
	res, err := runLargeMonte(RunSpec{
		Config: Config{
			Array: a,
			Seed:  21,
			Reps:  6,
		},
		Shards:     8,
		ShardStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardStats == nil || len(res.ShardStats.Rows()) != 8 {
		t.Fatal("shard stats missing")
	}
	var ballSum, maxOfMax float64
	for _, row := range res.ShardStats.Rows() {
		if row.Balls.N() != 6 {
			t.Fatalf("shard %d has %d observations", row.Shard, row.Balls.N())
		}
		ballSum += row.Balls.Mean()
		if row.MaxLoad.Max() > maxOfMax {
			maxOfMax = row.MaxLoad.Max()
		}
	}
	if math.Abs(ballSum-res.Balls.Mean()) > 1e-9 {
		t.Fatalf("mean shard balls sum %v, want m = %v", ballSum, res.Balls.Mean())
	}
	if maxOfMax != res.MaxLoad.Max() {
		t.Fatalf("max of shard maxima %v, global worst max %v", maxOfMax, res.MaxLoad.Max())
	}
	// without the flag no stats are produced
	res2, err := runLargeMonte(RunSpec{
		Config: Config{
			Array: a,
			Seed:  21,
			Reps:  2,
		},
		Shards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ShardStats != nil {
		t.Fatal("ShardStats produced without the flag")
	}
}
