package balls

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bins"
	"repro/internal/sim"
)

// TestSimulateIsClassicDispatch: Simulate is Dispatch with the classic
// engine forced, even at n = AutoScaleMinBins, where auto-selection
// would move the run off the paper's per-ball game.
func TestSimulateIsClassicDispatch(t *testing.T) {
	caps := CapacitiesTwoClass(sim.AutoScaleMinBins/2, 1, sim.AutoScaleMinBins/2, 10)
	got, err := Simulate(SimConfig{Capacities: caps, Reps: 3, Seed: 5, Workers: 2, Heights: 3})
	if err != nil {
		t.Fatal(err)
	}
	spec := sim.RunSpec{
		Config: sim.Config{
			Array: bins.MustNew(caps), Reps: 3, Seed: 5, Workers: 2,
			ObsOptions: sim.ObsOptions{HeightLevels: 3},
		},
		Engine: sim.EngineClassic,
	}
	want, err := sim.Dispatch(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.MeanMaxLoad != want.MaxLoad.Mean() || got.MaxLoadCI95 != want.MaxLoad.CI95() ||
		got.WorstMaxLoad != want.MaxLoad.Max() || got.AverageLoad != want.AvgLoad.Mean() ||
		got.MeanDeviation != want.Deviation.Mean() || got.Balls != int64(want.Balls.Mean()) ||
		!reflect.DeepEqual(got.Heights, heightResults(want.HeightCounts)) {
		t.Fatalf("Simulate %+v differs from classic Dispatch %+v", got, want)
	}
	spec.Engine = sim.EngineAuto
	auto, err := sim.Dispatch(spec)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Engine == sim.EngineClassic {
		t.Fatalf("auto picked classic at n = %d: the test no longer pins the forced engine", len(caps))
	}
}

// TestMonteCarloLargeCancelResume: a MonteCarloLarge run stopped by
// CancelAfterReps and resumed from its checkpoint returns exactly the
// uninterrupted run's result.
func TestMonteCarloLargeCancelResume(t *testing.T) {
	cfg := MonteLargeConfig{
		LargeConfig: LargeConfig{
			Capacities:  CapacitiesTwoClass(300, 1, 300, 10),
			Seed:        11,
			Shards:      8,
			Workers:     3,
			Checkpoints: []int64{1000, 3000},
			Heights:     3,
		},
		Reps:        9,
		SortedLoads: true,
		ShardStats:  true,
	}
	want, err := MonteCarloLarge(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cut := cfg
	cut.CancelAfterReps = 4
	partial, err := MonteCarloLarge(cut)
	var cerr *CancelledError
	if !errors.As(err, &cerr) || cerr.Checkpoint == nil || partial.Reps != 4 {
		t.Fatalf("CancelAfterReps = 4: err %v, partial reps %d", err, partial.Reps)
	}
	resumed := cfg
	resumed.Resume = cerr.Checkpoint
	got, err := MonteCarloLarge(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed run differs from the uninterrupted one:\n got  %+v\n want %+v", got, want)
	}
}

// TestOutOfRangeFactorRejected: the wrappers' BallsFactor and
// ArrivalsFactor inherit the engines' ball-count check — a factor
// whose count is no int64 is an error naming the field, never a
// silently different game.
func TestOutOfRangeFactorRejected(t *testing.T) {
	caps := []int64{1, 1, 1, 1}
	if _, err := Simulate(SimConfig{Capacities: caps, Reps: 1, BallsFactor: 1e19}); err == nil || !strings.Contains(err.Error(), "BallsFactor") {
		t.Errorf("Simulate, BallsFactor = 1e19: err = %v", err)
	}
	if _, err := SimulateLarge(LargeConfig{Capacities: caps, BallsFactor: math.NaN()}); err == nil || !strings.Contains(err.Error(), "BallsFactor") {
		t.Errorf("SimulateLarge, BallsFactor = NaN: err = %v", err)
	}
	if _, err := SimulateStream(StreamConfig{Capacities: caps, Rounds: 1, ArrivalsFactor: math.Inf(1)}); err == nil || !strings.Contains(err.Error(), "BallsFactor") {
		t.Errorf("SimulateStream, ArrivalsFactor = +Inf: err = %v", err)
	}
}
