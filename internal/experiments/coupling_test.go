package experiments

// Lemma 1 validation at the experiment level. The step-wise coupled
// construction lives in internal/coupling (with its own unit and
// property tests); here we check the lemma's *conclusion* on the real
// Algorithm 1 processes and keep an end-to-end audit in place.

import (
	"testing"

	"repro/internal/bins"
	"repro/internal/coupling"
	"repro/internal/sim"
)

func TestLemma1CouplingFixedConfigs(t *testing.T) {
	configs := [][]int64{
		{4, 4},
		{1, 2, 3},
		{1, 1, 1, 1, 8},
		{2, 2, 2, 2, 2, 2},
		{5, 1, 3, 1},
	}
	for _, caps := range configs {
		var total int64
		for _, c := range caps {
			total += c
		}
		res, err := coupling.Audit(caps, 2, 2*total, 42)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != 0 {
			t.Fatalf("caps %v: coupling violated at ball %d", caps, res.Violation)
		}
	}
}

func TestLemma1CouplingHigherD(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5} {
		res, err := coupling.Audit([]int64{1, 2, 4, 8}, d, 30, uint64(100+d))
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != 0 {
			t.Fatalf("d=%d: coupling violated at ball %d", d, res.Violation)
		}
	}
}

// TestMaxLoadDominationEndToEnd: beyond the coupled construction, verify
// the lemma's *conclusion* on the real Algorithm 1 processes: the mean
// max load of the heterogeneous game never exceeds the unit-bin game's by
// more than noise.
func TestMaxLoadDominationEndToEnd(t *testing.T) {
	caps := []int64{1, 1, 2, 2, 4, 4, 8, 8, 16, 16}
	var total int64
	for _, c := range caps {
		total += c
	}
	unitCaps := make([]int64, total)
	for i := range unitCaps {
		unitCaps[i] = 1
	}
	const reps = 400
	meanHet, meanUnit := 0.0, 0.0
	for rep := 0; rep < reps; rep++ {
		meanHet += greedyMaxLoad(t, caps, uint64(rep))
		meanUnit += greedyMaxLoad(t, unitCaps, uint64(rep)+1000000)
	}
	meanHet /= reps
	meanUnit /= reps
	if meanHet > meanUnit+0.15 {
		t.Fatalf("heterogeneous mean max %.3f exceeds unit-bin %.3f", meanHet, meanUnit)
	}
}

// greedyMaxLoad plays one m = C Algorithm-1 game on the given capacities
// and returns the final max load.
func greedyMaxLoad(t *testing.T, caps []int64, seed uint64) float64 {
	t.Helper()
	res, err := sim.Dispatch(sim.RunSpec{
		Config: sim.Config{Array: bins.MustNew(caps), Reps: 1, Seed: seed},
		Engine: sim.EngineClassic,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.MaxLoad.Mean()
}
