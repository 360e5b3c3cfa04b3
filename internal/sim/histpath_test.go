package sim

import (
	"slices"
	"testing"

	"repro/internal/bins"
	"repro/internal/dist"
)

// naiveSortedDesc is the pre-histogram reference path: float loads,
// O(n log n) sort, non-increasing order.
func naiveSortedDesc(a *bins.Array) []float64 {
	loads := a.LoadVector()
	slices.Sort(loads)
	slices.Reverse(loads)
	return loads
}

// naiveHeights counts bins at load >= k per bin, the scan the
// histogram's suffix sums replace.
func naiveHeights(a *bins.Array, levels int) []float64 {
	counts := make([]float64, levels)
	for k := 1; k <= levels; k++ {
		for i := 0; i < a.N(); i++ {
			if a.Balls(i) >= int64(k)*a.Capacity(i) {
				counts[k-1]++
			}
		}
	}
	return counts
}

// TestRunHistogramPathMatchesNaive pins the classic engine's fused
// histogram observation against naive per-bin scans of the SAME final
// state (runOnce replays repetition 0's exact draw sequence): the mean
// sorted load vector, height counts, max load and every per-class
// observable must be bit-identical to the scan/sort path they replaced.
func TestRunHistogramPathMatchesNaive(t *testing.T) {
	a, err := bins.TwoClass(40, 1, 24, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Array: a, Reps: 1, Seed: 314,
		CollectLoadVector: true,
		TrackClasses:      []int64{1, 10},
		ClassMaxLoads:     []int64{1, 10},
		ClassLoadVectors:  []int64{1, 10},
		ObsOptions:        ObsOptions{HeightLevels: 4},
	}
	res, err := runClassic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	final, err := runOnce(Config{Array: a, Seed: 314})
	if err != nil {
		t.Fatal(err)
	}

	if got, want := res.MaxLoad.Mean(), final.MaxLoad(); got != want {
		t.Fatalf("MaxLoad %v, naive %v", got, want)
	}
	if want := naiveSortedDesc(final); !slices.Equal(res.MeanSortedLoads, want) {
		t.Fatalf("MeanSortedLoads diverge from naive sort:\n hist %v\n sort %v", res.MeanSortedLoads, want)
	}
	for k, want := range naiveHeights(final, 4) {
		if got := res.HeightCounts[k].Bins.Mean(); got != want {
			t.Fatalf("height level %d: %v, naive %v", k+1, got, want)
		}
	}
	for _, class := range []int64{1, 10} {
		attains := final.MaxLoadInClassC(class)
		frac := res.ClassMaxFraction[class]
		if (frac == 1) != attains {
			t.Fatalf("class %d attains-max fraction %v, naive %v", class, frac, attains)
		}
		var classMax float64
		var classLoads []float64
		for i := 0; i < final.N(); i++ {
			if final.Capacity(i) != class {
				continue
			}
			l := final.Load(i)
			classLoads = append(classLoads, l)
			if l > classMax {
				classMax = l
			}
		}
		if got := res.ClassMaxLoad[class].Mean(); got != classMax {
			t.Fatalf("class %d max load %v, naive %v", class, got, classMax)
		}
		slices.Sort(classLoads)
		slices.Reverse(classLoads)
		if !slices.Equal(res.ClassMeanSortedLoads[class], classLoads) {
			t.Fatalf("class %d sorted loads diverge:\n hist %v\n sort %v",
				class, res.ClassMeanSortedLoads[class], classLoads)
		}
	}
}

// TestRunLargeMonteHistogramMatchesNaive pins the sharded engines'
// merge-in-shard-order histogram against naive scans of the identical
// final state: the single game (runLarge, which returns its final
// array) must agree with a Reps=1 RunLargeMonte carrying every
// histogram-derived collector, bit for bit.
func TestRunLargeMonteHistogramMatchesNaive(t *testing.T) {
	a := largeArray(t, 900)
	ref, err := runLarge(RunSpec{Config: Config{Array: a, Seed: 2718}, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runLargeMonte(RunSpec{
		Config: Config{
			Array:             a,
			Seed:              2718,
			ObsOptions:        ObsOptions{HeightLevels: 3},
			Reps:              1,
			CollectLoadVector: true,
		},
		Shards:     16,
		ShardStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	final := ref.Array

	if got, want := res.MaxLoad.Mean(), final.MaxLoad(); got != want {
		t.Fatalf("MaxLoad %v, naive %v", got, want)
	}
	if got, want := res.AvgLoad.Mean(), final.AverageLoad(); got != want {
		t.Fatalf("AvgLoad %v, naive %v", got, want)
	}
	if want := naiveSortedDesc(final); !slices.Equal(res.MeanSortedLoads, want) {
		t.Fatalf("MeanSortedLoads diverge from naive sort at shards=16")
	}
	for k, want := range naiveHeights(final, 3) {
		if got := res.HeightCounts[k].Bins.Mean(); got != want {
			t.Fatalf("height level %d: %v, naive %v", k+1, got, want)
		}
	}
}

// TestRunLargeFinalHistogramMatchesScan: the single game's final fold
// uses the histogram only when heights are requested; both paths must
// report identical stats for the identical placement.
func TestRunLargeFinalHistogramMatchesScan(t *testing.T) {
	a := largeArray(t, 700)
	plain, err := runLarge(RunSpec{Config: Config{Array: a, Seed: 5}, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	withHeights, err := runLarge(RunSpec{
		Config: Config{
			Array:      a,
			Seed:       5,
			ObsOptions: ObsOptions{HeightLevels: 5},
		},
		Shards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.MaxLoad != withHeights.MaxLoad || plain.Deviation != withHeights.Deviation {
		t.Fatalf("heights request changed headline stats: %v/%v vs %v/%v",
			plain.MaxLoad, plain.Deviation, withHeights.MaxLoad, withHeights.Deviation)
	}
	for k, want := range naiveHeights(withHeights.Array, 5) {
		if got := withHeights.HeightCounts[k].Bins.Mean(); got != want {
			t.Fatalf("height level %d: %v, naive %v", k+1, got, want)
		}
	}
}

// TestStreamClusterFinalStateMatchesScan pins a completed trajectory's
// final state — the max load and the height rows, built from the shard
// histograms — against naive scans of the final array at 1, 2 and 4
// workers: a stream whose top-only weights leave half its shards
// without a view, and a cluster whose shard 0 has every peer down at
// the horizon.
func TestStreamClusterFinalStateMatchesScan(t *testing.T) {
	const levels = 4
	down := make([]ChurnEvent, 10)
	for p := range down {
		down[p] = ChurnEvent{Tick: 3, Peer: p, Down: true}
	}
	for _, tc := range []struct {
		name string
		spec RunSpec
	}{
		{"stream", RunSpec{
			Config: Config{Array: largeArray(t, 800), Balls: 2000, Seed: 11, Dist: dist.TopOnly{MinCapacity: 10}},
			Shards: 8,
			Stream: &StreamParams{Rounds: 4, Deletions: 500, RebalanceTol: 0.2},
		}},
		{"cluster", RunSpec{
			Config:  Config{Array: largeArray(t, 40), Seed: 11},
			Shards:  4,
			Cluster: &ClusterParams{Ticks: 20, ArrivalsPerTick: 300, Churn: ChurnPlan{Schedule: down}},
		}},
	} {
		for _, w := range []int{1, 2, 4} {
			spec := tc.spec
			spec.Array, spec.AdoptArray, spec.Workers = spec.Array.Clone(), true, w
			spec.HeightLevels = levels
			spec.Checkpoints = []int64{2}
			res, err := Dispatch(spec)
			if err != nil {
				t.Fatalf("%s W=%d: %v", tc.name, w, err)
			}
			final := spec.Array
			if tc.name == "cluster" {
				for p := 0; p < 10; p++ {
					if final.Balls(p) != 0 {
						t.Fatalf("cluster W=%d: down peer %d holds %d requests", w, p, final.Balls(p))
					}
				}
			}
			if got, want := res.MaxLoad.Mean(), final.MaxLoad(); got != want || want == 0 {
				t.Fatalf("%s W=%d: MaxLoad %v, scan %v", tc.name, w, got, want)
			}
			heights := naiveHeights(final, levels)
			if heights[0] == 0 {
				t.Fatalf("%s W=%d: no loaded bin to count", tc.name, w)
			}
			for k, want := range heights {
				if got := res.HeightCounts[k].Bins.Mean(); got != want {
					t.Fatalf("%s W=%d: height level %d: %v, scan %v", tc.name, w, k+1, got, want)
				}
			}
		}
	}
}
