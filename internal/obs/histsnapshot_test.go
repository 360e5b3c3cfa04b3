package obs

import (
	"reflect"
	"testing"

	"repro/internal/bins"
	"repro/internal/xrand"
)

// histTestArray builds a deterministic random array for a trial:
// capacities from the class set, a skewed random ball placement.
func histTestArray(r *xrand.Rand, n int, classes []int64, maxBalls int) *bins.Array {
	caps := make([]int64, n)
	for i := range caps {
		caps[i] = classes[r.Intn(len(classes))]
	}
	a := bins.MustNew(caps)
	for i := 0; i < n; i++ {
		a.AddBalls(i, int64(r.Intn(maxBalls+1)))
	}
	return a
}

// TestSnapshotHistMatchesSnapshot pins the tentpole equivalence: for
// every collector, deriving a snapshot from the one-pass histogram is
// bit-identical (reflect.DeepEqual over the accumulated state) to the
// per-bin scan path it replaces, across random capacity distributions
// including single-class and many-distinct-class shapes.
func TestSnapshotHistMatchesSnapshot(t *testing.T) {
	r := xrand.New(4242)
	classSets := [][]int64{
		{1},
		{1, 10},
		{1, 2, 3, 5, 8, 13, 21},
	}
	for _, classes := range classSets {
		for trial := 0; trial < 10; trial++ {
			a := histTestArray(r, 1+r.Intn(150), classes, 20)
			h := a.NewLoadHistogram()
			if err := a.HistogramInto(h); err != nil {
				t.Fatal(err)
			}
			balls := a.TotalBalls()

			cpScan, cpHist := NewCheckpoints([]int64{10, 20}), NewCheckpoints([]int64{10, 20})
			for cut := 0; cut < 2; cut++ {
				if err := cpScan.Snapshot(cut, a, balls); err != nil {
					t.Fatal(err)
				}
				if err := cpHist.SnapshotHist(cut, h, balls); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(cpScan, cpHist) {
				t.Fatalf("Checkpoints diverge:\n scan %+v\n hist %+v", cpScan.Rows(), cpHist.Rows())
			}

			hlScan, hlHist := NewHeights(6), NewHeights(6)
			if err := hlScan.Snapshot(Final, a, balls); err != nil {
				t.Fatal(err)
			}
			if err := hlHist.SnapshotHist(Final, h, balls); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(hlScan.Rows(), hlHist.Rows()) {
				t.Fatalf("Heights diverge:\n scan %+v\n hist %+v", hlScan.Rows(), hlHist.Rows())
			}

			slScan, slHist := NewSortedLoads(), NewSortedLoads()
			// Two observations each, so accumulation order is exercised.
			for rep := 0; rep < 2; rep++ {
				if err := slScan.Snapshot(Final, a, balls); err != nil {
					t.Fatal(err)
				}
				if err := slHist.SnapshotHist(Final, h, balls); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(slScan.Mean(), slHist.Mean()) {
				t.Fatalf("SortedLoads diverge:\n scan %v\n hist %v", slScan.Mean(), slHist.Mean())
			}
		}
	}
}

// TestSnapshotHistIgnoresWrongPhase mirrors the Snapshot contract:
// Heights and SortedLoads observe only Final, Checkpoints never
// observe Final.
func TestSnapshotHistIgnoresWrongPhase(t *testing.T) {
	a := bins.MustNew([]int64{1, 2})
	a.Add(0)
	h := a.NewLoadHistogram()
	if err := a.HistogramInto(h); err != nil {
		t.Fatal(err)
	}
	hl := NewHeights(3)
	if err := hl.SnapshotHist(0, h, 1); err != nil {
		t.Fatal(err)
	}
	if hl.Rows()[0].Bins.N() != 0 {
		t.Error("Heights observed a non-final cut")
	}
	sl := NewSortedLoads()
	if err := sl.SnapshotHist(0, h, 1); err != nil {
		t.Fatal(err)
	}
	if sl.Reps() != 0 {
		t.Error("SortedLoads observed a non-final cut")
	}
	cp := NewCheckpoints([]int64{5})
	if err := cp.SnapshotHist(Final, h, 1); err != nil {
		t.Fatal(err)
	}
	if cp.Rows()[0].Reps() != 0 {
		t.Error("Checkpoints observed Final")
	}
}

// TestSnapshotHistSteadyStateAllocFree pins the fused snapshot's alloc
// discipline: after one warm-up repetition, a full
// Checkpoints+Heights+SortedLoads snapshot round from a rebuilt
// histogram allocates nothing.
func TestSnapshotHistSteadyStateAllocFree(t *testing.T) {
	r := xrand.New(77)
	a := histTestArray(r, 4096, []int64{1, 10}, 12)
	h := a.NewLoadHistogram()
	cp := NewCheckpoints([]int64{100})
	hl := NewHeights(8)
	sl := NewSortedLoads()
	round := func() {
		if err := a.HistogramInto(h); err != nil {
			t.Fatal(err)
		}
		if err := cp.SnapshotHist(0, h, a.TotalBalls()); err != nil {
			t.Fatal(err)
		}
		if err := hl.SnapshotHist(Final, h, a.TotalBalls()); err != nil {
			t.Fatal(err)
		}
		if err := sl.SnapshotHist(Final, h, a.TotalBalls()); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm up scratch buffers
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("steady-state fused snapshot allocates %v/op", allocs)
	}
}

// TestAlignShardCutsIdempotent: aligning already-aligned prefixes is
// the identity, so re-running the fold can never drift the realised
// cuts.
func TestAlignShardCutsIdempotent(t *testing.T) {
	r := xrand.New(5)
	for trial := 0; trial < 20; trial++ {
		shards, cuts := 1+r.Intn(6), 1+r.Intn(4)
		prefix := make([][]int64, cuts)
		run := make([]int64, shards)
		for k := range prefix {
			prefix[k] = make([]int64, shards)
			for s := range prefix[k] {
				run[s] += int64(r.Intn(2000))
				prefix[k][s] = run[s]
			}
		}
		realized := make([]int64, cuts)
		AlignShardCuts(prefix, 256, realized)
		again := make([][]int64, cuts)
		for k := range prefix {
			again[k] = append([]int64(nil), prefix[k]...)
		}
		realized2 := make([]int64, cuts)
		AlignShardCuts(again, 256, realized2)
		if !reflect.DeepEqual(prefix, again) || !reflect.DeepEqual(realized, realized2) {
			t.Fatalf("alignment not idempotent:\n once %v %v\n twice %v %v", prefix, realized, again, realized2)
		}
	}
}
