package sim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/bins"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// resultDigest hashes every field of a chunk engine's *Result: the
// math.Float64bits of every float (accumulator state, load vectors,
// class maps in key order, checkpoint and height rows), every integer,
// and a presence marker for every nil-able field, so a value, a length
// or a nil-ness change all move the digest.
func resultDigest(res *Result) uint64 {
	h := fnv.New64a()
	u := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	acc := func(a *stats.Accumulator) {
		st := a.State()
		u(uint64(st.N))
		for _, v := range []float64{st.Mean, st.M2, st.Min, st.Max} {
			f(v)
		}
	}
	vec := func(v []float64) {
		present(h, v != nil)
		u(uint64(len(v)))
		for _, x := range v {
			f(x)
		}
	}
	u(uint64(res.N))
	u(uint64(res.Shards))
	h.Write([]byte(res.Engine))
	for _, a := range []*stats.Accumulator{&res.Balls, &res.TotalCapacity, &res.MaxLoad, &res.AvgLoad, &res.Deviation} {
		acc(a)
	}
	vec(res.MeanSortedLoads)
	present(h, res.ClassMaxFraction != nil)
	for _, k := range sortedKeys(res.ClassMaxFraction) {
		u(uint64(k))
		f(res.ClassMaxFraction[k])
	}
	present(h, res.ClassMaxLoad != nil)
	for _, k := range sortedKeys(res.ClassMaxLoad) {
		u(uint64(k))
		acc(res.ClassMaxLoad[k])
	}
	present(h, res.ClassMeanSortedLoads != nil)
	for _, k := range sortedKeys(res.ClassMeanSortedLoads) {
		u(uint64(k))
		vec(res.ClassMeanSortedLoads[k])
	}
	present(h, res.Checkpoints != nil)
	for i := range res.Checkpoints {
		row := &res.Checkpoints[i]
		u(uint64(row.Balls))
		acc(&row.RealBalls)
		acc(&row.MaxLoad)
		acc(&row.Deviation)
	}
	present(h, res.HeightCounts != nil)
	for i := range res.HeightCounts {
		u(uint64(res.HeightCounts[i].Level))
		acc(&res.HeightCounts[i].Bins)
	}
	present(h, res.Heights != nil)
	if hs := res.Heights; hs != nil {
		f(hs.Lo)
		f(hs.Hi)
		u(uint64(hs.Underflow))
		u(uint64(hs.Overflow))
		u(uint64(len(hs.Counts)))
		for _, c := range hs.Counts {
			u(uint64(c))
		}
	}
	present(h, res.Stream != nil)
	present(h, res.Cluster != nil)
	present(h, res.ShardStats != nil)
	return h.Sum64()
}

func present(h hash.Hash64, ok bool) {
	if ok {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}

func sortedKeys[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestChunkEnginesGoldenDigest pins the chunk engines' whole output —
// every Result field the chunk partials merge, not just the max-load
// and deviation means TestGoldenValues checks — at 1, 2 and 4 workers.
// A change that claims no model change must leave every digest
// untouched. Each run has a partial last chunk (Reps not a multiple of
// chunkSize).
func TestChunkEnginesGoldenDigest(t *testing.T) {
	twoClass := func(t *testing.T) *bins.Array {
		a, err := bins.TwoClass(30, 1, 10, 6)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	// randomCaps draws 24 capacities in [1, 4] per repetition.
	randomCaps := func(r *xrand.Rand) (*bins.Array, error) {
		caps := make([]int64, 24)
		for i := range caps {
			caps[i] = int64(r.Intn(4)) + 1
		}
		return bins.New(caps)
	}
	classes := []int64{1, 6}
	cancelledCfg := func(t *testing.T) Config {
		return Config{
			Array: largeArray(t, 300), Reps: 64, Seed: 5,
			CollectLoadVector: true, TrackClasses: []int64{1, 10}, ClassMaxLoads: []int64{10}, ClassLoadVectors: []int64{1},
			ObsOptions: ObsOptions{Checkpoints: []int64{500, 1000}, HeightLevels: 2},
		}
	}
	cases := []struct {
		name   string
		engine Engine
		cfg    func(t *testing.T) Config
		// cancelAt, when non-negative, arms cancellation: 0 cancels
		// before the run (an empty partial), 3 from inside repetition
		// 0's last checkpoint segment on one worker (a partial holding
		// rep 0 alone).
		cancelAt int64
		want     uint64
	}{
		{"classic-all-observables", EngineClassic, func(t *testing.T) Config {
			return Config{
				Array: twoClass(t), Reps: 21, Seed: 20261017, BallsFactor: 1.5,
				CollectLoadVector: true, TrackClasses: classes, ClassMaxLoads: classes, ClassLoadVectors: classes,
				ObsOptions: ObsOptions{Checkpoints: []int64{20, 50, 1000}, HeightLevels: 3, HeightBins: 12, HeightMax: 4},
			}
		}, -1, 0xa7e7dc68ea2aef84},
		{"classic-arrayfn", EngineClassic, func(t *testing.T) Config {
			return Config{
				ArrayFn: randomCaps, Reps: 19, Seed: 7, BallsFactor: 2,
				CollectLoadVector: true, TrackClasses: []int64{1, 4}, ClassMaxLoads: []int64{2, 3},
				ObsOptions: ObsOptions{Checkpoints: []int64{10, 40}, HeightLevels: 2, HeightBins: 6},
			}
		}, -1, 0x3f3154b8098022ad},
		{"closed-form", EngineClosedForm, func(t *testing.T) Config {
			return Config{
				Array: twoClass(t), Reps: 13, Seed: 99, Placer: protocol.SingleFactory(),
				CollectLoadVector: true, TrackClasses: classes, ClassMaxLoads: classes, ClassLoadVectors: classes,
				ObsOptions: ObsOptions{Checkpoints: []int64{15, 60}, HeightLevels: 4},
			}
		}, -1, 0x165c30a0a5f6dffc},
		{"classic-cancelled", EngineClassic, cancelledCfg, 3, 0xeb643c1b5f8a5118},
		{"classic-cancelled-empty", EngineClassic, func(t *testing.T) Config {
			cfg := cancelledCfg(t)
			cfg.HeightBins = 4 // per-ball path: no PlaceBatch, so no hook
			return cfg
		}, 0, 0x29356d1006c152c6},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4} {
			if tc.cancelAt >= 0 && workers > 1 {
				continue // which repetitions complete depends on the schedule
			}
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				cfg := tc.cfg(t)
				cfg.Workers = workers
				wantReps := -1
				if tc.cancelAt >= 0 {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					cfg.Context = ctx
					cfg.Placer = hookedFactory(func(call int64) {
						if call == tc.cancelAt {
							cancel()
						}
					})
					if wantReps = 1; tc.cancelAt == 0 {
						wantReps = 0
						cancel()
					}
				}
				res, err := runChunked(tc.engine, &RunSpec{Config: cfg})
				var cerr *CancelledError
				switch {
				case wantReps >= 0 && (!errors.As(err, &cerr) || cerr.CompletedReps != wantReps):
					t.Fatalf("err = %v, want a cancellation after %d repetitions", err, wantReps)
				case wantReps < 0 && err != nil:
					t.Fatal(err)
				}
				if got := resultDigest(res); got != tc.want {
					t.Errorf("digest %#016x, golden %#016x", got, tc.want)
				}
			})
		}
	}
}

// repIndex maps the first draw of each repetition's stream (Seed, rep)
// to rep, so an ArrayFn can tell which repetition it builds for.
func repIndex(seed uint64, reps int) map[uint64]int {
	idx := make(map[uint64]int, reps)
	for rep := 0; rep < reps; rep++ {
		idx[xrand.NewStream(seed, uint64(rep)).Uint64()] = rep
	}
	return idx
}

// TestChunkFailureProvenance: a failing chunk run reports the failure
// of its lowest failing chunk, with the provenance of the task that
// failed, whatever the worker topology — a repetition error, a panic
// in a worker's setup, and a panic inside a closed-form repetition.
func TestChunkFailureProvenance(t *testing.T) {
	const seed, reps = 3, 24 // chunks [0,8), [8,16), [16,24)
	idx := repIndex(seed, reps)
	errRep5, errRep17 := errors.New("rep 5 fails"), errors.New("rep 17 fails")
	failing := func(r *xrand.Rand) (*bins.Array, error) {
		switch idx[r.Uint64()] {
		case 5:
			return nil, errRep5
		case 17:
			return nil, errRep17
		}
		return bins.TwoClass(8, 1, 8, 4)
	}
	panicking := func(r *xrand.Rand) (*bins.Array, error) {
		if idx[r.Uint64()] == 13 {
			panic("rep 13 dies")
		}
		return bins.TwoClass(8, 1, 8, 4)
	}
	panicOnFirstBuild := func() protocol.Factory {
		var builds atomic.Int64
		return func(a *bins.Array, w []float64) (protocol.Placer, error) {
			if builds.Add(1) == 1 {
				panic("first build dies")
			}
			return protocol.GreedyFactory(2)(a, w)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer leakCheck(t)()
			_, err := runClassic(Config{ArrayFn: failing, Reps: reps, Seed: seed, Workers: workers})
			if !errors.Is(err, errRep5) {
				t.Errorf("repetition errors: got %v, want rep 5's", err)
			}

			a := largeArray(t, 40)
			_, err = runClassic(Config{Array: a, Reps: reps, Seed: seed, Workers: workers, Placer: panicOnFirstBuild()})
			var perr *PanicError
			if !errors.As(err, &perr) || perr.Engine != engRun || perr.Task != "setup" {
				t.Errorf("setup panic: got %v, want a Run setup *PanicError", err)
			}

			_, err = runClosed(Config{ArrayFn: panicking, Reps: reps, Seed: seed, Workers: workers, Placer: protocol.SingleFactory()})
			if !errors.As(err, &perr) || perr.Engine != engRunClosed || perr.Task != "chunk" || perr.Rep != 13 || perr.Index != 1 {
				t.Errorf("closed-form repetition panic: got %+v, want RunClosed chunk 1 at rep 13", err)
			}
		})
	}
}
