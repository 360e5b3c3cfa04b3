// Closed-form multinomial engine: for single-choice protocols the
// final load vector needs no per-ball simulation at all.
//
// # Model
//
// A single-choice protocol places each of the m balls independently
// into bin i with probability p_i (the normalised selection weights).
// The joint law of the final ball counts is therefore exactly
// Multinomial(m, p) — one Draw of sampling.Multinomial materialises a
// whole repetition in O(n) instead of O(m) weighted samples.
//
// Checkpoints extend the closed form by conditional splitting: the
// increment vectors between consecutive cuts 0 < B_1 < … < B_k <= m
// are independent Multinomial(B_j − B_{j−1}, p) draws, and their
// running sums have exactly the joint law of the trajectory snapshots
// a per-ball pass would record at the same cuts. HeightLevels and the
// final-state observables read the realised array as usual; only the
// per-ball height histogram (HeightBins) is out of reach, because it
// depends on the placement order the closed form integrates out.
//
// # Determinism
//
// Repetition rep draws everything from xrand.NewStream(Seed, rep) —
// the classic engine's stream layout — and repetitions fold through
// the same chunk driver as the classic engine, so results are
// bit-identical for any Workers value and cancellation yields the same
// deterministic contiguous-prefix partials. The engine draws a
// different random sequence than the classic engine (interval-tree
// binomial splits instead of per-ball samples), so classic and
// closed-form agree in distribution, not bit for bit: parity_test.go
// pins the distributional agreement.
package sim

import (
	"fmt"

	"repro/internal/bins"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/xrand"
)

// closedRep is the closed-form engine's repetition kernel (see
// chunkRun): one multinomial increment per checkpoint segment,
// accumulated into the array, then the classic engine's shared final
// fold.
func closedRep(cfg *Config, checkpoints []int64, rep uint64, w *repWorker, p *chunkPartial) error {
	r := xrand.NewStream(cfg.Seed, rep)

	arr := w.arr
	router := w.router
	if cfg.ArrayFn != nil {
		var err error
		arr, err = cfg.ArrayFn(r)
		if err != nil {
			return fmt.Errorf("sim: rep %d array: %w", rep, err)
		}
		weights, err := cfg.distribution().Weights(arr)
		if err != nil {
			return fmt.Errorf("sim: rep %d weights: %w", rep, err)
		}
		router, err = sampling.NewMultinomial(weights)
		if err != nil {
			return fmt.Errorf("sim: rep %d router: %w", rep, err)
		}
	} else {
		arr.Reset()
	}

	m := cfg.BallCount(arr.TotalCapacity())

	if len(checkpoints) > 0 && p.cp == nil {
		p.cp = obs.NewCheckpoints(checkpoints)
	}
	if cfg.HeightLevels > 0 && p.hl == nil {
		p.hl = obs.NewHeights(cfg.HeightLevels)
	}
	if cap(w.counts) < arr.N() {
		w.counts = make([]int64, arr.N())
	}
	counts := w.counts[:arr.N()]

	// Conditional splitting: each segment between consecutive reached
	// cuts (and the final segment up to m) is an independent
	// Multinomial(segment, p) increment; the running sums realise the
	// trajectory's exact joint law.
	placed := int64(0)
	nextCp := 0
	for nextCp < len(checkpoints) && checkpoints[nextCp] <= m {
		cut := checkpoints[nextCp]
		router.Draw(r, cut-placed, counts)
		addCounts(arr, counts)
		placed = cut
		if err := snapshotCheckpoint(cfg, p, &w.scratch, arr, nextCp, cut); err != nil {
			return err
		}
		nextCp++
	}
	router.Draw(r, m-placed, counts)
	addCounts(arr, counts)
	// Checkpoints beyond m stay unrecorded, exactly like the classic
	// engine: their rows show Reps() < cfg.Reps.

	return foldFinal(cfg, arr, m, rep, &w.scratch, p)
}

// addCounts applies one multinomial increment vector to the array.
func addCounts(arr *bins.Array, counts []int64) {
	for i, k := range counts {
		if k != 0 {
			arr.AddBalls(i, k)
		}
	}
}
