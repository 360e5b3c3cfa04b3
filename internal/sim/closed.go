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
// the classic engine's stream layout — and repetitions run as the
// classic engine's chunk tasks on the shared phase (runner.go), through
// its repetition kernel (runRep, sim.go) and collector set, of which
// only the per-segment advance below differs. So results are
// bit-identical for any Workers value, a failing run reports its
// lowest failing chunk, and cancellation yields the same deterministic
// contiguous-prefix partials. The engine draws a
// different random sequence than the classic engine (interval-tree
// binomial splits instead of per-ball samples), so classic and
// closed-form agree in distribution, not bit for bit: parity_test.go
// pins the distributional agreement.
package sim

import (
	"repro/internal/bins"
	"repro/internal/xrand"
)

// advance places k more balls on the worker's array: one PlaceBatch
// (classic), or one Multinomial(k, p) increment (closed form) —
// conditional splitting, so the increments of consecutive checkpoint
// segments are independent and their running sums realise the
// trajectory's exact joint law.
func (w *repWorker) advance(r *xrand.Rand, k int64) {
	if w.router == nil {
		w.placer.PlaceBatch(w.arr, r, k)
		return
	}
	if cap(w.counts) < w.arr.N() {
		w.counts = make([]int64, w.arr.N())
	}
	counts := w.counts[:w.arr.N()]
	w.router.Draw(r, k, counts)
	addCounts(w.arr, counts)
}

// addCounts applies one multinomial increment vector to the array.
func addCounts(arr *bins.Array, counts []int64) {
	for i, k := range counts {
		if k != 0 {
			arr.AddBalls(i, k)
		}
	}
}
