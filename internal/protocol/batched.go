package protocol

import (
	"fmt"

	"repro/internal/bins"
	"repro/internal/sampling"
	"repro/internal/xrand"
)

// Batched wraps Algorithm 1 in the parallel batch-arrival model: balls
// arrive in rounds of B, and every ball in a round makes its decision
// against the loads *frozen at the start of the round* (it cannot see
// concurrent placements). B = 1 is exactly the sequential Algorithm 1;
// B = m is fully oblivious single-shot placement.
//
// This models distributed dispatchers placing requests concurrently with
// stale load information — the standard "batched balls-into-bins"
// relaxation — and is an extension beyond the paper, used by the
// ext-batch experiment to show how gracefully Algorithm 1 degrades with
// staleness.
type Batched struct {
	d       int
	batch   int
	table   *sampling.AliasTable
	frozen  []int64 // ball counts at round start
	inRound int
}

// NewBatched builds a batched Algorithm 1 placer with round size batch.
func NewBatched(a *bins.Array, weights []float64, d, batch int) (*Batched, error) {
	if err := validate(a, weights, d); err != nil {
		return nil, err
	}
	if batch < 1 {
		return nil, fmt.Errorf("protocol: batch = %d", batch)
	}
	t, err := sampling.NewAlias(weights)
	if err != nil {
		return nil, fmt.Errorf("protocol: batched sampler: %w", err)
	}
	return &Batched{
		d:      d,
		batch:  batch,
		table:  t,
		frozen: make([]int64, a.N()),
	}, nil
}

// Name implements Placer.
func (b *Batched) Name() string {
	return fmt.Sprintf("batched-greedy(d=%d,B=%d)", b.d, b.batch)
}

// Reweight implements Placer. It also ends the current round, as a
// fresh placer starts with one: the next placement re-freezes the loads.
func (b *Batched) Reweight(weights []float64) error {
	if err := reweightTable(b.table, weights, "batched sampler"); err != nil {
		return err
	}
	b.inRound = 0
	return nil
}

// choose runs Algorithm 1 against the frozen snapshot, refreshing it
// every batch placements, and returns the receiving bin.
func (b *Batched) choose(a *bins.Array, r *xrand.Rand) int {
	if b.inRound == 0 {
		for i := 0; i < a.N(); i++ {
			b.frozen[i] = a.Balls(i)
		}
	}
	b.inRound++
	if b.inRound == b.batch {
		b.inRound = 0
	}
	if b.d == 2 {
		return b.choose2(a, r)
	}
	return b.chooseGeneral(a, r)
}

// choose2 mirrors Greedy.choose2 (same draw sequence, so B = 1
// reproduces the sequential protocol ball for ball) but compares against
// the frozen snapshot.
func (b *Batched) choose2(a *bins.Array, r *xrand.Rand) int {
	b1, b2 := b.table.Sample2(r)
	coin := r.Uint64()&1 == 1
	if b1 == b2 {
		return b1
	}
	c1, c2 := a.Capacity(b1), a.Capacity(b2)
	l1 := (b.frozen[b1] + 1) * c2
	l2 := (b.frozen[b2] + 1) * c1
	return select2(b1, b2, c1, c2, l1, l2, coin)
}

func (b *Batched) chooseGeneral(a *bins.Array, r *xrand.Rand) int {
	return chooseGeneralFrom(b.table, b.d, b.frozen, a, r)
}

// Place implements Placer.
func (b *Batched) Place(a *bins.Array, r *xrand.Rand) int {
	chosen := b.choose(a, r)
	a.Add(chosen)
	return chosen
}

// PlaceBatch implements Placer.
func (b *Batched) PlaceBatch(a *bins.Array, r *xrand.Rand, k int64) {
	for ; k > 0; k-- {
		a.Add(b.choose(a, r))
	}
}

// compareFrozenPost compares (frozen_i+1)/c_i against (frozen_j+1)/c_j
// exactly.
func compareFrozenPost(frozen []int64, a *bins.Array, i, j int) int {
	lhs := (frozen[i] + 1) * a.Capacity(j)
	rhs := (frozen[j] + 1) * a.Capacity(i)
	switch {
	case lhs < rhs:
		return -1
	case lhs > rhs:
		return 1
	default:
		return 0
	}
}

// Reset clears the round state so the next Place starts a fresh round.
// The simulation engine calls this automatically between repetitions on
// any placer that implements it.
func (b *Batched) Reset() {
	b.inRound = 0
	for i := range b.frozen {
		b.frozen[i] = 0
	}
}

// BatchedFactory returns a Factory for the batched protocol.
func BatchedFactory(d, batch int) Factory {
	return func(a *bins.Array, w []float64) (Placer, error) { return NewBatched(a, w, d, batch) }
}

var _ Placer = (*Batched)(nil)
