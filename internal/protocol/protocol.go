// Package protocol implements the allocation protocols: the paper's
// Algorithm 1 (greedy d-choice with capacity tie-breaking) plus the
// baselines and extensions it is compared against.
//
// A Placer places balls into a bins.Array using a caller-supplied RNG,
// either one at a time (Place) or as a monomorphic batch loop
// (PlaceBatch) that the hot paths use to avoid per-ball interface
// dispatch. Placers are bound at construction to a fixed capacity vector
// and selection-weight vector (they pre-build alias tables), but they
// read ball counts live, so the same Placer can be reused across
// repetitions by resetting the array. Reweight rebinds a placer to a new
// weight vector over the same bins in place, reusing its tables and
// buffers, with exactly the placements of a freshly built one.
//
// Every placer holds its sampler as a concrete *sampling.AliasTable,
// so the per-ball sampling call is direct and inlinable. One sample
// costs a single 64-bit RNG draw (the integer-threshold alias table).
// For a fixed seed the placement sequence of Place and PlaceBatch is
// identical: PlaceBatch(a, r, k) consumes exactly the draws of k
// Place(a, r) calls.
//
// All load comparisons are exact integer arithmetic via
// bins.ComparePostLoads — no floating point is involved in any placement
// decision.
package protocol

import (
	"fmt"
	"math/bits"

	"repro/internal/bins"
	"repro/internal/sampling"
	"repro/internal/xrand"
)

// Placer allocates balls.
type Placer interface {
	// Place chooses bins for one ball per the protocol, allocates the
	// ball into a, and returns the receiving bin's index.
	Place(a *bins.Array, r *xrand.Rand) int
	// PlaceBatch allocates k balls with the draw sequence of k Place
	// calls, but without per-ball interface dispatch: each protocol
	// runs a concrete, monomorphic loop.
	PlaceBatch(a *bins.Array, r *xrand.Rand, k int64)
	// Name identifies the protocol in reports.
	Name() string
	// Reweight rebinds the placer to new selection weights for the same
	// bins, in place: afterwards it places exactly the bins, with
	// exactly the draws, of a placer the factory builds over the same
	// array and weights. It rejects what the factory rejects, with the
	// factory's error; after an error the placer must not place until a
	// later Reweight succeeds.
	Reweight(weights []float64) error
}

// Factory builds a Placer for a specific array and selection weights.
// The simulation engine calls it once per repetition (or once per worker
// for fixed arrays); an engine whose weights change over a run (the
// cluster engine's churn) calls it once per placer and Reweights the
// placer after that.
type Factory func(a *bins.Array, weights []float64) (Placer, error)

// maxChoices bounds d to keep candidate buffers on the stack.
const maxChoices = 32

func validate(a *bins.Array, weights []float64, d int) error {
	if a == nil {
		return fmt.Errorf("protocol: nil array")
	}
	if err := weightCount(weights, a.N()); err != nil {
		return err
	}
	if d < 1 || d > maxChoices {
		return fmt.Errorf("protocol: d = %d outside [1,%d]", d, maxChoices)
	}
	return nil
}

// weightCount rejects a weight vector whose length is not the n bins'.
func weightCount(weights []float64, n int) error {
	if len(weights) != n {
		return fmt.Errorf("protocol: %d weights for %d bins", len(weights), n)
	}
	return nil
}

// reweightTable rebuilds a placer's alias table over weights for the
// same bins, with the error its constructor wraps as "protocol: what:".
func reweightTable(t *sampling.AliasTable, weights []float64, what string) error {
	if err := weightCount(weights, t.N()); err != nil {
		return err
	}
	if err := t.Rebuild(weights); err != nil {
		return fmt.Errorf("protocol: %s: %w", what, err)
	}
	return nil
}

// Greedy is the paper's Algorithm 1. For each ball it draws d candidate
// bins (independently, with the configured selection probabilities),
// keeps the candidates whose load after a hypothetical allocation would
// be smallest, removes from that set every bin whose capacity is below
// the set's maximum capacity, and finally picks uniformly among the
// survivors.
type Greedy struct {
	d     int
	table *sampling.AliasTable
	// batchCand/batchTie are the SampleBatch scratch buffers of the
	// devirtualized d = 2/3/4 PlaceBatch kernels (ballBatch balls per
	// block), allocated once at construction so the batch loops stay
	// zero-allocation. They make a Greedy unsafe for concurrent use —
	// which it already was, since Place mutates the caller's RNG.
	batchCand []int
	batchTie  []uint64
}

// ballBatch is the number of balls whose candidates and tie draws are
// pre-sampled per SampleBatch block: large enough to amortise the loop
// overhead and keep many independent table loads in flight, small
// enough that the scratch (d·8 B + 8 B per ball) stays inside L1.
const ballBatch = 256

// BlockSize is ballBatch under its exported name: the block
// granularity of the devirtualized PlaceBatch kernels. The sharded
// engines align checkpoint cuts to this boundary so observation
// snapshots land between SampleBatch blocks and never split one — the
// cut rule is part of the observation model (see internal/obs).
const BlockSize = ballBatch

// NewGreedy builds Algorithm 1 with d choices over the given weights.
func NewGreedy(a *bins.Array, weights []float64, d int) (*Greedy, error) {
	if err := validate(a, weights, d); err != nil {
		return nil, err
	}
	t, err := sampling.NewAlias(weights)
	if err != nil {
		return nil, fmt.Errorf("protocol: greedy sampler: %w", err)
	}
	g := &Greedy{d: d, table: t}
	if d >= 2 && d <= 4 {
		g.batchCand = make([]int, d*ballBatch)
		g.batchTie = make([]uint64, ballBatch)
	}
	return g, nil
}

// Name implements Placer.
func (g *Greedy) Name() string { return fmt.Sprintf("greedy(d=%d)", g.d) }

// Reweight implements Placer. The batch buffers depend only on d, so
// they stay as they are.
func (g *Greedy) Reweight(weights []float64) error {
	return reweightTable(g.table, weights, "greedy sampler")
}

// select2 resolves Algorithm 1's two-candidate decision from
// precomputed cross products l1 = (m1+1)·c2 and l2 = (m2+1)·c1 (steps
// 3-6: smaller post-load wins, capacity breaks post-load ties, the coin
// breaks full ties). It is a cascade of conditional moves, not
// branches: ties are common on class-structured arrays and their
// outcome is a coin toss the branch predictor would keep losing. Shared
// by the live-count (Greedy) and frozen-snapshot (Batched) kernels so
// the tie-break rule lives in exactly one place.
func select2(b1, b2 int, c1, c2, l1, l2 int64, coin bool) int {
	tieWin := b1
	if coin {
		tieWin = b2
	}
	capWin := b1
	if c2 > c1 {
		capWin = b2
	}
	if c2 == c1 {
		capWin = tieWin
	}
	win := b1
	if l2 < l1 {
		win = b2
	}
	if l2 == l1 {
		win = capWin
	}
	return win
}

// greedyPick2 resolves Algorithm 1's d = 2 decision for two sampled
// candidates and one raw tie draw (the coin is the draw's low bit). It
// is the decision half of choose2, split out so the SampleBatch-fed
// batch kernel and the per-ball path share one body.
func greedyPick2(a *bins.Array, b1, b2 int, u uint64) int {
	if b1 == b2 {
		return b1
	}
	c1, c2 := a.Capacity(b1), a.Capacity(b2)
	l1 := (a.Balls(b1) + 1) * c2
	l2 := (a.Balls(b2) + 1) * c1
	return select2(b1, b2, c1, c2, l1, l2, u&1 == 1)
}

// choose2 is the branch-lean d = 2 specialization of Algorithm 1. Both
// candidates come from one Sample2 draw and the tie-break coin is a
// second unconditional draw, so every ball consumes exactly two RNG
// advances regardless of outcome.
func (g *Greedy) choose2(a *bins.Array, r *xrand.Rand) int {
	b1, b2 := g.table.Sample2(r)
	return greedyPick2(a, b1, b2, r.Uint64())
}

// chooseGeneralFrom is the verbatim translation of Algorithm 1 for any
// d, shared by the sequential (frozen == nil: live ball counts) and
// batched (frozen: round-start snapshot) protocols so the candidate
// dedup and tie-break logic lives in one place. Candidate and survivor
// sets live in stack arrays (d <= maxChoices). All d candidates come
// from one SampleN call — ceil(d/2) RNG draws, two candidates packed
// per draw — so the devirtualized d = 3 and d = 4 kernels below consume
// exactly the same stream as this general path.
func chooseGeneralFrom(t *sampling.AliasTable, d int, frozen []int64, a *bins.Array, r *xrand.Rand) int {
	// d = 1 degenerates to single choice: one draw, no tie set and no
	// tie draw — the same stream as the Single protocol and as every
	// pre-SampleN pinned d = 1 run.
	if d == 1 {
		return t.Sample(r)
	}
	// Step 2: independently choose a set B of d bins. The d draws are
	// independent; duplicates collapse because B is a set.
	var raw [maxChoices]int
	t.SampleN(r, raw[:d])
	var cand [maxChoices]int
	nc := 0
	for _, b := range raw[:d] {
		dup := false
		for _, c := range cand[:nc] {
			if c == b {
				dup = true
				break
			}
		}
		if !dup {
			cand[nc] = b
			nc++
		}
	}
	// Step 3: Bopt = bins minimising the post-allocation load.
	var opt [maxChoices]int
	opt[0] = cand[0]
	no := 1
	for _, b := range cand[1:nc] {
		var cmp int
		if frozen == nil {
			cmp = a.ComparePostLoads(b, opt[0])
		} else {
			cmp = compareFrozenPost(frozen, a, b, opt[0])
		}
		switch cmp {
		case -1:
			opt[0] = b
			no = 1
		case 0:
			opt[no] = b
			no++
		}
	}
	// Steps 4-5: keep only maximum-capacity members of Bopt.
	maxCap := a.Capacity(opt[0])
	for _, b := range opt[1:no] {
		if c := a.Capacity(b); c > maxCap {
			maxCap = c
		}
	}
	k := 0
	for _, b := range opt[:no] {
		if a.Capacity(b) == maxCap {
			opt[k] = b
			k++
		}
	}
	// Step 6: i.u.r. choice among the survivors (the tie draw is
	// unconditional; see tieIdx).
	return opt[tieIdx(r, k)]
}

func (g *Greedy) chooseGeneral(a *bins.Array, r *xrand.Rand) int {
	return chooseGeneralFrom(g.table, g.d, nil, a, r)
}

// greedyPick resolves Algorithm 1's steps 3-6 for up to four
// deduplicated candidates against live ball counts, with the step-6
// tie draw supplied raw in u (already consumed by the caller, so the
// stream position is the same whether the draw came straight off the
// RNG or out of a SampleBatch tie buffer). It is
// decision-equivalent to the tail of chooseGeneralFrom — same tie sets,
// same unconditional tieIdx consumption — but shaped for the pipeline:
// all candidate bin states load up front into fixed four-slot vectors,
// the minimum post-load resolves through a compare cascade of
// conditional moves, and set membership is recomputed from the final
// minimum (all candidates tying the running minimum equal the overall
// minimum, so incremental set maintenance and final recomputation give
// the same Bopt). Tie outcomes are coin tosses the branch predictor
// would keep losing; keeping them out of the control flow is the same
// trick the d = 2 kernel plays.
func greedyPick(a *bins.Array, u uint64, cand *[4]int, nc int) int {
	var ms, cs [4]int64
	for i := 0; i < nc; i++ {
		ms[i], cs[i] = a.PostLoad(cand[i])
	}
	// Step 3a: minimum post-allocation load, exact cross-multiplied
	// compare against the running best. Single-assignment conditionals
	// compile to conditional moves.
	bm, bc := ms[0], cs[0]
	for i := 1; i < nc; i++ {
		m, c := ms[i], cs[i]
		lt := m*bc < bm*c
		if lt {
			bm = m
		}
		if lt {
			bc = c
		}
	}
	// Steps 3b-5: Bopt membership (exact tie with the minimum, so
	// ms[i]*bc == bm*cs[i]) and the maximum capacity over Bopt,
	// without data-dependent branches: a non-member's capacity is
	// zeroed out of the running maximum.
	var maxCap int64
	for i := 0; i < nc; i++ {
		c := cs[i]
		if ms[i]*bc != bm*cs[i] {
			c = 0
		}
		if c > maxCap {
			maxCap = c
		}
	}
	// Survivors: members of Bopt at maximum capacity, compacted in
	// candidate order (the order chooseGeneralFrom's incremental sets
	// preserve). z == 0 iff both the tie difference and the capacity
	// gap are zero; the write is unconditional, the count conditional.
	var surv [4]int
	k := 0
	for i := 0; i < nc; i++ {
		z := (ms[i]*bc - bm*cs[i]) | (maxCap - cs[i])
		surv[k] = cand[i]
		if z == 0 {
			k++
		}
	}
	// Step 6: i.u.r. choice among the survivors (the tie draw is
	// unconditional; see tieIdx).
	return surv[tieIdxFrom(u, k)]
}

// nonzero64 returns 1 if v != 0 and 0 otherwise, without a branch.
func nonzero64(v int64) int {
	return int((uint64(v|-v) >> 63) & 1)
}

// tieIdx resolves Algorithm 1's step-6 uniform choice among k tied
// survivors from exactly one 64-bit draw: the high word of the draw×k
// product. For k <= maxChoices the Lemire bias a rejection loop would
// remove is below 2^-58 — far beneath anything a Monte-Carlo experiment
// can resolve. The draw is consumed UNCONDITIONALLY, even when k = 1
// (the product's high word is then 0, selecting the single survivor):
// at steady state on class-structured arrays more than half of all
// balls see a tie, so a draw-only-on-tie branch is a coin toss the
// branch predictor keeps losing — the same rationale as the d = 2
// kernel's unconditional tie coin. Every ball of a d >= 3 protocol
// therefore consumes exactly ceil(d/2) + 1 RNG advances regardless of
// outcome. Every Algorithm-1 tie break (the specialised kernels, the
// general path, and the duplicate-candidate fallback) routes through
// this one function so the draw stream stays identical across paths.
func tieIdx(r *xrand.Rand, k int) int {
	return tieIdxFrom(r.Uint64(), k)
}

// tieIdxFrom is tieIdx for a draw the caller already consumed — the
// SampleBatch path buffers the per-ball tie draw alongside the
// candidates and resolves it here without touching the RNG again.
func tieIdxFrom(u uint64, k int) int {
	hi, _ := bits.Mul64(u, uint64(k))
	return int(hi)
}

// greedyPick3 resolves the d = 3 decision for three sampled candidates
// and one raw tie draw — the decision half of choose3, shared by the
// per-ball path and the SampleBatch-fed batch kernel. The common
// all-distinct case runs fully unrolled in registers; a duplicate
// (probability ~n⁻¹ per pair) collapses the set and delegates to
// greedyPick.
func greedyPick3(a *bins.Array, b0, b1, b2 int, u uint64) int {
	if b1 == b0 || b2 == b0 || b2 == b1 {
		var cand [4]int
		cand[0] = b0
		nc := 1
		if b1 != b0 {
			cand[nc] = b1
			nc++
		}
		if b2 != b0 && b2 != b1 {
			cand[nc] = b2
			nc++
		}
		return greedyPick(a, u, &cand, nc)
	}
	m0, c0 := a.PostLoad(b0)
	m1, c1 := a.PostLoad(b1)
	m2, c2 := a.PostLoad(b2)
	// Steps 3-5 as one lexicographic minimisation (smallest post-load,
	// then largest capacity) via a conditional-move compare cascade;
	// see choose4 for the argument. The winner's denominator ac is the
	// maximum capacity over Bopt.
	am, ac := m0, c0
	p := m1 * ac
	q := am * c1
	sel := p - q
	if sel == 0 {
		sel = ac - c1
	}
	lt := sel < 0
	if lt {
		am = m1
	}
	if lt {
		ac = c1
	}
	p = m2 * ac
	q = am * c2
	sel = p - q
	if sel == 0 {
		sel = ac - c2
	}
	lt2 := sel < 0
	if lt2 {
		am = m2
	}
	if lt2 {
		ac = c2
	}
	// Survivor counts and select, exactly as in choose4 (the tie test
	// cancels to pair equality because survivors carry capacity ac).
	s0 := 1 - nonzero64((m0-am)|(c0-ac))
	s1 := 1 - nonzero64((m1-am)|(c1-ac))
	s2 := 1 - nonzero64((m2-am)|(c2-ac))
	k := s0 + s1 + s2
	j := tieIdxFrom(u, k)
	t0 := s0
	t1 := t0 + s1
	win := b2
	if j < t1 {
		win = b1
	}
	if j < t0 {
		win = b0
	}
	return win
}

// choose3 is the devirtualized d = 3 kernel: all three candidates come
// from two RNG draws (the SampleN packing — one Sample2 draw plus one
// Sample draw, flattened into Sample3) and the unconditional tie draw
// is the third advance. Decision- and stream-equivalent to
// chooseGeneralFrom with d = 3.
func (g *Greedy) choose3(a *bins.Array, r *xrand.Rand) int {
	b0, b1, b2 := g.table.Sample3(r)
	return greedyPick3(a, b0, b1, b2, r.Uint64())
}

// greedyPick4 resolves the d = 4 decision for four sampled candidates
// and one raw tie draw — the decision half of choose4, shared by the
// per-ball path and the SampleBatch-fed batch kernel: the all-distinct
// case fully unrolled, the rare duplicate case collapsed and delegated
// to greedyPick.
func greedyPick4(a *bins.Array, b0, b1, b2, b3 int, u uint64) int {
	if b1 == b0 || b2 == b0 || b2 == b1 || b3 == b0 || b3 == b1 || b3 == b2 {
		var cand [4]int
		cand[0] = b0
		nc := 1
		if b1 != b0 {
			cand[nc] = b1
			nc++
		}
		if b2 != b0 && b2 != b1 {
			cand[nc] = b2
			nc++
		}
		if b3 != b0 && b3 != b1 && b3 != b2 {
			cand[nc] = b3
			nc++
		}
		return greedyPick(a, u, &cand, nc)
	}
	m0, c0 := a.PostLoad(b0)
	m1, c1 := a.PostLoad(b1)
	m2, c2 := a.PostLoad(b2)
	m3, c3 := a.PostLoad(b3)
	// Steps 3-5 are one lexicographic minimisation — smallest post-load
	// first, then largest capacity — run as a two-level conditional-move
	// tournament (the two first-round compares carry no dependency on
	// each other). Each round compares the pair exactly: sel is the
	// cross-multiplied post-load difference, replaced by the capacity
	// difference on an exact post-load tie (one extra conditional move,
	// no branch). The winner's denominator ac is then by construction
	// the maximum capacity over Bopt, so no separate capacity-filter
	// pass is needed.
	am, ac := m0, c0
	p := m1 * ac
	q := am * c1
	sel := p - q
	if sel == 0 {
		sel = ac - c1
	}
	lt := sel < 0
	if lt {
		am = m1
	}
	if lt {
		ac = c1
	}
	xm, xc := m2, c2
	p = m3 * xc
	q = xm * c3
	sel = p - q
	if sel == 0 {
		sel = xc - c3
	}
	lt2 := sel < 0
	if lt2 {
		xm = m3
	}
	if lt2 {
		xc = c3
	}
	p = xm * ac
	q = am * xc
	sel = p - q
	if sel == 0 {
		sel = ac - xc
	}
	lt3 := sel < 0
	if lt3 {
		am = xm
	}
	if lt3 {
		ac = xc
	}
	// Survivors (s_i == 1): candidates tying the winning post-load
	// exactly AND carrying the winning (maximum-over-Bopt) capacity.
	// Since a survivor's capacity equals ac, the cross-multiplied tie
	// test m_i·ac == am·c_i cancels to plain pair equality
	// (m_i, c_i) == (am, ac) — no multiplies. The j-th survivor in
	// candidate order resolves through the running survivor counts t_i
	// without materialising a list: the winner is the first candidate
	// whose cumulative survivor count exceeds j.
	s0 := 1 - nonzero64((m0-am)|(c0-ac))
	s1 := 1 - nonzero64((m1-am)|(c1-ac))
	s2 := 1 - nonzero64((m2-am)|(c2-ac))
	s3 := 1 - nonzero64((m3-am)|(c3-ac))
	k := s0 + s1 + s2 + s3
	j := tieIdxFrom(u, k)
	t0 := s0
	t1 := t0 + s1
	t2 := t1 + s2
	win := b3
	if j < t2 {
		win = b2
	}
	if j < t1 {
		win = b1
	}
	if j < t0 {
		win = b0
	}
	return win
}

// choose4 is the devirtualized d = 4 kernel: four candidates from two
// packed draws (Sample4) plus the unconditional tie draw. Decision- and
// stream-equivalent to chooseGeneralFrom with d = 4.
func (g *Greedy) choose4(a *bins.Array, r *xrand.Rand) int {
	b0, b1, b2, b3 := g.table.Sample4(r)
	return greedyPick4(a, b0, b1, b2, b3, r.Uint64())
}

// Place implements Placer.
func (g *Greedy) Place(a *bins.Array, r *xrand.Rand) int {
	var chosen int
	switch g.d {
	case 2:
		chosen = g.choose2(a, r)
	case 3:
		chosen = g.choose3(a, r)
	case 4:
		chosen = g.choose4(a, r)
	default:
		chosen = g.chooseGeneral(a, r)
	}
	a.Add(chosen)
	return chosen
}

// PlaceBatch implements Placer. Each supported d runs its own
// monomorphic loop so the per-ball kernel call is direct and the d
// dispatch happens once per batch, not once per ball. The d = 2/3/4
// kernels additionally split each block of up to ballBatch balls into
// two passes: SampleBatch pre-draws every candidate and tie draw of the
// block in one dependency-free loop (table loads of many balls in
// flight at once), then a decision loop reads bin state and places.
// The split moves no draw or bit: candidate choice never depends on
// bin state, so the schedule consumes the exact per-ball draw sequence
// and produces the exact final state of k sequential Place calls
// (pinned by the golden and batch-equivalence tests).
func (g *Greedy) PlaceBatch(a *bins.Array, r *xrand.Rand, k int64) {
	cand, tie := g.batchCand, g.batchTie
	switch g.d {
	case 2:
		for k > 0 {
			n := ballBatch
			if int64(n) > k {
				n = int(k)
			}
			g.table.SampleBatch(r, 2, cand[:2*n], tie[:n])
			for i := 0; i < n; i++ {
				a.Add(greedyPick2(a, cand[2*i], cand[2*i+1], tie[i]))
			}
			k -= int64(n)
		}
	case 3:
		for k > 0 {
			n := ballBatch
			if int64(n) > k {
				n = int(k)
			}
			g.table.SampleBatch(r, 3, cand[:3*n], tie[:n])
			for i := 0; i < n; i++ {
				a.Add(greedyPick3(a, cand[3*i], cand[3*i+1], cand[3*i+2], tie[i]))
			}
			k -= int64(n)
		}
	case 4:
		for k > 0 {
			n := ballBatch
			if int64(n) > k {
				n = int(k)
			}
			g.table.SampleBatch(r, 4, cand[:4*n], tie[:n])
			for i := 0; i < n; i++ {
				a.Add(greedyPick4(a, cand[4*i], cand[4*i+1], cand[4*i+2], cand[4*i+3], tie[i]))
			}
			k -= int64(n)
		}
	default:
		for ; k > 0; k-- {
			a.Add(g.chooseGeneral(a, r))
		}
	}
}

// Standard is the classical Azar et al. Greedy[d]: candidates are
// compared by *ball count* (not capacity-relative load) and ties are
// broken uniformly at random. With uniform capacities and uniform
// selection probabilities this is the standard d-choice game; it serves
// as the capacity-oblivious baseline for heterogeneous arrays.
type Standard struct {
	d     int
	table *sampling.AliasTable
}

// NewStandard builds the capacity-oblivious d-choice baseline.
func NewStandard(a *bins.Array, weights []float64, d int) (*Standard, error) {
	if err := validate(a, weights, d); err != nil {
		return nil, err
	}
	t, err := sampling.NewAlias(weights)
	if err != nil {
		return nil, fmt.Errorf("protocol: standard sampler: %w", err)
	}
	return &Standard{d: d, table: t}, nil
}

// Name implements Placer.
func (s *Standard) Name() string { return fmt.Sprintf("standard(d=%d)", s.d) }

// Reweight implements Placer.
func (s *Standard) Reweight(weights []float64) error {
	return reweightTable(s.table, weights, "standard sampler")
}

// choose2 is the branch-lean d = 2 specialization: both candidates from
// one Sample2 draw, an unconditional coin draw, then a select cascade on
// the ball-count comparison (see Greedy.choose2 for the rationale).
func (s *Standard) choose2(a *bins.Array, r *xrand.Rand) int {
	b1, b2 := s.table.Sample2(r)
	coin := r.Uint64()&1 == 1
	if b1 == b2 {
		return b1
	}
	m1, m2 := a.Balls(b1), a.Balls(b2)
	tieWin := b1
	if coin {
		tieWin = b2
	}
	win := b1
	if m2 < m1 {
		win = b2
	}
	if m2 == m1 {
		win = tieWin
	}
	return win
}

func (s *Standard) chooseGeneral(a *bins.Array, r *xrand.Rand) int {
	var opt [maxChoices]int
	no := 0
	var best int64
	for i := 0; i < s.d; i++ {
		b := s.table.Sample(r)
		m := a.Balls(b)
		switch {
		case i == 0 || m < best:
			best = m
			opt[0] = b
			no = 1
		case m == best:
			dup := false
			for _, c := range opt[:no] {
				if c == b {
					dup = true
					break
				}
			}
			if !dup {
				opt[no] = b
				no++
			}
		}
	}
	if no > 1 {
		return opt[r.Intn(no)]
	}
	return opt[0]
}

// Place implements Placer.
func (s *Standard) Place(a *bins.Array, r *xrand.Rand) int {
	var chosen int
	if s.d == 2 {
		chosen = s.choose2(a, r)
	} else {
		chosen = s.chooseGeneral(a, r)
	}
	a.Add(chosen)
	return chosen
}

// PlaceBatch implements Placer.
func (s *Standard) PlaceBatch(a *bins.Array, r *xrand.Rand, k int64) {
	if s.d == 2 {
		for ; k > 0; k-- {
			a.Add(s.choose2(a, r))
		}
		return
	}
	for ; k > 0; k-- {
		a.Add(s.chooseGeneral(a, r))
	}
}

// Single places each ball into one randomly selected bin (d = 1): the
// no-choice baseline.
type Single struct {
	table *sampling.AliasTable
}

// NewSingle builds the single-choice baseline.
func NewSingle(a *bins.Array, weights []float64) (*Single, error) {
	if err := validate(a, weights, 1); err != nil {
		return nil, err
	}
	t, err := sampling.NewAlias(weights)
	if err != nil {
		return nil, fmt.Errorf("protocol: single sampler: %w", err)
	}
	return &Single{table: t}, nil
}

// Name implements Placer.
func (s *Single) Name() string { return "single" }

// Reweight implements Placer.
func (s *Single) Reweight(weights []float64) error {
	return reweightTable(s.table, weights, "single sampler")
}

// Place implements Placer.
func (s *Single) Place(a *bins.Array, r *xrand.Rand) int {
	b := s.table.Sample(r)
	a.Add(b)
	return b
}

// PlaceBatch implements Placer.
func (s *Single) PlaceBatch(a *bins.Array, r *xrand.Rand, k int64) {
	for ; k > 0; k-- {
		a.Add(s.table.Sample(r))
	}
}

// GoLeft is Vöcking's Always-Go-Left d-choice protocol adapted to
// heterogeneous bins (an extension/ablation, not in the paper): the bins
// are split into d contiguous groups, each ball draws one candidate per
// group (weights restricted to the group), compares post-allocation loads
// exactly, and breaks ties towards the leftmost group instead of towards
// higher capacity.
type GoLeft struct {
	d       int
	offsets []int // start index of each group
	tables  []*sampling.AliasTable
}

// NewGoLeft builds the always-go-left placer. Each of the d groups must
// contain at least one bin with positive weight.
func NewGoLeft(a *bins.Array, weights []float64, d int) (*GoLeft, error) {
	if err := validate(a, weights, d); err != nil {
		return nil, err
	}
	n := a.N()
	if d > n {
		return nil, fmt.Errorf("protocol: go-left needs d <= n (%d > %d)", d, n)
	}
	g := &GoLeft{d: d}
	for k := 0; k < d; k++ {
		lo := k * n / d
		hi := (k + 1) * n / d
		t, err := sampling.NewAlias(weights[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("protocol: go-left group %d: %w", k, err)
		}
		g.offsets = append(g.offsets, lo)
		g.tables = append(g.tables, t)
	}
	return g, nil
}

// Name implements Placer.
func (g *GoLeft) Name() string { return fmt.Sprintf("goleft(d=%d)", g.d) }

// Reweight implements Placer: each group's table is rebuilt over its
// slice of weights, the same groups NewGoLeft cut.
func (g *GoLeft) Reweight(weights []float64) error {
	n := g.offsets[g.d-1] + g.tables[g.d-1].N()
	if err := weightCount(weights, n); err != nil {
		return err
	}
	for k, t := range g.tables {
		if err := t.Rebuild(weights[g.offsets[k] : g.offsets[k]+t.N()]); err != nil {
			return fmt.Errorf("protocol: go-left group %d: %w", k, err)
		}
	}
	return nil
}

func (g *GoLeft) choose(a *bins.Array, r *xrand.Rand) int {
	best := g.offsets[0] + g.tables[0].Sample(r)
	for k := 1; k < g.d; k++ {
		b := g.offsets[k] + g.tables[k].Sample(r)
		// strictly smaller post-load wins; ties keep the leftmost group.
		if a.ComparePostLoads(b, best) < 0 {
			best = b
		}
	}
	return best
}

// Place implements Placer.
func (g *GoLeft) Place(a *bins.Array, r *xrand.Rand) int {
	best := g.choose(a, r)
	a.Add(best)
	return best
}

// PlaceBatch implements Placer.
func (g *GoLeft) PlaceBatch(a *bins.Array, r *xrand.Rand, k int64) {
	for ; k > 0; k-- {
		a.Add(g.choose(a, r))
	}
}

// OnePlusBeta is Mitzenmacher's (1+β)-choice process adapted to the
// heterogeneous setting (extension): with probability beta a ball runs
// Algorithm 1 with d = 2, otherwise it places single-choice. It
// interpolates between d=1 and d=2 probe cost.
type OnePlusBeta struct {
	beta   float64
	greedy *Greedy
	single *Single
}

// NewOnePlusBeta builds the (1+β) placer for beta in [0, 1].
func NewOnePlusBeta(a *bins.Array, weights []float64, beta float64) (*OnePlusBeta, error) {
	if !(beta >= 0 && beta <= 1) { // NaN too: Bernoulli(NaN) never fires
		return nil, fmt.Errorf("protocol: beta = %v outside [0,1]", beta)
	}
	g, err := NewGreedy(a, weights, 2)
	if err != nil {
		return nil, err
	}
	s, err := NewSingle(a, weights)
	if err != nil {
		return nil, err
	}
	return &OnePlusBeta{beta: beta, greedy: g, single: s}, nil
}

// Name implements Placer.
func (p *OnePlusBeta) Name() string { return fmt.Sprintf("oneplusbeta(b=%g)", p.beta) }

// Reweight implements Placer: both halves, Greedy first as in
// NewOnePlusBeta.
func (p *OnePlusBeta) Reweight(weights []float64) error {
	if err := p.greedy.Reweight(weights); err != nil {
		return err
	}
	return p.single.Reweight(weights)
}

// Place implements Placer.
func (p *OnePlusBeta) Place(a *bins.Array, r *xrand.Rand) int {
	if r.Bernoulli(p.beta) {
		return p.greedy.Place(a, r)
	}
	return p.single.Place(a, r)
}

// PlaceBatch implements Placer. Place is already a direct call on the
// concrete receiver (p.greedy and p.single are concrete fields), so the
// loop is monomorphic as-is.
func (p *OnePlusBeta) PlaceBatch(a *bins.Array, r *xrand.Rand, k int64) {
	for ; k > 0; k-- {
		p.Place(a, r)
	}
}

// GreedyFactory returns a Factory for Algorithm 1 with d choices.
func GreedyFactory(d int) Factory {
	return func(a *bins.Array, w []float64) (Placer, error) { return NewGreedy(a, w, d) }
}

// StandardFactory returns a Factory for the capacity-oblivious baseline.
func StandardFactory(d int) Factory {
	return func(a *bins.Array, w []float64) (Placer, error) { return NewStandard(a, w, d) }
}

// SingleFactory returns a Factory for the single-choice baseline.
func SingleFactory() Factory {
	return func(a *bins.Array, w []float64) (Placer, error) { return NewSingle(a, w) }
}

// GoLeftFactory returns a Factory for always-go-left with d groups.
func GoLeftFactory(d int) Factory {
	return func(a *bins.Array, w []float64) (Placer, error) { return NewGoLeft(a, w, d) }
}

// OnePlusBetaFactory returns a Factory for the (1+β) process.
func OnePlusBetaFactory(beta float64) Factory {
	return func(a *bins.Array, w []float64) (Placer, error) { return NewOnePlusBeta(a, w, beta) }
}

var (
	_ Placer = (*Greedy)(nil)
	_ Placer = (*Standard)(nil)
	_ Placer = (*Single)(nil)
	_ Placer = (*GoLeft)(nil)
	_ Placer = (*OnePlusBeta)(nil)
)
