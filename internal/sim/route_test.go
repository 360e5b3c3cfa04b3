package sim

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bins"
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/xrand"
)

// TestRouteStreamContract pins the routing substream layout: block b
// of the pass on stream `idx` of seed `s` draws from
// xrand.NewBlockStream(s, idx, b) == New(Mix64(Mix64(s, idx), b)),
// and the hot loop's re-seed (Seed(Mix64(base, b))) is the identical
// state. Golden first outputs freeze the layout: a change here
// silently redefines every routing count.
func TestRouteStreamContract(t *testing.T) {
	const seed, stream = 20260727, 3
	for _, block := range []uint64{0, 1, 7, 152} {
		want := xrand.New(xrand.Mix64(xrand.Mix64(seed, stream), block))
		got := xrand.NewBlockStream(seed, stream, block)
		if *got != *want {
			t.Fatalf("block %d: NewBlockStream state differs from the documented composition", block)
		}
		var reseeded xrand.Rand
		reseeded.Seed(xrand.Mix64(xrand.Mix64(seed, stream), block))
		if reseeded != *want {
			t.Fatalf("block %d: re-seeded state differs from NewBlockStream", block)
		}
	}
	// Golden first outputs of the first three block substreams of
	// (seed 20260727, stream 0) — the single game's routing layout.
	want := []uint64{
		xrand.NewBlockStream(20260727, 0, 0).Uint64(),
		xrand.NewBlockStream(20260727, 0, 1).Uint64(),
		xrand.NewBlockStream(20260727, 0, 2).Uint64(),
	}
	got := []uint64{11123976445432256688, 14101672484335824344, 7258068234063164119}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("block substream outputs changed: %v, golden %v", want, got)
	}
}

// TestRoutingBlockAligned: the routing block is a multiple of the
// placement kernel's block size, so checkpoint cuts at routing-block
// boundaries stay compatible with the PlaceBatch segmentation rule.
func TestRoutingBlockAligned(t *testing.T) {
	if RoutingBlock%protocol.BlockSize != 0 {
		t.Fatalf("RoutingBlock %d not a multiple of protocol.BlockSize %d",
			RoutingBlock, protocol.BlockSize)
	}
}

// TestRouteGroupsMatchSerial: any fan-out of the same routing pass —
// 1, 2, 3 or 7 groups — merges to the identical counts and per-cut
// prefixes. This is the worker-independence substrate of the
// multinomial routing phase.
func TestRouteGroupsMatchSerial(t *testing.T) {
	weights := []float64{1, 5, 2, 0, 9, 3, 1, 4}
	mult, err := sampling.NewMultinomial(weights)
	if err != nil {
		t.Fatal(err)
	}
	const m = 5*RoutingBlock + 1234
	cuts := []int64{100, RoutingBlock, 2*RoutingBlock + 5000, m}
	cutBlocks, cutRems := cutPlan(cuts)
	base := xrand.Mix64(99, 0)

	ref := newRouteGroups(1, len(weights), len(cuts))
	ref[0].route(nil, "test", 0, base, mult, m, 0, 1, cutBlocks, cutRems)
	refCounts := make([]int64, len(weights))
	refPrefix := make([][]int64, len(cuts))
	for k := range refPrefix {
		refPrefix[k] = make([]int64, len(weights))
	}
	mergeRouteGroups(ref, refCounts, refPrefix)

	var total int64
	for _, c := range refCounts {
		total += c
	}
	if total != m {
		t.Fatalf("serial counts sum to %d, want %d", total, m)
	}
	if refCounts[3] != 0 {
		t.Fatalf("zero-weight shard routed %d balls", refCounts[3])
	}

	for _, g := range []int{2, 3, 7} {
		groups := newRouteGroups(g, len(weights), len(cuts))
		var wg sync.WaitGroup
		for gi := range groups {
			wg.Add(1)
			go func() {
				defer wg.Done()
				groups[gi].route(nil, "test", 0, base, mult, m, gi, len(groups), cutBlocks, cutRems)
			}()
		}
		wg.Wait()
		counts := make([]int64, len(weights))
		prefix := make([][]int64, len(cuts))
		for k := range prefix {
			prefix[k] = make([]int64, len(weights))
		}
		mergeRouteGroups(groups, counts, prefix)
		if !reflect.DeepEqual(counts, refCounts) {
			t.Fatalf("%d groups: counts %v, serial %v", g, counts, refCounts)
		}
		if !reflect.DeepEqual(prefix, refPrefix) {
			t.Fatalf("%d groups: prefixes %v, serial %v", g, prefix, refPrefix)
		}
	}
}

// TestRoutePrefixModel pins the checkpoint realisation rule: the
// prefix at B is the counts of all full blocks below B plus the first
// B mod RoutingBlock balls of the boundary block in shard order — so
// prefixes are column-monotone in the cut index, sum to exactly
// min(B, m) before alignment, and a cut at B == m reproduces the full
// counts.
func TestRoutePrefixModel(t *testing.T) {
	weights := []float64{2, 1, 4, 3}
	mult, err := sampling.NewMultinomial(weights)
	if err != nil {
		t.Fatal(err)
	}
	const m = 3*RoutingBlock + 777
	cuts := []int64{1, 4000, RoutingBlock + 9000, m}
	cutBlocks, cutRems := cutPlan(cuts)
	groups := newRouteGroups(1, len(weights), len(cuts))
	groups[0].route(nil, "test", 0, xrand.Mix64(7, 0), mult, m, 0, 1, cutBlocks, cutRems)
	counts := make([]int64, len(weights))
	prefix := make([][]int64, len(cuts))
	for k := range prefix {
		prefix[k] = make([]int64, len(weights))
	}
	mergeRouteGroups(groups, counts, prefix)

	for k, cut := range cuts {
		var sum int64
		for s := range weights {
			sum += prefix[k][s]
			if prefix[k][s] < 0 || prefix[k][s] > counts[s] {
				t.Fatalf("cut %d shard %d: prefix %d outside [0, %d]", k, s, prefix[k][s], counts[s])
			}
			if k > 0 && prefix[k][s] < prefix[k-1][s] {
				t.Fatalf("shard %d prefix shrank between cuts %d and %d", s, k-1, k)
			}
		}
		if sum != cut {
			t.Fatalf("cut at %d realised %d balls before alignment", cut, sum)
		}
	}
	if !reflect.DeepEqual(prefix[len(cuts)-1], counts) {
		t.Fatalf("cut at m: prefix %v != counts %v", prefix[len(cuts)-1], counts)
	}
}

// TestPrefixFill pins the shard-ordered partial fill of a boundary
// block.
func TestPrefixFill(t *testing.T) {
	block := []int64{5, 0, 3, 10}
	for _, tc := range []struct {
		budget int64
		want   []int64
	}{
		{0, []int64{0, 0, 0, 0}},
		{2, []int64{2, 0, 0, 0}},
		{5, []int64{5, 0, 0, 0}},
		{7, []int64{5, 0, 2, 0}},
		{18, []int64{5, 0, 3, 10}},
		{99, []int64{5, 0, 3, 10}},
	} {
		dst := make([]int64, 4)
		prefixFill(dst, block, tc.budget)
		if !reflect.DeepEqual(dst, tc.want) {
			t.Fatalf("budget %d: %v, want %v", tc.budget, dst, tc.want)
		}
	}
}

// TestRouteMatchesPerBallLaw: the multinomial routing counts follow
// the same law as a per-ball categorical pass — compare each shard's
// mean routed count across many repetitions-by-substream against the
// weight share, at 5 standard errors.
func TestRouteMatchesPerBallLaw(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	var total float64
	for _, w := range weights {
		total += w
	}
	mult, err := sampling.NewMultinomial(weights)
	if err != nil {
		t.Fatal(err)
	}
	const m = RoutingBlock + 5000
	const reps = 300
	sums := make([]float64, len(weights))
	counts := make([]int64, len(weights))
	for rep := 0; rep < reps; rep++ {
		groups := newRouteGroups(1, len(weights), 0)
		groups[0].route(nil, "test", 0, xrand.Mix64(uint64(rep), 0), mult, m, 0, 1, nil, nil)
		mergeRouteGroups(groups, counts, nil)
		for s, c := range counts {
			sums[s] += float64(c)
		}
	}
	for s, w := range weights {
		p := w / total
		mean := sums[s] / reps
		want := float64(m) * p
		se := math.Sqrt(float64(m)*p*(1-p)) / math.Sqrt(reps)
		if math.Abs(mean-want) > 5*se {
			t.Fatalf("shard %d: mean %v, want %v ± %v", s, mean, want, 5*se)
		}
	}
}

// TestRunLargeShardsWorkersCheckpointsMatrix is the bit-identity
// matrix of the new routing: across shards × workers × checkpoint
// sets, the full final state, every checkpoint row and every height
// row must be identical to the 1-worker run — and the final state
// must be identical to the run with no checkpoints at all.
func TestRunLargeShardsWorkersCheckpointsMatrix(t *testing.T) {
	a := largeArray(t, 3000)
	for _, shards := range []int{1, 5, 16} {
		for _, cuts := range [][]int64{nil, {700}, {300, 5000, 12000}} {
			var base *largeResult
			for _, workers := range []int{1, 2, 3, 8} {
				res, err := runLarge(RunSpec{
					Config: Config{
						Array:      a,
						Seed:       1234,
						Workers:    workers,
						ObsOptions: ObsOptions{Checkpoints: cuts, HeightLevels: 2},
					},
					Shards: shards,
				})
				if err != nil {
					t.Fatalf("shards=%d cuts=%v workers=%d: %v", shards, cuts, workers, err)
				}
				if base == nil {
					base = res
					continue
				}
				for i := 0; i < res.Array.N(); i++ {
					if res.Array.Balls(i) != base.Array.Balls(i) {
						t.Fatalf("shards=%d cuts=%v workers=%d: bin %d differs", shards, cuts, workers, i)
					}
				}
				if !reflect.DeepEqual(res.Checkpoints, base.Checkpoints) {
					t.Fatalf("shards=%d cuts=%v workers=%d: checkpoint rows differ", shards, cuts, workers)
				}
				if !reflect.DeepEqual(res.HeightCounts, base.HeightCounts) {
					t.Fatalf("shards=%d cuts=%v workers=%d: height rows differ", shards, cuts, workers)
				}
			}
		}
		// The final state never depends on which checkpoint set was
		// requested: compare the no-cut run against the 3-cut run.
		plain, err := runLarge(RunSpec{Config: Config{Array: a, Seed: 1234}, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		cped, err := runLarge(RunSpec{
			Config: Config{
				Array:      a,
				Seed:       1234,
				ObsOptions: ObsOptions{Checkpoints: []int64{300, 5000, 12000}},
			},
			Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < plain.Array.N(); i++ {
			if plain.Array.Balls(i) != cped.Array.Balls(i) {
				t.Fatalf("shards=%d: checkpoints moved bin %d", shards, i)
			}
		}
	}
}

// TestRunLargeHugeBallCount exercises a genuinely multi-block routing
// pass (m spans several routing blocks) end to end: counts conserve,
// the state is worker-independent, and a mid-block checkpoint
// realises a plausible cut.
func TestRunLargeHugeBallCount(t *testing.T) {
	a := largeArray(t, 2000)
	const m = 2*RoutingBlock + 40000
	var base *largeResult
	for _, workers := range []int{1, 4} {
		res, err := runLarge(RunSpec{
			Config: Config{
				Array:      a,
				Seed:       5,
				Workers:    workers,
				Balls:      m,
				ObsOptions: ObsOptions{Checkpoints: []int64{RoutingBlock + 100}},
			},
			Shards: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Array.TotalBalls(); got != m {
			t.Fatalf("placed %d balls, want %d", got, m)
		}
		if base == nil {
			base = res
			continue
		}
		for i := 0; i < res.Array.N(); i++ {
			if res.Array.Balls(i) != base.Array.Balls(i) {
				t.Fatalf("workers=%d: bin %d differs", workers, i)
			}
		}
	}
	row := &base.Checkpoints[0]
	if row.Reps() != 1 {
		t.Fatalf("multi-block cut unobserved (reps %d)", row.Reps())
	}
	real := int64(row.RealBalls.Mean())
	if real%protocol.BlockSize != 0 || real > RoutingBlock+100 || real <= 0 {
		t.Fatalf("realised %d balls at the mid-block cut", real)
	}
}

// TestRunLargeSingleBin: the degenerate 1-shard geometry routes every
// ball to the only shard without consuming multinomial draws it does
// not need.
func TestRunLargeSingleBin(t *testing.T) {
	arr, err := bins.Uniform(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runLarge(RunSpec{Config: Config{Array: arr, Seed: 1, Balls: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardBalls[0] != 1000 || res.Array.Balls(0) != 1000 {
		t.Fatalf("single bin got %v / %d balls", res.ShardBalls, res.Array.Balls(0))
	}
}
