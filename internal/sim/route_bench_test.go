package sim

// BenchmarkRouteBalls pits the retired per-ball routing pass against
// the block-wise multinomial pass at the BenchmarkRunLargeSharded
// scale (10^6 balls over 64 shards): the tentpole claim is that count
// generation shrinks routing WORK (RNG draws and table lookups), not
// just wall-clock parallelism, so the single-threaded comparison is
// the honest one. Tracked by scripts/bench.sh and the
// bench-regression CI job.

import (
	"testing"

	"repro/internal/bins"
	"repro/internal/fault"
	"repro/internal/sampling"
	"repro/internal/xrand"
)

const (
	benchRouteBalls  = 1_000_000
	benchRouteShards = 64
)

// benchShardWeights mirrors the BenchmarkRunLargeSharded geometry:
// 10^6 bins, half capacity 1 and half capacity 10, proportional
// weights, 64 contiguous shards.
func benchShardWeights() []float64 {
	w := make([]float64, benchRouteShards)
	const n = 1_000_000
	for s := 0; s < benchRouteShards; s++ {
		lo, hi := s*n/benchRouteShards, (s+1)*n/benchRouteShards
		for i := lo; i < hi; i++ {
			if i < n/2 {
				w[s] += 1
			} else {
				w[s] += 10
			}
		}
	}
	return w
}

// routeBallsPerBall is the retired Phase-1 routing loop — one alias
// draw per ball, counts only — kept verbatim as the benchmark
// baseline the multinomial pass is measured against.
func routeBallsPerBall(rr *xrand.Rand, router *sampling.AliasTable, counts []int64, m int64) {
	for i := int64(0); i < m; i++ {
		counts[router.Sample(rr)]++
	}
}

func BenchmarkRouteBallsPerBall(b *testing.B) {
	router, err := sampling.NewAlias(benchShardWeights())
	if err != nil {
		b.Fatal(err)
	}
	counts := make([]int64, benchRouteShards)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(counts)
		rr := xrand.NewStream(1, 0)
		routeBallsPerBall(rr, router, counts, benchRouteBalls)
	}
}

func BenchmarkRouteBallsMultinomial(b *testing.B) {
	mult, err := sampling.NewMultinomial(benchShardWeights())
	if err != nil {
		b.Fatal(err)
	}
	counts := make([]int64, benchRouteShards)
	groups := newRouteGroups(1, benchRouteShards, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups[0].reset()
		groups[0].route(nil, "bench", 0, xrand.Mix64(1, 0), mult, benchRouteBalls, 0, 1, nil, nil)
		mergeRouteGroups(groups, counts, nil)
	}
}

// BenchmarkRouteDeletions times one round's deletion routing at the
// stream-churn shape: D = 400,000 deletions over 64 shards holding the
// 800,000 balls of its last round in proportion to the two-class shard
// weights. One op is one routeDeletions call, which allocates nothing.
func BenchmarkRouteDeletions(b *testing.B) {
	w := benchShardWeights()
	var sumW float64
	for _, ws := range w {
		sumW += ws
	}
	occ := make([]int64, benchRouteShards)
	for s, ws := range w {
		occ[s] = int64(800_000 * ws / sumW)
	}
	st := &streamState{
		stepper:  stepper{sharded: sharded{shards: benchRouteShards}, seed: 1, kk: 3*benchRouteShards + 2},
		sballs:   occ,
		del:      400_000,
		delQuota: make([]int64, benchRouteShards),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.base = uint64(i) * st.kk
		st.routeDeletions()
	}
}

// BenchmarkTakeShard times the within-shard deletion kernel at the
// stream-churn shape: one 15,625-bin shard (10^6 bins over 64 shards)
// holding 8,000 balls loses 6,250 of them, its share of a round's
// 400,000 deletions. One op is one takeShard call; the loads are put
// back off the clock. It reports ns per deleted ball and allocates
// nothing.
func BenchmarkTakeShard(b *testing.B) {
	const n, balls, takes = 15_625, 8_000, 6_250
	view, err := bins.Uniform(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	for k := 0; k < balls; k++ {
		view.Add(int(r.Uint64n(n)))
	}
	loads := make([]int64, n)
	for i := range loads {
		loads[i] = view.Balls(i)
	}
	st := &streamState{
		stepper: stepper{sharded: sharded{shards: 1}, seed: 1, kk: 5, views: []*bins.Array{view}},
		takes:   []takeScratch{newTakeScratch(n)},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.base = uint64(i) * st.kk
		st.takeShard(0, 0, takes, fault.OpDelete, 2+1)
		b.StopTimer()
		for j, c := range loads {
			view.AddBalls(j, c-view.Balls(j))
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*takes), "ns/deletion")
}
