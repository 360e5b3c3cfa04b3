package main

import (
	"time"

	balls "repro"
	"repro/internal/bins"
	"repro/internal/chash"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// A probe times one public function of one layer at the shape a
// workload calls it with.
type probe struct {
	name string
	unit string
	// measure returns the probe's value in its unit and the number of
	// operations it timed.
	measure func(scale float64) (value, ops float64, err error)
}

// probeSamples is how many timed samples a probe takes; it reports the
// median.
const probeSamples = 5

// probeBudget is how long one sample runs: about 20 ms, less at test
// scales.
func probeBudget(scale float64) time.Duration {
	return time.Duration(float64(20*time.Millisecond) * min(1, scale))
}

// timedProbe is a probe that repeats one operation. setup builds its
// fixture outside the timer and returns the operation and how many
// units of work one call does; perUnit converts nanoseconds per unit
// into the metric's unit. Each sample repeats the operation for about
// probeBudget.
func timedProbe(name, unit string, perUnit float64, setup func() (op func(), units float64, err error)) probe {
	return probe{name, unit, func(scale float64) (float64, float64, error) {
		op, units, err := setup()
		if err != nil {
			return 0, 0, err
		}
		budget := probeBudget(scale)
		op()
		reps := 1
		for {
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				op()
			}
			if time.Since(t0) >= budget/2 || reps >= 1<<20 {
				break
			}
			reps *= 2
		}
		costs := make([]float64, probeSamples)
		for s := range costs {
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				op()
			}
			costs[s] = float64(time.Since(t0).Nanoseconds()) / (float64(reps) * units) / perUnit
		}
		return median(costs), float64(reps * probeSamples), nil
	}}
}

// Probe shapes: the paper's array, one shard of a 64-shard 10^6-bin
// array, one routing block over 64 shards, and one shard of the
// cluster's servers.
const (
	paperHalf  = 5000
	bigBins    = 1_000_000
	shards     = 64
	queueBatch = 625 // cluster-serve's 40k arrivals per tick over 64 shards
)

var sink uint64

// fixtures are what the probes share, built once per traced run
// outside any timer.
type fixtures struct {
	paperCaps         []int64
	paper, shard, big *bins.Array // filled to m = C
	paperW, shardW    []float64
	shardWeights      []float64 // the 64 shards' total weights in big
	bigHist           *bins.LoadHistogram
	shardHists        []*bins.LoadHistogram
	ring              *chash.Ring // the cluster's ring over the paper's servers
}

func weightsOf(a *bins.Array) []float64 {
	w := make([]float64, a.N())
	for i := range w {
		w[i] = float64(a.Capacity(i))
	}
	return w
}

// fill places C balls into a with Greedy(2), so that scans and
// histograms see a realistic m = C load profile.
func fill(a *bins.Array, seed uint64) error {
	g, err := protocol.NewGreedy(a, weightsOf(a), 2)
	if err != nil {
		return err
	}
	g.PlaceBatch(a, xrand.New(seed), a.TotalCapacity())
	return nil
}

func newFixtures(seed uint64, scale float64) (*fixtures, error) {
	fx := &fixtures{}
	half := scaled(paperHalf, scale, 8)
	fx.paperCaps = balls.CapacitiesTwoClass(half, 1, half, 10)
	var err error
	if fx.paper, err = bins.New(fx.paperCaps); err != nil {
		return nil, err
	}
	if fx.big, err = bins.RandomBinomial(scaled(bigBins, scale, 64*16), 4, xrand.New(seed)); err != nil {
		return nil, err
	}
	per := fx.big.N() / shards
	if fx.shard, err = bins.New(fx.big.Capacities()[:per]); err != nil {
		return nil, err
	}
	fx.paperW, fx.shardW = weightsOf(fx.paper), weightsOf(fx.shard)
	for _, a := range []*bins.Array{fx.paper, fx.shard, fx.big} {
		if err := fill(a, seed); err != nil {
			return nil, err
		}
	}
	fx.bigHist = fx.big.NewLoadHistogram()
	if err := fx.big.HistogramInto(fx.bigHist); err != nil {
		return nil, err
	}
	fx.shardWeights = make([]float64, shards)
	for s := 0; s < shards; s++ {
		hi := (s + 1) * per
		if s == shards-1 {
			hi = fx.big.N()
		}
		view, err := fx.big.Shard(s*per, hi)
		if err != nil {
			return nil, err
		}
		h := fx.bigHist.CloneEmpty()
		if err := view.HistogramInto(h); err != nil {
			return nil, err
		}
		fx.shardHists = append(fx.shardHists, h)
		fx.shardWeights[s] = float64(view.TotalCapacity())
	}
	fx.ring, err = chash.NewWeightedRing(fx.paperCaps, 2, xrand.New(seed))
	return fx, err
}

// must panics on an error from a call its probe's set-up already made
// successfully with the same arguments: only a bug can produce it.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// probes lists every layer probe, bottom-up.
func probes(fx *fixtures, seed uint64) []probe {
	const ns, us, ms = 1, 1e3, 1e6
	ps := []probe{
		timedProbe("xrand.draw_ns", "ns", ns, func() (func(), float64, error) {
			r := xrand.New(seed)
			return func() {
				for i := 0; i < 1024; i++ {
					sink += r.Uint64()
				}
			}, 1024, nil
		}),
		timedProbe("xrand.block_stream_ns", "ns", ns, func() (func(), float64, error) {
			b := uint64(0)
			return func() {
				b++
				sink += xrand.NewBlockStream(seed, 0, b).Uint64()
			}, 1, nil
		}),
		timedProbe("sampling.sample_batch_ns_per_ball", "ns", ns, func() (func(), float64, error) {
			t, err := sampling.NewAlias(fx.paperW)
			r := xrand.New(seed)
			cand, tie := make([]int, 2*protocol.BlockSize), make([]uint64, protocol.BlockSize)
			return func() { t.SampleBatch(r, 2, cand, tie) }, protocol.BlockSize, err
		}),
		timedProbe("sampling.alias_build_ns_per_bin", "ns", ns, func() (func(), float64, error) {
			_, err := sampling.NewAlias(fx.shardW)
			return func() {
				_, err := sampling.NewAlias(fx.shardW)
				must(err)
			}, float64(len(fx.shardW)), err
		}),
		timedProbe("sampling.multinomial_block_us", "us", us, func() (func(), float64, error) {
			mult, err := sampling.NewMultinomial(fx.shardWeights)
			r, out := xrand.New(seed), make([]int64, shards)
			return func() { mult.Draw(r, sim.RoutingBlock, out) }, 1, err
		}),
		timedProbe("sampling.counttree_build_ns_per_bin", "ns", ns, func() (func(), float64, error) {
			t, err := sampling.NewCountTree(fx.shard.N())
			return func() { t.Build(fx.shard.Balls) }, float64(fx.shard.N()), err
		}),
		// Sample+Dec until the tree is empty, then rebuild: the rebuild
		// is amortised over the shard's C takes, as in a deletion round.
		timedProbe("sampling.counttree_take_ns", "ns", ns, func() (func(), float64, error) {
			t, err := sampling.NewCountTree(fx.shard.N())
			r := xrand.New(seed)
			return func() {
				for k := 0; k < 1024; k++ {
					if t.Total() == 0 {
						t.Build(fx.shard.Balls)
					}
					t.Dec(t.Sample(r))
				}
			}, 1024, err
		}),
		timedProbe("protocol.place_batch_ns_per_ball.paper", "ns", ns, func() (func(), float64, error) {
			return placeProbe(fx.paper.Clone(), fx.paperW, seed)
		}),
		timedProbe("protocol.place_batch_ns_per_ball.shard", "ns", ns, func() (func(), float64, error) {
			return placeProbe(fx.shard.Clone(), fx.shardW, seed)
		}),
		// One cluster shard's queue: eight ticks of arrivals pile up
		// before the queue is emptied, so placements see queued load.
		timedProbe("protocol.place_batch_ns_per_ball.queue", "ns", ns, func() (func(), float64, error) {
			per := max(len(fx.paperCaps)/shards/2, 1)
			q, err := bins.New(balls.CapacitiesTwoClass(per, 1, per, 10))
			if err != nil {
				return nil, 0, err
			}
			g, err := protocol.NewGreedy(q, weightsOf(q), 2)
			r := xrand.New(seed)
			return func() {
				q.Reset()
				for t := 0; t < 8; t++ {
					g.PlaceBatch(q, r, queueBatch)
				}
			}, 8 * queueBatch, err
		}),
		timedProbe("protocol.new_placer_ns_per_bin", "ns", ns, func() (func(), float64, error) {
			_, err := protocol.NewGreedy(fx.shard, fx.shardW, 2)
			return func() {
				_, err := protocol.NewGreedy(fx.shard, fx.shardW, 2)
				must(err)
			}, float64(fx.shard.N()), err
		}),
		timedProbe("bins.new_ns_per_bin", "ns", ns, func() (func(), float64, error) {
			caps := fx.shard.Capacities()
			return func() {
				_, err := bins.New(caps)
				must(err)
			}, float64(len(caps)), nil
		}),
		timedProbe("bins.histogram_ns_per_bin", "ns", ns, func() (func(), float64, error) {
			h := fx.bigHist.CloneEmpty()
			return func() { must(fx.big.HistogramInto(h)) }, float64(fx.big.N()), nil
		}),
		timedProbe("bins.hist_merge_us", "us", us, func() (func(), float64, error) {
			all := fx.bigHist.CloneEmpty()
			return func() {
				all.Reset()
				for _, h := range fx.shardHists {
					must(all.Merge(h))
				}
			}, 1, nil
		}),
		timedProbe("bins.max_load_scan_ns_per_bin", "ns", ns, func() (func(), float64, error) {
			return func() {
				if fx.paper.MaxLoad() < 0 {
					sink++
				}
			}, float64(fx.paper.N()), nil
		}),
		timedProbe("bins.add_remove_ns", "ns", ns, func() (func(), float64, error) {
			a := fx.shard.Clone()
			r := xrand.New(seed)
			idx := make([]int, 1024)
			for i := range idx {
				idx[i] = r.Intn(a.N())
			}
			return func() {
				for _, i := range idx {
					a.Add(i)
					a.Remove(i)
				}
			}, float64(len(idx)), nil
		}),
		timedProbe("obs.snapshot_us", "us", us, func() (func(), float64, error) {
			c := fx.big.TotalCapacity()
			cp := obs.NewCheckpoints([]int64{c / 4, c / 2, 3 * c / 4, c})
			hl := obs.NewHeights(4)
			return func() {
				for k := 0; k < 4; k++ {
					must(cp.SnapshotHist(k, fx.bigHist, c))
				}
				must(hl.SnapshotHist(obs.Final, fx.bigHist, c))
			}, 1, nil
		}),
		timedProbe("obs.latency_observe_ns", "ns", ns, func() (func(), float64, error) {
			l, err := obs.NewLatency(32)
			return func() {
				for k := int64(0); k < 1024; k++ {
					l.ObserveN(k&31+1, 3)
				}
			}, 1024, err
		}),
		timedProbe("chash.ring_build_ms", "ms", ms, func() (func(), float64, error) {
			return func() {
				_, err := chash.NewWeightedRing(fx.paperCaps, 2, xrand.New(seed))
				must(err)
			}, 1, nil
		}),
		timedProbe("chash.lookup_batch_ns_per_key", "ns", ns, func() (func(), float64, error) {
			r := xrand.New(seed)
			xs, out := make([]float64, sim.RoutingBlock), make([]int, sim.RoutingBlock)
			return func() {
				for i := range xs {
					xs[i] = r.Float64()
				}
				out = fx.ring.LookupBatch(xs, out)
			}, float64(len(xs)), nil
		}),
		// A removed peer's points are re-mounted exactly, so the shared
		// ring is unchanged after each operation.
		timedProbe("chash.peer_churn_us", "us", us, func() (func(), float64, error) {
			p := 0
			return func() {
				p = (p + 7919) % fx.ring.N()
				must(fx.ring.RemovePeer(p))
				must(fx.ring.AddPeer(p))
			}, 1, nil
		}),
		timedProbe("chash.arc_lengths_us", "us", us, func() (func(), float64, error) {
			var dst []float64
			return func() { dst = fx.ring.ArcLengthsInto(dst) }, 1, nil
		}),
	}
	for _, e := range []sim.Engine{sim.EngineClassic, sim.EngineSharded, sim.EngineClosedForm, sim.EngineStream, sim.EngineCluster} {
		ps = append(ps, timedProbe("sim.dispatch_fixed_us."+string(e), "us", us, func() (func(), float64, error) {
			spec := fixedSpec(e, seed)
			_, err := sim.Dispatch(spec)
			return func() {
				_, err := sim.Dispatch(spec)
				must(err)
			}, 1, err
		}))
	}
	return append(ps, wrapperProbe(fx, seed))
}

// placeProbe places C balls into a from empty per operation.
func placeProbe(a *bins.Array, w []float64, seed uint64) (func(), float64, error) {
	g, err := protocol.NewGreedy(a, w, 2)
	r := xrand.New(seed)
	c := a.TotalCapacity()
	return func() {
		a.Reset()
		g.PlaceBatch(a, r, c)
	}, float64(c), err
}

// fixedSpec is a one-repetition spec over 64 bins for the given engine:
// the engine's fixed cost with almost no per-ball work.
func fixedSpec(e sim.Engine, seed uint64) sim.RunSpec {
	spec := sim.RunSpec{
		Config: sim.Config{Array: bins.MustNew(balls.CapacitiesTwoClass(32, 1, 32, 10)), Reps: 1, Seed: seed, Workers: 1},
		Engine: e,
		Shards: 4,
	}
	switch e {
	case sim.EngineClosedForm:
		spec.Placer = protocol.SingleFactory()
	case sim.EngineStream:
		spec.Stream = &sim.StreamParams{Rounds: 1}
	case sim.EngineCluster:
		spec.Cluster = &sim.ClusterParams{Ticks: 1, ArrivalsPerTick: 352}
	}
	return spec
}

// wrapperProbe times balls.Simulate against sim.Dispatch on the same
// one-repetition paper spec, alternating which goes first, for
// probeSamples probe budgets. The difference of the medians is the
// public wrapper's own cost: array construction and result conversion.
func wrapperProbe(fx *fixtures, seed uint64) probe {
	return probe{"balls.wrapper_us", "us", func(scale float64) (float64, float64, error) {
		cfg := balls.SimConfig{Capacities: fx.paperCaps, Reps: 1, Seed: seed, Workers: 1}
		spec := sim.RunSpec{Config: sim.Config{Array: bins.MustNew(fx.paperCaps), Reps: 1, Seed: seed, Workers: 1}, Engine: sim.EngineClassic}
		timeOne := func(wrapped bool) (float64, error) {
			t0 := time.Now()
			var err error
			if wrapped {
				_, err = balls.Simulate(cfg)
			} else {
				_, err = sim.Dispatch(spec)
			}
			return float64(time.Since(t0).Nanoseconds()), err
		}
		var ws, ds []float64
		deadline := time.Now().Add(probeSamples * probeBudget(scale))
		for i := 0; i < 2 || time.Now().Before(deadline); i++ {
			wrappedFirst := i%2 == 0
			a, err := timeOne(wrappedFirst)
			if err != nil {
				return 0, 0, err
			}
			b, err := timeOne(!wrappedFirst)
			if err != nil {
				return 0, 0, err
			}
			if !wrappedFirst {
				a, b = b, a
			}
			ws, ds = append(ws, a), append(ds, b)
		}
		return (median(ws) - median(ds)) / 1e3, float64(2 * len(ws)), nil
	}}
}
