// Package balls is a library for balls-into-bins games with non-uniform
// (heterogeneous) bins, reproducing "Balls into Non-uniform Bins" by
// Berenbrink, Brinkmann, Friedetzky and Nagel.
//
// Bins have integer capacities; a bin holding m balls with capacity c has
// load m/c. Each ball draws d candidate bins from a configurable
// selection distribution (capacity-proportional by default) and the
// greedy protocol (the paper's Algorithm 1) places it into a candidate
// minimising the post-allocation load, breaking ties towards larger
// capacity.
//
// # Quick start
//
//	sys, err := balls.NewSystem(balls.CapacitiesTwoClass(500, 1, 500, 10))
//	if err != nil { ... }
//	sys.PlaceN(sys.TotalCapacity()) // m = C
//	fmt.Println(sys.MaxLoad())
//
// For Monte-Carlo statistics over many repetitions use Simulate; for the
// paper's figures use cmd/bnbfig or the internal/experiments registry.
package balls

import (
	"fmt"

	"repro/internal/bins"
	"repro/internal/dist"
	"repro/internal/protocol"
	"repro/internal/xrand"
)

// Distribution selects the probability rule balls use to pick candidate
// bins. Construct one with Proportional, UniformSelection,
// PowerSelection, TopOnlySelection or CustomSelection.
type Distribution struct {
	inner dist.Distribution
}

// Proportional selects bins with probability proportional to capacity
// (c_i/C) — the paper's standard assumption and the default.
func Proportional() Distribution { return Distribution{dist.Proportional{}} }

// UniformSelection selects every bin with probability 1/n.
func UniformSelection() Distribution { return Distribution{dist.Uniform{}} }

// PowerSelection selects bin i with probability proportional to c_i^t
// (the paper's §4.5 tunable family).
func PowerSelection(t float64) Distribution { return Distribution{dist.Power{T: t}} }

// TopOnlySelection selects uniformly among bins of capacity at least
// minCapacity and never selects smaller bins (Theorem 5).
func TopOnlySelection(minCapacity int64) Distribution {
	return Distribution{dist.TopOnly{MinCapacity: minCapacity}}
}

// CustomSelection selects bins with the given explicit weights (length
// must equal the number of bins).
func CustomSelection(weights []float64) Distribution {
	w := make([]float64, len(weights))
	copy(w, weights)
	return Distribution{dist.Custom{W: w, Desc: "custom"}}
}

// Name reports the distribution's name.
func (d Distribution) Name() string {
	if d.inner == nil {
		return "proportional"
	}
	return d.inner.Name()
}

func (d Distribution) resolve() dist.Distribution {
	if d.inner == nil {
		return dist.Proportional{}
	}
	return d.inner
}

// Protocol selects the allocation protocol. Construct one with Greedy,
// StandardDChoice, SingleChoice, AlwaysGoLeft or OnePlusBetaChoice.
type Protocol struct {
	factory protocol.Factory
	name    string
}

// Greedy is the paper's Algorithm 1 with d >= 1 choices: least
// post-allocation load, ties to the larger capacity. The default is
// Greedy(2).
func Greedy(d int) Protocol {
	return Protocol{protocol.GreedyFactory(d), fmt.Sprintf("greedy(d=%d)", d)}
}

// StandardDChoice is the classical capacity-oblivious d-choice protocol
// (Azar et al.): least ball count, ties uniformly at random.
func StandardDChoice(d int) Protocol {
	return Protocol{protocol.StandardFactory(d), fmt.Sprintf("standard(d=%d)", d)}
}

// SingleChoice places each ball into one randomly selected bin.
func SingleChoice() Protocol {
	return Protocol{protocol.SingleFactory(), "single"}
}

// AlwaysGoLeft is Vöcking's d-group protocol adapted to heterogeneous
// bins (ties to the leftmost group).
func AlwaysGoLeft(d int) Protocol {
	return Protocol{protocol.GoLeftFactory(d), fmt.Sprintf("goleft(d=%d)", d)}
}

// OnePlusBetaChoice runs Greedy(2) with probability beta and
// SingleChoice otherwise.
func OnePlusBetaChoice(beta float64) Protocol {
	return Protocol{protocol.OnePlusBetaFactory(beta), fmt.Sprintf("oneplusbeta(b=%g)", beta)}
}

// Name reports the protocol's name.
func (p Protocol) Name() string {
	if p.factory == nil {
		return "greedy(d=2)"
	}
	return p.name
}

func (p Protocol) resolve() protocol.Factory {
	if p.factory == nil {
		return protocol.GreedyFactory(2)
	}
	return p.factory
}

// Option configures a System.
type Option func(*options)

type options struct {
	seed  uint64
	dist  Distribution
	proto Protocol
}

// WithSeed sets the RNG seed (default 1). Identical seeds reproduce
// identical allocations.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithDistribution sets the bin selection distribution.
func WithDistribution(d Distribution) Option { return func(o *options) { o.dist = d } }

// WithProtocol sets the allocation protocol.
func WithProtocol(p Protocol) Option { return func(o *options) { o.proto = p } }

// System is a live balls-into-bins game: a heterogeneous bin array plus
// a protocol and an RNG. It is not safe for concurrent use; run
// parallel repetitions through Simulate instead.
type System struct {
	arr    *bins.Array
	placer protocol.Placer
	rng    *xrand.Rand
	seed   uint64
	dist   dist.Distribution
}

// NewSystem builds a system over the given bin capacities (every capacity
// must be >= 1).
func NewSystem(capacities []int64, opts ...Option) (*System, error) {
	o := options{seed: 1}
	for _, opt := range opts {
		opt(&o)
	}
	arr, err := bins.New(capacities)
	if err != nil {
		return nil, err
	}
	d := o.dist.resolve()
	weights, err := d.Weights(arr)
	if err != nil {
		return nil, err
	}
	placer, err := o.proto.resolve()(arr, weights)
	if err != nil {
		return nil, err
	}
	return &System{arr: arr, placer: placer, rng: xrand.New(o.seed), seed: o.seed, dist: d}, nil
}

// Place allocates one ball and returns the receiving bin's index.
func (s *System) Place() int { return s.placer.Place(s.arr, s.rng) }

// PlaceN allocates m balls through the protocol's batch kernel: one
// interface dispatch for the whole batch, a monomorphic loop inside.
func (s *System) PlaceN(m int64) { s.placer.PlaceBatch(s.arr, s.rng, m) }

// N returns the number of bins.
func (s *System) N() int { return s.arr.N() }

// TotalCapacity returns C, the sum of capacities.
func (s *System) TotalCapacity() int64 { return s.arr.TotalCapacity() }

// TotalBalls returns the number of balls placed so far.
func (s *System) TotalBalls() int64 { return s.arr.TotalBalls() }

// Capacity returns bin i's capacity.
func (s *System) Capacity(i int) int64 { return s.arr.Capacity(i) }

// BallCount returns the number of balls in bin i.
func (s *System) BallCount(i int) int64 { return s.arr.Balls(i) }

// Load returns bin i's load (balls / capacity).
func (s *System) Load(i int) float64 { return s.arr.Load(i) }

// Loads returns all bin loads in bin order.
func (s *System) Loads() []float64 { return s.arr.LoadVector() }

// MaxLoad returns the maximum load over all bins.
func (s *System) MaxLoad() float64 { return s.arr.MaxLoad() }

// AverageLoad returns m/C, the perfectly balanced load.
func (s *System) AverageLoad() float64 { return s.arr.AverageLoad() }

// MaxLoadedBins returns the indices of every bin attaining the maximum
// load (exact tie handling).
func (s *System) MaxLoadedBins() []int { return s.arr.ArgMaxLoad() }

// Reset removes all balls, reseeds the RNG and resets any protocol
// state, so the next run reproduces the first one exactly.
func (s *System) Reset() {
	s.arr.Reset()
	s.rng.Seed(s.seed)
	// Stateful placers (e.g. the batched protocol's round snapshot)
	// must forget the previous run.
	if rp, ok := s.placer.(interface{ Reset() }); ok {
		rp.Reset()
	}
}

// ProtocolName reports the active protocol.
func (s *System) ProtocolName() string { return s.placer.Name() }

// DistributionName reports the active selection distribution.
func (s *System) DistributionName() string { return s.dist.Name() }
