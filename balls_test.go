package balls

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/protocol"
)

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil); err == nil {
		t.Error("empty capacities accepted")
	}
	if _, err := NewSystem([]int64{0}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewSystem([]int64{1, 2}, WithProtocol(Greedy(0))); err == nil {
		t.Error("d = 0 accepted")
	}
	if _, err := NewSystem([]int64{1, 2}, WithDistribution(TopOnlySelection(100))); err == nil {
		t.Error("unreachable top-only threshold accepted")
	}
	if _, err := NewSystem([]int64{1, 2}, WithDistribution(CustomSelection([]float64{1}))); err == nil {
		t.Error("short custom weights accepted")
	}
}

func TestSystemBasics(t *testing.T) {
	sys, err := NewSystem(CapacitiesTwoClass(2, 1, 2, 4), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if sys.N() != 4 || sys.TotalCapacity() != 10 {
		t.Fatalf("N=%d C=%d", sys.N(), sys.TotalCapacity())
	}
	if sys.Capacity(0) != 1 || sys.Capacity(3) != 4 {
		t.Fatal("capacities misordered")
	}
	idx := sys.Place()
	if idx < 0 || idx >= 4 {
		t.Fatalf("Place returned %d", idx)
	}
	if sys.TotalBalls() != 1 {
		t.Fatalf("TotalBalls = %d", sys.TotalBalls())
	}
	sys.PlaceN(9)
	if sys.TotalBalls() != 10 {
		t.Fatalf("TotalBalls = %d", sys.TotalBalls())
	}
	if got := sys.AverageLoad(); got != 1 {
		t.Fatalf("AverageLoad = %v", got)
	}
	loads := sys.Loads()
	if len(loads) != 4 {
		t.Fatalf("Loads length %d", len(loads))
	}
	var sumBalls int64
	for i := 0; i < 4; i++ {
		sumBalls += sys.BallCount(i)
		if math.Abs(loads[i]-sys.Load(i)) > 1e-15 {
			t.Fatal("Loads and Load disagree")
		}
	}
	if sumBalls != 10 {
		t.Fatal("ball counts do not sum")
	}
	if sys.MaxLoad() < sys.AverageLoad() {
		t.Fatal("max below average")
	}
	mx := sys.MaxLoadedBins()
	if len(mx) == 0 {
		t.Fatal("no max-loaded bins")
	}
	for _, i := range mx {
		if sys.Load(i) != sys.MaxLoad() {
			t.Fatal("MaxLoadedBins returned non-maximal bin")
		}
	}
}

func TestSystemResetReproduces(t *testing.T) {
	sys, err := NewSystem(CapacitiesUniform(16, 2), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	sys.PlaceN(32)
	first := sys.Loads()
	sys.Reset()
	if sys.TotalBalls() != 0 {
		t.Fatal("Reset did not clear balls")
	}
	sys.PlaceN(32)
	second := sys.Loads()
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("Reset run did not reproduce the first run")
		}
	}
}

// TestSystemResetClearsBatchedState: Reset must also forget a stateful
// placer's state (the batched protocol's round snapshot), or a system
// reset mid-round would not replay a fresh one.
func TestSystemResetClearsBatchedState(t *testing.T) {
	batched := WithProtocol(Protocol{factory: protocol.BatchedFactory(2, 5), name: "batched"})
	for seed := uint64(1); seed <= 5; seed++ {
		fresh, err := NewSystem(CapacitiesUniform(16, 1), WithSeed(seed), batched)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(CapacitiesUniform(16, 1), WithSeed(seed), batched)
		if err != nil {
			t.Fatal(err)
		}
		sys.PlaceN(7) // mid-round: the snapshot holds the first 5 balls
		sys.Reset()
		sys.PlaceN(40)
		fresh.PlaceN(40)
		for i := 0; i < 16; i++ {
			if sys.BallCount(i) != fresh.BallCount(i) {
				t.Fatalf("seed %d: batched state leaked across Reset (bin %d: %d balls, fresh %d)",
					seed, i, sys.BallCount(i), fresh.BallCount(i))
			}
		}
	}
}

func TestSystemNames(t *testing.T) {
	sys, err := NewSystem(CapacitiesUniform(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sys.ProtocolName() != "greedy(d=2)" {
		t.Fatalf("default protocol %q", sys.ProtocolName())
	}
	if sys.DistributionName() != "proportional" {
		t.Fatalf("default distribution %q", sys.DistributionName())
	}
	sys2, err := NewSystem(CapacitiesUniform(4, 1),
		WithProtocol(StandardDChoice(3)), WithDistribution(UniformSelection()))
	if err != nil {
		t.Fatal(err)
	}
	if sys2.ProtocolName() != "standard(d=3)" || sys2.DistributionName() != "uniform" {
		t.Fatalf("names %q / %q", sys2.ProtocolName(), sys2.DistributionName())
	}
	// zero-value Distribution and Protocol have sensible names
	var d Distribution
	if d.Name() != "proportional" {
		t.Fatal("zero Distribution name")
	}
	var p Protocol
	if p.Name() != "greedy(d=2)" {
		t.Fatal("zero Protocol name")
	}
}

func TestCapacityBuilders(t *testing.T) {
	u := CapacitiesUniform(5, 3)
	if len(u) != 5 || u[4] != 3 {
		t.Fatalf("uniform = %v", u)
	}
	tc := CapacitiesTwoClass(2, 1, 3, 9)
	if len(tc) != 5 || tc[0] != 1 || tc[4] != 9 {
		t.Fatalf("two-class = %v", tc)
	}
	rb, err := CapacitiesRandomBinomial(1000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, c := range rb {
		if c < 1 || c > 8 {
			t.Fatalf("binomial capacity %d", c)
		}
		sum += c
	}
	if math.Abs(float64(sum)/1000-4) > 0.3 {
		t.Fatalf("binomial mean %v", float64(sum)/1000)
	}
	if _, err := CapacitiesRandomBinomial(10, 99, 1); err == nil {
		t.Error("bad mean accepted")
	}
	lg, err := CapacitiesLinearGrowth(2, 20, 42, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(lg) != 42 || lg[0] != 2 || lg[41] != 10 {
		t.Fatalf("linear growth = %v", lg)
	}
	eg, err := CapacitiesExponentialGrowth(2, 20, 42, 2, 1.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(eg) != 42 || eg[0] != 2 {
		t.Fatalf("exp growth = %v", eg)
	}
	ps, err := ParseCapacitySpec("2x1+1x7")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 || ps[2] != 7 {
		t.Fatalf("spec = %v", ps)
	}
	if _, err := ParseCapacitySpec("junk"); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestSimulateBasics(t *testing.T) {
	res, err := Simulate(SimConfig{
		Capacities:  CapacitiesTwoClass(50, 1, 50, 10),
		Reps:        50,
		Seed:        5,
		SortedLoads: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reps != 50 {
		t.Fatalf("Reps = %d", res.Reps)
	}
	if res.Balls != 550 {
		t.Fatalf("Balls = %d, want C = 550", res.Balls)
	}
	if res.AverageLoad != 1 {
		t.Fatalf("AverageLoad = %v", res.AverageLoad)
	}
	if res.MeanMaxLoad <= 1 || res.MeanMaxLoad > 6 {
		t.Fatalf("MeanMaxLoad = %v", res.MeanMaxLoad)
	}
	if res.WorstMaxLoad < res.MeanMaxLoad {
		t.Fatal("worst < mean")
	}
	if len(res.MeanSortedLoads) != 100 {
		t.Fatalf("sorted loads length %d", len(res.MeanSortedLoads))
	}
	if res.TheoryBound <= 0 {
		t.Fatal("TheoryBound missing")
	}
	if _, err := Simulate(SimConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestSimulateCheckpoints(t *testing.T) {
	res, err := Simulate(SimConfig{
		Capacities:  CapacitiesUniform(32, 1),
		BallsFactor: 4,
		Reps:        20,
		Checkpoints: []int64{32, 64, 96, 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) != 4 {
		t.Fatalf("%d checkpoints", len(res.Checkpoints))
	}
	for i, cp := range res.Checkpoints {
		if cp.Balls != int64(32*(i+1)) {
			t.Fatalf("checkpoint %d at %d balls", i, cp.Balls)
		}
		if cp.MeanDeviation < 0 {
			t.Fatal("negative deviation")
		}
	}
	// heavy-case invariance: deviation at 4C within noise of deviation at 2C
	d2, d4 := res.Checkpoints[1].MeanDeviation, res.Checkpoints[3].MeanDeviation
	if d4 > d2+1.0 {
		t.Fatalf("deviation grew sharply with m: %v -> %v", d2, d4)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := SimConfig{Capacities: CapacitiesUniform(64, 2), Reps: 30, Seed: 9}
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanMaxLoad != b.MeanMaxLoad || a.MeanDeviation != b.MeanDeviation {
		t.Fatal("Simulate not deterministic")
	}
}

func TestSimulateAllProtocolsAndDistributions(t *testing.T) {
	caps := CapacitiesTwoClass(20, 1, 20, 5)
	protocols := []Protocol{
		Greedy(2), Greedy(4), StandardDChoice(2), SingleChoice(),
		AlwaysGoLeft(2), OnePlusBetaChoice(0.5),
	}
	dists := []Distribution{
		Proportional(), UniformSelection(), PowerSelection(1.7),
		TopOnlySelection(5), CustomSelection(weightsFor(caps)),
	}
	for _, p := range protocols {
		for _, d := range dists {
			res, err := Simulate(SimConfig{
				Capacities:   caps,
				Reps:         10,
				Seed:         31,
				Protocol:     p,
				Distribution: d,
			})
			// go-left partitions bins into contiguous groups, so a
			// distribution that zeroes out a whole group (top-only zeroes
			// all the small bins, which sit in group 0) must be rejected.
			if p.Name() == "goleft(d=2)" && d.Name() == "top-only(c>=5)" {
				if err == nil {
					t.Fatalf("%s/%s: invalid combination accepted", p.Name(), d.Name())
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name(), d.Name(), err)
			}
			if res.MeanMaxLoad < res.AverageLoad {
				t.Fatalf("%s/%s: max %v below average %v", p.Name(), d.Name(),
					res.MeanMaxLoad, res.AverageLoad)
			}
		}
	}
}

func weightsFor(caps []int64) []float64 {
	w := make([]float64, len(caps))
	for i, c := range caps {
		w[i] = float64(c) + 0.5
	}
	return w
}

// TestSimulateConcurrentCallers: independent Simulate calls may run in
// parallel from multiple goroutines (each run has its own arrays and
// RNGs). Run with -race to verify.
func TestSimulateConcurrentCallers(t *testing.T) {
	cfg := SimConfig{
		Capacities: CapacitiesTwoClass(50, 1, 50, 10),
		Reps:       20,
		Seed:       13,
	}
	want, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	results := make([]*SimResult, callers)
	errs := make([]error, callers)
	done := make(chan int, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			results[i], errs[i] = Simulate(cfg)
			done <- i
		}(i)
	}
	for i := 0; i < callers; i++ {
		<-done
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i].MeanMaxLoad != want.MeanMaxLoad {
			t.Fatalf("concurrent caller %d diverged: %v vs %v",
				i, results[i].MeanMaxLoad, want.MeanMaxLoad)
		}
	}
}

func TestSimulateRejectsBadProtocolConfig(t *testing.T) {
	_, err := Simulate(SimConfig{
		Capacities: CapacitiesUniform(4, 1),
		Protocol:   Greedy(-1),
		Reps:       2,
	})
	if err == nil {
		t.Fatal("negative d accepted")
	}
	_, err = Simulate(SimConfig{
		Capacities:   CapacitiesUniform(4, 1),
		Distribution: CustomSelection([]float64{1}),
		Reps:         2,
	})
	if err == nil {
		t.Fatal("short custom weights accepted")
	}
}

// Property: for any capacities, placing m = C balls gives average load 1
// and max load >= 1.
func TestQuickSystemMassBalance(t *testing.T) {
	f := func(seed uint64, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		caps := make([]int64, len(raw))
		for i, v := range raw {
			caps[i] = int64(v%9) + 1
		}
		sys, err := NewSystem(caps, WithSeed(seed))
		if err != nil {
			return false
		}
		sys.PlaceN(sys.TotalCapacity())
		if sys.AverageLoad() != 1 {
			return false
		}
		return sys.MaxLoad() >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
