package bins

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New(nil) accepted")
	}
	if _, err := New([]int64{}); err == nil {
		t.Error("New(empty) accepted")
	}
	if _, err := New([]int64{1, 0, 2}); err == nil {
		t.Error("New with zero capacity accepted")
	}
	if _, err := New([]int64{-3}); err == nil {
		t.Error("New with negative capacity accepted")
	}
	a, err := New([]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 3 || a.TotalCapacity() != 6 {
		t.Fatalf("N=%d C=%d", a.N(), a.TotalCapacity())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad input did not panic")
		}
	}()
	MustNew([]int64{0})
}

func TestAddAndLoads(t *testing.T) {
	a := MustNew([]int64{1, 4})
	a.Add(0)
	a.Add(1)
	a.Add(1)
	if a.TotalBalls() != 3 {
		t.Fatalf("TotalBalls = %d", a.TotalBalls())
	}
	if got := a.Load(0); got != 1 {
		t.Fatalf("Load(0) = %v", got)
	}
	if got := a.Load(1); got != 0.5 {
		t.Fatalf("Load(1) = %v", got)
	}
	if got := a.AverageLoad(); got != 3.0/5.0 {
		t.Fatalf("AverageLoad = %v", got)
	}
}

func TestRemove(t *testing.T) {
	a := MustNew([]int64{1, 2})
	a.Add(0)
	a.Add(1)
	a.Remove(0)
	if a.Balls(0) != 0 || a.TotalBalls() != 1 {
		t.Fatalf("after Remove: balls(0)=%d total=%d", a.Balls(0), a.TotalBalls())
	}
	a.Remove(1)
	if a.TotalBalls() != 0 {
		t.Fatalf("total = %d", a.TotalBalls())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Remove from empty bin did not panic")
		}
	}()
	a.Remove(0)
}

func TestExactComparisons(t *testing.T) {
	// bin 0: 1 ball / cap 3 = 1/3; bin 1: 2 balls / cap 6 = 1/3 → equal.
	a := MustNew([]int64{3, 6})
	a.Add(0)
	a.Add(1)
	a.Add(1)
	if got := a.CompareLoads(0, 1); got != 0 {
		t.Fatalf("CompareLoads equal ratios = %d", got)
	}
	// post loads: 2/3 vs 3/6=1/2 → bin 0 higher.
	if got := a.ComparePostLoads(0, 1); got != 1 {
		t.Fatalf("ComparePostLoads = %d, want 1", got)
	}
	if got := a.ComparePostLoads(1, 0); got != -1 {
		t.Fatalf("ComparePostLoads reversed = %d, want -1", got)
	}
}

func TestMaxLoadAndArgMax(t *testing.T) {
	a := MustNew([]int64{2, 4, 1})
	// loads: 1/2, 2/4, 0 → max is 1/2 attained by bins 0 and 1.
	a.Add(0)
	a.Add(1)
	a.Add(1)
	if got := a.MaxLoad(); got != 0.5 {
		t.Fatalf("MaxLoad = %v", got)
	}
	am := a.ArgMaxLoad()
	if len(am) != 2 || am[0] != 0 || am[1] != 1 {
		t.Fatalf("ArgMaxLoad = %v, want [0 1]", am)
	}
}

func TestMaxLoadInClassC(t *testing.T) {
	a := MustNew([]int64{1, 1, 10, 10})
	a.Add(0) // load 1 in a size-1 bin; size-10 bins empty
	if !a.MaxLoadInClassC(1) {
		t.Error("size-1 class should hold max")
	}
	if a.MaxLoadInClassC(10) {
		t.Error("size-10 class should not hold max")
	}
	// Tie: 10 balls in a size-10 bin also gives load 1.
	for i := 0; i < 10; i++ {
		a.Add(2)
	}
	if !a.MaxLoadInClassC(1) || !a.MaxLoadInClassC(10) {
		t.Error("both classes should share max after tie")
	}
}

func TestResetAndClone(t *testing.T) {
	a := MustNew([]int64{1, 2})
	a.Add(0)
	a.Add(1)
	b := a.Clone()
	a.Reset()
	if a.TotalBalls() != 0 || a.Balls(0) != 0 || a.Balls(1) != 0 {
		t.Fatal("Reset did not clear balls")
	}
	if b.TotalBalls() != 2 || b.Balls(0) != 1 || b.Balls(1) != 1 {
		t.Fatal("Clone shares state with original")
	}
	if b.TotalCapacity() != 3 {
		t.Fatalf("Clone capacity %d", b.TotalCapacity())
	}
}

func TestCapacityClasses(t *testing.T) {
	a := MustNew([]int64{8, 1, 4, 1, 8, 2})
	classes := a.CapacityClasses()
	want := []int64{1, 2, 4, 8}
	if len(classes) != len(want) {
		t.Fatalf("classes = %v", classes)
	}
	for i := range want {
		if classes[i] != want[i] {
			t.Fatalf("classes = %v, want %v", classes, want)
		}
	}
	if got := a.CountClass(1); got != 2 {
		t.Fatalf("CountClass(1) = %d", got)
	}
	if got := a.CountClass(3); got != 0 {
		t.Fatalf("CountClass(3) = %d", got)
	}
}

// TestCapacityClassesMatchesReference: the bitset path (capacities
// below 4096) and the scan/map path (the rest) together give the
// sorted distinct capacities, on arrays mixing both sides of the 4096
// boundary, runs of repeats, and more than capacityClassScanLimit
// large classes.
func TestCapacityClassesMatchesReference(t *testing.T) {
	r := xrand.New(7)
	for k := 0; k < 300; k++ {
		n := 1 + r.Intn(500)
		caps := make([]int64, n)
		for i := range caps {
			switch r.Intn(5) {
			case 0:
				caps[i] = 4095 + int64(r.Intn(3)) // 4095, 4096, 4097
			case 1:
				caps[i] = 1 + int64(r.Intn(10))
			case 2:
				caps[i] = 1 + int64(r.Intn(1<<20))
			case 3:
				caps[i] = 1 << (12 + r.Intn(40))
			default:
				if i > 0 {
					caps[i] = caps[i-1]
				} else {
					caps[i] = 1
				}
			}
		}
		set := map[int64]bool{}
		for _, c := range caps {
			set[c] = true
		}
		want := make([]int64, 0, len(set))
		for c := range set {
			want = append(want, c)
		}
		slices.Sort(want)
		if got := MustNew(caps).CapacityClasses(); !slices.Equal(got, want) {
			t.Fatalf("array %d: CapacityClasses = %v, want %v", k, got, want)
		}
	}
}

func TestUniformBuilder(t *testing.T) {
	a, err := Uniform(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 32 || a.TotalCapacity() != 128 {
		t.Fatalf("N=%d C=%d", a.N(), a.TotalCapacity())
	}
	if _, err := Uniform(0, 1); err == nil {
		t.Error("Uniform(0, 1) accepted")
	}
	if _, err := Uniform(5, 0); err == nil {
		t.Error("Uniform(5, 0) accepted")
	}
}

func TestTwoClassBuilder(t *testing.T) {
	a, err := TwoClass(3, 1, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 5 || a.TotalCapacity() != 23 {
		t.Fatalf("N=%d C=%d", a.N(), a.TotalCapacity())
	}
	for i := 0; i < 3; i++ {
		if a.Capacity(i) != 1 {
			t.Fatalf("bin %d capacity %d", i, a.Capacity(i))
		}
	}
	for i := 3; i < 5; i++ {
		if a.Capacity(i) != 10 {
			t.Fatalf("bin %d capacity %d", i, a.Capacity(i))
		}
	}
	// zero smalls or zero larges are fine
	if _, err := TwoClass(0, 1, 4, 2); err != nil {
		t.Errorf("TwoClass(0,...) rejected: %v", err)
	}
	if _, err := TwoClass(4, 1, 0, 2); err != nil {
		t.Errorf("TwoClass(...,0) rejected: %v", err)
	}
	if _, err := TwoClass(0, 1, 0, 2); err == nil {
		t.Error("empty TwoClass accepted")
	}
}

func TestRandomBinomialBuilder(t *testing.T) {
	r := xrand.New(1)
	a, err := RandomBinomial(20000, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	// capacities in [1, 8]; expected mean 4
	for i := 0; i < a.N(); i++ {
		c := a.Capacity(i)
		if c < 1 || c > 8 {
			t.Fatalf("capacity %d out of [1,8]", c)
		}
	}
	mean := float64(a.TotalCapacity()) / float64(a.N())
	if math.Abs(mean-4) > 0.05 {
		t.Fatalf("mean capacity %.3f, want ~4", mean)
	}
	if _, err := RandomBinomial(10, 0.5, r); err == nil {
		t.Error("c < 1 accepted")
	}
	if _, err := RandomBinomial(10, 9, r); err == nil {
		t.Error("c > 8 accepted")
	}
	if _, err := RandomBinomial(0, 2, r); err == nil {
		t.Error("n = 0 accepted")
	}
}

func TestRandomBinomialDegenerate(t *testing.T) {
	r := xrand.New(2)
	a, err := RandomBinomial(100, 1, r) // p = 0 → all capacity 1
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCapacity() != 100 {
		t.Fatalf("C = %d, want 100", a.TotalCapacity())
	}
	a, err = RandomBinomial(100, 8, r) // p = 1 → all capacity 8
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCapacity() != 800 {
		t.Fatalf("C = %d, want 800", a.TotalCapacity())
	}
}

func TestRandomBinomialK(t *testing.T) {
	r := xrand.New(5)
	a, err := RandomBinomialK(20000, 10, 18, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N(); i++ {
		c := a.Capacity(i)
		if c < 1 || c > 19 {
			t.Fatalf("capacity %d out of [1,19]", c)
		}
	}
	mean := float64(a.TotalCapacity()) / float64(a.N())
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("mean capacity %.3f, want ~10", mean)
	}
	// K = 7 reduces to the paper's generator bounds
	b, err := RandomBinomialK(1000, 4, 7, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.N(); i++ {
		if c := b.Capacity(i); c < 1 || c > 8 {
			t.Fatalf("K=7 capacity %d out of [1,8]", c)
		}
	}
	if _, err := RandomBinomialK(10, 10, 7, r); err == nil {
		t.Error("c > K+1 accepted")
	}
	if _, err := RandomBinomialK(10, 2, 0, r); err == nil {
		t.Error("K = 0 accepted")
	}
}

func TestGenerationsBuilder(t *testing.T) {
	a, err := Generations([]Batch{{2, 2}, {20, 3}, {20, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 42 {
		t.Fatalf("N = %d", a.N())
	}
	if a.TotalCapacity() != 2*2+20*3+20*4 {
		t.Fatalf("C = %d", a.TotalCapacity())
	}
	if _, err := Generations([]Batch{{-1, 2}}); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := Generations([]Batch{{3, 0}}); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestLinearBatches(t *testing.T) {
	// Start with 2 disks of capacity 2, grow by 20 per batch, a = 4.
	batches := LinearBatches(2, 20, 62, 2, 4)
	if len(batches) != 4 {
		t.Fatalf("batches = %v", batches)
	}
	wantCounts := []int{2, 20, 20, 20}
	wantCaps := []int64{2, 6, 10, 14}
	total := 0
	for i, b := range batches {
		if b.Count != wantCounts[i] || b.Capacity != wantCaps[i] {
			t.Fatalf("batch %d = %+v, want {%d %d}", i, b, wantCounts[i], wantCaps[i])
		}
		total += b.Count
	}
	if total != 62 {
		t.Fatalf("total bins %d", total)
	}
}

func TestLinearBatchesTruncation(t *testing.T) {
	batches := LinearBatches(2, 20, 30, 2, 1)
	total := 0
	for _, b := range batches {
		total += b.Count
	}
	if total != 30 {
		t.Fatalf("total bins %d, want 30 (truncated final batch)", total)
	}
	if last := batches[len(batches)-1]; last.Count != 8 {
		t.Fatalf("final batch %+v, want count 8", last)
	}
}

func TestExponentialBatches(t *testing.T) {
	batches := ExponentialBatches(2, 20, 62, 2, 1.4)
	wantCaps := []int64{2, 3, 4, 5} // round(2·1.4^i) = 2, 2.8, 3.92, 5.49
	for i, b := range batches {
		if b.Capacity != wantCaps[i] {
			t.Fatalf("batch %d capacity %d, want %d", i, b.Capacity, wantCaps[i])
		}
	}
	// Slow factor stays at the start capacity for many generations.
	slow := ExponentialBatches(2, 20, 202, 2, 1.005)
	for i, b := range slow {
		if i < 10 && b.Capacity != 2 {
			t.Fatalf("b=1.005 batch %d capacity %d, want 2", i, b.Capacity)
		}
	}
}

func TestParseSpec(t *testing.T) {
	a, err := ParseSpec("3x1+2x10")
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 5 || a.TotalCapacity() != 23 {
		t.Fatalf("N=%d C=%d", a.N(), a.TotalCapacity())
	}
	for _, bad := range []string{"", "x", "3x", "x5", "0x4", "3x0", "-1x2", "3x1+zz"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	// whitespace tolerated
	if _, err := ParseSpec(" 2x3 + 1x4 "); err != nil {
		t.Errorf("spec with spaces rejected: %v", err)
	}
}

// Property: CompareLoads is antisymmetric and consistent with float loads
// when floats are exact.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(m0, m1 uint16, c0, c1 uint8) bool {
		a := MustNew([]int64{int64(c0%50) + 1, int64(c1%50) + 1})
		for i := 0; i < int(m0%200); i++ {
			a.Add(0)
		}
		for i := 0; i < int(m1%200); i++ {
			a.Add(1)
		}
		return a.CompareLoads(0, 1) == -a.CompareLoads(1, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ArgMaxLoad returns a non-empty set whose members all compare
// equal and dominate every other bin.
func TestQuickArgMaxConsistent(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		r := xrand.New(seed)
		caps := make([]int64, n)
		for i := range caps {
			caps[i] = int64(r.Intn(10)) + 1
		}
		a := MustNew(caps)
		balls := r.Intn(100)
		for i := 0; i < balls; i++ {
			a.Add(r.Intn(n))
		}
		am := a.ArgMaxLoad()
		if len(am) == 0 {
			return false
		}
		inMax := make(map[int]bool, len(am))
		for _, i := range am {
			inMax[i] = true
		}
		for _, i := range am {
			for j := 0; j < n; j++ {
				cmp := a.CompareLoads(i, j)
				if cmp < 0 {
					return false // some bin beats an "argmax"
				}
				if cmp == 0 && !inMax[j] {
					return false // tie missing from the argmax set
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: total balls always equals the sum of per-bin balls.
func TestQuickBallConservation(t *testing.T) {
	f := func(seed uint64, adds uint16) bool {
		r := xrand.New(seed)
		a := MustNew([]int64{1, 2, 3, 4})
		for i := 0; i < int(adds%500); i++ {
			a.Add(r.Intn(4))
		}
		var sum int64
		for i := 0; i < a.N(); i++ {
			sum += a.Balls(i)
		}
		return sum == a.TotalBalls()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShardViews(t *testing.T) {
	a := MustNew([]int64{1, 2, 3, 4, 5, 6})
	if _, err := a.Shard(-1, 3); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := a.Shard(2, 7); err == nil {
		t.Error("hi > n accepted")
	}
	if _, err := a.Shard(3, 3); err == nil {
		t.Error("empty shard accepted")
	}
	s1, err := a.Shard(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := a.Shard(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s1.N() != 3 || s2.N() != 3 {
		t.Fatalf("shard sizes %d, %d", s1.N(), s2.N())
	}
	if s1.TotalCapacity() != 6 || s2.TotalCapacity() != 15 {
		t.Fatalf("shard capacities %d, %d", s1.TotalCapacity(), s2.TotalCapacity())
	}
	// mutations through views are visible to the parent
	s1.Add(0)
	s2.Add(2) // parent bin 5
	if a.Balls(0) != 1 || a.Balls(5) != 1 {
		t.Fatal("view mutation not visible in parent")
	}
	if s1.TotalBalls() != 1 || s2.TotalBalls() != 1 {
		t.Fatal("view ball totals wrong")
	}
	// parent total is stale until Recount
	if a.TotalBalls() != 0 {
		t.Fatal("parent total unexpectedly live")
	}
	// the views' totals give the same total without a scan; a nil
	// view stands for one that holds no ball
	a.RecountViews([]*Array{s1, nil, s2})
	if a.TotalBalls() != 2 {
		t.Fatalf("RecountViews gave %d, want 2", a.TotalBalls())
	}
	a.Recount()
	if a.TotalBalls() != 2 {
		t.Fatalf("Recount gave %d, want 2", a.TotalBalls())
	}
	// a view built over preexisting balls picks them up
	s3, err := a.Shard(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s3.TotalBalls() != 2 {
		t.Fatalf("full view sees %d balls, want 2", s3.TotalBalls())
	}
	// a view must not be able to grow into the parent's tail via append
	// semantics: loads and comparisons stay in range
	if got := s1.MaxLoad(); got != 1 {
		t.Fatalf("shard max load %v", got)
	}
}

// TestRemoveBalls: bulk removal matches k single removals, keeps the
// total consistent, and panics on negative or overdrawn counts.
func TestRemoveBalls(t *testing.T) {
	a, err := New([]int64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	a.AddBalls(0, 5)
	a.AddBalls(1, 4)
	a.RemoveBalls(0, 3)
	if a.Balls(0) != 2 || a.TotalBalls() != 6 {
		t.Fatalf("after RemoveBalls(0,3): balls %d total %d", a.Balls(0), a.TotalBalls())
	}
	a.RemoveBalls(1, 0)
	if a.Balls(1) != 4 {
		t.Fatalf("RemoveBalls(1,0) changed the bin: %d", a.Balls(1))
	}
	for _, k := range []int64{-1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RemoveBalls(0,%d) did not panic", k)
				}
			}()
			a.RemoveBalls(0, k)
		}()
	}
}
