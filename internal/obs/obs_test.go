package obs

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bins"
)

func TestNormalizeCuts(t *testing.T) {
	got, err := NormalizeCuts([]int64{10, 30, 50})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int64{10, 30, 50}) {
		t.Fatalf("normalized = %v", got)
	}
	// the returned slice is a private copy, never the caller's backing
	in := []int64{1, 5}
	got, err = NormalizeCuts(in)
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 99
	if !reflect.DeepEqual(in, []int64{1, 5}) {
		t.Fatalf("input aliased/mutated: %v", in)
	}
	// non-positive, unsorted and duplicated cuts are rejected with
	// field-named errors, never silently reordered
	for _, bad := range [][]int64{{0}, {-2, 5}, {10, 0}, {50, 10, 30}, {5, 1}, {10, 10}} {
		_, err := NormalizeCuts(bad)
		if err == nil {
			t.Errorf("NormalizeCuts(%v) accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), "Checkpoints[") {
			t.Errorf("NormalizeCuts(%v) error %q does not name the field", bad, err)
		}
	}
	if got, err := NormalizeCuts(nil); err != nil || len(got) != 0 {
		t.Fatalf("NormalizeCuts(nil) = %v, %v", got, err)
	}
}

func TestCountReached(t *testing.T) {
	cuts := []int64{10, 20, 30}
	for _, c := range []struct {
		m    int64
		want int
	}{{5, 0}, {10, 1}, {25, 2}, {30, 3}, {1000, 3}} {
		if got := CountReached(cuts, c.m); got != c.want {
			t.Errorf("CountReached(%v, %d) = %d, want %d", cuts, c.m, got, c.want)
		}
	}
}

func TestAlignShardCuts(t *testing.T) {
	prefix := [][]int64{
		{255, 256, 513},
		{300, 512, 1000},
	}
	realized := make([]int64, 2)
	AlignShardCuts(prefix, 256, realized)
	want := [][]int64{
		{0, 256, 512},
		{256, 512, 768},
	}
	if !reflect.DeepEqual(prefix, want) {
		t.Fatalf("aligned = %v, want %v", prefix, want)
	}
	if realized[0] != 768 || realized[1] != 1536 {
		t.Fatalf("realized = %v", realized)
	}
	// align 1 is the identity
	id := [][]int64{{3, 7}}
	AlignShardCuts(id, 1, realized[:1])
	if !reflect.DeepEqual(id, [][]int64{{3, 7}}) || realized[0] != 10 {
		t.Fatalf("align-1 changed cuts: %v, %v", id, realized[0])
	}
}

// TestAlignShardCutsMonotone: column-wise monotone prefixes stay
// monotone after alignment, so per-shard placement segments are never
// negative.
func TestAlignShardCutsMonotone(t *testing.T) {
	prefix := [][]int64{
		{100, 700},
		{300, 700},
		{900, 800},
	}
	AlignShardCuts(prefix, 256, make([]int64, 3))
	for s := 0; s < 2; s++ {
		for k := 1; k < 3; k++ {
			if prefix[k][s] < prefix[k-1][s] {
				t.Fatalf("shard %d cut shrank: %v", s, prefix)
			}
		}
	}
}

func TestCheckpointsObserveAndRows(t *testing.T) {
	c := NewCheckpoints([]int64{100, 200})
	c.Observe(0, 100, 50, 3)   // avg 2, dev 1
	c.Observe(0, 100, 50, 2.5) // dev 0.5
	c.Observe(1, 192, 50, 4)   // realized < requested (aligned), avg 3.84
	rows := c.Rows()
	if rows[0].Balls != 100 || rows[1].Balls != 200 {
		t.Fatalf("cut balls: %+v", rows)
	}
	if rows[0].Reps() != 2 || rows[1].Reps() != 1 {
		t.Fatalf("reps: %d, %d", rows[0].Reps(), rows[1].Reps())
	}
	if got := rows[0].MaxLoad.Mean(); got != 2.75 {
		t.Fatalf("cut 0 max mean %v", got)
	}
	if got := rows[0].Deviation.Mean(); got != 0.75 {
		t.Fatalf("cut 0 deviation mean %v", got)
	}
	if got := rows[1].RealBalls.Mean(); got != 192 {
		t.Fatalf("cut 1 realized balls %v", got)
	}
	if got := rows[1].Deviation.Mean(); math.Abs(got-(4-192.0/50)) > 1e-15 {
		t.Fatalf("cut 1 deviation %v", got)
	}
}

// TestCheckpointsMergeDeterministic: merging chunked collectors in
// order reproduces the sequential fold bit for bit.
func TestCheckpointsMergeDeterministic(t *testing.T) {
	cuts := []int64{10, 20}
	seq := NewCheckpoints(cuts)
	a := NewCheckpoints(cuts)
	b := NewCheckpoints(cuts)
	obsv := []struct {
		cut  int
		max  float64
		into *Checkpoints
	}{
		{0, 1.25, a}, {1, 2.5, a}, {0, 1.5, a},
		{0, 1.75, b}, {1, 3.25, b},
	}
	for _, o := range obsv {
		seq.Observe(o.cut, cuts[o.cut], 7, o.max)
		o.into.Observe(o.cut, cuts[o.cut], 7, o.max)
	}
	merged := NewCheckpoints(cuts)
	if err := merged.Merge(a); err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Rows(), seq.Rows()) {
		t.Fatalf("merged rows differ from sequential:\n%+v\n%+v", merged.Rows(), seq.Rows())
	}
}

func TestCheckpointsMergeShapeMismatch(t *testing.T) {
	c := NewCheckpoints([]int64{10})
	if err := c.Merge(NewCheckpoints([]int64{10, 20})); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := c.Merge(NewCheckpoints([]int64{11})); err == nil {
		t.Error("cut mismatch accepted")
	}
}

func TestCountAtOrAbove(t *testing.T) {
	// caps {1,1,2,4}; balls {3,1,4,3}: heights 3,1,2,0 (exact: 3/4 < 1)
	a := bins.MustNew([]int64{1, 1, 2, 4})
	for i, b := range []int64{3, 1, 4, 3} {
		for j := int64(0); j < b; j++ {
			a.Add(i)
		}
	}
	counts := make([]int64, 4)
	CountAtOrAbove(a, counts)
	// ≥1: bins 0,1,2 → 3; ≥2: bins 0,2 → 2; ≥3: bin 0 → 1; ≥4: none
	if !reflect.DeepEqual(counts, []int64{3, 2, 1, 0}) {
		t.Fatalf("counts = %v", counts)
	}
	// clamping: a single level still counts everything at or above it
	one := make([]int64, 1)
	CountAtOrAbove(a, one)
	if one[0] != 3 {
		t.Fatalf("level-1 count = %d", one[0])
	}
}

func TestHeightsSnapshotAndMerge(t *testing.T) {
	a := bins.MustNew([]int64{1, 1})
	a.Add(0)
	a.Add(0) // heights 2, 0
	h := NewHeights(2)
	if err := h.Snapshot(Final, a, 2); err != nil {
		t.Fatal(err)
	}
	if err := h.Snapshot(0, a, 1); err != nil { // non-final cut ignored
		t.Fatal(err)
	}
	rows := h.Rows()
	if rows[0].Level != 1 || rows[1].Level != 2 {
		t.Fatalf("levels: %+v", rows)
	}
	if rows[0].Bins.N() != 1 || rows[0].Bins.Mean() != 1 || rows[1].Bins.Mean() != 1 {
		t.Fatalf("rows: %+v", rows)
	}
	o := NewHeights(2)
	if err := o.Snapshot(Final, a, 2); err != nil {
		t.Fatal(err)
	}
	if err := h.Merge(o); err != nil {
		t.Fatal(err)
	}
	if h.Rows()[0].Bins.N() != 2 {
		t.Fatalf("merge lost observations: %+v", h.Rows())
	}
	if err := h.Merge(NewHeights(3)); err == nil {
		t.Error("level mismatch accepted")
	}
}

// TestClassesObserveMergeRows: two partials merged in order hold the
// same class counts and load sums as one collector that observed both
// states, and Rows normalises by the folded repetitions.
func TestClassesObserveMergeRows(t *testing.T) {
	// Two bins of capacity 1 and two of capacity 2.
	state := func(balls ...int64) *LoadHistogram {
		a := bins.MustNew([]int64{1, 1, 2, 2})
		for i, b := range balls {
			a.AddBalls(i, b)
		}
		h := a.NewLoadHistogram()
		if err := a.HistogramInto(h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	s1, s2 := state(3, 0, 2, 2), state(0, 1, 4, 0) // max in class 1, then class 2
	lists := func() Classes { return NewClasses([]int64{1, 2}, []int64{2}, []int64{1}) }
	whole, p1, p2 := lists(), lists(), lists()
	for _, step := range []struct {
		c *Classes
		h *LoadHistogram
	}{{&whole, s1}, {&whole, s2}, {&p1, s1}, {&p2, s2}} {
		if err := step.c.Observe(step.h); err != nil {
			t.Fatal(err)
		}
	}
	if err := p1.Merge(&p2); err != nil {
		t.Fatal(err)
	}
	frac, maxLoad, mean := p1.Rows(2)
	wantFrac, _, wantMean := whole.Rows(2)
	if !reflect.DeepEqual(frac, wantFrac) || !reflect.DeepEqual(frac, map[int64]float64{1: 0.5, 2: 0.5}) {
		t.Errorf("max fractions %v, want %v", frac, wantFrac)
	}
	if !reflect.DeepEqual(mean, wantMean) || !reflect.DeepEqual(mean[1], []float64{2, 0}) {
		t.Errorf("class 1 mean loads %v, want %v", mean, wantMean)
	}
	if acc := maxLoad[2]; acc.N() != 2 || acc.Min() != 1 || acc.Max() != 2 {
		t.Errorf("class 2 max-load accumulator n=%d min=%v max=%v", acc.N(), acc.Min(), acc.Max())
	}
	empty := NewClasses(nil, nil, nil)
	if f, _, v := empty.Rows(1); f != nil || v != nil {
		t.Errorf("an empty collector reported rows %v %v", f, v)
	}
}

func TestSortedLoads(t *testing.T) {
	s := NewSortedLoads()
	if s.Mean() != nil {
		t.Fatal("mean of empty collector")
	}
	if err := s.Observe([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe([]float64{3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if got := s.Mean(); !reflect.DeepEqual(got, []float64{4, 3, 2}) {
		t.Fatalf("mean = %v", got)
	}
	if err := s.Observe([]float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	// merge determinism: chunked == sequential
	a, b, seq := NewSortedLoads(), NewSortedLoads(), NewSortedLoads()
	vecs := [][]float64{{0.25, 1}, {0.5, 2}, {0.125, 4}}
	for i, v := range vecs {
		if i < 2 {
			_ = a.Observe(v)
		} else {
			_ = b.Observe(v)
		}
		_ = seq.Observe(v)
	}
	m := NewSortedLoads()
	if err := m.Merge(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Mean(), seq.Mean()) {
		t.Fatalf("merged mean %v != sequential %v", m.Mean(), seq.Mean())
	}
	if m.Reps() != 3 {
		t.Fatalf("reps = %d", m.Reps())
	}
	if err := m.Merge(NewSortedLoads()); err != nil {
		t.Fatalf("merging empty collector: %v", err)
	}
	bad := NewSortedLoads()
	_ = bad.Observe([]float64{1})
	if err := m.Merge(bad); err == nil {
		t.Error("merging mismatched vector lengths accepted")
	}
}

func TestSortedLoadsSnapshot(t *testing.T) {
	a := bins.MustNew([]int64{1, 1, 2})
	a.Add(0)
	a.Add(0)
	a.Add(2) // loads 2, 0, 0.5
	s := NewSortedLoads()
	if err := s.Snapshot(0, a, 0); err != nil { // non-final ignored
		t.Fatal(err)
	}
	if s.Reps() != 0 {
		t.Fatal("non-final cut observed")
	}
	if err := s.Snapshot(Final, a, 3); err != nil {
		t.Fatal(err)
	}
	if got := s.Mean(); !reflect.DeepEqual(got, []float64{2, 0.5, 0}) {
		t.Fatalf("mean = %v", got)
	}
}

func TestShardStats(t *testing.T) {
	s := NewShardStats(2)
	for _, o := range []struct {
		shard int
		balls int64
		max   float64
	}{{0, 3, 1.5}, {1, 5, 2}, {0, 4, 2.5}, {1, 4, 1}} {
		if err := s.Observe(o.shard, o.balls, o.max); err != nil {
			t.Fatal(err)
		}
	}
	rows := s.Rows()
	if rows[0].Shard != 0 || rows[1].Shard != 1 {
		t.Fatalf("shard ids: %+v", rows)
	}
	if rows[0].Balls.Mean() != 3.5 || rows[1].MaxLoad.Mean() != 1.5 {
		t.Fatalf("rows: %+v", rows)
	}
	for _, shard := range []int{-1, 2} {
		if err := s.Observe(shard, 1, 1); err == nil {
			t.Errorf("shard %d of 2 accepted", shard)
		}
	}
}
