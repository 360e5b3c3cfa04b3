package sampling

import (
	"testing"

	"repro/internal/xrand"
)

func TestCountTreeBuildAndCount(t *testing.T) {
	counts := []int64{3, 0, 7, 1, 0, 5, 2}
	ct, err := NewCountTree(len(counts))
	if err != nil {
		t.Fatal(err)
	}
	ct.Build(func(i int) int64 { return counts[i] })
	if ct.Total() != 18 {
		t.Fatalf("Total = %d, want 18", ct.Total())
	}
	for i, c := range counts {
		if got := ct.Count(i); got != c {
			t.Fatalf("Count(%d) = %d, want %d", i, got, c)
		}
	}
	// Build must be idempotent (clears previous state).
	ct.Build(func(i int) int64 { return counts[i] })
	if ct.Total() != 18 {
		t.Fatalf("Total after rebuild = %d, want 18", ct.Total())
	}
}

// TestCountTreeExhaustion drains the whole population without
// replacement: every unit must come out exactly once.
func TestCountTreeExhaustion(t *testing.T) {
	counts := []int64{2, 5, 0, 1, 9, 3, 0, 4}
	for _, n := range []int{1, 3, len(counts)} {
		ct, err := NewCountTree(n)
		if err != nil {
			t.Fatal(err)
		}
		ct.Build(func(i int) int64 { return counts[i] })
		drawn := make([]int64, n)
		r := xrand.New(99)
		for ct.Total() > 0 {
			i := ct.Sample(r)
			ct.Dec(i)
			drawn[i]++
		}
		for i := 0; i < n; i++ {
			if drawn[i] != counts[i] {
				t.Fatalf("n=%d: drew %d units from index %d, want %d", n, drawn[i], i, counts[i])
			}
			if ct.Count(i) != 0 {
				t.Fatalf("n=%d: Count(%d) = %d after exhaustion", n, i, ct.Count(i))
			}
		}
	}
}

// TestCountTreeLaw checks the exact sampling law: the frequency of each
// index over many WITH-replacement draws (Sample without Dec) must
// match count_i/total within Monte-Carlo noise.
func TestCountTreeLaw(t *testing.T) {
	counts := []int64{1, 0, 4, 10, 0, 5}
	var total int64
	for _, c := range counts {
		total += c
	}
	ct, err := NewCountTree(len(counts))
	if err != nil {
		t.Fatal(err)
	}
	ct.Build(func(i int) int64 { return counts[i] })
	r := xrand.New(7)
	const draws = 200000
	freq := make([]int64, len(counts))
	for k := 0; k < draws; k++ {
		freq[ct.Sample(r)]++
	}
	for i, c := range counts {
		want := float64(c) / float64(total)
		got := float64(freq[i]) / draws
		if diff := got - want; diff > 0.01 || diff < -0.01 {
			t.Errorf("index %d: frequency %.4f, want %.4f", i, got, want)
		}
	}
}

// TestCountTreeDeterminism pins the draw sequence: sampling is a pure
// function of (counts, stream). A change here is a model change.
func TestCountTreeDeterminism(t *testing.T) {
	counts := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	ct, err := NewCountTree(len(counts))
	if err != nil {
		t.Fatal(err)
	}
	ct.Build(func(i int) int64 { return counts[i] })
	r := xrand.New(42)
	got := make([]int, 0, 12)
	for k := 0; k < 12; k++ {
		i := ct.Sample(r)
		ct.Dec(i)
		got = append(got, i)
	}
	want := []int{7, 4, 7, 5, 6, 5, 1, 5, 2, 7, 5, 7}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("draw sequence %v, want %v (pinned golden: the deletion model changed)", got, want)
		}
	}
}

func TestCountTreeIncDec(t *testing.T) {
	ct, err := NewCountTree(4)
	if err != nil {
		t.Fatal(err)
	}
	ct.Inc(2)
	ct.Inc(2)
	ct.Inc(0)
	if ct.Total() != 3 || ct.Count(2) != 2 || ct.Count(0) != 1 {
		t.Fatalf("state after Inc: total=%d c0=%d c2=%d", ct.Total(), ct.Count(0), ct.Count(2))
	}
	ct.Dec(2)
	if ct.Total() != 2 || ct.Count(2) != 1 {
		t.Fatalf("state after Dec: total=%d c2=%d", ct.Total(), ct.Count(2))
	}
}

func TestCountTreePanics(t *testing.T) {
	if _, err := NewCountTree(0); err == nil {
		t.Fatal("NewCountTree(0) should fail")
	}
	ct, _ := NewCountTree(3)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	const empty = "sampling: CountTree.Sample with zero total"
	mustPanicWith(t, empty, func() { ct.Sample(xrand.New(1)) })
	mustPanicWith(t, empty, func() { ct.SampleDec(xrand.New(1)) })
	mustPanic("Dec at zero", func() { ct.Dec(1) })
	mustPanic("Build with negative count", func() { ct.Build(func(int) int64 { return -1 }) })
}

func TestCountTreeBuildAllocFree(t *testing.T) {
	ct, err := NewCountTree(256)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 256)
	for i := range counts {
		counts[i] = int64(i % 5)
	}
	fn := func(i int) int64 { return counts[i] }
	if allocs := testing.AllocsPerRun(20, func() { ct.Build(fn) }); allocs != 0 {
		t.Fatalf("Build allocates %v per run, want 0", allocs)
	}
}

// drainTwins drains both trees to empty on identically seeded streams
// and fails at the first step where SampleDec and Sample+Dec disagree
// on the index, or where the trees differ afterwards.
func drainTwins(t testing.TB, counts []int64, seed uint64) {
	t.Helper()
	fused, err := NewCountTree(len(counts))
	if err != nil {
		t.Fatal(err)
	}
	split, err := NewCountTree(len(counts))
	if err != nil {
		t.Fatal(err)
	}
	fn := func(i int) int64 { return counts[i] }
	fused.Build(fn)
	split.Build(fn)
	rf, rs := xrand.New(seed), xrand.New(seed)
	for step := 0; fused.Total() > 0; step++ {
		i := split.Sample(rs)
		split.Dec(i)
		if got := fused.SampleDec(rf); got != i {
			t.Fatalf("n=%d seed=%d step %d: SampleDec = %d, Sample+Dec = %d", len(counts), seed, step, got, i)
		}
		if fused.Total() != split.Total() {
			t.Fatalf("n=%d seed=%d step %d: Total %d vs %d", len(counts), seed, step, fused.Total(), split.Total())
		}
	}
	if split.Total() != 0 {
		t.Fatalf("n=%d seed=%d: Sample+Dec tree left %d after SampleDec drained", len(counts), seed, split.Total())
	}
	for i := range counts {
		if fused.Count(i) != 0 || split.Count(i) != 0 {
			t.Fatalf("n=%d seed=%d: Count(%d) = %d / %d after draining", len(counts), seed, i, fused.Count(i), split.Count(i))
		}
	}
	for i := range fused.tree {
		if fused.tree[i] != split.tree[i] {
			t.Fatalf("n=%d seed=%d: node %d = %d / %d after draining", len(counts), seed, i, fused.tree[i], split.tree[i])
		}
	}
}

// TestCountTreeSampleDecMatchesSampleThenDec is SampleDec's contract:
// the same draw, the same index and the same tree as Sample then Dec,
// at every step of a full drain — on power-of-two sizes, on sizes just
// off one (so the padding is empty, nearly empty and nearly full), and
// with runs of zero counts at both ends and in the middle.
func TestCountTreeSampleDecMatchesSampleThenDec(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 9, 63, 64, 65, 1000, 15625} {
		r := xrand.New(uint64(n))
		counts := make([]int64, n)
		for i := range counts {
			counts[i] = int64(r.Uint64n(6))
		}
		// Zero runs at both ends (a quarter of the indices each, at
		// least one), then nonzero counts in between.
		z := max(n/4, 1)
		for i := 0; i < z && i < n; i++ {
			counts[i] = 0
			counts[n-1-i] = 0
		}
		if n >= 3 {
			counts[n/2] += 3
		}
		for seed := uint64(1); seed <= 3; seed++ {
			drainTwins(t, counts, seed)
		}
		// Every index nonzero: the draw's last index and the padding
		// boundary are reachable.
		for i := range counts {
			counts[i] = 1 + int64(i%4)
		}
		drainTwins(t, counts, 7)
	}
}

// FuzzCountTreeSampleDec drains arbitrary small count vectors (one
// byte per count) with SampleDec and Sample+Dec on the same stream.
func FuzzCountTreeSampleDec(f *testing.F) {
	f.Add([]byte{1}, uint64(1))
	f.Add([]byte{0, 0, 0}, uint64(1))
	f.Add([]byte{0, 0, 5}, uint64(2))
	f.Add([]byte{3, 0, 7, 1, 0, 5, 2}, uint64(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint64(4))
	f.Add([]byte{0, 9, 0, 0, 0, 0, 0, 0, 4}, uint64(5))
	f.Add([]byte{255, 0, 0, 255, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, uint64(6))
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64) {
		if len(raw) == 0 || len(raw) > 4096 {
			return
		}
		counts := make([]int64, len(raw))
		var total int64
		for i, b := range raw {
			counts[i] = int64(b)
			total += int64(b)
		}
		if total == 0 {
			ct, _ := NewCountTree(len(counts))
			mustPanicWith(t, "sampling: CountTree.Sample with zero total", func() { ct.SampleDec(xrand.New(seed)) })
			return
		}
		drainTwins(t, counts, seed)
	})
}

func mustPanicWith(t testing.TB, want string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	f()
}

// TestCountTreeBuildTotalOverflow: a total past 2^62 is refused
// instead of wrapping (or breaking the descents' sign arithmetic).
func TestCountTreeBuildTotalOverflow(t *testing.T) {
	ct, err := NewCountTree(2)
	if err != nil {
		t.Fatal(err)
	}
	mustPanicWith(t, "sampling: CountTree.Build: total exceeds 2^62 at index 1", func() {
		ct.Build(func(int) int64 { return 1<<61 + 1 })
	})
	// Exactly 2^62 is allowed, and every unit is reachable.
	ct.Build(func(int) int64 { return 1 << 61 })
	if ct.Total() != 1<<62 {
		t.Fatalf("Total = %d, want 2^62", ct.Total())
	}
	r := xrand.New(11)
	for k := 0; k < 64; k++ {
		ct.SampleDec(r)
	}
	if ct.Total() != 1<<62-64 || ct.Count(0)+ct.Count(1) != ct.Total() {
		t.Fatalf("after 64 takes: total %d, counts %d + %d", ct.Total(), ct.Count(0), ct.Count(1))
	}
}

// TestSampleDecNodesIgnoresPadding is the contract the streaming
// engine's deletion forest relies on: a 64-node tree built in place by
// BuildNodes over n <= 64 counts (zeros after them) returns, draw for
// draw, the same index as a CountTree over the n counts alone — whose
// own padding is narrower — and leaves the stream in the same state.
func TestSampleDecNodesIgnoresPadding(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 31, 33, 63, 64} {
		for seed := uint64(1); seed <= 4; seed++ {
			r := xrand.New(seed * 1000)
			counts := make([]int64, n)
			for i := range counts {
				if r.Uint64n(3) > 0 {
					counts[i] = int64(r.Uint64n(5))
				}
			}
			counts[n-1]++ // a positive total, and the last index reachable
			ct, err := NewCountTree(n)
			if err != nil {
				t.Fatal(err)
			}
			ct.Build(func(i int) int64 { return counts[i] })
			nodes := make([]int64, 64)
			copy(nodes, counts)
			if tot := BuildNodes(nodes); tot != ct.Total() {
				t.Fatalf("n=%d: BuildNodes total %d, CountTree %d", n, tot, ct.Total())
			}
			rt, rn := xrand.New(seed), xrand.New(seed)
			for step := 0; ct.Total() > 0; step++ {
				want := ct.SampleDec(rt)
				if got := SampleDecNodes(rn, nodes); got != want {
					t.Fatalf("n=%d seed=%d step %d: SampleDecNodes = %d, CountTree.SampleDec = %d", n, seed, step, got, want)
				}
			}
			if *rt != *rn || nodes[63] != 0 {
				t.Fatalf("n=%d seed=%d: streams or totals differ after draining (root %d)", n, seed, nodes[63])
			}
		}
	}
}

// TestBuildNodesPanics: BuildNodes refuses what CountTree.Build refuses,
// with the same messages, and a length that is not a power of two.
func TestBuildNodesPanics(t *testing.T) {
	mustPanicWith(t, "sampling: CountTree.Build: negative count -1 at index 2", func() {
		BuildNodes([]int64{1, 0, -1, 4})
	})
	mustPanicWith(t, "sampling: CountTree.Build: total exceeds 2^62 at index 1", func() {
		BuildNodes([]int64{1<<61 + 1, 1<<61 + 1})
	})
	mustPanicWith(t, "sampling: count tree over 3 nodes, need a power of two", func() {
		BuildNodes(make([]int64, 3))
	})
	mustPanicWith(t, "sampling: CountTree.Sample with zero total", func() {
		SampleDecNodes(xrand.New(1), make([]int64, 4))
	})
}

// benchCountTree drains a tree built from shard-like loads (n bins
// holding n balls) and rebuilds it when empty, so the rebuild is
// amortised over n takes as in one deletion round. take is the kernel
// under test.
func benchCountTree(b *testing.B, n int, take func(*CountTree, *xrand.Rand)) {
	counts := make([]int64, n)
	r := xrand.New(1)
	for k := 0; k < n; k++ {
		counts[r.Uint64n(uint64(n))]++
	}
	ct, err := NewCountTree(n)
	if err != nil {
		b.Fatal(err)
	}
	fn := func(i int) int64 { return counts[i] }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ct.Total() == 0 {
			ct.Build(fn)
		}
		take(ct, r)
	}
}

func takeSampleThenDec(t *CountTree, r *xrand.Rand) { t.Dec(t.Sample(r)) }
func takeSampleDec(t *CountTree, r *xrand.Rand)     { t.SampleDec(r) }

func BenchmarkCountTreeTake64(b *testing.B)         { benchCountTree(b, 64, takeSampleThenDec) }
func BenchmarkCountTreeTake15625(b *testing.B)      { benchCountTree(b, 15625, takeSampleThenDec) }
func BenchmarkCountTreeSampleDec64(b *testing.B)    { benchCountTree(b, 64, takeSampleDec) }
func BenchmarkCountTreeSampleDec15625(b *testing.B) { benchCountTree(b, 15625, takeSampleDec) }
