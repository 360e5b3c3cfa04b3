package sampling

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// refVose is the textbook stack-based Vose build over weights summing
// to total: scaled weights, then small and large work lists filled from
// the top index down and paired until one runs dry, leftovers at
// certain acceptance. It is the oracle the cursor build must match
// column for column.
func refVose(weights []float64, total float64) []aliasCol {
	n := len(weights)
	cols := make([]aliasCol, n)
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
	}
	var small, large []int32
	for i := n - 1; i >= 0; i-- {
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		cols[l] = aliasCol{thresh: thresholdOf(scaled[l]), alias: g}
		scaled[g] = (scaled[g] + scaled[l]) - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	for _, g := range large {
		cols[g] = aliasCol{thresh: ^uint32(0), alias: g}
	}
	for _, l := range small {
		cols[l] = aliasCol{thresh: ^uint32(0), alias: l}
	}
	return cols
}

// aliasTestWeights draws one weight vector of n entries: about a
// quarter zeros, the rest fractions spread over twenty decades (so the
// pairing's rounding leftovers occur), at least one positive.
func aliasTestWeights(r *xrand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		switch r.Intn(4) {
		case 0:
		case 1:
			w[i] = float64(1 + r.Intn(10))
		default:
			w[i] = r.Float64() * math.Pow(10, float64(r.Intn(21)-10))
		}
	}
	w[r.Intn(n)] = 1
	return w
}

// TestAliasColumnsMatchVose: NewAlias and Rebuild give exactly the
// stack-based Vose columns on 5,000 seeded random weight vectors of
// 1…300 entries and on two large ones (one 15,625-bin shard of a 10⁶-bin
// array, and 10⁵ bins). One table is rebuilt across every vector, so
// its kept mask is reused over longer and shorter weights alike.
func TestAliasColumnsMatchVose(t *testing.T) {
	r := xrand.New(26)
	var tab *AliasTable
	check := func(name string, w []float64) {
		t.Helper()
		total, err := validateWeights(w)
		if err != nil {
			t.Fatal(err)
		}
		want := refVose(w, total)
		fresh, err := NewAlias(w)
		if err != nil {
			t.Fatal(err)
		}
		if i := firstColDiff(fresh.cols, want); i >= 0 {
			t.Fatalf("%s: NewAlias column %d = %+v, Vose gives %+v", name, i, fresh.cols[i], want[i])
		}
		if tab == nil {
			tab = &AliasTable{}
		}
		if err := tab.Rebuild(w); err != nil {
			t.Fatal(err)
		}
		if i := firstColDiff(tab.cols, want); i >= 0 {
			t.Fatalf("%s: Rebuild column %d = %+v, Vose gives %+v", name, i, tab.cols[i], want[i])
		}
	}
	for k := 0; k < 5000; k++ {
		n := 1 + r.Intn(300)
		check(fmt.Sprintf("vector %d (n = %d)", k, n), aliasTestWeights(r, n))
	}
	check("binomial shard", binomialWeights(15625, 2))
	check("random 1e5", aliasTestWeights(r, 100000))
}

// firstColDiff returns the first index where got and want differ (a
// length mismatch counts at the shorter length), or −1.
func firstColDiff(got, want []aliasCol) int {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}

// binomialWeights are the capacities 1 + Binomial(20, 1/2) of n bins,
// drawn bit by bit from seed, as float weights.
func binomialWeights(n int, seed uint64) []float64 {
	r := xrand.New(seed)
	w := make([]float64, n)
	for i := range w {
		c := 1
		for k := 0; k < 20; k++ {
			c += int(r.Uint64() & 1)
		}
		w[i] = float64(c)
	}
	return w
}

// TestAliasColumnsGolden pins an FNV-64a digest of the columns built
// over four weight families: the paper's two-class array, a binomial
// shard, all-equal weights and weights with zeros. The digests were
// recorded from the stack-based build (refVose), so a change of any
// column, in NewAlias or in Rebuild, fails here.
func TestAliasColumnsGolden(t *testing.T) {
	twoClass := make([]float64, 10000)
	for i := range twoClass {
		twoClass[i] = 1
		if i >= 5000 {
			twoClass[i] = 10
		}
	}
	equal := make([]float64, 1000)
	for i := range equal {
		equal[i] = 3
	}
	zeros := make([]float64, 2000)
	for i := range zeros {
		if i%3 != 0 {
			zeros[i] = float64(i%7) + 0.5
		}
	}
	cases := []struct {
		name string
		w    []float64
		want uint64
	}{
		{"two-class", twoClass, 0xf5ad4d3844139dea},
		{"binomial", binomialWeights(15625, 1), 0x396c9e9889710263},
		{"all-equal", equal, 0xcb62c0dff5f89fe5},
		{"zero-bearing", zeros, 0xaa6de8f65461ec18},
	}
	tab := &AliasTable{}
	for _, c := range cases {
		fresh, err := NewAlias(c.w)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Rebuild(c.w); err != nil {
			t.Fatal(err)
		}
		if got := colsDigest(fresh.cols); got != c.want {
			t.Errorf("%s: NewAlias digest %#x, want %#x", c.name, got, c.want)
		}
		if got := colsDigest(tab.cols); got != c.want {
			t.Errorf("%s: Rebuild digest %#x, want %#x", c.name, got, c.want)
		}
	}
}

// colsDigest is the FNV-64a hash of the columns' little-endian
// (thresh, alias) pairs.
func colsDigest(cols []aliasCol) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range cols {
		binary.LittleEndian.PutUint32(b[:4], c.thresh)
		binary.LittleEndian.PutUint32(b[4:], uint32(c.alias))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestAliasBuildAllocs: NewAlias allocates the table, its columns and
// its small/large mask and nothing else; a Rebuild within the kept
// capacity allocates nothing.
func TestAliasBuildAllocs(t *testing.T) {
	w := binomialWeights(15625, 3)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewAlias(w); err != nil {
			t.Fatal(err)
		}
	}); allocs > 3 {
		t.Fatalf("NewAlias allocates %v times, want <= 3", allocs)
	}
	tab := &AliasTable{}
	if err := tab.Rebuild(w); err != nil {
		t.Fatal(err)
	}
	short := slices.Clone(w[:1000])
	if allocs := testing.AllocsPerRun(20, func() {
		if err := tab.Rebuild(w); err != nil {
			t.Fatal(err)
		}
		if err := tab.Rebuild(short); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm Rebuild allocates %v times", allocs)
	}
}
