// Package stats provides the small statistics toolkit the simulation
// harness and test suite rely on: streaming moments (Welford), summaries,
// quantiles, histograms, ordinary least squares, and chi-square statistics.
//
// Everything is plain float64 computation with no dependencies; the
// numerically sensitive pieces (variance) use Welford's online algorithm
// so that millions of repetitions can be accumulated without catastrophic
// cancellation.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Accumulator computes streaming count/mean/variance/min/max using
// Welford's online algorithm. The zero value is ready to use.
type Accumulator struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add feeds one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += float64(delta * (x - a.mean))
}

// AddN feeds an observation with integer multiplicity w ≥ 0.
func (a *Accumulator) AddN(x float64, w int64) {
	for i := int64(0); i < w; i++ {
		a.Add(x)
	}
}

// Merge combines another accumulator into a (parallel reduction), using
// the Chan et al. pairwise update.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	delta := b.mean - a.mean
	a.mean += delta * float64(b.n) / float64(n)
	a.m2 += b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n = n
}

// N returns the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the sample mean (NaN when empty).
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}

// Variance returns the unbiased sample variance (NaN for n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest observation (NaN when empty).
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.min
}

// Max returns the largest observation (NaN when empty).
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.max
}

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean.
func (a *Accumulator) CI95() float64 { return 1.96 * a.StdErr() }

// AccumulatorState is the exported snapshot of an Accumulator and its
// JSON form — the checkpoint/resume subsystem persists fold state
// through it. All fields are finite for any sequence of finite Add
// inputs, so JSON (which round-trips float64 exactly but rejects
// NaN/Inf) is a safe carrier.
type AccumulatorState struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// State snapshots the accumulator.
func (a *Accumulator) State() AccumulatorState {
	return AccumulatorState{N: a.n, Mean: a.mean, M2: a.m2, Min: a.min, Max: a.max}
}

// MarshalJSON encodes the accumulator as its AccumulatorState.
func (a Accumulator) MarshalJSON() ([]byte, error) { return json.Marshal(a.State()) }

// UnmarshalJSON overwrites the accumulator with an encoded
// AccumulatorState. A decoded accumulator continues bit-identically:
// encode→decode→Add(x…) equals Add(x…) on the original.
func (a *Accumulator) UnmarshalJSON(data []byte) error {
	var st AccumulatorState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	a.n, a.mean, a.m2, a.min, a.max = st.N, st.Mean, st.M2, st.Min, st.Max
	return nil
}

// Summary is a one-shot description of a sample.
type Summary struct {
	N               int64
	Mean, StdDev    float64
	Min, Max        float64
	Median, P5, P95 float64
}

// Describe summarises xs. It does not modify xs.
func Describe(xs []float64) Summary {
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	s := Summary{
		N: acc.N(), Mean: acc.Mean(), StdDev: acc.StdDev(),
		Min: acc.Min(), Max: acc.Max(),
	}
	if len(xs) > 0 {
		sorted := make([]float64, len(xs))
		copy(sorted, xs)
		sort.Float64s(sorted)
		s.Median = quantileSorted(sorted, 0.5)
		s.P5 = quantileSorted(sorted, 0.05)
		s.P95 = quantileSorted(sorted, 0.95)
	} else {
		s.Median, s.P5, s.P95 = math.NaN(), math.NaN(), math.NaN()
	}
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f sd=%.4f min=%.4f p5=%.4f med=%.4f p95=%.4f max=%.4f",
		s.N, s.Mean, s.StdDev, s.Min, s.P5, s.Median, s.P95, s.Max)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := float64(pos) - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Histogram is a fixed-width histogram over [Lo, Hi); observations outside
// the range land in the under/overflow counters.
type Histogram struct {
	Lo, Hi    float64
	Counts    []int64
	Underflow int64
	Overflow  int64
	width     float64
}

// NewHistogram creates a histogram with the given bounds and bin count.
func NewHistogram(lo, hi float64, nbins int) (*Histogram, error) {
	if !(hi > lo) || nbins <= 0 {
		return nil, fmt.Errorf("stats: invalid histogram [%v,%v) with %d bins", lo, hi, nbins)
	}
	return &Histogram{
		Lo: lo, Hi: hi,
		Counts: make([]int64, nbins),
		width:  (hi - lo) / float64(nbins),
	}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Underflow++
	case x >= h.Hi:
		h.Overflow++
	default:
		idx := int((x - h.Lo) / h.width)
		if idx >= len(h.Counts) { // float edge
			idx = len(h.Counts) - 1
		}
		h.Counts[idx]++
	}
}

// Merge adds another histogram's counts into h. The two histograms must
// have identical bounds and bin counts.
func (h *Histogram) Merge(o *Histogram) error {
	if h.Lo != o.Lo || h.Hi != o.Hi || len(h.Counts) != len(o.Counts) {
		return fmt.Errorf("stats: merging incompatible histograms")
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Underflow += o.Underflow
	h.Overflow += o.Overflow
	return nil
}

// Total returns the number of in-range observations.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + float64((float64(i)+0.5)*h.width)
}

// LinearFit holds an ordinary-least-squares line y = Slope·x + Intercept.
type LinearFit struct {
	Slope, Intercept, R2 float64
}

// Linear fits y = a·x + b by least squares. Requires len(xs) == len(ys)
// and at least two points with distinct x.
func Linear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: mismatched lengths %d, %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinearFit{}, fmt.Errorf("stats: need at least 2 points")
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += float64(dx * dx)
		sxy += float64(dx * dy)
		syy += float64(dy * dy)
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: all x values identical")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - float64(slope*mx)}
	if syy == 0 {
		fit.R2 = 1 // perfectly flat data, perfectly fit by a flat line
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}

// ChiSquare returns the chi-square statistic Σ (obs-exp)²/exp. Expected
// entries must be positive; a mismatch in length is an error.
func ChiSquare(observed []float64, expected []float64) (float64, error) {
	if len(observed) != len(expected) {
		return 0, fmt.Errorf("stats: mismatched lengths %d, %d", len(observed), len(expected))
	}
	chi2 := 0.0
	for i := range observed {
		if expected[i] <= 0 {
			return 0, fmt.Errorf("stats: expected[%d] = %v must be positive", i, expected[i])
		}
		d := observed[i] - expected[i]
		chi2 += d * d / expected[i]
	}
	return chi2, nil
}

// Plateau is a maximal run of consecutive series points whose values
// stay within Tol of the run's running mean — the "horizontally growing
// plateau" phenomenon the paper describes for Figure 6.
type Plateau struct {
	// Start and End are inclusive indices into the series.
	Start, End int
	// Level is the mean value over the run.
	Level float64
}

// Len returns the number of points in the plateau.
func (p Plateau) Len() int { return p.End - p.Start + 1 }

// Plateaus scans ys for maximal runs of at least minLen points that stay
// within tol of their running mean. Runs are greedy and non-overlapping.
func Plateaus(ys []float64, tol float64, minLen int) []Plateau {
	if minLen < 2 {
		minLen = 2
	}
	var out []Plateau
	i := 0
	for i < len(ys) {
		// grow a run starting at i
		sum := ys[i]
		j := i + 1
		for j < len(ys) {
			mean := sum / float64(j-i)
			if math.Abs(ys[j]-mean) > tol {
				break
			}
			sum += ys[j]
			j++
		}
		if j-i >= minLen {
			out = append(out, Plateau{Start: i, End: j - 1, Level: sum / float64(j-i)})
			i = j
		} else {
			i++
		}
	}
	return out
}

// MeanOf returns the arithmetic mean of xs (NaN when empty).
func MeanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MaxOf returns the maximum of xs (NaN when empty).
func MaxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
