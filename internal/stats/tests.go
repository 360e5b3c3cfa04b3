package stats

// Hypothesis-test statistics used by the validation suite: Welch's
// two-sample t statistic, the two-sample Kolmogorov–Smirnov statistic,
// and exact binomial PMF/CDF helpers for checking capacity generators
// and choice distributions against their closed forms.

import (
	"fmt"
	"math"
	"sort"
)

// WelchT returns Welch's t statistic and the Welch–Satterthwaite degrees
// of freedom for two accumulated samples. Callers compare |t| against a
// quantile for the returned df (for the large samples used in this
// repository, the normal quantiles are fine: 1.96 for 5%, 3.29 for 0.1%).
func WelchT(a, b *Accumulator) (t, df float64, err error) {
	if a.N() < 2 || b.N() < 2 {
		return 0, 0, fmt.Errorf("stats: WelchT needs >= 2 observations per sample")
	}
	va := a.Variance() / float64(a.N())
	vb := b.Variance() / float64(b.N())
	if va+vb == 0 {
		if a.Mean() == b.Mean() {
			return 0, math.Inf(1), nil
		}
		return math.Inf(1), math.Inf(1), nil
	}
	t = (a.Mean() - b.Mean()) / math.Sqrt(va+vb)
	num := (va + vb) * (va + vb)
	den := va*va/float64(a.N()-1) + vb*vb/float64(b.N()-1)
	df = num / den
	return t, df, nil
}

// KolmogorovSmirnov returns the two-sample KS statistic
// sup_x |F_a(x) − F_b(x)| of the empirical CDFs. Inputs are not
// modified.
func KolmogorovSmirnov(a, b []float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, fmt.Errorf("stats: KS needs non-empty samples")
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	var d float64
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		switch {
		case sa[i] < sb[j]:
			i++
		case sb[j] < sa[i]:
			j++
		default:
			// tie: both CDFs jump at this value — consume it entirely on
			// both sides before measuring.
			v := sa[i]
			for i < len(sa) && sa[i] == v {
				i++
			}
			for j < len(sb) && sb[j] == v {
				j++
			}
		}
		diff := math.Abs(float64(i)/float64(len(sa)) - float64(j)/float64(len(sb)))
		if diff > d {
			d = diff
		}
	}
	return d, nil
}

// KSThreshold returns the asymptotic critical value of the two-sample KS
// statistic at significance alpha ∈ {0.05, 0.01, 0.001}:
// c(alpha)·sqrt((n+m)/(n·m)).
func KSThreshold(n, m int, alpha float64) (float64, error) {
	var c float64
	switch alpha {
	case 0.05:
		c = 1.358
	case 0.01:
		c = 1.628
	case 0.001:
		c = 1.949
	default:
		return 0, fmt.Errorf("stats: unsupported alpha %v", alpha)
	}
	if n <= 0 || m <= 0 {
		return 0, fmt.Errorf("stats: invalid sample sizes %d, %d", n, m)
	}
	return c * math.Sqrt(float64(n+m)/float64(n)/float64(m)), nil
}

// BinomialPMF returns P[Bin(n, p) = k] computed in log space for
// stability.
func BinomialPMF(n int, p float64, k int) float64 {
	if k < 0 || k > n || n < 0 {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	logPmf := logChoose(n, k) + float64(float64(k)*math.Log(p)) + float64(float64(n-k)*math.Log(1-p))
	return math.Exp(logPmf)
}

// BinomialCDF returns P[Bin(n, p) <= k].
func BinomialCDF(n int, p float64, k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	sum := 0.0
	for i := 0; i <= k; i++ {
		sum += BinomialPMF(n, p, i)
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// logChoose returns log(n choose k) via log-gamma (Stirling through
// math.Lgamma).
func logChoose(n, k int) float64 {
	ln1, _ := math.Lgamma(float64(n + 1))
	lk1, _ := math.Lgamma(float64(k + 1))
	lnk1, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk1 - lnk1
}

// ChiSquareCritical returns the upper-alpha critical value of the
// chi-square distribution with df degrees of freedom, for
// alpha ∈ {0.05, 0.01, 0.001}, via the Wilson–Hilferty cube
// approximation — accurate to a fraction of a percent for the df >= 3
// range the sampler goodness-of-fit tests use.
func ChiSquareCritical(df int, alpha float64) (float64, error) {
	if df < 1 {
		return 0, fmt.Errorf("stats: chi-square with df = %d", df)
	}
	var z float64
	switch alpha {
	case 0.05:
		z = 1.6449
	case 0.01:
		z = 2.3263
	case 0.001:
		z = 3.0902
	default:
		return 0, fmt.Errorf("stats: unsupported alpha %v", alpha)
	}
	d := float64(df)
	t := 1 - 2/(9*d) + float64(z*math.Sqrt(2/(9*d)))
	return d * t * t * t, nil
}
