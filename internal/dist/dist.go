// Package dist defines the bin-selection probability distributions of the
// paper: the rule by which a ball picks each of its d candidate bins from
// a heterogeneous array.
//
// A Distribution turns a bins.Array into a non-negative weight vector; the
// sampling layer normalises, so weights need not sum to 1. The paper's
// standard assumption is Proportional (p_i = c_i/C); Uniform, Power (the
// §4.5 tunable family p_i ∝ c_i^t), TopOnly (Theorem 5's "big bins only"
// rule) and Custom (explicit weights) cover the remaining experiments.
package dist

import (
	"fmt"
	"math"

	"repro/internal/bins"
)

// Distribution maps a bin array to selection weights.
type Distribution interface {
	// Weights returns one non-negative selection weight per bin. At
	// least one weight must be positive; implementations fail loudly
	// when the distribution degenerates on the given array. Weights
	// are a function of the capacities alone: the sharded engines call
	// Weights before they empty the array's bins.
	Weights(a *bins.Array) ([]float64, error)
	// Name identifies the distribution in reports.
	Name() string
}

// Proportional selects bin i with probability c_i/C — the paper's
// standard assumption and the default everywhere.
type Proportional struct{}

// Weights implements Distribution.
func (Proportional) Weights(a *bins.Array) ([]float64, error) {
	if a == nil {
		return nil, fmt.Errorf("dist: nil array")
	}
	w := make([]float64, a.N())
	for i := range w {
		w[i] = float64(a.Capacity(i))
	}
	return w, nil
}

// Name implements Distribution.
func (Proportional) Name() string { return "proportional" }

// Uniform selects every bin with probability 1/n regardless of capacity.
type Uniform struct{}

// Weights implements Distribution.
func (Uniform) Weights(a *bins.Array) ([]float64, error) {
	if a == nil {
		return nil, fmt.Errorf("dist: nil array")
	}
	w := make([]float64, a.N())
	for i := range w {
		w[i] = 1
	}
	return w, nil
}

// Name implements Distribution.
func (Uniform) Name() string { return "uniform" }

// Power selects bin i with probability proportional to c_i^T — the
// paper's §4.5 tunable family. T = 1 is Proportional, T = 0 is Uniform.
type Power struct {
	T float64
}

// Weights implements Distribution.
func (p Power) Weights(a *bins.Array) ([]float64, error) {
	if a == nil {
		return nil, fmt.Errorf("dist: nil array")
	}
	if p.T != p.T {
		return nil, fmt.Errorf("dist: power exponent is NaN")
	}
	w := make([]float64, a.N())
	for i := range w {
		w[i] = math.Pow(float64(a.Capacity(i)), p.T)
	}
	return w, nil
}

// Name implements Distribution.
func (p Power) Name() string { return fmt.Sprintf("power(t=%g)", p.T) }

// TopOnly selects uniformly among bins with capacity at least MinCapacity
// and never selects smaller bins (the Theorem 5 setup).
type TopOnly struct {
	MinCapacity int64
}

// Weights implements Distribution.
func (t TopOnly) Weights(a *bins.Array) ([]float64, error) {
	if a == nil {
		return nil, fmt.Errorf("dist: nil array")
	}
	w := make([]float64, a.N())
	any := false
	for i := range w {
		if a.Capacity(i) >= t.MinCapacity {
			w[i] = 1
			any = true
		}
	}
	if !any {
		return nil, fmt.Errorf("dist: no bin has capacity >= %d", t.MinCapacity)
	}
	return w, nil
}

// Name implements Distribution.
func (t TopOnly) Name() string { return fmt.Sprintf("top-only(c>=%d)", t.MinCapacity) }

// Custom selects bins with explicit per-bin weights (length must equal
// the array size). Desc names the distribution in reports.
type Custom struct {
	W    []float64
	Desc string
}

// Weights implements Distribution.
func (c Custom) Weights(a *bins.Array) ([]float64, error) {
	if a == nil {
		return nil, fmt.Errorf("dist: nil array")
	}
	if len(c.W) != a.N() {
		return nil, fmt.Errorf("dist: %d custom weights for %d bins", len(c.W), a.N())
	}
	w := make([]float64, len(c.W))
	copy(w, c.W)
	return w, nil
}

// Name implements Distribution.
func (c Custom) Name() string {
	if c.Desc == "" {
		return "custom"
	}
	return c.Desc
}

var (
	_ Distribution = Proportional{}
	_ Distribution = Uniform{}
	_ Distribution = Power{}
	_ Distribution = TopOnly{}
	_ Distribution = Custom{}
)
