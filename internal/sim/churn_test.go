package sim

import (
	"math"
	"testing"
)

func TestChurnPlanValidate(t *testing.T) {
	good := ChurnPlan{
		Schedule:    []ChurnEvent{{Tick: 0, Peer: 1, Down: true}, {Tick: 2, Peer: 1}, {Tick: 2, Peer: 0, Down: true}},
		CrashProb:   0.25,
		RecoverProb: 1,
	}
	if err := good.Validate(3); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := []ChurnPlan{
		{CrashProb: -0.1},
		{CrashProb: 1.5},
		{RecoverProb: 2},
		{Schedule: []ChurnEvent{{Tick: -1, Peer: 0}}},
		{Schedule: []ChurnEvent{{Tick: 5, Peer: 0}, {Tick: 3, Peer: 1}}}, // out of order
		{Schedule: []ChurnEvent{{Tick: 0, Peer: -1}}},
		{Schedule: []ChurnEvent{{Tick: 0, Peer: 3}}}, // peer out of range for peers=3
	}
	for i, p := range bad {
		if err := p.Validate(3); err == nil {
			t.Fatalf("bad plan %d accepted: %+v", i, p)
		}
	}
}

func TestChurnPlanPredicates(t *testing.T) {
	var p ChurnPlan
	if !p.Empty() || p.Stochastic() {
		t.Fatal("zero plan should be empty and non-stochastic")
	}
	p.Schedule = []ChurnEvent{{Tick: 1, Peer: 0, Down: true}}
	if p.Empty() || p.Stochastic() {
		t.Fatal("scheduled-only plan: want non-empty, non-stochastic")
	}
	p = ChurnPlan{RecoverProb: 0.5}
	if p.Empty() || !p.Stochastic() {
		t.Fatal("recover-only plan: want non-empty, stochastic")
	}
}

func TestRetryPolicyValidate(t *testing.T) {
	good := []RetryPolicy{
		{},
		{TimeoutTicks: 3},
		{TimeoutTicks: 3, MaxRetries: 2, BackoffBase: 4},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Fatalf("valid policy %d rejected: %v", i, err)
		}
	}
	bad := []RetryPolicy{
		{TimeoutTicks: -1},
		{TimeoutTicks: 1, MaxRetries: -1},
		{TimeoutTicks: 1, BackoffBase: -2},
		{MaxRetries: 1}, // retries without a timeout never trigger
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad policy %d accepted: %+v", i, p)
		}
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{TimeoutTicks: 1, MaxRetries: 5, BackoffBase: 3}
	for a, want := range map[int]int{1: 3, 2: 6, 3: 12, 4: 24} {
		if got := p.Backoff(a); got != want {
			t.Fatalf("Backoff(%d) = %d, want %d", a, got, want)
		}
	}
	// Zero base defaults to 1; attempt <= 0 clamps to the first delay.
	z := RetryPolicy{TimeoutTicks: 1, MaxRetries: 1}
	if got := z.Backoff(1); got != 1 {
		t.Fatalf("zero-base Backoff(1) = %d, want 1", got)
	}
	if got := z.Backoff(-7); got != 1 {
		t.Fatalf("Backoff(-7) = %d, want 1", got)
	}
	// The shift clamp keeps huge attempt numbers finite and positive.
	if got := z.Backoff(1000); got != 1<<30 {
		t.Fatalf("Backoff(1000) = %d, want %d", got, 1<<30)
	}
}

// TestRetryPolicyBackoffSaturates: the delay is positive and
// non-decreasing in the attempt for every base, saturating at
// math.MaxInt instead of wrapping (at base 2^33 the unsaturated
// Backoff(31) would be 2^63, a negative int).
func TestRetryPolicyBackoffSaturates(t *testing.T) {
	for _, base := range []int{1, 1 << 20, 1 << 33, 1 << 40} {
		p := RetryPolicy{TimeoutTicks: 1, MaxRetries: 64, BackoffBase: base}
		prev := 0
		for a := 0; a <= 64; a++ {
			d := p.Backoff(a)
			if d <= 0 || d < prev {
				t.Fatalf("base %d: Backoff(%d) = %d after %d", base, a, d, prev)
			}
			prev = d
		}
		if base >= 1<<33 && p.Backoff(64) != math.MaxInt {
			t.Fatalf("base %d: Backoff(64) = %d, want saturation at MaxInt", base, p.Backoff(64))
		}
	}
}
