package sim

import (
	"errors"
	"strings"
	"testing"
)

// probeExec is a test executor over two task kinds of eight indices:
// the tasks listed in panics (keyed {kind, idx}) panic, every other
// task counts that it ran.
type probeExec struct {
	panics map[[2]int]bool
	ran    [2][8]int
}

func (x *probeExec) exec(kind, idx int) error {
	if x.panics[[2]int{kind, idx}] {
		panic("probe")
	}
	x.ran[kind][idx]++
	return nil
}

// startProbe starts a pool of workers and one phase on it over x. Kind
// 1's errors are wrapped with a label, kind 0's pass through.
func startProbe(x *probeExec, workers int) (*pool, *phase) {
	p := &pool{}
	p.start(workers, 0)
	return p, &phase{pool: p, x: x, engine: "probe", names: []taskName{{task: "first"}, {task: "second", label: "second shard"}}}
}

// TestPhaseReportsLowestFailingTask: when several tasks of one phase
// panic, the barrier reports the one submitted first — whatever order
// the workers finish in, and across the kinds a mixed phase submits —
// while every other task of the phase still runs.
func TestPhaseReportsLowestFailingTask(t *testing.T) {
	defer leakCheck(t)()
	x := &probeExec{panics: map[[2]int]bool{{1, 5}: true, {1, 2}: true, {0, 6}: true, {0, 1}: true}}
	p, ph := startProbe(x, 4)
	defer p.close()
	const rounds = 50
	for i := 0; i < rounds; i++ {
		ph.rep = i
		for idx := 0; idx < 8; idx++ {
			ph.submit(1, idx)
		}
		for idx := 0; idx < 8; idx++ {
			ph.submit(0, idx)
		}
		err := ph.wait()
		var perr *PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("round %d: err = %v, want *PanicError", i, err)
		}
		if perr.Engine != "probe" || perr.Task != "second" || perr.Index != 2 || perr.Rep != i {
			t.Fatalf("round %d: provenance %+v, want task second/2 of rep %d", i, perr, i)
		}
		if !strings.Contains(err.Error(), "sim: probe second shard 2: ") {
			t.Fatalf("round %d: error %q is not wrapped with its kind's label", i, err)
		}
		// A phase of the unlabelled kind: the lower of its two failures,
		// unwrapped.
		err = ph.run(0, 8)
		if !errors.As(err, &perr) || perr.Task != "first" || perr.Index != 1 || err != error(perr) {
			t.Fatalf("round %d: single-kind phase err = %v, want the bare panic of task first/1", i, err)
		}
	}
	for kind := range x.ran {
		for idx, n := range x.ran[kind] {
			want := rounds * (2 - kind) // kind 0 runs in both phases of a round
			if x.panics[[2]int{kind, idx}] {
				want = 0
			}
			if n != want {
				t.Errorf("task %d/%d ran %d times, want %d", kind, idx, n, want)
			}
		}
	}
}

// TestPhaseDispatchAllocFree: submitting a phase's tasks and passing
// its barrier allocates nothing — tasks travel by value.
func TestPhaseDispatchAllocFree(t *testing.T) {
	x := &probeExec{}
	p, ph := startProbe(x, 2)
	defer p.close()
	allocs := testing.AllocsPerRun(100, func() {
		if err := ph.run(0, 8); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("one phase dispatch allocates %v times, want 0", allocs)
	}
}

// TestPhasePanicLeavesNoGoroutine: a phase whose every task panics still
// reaches its barrier, and closing the pool strands no worker.
func TestPhasePanicLeavesNoGoroutine(t *testing.T) {
	defer leakCheck(t)()
	x := &probeExec{panics: map[[2]int]bool{}}
	for idx := 0; idx < 8; idx++ {
		x.panics[[2]int{0, idx}] = true
	}
	p, ph := startProbe(x, 3)
	err := ph.run(0, 8)
	p.close()
	var perr *PanicError
	if !errors.As(err, &perr) || perr.Task != "first" || perr.Index != 0 {
		t.Fatalf("err = %v, want the panic of task first/0", err)
	}
}
