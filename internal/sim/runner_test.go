package sim

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
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

func (x *probeExec) exec(kind, idx, _ int) error {
	if x.panics[[2]int{kind, idx}] {
		panic("probe")
	}
	x.ran[kind][idx]++
	return nil
}

// startProbe starts a phase of workers over x, sized for the probe's
// widest phase (both kinds, 16 tasks). Kind 1's errors are wrapped with
// a label, kind 0's pass through.
func startProbe(x executor, workers int) *phase {
	ph := &phase{x: x, engine: "probe", names: []taskName{{task: "first"}, {task: "second", label: "second shard"}}}
	ph.start(workers, 16)
	return ph
}

// TestPhaseReportsLowestFailingTask: when several tasks of one phase
// panic, the barrier reports the one submitted first — whatever order
// the workers claim and finish them in, and across the kinds a mixed
// phase submits — while every other task of the phase still runs.
func TestPhaseReportsLowestFailingTask(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testPhaseReportsLowestFailingTask(t, workers)
		})
	}
}

func testPhaseReportsLowestFailingTask(t *testing.T, workers int) {
	defer leakCheck(t)()
	x := &probeExec{panics: map[[2]int]bool{{1, 5}: true, {1, 2}: true, {0, 6}: true, {0, 1}: true}}
	ph := startProbe(x, workers)
	defer ph.close()
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

// subProbe is a test executor whose kind-0 tasks run two sub-steps,
// kinds 1 and 2: task 3 panics in its second sub-step, task 5 returns
// an error from its first.
type subProbe struct{ sub [8]int }

func (x *subProbe) exec(_, idx, _ int) error {
	x.sub[idx] = 1
	if idx == 5 {
		return errors.New("probe")
	}
	x.sub[idx] = 2
	if idx == 3 {
		panic("probe")
	}
	return nil
}

func (x *subProbe) subStep(kind, idx int) int {
	if kind == 0 {
		return x.sub[idx]
	}
	return kind
}

// TestPhaseNamesSubStep: a failing task of a subStepper is reported
// under the sub-step it was in — its PanicError task name, and the
// label its error is wrapped with.
func TestPhaseNamesSubStep(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		x := &subProbe{}
		ph := &phase{x: x, engine: "probe", names: []taskName{{"task", "task shard"}, {"first", "first shard"}, {"second", "second shard"}}}
		ph.start(workers, 8)
		err := ph.run(0, 8)
		var perr *PanicError
		if !errors.As(err, &perr) || perr.Task != "second" || perr.Index != 3 {
			t.Fatalf("workers=%d: err = %v, want the panic of sub-step second in task 3", workers, err)
		}
		if !strings.Contains(err.Error(), "sim: probe second shard 3: ") {
			t.Fatalf("workers=%d: error %q is not wrapped with the sub-step's label", workers, err)
		}
		err = ph.run(0, 3)
		if err != nil {
			t.Fatalf("workers=%d: tasks 0-2 failed: %v", workers, err)
		}
		ph.submit(0, 5)
		if err = ph.wait(); err == nil || err.Error() != "sim: probe first shard 5: probe" {
			t.Fatalf("workers=%d: err = %v, want the error of sub-step first in task 5", workers, err)
		}
		ph.close()
	}
}

// TestPhaseDispatchAllocFree: submitting a phase's tasks and passing
// its barrier allocates nothing — the task list is sized at start,
// workers claim its slots from an atomic counter, and waking a helper
// sends an empty token.
func TestPhaseDispatchAllocFree(t *testing.T) {
	x := &probeExec{}
	ph := startProbe(x, 2)
	defer ph.close()
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
	ph := startProbe(x, 3)
	err := ph.run(0, 8)
	ph.close()
	var perr *PanicError
	if !errors.As(err, &perr) || perr.Task != "first" || perr.Index != 0 {
		t.Fatalf("err = %v, want the panic of task first/0", err)
	}
}

// goid returns the calling goroutine's id, parsed from the header line
// of its stack trace ("goroutine N [running]:").
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, err := strconv.ParseInt(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// callerProbe records, for every task it runs, the goroutine that ran
// it and the goroutine count at that moment.
type callerProbe struct {
	ids   []int64
	count []int
}

func (x *callerProbe) exec(_, _, _ int) error {
	x.ids = append(x.ids, goid())
	x.count = append(x.count, runtime.NumGoroutine())
	return nil
}

// TestPhaseOneWorkerRunsOnCaller: a one-worker phase is the calling
// goroutine alone — start launches no goroutine, every task of a
// phase, a mixed batch and an inline step runs on the caller, and the
// goroutine count never moves above its value before start.
func TestPhaseOneWorkerRunsOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	x := &callerProbe{}
	ph := startProbe(x, 1)
	if ph.wake != nil {
		t.Fatal("one-worker phase made a wake channel")
	}
	if err := ph.run(0, 8); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 4; idx++ {
		ph.submit(1, idx)
		ph.submit(0, idx)
	}
	if err := ph.wait(); err != nil {
		t.Fatal(err)
	}
	if err := ph.inline(1); err != nil {
		t.Fatal(err)
	}
	during := runtime.NumGoroutine()
	ph.close()
	after := runtime.NumGoroutine()

	if len(x.ids) != 17 {
		t.Fatalf("%d tasks ran, want 17", len(x.ids))
	}
	caller := goid()
	for i, id := range x.ids {
		if id != caller {
			t.Errorf("task %d ran on goroutine %d, want the caller %d", i, id, caller)
		}
		if x.count[i] > before {
			t.Errorf("task %d saw %d goroutines, %d before start", i, x.count[i], before)
		}
	}
	if during > before || after > before {
		t.Errorf("goroutines: %d before start, %d after run, %d after close", before, during, after)
	}
}

// claimProbe records, per worker slot, the slots it ran (each task's
// index is its slot) and how often each slot ran; the listed slots
// panic. Each worker appends only to its own list, and every slot's
// counter has one writer per phase.
type claimProbe struct {
	panics map[int]bool
	by     [][]int
	runs   [64]int
}

func (x *claimProbe) exec(_, idx, worker int) error {
	x.by[worker] = append(x.by[worker], idx)
	x.runs[idx]++
	if x.panics[idx] {
		panic("probe")
	}
	return nil
}

// TestPhaseTwoEndedClaim: the caller (worker 0) claims slots upward
// from 0 and the helpers claim downward from the last slot, so worker
// 0 runs a prefix of the batch in ascending order and each helper a
// descending run of what is left — over repeated phases of every
// width, each wide one after a one-task phase, at any worker count.
// Every slot runs exactly once, and with failures at both ends the
// lowest failing slot is reported. The assertions hold for any
// interleaving of the workers, so they do not depend on timing.
func TestPhaseTwoEndedClaim(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer leakCheck(t)()
			x := &claimProbe{}
			ph := &phase{x: x, engine: "probe", names: []taskName{{task: "claim"}}}
			ph.start(workers, 64)
			defer ph.close()
			x.by = make([][]int, ph.workers())
			// check runs one phase of width tasks, failing at fail, and
			// checks the claim order and the error it reports.
			check := func(round, width int, fail ...int) {
				x.panics = map[int]bool{}
				for _, f := range fail {
					x.panics[f] = true
				}
				for w := range x.by {
					x.by[w] = x.by[w][:0]
				}
				x.runs = [64]int{}
				err := ph.run(0, width)
				for slot, n := range x.runs[:width] {
					if n != 1 {
						t.Fatalf("round %d width %d: slot %d ran %d times", round, width, slot, n)
					}
				}
				for slot, w0 := range x.by[0] {
					if w0 != slot {
						t.Fatalf("round %d width %d: worker 0 ran slots %v, want 0, 1, 2, … in order", round, width, x.by[0])
					}
				}
				for w, slots := range x.by[1:] {
					for i := 1; i < len(slots); i++ {
						if slots[i] >= slots[i-1] {
							t.Fatalf("round %d width %d: helper %d ran slots %v, want them descending", round, width, w+1, slots)
						}
					}
				}
				var perr *PanicError
				switch {
				case len(fail) == 0 && err != nil:
					t.Fatalf("round %d width %d: %v", round, width, err)
				case len(fail) > 0 && (!errors.As(err, &perr) || perr.Index != slices.Min(fail)):
					t.Fatalf("round %d width %d: err = %v, want the panic of slot %d", round, width, err, slices.Min(fail))
				}
			}
			for round := 0; round < 20; round++ {
				for _, width := range []int{0, 1, 2, 3, 64} {
					if width > 1 {
						check(round, 1)
					}
					check(round, width)
					if width > 1 {
						check(round, width, 0, width-1)
						check(round, width, width-1, width/2)
					}
				}
			}
		})
	}
}
