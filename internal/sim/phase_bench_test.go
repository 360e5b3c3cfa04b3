package sim

import (
	"sync/atomic"
	"testing"
)

// The phase-barrier benchmark: one phase of barrierTasks tasks, each
// the same fixed integer work of about 1.3 µs on a 2-core x86 box —
// the size of one shard's share of a cluster-serve tick — so ns/op is
// the cost of one barrier plus the work, and helper-share is the
// fraction of the tasks the woken helper ran. At 2W a share well below
// 0.5 means the helper wakes too late to take half the work, and the
// barrier costs about one wake-up.
const (
	barrierTasks = 64
	barrierSpin  = 640
)

// barrierExec is the benchmark's executor: it spins, stores each
// task's result in a padded slot of its own, and counts the tasks run
// off the calling goroutine.
type barrierExec struct {
	out [barrierTasks]struct {
		v uint64
		_ [56]byte
	}
	helped atomic.Int64
}

func (x *barrierExec) exec(_, idx, worker int) error {
	v := uint64(idx) + 1
	for i := 0; i < barrierSpin; i++ {
		v ^= v << 13
		v ^= v >> 7
		v ^= v << 17
	}
	x.out[idx].v = v
	if worker != 0 {
		x.helped.Add(1)
	}
	return nil
}

func benchmarkPhaseBarrier(b *testing.B, workers int) {
	x := &barrierExec{}
	ph := &phase{x: x, engine: "bench", names: []taskName{{task: "spin"}}}
	ph.start(workers, barrierTasks)
	defer ph.close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ph.run(0, barrierTasks); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(x.helped.Load())/float64(b.N*barrierTasks), "helper-share")
}

func BenchmarkPhaseBarrier1W(b *testing.B) { benchmarkPhaseBarrier(b, 1) }
func BenchmarkPhaseBarrier2W(b *testing.B) { benchmarkPhaseBarrier(b, 2) }
