package main

import (
	"math"
	"sync"
	"time"
)

// The box the benchmark runs on is shared: its speed drifts by tens of
// percent within minutes as neighbours come and go, which would swamp
// any change worth measuring. So a fixed calibration kernel runs before
// and after every timed run (and every set-up), and a run's time t is
// reported as t·(calibRef/c)^e, c being the kernel's mean time on
// either side and e the workload's sensitivity to the box's speed:
// seconds on the box at its reference speed. The kernel
// runs one goroutine per core and times their mean, because a 1W run
// also uses the second core (for the garbage collector) and may move
// between cores. The kernel is the benchmark's own code — random reads
// from a table beyond L2 mixed with xorshift arithmetic, like the
// placement kernels — so it is the same on every commit and cannot
// absorb a change to the library.

// calibRef is the kernel's duration at the reference speed, about its
// median on a quiet 2-core Intel Xeon box (2 MiB L2 per core, 105 MiB L3).
const calibRef = 0.02

// calibIters is the number of kernel steps per goroutine.
const calibIters = 1 << 22

// calibCores is the number of goroutines the kernel runs on: the
// benchmark's largest worker count.
const calibCores = 2

// calibTable is the kernel's 8 MiB working set.
var calibTable = func() []uint32 {
	t := make([]uint32, 1<<21)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		x = xorshift(x)
		t[i] = uint32(x)
	}
	return t
}()

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// calibSink keeps the kernel's result observable.
var calibSink [calibCores]uint64

// calibrate runs the kernel on calibCores goroutines at once and returns
// their mean time in seconds.
func calibrate() float64 {
	var wg sync.WaitGroup
	var took [calibCores]time.Duration
	for w := range took {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			x := uint64(0x2545F4914F6CDD1D) + uint64(w)
			mask := uint64(len(calibTable) - 1)
			var acc uint64
			for i := 0; i < calibIters; i++ {
				x = xorshift(x)
				acc += uint64(calibTable[x&mask])
			}
			calibSink[w] = acc
			took[w] = time.Since(t0)
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range took {
		sum += d
	}
	return sum.Seconds() / calibCores
}

// atReference scales seconds measured while the kernel took c seconds
// to the box's reference speed, for a workload whose run time goes as
// the kernel's time to the power exp.
func atReference(seconds, c, exp float64) float64 {
	return seconds * math.Pow(calibRef/c, exp)
}
