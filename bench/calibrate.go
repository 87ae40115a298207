package main

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"time"
)

// The reference host is a shared 2-vCPU VM whose speed moves by up to 2×
// over seconds to minutes (README, "Host noise"), more than any bound
// BENCHMARK.json may set. So the harness times a fixed kernel of its own —
// dense float64 multiply, SHA-256 and a cache-missing walk, on every CPU
// at once, about 10 ms — between the pieces of every cycle all through a
// run, and reports the run's timings and rates at reference host speed:
// multiplied by calibrationRefMS ÷ the kernel's median time over the run.
// The value as measured is printed and stored beside every scaled one, and
// bench/spreads.json holds the spreads of both, which is the case for
// scaling. The kernel shares no code with the program under test, so a
// change to the program cannot move it; a change may not edit it either
// (it is part of the benchmark).

// calibrationRefMS defines reference host speed: the speed at which the
// kernel, timed between the pieces of a run, takes this long (its median
// on the undisturbed reference host at the seed commit). It only fixes the
// scale of the reported values: it cancels in a spread and in any
// comparison of two runs, so on another host it needs no change.
const calibrationRefMS = 11.0

const (
	calDim   = 96       // matrix side: three 72 KB matrices, cache resident
	calWalk  = 1 << 22  // walk table entries: 16 MB, not cache resident
	calSteps = 12 << 10 // walk steps per round, about as long as the round's multiplies
	calReps  = 3
)

// calibrator holds the kernel's working set, allocated once per process
// (pointer-free, so it costs the collector nothing to keep).
type calibrator struct {
	a, b, c [][]float64 // per CPU, flat calDim×calDim
	walk    []uint32
	block   []byte
	cpus    int

	ms []float64 // the samples taken so far
}

func newCalibrator(cpus int) *calibrator {
	k := &calibrator{cpus: cpus, walk: make([]uint32, calWalk), block: make([]byte, 64<<10)}
	for w := 0; w < cpus; w++ {
		a, b := make([]float64, calDim*calDim), make([]float64, calDim*calDim)
		for i := range a {
			a[i], b[i] = float64(i%17)/17, float64(i%13)/13
		}
		k.a, k.b, k.c = append(k.a, a), append(k.b, b), append(k.c, make([]float64, calDim*calDim))
	}
	// One cycle through the whole table in a fixed pseudo-random order
	// (an LCG with full period modulo a power of two).
	x := uint32(1)
	for i := 0; i < calWalk; i++ {
		next := (x*1664525 + 1013904223) & (calWalk - 1)
		k.walk[x] = next
		x = next
	}
	for i := range k.block {
		k.block[i] = byte(i)
	}
	return k
}

var calSink atomic.Uint64 // keeps the kernel's results live

// once runs the kernel on every CPU at once and returns the wall time in
// milliseconds.
func (k *calibrator) once() float64 {
	var wg sync.WaitGroup
	t := time.Now()
	for w := 0; w < k.cpus; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a, b, c := k.a[w], k.b[w], k.c[w]
			acc := uint64(0)
			for rep := 0; rep < calReps; rep++ {
				for pass := 0; pass < 2; pass++ {
					for i := 0; i < calDim; i++ {
						row := c[i*calDim : (i+1)*calDim]
						for j := range row {
							row[j] = 0
						}
						for l := 0; l < calDim; l++ {
							ail, bl := a[i*calDim+l], b[l*calDim:(l+1)*calDim]
							for j, v := range bl {
								row[j] += ail * v
							}
						}
					}
				}
				for pass := 0; pass < 8; pass++ {
					sum := sha256.Sum256(k.block)
					acc += uint64(sum[0])
				}
				x := uint32(w*7919+rep) & (calWalk - 1)
				for s := 0; s < calSteps; s++ {
					x = k.walk[x]
				}
				acc += uint64(x) + uint64(c[rep])
			}
			calSink.Add(acc)
		}(w)
	}
	wg.Wait()
	return float64(time.Since(t).Nanoseconds()) / 1e6
}

// sample times the kernel once more.
func (k *calibrator) sample() { k.ms = append(k.ms, k.once()) }

// speed is the factor that scales a timing of this run to reference host
// speed, from the median of the run's kernel samples. The reported
// timings are medians over the same stretch of time, so when the host
// spends part of a run disturbed both medians change sides together; and
// a kernel sample that met the program's own collector does not count,
// as it would in a mean. Over forty runs the median left the smaller
// spread on most metrics (README, Repeatability).
func (k *calibrator) speed() float64 { return calibrationRefMS / median(k.ms) }
