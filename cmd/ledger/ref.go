package main

import (
	"crypto/sha256"
	"math"
	"runtime"
	"sync"
	"time"
)

// The machine this benchmark was calibrated on changes speed under its
// neighbours' load: a random-access memory walk ran up to 1.8x slower from
// one minute to the next, and every workload's times moved with it (README,
// "Calibration"). Each run therefore times a fixed reference kernel of its
// own, which shares no code with the system under test, and the gated
// timing metrics are scaled by refNominalMS / (the run's reference time):
// they read as if the machine had run the reference in refNominalMS. The
// raw times are reported next to them.

// refNominalMS is a round figure for the reference kernel's time on the
// calibration machine; it only sets the scale of the normalised metrics.
const refNominalMS = 2.0

// refScale is the factor that brings a time measured while the reference
// kernel took refMS to the reference speed.
func refScale(refMS float64) float64 { return refNominalMS / refMS }

// refWalk is the reference kernel's random-access buffer: 8 MiB, larger
// than the caches, so the walk is bound by memory latency.
var (
	refOnce sync.Once
	refWalk []uint64
	refData [64 << 10]byte
)

// refKernel runs the reference kernel on two goroutines, one per core of
// the calibration machine, and returns its time in milliseconds: the
// geometric mean of a compute part (SHA-256 over 64 KiB, 40 times) and a
// memory part (200,000 dependent random reads and writes in 4 MiB). It
// collects this process's garbage first, so that no collection of its own
// runs alongside the kernel and reads as a slower machine.
func refKernel() float64 {
	refOnce.Do(func() { refWalk = make([]uint64, 1<<20) })
	runtime.GC()
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				sha256.Sum256(refData[:])
			}
		}()
	}
	wg.Wait()
	compute := time.Since(t0)
	t1 := time.Now()
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(part []uint64, x uint64) {
			defer wg.Done()
			var acc uint64
			for i := 0; i < 200000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				j := int(x>>33) % len(part)
				acc += part[j]
				part[j] = acc
			}
		}(refWalk[k*len(refWalk)/2:(k+1)*len(refWalk)/2], uint64(k+1))
	}
	wg.Wait()
	memory := time.Since(t1)
	return math.Sqrt(float64(compute)*float64(memory)) / 1e6
}
