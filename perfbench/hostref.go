package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// Host-speed reference. On a VM that shares its host, the speed of the
// program's allocation-heavy code drifts with the neighbours' load: IS-5 on
// one fixed graph took 44-90 ms in consecutive 2-second windows of one run,
// with the thread's CPU time within 2% of its wall time, under 1% steal
// time and no page faults. So neither CPU time nor longer runs cancel it.
// A fixed allocation-heavy kernel run in the same windows drifts with it:
// IS-5's time over the kernel's stayed within 5.9-8.6 in those windows.
// Every end-to-end time is therefore scaled by refQuietMS over the kernel's
// time around the op: it reads as the time the op would take on the host
// when the kernel takes refQuietMS. The kernel is the benchmark's own code,
// so a change to the program moves the scaled times as much as the raw
// ones; the raw figures are printed beside the scaled ones.
const (
	// refQuietMS is the kernel's time on a quiet 2-vCPU Xeon VM.
	refQuietMS = 6.5
	// refReps kernel runs make one burst; the burst reads as their median.
	refReps = 5
	// roundLen is how long a run measures between two bursts.
	roundLen = time.Second
)

type refNode struct {
	key         int
	left, right *refNode
}

// refKernel inserts 20000 fixed pseudo-random keys into an unbalanced
// pointer tree and a map: allocation and pointer chasing, like the solvers.
func refKernel() int {
	rng := rand.New(rand.NewSource(1))
	var root *refNode
	m := map[int]int{}
	for i := 0; i < 20000; i++ {
		k := rng.Intn(1 << 20)
		p := &root
		for *p != nil {
			if k < (*p).key {
				p = &(*p).left
			} else {
				p = &(*p).right
			}
		}
		*p = &refNode{key: k}
		m[k] = i
	}
	return len(m)
}

// hostRef times kernel bursts between the rounds of a run. Burst k runs
// before round k, so round k's scale uses the bursts on both sides of it.
type hostRef struct {
	bursts []float64 // median kernel ms per burst
	// gc is the GC and total CPU the bursts used, left out of gc.cpu_frac.
	gc gcCPU
}

// burst runs the kernel refReps times and records their median time. Each
// time runs one kernel per P at once, so a workload that keeps every P busy
// (serve-par) is scaled by the speed of all of them: a vCPU lost to steal
// time slows the burst as it slows the load.
func (h *hostRef) burst() {
	g0 := readGCCPU()
	xs := make([]float64, refReps)
	for i := range xs {
		begin := time.Now()
		var wg sync.WaitGroup
		for p := runtime.GOMAXPROCS(0); p > 1; p-- {
			wg.Add(1)
			//reschedvet:ignore goleak joined by the wg.Wait below
			go func() {
				defer wg.Done()
				refKernel()
			}()
		}
		refKernel()
		wg.Wait()
		xs[i] = since(begin)
	}
	g1 := readGCCPU()
	h.gc.gc += g1.gc - g0.gc
	h.gc.total += g1.total - g0.total
	h.bursts = append(h.bursts, median(xs))
}

// scale is the factor for round k, which lies between bursts k and k+1.
func (h *hostRef) scale(k int) float64 {
	b := h.bursts[k]
	if k+1 < len(h.bursts) {
		b = (b + h.bursts[k+1]) / 2
	}
	return refQuietMS / b
}
