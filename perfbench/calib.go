package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// The benchmark runs on shared machines whose speed drifts by ±10% over
// tens of seconds: neighbours, frequency scaling, cache and memory
// contention. On the compile workloads the drift moves the compiler's
// times and a fixed reference workload together, so their times are
// scaled by refNominalMS over the reference workload's median in the
// same run: they read as on a machine where the reference takes
// refNominalMS. The reference is the benchmark's own code and runs only
// between compile passes, while the program is idle, so a change to the
// program cannot move it. The raw times and the reference median are
// printed beside the results.
//
// On serve-steady the oracle pass (direct compiles on an idle process,
// after the replicas stop) is scaled by reference runs between its
// compiles, and the open loop's miss latencies by reference runs in
// short pauses of the loop, while the replicas are idle. A miss is
// compute-bound, like the reference: across runs on a shared 2-core
// machine the raw miss median moved with the loop's reference median,
// and scaling narrowed the spread across seeds from 0.10–0.42 to
// 0.08–0.24 (README.md). Hit latencies are dominated by moving the body
// over loopback, which the reference does not track (scaling them
// widened their spread), so they stay raw.
const refNominalMS = 22.0

// refSink keeps the reference workload's results live.
var refSink int

// refWorkload is the fixed reference: the mix of work the compiler
// does — small allocations, map inserts, string formatting, JSON
// encoding and decoding, sorting — with a two-goroutine parallel part.
func refWorkload() {
	type doc struct {
		A []int            `json:"a"`
		M map[string]int   `json:"m"`
		S []string         `json:"s"`
		N []map[string]int `json:"n"`
	}
	rng := rand.New(rand.NewSource(1))
	d := doc{M: map[string]int{}}
	for i := 0; i < 2500; i++ {
		d.A = append(d.A, rng.Intn(1<<20))
		d.M[fmt.Sprint("k", i)] = i
		d.S = append(d.S, fmt.Sprint("s", rng.Intn(1000)))
		d.N = append(d.N, map[string]int{"x": i, "y": 2 * i})
	}
	b, err := json.Marshal(d)
	if err != nil {
		panic(err) // a map/slice document always encodes
	}
	var e doc
	if err := json.Unmarshal(b, &e); err != nil {
		panic(err) // it decodes what it just encoded
	}
	sort.Ints(e.A)
	sort.Strings(e.S)
	done := make(chan int, 2) // one slot per worker
	for g := 1; g <= 2; g++ {
		go func(g int) {
			m := map[int]int{}
			for i := 0; i < 80000; i++ {
				m[i*g+i] += i
			}
			done <- len(m)
		}(g)
	}
	refSink += len(b) + e.A[0] + <-done + <-done
}

// calibrator collects reference-workload timings over a run.
type calibrator struct {
	ms []float64
}

// sample times the reference workload n times. The collector is off
// while it runs, so its time does not depend on the size of the heap
// the program left behind.
func (c *calibrator) sample(n int) {
	for i := 0; i < n; i++ {
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		t0 := time.Now()
		refWorkload()
		c.ms = append(c.ms, float64(time.Since(t0))/1e6)
		debug.SetGCPercent(gc)
	}
}

// scale is the factor that turns this run's raw times into reference
// times; 1 when the run took no reference samples.
func (c *calibrator) scale() float64 {
	m := median(c.ms)
	if m <= 0 {
		return 1
	}
	return refNominalMS / m
}
