package main

import (
	"context"
	"sync"
	"time"

	"himap"
)

// compileTrace collects one compile's pipeline stage spans: wall time per
// stage summed over attempts, and the set of attempts that ran.
type compileTrace struct {
	mu       sync.Mutex
	stageNS  map[string]time.Duration
	attempts map[int]bool
}

func newCompileTrace() *compileTrace {
	return &compileTrace{stageNS: map[string]time.Duration{}, attempts: map[int]bool{}}
}

func (c *compileTrace) sink(s himap.TraceSpan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stageNS[s.Stage] += s.Wall
	if s.Attempt > 0 {
		c.attempts[s.Attempt] = true
	}
}

// tracedCompile is compileCold inside the benchmark's spans: a
// himap.CompileRequest span whose children are the pipeline's own stage
// spans, under the caller's parent span.
func tracedCompile(ctx context.Context, rec *recorder, parent, trace int64, label string, req himap.Request) (compileObs, *compileTrace) {
	ct := newCompileTrace()
	id := rec.newID()
	obs := compileCold(ctx, req, rec.stageTracer(id, trace, ct.sink))
	rec.add(id, parent, trace, "himap.CompileRequest", obs.start, obs.start.Add(obs.wall), map[string]string{"point": label})
	return obs, ct
}

// layerAcc accumulates the per-layer compile metrics over the traced
// passes of a run.
type layerAcc struct {
	passes    int
	stageNS   map[string]time.Duration
	attempts  int
	committed int
	memoHit   int64
	memoMiss  int64
	rounds    int
	nets      int
	unique    int
	mallocs   uint64
	gcs       uint64
	pause     time.Duration
	encodeMS  []float64
	bsBytes   []float64
}

func newLayerAcc() *layerAcc { return &layerAcc{stageNS: map[string]time.Duration{}} }

// add folds one traced compile into the accumulator.
func (a *layerAcc) add(obs compileObs, ct *compileTrace) {
	ct.mu.Lock()
	for s, d := range ct.stageNS {
		a.stageNS[s] += d
	}
	a.attempts += len(ct.attempts)
	ct.mu.Unlock()
	a.memoHit += obs.memoHit
	a.memoMiss += obs.memoMiss
	a.mallocs += obs.mallocs
	a.gcs += uint64(obs.gcs)
	a.pause += obs.pause
	if obs.err == nil {
		a.committed++
		a.rounds += obs.res.Stats.RouteRounds
		a.nets += obs.res.Stats.CanonicalNets
		a.unique += obs.res.UniqueIters
	}
}

// addEncode records one bitstream encode.
func (a *layerAcc) addEncode(d time.Duration, size int) {
	a.encodeMS = append(a.encodeMS, float64(d)/1e6)
	a.bsBytes = append(a.bsBytes, float64(size))
}

// set writes the per-pass layer metrics into o.
func (a *layerAcc) set(o *outcome) {
	if a.passes == 0 {
		return
	}
	n := float64(a.passes)
	for _, s := range stages {
		o.metrics["himap.stage."+s+".ms"] = float64(a.stageNS[s]) / 1e6 / n
	}
	o.metrics["himap.attempts.run"] = float64(a.attempts) / n
	o.metrics["himap.attempts.committed"] = float64(a.committed) / n
	if a.attempts > 0 {
		o.metrics["himap.attempts.useful_ratio"] = float64(a.committed) / float64(a.attempts)
	}
	if a.memoHit+a.memoMiss > 0 {
		o.metrics["himap.memo.hit_ratio"] = float64(a.memoHit) / float64(a.memoHit+a.memoMiss)
	}
	o.metrics["route.rounds"] = float64(a.rounds) / n
	o.metrics["route.canonical_nets"] = float64(a.nets) / n
	o.metrics["route.unique_iters"] = float64(a.unique) / n
	o.metrics["runtime.allocs"] = float64(a.mallocs) / n
	o.metrics["runtime.gc_cycles"] = float64(a.gcs) / n
	o.metrics["runtime.gc_pause_ms"] = float64(a.pause) / 1e6 / n
	o.metrics["arch.encode_ms"] = mean(a.encodeMS)
	o.metrics["arch.bitstream_bytes"] = mean(a.bsBytes)
}
