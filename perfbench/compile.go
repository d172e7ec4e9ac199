package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"himap"
)

// compileSpec is a compile workload's fixed point set and latency limit.
type compileSpec struct {
	kernels []string
	sizes   []int
	limit   time.Duration // slo_ratio's per-compile latency limit
}

var compileSpecs = map[string]compileSpec{
	// Front stages, multi-round routing and FW's speculation: every
	// Table-II kernel at the two small fabric sizes.
	"compile-suite": {
		kernels: []string{"ADI", "ATAX", "BICG", "MVT", "GEMM", "SYRK", "FW", "TTM"},
		sizes:   []int{8, 16},
		limit:   500 * time.Millisecond,
	},
	// Array-proportional stages (replicate, isdg-build, validate) and the
	// speculative second attempt: the sweep kernels at 64×64.
	"compile-64": {
		kernels: []string{"ADI", "ATAX", "BICG", "MVT"},
		sizes:   []int{64},
		limit:   2 * time.Second,
	},
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// compilePoints returns the workload's points in the seed's visit order.
func compilePoints(spec compileSpec, seed int64) []point {
	var pts []point
	for _, n := range spec.sizes {
		for _, k := range spec.kernels {
			pts = append(pts, point{Kernel: k, Rows: n, Cols: n, Topo: "mesh"})
		}
	}
	order := rand.New(rand.NewSource(seed)).Perm(len(pts))
	out := make([]point, len(pts))
	for i, j := range order {
		out[i] = pts[j]
	}
	return out
}

// pointRun is everything measured for one point.
type pointRun struct {
	p        point
	req      himap.Request
	ref      *himap.Result // first successful compile: the reference mapping
	refHash  [32]byte
	walls    []float64 // ms, untraced timed compiles
	traced   []float64 // ms, traced timed compiles
	bytes    []float64 // heap bytes per untraced timed compile
	timedOK  int       // untraced timed compiles within the limit
	timedAll int
}

// runCompile measures a compile workload: set-up (input generation plus
// one untimed cold pass, repeated), timed cold passes until the duration
// is spent, then the correctness gate on every distinct mapping.
func runCompile(cfg runConfig) (*outcome, error) {
	spec := compileSpecs[cfg.workload]
	ctx := context.Background()
	out := newOutcome()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}

	// Set-up: generate the inputs and compile every point once, cold and
	// untimed. The first pass's mappings are the references every later
	// compile must reproduce bit for bit.
	var runs []*pointRun
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = cfg.start
		}
		pts := compilePoints(spec, cfg.seed)
		if rep == 0 {
			for _, p := range pts {
				req, err := p.request()
				if err != nil {
					return nil, fmt.Errorf("point %s: %w", p, err)
				}
				runs = append(runs, &pointRun{p: p, req: req})
			}
		}
		for _, r := range runs {
			out.attempted++
			obs := compileCold(ctx, r.req, nil)
			if obs.err != nil {
				out.fail("set-up compile %s: %v", r.p, obs.err)
				continue
			}
			h, _, _, err := bitstreamHash(obs.res)
			switch {
			case err != nil:
				out.fail("set-up %s: %v", r.p, err)
			case r.ref == nil:
				r.ref, r.refHash = obs.res, h
			case h != r.refHash:
				out.fail("set-up %s: bitstream hash differs from the first compile", r.p)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		out.cal.sample(1)
	}
	pts := make([]point, len(runs))
	for i, r := range runs {
		pts[i] = r.p
	}
	hash, err := hashJSON(struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Points   []point `json:"points"`
	}{cfg.workload, cfg.seed, pts})
	if err != nil {
		return nil, err
	}
	out.seqHash = hash
	out.params["points"] = len(pts)
	out.params["limit_ms"] = spec.limit.Milliseconds()
	out.params["workers"] = "default (GOMAXPROCS)"
	out.params["setup_reps"] = setupReps

	// Timed passes. A traced run alternates untraced and traced passes,
	// so the tracing overhead is measured against the same points under
	// the same conditions.
	layers := newLayerAcc()
	var sweeps []float64
	loopStart := time.Now()
	for pass := 0; pass < 3 || time.Since(loopStart).Seconds() < cfg.seconds; pass++ {
		traced := cfg.trace && pass%2 == 1
		var sweepMS float64
		for _, r := range runs {
			out.attempted++
			var obs compileObs
			var ct *compileTrace
			var trace, opID int64
			opStart := time.Now()
			if traced {
				trace, opID = rec.newID(), rec.newID()
				obs, ct = tracedCompile(ctx, rec, opID, trace, r.p.String(), r.req)
			} else {
				obs = compileCold(ctx, r.req, nil)
			}
			ms := float64(obs.wall) / 1e6
			if obs.err != nil {
				out.fail("compile %s: %v", r.p, obs.err)
				if !traced {
					r.timedAll++
				}
				continue
			}
			h, size, encode, err := bitstreamHash(obs.res)
			if traced {
				rec.record(opID, trace, "himap.EncodeBitstream", obs.start.Add(obs.wall), obs.start.Add(obs.wall+encode), nil)
				layers.add(obs, ct)
				layers.addEncode(encode, size)
				rec.add(opID, 0, trace, "bench.compile", opStart, time.Now(), map[string]string{"point": r.p.String()})
				r.traced = append(r.traced, ms)
			} else {
				sweepMS += ms
				r.walls = append(r.walls, ms)
				r.bytes = append(r.bytes, float64(obs.bytes))
				r.timedAll++
			}
			switch {
			case err != nil:
				out.fail("%s: %v", r.p, err)
			case h != r.refHash:
				out.fail("%s: bitstream hash drifted from the first compile", r.p)
			case !traced && obs.wall <= spec.limit:
				r.timedOK++
			}
		}
		if traced {
			layers.passes++
		} else {
			sweeps = append(sweeps, sweepMS/1e3)
		}
		out.cal.sample(1)
	}

	// Correctness gate, outside the timed region: each distinct mapping
	// against the exact lower bound and the golden executor.
	var validate []float64
	for _, r := range runs {
		if r.ref == nil {
			continue
		}
		out.attempted++
		d, err := checkMapping(r.ref, cfg.seed)
		if err != nil {
			out.fail("gate %s: %v", r.p, err)
		}
		validate = append(validate, float64(d)/1e6)
		if rec != nil {
			end := time.Now()
			rec.record(0, rec.newID(), "himap.Validate", end.Add(-d), end, map[string]string{"point": r.p.String()})
		}
	}

	// End-to-end metrics.
	var medWalls, medBytes, allWalls []float64
	var iiSum, util float64
	timedOK, timedAll := 0, 0
	for _, r := range runs {
		timedOK += r.timedOK
		timedAll += r.timedAll
		allWalls = append(allWalls, r.walls...)
		medWalls = append(medWalls, median(r.walls))
		medBytes = append(medBytes, median(r.bytes))
		if r.ref != nil {
			iiSum += float64(r.ref.Config.II)
			util += r.ref.Utilization / float64(len(runs))
		}
		out.printf("point %-22s II=%-3d compile_ms median=%.3f n=%d", r.p, iiOf(r.ref), median(r.walls), len(r.walls))
	}
	m := out.metrics
	m[refMetric] = median(out.cal.ms)
	m["setup_s"] = median(setups)
	m["compile_ms"] = geomean(medWalls)
	m["sweep_s"] = median(sweeps)
	m["alloc_mb"] = geomean(medBytes) / 1e6
	m["ii_sum"] = iiSum
	m["utilization"] = util
	m["ok_ratio"] = float64(out.attempted-out.failed) / float64(out.attempted)
	if timedAll > 0 {
		m["slo_ratio"] = float64(timedOK) / float64(timedAll)
	}
	// Every operation here is a compile, so the request and miss medians
	// are compile_ms: medians per point combined by geometric mean. A
	// median of the pooled walls would sit between two points'
	// distributions and jump between them from run to run.
	m["req_ms_p50"] = m["compile_ms"]
	m["miss_ms_p50"] = m["compile_ms"]
	dist := summarize(allWalls)
	out.printf("compile wall ms: n=%d p50=%.3f p%g=%.3f (%d beyond); passes=%d setups=%v",
		dist.N, dist.P50, dist.TailP, dist.Tail, dist.Beyond, len(sweeps), setups)

	if cfg.trace {
		layers.set(out)
		m["sim.validate_ms"] = mean(validate)
		var tracedMed []float64
		for _, r := range runs {
			tracedMed = append(tracedMed, median(r.traced))
		}
		m["trace.overhead_ms"] = geomean(tracedMed) - geomean(medWalls)
		var bodies [][]byte
		var refs []*himap.Result
		for _, r := range runs {
			b, err := r.p.wire()
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, b)
			if r.ref != nil {
				refs = append(refs, r.ref)
			}
		}
		probe, err := probeCodec(rec, bodies, refs, probeDir("store-probe"))
		if err != nil {
			return nil, err
		}
		out.setCodecMetrics(probe)
		path, err := rec.write(outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err != nil {
			return nil, err
		}
		out.tracePath = path
	}
	return out, nil
}

func iiOf(res *himap.Result) int {
	if res == nil {
		return 0
	}
	return res.Config.II
}
