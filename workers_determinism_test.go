package himap_test

import (
	"bytes"
	"reflect"
	"testing"

	"himap"
)

// TestWorkersDeterminism pins the concurrency contract of the pipeline:
// the mapping HiMap emits is a pure function of (kernel, CGRA, Options
// minus Workers). Speculative scheme attempts always commit to the first
// success in sequential ranking order, and the systolic search merges its
// shards in enumeration order, so any Workers value must reproduce the
// Workers=1 configuration, bitstream, and (non-timing) statistics byte
// for byte — for every paper kernel, on both the cold path (fresh
// artifact memo) and the memoized path (recompiling against a memo warmed
// by the first run).
func TestWorkersDeterminism(t *testing.T) {
	for _, k := range himap.EvaluationKernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			cg := himap.DefaultCGRA(8, 8)

			// Reference: sequential, cold memo.
			r1, err := compile(k, cg, himap.Options{Workers: 1, Memo: himap.NewMemo()})
			if err != nil {
				t.Fatal(err)
			}
			j1 := configJSON(t, r1)
			b1, err := himap.EncodeBitstream(r1.Config)
			if err != nil {
				t.Fatal(err)
			}

			check := func(label string, opts himap.Options) {
				r, err := compile(k, cg, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !bytes.Equal(j1, configJSON(t, r)) {
					t.Fatalf("%s produced a different configuration than Workers=1", label)
				}
				b, err := himap.EncodeBitstream(r.Config)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !reflect.DeepEqual(b1, b) {
					t.Fatalf("%s produced a different bitstream than Workers=1", label)
				}
				// Every non-timing statistic and result field must agree too —
				// in particular Attempts, which proves the wave execution
				// committed to the same (sub-mapping, scheme) pair.
				if r1.Stats.Attempts != r.Stats.Attempts {
					t.Errorf("%s: Attempts %d vs %d", label, r1.Stats.Attempts, r.Stats.Attempts)
				}
				if r1.Stats.CanonicalNets != r.Stats.CanonicalNets {
					t.Errorf("%s: CanonicalNets %d vs %d", label, r1.Stats.CanonicalNets, r.Stats.CanonicalNets)
				}
				if r1.Stats.RouteRounds != r.Stats.RouteRounds {
					t.Errorf("%s: RouteRounds %d vs %d", label, r1.Stats.RouteRounds, r.Stats.RouteRounds)
				}
				if r1.IIB != r.IIB || r1.UniqueIters != r.UniqueIters || r1.Utilization != r.Utilization {
					t.Errorf("%s: result stats differ: IIB %d/%d unique %d/%d U %v/%v", label,
						r1.IIB, r.IIB, r1.UniqueIters, r.UniqueIters, r1.Utilization, r.Utilization)
				}
				if !reflect.DeepEqual(r1.Block, r.Block) {
					t.Errorf("%s: block %v vs %v", label, r1.Block, r.Block)
				}
			}

			// Cold path, parallel waves.
			check("Workers=4 cold", himap.Options{Workers: 4, Memo: himap.NewMemo()})

			// Memoized path: both worker counts recompile against one
			// shared memo warmed by a first compile, so the IDFG,
			// sub-mapping list, and ISDG all come from the cache.
			warm := himap.NewMemo()
			if _, err := compile(k, cg, himap.Options{Workers: 1, Memo: warm}); err != nil {
				t.Fatal(err)
			}
			check("Workers=1 memoized", himap.Options{Workers: 1, Memo: warm})
			check("Workers=4 memoized", himap.Options{Workers: 4, Memo: warm})
		})
	}
}

func configJSON(t *testing.T, r *himap.Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := himap.SaveConfig(r.Config, &b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestBaselineChainsReproducible pins the baseline's multi-chain mode:
// every simulated-annealing chain is seeded explicitly from (Seed, DFG
// size, chain index, II), so two runs with the same options — including
// Workers > 1, where chains race on the pool — must pick the same winning
// chain and emit identical configurations.
func TestBaselineChainsReproducible(t *testing.T) {
	k, err := himap.KernelByName("MVT")
	if err != nil {
		t.Fatal(err)
	}
	cg := himap.DefaultCGRA(4, 4)
	opts := himap.BaselineOptions{Seed: 7, Workers: 2}
	ra, err := compileBaseline(k, cg, k.UniformBlock(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := compileBaseline(k, cg, k.UniformBlock(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	var ja, jb bytes.Buffer
	if err := himap.SaveConfig(ra.Config, &ja); err != nil {
		t.Fatal(err)
	}
	if err := himap.SaveConfig(rb.Config, &jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatal("baseline multi-chain run is not reproducible for a fixed seed")
	}
}

// TestWorkersDeterminismFabrics extends the determinism contract to the
// non-default fabrics: torus links and the boundary-column memory layout
// must also be pure functions of (kernel, fabric, Options minus Workers),
// on both the cold and the memoized path.
func TestWorkersDeterminismFabrics(t *testing.T) {
	cases := []struct {
		kernel string
		fab    himap.Fabric
	}{
		{"GEMM", himap.Fabric{CGRA: himap.DefaultCGRA(8, 8), Topology: himap.TopoTorus}},
		{"ATAX", himap.Fabric{CGRA: himap.DefaultCGRA(8, 8), Topology: himap.TopoTorus}},
		{"FW", himap.Fabric{CGRA: himap.DefaultCGRA(8, 8), Topology: himap.TopoTorus, Mem: himap.MemBoundary}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.kernel+"/"+tc.fab.String(), func(t *testing.T) {
			k, err := himap.KernelByName(tc.kernel)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := compileFabric(k, tc.fab, himap.Options{Workers: 1, Memo: himap.NewMemo()})
			if err != nil {
				t.Fatal(err)
			}
			j1 := configJSON(t, r1)

			check := func(label string, opts himap.Options) {
				r, err := compileFabric(k, tc.fab, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !bytes.Equal(j1, configJSON(t, r)) {
					t.Fatalf("%s produced a different configuration than Workers=1", label)
				}
			}
			check("Workers=4 cold", himap.Options{Workers: 4, Memo: himap.NewMemo()})

			warm := himap.NewMemo()
			if _, err := compileFabric(k, tc.fab, himap.Options{Workers: 1, Memo: warm}); err != nil {
				t.Fatal(err)
			}
			check("Workers=1 memoized", himap.Options{Workers: 1, Memo: warm})
			check("Workers=4 memoized", himap.Options{Workers: 4, Memo: warm})
		})
	}
}

// finishSpan is the identity of one replicate or validate execution.
type finishSpan struct {
	Stage   string
	Attempt int
	Err     string
}

// compileFinishSpans compiles with a fresh memo and returns the result,
// the error, and the replicate/validate spans in emission order.
func compileFinishSpans(k *himap.Kernel, fab himap.Fabric, workers int) (*himap.Result, error, []finishSpan) {
	tc := himap.NewTraceCollector()
	res, err := compileFabric(k, fab, himap.Options{Workers: workers, Memo: himap.NewMemo(), Tracer: tc})
	var fin []finishSpan
	for _, s := range tc.Spans() {
		if s.Stage == "replicate" || s.Stage == "validate" {
			fin = append(fin, finishSpan{s.Stage, s.Attempt, s.Err})
		}
	}
	return res, err, fin
}

// TestWorkersFinishOnlyCommitted pins the wave-finish contract: attempts
// run speculatively only through route, and replicate and validate run
// in ranking order on the routed attempts of a wave until one commits.
// So at every Workers value a successful compile emits exactly one
// successful replicate span and one successful validate span, both for
// the committed attempt, and the finish spans — including those of
// routed attempts that failed replicate or validate and handed off to
// the next routed attempt — are identical to the sequential flow's.
func TestWorkersFinishOnlyCommitted(t *testing.T) {
	workers := []int{1, 2, 4}
	for _, k := range himap.EvaluationKernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			fab := himap.Fabric{CGRA: himap.DefaultCGRA(8, 8)}
			var ref []finishSpan
			for _, w := range workers {
				res, err, fin := compileFinishSpans(k, fab, w)
				if err != nil {
					t.Fatalf("Workers=%d: %v", w, err)
				}
				ok := map[string]int{}
				for _, s := range fin {
					if s.Err != "" {
						continue
					}
					ok[s.Stage]++
					if s.Attempt != res.Stats.Attempts {
						t.Errorf("Workers=%d: successful %s span for attempt %d, committed attempt %d",
							w, s.Stage, s.Attempt, res.Stats.Attempts)
					}
				}
				if ok["replicate"] != 1 || ok["validate"] != 1 {
					t.Errorf("Workers=%d: %d successful replicate and %d validate spans, want 1 each",
						w, ok["replicate"], ok["validate"])
				}
				if w == 1 {
					ref = fin
				} else if !reflect.DeepEqual(ref, fin) {
					t.Errorf("Workers=%d finish spans %v, Workers=1 %v", w, fin, ref)
				}
			}
		})
	}
}

// TestWorkersFinishFallThrough covers the hand-off path: a routed
// attempt that fails a finish stage hands off to the next routed attempt
// of its wave. FW on the 8x8 mesh routes an attempt that then fails
// replicate, and a later routed attempt of the same wave commits. Shrinking the configuration memory
// makes routed attempts fail validate (too many unique instructions per
// PE): at depth 4 GEMM falls through validate failures to a later
// success, and at depth 3 every FW attempt fails, so the aggregated
// CompileError must be identical for every Workers value.
func TestWorkersFinishFallThrough(t *testing.T) {
	kernel := func(name string) *himap.Kernel {
		k, err := himap.KernelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	depth := func(d int) himap.Fabric {
		cg := himap.DefaultCGRA(8, 8)
		cg.ConfigDepth = d
		return himap.Fabric{CGRA: cg}
	}
	cases := []struct {
		name      string
		k         *himap.Kernel
		fab       himap.Fabric
		failStage string // a finish stage some routed attempt must fail
		succeeds  bool
	}{
		{"FW replicate hand-off", kernel("FW"), depth(32), "replicate", true},
		{"GEMM validate hand-off", kernel("GEMM"), depth(4), "validate", true},
		{"FW all fail", kernel("FW"), depth(3), "replicate", false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var ref []finishSpan
			var refErr string
			refAttempts := 0
			for _, w := range []int{1, 2, 4} {
				res, err, fin := compileFinishSpans(tc.k, tc.fab, w)
				if (err == nil) != tc.succeeds {
					t.Fatalf("Workers=%d: err = %v, want success %v", w, err, tc.succeeds)
				}
				handOff := false
				for i, s := range fin {
					if s.Stage != tc.failStage || s.Err == "" {
						continue
					}
					// A failed finish hands off to the next routed attempt:
					// the following finish span belongs to a later attempt,
					// of the same wave at Workers > 1.
					if i+1 < len(fin) && fin[i+1].Attempt > s.Attempt &&
						(w == 1 || (s.Attempt-1)/w == (fin[i+1].Attempt-1)/w) {
						handOff = true
					}
				}
				if w == 1 {
					ref = fin
					if err != nil {
						refErr = err.Error()
					} else {
						refAttempts = res.Stats.Attempts
					}
				} else {
					if !reflect.DeepEqual(ref, fin) {
						t.Errorf("Workers=%d finish spans %v, Workers=1 %v", w, fin, ref)
					}
					if err != nil && err.Error() != refErr {
						t.Errorf("Workers=%d error\n%v\nWorkers=1 error\n%v", w, err, refErr)
					}
					if err == nil && res.Stats.Attempts != refAttempts {
						t.Errorf("Workers=%d committed attempt %d, Workers=1 %d", w, res.Stats.Attempts, refAttempts)
					}
				}
				if !handOff {
					t.Errorf("Workers=%d: no routed attempt failed %s and handed off within its wave", w, tc.failStage)
				}
			}
		})
	}
}
