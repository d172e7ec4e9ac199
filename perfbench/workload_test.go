package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestScheduleDeterministic(t *testing.T) {
	u := len(serveUniverse())
	a := makeSchedule(7, 25)
	b := makeSchedule(7, 25)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	ha, err := hashJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := hashJSON(b)
	hc, _ := hashJSON(makeSchedule(8, 25))
	if ha != hb {
		t.Fatal("same seed gave different sequence hashes")
	}
	if ha == hc {
		t.Fatal("different seeds gave the same sequence hash")
	}

	if len(a) != 2500 {
		t.Fatalf("25 s at %g req/s: got %d requests", serveRate, len(a))
	}
	seen := map[int]bool{}
	for i, p := range a {
		if p.Key < 0 || p.Key >= u || p.Replica < 0 || p.Replica >= serveReplicas {
			t.Fatalf("request %d out of range: %+v", i, p)
		}
		if p.New == seen[p.Key] {
			t.Fatalf("request %d: new=%v but key seen=%v", i, p.New, seen[p.Key])
		}
		seen[p.Key] = true
		if i > 0 && p.Due <= a[i-1].Due {
			t.Fatalf("due times not increasing at %d", i)
		}
	}
	if !a[0].New {
		t.Fatal("the first request must introduce a key")
	}
	if len(seen) != u {
		t.Fatalf("a 25 s run introduces %d of %d keys, want all", len(seen), u)
	}
	// New keys arrive steadily: every fifth of the run introduces about a
	// fifth of them.
	for q := 0; q < 5; q++ {
		n := 0
		for _, p := range a[q*500 : (q+1)*500] {
			if p.New {
				n++
			}
		}
		if n < u/5-2 || n > u/5+2 {
			t.Errorf("fifth %d introduces %d keys, want about %d", q, n, u/5)
		}
	}
	// Every round of introductions holds one key per kernel, so the key
	// mix over time does not depend on the seed.
	var intro []int
	for _, p := range a {
		if p.New {
			intro = append(intro, p.Key)
		}
	}
	universe := serveUniverse()
	for r := 0; r+len(serveKernels) <= len(intro); r += len(serveKernels) {
		kernels := map[string]bool{}
		for _, k := range intro[r : r+len(serveKernels)] {
			kernels[universe[k].Kernel] = true
		}
		if len(kernels) != len(serveKernels) {
			t.Fatalf("introductions %d..%d cover kernels %v, want all %d", r, r+len(serveKernels)-1, kernels, len(serveKernels))
		}
	}
}

func TestCompilePointsDeterministic(t *testing.T) {
	spec := compileSpecs["compile-suite"]
	a, b, c := compilePoints(spec, 1), compilePoints(spec, 1), compilePoints(spec, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different point orders")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same point order")
	}
	if len(a) != 16 {
		t.Fatalf("compile-suite has %d points, want 16", len(a))
	}
	set := func(ps []point) map[point]bool {
		m := map[point]bool{}
		for _, p := range ps {
			m[p] = true
		}
		return m
	}
	if !reflect.DeepEqual(set(a), set(c)) {
		t.Fatal("the seed changed the point set, not only its order")
	}
}

func TestClassify(t *testing.T) {
	transport := errors.New("connection refused")
	cases := []struct {
		status int
		header string
		err    error
		want   outcomeClass
		ok     bool
	}{
		{200, "hit", nil, classHit, true},
		{200, "store", nil, classStore, true},
		{200, "coalesced", nil, classCoalesced, true},
		{200, "miss", nil, classMiss, true},
		{200, "", nil, classUnknown, false},
		{200, "warm", nil, classUnknown, false},
		{429, "", nil, classRejected, false},
		{500, "", nil, classServerError, false},
		{504, "miss", nil, classServerError, false},
		{422, "miss", nil, classClientError, false},
		{400, "", nil, classClientError, false},
		{0, "", transport, classTransport, false},
		{200, "hit", transport, classTransport, false},
	}
	for _, c := range cases {
		got := classify(c.status, c.header, c.err)
		if got != c.want || got.succeeded() != c.ok {
			t.Errorf("classify(%d, %q, %v) = %s (ok=%v), want %s (ok=%v)", c.status, c.header, c.err, got, got.succeeded(), c.want, c.ok)
		}
	}
	if !classHit.isHit() || !classStore.isHit() || classCoalesced.isHit() || classMiss.isHit() {
		t.Error("hit and store answer without compiling; coalesced and miss waited on a compile")
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalogue the command prints in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalogue %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func TestRunRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "compile-suite", "--trace", "2"},
		{"--workload", "compile-suite", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr, time.Now()); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("run(%v) printed a result on a usage error", args)
		}
	}
}
