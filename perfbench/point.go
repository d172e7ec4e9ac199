package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"himap"
	"himap/internal/serve"
	"himap/internal/store"
)

// point is one compile input: a Table-II kernel on one fabric.
type point struct {
	Kernel string `json:"kernel"`
	Rows   int    `json:"rows"`
	Cols   int    `json:"cols"`
	Topo   string `json:"topology"`
}

func (p point) String() string {
	return fmt.Sprintf("%s@%dx%d/%s", p.Kernel, p.Rows, p.Cols, p.Topo)
}

// wire returns the point's himapd request body.
func (p point) wire() ([]byte, error) {
	body, err := json.Marshal(serve.CompileRequestWire{
		SchemaVersion: serve.SchemaVersion,
		Kernel:        p.Kernel,
		Fabric:        serve.FabricSpec{Rows: p.Rows, Cols: p.Cols, Topology: p.Topo},
	})
	if err != nil {
		return nil, fmt.Errorf("encode request %s: %w", p, err)
	}
	return body, nil
}

// request returns the point's direct compile request (default options,
// the way a CLI run compiles).
func (p point) request() (himap.Request, error) {
	k, err := himap.KernelByName(p.Kernel)
	if err != nil {
		return himap.Request{}, err
	}
	topo, err := himap.ParseTopology(p.Topo)
	if err != nil {
		return himap.Request{}, err
	}
	fab := himap.DefaultFabric(p.Rows, p.Cols)
	fab.Topology = topo
	return himap.Request{Kernel: k, Fabric: fab}, nil
}

// compileObs is one cold compile with what it cost.
type compileObs struct {
	res      *himap.Result
	err      error
	start    time.Time
	wall     time.Duration
	bytes    uint64 // heap bytes allocated during the compile
	mallocs  uint64
	gcs      uint32
	pause    time.Duration
	memoHit  int64
	memoMiss int64
}

// compileCold runs one cold compile the way a CLI process starts it: a
// fresh artifact cache and a collected heap, so no compile pays for the
// previous one's garbage. Only the CompileRequest call is inside the
// timed interval; the collection and the allocation counters are
// outside it.
func compileCold(ctx context.Context, req himap.Request, tr himap.Tracer) compileObs {
	memo := himap.NewMemo()
	req.Options.Memo = memo
	req.Options.Tracer = tr
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := himap.CompileRequest(ctx, req)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	hits, misses := memo.Stats()
	return compileObs{
		res: res, err: err, start: t0, wall: wall,
		bytes:   m1.TotalAlloc - m0.TotalAlloc,
		mallocs: m1.Mallocs - m0.Mallocs,
		gcs:     m1.NumGC - m0.NumGC,
		pause:   time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		memoHit: hits, memoMiss: misses,
	}
}

// bitstreamHash encodes a mapping's configuration-memory image and
// returns its SHA-256, its size and the encoder's wall time.
func bitstreamHash(res *himap.Result) ([32]byte, int, time.Duration, error) {
	t0 := time.Now()
	bs, err := himap.EncodeBitstream(res.Config)
	d := time.Since(t0)
	if err != nil {
		return [32]byte{}, 0, d, fmt.Errorf("encode bitstream: %w", err)
	}
	raw := serve.BitstreamBytes(bs)
	return sha256.Sum256(raw), len(raw), d, nil
}

// checkMapping is the per-mapping correctness gate: the mapping's II
// must not undercut the exact mapper's static lower bound, and the
// mapping must reproduce the golden executor on the cycle-accurate
// simulator. It returns the simulator's wall time.
func checkMapping(res *himap.Result, seed int64) (time.Duration, error) {
	lb, err := himap.ExactLowerBound(res.Kernel, res.Fabric, res.Block)
	if err != nil {
		return 0, fmt.Errorf("lower bound: %w", err)
	}
	if res.Config.II < lb {
		return 0, fmt.Errorf("II %d below the exact lower bound %d", res.Config.II, lb)
	}
	t0 := time.Now()
	if err := himap.Validate(res, 2, seed); err != nil {
		return time.Since(t0), fmt.Errorf("simulator: %w", err)
	}
	return time.Since(t0), nil
}

// codecProbe measures the wire codec and the disk store on a workload's
// own request bodies and results: decode time per request, encode time
// and size per response, and store write and read time per response.
type codecProbe struct {
	decodeUS, encodeMS, bodyKB, putMS, getMS float64
}

func probeCodec(rec *recorder, reqBodies [][]byte, results []*himap.Result, dir string) (codecProbe, error) {
	var p codecProbe
	const decodeReps = 50
	var decodes []float64
	for _, b := range reqBodies {
		t0 := time.Now()
		for i := 0; i < decodeReps; i++ {
			if _, err := serve.DecodeRequest(bytes.NewReader(b)); err != nil {
				return p, fmt.Errorf("decode request: %w", err)
			}
		}
		end := time.Now()
		rec.record(0, rec.newID(), "serve.DecodeRequest", t0, end, map[string]string{"reps": fmt.Sprint(decodeReps)})
		decodes = append(decodes, float64(end.Sub(t0))/1e3/decodeReps)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return p, fmt.Errorf("store dir: %w", err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return p, err
	}
	var encodes, sizes, puts, gets []float64
	for i, res := range results {
		trace := rec.newID()
		t0 := time.Now()
		body, err := serve.EncodeResponse(res)
		t1 := time.Now()
		if err != nil {
			return p, fmt.Errorf("encode response: %w", err)
		}
		rec.record(0, trace, "serve.EncodeResponse", t0, t1, nil)
		key := fmt.Sprintf("probe-%d", i)
		if err := st.Put(key, body); err != nil {
			return p, fmt.Errorf("store put: %w", err)
		}
		t2 := time.Now()
		got, ok := st.Get(key)
		t3 := time.Now()
		if !ok || !bytes.Equal(got, body) {
			return p, fmt.Errorf("store get of %s did not return the stored body", key)
		}
		rec.record(0, trace, "store.Put", t1, t2, nil)
		rec.record(0, trace, "store.Get", t2, t3, nil)
		encodes = append(encodes, float64(t1.Sub(t0))/1e6)
		sizes = append(sizes, float64(len(body))/1024)
		puts = append(puts, float64(t2.Sub(t1))/1e6)
		gets = append(gets, float64(t3.Sub(t2))/1e6)
	}
	p.decodeUS, p.encodeMS, p.bodyKB = mean(decodes), mean(encodes), mean(sizes)
	p.putMS, p.getMS = mean(puts), mean(gets)
	return p, nil
}

// setCodecMetrics records a probe under the per-layer names.
func (o *outcome) setCodecMetrics(p codecProbe) {
	o.metrics["wire.decode_us"] = p.decodeUS
	o.metrics["wire.encode_ms"] = p.encodeMS
	o.metrics["wire.body_kb"] = p.bodyKB
	o.metrics["store.put_ms"] = p.putMS
	o.metrics["store.get_ms"] = p.getMS
}

// probeDir returns a fresh per-process scratch directory under outDir.
func probeDir(name string) string {
	return filepath.Join(outDir, fmt.Sprintf("%s-%d", name, os.Getpid()))
}
