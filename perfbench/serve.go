package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"himap"
	"himap/internal/serve"
)

// serve-steady parameters.
const (
	serveRate     = 100.0 // requests per second, open loop
	newKeyShare   = 0.05  // share of requests carrying a key not seen before
	zipfExponent  = 1.0   // popularity skew of repeated keys
	serveReplicas = 2
	serveLimit    = 250 * time.Millisecond // slo_ratio's latency limit
	clientTimeout = 30 * time.Second
	// serveSetupReps: starting two replicas takes about a millisecond, so
	// many more repetitions go into setup_s's median than for the compile
	// workloads.
	serveSetupReps = 25
	// oracleReps is how many cold direct compiles of each key the gate
	// runs; compile_ms takes their median per key.
	oracleReps = 3
	// loopSegments is how many stretches the open loop runs in; the
	// pause after each (and one before the first) times loopRefReps runs
	// of the reference workload on the idle process (see calib.go).
	loopSegments = 20
	loopRefReps  = 2
)

// serveKernels and serveFabrics span the key universe: every Table-II
// kernel on every fabric shape ≤ 8×8 below, mesh and torus, all compiled
// by the himap mapper.
var (
	serveKernels = []string{"ADI", "ATAX", "BICG", "MVT", "GEMM", "SYRK", "FW", "TTM"}
	serveFabrics = func() []point {
		var fs []point
		for _, topo := range []string{"mesh", "torus"} {
			for _, sz := range [][2]int{{4, 4}, {5, 5}, {6, 6}, {7, 7}, {8, 8}, {4, 8}, {8, 4}} {
				fs = append(fs, point{Rows: sz[0], Cols: sz[1], Topo: topo})
			}
		}
		return fs
	}()
)

// serveUniverse is every key serve-steady can send, kernel-major.
func serveUniverse() []point {
	var pts []point
	for _, k := range serveKernels {
		for _, f := range serveFabrics {
			f.Kernel = k
			pts = append(pts, f)
		}
	}
	return pts
}

// planned is one request of the open-loop schedule.
type planned struct {
	Due     time.Duration `json:"due_ns"` // send time relative to the run's start
	Key     int           `json:"key"`    // index into the universe
	Replica int           `json:"replica"`
	New     bool          `json:"new"`
}

// introductionOrder returns the order in which the universe's keys first
// appear: rounds of one key per kernel, kernels shuffled within a round,
// and each kernel walking a seeded permutation of the fabrics from its
// own offset. Every stretch of the run therefore introduces a balanced
// mix of kernels and fabric sizes, whatever the seed.
func introductionOrder(rng *rand.Rand) []int {
	nk, nf := len(serveKernels), len(serveFabrics)
	fabs := rng.Perm(nf)
	order := make([]int, 0, nk*nf)
	for round := 0; round < nf; round++ {
		for _, k := range rng.Perm(nk) {
			order = append(order, k*nf+fabs[(round+k)%nf])
		}
	}
	return order
}

// makeSchedule generates the request sequence for a seed: n requests at
// serveRate, of which about newKeyShare introduce a key not seen before,
// evenly spaced so new keys arrive steadily; the rest repeat seen keys,
// the j-th introduced key with weight (j+1)^-zipfExponent. The same seed
// gives the same schedule.
func makeSchedule(seed int64, seconds float64) []planned {
	n := int(serveRate * seconds)
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	order := introductionOrder(rng)
	// Whole rounds only, so every run sends each kernel equally often as
	// a new key and ii_sum does not depend on the seed.
	nk := len(serveKernels)
	nNew := int(math.Round(newKeyShare*float64(n))) / nk * nk
	nNew = max(nk, min(nNew, len(order)))

	plan := make([]planned, n)
	var cum []float64 // cumulative popularity weight over the introduced keys
	next := 0
	for i := range plan {
		p := planned{Due: time.Duration(float64(i) / serveRate * float64(time.Second))}
		if next < nNew && i >= next*n/nNew {
			p.Key, p.New = order[next], true
			w := math.Pow(float64(next+1), -zipfExponent)
			if next > 0 {
				w += cum[next-1]
			}
			cum = append(cum, w)
			next++
		} else {
			u := rng.Float64() * cum[len(cum)-1]
			j := sort.Search(len(cum), func(j int) bool { return cum[j] > u })
			p.Key = order[min(j, len(cum)-1)]
		}
		p.Replica = rng.Intn(serveReplicas)
		plan[i] = p
	}
	return plan
}

// outcomeClass is how one request ended.
type outcomeClass string

const (
	classHit         outcomeClass = "hit"       // 200, served from the memory cache
	classStore       outcomeClass = "store"     // 200, served from the disk store
	classCoalesced   outcomeClass = "coalesced" // 200, waited on another request's compile
	classMiss        outcomeClass = "miss"      // 200, compiled for this request
	classRejected    outcomeClass = "rejected"  // 429 admission rejection
	classServerError outcomeClass = "5xx"
	classClientError outcomeClass = "4xx"
	classTransport   outcomeClass = "transport" // no response: connection error or timeout
	classUnknown     outcomeClass = "unknown"   // 200 without a known cache outcome
)

// classify maps a response to its outcome. Only the four 200 outcomes
// succeed; everything else, a 429 included, is a failure.
func classify(status int, cacheHeader string, err error) outcomeClass {
	switch {
	case err != nil:
		return classTransport
	case status == http.StatusTooManyRequests:
		return classRejected
	case status >= 500:
		return classServerError
	case status != http.StatusOK:
		return classClientError
	}
	switch c := outcomeClass(cacheHeader); c {
	case classHit, classStore, classCoalesced, classMiss:
		return c
	}
	return classUnknown
}

// succeeded reports whether c is a served 200.
func (c outcomeClass) succeeded() bool {
	return c == classHit || c == classStore || c == classCoalesced || c == classMiss
}

// isHit reports whether c was answered without compiling.
func (c outcomeClass) isHit() bool { return c == classHit || c == classStore }

// sent is one request's record.
type sent struct {
	class    outcomeClass
	latency  time.Duration // from due time to the last body byte
	late     time.Duration // how late the generator handed it to a client
	status   int
	peer     string
	bodyHash [32]byte
	err      error
}

// cluster is a set of in-process himapd replicas on loopback listeners,
// sharded on one consistent-hash ring.
type cluster struct {
	urls    []string
	servers []*http.Server
	wg      sync.WaitGroup
	dir     string
	once    sync.Once
}

// startCluster starts n replicas, each with its own disk store under
// dir, and returns once every replica answers /healthz.
func startCluster(dir string, n int, client *http.Client) (*cluster, error) {
	c := &cluster{dir: dir}
	var lns []net.Listener
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns = append(lns, ln)
		c.urls = append(c.urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		core, err := serve.New(serve.Config{
			Peers:    c.urls,
			Self:     c.urls[i],
			StoreDir: filepath.Join(dir, fmt.Sprintf("replica-%d", i)),
		})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			c.stop()
			return nil, err
		}
		hs := &http.Server{Handler: core.Handler()}
		c.servers = append(c.servers, hs)
		c.wg.Add(1)
		go func(ln net.Listener) {
			defer c.wg.Done()
			hs.Serve(ln) // returns http.ErrServerClosed on stop
		}(ln)
	}
	for _, u := range c.urls {
		if err := waitHealthy(client, u); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

func waitHealthy(client *http.Client, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica %s not healthy: %v", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes every replica, waits for their serve loops to return and
// removes their stores.
func (c *cluster) stop() {
	c.once.Do(func() {
		for _, hs := range c.servers {
			hs.Close()
		}
		c.wg.Wait()
		os.RemoveAll(c.dir)
	})
}

// metrics sums GET /metrics?format=json over the replicas.
func (c *cluster) metrics(client *http.Client) (serve.Snapshot, error) {
	var sum serve.Snapshot
	sum.Stages = map[string]serve.StageSnapshot{}
	for _, u := range c.urls {
		resp, err := client.Get(u + "/metrics?format=json")
		if err != nil {
			return sum, fmt.Errorf("metrics: %w", err)
		}
		var s serve.Snapshot
		err = json.NewDecoder(resp.Body).Decode(&s)
		resp.Body.Close()
		if err != nil {
			return sum, fmt.Errorf("decode metrics: %w", err)
		}
		sum.Requests += s.Requests
		sum.Compiles += s.Compiles
		sum.Rejected += s.Rejected
		sum.Forwarded += s.Forwarded
		sum.ForwardFallbacks += s.ForwardFallbacks
		for name, st := range s.Stages {
			acc := sum.Stages[name]
			acc.Count += st.Count
			acc.TotalMS += st.TotalMS
			sum.Stages[name] = acc
		}
	}
	return sum, nil
}

// job is one request handed to a client worker, with the wall time it
// was due and how late the generator handed it over.
type job struct {
	i    int
	due  time.Time
	late time.Duration
}

// openLoop sends plan against urls from workers client goroutines (at
// most that many requests in flight) and records each request. A
// request's latency runs from its due time, so a stall that delays later
// sends is charged to them. The plan runs in segments consecutive
// stretches; after each one every reply is awaited and pause, when set,
// runs while the replicas are idle. A segment's due times count from
// the moment it starts, so a pause is never charged to a request. rec,
// when set, records spans for odd-indexed requests.
func openLoop(plan []planned, bodies [][]byte, urls []string, workers, segments int, pause func(), client *http.Client, rec *recorder) []sent {
	out := make([]sent, len(plan))
	jobs := make(chan job, len(plan)) // one slot per send: the generator never blocks
	var wg, inflight sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One response buffer per worker: reading each ~250 KB body
			// into a fresh slice would make the client, not the server,
			// the process's main source of garbage.
			var buf bytes.Buffer
			for j := range jobs {
				out[j.i] = send(client, urls, plan[j.i], bodies, j, rec, &buf)
				inflight.Done()
			}
		}()
	}
	segments = max(1, min(segments, len(plan)))
	for seg := 0; seg < segments; seg++ {
		lo, hi := seg*len(plan)/segments, (seg+1)*len(plan)/segments
		start := time.Now()
		for i := lo; i < hi; i++ {
			due := start.Add(plan[i].Due - plan[lo].Due)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			inflight.Add(1)
			jobs <- job{i: i, due: due, late: time.Since(due)}
		}
		inflight.Wait()
		if pause != nil {
			pause()
		}
	}
	close(jobs)
	wg.Wait()
	return out
}

// send performs one request of the open loop and records it.
func send(client *http.Client, urls []string, p planned, bodies [][]byte, j job, rec *recorder, buf *bytes.Buffer) sent {
	sentAt := time.Now()
	r := sent{late: j.late}
	resp, err := client.Post(urls[p.Replica]+"/v1/compile", "application/json", bytes.NewReader(bodies[p.Key]))
	buf.Reset()
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
		r.peer = resp.Header.Get("X-Himap-Peer")
		r.class = classify(resp.StatusCode, resp.Header.Get("X-Himap-Cache"), err)
	} else {
		r.class = classify(0, "", err)
	}
	done := time.Now()
	r.err = err
	r.latency = done.Sub(j.due)
	if r.class.succeeded() {
		r.bodyHash = sha256.Sum256(buf.Bytes())
	}
	if rec != nil && j.i%2 == 1 {
		trace := rec.newID()
		root := rec.newID()
		rec.record(root, trace, "client.wait", j.due, sentAt, nil)
		rec.record(root, trace, "http.POST /v1/compile", sentAt, done, map[string]string{"replica": fmt.Sprint(p.Replica), "peer": r.peer})
		rec.add(root, 0, trace, "bench.request", j.due, done, map[string]string{
			"key": fmt.Sprint(p.Key), "outcome": string(r.class), "status": fmt.Sprint(r.status),
		})
	}
	return r
}

// runServe measures serve-steady: two in-process himapd replicas on the
// shard ring under an open loop at serveRate, then the correctness gate
// against direct compiles of every key sent.
func runServe(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	out := newOutcome()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	workers := runtime.NumCPU()
	transport := &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: clientTimeout}
	universe := serveUniverse()

	// Set-up: generate the schedule and bodies, start the replicas and
	// wait for /healthz. Repeated; the last cluster serves the run.
	var setups []float64
	var plan []planned
	var bodies [][]byte
	var cl *cluster
	for rep := 0; rep < serveSetupReps; rep++ {
		// Tearing down the previous repetition's replicas is not set-up.
		if cl != nil {
			cl.stop()
		}
		t0 := time.Now()
		if rep == 0 {
			t0 = cfg.start
		}
		plan = makeSchedule(cfg.seed, cfg.seconds)
		bodies = bodies[:0]
		for _, p := range universe {
			b, err := p.wire()
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, b)
		}
		var err error
		cl, err = startCluster(probeDir(fmt.Sprintf("cluster%d", rep)), serveReplicas, client)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer cl.stop() // stop is idempotent; the success path stops before the oracle pass
	hash, err := hashJSON(struct {
		Universe []point   `json:"universe"`
		Plan     []planned `json:"plan"`
	}{universe, plan})
	if err != nil {
		return nil, err
	}
	out.seqHash = hash
	out.params["rate_per_s"] = serveRate
	out.params["requests"] = len(plan)
	out.params["universe"] = len(universe)
	out.params["new_key_share"] = newKeyShare
	out.params["zipf_exponent"] = zipfExponent
	out.params["replicas"] = serveReplicas
	out.params["client_workers"] = workers
	out.params["limit_ms"] = serveLimit.Milliseconds()
	out.params["setup_reps"] = serveSetupReps
	out.params["loop_segments"] = loopSegments

	// Miss latencies are scaled to reference time by reference runs in
	// short pauses of the loop, while the replicas are idle (see
	// calib.go); hit latencies stay raw.
	var loopCal calibrator
	loopCal.sample(loopRefReps)
	reqs := openLoop(plan, bodies, cl.urls, workers, loopSegments, func() { loopCal.sample(loopRefReps) }, client, rec)
	snap, err := cl.metrics(client)
	if err != nil {
		return nil, err
	}
	// The replicas are done; stopping them now frees their caches, so the
	// oracle pass below compiles on a small heap like the compile
	// workloads.
	cl.stop()

	// Outcome accounting and the body-identity half of the gate: every
	// 200 body of a key must equal the key's first body (compared by
	// SHA-256).
	counts := map[outcomeClass]int{}
	firstHash := map[int][32]byte{}
	for i, r := range reqs {
		if _, ok := firstHash[plan[i].Key]; !ok && r.class.succeeded() {
			firstHash[plan[i].Key] = r.bodyHash
		}
	}
	var all, hits, misses, hitsTraced, late []float64
	withinLimit := 0
	for i, r := range reqs {
		out.attempted++
		counts[r.class]++
		ms := float64(r.latency) / 1e6
		late = append(late, float64(r.late)/1e6)
		if !r.class.succeeded() {
			out.fail("request %d (%s): %s status=%d err=%v", i, universe[plan[i].Key], r.class, r.status, r.err)
			continue
		}
		if r.bodyHash != firstHash[plan[i].Key] {
			out.fail("request %d (%s): body differs from the key's first body", i, universe[plan[i].Key])
			continue
		}
		if cfg.trace && i%2 == 1 {
			if r.class.isHit() {
				hitsTraced = append(hitsTraced, ms)
			}
			continue
		}
		all = append(all, ms)
		if r.class.isHit() {
			hits = append(hits, ms)
		} else {
			misses = append(misses, ms)
		}
		if r.latency <= serveLimit {
			withinLimit++
		}
	}

	// The oracle half of the gate: compile every key sent directly, cold,
	// and require the served body to equal serve.EncodeResponse of it.
	// The same pass gives the workload's compile metrics.
	keys := make([]int, 0, len(firstHash))
	for k := range firstHash {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	layers := newLayerAcc()
	var walls, allocs, validate []float64
	directMS := map[int]float64{} // direct cold compile wall per key
	var iiSum, util, sweep float64
	var refs []*himap.Result
	var reqBodies [][]byte
	// The oracle pass runs on an idle process, like a compile workload,
	// so its times are scaled to reference time the same way, from
	// reference runs between its compiles.
	var oracleCal calibrator
	for n, k := range keys {
		if n%4 == 0 {
			oracleCal.sample(1)
		}
		p := universe[k]
		wire, err := serve.DecodeRequest(bytes.NewReader(bodies[k]))
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", p, err)
		}
		req, err := serve.BuildRequest(wire, serve.Config{})
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", p, err)
		}
		// oracleReps cold compiles; the first is traced in a traced run
		// and is the mapping the served body is checked against, and
		// every later one must reproduce its bitstream.
		var res *himap.Result
		var refHash [32]byte
		var keyWalls, keyBytes []float64
		for rep := 0; rep < oracleReps; rep++ {
			out.attempted++
			var obs compileObs
			if cfg.trace && rep == 0 {
				var ct *compileTrace
				obs, ct = tracedCompile(ctx, rec, 0, rec.newID(), p.String(), req)
				layers.add(obs, ct)
			} else {
				obs = compileCold(ctx, req, nil)
			}
			if obs.err != nil {
				out.fail("oracle compile %s: %v", p, obs.err)
				continue
			}
			h, size, enc, err := bitstreamHash(obs.res)
			switch {
			case err != nil:
				out.fail("%s: %v", p, err)
			case res == nil:
				res, refHash = obs.res, h
				if cfg.trace {
					layers.addEncode(enc, size)
				}
			case h != refHash:
				out.fail("%s: bitstream hash drifted between direct compiles", p)
			}
			keyWalls = append(keyWalls, float64(obs.wall)/1e6)
			keyBytes = append(keyBytes, float64(obs.bytes))
		}
		if res == nil {
			continue
		}
		directMS[k] = median(keyWalls)
		walls = append(walls, directMS[k])
		allocs = append(allocs, median(keyBytes))
		sweep += directMS[k] / 1e3
		iiSum += float64(res.Config.II)
		util += res.Utilization
		want, err := serve.EncodeResponse(res)
		if err != nil {
			out.fail("oracle encode %s: %v", p, err)
			continue
		}
		if sha256.Sum256(want) != firstHash[k] {
			out.fail("served body of %s differs from the direct compile", p)
		}
		d, err := checkMapping(res, cfg.seed)
		if err != nil {
			out.fail("gate %s: %v", p, err)
		}
		validate = append(validate, float64(d)/1e6)
		if cfg.trace {
			refs = append(refs, res)
			reqBodies = append(reqBodies, bodies[k])
		}
	}
	if cfg.trace {
		layers.passes = 1
	}

	m := out.metrics
	m["setup_s"] = median(setups)
	m["compile_ms"] = geomean(walls) * oracleCal.scale()
	m["sweep_s"] = sweep * oracleCal.scale()
	m[refMetric] = median(oracleCal.ms)
	m["alloc_mb"] = geomean(allocs) / 1e6
	m["ii_sum"] = iiSum
	if len(walls) > 0 {
		m["utilization"] = util / float64(len(walls))
	}
	m["ok_ratio"] = float64(out.attempted-out.failed) / float64(out.attempted)
	sentN := len(reqs)
	if cfg.trace {
		sentN = (len(reqs) + 1) / 2 // the untraced half
	}
	m["slo_ratio"] = float64(withinLimit) / float64(sentN)
	m["req_ms_p50"] = median(all)
	m["miss_ms_p50"] = median(misses) * loopCal.scale()
	m["serve.miss_ms_p90"] = quantile(misses, 0.9) * loopCal.scale()
	m[loopRefMetric] = median(loopCal.ms)

	for _, c := range []outcomeClass{classHit, classStore, classCoalesced, classMiss} {
		m["serve.outcome."+string(c)] = float64(counts[c])
	}
	if n := counts[classHit] + counts[classStore] + counts[classCoalesced] + counts[classMiss]; n > 0 {
		m["serve.cache.hit_ratio"] = float64(counts[classHit]+counts[classStore]) / float64(n)
	}
	m["serve.hit_ms_p50"] = median(hits)
	m["serve.hit_ms_p99"] = quantile(hits, 0.99)
	var stageMS float64
	for _, st := range snap.Stages {
		stageMS += st.TotalMS
	}
	if snap.Compiles > 0 {
		m["serve.compile_ms"] = stageMS / float64(snap.Compiles)
	}
	// What a miss costs beyond its compile: each compiled request's
	// latency minus the direct cold compile of its key.
	var overhead []float64
	for i, r := range reqs {
		if r.class == classMiss && (!cfg.trace || i%2 == 0) {
			overhead = append(overhead, float64(r.latency)/1e6-directMS[plan[i].Key])
		}
	}
	m["serve.overhead_ms_p50"] = median(overhead)
	m["serve.rejected"] = float64(snap.Rejected)
	m["shard.forwarded_ratio"] = float64(snap.Forwarded) / float64(len(reqs))
	m["shard.fallbacks"] = float64(snap.ForwardFallbacks)
	m["client.late_ms_p99"] = quantile(late, 0.99)

	hd, md, ad := summarize(hits), summarize(misses), summarize(all)
	out.printf("requests sent=%d outcomes=%v", len(reqs), counts)
	out.printf("all  ms: n=%d p50=%.3f p%g=%.3f (%d beyond)", ad.N, ad.P50, ad.TailP, ad.Tail, ad.Beyond)
	out.printf("hit  ms: n=%d p50=%.3f p%g=%.3f (%d beyond)", hd.N, hd.P50, hd.TailP, hd.Tail, hd.Beyond)
	out.printf("miss ms: n=%d p50=%.3f p%g=%.3f (%d beyond)", md.N, md.P50, md.TailP, md.Tail, md.Beyond)
	out.printf("loop reference: n=%d median=%.3f ms; miss latencies are scaled by %.4f (lines above are raw)",
		len(loopCal.ms), median(loopCal.ms), loopCal.scale())
	out.printf("server: requests=%d compiles=%d forwarded=%d fallbacks=%d rejected=%d; setups=%v",
		snap.Requests, snap.Compiles, snap.Forwarded, snap.ForwardFallbacks, snap.Rejected, setups)

	if cfg.trace {
		layers.set(out)
		m["sim.validate_ms"] = mean(validate)
		m["trace.overhead_ms"] = median(hitsTraced) - median(hits)
		probe, err := probeCodec(rec, reqBodies, refs, probeDir("store-probe"))
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
