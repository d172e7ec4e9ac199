// Command perfbench is the repository's benchmark: one command, three
// named workloads, every output checked against independent oracles.
//
//	go run . --workload compile-suite --seed 1 --seconds 20 --trace 0
//
// It times calls into the public surface only (himap.CompileRequest,
// himap.EncodeBitstream, himap.Validate, himap.ExactLowerBound, the
// himapd handler over loopback HTTP, the wire codec and the disk store)
// and prints, as its last line, one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). README.md
// defines every workload and metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// outDir holds everything a run leaves behind (traces, store
// directories), relative to the checkout root the command runs from.
const outDir = ".bench_build/perfbench"

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	start    time.Time // process start, the first set-up's origin
}

// outcome is what a workload returns: operation counts, the metric
// values it measured, and the human-readable report lines.
type outcome struct {
	attempted int
	failed    int
	failures  []string // the first few failure descriptions
	metrics   map[string]float64
	params    map[string]any // workload parameters for the provenance stamp
	seqHash   string         // hash of the generated point or request sequence
	report    []string
	tracePath string
	cal       calibrator // reference-workload timings; time metrics are scaled by cal.scale()
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, params: map[string]any{}}
}

// fail counts one failed operation and keeps its description.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) printf(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"compile-suite": runCompile,
	"compile-64":    runCompile,
	"serve-steady":  runServe,
}

func main() {
	start := time.Now()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, start))
}

// run executes one invocation and returns the exit code: 0 when every
// check passed, 1 when a check failed or the run could not complete, 2
// on a usage error.
func run(args []string, stdout, stderr io.Writer, start time.Time) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: compile-suite | compile-64 | serve-steady")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 25, "measurement duration in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, start: start}
	out, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := emit(stdout, cfg, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if out.failed > 0 {
		for _, f := range out.failures {
			fmt.Fprintf(stderr, "perfbench: FAIL %s\n", f)
		}
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the provenance stamp, the report lines and the result
// line. The result carries exactly the catalogue's end-to-end metrics
// (untraced run) or per-layer metrics (traced run); a layer the
// workload does not exercise reads 0.
func emit(w io.Writer, cfg runConfig, out *outcome) error {
	set := endToEnd
	if cfg.trace {
		set = perLayer
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	scale := out.cal.scale()
	for _, m := range set {
		v, ok := out.metrics[m.Name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not measure end-to-end metric %s", cfg.workload, m.Name)
		}
		if timeUnits[m.Unit] && m.Name != refMetric && m.Name != loopRefMetric {
			v *= scale
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload %s attempted no operation", cfg.workload)
	}
	prov, err := json.Marshal(provenance(cfg, out))
	if err != nil {
		return fmt.Errorf("encode provenance: %w", err)
	}
	fmt.Fprintf(w, "provenance %s\n", prov)
	for _, line := range out.report {
		fmt.Fprintln(w, line)
	}
	if len(out.cal.ms) > 0 {
		fmt.Fprintf(w, "reference workload: n=%d median=%.3f ms; times below are scaled by %.4f (lines above are raw)\n",
			len(out.cal.ms), median(out.cal.ms), scale)
	}
	for _, m := range set {
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	fmt.Fprintf(w, "operations attempted=%d succeeded=%d failed=%d\n", out.attempted, out.attempted-out.failed, out.failed)
	if out.tracePath != "" {
		fmt.Fprintf(w, "trace %s\n", out.tracePath)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// refMetric reports the reference workload's raw median, unscaled.
const refMetric = "bench.ref_ms"

// loopRefMetric reports serve-steady's reference median from the pauses
// of its open loop, unscaled.
const loopRefMetric = "bench.loop_ref_ms"

// timeUnits are the units of metrics scaled to reference time.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true}

// provenance stamps a result with what it was measured on and from.
func provenance(cfg runConfig, out *outcome) map[string]any {
	p := map[string]any{
		"workload":       cfg.workload,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds,
		"trace":          cfg.trace,
		"go":             runtime.Version(),
		"goos":           runtime.GOOS,
		"goarch":         runtime.GOARCH,
		"num_cpu":        runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"vcs_revision":   "unknown",
		"vcs_modified":   "unknown",
		"params":         out.params,
		"sequence_hash":  out.seqHash,
		"ref_nominal_ms": refNominalMS,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["vcs_revision"] = s.Value
			case "vcs.modified":
				p["vcs_modified"] = s.Value
			}
		}
	}
	return p
}

// hashJSON returns the hex SHA-256 of v's JSON encoding: the sequence
// hash of a generated workload.
func hashJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("hash sequence: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
