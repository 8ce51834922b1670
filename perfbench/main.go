// Command perfbench is the repository benchmark. It drives the program's
// public entry points with inputs generated from a seed, checks every
// output, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds the driver and the plan
// server first):
//
//	bash perfbench/run.sh --workload sweep_tuned|plan_service|codegen \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the run measures for S seconds and reports the
// end-to-end metrics. With --trace 1 it runs a fixed, serial slice of the
// workload twice — spans off, then on — and reports per-layer self times
// and counters, the tracing overhead, and fails the run if any
// deterministic quantity differs between the two passes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates a run's operation counts and check failures.
type outcome struct {
	attempted, failed int64
	problems          []string
}

// fail records a failed operation with the reason (the first few reasons
// are printed on standard error).
func (o *outcome) fail(format string, args ...any) { o.failItems(1, format, args...) }

// failItems records n failed operations sharing one reason.
func (o *outcome) failItems(n int64, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// config is the parsed command line.
type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	planserver string
	workers    int
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: sweep_tuned, plan_service or codegen")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the untraced run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the timed run")
	flag.StringVar(&cfg.planserver, "planserver", "", "path to a built cmd/planserver binary (plan_service)")
	flag.Parse()
	cfg.trace = trace == 1
	// All load comes from this process with at most nproc workers.
	cfg.workers = runtime.NumCPU()
	if trace != 0 && trace != 1 || cfg.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, nproc %d, GOMAXPROCS %d, %s\n",
		cfg.workload, cfg.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var res *result
	var err error
	switch cfg.workload {
	case "sweep_tuned":
		res, err = runSweep(cfg)
	case "plan_service":
		res, err = runPlanService(cfg)
	case "codegen":
		res, err = runCodegen(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want sweep_tuned, plan_service or codegen)", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// finish turns an outcome and its metrics into the result line, printing
// the recorded problems.
func finish(o *outcome, m map[string]metric) *result {
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if o.attempted < 1 {
		o.attempted = 1
		o.failed++
	}
	return &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}
}

// endToEnd builds the untraced run's metrics. Every workload reports the
// same five: its operation throughput, median and tail latency, peak RSS
// of the process doing the work, and set-up time.
func endToEnd(opsPerS float64, lat samples, rssKB int64, setups []float64) map[string]metric {
	s := lat.sorted()
	tail := tailPercentile(len(s))
	fmt.Fprintf(os.Stderr, "perfbench: %.3f ops/s; p50 %.3fms, p%g %.3fms over %d samples\n",
		opsPerS, ms(percentile(s, 50)), tail, ms(percentile(s, tail)), len(s))
	return map[string]metric{
		"ops_per_s":   {opsPerS, "1/s"},
		"op_p50_ms":   {ms(percentile(s, 50)), "ms"},
		"op_tail_ms":  {ms(percentile(s, tail)), "ms"},
		"peak_rss_mb": {float64(rssKB) / 1024, "MB"},
		"setup_s":     {median(setups), "s"},
	}
}

// selfRSSKB is this process's peak resident set, in KiB.
func selfRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// layerMetrics lists every per-layer metric with its unit; a traced run
// reports all of them (zero where the workload never calls the layer).
func layerMetrics() [][2]string {
	return [][2]string{
		{"workload.generate_ms", "ms"},
		{"core.analyze_ms", "ms"}, {"core.analyze_calls", "count"},
		{"core.fingerprint_us", "us"},
		{"core.apply_ms", "ms"}, {"core.apply_calls", "count"},
		{"verify.variant_ms", "ms"}, {"verify.variants", "count"},
		{"verify.findings", "count"}, {"verify.ledger_skip_ratio", "ratio"},
		{"exec.compile_ms", "ms"}, {"exec.lower_ms", "ms"},
		{"exec.variants_compiled", "count"}, {"exec.cache_hits", "count"},
		{"exec.cache_hit_ratio", "ratio"},
		{"exec.run_bytecode_ms", "ms"}, {"exec.runs_bytecode", "count"},
		{"exec.allocs_per_run_bytecode", "count"}, {"exec.bytes_per_run_bytecode", "B"},
		{"exec.run_walk_ms", "ms"}, {"exec.runs_walk", "count"},
		{"exec.allocs_per_run_walk", "count"}, {"exec.bytes_per_run_walk", "B"},
		{"netsim.messages", "count"}, {"netsim.sim_ms", "ms"},
		{"tune.search_ms", "ms"}, {"tune.searches", "count"},
		{"tune.evaluations", "count"}, {"tune.evaluations_per_search", "count"},
		{"tune.tiered_checks", "count"},
		{"tune.memo_hits", "count"}, {"tune.memo_hit_ratio", "ratio"},
		{"tune.tuned_geomean.mpich-tcp-2005", "ratio"},
		{"tune.tuned_geomean.mpich-gm-2005", "ratio"},
		{"tune.tuned_geomean.hpc-rdma-2019", "ratio"},
		{"session.plan_cold_ms", "ms"}, {"session.plan_warm_ms", "ms"},
		{"planserver.http_ms", "ms"}, {"planserver.response_kb", "KB"},
		{"harness.run_s", "s"}, {"harness.oracle_mismatches", "count"},
		{"harness.errors", "count"},
		{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"trace.overhead_frac", "ratio"},
	}
}

// deterministicCounters are the quantities that must repeat exactly
// between passes over the same inputs; a difference is a nondeterminism
// leak, not noise.
func deterministicCounters() []string {
	return []string{
		"tune.tuned_geomean.mpich-tcp-2005", "tune.tuned_geomean.mpich-gm-2005",
		"tune.tuned_geomean.hpc-rdma-2019", "tune.evaluations",
		"exec.variants_compiled", "netsim.messages", "netsim.sim_ms",
	}
}

// tracedPass is one pass of a workload's traced slice: it drives the
// layers through the tracer and returns the operations it checked.
type tracedPass func(t *tracer, o *outcome) error

// runTraced runs the slice twice, spans off then on, checks that the
// deterministic counters agree, and folds the traced pass into per-layer
// metrics.
func runTraced(genMs float64, pass tracedPass) (*result, error) {
	o := &outcome{}
	off := newTracer(false)
	start := time.Now()
	if err := pass(off, o); err != nil {
		return nil, err
	}
	offWall := time.Since(start)

	on := newTracer(true)
	before := readGC()
	start = time.Now()
	if err := pass(on, o); err != nil {
		return nil, err
	}
	onWall := time.Since(start)
	after := readGC()
	for _, name := range deterministicCounters() {
		if a, b := off.counts[name], on.counts[name]; a != b {
			o.fail("nondeterminism leak: %s is %v with spans off and %v with spans on", name, a, b)
		}
	}

	c := on.counts
	values := map[string]float64{}
	for name, d := range selfTimes(on.spans) {
		if name == "core.fingerprint" {
			values[name+"_us"] = float64(d) / float64(time.Microsecond)
		} else {
			values[name+"_ms"] = ms(d)
		}
	}
	for name, v := range c {
		values[name] = v
	}
	values["workload.generate_ms"] = genMs
	values["verify.ledger_skip_ratio"] = ratio(c["verify.ledger_skips"], c["verify.ledger_skips"]+c["verify.variants"])
	values["exec.cache_hit_ratio"] = ratio(c["exec.cache_hits"], c["exec.cache_hits"]+c["exec.variants_compiled"])
	values["exec.allocs_per_run_bytecode"] = ratio(c["exec.run_bytecode_allocs"], c["exec.runs_bytecode"])
	values["exec.bytes_per_run_bytecode"] = ratio(c["exec.run_bytecode_bytes"], c["exec.runs_bytecode"])
	values["exec.allocs_per_run_walk"] = ratio(c["exec.run_walk_allocs"], c["exec.runs_walk"])
	values["exec.bytes_per_run_walk"] = ratio(c["exec.run_walk_bytes"], c["exec.runs_walk"])
	values["tune.evaluations_per_search"] = ratio(c["tune.evaluations"], c["tune.searches"])
	values["tune.memo_hit_ratio"] = ratio(c["tune.memo_hits"], c["tune.memo_hits"]+c["tune.memo_misses"])
	values["harness.run_s"] = values["harness.run_ms"] / 1000
	values["runtime.alloc_mb"] = float64(after.allocBytes-before.allocBytes) / (1 << 20)
	values["runtime.gc_cycles"] = float64(after.cycles - before.cycles)
	values["runtime.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
	values["trace.overhead_frac"] = onWall.Seconds()/offWall.Seconds() - 1
	fmt.Fprintf(os.Stderr, "perfbench: traced pass %.3fs, untraced pass %.3fs (overhead %+.1f%%)\n",
		onWall.Seconds(), offWall.Seconds(), 100*values["trace.overhead_frac"])

	m := map[string]metric{}
	for _, lm := range layerMetrics() {
		m[lm[0]] = metric{values[lm[0]], lm[1]}
	}
	printLayers(m)
	return finish(o, m), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printLayers writes the per-layer table to standard error, sorted by name.
func printLayers(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  %-36s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	fmt.Fprint(os.Stderr, b.String())
}

// setupReps is how many times the in-process workloads repeat their
// set-up; their set-up is well under a millisecond, so the median needs
// many repeats to be steady.
const setupReps = 201

// timeSetup runs setup reps times and returns each duration in seconds;
// the last rep's product is kept by the caller.
func timeSetup(reps int, setup func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}
