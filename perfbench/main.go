// Command perfbench is the repository's end-to-end benchmark. It drives the
// in-process deployment through its public Go APIs — cluster.New/NewClient,
// client Publish/Subscribe/Receive, Container.RequestMove and
// scenario.Run — on three named workloads, checks every output against a
// brute-force oracle, and prints each metric by name and unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 a traced
// run reports the per-layer set. Run it from the repository root:
//
//	bash perfbench/run.sh --workload pubsub-dense --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricSpec is one declared metric: the benchmark always emits exactly the
// declared set for the chosen mode, so a missing value is a bug, not a gap.
type metricSpec struct {
	name string
	unit string
}

// endToEnd are the user-visible metrics of the untraced run. Every
// workload reports every one of them; the headline latency and throughput
// mean the workload's own operation (see README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricSpec{
	{"notify_p50_ms", "ms"},
	{"notify_p99_ms", "ms"},
	{"pubs_per_s", "1/s"},
	{"move_p50_ms", "ms"},
	{"move_p95_ms", "ms"},
	{"move_mean_ms", "ms"},
	{"moves_per_s", "1/s"},
	{"sim_events_per_s", "1/s"},
	{"vmove_p50_ms", "ms"},
	{"vmove_p95_ms", "ms"},
	{"error_rate", "fraction"},
	{"broker.inbox_wait_p50_us", "us"},
	{"broker.inbox_wait_p99_us", "us"},
	{"broker.match_p50_us", "us"},
	{"broker.match_p99_us", "us"},
	{"broker.dispatch_p99_us", "us"},
	{"broker.queue_high_water", "count"},
	{"broker.processed_per_pub", "count"},
	{"matching.match_us", "us"},
	{"matching.mutate_match_us", "us"},
	{"matching.prt_records", "count"},
	{"client.publish_us", "us"},
	{"client.attach_lag_ms", "ms"},
	{"transport.msgs_per_pub", "count"},
	{"transport.msgs_per_move", "count"},
	{"transport.retransmits", "count"},
	{"transport.dupes_dropped", "count"},
	{"core.phase_init_p50_ms", "ms"},
	{"core.phase_init_p95_ms", "ms"},
	{"core.phase_prepare_p50_ms", "ms"},
	{"core.phase_prepare_p95_ms", "ms"},
	{"core.phase_precommit_p50_ms", "ms"},
	{"core.phase_precommit_p95_ms", "ms"},
	{"core.phase_commit_p50_ms", "ms"},
	{"core.phase_commit_p95_ms", "ms"},
	{"replication.quorum_p50_ms", "ms"},
	{"replication.quorum_p95_ms", "ms"},
	{"replication.prefs_us", "us"},
	{"store.commit_p99_ms", "ms"},
	{"store.fsync_p99_ms", "ms"},
	{"store.fsyncs_per_move", "count"},
	{"store.wal_bytes_per_move", "bytes"},
	{"journal.records", "count"},
	{"journal.dropped", "count"},
	{"sim.events", "count"},
	{"sim.hash_s", "s"},
	{"audit.s", "s"},
	{"sim.loop_s", "s"},
	{"sim.moves_refused", "count"},
	{"sim.moves_aborted", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.cpu_ref_ms", "ms"},
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's values by name.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // smoke-test sizes, set by the tests only
	scratch  string // the run's private directory for durable stores
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted int64
	failed    int64
	// problems lists every correctness failure the oracle or the auditor
	// found; any entry makes the run incorrect.
	problems []string
	m        metrics
	// all is every metric the run measured, reported in the human-readable
	// lines; m keeps only the declared set for the JSON result.
	all metrics
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"pubsub-dense":    runDense,
	"mobility-churn":  runChurn,
	"sim-catastrophe": runSim,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: pubsub-dense, mobility-churn, sim-catastrophe")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&cfg.scratch, "scratch", filepath.Join(".bench_build", "scratch"), "directory for the run's durable stores")
	flag.Parse()
	cfg.trace = trace == 1

	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	out, err := execute(run, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	correct := len(out.problems) == 0
	for _, p := range out.problems {
		fmt.Printf("INCORRECT: %s\n", p)
	}
	printResult(cfg, out, correct)
	if !correct {
		os.Exit(1)
	}
}

// execute runs one workload in a fresh scratch directory and completes its
// metric set: the declared names only, each present.
func execute(run func(config) (*outcome, error), cfg config) (*outcome, error) {
	cfg.scratch = filepath.Join(cfg.scratch, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(cfg.scratch)

	out, err := run(cfg)
	if err != nil {
		return nil, err
	}
	if out.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	out.m.set("heap_peak_mb", peakRSSMB(), "MB")
	out.m.set("bench.cpu_ref_ms", cpuReference(), "ms")
	out.m.set("error_rate", float64(out.failed)/float64(out.attempted), "fraction")
	if out.failed > 0 {
		out.problem("%d of %d operations failed", out.failed, out.attempted)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	final := make(metrics, len(specs))
	for _, s := range specs {
		v, ok := out.m[s.name]
		switch {
		case !ok && !cfg.trace:
			return nil, fmt.Errorf("end-to-end metric %s was not measured", s.name)
		case !ok:
			v = metric{Unit: s.unit}
		case v.Unit != s.unit:
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", s.name, v.Unit, s.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return nil, fmt.Errorf("metric %s is not a number", s.name)
		}
		final[s.name] = v
	}
	out.all, out.m = out.m, final
	return out, nil
}

// printResult writes the human-readable report, then the JSON result as the
// last line.
func printResult(cfg config, out *outcome, correct bool) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Printf("workload %s seed %d seconds %g (%s): attempted %d failed %d correct %t\n",
		cfg.workload, cfg.seed, cfg.seconds, mode, out.attempted, out.failed, correct)
	names := make([]string, 0, len(out.all))
	for n := range out.all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mark := " "
		if _, ok := out.m[n]; ok {
			mark = "*"
		}
		fmt.Printf("%s %-30s %14.4f %s\n", mark, n, out.all[n].Value, out.all[n].Unit)
	}
	fmt.Println("(* = in the result line)")
	res := struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{correct, out.attempted, out.failed, out.m}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// since is time.Since in fractional seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
