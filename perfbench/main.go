// Command perfbench is the repository's benchmark: one command that runs
// one workload against the UNIT simulator or live server, checks that the
// program's outputs are correct, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics of a separate traced run). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root; README.md explains the
// workloads and what each metric should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
)

// options are the command-line settings one run receives.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for span dumps
}

// metricDef names one metric BENCHMARK.json lists.
type metricDef struct {
	name, unit string
	// on lists the workloads that exercise the metric's layer; on the
	// others the layer does no work and the metric reads 0.
	on []string
}

const (
	wlSim      = "sim-repro"
	wlRead     = "live-read"
	wlOverload = "live-overload"
)

var allWorkloads = []string{wlSim, wlRead, wlOverload}

// endToEnd are the metrics every untraced run reports. Each is defined on
// every workload (see README.md for what each means per workload).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "throughput_per_s", unit: "1/s"},
	{name: "query_p50_ms", unit: "ms"},
	{name: "usm", unit: "ratio"},
	{name: "valid_ratio", unit: "ratio"},
}

// perLayer are the metrics every traced run reports.
var perLayer = func() []metricDef {
	sim, read, over := []string{wlSim}, []string{wlRead}, []string{wlOverload}
	live := []string{wlRead, wlOverload}
	defs := []metricDef{
		{"workload.gen_s", "s", sim},
		{"engine.run_s", "s", sim},
		{"engine.self_s", "s", sim},
		{"engine.ns_per_event", "ns", sim},
		{"engine.allocs_per_event", "count", sim},
		{"engine.bytes_per_event", "B", sim},
		{"policy.self_s.IMU", "s", sim},
		{"policy.self_s.ODU", "s", sim},
		{"policy.self_s.QMF", "s", sim},
		{"policy.self_s.UNIT", "s", sim},
		{"policy.admit_query_ns", "ns", sim},
		{"policy.admit_query_calls", "count", sim},
		{"policy.update_hooks_ns", "ns", sim},
		{"policy.update_hooks_calls", "count", sim},
		{"policy.query_done_ns", "ns", sim},
		{"policy.query_done_calls", "count", sim},
		{"policy.control_tick_ns", "ns", sim},
		{"policy.control_tick_calls", "count", sim},
		{"lockmgr.restart_ratio", "ratio", sim},
		{"claim.unit_margin_min", "ratio", sim},
		{"http.handler_p50_us", "us", read},
		{"http.self_p50_us", "us", read},
		{"net.transport_p50_us", "us", read},
		{"server.query_p50_us", "us", read},
		{"server.queue_wait_p99_us", "us", read},
		{"server.exec_p50_us", "us", read},
		{"allocs_per_query", "count", read},
		{"bytes_per_query", "B", read},
		{"server.mu_wait_us_per_op", "us", live},
		{"server.reject_p50_us", "us", over},
		{"server.queue_wait_p50_ms", "ms", over},
		{"server.queue_wait_p99_ms", "ms", over},
		{"shard.cross_ratio", "ratio", over},
		{"server.update_call_p50_us", "us", over},
		{"server.update_call_p99_us", "us", over},
		{"core.reject_ratio", "ratio", over},
		{"core.dmf_ratio", "ratio", over},
		{"core.dsf_ratio", "ratio", over},
		{"core.lbc_decisions", "count", over},
		{"core.cflex_final", "ratio", over},
		{"ufm.degraded_items", "count", over},
		{"ufm.update_drop_ratio", "ratio", over},
		{"loadgen.late_p50_ms", "ms", live},
		{"loadgen.late_p99_ms", "ms", live},
		{"tracing.overhead_ratio", "ratio", allWorkloads},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu_share." + l, "ratio", allWorkloads})
	}
	return defs
}()

func main() { os.Exit(run()) }

func run() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: sim-repro, live-read or live-overload")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&o.out, "out", ".", "directory for the traced run's span dump")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		return 2
	}
	// The load generator and the system share one process; neither gets
	// more processors than the machine has, and at most two, so figures
	// from larger machines stay comparable.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	workloads := map[string]func(options, *Report) error{
		wlSim:      runSim,
		wlRead:     runLiveRead,
		wlOverload: runLiveOverload,
	}
	fn, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	Note("perfbench: workload %s seed %d seconds %g trace %d GOMAXPROCS %d", o.workload, o.seed, o.seconds, trace, procs)
	rep := newReport()
	if err := fn(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if _, ok := rep.Metrics["peak_rss_mb"]; !ok {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		rep.Set("peak_rss_mb", rss, "MB")
	}

	keep := make([]string, 0, len(perLayer))
	if o.trace {
		for _, m := range perLayer {
			if _, ok := rep.Metrics[m.name]; !ok {
				if slices.Contains(m.on, o.workload) {
					fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", o.workload, m.name)
					return 1
				}
				rep.Set(m.name, 0, m.unit) // layer not exercised by this workload
			}
			keep = append(keep, m.name)
		}
	} else {
		for _, m := range endToEnd {
			keep = append(keep, m.name)
		}
	}
	if err := rep.Emit(os.Stdout, keep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(rep.Problems) > 0 {
		return 1
	}
	return 0
}
