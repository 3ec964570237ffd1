// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator's public packages, checks every run's
// output against committed reference results, and prints each metric by
// name with its unit, then one JSON result line. See README.md.
//
//	perfbench --workload incast --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// metricDef names one metric of the benchmark's contract.
type metricDef struct{ name, unit string }

// gatedE2E are the end-to-end metrics printed in the result line of an
// untraced run; every workload reports all of them (BENCHMARK.json).
var gatedE2E = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"events_per_s", "events/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics printed in the result line of a traced run.
// A layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"sim.events", "count"}, {"sim.dispatched", "count"}, {"sim.run_s", "s"}, {"sim.ns_per_event", "ns"},
	{"topo.build_ms", "ms"},
	{"workload.gen_ms", "ms"}, {"workload.flows", "count"},
	{"harness.new_ms", "ms"}, {"harness.addflow_ms", "ms"},
	{"netsim.switch_ns", "ns"}, {"netsim.switch_share", "fraction"},
	{"netsim.tx_ns", "ns"}, {"netsim.tx_share", "fraction"},
	{"netsim.host_share", "fraction"}, {"netsim.share", "fraction"},
	{"netsim.tx_packets", "count"}, {"netsim.drops", "count"}, {"netsim.pfc_pauses", "count"},
	{"netsim.ecn_marks", "count"}, {"netsim.queue_hwm_kb", "KB"},
	{"transport.rx_s", "s"}, {"transport.rx_calls", "count"}, {"transport.rx_ns", "ns"},
	{"transport.rx_share", "fraction"},
	{"transport.retransmits", "count"}, {"transport.rtos", "count"}, {"transport.probes", "count"},
	{"transport.goodput_frac", "fraction"},
	{"cc.calls", "count"}, {"cc.ns_per_call", "ns"}, {"cc.s", "s"},
	{"core.self_ns_per_ack", "ns"}, {"core.yields", "count"}, {"core.probes", "count"},
	{"obs.collect_ms", "ms"}, {"obs.write_ms", "ms"}, {"obs.artifact_kb", "KB"},
	{"obs.sample_ticks", "count"}, {"obs.sampler_share", "fraction"},
	{"obs.digest_events", "count"}, {"obs.audit_checks", "count"}, {"obs.trace_spans", "count"},
	{"serve.submit_ms", "ms"}, {"serve.poll_ms", "ms"}, {"serve.result_ms", "ms"},
	{"serve.compute_ms", "ms"}, {"serve.wait_ms", "ms"},
	{"serve.hit_ratio", "fraction"}, {"serve.rejected", "count"},
	{"serve.job_p50_ms", "ms"}, {"serve.job_p90_ms", "ms"},
	{"serve.hit_p50_ms", "ms"}, {"serve.hit_p90_ms", "ms"}, {"serve.jobs_per_s", "jobs/s"},
	{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "fraction"},
}

// metric is one reported value. N is the sample count behind a timing
// (0 when it is not a distribution); Q, when set, is the percentile a
// tail timing actually reports.
type metric struct {
	Name, Unit string
	Value      float64
	N          int
	Q          float64
}

// outcome is one workload run's result.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e               []metric
	layers            map[string]float64 // traced runs only
	passes            int                // traced passes (serve: traced jobs) behind layers
}

var workloads = []string{"incast", "coflow", "observed", "serve"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	manifest := fs.String("manifest", "testdata/fingerprints.json", "fingerprint manifest the serve workload loads and checks against")
	tmp := fs.String("tmp", ".bench_build", "directory for the observed workload's artifacts")
	regen := fs.String("regen", "", "regenerate the reference results into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *regen != "" {
		if err := regenerate(*regen, func(f string, a ...any) { fmt.Fprintf(stderr, f, a...) }); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	ref, err := loadReference(referenceJSON)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := measure(*workload, *seed, time.Duration(*secs*float64(time.Second)), *trace == 1, ref, *manifest, *tmp)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, *workload, out, *trace == 1); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// measure runs one workload.
func measure(workload string, seed int64, dur time.Duration, traced bool, ref *reference, manifest, tmp string) (*outcome, error) {
	if workload == "serve" {
		return runServe(seed, dur, traced, manifest)
	}
	w, ok := simWorkloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	return runSim(w, seed, dur, traced, ref, tmp)
}

// report prints every metric as "name = value unit", the failures, and
// the JSON result line last: the end-to-end metrics for an untraced run,
// the per-layer metrics for a traced one.
func report(w io.Writer, workload string, out *outcome, traced bool) error {
	for _, f := range out.failures {
		fmt.Fprintf(w, "FAIL %s: %s\n", workload, f)
	}
	e2e := map[string]metric{}
	for _, m := range out.e2e {
		e2e[m.Name] = m
		line := fmt.Sprintf("%s %s = %.6g %s", workload, m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" (n=%d", m.N)
			if m.Q > 0 {
				line += fmt.Sprintf(", p%.0f", m.Q*100)
			}
			line += ")"
		}
		fmt.Fprintln(w, line)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, d := range perLayer {
			v := out.layers[d.name]
			fmt.Fprintf(w, "%s %s = %.6g %s (traced samples=%d)\n", workload, d.name, v, d.unit, out.passes)
			metrics[d.name] = value{v, d.unit}
		}
	} else {
		for _, d := range gatedE2E {
			m, ok := e2e[d.name]
			if !ok {
				return fmt.Errorf("workload %s reported no %s", workload, d.name)
			}
			metrics[d.name] = value{m.Value, d.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, max(out.attempted, 1), out.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
