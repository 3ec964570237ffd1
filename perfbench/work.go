package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"prioplus/internal/obs"
)

// simWorkload describes one of the simulation workloads: which scenarios
// make up a pass, which seed pool they draw from, and the instruments the
// workload itself runs with.
type simWorkload struct {
	pool int
	ins  instruments // insOff, or insObserved for the observed workload
	pass func(seed int64, ins instruments, tr *tracer, artDir string) ([]scenario, error)
}

func incastPass(seed int64, ins instruments, tr *tracer, artDir string) ([]scenario, error) {
	b, err := runFig10b(seed, ins, tr, artDir)
	if err != nil {
		return nil, err
	}
	a, err := runFig10a(seed, ins, tr, artDir)
	return []scenario{b, a}, err
}

func coflowPass(seed int64, ins instruments, tr *tracer, artDir string) ([]scenario, error) {
	var out []scenario
	for _, s := range coflowSchemes() {
		sc, err := runCoflow(s, seed, ins, tr, artDir)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

var simWorkloads = map[string]simWorkload{
	"incast":   {pool: incastPool, ins: insOff, pass: incastPass},
	"coflow":   {pool: coflowPool, ins: insOff, pass: coflowPass},
	"observed": {pool: incastPool, ins: insObserved, pass: incastPass},
}

// minPasses is the fewest passes a run makes, however long they take.
const minPasses = 3

// passStats is one pass's end-to-end measurement.
type passStats struct {
	setup, wall time.Duration
	events      uint64
}

func sumPass(scs []scenario) passStats {
	var p passStats
	for _, s := range scs {
		p.setup += s.setup
		p.wall += s.wall
		p.events += s.events
	}
	return p
}

// runSim measures a simulation workload for the given duration. Untraced,
// it runs passes over consecutive pool seeds and reports the end-to-end
// metrics. Traced, each pass runs twice on the same seed — plain, then
// with every layer hook — and the per-layer metrics come from the traced
// halves; the plain halves give the trace overhead and the Go runtime
// counters. Every scenario run is checked against the reference.
func runSim(w simWorkload, seed int64, dur time.Duration, traced bool, ref *reference, tmp string) (*outcome, error) {
	artDir := ""
	if w.ins == insObserved {
		var err error
		if artDir, err = os.MkdirTemp(tmp, "observed-"); err != nil {
			return nil, fmt.Errorf("artifact dir: %w", err)
		}
		defer os.RemoveAll(artDir)
	}
	out := &outcome{}
	check := func(s scenario) bool {
		out.attempted++
		if bad := ref.check(s); len(bad) > 0 {
			out.failed++
			out.failures = append(out.failures, bad...)
			return false
		}
		return true
	}
	var tracedPasses []passStats
	var setup, wall, rate dist
	tr := &tracer{}
	var mem0, mem1 runtime.MemStats
	var alloc, gcs, pauseNs float64
	start := time.Now()
	for j := 0; j < minPasses || time.Since(start) < dur; j++ {
		ps := poolSeed(seed, j, w.pool)
		if traced {
			runtime.ReadMemStats(&mem0)
		}
		scs, err := w.pass(ps, w.ins, nil, artDir)
		if err != nil {
			return nil, err
		}
		if traced {
			runtime.ReadMemStats(&mem1)
			alloc += float64(mem1.TotalAlloc - mem0.TotalAlloc)
			gcs += float64(mem1.NumGC - mem0.NumGC)
			pauseNs += float64(mem1.PauseTotalNs - mem0.PauseTotalNs)
		}
		for _, s := range scs {
			check(s)
		}
		p := sumPass(scs)
		setup = append(setup, p.setup.Seconds())
		wall = append(wall, p.wall.Seconds())
		rate = append(rate, float64(p.events)/p.wall.Seconds())
		if !traced {
			continue
		}
		ins := w.ins
		if ins == insOff {
			ins = insTraced
		}
		tscs, err := w.pass(ps, ins, tr, artDir)
		if err != nil {
			return nil, err
		}
		for i, s := range tscs {
			if check(s) && s.row != scs[i].row {
				out.failed++
				out.failures = append(out.failures, fmt.Sprintf("%s: traced row %q differs from untraced %q", s.key(), s.row, scs[i].row))
			}
		}
		tracedPasses = append(tracedPasses, sumPass(tscs))
	}
	out.e2e = []metric{
		{Name: "setup_s", Unit: "s", Value: setup.median(), N: len(setup)},
		{Name: "wall_s", Unit: "s", Value: wall.median(), N: len(wall)},
		{Name: "events_per_s", Unit: "events/s", Value: rate.median(), N: len(rate)},
		{Name: "peak_rss_mb", Unit: "MB", Value: peakRSSMB()},
		{Name: "failed_frac", Unit: "fraction", Value: ratio(float64(out.failed), float64(out.attempted)), N: out.attempted},
	}
	if traced {
		n := float64(len(tracedPasses))
		var tw dist
		for _, p := range tracedPasses {
			tw = append(tw, p.wall.Seconds())
		}
		out.layers = tr.metrics(n)
		out.layers["go.alloc_mb"] = alloc / n / (1 << 20)
		out.layers["go.gc_cycles"] = gcs / n
		out.layers["go.gc_pause_ms"] = pauseNs / n / 1e6
		out.layers["trace.overhead_frac"] = tw.median()/wall.median() - 1
		out.passes = len(tracedPasses)
	}
	return out, nil
}

// metrics turns the traced passes' spans and counters into the per-layer
// metrics, per pass where they are totals.
func (tr *tracer) metrics(passes float64) map[string]float64 {
	per := func(x float64) float64 { return x / passes }
	share := func(b obs.CostBucket) float64 { return ratio(float64(b.Nanos), float64(tr.cost.Nanos)) }
	mean := func(b obs.CostBucket) float64 { return ratio(float64(b.Nanos), float64(b.Samples)) }
	o := tr.obs
	return map[string]float64{
		"sim.events":             per(float64(tr.events)),
		"sim.dispatched":         per(float64(tr.dispatched)),
		"sim.run_s":              per(tr.run.seconds()),
		"sim.ns_per_event":       ratio(float64(tr.run.ns), float64(tr.events)),
		"topo.build_ms":          per(tr.topo.millis()),
		"workload.gen_ms":        per(tr.workload.millis()),
		"workload.flows":         per(float64(tr.flows)),
		"harness.new_ms":         per(tr.harness.millis()),
		"harness.addflow_ms":     per(tr.addflow.millis()),
		"netsim.switch_ns":       mean(tr.costSwitch),
		"netsim.switch_share":    share(tr.costSwitch),
		"netsim.tx_ns":           mean(tr.costTx),
		"netsim.tx_share":        share(tr.costTx),
		"netsim.host_share":      share(tr.costHost),
		"netsim.share":           share(tr.costSwitch) + share(tr.costTx) + share(tr.costPause),
		"netsim.tx_packets":      per(float64(tr.txPackets)),
		"netsim.drops":           per(float64(tr.drops)),
		"netsim.pfc_pauses":      per(float64(tr.pauses)),
		"netsim.ecn_marks":       per(float64(tr.marks)),
		"netsim.queue_hwm_kb":    tr.queueHWM / 1024,
		"transport.rx_s":         per(tr.rx.seconds()),
		"transport.rx_calls":     per(float64(tr.rx.calls)),
		"transport.rx_ns":        tr.rx.perCall(),
		"transport.rx_share":     ratio(float64(tr.rx.ns), float64(tr.run.ns)),
		"transport.retransmits":  per(float64(tr.retransmits)),
		"transport.rtos":         per(float64(tr.rtos)),
		"transport.probes":       per(float64(tr.probes)),
		"transport.goodput_frac": ratio(float64(tr.deliveredBytes), float64(tr.nicBytes)),
		"cc.calls":               per(float64(tr.cc.calls)),
		"cc.ns_per_call":         tr.cc.perCall(),
		"cc.s":                   per(tr.cc.seconds()),
		"core.self_ns_per_ack":   ratio(float64(tr.ppOuter.ns-tr.ccInner.ns), float64(tr.ppOuter.calls)),
		"core.yields":            per(float64(tr.yields)),
		"core.probes":            per(float64(tr.ppProbes)),
		"obs.collect_ms":         per(o.collect.millis()),
		"obs.write_ms":           per(o.write.millis()),
		"obs.artifact_kb":        per(float64(o.artifactBytes) / 1024),
		"obs.sample_ticks":       per(float64(o.sampleTicks)),
		"obs.sampler_share":      obsSamplerShare(tr),
		"obs.digest_events":      per(float64(o.digestEvents)),
		"obs.audit_checks":       per(float64(o.auditChecks)),
		"obs.trace_spans":        per(float64(o.traceSpans)),
	}
}

// obsSamplerShare is the cost profiler's sampler share, counted only when
// the workload itself samples series (the traced incast and coflow passes
// install no sampler).
func obsSamplerShare(tr *tracer) float64 {
	if tr.obs.sampleTicks == 0 {
		return 0
	}
	return ratio(float64(tr.costSampler.Nanos), float64(tr.cost.Nanos))
}

// writeArtifact writes one run's artifact JSONL into dir and returns its
// size and the time the write took.
func writeArtifact(dir, key string, rec *obs.Recorder) (int64, time.Duration, error) {
	t0 := time.Now()
	path := filepath.Join(dir, obs.SanitizeTag(key)+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, fmt.Errorf("artifact: %w", err)
	}
	err = obs.WriteArtifact(f, key, rec)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, fmt.Errorf("artifact %s: %w", path, err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, 0, fmt.Errorf("artifact: %w", err)
	}
	return st.Size(), time.Since(t0), nil
}
