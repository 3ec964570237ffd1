package runner_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"prioplus/internal/cc"
	"prioplus/internal/core"
	"prioplus/internal/harness"
	"prioplus/internal/obs"
	"prioplus/internal/runner"
	"prioplus/internal/sim"
	"prioplus/internal/topo"
)

// simTask builds a task running a real simulation — its own engine, star
// topology, and two Swift flows — so parallel execution exercises the
// engine-per-run isolation the pool depends on. The output is a rendering
// of the flows' completion times, deterministic for a given seed.
func simTask(name string, seed int64) runner.Task {
	return runner.Task{
		Name: name,
		Run: func() string {
			eng := sim.NewEngine()
			cfg := topo.DefaultConfig()
			net := harness.New(topo.Star(eng, 3, cfg), seed)
			var fcts []sim.Time
			for src := 0; src < 2; src++ {
				algo := cc.NewSwift(cc.DefaultSwiftConfig(
					net.Topo.BaseRTT(src, 2), net.BDPPackets(src, 2)))
				net.AddFlow(harness.Flow{
					Src: src, Dst: 2, Size: 200_000, Algo: algo,
					OnComplete: func(f sim.Time) { fcts = append(fcts, f) },
				})
			}
			eng.RunUntil(10 * sim.Millisecond)
			return fmt.Sprintf("flows=%d fcts=%v", len(fcts), fcts)
		},
	}
}

func simTasks(n int) []runner.Task {
	tasks := make([]runner.Task, n)
	for i := range tasks {
		tasks[i] = simTask(fmt.Sprintf("run%d", i), int64(i+1))
	}
	return tasks
}

// TestDeterministicAcrossWorkers is the batch-runner contract: the result
// slice for -parallel 8 must be byte-identical to -parallel 1. Run with
// -race this also drives eight concurrent engines to prove per-run
// isolation.
func TestDeterministicAcrossWorkers(t *testing.T) {
	tasks := simTasks(8)
	serial := runner.Run(tasks, runner.Options{Workers: 1})
	parallel := runner.Run(tasks, runner.Options{Workers: 8})
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Name != p.Name || s.Index != p.Index {
			t.Errorf("result %d identity differs: %q/%d vs %q/%d", i, s.Name, s.Index, p.Name, p.Index)
		}
		if s.Output != p.Output {
			t.Errorf("result %d output differs:\n serial:   %q\n parallel: %q", i, s.Output, p.Output)
		}
		if s.Output == "" || strings.HasPrefix(s.Output, "flows=0 ") {
			t.Errorf("result %d produced no completions: %q", i, s.Output)
		}
	}
}

// TestEnginePerRunIsolation drives two simulations concurrently; under
// `go test -race` any sharing between their engines would be reported.
func TestEnginePerRunIsolation(t *testing.T) {
	tasks := []runner.Task{simTask("a", 1), simTask("b", 2)}
	results := runner.Run(tasks, runner.Options{Workers: 2})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("run %q failed: %v", r.Name, r.Err)
		}
		if !strings.HasPrefix(r.Output, "flows=2 ") {
			t.Errorf("run %q output %q, want 2 completed flows", r.Name, r.Output)
		}
	}
}

// TestPanicIsolation: a panicking run fails only its own result; the rest
// of the batch completes and ordering is preserved.
func TestPanicIsolation(t *testing.T) {
	tasks := simTasks(4)
	tasks[1] = runner.Task{
		Name: "boom",
		Run:  func() string { panic("seed exploded") },
	}
	results := runner.Run(tasks, runner.Options{Workers: 4})
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "seed exploded") {
		t.Errorf("panicking run error = %v, want panic value", results[1].Err)
	}
	if results[1].Output != "" {
		t.Errorf("panicking run kept output %q", results[1].Output)
	}
	for _, i := range []int{0, 2, 3} {
		if results[i].Err != nil {
			t.Errorf("run %d failed alongside the panic: %v", i, results[i].Err)
		}
		if results[i].Output == "" {
			t.Errorf("run %d lost its output", i)
		}
	}
}

// TestTimeout: a hung run is abandoned and reported; the batch completes.
func TestTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	tasks := []runner.Task{
		simTask("fast", 1),
		{Name: "hung", Run: func() string {
			<-release
			return "late"
		}},
	}
	results := runner.Run(tasks, runner.Options{Workers: 2, Timeout: 50 * time.Millisecond})
	if results[0].Err != nil {
		t.Errorf("fast run failed: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, runner.ErrTimeout) {
		t.Errorf("hung run error = %v, want ErrTimeout", results[1].Err)
	}
}

// TestDefaultWorkers: Workers <= 0 picks a sane pool and still works.
func TestDefaultWorkers(t *testing.T) {
	results := runner.Run(simTasks(3), runner.Options{})
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("run %q failed: %v", r.Name, r.Err)
		}
		if r.Wall <= 0 {
			t.Errorf("run %q has no wall-clock measurement", r.Name)
		}
	}
}

// obsTask is simTask with the full telemetry stack enabled — series sampler,
// histograms, watchdog, metrics — and the serialized artifact as its output,
// so byte-level comparison covers every instrument.
func obsTask(name string, seed int64) runner.Task {
	return runner.Task{
		Name: name,
		Run: func() string {
			eng := sim.NewEngine()
			cfg := topo.DefaultConfig()
			net := harness.New(topo.Star(eng, 3, cfg), seed)
			rec := obs.NewRecorder()
			rec.Series = obs.NewSeriesSet(10 * sim.Microsecond)
			rec.Hist = obs.NewHistSet()
			rec.Watchdog = &obs.Watchdog{MaxInflightBytes: 1 << 30}
			net.Observe(rec)
			for src := 0; src < 2; src++ {
				algo := cc.NewSwift(cc.DefaultSwiftConfig(
					net.Topo.BaseRTT(src, 2), net.BDPPackets(src, 2)))
				net.AddFlow(harness.Flow{Src: src, Dst: 2, Size: 200_000, Algo: algo})
			}
			eng.RunUntil(10 * sim.Millisecond)
			net.CollectMetrics(rec)
			var buf bytes.Buffer
			if err := obs.WriteArtifact(&buf, name, rec); err != nil {
				panic(err)
			}
			return buf.String()
		},
	}
}

// TestObsArtifactsDeterministicAcrossWorkers extends the batch-runner
// contract to telemetry: with series, histograms, and metrics all enabled,
// the serialized artifact for every run must be byte-identical between
// -parallel 1 and -parallel 8.
func TestObsArtifactsDeterministicAcrossWorkers(t *testing.T) {
	tasks := make([]runner.Task, 8)
	for i := range tasks {
		tasks[i] = obsTask(fmt.Sprintf("run%d", i), int64(i+1))
	}
	serial := runner.Run(tasks, runner.Options{Workers: 1})
	parallel := runner.Run(tasks, runner.Options{Workers: 8})
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("run %d errored: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Output != parallel[i].Output {
			t.Errorf("run %d artifact differs between -parallel 1 and 8", i)
		}
		if !strings.Contains(serial[i].Output, `"type":"sample"`) {
			t.Errorf("run %d artifact has no samples", i)
		}
	}
}

// TestOnResult: the completion callback fires exactly once per task, in
// completion order, with the final result values.
func TestOnResult(t *testing.T) {
	tasks := simTasks(6)
	var mu sync.Mutex
	seen := map[int]int{}
	var names []string
	results := runner.Run(tasks, runner.Options{
		Workers: 3,
		OnResult: func(r runner.Result) {
			mu.Lock()
			defer mu.Unlock()
			seen[r.Index]++
			names = append(names, r.Name)
			if r.Output == "" {
				t.Errorf("OnResult for %q before output was set", r.Name)
			}
		},
	})
	if len(names) != len(tasks) {
		t.Fatalf("OnResult fired %d times, want %d", len(names), len(tasks))
	}
	for i := range tasks {
		if seen[i] != 1 {
			t.Errorf("task %d notified %d times, want 1", i, seen[i])
		}
	}
	if len(results) != len(tasks) {
		t.Fatalf("got %d results", len(results))
	}
}

// traceTask is obsTask with flow tracing on: two PrioPlus-wrapped flows on
// different channels, every flow admitted, every packet journey-stamped.
// The serialized artifact (flow + span lines included) is the output, so
// byte-level comparison covers the causal-tracing layer end to end.
func traceTask(name string, seed int64) runner.Task {
	return runner.Task{
		Name: name,
		Run: func() string {
			eng := sim.NewEngine()
			cfg := topo.DefaultConfig()
			net := harness.New(topo.Star(eng, 3, cfg), seed)
			rec := obs.NewRecorder()
			ft := obs.NewFlowTracer(4)
			ft.PacketEvery = 1
			rec.FlowTrace = ft
			net.Observe(rec)
			base := net.Topo.BaseRTT(0, 2)
			plan := core.DefaultPlan(base)
			for src := 0; src < 2; src++ {
				scfg := cc.DefaultSwiftConfig(base, net.BDPPackets(src, 2))
				algo := core.New(cc.NewSwift(scfg), core.DefaultConfig(plan.Channel(2+src), 8))
				net.AddFlow(harness.Flow{Src: src, Dst: 2, Size: 200_000, Algo: algo})
			}
			eng.RunUntil(10 * sim.Millisecond)
			net.CollectMetrics(rec)
			var buf bytes.Buffer
			if err := obs.WriteArtifact(&buf, name, rec); err != nil {
				panic(err)
			}
			return buf.String()
		},
	}
}

// TestTraceArtifactsDeterministicAcrossWorkers extends the batch-runner
// contract to flow tracing: with packet journeys and the CC decision audit
// recorded for every flow, the serialized artifact of every run must be
// byte-identical between -parallel 1 and -parallel 8, across seeds.
func TestTraceArtifactsDeterministicAcrossWorkers(t *testing.T) {
	tasks := make([]runner.Task, 8)
	for i := range tasks {
		tasks[i] = traceTask(fmt.Sprintf("run%d", i), int64(i+1))
	}
	serial := runner.Run(tasks, runner.Options{Workers: 1})
	parallel := runner.Run(tasks, runner.Options{Workers: 8})
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("run %d errored: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Output != parallel[i].Output {
			t.Errorf("run %d trace artifact differs between -parallel 1 and 8", i)
		}
		for _, want := range []string{`"type":"flow"`, `"type":"span"`, `"kind":"start"`, `"kind":"hop"`} {
			if !strings.Contains(serial[i].Output, want) {
				t.Errorf("run %d artifact missing %s", i, want)
			}
		}
	}
}

// TestSerialSubmissionOrder: with one worker the batch runs serially in
// task order, so OnResult sees the tasks in submission order.
func TestSerialSubmissionOrder(t *testing.T) {
	tasks := make([]runner.Task, 5)
	for i := range tasks {
		name := fmt.Sprintf("t%d", i)
		tasks[i] = runner.Task{Name: name, Run: func() string { return name }}
	}
	var order []int
	results := runner.Run(tasks, runner.Options{Workers: 1, OnResult: func(r runner.Result) {
		order = append(order, r.Index)
	}})
	for i, r := range results {
		if r.Index != i || r.Output != tasks[i].Name {
			t.Errorf("result %d = %+v, want index %d output %q", i, r, i, tasks[i].Name)
		}
		if order[i] != i {
			t.Errorf("OnResult order %v, want submission order", order)
			break
		}
	}
}
