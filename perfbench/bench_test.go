package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// result is the JSON line a run prints last.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runCLI runs the benchmark command in-process and returns its output
// lines and decoded result line.
func runCLI(t *testing.T, args ...string) ([]string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "-manifest", "../testdata/fingerprints.json", "-tmp", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	return lines, r
}

// printed reports whether a "<workload> <name> = <value> <unit>" line exists.
func printed(lines []string, workload, name, unit string) bool {
	prefix := workload + " " + name + " = "
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, prefix); ok {
			f := strings.Fields(rest)
			return len(f) >= 2 && f[1] == unit
		}
	}
	return false
}

// reportedE2E are the end-to-end metrics each workload prints, by name and
// unit, beyond the ones in the result line.
var reportedE2E = map[string][]metricDef{
	"incast":   {{"failed_frac", "fraction"}},
	"coflow":   {{"failed_frac", "fraction"}},
	"observed": {{"failed_frac", "fraction"}},
	"serve": {{"failed_frac", "fraction"}, {"job_p50_ms", "ms"}, {"job_p90_ms", "ms"},
		{"hit_p50_ms", "ms"}, {"hit_p90_ms", "ms"}, {"jobs_per_s", "jobs/s"}},
}

// TestEveryMetricPrinted runs a tiny pass of every workload, untraced and
// traced, and checks that every named metric is printed with its unit and
// that the result line carries exactly the contract's metrics.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				lines, r := runCLI(t, "--workload", w, "--seed", "3", "--seconds", "0.01", "--trace", trace)
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("result correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, strings.Join(lines, "\n"))
				}
				want := gatedE2E
				if trace == "1" {
					want = perLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("result line has %d metrics, want %d", len(r.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := r.Metrics[d.name]
					if !ok || m.Value == nil || m.Unit != d.unit {
						t.Errorf("result line: %s missing or not in %s", d.name, d.unit)
					}
					if !printed(lines, w, d.name, d.unit) {
						t.Errorf("%s not printed in %s", d.name, d.unit)
					}
				}
				for _, d := range append(gatedE2E, reportedE2E[w]...) {
					if !printed(lines, w, d.name, d.unit) {
						t.Errorf("%s not printed in %s", d.name, d.unit)
					}
				}
			})
		}
	}
}

// TestCorruptReferenceFails: a reference row, event count or digest that
// does not match is counted as a failed operation, not passed.
func TestCorruptReferenceFails(t *testing.T) {
	for _, field := range []string{"row", "events", "digest"} {
		t.Run(field, func(t *testing.T) {
			ref, err := loadReference(referenceJSON)
			if err != nil {
				t.Fatal(err)
			}
			// Pass 0 of workload seed 5 runs pool seed 6.
			key := fmt.Sprintf("fig10b/seed=%d", poolSeed(5, 0, incastPool))
			e := ref.Scenarios[key]
			switch field {
			case "row":
				e.Row += " corrupted"
			case "events":
				e.Events++
			case "digest":
				e.Digest = "0000000000000000/0"
			}
			ref.Scenarios[key] = e
			out, err := runSim(simWorkloads["incast"], 5, time.Millisecond, field == "digest", ref, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if out.failed == 0 {
				t.Fatalf("corrupted %s of %s passed: %+v", field, key, out)
			}
			var buf bytes.Buffer
			if err := report(&buf, "incast", out, false); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			if !strings.HasPrefix(lines[0], "FAIL incast: "+key) {
				t.Errorf("failure not reported first: %q", lines[0])
			}
			if !strings.Contains(lines[len(lines)-1], `"correct":false`) {
				t.Errorf("result line claims correct: %s", lines[len(lines)-1])
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with the
// metrics the command prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, the command prints %d", what, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s %s, the command prints %s %s", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, gatedE2E)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the command runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w {
			t.Errorf("workload %d is %s, want %s", i, b.Workloads[i].Name, w)
		}
	}
}

// TestPoolSeed: consecutive passes walk the pool from the workload seed
// and every seed, negative ones too, lands inside the pool.
func TestPoolSeed(t *testing.T) {
	if got := poolSeed(5, 0, 64); got != 6 {
		t.Errorf("poolSeed(5, 0) = %d, want 6", got)
	}
	if got := poolSeed(63, 1, 64); got != 1 {
		t.Errorf("poolSeed(63, 1) = %d, want 1 (wraps)", got)
	}
	for _, n := range []int64{-7, 0, 1 << 40} {
		if s := poolSeed(n, 3, 32); s < 1 || s > 32 {
			t.Errorf("poolSeed(%d, 3, 32) = %d, outside the pool", n, s)
		}
	}
}
