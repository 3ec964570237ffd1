package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prioplus/internal/obs"
)

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"0": 0, "1024": 1024,
		"4k": 4 << 10, "4K": 4 << 10,
		"128m": 128 << 20, "2G": 2 << 30,
	}
	for in, want := range cases {
		got, err := parseBytes(in)
		if err != nil || got != want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "-1", "-4k", "1t", "k"} {
		if _, err := parseBytes(bad); err == nil {
			t.Errorf("parseBytes(%q) accepted", bad)
		}
	}
}

func TestSanitizeTag(t *testing.T) {
	cases := map[string]string{
		"incast":           "incast",
		"Physical* w/o CC": "Physical--w-o-CC",
		"baseline/Swift":   "baseline-Swift",
		"pp/np=8":          "pp-np-8",
		"a.b_c-D9":         "a.b_c-D9",
	}
	for in, want := range cases {
		if got := obs.SanitizeTag(in); got != want {
			t.Errorf("obs.SanitizeTag(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestObsSinkArtifactNaming: one artifact per recorder, deduped stems, and
// flush writes them where -series pointed.
func TestObsSinkArtifactNaming(t *testing.T) {
	dir := t.TempDir()
	sink := newObsSink(obsOpts{dir: dir}, "fig99", 7)
	if sink == nil {
		t.Fatal("sink disabled despite -series dir")
	}
	sink.Recorder("a/b")
	sink.Recorder("a/b") // same tag twice: must not clobber
	var out bytes.Buffer
	if err := sink.flush(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig99__a-b__seed7.jsonl", "fig99__a-b__seed7-2.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("artifact %s not written: %v", want, err)
		}
	}
}

// TestWatchdogFlightDump drives the CLI post-mortem path end to end: a
// 64 KiB in-flight watchdog trips during fig10b's incast, and the flight
// recorder's ring is dumped next to the -series artifacts. The dump's bytes
// are pinned, so any change to which enq/deq/pause events the ports record,
// or to how a dump encodes them, shows up here.
func TestWatchdogFlightDump(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	o := runOpts{seed: 1, obs: obsOpts{dir: dir, maxBytes: 64 << 10}}
	if err := runExperiment("fig10b", o, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# watchdog tripped") {
		t.Fatalf("no watchdog trip reported:\n%s", out.String())
	}
	dump, err := os.ReadFile(filepath.Join(dir, "fig10b__incast__seed1.flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(dump, []byte("\n")); n != flightSize {
		t.Errorf("dump has %d lines, want %d", n, flightSize)
	}
	sum := sha256.Sum256(dump)
	const want = "92e25eaa18dfd8867c1eba05447b000e0ac79102f81d83c325c4c1cdaecbbd74"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("dump sha256 = %s, want %s", got, want)
	}
}

func TestObsSinkDisabled(t *testing.T) {
	if s := newObsSink(obsOpts{}, "fig99", 1); s != nil {
		t.Error("sink created with no obs flags set")
	}
}

// TestReportRoundTrip: an artifact written by the sink renders through the
// report path without error and mentions its run and series.
func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sink := newObsSink(obsOpts{dir: dir, hist: true}, "figX", 1)
	rec := sink.Recorder("tag")
	rec.Series.Add("net/test_series", "bytes", func() float64 { return 42 })
	for i := 0; i < 5; i++ {
		rec.Series.Sample()
	}
	rec.Hist.FCT.Observe(1000)
	rec.Metrics.Counter("net/things").Add(3)
	var out bytes.Buffer
	if err := sink.flush(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "transport/fct") {
		t.Errorf("-hist summary missing from flush output:\n%s", out.String())
	}

	var rep bytes.Buffer
	path := filepath.Join(dir, "figX__tag__seed1.jsonl")
	if err := reportFile(&rep, path, 40); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`run "tag"`, "net/test_series", "net/things", "transport/fct"} {
		if !strings.Contains(rep.String(), want) {
			t.Errorf("report missing %q:\n%s", want, rep.String())
		}
	}
}

// TestExpandArtifactArgs pins the report/trace argument contract: missing
// paths and artifact-less directories are loud errors, never an empty
// report; directories expand to their artifacts in sorted order.
func TestExpandArtifactArgs(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"b.jsonl", "a.jsonl"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := expandArtifactArgs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("expanded %v, want %v", got, want)
	}

	if _, err := expandArtifactArgs([]string{filepath.Join(dir, "missing.jsonl")}); err == nil {
		t.Error("missing file accepted")
	}
	empty := t.TempDir()
	_, err = expandArtifactArgs([]string{empty})
	if err == nil || !strings.Contains(err.Error(), "no artifacts") {
		t.Errorf("empty dir error = %v, want a no-artifacts message", err)
	}
}

// TestReportAndTraceExitNonZeroOnBadDir drives the subcommands end to end:
// a missing directory and an empty directory both exit 1 with a message,
// instead of rendering an empty table.
func TestReportAndTraceExitNonZeroOnBadDir(t *testing.T) {
	empty := t.TempDir()
	missing := filepath.Join(empty, "nope")
	for _, args := range [][]string{{missing}, {empty}} {
		if code := runReport(args); code == 0 {
			t.Errorf("report %v exited 0", args)
		}
		if code := runTrace(args); code == 0 {
			t.Errorf("trace %v exited 0", args)
		}
	}
}

// TestTraceNoFlowsInArtifact: an artifact recorded without -trace-flows
// renders as an error pointing at the flag, not as an empty timeline.
func TestTraceNoFlowsInArtifact(t *testing.T) {
	dir := t.TempDir()
	sink := newObsSink(obsOpts{dir: dir}, "figX", 1)
	sink.Recorder("tag")
	if err := sink.flush(io.Discard); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := traceFile(&out, filepath.Join(dir, "figX__tag__seed1.jsonl"), nil, 3)
	if err == nil || !strings.Contains(err.Error(), "-trace-flows") {
		t.Fatalf("err = %v, want a hint to record with -trace-flows", err)
	}
}

// TestTraceRendersFlowTimeline: a sink-written artifact with flow spans
// renders journeys and decisions, and selecting an untraced flow errors.
func TestTraceRendersFlowTimeline(t *testing.T) {
	dir := t.TempDir()
	sink := newObsSink(obsOpts{dir: dir, traceFlows: 4}, "figX", 1)
	rec := sink.Recorder("tag")
	fl := rec.FlowTrace.Admit(3)
	fl.Add(obs.Span{T: 0, Kind: obs.SpanDecStart, A: 25.8, B: 28.2})
	fl.Add(obs.Span{T: 2_000_000, Kind: obs.SpanHop, Seq: 1500, Delay: 400_000, Dev: "star", A: 4096})
	fl.Add(obs.Span{T: 3_000_000, Kind: obs.SpanDeliver, Seq: 1500, Delay: 1_000_000})
	fl.Add(obs.Span{T: 4_000_000, Kind: obs.SpanAcked, Seq: 1500, Delay: 2_000_000, A: 9000, B: 4500})
	fl.Add(obs.Span{T: 5_000_000, Kind: obs.SpanDecYield, Delay: 28_500_000, A: 2.2, B: 2})
	fl.Add(obs.Span{T: 6_000_000, Kind: obs.SpanDecResume, Delay: 14_000_000, A: 1})
	if err := sink.flush(io.Discard); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "figX__tag__seed1.jsonl")
	var out bytes.Buffer
	if err := traceFile(&out, path, nil, -1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"flow 3", "journey seq=1500", "hop star", "rtt=2.00us",
		"yield", "stop sending", "yielded 1 time(s)", "channel [25.8us, 28.2us]",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("trace output missing %q:\n%s", want, out.String())
		}
	}
	if err := traceFile(io.Discard, path, []int64{99}, 3); err == nil {
		t.Error("selecting an untraced flow did not error")
	}
}

// TestResolveTraceNeedsSeries: flow tracing without -series has nowhere to
// deliver spans, so resolve rejects it up front.
func TestResolveTraceNeedsSeries(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	flags := addObsFlags(fs)
	if err := fs.Parse([]string{"-trace-flows", "4"}); err != nil {
		t.Fatal(err)
	}
	if _, err := flags.resolve(); err == nil || !strings.Contains(err.Error(), "-series") {
		t.Fatalf("resolve = %v, want a -series requirement error", err)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	flags = addObsFlags(fs)
	dir := t.TempDir()
	if err := fs.Parse([]string{"-trace-match", "1, 7", "-series", dir}); err != nil {
		t.Fatal(err)
	}
	o, err := flags.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(o.traceMatch) != 2 || o.traceMatch[0] != 1 || o.traceMatch[1] != 7 {
		t.Errorf("traceMatch = %v, want [1 7]", o.traceMatch)
	}
	// -trace-match alone sizes the tracer cap to the match list.
	sink := newObsSink(o, "figX", 1)
	rec := sink.Recorder("tag")
	if rec.FlowTrace == nil || rec.FlowTrace.MaxFlows != 2 {
		t.Fatalf("FlowTrace cap = %+v, want MaxFlows 2", rec.FlowTrace)
	}
}
