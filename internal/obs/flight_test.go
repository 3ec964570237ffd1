package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

func flightEvent(i int) obs.Event {
	return obs.Event{T: sim.Time(i) * sim.Microsecond, Kind: obs.Enqueue, Dev: "tor0", Flow: int64(i)}
}

func TestFlightRecorderPartialRing(t *testing.T) {
	f := obs.NewFlightRecorder(8)
	for i := 0; i < 3; i++ {
		f.Trace(flightEvent(i))
	}
	if f.Total() != 3 {
		t.Errorf("Total = %d, want 3", f.Total())
	}
	evs := f.Events()
	if len(evs) != 3 {
		t.Fatalf("Events() returned %d, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Flow != int64(i) {
			t.Errorf("event %d has flow %d, want %d", i, ev.Flow, i)
		}
	}
}

func TestFlightRecorderWrapOldestFirst(t *testing.T) {
	f := obs.NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Trace(flightEvent(i))
	}
	if f.Total() != 10 {
		t.Errorf("Total = %d, want 10", f.Total())
	}
	evs := f.Events()
	if len(evs) != 4 {
		t.Fatalf("Events() returned %d, want ring size 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Flow != want {
			t.Errorf("event %d has flow %d, want %d (oldest-first of last 4)", i, ev.Flow, want)
		}
	}
}

func TestFlightRecorderDump(t *testing.T) {
	f := obs.NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		f.Trace(flightEvent(i))
	}
	var buf bytes.Buffer
	n, err := f.Dump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("Dump wrote %d events, want 4", n)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("dump has %d lines, want 4", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatalf("dump line is not valid JSON: %v\n%s", err, lines[0])
	}
	if rec["flow"] != float64(2) {
		t.Errorf("first dumped event flow = %v, want 2 (oldest retained)", rec["flow"])
	}
}

// TestFlightDumpSchema pins the dump's field names and its omission of
// zero-valued fields, the schema docs/OBSERVABILITY.md documents.
func TestFlightDumpSchema(t *testing.T) {
	f := obs.NewFlightRecorder(4)
	f.Trace(obs.Event{T: 1500, Kind: obs.Enqueue, Dev: "tor0", Port: 2, Queue: 1, Flow: 7, Seq: 3, Bytes: 1000, QLen: 4000})
	f.Trace(obs.Event{T: 2000, Kind: obs.Drop, Dev: "tor0", Port: 2, Bytes: 1000})
	f.Trace(obs.Event{T: 3000, Kind: obs.FlowDone, Flow: 7, Bytes: 50_000, Seq: 123_456})
	var buf bytes.Buffer
	if _, err := f.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"t_ps":1500,"kind":"enq","dev":"tor0","port":2,"q":1,"flow":7,"seq":3,"bytes":1000,"qlen":4000}
{"t_ps":2000,"kind":"drop","dev":"tor0","port":2,"bytes":1000}
{"t_ps":3000,"kind":"fct","flow":7,"seq":123456,"bytes":50000}
`
	if got := buf.String(); got != want {
		t.Errorf("dump =\n%s\nwant\n%s", got, want)
	}
}

func TestFlightRecorderBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFlightRecorder(0) did not panic")
		}
	}()
	obs.NewFlightRecorder(0)
}

func TestFlightRecorderTraceZeroAlloc(t *testing.T) {
	f := obs.NewFlightRecorder(64)
	ev := flightEvent(1)
	if allocs := testing.AllocsPerRun(1000, func() { f.Trace(ev) }); allocs != 0 {
		t.Errorf("Trace allocates %v per op, want 0", allocs)
	}
}

func TestWatchdogTripOnce(t *testing.T) {
	var calls int
	var gotReason string
	var gotValue, gotLimit int64
	w := &obs.Watchdog{
		MaxInflightBytes: 100,
		OnTrip: func(reason string, value, limit int64) {
			calls++
			gotReason, gotValue, gotLimit = reason, value, limit
		},
	}
	if w.Check(50, 0) {
		t.Error("Check below ceiling reported tripped")
	}
	if w.Tripped() != "" {
		t.Error("Tripped before any trip")
	}
	if !w.Check(150, 0) {
		t.Error("Check above ceiling did not trip")
	}
	if !w.Check(10, 0) {
		t.Error("watchdog un-tripped: trips must latch")
	}
	if calls != 1 {
		t.Errorf("OnTrip called %d times, want exactly 1", calls)
	}
	if gotReason != "inflight_bytes" || gotValue != 150 || gotLimit != 100 {
		t.Errorf("OnTrip(%q, %d, %d), want (inflight_bytes, 150, 100)", gotReason, gotValue, gotLimit)
	}
	if w.Tripped() != "inflight_bytes" {
		t.Errorf("Tripped = %q, want inflight_bytes", w.Tripped())
	}
}

func TestWatchdogHeapEvents(t *testing.T) {
	w := &obs.Watchdog{MaxHeapEvents: 10}
	if w.Check(1<<40, 5) {
		t.Error("tripped on inflight bytes with no byte ceiling configured")
	}
	if !w.Check(0, 11) {
		t.Error("did not trip on heap events")
	}
	if w.Tripped() != "heap_events" {
		t.Errorf("Tripped = %q, want heap_events", w.Tripped())
	}
}

func TestWatchdogInflightTakesPriority(t *testing.T) {
	w := &obs.Watchdog{MaxInflightBytes: 10, MaxHeapEvents: 10}
	w.Check(11, 11)
	if w.Tripped() != "inflight_bytes" {
		t.Errorf("Tripped = %q, want inflight_bytes checked first", w.Tripped())
	}
}
