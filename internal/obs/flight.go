package obs

import (
	"bufio"
	"encoding/json"
	"io"

	"prioplus/internal/sim"
)

// Kind identifies what a flight-recorder Event records.
type Kind uint8

// Event kinds. Enqueue/Dequeue/Drop/Mark are per-packet switch and port
// events; Pause/Resume are PFC state transitions on an egress queue;
// FlowDone is a transport-level flow completion.
const (
	Enqueue Kind = iota
	Dequeue
	Drop
	Mark
	Pause
	Resume
	FlowDone
)

var kindNames = [...]string{"enq", "deq", "drop", "mark", "pause", "resume", "fct"}

// String returns the event kind's dump label (enq, deq, drop, ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalText encodes the kind as its dump label.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one simulator occurrence. Field meaning varies slightly by
// kind; unused fields are zero and omitted from the JSONL dump:
//
//   - Enqueue/Dequeue/Drop/Mark: Dev/Port/Queue locate the egress queue,
//     Flow/Seq/Bytes identify the packet, QLen is the queue occupancy in
//     bytes after the event took effect.
//   - Pause/Resume: Dev/Port/Queue locate the paused egress queue.
//   - FlowDone: Flow is the flow ID, Bytes its size, QLen its retransmit
//     count, and Seq its FCT in picoseconds.
type Event struct {
	T     sim.Time `json:"t_ps"` // simulated time, picoseconds
	Kind  Kind     `json:"kind"`
	Dev   string   `json:"dev,omitempty"`  // device name ("host3", "tor0/agg1/core2"...)
	Port  int      `json:"port,omitempty"` // port index within the device
	Queue int      `json:"q,omitempty"`    // priority queue index
	Flow  int64    `json:"flow,omitempty"`
	Seq   int64    `json:"seq,omitempty"`
	Bytes int      `json:"bytes,omitempty"`
	QLen  int      `json:"qlen,omitempty"`
}

// FlightRecorder keeps the last N events in a fixed-size ring. Ports,
// switches, and the harness's flow-completion hook write into it directly.
// It costs no I/O while the run is healthy: events overwrite the oldest
// slot, and the ring is only read out when something goes wrong (typically
// a Watchdog trip). Recording is zero-alloc: events are value copies into
// a preallocated buffer.
type FlightRecorder struct {
	buf   []Event
	next  int
	total int64
}

// NewFlightRecorder returns a ring holding the most recent size events.
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		panic("obs: flight recorder size must be positive")
	}
	return &FlightRecorder{buf: make([]Event, 0, size)}
}

// Trace records ev, overwriting the oldest event once the ring is full.
func (f *FlightRecorder) Trace(ev Event) {
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, ev)
	} else {
		f.buf[f.next] = ev
	}
	f.next++
	if f.next == cap(f.buf) {
		f.next = 0
	}
	f.total++
}

// Total returns the number of events recorded over the ring's lifetime
// (including overwritten ones).
func (f *FlightRecorder) Total() int64 { return f.total }

// Events returns the retained events, oldest first.
func (f *FlightRecorder) Events() []Event {
	if len(f.buf) < cap(f.buf) {
		return append([]Event(nil), f.buf...)
	}
	out := make([]Event, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	return append(out, f.buf[:f.next]...)
}

// Dump writes the retained events to w as JSONL, one Event object per
// line, oldest first, and returns the number written.
func (f *FlightRecorder) Dump(w io.Writer) (int, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	evs := f.Events()
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			return 0, err
		}
	}
	return len(evs), bw.Flush()
}

// Watchdog trips when a run's resource gauges exceed configured ceilings.
// It exists for runs like fig18's "Physical* w/o CC", where an uncontrolled
// sender can grow in-flight state without bound: instead of the process
// dying on an OOM minutes later, the watchdog fires at a defined threshold,
// the flight recorder's recent events are dumped for diagnosis, and the run
// stops with partial results.
//
// The harness checks the watchdog at every sampler tick (simulated-time
// driven, so trips are deterministic and independent of wall clock or
// worker count).
type Watchdog struct {
	// MaxInflightBytes trips on the run's live packet bytes (every packet
	// currently held by queues, the event heap, or the network). 0 disables.
	MaxInflightBytes int64
	// MaxHeapEvents trips on the engine's pending-event count. 0 disables.
	MaxHeapEvents int64
	// OnTrip, when non-nil, runs once at the trip (dump the flight
	// recorder, write a note). The run is stopped after it returns unless
	// KeepRunning is set.
	OnTrip func(reason string, value, limit int64)
	// KeepRunning makes a trip record-and-continue instead of stopping the
	// run.
	KeepRunning bool

	tripped string
}

// Check evaluates the gauges, firing the trip logic the first time a
// ceiling is exceeded. It returns true while the watchdog is tripped.
func (w *Watchdog) Check(inflightBytes, heapEvents int64) bool {
	if w.tripped != "" {
		return true
	}
	switch {
	case w.MaxInflightBytes > 0 && inflightBytes > w.MaxInflightBytes:
		w.trip("inflight_bytes", inflightBytes, w.MaxInflightBytes)
	case w.MaxHeapEvents > 0 && heapEvents > w.MaxHeapEvents:
		w.trip("heap_events", heapEvents, w.MaxHeapEvents)
	}
	return w.tripped != ""
}

func (w *Watchdog) trip(reason string, value, limit int64) {
	w.tripped = reason
	if w.OnTrip != nil {
		w.OnTrip(reason, value, limit)
	}
}

// Tripped returns the trip reason ("inflight_bytes", "heap_events"), or ""
// while the watchdog is healthy.
func (w *Watchdog) Tripped() string { return w.tripped }
