package exp

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"prioplus/internal/obs"
	"prioplus/internal/obs/stream"
	"prioplus/internal/runner"
	"prioplus/internal/sim"
)

// flightSize is the flight recorder's ring capacity: the most recent trace
// events kept for the post-mortem dump when a watchdog trips.
const flightSize = 4096

// Sink decides which instruments each run of one experiment invocation
// gets and where their products go. It is the one instrumentation seam the
// CLI, `all`, `diff` and the job server share: the CLI binds its
// observability flags straight into the knob fields, the job server arms
// Fingerprint (plus Series for artifact jobs). A Sink serves a single Run
// call — one experiment may own several runs (a figure's sweep of schemes
// and priority counts), so recorders are kept per run tag — and needs no
// locking. A nil Sink, or one with every knob off, hands out nil recorders
// and the experiment runs uninstrumented.
type Sink struct {
	// Series records the timeline series; flush writes one artifact per
	// run (to Dir, or kept in memory, and teed to Hub).
	Series bool
	// Hist records streaming histograms; flush prints their summaries.
	Hist bool
	// MaxInflight and MaxEvents arm the watchdog's in-flight-bytes and
	// event-heap ceilings (0 = off); a trip dumps the flight recorder.
	MaxInflight, MaxEvents int64
	// Runtime merges host-process gauges into the series.
	Runtime bool
	// Cost attributes sampled per-event execution cost by event kind.
	Cost bool

	// TraceFlows caps the flow tracer (0 = off unless TraceMatch is set),
	// TraceMatch names flow ids to trace, TraceEvery admits a 1-in-K hash
	// sample of flow ids, TracePackets journey-stamps every Kth data
	// packet (0 = default 16).
	TraceFlows   int
	TraceMatch   []int64
	TraceEvery   int
	TracePackets int

	// Fingerprint folds every dispatched event into a digest chain; flush
	// prints one "# fingerprint" line per run.
	Fingerprint bool
	// Audit runs the conservation auditor on the sampler clock; a
	// violation fails the run after its flight recorder is dumped.
	Audit bool

	// WindowLo and WindowHi arm full-event window recording on the digest
	// ([lo, hi) in dispatch counts); the diff subcommand's rerun phase
	// sets them.
	WindowLo, WindowHi uint64

	// Dir receives one <stem>.jsonl artifact per run and any flight dumps.
	// With Dir empty, artifacts stay in memory (SinkRun.Artifact) and
	// flight dumps land in the working directory.
	Dir string
	// Hub, when non-nil, receives every artifact line as it is written,
	// for /events subscribers.
	Hub *stream.Hub
	// Live, when non-nil, receives the running run's progress gauges, for
	// /runs.
	Live *runner.RunState

	exp  string
	seed int64
	runs []SinkRun
	seen map[string]int // artifact stems already issued, for dedupe
}

// SinkRun is one recorder a Sink handed out, with the products flush
// assigned to it.
type SinkRun struct {
	Tag string
	Rec *obs.Recorder
	// Stem is the run's unique artifact basename (obs.ArtifactStem plus a
	// numeric suffix on collision).
	Stem string
	// Artifact is the run's artifact when a series was recorded and the
	// sink has no Dir.
	Artifact []byte
}

func (s *Sink) enabled() bool {
	return s.Series || s.Hist || s.MaxInflight > 0 || s.MaxEvents > 0 ||
		s.Runtime || s.Cost || s.Live != nil || s.tracing() || s.Fingerprint || s.Audit
}

func (s *Sink) tracing() bool {
	return s.TraceFlows > 0 || len(s.TraceMatch) > 0
}

// Recorder builds the recorder for one run, arming only the instruments
// the knobs ask for, and keeps it for flush. It returns nil on a nil or
// all-off sink, so drivers take it as their ObsFor factory unconditionally.
func (s *Sink) Recorder(tag string) *obs.Recorder {
	if s == nil || !s.enabled() {
		return nil
	}
	rec := obs.NewRecorder()
	if s.Series {
		rec.Series = obs.NewSeriesSet(obs.DefaultSeriesInterval)
		if s.Runtime {
			rec.Runtime = &obs.RuntimeSampler{}
		}
	}
	if s.Cost {
		rec.Cost = &obs.CostProfiler{}
	}
	if s.Live != nil {
		rec.Live = &s.Live.Live
		s.Live.SetPhase(tag)
	}
	if s.Hist {
		rec.Hist = obs.NewHistSet()
	}
	if s.MaxInflight > 0 || s.MaxEvents > 0 {
		rec.Watchdog = &obs.Watchdog{MaxInflightBytes: s.MaxInflight, MaxHeapEvents: s.MaxEvents}
		rec.Flight = obs.NewFlightRecorder(flightSize)
	}
	if s.tracing() {
		// TraceMatch alone sizes its own cap.
		ft := obs.NewFlowTracer(max(s.TraceFlows, len(s.TraceMatch)))
		ft.Match = s.TraceMatch
		ft.Every = s.TraceEvery
		ft.PacketEvery = s.TracePackets
		rec.FlowTrace = ft
	}
	if s.Fingerprint {
		rec.Digest = sim.NewDigest()
		if s.WindowHi > 0 {
			rec.Digest.SetWindow(s.WindowLo, s.WindowHi)
		}
	}
	if s.Audit {
		rec.Audit = &obs.Auditor{}
		if rec.Flight == nil {
			rec.Flight = obs.NewFlightRecorder(flightSize)
		}
	}
	s.runs = append(s.runs, SinkRun{Tag: tag, Rec: rec})
	return rec
}

// Runs returns the recorders handed out so far, in order; after Run
// returns they carry their stems and in-memory artifacts.
func (s *Sink) Runs() []SinkRun {
	if s == nil {
		return nil
	}
	return s.runs
}

// stem returns a unique filesystem-safe basename for one run's artifacts.
func (s *Sink) stem(tag string) string {
	if s.seen == nil {
		s.seen = map[string]int{}
	}
	base := obs.ArtifactStem(s.exp, tag, s.seed)
	s.seen[base]++
	if n := s.seen[base]; n > 1 {
		base += "-" + strconv.Itoa(n)
	}
	return base
}

// flush finalizes every run after the experiment returns: it dumps the
// flight recorder of any run whose watchdog tripped or auditor violated,
// writes the run's artifact, and prints -hist summaries and fingerprint
// lines to w (so batch and job output capture them with the figure). A
// conservation violation is returned as an error after everything is
// written: unlike a watchdog trip (a configured ceiling doing its job) a
// violation means the simulator itself miscounted, so the run must fail.
func (s *Sink) flush(w io.Writer) error {
	if s == nil {
		return nil
	}
	var violation error
	for i := range s.runs {
		r := &s.runs[i]
		r.Stem = s.stem(r.Tag)
		if wd := r.Rec.Watchdog; wd != nil && wd.Tripped() != "" {
			path, n, err := s.dumpFlight(r)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "# watchdog tripped (%s) in run %q: engine stopped, last %d trace events in %s\n",
				wd.Tripped(), r.Tag, n, path)
		}
		if aud := r.Rec.Audit; aud != nil && aud.Violation() != "" {
			path, n, err := s.dumpFlight(r)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "# AUDIT VIOLATION in run %q: %s — engine stopped, last %d trace events in %s\n",
				r.Tag, aud.Violation(), n, path)
			if violation == nil {
				violation = fmt.Errorf("conservation audit violation in run %q: %s", r.Tag, aud.Violation())
			}
		}
		if r.Rec.Series != nil {
			if err := s.writeArtifact(r); err != nil {
				return err
			}
		}
		if r.Rec.Hist != nil {
			for _, h := range r.Rec.Hist.All() {
				if h.Count() == 0 {
					continue
				}
				fmt.Fprintf(w, "# hist %s %s (%s): n=%d mean=%.0f p50=%d p90=%d p99=%d p99.9=%d max=%d\n",
					r.Tag, h.Name, h.Unit, h.Count(), h.Mean(),
					h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Quantile(0.999), h.Max())
			}
		}
		if d := r.Rec.Digest; d != nil {
			fmt.Fprintf(w, "# fingerprint %s chain=%016x events=%d\n", r.Tag, d.Chain, d.Count)
		}
	}
	return violation
}

// writeArtifact streams one run's artifact to its file under Dir (or into
// memory without one) and tees the same encoder output to the hub, so
// streamed lines are byte-identical to the recorded artifact.
func (s *Sink) writeArtifact(r *SinkRun) error {
	var buf bytes.Buffer
	var dst io.Writer = &buf
	var f *os.File
	if s.Dir != "" {
		var err error
		if f, err = os.Create(filepath.Join(s.Dir, r.Stem+".jsonl")); err != nil {
			return err
		}
		dst = f
	}
	var lw *stream.LineWriter
	if s.Hub != nil {
		lw = s.Hub.ArtifactWriter(r.Stem)
		dst = io.MultiWriter(dst, lw)
	}
	err := obs.WriteArtifact(dst, r.Tag, r.Rec)
	if lw != nil {
		lw.Close()
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	} else if err == nil {
		r.Artifact = buf.Bytes()
	}
	return err
}

// dumpFlight writes run r's flight ring to <stem>.flight.jsonl under Dir
// (the working directory without one) and returns the path and event
// count. A run without a ring writes nothing.
func (s *Sink) dumpFlight(r *SinkRun) (string, int, error) {
	path := filepath.Join(s.Dir, r.Stem+".flight.jsonl")
	if r.Rec.Flight == nil {
		return path, 0, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return path, 0, err
	}
	n, err := r.Rec.Flight.Dump(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, n, err
}
