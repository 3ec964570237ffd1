package sim

import (
	"sync/atomic"
	"time"
)

// totalProcessed accumulates events executed across every engine in the
// process, for batch-level events/sec reporting (internal/runner fans
// engines across goroutines, so the counter is atomic). It is updated once
// per RunUntil call, not per event, so the hot loop stays free of atomics.
var totalProcessed atomic.Uint64

// TotalProcessed returns the number of events executed by all engines in
// this process since it started. Sample it before and after a batch to
// compute an events/sec rate. This is the raw dispatch count: optimizations
// that elide events (e.g. the lazy transmitter wake-up) lower it without
// changing simulation behavior, so it is not comparable across builds — use
// TotalEvents for a build-independent basis.
func TotalProcessed() uint64 { return totalProcessed.Load() }

// totalEvents accumulates the logical event count: dispatched events plus
// reserved-seq positions that were never filed (elided events that earlier
// engine generations would have dispatched). Signed because a seq reserved
// in one RunUntil may be filed in a later one, making individual deltas
// negative; the running sum is exact.
var totalEvents atomic.Int64

// TotalEvents returns the logical event count for all engines in this
// process: every dispatched event plus every elided one (a seq reserved
// via ReserveSeq and never filed stands for an event the eager scheduling
// scheme would have dispatched). Unlike TotalProcessed, this basis is
// stable across engine optimizations, so events/sec computed from it is
// comparable across builds.
func TotalEvents() uint64 {
	v := totalEvents.Load()
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// Event kinds, carried as a tag on each scheduled event for cost
// attribution (SetCostSampler). Tags are advisory — they never affect
// dispatch order or simulation behavior. Untagged events are EKOther.
const (
	EKOther uint8 = iota
	EKTransmit      // port transmitter wake-up (serialization done)
	EKDeliverSwitch // packet delivery into a switch port
	EKDeliverHost   // packet delivery into a host NIC
	EKPause         // PFC pause/resume frame delivery
	EKRTO           // transport retransmission timeout
	EKSampler       // clock-driven sampling hook (SetSampler)
	EKFault         // fault-injection timeline event
	NumEventKinds
)

// eventKindNames maps kind tags to the stable snake_case names used in
// artifacts and the /metrics endpoint.
var eventKindNames = [NumEventKinds]string{
	"other", "transmit", "deliver_switch", "deliver_host",
	"pause", "rto", "sampler", "fault",
}

// EventKindName returns the stable name for a kind tag; out-of-range tags
// report as "other".
func EventKindName(k uint8) string {
	if k >= NumEventKinds {
		return "other"
	}
	return eventKindNames[k]
}

// Event states. An event is pending from scheduling until it is dispatched;
// dispatch moves it to fired (executed) or lets a canceled event drain.
const (
	evPending uint8 = iota
	evFired
	evCanceled
)

// Event is a scheduled callback. It is returned by At and After so callers
// can cancel it; a zero Event must not be constructed directly.
//
// Ownership: once an event has fired or been canceled, the engine reclaims
// the object for reuse — the caller must drop its reference at that point
// (the idiomatic pattern is to nil the field as the first statement of the
// callback, and to nil it right after Cancel). Calling Cancel on a stale
// pointer may cancel an unrelated future event.
type Event struct {
	at    Time
	seq   uint64
	state uint8
	kind  uint8 // cost-attribution tag (EK*); fits existing struct padding
	fn    func()
	// Closure-free delivery payload (Post2): fn2 is a preallocated function
	// and a0/a1 its arguments. Pointers boxed in any do not allocate.
	fn2    func(a, b any)
	a0, a1 any
}

// At returns the time the event is scheduled to fire.
func (e *Event) At() Time { return e.at }

// Canceled reports whether Cancel was called on the event while it was
// still pending.
func (e *Event) Canceled() bool { return e.state == evCanceled }

// entry is one queue slot. The ordering key lives in the entry itself so
// comparisons never chase the Event pointer.
type entry struct {
	at  Time
	seq uint64
	ev  *Event
}

func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq // FIFO among simultaneous events
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// not usable; create one with NewEngine.
//
// The event queue is a hierarchical timing wheel (see wheel.go): O(1)
// insertion for the short-horizon events that dominate the simulator,
// strict (time, seq) dispatch order restored by a small per-slot heap, and
// a far-future overflow heap so any timestamp schedules. Same-timestamp
// events are dispatched as one batch without re-consulting the queue
// between callbacks.
//
// Cancellation is lazy: Cancel marks the event and the queue drops it when
// its slot drains (or at the next compaction), so Cancel is O(1) and no
// structure needs per-event index bookkeeping.
type Engine struct {
	now       Time
	seq       uint64
	stopped   bool
	processed uint64
	free      []*Event // recycled fired/canceled events

	// Event queue: hierarchical timing wheel + due/overflow heaps
	// (wheel.go). due holds every event at or behind the cursor's current
	// level-0 slot in (time, seq) order; batch is the same-timestamp
	// dispatch buffer, reused across batches.
	due       entryHeap
	overflow  entryHeap
	levels    [numLevels]wheelLevel
	wheelTick uint64 // absolute level-0 slot number of the wheel cursor
	nwheel    int    // entries resident in wheel slots (canceled included)
	batch     []entry
	npending  int // scheduled, not yet fired or canceled
	ncanceled int // canceled entries still occupying queue slots

	// Dispatch-position tracking for reserved-seq events (ReserveSeq /
	// PostAtSeq). inBatch and batchPos locate the running batch so a
	// reserved-seq event filed at the current timestamp can be spliced in
	// at its seq position; lastAt/lastSeq record the most recently
	// reached batch entry so callers can ask whether a reserved position
	// has already been passed (ReachedSeq).
	inBatch  bool
	batchPos int
	lastAt   Time
	lastSeq  uint64

	// Clock-driven sampler (SetSampler). sampleAt is the next sampling
	// instant, maxTime when disabled, so the hot loop pays one always-false
	// comparison per event when no sampler is installed.
	sampleAt    Time
	sampleEvery Time
	sampleFn    func()

	// Sampled cost attribution (SetCostSampler). One in costEvery
	// dispatches is wall-clock stamped and reported to costFn with the
	// event's kind tag; nil costFn costs the hot loop a single
	// always-false nil check.
	costFn    func(kind uint8, nanos int64)
	costEvery int64
	costSkip  int64

	// Per-event digest chain (SetDigest). Nil when fingerprinting is off;
	// the dispatch loop pays one always-false nil check.
	dig *Digest

	// Logical-event accounting: seqs reserved (ReserveSeq) and later filed
	// (PostAtSeq). reserved-minus-filed counts elided events — see
	// TotalEvents. The acc* fields are the portion already flushed into
	// the global counter (RunUntil flushes on exit, covering calls made
	// between runs as well).
	nreserved   uint64
	nfiled      uint64
	accReserved uint64
	accFiled    uint64
}

// maxTime is the largest representable simulated time; it doubles as the
// "never" sentinel for the sampler.
const maxTime = Time(1<<63 - 1)

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{sampleAt: maxTime}
	e.initWheel()
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently scheduled (canceled
// events awaiting lazy removal are not counted).
func (e *Engine) Pending() int { return e.npending }

// schedule allocates (or recycles) an event at absolute time t and files
// its queue entry.
func (e *Engine) schedule(t Time) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.at = t
	ev.seq = e.seq
	ev.state = evPending
	ev.kind = EKOther
	e.place(entry{at: t, seq: e.seq, ev: ev})
	e.seq++
	e.npending++
	return ev
}

// recycle returns a dispatched event to the free list, clearing anything
// it could pin.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.fn2 = nil
	ev.a0, ev.a1 = nil, nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a logic error in the caller.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	ev := e.schedule(t)
	ev.fn = fn
	return ev
}

// AtK is At with a cost-attribution kind tag (see SetCostSampler).
func (e *Engine) AtK(t Time, fn func(), kind uint8) *Event {
	ev := e.At(t, fn)
	ev.kind = kind
	return ev
}

// After schedules fn to run d after the current time. A negative d is
// treated as zero.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Post2 schedules fn(a, b) to run d after the current time, without
// allocating a closure: fn is expected to be preallocated (a package-level
// function or a func value created once), and a/b are boxed arguments.
// Boxing pointers (and integers below 256) in any does not allocate, so a
// Post2 with a warm free list performs zero heap allocations. This is the
// per-packet scheduling primitive of the netsim hot path. The event keeps
// no handle (it cannot be canceled) and carries a cost-attribution kind
// tag (see SetCostSampler).
func (e *Engine) Post2(d Time, fn func(a, b any), a, b any, kind uint8) {
	if d < 0 {
		d = 0
	}
	ev := e.schedule(e.now + d)
	ev.fn2 = fn
	ev.a0, ev.a1 = a, b
	ev.kind = kind
}

// ReserveSeq allocates and returns a dispatch sequence number without
// scheduling anything. An event later filed under it with PostAtSeq gets
// the FIFO rank it would have had if it had been scheduled at reservation
// time. The port transmitter uses this to arm its wake event lazily — only
// when something actually needs one — while keeping every same-timestamp
// tie-break bit-identical to the former scheme that eagerly scheduled a
// completion event per transmission. A reserved seq that is never used
// simply leaves a harmless gap in the sequence space.
func (e *Engine) ReserveSeq() uint64 {
	s := e.seq
	e.seq++
	e.nreserved++
	return s
}

// PostAtSeq schedules fn at absolute time t under a seq previously
// obtained from ReserveSeq, with a cost-attribution kind tag (see
// SetCostSampler). If t is the current timestamp and the batch running at
// it has not yet passed the reserved position, the event is spliced into
// the running batch at that position — exactly as if it had been in the
// queue when the batch was collected. Each reserved seq must be filed at
// most once, and only at a (t, seq) position not yet reached (ReachedSeq
// reports that).
func (e *Engine) PostAtSeq(t Time, fn func(), seq uint64, kind uint8) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.at = t
	ev.seq = seq
	ev.state = evPending
	ev.kind = kind
	ev.fn = fn
	e.npending++
	e.nfiled++
	ent := entry{at: t, seq: seq, ev: ev}
	if t == e.now && e.inBatch && seq > e.batch[e.batchPos].seq {
		e.spliceBatch(ent)
		return
	}
	e.place(ent)
}

// spliceBatch inserts ent into the undispatched remainder of the running
// batch at its seq position.
func (e *Engine) spliceBatch(ent entry) {
	i := e.batchPos + 1
	for i < len(e.batch) && e.batch[i].seq < ent.seq {
		i++
	}
	e.batch = append(e.batch, entry{})
	copy(e.batch[i+1:], e.batch[i:])
	e.batch[i] = ent
}

// ReachedSeq reports whether dispatch has reached or passed position
// (t, seq): a later batch has started, or the batch at t has dispatched
// (or skipped) an entry with that seq or higher. Callers holding a
// reserved seq use this to decide between acting inline (the position is
// behind us, as if the reserved event had already fired finding nothing
// to do) and filing the event with PostAtSeq.
func (e *Engine) ReachedSeq(t Time, seq uint64) bool {
	return e.lastAt > t || (e.lastAt == t && e.lastSeq >= seq)
}

// Cancel removes ev from the schedule in O(1) by marking it; the queue
// slot is reclaimed lazily. Canceling an already-fired or already-canceled
// event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.state != evPending {
		return
	}
	ev.state = evCanceled
	e.ncanceled++
	e.npending--
	// If canceled entries dominate the queue (e.g. a pathological
	// cancel/re-schedule loop with far-future deadlines), compact so memory
	// stays proportional to the live event count. Amortized O(1) per Cancel.
	if e.ncanceled > 64 && e.ncanceled*2 > e.queuedEntries() {
		e.compact()
	}
}

// SetSampler installs a clock-driven sampling hook: fn runs every `every`
// of simulated time, starting at Now()+every, interleaved deterministically
// with the event stream — all events with timestamps <= a sampling instant
// execute before the sample is taken, so fn observes the state "just after"
// that instant. The hook consumes no queue events: RunUntil fires it by
// comparing the next event's timestamp against the sampling deadline, and
// drains any remaining instants up to the horizon before returning.
//
// fn must not schedule events in the past; it may call Stop. Passing a nil
// fn (or every <= 0) removes the sampler.
func (e *Engine) SetSampler(every Time, fn func()) {
	if fn == nil || every <= 0 {
		e.sampleAt = maxTime
		e.sampleEvery = 0
		e.sampleFn = nil
		return
	}
	e.sampleEvery = every
	e.sampleFn = fn
	e.sampleAt = e.now + every
}

// SetCostSampler installs a sampled cost-attribution hook: one in every
// `every` dispatched callbacks (sampling-hook firings included, tagged
// EKSampler) is wall-clock stamped, and fn receives the event's kind tag
// plus the measured nanoseconds. The shared 1-in-N countdown across all
// dispatch paths keeps per-kind time shares unbiased. fn runs after the
// stamped callback returns and must not mutate simulation state — stamps
// are observation only, so enabling the sampler cannot perturb results.
// Passing a nil fn (or every <= 0) removes the hook; with no hook the
// dispatch loop pays a single nil check.
func (e *Engine) SetCostSampler(every int64, fn func(kind uint8, nanos int64)) {
	if fn == nil || every <= 0 {
		e.costFn = nil
		e.costEvery, e.costSkip = 0, 0
		return
	}
	e.costFn = fn
	e.costEvery = every
	e.costSkip = every
}

// Stop makes the current Run or RunUntil return after the executing event
// completes. Any same-timestamp events batched with the executing one stay
// pending and dispatch on the next run.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the schedule is empty or Stop is called.
func (e *Engine) Run() { e.RunUntil(maxTime) }

// RunUntil executes events with timestamps <= end, then sets the clock to
// end (unless the run was stopped early or ran out of events beyond end).
func (e *Engine) RunUntil(end Time) {
	start := e.processed
	defer func() {
		d := e.processed - start
		totalProcessed.Add(d)
		// Logical basis: dispatched plus reserved-but-unfiled (elided)
		// events. A seq reserved in an earlier run and filed in this one
		// makes the reserve/file part negative; the running sum is exact.
		totalEvents.Add(int64(d) + int64(e.nreserved-e.accReserved) - int64(e.nfiled-e.accFiled))
		e.accReserved, e.accFiled = e.nreserved, e.nfiled
	}()
	e.stopped = false
	for !e.stopped && e.refillDue() {
		top := e.due[0]
		if top.ev.state == evCanceled {
			// Lazy deletion: drain without advancing the clock or the
			// processed count.
			e.due.pop()
			e.ncanceled--
			e.recycle(top.ev)
			continue
		}
		if top.at > e.sampleAt && e.sampleAt <= end {
			// A sampling instant falls strictly before the next event: take
			// the sample, then re-read the queue (the hook may Stop or
			// Cancel). Strict ordering means events AT the instant ran first.
			e.fireSampler()
			continue
		}
		if top.at > end {
			break
		}
		e.runBatch(top.at)
	}
	// Drain sampling instants between the last event and the horizon. Only
	// for a finite horizon: Run() must still terminate on an empty schedule.
	if end < maxTime {
		for !e.stopped && e.sampleAt <= end {
			e.fireSampler()
		}
	}
	if !e.stopped && e.now < end && end < maxTime {
		e.now = end
	}
}

// runBatch dispatches every event scheduled at exactly time at in one
// pass: the whole batch is popped off the due heap up front (in seq order
// — the heap yields equal-timestamp entries FIFO), then dispatched without
// re-consulting the queue between callbacks. Events a callback schedules
// at the same timestamp carry higher seqs and fire right after the batch —
// except reserved-seq events (PostAtSeq), which are spliced into the
// undispatched remainder at their seq position, so the loop re-reads
// e.batch and its length each step. A callback canceling a later batch
// member takes effect because each member's state is checked at dispatch.
// On Stop, the undispatched remainder is pushed back so a later run
// resumes exactly where this one ended.
func (e *Engine) runBatch(at Time) {
	b := e.batch[:0]
	for len(e.due) > 0 && e.due[0].at == at {
		b = append(b, e.due.pop())
	}
	e.batch = b
	e.now = at
	e.inBatch = true
	for i := 0; i < len(e.batch); i++ {
		e.batchPos = i
		ent := e.batch[i]
		e.lastAt, e.lastSeq = ent.at, ent.seq
		ev := ent.ev
		if ev.state == evCanceled {
			e.ncanceled--
			e.recycle(ev)
			continue
		}
		e.processed++
		e.npending--
		// Copy the payload out before recycling: the callback may schedule
		// new events, which can reuse this very object.
		fn, fn2, a0, a1, kind := ev.fn, ev.fn2, ev.a0, ev.a1, ev.kind
		ev.state = evFired
		e.recycle(ev)
		if e.costFn != nil {
			e.dispatchCost(kind, fn, fn2, a0, a1)
		} else if fn2 != nil {
			fn2(a0, a1)
		} else {
			fn()
		}
		if e.dig != nil {
			e.dig.fold(at, ent.seq, kind)
		}
		if e.stopped {
			for _, rest := range e.batch[i+1:] {
				e.due.push(rest)
			}
			break
		}
	}
	e.inBatch = false
	e.batch = e.batch[:0]
}

// fireSampler advances the clock to the pending sampling instant and runs
// the hook, stamping it through the cost sampler like any other dispatch.
func (e *Engine) fireSampler() {
	e.now = e.sampleAt
	e.sampleAt += e.sampleEvery
	if e.costFn != nil {
		e.samplerCost()
		return
	}
	e.sampleFn()
}

// dispatchCost is the profiled dispatch path, outlined so the unprofiled
// loop body stays small and branch-predictable. The countdown makes the
// common case (skip) a decrement and compare; only 1-in-costEvery
// dispatches pay two monotonic clock reads.
//
//go:noinline
func (e *Engine) dispatchCost(kind uint8, fn func(), fn2 func(a, b any), a0, a1 any) {
	e.costSkip--
	if e.costSkip > 0 {
		if fn2 != nil {
			fn2(a0, a1)
		} else {
			fn()
		}
		return
	}
	e.costSkip = e.costEvery
	t0 := time.Now()
	if fn2 != nil {
		fn2(a0, a1)
	} else {
		fn()
	}
	e.costFn(kind, int64(time.Since(t0)))
}

// samplerCost stamps a sampling-hook firing through the same countdown as
// event dispatch, so EKSampler shares are sampled at the same rate.
//
//go:noinline
func (e *Engine) samplerCost() {
	e.costSkip--
	if e.costSkip > 0 {
		e.sampleFn()
		return
	}
	e.costSkip = e.costEvery
	t0 := time.Now()
	e.sampleFn()
	e.costFn(EKSampler, int64(time.Since(t0)))
}
