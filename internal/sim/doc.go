// Package sim provides a deterministic discrete-event simulation engine
// with a picosecond clock.
//
// The engine drives every other component of the simulator: network ports
// schedule packet serialization and propagation, transports schedule
// pacing and retransmission timers, and experiments schedule flow
// arrivals. Reading this doc top to bottom is the engine's contract; the
// tests in engine_test.go, sampler_test.go, and wheel_test.go pin every
// clause.
//
// # Scheduling
//
// An Engine is single-threaded; batch parallelism is achieved by running
// one engine per (experiment, seed) run (see internal/runner). Callbacks
// are scheduled with At (absolute time, returns a cancelable *Event),
// After (relative time), Post2 (relative time, closure-free: a
// preallocated func(a, b any) plus two pre-boxed arguments — the
// zero-allocation primitive of the packet hot path), or PostAtSeq (a
// sequence position reserved earlier with ReserveSeq). AtK, Post2 and
// PostAtSeq take a cost-attribution kind tag. Scheduling in the past
// panics; a negative relative delay is clamped to zero.
//
// # Ordering and determinism
//
// Events are dispatched in strict (time, sequence) order: timestamps
// ascending, and FIFO among events that share a timestamp. Because the
// sequence number is assigned at scheduling time, a run's dispatch order
// is a pure function of its schedule calls, which makes every run
// bit-for-bit reproducible for a fixed seed — the property all figure
// reproductions and the parallel batch runner rely on.
//
// Events that share a timestamp are dispatched as one batch: the engine
// collects the whole same-timestamp cohort from the queue up front and
// invokes the callbacks back to back without re-consulting the queue.
// Events a callback schedules at the current timestamp join the order
// after the running batch (their sequence numbers are higher); canceling
// a not-yet-dispatched member of the running batch takes effect.
//
// # The event queue
//
// The queue is a hierarchical timing wheel (wheel.go): four levels of 256
// slots, a level-0 slot spanning 8.192 ns, each higher level 256× coarser,
// for a ~35 s horizon; a small heap in front restores exact (time, seq)
// order within a slot, and an overflow heap behind accepts any timestamp
// beyond the horizon. Insertion for the short-horizon events that dominate
// simulation (serialization, propagation, pacing) is O(1) — one compare,
// one append, one bitmap OR — and cursor advance skips empty time via
// occupancy bitmaps. Cancel is lazy: O(1) marking with reclamation when
// the event's slot drains, plus a compaction sweep when canceled entries
// dominate the queue, so cancel/re-arm patterns (RTO timers) cannot hold
// memory proportional to history.
//
// # Event ownership
//
// Every dispatched event — fired or canceled — is recycled through a
// per-engine free list, so steady-state scheduling allocates nothing. A
// caller holding an *Event handle for cancellation must drop the handle
// once the event has fired or been canceled; calling Cancel on a stale
// handle may cancel an unrelated future event. The idiomatic pattern is
// to nil the field as the first statement of the callback and right after
// Cancel.
//
// # Running and sampling
//
// Run executes until the schedule is empty or Stop is called; RunUntil
// executes events with timestamps <= end and then parks the clock at end.
// SetSampler installs a clock-driven hook that fires every fixed interval
// of simulated time, interleaved deterministically with the event stream
// (all events at or before an instant run first) without consuming queue
// events. TotalProcessed exposes a process-wide executed-event counter,
// updated once per RunUntil, which `prioplus-sim all` samples to report
// batch events/sec.
package sim
