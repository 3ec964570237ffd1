package sim

import "testing"

// TestCostSamplerStride verifies the 1-in-N countdown: with stride k, every
// k-th dispatched callback (sampler firings included) produces exactly one
// stamp.
func TestCostSamplerStride(t *testing.T) {
	e := NewEngine()
	var stamps int
	e.SetCostSampler(4, func(kind uint8, nanos int64) {
		stamps++
		if nanos < 0 {
			t.Fatalf("negative cost stamp: %d", nanos)
		}
	})
	const n = 40
	for i := 0; i < n; i++ {
		e.After(Time(i), func() {})
	}
	e.Run()
	if stamps != n/4 {
		t.Fatalf("stamps = %d, want %d", stamps, n/4)
	}
}

// TestCostSamplerKinds verifies that kind tags set at scheduling time reach
// the hook: every dispatch path (Post2, AtK, PostAtSeq, sampler firing,
// untagged After) reports its tag.
func TestCostSamplerKinds(t *testing.T) {
	e := NewEngine()
	var got []uint8
	e.SetCostSampler(1, func(kind uint8, nanos int64) { got = append(got, kind) })

	e.Post2(1, func(a, b any) {}, nil, nil, EKDeliverHost)
	e.AtK(2, func() {}, EKRTO)
	seq := e.ReserveSeq()
	e.PostAtSeq(3, func() {}, seq, EKTransmit)
	e.After(4, func() {}) // untagged → EKOther
	e.SetSampler(5, func() {})
	e.RunUntil(5)

	want := []uint8{EKDeliverHost, EKRTO, EKTransmit, EKOther, EKSampler}
	if len(got) != len(want) {
		t.Fatalf("got %d stamps (%v), want %d", len(got), got, len(want))
	}
	for i, k := range want {
		if got[i] != k {
			t.Fatalf("stamp %d kind = %s, want %s", i, EventKindName(got[i]), EventKindName(k))
		}
	}
}

// TestCostSamplerZeroAllocDisabled pins the obs-off contract: with the
// cost sampler compiled in but not installed, the schedule/dispatch cycle
// performs zero heap allocations.
func TestCostSamplerZeroAllocDisabled(t *testing.T) {
	e := NewEngine()
	fn2 := func(a, b any) {}
	// Warm the free list.
	for i := 0; i < 64; i++ {
		e.Post2(Time(i), fn2, nil, nil, EKTransmit)
	}
	e.Run()
	if avg := testing.AllocsPerRun(200, func() {
		e.Post2(1, fn2, nil, nil, EKTransmit)
		e.Run()
	}); avg != 0 {
		t.Fatalf("Post2+Run allocates %.1f times per op with cost sampling off", avg)
	}
}

// TestCostSamplerZeroAllocEnabled pins that the stamping path itself does
// not allocate either: time.Now/time.Since and the hook invocation stay on
// the stack (the hook here only sums into captured locals).
func TestCostSamplerZeroAllocEnabled(t *testing.T) {
	e := NewEngine()
	var n, ns int64
	e.SetCostSampler(2, func(kind uint8, nanos int64) { n++; ns += nanos })
	fn2 := func(a, b any) {}
	for i := 0; i < 64; i++ {
		e.Post2(Time(i), fn2, nil, nil, EKTransmit)
	}
	e.Run()
	if avg := testing.AllocsPerRun(200, func() {
		e.Post2(1, fn2, nil, nil, EKTransmit)
		e.Post2(1, fn2, nil, nil, EKDeliverHost)
		e.Run()
	}); avg != 0 {
		t.Fatalf("profiled dispatch allocates %.1f times per op", avg)
	}
	if n == 0 {
		t.Fatal("cost hook never fired")
	}
}

// TestCostSamplerRemove verifies nil/zero disables the hook.
func TestCostSamplerRemove(t *testing.T) {
	e := NewEngine()
	fired := false
	e.SetCostSampler(1, func(uint8, int64) { fired = true })
	e.SetCostSampler(0, nil)
	e.After(1, func() {})
	e.Run()
	if fired {
		t.Fatal("cost hook fired after removal")
	}
}

// TestEventKindName covers the stable names and the out-of-range fallback.
func TestEventKindName(t *testing.T) {
	cases := map[uint8]string{
		EKOther:         "other",
		EKTransmit:      "transmit",
		EKDeliverSwitch: "deliver_switch",
		EKDeliverHost:   "deliver_host",
		EKPause:         "pause",
		EKRTO:           "rto",
		EKSampler:       "sampler",
		EKFault:         "fault",
		255:             "other",
	}
	for k, want := range cases {
		if got := EventKindName(k); got != want {
			t.Errorf("EventKindName(%d) = %q, want %q", k, got, want)
		}
	}
}

// TestTotalEventsLogicalBasis verifies that reserved-but-never-filed seqs
// count as (elided) logical events while filed ones are not double-counted:
// logical = dispatched + reserved − filed.
func TestTotalEventsLogicalBasis(t *testing.T) {
	e := NewEngine()
	p0, l0 := TotalProcessed(), TotalEvents()

	// Two plain events, one reserved seq that is filed (and dispatches),
	// one reserved seq that never is (elided).
	e.After(1, func() {})
	e.After(2, func() {})
	filed := e.ReserveSeq()
	e.PostAtSeq(3, func() {}, filed, EKOther)
	e.ReserveSeq() // elided
	e.RunUntil(10)

	if d := TotalProcessed() - p0; d != 3 {
		t.Fatalf("dispatched delta = %d, want 3", d)
	}
	if d := TotalEvents() - l0; d != 4 {
		t.Fatalf("logical delta = %d, want 4 (3 dispatched + 1 elided)", d)
	}
}

// TestTotalEventsCrossRunFile verifies the signed accounting: a seq
// reserved in one RunUntil and filed in a later one is counted exactly
// once overall.
func TestTotalEventsCrossRunFile(t *testing.T) {
	e := NewEngine()
	l0 := TotalEvents()
	var seq uint64
	e.After(1, func() { seq = e.ReserveSeq() })
	e.RunUntil(5) // run A: 1 dispatched + 1 reserved → +2
	e.PostAtSeq(8, func() {}, seq, EKOther)
	e.RunUntil(10) // run B: 1 dispatched + 1 filed → +0... net +1
	if d := TotalEvents() - l0; d != 2 {
		t.Fatalf("logical delta = %d, want 2 (each event counted once)", d)
	}
}
