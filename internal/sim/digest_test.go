package sim

import "testing"

// runLadder schedules a deterministic mix of events (staggered times,
// same-timestamp batches, payload folds, a cancellation) and returns the
// digest. perturb shifts one event's delay by 1ns to model a divergence.
func runLadder(d *Digest, n int, perturb bool) {
	e := NewEngine()
	e.SetDigest(d)
	for i := 0; i < n; i++ {
		t := Time(i * 10)
		if perturb && i == n/2 {
			t++
		}
		i := i
		e.AtK(t, func() {
			if d := e.Digest(); d != nil && i%3 == 0 {
				d.FoldPayload(uint64(i), uint64(i*7), uint64(i*13))
			}
		}, uint8(i%int(NumEventKinds)))
	}
	ev := e.At(Time(n*10+5), func() {})
	e.Cancel(ev)
	e.Run()
}

func TestDigestDeterministic(t *testing.T) {
	a, b := NewDigest(), NewDigest()
	runLadder(a, 500, false)
	runLadder(b, 500, false)
	if a.Chain != b.Chain || a.Count != b.Count {
		t.Fatalf("identical runs diverged: %x/%d vs %x/%d", a.Chain, a.Count, b.Chain, b.Count)
	}
	if a.Count != 500 {
		t.Fatalf("Count = %d, want 500 (canceled event must not fold)", a.Count)
	}
}

func TestDigestDetectsPerturbation(t *testing.T) {
	a, b := NewDigest(), NewDigest()
	runLadder(a, 500, false)
	runLadder(b, 500, true)
	if a.Chain == b.Chain {
		t.Fatal("1ns perturbation did not change the chain")
	}
	// Checkpoints localize the divergence: the first mismatching
	// checkpoint must be at or after the perturbed event (count ~250).
	for i := range a.Ckpts {
		if i >= len(b.Ckpts) {
			break
		}
		if a.Ckpts[i].Count != b.Ckpts[i].Count {
			t.Fatalf("checkpoint counts misaligned: %d vs %d", a.Ckpts[i].Count, b.Ckpts[i].Count)
		}
		if (a.Ckpts[i].Chain == b.Ckpts[i].Chain) != (a.Ckpts[i].Count < 250) {
			t.Fatalf("checkpoint %d (count %d): match=%v, want divergence from count 250",
				i, a.Ckpts[i].Count, a.Ckpts[i].Chain == b.Ckpts[i].Chain)
		}
	}
}

func TestDigestPayloadSensitivity(t *testing.T) {
	fold := func(tag, x, y uint64) uint64 {
		d := NewDigest()
		e := NewEngine()
		e.SetDigest(d)
		e.At(0, func() { d.FoldPayload(tag, x, y) })
		e.Run()
		return d.Chain
	}
	base := fold(1, 2, 3)
	for _, alt := range []uint64{fold(9, 2, 3), fold(1, 9, 3), fold(1, 2, 9)} {
		if alt == base {
			t.Fatal("payload component did not affect the chain")
		}
	}
	// Argument positions must not be interchangeable.
	if fold(1, 2, 3) == fold(1, 3, 2) {
		t.Fatal("payload fold is symmetric in a/b")
	}
}

func TestDigestCheckpointCompaction(t *testing.T) {
	d := NewDigest()
	e := NewEngine()
	e.SetDigest(d)
	// Enough events to force at least one compaction.
	n := (digestCkptCap + 10) * DigestCheckpointEvery
	var step func()
	i := 0
	step = func() {
		i++
		if i < n {
			e.After(1, step)
		}
	}
	e.After(0, step)
	e.Run()
	if d.CheckpointEvery() <= DigestCheckpointEvery {
		t.Fatalf("interval %d: compaction never ran", d.CheckpointEvery())
	}
	if len(d.Ckpts) > digestCkptCap {
		t.Fatalf("checkpoint buffer grew past cap: %d", len(d.Ckpts))
	}
	// Invariants: counts strictly increase, fall on interval multiples,
	// and chains are consistent with a fresh replay's checkpoints.
	every := d.CheckpointEvery()
	var prev uint64
	for _, c := range d.Ckpts {
		if c.Count <= prev {
			t.Fatalf("checkpoint counts not increasing: %d after %d", c.Count, prev)
		}
		if c.Count%every != 0 && c.Count != d.Ckpts[len(d.Ckpts)-1].Count {
			// All but possibly trailing records (appended after the last
			// compaction at a smaller interval) sit on multiples of a
			// power-of-two fraction of every; just require the original grid.
			if c.Count%DigestCheckpointEvery != 0 {
				t.Fatalf("checkpoint count %d off the base grid", c.Count)
			}
		}
		prev = c.Count
	}
}

func TestDigestWindowRecording(t *testing.T) {
	d := NewDigest()
	d.SetWindow(100, 110)
	runLadder(d, 500, false)
	if len(d.Recs) != 10 {
		t.Fatalf("recorded %d events, want 10", len(d.Recs))
	}
	for i, r := range d.Recs {
		if r.Count != uint64(100+i) {
			t.Fatalf("rec %d has count %d", i, r.Count)
		}
	}
	if d.Truncated() {
		t.Fatal("10-event window reported truncated")
	}
}

func TestDigestFoldAllocs(t *testing.T) {
	d := NewDigest()
	e := NewEngine()
	e.SetDigest(d)
	var tick func()
	tick = func() {
		d.FoldPayload(1, 2, 3)
		e.After(1, tick)
	}
	e.After(0, tick)
	e.RunUntil(100) // warm the event free list
	allocs := testing.AllocsPerRun(200, func() {
		end := e.Now() + 50
		e.RunUntil(end)
	})
	if allocs > 0 {
		t.Fatalf("digest fold path allocates: %v allocs/run", allocs)
	}
}
