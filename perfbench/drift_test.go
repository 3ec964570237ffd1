package main

import (
	"testing"

	"prioplus/internal/exp"
	"prioplus/internal/sim"
)

// TestDriftGuard: at the exp figure functions' default seeds the benchmark-built
// scenarios reproduce exp.Fig10b, exp.Fig10a and exp.RunCoflow exactly, so
// the benchmark measures the same program the figures come from.
func TestDriftGuard(t *testing.T) {
	if s, err := runFig10b(17, insOff, nil, ""); err != nil || s.row != fig10bRow(exp.Fig10b(incastSenders, exp.Options{})) {
		t.Errorf("fig10b: %v, row %q differs from exp.Fig10b", err, s.row)
	}
	if s, err := runFig10a(23, insOff, nil, ""); err != nil || s.row != floatsRow(exp.Fig10a(ladderPerPrio, ladderStep, exp.Options{})) {
		t.Errorf("fig10a: %v, row %q differs from exp.Fig10a", err, s.row)
	}
	for _, sch := range coflowSchemes() {
		s, err := runCoflow(sch, 1, insOff, nil, "")
		if want := coflowRow(exp.RunCoflow(coflowExpConfig(sch, 1))); err != nil || s.row != want {
			t.Errorf("coflow %s: %v, row %q differs from exp.RunCoflow %q", sch.Name, err, s.row, want)
		}
	}
}

// TestCoflowGenerator: with no byte budget the benchmark's arrival stream
// is RunCoflow's own generator output, so the budget is the only change.
func TestCoflowGenerator(t *testing.T) {
	sch := exp.PrioPlusSwift()
	cfg := coflowConfig(sch, 1)
	cfg.Duration = sim.Millisecond
	want := exp.RunCoflow(cfg)
	cfg.Trace = coflowArrivals(32, coflowFabric(sch, 1).HostRate, 1, cfg.Duration, 0)
	if got := exp.RunCoflow(cfg); coflowRow(got) != coflowRow(want) {
		t.Errorf("generator drift: %q vs %q", coflowRow(got), coflowRow(want))
	}
}
