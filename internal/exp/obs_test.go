package exp

import (
	"testing"

	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

// TestRunFlowSchedObs: a flow-scheduling run with an attached recorder
// emits the live flow aggregates and the post-run device metrics.
func TestRunFlowSchedObs(t *testing.T) {
	t.Parallel()
	cfg := DefaultFlowSchedConfig(PrioPlusSwift(), 4)
	cfg.K = 4
	cfg.Duration = 2 * sim.Millisecond
	cfg.Drain = 5 * sim.Millisecond
	rec := obs.NewRecorder()
	cfg.ObsFor = func(string) *obs.Recorder { return rec }
	res := RunFlowSched(cfg)
	if res.Flows.Count() == 0 {
		t.Fatal("no flows completed")
	}
	snap := rec.Metrics.Snapshot()
	if got := snap["net/flows_completed"]; got != float64(res.Flows.Count()) {
		t.Errorf("net/flows_completed = %v, want %d", got, res.Flows.Count())
	}
	if snap["net/tx_packets"] <= 0 || snap["net/rx_packets"] <= 0 {
		t.Errorf("device aggregates missing: tx=%v rx=%v", snap["net/tx_packets"], snap["net/rx_packets"])
	}
	if snap["net/queue_hwm_bytes"] <= 0 {
		t.Errorf("net/queue_hwm_bytes = %v, want > 0 under 0.7 load", snap["net/queue_hwm_bytes"])
	}
}

// TestFig10bWatchdogEarlyStop: a watchdog that trips before the first
// delay sample must yield a zero result, not a divide-by-zero panic.
func TestFig10bWatchdogEarlyStop(t *testing.T) {
	t.Parallel()
	rec := obs.NewRecorder()
	rec.Watchdog = &obs.Watchdog{MaxInflightBytes: 64 << 10}
	rec.Series = obs.NewSeriesSet(10 * sim.Microsecond)
	res := Fig10b(80, Options{Recorder: rec})
	if rec.Watchdog.Tripped() != "inflight_bytes" {
		t.Fatalf("Tripped = %q, want inflight_bytes", rec.Watchdog.Tripped())
	}
	if res.WithinFrac != 0 || res.MeanDelay != 0 {
		t.Errorf("early-stopped run reported WithinFrac=%v MeanDelay=%v, want zeros", res.WithinFrac, res.MeanDelay)
	}
}
