package obs_test

import (
	"testing"

	"prioplus/internal/obs"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("net/drops")
	c.Add(3)
	c.Add(2)
	if got := c.Value(); got != 5 {
		t.Errorf("counter value = %v, want 5", got)
	}
	if c2 := r.Counter("net/drops"); c2 != c {
		t.Error("Counter did not return the existing counter")
	}

	g := r.Gauge("net/buffer_hwm_bytes")
	g.Observe(10)
	g.Observe(40)
	g.Observe(25)
	if g.Value() != 25 || g.Max() != 40 {
		t.Errorf("gauge value/max = %v/%v, want 25/40", g.Value(), g.Max())
	}

	if names := r.Names(); len(names) != 2 || names[0] != "net/drops" || names[1] != "net/buffer_hwm_bytes" {
		t.Errorf("Names() = %v, want registration order", names)
	}
	if v, ok := r.Value("net/drops"); !ok || v != 5 {
		t.Errorf("Value(net/drops) = %v,%v", v, ok)
	}
	// Gauges report their high-water mark through Value/Snapshot.
	if v, ok := r.Value("net/buffer_hwm_bytes"); !ok || v != 40 {
		t.Errorf("Value(gauge) = %v,%v, want max 40", v, ok)
	}
	if _, ok := r.Value("missing"); ok {
		t.Error("Value(missing) reported ok")
	}
	snap := r.Snapshot()
	if snap["net/drops"] != 5 || snap["net/buffer_hwm_bytes"] != 40 {
		t.Errorf("Snapshot = %v", snap)
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("Gauge on a counter name did not panic")
		}
	}()
	r.Gauge("x")
}

func TestKindStrings(t *testing.T) {
	kinds := map[obs.Kind]string{
		obs.Enqueue: "enq", obs.Dequeue: "deq", obs.Drop: "drop",
		obs.Mark: "mark", obs.Pause: "pause", obs.Resume: "resume",
		obs.FlowDone: "fct",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestRecorder(t *testing.T) {
	rec := obs.NewRecorder()
	if rec.Metrics == nil {
		t.Fatal("NewRecorder left Metrics nil")
	}
	if rec.Flight != nil || rec.FlowTrace != nil {
		t.Error("NewRecorder should leave Flight and FlowTrace nil (recording is opt-in)")
	}
}
