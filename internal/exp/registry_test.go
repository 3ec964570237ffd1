package exp

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// TestRegistryComplete: the registry holds the full 27-experiment suite,
// lookups resolve every listed id, and ids are unique (Register would have
// panicked otherwise, but the count pins accidental deletions too).
func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 27 {
		t.Fatalf("registry has %d experiments, want 27: %v", len(ids), ids)
	}
	for _, id := range ids {
		sp, ok := Lookup(id)
		if !ok {
			t.Fatalf("IDs() lists %q but Lookup misses it", id)
		}
		if sp.ID != id || sp.Describe == "" || sp.Run == nil {
			t.Errorf("spec %q incomplete: id=%q describe=%q run-nil=%v", id, sp.ID, sp.Describe, sp.Run == nil)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup accepted an unknown id")
	}
	// The first and last ids pin suite order (registration order).
	if ids[0] != "fig2" || ids[len(ids)-1] != "faultsweep" {
		t.Errorf("suite order changed: first=%q last=%q", ids[0], ids[len(ids)-1])
	}
}

// TestSpecDefaultsRoundTrip: every spec's default params survive a JSON
// round trip — the serializability contract the job server relies on.
func TestSpecDefaultsRoundTrip(t *testing.T) {
	for _, sp := range Specs() {
		enc, err := json.Marshal(sp.Defaults)
		if err != nil {
			t.Fatalf("%s: marshal defaults: %v", sp.ID, err)
		}
		got, err := DecodeParams(enc, RunParams{})
		if err != nil {
			t.Fatalf("%s: decode own defaults: %v", sp.ID, err)
		}
		if got != sp.Defaults {
			t.Errorf("%s: defaults round trip %+v -> %+v", sp.ID, sp.Defaults, got)
		}
	}
}

// TestCanonicalInvariance: the canonical form (and therefore the cache
// key) is identical whether params arrive with fields reordered, defaults
// spelled out, or omitted entirely.
func TestCanonicalInvariance(t *testing.T) {
	base := RunParams{Seed: 1}
	variants := []string{
		`{"seed": 1}`,
		`{"seed": 1, "full": false, "series": false, "perturb": 0}`,
		`{"perturb": 0, "seed": 1}`,
		`{}`,
		`null`,
		``,
	}
	want := base.Canonical()
	for _, v := range variants {
		p, err := DecodeParams([]byte(v), base)
		if err != nil {
			t.Fatalf("decode %q: %v", v, err)
		}
		if got := p.Canonical(); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", v, got, want)
		}
	}
	// A genuinely different spec must canonicalize differently.
	p, err := DecodeParams([]byte(`{"seed": 2}`), base)
	if err != nil {
		t.Fatal(err)
	}
	if p.Canonical() == want {
		t.Error("seed=2 canonicalized identically to seed=1")
	}
}

// TestDecodeParamsStrict: unknown fields and malformed JSON are rejected
// with the "bad params" prefix, and the base is used for omitted fields.
func TestDecodeParamsStrict(t *testing.T) {
	base := RunParams{Seed: 7, Full: true}
	for _, bad := range []string{`{"sede": 1}`, `{"seed": "x"}`, `{"seed": 1`, `42`,
		`{"seed": 1} trailing-garbage`, `{"seed": 1} {"seed": 2}`, `{"seed": 1}}`} {
		if _, err := DecodeParams([]byte(bad), base); err == nil {
			t.Errorf("DecodeParams(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "bad params") {
			t.Errorf("DecodeParams(%q) error %q lacks the bad-params prefix", bad, err)
		}
	}
	p, err := DecodeParams([]byte(`{"series": true}`), base)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || !p.Full || !p.Series {
		t.Errorf("partial decode over base = %+v, want base fields preserved", p)
	}
}

// TestRegisterRejectsDuplicates: double registration is a programming
// error and panics at init time, not a silent overwrite at serve time.
func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(Spec{ID: "fig2", Describe: "dup", Run: func(RunParams, *Sink, io.Writer) error { return nil }})
}
