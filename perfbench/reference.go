package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"prioplus/internal/exp"
)

// Scenario seed pools. A workload seed n starts at pool position n and
// walks consecutive pool seeds, so every scenario the benchmark can run
// has a reference row.
const (
	incastPool = 64
	coflowPool = 32
)

// poolSeed returns the scenario seed of pass j for workload seed n.
func poolSeed(n int64, j, pool int) int64 {
	return ((n+int64(j))%int64(pool)+int64(pool))%int64(pool) + 1
}

// refEntry pins one scenario run: its exact result row, its logical event
// count, how many flows may still be running at the horizon, and its
// digest chain ("<chain>/<events folded>").
type refEntry struct {
	Row        string `json:"row"`
	Events     uint64 `json:"events"`
	Unfinished int    `json:"unfinished"`
	Digest     string `json:"digest"`
}

// reference is testdata/reference.json.
type reference struct {
	Note      string              `json:"note"`
	Scenarios map[string]refEntry `json:"scenarios"`
}

//go:embed testdata/reference.json
var referenceJSON []byte

func loadReference(raw []byte) (*reference, error) {
	var ref reference
	if err := json.Unmarshal(raw, &ref); err != nil {
		return nil, fmt.Errorf("bad reference: %w", err)
	}
	return &ref, nil
}

// check compares one scenario run against its reference entry and returns
// every mismatch ("" when it matches).
func (ref *reference) check(s scenario) []string {
	want, ok := ref.Scenarios[s.key()]
	if !ok {
		return []string{s.key() + ": no reference row"}
	}
	var bad []string
	if s.row != want.Row {
		bad = append(bad, fmt.Sprintf("%s: row %q, reference %q", s.key(), s.row, want.Row))
	}
	if s.events != want.Events {
		bad = append(bad, fmt.Sprintf("%s: %d events, reference %d", s.key(), s.events, want.Events))
	}
	if s.unfinished > want.Unfinished {
		bad = append(bad, fmt.Sprintf("%s: %d unfinished flows, reference %d", s.key(), s.unfinished, want.Unfinished))
	}
	if s.digest != "" && s.digest != want.Digest {
		bad = append(bad, fmt.Sprintf("%s: digest %s, reference %s", s.key(), s.digest, want.Digest))
	}
	if s.violation != "" {
		bad = append(bad, fmt.Sprintf("%s: audit violation: %s", s.key(), s.violation))
	}
	return bad
}

// regenerate rebuilds the reference over both seed pools with the digest
// chain armed, cross-checking every row against its exp figure function so the
// reference cannot drift from the figures, and writes it to path.
func regenerate(path string, logf func(format string, args ...any)) error {
	ref := reference{
		Note:      "perfbench reference rows; regenerate with: cd perfbench && go run . -regen testdata/reference.json",
		Scenarios: map[string]refEntry{},
	}
	add := func(s scenario, err error, want string) error {
		if err != nil {
			return err
		}
		if s.row != want {
			return fmt.Errorf("%s: benchmark row %q differs from exp's %q", s.key(), s.row, want)
		}
		ref.Scenarios[s.key()] = refEntry{Row: s.row, Events: s.events, Unfinished: s.unfinished, Digest: s.digest}
		logf("%s %s\n", s.key(), s.digest)
		return nil
	}
	for seed := int64(1); seed <= incastPool; seed++ {
		s, err := runFig10b(seed, insTraced, nil, "")
		if err := add(s, err, fig10bRow(exp.Fig10b(incastSenders, exp.Options{Seed: seed}))); err != nil {
			return err
		}
		s, err = runFig10a(seed, insTraced, nil, "")
		if err := add(s, err, floatsRow(exp.Fig10a(ladderPerPrio, ladderStep, exp.Options{Seed: seed}))); err != nil {
			return err
		}
	}
	for seed := int64(1); seed <= coflowPool; seed++ {
		for _, sch := range coflowSchemes() {
			s, err := runCoflow(sch, seed, insTraced, nil, "")
			if err := add(s, err, coflowRow(exp.RunCoflow(coflowExpConfig(sch, seed)))); err != nil {
				return err
			}
		}
	}
	return writeJSON(path, ref)
}

// coflowExpConfig is the exp.RunCoflow config the coflow scenario
// reproduces: the same fabric and seed, with the budgeted arrival stream
// as its trace.
func coflowExpConfig(s exp.Scheme, seed int64) exp.CoflowConfig {
	cfg := coflowConfig(s, seed)
	tc := coflowFabric(s, seed)
	hosts := cfg.Pods * cfg.Edges * cfg.HostsPerEdge
	cfg.Trace = coflowArrivals(hosts, tc.HostRate, seed, cfg.Duration, coflowBudget)
	return cfg
}

func coflowSchemes() []exp.Scheme { return []exp.Scheme{exp.SwiftPhysical(8), exp.PrioPlusSwift()} }

// writeJSON writes v as indented JSON (map keys sorted).
func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
