package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSinkStemDedupe: two runs with the same tag get distinct stems, so
// the second artifact never clobbers the first, on disk or in memory.
func TestSinkStemDedupe(t *testing.T) {
	dir := t.TempDir()
	s := &Sink{Series: true, Dir: dir, exp: "fig99", seed: 7}
	s.Recorder("a/b")
	s.Recorder("a/b")
	if err := s.flush(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig99__a-b__seed7.jsonl", "fig99__a-b__seed7-2.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("artifact %s not written: %v", want, err)
		}
	}

	mem := &Sink{Series: true, exp: "fig99", seed: 7}
	mem.Recorder("a/b")
	mem.Recorder("a/b")
	if err := mem.flush(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	runs := mem.Runs()
	if len(runs) != 2 || runs[0].Stem != "fig99__a-b__seed7" || runs[1].Stem != "fig99__a-b__seed7-2" {
		t.Fatalf("in-memory runs %+v, want two deduped stems", runs)
	}
	for _, r := range runs {
		if !bytes.Contains(r.Artifact, []byte(`"type":"meta"`)) {
			t.Errorf("run %s kept no artifact in memory", r.Stem)
		}
	}
}

// TestSinkFlushLines: flush prints each run's histogram summaries and then
// its fingerprint line, and an all-off sink records nothing.
func TestSinkFlushLines(t *testing.T) {
	s := &Sink{Hist: true, Fingerprint: true, exp: "fig99", seed: 1}
	rec := s.Recorder("tag")
	rec.Hist.FCT.Observe(1000)
	var out bytes.Buffer
	if err := s.flush(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "# hist tag transport/fct") ||
		!strings.HasPrefix(lines[1], "# fingerprint tag chain=") {
		t.Errorf("flush output:\n%s\nwant one hist line then the fingerprint line", out.String())
	}

	var off Sink
	if off.Recorder("tag") != nil || len(off.Runs()) != 0 {
		t.Error("all-off sink handed out a recorder")
	}
}
