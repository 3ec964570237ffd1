package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"prioplus/internal/exp"
	"prioplus/internal/serve"
)

// TestCLIAndServeAgree pins the two front ends to one instrumentation
// path: an experiment run from the CLI with -series DIR -fingerprint and
// the same experiment submitted to the job server with artifact=true must
// print the same bytes and record the same artifacts, run for run. fig8
// owns two runs (pp, swift); fig10b one, whose artifact bytes are pinned.
func TestCLIAndServeAgree(t *testing.T) {
	sched := serve.New(serve.Config{Workers: 1})
	defer sched.Close()

	for _, id := range []string{"fig8", "fig10b"} {
		dir := t.TempDir()
		sink, err := parseObsFlags("-series", dir, "-fingerprint")
		if err != nil {
			t.Fatal(err)
		}
		var cli bytes.Buffer
		if err := exp.Run(id, exp.RunParams{Seed: 1}, sink, &cli); err != nil {
			t.Fatal(err)
		}

		snap, err := sched.Submit(serve.JobSpec{Experiment: id, Params: exp.RunParams{Seed: 1}, Artifact: true})
		if err != nil {
			t.Fatal(err)
		}
		res := waitResult(t, sched, snap.ID)
		if res.Status != serve.JobDone {
			t.Fatalf("%s job %s: %s", id, res.Status, res.Err)
		}
		if res.Output != cli.String() {
			t.Errorf("%s output differs:\nCLI:\n%s\nserve:\n%s", id, cli.String(), res.Output)
		}

		files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(files)
		if len(files) != len(res.Artifacts) {
			t.Fatalf("%s: CLI wrote %d artifacts, serve captured %d", id, len(files), len(res.Artifacts))
		}
		for _, a := range res.Artifacts {
			disk, err := os.ReadFile(filepath.Join(dir, a.Stem+".jsonl"))
			if err != nil {
				t.Fatalf("%s: serve artifact %s has no CLI counterpart: %v", id, a.Stem, err)
			}
			if !bytes.Equal(disk, []byte(a.Lines)) {
				t.Errorf("%s: artifact %s differs: CLI %d bytes, serve %d bytes", id, a.Stem, len(disk), len(a.Lines))
			}
		}
		if id == "fig10b" {
			disk, err := os.ReadFile(filepath.Join(dir, "fig10b__incast__seed1.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(disk)
			const want = "648717a94dde61bbef0dc032e125d6855e4eab57bebeb3cafb3d6680ad84fff6"
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("fig10b artifact sha256 = %s, want %s", got, want)
			}
		}
	}
}

// waitResult polls the scheduler until the job finishes and returns its
// result.
func waitResult(t *testing.T, s *serve.Scheduler, id string) serve.JobResult {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		res, err := s.Result(id)
		if err == nil {
			return res
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return serve.JobResult{}
}
