package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"prioplus/internal/obs/stream"
	"prioplus/internal/runner"
	"prioplus/internal/serve"
	"prioplus/internal/sim"
)

// serveExperiments are the short network experiments fresh jobs draw
// from. They run at their published baked-in seeds whatever the job's
// seed, so every job's fingerprint must equal the manifest's seed=1 entry,
// while the new seed still makes each fresh job a cache miss.
var serveExperiments = []string{"fig10b", "tab2", "fig3b", "fig8", "fig3c", "fig10c"}

const (
	serveClients   = 2   // closed-loop clients
	serveSetups    = 101 // server start-ups timed for setup_s
	serveBatch     = 8   // completed jobs per wall_s batch
	serveHitWindow = 16  // hits repeat one of the client's last finished specs
	// serveClientSeeds spaces the clients' fresh-job seeds apart.
	serveClientSeeds = 50_000
	servePollPeriod  = time.Millisecond
)

// server is one job server stood up the way `prioplus-sim serve` does it.
type server struct {
	base  string
	srv   *stream.Server
	sched *serve.Scheduler
}

// startServer loads the manifest, starts the scheduler and listener, and
// returns once the server has answered its first request.
func startServer(manifestPath string) (*server, *serve.Manifest, error) {
	m, err := serve.LoadManifest(manifestPath)
	if err != nil {
		return nil, nil, err
	}
	reg := &runner.Registry{}
	srv := stream.NewServer(reg)
	sched := serve.New(serve.Config{
		Workers:  runtime.NumCPU(),
		Manifest: m,
		Registry: reg,
		Hub:      srv.Hub,
	})
	serve.NewAPI(sched).Mount(srv)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		sched.Close()
		return nil, nil, err
	}
	s := &server{base: "http://" + srv.Addr(), srv: srv, sched: sched}
	resp, err := http.Get(s.base + "/experiments")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.close()
		return nil, nil, fmt.Errorf("first request: %w", err)
	}
	return s, m, nil
}

func (s *server) close() error {
	s.sched.Close()
	return s.srv.Close()
}

// jobSample is one job's client-side timing.
type jobSample struct {
	hit                      bool
	total, submit, poll, res time.Duration
	computeMS                float64
	traced                   bool
}

// serveLoad is the closed-loop client state shared by the clients.
type serveLoad struct {
	client   *http.Client
	base     string
	manifest map[string]string
	seedBase int64

	mu       sync.Mutex
	samples  []jobSample
	done     []time.Time // completion instants, for batch wall time
	failures []string
	rejected int
	attempts int
}

type submitSpec struct {
	Experiment string `json:"experiment"`
	Params     struct {
		Seed int64 `json:"seed"`
	} `json:"params"`
}

func (l *serveLoad) fail(format string, args ...any) {
	l.mu.Lock()
	l.failures = append(l.failures, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// do sends one request and decodes a JSON body into v (when non-nil).
func (l *serveLoad) do(method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequest(method, l.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if v != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, v); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return resp.StatusCode, nil
}

// job submits one spec, polls it to completion, fetches and checks the
// result. It reports false when the job failed in any way.
func (l *serveLoad) job(spec submitSpec, wantHit, traced bool) bool {
	body, _ := json.Marshal(spec)
	l.mu.Lock()
	l.attempts++
	l.mu.Unlock()
	t0 := time.Now()
	var snap serve.JobSnapshot
	code, err := l.do(http.MethodPost, "/jobs", body, &snap)
	if code == http.StatusTooManyRequests {
		l.mu.Lock()
		l.rejected++
		l.mu.Unlock()
	}
	if err != nil {
		l.fail("submit %s seed=%d: %v", spec.Experiment, spec.Params.Seed, err)
		return false
	}
	tSubmit := time.Now()
	for {
		if _, err := l.do(http.MethodGet, "/jobs/"+snap.ID, nil, &snap); err != nil {
			l.fail("poll %s: %v", snap.ID, err)
			return false
		}
		if snap.Status != serve.JobQueued && snap.Status != serve.JobRunning {
			break
		}
		time.Sleep(servePollPeriod)
	}
	tPoll := time.Now()
	var res serve.JobResult
	if _, err := l.do(http.MethodGet, "/jobs/"+snap.ID+"/result", nil, &res); err != nil {
		l.fail("result %s: %v", snap.ID, err)
		return false
	}
	end := time.Now()
	key := spec.Experiment + "/seed=1"
	switch {
	case res.Status != serve.JobDone:
		l.fail("job %s (%s seed=%d) %s: %s", snap.ID, spec.Experiment, spec.Params.Seed, res.Status, res.Err)
		return false
	case res.FP != l.manifest[key]:
		l.fail("job %s (%s seed=%d): fp %s, manifest %s %s", snap.ID, spec.Experiment, spec.Params.Seed, res.FP, key, l.manifest[key])
		return false
	case wantHit != (res.Cache == "hit"):
		l.fail("job %s (%s seed=%d): cache %q, want hit=%v", snap.ID, spec.Experiment, spec.Params.Seed, res.Cache, wantHit)
		return false
	}
	s := jobSample{hit: wantHit, total: end.Sub(t0), traced: traced}
	if traced {
		s.submit, s.poll, s.res = tSubmit.Sub(t0), tPoll.Sub(tSubmit), end.Sub(tPoll)
	}
	if !wantHit {
		s.computeMS = res.Metrics["wall_ms"]
	}
	l.mu.Lock()
	l.samples = append(l.samples, s)
	l.done = append(l.done, end)
	l.mu.Unlock()
	return true
}

// clientLoop alternates a fresh job and a repeat of one of the client's
// recently finished specs until the deadline; the client's job sequence
// depends only on the workload seed and its id. Traced runs time the
// phases of every other pair; their overhead is measured on the wait
// (latency minus the scheduler's compute time), which does not depend on
// which experiment a job ran.
func (l *serveLoad) clientLoop(id int, seed int64, deadline time.Time, traced bool) {
	rng := rand.New(rand.NewSource(seed*31 + int64(id)))
	var finished []submitSpec
	for k := 0; time.Now().Before(deadline); k++ {
		tracedJob := traced && k%2 == 1
		var spec submitSpec
		spec.Experiment = serveExperiments[rng.Intn(len(serveExperiments))]
		spec.Params.Seed = l.seedBase + int64(id)*serveClientSeeds + int64(k) + 1
		if !l.job(spec, false, tracedJob) {
			continue
		}
		finished = append(finished, spec)
		recent := finished[max(0, len(finished)-serveHitWindow):]
		l.job(recent[rng.Intn(len(recent))], true, tracedJob)
	}
}

// runServe measures the serve workload: server start-up until it first
// answers, then a closed loop of two clients for the given duration.
func runServe(seed int64, dur time.Duration, traced bool, manifestPath string) (*outcome, error) {
	var setup dist
	var s *server
	var m *serve.Manifest
	for i := 0; i < serveSetups; i++ {
		t0 := time.Now()
		srv, man, err := startServer(manifestPath)
		if err != nil {
			return nil, fmt.Errorf("start server: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		if i < serveSetups-1 {
			if err := srv.close(); err != nil {
				return nil, err
			}
		} else {
			s, m = srv, man
		}
	}
	l := &serveLoad{
		client:   &http.Client{Timeout: time.Minute},
		base:     s.base,
		manifest: m.Runs,
		// Fresh seeds never repeat within a run and differ between
		// workload seeds; seed 1 (the manifest's) is never used.
		seedBase: 1_000_000 + (seed%1000+1000)%1000*serveClients*serveClientSeeds,
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	ev0 := sim.TotalEvents()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l.clientLoop(c, seed, deadline, traced)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	events := sim.TotalEvents() - ev0
	runtime.ReadMemStats(&mem1)
	l.client.CloseIdleConnections()
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("close server: %w", err)
	}
	out := l.outcome(setup, elapsed, events, traced)
	if traced {
		perJob := float64(max(len(l.samples), 1))
		out.layers["go.alloc_mb"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / perJob / (1 << 20)
		out.layers["go.gc_cycles"] = float64(mem1.NumGC-mem0.NumGC) / perJob
		out.layers["go.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / perJob / 1e6
	}
	return out, nil
}

// outcome turns the samples into the serve workload's metrics.
func (l *serveLoad) outcome(setup dist, elapsed time.Duration, events uint64, traced bool) *outcome {
	out := &outcome{attempted: l.attempts, failed: len(l.failures), failures: l.failures}
	var job, hit, batch dist
	var submit, poll, res, compute, wait, tracedWait, plainWait dist
	for _, s := range l.samples {
		ms := float64(s.total) / 1e6
		if s.hit {
			hit = append(hit, ms)
		} else {
			job = append(job, ms)
			compute = append(compute, s.computeMS)
			wait = append(wait, ms-s.computeMS)
			if s.traced {
				tracedWait = append(tracedWait, ms-s.computeMS)
			} else {
				plainWait = append(plainWait, ms-s.computeMS)
			}
		}
		if s.traced {
			submit = append(submit, float64(s.submit)/1e6)
			poll = append(poll, float64(s.poll)/1e6)
			res = append(res, float64(s.res)/1e6)
		}
	}
	for i := serveBatch; i < len(l.done); i += serveBatch {
		batch = append(batch, l.done[i].Sub(l.done[i-serveBatch]).Seconds())
	}
	jobsPerS := float64(len(l.samples)) / elapsed.Seconds()
	out.e2e = []metric{
		{Name: "setup_s", Unit: "s", Value: setup.median(), N: len(setup)},
		{Name: "wall_s", Unit: "s", Value: batch.median(), N: len(batch)},
		{Name: "events_per_s", Unit: "events/s", Value: float64(events) / elapsed.Seconds()},
		{Name: "peak_rss_mb", Unit: "MB", Value: peakRSSMB()},
		{Name: "failed_frac", Unit: "fraction", Value: ratio(float64(out.failed), float64(out.attempted)), N: out.attempted},
		{Name: "job_p50_ms", Unit: "ms", Value: job.median(), N: len(job)},
		{Name: "job_p90_ms", Unit: "ms", Value: job.tail(), N: len(job), Q: job.tailQ()},
		{Name: "hit_p50_ms", Unit: "ms", Value: hit.median(), N: len(hit)},
		{Name: "hit_p90_ms", Unit: "ms", Value: hit.tail(), N: len(hit), Q: hit.tailQ()},
		{Name: "jobs_per_s", Unit: "jobs/s", Value: jobsPerS, N: len(l.samples)},
	}
	if traced {
		out.layers = map[string]float64{
			"sim.events":          ratio(float64(events), float64(len(job))),
			"serve.submit_ms":     submit.median(),
			"serve.poll_ms":       poll.median(),
			"serve.result_ms":     res.median(),
			"serve.compute_ms":    compute.median(),
			"serve.wait_ms":       wait.median(),
			"serve.hit_ratio":     ratio(float64(len(hit)), float64(len(l.samples))),
			"serve.rejected":      float64(l.rejected),
			"serve.job_p50_ms":    job.median(),
			"serve.job_p90_ms":    job.tail(),
			"serve.hit_p50_ms":    hit.median(),
			"serve.hit_p90_ms":    hit.tail(),
			"serve.jobs_per_s":    jobsPerS,
			"trace.overhead_frac": ratio(tracedWait.median(), plainWait.median()) - 1,
		}
		out.passes = len(submit)
	}
	return out
}
