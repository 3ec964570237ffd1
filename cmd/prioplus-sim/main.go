// Command prioplus-sim runs the paper's experiments from the command line:
//
//	prioplus-sim <experiment> [flags]
//	prioplus-sim all [-parallel N] [-seeds a,b,c] [-json out.json]
//	prioplus-sim report out/*.jsonl
//
// Experiments (ids match DESIGN.md and the paper's figures/tables):
//
//	fig2 fig3a fig3b fig3c fig3d fig7 fig8 fig9 fig10a fig10b fig10c
//	fig10d fig11 fig12ab fig12c fig13 fig14 fig15 fig16 fig17 fig18
//	tab2 appd ablation ext-ecn ext-weighted faultsweep
//
// Use -full for paper-scale runs (slower); the default scale preserves the
// comparisons at a fraction of the runtime. -seed, -print-series and
// -perturb D (inflate the D-th delay-noise draw by 1us, a controlled
// divergence for diff) are the other run parameters, the same
// exp.RunParams a serve job submits. The `all` subcommand fans every
// experiment across a worker pool (one private engine per run, so results
// are byte-identical whatever -parallel is) and reports wall-clock and
// events/sec. -cpuprofile/-memprofile write pprof profiles for either mode.
//
// Observability (both single and batch mode, on the experiments that
// support it — the fat-tree, coflow, and incast scenarios) is configured
// by flags bound straight into one exp.Sink: `-series out/`
// writes one timeline artifact (JSONL) per run into out/, `-hist` records
// streaming latency histograms and prints their summaries, and
// `-watchdog 256m` arms an in-flight-bytes watchdog that stops a runaway
// run and dumps the last trace events from the flight recorder. The
// `report` subcommand renders artifacts back into a text report; see
// docs/OBSERVABILITY.md.
//
// Determinism tooling: `-fingerprint` folds every dispatched event into a
// per-run digest chain (checkpointed into -series artifacts), `-audit`
// runs the conservation auditor, and the `diff` subcommand bisects two
// fingerprinted executions down to their first divergent event. The `all`
// subcommand's -fp-out/-fp-check write and enforce the committed
// fingerprint manifest (testdata/fingerprints.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"prioplus/internal/exp"
	"prioplus/internal/obs/stream"
	"prioplus/internal/runner"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	expID := os.Args[1]
	switch expID {
	case "all":
		os.Exit(runAll(os.Args[2:]))
	case "report":
		os.Exit(runReport(os.Args[2:]))
	case "trace":
		os.Exit(runTrace(os.Args[2:]))
	case "watch":
		os.Exit(runWatch(os.Args[2:]))
	case "diff":
		os.Exit(runDiff(os.Args[2:]))
	case "serve":
		os.Exit(runServe(os.Args[2:]))
	}
	fs := flag.NewFlagSet(expID, flag.ExitOnError)
	var p exp.RunParams
	addRunFlags(fs, &p)
	fs.Int64Var(&p.Seed, "seed", 1, "simulation seed")
	fs.BoolVar(&p.Series, "print-series", false, "also print inline time-series data where available")
	var sink exp.Sink
	listen := addObsFlags(fs, &sink)
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Parse(os.Args[2:])

	if err := validExperiment(expID); err != nil {
		fmt.Fprintln(os.Stderr, err)
		usage()
		os.Exit(2)
	}
	if err := resolveObs(&sink, *listen); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stop, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var srv *stream.Server
	if *listen != "" {
		reg := &runner.Registry{}
		sink.Live = reg.Add(fmt.Sprintf("%s/seed=%d", expID, p.Seed), expID, p.Seed)
		srv = stream.NewServer(reg)
		if err := srv.Start(*listen); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "live endpoints on http://%s (/metrics /runs /events)\n", srv.Addr())
		sink.Hub = srv.Hub
		sink.Live.Start()
	}
	runErr := exp.Run(expID, p, &sink, os.Stdout)
	if sink.Live != nil {
		msg := ""
		if runErr != nil {
			msg = runErr.Error()
		}
		sink.Live.Finish(msg)
	}
	if srv != nil {
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	if err := stop(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
		os.Exit(1)
	}
}

// addRunFlags binds the run parameters single and batch mode share
// straight into p.
func addRunFlags(fs *flag.FlagSet, p *exp.RunParams) {
	fs.BoolVar(&p.Full, "full", false, "run at the paper's full scale")
	fs.Uint64Var(&p.Perturb, "perturb", 0, "deliberately inflate the Nth delay-noise draw by 1us (micro experiments; for testing diff)")
}

// addObsFlags binds the observability flags straight into s's knobs and
// returns the -listen address, which the caller wires to s.Hub and s.Live.
func addObsFlags(fs *flag.FlagSet, s *exp.Sink) (listen *string) {
	fs.StringVar(&s.Dir, "series", "", "write per-run timeline artifacts (JSONL) into this directory")
	fs.BoolVar(&s.Hist, "hist", false, "record streaming histograms (FCT, fabric delay, ACK RTT) and print summaries")
	fs.Func("watchdog", "in-flight bytes ceiling (e.g. 256m); tripping stops the run and dumps the flight recorder", func(v string) (err error) {
		s.MaxInflight, err = parseBytes(v)
		return err
	})
	fs.Int64Var(&s.MaxEvents, "watchdog-events", 0, "event-heap size ceiling for the watchdog (0 = off)")
	fs.BoolVar(&s.Runtime, "runtime", false, "merge host-process gauges (RSS, GC, events/sec) into the series; makes artifacts wall-clock dependent")
	fs.BoolVar(&s.Cost, "cost", false, "attribute sampled per-event execution cost by event kind (artifact metrics + /metrics)")
	listen = fs.String("listen", "", "serve live endpoints on this address (/metrics, /runs, /events SSE); e.g. :8080")
	fs.IntVar(&s.TraceFlows, "trace-flows", 0, "flow-trace up to N flows (packet journeys + CC decision audit; needs -series)")
	fs.Func("trace-match", "flow-trace exactly these comma-separated flow ids (needs -series)", func(v string) (err error) {
		s.TraceMatch, err = parseFlowList(v)
		return err
	})
	fs.IntVar(&s.TraceEvery, "trace-every", 0, "with -trace-flows, admit only a 1-in-K hash sample of flow ids")
	fs.IntVar(&s.TracePackets, "trace-packets", 0, "journey-stamp every Kth data packet of a traced flow (default 16, 1 = all)")
	fs.BoolVar(&s.Fingerprint, "fingerprint", false, "fold every dispatched event into a digest chain and print the run fingerprint")
	fs.BoolVar(&s.Audit, "audit", false, "run conservation audits on the sampler clock (packet, byte, PFC accounting); a violation stops the run")
	return listen
}

// resolveObs validates the parsed observability flags, arms the series
// when artifacts have somewhere to go (-series or -listen), and prepares
// the -series directory.
func resolveObs(s *exp.Sink, listen string) error {
	if (s.TraceFlows > 0 || len(s.TraceMatch) > 0) && s.Dir == "" {
		return fmt.Errorf("flow tracing needs -series DIR: trace spans are only delivered through the timeline artifact")
	}
	if s.Runtime && s.Dir == "" && listen == "" {
		return fmt.Errorf("-runtime needs -series DIR or -listen ADDR: runtime gauges are delivered as timeline series")
	}
	s.Series = s.Dir != "" || listen != ""
	if s.Dir != "" {
		return os.MkdirAll(s.Dir, 0o755)
	}
	return nil
}

// parseFlowList parses a comma-separated flow-id list ("" = none).
func parseFlowList(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad flow id %q", p)
		}
		out = append(out, id)
	}
	return out, nil
}

// parseBytes parses a human-readable byte count: a plain integer with an
// optional k/m/g suffix (binary multiples), e.g. "64m", "2g", "65536".
func parseBytes(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty byte count")
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad byte count %q", s)
	}
	return v * mult, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: prioplus-sim <experiment> [-full] [-seed N] [-print-series] [-perturb D] [obs flags] [-cpuprofile f] [-memprofile f]
       prioplus-sim all [-parallel N] [-seeds a,b,c] [-only ids] [-json out.json] [-timeout d] [-full] [-perturb D] [-fp-out f] [-fp-check f] [obs flags]
       prioplus-sim serve [-listen ADDR] [-workers N] [-queue N] [-job-timeout d] [-cache N] [-manifest f]
       prioplus-sim report [-width N] file.jsonl|dir...
       prioplus-sim trace [-flows a,b] [-journeys K] [-width N] file.jsonl|dir...
       prioplus-sim watch [-interval d] [-once] ADDR
       prioplus-sim diff A.jsonl B.jsonl
       prioplus-sim diff -exp ID [-seed N] [-full] [-perturb D] A.jsonl

obs flags (network experiments only; see docs/OBSERVABILITY.md):
  -series DIR       write one timeline artifact (JSONL) per run into DIR
  -hist             record streaming histograms (FCT, fabric delay, ACK RTT)
  -watchdog BYTES   in-flight-bytes ceiling; tripping stops the run and
                    dumps the flight recorder (e.g. -watchdog 256m)
  -watchdog-events N  event-heap ceiling for the watchdog
  -listen ADDR      serve live endpoints while running: /metrics (process
                    gauges + cost attribution), /runs (batch state), and
                    /events (artifact lines as SSE, byte-identical to the
                    -series files); watch renders them as a dashboard
  -runtime          merge host-process gauges (RSS, heap, GC, events/sec,
                    wall-vs-sim) into the series; artifacts become
                    wall-clock dependent, so keep it off when comparing
  -cost             sampled per-event-kind cost attribution (artifact
                    metrics cost/<kind>/{samples,ns} and /metrics)
  -trace-flows N    flow-trace up to N flows: per-packet hop journeys and
                    the CC decision audit, delivered via -series artifacts
                    and rendered by the trace subcommand
  -trace-match IDS  flow-trace exactly these comma-separated flow ids
  -trace-every K    with -trace-flows, admit a deterministic 1-in-K sample
  -trace-packets K  journey-stamp every Kth data packet (default 16)
  -fingerprint      fold every dispatched event into a per-run digest
                    chain; prints the run fingerprint and writes ckpt
                    lines into -series artifacts (for diff / -fp-check)
  -audit            conservation auditor on the sampler clock (packet
                    pool, shared-buffer sums, PFC symmetry); a violation
                    stops the run and dumps the flight recorder

run flags:
  -perturb D        inflate the D-th delay-noise draw by 1us (micro
                    experiments) — a controlled divergence for exercising
                    diff; a run parameter like -full and -seed, not an
                    instrument

experiments (from the exp registry; suite order):`)
	for _, s := range exp.Specs() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", s.ID, s.Describe)
	}
	fmt.Fprintln(os.Stderr, `
subcommands:
  all          every experiment above, fanned across a worker pool
  serve        long-running job server: POST experiment specs to /jobs,
               poll status, fetch byte-stable results (deterministic
               result cache; see docs/API.md)
  report       render -series artifacts as a text report
  trace        render flow-trace artifacts as causal per-flow timelines
  watch        live terminal dashboard over a -listen ADDR endpoint
  diff         compare two fingerprinted artifacts, or an artifact vs a
               live rerun, and name the first divergent event (see
               docs/OBSERVABILITY.md, "Bisecting a divergence")`)
}
