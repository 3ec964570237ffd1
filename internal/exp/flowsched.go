package exp

import (
	"math/rand"
	"strconv"

	"prioplus/internal/fault"
	"prioplus/internal/harness"
	"prioplus/internal/netsim"
	"prioplus/internal/noise"
	"prioplus/internal/obs"
	"prioplus/internal/sched"
	"prioplus/internal/sim"
	"prioplus/internal/stats"
	"prioplus/internal/topo"
	"prioplus/internal/workload"
)

// FlowSchedConfig drives the generic flow-scheduling scenario (§6.2,
// Figs 11, 14, 16): WebSearch traffic on a fat-tree, flows grouped into
// priorities by size.
type FlowSchedConfig struct {
	Scheme   Scheme
	K        int     // fat-tree arity (paper: 6)
	NPrios   int     // virtual priorities
	Load     float64 // per-host-link load (paper: 0.7)
	Duration sim.Time
	Drain    sim.Time // extra time for in-flight flows to finish
	Seed     int64
	// AckPrioData is the PrioPlus* ablation: ACKs share the data queue.
	AckPrioData bool
	// PerPrioWorkload is the Fig 14 mode: instead of size-based grouping,
	// every flow draws a uniform-random priority so each priority level
	// carries a full WebSearch workload.
	PerPrioWorkload bool
	// NoiseScale scales the injected delay-measurement noise (1 = paper).
	NoiseScale float64
	// ObsFor, when non-nil, supplies a fresh recorder per run, keyed by
	// the run's tag ("<scheme>/np=<n>"). The recorder is attached to the
	// run's network and filled with the final device metrics; see
	// docs/OBSERVABILITY.md for the metric namespace. A Recorder is
	// strictly per-engine, so multi-run figures (Fig11's sweep) get one
	// per run.
	ObsFor func(tag string) *obs.Recorder
	// Faults, when non-nil and non-empty, is installed on each run's
	// topology before traffic starts. A Plan is immutable, so the same
	// plan serves every run of a sweep.
	Faults *fault.Plan
}

// runTag identifies one flow-scheduling run within a figure's sweep.
func (cfg FlowSchedConfig) runTag() string {
	tag := cfg.Scheme.Name + "/np=" + strconv.Itoa(cfg.NPrios)
	if cfg.AckPrioData {
		tag += "/ackdata"
	}
	return tag
}

// DefaultFlowSchedConfig returns the paper's configuration at a reduced
// duration suitable for interactive runs.
func DefaultFlowSchedConfig(s Scheme, nprios int) FlowSchedConfig {
	return FlowSchedConfig{
		Scheme:     s,
		K:          6,
		NPrios:     nprios,
		Load:       0.7,
		Duration:   20 * sim.Millisecond,
		Drain:      30 * sim.Millisecond,
		Seed:       1,
		NoiseScale: 1,
	}
}

// FlowSchedResult is the outcome of one flow-scheduling run.
type FlowSchedResult struct {
	Scheme     string
	NPrios     int
	Flows      *stats.Collector
	Launched   int
	Unfinished int
	Pauses     int64 // total PFC pause transitions across the fabric
	Drops      int64
}

// RunFlowSched runs one scheme at one priority count.
func RunFlowSched(cfg FlowSchedConfig) FlowSchedResult {
	eng := sim.NewEngine()
	tc := topo.DefaultConfig()
	tc.LinkDelay = 1 * sim.Microsecond
	tc.Seed = cfg.Seed
	// Buffer per the paper's Fig 11 setting: 4.4 MB/Tbps of switch
	// capacity (Tomahawk4 ratio). A k-port 100G switch has k*100G. PFC
	// headroom is sized from the link parameters (2 link BDPs plus a few
	// MTUs of response time), so its total reservation scales with the
	// number of lossless priorities — the cliff beyond ~6 priorities that
	// motivates the paper.
	tc.Buffer = netsim.DefaultBufferConfig()
	tc.Buffer.TotalBytes = int(4.4e6 * float64(cfg.K) * 100 / 1000)
	linkBDP := tc.HostRate.BDP(2 * tc.LinkDelay)
	tc.Buffer.HeadroomBytes = int(2*linkBDP) + 8*(netsim.DefaultMTU+netsim.HeaderBytes)
	cfg.Scheme.Fabric(&tc, cfg.NPrios)
	nw := topo.FatTree(eng, cfg.K, tc)
	opts := cfg.Scheme.NetOptions()
	if cfg.AckPrioData {
		opts = append(opts, harness.WithAckPrioData())
	}
	if cfg.NoiseScale > 0 {
		nm := noise.NewLongTail(rand.New(rand.NewSource(cfg.Seed+7)), cfg.NoiseScale)
		opts = append(opts, harness.WithNoise(nm.Sample))
	}
	opts = append(opts, harness.WithFaults(cfg.Faults))
	net := harness.New(nw, cfg.Seed, opts...)
	var rec *obs.Recorder
	if cfg.ObsFor != nil {
		rec = cfg.ObsFor(cfg.runTag())
	}
	if rec != nil {
		net.Observe(rec)
		if rec.Series != nil {
			rec.Series.ReserveUntil(cfg.Duration + cfg.Drain)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	dist := workload.WebSearch()
	events := workload.Poisson(workload.PoissonConfig{
		Hosts:    len(nw.Hosts),
		Load:     cfg.Load,
		LinkBps:  float64(tc.HostRate),
		Dist:     dist,
		Duration: cfg.Duration,
		Rng:      rng,
	})

	// Size-based priority assignment from a workload sample (the paper's
	// stand-in for flow-scheduling algorithms). Byte-balanced boundaries
	// put the many small (latency-sensitive) flows into the top no-probe
	// priorities (§4.4) and give each priority a similar byte load.
	sampleRng := rand.New(rand.NewSource(cfg.Seed + 29))
	sizeSample := make([]int64, 20000)
	for i := range sizeSample {
		sizeSample[i] = dist.Sample(sampleRng)
	}
	groups := sched.NewByteGroups(cfg.NPrios, sizeSample)

	res := FlowSchedResult{Scheme: cfg.Scheme.Name, NPrios: cfg.NPrios, Flows: &stats.Collector{}}
	prioRng := rand.New(rand.NewSource(cfg.Seed + 31))
	for _, ev := range events {
		ev := ev
		prio := groups.PriorityFor(ev.Size)
		if cfg.PerPrioWorkload {
			prio = prioRng.Intn(cfg.NPrios)
		}
		base := nw.BaseRTT(ev.Src, ev.Dst)
		env := FlowEnv{
			Prio:    prio,
			NPrios:  cfg.NPrios,
			BaseRTT: base,
			BDPPkts: tc.HostRate.BDP(base) / netsim.DefaultMTU,
			Size:    ev.Size,
			Ideal:   IdealFCT(ev.Size, tc.HostRate, base),
			Now:     ev.At,
		}
		queue := cfg.Scheme.QueueFor(prio, cfg.NPrios, tc.Queues)
		res.Launched++
		net.AddFlow(harness.Flow{
			Src: ev.Src, Dst: ev.Dst, Size: ev.Size, Prio: queue,
			Algo:    cfg.Scheme.NewAlgo(env),
			StartAt: ev.At,
			OnComplete: func(fct sim.Time) {
				res.Flows.Add(stats.FlowRecord{Size: ev.Size, FCT: fct, Ideal: env.Ideal, Prio: prio})
			},
		})
	}
	eng.RunUntil(cfg.Duration + cfg.Drain)
	res.Unfinished = res.Launched - res.Flows.Count()
	for _, sw := range nw.Switches {
		res.Pauses += sw.PausesSent()
		res.Drops += sw.Drops()
	}
	if rec != nil {
		net.CollectMetrics(rec)
	}
	return res
}

// Fig11Row is one (scheme, nprios) cell of Fig 11's sweep.
type Fig11Row struct {
	Scheme   string
	NPrios   int
	AvgAll   float64 // mean slowdown, all flows
	P99All   float64
	AvgSmall float64
	P99Small float64
	AvgMid   float64
	P99Mid   float64
	AvgLarge float64
	P99Large float64
}

func rowFrom(r FlowSchedResult) Fig11Row {
	c := r.Flows
	return Fig11Row{
		Scheme:   r.Scheme,
		NPrios:   r.NPrios,
		AvgAll:   c.MeanSlowdown(),
		P99All:   c.PercentileSlowdown(0.99),
		AvgSmall: c.ByClass(stats.Small).MeanSlowdown(),
		P99Small: c.ByClass(stats.Small).PercentileSlowdown(0.99),
		AvgMid:   c.ByClass(stats.Middle).MeanSlowdown(),
		P99Mid:   c.ByClass(stats.Middle).PercentileSlowdown(0.99),
		AvgLarge: c.ByClass(stats.Large).MeanSlowdown(),
		P99Large: c.ByClass(stats.Large).PercentileSlowdown(0.99),
	}
}

// applyOptions folds the cross-cutting Options knobs into a sweep's base
// config: a non-zero Seed overrides base.Seed and a non-nil fault plan
// overrides base.Faults. A Recorder is not applied — sweeps own several
// runs, so per-run recorders arrive through ObsFor — and Perturb does not
// apply (the flow-scheduling noise model is seeded from the config).
func (cfg FlowSchedConfig) applyOptions(o Options) FlowSchedConfig {
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if o.Faults != nil {
		cfg.Faults = o.Faults
	}
	return cfg
}

// Fig11 sweeps priority counts for the schemes of Fig 11a-d: Physical
// (max 8 queues), Physical*, and PrioPlus, all with Swift.
func Fig11(prioCounts []int, base FlowSchedConfig, o Options) []Fig11Row {
	base = base.applyOptions(o)
	var rows []Fig11Row
	for _, np := range prioCounts {
		for _, s := range []Scheme{SwiftPhysical(8), SwiftPhysicalIdeal(), PrioPlusSwift()} {
			cfg := base
			cfg.Scheme = s
			cfg.NPrios = np
			rows = append(rows, rowFrom(RunFlowSched(cfg)))
		}
	}
	return rows
}

// Fig16 compares PrioPlus, PrioPlus* (ACKs in the data queue), and HPCC in
// the flow-scheduling scenario (Appendix A.3).
func Fig16(nprios int, base FlowSchedConfig, o Options) []Fig11Row {
	base = base.applyOptions(o)
	var rows []Fig11Row
	for _, v := range []struct {
		s       Scheme
		ackData bool
		name    string
	}{
		{PrioPlusSwift(), false, "PrioPlus+Swift"},
		{PrioPlusSwift(), true, "PrioPlus*+Swift"},
		{HPCCPhysical(8), false, "Physical+HPCC"},
	} {
		cfg := base
		cfg.Scheme = v.s
		cfg.NPrios = nprios
		cfg.AckPrioData = v.ackData
		r := RunFlowSched(cfg)
		row := rowFrom(r)
		row.Scheme = v.name
		rows = append(rows, row)
	}
	return rows
}

// Fig14Row is one (priority band, size class) cell of Fig 14: FCT
// normalized against Physical*+Swift.
type Fig14Row struct {
	Scheme string
	Band   string // "high" (11), "middle" (6-10), "low" (0-5)
	Class  string
	Norm   float64 // mean FCT / Physical* mean FCT
}

// Fig14 runs the per-priority workload mode with 12 priorities and
// normalizes each scheme's per-band, per-class FCT by Physical*+Swift.
func Fig14(base FlowSchedConfig, schemes []Scheme, o Options) []Fig14Row {
	base = base.applyOptions(o)
	const nprios = 12
	run := func(s Scheme, ackData bool) FlowSchedResult {
		cfg := base
		cfg.Scheme = s
		cfg.NPrios = nprios
		cfg.PerPrioWorkload = true
		cfg.AckPrioData = ackData
		return RunFlowSched(cfg)
	}
	ref := run(SwiftPhysicalIdeal(), false)
	bands := []struct {
		name   string
		lo, hi int
	}{{"high", 11, 11}, {"middle", 6, 10}, {"low", 0, 5}}
	classes := []stats.SizeClass{stats.Small, stats.Middle, stats.Large}
	var rows []Fig14Row
	for _, s := range schemes {
		r := run(s, false)
		for _, b := range bands {
			for _, cl := range classes {
				sel := func(c *stats.Collector) *stats.Collector {
					return c.Filter(func(f stats.FlowRecord) bool {
						return f.Prio >= b.lo && f.Prio <= b.hi && stats.ClassOf(f.Size) == cl
					})
				}
				den := sel(ref.Flows).MeanFCT()
				num := sel(r.Flows).MeanFCT()
				norm := 0.0
				if den > 0 {
					norm = float64(num) / float64(den)
				}
				rows = append(rows, Fig14Row{Scheme: s.Name, Band: b.name, Class: cl.String(), Norm: norm})
			}
		}
	}
	return rows
}
