package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"prioplus/internal/cc"
	"prioplus/internal/core"
	"prioplus/internal/exp"
	"prioplus/internal/harness"
	"prioplus/internal/netsim"
	"prioplus/internal/noise"
	"prioplus/internal/obs"
	"prioplus/internal/sched"
	"prioplus/internal/sim"
	"prioplus/internal/topo"
	"prioplus/internal/transport"
	"prioplus/internal/workload"
)

// The scenarios below rebuild exp's figure runs from the same
// public calls (topology constructor, harness.New, workload generators,
// Net.AddFlow, Engine.RunUntil), so each call can be timed from outside.
// TestDriftGuard pins each one to its exp figure function.

const (
	incastSenders = 80                   // Fig 10b quick scale
	ladderPerPrio = 6                    // Fig 10a quick scale
	ladderStep    = 5 * sim.Millisecond  // Fig 10a interval
	coflowLoad    = 0.7                  // Fig 12a high-load point
	coflowNPrios  = 8                    // priority groups
	coflowWindow  = 30 * sim.Millisecond // generator window (exp default)
	coflowDrain   = 100 * sim.Millisecond
	// coflowBudget caps each coflow run at the first 160 MB of the seed's
	// arrival stream (about 5.7 ms of offered load at 0.7), cutting the
	// flow that crosses it. A fixed byte budget keeps the simulated work
	// per seed nearly constant, where a fixed window's heavy-tailed coflow
	// sizes vary the work threefold from seed to seed.
	coflowBudget = 160 << 20
)

// instruments selects the observability a scenario runs with.
type instruments int

const (
	insOff      instruments = iota // plain run, observability off
	insTraced                      // traced pass: cost profiler + digest + CollectMetrics
	insObserved                    // the observed workload's full diagnostic set
)

// flightSize is the flight recorder ring the observed workload keeps.
const flightSize = 4096

// scenario is one figure run's outcome: its result row, the counters the
// reference pins, and its host-time split.
type scenario struct {
	name       string // "fig10b", "fig10a", "coflow/PrioPlus+Swift"
	seed       int64
	row        string
	events     uint64
	unfinished int
	digest     string // "" unless a digest chain was armed
	violation  string // conservation-auditor violation, "" when clean
	setup      time.Duration
	wall       time.Duration
}

// key names the scenario in the reference file.
func (s scenario) key() string { return s.name + "/seed=" + strconv.FormatInt(s.seed, 10) }

// simRun carries one scenario's state from setup to result.
type simRun struct {
	sc      scenario
	t0      time.Time
	ins     instruments
	tr      *tracer
	artDir  string
	net     *harness.Net
	eng     *sim.Engine
	rec     *obs.Recorder
	senders []*transport.Sender
	sizes   []int64 // flow sizes, by sender
	pps     []*core.PrioPlus
}

func newRun(name string, seed int64, ins instruments, tr *tracer, artDir string) *simRun {
	return &simRun{sc: scenario{name: name, seed: seed}, t0: time.Now(), ins: ins, tr: tr, artDir: artDir}
}

// recorder builds the run's observability recorder; nil when off.
func (r *simRun) recorder() *obs.Recorder {
	switch r.ins {
	case insTraced:
		rec := obs.NewRecorder()
		rec.Cost = &obs.CostProfiler{}
		rec.Digest = sim.NewDigest()
		return rec
	case insObserved:
		rec := obs.NewRecorder()
		rec.Series = obs.NewSeriesSet(obs.DefaultSeriesInterval)
		rec.Hist = obs.NewHistSet()
		rec.Cost = &obs.CostProfiler{}
		rec.Digest = sim.NewDigest()
		rec.Audit = &obs.Auditor{}
		rec.FlowTrace = obs.NewFlowTracer(4)
		rec.Flight = obs.NewFlightRecorder(flightSize)
		return rec
	}
	return nil
}

// attach builds the harness over a topology and wires the instruments.
func (r *simRun) attach(nw *topo.Network, seed int64, opts ...harness.Option) {
	t0 := time.Now()
	r.net = harness.New(nw, seed, opts...)
	if r.tr != nil {
		r.tr.harness.since(t0)
	}
	r.eng = nw.Eng
	if r.rec = r.recorder(); r.rec != nil {
		r.net.Observe(r.rec)
	}
	if r.tr != nil {
		r.tr.wrapSinks(r.net)
	}
}

// addFlow registers one flow, timed.
func (r *simRun) addFlow(f harness.Flow) {
	t0 := time.Now()
	r.senders = append(r.senders, r.net.AddFlow(f))
	r.sizes = append(r.sizes, f.Size)
	if r.tr != nil {
		r.tr.addflow.since(t0)
		r.tr.flows++
	}
}

// prioPlus builds a PrioPlus-over-Swift controller (timed when traced).
func (r *simRun) prioPlus(sw *cc.Swift, cfg core.Config) cc.Algorithm {
	a, pp := r.tr.prioPlus(sw, cfg)
	r.pps = append(r.pps, pp)
	return a
}

// runUntil ends setup and runs the engine to the horizon.
func (r *simRun) runUntil(end sim.Time) {
	r.sc.setup = time.Since(r.t0)
	ev0, d0 := sim.TotalEvents(), r.eng.Processed()
	t0 := time.Now()
	r.eng.RunUntil(end)
	if r.tr != nil {
		r.tr.run.since(t0)
		r.tr.dispatched += int64(r.eng.Processed() - d0)
	}
	r.sc.events = sim.TotalEvents() - ev0
	if r.tr != nil {
		r.tr.events += int64(r.sc.events)
	}
}

// finish collects counters and instruments and closes the scenario.
func (r *simRun) finish(row string) (scenario, error) {
	r.sc.row = row
	for _, s := range r.senders {
		if !s.Finished() {
			r.sc.unfinished++
		}
	}
	if r.rec != nil {
		t0 := time.Now()
		r.net.CollectMetrics(r.rec)
		collect := time.Since(t0)
		if d := r.rec.Digest; d != nil {
			r.sc.digest = fmt.Sprintf("%016x/%d", d.Chain, d.Count)
		}
		if a := r.rec.Audit; a != nil {
			r.sc.violation = a.Violation()
		}
		if r.ins == insObserved {
			n, write, err := writeArtifact(r.artDir, r.sc.key(), r.rec)
			if err != nil {
				return r.sc, err
			}
			if r.tr != nil {
				o := &r.tr.obs
				o.collect.calls++
				o.collect.ns += int64(collect)
				o.write.calls++
				o.write.ns += int64(write)
				o.artifactBytes += n
				o.sampleTicks += int64(r.rec.Series.Ticks())
				o.digestEvents += int64(r.rec.Digest.Count)
				o.auditChecks += r.rec.Audit.Checks
				for _, l := range r.rec.FlowTrace.Logs() {
					o.traceSpans += int64(l.Len())
				}
			}
		}
	}
	if r.tr != nil {
		for i, s := range r.senders {
			r.tr.deliveredBytes += r.sizes[i] - s.RemainingBytes()
		}
		r.tr.collect(r.net, r.senders, r.pps, r.rec)
	}
	r.sc.wall = time.Since(r.t0)
	return r.sc, nil
}

// microNet mirrors exp's micro-benchmark fabric: a star of 100 Gb/s,
// 3 us links with long-tail measurement noise.
func (r *simRun) microNet(nHosts int, seed int64) {
	cfg := topo.DefaultConfig()
	cfg.LinkDelay = 3 * sim.Microsecond
	cfg.Seed = seed
	t0 := time.Now()
	nw := topo.Star(sim.NewEngine(), nHosts, cfg)
	if r.tr != nil {
		r.tr.topo.since(t0)
	}
	nm := noise.NewLongTail(rand.New(rand.NewSource(seed+7)), 1)
	r.attach(nw, seed, harness.WithNoise(nm.Sample))
}

// runFig10b is exp.Fig10b(80, Options{Seed: seed}): 80 same-priority
// PrioPlus flows start at once into one receiver; the row is the share of
// queueing-delay samples inside the channel and their mean.
func runFig10b(seed int64, ins instruments, tr *tracer, artDir string) (scenario, error) {
	r := newRun("fig10b", seed, ins, tr, artDir)
	n := incastSenders
	r.microNet(n+2, seed)
	if r.rec != nil && r.rec.Series != nil {
		r.rec.Series.ReserveUntil(4 * sim.Millisecond)
	}
	recv := n + 1
	base := r.net.Topo.BaseRTT(0, recv)
	ch := core.DefaultPlan(base).Channel(4)
	for i := 0; i < n; i++ {
		sw := cc.NewSwift(cc.DefaultSwiftConfig(base, r.net.BDPPackets(i, recv)))
		r.addFlow(harness.Flow{Src: i, Dst: recv, Size: 1 << 30, Prio: 0,
			Algo: r.prioPlus(sw, core.DefaultConfig(ch, 8))})
	}
	var within, samples int
	var sum sim.Time
	port := r.net.Topo.Switches[0].Ports[recv]
	for i := 0; i < 600; i++ {
		r.eng.At(sim.Millisecond+sim.Time(i)*5*sim.Microsecond, func() {
			delay := base + sim.Time(float64(port.TotalQueuedBytes())/(100e9/8)*1e12)
			samples++
			sum += delay
			if delay <= ch.Limit+2*sim.Microsecond {
				within++
			}
		})
	}
	r.runUntil(4 * sim.Millisecond)
	res := exp.Fig10bResult{Target: ch.Target}
	if samples > 0 {
		res.WithinFrac = float64(within) / float64(samples)
		res.MeanDelay = sum / sim.Time(samples)
	}
	return r.finish(fig10bRow(res))
}

// runFig10a is exp.Fig10a(6, 5ms, Options{Seed: seed}): eight priorities
// of six PrioPlus flows each start one interval apart; the row is each
// priority's bandwidth share in the tail of its own interval.
func runFig10a(seed int64, ins instruments, tr *tracer, artDir string) (scenario, error) {
	r := newRun("fig10a", seed, ins, tr, artDir)
	per := ladderPerPrio
	r.microNet(8*per+2, seed)
	recv := 8 * per
	base := r.net.Topo.BaseRTT(0, recv)
	plan := core.DefaultPlan(base)
	for prio := 0; prio < 8; prio++ {
		for j := 0; j < per; j++ {
			src := prio*per + j
			sw := cc.NewSwift(cc.DefaultSwiftConfig(base, r.net.BDPPackets(src, recv)))
			r.addFlow(harness.Flow{Src: src, Dst: recv, Size: 1 << 30, Prio: 0,
				Algo:    r.prioPlus(sw, core.DefaultConfig(plan.Channel(prio), 8)),
				StartAt: sim.Time(prio) * ladderStep})
		}
	}
	dur := 8 * ladderStep
	rs := r.net.SampleRates(recv, func(p *netsim.Packet) int { return p.Src / per }, ladderStep/20, dur)
	r.runUntil(dur)
	shares := make([]float64, 8)
	for prio := 0; prio < 8; prio++ {
		from := sim.Time(prio)*ladderStep + ladderStep*3/4
		to := sim.Time(prio+1) * ladderStep
		var total float64
		for k := 0; k < 8; k++ {
			total += rs.Between(from, to, k)
		}
		if total > 0 {
			shares[prio] = rs.Between(from, to, prio) / total
		}
	}
	return r.finish(floatsRow(shares))
}

// coflowConfig is the exp config the coflow scenario reproduces (the
// drift guard runs exp.RunCoflow on it with Trace set to the budgeted
// arrival stream).
func coflowConfig(s exp.Scheme, seed int64) exp.CoflowConfig {
	cfg := exp.DefaultCoflowConfig(s, coflowLoad)
	cfg.Duration = coflowWindow
	cfg.Drain = coflowDrain
	cfg.Seed = seed
	return cfg
}

// coflowFabric is RunCoflow's topology config for a scheme.
func coflowFabric(s exp.Scheme, seed int64) topo.Config {
	tc := topo.DefaultConfig()
	tc.LinkDelay = 1 * sim.Microsecond
	tc.Seed = seed
	tc.FabricRate = 400 * netsim.Gbps
	tc.Buffer = netsim.DefaultBufferConfig()
	tc.Buffer.TotalBytes = 32 << 20
	s.Fabric(&tc, coflowNPrios)
	return tc
}

// coflowArrivals generates the seed's coflow stream (RunCoflow's
// generator call) and keeps its first budget bytes in arrival order,
// cutting the flow that crosses the budget. budget <= 0 keeps everything.
func coflowArrivals(hosts int, hostRate netsim.Rate, seed int64, window sim.Time, budget int64) []workload.Coflow {
	rng := rand.New(rand.NewSource(seed + 13))
	all := workload.Coflows(workload.DefaultCoflowConfig(hosts, coflowLoad, float64(hostRate), window, rng))
	if budget <= 0 {
		return all
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Arrival < all[j].Arrival })
	var out []workload.Coflow
	left := budget
	for _, cf := range all {
		if left <= 0 {
			break
		}
		cut := workload.Coflow{ID: cf.ID, Arrival: cf.Arrival}
		for _, f := range cf.Flows {
			if left <= 0 {
				break
			}
			f.Size = min(f.Size, left)
			left -= f.Size
			cut.Flows = append(cut.Flows, f)
			cut.Total += f.Size
		}
		out = append(out, cut)
	}
	return out
}

// coflowAlgo mirrors the controllers exp's coflow schemes build.
func (r *simRun) coflowAlgo(s exp.Scheme, env exp.FlowEnv) cc.Algorithm {
	cfg := cc.DefaultSwiftConfig(env.BaseRTT, env.BDPPkts)
	switch s.Name {
	case exp.PrioPlusSwift().Name:
		cfg.TargetScaling = false
		ch := core.DefaultPlan(env.BaseRTT).Channel(env.Prio)
		return r.prioPlus(cc.NewSwift(cfg), core.DefaultConfig(ch, env.NPrios))
	case exp.SwiftPhysical(8).Name:
		cfg.TargetScaling = true
		return r.tr.algo(cc.NewSwift(cfg))
	}
	panic("perfbench: no controller for scheme " + s.Name)
}

// runCoflow is exp.RunCoflow over the budgeted arrival stream: Hadoop
// coflows plus file-request incast on a 2-pod, 32-host Clos with a 400G
// fabric, a 32 MB shared buffer and PFC, grouped into 8 priorities.
func runCoflow(s exp.Scheme, seed int64, ins instruments, tr *tracer, artDir string) (scenario, error) {
	r := newRun("coflow/"+s.Name, seed, ins, tr, artDir)
	cfg := coflowConfig(s, seed)
	tc := coflowFabric(s, seed)
	t0 := time.Now()
	nw := topo.Clos(sim.NewEngine(), cfg.Pods, cfg.Edges, cfg.HostsPerEdge, cfg.Aggs, cfg.Cores, tc)
	if tr != nil {
		tr.topo.since(t0)
	}
	nm := noise.NewLongTail(rand.New(rand.NewSource(seed+7)), 1)
	r.attach(nw, seed, append(s.NetOptions(), harness.WithNoise(nm.Sample))...)
	if r.rec != nil && r.rec.Series != nil {
		r.rec.Series.ReserveUntil(cfg.Duration + cfg.Drain)
	}
	t0 = time.Now()
	coflows := coflowArrivals(len(nw.Hosts), tc.HostRate, seed, cfg.Duration, coflowBudget)
	if tr != nil {
		tr.workload.since(t0)
	}
	res := r.coflowFlows(s, cfg, tc, coflows)
	return r.finish(res)
}

// coflowFlows registers the coflows' flows, runs, and renders the
// per-priority-group CCT row exactly as RunCoflow computes it.
func (r *simRun) coflowFlows(s exp.Scheme, cfg exp.CoflowConfig, tc topo.Config, coflows []workload.Coflow) string {
	totals := make([]int64, len(coflows))
	for i, cf := range coflows {
		totals[i] = cf.Total
	}
	groups := sched.NewSizeGroups(cfg.NPrios, totals)
	type cfState struct {
		remaining int
		arrival   sim.Time
		prio      int
		cct       sim.Time
	}
	states := make([]*cfState, len(coflows))
	res := exp.CoflowResult{Scheme: s.Name}
	for i, cf := range coflows {
		group := groups.PriorityFor(cf.Total)
		st := &cfState{remaining: len(cf.Flows), arrival: cf.Arrival, prio: group}
		states[i] = st
		queue := s.QueueFor(group, cfg.NPrios, tc.Queues)
		res.Launched++
		for _, f := range cf.Flows {
			base := r.net.Topo.BaseRTT(f.Src, f.Dst)
			env := exp.FlowEnv{
				Prio: group, NPrios: cfg.NPrios, BaseRTT: base,
				BDPPkts: tc.HostRate.BDP(base) / netsim.DefaultMTU,
				Size:    f.Size, Ideal: exp.IdealFCT(f.Size, tc.HostRate, base), Now: cf.Arrival,
			}
			eng := r.eng
			r.addFlow(harness.Flow{
				Src: f.Src, Dst: f.Dst, Size: f.Size, Prio: queue,
				Algo:    r.coflowAlgo(s, env),
				StartAt: cf.Arrival,
				OnComplete: func(sim.Time) {
					st.remaining--
					if st.remaining == 0 {
						st.cct = eng.Now() - st.arrival
					}
				},
			})
		}
	}
	r.runUntil(cfg.Duration + cfg.Drain)

	perGroup := make([][]sim.Time, cfg.NPrios)
	var all []sim.Time
	for _, st := range states {
		if st.remaining > 0 {
			continue
		}
		res.Completed++
		perGroup[st.prio] = append(perGroup[st.prio], st.cct)
		all = append(all, st.cct)
	}
	res.GroupMean = make([]sim.Time, cfg.NPrios)
	res.GroupP99 = make([]sim.Time, cfg.NPrios)
	for p, ccts := range perGroup {
		if len(ccts) > 0 {
			res.GroupMean[p], res.GroupP99[p] = meanP99(ccts)
		}
	}
	if len(all) > 0 {
		res.Mean, res.P99 = meanP99(all)
	}
	return coflowRow(res)
}

// meanP99 is RunCoflow's mean and P99 of a CCT list (sorted in place).
func meanP99(ccts []sim.Time) (mean, p99 sim.Time) {
	sort.Slice(ccts, func(i, j int) bool { return ccts[i] < ccts[j] })
	var sum sim.Time
	for _, c := range ccts {
		sum += c
	}
	return sum / sim.Time(len(ccts)), ccts[int(0.99*float64(len(ccts)-1))]
}

// Result rows render every field with round-trip precision, so comparing
// rows as strings is comparing results exactly.

func fig10bRow(r exp.Fig10bResult) string {
	return fmt.Sprintf("within=%s mean_ps=%d target_ps=%d",
		strconv.FormatFloat(r.WithinFrac, 'g', -1, 64), int64(r.MeanDelay), int64(r.Target))
}

func floatsRow(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return strings.Join(parts, " ")
}

func timesRow(v []sim.Time) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatInt(int64(x), 10)
	}
	return strings.Join(parts, ",")
}

func coflowRow(r exp.CoflowResult) string {
	return fmt.Sprintf("done=%d/%d mean_ps=%d p99_ps=%d group_mean=%s group_p99=%s watchdog=%q",
		r.Completed, r.Launched, int64(r.Mean), int64(r.P99), timesRow(r.GroupMean), timesRow(r.GroupP99), r.Watchdog)
}
