package main

import (
	"time"

	"prioplus/internal/cc"
	"prioplus/internal/core"
	"prioplus/internal/harness"
	"prioplus/internal/netsim"
	"prioplus/internal/obs"
	"prioplus/internal/sim"
	"prioplus/internal/transport"
)

// span accumulates calls into one layer, timed from outside the layer:
// how many calls and how much host time they took.
type span struct {
	calls int64
	ns    int64
}

// since closes one call that started at t0.
func (s *span) since(t0 time.Time) {
	s.calls++
	s.ns += int64(time.Since(t0))
}

func (s span) seconds() float64 { return float64(s.ns) / 1e9 }
func (s span) millis() float64  { return float64(s.ns) / 1e6 }

// perCall returns the mean nanoseconds per call (0 with no calls).
func (s span) perCall() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.calls)
}

// tracer collects the per-layer spans and counters of the traced passes.
// Every hook is installed through a public seam — the topology constructor,
// harness.New, the workload generators, Net.AddFlow and Engine.RunUntil are
// timed at the call; Host.Sink and the cc.Algorithm / cc.DelayBased
// controllers are wrapped; obs.CostProfiler and Net.CollectMetrics are
// attached — so the program under test carries no tracing of its own.
// A nil *tracer is the untraced run: the scenarios skip every hook.
type tracer struct {
	topo, harness, workload, addflow, run span
	rx                                    span // Host.Sink, includes CC
	cc                                    span // outermost controller hooks
	ppOuter                               span // PrioPlus wrapper hooks (part of cc)
	ccInner                               span // Swift hooks inside PrioPlus

	flows      int64
	events     int64
	dispatched int64

	retransmits, rtos, probes int64
	yields, ppProbes          int64
	deliveredBytes, nicBytes  int64

	cost                            obs.CostBucket // all kinds
	costSwitch, costTx, costHost    obs.CostBucket
	costPause, costSampler          obs.CostBucket
	txPackets, drops, pauses, marks int64
	queueHWM                        float64

	obs obsStats // the observed workload's own instruments
}

// obsStats is the work done by the instruments the observed workload
// turns on (zero for the other workloads, whose tracing instruments are
// not part of the workload).
type obsStats struct {
	collect, write span
	artifactBytes  int64
	sampleTicks    int64
	digestEvents   int64
	auditChecks    int64
	traceSpans     int64
}

// wrapSinks times every host's transport receive path.
func (tr *tracer) wrapSinks(net *harness.Net) {
	for _, h := range net.Topo.Hosts {
		inner := h.Sink
		h.Sink = func(pkt *netsim.Packet) {
			t0 := time.Now()
			inner(pkt)
			tr.rx.since(t0)
		}
	}
}

// prioPlus wraps Swift in PrioPlus, with timing decorators around both
// controllers when traced, so PrioPlus's own cost is the outer time minus
// the inner.
func (tr *tracer) prioPlus(sw *cc.Swift, cfg core.Config) (cc.Algorithm, *core.PrioPlus) {
	if tr == nil {
		pp := core.New(sw, cfg)
		return pp, pp
	}
	pp := core.New(&timedDelayBased{DelayBased: sw, s: &tr.ccInner}, cfg)
	return &timedAlgo{Algorithm: pp, s: &tr.cc, pp: &tr.ppOuter}, pp
}

// algo wraps a plain controller with the timing decorator when traced.
func (tr *tracer) algo(a cc.Algorithm) cc.Algorithm {
	if tr == nil {
		return a
	}
	return &timedAlgo{Algorithm: a, s: &tr.cc}
}

// collect folds a finished scenario's counters into the tracer.
func (tr *tracer) collect(net *harness.Net, senders []*transport.Sender, pps []*core.PrioPlus, rec *obs.Recorder) {
	for _, s := range senders {
		tr.retransmits += s.Retransmits
		tr.rtos += s.RTOs
		tr.probes += s.ProbesSent
	}
	for _, pp := range pps {
		tr.yields += pp.Yields
		tr.ppProbes += pp.Probes
	}
	for _, h := range net.Topo.Hosts {
		tr.nicBytes += h.NIC.TxBytes
	}
	if rec == nil {
		return
	}
	if rec.Cost != nil {
		for k := uint8(0); k < sim.NumEventKinds; k++ {
			b := rec.Cost.Bucket(k)
			tr.cost.Samples += b.Samples
			tr.cost.Nanos += b.Nanos
		}
		addBucket(&tr.costSwitch, rec.Cost.Bucket(sim.EKDeliverSwitch))
		addBucket(&tr.costTx, rec.Cost.Bucket(sim.EKTransmit))
		addBucket(&tr.costHost, rec.Cost.Bucket(sim.EKDeliverHost))
		addBucket(&tr.costPause, rec.Cost.Bucket(sim.EKPause))
		addBucket(&tr.costSampler, rec.Cost.Bucket(sim.EKSampler))
	}
	m := rec.Metrics
	v := func(name string) int64 {
		x, _ := m.Value(name)
		return int64(x)
	}
	tr.txPackets += v("net/tx_packets")
	tr.drops += v("net/drops")
	tr.pauses += v("net/pfc_pauses")
	tr.marks += v("net/ecn_marks")
	if q, _ := m.Value("net/queue_hwm_bytes"); q > tr.queueHWM {
		tr.queueHWM = q
	}
}

func addBucket(dst *obs.CostBucket, b obs.CostBucket) {
	dst.Samples += b.Samples
	dst.Nanos += b.Nanos
}

// timedAlgo times a controller's event hooks (Start, OnAck, OnProbeAck,
// OnRTO). CwndBytes, a getter on the send path, is passed through untimed.
type timedAlgo struct {
	cc.Algorithm
	s  *span
	pp *span // also charged for PrioPlus wrappers, for their self time
}

func (a *timedAlgo) done(t0 time.Time) {
	d := int64(time.Since(t0))
	a.s.calls++
	a.s.ns += d
	if a.pp != nil {
		a.pp.calls++
		a.pp.ns += d
	}
}

func (a *timedAlgo) Start(drv cc.Driver) {
	t0 := time.Now()
	a.Algorithm.Start(drv)
	a.done(t0)
}

func (a *timedAlgo) OnAck(fb cc.Feedback) {
	t0 := time.Now()
	a.Algorithm.OnAck(fb)
	a.done(t0)
}

func (a *timedAlgo) OnProbeAck(fb cc.Feedback) {
	t0 := time.Now()
	a.Algorithm.OnProbeAck(fb)
	a.done(t0)
}

func (a *timedAlgo) OnRTO() {
	t0 := time.Now()
	a.Algorithm.OnRTO()
	a.done(t0)
}

// timedDelayBased is timedAlgo for the controller PrioPlus wraps; the
// window and step accessors PrioPlus calls pass through untimed.
type timedDelayBased struct {
	cc.DelayBased
	s *span
}

func (a *timedDelayBased) Start(drv cc.Driver) {
	t0 := time.Now()
	a.DelayBased.Start(drv)
	a.s.since(t0)
}

func (a *timedDelayBased) OnAck(fb cc.Feedback) {
	t0 := time.Now()
	a.DelayBased.OnAck(fb)
	a.s.since(t0)
}

func (a *timedDelayBased) OnProbeAck(fb cc.Feedback) {
	t0 := time.Now()
	a.DelayBased.OnProbeAck(fb)
	a.s.since(t0)
}

func (a *timedDelayBased) OnRTO() {
	t0 := time.Now()
	a.DelayBased.OnRTO()
	a.s.since(t0)
}
