package netsim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

// Device is anything that terminates a link: a Host or a Switch.
type Device interface {
	// HandlePacket is called when a packet fully arrives on local port in.
	HandlePacket(pkt *Packet, in *Port)
	// HandlePause is called when a PFC pause or resume frame arrives for
	// the given priority. on=true pauses the local egress queue.
	HandlePause(prio int, on bool, in *Port)
	// DeviceName identifies the device in diagnostics.
	DeviceName() string
}

// TxItem is a packet queued for transmission, together with the buffer
// accounting the owning switch must release at dequeue. Plain fields
// instead of a callback: one closure allocation per packet per hop would
// dominate large runs.
type TxItem struct {
	Pkt      *Packet
	Sw       *Switch // nil for host NICs
	InPort   int32
	QPrio    int16
	Lossless bool
}

type pktQueue struct {
	items []TxItem
	head  int
	bytes int
}

func (q *pktQueue) push(it TxItem) {
	q.items = append(q.items, it)
	q.bytes += it.Pkt.Wire
}

func (q *pktQueue) pop() TxItem {
	it := q.items[q.head]
	q.items[q.head] = TxItem{}
	q.head++
	q.bytes -= it.Pkt.Wire
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return it
}

func (q *pktQueue) empty() bool { return q.head == len(q.items) }
func (q *pktQueue) len() int    { return len(q.items) - q.head }

// PortFault is the per-port fault state installed by internal/fault (or
// directly by tests). A nil pointer — the default — keeps the delivery and
// transmit hot paths at a single predictable branch each; the subsystem
// costs nothing when no fault plan is installed.
type PortFault struct {
	// Down halts transmission and drops arriving in-flight packets; the
	// queued backlog is dropped when SetDown flips the flag.
	Down bool
	// LossRate drops arriving packets at random; CorruptRate additionally
	// models FCS-corrupted frames, counted separately and also dropped at
	// the receiving port. Both are per-delivery probabilities in [0, 1].
	LossRate    float64
	CorruptRate float64
	// Rng drives the loss/corruption draws. Seed it from the fault plan so
	// the drop pattern is deterministic for a given (plan seed, link).
	Rng *rand.Rand
}

// drop decides one arriving packet's fate under the port's fault state:
// a down link or a loss draw drops silently, a corruption draw drops with
// its own counter. It reports whether the packet was consumed (recycled).
func (f *PortFault) drop(p *Port, pkt *Packet) bool {
	if f.Down {
		p.dropFault(pkt, false)
		return true
	}
	if f.LossRate > 0 || f.CorruptRate > 0 {
		v := f.Rng.Float64()
		if v < f.LossRate {
			p.dropFault(pkt, false)
			return true
		}
		if v < f.LossRate+f.CorruptRate {
			p.dropFault(pkt, true)
			return true
		}
	}
	return false
}

// Port is one side of a full-duplex cable. It transmits to Peer and
// receives whatever Peer transmits. Each port owns per-priority egress
// queues served in strict-priority order (higher index first), honoring
// per-priority PFC pause state.
//
// Rate is fixed at construction: NewPort precomputes the serialization
// times for the two dominant wire sizes from it, so mutating Rate on a
// live port would desynchronize them.
type Port struct {
	Eng       *sim.Engine
	Owner     Device
	Peer      *Port
	Rate      Rate
	PropDelay sim.Time
	Index     int // position within Owner's port list

	// Jitter, when non-nil, adds per-packet non-congestive delay to the
	// propagation of every packet leaving this port (used for Fig 13).
	Jitter func() sim.Time

	// INTEnabled makes this port stamp telemetry on ECT data packets at
	// dequeue, for HPCC.
	INTEnabled bool

	// HWTimestamp makes this port overwrite SentAt on outgoing data and
	// probe packets at the start of serialization, modeling NIC hardware
	// TX timestamps that exclude the sender's own NIC backlog from the
	// measured RTT (§4.3.2). Enabled on host NICs; combined with paced
	// senders the hidden local backlog stays bounded.
	HWTimestamp bool

	// Flight, when non-nil, records enqueue/dequeue/pause/resume events
	// for this port. Nil (the default) costs one predictable branch per
	// packet; install via harness.Net.Observe.
	Flight *obs.FlightRecorder

	// Pool, when non-nil, receives packets this port drops under faults,
	// keeping faulted runs allocation-free. Installed by internal/harness;
	// a nil pool is always safe (Put on a nil pool is a no-op) and just
	// leaves dropped packets to the GC.
	Pool *PacketPool

	// Per-event digest chain (harness -fingerprint wiring): when non-nil,
	// packet and pause deliveries into this port fold the receiving device
	// and packet identity into the run digest. Nil costs one predictable
	// branch per delivery; digTag names this port in the digest's Names map.
	dig    *sim.Digest
	digTag uint64

	// Devirtualized owner: exactly one of ownerSw/ownerHost is set when
	// the owner is a concrete Switch or Host (the only in-tree devices),
	// letting delivery branch to the concrete HandlePacket instead of
	// going through the Device interface. Custom Device implementations
	// (both nil) still dispatch through Owner.
	ownerSw   *Switch
	ownerHost *Host

	// deliverKind is the cost-attribution tag for deliveries INTO the
	// peer port, precomputed by Connect from the peer's owner class so
	// transmit tags packets without a per-packet branch.
	deliverKind uint8

	// Precomputed serialization times for the two wire sizes that
	// dominate every run (full-MTU data and minimal ACK/probe/PFC
	// frames), so the hot path skips Rate.Serialize's 64-bit divide.
	// Zero when Rate is zero (serialize falls through, preserving the
	// pre-cache divide-by-zero behavior).
	serFull sim.Time
	serAck  sim.Time

	queues []pktQueue
	paused []bool

	// occMask/pausedMask mirror queue occupancy and PFC pause state for
	// queues 0..63, so strict-priority selection is a single Len64 on
	// occMask &^ pausedMask instead of a scan. Ports with more than 64
	// queues fall back to the scan (the 1<<q updates degrade to no-ops:
	// Go shifts >= 64 yield 0).
	occMask    uint64
	pausedMask uint64

	// busyUntil/wakeSeq/wakeArmed replace the former per-transmission
	// completion event. The transmitter is busy until dispatch position
	// (busyUntil, wakeSeq) — wakeSeq is reserved (sim.Engine.ReserveSeq)
	// at transmit time, exactly where the old scheme allocated its
	// completion event, so every same-timestamp tie-break is identical.
	// The wake event itself is filed under that reserved seq only when
	// one is needed (backlog behind the packet on the wire, or an
	// enqueue/resume landing mid-serialization); a port whose queue
	// drains empty — the common case on host NICs and uncongested
	// fabric — posts one engine event per packet, not two.
	busyUntil sim.Time
	wakeSeq   uint64
	wakeArmed bool
	fault     *PortFault // nil until a fault plan (or test) touches the port
	startTxFn func()     // preallocated; avoids a closure per wake
	devName   string     // lazily cached Owner.DeviceName() (hosts format it per call)

	// Counters.
	TxBytes   int64
	TxPackets int64
	QueueHWM  int      // largest single priority-queue occupancy seen, bytes
	PausedFor sim.Time // cumulative time with at least one priority paused
	pausedAt  sim.Time
	npaused   int

	// Fault counters: down/loss drops and corruption drops, with the bytes
	// they carried. Zero unless a fault plan touches the port.
	FaultDrops     int64
	CorruptDrops   int64
	FaultDropBytes int64
}

// NewPort creates a port with nqueues strict-priority egress queues.
func NewPort(eng *sim.Engine, owner Device, rate Rate, prop sim.Time, nqueues int) *Port {
	p := &Port{
		Eng:       eng,
		Owner:     owner,
		Rate:      rate,
		PropDelay: prop,
		queues:    make([]pktQueue, nqueues),
		paused:    make([]bool, nqueues),
	}
	switch o := owner.(type) {
	case *Switch:
		p.ownerSw = o
	case *Host:
		p.ownerHost = o
	}
	if rate != 0 {
		p.serFull = rate.Serialize(wireFull)
		p.serAck = rate.Serialize(AckBytes)
	}
	p.startTxFn = p.startTx
	return p
}

// Connect wires two ports as the ends of one cable.
func Connect(a, b *Port) {
	a.Peer = b
	b.Peer = a
	a.deliverKind = deliverKindOf(b)
	b.deliverKind = deliverKindOf(a)
}

// deliverKindOf classifies deliveries into p by its owner's device class.
func deliverKindOf(p *Port) uint8 {
	if p.ownerSw != nil {
		return sim.EKDeliverSwitch
	}
	return sim.EKDeliverHost
}

// SetDigest installs the run digest on this port for payload folding (see
// the dig field); tag is the port's identity in the digest's Names map.
// Pass nil to remove.
func (p *Port) SetDigest(d *sim.Digest, tag uint64) {
	p.dig = d
	p.digTag = tag
}

// Digest payload encoding for packet deliveries: a carries the flow id,
// b packs seq<<20 | type<<16 | wire. Pause deliveries set digPauseBit in a
// and carry the prio<<1|on code in the low bits. The diff subcommand
// decodes these to print packet context for a divergent event.
const digPauseBit = uint64(1) << 63

// DescribeDigestPayload renders an (a, b) payload pair recorded by the
// delivery hooks (see SetDigest and the encoding note above) back into
// human-readable packet context for divergence reports.
func DescribeDigestPayload(a, b uint64) string {
	if a&digPauseBit != 0 {
		code := a &^ digPauseBit
		state := "resume"
		if code&1 != 0 {
			state = "pause"
		}
		return fmt.Sprintf("PFC %s prio=%d", state, code>>1)
	}
	return fmt.Sprintf("flow=%d seq=%d type=%s wire=%dB",
		a, b>>20, PacketType((b>>16)&0xF), b&0xFFFF)
}

// NumQueues returns the number of priority queues on the port.
func (p *Port) NumQueues() int { return len(p.queues) }

// QueuedPackets returns the packet count across all priority queues (the
// byte-independent companion of TotalQueuedBytes, used by the
// conservation auditor).
func (p *Port) QueuedPackets() int {
	total := 0
	for i := range p.queues {
		total += p.queues[i].len()
	}
	return total
}

// QueueBytes returns the occupancy of priority queue q in bytes.
func (p *Port) QueueBytes(q int) int { return p.queues[q].bytes }

// TotalQueuedBytes returns the occupancy across all priority queues.
func (p *Port) TotalQueuedBytes() int {
	total := 0
	for i := range p.queues {
		total += p.queues[i].bytes
	}
	return total
}

// name returns the owning device's name, computed once. Owners set their
// identity before creating ports, so the first call already sees it.
func (p *Port) name() string {
	if p.devName == "" {
		p.devName = p.Owner.DeviceName()
	}
	return p.devName
}

// serialize returns the wire time for a packet of the given size,
// answering the two dominant sizes from the constructor-computed cache and
// falling back to the exact Rate.Serialize divide for everything else.
func (p *Port) serialize(wire int) sim.Time {
	if wire == wireFull && p.serFull != 0 {
		return p.serFull
	}
	if wire == AckBytes && p.serAck != 0 {
		return p.serAck
	}
	return p.Rate.Serialize(wire)
}

// clampPrio maps a packet priority onto the port's queue range. A host NIC
// with a single queue accepts packets of any priority.
func (p *Port) clampPrio(prio int) int {
	if prio >= len(p.queues) {
		return len(p.queues) - 1
	}
	if prio < 0 {
		return 0
	}
	return prio
}

// Fault returns the port's fault state, creating it on first use. Only
// the fault layer and tests call this; an untouched port keeps fault nil
// and pays a single branch per packet.
func (p *Port) Fault() *PortFault {
	if p.fault == nil {
		p.fault = &PortFault{}
	}
	return p.fault
}

// IsDown reports whether the port is administratively down.
func (p *Port) IsDown() bool { return p.fault != nil && p.fault.Down }

// SetDown changes the port's link state. Going down drops the queued
// backlog back into the pool (releasing switch buffer accounting as if the
// packets had been transmitted) and halts the transmitter; packets already
// in flight are dropped on arrival by the receiving port's own down check.
// Coming back up re-arms the transmitter.
func (p *Port) SetDown(down bool) {
	f := p.Fault()
	if f.Down == down {
		return
	}
	f.Down = down
	if !down {
		p.kick()
		return
	}
	p.dropQueued()
}

// popQueue pops the head of priority queue q, keeping occMask in sync.
func (p *Port) popQueue(q int) TxItem {
	it := p.queues[q].pop()
	if p.queues[q].empty() {
		p.occMask &^= 1 << uint(q)
	}
	return it
}

// dropQueued drops every queued packet back into the pool, with switch
// buffer accounting released as if each had been transmitted.
func (p *Port) dropQueued() {
	for q := range p.queues {
		for !p.queues[q].empty() {
			it := p.popQueue(q)
			if it.Sw != nil {
				it.Sw.releaseItem(it)
			}
			p.dropFault(it.Pkt, false)
		}
	}
}

// dropFault counts and recycles a packet dropped by the fault layer.
func (p *Port) dropFault(pkt *Packet, corrupt bool) {
	if corrupt {
		p.CorruptDrops++
	} else {
		p.FaultDrops++
	}
	p.FaultDropBytes += int64(pkt.Wire)
	if p.Flight != nil {
		p.Flight.Trace(obs.Event{
			T: p.Eng.Now(), Kind: obs.Drop,
			Dev: p.name(), Port: p.Index,
			Flow: pkt.FlowID, Seq: pkt.Seq, Bytes: pkt.Wire,
		})
	}
	p.Pool.Put(pkt)
}

// Enqueue places a packet on the egress queue for its priority and starts
// the transmitter if idle.
func (p *Port) Enqueue(it TxItem) {
	checkLive(it.Pkt, "Port.Enqueue")
	if p.fault != nil && p.fault.Down {
		p.refuseDead(it)
		return
	}
	p.enqueue(it, p.clampPrio(it.Pkt.Prio))
}

// refuseDead is the dead-port cold path: a down link refuses new work
// outright — the buffer charge just taken by the owning switch is released
// and the packet recycled.
//
//go:noinline
func (p *Port) refuseDead(it TxItem) {
	if it.Sw != nil {
		it.Sw.releaseItem(it)
	}
	p.dropFault(it.Pkt, false)
}

// enqueue is the admitted fast path behind Enqueue: the link is known up
// and q is the already-clamped queue index, so the common case (untraced
// packet, no flight recorder, transmitter busy or queue immediately
// serviceable) runs straight-line.
func (p *Port) enqueue(it TxItem, q int) {
	checkLive(it.Pkt, "Port.Enqueue")
	// Empty-idle bypass: with the wire free, no wake pending, no other
	// available work, and queue q itself empty and unpaused, the strict-
	// priority pick is this packet, so it goes straight to the transmitter
	// without touching the queue. State updates (HWM, Traced stamp) match
	// what push-then-pop would have done in this same event; transmit then
	// observes the queue exactly as it would post-pop. Ports with a flight
	// recorder take the full path so enqueue/dequeue events still fire.
	if p.Flight == nil && !p.wakeArmed && len(p.queues) <= 64 &&
		p.occMask&^p.pausedMask == 0 && (p.pausedMask>>uint(q))&1 == 0 &&
		p.wireFree() {
		if it.Pkt.Traced {
			it.Pkt.hopEnqAt = p.Eng.Now()
		}
		if it.Pkt.Wire > p.QueueHWM {
			p.QueueHWM = it.Pkt.Wire
		}
		p.transmit(it, q)
		return
	}
	p.queues[q].push(it)
	p.occMask |= 1 << uint(q)
	if it.Pkt.Traced {
		it.Pkt.hopEnqAt = p.Eng.Now()
	}
	if b := p.queues[q].bytes; b > p.QueueHWM {
		p.QueueHWM = b
	}
	if p.Flight != nil {
		p.traceEnqueue(it.Pkt, q)
	}
	if !p.wakeArmed {
		if p.wireFree() {
			p.startTxLive()
		} else {
			p.armWake()
		}
	}
}

// wireFree reports whether the transmitter has passed its completion
// point: beyond busyUntil, or at it but with dispatch already past the
// reserved wake position — the exact instant the former eager completion
// event fired. The seq comparison at the boundary is what keeps
// same-timestamp behavior identical to the eager scheme: a callback
// running at busyUntil but ordered before the reserved seq must still see
// the wire busy, exactly as it saw the completion event still pending.
func (p *Port) wireFree() bool {
	if now := p.Eng.Now(); now != p.busyUntil {
		return now > p.busyUntil
	}
	return p.Eng.ReachedSeq(p.busyUntil, p.wakeSeq)
}

// armWake files the transmitter's wake at (busyUntil, wakeSeq) — the seq
// reserved by the transmission occupying the wire. At most one wake is
// pending at a time (wakeArmed); startTx clears it when it fires.
func (p *Port) armWake() {
	p.wakeArmed = true
	p.Eng.PostAtSeq(p.busyUntil, p.startTxFn, p.wakeSeq, sim.EKTransmit)
}

// kick restarts an idle transmitter after an external state change (PFC
// resume, link back up): if a wake is already pending it will handle the
// change; mid-serialization the wake is armed for when the wire frees;
// otherwise the port is idle and can transmit immediately.
func (p *Port) kick() {
	if p.wakeArmed {
		return
	}
	if p.wireFree() {
		p.startTx()
	} else {
		p.armWake()
	}
}

// traceEnqueue is the flight-recorder cold path of enqueue.
//
//go:noinline
func (p *Port) traceEnqueue(pkt *Packet, q int) {
	p.Flight.Trace(obs.Event{
		T: p.Eng.Now(), Kind: obs.Enqueue,
		Dev: p.name(), Port: p.Index, Queue: q,
		Flow: pkt.FlowID, Seq: pkt.Seq,
		Bytes: pkt.Wire, QLen: p.queues[q].bytes,
	})
}

// SetPaused updates PFC pause state for one priority queue.
func (p *Port) SetPaused(prio int, on bool) {
	q := p.clampPrio(prio)
	if p.paused[q] == on {
		return
	}
	p.paused[q] = on
	if on {
		p.pausedMask |= 1 << uint(q)
	} else {
		p.pausedMask &^= 1 << uint(q)
	}
	if p.Flight != nil {
		kind := obs.Resume
		if on {
			kind = obs.Pause
		}
		p.Flight.Trace(obs.Event{
			T: p.Eng.Now(), Kind: kind,
			Dev: p.name(), Port: p.Index, Queue: q,
		})
	}
	if on {
		if p.npaused == 0 {
			p.pausedAt = p.Eng.Now()
		}
		p.npaused++
	} else {
		p.npaused--
		if p.npaused == 0 {
			p.PausedFor += p.Eng.Now() - p.pausedAt
		}
		p.kick()
	}
}

// Paused reports the pause state of one priority queue.
func (p *Port) Paused(prio int) bool { return p.paused[p.clampPrio(prio)] }

// PausedQueues returns how many of the port's priority queues are currently
// PFC-paused (a time-series sampling point).
func (p *Port) PausedQueues() int { return p.npaused }

// startTx is the transmitter entry for scheduled wake events and link-up
// re-arms: the link may have gone down since the event was filed.
func (p *Port) startTx() {
	p.wakeArmed = false
	if p.fault != nil && p.fault.Down {
		return
	}
	p.startTxLive()
}

// startTxLive picks the next packet under strict priority — the
// highest-index unpaused non-empty queue — and transmits it. The caller
// guarantees the link is up and the wire free. Ports with at most 64
// queues (all real configurations) resolve the choice with one bitmask
// operation; wider ports scan.
func (p *Port) startTxLive() {
	if len(p.queues) <= 64 {
		avail := p.occMask &^ p.pausedMask
		if avail == 0 {
			return
		}
		q := bits.Len64(avail) - 1
		p.transmit(p.popQueue(q), q)
		return
	}
	for q := len(p.queues) - 1; q >= 0; q-- {
		if p.paused[q] || p.queues[q].empty() {
			continue
		}
		p.transmit(p.popQueue(q), q)
		return
	}
}

func (p *Port) transmit(it TxItem, q int) {
	pkt := it.Pkt
	ser := p.serialize(pkt.Wire)
	p.TxBytes += int64(pkt.Wire)
	p.TxPackets++
	if it.Sw != nil {
		it.Sw.releaseItem(it)
	}
	if p.Flight != nil {
		p.traceDequeue(pkt, q)
	}
	if p.HWTimestamp && (pkt.Type == Data || pkt.Type == Probe) {
		pkt.SentAt = p.Eng.Now()
	}
	if p.INTEnabled && pkt.Type == Data && pkt.ECT {
		p.stampINT(pkt, q)
	}
	if pkt.Traced && (pkt.Type == Data || pkt.Type == Probe) {
		p.stampTrace(pkt, q)
	}
	prop := p.PropDelay
	if p.Jitter != nil {
		prop += p.Jitter()
	}
	// Closure-free delivery: deliverPacket is a package-level function and
	// both arguments are pointers, so this schedules without allocating.
	p.Eng.Post2(ser+prop, deliverPacket, p.Peer, pkt, p.deliverKind)
	if p.Pool != nil {
		p.Pool.wire++
	}
	// Reserve the wake's dispatch position now — the exact point the old
	// scheme allocated its unconditional completion event — so a wake
	// armed later (or not at all) leaves every other event's tie-break
	// unchanged.
	p.wakeSeq = p.Eng.ReserveSeq()
	p.busyUntil = p.Eng.Now() + ser
	// Chain the next transmission only when backlog remains; an enqueue
	// landing mid-serialization arms its own wake at busyUntil. Wider
	// ports always chain rather than scanning for available work here.
	if len(p.queues) <= 64 {
		if p.occMask&^p.pausedMask != 0 {
			p.armWake()
		}
	} else {
		p.armWake()
	}
}

// traceDequeue is the flight-recorder cold path of transmit.
//
//go:noinline
func (p *Port) traceDequeue(pkt *Packet, q int) {
	p.Flight.Trace(obs.Event{
		T: p.Eng.Now(), Kind: obs.Dequeue,
		Dev: p.name(), Port: p.Index, Queue: q,
		Flow: pkt.FlowID, Seq: pkt.Seq,
		Bytes: pkt.Wire, QLen: p.queues[q].bytes,
	})
}

// stampINT appends INT-proper telemetry at dequeue, for HPCC.
//
//go:noinline
func (p *Port) stampINT(pkt *Packet, q int) {
	pkt.INT = append(pkt.INT, INTRecord{
		QLen:    p.queues[q].bytes,
		TxBytes: p.TxBytes,
		TS:      p.Eng.Now(),
		Rate:    p.Rate,
	})
}

// stampTrace appends a journey stamp for flow tracing, separate from INT
// proper: Dev is set, so the transport can split trace records out of
// HPCC's feedback. Appended on the forward path only; the pooled Ack /
// ProbeAck constructors carry the array back to the sender.
//
//go:noinline
func (p *Port) stampTrace(pkt *Packet, q int) {
	pkt.INT = append(pkt.INT, INTRecord{
		QLen:    p.queues[q].bytes,
		TxBytes: p.TxBytes,
		TS:      p.Eng.Now(),
		Rate:    p.Rate,
		Dev:     p.name(),
		QWait:   p.Eng.Now() - pkt.hopEnqAt,
	})
}

// deliverPacket is the preallocated Post2 target for packet arrival at the
// far end of a cable: a is the receiving *Port, b the *Packet. Delivery
// events cannot be cancelled per-packet (the heap is lazy-cancel only), so
// link faults are applied here: a downed or impaired receiving port
// consumes the packet instead of handing it to the device. The fault layer
// downs both ends of a cable, so in-flight packets of a flapped link are
// lost in both directions. Dispatch goes through the port's concrete
// owner-kind fields — (*Switch).HandlePacket / (*Host).HandlePacket called
// directly — with the Device interface as the fallback for custom owners.
func deliverPacket(a, b any) {
	in := a.(*Port)
	pkt := b.(*Packet)
	if in.Pool != nil {
		in.Pool.wire--
	}
	if in.dig != nil {
		in.dig.FoldPayload(in.digTag, uint64(pkt.FlowID),
			uint64(pkt.Seq)<<20|uint64(pkt.Type)<<16|uint64(pkt.Wire))
	}
	if in.fault != nil && in.fault.drop(in, pkt) {
		return
	}
	if sw := in.ownerSw; sw != nil {
		sw.HandlePacket(pkt, in)
		return
	}
	if h := in.ownerHost; h != nil {
		h.HandlePacket(pkt, in)
		return
	}
	in.Owner.HandlePacket(pkt, in)
}

// deliverPause is the preallocated Post2 target for PFC frame arrival: a
// is the receiving *Port, b packs prio<<1|on. The packed value stays below
// 256, so boxing it in any does not allocate. Like deliverPacket, dispatch
// branches on the concrete owner kind before falling back to the Device
// interface.
func deliverPause(a, b any) {
	in := a.(*Port)
	code := b.(int)
	if in.Pool != nil {
		in.Pool.ctrl--
	}
	if in.dig != nil {
		in.dig.FoldPayload(in.digTag, digPauseBit|uint64(code), 0)
	}
	if sw := in.ownerSw; sw != nil {
		sw.HandlePause(code>>1, code&1 == 1, in)
		return
	}
	if h := in.ownerHost; h != nil {
		h.HandlePause(code>>1, code&1 == 1, in)
		return
	}
	in.Owner.HandlePause(code>>1, code&1 == 1, in)
}

// SendPause delivers a PFC pause/resume frame to the peer device. PFC
// frames are generated by the MAC and bypass the egress queues; they are
// modeled as a fixed-size control frame that does not occupy the port.
func (p *Port) SendPause(prio int, on bool) {
	d := p.serialize(AckBytes) + p.PropDelay
	code := prio << 1
	if on {
		code |= 1
	}
	p.Eng.Post2(d, deliverPause, p.Peer, code, sim.EKPause)
	if p.Pool != nil {
		p.Pool.ctrl++
	}
}
