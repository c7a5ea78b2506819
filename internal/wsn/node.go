package wsn

import (
	"time"

	"innet/internal/core"
)

// BroadcastAddr is the MAC destination meaning "all neighbors".
const BroadcastAddr core.NodeID = 0xFFFF

// FrameKind distinguishes link-layer frame types.
type FrameKind uint8

// Frame kinds. MAC acknowledgments are link-layer only and never reach
// applications.
const (
	FrameBroadcast FrameKind = iota + 1
	FrameUnicast
	FrameAck
)

// Frame is one link-layer transmission.
type Frame struct {
	Kind    FrameKind
	Src     core.NodeID
	Dst     core.NodeID // BroadcastAddr for broadcast frames
	Seq     uint32
	Payload []byte
}

// size returns the frame's payload size in bytes; the PHY/MAC overhead is
// added by the radio model.
func (f *Frame) size() int {
	if f.Kind == FrameAck {
		return 0 // an ack is pure framing
	}
	return len(f.Payload)
}

// App is a node-resident application: a protocol endpoint driven by the
// simulator. Implementations must perform all work synchronously inside
// the callbacks (the simulator is single-threaded) and may schedule
// future work via Node.Sim().After.
type App interface {
	// Start runs once when the node boots.
	Start(n *Node)
	// Receive delivers a successfully decoded frame addressed to this
	// node (unicast to its ID, or broadcast).
	Receive(n *Node, f *Frame)
}

// UnicastResult reports the fate of an acknowledged unicast.
type UnicastResult struct {
	OK       bool
	Attempts int
}

// Energy is a node's cumulative energy ledger, in joules and radio-active
// time. Idle energy is derived at reporting time from the complement of
// the active time.
type Energy struct {
	TxJ    float64
	RxJ    float64
	TxTime Clock
	RxTime Clock
}

// TotalAt returns total energy consumed by elapsed, charging the idle
// power for all non-active time.
func (e Energy) TotalAt(elapsed Clock, idlePower float64) float64 {
	active := e.TxTime + e.RxTime
	if active > elapsed {
		active = elapsed
	}
	return e.TxJ + e.RxJ + idlePower*(elapsed-active).Seconds()
}

// Counters tracks per-node MAC statistics.
type Counters struct {
	FramesSent      int // frames put on air (including retransmissions)
	FramesDelivered int
	FramesReceived  int // frames successfully received (any kind)
	Collisions      int // receptions lost to overlap
	Losses          int // receptions lost to random loss
	MACRetries      int
	UnicastFails    int
}

// reception is one in-flight frame arriving at a node.
type reception struct {
	frame   *Frame
	end     Clock
	dist    float64 // sender distance, for the capture effect
	corrupt bool
}

// captureRatio is the distance factor at which the closer of two
// overlapping transmissions survives (capture effect): free-space power
// goes with 1/d², so a 2× distance advantage is ≈6 dB of SIR — enough
// for a real receiver to hold onto the stronger frame.
const captureRatio = 2.0

// interferer is an audible-but-undecodable transmission overlapping this
// node: anything received while it is active must out-power it to
// survive.
type interferer struct {
	end  Clock
	dist float64
}

// link is one radio-table entry: a node in earshot and its distance.
type link struct {
	to   *Node
	dist float64
}

// outFrame is one queued transmission.
type outFrame struct {
	frame    *Frame
	attempts int
	onResult func(UnicastResult) // non-nil only for acknowledged unicast
}

const (
	macMaxRetries = 5
	// macSIFS is the ack turnaround after a data frame ends.
	macSIFS = time.Millisecond
	// macDIFS is how long contenders must observe an idle medium before
	// transmitting. It exceeds SIFS plus the ack airtime (≈3.8 ms), so
	// the acknowledgment window after every data frame is protected
	// from the contenders that deferred during the frame — the same
	// SIFS/DIFS separation 802.11 uses.
	macDIFS        = 6 * time.Millisecond
	macAckTimeout  = 25 * time.Millisecond
	csmaBackoffMax = 8 * time.Millisecond
)

// Node is one simulated sensor: a position, a radio with CSMA MAC, an
// energy meter and an application.
type Node struct {
	ID  core.NodeID
	Pos Point2 // fixed once added: the radio tables are built from it

	sim *Sim
	app App

	down bool

	// Radio tables (Sim.buildTables): who decodes and who only senses
	// this node's transmissions.
	decode, sense []link

	// MAC state.
	queue        []outFrame
	transmitting bool
	carrierUntil Clock
	txUntil      Clock
	nextSeq      uint32
	receptions   []*reception
	interference []interferer
	awaitingAck  *outFrame
	ackDeadline  uint64 // timer generation for ack timeouts
	dedup        map[core.NodeID]uint32

	energy   Energy
	counters Counters
}

func newNode(s *Sim, id core.NodeID, pos Point2, app App) *Node {
	return &Node{ID: id, Pos: pos, sim: s, app: app, dedup: make(map[core.NodeID]uint32)}
}

// Sim returns the owning simulator, for scheduling and randomness.
func (n *Node) Sim() *Sim { return n.sim }

// Energy returns the node's cumulative energy ledger.
func (n *Node) Energy() Energy { return n.energy }

// Counters returns the node's MAC statistics.
func (n *Node) Counters() Counters { return n.counters }

// Down reports whether the node has failed.
func (n *Node) Down() bool { return n.down }

// Fail takes the node off the air: it stops transmitting, receiving and
// consuming energy. Queued frames are dropped.
func (n *Node) Fail() {
	n.down = true
	n.queue = nil
	n.receptions = nil
	n.awaitingAck = nil
}

// QueueLen returns the number of frames waiting for the medium, a
// congestion signal.
func (n *Node) QueueLen() int { return len(n.queue) }

// SendBroadcast queues an unacknowledged broadcast of payload to all
// neighbors (the paper's single-hop packet M).
func (n *Node) SendBroadcast(payload []byte) {
	if n.down {
		return
	}
	n.nextSeq++
	n.enqueue(outFrame{frame: &Frame{
		Kind:    FrameBroadcast,
		Src:     n.ID,
		Dst:     BroadcastAddr,
		Seq:     n.nextSeq,
		Payload: payload,
	}})
}

// SendUnicast queues an acknowledged unicast to dst. onResult, if
// non-nil, fires exactly once with the outcome after the MAC either gets
// an acknowledgment or exhausts its retries.
func (n *Node) SendUnicast(dst core.NodeID, payload []byte, onResult func(UnicastResult)) {
	if n.down {
		if onResult != nil {
			onResult(UnicastResult{})
		}
		return
	}
	n.nextSeq++
	n.enqueue(outFrame{
		frame: &Frame{
			Kind:    FrameUnicast,
			Src:     n.ID,
			Dst:     dst,
			Seq:     n.nextSeq,
			Payload: payload,
		},
		onResult: onResult,
	})
}

func (n *Node) enqueue(of outFrame) {
	n.queue = append(n.queue, of)
	n.kick()
}

// kick tries to start the next transmission if the MAC is idle.
// Link-layer acks bypass the stop-and-wait gate: a node waiting for its
// own data to be acknowledged must still acknowledge others immediately,
// or two nodes with crossing traffic deadlock each other into retry
// exhaustion.
func (n *Node) kick() {
	if n.down || n.transmitting || len(n.queue) == 0 {
		return
	}
	if n.awaitingAck != nil && n.queue[0].frame.Kind != FrameAck {
		return
	}
	now := n.sim.Now()
	// Carrier sense: the medium must have been observed idle for DIFS
	// since the last transmission ended; retry after it frees, with a
	// random backoff to break synchronization. Acks are exempt (SIFS
	// turnaround). A radio that has never heard a carrier
	// (carrierUntil == 0) has trivially satisfied the idle requirement.
	if idleAt := n.carrierUntil + macDIFS; n.carrierUntil > 0 && idleAt > now &&
		n.queue[0].frame.Kind != FrameAck {
		n.sim.After(idleAt-now+n.backoff(), n.kick)
		return
	}
	of := n.queue[0]
	n.queue = n.queue[1:]
	n.transmit(of)
}

func (n *Node) backoff() Clock {
	return Clock(1 + n.sim.Rand().Int64N(int64(csmaBackoffMax)))
}

// transmit puts a frame on the air: energy is charged, the medium is
// occupied for the airtime at the sender and every in-range node, and
// receptions are scheduled with collision bookkeeping.
func (n *Node) transmit(of outFrame) {
	radio := n.sim.cfg.Radio
	air := radio.airtime(of.frame.size())
	now := n.sim.Now()
	end := now + air

	n.transmitting = true
	n.txUntil = end
	if n.carrierUntil < end {
		n.carrierUntil = end
	}
	// Half-duplex: starting to transmit deafens any reception in
	// progress (possible when an ack preempts, since acks skip carrier
	// sensing).
	for _, rx := range n.receptions {
		if rx.end > now {
			n.corruptReception(rx)
		}
	}
	n.energy.TxJ += radio.TxPower * air.Seconds()
	n.energy.TxTime += air
	n.counters.FramesSent++

	n.sim.buildTables()
	for _, l := range n.decode {
		l.to.beginReception(of.frame, l.dist, end, air)
	}
	for _, l := range n.sense {
		l.to.interfere(l.dist, end)
	}

	n.sim.At(end, func() {
		n.transmitting = false
		switch {
		case of.frame.Kind == FrameUnicast:
			n.armAckTimer(of)
		default:
			n.kick()
		}
	})
}

// beginReception registers an incoming frame from dist meters away at
// this node, accounting for half-duplex deafness, collisions with other
// ongoing receptions, and promiscuous receive energy.
func (n *Node) beginReception(f *Frame, dist float64, end Clock, air Clock) {
	if n.down {
		return
	}
	now := n.sim.Now()
	if n.carrierUntil < end {
		n.carrierUntil = end
	}

	// Half-duplex: a transmitting radio hears nothing, and spends no
	// extra receive energy.
	if n.txUntil > now {
		return
	}

	n.energy.RxJ += n.sim.cfg.Radio.RxPower * air.Seconds()
	n.energy.RxTime += air

	rx := &reception{frame: f, end: end, dist: dist}
	for _, other := range n.receptions {
		if other.end <= now {
			continue
		}
		// Overlap: the much-closer transmission captures the receiver;
		// otherwise both are lost.
		switch {
		case rx.dist*captureRatio <= other.dist:
			n.corruptReception(other)
		case other.dist*captureRatio <= rx.dist:
			n.corruptReception(rx)
		default:
			n.corruptReception(other)
			n.corruptReception(rx)
		}
	}
	// Ongoing out-of-range interference kills the reception unless the
	// sender clearly out-powers it.
	for _, itf := range n.interference {
		if itf.end > now && rx.dist*captureRatio > itf.dist {
			n.corruptReception(rx)
		}
	}
	n.receptions = append(n.receptions, rx)
	n.sim.At(end, func() { n.finishReception(rx) })
}

func (n *Node) corruptReception(rx *reception) {
	if rx.corrupt {
		return
	}
	rx.corrupt = true
	n.counters.Collisions++
}

// interfere registers a transmission from dist meters away, audible but
// not decodable here: the carrier looks busy for its duration and any
// reception (present or starting within it) from a sender not clearly
// stronger than the interferer is corrupted.
func (n *Node) interfere(dist float64, end Clock) {
	if n.down {
		return
	}
	now := n.sim.Now()
	if n.carrierUntil < end {
		n.carrierUntil = end
	}
	for _, rx := range n.receptions {
		if rx.end > now && rx.dist*captureRatio > dist {
			n.corruptReception(rx)
		}
	}
	// Record for receptions that begin during this interference,
	// compacting expired entries in place.
	active := n.interference[:0]
	for _, itf := range n.interference {
		if itf.end > now {
			active = append(active, itf)
		}
	}
	n.interference = append(active, interferer{end: end, dist: dist})
}

func (n *Node) finishReception(rx *reception) {
	// Drop the record.
	for i, r := range n.receptions {
		if r == rx {
			n.receptions = append(n.receptions[:i], n.receptions[i+1:]...)
			break
		}
	}
	if n.down {
		return
	}
	if rx.corrupt {
		return
	}
	if n.sim.cfg.LossProb > 0 && n.sim.rng.Float64() < n.sim.cfg.LossProb {
		n.counters.Losses++
		return
	}

	f := rx.frame
	switch f.Kind {
	case FrameAck:
		if f.Dst == n.ID {
			n.handleAck(f)
		}
	case FrameUnicast:
		if f.Dst != n.ID {
			return // promiscuous overhearing costs energy but is ignored
		}
		n.sendAck(f)
		if !n.dedupAccept(f) {
			return // retransmission of a frame we already delivered
		}
		n.counters.FramesReceived++
		n.app.Receive(n, f)
	case FrameBroadcast:
		n.counters.FramesReceived++
		n.app.Receive(n, f)
	}
}

// dedupAccept tracks the last delivered unicast sequence per source so a
// retransmission whose ack was lost is not delivered twice.
func (n *Node) dedupAccept(f *Frame) bool {
	if last, ok := n.dedup[f.Src]; ok && last == f.Seq {
		return false
	}
	n.dedup[f.Src] = f.Seq
	return true
}

// sendAck replies with a link-layer ack one SIFS after the data frame
// ends. Acks bypass both the transmit queue and carrier sensing (the
// 802.15.4 turnaround): the medium was just held by the data frame, so
// the sender is silent and waiting.
func (n *Node) sendAck(data *Frame) {
	ack := &Frame{Kind: FrameAck, Src: n.ID, Dst: data.Src, Seq: data.Seq}
	n.sim.After(macSIFS, func() {
		if n.down || n.transmitting {
			return // the data sender's retry recovers this rare race
		}
		n.transmit(outFrame{frame: ack})
	})
}

func (n *Node) armAckTimer(of outFrame) {
	n.awaitingAck = &of
	n.ackDeadline++
	gen := n.ackDeadline
	n.sim.After(macAckTimeout+n.backoff(), func() {
		if n.down || n.awaitingAck == nil || n.ackDeadline != gen {
			return
		}
		// Timed out.
		pending := *n.awaitingAck
		n.awaitingAck = nil
		if pending.attempts+1 >= macMaxRetries {
			n.counters.UnicastFails++
			if pending.onResult != nil {
				pending.onResult(UnicastResult{OK: false, Attempts: pending.attempts + 1})
			}
			n.kick()
			return
		}
		pending.attempts++
		n.counters.MACRetries++
		n.queue = append([]outFrame{pending}, n.queue...)
		// Back off increasingly before retrying so persistent
		// contention does not snowball.
		n.sim.After(Clock(pending.attempts)*n.backoff(), n.kick)
	})
}

func (n *Node) handleAck(ack *Frame) {
	pending := n.awaitingAck
	if pending == nil || pending.frame.Seq != ack.Seq || pending.frame.Dst != ack.Src {
		return
	}
	n.awaitingAck = nil
	n.ackDeadline++
	n.counters.FramesDelivered++
	if pending.onResult != nil {
		pending.onResult(UnicastResult{OK: true, Attempts: pending.attempts + 1})
	}
	n.kick()
}
