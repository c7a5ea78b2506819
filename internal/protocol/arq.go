package protocol

import (
	"encoding/binary"
	"time"

	"innet/internal/core"
	"innet/internal/wsn"
)

// The paper assumes reliable single-hop delivery ("very simple node
// failure detection and message reliability assurance mechanisms"). This
// file supplies that mechanism: every broadcast packet M carries a
// sequence number; each neighbor that finds a group tagged for itself
// replies with a tiny acknowledgment; the sender rebroadcasts the still
// unacknowledged groups a bounded number of times. Receivers deduplicate
// on (sender, sequence, my-group) so retransmissions are acknowledged but
// not re-processed.

const (
	arqRetries    = 3
	arqTimeout    = 1200 * time.Millisecond
	arqAckJitter  = 80 * time.Millisecond
	arqSendJitter = int64(responseJitterMax)

	// maxPointsPerFrame fragments large reactions into mote-sized
	// frames: long frames monopolize the medium and lose whole batches
	// to one collision, while fragments retransmit independently.
	maxPointsPerFrame = 6
)

// pendingPacket tracks the groups of one broadcast still awaiting acks.
type pendingPacket struct {
	groups map[core.NodeID][]core.Point
	tries  int
}

// arq is the per-node reliability layer.
type arq struct {
	seq       uint32
	pending   map[uint32]*pendingPacket
	processed map[ackKey]bool
}

type ackKey struct {
	from core.NodeID
	seq  uint32
}

func newARQ() *arq {
	return &arq{
		pending:   make(map[uint32]*pendingPacket),
		processed: make(map[ackKey]bool),
	}
}

// sendReliable fragments the packet M into mote-sized frames, each with
// a fresh sequence number and its own retransmission timer.
func (a *App) sendReliable(n *wsn.Node, out *core.Outbound) {
	if out == nil || n.Down() {
		return
	}
	for _, frag := range fragment(out, maxPointsPerFrame) {
		a.arq.seq++
		seq := a.arq.seq
		pp := &pendingPacket{groups: make(map[core.NodeID][]core.Point, len(frag.Groups))}
		for _, g := range frag.Groups {
			pp.groups[g.To] = g.Points
		}
		a.arq.pending[seq] = pp
		a.broadcastPending(n, seq)
	}
}

// fragment splits a packet into pieces carrying at most maxPoints points
// each, preserving recipient tagging.
func fragment(out *core.Outbound, maxPoints int) []*core.Outbound {
	if out.PointCount() <= maxPoints {
		return []*core.Outbound{out}
	}
	var frags []*core.Outbound
	cur := &core.Outbound{From: out.From}
	count := 0
	flush := func() {
		if len(cur.Groups) > 0 {
			frags = append(frags, cur)
		}
		cur = &core.Outbound{From: out.From}
		count = 0
	}
	for _, g := range out.Groups {
		pts := g.Points
		for len(pts) > 0 {
			room := maxPoints - count
			if room == 0 {
				flush()
				room = maxPoints
			}
			take := len(pts)
			if take > room {
				take = room
			}
			cur.Groups = append(cur.Groups, core.Group{To: g.To, Points: pts[:take]})
			pts = pts[take:]
			count += take
		}
	}
	flush()
	return frags
}

// broadcastPending (re)broadcasts whatever groups of packet seq are still
// unacknowledged, then schedules the next retransmission check.
func (a *App) broadcastPending(n *wsn.Node, seq uint32) {
	pp, ok := a.arq.pending[seq]
	if !ok || n.Down() {
		return
	}
	if len(pp.groups) == 0 {
		delete(a.arq.pending, seq)
		return
	}
	if pp.tries > arqRetries {
		// Give up: the algorithm tolerates drops (§4.2); the stale
		// ledger entries age out with the sliding window.
		delete(a.arq.pending, seq)
		return
	}
	pp.tries++

	out := &core.Outbound{From: n.ID}
	for _, j := range sortedKeys(pp.groups) {
		out.Groups = append(out.Groups, core.Group{To: j, Points: pp.groups[j]})
	}
	buf, err := core.EncodeOutbound(out)
	if err != nil {
		delete(a.arq.pending, seq)
		return
	}
	payload := make([]byte, 0, 5+len(buf))
	payload = append(payload, wsn.PayloadPoints)
	payload = binary.BigEndian.AppendUint32(payload, seq)
	payload = append(payload, buf...)

	jitter := wsn.Clock(n.Sim().Rand().Int64N(arqSendJitter))
	n.Sim().After(jitter, func() { n.SendBroadcast(payload) })
	n.Sim().After(jitter+arqTimeout, func() { a.broadcastPending(n, seq) })
}

// handlePoints processes an incoming PayloadPoints frame: acknowledge the
// group tagged for us (every time — the previous ack may have died) and
// feed the points to the detector once.
func (a *App) handlePoints(n *wsn.Node, f *wsn.Frame) {
	if len(f.Payload) < 5 {
		return
	}
	seq := binary.BigEndian.Uint32(f.Payload[1:])
	out, err := core.DecodeOutbound(f.Payload[5:])
	if err != nil {
		return // corrupted packets are dropped, as on a real mote
	}
	pts := out.For(n.ID)
	if len(pts) == 0 {
		return // not tagged for us: receipt is not an event (§5.2)
	}
	a.sendAck(n, out.From, seq)
	key := ackKey{from: out.From, seq: seq}
	if a.arq.processed[key] {
		return // duplicate retransmission
	}
	a.arq.processed[key] = true
	a.send(n, a.det.Receive(out.From, pts))
}

func (a *App) sendAck(n *wsn.Node, to core.NodeID, seq uint32) {
	payload := make([]byte, 0, 7)
	payload = append(payload, wsn.PayloadPointsAck)
	payload = binary.BigEndian.AppendUint32(payload, seq)
	payload = binary.BigEndian.AppendUint16(payload, uint16(to))
	jitter := wsn.Clock(n.Sim().Rand().Int64N(int64(arqAckJitter)))
	n.Sim().After(jitter, func() {
		if !n.Down() {
			n.SendBroadcast(payload)
		}
	})
}

// handleAck clears the acknowledged group from the pending packet.
func (a *App) handleAck(n *wsn.Node, f *wsn.Frame) {
	if len(f.Payload) != 7 {
		return
	}
	seq := binary.BigEndian.Uint32(f.Payload[1:])
	target := core.NodeID(binary.BigEndian.Uint16(f.Payload[5:]))
	if target != n.ID {
		return // an ack for some other sender's packet
	}
	if pp, ok := a.arq.pending[seq]; ok {
		delete(pp.groups, f.Src)
		if len(pp.groups) == 0 {
			delete(a.arq.pending, seq)
		}
	}
}

func sortedKeys(m map[core.NodeID][]core.Point) []core.NodeID {
	out := make([]core.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
