// Package wsn is a discrete-event wireless sensor network simulator, the
// stand-in for the SENSE simulator the paper evaluates on. It models:
//
//   - a broadcast radio medium with free-space disc propagation,
//     promiscuous listening, half-duplex radios, CSMA carrier sensing,
//     collisions (including hidden-terminal collisions) and per-link
//     random loss;
//   - the Crossbow-mote energy model the paper configures (0.0159 W
//     transmit, 0.021 W receive, 3 µW idle at 3 V, 38.4 kbit/s);
//   - a link-layer MAC with a transmit queue, broadcast frames, and
//     acknowledged unicast frames with bounded retransmission;
//   - AODV routing (RREQ flood, RREP reverse path, RERR, sequence
//     numbers) plus end-to-end acknowledgment, used by the centralized
//     baseline; and
//   - a network-wide flood primitive for sink-to-all dissemination.
//
// The simulator is fully deterministic for a given seed: events are
// heap-ordered by (time, sequence number) and all randomness flows from
// one seeded PCG.
package wsn

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"innet/internal/core"
)

// Clock is simulated time since the start of the run.
type Clock = time.Duration

// event is one scheduled callback.
type event struct {
	at  Clock
	seq uint64
	fn  func()
}

// before orders events by (time, insertion sequence). Sequence numbers
// are unique, so the order is total and any correct heap pops the same
// sequence: ties at one time run first-scheduled first.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// eventQueue is a binary min-heap under before.
type eventQueue []event

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	top, last := h[0], h[len(h)-1]
	h[len(h)-1] = event{} // the backing array must not keep the callback alive
	h = h[:len(h)-1]
	*q = h
	if len(h) == 0 {
		return top
	}
	i := 0
	for c := 1; c < len(h); c = 2*i + 1 {
		if c+1 < len(h) && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// Config parameterizes a simulation run.
type Config struct {
	// Seed drives all randomness in the run.
	Seed uint64

	// Radio is the radio and energy model; zero fields take the
	// Crossbow defaults (DefaultRadio).
	Radio RadioConfig

	// LossProb is the probability that an otherwise successful frame
	// reception is dropped (fading, CRC failure). Collisions are
	// modeled separately and come on top.
	LossProb float64
}

// RadioConfig captures the PHY parameters the paper configures for the
// Crossbow motes.
type RadioConfig struct {
	// TxPower, RxPower, IdlePower are drawn in watts (paper §7.1:
	// 0.0159 / 0.021 / 3e-6 at 3 V).
	TxPower   float64
	RxPower   float64
	IdlePower float64
	// BitRate is the radio bit rate in bits per second. The default is
	// the MicaZ's 250 kbit/s 802.15.4 radio (the Crossbow mote family
	// the paper's power constants describe also includes the 38.4
	// kbit/s Mica2; at that rate the paper's own w=10 traffic volume
	// would exceed the channel capacity of a sampling round).
	BitRate float64
	// Range is the transmission radius in meters (paper: ≈6.77 m
	// on-ground effective range).
	Range float64
	// SenseRange is the carrier-sense and interference radius: real
	// receivers detect energy (and suffer interference) well beyond
	// the distance at which they can decode. Defaults to 2×Range,
	// which is what suppresses hidden-terminal collisions between
	// two-hop neighbors.
	SenseRange float64
	// FrameOverhead is the PHY+MAC framing cost in bytes added to
	// every payload (preamble, sync, header, CRC).
	FrameOverhead int
}

// DefaultRadio returns the paper's Crossbow mote configuration.
func DefaultRadio() RadioConfig {
	return RadioConfig{
		TxPower:       0.0159,
		RxPower:       0.021,
		IdlePower:     3e-6,
		BitRate:       250_000,
		Range:         6.77,
		FrameOverhead: 18,
	}
}

func (rc *RadioConfig) applyDefaults() {
	def := DefaultRadio()
	if rc.TxPower == 0 {
		rc.TxPower = def.TxPower
	}
	if rc.RxPower == 0 {
		rc.RxPower = def.RxPower
	}
	if rc.IdlePower == 0 {
		rc.IdlePower = def.IdlePower
	}
	if rc.BitRate == 0 {
		rc.BitRate = def.BitRate
	}
	if rc.Range == 0 {
		rc.Range = def.Range
	}
	if rc.SenseRange == 0 {
		rc.SenseRange = 2 * rc.Range
	}
	if rc.FrameOverhead == 0 {
		rc.FrameOverhead = def.FrameOverhead
	}
}

// airtime returns how long a frame with the given payload size occupies
// the medium.
func (rc RadioConfig) airtime(payloadBytes int) Clock {
	bits := float64(payloadBytes+rc.FrameOverhead) * 8
	return Clock(bits / rc.BitRate * float64(time.Second))
}

// Sim is a deterministic discrete-event simulation of one sensor network.
type Sim struct {
	cfg   Config
	now   Clock
	seq   uint64
	queue eventQueue
	rng   *rand.Rand

	nodes  map[core.NodeID]*Node
	order  []*Node // insertion order, for deterministic iteration
	tables bool    // every node's radio tables match order
	events int
}

// NewSim builds an empty simulation.
func NewSim(cfg Config) *Sim {
	cfg.Radio.applyDefaults()
	return &Sim{
		cfg:   cfg,
		rng:   rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xda3e39cb94b95bdb)),
		nodes: make(map[core.NodeID]*Node),
	}
}

// Now returns the current simulated time.
func (s *Sim) Now() Clock { return s.now }

// Rand returns the simulation's deterministic randomness source.
// Callbacks must draw randomness only from here.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Events returns the number of events executed so far.
func (s *Sim) Events() int { return s.events }

// At schedules fn at the absolute simulated time t (clamped to now).
func (s *Sim) At(t Clock, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.queue.push(event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d after the current time.
func (s *Sim) After(d Clock, fn func()) { s.At(s.now+d, fn) }

// Run executes events until the queue empties or simulated time reaches
// until; events scheduled at exactly until still run.
func (s *Sim) Run(until Clock) {
	for len(s.queue) > 0 && s.queue[0].at <= until {
		e := s.queue.pop()
		s.now = e.at
		s.events++
		e.fn()
	}
	if s.now < until {
		s.now = until
	}
}

// RunUntilIdle executes all pending events regardless of time, up to the
// given safety cap, and reports whether the queue drained.
func (s *Sim) RunUntilIdle(maxEvents int) bool {
	for i := 0; i < maxEvents; i++ {
		if len(s.queue) == 0 {
			return true
		}
		e := s.queue.pop()
		s.now = e.at
		s.events++
		e.fn()
	}
	return len(s.queue) == 0
}

// AddNode places a sensor at pos running the given application. Node IDs
// must be unique.
func (s *Sim) AddNode(id core.NodeID, pos Point2, app App) *Node {
	if _, dup := s.nodes[id]; dup {
		panic(fmt.Sprintf("wsn: duplicate node %d", id))
	}
	n := newNode(s, id, pos, app)
	s.nodes[id] = n
	s.order = append(s.order, n)
	s.tables = false
	return n
}

// Node returns the node with the given ID, or nil.
func (s *Sim) Node(id core.NodeID) *Node { return s.nodes[id] }

// Nodes returns all nodes in insertion order.
func (s *Sim) Nodes() []*Node { return append([]*Node(nil), s.order...) }

// Start invokes every application's Start callback at time zero with a
// small random stagger, as deployed motes boot asynchronously.
func (s *Sim) Start() {
	for _, n := range s.order {
		s.At(Clock(s.rng.Int64N(int64(50*time.Millisecond))), func() { n.app.Start(n) })
	}
}

// buildTables gives every node its radio tables: the nodes within Range
// (decode) and within (Range, SenseRange] (sense), each in insertion
// order with its distance. Positions do not change after AddNode, so the
// tables hold until the next AddNode. Liveness is not in them: a down
// node is skipped where a frame reaches it. Each pair's distance is
// computed once for both ends: Hypot is symmetric under negating its
// arguments, so it is the value either node would compute.
func (s *Sim) buildTables() {
	if s.tables {
		return
	}
	s.tables = true
	for _, n := range s.order {
		n.decode, n.sense = n.decode[:0], n.sense[:0]
	}
	for i, a := range s.order {
		for _, b := range s.order[i+1:] {
			switch d := a.Pos.Dist(b.Pos); {
			case d <= s.cfg.Radio.Range:
				a.decode = append(a.decode, link{b, d})
				b.decode = append(b.decode, link{a, d})
			case d <= s.cfg.Radio.SenseRange:
				a.sense = append(a.sense, link{b, d})
				b.sense = append(b.sense, link{a, d})
			}
		}
	}
}

// Point2 is a position on the simulated terrain, in meters.
type Point2 struct {
	X, Y float64
}

// Dist returns the Euclidean distance to q.
func (p Point2) Dist(q Point2) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}
