// Package peer is the live, concurrent runtime for the in-network outlier
// detection algorithm: one goroutine per sensor, exchanging the paper's
// tagged broadcast packets over a pluggable transport. It is the form a
// real deployment embeds — the discrete-event simulator exists to measure
// energy, this package exists to run.
//
// The core.Detector is single-threaded by design; Peer serializes all
// events (samples, packets, clock ticks, neighbor changes) through one
// goroutine, so the algorithm code is shared unmodified with the
// simulator and the test harness.
//
// # Lifecycle
//
// A peer moves through four stages; every event method is safe from any
// goroutine once Run is started:
//
//	New(cfg)                        build: validate config, wrap a Detector
//	  │
//	  ▼
//	go p.Run(ctx)                   run: the one goroutine that owns the
//	  │                             detector; drains the transport inbox and
//	  │                             the command queue
//	  ▼
//	Observe / ObserveBatch /        feed: each call is serialized through
//	AdvanceTo / AddNeighbor /       the event loop and returns once the
//	RemoveNeighbor / Estimate       detector has reacted (and any broadcast
//	  │                             is handed to the transport)
//	  ▼
//	cancel ctx, or close the        close: Run returns ctx.Err() on cancel,
//	transport (mesh Detach)         or nil when the transport closes the
//	                                inbox; after that the peer is inert
//	                                (event methods return ErrStopped)
//
// There is no separate Close method: the peer owns no resources beyond
// its goroutine, so stopping Run — by context or by closing the transport
// it reads from — is the whole shutdown story. Callers that need to know
// the goroutine exited wait on Run's return (see ExamplePeer).
//
// Peers are usually not driven by hand: internal/ingest runs a managed
// fleet of them behind the innetd daemon's HTTP/UDP front door, and the
// examples directory shows both styles.
package peer

import (
	"context"
	"errors"
	"sync"
	"time"

	"innet/internal/core"
)

// Packet is one broadcast on the transport.
type Packet struct {
	From    core.NodeID
	Payload []byte
}

// Transport connects a peer to its single-hop neighborhood.
type Transport interface {
	// Broadcast sends the packet to all current neighbors.
	Broadcast(ctx context.Context, p Packet) error
	// Inbox returns the channel of packets addressed to this peer's
	// neighborhood (the mesh closes it when the peer is removed).
	Inbox() <-chan Packet
}

// PacketDoner is optionally implemented by transports that track
// in-flight packets: the peer calls PacketDone after it has fully
// processed (and reacted to) each inbox packet.
type PacketDoner interface {
	PacketDone()
}

// Config parameterizes one live peer.
type Config struct {
	// Detector configures the embedded algorithm (Node included).
	Detector core.Config
	// Transport connects the peer to its neighborhood. Required.
	Transport Transport
}

// Peer runs one sensor's detector in its own goroutine.
type Peer struct {
	cfg Config
	det *core.Detector

	commands chan command
	done     chan struct{} // closed when Run returns; after that nothing drains commands

	mu       sync.Mutex
	estimate []core.Point

	started bool
}

// command is one event queued for the detector goroutine. done is closed
// once the event is fully processed: the detector has reacted, the estimate
// is refreshed and any broadcast has been handed to the transport — not
// merely once fn has returned, or a caller released in between could see a
// quiescent mesh that the broadcast is about to disturb.
type command struct {
	fn   func(*core.Detector) *core.Outbound
	done chan struct{}
}

// New builds a peer. Call Run to start it.
func New(cfg Config) (*Peer, error) {
	if cfg.Transport == nil {
		return nil, errors.New("peer: Transport is required")
	}
	det, err := core.NewDetector(cfg.Detector)
	if err != nil {
		return nil, err
	}
	return &Peer{
		cfg:      cfg,
		det:      det,
		commands: make(chan command),
		done:     make(chan struct{}),
	}, nil
}

// ID returns the peer's node ID.
func (p *Peer) ID() core.NodeID { return p.cfg.Detector.Node }

// Run processes events until ctx is canceled. It must be called exactly
// once; it blocks, so callers usually run it in a goroutine of their own.
func (p *Peer) Run(ctx context.Context) error {
	if p.started {
		return errors.New("peer: Run called twice")
	}
	p.started = true
	defer close(p.done)

	inbox := p.cfg.Transport.Inbox()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case cmd := <-p.commands:
			p.dispatch(ctx, cmd.fn(p.det))
			close(cmd.done)
		case pkt, ok := <-inbox:
			if !ok {
				return nil // removed from the mesh
			}
			p.handlePacket(ctx, pkt)
		}
	}
}

func (p *Peer) handlePacket(ctx context.Context, pkt Packet) {
	if doner, ok := p.cfg.Transport.(PacketDoner); ok {
		defer doner.PacketDone()
	}
	out, err := core.DecodeOutbound(pkt.Payload)
	if err != nil {
		return // corrupt packet: drop, as a mote would
	}
	pts := out.For(p.det.Node())
	if len(pts) == 0 {
		return // not tagged for us: not an event (§5.2)
	}
	p.dispatch(ctx, p.det.Receive(out.From, pts))
}

// dispatch publishes the detector's reaction and refreshes the cached
// estimate.
func (p *Peer) dispatch(ctx context.Context, out *core.Outbound) {
	est := p.det.Estimate()
	p.mu.Lock()
	p.estimate = est
	p.mu.Unlock()

	if out == nil {
		return
	}
	payload, err := core.EncodeOutbound(out)
	if err != nil {
		return
	}
	// Broadcast without holding the detector loop hostage on a slow
	// transport is unnecessary here: mesh transports are buffered, and
	// blocking preserves event ordering.
	_ = p.cfg.Transport.Broadcast(ctx, Packet{From: p.det.Node(), Payload: payload})
}

// ErrStopped reports an event method called on a peer whose Run has
// returned (context canceled, or the transport closed the inbox): no
// goroutine will ever process the event.
var ErrStopped = errors.New("peer: stopped")

// do runs fn on the detector goroutine and returns once it is processed,
// or ErrStopped once Run has returned — a caller holding a longer-lived
// context than the peer's must not wait on a loop that no longer exists.
func (p *Peer) do(ctx context.Context, fn func(*core.Detector) *core.Outbound) error {
	done := make(chan struct{})
	select {
	case p.commands <- command{fn: fn, done: done}:
	case <-ctx.Done():
		return ctx.Err()
	case <-p.done:
		return ErrStopped
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-p.done:
		return ErrStopped
	}
}

// Observe feeds a new sample into the peer.
func (p *Peer) Observe(ctx context.Context, birth time.Duration, value ...float64) error {
	return p.do(ctx, func(d *core.Detector) *core.Outbound {
		_, out := d.Observe(birth, value...)
		return out
	})
}

// ObserveBatch feeds a burst of readings as one data-change event: the
// clock advances to now, expired window contents leave, and all readings
// land under a single ranking pass (core.Detector.StepObserveBatch). The
// ingestion layer uses this so a sensor that falls behind catches up in
// one event instead of one per queued reading.
func (p *Peer) ObserveBatch(ctx context.Context, now time.Duration, obs []core.Observation) error {
	return p.do(ctx, func(d *core.Detector) *core.Outbound {
		_, out := d.StepObserveBatch(now, obs)
		return out
	})
}

// ObserveBatchMinted is ObserveBatch returning the points the detector
// minted for the batch — identities included, whether assigned by the
// caller or by the detector's own sequence counter. The ingestion layer
// uses it when a durability store is attached: the minted points are
// exactly what must be replayed to rebuild this window, so they are what
// the write-ahead log records. The result rides a buffered channel for
// the same reason Holdings does: a caller that gives up on ctx must not
// race the event loop's late write.
func (p *Peer) ObserveBatchMinted(ctx context.Context, now time.Duration, obs []core.Observation) ([]core.Point, error) {
	res := make(chan []core.Point, 1)
	err := p.do(ctx, func(d *core.Detector) *core.Outbound {
		pts, out := d.StepObserveBatch(now, obs)
		res <- pts
		return out
	})
	if err != nil {
		return nil, err
	}
	return <-res, nil
}

// ReserveSeq raises the detector's sequence floor (see
// core.Detector.ReserveSeq); warm restarts call it after replay so
// re-minted identities cannot collide with aged-out ones.
func (p *Peer) ReserveSeq(ctx context.Context, seq uint32) error {
	return p.do(ctx, func(d *core.Detector) *core.Outbound {
		d.ReserveSeq(seq)
		return nil
	})
}

// AdvanceTo moves the peer's clock, evicting expired window contents.
func (p *Peer) AdvanceTo(ctx context.Context, now time.Duration) error {
	return p.do(ctx, func(d *core.Detector) *core.Outbound { return d.AdvanceTo(now) })
}

// AddNeighbor delivers a link-up event.
func (p *Peer) AddNeighbor(ctx context.Context, j core.NodeID) error {
	return p.do(ctx, func(d *core.Detector) *core.Outbound { return d.AddNeighbor(j) })
}

// RemoveNeighbor delivers a link-down event.
func (p *Peer) RemoveNeighbor(ctx context.Context, j core.NodeID) error {
	return p.do(ctx, func(d *core.Detector) *core.Outbound { return d.RemoveNeighbor(j) })
}

// Holdings snapshots the peer's full sliding window P_i (own and
// received points) via the event loop, so the copy is consistent. The
// cluster shard server serves window snapshots from this for the
// coordinator's estimate merge and for sensor handoff. The result rides
// a buffered channel rather than a captured variable: when ctx expires
// after the command was enqueued, the event loop still runs the closure
// later, and a plain capture would make that write race the caller's
// return.
func (p *Peer) Holdings(ctx context.Context) (*core.Set, error) {
	res := make(chan *core.Set, 1)
	err := p.do(ctx, func(d *core.Detector) *core.Outbound {
		res <- d.Holdings()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return <-res, nil
}

// Estimate returns the latest published outlier estimate. It is safe to
// call from any goroutine.
func (p *Peer) Estimate() []core.Point {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]core.Point, len(p.estimate))
	copy(out, p.estimate)
	return out
}

// Stats snapshots the detector counters via the event loop (so it is
// consistent, not torn). The buffered-channel shape mirrors Holdings:
// a closure run after the caller gave up must not write a variable the
// caller already read.
func (p *Peer) Stats(ctx context.Context) (core.Stats, error) {
	res := make(chan core.Stats, 1)
	err := p.do(ctx, func(d *core.Detector) *core.Outbound {
		res <- d.Stats()
		return nil
	})
	if err != nil {
		return core.Stats{}, err
	}
	return <-res, nil
}
