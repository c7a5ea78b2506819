// Package peer is the live, concurrent runtime for the in-network outlier
// detection algorithm: one goroutine per sensor, exchanging the paper's
// tagged broadcast packets over a pluggable transport. It is the form a
// real deployment embeds — the discrete-event simulator exists to measure
// energy, this package exists to run.
//
// The core.Detector is single-threaded by design; Peer serializes all
// events (samples, packets, clock ticks, neighbor changes) through one
// FIFO mailbox emptied by one goroutine, so the algorithm code is shared
// unmodified with the simulator and the test harness — and a node handles
// its events one at a time over links that deliver in order, which is all
// the paper asks of a runtime.
//
// # Lifecycle
//
// A peer moves through four stages; every event method is safe from any
// goroutine:
//
//	New(cfg)                        build: validate config, wrap a Detector
//	  │
//	  ▼
//	go p.Run(ctx)                   run: the one goroutine that owns the
//	  │                             detector; takes neighbors' packets,
//	  │                             callers' commands and posts off the
//	  │                             mailbox in arrival order
//	  ▼
//	Observe / ObserveBatch /        feed: each call queues one event and
//	AdvanceTo / AddNeighbor /       returns once the detector has reacted
//	RemoveNeighbor / Holdings;      and any broadcast is queued at every
//	Post                            neighbor; Post queues and returns
//	  │
//	  ▼
//	cancel ctx, or close the        close: Run returns ctx.Err() on cancel,
//	mailbox (mesh Detach)           or nil once a closed mailbox is empty;
//	                                after that the peer is inert (event
//	                                methods return ErrStopped, nothing
//	                                sent to it counts in flight)
//
// There is no separate Close method: the peer owns no resources beyond
// its goroutine, so stopping Run is the whole shutdown story; callers that
// need to know the goroutine exited wait on Run's return (see ExamplePeer).
// No call here blocks on another peer: queuing never waits, and the two
// waits there are — an event method on its own event, WaitQuiescent on
// the mesh — take a context.
//
// Peers are usually not driven by hand: internal/ingest runs a managed
// fleet of them behind the innetd daemon's HTTP/UDP front door, and
// examples/livenet shows a multi-hop fleet built that way.
package peer

import (
	"context"
	"errors"
	"sync"
	"time"

	"innet/internal/core"
)

// Transport connects a peer to its single-hop neighborhood. Mesh.Attach
// returns the in-memory one.
type Transport interface {
	// Broadcast queues the packet's tagged groups at the current
	// neighbors. It must not wait on any receiver.
	Broadcast(out *core.Outbound)
	// Mailbox returns the queue this peer's events arrive in (the mesh
	// closes it when the peer is removed).
	Mailbox() *Mailbox
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
	cfg  Config
	det  *core.Detector
	box  *Mailbox
	done chan struct{} // closed when Run returns; after that nothing takes events

	mu       sync.Mutex
	estimate []core.Point

	started bool
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
		cfg:  cfg,
		det:  det,
		box:  cfg.Transport.Mailbox(),
		done: make(chan struct{}),
	}, nil
}

// ID returns the peer's node ID.
func (p *Peer) ID() core.NodeID { return p.cfg.Detector.Node }

// Run processes events until ctx is canceled or the mailbox is closed
// and empty. It must be called exactly once; it blocks, so callers
// usually run it in a goroutine of their own.
func (p *Peer) Run(ctx context.Context) error {
	if p.started {
		return errors.New("peer: Run called twice")
	}
	p.started = true
	defer func() {
		// What a stopped peer will never handle must not keep the mesh busy.
		p.box.close()
		for _, ok := p.box.next(nil); ok; _, ok = p.box.next(nil) {
			p.box.mesh.add(-1)
		}
		close(p.done)
	}()
	for {
		ev, ok := p.box.next(ctx.Done())
		if !ok {
			return ctx.Err() // nil: removed from the mesh
		}
		p.handle(ev)
	}
}

// handle runs one event to completion: the detector reacts, the cached
// estimate is refreshed, the reaction is queued at every neighbor — and
// only then does the event give up its unit of the mesh counter and release
// its caller, or either could see a quiescent mesh about to be disturbed.
func (p *Peer) handle(ev event) {
	var out *core.Outbound
	if ev.fn != nil {
		out = ev.fn(p.det)
	} else {
		out = p.det.Receive(ev.from, ev.pts)
	}
	est := p.det.Estimate()
	p.mu.Lock()
	p.estimate = est
	p.mu.Unlock()
	if out != nil {
		p.cfg.Transport.Broadcast(out)
	}
	p.box.mesh.add(-1)
	if ev.done != nil {
		close(ev.done)
	}
}

// ErrStopped reports an event method called on a peer whose Run has
// returned (context canceled, or the mesh closed the mailbox): no
// goroutine will ever process the event.
var ErrStopped = errors.New("peer: stopped")

// Post queues fn to run on the detector goroutine and returns at once;
// what fn returns is broadcast like any other reaction. It reports false
// when the mailbox is closed and fn will never run. The ingestion layer
// posts its queue drain this way instead of keeping a goroutine to wait.
func (p *Peer) Post(fn func(*core.Detector) *core.Outbound) bool {
	return p.box.put(event{fn: fn})
}

// do runs fn on the detector goroutine and returns once it is processed,
// or ErrStopped once Run has returned — a caller holding a longer-lived
// context than the peer's must not wait on a loop that no longer exists.
func (p *Peer) do(ctx context.Context, fn func(*core.Detector) *core.Outbound) error {
	done := make(chan struct{})
	if !p.box.put(event{fn: fn, done: done}) {
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
// land under a single ranking pass (core.Detector.StepObserveBatch).
func (p *Peer) ObserveBatch(ctx context.Context, now time.Duration, obs []core.Observation) error {
	return p.do(ctx, func(d *core.Detector) *core.Outbound {
		_, out := d.StepObserveBatch(now, obs)
		return out
	})
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

// ask runs get on the detector goroutine and returns its result. The
// result rides a buffered channel rather than a captured variable: when ctx
// expires after the event was queued the loop still runs it later, and a
// plain capture would make that write race the caller's return.
func ask[T any](ctx context.Context, p *Peer, get func(*core.Detector) T) (T, error) {
	res := make(chan T, 1)
	err := p.do(ctx, func(d *core.Detector) *core.Outbound {
		res <- get(d)
		return nil
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return <-res, nil
}

// Holdings snapshots the peer's full sliding window P_i (own and received
// points) via the event loop, so the copy is consistent. The cluster shard
// server serves window snapshots from this for the coordinator's estimate
// merge and for sensor handoff.
func (p *Peer) Holdings(ctx context.Context) (*core.Set, error) {
	return ask(ctx, p, (*core.Detector).Holdings)
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
// consistent, not torn).
func (p *Peer) Stats(ctx context.Context) (core.Stats, error) {
	return ask(ctx, p, (*core.Detector).Stats)
}
