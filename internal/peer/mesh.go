package peer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"innet/internal/core"
)

// Mesh is an in-memory single-hop broadcast fabric for live peers: an
// undirected neighbor graph where Broadcast queues each tagged group of a
// packet in its recipient's mailbox, and one count of the events in
// flight so tests and coordinators can wait for network quiescence.
type Mesh struct {
	mu    sync.Mutex // topology; Broadcast delivers under it, so Detach cannot interleave
	boxes map[core.NodeID]*Mailbox
	adj   map[core.NodeID]map[core.NodeID]bool

	// An event holds a unit of inFlight from the moment it is queued until
	// the peer has reacted to it and queued the reaction's broadcast at
	// every neighbor, so the count cannot read zero while a consequence of
	// an accepted event is still to come. Its zero crossing closes idle.
	inFlight atomic.Int64
	idleMu   sync.Mutex
	idle     chan struct{} // nil with no waiter
}

// NewMesh returns an empty fabric.
func NewMesh() *Mesh {
	return &Mesh{
		boxes: make(map[core.NodeID]*Mailbox),
		adj:   make(map[core.NodeID]map[core.NodeID]bool),
	}
}

// add moves the in-flight count and releases the waiters at zero.
func (m *Mesh) add(n int) {
	if m.inFlight.Add(int64(n)) != 0 {
		return
	}
	m.idleMu.Lock()
	if m.idle != nil {
		close(m.idle)
		m.idle = nil
	}
	m.idleMu.Unlock()
}

// event is one unit of work for a peer's goroutine: the points a neighbor
// tagged for it, or (fn set) a function to run on the detector — a
// caller's command when done is set, a fire-and-forget post otherwise.
type event struct {
	from core.NodeID
	pts  []core.Point
	fn   func(*core.Detector) *core.Outbound
	done chan struct{} // closed once the event is fully processed
}

// Mailbox is one peer's attachment to the mesh and its event queue: a
// mutex, a slice and a one-slot wake channel. Putting never blocks and,
// until the mailbox is closed, never refuses: a sender's progress does not
// depend on the receiver's, so every peer of a large clique can broadcast
// at once. What bounds it is what bounds the work (fleet size, the ingest
// queues, a finite cascade per reading).
type Mailbox struct {
	mesh *Mesh
	id   core.NodeID
	wake chan struct{} // a token: the queue went from empty to not

	mu     sync.Mutex
	queue  []event
	closed bool

	batch []event // the consumer's own: swapped out of queue, taken one by one
	pos   int
}

// put queues ev, in flight from this moment; a closed mailbox refuses it
// and counts nothing.
func (b *Mailbox) put(ev event) bool {
	b.mesh.add(1)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.mesh.add(-1)
		return false
	}
	first := len(b.queue) == 0
	b.queue = append(b.queue, ev)
	b.mu.Unlock()
	if first {
		b.signal()
	}
	return true
}

func (b *Mailbox) signal() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// next waits for the next event in arrival order; the caller owes
// mesh.add(-1) once it has dealt with it. ok is false when stop closes, or
// once a closed mailbox has yielded everything it accepted.
func (b *Mailbox) next(stop <-chan struct{}) (ev event, ok bool) {
	for b.pos == len(b.batch) {
		clear(b.batch)
		b.mu.Lock()
		b.batch, b.queue, b.pos = b.queue, b.batch[:0], 0
		closed := b.closed
		b.mu.Unlock()
		if len(b.batch) > 0 {
			break
		}
		if closed {
			return event{}, false
		}
		select {
		case <-stop:
			return event{}, false
		case <-b.wake:
		}
	}
	select {
	case <-stop:
		return event{}, false
	default:
	}
	b.pos++
	return b.batch[b.pos-1], true
}

// close stops the mailbox accepting events and wakes its consumer.
func (b *Mailbox) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.signal()
}

// Attach registers a node and returns its transport.
func (m *Mesh) Attach(id core.NodeID) (Transport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.boxes[id]; dup {
		return nil, fmt.Errorf("peer: node %d already attached", id)
	}
	b := &Mailbox{mesh: m, id: id, wake: make(chan struct{}, 1)}
	m.boxes[id] = b
	m.adj[id] = make(map[core.NodeID]bool)
	return b, nil
}

// Detach removes a node, cutting its links and closing its mailbox: the
// attached peer handles what was queued, then its Run returns nil.
func (m *Mesh) Detach(id core.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.boxes[id]
	if !ok {
		return
	}
	delete(m.boxes, id)
	for other := range m.adj[id] {
		delete(m.adj[other], id)
	}
	delete(m.adj, id)
	b.close()
}

// Connect establishes the undirected link a—b.
func (m *Mesh) Connect(a, b core.NodeID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if a == b {
		return errors.New("peer: self link")
	}
	if _, ok := m.boxes[a]; !ok {
		return fmt.Errorf("peer: unknown node %d", a)
	}
	if _, ok := m.boxes[b]; !ok {
		return fmt.Errorf("peer: unknown node %d", b)
	}
	m.adj[a][b] = true
	m.adj[b][a] = true
	return nil
}

// Disconnect removes the undirected link a—b.
func (m *Mesh) Disconnect(a, b core.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.adj[a], b) // deleting from a departed node's nil map is a no-op
	delete(m.adj[b], a)
}

// Neighbors returns the current neighbors of id.
func (m *Mesh) Neighbors(id core.NodeID) []core.NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]core.NodeID, 0, len(m.adj[id]))
	for other := range m.adj[id] {
		out = append(out, other)
	}
	return out
}

// Broadcast implements Transport on the mesh: each tagged group reaches
// its recipient's mailbox iff the link still exists, as in
// core.SyncNetwork; a node no group is tagged for sees no event (§5.2).
// Points are handed over by reference: a packet is immutable once the
// detector's reaction has returned it, and Receive only reads.
func (b *Mailbox) Broadcast(out *core.Outbound) {
	m := b.mesh
	m.mu.Lock()
	defer m.mu.Unlock()
	links := m.adj[b.id]
	for _, g := range out.Groups {
		if links[g.To] {
			m.boxes[g.To].put(event{from: out.From, pts: g.Points})
		}
	}
}

// Mailbox implements Transport: a mesh attachment is its own mailbox.
func (b *Mailbox) Mailbox() *Mailbox { return b }

// WaitQuiescent blocks until no event is in flight — queued, running, or
// with its reaction's broadcast not yet queued at every neighbor — or the
// context expires. Once every event method called so far has returned,
// that means the algorithm has converged on what they fed in.
func (m *Mesh) WaitQuiescent(ctx context.Context) error {
	for {
		m.idleMu.Lock()
		if m.inFlight.Load() == 0 {
			m.idleMu.Unlock()
			return nil
		}
		if m.idle == nil {
			m.idle = make(chan struct{})
		}
		idle := m.idle
		m.idleMu.Unlock()
		select {
		case <-idle:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
