package peer

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"innet/internal/core"
)

// Mesh is an in-memory single-hop broadcast fabric for live peers: an
// undirected neighbor graph where Broadcast delivers a packet to every
// current neighbor's inbox. It tracks in-flight packets so tests and
// coordinators can wait for network quiescence.
type Mesh struct {
	mu       sync.Mutex
	cond     *sync.Cond
	ports    map[core.NodeID]*port
	adj      map[core.NodeID]map[core.NodeID]bool
	inFlight int
	delay    func(from, to core.NodeID) bool // true = drop (loss injection)
}

// NewMesh returns an empty fabric.
func NewMesh() *Mesh {
	m := &Mesh{
		ports: make(map[core.NodeID]*port),
		adj:   make(map[core.NodeID]map[core.NodeID]bool),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// SetLossFunc installs a per-delivery drop predicate (nil disables loss).
// It must be set before traffic flows.
func (m *Mesh) SetLossFunc(drop func(from, to core.NodeID) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.delay = drop
}

// port is one peer's attachment to the mesh. sendMu serializes senders
// against Detach's close of the inbox: a broadcast captures target ports
// outside the mesh lock, so without it a concurrent Detach could close
// the channel mid-send and panic the sender.
type port struct {
	mesh *Mesh
	id   core.NodeID
	in   chan Packet

	sendMu sync.Mutex
	closed bool
}

var _ Transport = (*port)(nil)

// Attach registers a node and returns its transport. The inbox buffer
// must absorb bursts: peers consume serially while many neighbors may
// broadcast at once.
func (m *Mesh) Attach(id core.NodeID) (Transport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.ports[id]; dup {
		return nil, fmt.Errorf("peer: node %d already attached", id)
	}
	t := &port{mesh: m, id: id, in: make(chan Packet, 4096)}
	m.ports[id] = t
	m.adj[id] = make(map[core.NodeID]bool)
	return t, nil
}

// Detach removes a node, cutting its links and closing its inbox (which
// ends the attached peer's Run loop). It waits for sends already in
// progress to that inbox to finish, so it must not be called while the
// node's own consumer is stopped AND its inbox is full — the normal
// sequence (detach while the peer still drains, as ingest.Leave does)
// cannot block.
func (m *Mesh) Detach(id core.NodeID) {
	m.mu.Lock()
	t, ok := m.ports[id]
	if !ok {
		m.mu.Unlock()
		return
	}
	delete(m.ports, id)
	for other := range m.adj[id] {
		delete(m.adj[other], id)
	}
	delete(m.adj, id)
	m.mu.Unlock()

	t.sendMu.Lock()
	t.closed = true
	close(t.in)
	t.sendMu.Unlock()
}

// Connect establishes the undirected link a—b.
func (m *Mesh) Connect(a, b core.NodeID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if a == b {
		return errors.New("peer: self link")
	}
	if _, ok := m.ports[a]; !ok {
		return fmt.Errorf("peer: unknown node %d", a)
	}
	if _, ok := m.ports[b]; !ok {
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
	if _, ok := m.adj[a]; ok {
		delete(m.adj[a], b)
	}
	if _, ok := m.adj[b]; ok {
		delete(m.adj[b], a)
	}
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

// Broadcast implements Transport for a port. Each delivery holds the
// target's sendMu so a concurrent Detach cannot close the inbox under
// the send; a target that detached after being selected is skipped, like
// a receiver that left radio range mid-transmission.
func (t *port) Broadcast(ctx context.Context, p Packet) error {
	m := t.mesh
	m.mu.Lock()
	targets := make([]*port, 0, len(m.adj[t.id]))
	for other := range m.adj[t.id] {
		if m.delay != nil && m.delay(t.id, other) {
			continue
		}
		targets = append(targets, m.ports[other])
	}
	m.inFlight += len(targets)
	m.mu.Unlock()

	for _, target := range targets {
		target.sendMu.Lock()
		delivered := false
		if !target.closed {
			select {
			case target.in <- p:
				delivered = true
			case <-ctx.Done():
			}
		}
		target.sendMu.Unlock()
		if !delivered {
			m.mu.Lock()
			m.inFlight--
			m.cond.Broadcast()
			m.mu.Unlock()
		}
	}
	return nil
}

// Inbox implements Transport for a port.
func (t *port) Inbox() <-chan Packet { return t.in }

// PacketDone implements the peer runtime's completion hook: a packet
// counts as in flight until the receiving peer has fully reacted to it
// (including broadcasting its own response), so quiescence really means
// the distributed computation has settled.
func (t *port) PacketDone() {
	t.mesh.mu.Lock()
	t.mesh.inFlight--
	t.mesh.cond.Broadcast()
	t.mesh.mu.Unlock()
}

// WaitQuiescent blocks until no packets are in flight (sent but not yet
// consumed) or the context expires. Combined with idle peers this means
// the algorithm has converged. The caller's own goroutine does the
// waiting: a sync.Cond cannot select on a context, so the context's end is
// delivered as one more broadcast, taken under the lock so it cannot fall
// between the waiter's check and its Wait.
func (m *Mesh) WaitQuiescent(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.inFlight != 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		m.cond.Wait()
	}
	return nil
}
