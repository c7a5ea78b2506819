package peer

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"innet/internal/core"
)

func TestPeerStats(t *testing.T) {
	c := startCluster(t, core.Config{Ranker: core.NN(), N: 1}, 2, lineEdges(2))
	defer c.stop()
	ctx := context.Background()
	if err := c.peers[1].Observe(ctx, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.peers[1].Observe(ctx, 0, 100); err != nil {
		t.Fatal(err)
	}
	c.settle(t)
	stats, err := c.peers[1].Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events == 0 || stats.PointsSent == 0 {
		t.Fatalf("stats did not move: %+v", stats)
	}
	recv, err := c.peers[2].Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if recv.PointsReceived == 0 {
		t.Fatalf("receiver stats: %+v", recv)
	}
}

func TestPeerID(t *testing.T) {
	mesh := NewMesh()
	tr, err := mesh.Attach(9)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Detector: core.Config{Node: 9, Ranker: core.NN(), N: 1}, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	if p.ID() != 9 {
		t.Fatalf("ID() = %d", p.ID())
	}
}

func TestPeerRunTwiceFails(t *testing.T) {
	mesh := NewMesh()
	tr, err := mesh.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Detector: core.Config{Node: 1, Ranker: core.NN(), N: 1}, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("canceled Run must return the context error")
	}
	if err := p.Run(context.Background()); err == nil {
		t.Fatal("second Run must fail")
	}
}

func TestPeerCommandAfterCancel(t *testing.T) {
	mesh := NewMesh()
	tr, err := mesh.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Detector: core.Config{Node: 1, Ranker: core.NN(), N: 1}, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = p.Run(ctx)
	}()
	cancel()
	<-done
	// A command against a dead peer fails via its own context rather
	// than hanging.
	cctx, ccancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer ccancel()
	if err := p.Observe(cctx, 0, 1); err == nil {
		t.Fatal("command against a stopped peer must time out")
	}
}

func TestMeshDetachClosesInbox(t *testing.T) {
	mesh := NewMesh()
	tr, err := mesh.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Detector: core.Config{Node: 1, Ranker: core.NN(), N: 1}, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	time.Sleep(10 * time.Millisecond)
	mesh.Detach(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v on detach, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer did not exit after detach")
	}
}

func TestMeshNeighbors(t *testing.T) {
	mesh := NewMesh()
	for id := core.NodeID(1); id <= 3; id++ {
		if _, err := mesh.Attach(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := mesh.Connect(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := mesh.Connect(1, 3); err != nil {
		t.Fatal(err)
	}
	if got := mesh.Neighbors(1); len(got) != 2 {
		t.Fatalf("Neighbors(1) = %v", got)
	}
	mesh.Disconnect(1, 2)
	if got := mesh.Neighbors(1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("after disconnect: %v", got)
	}
}

// gatedTransport lets a test hold a peer inside Broadcast; the mailbox is
// the embedded mesh transport's.
type gatedTransport struct {
	Transport
	entered chan struct{} // receives once per Broadcast, on entry
	release chan struct{} // Broadcast returns once this is closed
	left    atomic.Bool   // set just before Broadcast returns
}

func (g *gatedTransport) Broadcast(*core.Outbound) {
	g.entered <- struct{}{}
	<-g.release
	g.left.Store(true)
}

// An event method returns only once the broadcast its event produced has
// been handed to the transport. Every barrier is built on that: a caller
// whose event method has returned asks the mesh whether anything is in
// flight (bench's replay, the tests' settle), and an event gives up its
// own unit of that count at the same moment — after the broadcast, so the
// count cannot touch zero in between. The regression this pins released
// the caller as soon as the detector had reacted, before the peer called
// Broadcast.
func TestEventReturnsAfterBroadcast(t *testing.T) {
	inner, err := NewMesh().Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	tr := &gatedTransport{Transport: inner, entered: make(chan struct{}, 1), release: make(chan struct{})}
	p, err := New(Config{Detector: core.Config{Node: 1, Ranker: core.NN(), N: 1}, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go p.Run(ctx)
	if err := p.AddNeighbor(ctx, 2); err != nil { // nothing held yet: no broadcast
		t.Fatal(err)
	}

	returned := make(chan bool, 1) // carries whether Broadcast had returned first
	go func() {
		err := p.Observe(ctx, 0, 42) // the first point is owed to neighbor 2
		returned <- err == nil && tr.left.Load()
	}()
	<-tr.entered
	// The peer now sits inside Broadcast. Give a caller that was released
	// early every chance to show it before opening the gate.
	select {
	case <-returned:
		t.Fatal("Observe returned while its broadcast was still inside the transport")
	case <-time.After(100 * time.Millisecond):
	}
	close(tr.release)
	if !<-returned {
		t.Fatal("Observe failed, or returned before Broadcast did")
	}
}
