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
	if err := observe(ctx, c.peers[1], 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := observe(ctx, c.peers[1], 0, 100); err != nil {
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

// TestPeerID: a peer's identity is its detector's node, and every point
// it mints carries it.
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
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = p.Run(ctx)
	}()
	defer func() { cancel(); <-done }()
	if err := observe(ctx, p, 0, 1); err != nil {
		t.Fatal(err)
	}
	held, err := p.Holdings(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pts := held.Points(); len(pts) != 1 || pts[0].ID.Origin != 9 {
		t.Fatalf("holdings %v, want one point from node 9", pts)
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
	if err := observe(cctx, p, 0, 1); err == nil {
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
		// The first point is owed to neighbor 2.
		err := p.ObserveBatch(ctx, 0, []core.Observation{{Value: []float64{42}}})
		returned <- err == nil && tr.left.Load()
	}()
	<-tr.entered
	// The peer now sits inside Broadcast. Give a caller that was released
	// early every chance to show it before opening the gate.
	select {
	case <-returned:
		t.Fatal("ObserveBatch returned while its broadcast was still inside the transport")
	case <-time.After(100 * time.Millisecond):
	}
	close(tr.release)
	if !<-returned {
		t.Fatal("ObserveBatch failed, or returned before Broadcast did")
	}
}

// countingTransport counts broadcasts and delivers none; the mailbox is
// the embedded mesh transport's.
type countingTransport struct {
	Transport
	broadcasts atomic.Int64
}

func (c *countingTransport) Broadcast(*core.Outbound) { c.broadcasts.Add(1) }

// Receipts queued back to back are one run: each is an event and its
// points are counted, but the detector reacts once, so one broadcast
// answers all of them. A post between two receipts ends the run, so a
// drain or a command never sees a receipt queued after it. Every receipt
// of a run gives its unit of the mesh counter back.
func TestQueuedReceiptsReactOnce(t *testing.T) {
	for _, tc := range []struct {
		name       string
		split      int // a Post is queued after this many receipts; 0: none
		broadcasts int64
	}{
		{"one run", 0, 1},
		{"a post splits the run", 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mesh := NewMesh()
			inner, err := mesh.Attach(1)
			if err != nil {
				t.Fatal(err)
			}
			tr := &countingTransport{Transport: inner}
			// N covers all six points, so every point received is an
			// outlier owed to the two neighbours it did not come from.
			p, err := New(Config{Detector: core.Config{Node: 1, Ranker: core.NN(), N: 6}, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			// Links up before anything is held, so nothing is owed yet.
			var before core.Stats
			p.Post(func(d *core.Detector) *core.Outbound {
				for j := core.NodeID(2); j <= 4; j++ {
					d.AddNeighbor(j)
				}
				before = d.Stats()
				return nil
			})
			box := inner.Mailbox()
			for i, from := range []core.NodeID{2, 3, 4} {
				if i > 0 && i == tc.split {
					p.Post(func(*core.Detector) *core.Outbound { return nil })
				}
				pts := make([]core.Point, i+1) // 1, 2 and 3 novel points
				for s := range pts {
					pts[s] = core.NewPoint(from, uint32(s), 0, float64(10*int(from)+s))
				}
				if !box.put(event{receipt: core.Receipt{From: from, Points: pts}}) {
					t.Fatal("an open mailbox refused a receipt")
				}
			}

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			done := make(chan struct{})
			go func() {
				defer close(done)
				_ = p.Run(ctx)
			}()
			defer func() { cancel(); <-done }()
			st, err := p.Stats(ctx) // queued behind the receipts
			if err != nil {
				t.Fatal(err)
			}
			if got := tr.broadcasts.Load(); got != tc.broadcasts {
				t.Errorf("%d broadcasts, want %d", got, tc.broadcasts)
			}
			if got := st.Broadcasts - before.Broadcasts; got != int(tc.broadcasts) {
				t.Errorf("Stats.Broadcasts +%d, want +%d", got, tc.broadcasts)
			}
			if got := st.Events - before.Events; got != 3 {
				t.Errorf("Events +%d, want +3: one per receipt", got)
			}
			if got := st.PointsReceived - before.PointsReceived; got != 6 {
				t.Errorf("PointsReceived +%d, want +6", got)
			}
			if err := mesh.WaitQuiescent(ctx); err != nil {
				t.Fatalf("mesh not quiescent once every event was handled: %v", err)
			}
		})
	}
}
