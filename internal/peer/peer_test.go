package peer

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"innet/internal/core"
)

// cluster spins up n live peers on a mesh with the given edges, runs
// them, and returns a stop function.
type cluster struct {
	mesh  *Mesh
	peers map[core.NodeID]*Peer
	stop  func()
}

func startCluster(t *testing.T, cfg core.Config, n int, edges [][2]core.NodeID) *cluster {
	t.Helper()
	mesh := NewMesh()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	c := &cluster{mesh: mesh, peers: make(map[core.NodeID]*Peer, n)}
	for i := 1; i <= n; i++ {
		id := core.NodeID(i)
		tr, err := mesh.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		pc := cfg
		pc.Node = id
		p, err := New(Config{Detector: pc, Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		c.peers[id] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.Run(ctx)
		}()
	}
	for _, e := range edges {
		if err := mesh.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
		// Link-up events on both ends.
		if err := c.peers[e[0]].AddNeighbor(ctx, e[1]); err != nil {
			t.Fatal(err)
		}
		if err := c.peers[e[1]].AddNeighbor(ctx, e[0]); err != nil {
			t.Fatal(err)
		}
	}
	c.stop = func() {
		cancel()
		wg.Wait()
	}
	return c
}

// settle waits until the mesh is quiescent.
func (c *cluster) settle(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.mesh.WaitQuiescent(ctx); err != nil {
		t.Fatalf("network did not quiesce: %v", err)
	}
}

func lineEdges(n int) [][2]core.NodeID {
	var edges [][2]core.NodeID
	for i := 1; i < n; i++ {
		edges = append(edges, [2]core.NodeID{core.NodeID(i), core.NodeID(i + 1)})
	}
	return edges
}

func TestLivePeersConvergeGlobally(t *testing.T) {
	const n = 8
	c := startCluster(t, core.Config{Ranker: core.NN(), N: 2}, n, lineEdges(n))
	defer c.stop()

	ctx := context.Background()
	rng := rand.New(rand.NewPCG(1, 2))
	union := core.NewSet()
	for i := 1; i <= n; i++ {
		p := c.peers[core.NodeID(i)]
		for s := 0; s < 5; s++ {
			v := []float64{rng.Float64() * 100, rng.Float64() * 100}
			if err := p.Observe(ctx, 0, v...); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.settle(t)

	// Recover the ground truth from each peer's own points via stats:
	// rebuild the union from the observations we made is equivalent —
	// instead compare all peers agree and their estimate is stable.
	first := c.peers[1].Estimate()
	if len(first) != 2 {
		t.Fatalf("estimate size %d", len(first))
	}
	for i := 2; i <= n; i++ {
		got := c.peers[core.NodeID(i)].Estimate()
		if !samePointIDs(first, got) {
			t.Fatalf("peer %d disagrees: %v vs %v", i, ids(got), ids(first))
		}
	}
	_ = union
}

func samePointIDs(a, b []core.Point) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[core.PointID]bool, len(a))
	for _, p := range a {
		set[p.ID] = true
	}
	for _, p := range b {
		if !set[p.ID] {
			return false
		}
	}
	return true
}

func ids(pts []core.Point) []string {
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = p.ID.String()
	}
	return out
}

func TestLivePeersMatchSyncGroundTruth(t *testing.T) {
	const n = 6
	edges := append(lineEdges(n), [2]core.NodeID{1, 4}, [2]core.NodeID{2, 6})
	c := startCluster(t, core.Config{Ranker: core.KNN{K: 2}, N: 3}, n, edges)
	defer c.stop()

	ctx := context.Background()
	rng := rand.New(rand.NewPCG(7, 7))
	union := core.NewSet()
	for i := 1; i <= n; i++ {
		for s := 0; s < 6; s++ {
			v := []float64{rng.Float64() * 50, rng.Float64() * 50}
			if err := c.peers[core.NodeID(i)].Observe(ctx, 0, v...); err != nil {
				t.Fatal(err)
			}
			union.Add(core.NewPoint(core.NodeID(i), uint32(s), 0, v...))
		}
	}
	c.settle(t)

	truth := core.TopN(core.KNN{K: 2}, union, 3)
	for i := 1; i <= n; i++ {
		got := c.peers[core.NodeID(i)].Estimate()
		if !samePointIDs(truth, got) {
			t.Fatalf("peer %d: %v, want %v", i, ids(got), ids(truth))
		}
	}
}

func TestLivePeerDynamicUpdateAndChurn(t *testing.T) {
	const n = 5
	c := startCluster(t, core.Config{Ranker: core.NN(), N: 1}, n, lineEdges(n))
	defer c.stop()

	ctx := context.Background()
	for i := 1; i <= n; i++ {
		for s := 0; s < 3; s++ {
			if err := c.peers[core.NodeID(i)].Observe(ctx, 0, float64(10*i+s)); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.settle(t)

	// Inject an extreme outlier at the tail.
	if err := c.peers[n].Observe(ctx, 0, 1e6); err != nil {
		t.Fatal(err)
	}
	c.settle(t)
	for i := 1; i <= n; i++ {
		got := c.peers[core.NodeID(i)].Estimate()
		if len(got) != 1 || got[0].Value[0] != 1e6 {
			t.Fatalf("peer %d missed the update: %v", i, ids(got))
		}
	}

	// Cut and re-add a redundant link; the network must stay converged.
	c.mesh.Disconnect(2, 3)
	if err := c.peers[2].RemoveNeighbor(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.peers[3].RemoveNeighbor(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.mesh.Connect(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.peers[2].AddNeighbor(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.peers[3].AddNeighbor(ctx, 2); err != nil {
		t.Fatal(err)
	}
	c.settle(t)
	for i := 1; i <= n; i++ {
		got := c.peers[core.NodeID(i)].Estimate()
		if len(got) != 1 || got[0].Value[0] != 1e6 {
			t.Fatalf("peer %d lost the answer after churn: %v", i, ids(got))
		}
	}
}

func TestLivePeerSlidingWindow(t *testing.T) {
	const n = 3
	c := startCluster(t, core.Config{Ranker: core.NN(), N: 1, Window: 10 * time.Second}, n, lineEdges(n))
	defer c.stop()

	ctx := context.Background()
	// Old outlier, then fresh normals.
	if err := c.peers[1].Observe(ctx, 0, 9999); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		for s := 0; s < 3; s++ {
			if err := c.peers[core.NodeID(i)].Observe(ctx, 8*time.Second, float64(i*3+s)); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.settle(t)
	if got := c.peers[2].Estimate(); len(got) == 0 || got[0].Value[0] != 9999 {
		t.Fatalf("outlier not detected before expiry: %v", ids(got))
	}

	// Advance clocks: the outlier expires everywhere.
	for i := 1; i <= n; i++ {
		if err := c.peers[core.NodeID(i)].AdvanceTo(ctx, 15*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	c.settle(t)
	for i := 1; i <= n; i++ {
		for _, p := range c.peers[core.NodeID(i)].Estimate() {
			if p.Value[0] == 9999 {
				t.Fatalf("peer %d still reports the expired outlier", i)
			}
		}
	}
}

func TestPeerValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing transport must fail")
	}
	mesh := NewMesh()
	tr, err := mesh.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Detector: core.Config{Node: 1}, Transport: tr}); err == nil {
		t.Fatal("invalid detector config must fail")
	}
}

func TestMeshValidation(t *testing.T) {
	mesh := NewMesh()
	if _, err := mesh.Attach(1); err != nil {
		t.Fatal(err)
	}
	if _, err := mesh.Attach(1); err == nil {
		t.Fatal("duplicate attach must fail")
	}
	if err := mesh.Connect(1, 1); err == nil {
		t.Fatal("self link must fail")
	}
	if err := mesh.Connect(1, 9); err == nil {
		t.Fatal("unknown node must fail")
	}
	mesh.Detach(9) // no-op
	mesh.Detach(1)
	if _, err := mesh.Attach(1); err != nil {
		t.Fatal("re-attach after detach must work")
	}
}

// TestStoppedPeerReturnsErrStopped pins the way out of a blocked event
// call: once Run has returned (here: the mesh detached the transport),
// a caller holding a still-live context gets ErrStopped instead of
// waiting forever on an event loop that no longer exists.
func TestStoppedPeerReturnsErrStopped(t *testing.T) {
	mesh := NewMesh()
	tr, err := mesh.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{Detector: core.Config{Node: 1, Ranker: core.NN(), N: 1}, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() { ran <- p.Run(context.Background()) }()
	if err := p.AddNeighbor(context.Background(), 2); err != nil {
		t.Fatalf("live peer: %v", err)
	}
	mesh.Detach(1)
	if err := <-ran; err != nil {
		t.Fatalf("Run after detach: %v", err)
	}
	if err := p.AddNeighbor(context.Background(), 3); !errors.Is(err, ErrStopped) {
		t.Fatalf("AddNeighbor on a stopped peer: %v, want ErrStopped", err)
	}
	if _, err := p.Holdings(context.Background()); !errors.Is(err, ErrStopped) {
		t.Fatalf("Holdings on a stopped peer: %v, want ErrStopped", err)
	}
}
