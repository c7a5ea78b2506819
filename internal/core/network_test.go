package core

import (
	"testing"
	"time"
)

func pathNetwork(t *testing.T, n int) *SyncNetwork {
	t.Helper()
	net := NewSyncNetwork()
	for id := NodeID(1); id <= NodeID(n); id++ {
		det, err := NewDetector(Config{Node: id, Ranker: NN(), N: 1})
		if err != nil {
			t.Fatal(err)
		}
		net.Add(det)
	}
	for id := NodeID(1); id < NodeID(n); id++ {
		net.Connect(id, id+1)
	}
	return net
}

func TestHopDistancesOnPath(t *testing.T) {
	net := pathNetwork(t, 5)
	dist := net.HopDistances(1)
	for id := NodeID(1); id <= 5; id++ {
		if dist[id] != int(id)-1 {
			t.Fatalf("dist[%d] = %d, want %d", id, dist[id], id-1)
		}
	}
	dist = net.HopDistances(3)
	if dist[1] != 2 || dist[5] != 2 {
		t.Fatalf("middle node distances wrong: %v", dist)
	}
}

func TestHopDistancesUnreachable(t *testing.T) {
	net := pathNetwork(t, 4)
	net.Disconnect(2, 3)
	dist := net.HopDistances(1)
	if _, ok := dist[3]; ok {
		t.Fatal("node 3 should be unreachable after the cut")
	}
	if net.Connected() {
		t.Fatal("split network reported connected")
	}
}

func TestWithinHops(t *testing.T) {
	net := pathNetwork(t, 5)
	for id := NodeID(1); id <= 5; id++ {
		net.Observe(id, 0, []float64{float64(id)})
	}
	if _, err := net.Settle(10000); err != nil {
		t.Fatal(err)
	}
	got := net.WithinHops(3, 1)
	if got.Len() != 3 {
		t.Fatalf("D≤1 of middle node has %d points, want 3", got.Len())
	}
	if got := net.WithinHops(1, 0); got.Len() != 1 {
		t.Fatalf("D≤0 must be the node's own data, got %d", got.Len())
	}
	if got := net.WithinHops(1, 10); got.Len() != 5 {
		t.Fatalf("D≤10 must be everything, got %d", got.Len())
	}
}

func TestConnectedTrivial(t *testing.T) {
	net := NewSyncNetwork()
	if !net.Connected() {
		t.Fatal("empty network is vacuously connected")
	}
	det, err := NewDetector(Config{Node: 1, Ranker: NN(), N: 1})
	if err != nil {
		t.Fatal(err)
	}
	net.Add(det)
	if !net.Connected() {
		t.Fatal("singleton network is connected")
	}
}

func TestSettleMaxRoundsGuard(t *testing.T) {
	net := pathNetwork(t, 3)
	net.Observe(1, 0, []float64{1})
	net.Observe(1, 0, []float64{100})
	if _, err := net.Settle(0); err == nil {
		t.Fatal("Settle(0) with traffic in flight must error")
	}
}

func TestDisconnectedLinkDropsTraffic(t *testing.T) {
	net := pathNetwork(t, 2)
	// Cut the link, then generate data: groups tagged for the lost
	// neighbor must be dropped, not delivered.
	net.Disconnect(1, 2)
	net.Observe(1, 0, []float64{1})
	if _, err := net.Settle(100); err != nil {
		t.Fatal(err)
	}
	if net.Detector(2).Holdings().Len() != 0 {
		t.Fatal("data crossed a severed link")
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	net := NewSyncNetwork()
	det, err := NewDetector(Config{Node: 1, Ranker: NN(), N: 1})
	if err != nil {
		t.Fatal(err)
	}
	net.Add(det)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add must panic")
		}
	}()
	net.Add(det)
}

func TestSelfLinkPanics(t *testing.T) {
	net := pathNetwork(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("self link must panic")
		}
	}()
	net.Connect(1, 1)
}

func TestGlobalOutliersGroundTruth(t *testing.T) {
	net := pathNetwork(t, 3)
	net.Observe(1, 0, []float64{0})
	net.Observe(2, 0, []float64{1})
	net.Observe(3, 0, []float64{100})
	got := net.GlobalOutliers(NN(), 1)
	if len(got) != 1 || got[0].Value[0] != 100 {
		t.Fatalf("ground truth = %v", idList(got))
	}
}

func TestNetworkCountsTraffic(t *testing.T) {
	net := pathNetwork(t, 2)
	net.Observe(1, 0, []float64{1})
	net.Observe(2, 0, []float64{2})
	if _, err := net.Settle(1000); err != nil {
		t.Fatal(err)
	}
	if net.PointsSent() == 0 || net.Broadcasts() == 0 {
		t.Fatal("traffic counters did not move")
	}
	if !net.Quiescent() {
		t.Fatal("settled network must be quiescent")
	}
	_ = time.Second
}
