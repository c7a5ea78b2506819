package core

import (
	"testing"
	"time"
)

// buildSemiNetwork assembles and settles a semi-global network over the
// graph with the given hop limit.
func buildSemiNetwork(t *testing.T, seed uint64, nodes, extraEdges, hopLimit, ptsPerNode int, rk Ranker, n int) (*SyncNetwork, geomGraph) {
	t.Helper()
	r := rng(seed)
	g := randConnectedGraph(r, nodes, extraEdges)
	net := buildNetwork(t, r, g, Config{Ranker: rk, N: n, HopLimit: hopLimit}, ptsPerNode)
	return net, g
}

// checkSemiGlobal asserts that every sensor's estimate equals the
// centrally computed On(D≤d) for that sensor.
func checkSemiGlobal(t *testing.T, net *SyncNetwork, rk Ranker, d, n int, label string) {
	t.Helper()
	for _, id := range net.Nodes() {
		want := net.SemiGlobalOutliers(rk, id, d, n)
		got := net.Detector(id).Estimate()
		if !sameIDs(got, want) {
			t.Fatalf("%s: node %d estimate %v, want On(D≤%d) = %v",
				label, id, idList(got), d, idList(want))
		}
	}
}

// TestSemiGlobalPath checks Algorithm 2 on a 5-node path with d = 1:
// each sensor must find the outliers of exactly its 1-hop union, and data
// must never travel farther than one hop.
func TestSemiGlobalPath(t *testing.T) {
	const d = 1
	net := NewSyncNetwork()
	for id := NodeID(1); id <= 5; id++ {
		det, err := NewDetector(Config{Node: id, Ranker: NN(), N: 2, HopLimit: d})
		if err != nil {
			t.Fatal(err)
		}
		net.Add(det)
	}
	for id := NodeID(1); id < 5; id++ {
		net.Connect(id, id+1)
	}
	r := rng(3)
	for id := NodeID(1); id <= 5; id++ {
		base := float64(id) * 10
		net.Observe(id, 0, []float64{base}, []float64{base + 1}, []float64{base + 2}, []float64{base + 50})
	}
	if _, err := net.Settle(100000); err != nil {
		t.Fatal(err)
	}
	_ = r
	checkSemiGlobal(t, net, NN(), d, 2, "path d=1")

	// Locality: node 1 must hold nothing originating beyond 1 hop.
	net.Detector(1).Holdings().ForEach(func(p Point) {
		if p.ID.Origin > 2 {
			t.Errorf("node 1 holds %v, which is %d hops away", p.ID, p.ID.Origin-1)
		}
	})
}

// semiGlobalAccuracy returns the fraction of sensors whose estimate
// exactly equals the centrally computed On(D≤d).
func semiGlobalAccuracy(net *SyncNetwork, rk Ranker, d, n int) float64 {
	exact := 0
	for _, id := range net.Nodes() {
		want := net.SemiGlobalOutliers(rk, id, d, n)
		if sameIDs(net.Detector(id).Estimate(), want) {
			exact++
		}
	}
	return float64(exact) / float64(len(net.Nodes()))
}

// TestSemiGlobalRandom checks Algorithm 2 against centrally computed
// ground truth on random topologies for hop diameters 1..3 (the paper's
// epsilon range). Unlike the global algorithm, Algorithm 2 carries no
// exactness theorem — and cannot: a neighbor would have to know how a
// third sensor's (unseeable, locality-bounded) data reranks its own
// points. The paper accordingly reports ≈99% accuracy rather than
// proving convergence. We therefore assert a high accuracy floor per
// configuration rather than exactness.
func TestSemiGlobalRandom(t *testing.T) {
	for d := 1; d <= 3; d++ {
		d := d
		for _, rk := range []Ranker{NN(), KNN{K: 4}} {
			rk := rk
			t.Run(rk.Name()+"_d"+string(rune('0'+d)), func(t *testing.T) {
				t.Parallel()
				var sum float64
				const seeds = 6
				for seed := uint64(1); seed <= seeds; seed++ {
					net, _ := buildSemiNetwork(t, seed*100+uint64(d), 5+int(seed), 3, d, 6, rk, 3)
					sum += semiGlobalAccuracy(net, rk, d, 3)
				}
				acc := sum / seeds
				t.Logf("mean exact-node accuracy d=%d %s: %.3f", d, rk.Name(), acc)
				if acc < 0.80 {
					t.Fatalf("accuracy %.3f below floor 0.80", acc)
				}
			})
		}
	}
}

// TestSemiGlobalHopBound verifies that no point ever travels more than d
// hops: every held copy has Hop ≤ d and the hop field is consistent with
// the true topological distance from the origin (it can never understate
// it).
func TestSemiGlobalHopBound(t *testing.T) {
	const d = 2
	net, _ := buildSemiNetwork(t, 42, 9, 4, d, 5, NN(), 2)
	for _, id := range net.Nodes() {
		dist := net.HopDistances(id)
		net.Detector(id).Holdings().ForEach(func(p Point) {
			if int(p.Hop) > d {
				t.Errorf("node %d holds %v with hop %d > d=%d", id, p.ID, p.Hop, d)
			}
			if int(p.Hop) < dist[p.ID.Origin] {
				t.Errorf("node %d holds %v with hop %d but true distance %d",
					id, p.ID, p.Hop, dist[p.ID.Origin])
			}
		})
	}
}

// TestSemiGlobalMatchesGlobalWhenDiameterCovered: with d at least the
// network diameter, the semi-global answer at every node is the global
// answer.
func TestSemiGlobalMatchesGlobalWhenDiameterCovered(t *testing.T) {
	const d = 8 // far beyond the diameter of an 6-node graph
	net, _ := buildSemiNetwork(t, 5, 6, 4, d, 5, NN(), 2)
	want := net.GlobalOutliers(NN(), 2)
	for _, id := range net.Nodes() {
		if got := net.Detector(id).Estimate(); !sameIDs(got, want) {
			t.Fatalf("node %d estimate %v, want global %v", id, idList(got), idList(want))
		}
	}
}

// TestSemiGlobalMinHopReplacement delivers the same point over a long and
// then a short path and checks the held copy's hop drops.
func TestSemiGlobalMinHopReplacement(t *testing.T) {
	det, err := NewDetector(Config{Node: 1, Ranker: NN(), N: 1, HopLimit: 3})
	if err != nil {
		t.Fatal(err)
	}
	far := NewPoint(9, 0, 0, 42)
	far.Hop = 3
	near := far.Clone()
	near.Hop = 1
	receive(det, 2, []Point{far})
	if got, _ := det.Holdings().Get(far.ID); got.Hop != 3 {
		t.Fatalf("hop = %d, want 3", got.Hop)
	}
	receive(det, 3, []Point{near})
	if got, _ := det.Holdings().Get(far.ID); got.Hop != 1 {
		t.Fatalf("hop after shorter path = %d, want 1", got.Hop)
	}
	// A later, worse copy must not regress the hop.
	receive(det, 4, []Point{far})
	if got, _ := det.Holdings().Get(far.ID); got.Hop != 1 {
		t.Fatalf("hop regressed to %d", got.Hop)
	}
}

// TestSemiGlobalDynamicUpdate injects a fresh extreme outlier after
// convergence. The new point dominates every d-hop neighborhood that can
// see it, so every sensor within d hops of the origin must pick it up.
func TestSemiGlobalDynamicUpdate(t *testing.T) {
	const d = 2
	net, g := buildSemiNetwork(t, 77, 8, 3, d, 5, NN(), 2)
	injected := net.Observe(g.nodes[0], time.Second, []float64{5_000, 5_000})
	if _, err := net.Settle(100000); err != nil {
		t.Fatal(err)
	}
	dist := net.HopDistances(g.nodes[0])
	for _, id := range net.Nodes() {
		if dist[id] > d {
			continue
		}
		found := false
		for _, p := range net.Detector(id).Estimate() {
			if p.ID == injected[0].ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d (%d hops from origin) missed the injected outlier", id, dist[id])
		}
	}
	if acc := semiGlobalAccuracy(net, NN(), d, 2); acc < 0.80 {
		t.Fatalf("post-update accuracy %.3f below floor", acc)
	}
}

// TestSemiGlobalWindowEviction ages data out under Algorithm 2.
func TestSemiGlobalWindowEviction(t *testing.T) {
	const d = 2
	r := rng(99)
	g := randConnectedGraph(r, 7, 3)
	cfg := Config{Ranker: NN(), N: 2, HopLimit: d, Window: 10 * time.Second}
	net := NewSyncNetwork()
	for _, id := range g.nodes {
		c := cfg
		c.Node = id
		det, err := NewDetector(c)
		if err != nil {
			t.Fatal(err)
		}
		net.Add(det)
	}
	for _, e := range g.edges {
		net.Connect(e[0], e[1])
	}
	for _, id := range g.nodes {
		net.Observe(id, 0, []float64{r.Float64() * 100, r.Float64() * 100})
		net.Observe(id, 8*time.Second, []float64{r.Float64() * 100, r.Float64() * 100})
	}
	if _, err := net.Settle(100000); err != nil {
		t.Fatal(err)
	}
	net.AdvanceTo(15 * time.Second)
	if _, err := net.Settle(100000); err != nil {
		t.Fatal(err)
	}
	for _, id := range net.Nodes() {
		net.Detector(id).Holdings().ForEach(func(p Point) {
			if p.Birth < 5*time.Second {
				t.Errorf("node %d holds expired point %v", id, p.ID)
			}
		})
	}
	checkSemiGlobal(t, net, NN(), d, 2, "after eviction")
}
