package core

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

// rng returns a deterministic PRNG for the given seed.
func rng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// observe has d sample one point per feature vector, all born at birth,
// as one data-change event at the detector's current clock — what
// SyncNetwork.Observe does for a networked detector.
func observe(d *Detector, birth time.Duration, values ...[]float64) ([]Point, *Outbound) {
	return d.StepObserveBatch(d.Now(), observations(birth, values))
}

// receive delivers one packet's points from neighbor from as a run of one
// receipt — what SyncNetwork does for each delivery.
func receive(d *Detector, from NodeID, pts []Point) *Outbound {
	return d.ReceiveBatch([]Receipt{{From: from, Points: pts}})
}

// readings turns points sampled by a detector's own sensor into the
// observations StepObserveBatch takes, each keeping its sequence number.
func readings(pts ...Point) []Observation {
	obs := make([]Observation, len(pts))
	for i, p := range pts {
		obs[i] = Observation{Birth: p.Birth, Value: p.Value, Seq: p.ID.Seq, Assigned: true}
	}
	return obs
}

// randPoint builds a point with a random feature vector of the given
// dimension, coordinates uniform in [0, span).
func randPoint(r *rand.Rand, origin NodeID, seq uint32, dim int, span float64) Point {
	vals := make([]float64, dim)
	for i := range vals {
		vals[i] = r.Float64() * span
	}
	return NewPoint(origin, seq, 0, vals...)
}

// randPoints builds count random points originating at the given node.
func randPoints(r *rand.Rand, origin NodeID, count, dim int, span float64) []Point {
	pts := make([]Point, count)
	for i := range pts {
		pts[i] = randPoint(r, origin, uint32(i), dim, span)
	}
	return pts
}

// naiveTopN is an independent reimplementation of On(D): rank every point
// against the rest with a full sort. Used as ground truth for TopN.
func naiveTopN(r Ranker, set *Set, n int) []Point {
	pts := set.Points()
	type ranked struct {
		p    Point
		rank float64
	}
	all := make([]ranked, 0, len(pts))
	for _, x := range pts {
		var others []Point
		for _, p := range pts {
			if p.ID != x.ID {
				others = append(others, p)
			}
		}
		all = append(all, ranked{p: x, rank: r.Rank(x, others)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].rank != all[j].rank {
			return all[i].rank > all[j].rank
		}
		return Less(all[i].p, all[j].p)
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]Point, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].p
	}
	return out
}

// sameIDs reports whether two point slices carry the same IDs in the same
// order.
func sameIDs(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// idList formats point IDs for test failure messages.
func idList(pts []Point) string {
	ids := make([]string, len(pts))
	for i, p := range pts {
		ids[i] = p.ID.String()
	}
	return fmt.Sprint(ids)
}

// geomGraph describes a randomly generated connected topology.
type geomGraph struct {
	nodes []NodeID
	edges [][2]NodeID
}

// randConnectedGraph generates a connected graph over n nodes: a random
// spanning tree plus extra random edges for cycles.
func randConnectedGraph(r *rand.Rand, n, extraEdges int) geomGraph {
	g := geomGraph{nodes: make([]NodeID, n)}
	for i := range g.nodes {
		g.nodes[i] = NodeID(i + 1)
	}
	seen := make(map[[2]NodeID]bool)
	addEdge := func(a, b NodeID) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		key := [2]NodeID{a, b}
		if seen[key] {
			return
		}
		seen[key] = true
		g.edges = append(g.edges, key)
	}
	for i := 1; i < n; i++ {
		addEdge(g.nodes[i], g.nodes[r.IntN(i)])
	}
	for i := 0; i < extraEdges; i++ {
		addEdge(g.nodes[r.IntN(n)], g.nodes[r.IntN(n)])
	}
	return g
}

// buildNetwork assembles a SyncNetwork over the graph with one detector
// per node and ptsPerNode random 2-d observations each, then settles it.
func buildNetwork(t *testing.T, r *rand.Rand, g geomGraph, cfg Config, ptsPerNode int) *SyncNetwork {
	t.Helper()
	net := NewSyncNetwork()
	for _, id := range g.nodes {
		c := cfg
		c.Node = id
		det, err := NewDetector(c)
		if err != nil {
			t.Fatalf("NewDetector(%d): %v", id, err)
		}
		net.Add(det)
	}
	for _, e := range g.edges {
		net.Connect(e[0], e[1])
	}
	for _, id := range g.nodes {
		for s := 0; s < ptsPerNode; s++ {
			net.Observe(id, time.Duration(s)*time.Second, []float64{r.Float64() * 100, r.Float64() * 100})
		}
	}
	if _, err := net.Settle(100000); err != nil {
		t.Fatalf("settle: %v", err)
	}
	return net
}
