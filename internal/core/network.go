package core

import (
	"fmt"
	"sort"
	"time"
)

// SyncNetwork wires a set of detectors into an undirected communication
// graph with synchronous, lossless, in-order message delivery. It is the
// reference runtime for the algorithm: the discrete-event simulator
// (internal/wsn) and the goroutine runtime (internal/peer) reproduce the
// same behaviour over lossy asynchronous media. SyncNetwork is used for
// correctness tests, for ground-truth computation, and for API examples;
// it deliberately models no radio, energy, or loss.
type SyncNetwork struct {
	detectors map[NodeID]*Detector
	adj       map[NodeID]map[NodeID]bool
	inbox     map[NodeID][]Receipt

	pointsSent int
	broadcasts int
}

// NewSyncNetwork returns an empty network.
func NewSyncNetwork() *SyncNetwork {
	return &SyncNetwork{
		detectors: make(map[NodeID]*Detector),
		adj:       make(map[NodeID]map[NodeID]bool),
		inbox:     make(map[NodeID][]Receipt),
	}
}

// Add registers a detector. Adding two detectors with the same node ID is
// a programming error and panics.
func (n *SyncNetwork) Add(d *Detector) {
	id := d.Node()
	if _, dup := n.detectors[id]; dup {
		panic(fmt.Sprintf("core: duplicate node %d", id))
	}
	n.detectors[id] = d
	n.adj[id] = make(map[NodeID]bool)
}

// Detector returns the detector registered for id, or nil.
func (n *SyncNetwork) Detector(id NodeID) *Detector { return n.detectors[id] }

// Nodes returns the registered node IDs, sorted.
func (n *SyncNetwork) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(n.detectors))
	for id := range n.detectors {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Connect establishes the undirected link a—b, delivering the link-up
// event to both detectors and queueing anything they decide to send.
func (n *SyncNetwork) Connect(a, b NodeID) {
	if a == b {
		panic("core: self link")
	}
	n.mustHave(a)
	n.mustHave(b)
	n.adj[a][b] = true
	n.adj[b][a] = true
	n.enqueue(n.detectors[a].AddNeighbor(b))
	n.enqueue(n.detectors[b].AddNeighbor(a))
}

// Disconnect removes the undirected link a—b and delivers the link-down
// event to both ends.
func (n *SyncNetwork) Disconnect(a, b NodeID) {
	n.mustHave(a)
	n.mustHave(b)
	delete(n.adj[a], b)
	delete(n.adj[b], a)
	n.enqueue(n.detectors[a].RemoveNeighbor(b))
	n.enqueue(n.detectors[b].RemoveNeighbor(a))
}

func (n *SyncNetwork) mustHave(id NodeID) {
	if _, ok := n.detectors[id]; !ok {
		panic(fmt.Sprintf("core: unknown node %d", id))
	}
}

// Observe has the given sensor sample one point per feature vector, all
// born at birth, as a single data-change event
// (Detector.StepObserveBatch), and queues the resulting traffic. The
// detector's clock stays where it is: only AdvanceTo moves it.
func (n *SyncNetwork) Observe(id NodeID, birth time.Duration, values ...[]float64) []Point {
	n.mustHave(id)
	d := n.detectors[id]
	pts, out := d.StepObserveBatch(d.Now(), observations(birth, values))
	n.enqueue(out)
	return pts
}

// observations stamps one unassigned reading per feature vector with the
// same birth.
func observations(birth time.Duration, values [][]float64) []Observation {
	obs := make([]Observation, len(values))
	for i, v := range values {
		obs[i] = Observation{Birth: birth, Value: v}
	}
	return obs
}

// AdvanceTo moves every detector's clock, triggering sliding-window
// evictions, and queues the resulting traffic.
func (n *SyncNetwork) AdvanceTo(now time.Duration) {
	for _, id := range n.Nodes() {
		_, out := n.detectors[id].StepObserveBatch(now, nil)
		n.enqueue(out)
	}
}

// enqueue routes a broadcast packet: each tagged group reaches its
// recipient iff the link still exists.
func (n *SyncNetwork) enqueue(out *Outbound) {
	if out == nil {
		return
	}
	n.broadcasts++
	for _, g := range out.Groups {
		n.pointsSent += len(g.Points)
		if n.adj[out.From][g.To] {
			n.inbox[g.To] = append(n.inbox[g.To], Receipt{From: out.From, Points: g.Points})
		}
	}
}

// Settle delivers queued messages in deterministic rounds until the
// network is quiescent (no messages in flight), returning the number of
// delivery rounds taken. It stops with an error after maxRounds rounds,
// which guards tests against non-termination bugs.
func (n *SyncNetwork) Settle(maxRounds int) (int, error) {
	for round := 1; ; round++ {
		if round > maxRounds {
			return round - 1, fmt.Errorf("core: network not quiescent after %d rounds", maxRounds)
		}
		pending := n.inbox
		n.inbox = make(map[NodeID][]Receipt)
		if len(pending) == 0 {
			return round - 1, nil
		}
		ids := make([]NodeID, 0, len(pending))
		for id := range pending {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			det, rs := n.detectors[id], pending[id]
			for i := range rs {
				n.enqueue(det.ReceiveBatch(rs[i : i+1]))
			}
		}
	}
}

// Quiescent reports whether no messages are in flight.
func (n *SyncNetwork) Quiescent() bool { return len(n.inbox) == 0 }

// PointsSent returns the cumulative number of (recipient, point) pairs
// transmitted, the paper's communication-load measure.
func (n *SyncNetwork) PointsSent() int { return n.pointsSent }

// Broadcasts returns the cumulative number of non-empty packets sent.
func (n *SyncNetwork) Broadcasts() int { return n.broadcasts }

// Union returns ∪_i D_i, the global dataset D.
func (n *SyncNetwork) Union() *Set {
	u := NewSet()
	for _, d := range n.detectors {
		d.OwnPoints().ForEach(func(p Point) { u.AddMinHop(p) })
	}
	return u
}

// GlobalOutliers returns the correct global answer On(D) computed
// centrally with the given ranker, for use as ground truth.
func (n *SyncNetwork) GlobalOutliers(r Ranker, topN int) []Point {
	return TopN(r, n.Union(), topN)
}

// HopDistances returns the hop distance from src to every reachable node
// (BFS over the current links). Unreachable nodes are absent.
func (n *SyncNetwork) HopDistances(src NodeID) map[NodeID]int {
	n.mustHave(src)
	dist := map[NodeID]int{src: 0}
	frontier := []NodeID{src}
	for len(frontier) > 0 {
		var next []NodeID
		for _, u := range frontier {
			nbrs := make([]NodeID, 0, len(n.adj[u]))
			for v := range n.adj[u] {
				nbrs = append(nbrs, v)
			}
			sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
			for _, v := range nbrs {
				if _, seen := dist[v]; !seen {
					dist[v] = dist[u] + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist
}

// WithinHops returns D≤d for the given sensor: the union of the own-point
// sets of every sensor within d hops (including the sensor itself).
func (n *SyncNetwork) WithinHops(id NodeID, d int) *Set {
	dist := n.HopDistances(id)
	u := NewSet()
	for other, h := range dist {
		if h <= d {
			n.detectors[other].OwnPoints().ForEach(func(p Point) { u.AddMinHop(p) })
		}
	}
	return u
}

// SemiGlobalOutliers returns the correct semi-global answer On(D≤d) for
// the given sensor, computed centrally for use as ground truth. The hop
// fields of the returned points are zeroed since ranks ignore them.
func (n *SyncNetwork) SemiGlobalOutliers(r Ranker, id NodeID, d, topN int) []Point {
	return TopN(r, n.WithinHops(id, d), topN)
}

// Connected reports whether the current link graph is connected over all
// registered nodes (vacuously true for zero or one node).
func (n *SyncNetwork) Connected() bool {
	ids := n.Nodes()
	if len(ids) <= 1 {
		return true
	}
	return len(n.HopDistances(ids[0])) == len(ids)
}
