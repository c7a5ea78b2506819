package core_test

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"innet/internal/baseline"
	"innet/internal/core"
)

// coalescingNet delivers what detectors broadcast the way the live fleet
// does: each tagged group queues in its recipient's FIFO inbox, and a
// seeded scheduler picks a sensor with mail and hands it a random-length
// prefix of its queue as one ReceiveBatch — one reaction per run.
type coalescingNet struct {
	r     *rand.Rand // the schedule
	data  *rand.Rand // the readings
	dets  map[core.NodeID]*core.Detector
	ids   []core.NodeID
	adj   map[core.NodeID]map[core.NodeID]bool
	inbox map[core.NodeID][]core.Receipt

	single   bool // runs of one receipt: the event-at-a-time schedule
	longRuns int  // runs of more than one receipt delivered
}

func newCoalescingNet(t *testing.T, seed uint64, cfg core.Config, nodes int, edges [][2]core.NodeID) *coalescingNet {
	t.Helper()
	n := &coalescingNet{
		r:     rand.New(rand.NewPCG(seed, seed^0x5eed)),
		data:  rand.New(rand.NewPCG(seed, 0xda7a)),
		dets:  make(map[core.NodeID]*core.Detector),
		adj:   make(map[core.NodeID]map[core.NodeID]bool),
		inbox: make(map[core.NodeID][]core.Receipt),
	}
	for i := 1; i <= nodes; i++ {
		c := cfg
		c.Node = core.NodeID(i)
		det, err := core.NewDetector(c)
		if err != nil {
			t.Fatal(err)
		}
		n.dets[c.Node] = det
		n.ids = append(n.ids, c.Node)
		n.adj[c.Node] = make(map[core.NodeID]bool)
	}
	for _, e := range edges {
		n.adj[e[0]][e[1]], n.adj[e[1]][e[0]] = true, true
		n.send(n.dets[e[0]].AddNeighbor(e[1]))
		n.send(n.dets[e[1]].AddNeighbor(e[0]))
	}
	return n
}

func (n *coalescingNet) send(out *core.Outbound) {
	if out == nil {
		return
	}
	for _, g := range out.Groups {
		if n.adj[out.From][g.To] {
			n.inbox[g.To] = append(n.inbox[g.To], core.Receipt{From: out.From, Points: g.Points})
		}
	}
}

// observe has every sensor sample k random 2-d readings at clock at, as
// one data event each.
func (n *coalescingNet) observe(at time.Duration, k int) {
	for _, id := range n.ids {
		obs := make([]core.Observation, k)
		for i := range obs {
			obs[i] = core.Observation{Birth: at, Value: []float64{n.data.Float64() * 100, n.data.Float64() * 100}}
		}
		_, out := n.dets[id].StepObserveBatch(at, obs)
		n.send(out)
	}
}

// step delivers one run, if any sensor has mail, and reports whether it
// did.
func (n *coalescingNet) step() bool {
	var ready []core.NodeID
	for _, id := range n.ids {
		if len(n.inbox[id]) > 0 {
			ready = append(ready, id)
		}
	}
	if len(ready) == 0 {
		return false
	}
	id := ready[n.r.IntN(len(ready))]
	q := n.inbox[id]
	k := 1 + n.r.IntN(len(q))
	if n.single {
		k = 1
	}
	n.inbox[id] = q[k:]
	if k > 1 {
		n.longRuns++
	}
	n.send(n.dets[id].ReceiveBatch(q[:k]))
	return true
}

func (n *coalescingNet) settle(t *testing.T) {
	t.Helper()
	for budget := 1 << 20; n.step(); budget-- {
		if budget == 0 {
			t.Fatal("network did not go quiescent")
		}
	}
}

// hopsFrom is the hop distance from id to every sensor (BFS).
func (n *coalescingNet) hopsFrom(id core.NodeID) map[core.NodeID]int {
	dist := map[core.NodeID]int{id: 0}
	for frontier := []core.NodeID{id}; len(frontier) > 0; {
		var next []core.NodeID
		for _, a := range frontier {
			for b := range n.adj[a] {
				if _, seen := dist[b]; !seen {
					dist[b] = dist[a] + 1
					next = append(next, b)
				}
			}
		}
		frontier = next
	}
	return dist
}

// exact reports whether id's estimate is baseline.Compute over the own
// points of every sensor within hops of it (every sensor when hops is 0):
// On(∪P), or On(D≤hops).
func (n *coalescingNet) exact(rk core.Ranker, topN int, id core.NodeID, hops int) bool {
	var windows [][]core.Point
	for j, d := range n.hopsFrom(id) {
		if hops == 0 || d <= hops {
			windows = append(windows, n.dets[j].OwnPoints().Points())
		}
	}
	return sameIDs(n.dets[id].Estimate(), baseline.Compute(rk, topN, windows...))
}

func sameIDs(a, b []core.Point) bool {
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

func idsOf(pts []core.Point) []string {
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = p.ID.String()
	}
	return out
}

func cliqueEdges(nodes int) [][2]core.NodeID {
	var edges [][2]core.NodeID
	for a := 1; a <= nodes; a++ {
		for b := a + 1; b <= nodes; b++ {
			edges = append(edges, [2]core.NodeID{core.NodeID(a), core.NodeID(b)})
		}
	}
	return edges
}

// gridEdges links each sensor of a side×side grid to its right and lower
// neighbours.
func gridEdges(side int) [][2]core.NodeID {
	var edges [][2]core.NodeID
	id := func(r, c int) core.NodeID { return core.NodeID(r*side + c + 1) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				edges = append(edges, [2]core.NodeID{id(r, c), id(r, c+1)})
			}
			if r+1 < side {
				edges = append(edges, [2]core.NodeID{id(r, c), id(r+1, c)})
			}
		}
	}
	return edges
}

// randomEdges is a random spanning tree over nodes sensors plus extra
// random edges (duplicates and self-loops skipped).
func randomEdges(seed uint64, nodes, extra int) [][2]core.NodeID {
	r := rand.New(rand.NewPCG(seed, 7))
	seen := make(map[[2]core.NodeID]bool)
	var edges [][2]core.NodeID
	add := func(a, b int) {
		if a == b {
			return
		}
		e := [2]core.NodeID{core.NodeID(min(a, b)), core.NodeID(max(a, b))}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	for i := 2; i <= nodes; i++ {
		add(i, 1+r.IntN(i-1))
	}
	for i := 0; i < extra; i++ {
		add(1+r.IntN(nodes), 1+r.IntN(nodes))
	}
	return edges
}

// TestReceiveBatchConverges holds the claim the live fleet's coalescing
// rests on (DESIGN.md § "One mailbox, one counter"): however a sensor's
// queued receipts are cut into runs, each answered by one reaction, the
// network still settles, and under Algorithm 1 every estimate is On(∪P)
// at quiescence. A data event lands on every sensor while the first
// wave is still in flight, so runs interleave with own readings too.
//
// Algorithm 2 (HopLimit 2) has no exactness theorem. Its rows assert
// settling and the hop bound everywhere, and TestSemiGlobalRandom's 0.80
// accuracy floor against On(D≤2) on the clique. On the grid and the
// random graph Algorithm 2 misses that floor with one receipt per
// reaction too (SyncNetwork included), and fewer reactions send fewer
// of the points it leans on, so those rows log the share of exact
// sensors beside the event-at-a-time schedule's on the same data rather
// than floor it (DESIGN.md records the gap).
func TestReceiveBatchConverges(t *testing.T) {
	const topN, seeds, floor = 3, 6, 0.80
	graphs := []struct {
		name  string
		nodes int
		edges func(seed uint64) [][2]core.NodeID
	}{
		{"clique", 8, func(uint64) [][2]core.NodeID { return cliqueEdges(8) }},
		{"grid", 9, func(uint64) [][2]core.NodeID { return gridEdges(3) }},
		{"random", 10, func(seed uint64) [][2]core.NodeID { return randomEdges(seed, 10, 4) }},
	}
	for _, g := range graphs {
		for _, rk := range []core.Ranker{core.NN(), core.KNN{K: 2}} {
			for _, hops := range []int{0, 2} {
				t.Run(fmt.Sprintf("%s_%s_hops%d", g.name, rk.Name(), hops), func(t *testing.T) {
					// run settles one network and returns its count of
					// exact sensors and of runs longer than one receipt.
					run := func(seed uint64, single bool) (exact, longRuns int) {
						n := newCoalescingNet(t, seed, core.Config{Ranker: rk, N: topN, HopLimit: hops}, g.nodes, g.edges(seed))
						n.single = single
						n.observe(0, 4)
						for i := 0; i < 3*g.nodes; i++ { // part of the first wave only
							n.step()
						}
						n.observe(time.Second, 2)
						n.settle(t)
						for _, id := range n.ids {
							if n.exact(rk, topN, id, hops) {
								exact++
							} else if hops == 0 {
								t.Errorf("seed %d: node %d estimate %v is not On(∪P)", seed, id, idsOf(n.dets[id].Estimate()))
							}
							if hops == 0 {
								continue
							}
							dist := n.hopsFrom(id)
							n.dets[id].Holdings().ForEach(func(p core.Point) {
								if int(p.Hop) > hops || int(p.Hop) < dist[p.ID.Origin] {
									t.Errorf("seed %d: node %d holds %v at hop %d, %d hops from its origin", seed, id, p.ID, p.Hop, dist[p.ID.Origin])
								}
							})
						}
						return exact, n.longRuns
					}
					exact, single, longRuns := 0, 0, 0
					for seed := uint64(1); seed <= seeds; seed++ {
						e, l := run(seed, false)
						exact, longRuns = exact+e, longRuns+l
						if hops > 0 && g.name != "clique" {
							e, _ := run(seed, true)
							single += e
						}
					}
					if longRuns == 0 {
						t.Fatal("no run held more than one receipt: the batch path went untested")
					}
					acc := float64(exact) / float64(seeds*g.nodes)
					switch {
					case hops == 0: // every sensor was held to On(∪P) above
					case g.name == "clique":
						if acc < floor {
							t.Fatalf("accuracy %.3f below floor %.2f", acc, floor)
						}
					default:
						t.Logf("exact share %.3f coalesced, %.3f one receipt per reaction", acc, float64(single)/float64(seeds*g.nodes))
					}
				})
			}
		}
	}
}
