package core

import (
	"testing"
	"time"
)

func TestConfigValidate(t *testing.T) {
	valid := Config{Node: 1, Ranker: NN(), N: 1}
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{name: "valid", mutate: func(*Config) {}, ok: true},
		{name: "nil ranker", mutate: func(c *Config) { c.Ranker = nil }},
		{name: "zero n", mutate: func(c *Config) { c.N = 0 }},
		{name: "negative n", mutate: func(c *Config) { c.N = -3 }},
		{name: "negative hop limit", mutate: func(c *Config) { c.HopLimit = -1 }},
		{name: "huge hop limit", mutate: func(c *Config) { c.HopLimit = 400 }},
		{name: "negative window", mutate: func(c *Config) { c.Window = -time.Second }},
		{name: "semi-global ok", mutate: func(c *Config) { c.HopLimit = 3 }, ok: true},
		{name: "window ok", mutate: func(c *Config) { c.Window = time.Minute }, ok: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := valid
			tt.mutate(&cfg)
			_, err := NewDetector(cfg)
			if (err == nil) != tt.ok {
				t.Fatalf("NewDetector err = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

// example51Data builds the datasets of the paper's §5.1 worked example:
// D_i = {0.5, 3, 6, 10, 11, ..., a}, D_j = {4, 5, 7, 8, 9, a+1, ..., a+b}.
func example51Data(a, b int) (di, dj [][]float64) {
	di = [][]float64{{0.5}, {3}, {6}}
	for v := 10; v <= a; v++ {
		di = append(di, []float64{float64(v)})
	}
	dj = [][]float64{{4}, {5}, {7}, {8}, {9}}
	for v := a + 1; v <= a+b; v++ {
		dj = append(dj, []float64{float64(v)})
	}
	return di, dj
}

// TestExample51SequentialTrace replays §5.1 with the paper's synchronous
// schedule "starting with p_i": p_i reacts, p_j responds, and so on until
// nothing is sent. Exactly 4 points must cross the link in total, both
// sensors must estimate {0.5}, and both must agree on the support {3} —
// against a centralization cost of min{a−6, b+5}.
func TestExample51SequentialTrace(t *testing.T) {
	const (
		a = 20
		b = 5
	)
	di, dj := example51Data(a, b)
	pi, err := NewDetector(Config{Node: 1, Ranker: NN(), N: 1})
	if err != nil {
		t.Fatal(err)
	}
	pj, err := NewDetector(Config{Node: 2, Ranker: NN(), N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, out := observe(pi, 0, di...); out != nil {
		t.Fatal("no neighbors yet: nothing to send")
	}
	if _, out := observe(pj, 0, dj...); out != nil {
		t.Fatal("no neighbors yet: nothing to send")
	}

	totalSent := 0
	out := pi.AddNeighbor(2) // the initialization event, starting with p_i
	for step := 0; out != nil; step++ {
		if step > 100 {
			t.Fatal("exchange did not quiesce")
		}
		totalSent += out.PointCount()
		if out.From == pi.Node() {
			out = receive(pj, 1, out.For(2))
		} else {
			out = receive(pi, 2, out.For(1))
		}
	}

	if totalSent != 4 {
		t.Errorf("points sent = %d, want the paper's 4", totalSent)
	}
	if central := min(a-6, b+5); totalSent >= central {
		t.Errorf("distributed cost %d not below centralized %d", totalSent, central)
	}
	for _, det := range []*Detector{pi, pj} {
		est := det.Estimate()
		if len(est) != 1 || est[0].Value[0] != 0.5 {
			t.Fatalf("node %d estimate %v, want {0.5}", det.Node(), idList(est))
		}
		sup := SupportOf(NN(), det.Holdings(), est)
		if sup.Len() != 1 || sup.Points()[0].Value[0] != 3 {
			t.Fatalf("node %d support %v, want {3}", det.Node(), sup)
		}
	}
}

// TestExample51Concurrent runs the same datasets through the concurrent
// SyncNetwork schedule: the trace differs but the outcome (and the
// communication advantage over centralization) must not.
func TestExample51Concurrent(t *testing.T) {
	const (
		a = 20
		b = 5
	)
	di, dj := example51Data(a, b)
	net := NewSyncNetwork()
	for id := NodeID(1); id <= 2; id++ {
		det, err := NewDetector(Config{Node: id, Ranker: NN(), N: 1})
		if err != nil {
			t.Fatal(err)
		}
		net.Add(det)
	}
	net.Observe(1, 0, di...)
	net.Observe(2, 0, dj...)
	net.Connect(1, 2)
	if _, err := net.Settle(1000); err != nil {
		t.Fatal(err)
	}

	want := net.GlobalOutliers(NN(), 1)
	if len(want) != 1 || want[0].Value[0] != 0.5 {
		t.Fatalf("ground truth = %v, want {0.5}", idList(want))
	}
	for _, id := range net.Nodes() {
		if got := net.Detector(id).Estimate(); !sameIDs(got, want) {
			t.Fatalf("node %d estimate %v, want %v", id, idList(got), idList(want))
		}
	}
	if central := min(a-6, b+5); net.PointsSent() >= central {
		t.Errorf("distributed cost %d not below centralized %d", net.PointsSent(), central)
	}
}

// TestGlobalConvergence is the paper's Theorems 1 and 2 checked
// empirically: on random connected topologies with random data, once the
// network is quiescent every sensor's estimate equals On(D) and all
// supports agree.
func TestGlobalConvergence(t *testing.T) {
	rankers := []Ranker{NN(), KNN{K: 4}, KthNN{K: 2}, CountWithin{Alpha: 25}}
	for _, rk := range rankers {
		rk := rk
		t.Run(rk.Name(), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 6; seed++ {
				r := rng(seed)
				g := randConnectedGraph(r, 4+r.IntN(10), r.IntN(6))
				net := buildNetwork(t, r, g, Config{Ranker: rk, N: 3}, 6)

				want := net.GlobalOutliers(rk, 3)
				var refSupport *Set
				for _, id := range net.Nodes() {
					det := net.Detector(id)
					got := det.Estimate()
					if !sameIDs(got, want) {
						t.Fatalf("seed %d node %d: estimate %v, want %v",
							seed, id, idList(got), idList(want))
					}
					sup := SupportOf(rk, det.Holdings(), got)
					if refSupport == nil {
						refSupport = sup
					} else if !refSupport.EqualIDs(sup) {
						t.Fatalf("seed %d node %d: support %v, want %v (Theorem 1ii)",
							seed, id, sup, refSupport)
					}
				}
			}
		})
	}
}

// TestGlobalDynamicUpdate feeds new data after convergence — including a
// new extreme outlier — and checks the network re-converges correctly
// (paper: "seamlessly accommodates dynamic updates to data").
func TestGlobalDynamicUpdate(t *testing.T) {
	r := rng(7)
	g := randConnectedGraph(r, 8, 4)
	cfg := Config{Ranker: NN(), N: 2}
	net := buildNetwork(t, r, g, cfg, 5)

	// A wild outlier appears at the node farthest from node 1.
	net.Observe(g.nodes[len(g.nodes)-1], time.Second, []float64{10_000, 10_000})
	if _, err := net.Settle(100000); err != nil {
		t.Fatal(err)
	}
	want := net.GlobalOutliers(NN(), 2)
	found := false
	for _, p := range want {
		if p.Value[0] == 10_000 {
			found = true
		}
	}
	if !found {
		t.Fatal("injected point must be a global outlier")
	}
	for _, id := range net.Nodes() {
		if got := net.Detector(id).Estimate(); !sameIDs(got, want) {
			t.Fatalf("node %d estimate %v, want %v", id, idList(got), idList(want))
		}
	}
}

// TestSlidingWindowEviction ages points out and checks estimates follow
// the surviving data (§5.3).
func TestSlidingWindowEviction(t *testing.T) {
	r := rng(11)
	g := randConnectedGraph(r, 6, 3)
	cfg := Config{Ranker: NN(), N: 2, Window: 10 * time.Second}
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
	// Old cohort at t=0 including a screaming outlier, fresh cohort at t=8.
	net.Observe(g.nodes[0], 0, []float64{9_999, 9_999})
	for _, id := range g.nodes {
		net.Observe(id, 0, []float64{r.Float64() * 10, r.Float64() * 10})
		net.Observe(id, 8*time.Second, []float64{50 + r.Float64()*10, 50 + r.Float64()*10})
	}
	if _, err := net.Settle(100000); err != nil {
		t.Fatal(err)
	}

	// Advance past the old cohort's expiry: only t=8 points survive.
	net.AdvanceTo(12 * time.Second)
	if _, err := net.Settle(100000); err != nil {
		t.Fatal(err)
	}
	want := net.GlobalOutliers(NN(), 2)
	for _, p := range want {
		if p.Birth != 8*time.Second {
			t.Fatalf("ground truth contains expired point %v", p)
		}
	}
	for _, id := range net.Nodes() {
		det := net.Detector(id)
		det.Holdings().ForEach(func(p Point) {
			if p.Birth < 2*time.Second {
				t.Errorf("node %d still holds expired point %v", id, p)
			}
		})
		if got := det.Estimate(); !sameIDs(got, want) {
			t.Fatalf("node %d estimate %v, want %v", id, idList(got), idList(want))
		}
	}
}

// TestNodeAddition attaches a new sensor to a converged network (§5.3:
// arrival is just a link-up event) and checks global re-convergence.
func TestNodeAddition(t *testing.T) {
	r := rng(13)
	g := randConnectedGraph(r, 6, 2)
	cfg := Config{Ranker: NN(), N: 2}
	net := buildNetwork(t, r, g, cfg, 5)

	c := cfg
	c.Node = 100
	det, err := NewDetector(c)
	if err != nil {
		t.Fatal(err)
	}
	net.Add(det)
	net.Connect(100, g.nodes[0])
	for s := 0; s < 5; s++ {
		net.Observe(100, 0, []float64{-50 - r.Float64()*10, -50 - r.Float64()*10})
	}
	if _, err := net.Settle(100000); err != nil {
		t.Fatal(err)
	}
	want := net.GlobalOutliers(NN(), 2)
	for _, id := range net.Nodes() {
		if got := net.Detector(id).Estimate(); !sameIDs(got, want) {
			t.Fatalf("node %d estimate %v, want %v", id, idList(got), idList(want))
		}
	}
}

// TestLinkChurn removes one cycle edge (the graph stays connected via the
// spanning tree) and adds a new edge; the network must stay correct.
func TestLinkChurn(t *testing.T) {
	r := rng(17)
	g := randConnectedGraph(r, 8, 5)
	cfg := Config{Ranker: NN(), N: 2}
	net := buildNetwork(t, r, g, cfg, 4)

	// Edges beyond the spanning tree (the first n-1) are removable.
	if len(g.edges) > len(g.nodes)-1 {
		e := g.edges[len(g.edges)-1]
		net.Disconnect(e[0], e[1])
	}
	net.Connect(g.nodes[0], g.nodes[len(g.nodes)-1])
	net.Observe(g.nodes[2], time.Second, []float64{777, 777})
	if _, err := net.Settle(100000); err != nil {
		t.Fatal(err)
	}
	want := net.GlobalOutliers(NN(), 2)
	for _, id := range net.Nodes() {
		if got := net.Detector(id).Estimate(); !sameIDs(got, want) {
			t.Fatalf("node %d estimate %v, want %v", id, idList(got), idList(want))
		}
	}
}

func TestObserveAssignsSequences(t *testing.T) {
	det, err := NewDetector(Config{Node: 1, Ranker: NN(), N: 1})
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := observe(det, 0, []float64{1})
	p2, _ := observe(det, 0, []float64{2})
	if p1[0].ID.Seq == p2[0].ID.Seq {
		t.Fatal("observations must get distinct sequence numbers")
	}
	// Assigned sequence numbers advance the counter past their own.
	det.StepObserveBatch(0, []Observation{{Value: []float64{3}, Seq: 50, Assigned: true}})
	p3, _ := observe(det, 0, []float64{4})
	if p3[0].ID.Seq <= 50 {
		t.Fatalf("sequence %d not advanced past explicit 50", p3[0].ID.Seq)
	}
}

func TestDetectorStats(t *testing.T) {
	det, err := NewDetector(Config{Node: 1, Ranker: NN(), N: 1})
	if err != nil {
		t.Fatal(err)
	}
	det.AddNeighbor(2)
	_, out := observe(det, 0, []float64{1})
	_, out2 := observe(det, 0, []float64{100})
	st := det.Stats()
	if st.Events != 3 {
		t.Errorf("Events = %d, want 3", st.Events)
	}
	sent := out.PointCount() + out2.PointCount()
	if st.PointsSent != sent || sent == 0 {
		t.Errorf("PointsSent = %d, packets carried %d", st.PointsSent, sent)
	}
	receive(det, 2, []Point{NewPoint(2, 0, 0, 55)})
	if got := det.Stats().PointsReceived; got != 1 {
		t.Errorf("PointsReceived = %d, want 1", got)
	}
}

func TestReceiveFromUnknownNeighborEstablishesLink(t *testing.T) {
	det, err := NewDetector(Config{Node: 1, Ranker: NN(), N: 1})
	if err != nil {
		t.Fatal(err)
	}
	receive(det, 9, []Point{NewPoint(9, 0, 0, 1)})
	found := false
	for _, id := range det.Neighbors() {
		if id == 9 {
			found = true
		}
	}
	if !found {
		t.Fatal("sender of a received packet must become a neighbor")
	}
}

func TestAddRemoveNeighborIdempotent(t *testing.T) {
	det, err := NewDetector(Config{Node: 1, Ranker: NN(), N: 1})
	if err != nil {
		t.Fatal(err)
	}
	det.AddNeighbor(2)
	if out := det.AddNeighbor(2); out != nil {
		t.Fatal("re-adding a neighbor must be a no-op")
	}
	det.RemoveNeighbor(2)
	if out := det.RemoveNeighbor(2); out != nil {
		t.Fatal("re-removing a neighbor must be a no-op")
	}
	if len(det.Neighbors()) != 0 {
		t.Fatal("neighbor not removed")
	}
}

// TestQuiescenceIsStable verifies that after convergence, re-delivering
// a data-less clock tick produces no further traffic.
func TestQuiescenceIsStable(t *testing.T) {
	r := rng(23)
	g := randConnectedGraph(r, 5, 2)
	net := buildNetwork(t, r, g, Config{Ranker: NN(), N: 2}, 4)
	sent := net.PointsSent()
	net.AdvanceTo(time.Hour) // no window configured: nothing evicts
	if _, err := net.Settle(10); err != nil {
		t.Fatal(err)
	}
	if net.PointsSent() != sent {
		t.Fatal("clock advance without eviction must not cause traffic")
	}
}
