package protocol

import (
	"testing"
	"time"

	"innet/internal/core"
	"innet/internal/dataset"
	"innet/internal/wsn"
)

// testbed assembles a small simulated network running the distributed
// protocol over a generated stream.
func testbed(t *testing.T, nodes int, detCfg core.Config, simCfg wsn.Config) (*wsn.Sim, *dataset.Stream, *wsn.Topology, map[core.NodeID]*App) {
	t.Helper()
	stream, err := dataset.Generate(dataset.Config{
		Nodes:    nodes,
		Seed:     3,
		Period:   10 * time.Second,
		Duration: 100 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	topo := wsn.NewTopology(stream.Positions(), wsn.DefaultRadio().Range)
	if !topo.Connected() {
		t.Fatal("testbed topology disconnected")
	}
	sim := wsn.NewSim(simCfg)
	apps := make(map[core.NodeID]*App, nodes)
	for _, id := range topo.Nodes() {
		app, err := New(id, Config{
			Detector: detCfg,
			Stream:   stream,
			Topology: topo,
		})
		if err != nil {
			t.Fatal(err)
		}
		apps[id] = app
		sim.AddNode(id, stream.Positions()[id], app)
	}
	return sim, stream, topo, apps
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, Config{}); err == nil {
		t.Fatal("missing stream/topology must fail")
	}
	stream, err := dataset.Generate(dataset.Config{Nodes: 2, Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	topo := wsn.NewTopology(stream.Positions(), 100)
	if _, err := New(1, Config{Stream: stream, Topology: topo}); err == nil {
		t.Fatal("invalid detector config must fail")
	}
	if _, err := New(1, Config{
		Detector: core.Config{Ranker: core.NN(), N: 1},
		Stream:   stream,
		Topology: topo,
	}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestConvergesOverRadio runs the full stack — detector, ARQ, CSMA radio —
// and checks every sensor converges to the true global outliers by the
// end of each late round.
func TestConvergesOverRadio(t *testing.T) {
	sim, stream, topo, apps := testbed(t, 9,
		core.Config{Ranker: core.NN(), N: 2, Window: 5*10*time.Second - 5*time.Second},
		wsn.Config{Seed: 1})
	sim.Start()

	period := stream.Period()
	for epoch := 0; epoch < stream.Epochs(); epoch++ {
		sim.Run(time.Duration(epoch+1) * period)
		if epoch < 6 {
			continue
		}
		// Ground truth over the window epochs (epoch-4 .. epoch).
		union := core.NewSet()
		for _, id := range topo.Nodes() {
			for e := epoch - 4; e <= epoch; e++ {
				s, ok := stream.At(id, e)
				if !ok {
					continue
				}
				union.Add(core.NewPoint(id, uint32(e), time.Duration(e)*period, s.Features()...))
			}
		}
		truth := core.TopN(core.NN(), union, 2)
		for _, id := range topo.Nodes() {
			got := apps[id].Detector().Estimate()
			if !samePointSet(truth, got) {
				t.Fatalf("epoch %d node %d: got %v want %v", epoch, id, pids(got), pids(truth))
			}
		}
	}
}

// TestSurvivesLoss injects 2% random frame loss; the ARQ layer must keep
// accuracy high (the paper reports ≈99% with drops present).
func TestSurvivesLoss(t *testing.T) {
	sim, stream, topo, apps := testbed(t, 9,
		core.Config{Ranker: core.NN(), N: 2, Window: 5*10*time.Second - 5*time.Second},
		wsn.Config{Seed: 2, LossProb: 0.02})
	sim.Start()

	period := stream.Period()
	hits, total := 0, 0
	for epoch := 0; epoch < stream.Epochs(); epoch++ {
		sim.Run(time.Duration(epoch+1) * period)
		if epoch < 6 {
			continue
		}
		union := core.NewSet()
		for _, id := range topo.Nodes() {
			for e := epoch - 4; e <= epoch; e++ {
				s, ok := stream.At(id, e)
				if !ok {
					continue
				}
				union.Add(core.NewPoint(id, uint32(e), time.Duration(e)*period, s.Features()...))
			}
		}
		truth := core.TopN(core.NN(), union, 2)
		for _, id := range topo.Nodes() {
			total++
			if samePointSet(truth, apps[id].Detector().Estimate()) {
				hits++
			}
		}
	}
	if total == 0 {
		t.Fatal("nothing measured")
	}
	acc := float64(hits) / float64(total)
	t.Logf("accuracy under 2%% loss: %.3f (%d/%d)", acc, hits, total)
	if acc < 0.9 {
		t.Fatalf("accuracy %.3f under mild loss; ARQ is not doing its job", acc)
	}
}

// TestNodeFailureMidRun fails a sensor mid-run; the survivors keep
// converging on the remaining (and eventually window-evicted) data.
func TestNodeFailureMidRun(t *testing.T) {
	sim, _, topo, apps := testbed(t, 9,
		core.Config{Ranker: core.NN(), N: 2, Window: 3*10*time.Second - 5*time.Second},
		wsn.Config{Seed: 3})
	// Fail a non-articulation sensor (corner of the 3×3 grid) at 45 s.
	ids := topo.Nodes()
	dead := ids[len(ids)-1]
	sim.After(45*time.Second, func() { sim.Node(dead).Fail() })
	sim.Start()
	sim.Run(100 * time.Second)

	// After the window rolled past the failure, no live sensor should
	// hold any point of the dead sensor anymore (§5.3 age-out).
	for _, id := range ids {
		if id == dead {
			continue
		}
		apps[id].Detector().Holdings().ForEach(func(p core.Point) {
			if p.ID.Origin == dead && p.Birth < 45*time.Second {
				t.Errorf("node %d still holds stale point %v of the failed sensor", id, p.ID)
			}
		})
	}
}

func TestFragmentSplitsLargePackets(t *testing.T) {
	r := []core.Point{}
	for i := 0; i < 15; i++ {
		r = append(r, core.NewPoint(1, uint32(i), 0, float64(i)))
	}
	out := &core.Outbound{From: 1, Groups: []core.Group{
		{To: 2, Points: r[:10]},
		{To: 3, Points: r[10:]},
	}}
	frags := fragment(out, 6)
	if len(frags) != 3 {
		t.Fatalf("15 points at 6/frame → %d frags, want 3", len(frags))
	}
	seen := 0
	for _, f := range frags {
		if got := f.PointCount(); got > 6 {
			t.Fatalf("fragment carries %d points", got)
		}
		seen += f.PointCount()
		if f.From != 1 {
			t.Fatal("fragment lost its source")
		}
	}
	if seen != 15 {
		t.Fatalf("fragments carry %d points, want 15", seen)
	}
	// Small packets pass through untouched.
	small := &core.Outbound{From: 1, Groups: []core.Group{{To: 2, Points: r[:3]}}}
	if got := fragment(small, 6); len(got) != 1 || got[0] != small {
		t.Fatal("small packet must not be copied")
	}
}

func samePointSet(a, b []core.Point) bool {
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

func pids(pts []core.Point) []string {
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = p.ID.String()
	}
	return out
}
