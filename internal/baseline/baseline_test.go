package baseline

import (
	"testing"
	"time"

	"innet/internal/core"
	"innet/internal/dataset"
	"innet/internal/wsn"
)

func centralTestbed(t *testing.T, nodes, w int, simCfg wsn.Config) (*wsn.Sim, *dataset.Stream, *wsn.Topology, map[core.NodeID]*App, core.NodeID) {
	t.Helper()
	stream, err := dataset.Generate(dataset.Config{
		Nodes:    nodes,
		Seed:     5,
		Period:   10 * time.Second,
		Duration: 100 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	topo := wsn.NewTopology(stream.Positions(), wsn.DefaultRadio().Range)
	sink := topo.Nodes()[len(topo.Nodes())/2]
	sim := wsn.NewSim(simCfg)
	apps := make(map[core.NodeID]*App, nodes)
	for _, id := range topo.Nodes() {
		app, err := New(Config{
			Sink:          sink,
			Ranker:        core.NN(),
			N:             2,
			WindowSamples: w,
			Stream:        stream,
		})
		if err != nil {
			t.Fatal(err)
		}
		apps[id] = app
		sim.AddNode(id, stream.Positions()[id], app)
	}
	return sim, stream, topo, apps, sink
}

func TestNewValidation(t *testing.T) {
	stream, err := dataset.Generate(dataset.Config{Nodes: 2, Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing stream must fail")
	}
	if _, err := New(Config{Stream: stream}); err == nil {
		t.Fatal("missing ranker must fail")
	}
	if _, err := New(Config{Stream: stream, Ranker: core.NN(), N: 1}); err == nil {
		t.Fatal("missing window must fail")
	}
	if _, err := New(Config{Stream: stream, Ranker: core.NN(), N: 1, WindowSamples: 5}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestSinkComputesAndFloodsResult runs the full centralized pipeline:
// shipments over AODV, sink-side window maintenance, outlier computation,
// and result flooding back to every sensor.
func TestSinkComputesAndFloodsResult(t *testing.T) {
	sim, stream, topo, apps, sink := centralTestbed(t, 9, 5, wsn.Config{Seed: 1})
	sim.Start()
	period := stream.Period()

	for epoch := 0; epoch < stream.Epochs(); epoch++ {
		sim.Run(time.Duration(epoch+1) * period)
		if epoch < 3 {
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
			res, at := apps[id].LastResult()
			if at == 0 {
				t.Fatalf("epoch %d node %d never received a result", epoch, id)
			}
			if !sameIDs(truth, res) {
				t.Fatalf("epoch %d node %d result %v, want %v (sink %d)",
					epoch, id, pids(res), pids(truth), sink)
			}
		}
	}
}

// TestSinkHotSpot verifies the centralized design's Achilles heel the
// paper hammers in §8: traffic concentrates around the sink.
func TestSinkHotSpot(t *testing.T) {
	sim, stream, _, _, sink := centralTestbed(t, 16, 8, wsn.Config{Seed: 2})
	sim.Start()
	sim.Run(stream.Period() * time.Duration(stream.Epochs()+1))

	var total, max int
	var hottest core.NodeID
	for _, node := range sim.Nodes() {
		sent := node.Counters().FramesSent
		total += sent
		if sent > max {
			max = sent
			hottest = node.ID
		}
	}
	mean := float64(total) / 16
	if float64(max) < 1.5*mean {
		t.Fatalf("no hot spot: max %d vs mean %.0f", max, mean)
	}
	_ = hottest
	// §8's claim is about the sink REGION: the average node within one
	// hop of the sink must be noticeably hotter than the network mean.
	topo := wsn.NewTopology(stream.Positions(), wsn.DefaultRadio().Range)
	regionTotal, regionN := 0, 0
	for _, node := range sim.Nodes() {
		if d, ok := topo.HopDistances(sink)[node.ID]; ok && d <= 1 {
			regionTotal += node.Counters().FramesSent
			regionN++
		}
	}
	regionMean := float64(regionTotal) / float64(regionN)
	if regionMean < 1.3*mean {
		t.Fatalf("sink region mean %.0f not above network mean %.0f", regionMean, mean)
	}
}

// TestLossTolerance: with random loss the MAC retries keep the sink fed.
func TestLossTolerance(t *testing.T) {
	sim, stream, topo, apps, _ := centralTestbed(t, 9, 5, wsn.Config{Seed: 3, LossProb: 0.03})
	sim.Start()
	period := stream.Period()
	hits, total := 0, 0
	for epoch := 0; epoch < stream.Epochs(); epoch++ {
		sim.Run(time.Duration(epoch+1) * period)
		if epoch < 3 {
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
			res, _ := apps[id].LastResult()
			if sameIDs(truth, res) {
				hits++
			}
		}
	}
	acc := float64(hits) / float64(total)
	t.Logf("centralized accuracy under 3%% loss: %.3f", acc)
	if acc < 0.8 {
		t.Fatalf("accuracy %.3f too low under mild loss", acc)
	}
}

func sameIDs(a, b []core.Point) bool {
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
