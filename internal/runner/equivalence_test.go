package runner

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"innet/internal/baseline"
	"innet/internal/core"
	"innet/internal/wsn"
)

// randomConnectedNetwork builds a SyncNetwork over a random geometric
// topology: positions uniform in a square, radio links within range,
// retried with a widening radius until connected.
func randomConnectedNetwork(t *testing.T, r *rand.Rand, nodes int, det core.Config) (*core.SyncNetwork, *wsn.Topology) {
	t.Helper()
	for radius := 0.35; ; radius += 0.1 {
		positions := make(map[core.NodeID]wsn.Point2, nodes)
		for i := 0; i < nodes; i++ {
			positions[core.NodeID(i+1)] = wsn.Point2{X: r.Float64(), Y: r.Float64()}
		}
		topo := wsn.NewTopology(positions, radius)
		if !topo.Connected() {
			if radius > 2 {
				t.Fatal("could not draw a connected topology")
			}
			continue
		}
		net := core.NewSyncNetwork()
		for _, id := range topo.Nodes() {
			cfg := det
			cfg.Node = id
			d, err := core.NewDetector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			net.Add(d)
		}
		for _, a := range topo.Nodes() {
			for _, b := range topo.Neighbors(a) {
				if a < b {
					net.Connect(a, b)
				}
			}
		}
		return net, topo
	}
}

// TestGlobalEquivalentToCentralizedBaseline is the paper's core
// correctness claim (§5, Lemma 3) as a property test: for random
// topologies, random data, and sliding-window eviction, once the network
// quiesces every sensor's in-network global outlier estimate equals the
// centralized baseline's answer over the union of the current windows.
func TestGlobalEquivalentToCentralizedBaseline(t *testing.T) {
	const (
		epochs = 12
		period = 10 * time.Second
		window = 5*10*time.Second - 5*time.Second // last 5 epochs
	)
	rankers := []core.Ranker{core.NN(), core.KNN{K: 4}}
	for seed := uint64(1); seed <= 6; seed++ {
		for ri, ranker := range rankers {
			t.Run(fmt.Sprintf("seed%d/%s", seed, ranker.Name()), func(t *testing.T) {
				r := rand.New(rand.NewPCG(seed, uint64(ri)^0xfeed))
				nodes := 6 + r.IntN(10)
				n := 1 + r.IntN(4)
				net, topo := randomConnectedNetwork(t, r, nodes, core.Config{
					Ranker: ranker,
					N:      n,
					Window: window,
				})
				for e := 0; e < epochs; e++ {
					at := time.Duration(e) * period
					net.AdvanceTo(at)
					for _, id := range topo.Nodes() {
						// A heavy-tailed value makes real outliers.
						v := r.NormFloat64()
						if r.IntN(12) == 0 {
							v += 40
						}
						net.Observe(id, at, []float64{v, r.Float64(), r.Float64()})
					}
					if _, err := net.Settle(1_000_000); err != nil {
						t.Fatal(err)
					}
				}

				// The centralized baseline's answer over every sensor's
				// current window.
				windows := make([][]core.Point, 0, nodes)
				for _, id := range net.Nodes() {
					windows = append(windows, net.Detector(id).OwnPoints().Points())
				}
				truth := baseline.Compute(ranker, n, windows...)
				truthIDs := core.NewSet(truth...)

				for _, id := range net.Nodes() {
					est := core.NewSet(net.Detector(id).Estimate()...)
					if !est.EqualIDs(truthIDs) {
						t.Fatalf("node %d estimates %v; centralized baseline %v (nodes=%d n=%d)",
							id, est, truthIDs, nodes, n)
					}
				}
			})
		}
	}
}
