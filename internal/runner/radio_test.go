package runner

import (
	"slices"
	"testing"
	"time"

	"innet/internal/core"
	"innet/internal/wsn"
)

// heardApp records which nodes' frames a node decoded.
type heardApp struct{ from []core.NodeID }

func (*heardApp) Start(*wsn.Node) {}

func (a *heardApp) Receive(_ *wsn.Node, f *wsn.Frame) { a.from = append(a.from, f.Src) }

// TestRadioMatchesTopology: on the generated deployments the radio
// decodes exactly the disc graph the detectors' neighbour lists come
// from. Every node broadcasts alone, one at a time, and who heard whom
// must equal wsn.Topology's adjacency.
func TestRadioMatchesTopology(t *testing.T) {
	for _, seed := range []uint64{20060704, 1, 2, 3, 4} {
		run, err := buildSeedRun(goldenCellConfig(AlgoGlobal, 45*time.Second), seed)
		if err != nil {
			t.Fatal(err)
		}
		positions := run.stream.Positions()
		sim := wsn.NewSim(wsn.Config{Seed: seed})
		apps := make(map[core.NodeID]*heardApp)
		for i, id := range run.topo.Nodes() {
			apps[id] = &heardApp{}
			n := sim.AddNode(id, positions[id], apps[id])
			sim.At(time.Duration(i)*100*time.Millisecond, func() { n.SendBroadcast([]byte{1}) })
		}
		sim.Run(time.Hour)
		for _, id := range run.topo.Nodes() {
			heard := slices.Sorted(slices.Values(apps[id].from))
			if want := run.topo.Neighbors(id); !slices.Equal(heard, want) {
				t.Fatalf("seed %d: node %d decoded %v, topology neighbours %v", seed, id, heard, want)
			}
		}
	}
}
