package wsn_test

import (
	"testing"
	"time"

	"innet/internal/dataset"
	"innet/internal/wsn"
)

type quietApp struct{}

func (quietApp) Start(*wsn.Node)               {}
func (quietApp) Receive(*wsn.Node, *wsn.Frame) {}

// BenchmarkTransmit puts one broadcast on the air in sim_global's 53-node
// deployment (seed 20060704) and runs it out: the transmission, a
// reception at every node in decode range, carrier and interference at
// every node that only senses it, and the deliveries. Senders take turns
// and the medium is idle before each one, so no frame defers or collides.
func BenchmarkTransmit(b *testing.B) {
	st, err := dataset.Generate(dataset.Config{Nodes: 53, Seed: 20060704})
	if err != nil {
		b.Fatal(err)
	}
	positions := st.Positions()
	s := wsn.NewSim(wsn.Config{Seed: 1})
	for _, id := range st.Nodes() {
		s.AddNode(id, positions[id], quietApp{})
	}
	nodes := s.Nodes()
	payload := make([]byte, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[i%len(nodes)].SendBroadcast(payload)
		s.Run(s.Now() + 20*time.Millisecond)
	}
	b.ReportMetric(float64(s.Events())/float64(b.N), "events/op")
}
