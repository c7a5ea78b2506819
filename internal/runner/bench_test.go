package runner

import (
	"testing"
	"time"
)

// benchCellConfig is the cell bench/'s sim_global workload runs: KNN
// (k=4, n=4, w=20) on the 53-node deployment of seed 20060704, 15 s
// epochs, 375 s simulated, accuracy measured every round. The
// Centralized cell is that workload's setup_s, the Global cell its step.
func benchCellConfig(algo Algorithm) Config {
	return Config{
		Algo: algo, Ranker: RankKNN, K: 4, N: 4, WindowSamples: 20,
		Nodes: 53, Period: 15 * time.Second, Duration: 375 * time.Second,
		Seeds: []uint64{20060704}, Workers: 1, AccuracyEvery: 1,
	}
}

// BenchmarkSimCell times one whole cell; events/op is the simulator's
// work, so ns/op ÷ events/op is what an event costs end to end.
func BenchmarkSimCell(b *testing.B) {
	for _, c := range []struct {
		name string
		algo Algorithm
	}{{"centralized", AlgoCentralized}, {"global", AlgoGlobal}} {
		b.Run(c.name, func(b *testing.B) {
			var events float64
			for i := 0; i < b.N; i++ {
				res, err := Run(benchCellConfig(c.algo))
				if err != nil {
					b.Fatal(err)
				}
				events = res.SimEvents
			}
			b.ReportMetric(events, "events/op")
		})
	}
}
