package core_test

import (
	"fmt"
	"time"

	"innet/internal/core"
)

// ExampleTopN computes the top-2 outliers of a small 1-D dataset under
// the average-distance-to-2-nearest-neighbors ranking: the isolated 200,
// then 51 (the lonelier side of the {50, 51} pair).
func ExampleTopN() {
	set := core.NewSet()
	for i, v := range []float64{1, 2, 3, 50, 51, 200} {
		set.Add(core.NewPoint(1, uint32(i), 0, v))
	}
	for _, p := range core.TopN(core.KNN{K: 2}, set, 2) {
		fmt.Println(p.Value[0])
	}
	// Output:
	// 200
	// 51
}

// ExampleDetector wires two detectors by hand: observe, exchange, agree.
// Every change to a sensor's data — here each sensor's first three
// readings, at clock 0 — is one StepObserveBatch event.
func ExampleDetector() {
	a, _ := core.NewDetector(core.Config{Node: 1, Ranker: core.NN(), N: 1})
	b, _ := core.NewDetector(core.Config{Node: 2, Ranker: core.NN(), N: 1})

	readings := func(vs ...float64) []core.Observation {
		obs := make([]core.Observation, len(vs))
		for i, v := range vs {
			obs[i] = core.Observation{Value: []float64{v}}
		}
		return obs
	}
	a.StepObserveBatch(0, readings(1, 2, 3))
	b.StepObserveBatch(0, readings(4, 5, 99))

	// Link up starting with a; relay packets until quiescence.
	out := a.AddNeighbor(2)
	for out != nil {
		if out.From == 1 {
			out = b.ReceiveBatch([]core.Receipt{{From: 1, Points: out.For(2)}})
		} else {
			out = a.ReceiveBatch([]core.Receipt{{From: 2, Points: out.For(1)}})
		}
	}
	fmt.Println(a.Estimate()[0].Value[0], b.Estimate()[0].Value[0])
	// Output: 99 99
}

// ExampleSyncNetwork runs a three-sensor chain with a sliding window.
func ExampleSyncNetwork() {
	net := core.NewSyncNetwork()
	for id := core.NodeID(1); id <= 3; id++ {
		det, _ := core.NewDetector(core.Config{
			Node:   id,
			Ranker: core.NN(),
			N:      1,
			Window: time.Minute,
		})
		net.Add(det)
	}
	net.Connect(1, 2)
	net.Connect(2, 3)

	net.Observe(1, 0, []float64{20.1})
	net.Observe(2, 0, []float64{20.3})
	net.Observe(3, 0, []float64{47.9}) // a stuck sensor
	net.Settle(1000)

	est := net.Detector(1).Estimate()
	fmt.Printf("sensor 1 blames sensor %d (%.1f°C)\n", est[0].ID.Origin, est[0].Value[0])

	// An hour later the reading has aged out everywhere.
	net.AdvanceTo(time.Hour)
	net.Settle(1000)
	fmt.Println("held after expiry:", net.Detector(1).Holdings().Len())
	// Output:
	// sensor 1 blames sensor 3 (47.9°C)
	// held after expiry: 0
}
