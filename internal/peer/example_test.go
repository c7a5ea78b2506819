package peer_test

import (
	"context"
	"fmt"
	"sync"
	"time"

	"innet/internal/core"
	"innet/internal/peer"
)

// ExamplePeer shows the whole embedding lifecycle: build peers on an
// in-memory mesh, run each in its own goroutine, feed observations, wait
// for the network to settle, read the converged estimate, and shut down
// by canceling the context.
func ExamplePeer() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	mesh := peer.NewMesh()
	var wg sync.WaitGroup
	spawn := func(id core.NodeID) *peer.Peer {
		tr, err := mesh.Attach(id)
		if err != nil {
			panic(err)
		}
		p, err := peer.New(peer.Config{
			Detector:  core.Config{Node: id, Ranker: core.NN(), N: 1},
			Transport: tr,
		})
		if err != nil {
			panic(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.Run(ctx) // returns when ctx is canceled
		}()
		return p
	}

	p1, p2 := spawn(1), spawn(2)
	if err := mesh.Connect(1, 2); err != nil {
		panic(err)
	}
	_ = p1.AddNeighbor(ctx, 2) // link-up events on both ends
	_ = p2.AddNeighbor(ctx, 1)

	_ = p1.ObserveBatch(ctx, 0, []core.Observation{{Value: []float64{20.0}}, {Value: []float64{20.2}}})
	_ = p2.ObserveBatch(ctx, 0, []core.Observation{{Value: []float64{48.0}}}) // the faulty reading

	_ = mesh.WaitQuiescent(ctx) // the algorithm has converged
	for _, pt := range p1.Estimate() {
		fmt.Printf("sensor 1 sees the outlier: sensor %d read %.1f\n", pt.ID.Origin, pt.Value[0])
	}

	cancel()
	wg.Wait()
	// Output: sensor 1 sees the outlier: sensor 2 read 48.0
}

// ExamplePeer_ObserveBatch feeds a burst of readings as one event — the
// batch-observe fast path the streaming ingestion layer uses: one ranking
// pass for the whole burst, with per-reading timestamps preserved.
func ExamplePeer_ObserveBatch() {
	ctx := context.Background()
	mesh := peer.NewMesh()
	tr, err := mesh.Attach(1)
	if err != nil {
		panic(err)
	}
	p, err := peer.New(peer.Config{
		Detector:  core.Config{Node: 1, Ranker: core.NN(), N: 1, Window: time.Hour},
		Transport: tr,
	})
	if err != nil {
		panic(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()

	_ = p.ObserveBatch(ctx, 3*time.Second, []core.Observation{
		{Birth: 1 * time.Second, Value: []float64{19.9}},
		{Birth: 2 * time.Second, Value: []float64{55.3}},
		{Birth: 3 * time.Second, Value: []float64{20.1}},
	})
	for _, pt := range p.Estimate() {
		fmt.Printf("outlier: %.1f at t=%s\n", pt.Value[0], pt.Birth)
	}

	mesh.Detach(1) // closing the transport ends Run cleanly
	fmt.Println("run returned:", <-done)
	// Output:
	// outlier: 55.3 at t=2s
	// run returned: <nil>
}
