package core

import (
	"testing"
	"time"
)

// TestCountWithinConvergesInNetwork runs the third ranking-function
// family (DB(α), Knorr-Ng) through the full distributed algorithm.
func TestCountWithinConvergesInNetwork(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng(seed * 13)
		g := randConnectedGraph(r, 7, 3)
		rk := CountWithin{Alpha: 30}
		net := buildNetwork(t, r, g, Config{Ranker: rk, N: 2}, 5)
		want := net.GlobalOutliers(rk, 2)
		for _, id := range net.Nodes() {
			if got := net.Detector(id).Estimate(); !sameIDs(got, want) {
				t.Fatalf("seed %d node %d: %v want %v", seed, id, idList(got), idList(want))
			}
		}
	}
}

// TestStepObserveMatchesSeparateEvents: an eviction and a reading coalesced
// into one StepObserveBatch call must leave the detector in the same state
// as an expiry-only event followed by the reading (only the transient
// traffic differs).
func TestStepObserveMatchesSeparateEvents(t *testing.T) {
	build := func() *Detector {
		det, err := NewDetector(Config{Node: 1, Ranker: NN(), N: 2, Window: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		det.AddNeighbor(2)
		for e := 0; e < 4; e++ {
			det.StepObserveBatch(0, readings(NewPoint(1, uint32(e), time.Duration(e)*4*time.Second, float64(e))))
		}
		return det
	}
	a := build()
	b := build()
	p := NewPoint(1, 9, 16*time.Second, 99)
	a.StepObserveBatch(16*time.Second, nil)
	a.StepObserveBatch(16*time.Second, readings(p))
	b.StepObserveBatch(16*time.Second, readings(p))
	if !a.Holdings().EqualIDs(b.Holdings()) {
		t.Fatalf("holdings diverge: %v vs %v", a.Holdings(), b.Holdings())
	}
	if !sameIDs(a.Estimate(), b.Estimate()) {
		t.Fatalf("estimates diverge")
	}
	if a.Stats().Events != b.Stats().Events+1 {
		t.Fatalf("coalescing must save one event: %d vs %d", a.Stats().Events, b.Stats().Events)
	}
}

// TestNoChangeReceiveIsSilent: re-delivering known points must not
// produce traffic (the optimization is provably behavior-preserving).
func TestNoChangeReceiveIsSilent(t *testing.T) {
	det, err := NewDetector(Config{Node: 1, Ranker: NN(), N: 1})
	if err != nil {
		t.Fatal(err)
	}
	det.AddNeighbor(2)
	observe(det, 0, []float64{0}, []float64{10}, []float64{20}, []float64{30})
	// A fresh extreme point: its nearest neighbor (30) was never sent,
	// so the detector must answer with it.
	pts := []Point{NewPoint(2, 0, 0, 1000)}
	first := receive(det, 2, pts)
	if first == nil {
		t.Fatal("fresh points must trigger a reaction")
	}
	if again := receive(det, 2, pts); again != nil {
		t.Fatalf("duplicate delivery reacted: %v", again)
	}
	// Stats still count the event and the received points.
	if det.Stats().PointsReceived != 2 {
		t.Fatalf("PointsReceived = %d, want 2", det.Stats().PointsReceived)
	}
}

// TestEvictionStats: window eviction is counted.
func TestEvictionStats(t *testing.T) {
	det, err := NewDetector(Config{Node: 1, Ranker: NN(), N: 1, Window: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	observe(det, 0, []float64{1})
	observe(det, 0, []float64{2})
	det.StepObserveBatch(10*time.Second, nil)
	if got := det.Stats().Evicted; got != 2 {
		t.Fatalf("Evicted = %d, want 2", got)
	}
	if det.Holdings().Len() != 0 {
		t.Fatal("window must be empty")
	}
}

// TestUnwindowedDetectorKeepsEverything: Window == 0 disables eviction.
func TestUnwindowedDetectorKeepsEverything(t *testing.T) {
	det, err := NewDetector(Config{Node: 1, Ranker: NN(), N: 1})
	if err != nil {
		t.Fatal(err)
	}
	observe(det, 0, []float64{1})
	if _, out := det.StepObserveBatch(time.Hour*24*365, nil); out != nil {
		t.Fatal("no window: advancing must not react")
	}
	if det.Holdings().Len() != 1 {
		t.Fatal("point evicted without a window")
	}
}
