package core

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDetectorAccessors(t *testing.T) {
	cfg := Config{Node: 42, Ranker: KNN{K: 2}, N: 3, Window: time.Minute}
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if det.Node() != 42 {
		t.Fatalf("Node() = %d", det.Node())
	}
	if got := det.Config(); got.N != 3 || got.Window != time.Minute {
		t.Fatalf("Config() = %+v", got)
	}
	det.StepObserveBatch(30*time.Second, nil)
	if det.Now() != 30*time.Second {
		t.Fatalf("Now() = %v", det.Now())
	}
	// Clocks never run backwards.
	det.StepObserveBatch(10*time.Second, nil)
	if det.Now() != 30*time.Second {
		t.Fatalf("clock regressed to %v", det.Now())
	}
}

func TestOwnPointsVersusHoldings(t *testing.T) {
	det, err := NewDetector(Config{Node: 1, Ranker: NN(), N: 1})
	if err != nil {
		t.Fatal(err)
	}
	observe(det, 0, []float64{5})
	receive(det, 2, []Point{NewPoint(2, 0, 0, 7)})
	if det.OwnPoints().Len() != 1 {
		t.Fatalf("D_i = %d, want only the local sample", det.OwnPoints().Len())
	}
	if det.Holdings().Len() != 2 {
		t.Fatalf("P_i = %d, want local + received", det.Holdings().Len())
	}
	// Accessors return copies: mutating them must not corrupt the
	// detector.
	det.Holdings().Remove(PointID{Origin: 1, Seq: 0})
	if det.Holdings().Len() != 2 {
		t.Fatal("Holdings returned shared state")
	}
}

// Property: a detector fed any random batch always produces an estimate
// of size min(N, |P|) and never panics.
func TestEstimateSizeInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng(seed)
		n := 1 + r.IntN(5)
		det, err := NewDetector(Config{Node: 1, Ranker: KNN{K: 1 + r.IntN(3)}, N: n})
		if err != nil {
			return false
		}
		count := r.IntN(12)
		for i := 0; i < count; i++ {
			observe(det, 0, []float64{r.Float64() * 100, r.Float64() * 100})
		}
		want := n
		if count < n {
			want = count
		}
		return len(det.Estimate()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: receive is idempotent — delivering the same packet twice
// leaves holdings identical.
func TestReceiveIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng(seed)
		det, err := NewDetector(Config{Node: 1, Ranker: NN(), N: 2})
		if err != nil {
			return false
		}
		observe(det, 0, []float64{r.Float64() * 10})
		pts := randPoints(r, 2, 1+r.IntN(8), 2, 100)
		receive(det, 2, pts)
		before := det.Holdings()
		receive(det, 2, pts)
		return det.Holdings().EqualIDs(before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestConvergenceTrafficScalesWithOutliersNotData checks the paper's
// headline efficiency claim: doubling the inlier bulk must not double
// the traffic, because communication is proportional to the outcome.
func TestConvergenceTrafficScalesWithOutliersNotData(t *testing.T) {
	run := func(bulk int) int {
		r := rng(99)
		net := NewSyncNetwork()
		for id := NodeID(1); id <= 4; id++ {
			det, err := NewDetector(Config{Node: id, Ranker: NN(), N: 2})
			if err != nil {
				t.Fatal(err)
			}
			net.Add(det)
		}
		for id := NodeID(1); id < 4; id++ {
			net.Connect(id, id+1)
		}
		for id := NodeID(1); id <= 4; id++ {
			// A tight inlier cloud per sensor plus one wild point in
			// the whole network.
			vals := make([][]float64, 0, bulk)
			for i := 0; i < bulk; i++ {
				vals = append(vals, []float64{float64(id)*10 + r.Float64()})
			}
			net.Observe(id, 0, vals...)
		}
		net.Observe(1, 0, []float64{10_000})
		if _, err := net.Settle(100000); err != nil {
			t.Fatal(err)
		}
		return net.PointsSent()
	}
	small := run(10)
	big := run(40)
	if big > small*2 {
		t.Fatalf("traffic grew with data bulk: %d → %d points for 4× the inliers", small, big)
	}
	t.Logf("traffic: %d points at bulk 10 vs %d at bulk 40 (outcome-proportional)", small, big)
}
