package core

import (
	"fmt"
	"testing"
	"time"
)

func benchSet(b *testing.B, n int) *Set {
	b.Helper()
	r := rng(uint64(n))
	return NewSet(randPoints(r, 1, n, 3, 100)...)
}

func BenchmarkTopN100(b *testing.B) {
	set := benchSet(b, 100)
	rk := KNN{K: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopN(rk, set, 4)
	}
}

func BenchmarkTopN1000(b *testing.B) {
	set := benchSet(b, 1000)
	rk := KNN{K: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopN(rk, set, 4)
	}
}

// BenchmarkTopNIndexed measures the spatial-index ranking path against
// the brute-force oracle on the same set: the per-point O(n) neighbor
// scan versus the bucketed k-d tree, at the window sizes the centralized
// sink and the global detectors actually rank (53 sensors × w samples).
func BenchmarkTopNIndexed(b *testing.B) {
	for _, n := range []int{530, 2120} {
		set := benchSet(b, n)
		rk := KNN{K: 4}
		b.Run(fmt.Sprintf("index-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				TopN(rk, set, 4)
			}
		})
		b.Run(fmt.Sprintf("brute-%d", n), func(b *testing.B) {
			saved := indexMinPoints
			indexMinPoints = n + 1
			defer func() { indexMinPoints = saved }()
			for i := 0; i < b.N; i++ {
				TopN(rk, set, 4)
			}
		})
	}
}

// fleetPoints is a window of the bench fleet's shape: sensors×rounds
// one-dimensional readings from the faulty stream (see burstStream), IDs
// and births as 16 sensors sampling once a second would mint them.
func fleetPoints(sensors, rounds int) []Point {
	value := burstStream(uint64(sensors*rounds), 0.005, 15000)
	pts := make([]Point, 0, sensors*rounds)
	for r := 0; r < rounds; r++ {
		for s := 1; s <= sensors; s++ {
			pts = append(pts, NewPoint(NodeID(s), uint32(r), time.Duration(r)*time.Second, value()))
		}
	}
	return pts
}

// BenchmarkIndexBuild isolates construction cost: at the pool a fleet
// peer holds (≈240 of the 3,200 window points), at the full fleet window
// a shard's MergeSource indexes, and at the paper's detector scale in
// three dimensions.
func BenchmarkIndexBuild(b *testing.B) {
	for _, c := range []struct {
		name string
		pts  []Point
	}{
		{"fleet-240", fleetPoints(16, 15)},
		{"fleet-3200", fleetPoints(16, 200)},
		{"uniform3d-2120", benchSet(b, 2120).Points()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewIndex(c.pts)
			}
		})
	}
}

// BenchmarkTopNPool measures On(pool) at the three pool sizes the fleet
// ranks: a per-neighbour Eq. (2) candidate pool shared ∪ Z (≈40), one
// peer's holdings (≈240) and the whole window (3,200), KNN k=2, n=3.
func BenchmarkTopNPool(b *testing.B) {
	rk := KNN{K: 2}
	for _, c := range []struct {
		name            string
		sensors, rounds int
	}{{"40", 8, 5}, {"240", 16, 15}, {"3200", 16, 200}} {
		pts := fleetPoints(c.sensors, c.rounds)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				topNSlice(rk, pts, 3)
			}
		})
	}
}

// BenchmarkReactClique16 measures one reading's cost in the fleet's
// steady state: 16 detectors on a clique with a full 200-round window;
// one op is one sensor's StepObserveBatch plus every receipt it triggers
// until the network is quiescent again.
func BenchmarkReactClique16(b *testing.B) {
	ph := newPacketHasher(b, 16, Config{Ranker: KNN{K: 2}, N: 3, Window: 200 * time.Second})
	for i, a := range ph.ids {
		for _, c := range ph.ids[i+1:] {
			ph.connect(a, c)
		}
	}
	value := burstStream(16, 0.005, 15000)
	for r := 0; r < 200; r++ {
		ph.round(b, r, value)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := time.Duration(200+i/16) * time.Second
		id := ph.ids[i%16]
		_, out := ph.dets[id].StepObserveBatch(now, []Observation{{Birth: now, Value: []float64{value()}}})
		ph.emit(out)
		ph.settle(b)
	}
}

func BenchmarkSufficient(b *testing.B) {
	r := rng(9)
	set := benchSet(b, 300)
	shared := set.Filter(func(Point) bool { return r.Float64() < 0.3 })
	rk := KNN{K: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sufficient(rk, set, shared, 4)
	}
}

func BenchmarkDetectorReceive(b *testing.B) {
	r := rng(5)
	det, err := NewDetector(Config{Node: 1, Ranker: KNN{K: 4}, N: 4})
	if err != nil {
		b.Fatal(err)
	}
	det.AddNeighbor(2)
	det.ObserveBatch(0, vectors(r, 50)...)
	incoming := randPoints(r, 2, 10000, 3, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Receive(2, incoming[i%len(incoming):i%len(incoming)+1])
	}
}

func vectors(r interface{ Float64() float64 }, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
	}
	return out
}

func BenchmarkWireRoundTrip(b *testing.B) {
	r := rng(4)
	out := &Outbound{From: 1, Groups: []Group{
		{To: 2, Points: randPoints(r, 1, 6, 3, 100)},
		{To: 3, Points: randPoints(r, 1, 6, 3, 100)},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := EncodeOutbound(out)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeOutbound(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyncRound53 measures one full sampling round of the reference
// runtime at the paper's network size: 53 sensors observe, then the
// network settles to global agreement (KNN, k=4, n=4, 15-sample window).
func BenchmarkSyncRound53(b *testing.B) {
	r := rng(1)
	net := NewSyncNetwork()
	var ids []NodeID
	for i := 1; i <= 53; i++ {
		id := NodeID(i)
		ids = append(ids, id)
		det, err := NewDetector(Config{
			Node: id, Ranker: KNN{K: 4}, N: 4,
			Window: 15*31*time.Second - 15*time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		net.Add(det)
	}
	for i := 0; i < 53; i++ {
		if (i+1)%8 != 0 && i+1 < 53 {
			net.Connect(ids[i], ids[i+1])
		}
		if i+8 < 53 {
			net.Connect(ids[i], ids[i+8])
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		at := time.Duration(n) * 31 * time.Second
		net.AdvanceTo(at)
		for _, id := range ids {
			net.Observe(id, at, r.Float64()*10+20, r.Float64()*50, r.Float64()*50)
		}
		if _, err := net.Settle(10_000_000); err != nil {
			b.Fatal(err)
		}
	}
}
