package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
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
			withIndexMin(math.MaxInt, func() {
				for i := 0; i < b.N; i++ {
					TopN(rk, set, 4)
				}
			})
		})
	}
}

// byID puts pts in ID order, the order a Set hands out its points and every
// ranking visits them in.
func byID(pts []Point) []Point {
	slices.SortFunc(pts, func(a, b Point) int { return idCompare(a.ID, b.ID) })
	return pts
}

// fleetPoints is a window of the bench fleet's shape: sensors×rounds
// one-dimensional readings from the faulty stream (see burstStream), IDs
// and births as 16 sensors sampling once a second would mint them, in ID
// order.
func fleetPoints(sensors, rounds int) []Point {
	value := burstStream(uint64(sensors*rounds), 0.005, 15000)
	pts := make([]Point, 0, sensors*rounds)
	for r := 0; r < rounds; r++ {
		for s := 1; s <= sensors; s++ {
			pts = append(pts, NewPoint(NodeID(s), uint32(r), time.Duration(r)*time.Second, value()))
		}
	}
	return byID(pts)
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
// peer's holdings (≈240) and the whole window (3,200), KNN k=2, n=3 — cold,
// no hint, the way a first ranking or a MergeSource meets them.
//
// The rows under a stream's name are the measurement behind topN's index
// rule (DESIGN.md § "The reaction path's invalidation table"): the same
// ranking cold and warm (hinted with its own answer, as a detector's next
// event is) at 64…4,096 points, by the plain scan alone, with the index
// built before the first query, and as the rule decides. The streams differ
// in where the floor ends up: far above the bulk (faulty: a few readings
// 15,000 away), in the tail of the noise (quiet), or inside the bulk
// (uniform: no outlier to speak of).
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
	for _, size := range []int{64, 256, 1024, 4096} {
		streams := map[string][]Point{
			"faulty":  streamPoints(burstStream(uint64(size), 0.005, 15000), size),
			"quiet":   streamPoints(burstStream(uint64(size), 0.001, 150), size),
			"uniform": randPoints(rng(uint64(size)), 1, size, 1, 100),
		}
		for _, stream := range []string{"faulty", "quiet", "uniform"} {
			pts := streams[stream]
			answer := supporterFor(rk, pts).topN(3)
			for _, warm := range []bool{false, true} {
				for _, how := range []string{"scan", "index", "rule"} {
					floor := "cold"
					if warm {
						floor = "warm"
					}
					b.Run(fmt.Sprintf("%s-%d/%s/%s", stream, size, floor, how), func(b *testing.B) {
						indexMin := indexMinPoints
						switch how {
						case "scan":
							indexMin = math.MaxInt
						case "index":
							indexMin = 1
						}
						withIndexMin(indexMin, func() {
							for i := 0; i < b.N; i++ {
								s := supporterFor(rk, pts)
								if warm {
									s.hint = answer
								}
								if how == "index" {
									s.ensureIndex()
								}
								s.topN(3)
							}
						})
					})
				}
			}
		}
	}
}

// streamPoints draws count one-dimensional readings from value, sixteen
// sensors taking turns, and returns them in ID order.
func streamPoints(value func() float64, count int) []Point {
	pts := make([]Point, count)
	for i := range pts {
		pts[i] = NewPoint(NodeID(1+i%16), uint32(i/16), 0, value())
	}
	return byID(pts)
}

// BenchmarkEvictBefore measures window expiry on a ledger-sized set: the
// common call that has nothing to expire, which the oldest-birth bound
// answers without a scan, and the call that expires one point (and re-adds
// one, so the set stays at 200), which pops it off the front of its run.
func BenchmarkEvictBefore(b *testing.B) {
	const size = 200
	fill := func() *Set {
		s := NewSet()
		for i := 0; i < size; i++ {
			s.Add(NewPoint(1, uint32(i), time.Duration(i)*time.Second, 20))
		}
		return s
	}
	b.Run("nothing", func(b *testing.B) {
		s := fill()
		for i := 0; i < b.N; i++ {
			s.EvictBefore(0)
		}
	})
	b.Run("one", func(b *testing.B) {
		s := fill()
		p := NewPoint(1, 0, 0, 20)
		for i := 0; i < b.N; i++ {
			s.EvictBefore(time.Duration(i+1) * time.Second)
			p.ID.Seq, p.Birth = uint32(size+i), time.Duration(size+i)*time.Second
			s.Add(p)
		}
	})
}

// steadyClique16 is the fleet's steady state at the core level: 16
// detectors on a clique, the faulty stream, a 200-round window filled. It
// returns the network and the stream to go on feeding it from.
func steadyClique16(t testing.TB) (*packetHasher, func() float64) {
	ph := newPacketHasher(t, 16, Config{Ranker: KNN{K: 2}, N: 3, Window: 200 * time.Second})
	ph.clique()
	value := burstStream(16, 0.005, 15000)
	for r := 0; r < 200; r++ {
		ph.round(t, r, value)
	}
	return ph, value
}

// totalStats sums the counters over every detector.
func (ph *packetHasher) totalStats() Stats { return sumStats(ph.dets) }

// sumStats sums the counters over the given detectors.
func sumStats(dets map[NodeID]*Detector) Stats {
	var sum Stats
	for _, d := range dets {
		st := d.Stats()
		sum.Events += st.Events
		sum.Broadcasts += st.Broadcasts
		sum.PointsSent += st.PointsSent
		sum.PointsReceived += st.PointsReceived
		sum.Evicted += st.Evicted
		sum.MemoHits += st.MemoHits
		sum.MemoMisses += st.MemoMisses
		sum.RankQueries += st.RankQueries
		sum.RankAbandoned += st.RankAbandoned
		sum.RankVisits += st.RankVisits
		sum.IndexBuilds += st.IndexBuilds
	}
	return sum
}

// BenchmarkReactClique16 measures one reading's cost in the fleet's
// steady state: 16 detectors on a clique with a full 200-round window;
// one op is one sensor's StepObserveBatch plus every receipt it triggers
// until the network is quiescent again. Beside the time it reports what
// the reaction path had to do for it: the share of per-link rankings the
// link memos answered, ranking queries started per reading, the candidates
// a query visited on average and the share of queries the cutoff
// abandoned, and spatial indexes built per reading.
func BenchmarkReactClique16(b *testing.B) {
	ph, value := steadyClique16(b)
	before := ph.totalStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := time.Duration(200+i/16) * time.Second
		id := ph.ids[i%16]
		_, out := ph.dets[id].StepObserveBatch(now, []Observation{{Birth: now, Value: []float64{value()}}})
		ph.emit(out)
		ph.settle(b)
	}
	b.StopTimer()
	after := ph.totalStats()
	hits, misses := after.MemoHits-before.MemoHits, after.MemoMisses-before.MemoMisses
	queries := after.RankQueries - before.RankQueries
	b.ReportMetric(float64(hits)/float64(max(1, hits+misses)), "memo-hit-share")
	b.ReportMetric(float64(queries)/float64(b.N), "rank-queries/op")
	b.ReportMetric(float64(after.RankVisits-before.RankVisits)/float64(max(1, queries)), "visits/query")
	b.ReportMetric(float64(after.RankAbandoned-before.RankAbandoned)/float64(max(1, queries)), "abandoned-share")
	b.ReportMetric(float64(after.IndexBuilds-before.IndexBuilds)/float64(b.N), "index-builds/op")
}

// BenchmarkBurstStates replays the fleet's burst shape — 16 detectors on a
// clique, every step each sensor observes its next eight readings as one
// batch and the network settles — from two fills that differ only in the
// stream's seed, and reports the counters that tell apart the two states
// such a fleet settles into for good (DESIGN.md § "Two states of one
// fleet"): "clean", where only faults ever cross a link, and
// "contaminated", where every link ledger carries a population of inliers
// that Eq. (2) re-seeds each time one of them expires. One op is one step
// of 128 readings; foreign-inliers/detector is read at the end.
func BenchmarkBurstStates(b *testing.B) {
	for _, fill := range []struct {
		name string
		seed uint64
	}{{"clean", 9}, {"contaminated", 10}} {
		b.Run(fill.name, func(b *testing.B) {
			ph := newPacketHasher(b, 16, Config{Ranker: KNN{K: 2}, N: 3, Window: 200 * time.Second})
			ph.clique()
			value := burstStream(fill.seed, 0.005, 15000)
			round := 0
			step := func() {
				batches := make([][]Observation, len(ph.ids))
				for r := 0; r < 8; r++ {
					at := time.Duration(round+r) * time.Second
					for s := range batches {
						batches[s] = append(batches[s], Observation{Birth: at, Value: []float64{value()}})
					}
				}
				round += 8
				for s, id := range ph.ids {
					_, out := ph.dets[id].StepObserveBatch(time.Duration(round-1)*time.Second, batches[s])
					ph.emit(out)
					ph.settle(b)
				}
			}
			// Four windows: the start-up transient (fewer than n faults in
			// a window, so the noise tail is the estimate and inliers cross
			// every link) is over well before the state is read.
			for i := 0; i < 100; i++ {
				step()
			}
			before := ph.totalStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			after := ph.totalStats()
			steps := float64(b.N)
			hits, misses := after.MemoHits-before.MemoHits, after.MemoMisses-before.MemoMisses
			b.ReportMetric(float64(after.Broadcasts-before.Broadcasts)/steps, "broadcasts/op")
			b.ReportMetric(float64(after.PointsSent-before.PointsSent)/steps, "points-sent/op")
			// A full window evicts what it takes in: 128 own readings a
			// step and whatever arrived that the detector did not hold.
			b.ReportMetric(float64(after.Evicted-before.Evicted)/steps-128, "novel-receipts/op")
			b.ReportMetric(float64(hits)/float64(max(1, hits+misses)), "memo-hit-share")
			b.ReportMetric(float64(after.RankQueries-before.RankQueries)/steps, "rank-queries/op")
			foreign := 0
			for id, d := range ph.dets {
				d.held.ForEach(func(p Point) {
					if p.ID.Origin != id && p.Value[0] < 1000 {
						foreign++
					}
				})
			}
			b.ReportMetric(float64(foreign)/float64(len(ph.dets)), "foreign-inliers/detector")
		})
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

// grid53 is the reference runtime at the paper's network size: 53 sensors
// on a grid eight wide, each linked to its right and its lower neighbour,
// running KNN (k=4, n=4) over a 15-sample window.
func grid53(tb testing.TB) (*SyncNetwork, []NodeID) {
	tb.Helper()
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
			tb.Fatal(err)
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
	return net, ids
}

// sampleRound53 is round n on the grid: every sensor observes a reading
// drawn from r, then the network settles to global agreement.
func sampleRound53(tb testing.TB, net *SyncNetwork, ids []NodeID, n int, r *rand.Rand) {
	tb.Helper()
	at := time.Duration(n) * 31 * time.Second
	net.AdvanceTo(at)
	for _, id := range ids {
		net.Observe(id, at, r.Float64()*10+20, r.Float64()*50, r.Float64()*50)
	}
	if _, err := net.Settle(10_000_000); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSyncRound53 measures one full sampling round of the reference
// runtime at the paper's network size (grid53). Beside the time it reports
// the candidates a ranking query visited on average, the share of queries
// the cutoff abandoned and the spatial indexes built per round.
func BenchmarkSyncRound53(b *testing.B) {
	r := rng(1)
	net, ids := grid53(b)
	before := sumStats(net.detectors)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sampleRound53(b, net, ids, n, r)
	}
	b.StopTimer()
	after := sumStats(net.detectors)
	queries := float64(max(1, after.RankQueries-before.RankQueries))
	b.ReportMetric(float64(after.RankVisits-before.RankVisits)/queries, "visits/query")
	b.ReportMetric(float64(after.RankAbandoned-before.RankAbandoned)/queries, "abandoned-share")
	b.ReportMetric(float64(after.IndexBuilds-before.IndexBuilds)/float64(b.N), "index-builds/op")
}
