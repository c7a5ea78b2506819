package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// withIndexMin runs fn with the index threshold forced: 1 indexes every
// non-empty set, math.MaxInt none.
func withIndexMin(min int, fn func()) {
	saved := indexMinPoints
	indexMinPoints = min
	defer func() { indexMinPoints = saved }()
	fn()
}

// topNSlice is TopN over a duplicate-free point slice: cold, no hint.
func topNSlice(r Ranker, pts []Point, n int) []Point {
	return rankedPoints(supporterFor(r, pts).topN(n))
}

// checkTopN asserts the cutoff-pruned topN(n) is exactly the first n of the
// exhaustive ranking — same points, same order, same rank bits — on the
// indexed and on the brute path, and that the two paths agree on the
// exhaustive ranking itself. Neither the order of the snapshot nor the hint
// may show in the answer, so every path is also run over a shuffled
// snapshot under hints chosen to mislead: points P does not hold, the n
// lowest-ranked points of P, the n runners-up (on a lattice they tie the
// floor, and the true members must still displace them by ≺), and the true
// answer named twice over, an empty hint, and a stale one — an earlier
// window's answer, its points gone from P or since become inliers. The
// exported TopNHinted runs through the same table.
func checkTopN(t testing.TB, name string, r Ranker, pts []Point, n int) {
	t.Helper()
	shuffled := slices.Clone(pts)
	rand.New(rand.NewPCG(uint64(len(pts)), uint64(n))).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	var exhaustive [2][]Ranked
	for path, threshold := range []int{1, math.MaxInt} {
		withIndexMin(threshold, func() {
			all := supporterFor(r, pts).rankAll()
			exhaustive[path] = all
			want := all[:max(0, min(n, len(all)))]
			absent := make([]Ranked, n)
			for i := range absent {
				absent[i].Point = NewPoint(60000, uint32(i), 0, 1)
			}
			lowest := all[len(all)-len(want):]
			var stale []Ranked
			for i := range lowest {
				stale = append(stale, absent[i], lowest[i])
			}
			hints := map[string][]Ranked{
				"none":       nil,
				"empty":      {},
				"absent":     absent,
				"lowest":     lowest,
				"stale":      stale,
				"runners-up": all[len(want):min(2*len(want), len(all))],
				"doubled":    append(slices.Clone(want), want...),
			}
			for hinted, hint := range hints {
				for _, snapshot := range [][]Point{pts, shuffled} {
					// prebuilt: the index is there before the first query;
					// otherwise topN's own rule decides, which under a
					// hint that warms the floor means mid-batch or never
					// — the path TopNHinted takes.
					for _, prebuilt := range []bool{false, true} {
						var got []Ranked
						if prebuilt {
							s := supporterFor(r, snapshot)
							s.hint = hint
							s.ensureIndex()
							got = s.topN(n)
						} else {
							got = topNHinted(r, snapshot, n, rankedPoints(hint))
						}
						if err := sameRanked(got, want); err != nil {
							t.Fatalf("%s %s |P|=%d n=%d indexMin=%d hint=%s prebuilt=%v: topN is not the exhaustive prefix: %v",
								name, r.Name(), len(pts), n, threshold, hinted, prebuilt, err)
						}
					}
				}
			}
		})
	}
	if err := sameRanked(exhaustive[0], exhaustive[1]); err != nil {
		t.Fatalf("%s %s |P|=%d: indexed and brute exhaustive rankings differ: %v", name, r.Name(), len(pts), err)
	}
}

func sameRanked(got, want []Ranked) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Point.ID != want[i].Point.ID ||
			math.Float64bits(got[i].Rank) != math.Float64bits(want[i].Rank) {
			return fmt.Errorf("slot %d: %v rank %v (%#x), want %v rank %v (%#x)", i,
				got[i].Point.ID, got[i].Rank, math.Float64bits(got[i].Rank),
				want[i].Point.ID, want[i].Rank, math.Float64bits(want[i].Rank))
		}
	}
	return nil
}

var topNRankers = []Ranker{
	KNN{K: 1}, KNN{K: 2}, KNN{K: 4}, KthNN{K: 3},
	CountWithin{Alpha: 1}, CountWithin{Alpha: 0},
}

func TestTopNMatchesExhaustive(t *testing.T) {
	r := rng(0x70b)
	for _, size := range []int{0, 1, 2, 5, 63, 64, 65, 200} {
		clouds := map[string][]Point{
			"uniform":   randPoints(r, 2, size, 3, 10),
			"ties":      tiePronePoints(r, size, 2, 3), // duplicate coordinates under distinct IDs
			"mixed-dim": mixedDimPoints(r, size),
			"lattice":   latticePoints(size),
		}
		for name, pts := range clouds {
			for _, rk := range topNRankers {
				for _, n := range []int{1, 3, size / 2, size, size + 5} {
					checkTopN(t, name, rk, pts, n)
				}
			}
		}
	}
}

// latticePoints puts the points at 0, 1, 2, … on a line, so every interior
// point has the same nearest-neighbor distances and whole runs of equal
// ranks straddle the n-th slot whatever n is: only ≺ orders them.
func latticePoints(count int) []Point {
	pts := make([]Point, count)
	for i := range pts {
		pts[i] = NewPoint(NodeID(i%3), uint32(i), 0, float64((i*7)%count))
	}
	return pts
}

// The penalty regime: k at or beyond |P| − 1, where every rank carries
// MissingNeighborPenalty charges and no query may be abandoned before its
// list is full — which it never is.
func TestTopNPenaltyRegime(t *testing.T) {
	r := rng(0xbeef)
	for _, size := range []int{1, 2, 3, 9, 40} {
		pts := randPoints(r, 1, size, 2, 10)
		for _, k := range []int{size - 1, size, size + 3} {
			if k < 1 {
				continue
			}
			for _, rk := range []Ranker{KNN{K: k}, KthNN{K: k}} {
				for _, n := range []int{1, 3, size} {
					checkTopN(t, "penalty", rk, pts, n)
				}
			}
		}
	}
}

// A fleet-sized window: 3,200 one-dimensional readings with a few faults
// far above the rest, the benchmark's regime, plus a uniform cloud with no
// outliers to speak of, where the floor stays in the bulk.
func TestTopNMatchesExhaustiveAtWindowScale(t *testing.T) {
	for name, pts := range map[string][]Point{
		"fleet":   fleetPoints(16, 200),
		"uniform": randPoints(rng(3200), 4, 3200, 2, 100),
	} {
		for _, rk := range []Ranker{KNN{K: 2}, KthNN{K: 2}, CountWithin{Alpha: 0.05}} {
			checkTopN(t, name, rk, pts, 3)
		}
	}
}

// publicOnlyRanker hides KNN's package-private query, standing in for a
// ranker written outside the package: topN must still equal the prefix.
type publicOnlyRanker struct{ Ranker }

func TestTopNPublicRankerOnly(t *testing.T) {
	r := rng(0xab)
	for _, size := range []int{0, 1, 30, 100} {
		pts := tiePronePoints(r, size, 2, 4)
		checkTopN(t, "public-only", publicOnlyRanker{KNN{K: 2}}, pts, 3)
	}
}

// fuzzTopNInput turns fuzz bytes into a ranker, n and a small point set:
// a four-byte header (n, k, ranker family, dimension) and then one
// coordinate per byte, quantized to halves in [0, 8) so duplicate
// coordinates, duplicate distances and equal ranks are the common case.
func fuzzTopNInput(data []byte) (Ranker, int, []Point) {
	if len(data) < 4 {
		return nil, 0, nil
	}
	n, k, dim := 1+int(data[0]%8), 1+int(data[1]%8), 1+int(data[3]%3)
	var rk Ranker
	switch data[2] % 3 {
	case 0:
		rk = KNN{K: k}
	case 1:
		rk = KthNN{K: k}
	default:
		rk = CountWithin{Alpha: float64(k) / 2}
	}
	body := data[4:]
	if len(body) > 3*120 {
		body = body[:3*120]
	}
	var pts []Point
	for i := 0; i+dim <= len(body); i += dim {
		vals := make([]float64, dim)
		for d := range vals {
			vals[d] = float64(body[i+d]%16) / 2
		}
		// Every third point drops its last coordinate: mixed dimensions.
		if dim > 1 && len(pts)%3 == 2 {
			vals = vals[:dim-1]
		}
		pts = append(pts, NewPoint(NodeID(len(pts)%4), uint32(len(pts)), 0, vals...))
	}
	return rk, n, pts
}

// FuzzTopN asserts the same equality as TestTopNMatchesExhaustive on
// arbitrary small inputs; the seed corpus under testdata/fuzz/FuzzTopN
// runs under plain `go test`.
func FuzzTopN(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0, 0, 1, 1, 1, 9, 9, 3})
	f.Add([]byte{0, 7, 1, 1, 0, 0, 2, 2, 4, 4, 6, 6, 8, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		rk, n, pts := fuzzTopNInput(data)
		if rk == nil {
			return
		}
		checkTopN(t, "fuzz", rk, pts, n)
	})
}

// TestCarriedBoundsMatchFresh slides a window through chains of
// supporters, each built from the one before with its rank bounds carried
// over (supporter.inherit), as a detector rebuilds its supporter over P_i
// and over each hop stratum P≤h when the window moves. Every step inserts
// readings born anywhere in the window, at hop counts that some later step
// lowers, and evicts by a cutoff that never falls; now and then the cutoff
// is raised to just past the birth of the current top outlier, or of the
// oldest witness of a bound a supporter holds, so that what a bound was
// proved from disappears. Readings come in a tight bulk with lone faults
// and small far-off groups whose members witness each other: when a group
// shrinks, the rest of it turn into outliers while their old bounds say
// they are inliers. At every step topN must be the exhaustive ranking's
// prefix, rank bits included, on the scan and on the index path.
func TestCarriedBoundsMatchFresh(t *testing.T) {
	const window = 30 * time.Second
	for _, rk := range []Ranker{KNN{K: 1}, KNN{K: 2}, KNN{K: 4}, KthNN{K: 3}, CountWithin{Alpha: 1}} {
		for path, indexMin := range map[string]int{"scan": math.MaxInt, "index": 1} {
			withIndexMin(indexMin, func() {
				r := rng(0xca77 + uint64(indexMin%7))
				held := NewSet()
				seq := make(map[NodeID]uint32)
				add := func(now, cutoff time.Duration, v float64) {
					origin := NodeID(1 + r.IntN(8))
					p := NewPoint(origin, seq[origin], cutoff+time.Duration(r.Int64N(int64(now-cutoff)+1)), v)
					seq[origin]++
					p.Hop = uint8(r.IntN(3))
					held.Add(p)
				}
				// chains[0] ranks P_i; chains[1+h] the stratum P≤h of
				// Algorithm 2 with HopLimit 2.
				var chains [3]*supporter
				var spare []rankBound
				var stats Stats
				now := window
				for step := 0; step < 400; step++ {
					now += time.Second
					cutoff := now - window
					switch prev := chains[0]; {
					case prev == nil:
					case step%13 == 5 && len(prev.top) > 0: // the top outlier goes
						cutoff = max(cutoff, prev.top[0].Point.Birth+1)
					case step%7 == 3: // a live witness of some bound goes
						live := slices.DeleteFunc(slices.Clone(prev.bounds), func(b rankBound) bool {
							return math.IsInf(b.rank, 1) || b.oldest < cutoff || b.oldest == noBirth
						})
						if len(live) > 0 {
							cutoff = max(cutoff, live[r.IntN(len(live))].oldest+1)
						}
					}
					now = cutoff + window
					held.EvictBefore(cutoff)
					for range 1 + r.IntN(3) {
						v := 20 + r.NormFloat64()
						if r.IntN(8) == 0 {
							v += 40 + 40*r.Float64()
						}
						add(now, cutoff, v)
					}
					if r.IntN(6) == 0 {
						at := 100 + 100*r.Float64()
						for range 1 + r.IntN(5) {
							add(now, cutoff, at+0.5*r.Float64())
						}
					}
					if r.IntN(3) == 0 { // a shorter route turns up for some point
						pts := held.Points()
						if p := pts[r.IntN(len(pts))]; p.Hop > 0 {
							held.SetHop(p.ID, p.Hop-1)
						}
					}
					n := 1 + step%4
					for c := range chains {
						set := held
						if c > 0 {
							set = held.MaxHop(uint8(c - 1))
						}
						sup := supporterFor(rk, set.Points())
						sup.stats = &stats
						if prev := chains[c]; prev != nil {
							sup.hint = prev.top
						}
						spare = sup.inherit(chains[c], cutoff, spare)
						chains[c] = sup
						all := supporterFor(rk, set.Points()).rankAll()
						if err := sameRanked(sup.topN(n), all[:min(n, len(all))]); err != nil {
							t.Fatalf("%s %s, step %d, chain %d (|P|=%d, n=%d, cutoff %v): topN with carried bounds is not the exhaustive prefix: %v",
								rk.Name(), path, step, c, len(all), n, cutoff, err)
						}
					}
				}
				if stats.RankCarried == 0 {
					t.Fatalf("%s %s: no query was answered by a carried bound over %d queries", rk.Name(), path, stats.RankQueries)
				}
				t.Logf("%s %s: %d of %d points placed by a carried bound", rk.Name(), path, stats.RankCarried, stats.RankQueries)
			})
		}
	}
}
