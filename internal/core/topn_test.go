package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
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
// answer named twice over.
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
			hints := map[string][]Ranked{
				"none":       nil,
				"absent":     absent,
				"lowest":     all[len(all)-len(want):],
				"runners-up": all[len(want):min(2*len(want), len(all))],
				"doubled":    append(slices.Clone(want), want...),
			}
			for hinted, hint := range hints {
				for _, snapshot := range [][]Point{pts, shuffled} {
					// prebuilt: the index is there before the first query;
					// otherwise topN's own rule decides, which under a
					// hint that warms the floor means mid-batch or never.
					for _, prebuilt := range []bool{false, true} {
						s := supporterFor(r, snapshot)
						s.hint = hint
						if prebuilt {
							s.ensureIndex()
						}
						if err := sameRanked(s.topN(n), want); err != nil {
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
