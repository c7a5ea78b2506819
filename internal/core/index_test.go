package core

import (
	"math"
	"math/rand/v2"
	"testing"
)

// tiePronePoints builds a cloud whose coordinates are snapped to a small
// integer grid, so exact duplicate distances — and exact duplicate
// coordinates under different IDs — are common and the ≺ tie-break is
// genuinely exercised.
func tiePronePoints(r *rand.Rand, count, dim, grid int) []Point {
	pts := make([]Point, count)
	for i := range pts {
		vals := make([]float64, dim)
		for d := range vals {
			vals[d] = float64(r.IntN(grid))
		}
		pts[i] = NewPoint(NodeID(r.IntN(7)), uint32(i), 0, vals...)
	}
	return pts
}

// mixedDimPoints builds a cloud of varying feature dimension, exercising
// the zero-padding convention shared by Point.dist2 and the index.
func mixedDimPoints(r *rand.Rand, count int) []Point {
	pts := make([]Point, count)
	for i := range pts {
		dim := 1 + r.IntN(3)
		vals := make([]float64, dim)
		for d := range vals {
			vals[d] = r.Float64()*4 - 2
		}
		pts[i] = NewPoint(NodeID(i/16), uint32(i), 0, vals...)
	}
	return pts
}

// indexClouds yields the point clouds the differential tests sweep:
// uniform random, tie-prone gridded, duplicate-heavy, and mixed-dim, at
// sizes straddling leaf buckets and the index threshold.
func indexClouds(t *testing.T, visit func(name string, pts []Point)) {
	t.Helper()
	r := rng(0xd1ff)
	for _, n := range []int{0, 1, 2, 7, indexLeafSize, indexLeafSize + 1, 60, 150, 400} {
		visit("uniform", randPoints(r, 3, n, 3, 10))
		visit("ties", tiePronePoints(r, n, 2, 3))
		visit("mixed-dim", mixedDimPoints(r, n))
	}
	// Every point identical: the tree cannot split at all.
	same := make([]Point, 100)
	for i := range same {
		same[i] = NewPoint(NodeID(i%5), uint32(i), 0, 1, 2, 3)
	}
	visit("identical", same)
}

// queriesFor returns in-set queries (own-ID exclusion must apply) plus
// external ones, including a higher-dimensional query than the cloud.
func queriesFor(pts []Point) []Point {
	qs := []Point{
		NewPoint(90, 1, 0, 0.5),
		NewPoint(90, 2, 0, 1.1, 2.2),
		NewPoint(90, 3, 0, -1, 0, 1, 5), // above any indexed dimension
	}
	for i := 0; i < len(pts); i += 1 + len(pts)/7 {
		qs = append(qs, pts[i])
	}
	return qs
}

func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Hop != b[i].Hop {
			return false
		}
	}
	return true
}

func TestIndexKNearestMatchesBrute(t *testing.T) {
	indexClouds(t, func(name string, pts []Point) {
		ix := NewIndex(pts)
		if ix.Len() != len(pts) {
			t.Fatalf("%s: index holds %d of %d points", name, ix.Len(), len(pts))
		}
		for _, x := range queriesFor(pts) {
			for _, k := range []int{1, 2, 4, 9, len(pts) + 1} {
				want := kNearest(x, pts, k)
				got := ix.KNearest(x, k)
				if !samePoints(want, got) {
					t.Fatalf("%s n=%d k=%d x=%v:\nbrute %v\nindex %v",
						name, len(pts), k, x, want, got)
				}
			}
		}
	})
}

func TestIndexWithinMatchesBrute(t *testing.T) {
	indexClouds(t, func(name string, pts []Point) {
		ix := NewIndex(pts)
		for _, x := range queriesFor(pts) {
			alphas := []float64{0, 0.5, 2, 1e9}
			if len(pts) > 1 {
				// An exact inter-point distance lands queries on the ≤
				// boundary.
				alphas = append(alphas, x.Dist(pts[len(pts)/2]))
			}
			for _, alpha := range alphas {
				a2 := alpha * alpha
				var want []Point
				for _, p := range pts {
					if p.ID != x.ID && x.dist2(p) <= a2 {
						want = append(want, p)
					}
				}
				got := ix.Within(x, alpha)
				if len(got) != ix.WithinCount(x, alpha) {
					t.Fatalf("%s: Within/WithinCount disagree: %d vs %d",
						name, len(got), ix.WithinCount(x, alpha))
				}
				wantIDs := map[PointID]bool{}
				for _, p := range want {
					wantIDs[p.ID] = true
				}
				if len(got) != len(want) {
					t.Fatalf("%s alpha=%g x=%v: brute %d points, index %d",
						name, alpha, x, len(want), len(got))
				}
				for i, p := range got {
					if !wantIDs[p.ID] {
						t.Fatalf("%s alpha=%g: index returned %v not within", name, alpha, p)
					}
					// The index reports (distance, ≺) order.
					if i > 0 && closer(x.dist2(p), &p, distPoint{d2: x.dist2(got[i-1]), p: &got[i-1]}) {
						t.Fatalf("%s alpha=%g: Within out of order at %d", name, alpha, i)
					}
				}
			}
		}
	})
}

func TestIndexedRankersMatchBrute(t *testing.T) {
	rankers := []indexedRanker{
		NN(), KNN{K: 4}, KNN{K: 9},
		KthNN{K: 1}, KthNN{K: 5},
		CountWithin{Alpha: 1.5}, CountWithin{Alpha: 0},
	}
	scratch := newBestList(1)
	indexClouds(t, func(name string, pts []Point) {
		ix := NewIndex(pts)
		for _, r := range rankers {
			for _, x := range queriesFor(pts) {
				want := r.Rank(x, pts)
				got, ok := r.rankBounded(x, pts, 0, ix, math.Inf(-1), scratch)
				if !ok || want != got {
					t.Fatalf("%s %s n=%d x=%v: Rank %v != indexed %v",
						name, r.Name(), len(pts), x, want, got)
				}
				ws, gs := r.Support(x, pts), r.supportIndexed(x, ix)
				wantIDs := NewSet(ws...)
				gotIDs := NewSet(gs...)
				if !wantIDs.EqualIDs(gotIDs) {
					t.Fatalf("%s %s x=%v: Support %v != indexed %v",
						name, r.Name(), x, wantIDs, gotIDs)
				}
			}
		}
	})
}

// TestTopNIndexedMatchesBrute drives the full public entry point over a
// set large enough to take the indexed path and checks it against the
// naive reimplementation and against the forced-brute path.
func TestTopNIndexedMatchesBrute(t *testing.T) {
	r := rng(0xcafe)
	for _, ranker := range []Ranker{NN(), KNN{K: 4}, KthNN{K: 3}, CountWithin{Alpha: 2}} {
		set := NewSet()
		for _, p := range randPoints(r, 1, 300, 3, 10) {
			set.Add(p)
		}
		for _, p := range tiePronePoints(r, 100, 3, 4) {
			p.ID.Origin += 10
			set.Add(p)
		}
		if set.Len() < indexMinPoints {
			t.Fatal("test set too small to exercise the index path")
		}
		indexed := TopNRanked(ranker, set, 12)

		var brute []Ranked
		withIndexMin(math.MaxInt, func() { brute = TopNRanked(ranker, set, 12) })
		naive := naiveTopN(ranker, set, 12)

		if len(indexed) != len(brute) || len(indexed) != len(naive) {
			t.Fatalf("%s: result sizes differ: %d %d %d",
				ranker.Name(), len(indexed), len(brute), len(naive))
		}
		for i := range indexed {
			if indexed[i].Point.ID != brute[i].Point.ID || indexed[i].Rank != brute[i].Rank {
				t.Fatalf("%s: indexed[%d] = %v/%v, brute = %v/%v", ranker.Name(), i,
					indexed[i].Point.ID, indexed[i].Rank, brute[i].Point.ID, brute[i].Rank)
			}
			if indexed[i].Point.ID != naive[i].ID {
				t.Fatalf("%s: indexed[%d] = %v, naive = %v", ranker.Name(), i,
					indexed[i].Point.ID, naive[i].ID)
			}
		}
	}
}

// TestSupportOfIndexedMatchesBrute checks the batched support-set entry
// point across the threshold.
func TestSupportOfIndexedMatchesBrute(t *testing.T) {
	r := rng(0xbee)
	for _, ranker := range []Ranker{KNN{K: 4}, KthNN{K: 4}, CountWithin{Alpha: 3}} {
		set := NewSet(randPoints(r, 2, 200, 3, 8)...)
		q := append(randPoints(r, 3, 9, 3, 8), set.Points()[:5]...)

		indexed := SupportOf(ranker, set, q)
		var brute *Set
		withIndexMin(math.MaxInt, func() { brute = SupportOf(ranker, set, q) })

		if !indexed.EqualIDs(brute) {
			t.Fatalf("%s: indexed support %v != brute %v", ranker.Name(), indexed, brute)
		}
	}
}
