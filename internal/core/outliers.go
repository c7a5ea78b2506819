package core

import (
	"math"
	"slices"
)

// Ranked pairs a point with its rank R(x, P) within the dataset it was
// ranked against.
type Ranked struct {
	Point Point
	Rank  float64
}

// indexMinPoints is the set size from which ranking batches build a
// spatial index instead of scanning linearly: index construction is
// O(n log n), so tiny sets (the common fixed-point candidate pools) stay
// on the cheaper brute path. It is a variable so package tests can force
// either path.
var indexMinPoints = 64

// rankedBefore is the (rank desc, ≺) order On(P) is reported in: higher
// rank first, and among equal ranks the point lower under ≺. The order is
// total (≺ is, and IDs are distinct).
func rankedBefore(a, b Ranked) bool {
	switch {
	case a.Rank > b.Rank:
		return true
	case a.Rank < b.Rank:
		return false
	}
	return Less(a.Point, b.Point)
}

// rankedPoints strips the rank values.
func rankedPoints(ranked []Ranked) []Point {
	if len(ranked) == 0 {
		return nil
	}
	out := make([]Point, len(ranked))
	for i, rk := range ranked {
		out[i] = rk.Point
	}
	return out
}

// topNSlice is TopN over a duplicate-free point slice.
func topNSlice(r Ranker, pts []Point, n int) []Point {
	return rankedPoints(supporterFor(r, pts).topN(n))
}

// TopN computes On(P): the n points of P with the highest outlier rank
// under r, with ties broken by the fixed total order ≺. When P holds
// fewer than n points, all of them are returned, matching §4.1. The
// result is in (rank desc, ≺) order.
func TopN(r Ranker, set *Set, n int) []Point {
	return rankedPoints(TopNRanked(r, set, n))
}

// TopNRanked is TopN but also reports each outlier's rank value.
func TopNRanked(r Ranker, set *Set, n int) []Ranked {
	return newSupporter(r, set).topN(n)
}

// RankAll ranks every point of P against P \ {x} and returns them all in
// (rank desc, ≺) order. It is the exhaustive computation On(P) is defined
// by — finish every query, sort everything — and exists as the oracle the
// cutoff-pruned TopN is checked against (internal/baseline's centralized
// answer is its prefix); nothing on a detector's event path calls it.
func RankAll(r Ranker, set *Set) []Ranked {
	return newSupporter(r, set).rankAll()
}

// supporter answers repeated rank and smallest-support-set queries
// against one fixed dataset P. It snapshots P once and builds the
// spatial index lazily: a ranking batch (one query per point of P)
// always amortizes the O(n log n) build, so it indexes eagerly, while
// support lookups for a handful of points stay on the O(n) scan unless
// an index already exists or the caller announces enough volume via
// ensureIndex. An earlier version indexed unconditionally, and the
// per-event builds cost more than the scans they replaced.
type supporter struct {
	r   Ranker
	pts []Point
	ir  indexedRanker // nil when r implements only the public Ranker
	ix  *Index        // built lazily, see ensureIndex

	top    []Ranked // memoized topN(topFor) result (the snapshot is immutable)
	topFor int
}

func newSupporter(r Ranker, set *Set) *supporter {
	return supporterFor(r, set.Points())
}

// supporterFor snapshots a duplicate-free point slice; rankers exclude a
// point's own ID themselves, and rank values are insensitive to slice
// order, so callers need not sort.
func supporterFor(r Ranker, pts []Point) *supporter {
	s := &supporter{r: r, pts: pts}
	s.ir, _ = r.(indexedRanker)
	return s
}

// ensureIndex builds the spatial index if the ranker supports one and P
// is large enough; call it only when the upcoming query volume
// amortizes the build.
func (s *supporter) ensureIndex() {
	if s.ir != nil && s.ix == nil && len(s.pts) >= indexMinPoints {
		s.ix = NewIndex(s.pts)
	}
}

// rank is the one ranking query: R(x, P) unless it is provably below
// floor (see indexedRanker.rankBounded). A ranker that implements only the
// public interface cannot be interrupted and always finishes.
func (s *supporter) rank(x Point, floor float64, scratch *bestList) (float64, bool) {
	if s.ir == nil {
		return s.r.Rank(x, s.pts), true
	}
	return s.ir.rankBounded(x, s.pts, s.ix, floor, scratch)
}

// topN computes On(P) with rank values, in (rank desc, ≺) order, without
// ranking everything: it keeps the n best points seen so far and hands the
// n-th best rank to every later query as its floor, so a point that cannot
// displace anything is dropped after a few neighbors (ORCA-style pruning,
// Bay & Schwabacher 2003; sound by anti-monotonicity, see
// indexedRanker.rankBounded). A point that ties the floor is finished and
// placed by ≺, so the result is exactly the first n of rankAll, rank bits
// included. The result is memoized (the snapshot never changes), so a
// supporter cached across events answers repeat estimates for free;
// callers must treat the returned slice as read-only.
func (s *supporter) topN(n int) []Ranked {
	if n > len(s.pts) {
		n = len(s.pts)
	}
	if n <= 0 {
		return nil
	}
	if s.top != nil && s.topFor == n {
		return s.top
	}
	s.ensureIndex()
	top := make([]Ranked, 0, n)
	floor := math.Inf(-1)
	scratch := newBestList(1)
	for _, x := range s.pts {
		rank, ok := s.rank(x, floor, scratch)
		if !ok {
			continue
		}
		cand := Ranked{Point: x, Rank: rank}
		i := len(top)
		if i == n {
			if !rankedBefore(cand, top[n-1]) {
				continue
			}
			i--
		} else {
			top = append(top, Ranked{})
		}
		for ; i > 0 && rankedBefore(cand, top[i-1]); i-- {
			top[i] = top[i-1]
		}
		top[i] = cand
		if len(top) == n {
			floor = top[n-1].Rank
		}
	}
	s.top, s.topFor = top, n
	return top
}

// rankAll is the exhaustive ranking behind RankAll: the same query as
// topN at floor = -Inf for every point — one query per point, so the index
// always pays for itself — then a full sort.
func (s *supporter) rankAll() []Ranked {
	s.ensureIndex()
	ranked := make([]Ranked, len(s.pts))
	scratch := newBestList(1)
	for i, x := range s.pts {
		rank, _ := s.rank(x, math.Inf(-1), scratch)
		ranked[i] = Ranked{Point: x, Rank: rank}
	}
	sortRanked(ranked)
	return ranked
}

// sortRanked orders by descending rank with the ≺ tie-break. The order
// is unique, so the choice of sort is immaterial to the result.
func sortRanked(ranked []Ranked) {
	slices.SortFunc(ranked, func(a, b Ranked) int {
		switch {
		case rankedBefore(a, b):
			return -1
		case rankedBefore(b, a):
			return 1
		default:
			return 0
		}
	})
}

// eachSupport calls fn for every point of [P|x], for each x ∈ q in turn,
// through the index when one has been built.
func (s *supporter) eachSupport(q []Point, fn func(Point)) {
	for _, x := range q {
		var sup []Point
		if s.ix != nil {
			sup = s.ir.supportIndexed(x, s.ix)
		} else {
			sup = s.r.Support(x, s.pts)
		}
		for _, p := range sup {
			fn(p)
		}
	}
}

// supportIndexMinQueries is the support-query batch size from which
// SupportOf builds an index up front.
const supportIndexMinQueries = 16

// SupportOf computes [P|Q] = ∪_{x∈Q} [P|x]: the union of the smallest
// support sets over P of every point in q. Points of q need not belong
// to P; each is ranked against P \ {x} as in the paper's definition
// (rankers exclude a point's own ID themselves).
func SupportOf(r Ranker, set *Set, q []Point) *Set {
	s := newSupporter(r, set)
	if len(q) >= supportIndexMinQueries {
		s.ensureIndex()
	}
	support := NewSet()
	s.eachSupport(q, func(p Point) { support.AddMinHop(p) })
	return support
}

// Sufficient computes a set Z ⊆ P satisfying the paper's Eq. (2) for one
// neighbor link, where shared = D(i→j) ∪ D(j→i) is everything sensor i
// knows it has in common with neighbor j:
//
//	(On(P) ∪ [P|On(P)]) ∪ [P | On(shared ∪ Z)] ⊆ Z
//
// It seeds Z with the local estimate and its support, then iterates
// Z ← Z ∪ [P|On(shared ∪ Z)] to a fixed point, exactly the two steps of
// Algorithm 1's inner loop. Z grows monotonically inside the finite P, so
// the iteration terminates. The result is not guaranteed minimal (nor is
// the paper's).
func Sufficient(r Ranker, set, shared *Set, n int) *Set {
	sup := newSupporter(r, set)
	z := seedFrom(sup, n)
	for _, p := range closeSeed(r, sup, z, ledgers{sent: shared, maxHop: anyHop}, n) {
		z.AddMinHop(p)
	}
	return z
}

// seedFrom computes On(P) ∪ [P|On(P)], the neighbor-independent seed of
// Eq. (2), through one supporter over P — so the ranking batch, the
// support lookups, and the caller's fixed points all share one snapshot
// and at most one spatial index. The detector's per-event reaction and
// the standalone Sufficient both build on this.
func seedFrom(sup *supporter, n int) *Set {
	estimate := rankedPoints(sup.topN(n))
	seed := NewSet(estimate...)
	sup.eachSupport(estimate, func(p Point) { seed.AddMinHop(p) })
	return seed
}

// ledgers is a read-only view of one link's shared ledger
// D(i→j) ∪ D(j→i), min-merged on the hop field and restricted to copies
// that traveled at most maxHop hops (the semi-global D^{≤h} filter; anyHop
// for the global algorithm). The reaction path consults it per neighbor
// per event, so the union is probed, never materialized. Either set may
// be nil.
type ledgers struct {
	sent, recv *Set
	maxHop     uint8
}

// anyHop is the maxHop that admits every copy: the hop field is a uint8.
const anyHop = math.MaxUint8

// minHop returns the smallest hop field among the view's copies of id.
func (l ledgers) minHop(id PointID) (uint8, bool) {
	a, okA := l.sent.Get(id)
	b, okB := l.recv.Get(id)
	if okB && (!okA || b.Hop < a.Hop) {
		a, okA = b, true
	}
	return a.Hop, okA && a.Hop <= l.maxHop
}

func (l ledgers) contains(id PointID) bool {
	_, ok := l.minHop(id)
	return ok
}

// forEach calls fn once per point of the view, in unspecified order, with
// whichever qualifying copy it meets first.
func (l ledgers) forEach(fn func(Point)) {
	l.sent.ForEach(func(p Point) {
		if p.Hop <= l.maxHop {
			fn(p)
		}
	})
	l.recv.ForEach(func(p Point) {
		if q, dup := l.sent.Get(p.ID); p.Hop <= l.maxHop && !(dup && q.Hop <= l.maxHop) {
			fn(p)
		}
	})
}

// closeSeed closes seed = On(P) ∪ [P|On(P)] under the Eq. (2) fixed point
// against one link's shared ledger and returns the points the closure
// added: Z = seed ∪ extra, disjoint. Splitting the seed — and the supporter
// over P — out lets the detector compute both once per event (or reuse them
// across events while the window is unchanged) and share them, unmodified,
// across every neighbor. The candidate pool shared ∪ Z is a duplicate-free
// slice (rank values ignore the hop field, so which copy of a point it
// holds is immaterial) with Z first: Z holds the local outliers, so the
// pool's top-n floor is as high as it will get before the first shared
// point is ranked, and whatever in the ledger has since become an inlier is
// dropped after a few comparisons.
func closeSeed(r Ranker, sup *supporter, seed *Set, shared ledgers, n int) (extra []Point) {
	pool := make([]Point, 0, seed.Len()+shared.sent.Len()+shared.recv.Len())
	seed.ForEach(func(p Point) { pool = append(pool, p) })
	shared.forEach(func(p Point) {
		if !seed.Contains(p.ID) {
			pool = append(pool, p)
		}
	})
	for {
		grew := false
		// [P|x] of a point of On(P) is in seed by construction, and in
		// the steady state On(shared ∪ Z) is On(P): look up the rest.
		approx := slices.DeleteFunc(topNSlice(r, pool, n), func(x Point) bool {
			return slices.ContainsFunc(sup.topN(n), func(rk Ranked) bool { return rk.Point.ID == x.ID })
		})
		sup.eachSupport(approx, func(p Point) {
			if seed.Contains(p.ID) || slices.ContainsFunc(extra, func(q Point) bool { return q.ID == p.ID }) {
				return
			}
			extra = append(extra, p)
			grew = true
			if !shared.contains(p.ID) {
				pool = append(pool, p)
			}
		})
		if !grew {
			return extra
		}
	}
}

// unshared returns Z \ shared for Z = seed ∪ extra, in ID order: what the
// link's peer is owed.
func unshared(seed *Set, extra []Point, shared ledgers) []Point {
	var delta []Point
	owe := func(p Point) {
		if !shared.contains(p.ID) {
			delta = append(delta, p)
		}
	}
	seed.ForEach(owe)
	for _, p := range extra {
		owe(p)
	}
	sortByID(delta)
	return delta
}
