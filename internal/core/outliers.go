package core

import (
	"math"
	"math/bits"
	"slices"
	"time"
)

// Ranked pairs a point with its rank R(x, P) within the dataset it was
// ranked against.
type Ranked struct {
	Point Point
	Rank  float64
}

// indexMinPoints is the set size below which a ranking batch never builds
// a spatial index: construction is O(n log n), and on tiny sets (the common
// fixed-point candidate pools) no query volume wins it back. From this size
// up, when the index is built depends on what the batch knows; see
// supporter.topN. It is a variable so package tests can force either path.
var indexMinPoints = 64

// indexPrice is what an index over n points is worth to a batch that is
// scanning, in the currency the scan spends: candidates visited. A build
// costs about 10 ns a point a level (BenchmarkIndexBuild: 15 µs at 240
// points, 520 µs at 3,200) and a visit about 7 ns, so the build itself is
// ≈ 1.5·n·log₂n visits. The price is twice that, because a query through
// the index is not free either (≈ 30 visits' worth): a scan only starts
// to lose some way after it has spent what the build costs.
func indexPrice(n int) int {
	return 3 * n * bits.Len(uint(n))
}

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

// ranksID reports whether ranked names the point with the given ID.
func ranksID(ranked []Ranked, id PointID) bool {
	return slices.ContainsFunc(ranked, func(rk Ranked) bool { return rk.Point.ID == id })
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

// TopNHinted is TopN over pts — duplicate-free, and in ID order for speed
// (UnionPoints and Set.Points give it) — ranked from hint first: the last
// answer over a dataset like this one, which a query that comes after it
// mostly repeats. The hint is advice, as a detector's previous estimate is
// to its next ranking: points pts does not hold, repeats and points that
// have since become inliers cost time, never correctness, and the result
// is TopN's whatever the hint.
func TopNHinted(r Ranker, pts []Point, n int, hint []Point) []Point {
	return rankedPoints(topNHinted(r, pts, n, hint))
}

// topNHinted is TopNHinted with the rank values.
func topNHinted(r Ranker, pts []Point, n int, hint []Point) []Ranked {
	s := supporterFor(r, pts)
	s.hint = make([]Ranked, len(hint))
	for i, p := range hint {
		s.hint[i].Point = p
	}
	return s.topN(n)
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
// spatial index lazily: the exhaustive ranking (one finished query per
// point of P) always amortizes the O(n log n) build and indexes up front,
// topN decides as it goes (see there), and support lookups for a handful
// of points stay on the O(n) scan unless an index already exists or the
// caller announces enough volume via ensureIndex. An earlier version
// indexed unconditionally, and the per-event builds cost more than the
// scans they replaced.
type supporter struct {
	r   Ranker
	pts []Point // the snapshot, in ID order (see supporterFor)
	ix  *Index  // built lazily, see ensureIndex

	// hint names points topN should rank before the rest: whatever was
	// On(·) the last time something like P was ranked. It is advice, not
	// data — entries P no longer holds, duplicates and points that have
	// since become inliers cost time, never correctness.
	hint []Ranked
	// stats is where the ranking work is counted. Nil counts nothing,
	// which is what keeps a MergeSource's supporter read-only.
	stats *Stats

	// bounds holds, slot for slot with pts, an upper bound on each point's
	// rank that topN need not beat with a scan (see inherit); nil on a
	// supporter that carries nothing — a pool's, a MergeSource's, a one-off
	// TopN's — which then never records one either.
	bounds []rankBound

	// top is the memoized topN(len(top)) result: the snapshot is immutable.
	top []Ranked
}

// rankBound is what one ranking query proved about a point: R(x, W) ≥
// R(x, P′) for every dataset P′ holding x and the witnesses W, whose
// earliest Birth is oldest (see indexedRanker.rankBounded).
type rankBound struct {
	rank   float64
	oldest time.Duration
}

// unbounded is the slot of a point nothing is known about: no floor is
// above +Inf, so topN queries it.
var unbounded = rankBound{rank: math.Inf(1), oldest: noBirth}

func newSupporter(r Ranker, set *Set) *supporter {
	return supporterFor(r, set.Points())
}

// supporterFor snapshots a duplicate-free point slice. Rankers exclude a
// point's own ID themselves and rank values are insensitive to slice
// order, so any order is correct; ID order — what Set.Points and
// candidatePool hand out — is the fast one: every scan starts at its
// query's own slot, where its nearest candidates are, and the hint is
// found by binary search.
func supporterFor(r Ranker, pts []Point) *supporter {
	return &supporter{r: r, pts: pts}
}

// indexed returns the ranker as an indexedRanker, or nil when it implements
// only the public interface. A batch looks it up once; the supporter does
// not keep it, because a detector allocates a supporter per window change
// and every field is paid for there.
func (s *supporter) indexed() indexedRanker {
	ir, _ := s.r.(indexedRanker)
	return ir
}

// inherit gives s — a detector's rebuild of prev over the same window or
// hop stratum after it changed — the rank bounds prev recorded, matched by
// ID in one walk of the two ID-ordered snapshots. A bound is kept only if
// its oldest witness was born at or after cutoff, the window's eviction
// cutoff: points leave P_i (and P≤h, whose hop fields only fall) by
// EvictBefore alone, at a cutoff that never falls, and a PointID names one
// observation, so every witness is then still held, unchanged, and the
// bound still holds by anti-monotonicity. Slots prev did not hold or whose
// bound lost a witness start unbounded, as does every slot when prev is
// nil. A ranker that implements only the public interface reports no
// witnesses, so its supporters carry nothing.
//
// The bounds are written into buf, a buffer no supporter uses, and prev's
// are returned for the next rebuild to write into: a detector replaces a
// supporter, never shares it, so its chains of rebuilds trade buffers and
// allocate none once they have reached their size.
func (s *supporter) inherit(prev *supporter, cutoff time.Duration, buf []rankBound) (spare []rankBound) {
	if s.indexed() == nil {
		return buf
	}
	var old []Point
	var from []rankBound
	if prev != nil {
		old, from = prev.pts, prev.bounds
	}
	// Grown with append's headroom: a window that creeps past the size
	// it last had does not cost a buffer a rebuild.
	buf = slices.Grow(buf[:0], len(s.pts))[:len(s.pts)]
	j := 0
	for i, p := range s.pts {
		for j < len(from) && idLess(old[j].ID, p.ID) {
			j++
		}
		if j < len(from) && old[j].ID == p.ID && from[j].oldest >= cutoff {
			buf[i] = from[j]
		} else {
			buf[i] = unbounded
		}
	}
	s.bounds = buf
	return from
}

// ensureIndex builds the spatial index if the ranker supports one and P
// is large enough; call it only when the upcoming query volume
// amortizes the build.
func (s *supporter) ensureIndex() {
	if s.ix == nil && len(s.pts) >= indexMinPoints && s.indexed() != nil {
		s.ix = NewIndex(s.pts)
		s.stats.indexBuilt()
	}
}

// rank is the one ranking query: R(x, P) for x = pts[i], unless it is
// provably below floor (see indexedRanker.rankBounded); ir is s.indexed().
// A ranker that implements only the public interface cannot be
// interrupted, always finishes and names no witnesses.
func (s *supporter) rank(ir indexedRanker, i int, floor float64, scratch *bestList) (float64, time.Duration, bool) {
	if ir == nil {
		return s.r.Rank(s.pts[i], s.pts), noBirth, true
	}
	return ir.rankBounded(s.pts[i], s.pts, i, s.ix, floor, scratch)
}

// topN computes On(P) with rank values, in (rank desc, ≺) order, without
// ranking everything: it keeps the n best points seen so far and hands the
// n-th best rank to every later query as its floor, so a point that cannot
// displace anything is dropped after a few neighbors (ORCA-style pruning,
// Bay & Schwabacher 2003; sound by anti-monotonicity, see
// indexedRanker.rankBounded). A point that ties the floor is finished and
// placed by ≺, so the result is exactly the first n of rankAll, rank bits
// included, whatever order the points are visited in.
//
// That freedom is spent on the hint: the points it names are ranked first,
// so when the hint is any good — and the previous event's estimate nearly
// always is — the floor is already at its final height before the first
// inlier is looked at. What the rest of P then costs on the plain scan
// depends on the data, not on |P|: a floor far above the bulk (a fault, a
// spike) abandons every inlier after k candidates, cheaper than a tree
// descent reaches its first leaf, while a floor inside the bulk (no real
// outlier) leaves every query looking through much of P for neighbors
// that close. So the index is built by what the batch observes:
//
//   - cold — the hinted pass did not fill the list (no hint, or too few of
//     its points still in P): the coming queries run long whatever the
//     data, and the build pays from indexMinPoints up (256 points: 55 µs
//     indexed, 78 µs scanned; 1,024: 350 against 470–2,000);
//   - warm — scan, and build once the scan has visited as many candidates
//     as the build is worth (indexPrice). A batch the cutoff serves well
//     finishes far below that and never builds; one it serves badly pays
//     the price once on top of the indexed batch, the classic rent-or-buy
//     bound, instead of the scan's quadratic worst case.
//
// A point whose carried bound (see inherit) is strictly below the floor
// cannot be in On(P) and is passed over without a query, by the same
// strict comparison the query would have stopped on; whatever is queried
// records the bound it stopped on, for the supporter that replaces this
// one.
//
// The result is memoized (the snapshot never changes), so a supporter
// cached across events answers repeat estimates for free; callers must
// treat the returned slice as read-only.
func (s *supporter) topN(n int) []Ranked {
	if n > len(s.pts) {
		n = len(s.pts)
	}
	if n <= 0 {
		return nil
	}
	if len(s.top) == n {
		return s.top
	}
	top := make([]Ranked, 0, n)
	floor := math.Inf(-1)
	ir, scratch := s.indexed(), newBestList(1)
	price, abandoned, carried := indexPrice(len(s.pts)), 0, 0
	offer := func(i int) {
		if s.bounds != nil && s.bounds[i].rank < floor {
			carried++
			return
		}
		rank, oldest, ok := s.rank(ir, i, floor, scratch)
		if s.bounds != nil {
			s.bounds[i] = rankBound{rank: rank, oldest: oldest}
		}
		if scratch.visited > price {
			s.ensureIndex()
		}
		if !ok {
			abandoned++
			return
		}
		cand := Ranked{Point: s.pts[i], Rank: rank}
		j := len(top)
		if j == n {
			if !rankedBefore(cand, top[n-1]) {
				return
			}
			j--
		} else {
			top = append(top, Ranked{})
		}
		for ; j > 0 && rankedBefore(cand, top[j-1]); j-- {
			top[j] = top[j-1]
		}
		top[j] = cand
		if len(top) == n {
			floor = top[n-1].Rank
		}
	}

	// Where the snapshot holds the hinted points: ascending positions,
	// each at most once however often the hint repeats an ID (n is small;
	// the first eight stay on the stack).
	lead := make([]int, 0, 8)
	for _, h := range s.hint {
		if i, held := slotOf(s.pts, h.Point.ID); held {
			if at, dup := slices.BinarySearch(lead, i); !dup {
				lead = slices.Insert(lead, at, i)
			}
		}
	}
	for _, i := range lead {
		offer(i)
	}
	if len(top) < n {
		s.ensureIndex()
	}
	for i := range s.pts {
		if len(lead) > 0 && lead[0] == i {
			lead = lead[1:]
			continue
		}
		offer(i)
	}
	s.stats.ranked(len(s.pts), abandoned, carried, scratch.visited)
	s.top = top
	return top
}

// rankAll is the exhaustive ranking behind RankAll: the same query as
// topN at floor = -Inf for every point — one query per point, so the index
// always pays for itself — then a full sort.
func (s *supporter) rankAll() []Ranked {
	s.ensureIndex()
	ranked := make([]Ranked, len(s.pts))
	ir, scratch := s.indexed(), newBestList(1)
	for i, x := range s.pts {
		rank, _, _ := s.rank(ir, i, math.Inf(-1), scratch)
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
	ir := s.indexed()
	for _, x := range q {
		var sup []Point
		if s.ix != nil {
			sup = ir.supportIndexed(x, s.ix)
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
	st := newStratum(newSupporter(r, set), n)
	z := st.seed
	for _, p := range closeSeed(&st, ledgers{sent: shared, maxHop: anyHop}, n, nil) {
		z.AddMinHop(p)
	}
	return z
}

// stratum is one dataset the Eq. (2) reaction runs over — P_i itself under
// Algorithm 1, a hop stratum P≤h under Algorithm 2, a MergeSource's
// snapshot — as the supporter over it and its neighbor-independent seed
// On(P) ∪ [P|On(P)]. One supporter serves the ranking batch, the support
// lookups and every link's fixed point, so they share one snapshot and at
// most one spatial index.
type stratum struct {
	sup  *supporter
	seed *Set

	// gen names the seed's ID set across rebuilds: a detector that
	// re-derives a stratum after a window change carries gen over when the
	// new seed holds the same IDs and advances it otherwise, so a link can
	// tell "same seed as last time" with one comparison (see linkMemo).
	gen uint64
}

// newStratum ranks P through sup and derives the seed; gen starts at zero.
func newStratum(sup *supporter, n int) stratum {
	estimate := rankedPoints(sup.topN(n))
	seed := NewSet(estimate...)
	sup.eachSupport(estimate, func(p Point) { seed.AddMinHop(p) })
	return stratum{sup: sup, seed: seed}
}

// ledgers is a read-only view of one link's shared ledger
// D(i→j) ∪ D(j→i), min-merged on the hop field and restricted to copies
// that traveled at most maxHop hops (the semi-global D^{≤h} filter; anyHop
// for the global algorithm). The reaction path consults it per neighbor
// per event, so the union is probed or walked, never materialized. Either
// set may be nil.
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

// linkMemo is what one link remembers from one event to the next:
// On(seed ∪ shared), the ranking closeSeed's first iteration computes,
// together with the three things it is a function of — the seed's ID set
// (stratum.gen) and the content of the two ledgers (Set.Version, which
// every insert, hop change and removal advances). A PointID names one
// observation, so equal ID sets are equal candidate pools; rank values
// ignore the hop field; and the hop cutoff of the ledger view is fixed per
// memo (a link keeps one per stratum). While all three stand the ranking
// would come out bit for bit the same, so it is not repeated. A memo dies
// with its link: a neighbor that leaves and returns gets fresh ledgers and
// a fresh memo.
type linkMemo struct {
	top          []Point // On(seed ∪ shared); nil before the first ranking
	gen          uint64
	sentV, recvV uint64
}

// holds reports whether the remembered ranking is still the ranking of
// seed generation gen against shared. A nil memo remembers nothing.
func (m *linkMemo) holds(gen uint64, shared ledgers) bool {
	return m != nil && m.top != nil && m.gen == gen &&
		m.sentV == shared.sent.Version() && m.recvV == shared.recv.Version()
}

// closeSeed closes st.seed = On(P) ∪ [P|On(P)] under the Eq. (2) fixed
// point against one link's shared ledger and returns the points the closure
// added, in ID order: Z = seed ∪ extra, disjoint. Splitting the seed — and
// the supporter over P — out lets the detector compute both once per event
// (or reuse them across events while the window is unchanged) and share
// them, unmodified, across every neighbor.
//
// Each iteration ranks the candidate pool shared ∪ Z, a duplicate-free
// slice kept in ID order (rank values ignore the hop field, so which copy
// of a point it holds is immaterial), with On(P) as the hint: in the steady
// state On(shared ∪ Z) is On(P), so the pool's floor is final after n
// queries and whatever in the ledger has since become an inlier is dropped
// after a few comparisons. The first iteration's ranking is what memo
// keeps; when it still holds, the pool is not even assembled unless the
// closure goes on to grow. A nil memo (Sufficient, MergeSource.Delta)
// remembers nothing and is never written, which is what lets concurrent
// sessions share a source.
func closeSeed(st *stratum, shared ledgers, n int, memo *linkMemo) (extra []Point) {
	sup, seed := st.sup, st.seed
	estimate := sup.topN(n)
	var pool []Point
	for first := true; ; first = false {
		var top []Point
		if first && memo.holds(st.gen, shared) {
			top = memo.top
			sup.stats.memo(true)
		} else {
			if pool == nil {
				pool = candidatePool(seed, extra, shared)
			}
			ranking := supporterFor(sup.r, pool)
			ranking.hint, ranking.stats = estimate, sup.stats
			top = rankedPoints(ranking.topN(n))
			if first && memo != nil {
				*memo = linkMemo{top: top, gen: st.gen, sentV: shared.sent.Version(), recvV: shared.recv.Version()}
				sup.stats.memo(false)
			}
		}
		// [P|x] of a point of On(P) is in seed by construction, and in the
		// steady state On(shared ∪ Z) is On(P): look up the rest.
		var approx []Point
		for _, x := range top {
			if !ranksID(estimate, x.ID) {
				approx = append(approx, x)
			}
		}
		grew := false
		sup.eachSupport(approx, func(p Point) {
			at, dup := slotOf(extra, p.ID)
			if dup || seed.Contains(p.ID) {
				return
			}
			extra = slices.Insert(extra, at, p)
			grew = true
			if pool != nil && !shared.contains(p.ID) {
				at, _ := slotOf(pool, p.ID)
				pool = slices.Insert(pool, at, p)
			}
		})
		if !grew {
			return extra
		}
	}
}

// candidatePool assembles shared ∪ Z for Z = seed ∪ extra (disjoint) as a
// duplicate-free slice in ID order: one merge of four ID-ordered walks —
// the seed, extra, and the two ledgers under the view's hop cutoff — that
// keeps the first copy of every ID.
func candidatePool(seed *Set, extra []Point, shared ledgers) []Point {
	pool := make([]Point, 0, seed.Len()+len(extra)+shared.sent.Len()+shared.recv.Len())
	mergeByID([]cursor{
		seed.cursor(anyHop),
		{pts: extra, maxHop: anyHop},
		shared.sent.cursor(shared.maxHop),
		shared.recv.cursor(shared.maxHop),
	}, false, func(p Point) { pool = append(pool, p) })
	return pool
}

// unshared returns Z \ shared for Z = seed ∪ extra, in ID order: what the
// link's peer is owed.
func unshared(seed *Set, extra []Point, shared ledgers) []Point {
	var delta []Point
	mergeByID([]cursor{seed.cursor(anyHop), {pts: extra, maxHop: anyHop}}, false, func(p Point) {
		if !shared.contains(p.ID) {
			delta = append(delta, p)
		}
	})
	return delta
}
