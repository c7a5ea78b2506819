package core

import (
	"fmt"
	"math"
	"slices"
)

// Ranker is the paper's outlier ranking function R. Rank maps a point x
// and a finite dataset to a non-negative real indicating the degree to
// which x is an outlier with respect to that dataset; larger means more
// outlying. Support returns the smallest support set [P|x]: the unique
// minimal subset Q of the neighbors such that R(x, Q) = R(x, P), with
// uniqueness obtained from the ≺ tie-break order (see Less).
//
// The neighbors argument need not exclude x: callers may pass all of P,
// and implementations skip any entry carrying x's own ID, ranking x against
// P \ {x}. Both methods must treat neighbors as read-only, and neither may
// depend on the order of the slice: R is a function of a set. The package
// passes P in ID order, the order a Set holds it in, and its own rankers
// use that order for speed alone — a query's nearest candidates tend to sit
// next to its own slot — so any other order gives the same result. An
// implementation whose floating-point result could vary with the order it
// adds things up in must fix that order itself, as the rankers here do by
// accumulating over the (distance, ≺)-sorted nearest list.
//
// Implementations must satisfy the paper's two axioms:
//
//	anti-monotonicity: Q1 ⊆ Q2 ⇒ R(x, Q1) ≥ R(x, Q2)
//	smoothness:        R(x, Q1) > R(x, Q2) with Q1 ⊆ Q2 ⇒
//	                   ∃ z ∈ Q2\Q1 with R(x, Q1) > R(x, Q1 ∪ {z})
//
// All rankers in this package satisfy both (LOF, famously, does not, and
// is deliberately not provided).
type Ranker interface {
	// Name returns a short identifier used in experiment labels.
	Name() string
	// Rank returns R(x, neighbors ∪ {x}).
	Rank(x Point, neighbors []Point) float64
	// Support returns the smallest support set [P|x] as a subset of
	// neighbors.
	Support(x Point, neighbors []Point) []Point
}

// indexedRanker is implemented by rankers built on neighbor queries, which
// can be served by a spatial Index instead of a linear scan and abandoned
// early once the answer can no longer matter.
//
// rankBounded computes R(x, pts ∪ {x}) — through ix when it is non-nil, in
// which case ix indexes exactly pts, and otherwise by a linear scan of pts
// that starts at slot at (x's own, or where x's ID would go) and works
// outward — unless the point cannot reach floor: by anti-monotonicity the
// rank over the neighbors seen so far is an upper bound on the final rank,
// and as soon as that bound is strictly below floor the query stops and
// reports ok=false. A point whose rank equals floor is always finished, so
// ties at the floor stay with ≺. The bound is the rank formula itself
// applied to the nearest list so far (never before the list is full, which
// leaves the MissingNeighborPenalty regime alone), so a surviving point's
// rank comes from the same arithmetic whatever the floor and wherever the
// scan starts, and floor = -Inf is the exhaustive query. Both paths return
// bit-identical ranks; supportIndexed returns the same support points as
// Support. The batch entry points (supporter, SupportOf) are the callers.
//
// scratch is a bestList owned by the calling batch so the per-point hot
// loop allocates nothing; implementations that do not need one ignore it.
type indexedRanker interface {
	Ranker
	rankBounded(x Point, pts []Point, at int, ix *Index, floor float64, scratch *bestList) (rank float64, ok bool)
	supportIndexed(x Point, ix *Index) []Point
}

// Compile-time interface compliance checks.
var (
	_ indexedRanker = KNN{}
	_ indexedRanker = KthNN{}
	_ indexedRanker = CountWithin{}
)

// MissingNeighborPenalty is the distance charged for each neighbor a
// k-nearest-neighbor ranker wants but the dataset cannot supply. Using a
// huge finite penalty instead of +Inf keeps both of the paper's axioms
// intact on small datasets: a point with too few neighbors is maximally
// outlying, and every additional neighbor strictly lowers its rank
// (smoothness), which +Inf would violate. Feature-space distances must be
// far below this constant; any realistic sensor data is.
const MissingNeighborPenalty = 1e15

// KNN ranks a point by the average distance to its K nearest neighbors
// (Angiulli & Pizzuti). With K = 1 it degenerates to the distance to the
// nearest neighbor, the paper's "NN" configuration. Each missing neighbor
// (when the dataset holds fewer than K) is charged MissingNeighborPenalty.
type KNN struct {
	// K is the number of nearest neighbors averaged over. The zero
	// value is treated as 1.
	K int
}

// NN returns the paper's "NN" ranking function: distance to the single
// nearest neighbor.
func NN() KNN { return KNN{K: 1} }

func (r KNN) k() int {
	if r.K < 1 {
		return 1
	}
	return r.K
}

// Name implements Ranker.
func (r KNN) Name() string {
	if r.k() == 1 {
		return "NN"
	}
	return fmt.Sprintf("KNN%d", r.k())
}

// Rank implements Ranker: the average distance to the k nearest
// neighbors, with missing neighbors charged MissingNeighborPenalty.
func (r KNN) Rank(x Point, neighbors []Point) float64 {
	at, _ := slotOf(neighbors, x.ID)
	rank, _ := r.rankBounded(x, neighbors, at, nil, math.Inf(-1), newBestList(r.k()))
	return rank
}

// Support implements Ranker: the k nearest neighbors themselves (all of
// the neighbors when fewer than k exist, since every point then
// constrains the penalized rank).
func (r KNN) Support(x Point, neighbors []Point) []Point {
	return kNearest(x, neighbors, r.k())
}

func (r KNN) rankBounded(x Point, pts []Point, at int, ix *Index, floor float64, scratch *bestList) (float64, bool) {
	return scratch.rankBounded(x, pts, at, ix, r.k(), meanOfNearest, floor)
}

func (r KNN) supportIndexed(x Point, ix *Index) []Point {
	return ix.KNearest(x, r.k())
}

// KthNN ranks a point by the distance to its K-th nearest neighbor
// (Ramaswamy, Rastogi & Shim); missing neighbors are charged
// MissingNeighborPenalty each. Its smallest support set is the full set
// of K nearest neighbors: dropping any of the closer ones would promote a
// farther point into the k-th slot and change the rank.
type KthNN struct {
	// K selects which nearest neighbor's distance is the rank. The
	// zero value is treated as 1.
	K int
}

func (r KthNN) k() int {
	if r.K < 1 {
		return 1
	}
	return r.K
}

// Name implements Ranker.
func (r KthNN) Name() string { return fmt.Sprintf("%dthNN", r.k()) }

// Rank implements Ranker: distance to the k-th nearest neighbor, with a
// MissingNeighborPenalty charge per missing neighbor so that every added
// point strictly lowers an undersupplied rank (smoothness).
func (r KthNN) Rank(x Point, neighbors []Point) float64 {
	at, _ := slotOf(neighbors, x.ID)
	rank, _ := r.rankBounded(x, neighbors, at, nil, math.Inf(-1), newBestList(r.k()))
	return rank
}

// Support implements Ranker.
func (r KthNN) Support(x Point, neighbors []Point) []Point {
	return kNearest(x, neighbors, r.k())
}

func (r KthNN) rankBounded(x Point, pts []Point, at int, ix *Index, floor float64, scratch *bestList) (float64, bool) {
	return scratch.rankBounded(x, pts, at, ix, r.k(), kthNearest, floor)
}

func (r KthNN) supportIndexed(x Point, ix *Index) []Point {
	return ix.KNearest(x, r.k())
}

// CountWithin ranks a point by the inverse of the number of neighbors
// within distance Alpha (Knorr & Ng's DB(α) outliers): R = 1/(1+c) where
// c = |{p : dist(x,p) ≤ α}|. Fewer close neighbors ⇒ higher rank.
// The smallest support set is exactly the neighbors within α — removing
// any of them changes the count and hence the rank.
type CountWithin struct {
	// Alpha is the neighborhood radius.
	Alpha float64
}

// Name implements Ranker.
func (r CountWithin) Name() string { return fmt.Sprintf("DB(%g)", r.Alpha) }

// Rank implements Ranker.
func (r CountWithin) Rank(x Point, neighbors []Point) float64 {
	at, _ := slotOf(neighbors, x.ID)
	rank, _ := r.rankBounded(x, neighbors, at, nil, math.Inf(-1), nil)
	return rank
}

// rankBounded counts the neighbors within Alpha; every one found lowers
// the bound 1/(1+count so far), which is the rank formula on that count.
func (r CountWithin) rankBounded(x Point, pts []Point, at int, ix *Index, floor float64, scratch *bestList) (float64, bool) {
	a2 := r.Alpha * r.Alpha
	count := 0
	more := func() bool {
		count++
		return 1/float64(1+count) >= floor
	}
	if ix != nil {
		// A negative radius admits nothing on the index path, as ever.
		if r.Alpha >= 0 && len(ix.pts) > 0 &&
			!ix.within(0, x, a2, func(*Point, float64) bool { return more() }) {
			return 0, false
		}
		return 1 / float64(1+count), true
	}
	w := newOutward(at, len(pts))
	for i := w.next(); i >= 0; i = w.next() {
		if p := &pts[i]; p.ID != x.ID && x.dist2(*p) <= a2 && !more() {
			scratch.visit(w.visited())
			return 0, false
		}
	}
	scratch.visit(len(pts))
	return 1 / float64(1+count), true
}

// Support implements Ranker.
func (r CountWithin) Support(x Point, neighbors []Point) []Point {
	a2 := r.Alpha * r.Alpha
	var within []Point
	for _, p := range neighbors {
		if p.ID != x.ID && x.dist2(p) <= a2 {
			within = append(within, p)
		}
	}
	return within
}

// supportIndexed returns the same point set as Support; the order differs
// (the index reports (distance, ≺) order, the scan reports input order),
// which is immaterial to every consumer — support sets are unioned into a
// Set immediately.
func (r CountWithin) supportIndexed(x Point, ix *Index) []Point {
	return ix.Within(x, r.Alpha)
}

// distPoint pairs a candidate with its squared distance to the query. The
// candidate is referenced where it lies in the caller's snapshot: the
// selection loops shuffle these entries constantly, and 16 bytes move
// faster than a Point.
type distPoint struct {
	d2 float64
	p  *Point
}

// nnRank selects how a k-nearest-neighbor ranker turns its nearest list
// into a rank.
type nnRank uint8

const (
	meanOfNearest nnRank = iota // KNN: mean distance to the k nearest
	kthNearest                  // KthNN: distance to the k-th nearest
)

// bestList selects the k candidates nearest a query point under the total
// (distance², ≺) order, by bounded insertion. It is shared by the brute
// linear scan (scan) and the spatial index (Index.knn) so that both produce
// identical results for identical candidate multisets — the order
// candidates are offered in does not affect the outcome because the
// comparison order is total. It also carries the rank formula and the floor
// of the query it serves, so both traversals abandon a query by the same
// rule (see abandoned).
type bestList struct {
	k     int
	kind  nnRank
	floor float64
	best  []distPoint

	// visited counts the candidates the linear scans of the batch this
	// list serves have looked at; reset leaves it alone. It is how
	// supporter.topN knows what its scanning has cost so far, and what
	// Stats.RankVisits adds up.
	visited int
}

// newBestList returns a list that keeps k candidates and never abandons.
func newBestList(k int) *bestList {
	return &bestList{k: k, floor: math.Inf(-1), best: make([]distPoint, 0, k)}
}

// reset empties the list and retargets it to a new query, keeping the
// backing array so batch queries reuse one allocation.
func (b *bestList) reset(k int, kind nnRank, floor float64) {
	b.k, b.kind, b.floor = k, kind, floor
	b.best = b.best[:0]
}

// rank turns the (distance², ≺)-ordered list into the rank: each of the
// neighbors the dataset could not supply is charged MissingNeighborPenalty.
// math.Sqrt(d2) is bit-identical to Point.Dist for the same pair. Every
// rank a k-nearest-neighbor ranker reports, and every bound it abandons a
// query on, comes from this one accumulation.
func (b *bestList) rank() float64 {
	rank := float64(b.k-len(b.best)) * MissingNeighborPenalty
	if b.kind == kthNearest {
		if len(b.best) > 0 {
			rank += math.Sqrt(b.best[len(b.best)-1].d2)
		}
		return rank
	}
	for _, dp := range b.best {
		rank += math.Sqrt(dp.d2)
	}
	return rank / float64(b.k)
}

// abandoned reports whether the query can stop: the list is full and the
// rank of what it holds — an upper bound on the final rank, because every
// later candidate can only replace an entry with a closer one, and sqrt,
// float addition and division are monotone — is strictly below the floor.
func (b *bestList) abandoned() bool {
	return len(b.best) == b.k && b.rank() < b.floor
}

// rankBounded is indexedRanker.rankBounded for the k-nearest-neighbor
// rankers.
func (b *bestList) rankBounded(x Point, pts []Point, at int, ix *Index, k int, kind nnRank, floor float64) (float64, bool) {
	b.reset(k, kind, floor)
	if ix != nil {
		if len(ix.pts) > 0 && !ix.knn(0, x, b) {
			return 0, false
		}
	} else if !b.scan(x, pts, at) {
		return 0, false
	}
	return b.rank(), true
}

// closer reports whether candidate (d2, p) precedes `than` in the
// (distance², ≺) order.
func closer(d2 float64, p *Point, than distPoint) bool {
	if d2 != than.d2 {
		return d2 < than.d2
	}
	return Less(*p, *than.p)
}

// consider offers one candidate at squared distance d2.
func (b *bestList) consider(d2 float64, p *Point) {
	if len(b.best) == b.k && !closer(d2, p, b.best[b.k-1]) {
		return
	}
	i := len(b.best)
	if i < b.k {
		b.best = append(b.best, distPoint{})
	} else {
		i = b.k - 1
	}
	for i > 0 && closer(d2, p, b.best[i-1]) {
		b.best[i] = b.best[i-1]
		i--
	}
	b.best[i] = distPoint{d2: d2, p: p}
}

// bound returns the squared distance a new candidate must not exceed to
// possibly enter the list, or +Inf while the list is not yet full. A
// candidate at exactly the bound can still win its tie by ≺, so pruning
// against bound must be strict (prune only when d2 > bound).
func (b *bestList) bound() float64 {
	if len(b.best) < b.k {
		return math.Inf(1)
	}
	return b.best[b.k-1].d2
}

// points extracts the selected points in (distance², ≺) order.
func (b *bestList) points() []Point {
	out := make([]Point, len(b.best))
	for i, dp := range b.best {
		out[i] = *dp.p
	}
	return out
}

// scan offers every candidate to the list, skipping any that carries x's
// own ID (so callers may pass sets that still contain x), and reports false
// if the query was abandoned. It starts at slot at and works outward, so in
// an ID-ordered snapshot the nearest candidates come first and the cutoff
// stops an inlier within a few visits. Pre-filtering on the current bound
// skips the consider call — and its tie-break logic — for the overwhelming
// majority of candidates; one at d2 == bound still goes through consider,
// which resolves the tie by ≺. Selection is O(n·k) by bounded insertion
// over squared distances, which beats a full sort (and all the square
// roots) for the small k the rankers use.
func (b *bestList) scan(x Point, candidates []Point, at int) bool {
	bound := b.bound()
	w := newOutward(at, len(candidates))
	for i := w.next(); i >= 0; i = w.next() {
		p := &candidates[i]
		if p.ID == x.ID {
			continue
		}
		if d2 := x.dist2(*p); d2 <= bound {
			b.consider(d2, p)
			if b.abandoned() {
				b.visited += w.visited()
				return false
			}
			bound = b.bound()
		}
	}
	b.visited += len(candidates)
	return true
}

// visit records n candidates looked at by a scan that does not go through
// the list itself (CountWithin's). A nil list — a single query outside any
// batch — keeps no count.
func (b *bestList) visit(n int) {
	if b != nil {
		b.visited += n
	}
}

// outward visits each slot of an n-slot slice once, from slot at outward:
// at, at+1, at−1, at+2, at−2, … A sensor's readings share its X,Y and
// neighbouring sensors have neighbouring IDs, so in an ID-ordered snapshot
// a query's nearest candidates sit around its own slot, and the cutoff
// prunes best when they come first (Bay & Schwabacher 2003). The order is
// a matter of speed only: every slot is visited either way.
type outward struct{ at, lo, hi, n int }

func newOutward(at, n int) outward { return outward{at: at, lo: at - 1, hi: at, n: n} }

// next returns the next slot, or -1 once every slot has been visited.
func (w *outward) next() int {
	if w.hi < w.n && (w.lo < 0 || w.hi-w.at <= w.at-w.lo) {
		w.hi++
		return w.hi - 1
	}
	if w.lo >= 0 {
		w.lo--
		return w.lo + 1
	}
	return -1
}

// visited returns how many slots next has returned so far.
func (w *outward) visited() int { return w.hi - w.lo - 1 }

// slotOf returns where id sits in pts, or where it would go, and whether
// it is there: the slot a scan for that point starts from. pts is expected
// in ID order; in any other order the slot returned is still in range, and
// only the speed of the scan suffers.
func slotOf(pts []Point, id PointID) (int, bool) {
	return slices.BinarySearchFunc(pts, id, func(p Point, id PointID) int { return idCompare(p.ID, id) })
}

// kNearest returns the k points of candidates nearest to x, ties broken
// by ≺, in (distance, ≺) order; for large sets the package routes batched
// queries through Index instead.
func kNearest(x Point, candidates []Point, k int) []Point {
	best := newBestList(k)
	at, _ := slotOf(candidates, x.ID)
	best.scan(x, candidates, at)
	return best.points()
}
