package core

import (
	"cmp"
	"math/bits"
	"slices"
)

// Index is a static spatial index over a snapshot of points: a bucketed
// k-d tree (internal nodes split the widest feature axis at the median,
// leaves hold small buckets that are scanned linearly, so the structure
// behaves like an adaptive grid near the bottom). It answers the two
// neighbor queries every ranker in this package is built from —
// k-nearest (KNN, KthNN) and fixed-radius (CountWithin) — in
// O(log n + k) expected time instead of the O(n) scan.
//
// Construction never moves Point structs: the tree orders an int32
// permutation over a flat, zero-padded coordinate matrix, which keeps the
// build allocation-light and free of write barriers (sorting []Point
// directly costs ~70 bytes of typedmemmove per swap and dominated the
// profile of an earlier version).
//
// Correctness contract: queries return exactly what the brute-force scan
// over the same snapshot returns, including ties. Candidate selection
// goes through the same bestList comparator as kNearest ((distance², ≺),
// a total order — so the order candidates are visited in cannot matter),
// actual distances are computed with the same Point.dist2, and tree
// pruning is conservative at equal distance (a subtree whose best
// possible distance ties the current bound is still visited, because a
// point there can win the tie under ≺). The index never prunes by
// feature dimensions it did not see at build time: splitting planes only
// exist for axes < dims, and any query coordinate beyond that
// contributes through dist2 directly. Points of mixed dimension are
// handled by the same implicit zero-padding as Point.Dist.
//
// An Index is immutable after construction and safe for concurrent use.
type Index struct {
	pts    []Point   // snapshot (caller order, never reordered)
	order  []int32   // tree-ordered permutation of pts indices
	coords []float64 // zero-padded n×dims coordinate matrix
	nodes  []kdNode  // nodes[0] is the root when len(pts) > 0
	dims   int       // max feature dimension seen at build time
}

// kdNode is one tree node covering order[lo:hi). Leaves have left < 0.
type kdNode struct {
	lo, hi      int32
	left, right int32   // child node indices, -1 for leaves
	axis        int32   // split axis (internal nodes)
	split       float64 // split coordinate (internal nodes)
}

// indexLeafSize is the bucket size below which subtrees stay linear; the
// bounded-insertion scan beats tree bookkeeping on buckets this small.
const indexLeafSize = 16

// NewIndex builds an index over a copy of pts; the input slice is not
// modified and later mutation of it does not affect the index.
func NewIndex(pts []Point) *Index {
	ix := &Index{pts: make([]Point, len(pts))}
	copy(ix.pts, pts)
	for _, p := range ix.pts {
		if len(p.Value) > ix.dims {
			ix.dims = len(p.Value)
		}
	}
	n := len(ix.pts)
	if n == 0 {
		return ix
	}
	ix.coords = make([]float64, n*ix.dims)
	for i, p := range ix.pts {
		copy(ix.coords[i*ix.dims:(i+1)*ix.dims], p.Value)
	}
	ix.order = make([]int32, n)
	for i := range ix.order {
		ix.order[i] = int32(i)
	}
	ix.build(0, int32(n))
	return ix
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return len(ix.pts) }

// at returns the zero-padded coordinate d of point i.
func (ix *Index) at(i int32, d int32) float64 {
	return ix.coords[int(i)*ix.dims+int(d)]
}

// build constructs the subtree over order[lo:hi) and returns its index.
func (ix *Index) build(lo, hi int32) int32 {
	id := int32(len(ix.nodes))
	ix.nodes = append(ix.nodes, kdNode{lo: lo, hi: hi, left: -1, right: -1})
	if hi-lo <= indexLeafSize {
		return id
	}
	// Split the axis with the widest spread at the median.
	axis, spread := int32(0), -1.0
	for d := int32(0); d < int32(ix.dims); d++ {
		min, max := ix.at(ix.order[lo], d), ix.at(ix.order[lo], d)
		for _, i := range ix.order[lo+1 : hi] {
			c := ix.at(i, d)
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if s := max - min; s > spread {
			axis, spread = d, s
		}
	}
	if spread <= 0 {
		// All points coincide on every axis; a split cannot separate
		// anything, so keep an oversized leaf (duplicate-heavy inputs).
		return id
	}
	mid := lo + (hi-lo)/2
	ix.selectNth(ix.order[lo:hi], int(mid-lo), axis)
	// Points equal to the median coordinate may sit on both sides; the
	// search handles that by pruning on plane distance, not membership.
	ix.nodes[id].axis = axis
	ix.nodes[id].split = ix.at(ix.order[mid], axis)
	left := ix.build(lo, mid)
	right := ix.build(mid, hi)
	ix.nodes[id].left = left
	ix.nodes[id].right = right
	return id
}

// selectNth partially orders sub by coordinate on axis: sub[nth] ends up
// holding the element a full sort would put there, nothing before it has a
// larger coordinate and nothing after it a smaller one — all a median
// split needs, in expected linear time where the sort it replaces was
// O(n log n) at every level. Quickselect with a median-of-three pivot and
// Hoare's partition (which splits runs of equal coordinates evenly); a
// range that keeps partitioning badly is sorted outright, so the worst
// case stays O(n log n). Which of several points with the median's
// coordinate land on which side depends on the input order, as it did with
// the sort: queries are indifferent to it by the total-order contract.
func (ix *Index) selectNth(sub []int32, nth int, axis int32) {
	lo, hi := 0, len(sub)-1
	for limit := 2 * bits.Len(uint(len(sub))); lo < hi; limit-- {
		if limit == 0 {
			slices.SortFunc(sub[lo:hi+1], func(a, b int32) int {
				return cmp.Compare(ix.at(a, axis), ix.at(b, axis))
			})
			return
		}
		a, b, c := ix.at(sub[lo], axis), ix.at(sub[lo+(hi-lo)/2], axis), ix.at(sub[hi], axis)
		pivot := max(min(a, b), min(max(a, b), c)) // median of three
		i, j := lo, hi
		for i <= j {
			for ix.at(sub[i], axis) < pivot {
				i++
			}
			for ix.at(sub[j], axis) > pivot {
				j--
			}
			if i <= j {
				sub[i], sub[j] = sub[j], sub[i]
				i++
				j--
			}
		}
		// sub[lo..j] ≤ pivot ≤ sub[i..hi], and anything between is the pivot.
		switch {
		case nth <= j:
			hi = j
		case nth >= i:
			lo = i
		default:
			return
		}
	}
}

// KNearest returns the k indexed points nearest to x under the
// (distance, ≺) order, excluding any point carrying x's own ID — exactly
// kNearest(x, snapshot, k).
func (ix *Index) KNearest(x Point, k int) []Point {
	best := newBestList(k)
	if k > 0 && len(ix.pts) > 0 {
		ix.knn(0, x, best)
	}
	return best.points()
}

// knn runs the k-nearest traversal of the subtree at node into best and
// reports false if the query was abandoned (see bestList.abandoned); the
// abort unwinds the recursion without visiting anything further.
func (ix *Index) knn(node int32, x Point, best *bestList) bool {
	n := &ix.nodes[node]
	if n.left < 0 {
		// Pre-filtering on the current bound skips the consider call —
		// and its tie-break logic — for the overwhelming majority of
		// candidates. Candidates at d2 == bound still go through
		// consider, which resolves the tie by ≺ exactly as the brute
		// scan does.
		bound := best.bound()
		for _, i := range ix.order[n.lo:n.hi] {
			p := &ix.pts[i]
			if p.ID == x.ID {
				continue
			}
			if d2 := x.dist2(*p); d2 <= bound {
				best.consider(d2, p)
				if best.abandoned() {
					return false
				}
				bound = best.bound()
			}
		}
		return true
	}
	d := coordOf(x, n.axis) - n.split
	near, far := n.left, n.right
	if d > 0 {
		near, far = far, near
	}
	if !ix.knn(near, x, best) {
		return false
	}
	// A far-side point is at least |d| from x along the split axis. At
	// exactly the bound it can still win a tie by ≺, hence <=.
	if d*d <= best.bound() {
		return ix.knn(far, x, best)
	}
	return true
}

// coordOf returns the query point's coordinate under the zero-padding
// convention Point.dist2 uses for mixed dimensions.
func coordOf(x Point, d int32) float64 {
	if int(d) < len(x.Value) {
		return x.Value[d]
	}
	return 0
}

// WithinCount returns |{p : dist(x, p) ≤ alpha}| over the indexed points,
// excluding x's own ID — the count CountWithin.Rank is defined on.
func (ix *Index) WithinCount(x Point, alpha float64) int {
	if len(ix.pts) == 0 || alpha < 0 {
		return 0
	}
	count := 0
	ix.within(0, x, alpha*alpha, func(*Point, float64) bool { count++; return true })
	return count
}

// Within returns the indexed points with dist(x, p) ≤ alpha, excluding
// x's own ID, in (distance, ≺) order.
func (ix *Index) Within(x Point, alpha float64) []Point {
	if len(ix.pts) == 0 || alpha < 0 {
		return nil
	}
	var hits []distPoint
	ix.within(0, x, alpha*alpha, func(p *Point, d2 float64) bool {
		hits = append(hits, distPoint{d2: d2, p: p})
		return true
	})
	slices.SortFunc(hits, func(a, b distPoint) int {
		switch {
		case closer(a.d2, a.p, b):
			return -1
		case closer(b.d2, b.p, a):
			return 1
		default:
			return 0
		}
	})
	out := make([]Point, len(hits))
	for i, h := range hits {
		out[i] = *h.p
	}
	return out
}

// within offers every point of the subtree at node within squared
// distance a2 of x to emit, stopping — and reporting false — as soon as
// emit does.
func (ix *Index) within(node int32, x Point, a2 float64, emit func(*Point, float64) bool) bool {
	n := &ix.nodes[node]
	if n.left < 0 {
		for _, i := range ix.order[n.lo:n.hi] {
			p := &ix.pts[i]
			if p.ID == x.ID {
				continue
			}
			if d2 := x.dist2(*p); d2 <= a2 && !emit(p, d2) {
				return false
			}
		}
		return true
	}
	d := coordOf(x, n.axis) - n.split
	near, far := n.left, n.right
	if d > 0 {
		near, far = far, near
	}
	if !ix.within(near, x, a2, emit) {
		return false
	}
	// Points at exactly radius alpha qualify (≤), hence <=.
	if d*d <= a2 {
		return ix.within(far, x, a2, emit)
	}
	return true
}
