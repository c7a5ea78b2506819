package core

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"time"
)

// Set is a collection of points keyed by PointID, held in ID order. The
// zero value is not ready for use; construct sets with NewSet. A nil *Set
// behaves as an empty, read-only set for the query methods (Len, Contains,
// Get, Points, ForEach), which keeps call sites free of nil checks.
//
// Set deduplicates by PointID: at most one copy of a given observation is
// held, and for the semi-global algorithm the copy with the smallest hop
// field wins (AddMinHop), matching the paper's [Q]min operator.
//
// The points sit in one run per origin, runs in origin order, each run in
// Seq order (DESIGN.md § "One ordered Set"): every walk over the set is ID
// order with no sort, and window expiry pops the front of each run.
type Set struct {
	runs []run
	n    int // points held, over all runs

	// version counts content mutations. Every operation that changes
	// what the set holds (insert, replace, hop lowering, removal,
	// eviction) bumps it, so a snapshot taken at version v is valid
	// exactly as long as Version still returns v. The detector keys its
	// cached ranking supporter — and with it the spatial index — on the
	// window's version, skipping the per-event rebuild while the window
	// is unchanged.
	version uint64

	// oldest is a lower bound on the Birth of every held point (noBirth
	// when the set is empty or freshly filtered to nothing): inserts lower
	// it, removals leave it alone, and an eviction — the one place that
	// visits every run anyway — tightens it to the exact minimum of what
	// survives. EvictBefore consults it first, so expiring a window costs
	// nothing unless something can actually expire.
	oldest time.Duration
}

// run is one origin's points in Seq order, no Seq twice, never empty: the
// set drops a run as its last point goes, so it holds one run per origin it
// holds points of, not per origin it has ever seen. A run is ordered while
// its births do not decrease along it, so that its front is its oldest
// point; unordered marks one that an out-of-birth-order insert or overwrite
// has broken, and eviction then filters it whole. The mark clears when an
// eviction finds it back in order.
type run struct {
	origin    NodeID
	unordered bool
	pts       []Point
}

// noBirth is the oldest-birth bound of a set that holds nothing.
const noBirth = time.Duration(math.MaxInt64)

// Version returns the mutation counter; see the field comment.
func (s *Set) Version() uint64 {
	if s == nil {
		return 0
	}
	return s.version
}

// NewSet returns a set holding the given points. Duplicate IDs keep the
// copy with the smallest hop field.
func NewSet(pts ...Point) *Set {
	s := &Set{oldest: noBirth}
	for _, p := range pts {
		s.AddMinHop(p)
	}
	return s
}

// Len returns the number of points held.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// runOf returns the position of origin's run, or where it would go, and
// whether the set has one.
func (s *Set) runOf(origin NodeID) (int, bool) {
	return slices.BinarySearchFunc(s.runs, origin, func(r run, o NodeID) int { return cmp.Compare(r.origin, o) })
}

// slot returns the position of seq in the run, or where it would go, and
// whether the run holds it. A Seq past the run's last — a sensor's next
// reading — is answered without a search.
func (r *run) slot(seq uint32) (int, bool) {
	pts := r.pts
	if len(pts) == 0 || pts[len(pts)-1].ID.Seq < seq {
		return len(pts), false
	}
	return slices.BinarySearchFunc(pts, seq, func(p Point, seq uint32) int { return cmp.Compare(p.ID.Seq, seq) })
}

// locate returns the held copy of id in place, or nil.
func (s *Set) locate(id PointID) *Point {
	if s == nil {
		return nil
	}
	i, ok := s.runOf(id.Origin)
	if !ok {
		return nil
	}
	r := &s.runs[i]
	j, ok := r.slot(id.Seq)
	if !ok {
		return nil
	}
	return &r.pts[j]
}

// Contains reports whether a point with the given ID is held.
func (s *Set) Contains(id PointID) bool {
	return s.locate(id) != nil
}

// Get returns the held copy of the point with the given ID.
func (s *Set) Get(id PointID) (Point, bool) {
	if p := s.locate(id); p != nil {
		return *p, true
	}
	return Point{}, false
}

// runFor returns origin's run, opening an empty one in origin order if the
// set has none.
func (s *Set) runFor(origin NodeID) *run {
	i, ok := s.runOf(origin)
	if !ok {
		s.runs = slices.Insert(s.runs, i, run{origin: origin})
	}
	return &s.runs[i]
}

// Add inserts p, overwriting any held copy with the same ID. It reports
// whether the ID was not previously present.
func (s *Set) Add(p Point) bool {
	r := s.runFor(p.ID.Origin)
	j, held := r.slot(p.ID.Seq)
	s.put(r, j, held, p) // an overwrite can change the held copy's fields
	return !held
}

// AddMinHop inserts p unless a copy with the same ID and a hop field no
// larger than p's is already held; an existing copy with a larger hop
// field is replaced. This is the update rule of Algorithm 2 and the
// paper's [Q]min redundancy elimination. added reports that the ID was
// new; lowered reports that an existing copy's hop was reduced.
func (s *Set) AddMinHop(p Point) (added, lowered bool) {
	r := s.runFor(p.ID.Origin)
	j, held := r.slot(p.ID.Seq)
	switch {
	case !held:
		s.put(r, j, false, p)
		return true, false
	case p.Hop < r.pts[j].Hop:
		s.put(r, j, true, p)
		return false, true
	}
	return false, false
}

// put stores p at slot j of r — over the copy there when held, between its
// Seq neighbours otherwise: the one place a point enters the set, so the
// one place the run's birth order and the oldest-birth bound have to
// follow.
func (s *Set) put(r *run, j int, held bool, p Point) {
	if held {
		r.pts[j] = p
	} else {
		r.pts = slices.Insert(r.pts, j, p)
		s.n++
	}
	if j > 0 && r.pts[j-1].Birth > p.Birth || j+1 < len(r.pts) && p.Birth > r.pts[j+1].Birth {
		r.unordered = true
	}
	s.version++
	if p.Birth < s.oldest {
		s.oldest = p.Birth
	}
}

// SetHop lowers the hop field of the held copy of id to hop if the held
// copy's hop is larger. It reports whether a change was made.
func (s *Set) SetHop(id PointID, hop uint8) bool {
	p := s.locate(id)
	if p == nil || p.Hop <= hop {
		return false
	}
	p.Hop = hop
	s.version++
	return true
}

// Remove deletes the point with the given ID, reporting whether it was held.
func (s *Set) Remove(id PointID) bool {
	if s == nil {
		return false
	}
	i, ok := s.runOf(id.Origin)
	if !ok {
		return false
	}
	r := &s.runs[i]
	j, ok := r.slot(id.Seq)
	if !ok {
		return false
	}
	r.pts = slices.Delete(r.pts, j, j+1)
	if len(r.pts) == 0 {
		s.runs = slices.Delete(s.runs, i, i+1)
	}
	s.n--
	s.version++
	return true
}

// Points returns a copy of the held points in ID order — the runs front to
// back, no sort — so that callers iterate, print, encode, compare and rank
// in one deterministic order.
func (s *Set) Points() []Point {
	if s == nil {
		return nil
	}
	pts := make([]Point, 0, s.n)
	for _, r := range s.runs {
		pts = append(pts, r.pts...)
	}
	return pts
}

// IDs returns the held point IDs in order.
func (s *Set) IDs() []PointID {
	if s == nil {
		return nil
	}
	ids := make([]PointID, 0, s.n)
	s.ForEach(func(p Point) { ids = append(ids, p.ID) })
	return ids
}

// ForEach calls fn for every held point in ID order. fn must not modify
// the set.
func (s *Set) ForEach(fn func(Point)) {
	if s == nil {
		return
	}
	for _, r := range s.runs {
		for _, p := range r.pts {
			fn(p)
		}
	}
}

// Clone returns a copy of the set sharing the (immutable by convention)
// feature vectors.
func (s *Set) Clone() *Set {
	return s.Filter(func(Point) bool { return true })
}

// Union returns a new set holding the points of s and of every other set,
// min-merged on the hop field: one merge of their ID-ordered walks.
func (s *Set) Union(others ...*Set) *Set {
	cs := make([]cursor, 0, 1+len(others))
	size := s.Len()
	cs = append(cs, s.cursor(anyHop))
	for _, o := range others {
		cs = append(cs, o.cursor(anyHop))
		size += o.Len()
	}
	return orderedSet(mergeLowestHop(cs, size))
}

// UnionPoints is the union of point lists that are not held in sets — a
// shard's snapshot, a sensor's holdings — in ID order, every ID once, as the
// copy with the lowest hop field (the earliest list's on a tie, as folding
// the lists into a set with AddMinHop keeps it). Each list is expected in ID
// order (Set.Points gives it); one that is not is sorted in a copy first.
func UnionPoints(lists ...[]Point) []Point {
	cs := make([]cursor, len(lists))
	size := 0
	for i, l := range lists {
		cs[i] = cursor{pts: inIDOrder(l), maxHop: anyHop}
		size += len(l)
	}
	return mergeLowestHop(cs, size)
}

// mergeLowestHop is mergeByID's lowest-hop merge collected into a slice of
// capacity size, every ID once even where a list repeats it (a peer's
// reply may): the repeat reaches fn right after the first copy.
func mergeLowestHop(cs []cursor, size int) []Point {
	out := make([]Point, 0, size)
	mergeByID(cs, true, func(p Point) {
		if last := len(out) - 1; last >= 0 && out[last].ID == p.ID {
			if p.Hop < out[last].Hop {
				out[last] = p
			}
			return
		}
		out = append(out, p)
	})
	return out
}

// inIDOrder returns pts if it is in ID order, and a sorted copy otherwise;
// points with equal IDs keep their order.
func inIDOrder(pts []Point) []Point {
	byID := func(a, b Point) int { return idCompare(a.ID, b.ID) }
	if slices.IsSortedFunc(pts, byID) {
		return pts
	}
	pts = slices.Clone(pts)
	slices.SortStableFunc(pts, byID)
	return pts
}

// Filter returns a new set holding the points for which keep returns true,
// with an exact oldest-birth bound.
func (s *Set) Filter(keep func(Point) bool) *Set {
	if s == nil {
		return orderedSet(nil)
	}
	buf := make([]Point, 0, s.n)
	for _, r := range s.runs {
		for _, p := range r.pts {
			if keep(p) {
				buf = append(buf, p)
			}
		}
	}
	return orderedSet(buf)
}

// orderedSet returns a set holding pts — in ID order, no ID twice — in
// place, with an exact oldest-birth bound: its runs are pts cut where the
// origin changes, each capped at its own end, so growing one never writes
// into the next.
func orderedSet(pts []Point) *Set {
	s := &Set{n: len(pts), oldest: noBirth}
	for len(pts) > 0 {
		k := 0
		for k < len(pts) && pts[k].ID.Origin == pts[0].ID.Origin {
			s.oldest = min(s.oldest, pts[k].Birth)
			k++
		}
		r := pts[:k:k]
		s.runs = append(s.runs, run{origin: r[0].ID.Origin, unordered: !birthOrdered(r), pts: r})
		pts = pts[k:]
	}
	return s
}

// birthOrdered reports whether births do not decrease along pts.
func birthOrdered(pts []Point) bool {
	return slices.IsSortedFunc(pts, func(a, b Point) int { return cmp.Compare(a.Birth, b.Birth) })
}

// MaxHop returns the points with hop field at most h — the paper's P≤h
// stratum used by the semi-global algorithm.
func (s *Set) MaxHop(h uint8) *Set {
	return s.Filter(func(p Point) bool { return p.Hop <= h })
}

// EvictBefore removes every point whose Birth is earlier than cutoff,
// implementing the time-based sliding window of §5.3. It returns the
// number of points evicted. When the oldest-birth bound shows nothing can
// be that old it returns without looking at a single point; otherwise an
// ordered run costs what it evicts.
func (s *Set) EvictBefore(cutoff time.Duration) int {
	if s == nil || s.oldest >= cutoff {
		return 0
	}
	evicted, oldest := 0, noBirth
	for i := range s.runs {
		r := &s.runs[i]
		evicted += r.evictBefore(cutoff)
		oldest = min(oldest, r.oldest())
	}
	s.oldest = oldest
	if evicted > 0 {
		s.runs = slices.DeleteFunc(s.runs, func(r run) bool { return len(r.pts) == 0 })
		s.n -= evicted
		s.version++
	}
	return evicted
}

// evictBefore drops the run's points born before cutoff and returns how
// many it dropped: the front of an ordered run, a filter of an unordered
// one, which also re-checks the order of what survives.
func (r *run) evictBefore(cutoff time.Duration) int {
	pts := r.pts
	if !r.unordered {
		k := 0
		for k < len(pts) && pts[k].Birth < cutoff {
			k++
		}
		clear(pts[:k]) // let the evicted feature vectors go
		r.pts = pts[k:]
		return k
	}
	kept := pts[:0]
	for _, p := range pts {
		if p.Birth >= cutoff {
			kept = append(kept, p)
		}
	}
	clear(pts[len(kept):])
	r.pts, r.unordered = kept, !birthOrdered(kept)
	return len(pts) - len(kept)
}

// oldest returns the earliest birth the run holds, noBirth when empty.
func (r *run) oldest() time.Duration {
	if len(r.pts) == 0 {
		return noBirth
	}
	if !r.unordered {
		return r.pts[0].Birth
	}
	oldest := noBirth
	for _, p := range r.pts {
		oldest = min(oldest, p.Birth)
	}
	return oldest
}

// SubsetOf reports whether every ID in s is present in t.
func (s *Set) SubsetOf(t *Set) bool {
	if s == nil {
		return true
	}
	for _, r := range s.runs {
		for _, p := range r.pts {
			if !t.Contains(p.ID) {
				return false
			}
		}
	}
	return true
}

// EqualIDs reports whether s and t hold exactly the same point IDs.
func (s *Set) EqualIDs(t *Set) bool {
	if s.Len() != t.Len() {
		return false
	}
	return s.SubsetOf(t)
}

// String implements fmt.Stringer, listing IDs in order.
func (s *Set) String() string {
	ids := s.IDs()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = id.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// cursor walks a set's points in ID order, passing over copies whose hop
// field exceeds maxHop. The zero cursor is at its end.
type cursor struct {
	runs   []run
	pts    []Point // what is left of the current run
	maxHop uint8
}

// cursor starts a walk over the set; a nil set yields nothing.
func (s *Set) cursor(maxHop uint8) cursor {
	if s == nil {
		return cursor{}
	}
	return cursor{runs: s.runs, maxHop: maxHop}
}

// head returns the cursor's next point in place, or nil at the end.
func (c *cursor) head() *Point {
	for {
		for len(c.pts) > 0 {
			if c.pts[0].Hop <= c.maxHop {
				return &c.pts[0]
			}
			c.pts = c.pts[1:]
		}
		if len(c.runs) == 0 {
			return nil
		}
		c.pts, c.runs = c.runs[0].pts, c.runs[1:]
	}
}

// mergeByID calls fn once for every ID the cursors hold between them, in ID
// order, with the copy of the first cursor that holds it — or, if
// lowestHop, the copy with the lowest hop field, the first cursor's on a
// tie. Each cursor must walk in ID order; one that holds an ID twice in a
// row passes it to fn twice.
func mergeByID(cs []cursor, lowestHop bool, fn func(Point)) {
	for {
		var next *Point
		for i := range cs {
			if p := cs[i].head(); p != nil && (next == nil || idLess(p.ID, next.ID)) {
				next = p
			}
		}
		if next == nil {
			return
		}
		pick := *next
		for i := range cs {
			if p := cs[i].head(); p != nil && p.ID == pick.ID {
				if lowestHop && p.Hop < pick.Hop {
					pick = *p
				}
				cs[i].pts = cs[i].pts[1:]
			}
		}
		fn(pick)
	}
}
