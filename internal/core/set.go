package core

import (
	"math"
	"slices"
	"strings"
	"time"
)

// Set is a collection of points keyed by PointID. The zero value is not
// ready for use; construct sets with NewSet. A nil *Set behaves as an
// empty, read-only set for the query methods (Len, Contains, Get, Points,
// ForEach), which keeps call sites free of nil checks.
//
// Set deduplicates by PointID: at most one copy of a given observation is
// held, and for the semi-global algorithm the copy with the smallest hop
// field wins (AddMinHop), matching the paper's [Q]min operator.
type Set struct {
	m map[PointID]Point

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
	// it, removals leave it alone, and an eviction scan — the one place
	// that visits every point anyway — tightens it to the exact minimum of
	// what survives. EvictBefore consults it first, so expiring a window
	// costs a scan only when something can actually expire.
	oldest time.Duration
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
	s := &Set{m: make(map[PointID]Point, len(pts)), oldest: noBirth}
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
	return len(s.m)
}

// Contains reports whether a point with the given ID is held.
func (s *Set) Contains(id PointID) bool {
	if s == nil {
		return false
	}
	_, ok := s.m[id]
	return ok
}

// Get returns the held copy of the point with the given ID.
func (s *Set) Get(id PointID) (Point, bool) {
	if s == nil {
		return Point{}, false
	}
	p, ok := s.m[id]
	return p, ok
}

// Add inserts p, overwriting any held copy with the same ID. It reports
// whether the ID was not previously present.
func (s *Set) Add(p Point) bool {
	_, existed := s.m[p.ID]
	s.put(p) // an overwrite can change the held copy's fields
	return !existed
}

// AddMinHop inserts p unless a copy with the same ID and a hop field no
// larger than p's is already held; an existing copy with a larger hop
// field is replaced. This is the update rule of Algorithm 2 and the
// paper's [Q]min redundancy elimination. added reports that the ID was
// new; lowered reports that an existing copy's hop was reduced.
func (s *Set) AddMinHop(p Point) (added, lowered bool) {
	old, existed := s.m[p.ID]
	if !existed {
		s.put(p)
		return true, false
	}
	if p.Hop < old.Hop {
		s.put(p)
		return false, true
	}
	return false, false
}

// put stores p under its ID: the one place a point enters the map, so the
// one place the oldest-birth bound has to follow.
func (s *Set) put(p Point) {
	s.m[p.ID] = p
	s.version++
	if p.Birth < s.oldest {
		s.oldest = p.Birth
	}
}

// SetHop lowers the hop field of the held copy of id to hop if the held
// copy's hop is larger. It reports whether a change was made.
func (s *Set) SetHop(id PointID, hop uint8) bool {
	if s == nil {
		return false
	}
	p, ok := s.m[id]
	if !ok || p.Hop <= hop {
		return false
	}
	p.Hop = hop
	s.m[id] = p
	s.version++
	return true
}

// Remove deletes the point with the given ID, reporting whether it was held.
func (s *Set) Remove(id PointID) bool {
	if s == nil {
		return false
	}
	_, ok := s.m[id]
	delete(s.m, id)
	if ok {
		s.version++
	}
	return ok
}

// Points returns the held points sorted by ID, so that callers iterate —
// and print, encode and compare — in one deterministic order. The ordering
// key is unique, so the sort implementation cannot affect the result. The
// detector's own ranking path does not come through here: On(P) does not
// depend on the order P is visited in, so it takes the unsorted snapshot.
func (s *Set) Points() []Point {
	pts := s.snapshot()
	sortByID(pts)
	return pts
}

// snapshot copies the held points out in unspecified order.
func (s *Set) snapshot() []Point {
	if s == nil {
		return nil
	}
	pts := make([]Point, 0, len(s.m))
	for _, p := range s.m {
		pts = append(pts, p)
	}
	return pts
}

// sortByID orders points by ID. The key is unique within a set, so the
// sort implementation cannot affect the result.
func sortByID(pts []Point) {
	slices.SortFunc(pts, func(a, b Point) int { return idCompare(a.ID, b.ID) })
}

// IDs returns the held point IDs sorted.
func (s *Set) IDs() []PointID {
	if s == nil {
		return nil
	}
	ids := make([]PointID, 0, len(s.m))
	for id := range s.m {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, idCompare)
	return ids
}

// ForEach calls fn for every held point in unspecified order. Use Points
// when order matters.
func (s *Set) ForEach(fn func(Point)) {
	if s == nil {
		return
	}
	for _, p := range s.m {
		fn(p)
	}
}

// Clone returns a copy of the set sharing the (immutable by convention)
// feature vectors.
func (s *Set) Clone() *Set {
	c := &Set{m: make(map[PointID]Point, s.Len()), oldest: noBirth}
	if s != nil {
		for id, p := range s.m {
			c.m[id] = p
		}
		c.oldest = s.oldest
	}
	return c
}

// Union returns a new set holding the points of s and of every other set,
// min-merged on the hop field.
func (s *Set) Union(others ...*Set) *Set {
	u := s.Clone()
	for _, o := range others {
		if o == nil {
			continue
		}
		for _, p := range o.m {
			u.AddMinHop(p)
		}
	}
	return u
}

// Filter returns a new set holding the points for which keep returns true.
func (s *Set) Filter(keep func(Point) bool) *Set {
	f := &Set{m: make(map[PointID]Point), oldest: noBirth}
	if s == nil {
		return f
	}
	for _, p := range s.m {
		if keep(p) {
			f.put(p)
		}
	}
	return f
}

// MaxHop returns the points with hop field at most h — the paper's P≤h
// stratum used by the semi-global algorithm.
func (s *Set) MaxHop(h uint8) *Set {
	return s.Filter(func(p Point) bool { return p.Hop <= h })
}

// EvictBefore removes every point whose Birth is earlier than cutoff,
// implementing the time-based sliding window of §5.3. It returns the
// number of points evicted. When the oldest-birth bound shows nothing can
// be that old it returns without looking at a single point.
func (s *Set) EvictBefore(cutoff time.Duration) int {
	if s == nil || s.oldest >= cutoff {
		return 0
	}
	evicted, oldest := 0, noBirth
	for id, p := range s.m {
		if p.Birth < cutoff {
			delete(s.m, id)
			evicted++
		} else if p.Birth < oldest {
			oldest = p.Birth
		}
	}
	s.oldest = oldest
	if evicted > 0 {
		s.version++
	}
	return evicted
}

// EvictOrigin removes every point that originated at the given sensor,
// supporting the explicit node-removal strategy sketched in §5.3. It
// returns the number of points evicted.
func (s *Set) EvictOrigin(origin NodeID) int {
	if s == nil {
		return 0
	}
	evicted := 0
	for id := range s.m {
		if id.Origin == origin {
			delete(s.m, id)
			evicted++
		}
	}
	if evicted > 0 {
		s.version++
	}
	return evicted
}

// SubsetOf reports whether every ID in s is present in t.
func (s *Set) SubsetOf(t *Set) bool {
	if s == nil {
		return true
	}
	for id := range s.m {
		if !t.Contains(id) {
			return false
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

// String implements fmt.Stringer, listing IDs in sorted order.
func (s *Set) String() string {
	ids := s.IDs()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = id.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
