package core

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestSetAddContainsGetRemove(t *testing.T) {
	s := NewSet()
	p := NewPoint(1, 1, 0, 3.5)
	if !s.Add(p) {
		t.Fatal("first Add must report a new ID")
	}
	if s.Add(p) {
		t.Fatal("second Add of the same ID must report existing")
	}
	if !s.Contains(p.ID) || s.Len() != 1 {
		t.Fatalf("set should hold exactly the added point, len=%d", s.Len())
	}
	got, ok := s.Get(p.ID)
	if !ok || got.Value[0] != 3.5 {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if !s.Remove(p.ID) || s.Remove(p.ID) {
		t.Fatal("Remove must report presence exactly once")
	}
	if s.Len() != 0 {
		t.Fatalf("len after remove = %d", s.Len())
	}
}

func TestSetAddMinHop(t *testing.T) {
	s := NewSet()
	far := NewPoint(1, 1, 0, 1)
	far.Hop = 3
	near := NewPoint(1, 1, 0, 1)
	near.Hop = 1

	added, lowered := s.AddMinHop(far)
	if !added || lowered {
		t.Fatalf("first insert: added=%v lowered=%v", added, lowered)
	}
	added, lowered = s.AddMinHop(near)
	if added || !lowered {
		t.Fatalf("lower hop must replace: added=%v lowered=%v", added, lowered)
	}
	added, lowered = s.AddMinHop(far)
	if added || lowered {
		t.Fatalf("higher hop must be ignored: added=%v lowered=%v", added, lowered)
	}
	got, _ := s.Get(far.ID)
	if got.Hop != 1 {
		t.Fatalf("held hop = %d, want 1", got.Hop)
	}
}

func TestSetSetHop(t *testing.T) {
	s := NewSet()
	p := NewPoint(1, 1, 0, 1)
	p.Hop = 5
	s.Add(p)
	if !s.SetHop(p.ID, 2) {
		t.Fatal("SetHop to a lower value must apply")
	}
	if s.SetHop(p.ID, 4) {
		t.Fatal("SetHop to a higher value must not apply")
	}
	if s.SetHop(PointID{Origin: 9, Seq: 9}, 0) {
		t.Fatal("SetHop on a missing ID must not apply")
	}
	got, _ := s.Get(p.ID)
	if got.Hop != 2 {
		t.Fatalf("hop = %d, want 2", got.Hop)
	}
}

func TestNilSetQueries(t *testing.T) {
	var s *Set
	if s.Len() != 0 {
		t.Fatal("nil set Len")
	}
	if s.Contains(PointID{}) {
		t.Fatal("nil set Contains")
	}
	if _, ok := s.Get(PointID{}); ok {
		t.Fatal("nil set Get")
	}
	if s.Points() != nil || s.IDs() != nil {
		t.Fatal("nil set Points/IDs")
	}
	if !s.SubsetOf(NewSet()) {
		t.Fatal("nil set must be a subset of anything")
	}
	if s.EvictBefore(time.Hour) != 0 {
		t.Fatal("nil set evictions")
	}
	s.ForEach(func(Point) { t.Fatal("nil set ForEach must not call") })
	if got := s.Clone(); got.Len() != 0 {
		t.Fatal("nil set Clone must be empty")
	}
	if got := s.Union(NewSet(NewPoint(1, 1, 0, 1))); got.Len() != 1 {
		t.Fatal("nil set Union")
	}
}

func TestSetPointsSortedByID(t *testing.T) {
	s := NewSet(
		NewPoint(2, 0, 0, 1),
		NewPoint(1, 5, 0, 2),
		NewPoint(1, 1, 0, 3),
		NewPoint(3, 0, 0, 4),
	)
	pts := s.Points()
	for i := 1; i < len(pts); i++ {
		if !idLess(pts[i-1].ID, pts[i].ID) {
			t.Fatalf("Points not sorted at %d: %v then %v", i, pts[i-1].ID, pts[i].ID)
		}
	}
}

func TestSetUnionMinMergesHops(t *testing.T) {
	a := NewPoint(1, 1, 0, 1)
	a.Hop = 2
	b := a.Clone()
	b.Hop = 1
	u := NewSet(a).Union(NewSet(b), nil)
	got, _ := u.Get(a.ID)
	if got.Hop != 1 {
		t.Fatalf("union hop = %d, want min 1", got.Hop)
	}
	if u.Len() != 1 {
		t.Fatalf("union len = %d, want 1", u.Len())
	}
}

func TestSetMaxHop(t *testing.T) {
	s := NewSet()
	for h := uint8(0); h < 5; h++ {
		p := NewPoint(1, uint32(h), 0, float64(h))
		p.Hop = h
		s.Add(p)
	}
	for h := uint8(0); h < 5; h++ {
		if got, want := s.MaxHop(h).Len(), int(h)+1; got != want {
			t.Fatalf("MaxHop(%d) len = %d, want %d", h, got, want)
		}
	}
}

func TestSetEvictBefore(t *testing.T) {
	s := NewSet(
		NewPoint(1, 0, 0*time.Second, 1),
		NewPoint(1, 1, 5*time.Second, 2),
		NewPoint(1, 2, 10*time.Second, 3),
	)
	if got := s.EvictBefore(5 * time.Second); got != 1 {
		t.Fatalf("evicted %d, want 1 (cutoff is exclusive)", got)
	}
	if s.Contains(PointID{Origin: 1, Seq: 0}) {
		t.Fatal("expired point still held")
	}
	if !s.Contains(PointID{Origin: 1, Seq: 1}) {
		t.Fatal("point born exactly at cutoff must survive")
	}
}

func TestSetSubsetAndEqual(t *testing.T) {
	a := NewSet(NewPoint(1, 0, 0, 1), NewPoint(1, 1, 0, 2))
	b := NewSet(NewPoint(1, 0, 0, 1), NewPoint(1, 1, 0, 2), NewPoint(2, 0, 0, 3))
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Fatal("SubsetOf wrong")
	}
	if a.EqualIDs(b) {
		t.Fatal("EqualIDs must compare lengths")
	}
	if !a.EqualIDs(a.Clone()) {
		t.Fatal("clone must compare equal")
	}
}

func TestSetString(t *testing.T) {
	s := NewSet(NewPoint(2, 1, 0, 1), NewPoint(1, 7, 0, 2))
	if got, want := s.String(), "{1#7 2#1}"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestSetCloneIndependence(t *testing.T) {
	s := NewSet(NewPoint(1, 0, 0, 1))
	c := s.Clone()
	c.Add(NewPoint(2, 0, 0, 2))
	if s.Len() != 1 {
		t.Fatal("Clone must not share storage")
	}
}

// Property: for any two random sets, the union contains exactly the IDs
// of both, and filtering splits a set into complementary halves.
func TestSetAlgebraProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng(seed)
		a := NewSet(randPoints(r, 1, r.IntN(20), 2, 10)...)
		b := NewSet(randPoints(r, 2, r.IntN(20), 2, 10)...)
		u := a.Union(b)
		if u.Len() != a.Len()+b.Len() { // disjoint origins
			return false
		}
		if !a.SubsetOf(u) || !b.SubsetOf(u) {
			return false
		}
		keep := func(p Point) bool { return p.Value[0] < 5 }
		left := u.Filter(keep)
		right := u.Filter(func(p Point) bool { return !keep(p) })
		return left.Len()+right.Len() == u.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// modelSet is a Set with the plain map it must stay equal to.
type modelSet struct {
	set   *Set
	model map[PointID]Point
}

// check asserts the set holds exactly the model's points — through Points,
// IDs, Len, Get and Contains — and that its oldest-birth bound is a lower
// bound on every one of them.
func (ms modelSet) check(t *testing.T, after string) {
	t.Helper()
	want := make([]Point, 0, len(ms.model))
	for _, p := range ms.model {
		want = append(want, p)
	}
	slices.SortFunc(want, func(a, b Point) int { return idCompare(a.ID, b.ID) })
	if ms.set.Len() != len(want) {
		t.Fatalf("after %s: set holds %d points, model %d", after, ms.set.Len(), len(want))
	}
	origins := make(map[NodeID]bool)
	for id := range ms.model {
		origins[id.Origin] = true
	}
	if len(ms.set.runs) != len(origins) {
		t.Fatalf("after %s: set keeps %d runs for the model's %d origins", after, len(ms.set.runs), len(origins))
	}
	got, ids := ms.set.Points(), ms.set.IDs()
	var walked []PointID
	ms.set.ForEach(func(p Point) { walked = append(walked, p.ID) })
	if len(got) != len(want) || len(ids) != len(want) || len(walked) != len(want) {
		t.Fatalf("after %s: Points has %d, IDs %d, ForEach %d, model %d", after, len(got), len(ids), len(walked), len(want))
	}
	for i, w := range want {
		if g := got[i]; g.ID != w.ID || g.Hop != w.Hop || g.Birth != w.Birth || ids[i] != w.ID || walked[i] != w.ID {
			t.Fatalf("after %s: slot %d: Points %v born %v, IDs %v, ForEach %v; model %v born %v", after, i, g, g.Birth, ids[i], walked[i], w, w.Birth)
		}
		g, ok := ms.set.Get(w.ID)
		if !ok || !ms.set.Contains(w.ID) || g.Hop != w.Hop || g.Birth != w.Birth {
			t.Fatalf("after %s: Get(%v) = %v, %v; model %v", after, w.ID, g, ok, w)
		}
		if g.Birth < ms.set.oldest {
			t.Fatalf("after %s: %v born at %v, before the set's oldest-birth bound %v", after, w.ID, g.Birth, ms.set.oldest)
		}
	}
}

// Property: a Set is its model, a plain map, under any interleaving of
// Add (overwrites included), AddMinHop, SetHop, Remove, EvictBefore,
// Clone, Filter, MaxHop and Union, with points of each origin arriving in random Seq order. Origins 1 and 2 are born in Seq order, as a
// sensor's readings are, until an overwrite with a new birth breaks that;
// origins 3 and 4 never are. After every operation the set holds exactly
// the model's points, each operation reports what the model says it did,
// Version moves exactly when the content changed, the oldest-birth bound
// never exceeds a held point's birth, and after EvictBefore(c) the bound is
// at least c — tight again, so the next expiry of nothing costs nothing.
func TestSetMatchesModel(t *testing.T) {
	r := rng(0x01de57)
	fresh := func() modelSet { return modelSet{set: NewSet(), model: make(map[PointID]Point)} }
	sets := []modelSet{fresh(), fresh(), fresh()}
	point := func() Point {
		origin, seq := NodeID(1+r.IntN(4)), uint32(r.IntN(40))
		birth := time.Duration(seq) * 5 * time.Second / 2
		if origin > 2 {
			birth = time.Duration(r.IntN(100)) * time.Second
		}
		p := NewPoint(origin, seq, birth, 1)
		p.Hop = uint8(r.IntN(4))
		return p
	}
	cloneModel := func(m map[PointID]Point, keep func(Point) bool) map[PointID]Point {
		c := make(map[PointID]Point)
		for id, p := range m {
			if keep(p) {
				c[id] = p
			}
		}
		return c
	}
	all := func(Point) bool { return true }
	for step := 0; step < 20000; step++ {
		at := r.IntN(len(sets))
		ms := sets[at]
		version := ms.set.Version()
		changed := false
		op := ""
		report := func(got, want any) {
			if got != want {
				t.Fatalf("step %d: %s reported %v, the model %v", step, op, got, want)
			}
		}
		switch r.IntN(10) {
		case 0, 1:
			op = "Add"
			// A PointID names one observation, so a second copy usually
			// differs in its hop field only; one overwrite in eight also
			// moves the birth, which the API allows.
			p := point()
			old, ok := ms.model[p.ID]
			if ok && r.IntN(8) != 0 {
				p.Birth = old.Birth
			}
			report(ms.set.Add(p), !ok)
			ms.model[p.ID] = p
			changed = true
		case 2, 3:
			op = "AddMinHop"
			p := point()
			old, ok := ms.model[p.ID]
			if ok {
				p.Birth = old.Birth
			}
			added, lowered := ms.set.AddMinHop(p)
			report([2]bool{added, lowered}, [2]bool{!ok, ok && p.Hop < old.Hop})
			if !ok || p.Hop < old.Hop {
				ms.model[p.ID] = p
				changed = true
			}
		case 4:
			op = "SetHop"
			p := point()
			old, ok := ms.model[p.ID]
			changed = ok && p.Hop < old.Hop
			report(ms.set.SetHop(p.ID, p.Hop), changed)
			if changed {
				old.Hop = p.Hop
				ms.model[p.ID] = old
			}
		case 5:
			op = "Remove"
			id := point().ID
			_, changed = ms.model[id]
			report(ms.set.Remove(id), changed)
			delete(ms.model, id)
		case 6:
			op = "EvictBefore"
			cutoff := time.Duration(r.IntN(110)) * time.Second
			want := 0
			for id, p := range ms.model {
				if p.Birth < cutoff {
					delete(ms.model, id)
					want++
				}
			}
			report(ms.set.EvictBefore(cutoff), want)
			changed = want > 0
			if ms.set.oldest < cutoff {
				t.Fatalf("step %d: oldest-birth bound %v still below the cutoff %v just evicted to", step, ms.set.oldest, cutoff)
			}
		case 7:
			to := r.IntN(len(sets))
			switch r.IntN(3) {
			case 0:
				op = "Clone"
				sets[to] = modelSet{set: ms.set.Clone(), model: cloneModel(ms.model, all)}
			case 1:
				op = "Filter"
				young := func(p Point) bool { return p.Birth >= 50*time.Second }
				sets[to] = modelSet{set: ms.set.Filter(young), model: cloneModel(ms.model, young)}
			default:
				op = "MaxHop"
				h := uint8(r.IntN(4))
				sets[to] = modelSet{set: ms.set.MaxHop(h), model: cloneModel(ms.model, func(p Point) bool { return p.Hop <= h })}
			}
			sets[to].check(t, op)
		case 8:
			op = "Union"
			other, to := sets[r.IntN(len(sets))], r.IntN(len(sets))
			u := cloneModel(ms.model, all)
			for id, p := range other.model {
				if old, ok := u[id]; !ok || p.Hop < old.Hop {
					u[id] = p
				}
			}
			sets[to] = modelSet{set: ms.set.Union(other.set, nil), model: u}
			sets[to].check(t, op)
		case 9:
			op = "Get of an absent ID"
			p := point()
			if _, held := ms.model[p.ID]; !held {
				_, ok := ms.set.Get(p.ID)
				report([2]bool{ok, ms.set.Contains(p.ID)}, [2]bool{false, false})
			}
		}
		if moved := ms.set.Version() != version; moved != changed {
			t.Fatalf("step %d: %s moved Version: %v, changed the content: %v", step, op, moved, changed)
		}
		ms.check(t, op)
	}
}
