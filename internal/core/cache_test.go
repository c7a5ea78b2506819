package core

import (
	"testing"
	"time"
)

// TestHeldSupporterCache drives a detector through a mixed event sequence
// and checks after every event that the cached-supporter estimate equals
// a fresh TopN over a clone of the holdings — i.e. the version-keyed
// cache never serves a stale ranking.
func TestHeldSupporterCache(t *testing.T) {
	r := rng(31)
	for _, hop := range []int{0, 2} {
		det, err := NewDetector(Config{
			Node: 1, Ranker: KNN{K: 2}, N: 3,
			Window:   30 * time.Second,
			HopLimit: hop,
		})
		if err != nil {
			t.Fatal(err)
		}
		check := func(step string) {
			t.Helper()
			want := TopN(det.Config().Ranker, det.Holdings(), det.Config().N)
			if got := det.Estimate(); !sameIDs(got, want) {
				t.Fatalf("hop=%d %s: cached estimate %s, fresh %s",
					hop, step, idList(got), idList(want))
			}
		}

		det.Start()
		check("start")
		det.AddNeighbor(2)
		check("add neighbor") // no window change: must reuse, still correct
		for s := 0; s < 40; s++ {
			det.StepObserveBatch(time.Duration(s)*time.Second,
				readings(randPoint(r, 1, uint32(s), 2, 100)))
			check("observe")
			if s%5 == 0 {
				det.Receive(2, []Point{randPoint(r, 2, uint32(s), 2, 100)})
				check("receive")
			}
			if s%7 == 0 {
				// Redundant receipt: changes nothing, estimate must hold.
				det.Receive(2, []Point{randPoint(r, 1, uint32(s), 2, 100)})
				check("redundant receive")
			}
		}
		det.RemoveNeighbor(2)
		check("remove neighbor")
		det.StepObserveBatch(90*time.Second, nil) // evicts everything
		check("evict all")
	}
}

// TestStrataCacheMatchesFresh pins the semi-global strata cache: a
// detector that has been through window-preserving events (link churn,
// redundant receipts — all cache hits) must send a new neighbor exactly
// the points a churn-free detector with the same window sends. Observes
// and receives in between force rebuilds, so both hit and miss paths are
// exercised.
func TestStrataCacheMatchesFresh(t *testing.T) {
	r := rng(17)
	mk := func() *Detector {
		det, err := NewDetector(Config{Node: 1, Ranker: KNN{K: 2}, N: 3, HopLimit: 2})
		if err != nil {
			t.Fatal(err)
		}
		return det
	}
	churned, fresh := mk(), mk()
	feed := func(step func(d *Detector) *Outbound) {
		t.Helper()
		step(churned)
		step(fresh)
	}
	for s := 0; s < 30; s++ {
		p := randPoint(r, 1, uint32(s), 2, 100)
		feed(func(d *Detector) *Outbound {
			_, out := d.StepObserveBatch(d.Now(), readings(p))
			return out
		})
		if s%4 == 0 {
			in := randPoint(r, 2, uint32(s), 2, 100)
			in.Hop = 1
			feed(func(d *Detector) *Outbound { return d.Receive(2, []Point{in}) })
		}
		// Churn only on one detector: these events leave the window
		// untouched, so the churned detector serves them from the strata
		// cache while the fresh one never builds them at this version.
		churned.AddNeighbor(7)
		churned.RemoveNeighbor(7)
	}
	if !churned.held.EqualIDs(fresh.held) {
		t.Fatal("setup bug: windows diverged")
	}
	co, fo := churned.AddNeighbor(9), fresh.AddNeighbor(9)
	if !sameIDs(co.For(9), fo.For(9)) {
		t.Fatalf("cached strata delta %s != fresh %s", idList(co.For(9)), idList(fo.For(9)))
	}
}

// TestStepObserveBatchAssignedSeq checks that observations carrying a
// caller-assigned sequence number mint exactly that identity, that the
// detector's own counter advances past assigned values, and that
// re-delivery of an assigned reading does not duplicate the point: the
// first copy wins, even over different values, and a batch of only
// repeats is no event.
func TestStepObserveBatchAssignedSeq(t *testing.T) {
	det, err := NewDetector(Config{Node: 7, Ranker: NN(), N: 1})
	if err != nil {
		t.Fatal(err)
	}
	pts, _ := det.StepObserveBatch(0, []Observation{
		{Birth: 0, Value: []float64{1}, Seq: 10, Assigned: true},
		{Birth: 0, Value: []float64{2}, Seq: 4, Assigned: true},
		{Birth: 0, Value: []float64{3}}, // unassigned: takes nextSeq = 11
	})
	want := []PointID{{Origin: 7, Seq: 10}, {Origin: 7, Seq: 4}, {Origin: 7, Seq: 11}}
	for i, id := range want {
		if pts[i].ID != id {
			t.Fatalf("point %d: got %v, want %v", i, pts[i].ID, id)
		}
	}
	if det.Holdings().Len() != 3 {
		t.Fatalf("holdings %d, want 3", det.Holdings().Len())
	}
	// Re-delivery (e.g. a retried cluster READINGS frame): same identity,
	// no duplicate in the window, and the first copy's value stays.
	events := det.Stats().Events
	pts, out := det.StepObserveBatch(0, []Observation{
		{Birth: 0, Value: []float64{1}, Seq: 10, Assigned: true},
		{Birth: 0, Value: []float64{9}, Seq: 4, Assigned: true},
	})
	if pts != nil || out != nil || det.Stats().Events != events {
		t.Fatalf("repeats-only batch returned %v, %v and counted %d events; want nil, nil, none",
			pts, out, det.Stats().Events-events)
	}
	if det.Holdings().Len() != 3 {
		t.Fatalf("holdings after redelivery %d, want 3", det.Holdings().Len())
	}
	if p, _ := det.Holdings().Get(PointID{Origin: 7, Seq: 4}); p.Value[0] != 2 {
		t.Fatalf("7#4 holds %v after a repeat with another value, want the first copy's 2", p.Value)
	}
	// A batch mixing a repeat with a new reading returns only the new one.
	pts, _ = det.StepObserveBatch(0, []Observation{
		{Birth: 0, Value: []float64{1}, Seq: 10, Assigned: true},
		{Birth: 0, Value: []float64{5}, Seq: 12, Assigned: true},
	})
	if len(pts) != 1 || pts[0].ID != (PointID{Origin: 7, Seq: 12}) {
		t.Fatalf("mixed batch returned %v, want only 7#12", pts)
	}
}

// TestSetVersion pins the mutation-counter contract the supporter cache
// depends on: every content change bumps it, no-ops do not.
func TestSetVersion(t *testing.T) {
	s := NewSet()
	v := s.Version()
	bump := func(op string, mutated bool) {
		t.Helper()
		next := s.Version()
		if mutated && next == v {
			t.Fatalf("%s: version did not advance", op)
		}
		if !mutated && next != v {
			t.Fatalf("%s: version advanced on a no-op", op)
		}
		v = next
	}
	p := NewPoint(1, 1, 0, 5)
	s.Add(p)
	bump("add", true)
	s.AddMinHop(p)
	bump("addminhop duplicate", false)
	worse := p
	worse.Hop = 3
	s.AddMinHop(worse)
	bump("addminhop worse hop", false)
	s.Add(worse)
	bump("add overwrite", true) // held copy's hop changed
	s.SetHop(p.ID, 1)
	bump("sethop lower", true)
	s.SetHop(p.ID, 5)
	bump("sethop higher", false)
	s.EvictBefore(0)
	bump("evict nothing", false)
	s.Remove(p.ID)
	bump("remove", true)
	s.Remove(p.ID)
	bump("remove missing", false)
	var nilSet *Set
	if nilSet.Version() != 0 {
		t.Fatal("nil set version != 0")
	}
}

// BenchmarkEstimateWindowUnchanged quantifies the saved per-ranking-batch
// rebuild (ROADMAP: incremental index reuse): repeated estimates over an
// unchanged window hit the version-keyed supporter cache instead of
// re-snapshotting, re-indexing and re-ranking 2120 points per call —
// the cost the "rebuild" variant pays, as every call did before the cache.
func BenchmarkEstimateWindowUnchanged(b *testing.B) {
	r := rng(8)
	rk := KNN{K: 4}
	det, err := NewDetector(Config{Node: 1, Ranker: rk, N: 4})
	if err != nil {
		b.Fatal(err)
	}
	vals := make([][]float64, 2120)
	for i := range vals {
		vals[i] = []float64{r.Float64() * 10, r.Float64() * 50, r.Float64() * 50}
	}
	observe(det, 0, vals...)
	set := det.Holdings()
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			det.Estimate()
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			TopN(rk, set, 4)
		}
	})
}

// BenchmarkSemiGlobalLinkEventWindowUnchanged measures the Algorithm 2
// counterpart of the link-event benchmark: with the strata cache, link
// churn on an unchanged window reuses the per-stratum supporters and
// seeds instead of refiltering and reranking every stratum per event.
func BenchmarkSemiGlobalLinkEventWindowUnchanged(b *testing.B) {
	r := rng(11)
	det, err := NewDetector(Config{Node: 1, Ranker: KNN{K: 4}, N: 4, HopLimit: 2})
	if err != nil {
		b.Fatal(err)
	}
	vals := make([][]float64, 2120)
	for i := range vals {
		vals[i] = []float64{r.Float64() * 10, r.Float64() * 50, r.Float64() * 50}
	}
	observe(det, 0, vals...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.AddNeighbor(NodeID(2 + i%2))
		det.RemoveNeighbor(NodeID(2 + i%2))
	}
}

// BenchmarkLinkEventWindowUnchanged measures a full link-change reaction
// (seed + per-neighbor fixed point) on an unchanged window, where the
// cache reuses the spatial index and ranking batch across events.
func BenchmarkLinkEventWindowUnchanged(b *testing.B) {
	r := rng(9)
	det, err := NewDetector(Config{Node: 1, Ranker: KNN{K: 4}, N: 4})
	if err != nil {
		b.Fatal(err)
	}
	vals := make([][]float64, 2120)
	for i := range vals {
		vals[i] = []float64{r.Float64() * 10, r.Float64() * 50, r.Float64() * 50}
	}
	observe(det, 0, vals...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.AddNeighbor(NodeID(2 + i%2))
		det.RemoveNeighbor(NodeID(2 + i%2))
	}
}
