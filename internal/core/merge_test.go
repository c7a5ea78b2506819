package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// starMerge drives the exported sufficient-set exchange the way the
// cluster coordinator does: a data-less center against k parties, rounds
// of center→party deltas and party→center deltas against per-link
// ledgers, until a fully quiet round. It returns the center's final
// estimate and the total number of points exchanged in both directions.
func starMerge(t *testing.T, r Ranker, n int, parts [][]Point, maxRounds int) ([]Point, int) {
	t.Helper()
	links := make([]*MergeLink, len(parts))
	ledgers := make([]*Set, len(parts)) // the center's side of each ledger
	for i, pts := range parts {
		links[i] = NewMergeSource(r, n, pts).NewLink()
		ledgers[i] = NewSet()
	}
	cand := NewSet()
	exchanged := 0
	for round := 0; round < maxRounds; round++ {
		quiet := true
		var center *MergeSource
		if cand.Len() > 0 {
			center = NewMergeSource(r, n, cand.Points())
		}
		for i := range parts {
			// Center → party: the center's sufficient delta on this link.
			if center != nil {
				if down := center.Delta(ledgers[i]); len(down) > 0 {
					quiet = false
					exchanged += len(down)
					for _, p := range down {
						ledgers[i].AddMinHop(p)
					}
					links[i].Absorb(down)
				}
			}
			// Party → center: its sufficient delta against the same link.
			if up := links[i].Delta(); len(up) > 0 {
				quiet = false
				exchanged += len(up)
				for _, p := range up {
					ledgers[i].AddMinHop(p)
					cand.AddMinHop(p)
				}
			}
		}
		if quiet {
			return TopN(r, cand, n), exchanged
		}
	}
	t.Fatalf("star merge did not converge in %d rounds", maxRounds)
	return nil, 0
}

// clusteredParts builds sensor-like datasets: every party's readings
// cluster tightly around a shared operating point (the regime the paper
// targets — neighboring sensors measure the same phenomenon) with two
// planted faults. The compaction claim lives here: estimates and support
// sets are small against such windows, so the exchange ships a fraction
// of the union.
func clusteredParts(seed uint64, parties, per int) ([][]Point, *Set) {
	r := rng(seed)
	union := NewSet()
	parts := make([][]Point, parties)
	for i := range parts {
		pts := make([]Point, 0, per+1)
		for s := 0; s < per; s++ {
			pts = append(pts, NewPoint(NodeID(i+1), uint32(s), 0,
				20+r.NormFloat64(), 50+2*r.NormFloat64()))
		}
		switch i {
		case 0:
			pts = append(pts, NewPoint(1, 1000, 0, 55.3, 50)) // stuck-at-rail
		case 1:
			pts = append(pts, NewPoint(2, 1000, 0, -40, 48)) // frozen battery
		}
		parts[i] = pts
		for _, p := range pts {
			union.AddMinHop(p)
		}
	}
	return parts, union
}

// TestMergeSourceStarExact is the core property behind the cluster's
// compact merge: for sensor-like datasets split across 3 parties — with
// and without overlap, mimicking boundary-sensor replication — the star
// exchange converges, the center's estimate equals On over the union,
// and the exchange ships strictly fewer points than the union holds.
func TestMergeSourceStarExact(t *testing.T) {
	for _, rk := range []Ranker{NN(), KNN{K: 3}, CountWithin{Alpha: 2}} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", rk.Name(), seed), func(t *testing.T) {
				parts, union := clusteredParts(seed, 3, 150)
				// Replicate a slice of one party onto the next (overlap).
				if seed%2 == 0 {
					parts[1] = append(parts[1], parts[0][:50]...)
				}
				got, exchanged := starMerge(t, rk, 4, parts, 32)
				want := TopN(rk, union, 4)
				if !sameIDs(got, want) {
					t.Fatalf("star merge %s != central %s", idList(got), idList(want))
				}
				if exchanged >= union.Len() {
					t.Fatalf("exchanged %d points ≥ union size %d: no compaction", exchanged, union.Len())
				}
			})
		}
	}
}

// TestMergeSourceStarExactUniform runs the exchange on uniform random
// partitions — the adversarial shape for Algorithm 1, where sparse
// candidate pools inflate ranks and the fixed point drags in far more
// support than clustered data needs. Exactness must hold regardless; no
// compaction is claimed here (the cluster layer's round budget and
// full-window fallback own that regime).
func TestMergeSourceStarExactUniform(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rng(seed)
			union := NewSet()
			parts := make([][]Point, 3)
			for i := range parts {
				pts := randPoints(r, NodeID(i+1), 80, 2, 100)
				parts[i] = pts
				for _, p := range pts {
					union.AddMinHop(p)
				}
			}
			got, _ := starMerge(t, KNN{K: 3}, 4, parts, 64)
			want := TopN(KNN{K: 3}, union, 4)
			if !sameIDs(got, want) {
				t.Fatalf("star merge %s != central %s", idList(got), idList(want))
			}
		})
	}
}

// TestMergeSourceHiddenPair pins the counterexample from DESIGN.md that
// makes one-shot top-k merges wrong: a mutually-close isolated pair that
// never enters its party's local top-1 but contains the global top-1.
// The iterated exchange must surface it.
func TestMergeSourceHiddenPair(t *testing.T) {
	mk := func(origin NodeID, seq uint32, x float64) Point {
		return NewPoint(origin, seq, 0, x)
	}
	partA := []Point{mk(1, 0, 0), mk(1, 1, 0.1), mk(1, 2, 50), mk(1, 3, 50.1), mk(1, 4, 50.2), mk(1, 5, 49.9)}
	partB := []Point{mk(2, 0, 50.05), mk(2, 1, 49.95), mk(2, 2, 50.15), mk(2, 3, 80)}
	union := NewSet()
	for _, p := range append(append([]Point{}, partA...), partB...) {
		union.AddMinHop(p)
	}
	got, _ := starMerge(t, NN(), 1, [][]Point{partA, partB}, 32)
	want := TopN(NN(), union, 1)
	if !sameIDs(got, want) {
		t.Fatalf("hidden pair: merge %s != central %s", idList(got), idList(want))
	}
}

// TestMergeSourceDeltaPure checks the resumability contract: Delta never
// mutates the shared ledger, repeats itself until the ledger advances,
// and goes quiet once the ledger covers its sufficient set.
func TestMergeSourceDeltaPure(t *testing.T) {
	r := rng(9)
	src := NewMergeSource(KNN{K: 2}, 3, randPoints(r, 1, 120, 2, 100))
	shared := NewSet()
	first := src.Delta(shared)
	if len(first) == 0 {
		t.Fatal("non-empty source produced an empty first delta")
	}
	if shared.Len() != 0 {
		t.Fatalf("Delta mutated the shared ledger: %d points", shared.Len())
	}
	if again := src.Delta(shared); !sameIDs(first, again) {
		t.Fatalf("repeat delta %s != first %s", idList(again), idList(first))
	}
	for _, p := range first {
		shared.AddMinHop(p)
	}
	if rest := src.Delta(shared); len(rest) != 0 {
		t.Fatalf("delta after full acknowledgement: %s", idList(rest))
	}
}

// TestMergeSourceEmpty covers the degenerate parties: an empty source
// owes nothing, and a star of empty parties converges to an empty
// estimate immediately.
func TestMergeSourceEmpty(t *testing.T) {
	src := NewMergeSource(NN(), 2, nil)
	if d := src.Delta(NewSet()); len(d) != 0 {
		t.Fatalf("empty source delta: %s", idList(d))
	}
	if est := src.Estimate(); len(est) != 0 {
		t.Fatalf("empty source estimate: %s", idList(est))
	}
	got, exchanged := starMerge(t, NN(), 2, [][]Point{nil, nil}, 4)
	if len(got) != 0 || exchanged != 0 {
		t.Fatalf("empty star: estimate %s, %d exchanged", idList(got), exchanged)
	}
}

// freshLink is the reference a MergeLink is held against: P kept whole as
// a Set, base and absorbed points alike, and the source rebuilt cold over
// all of it for every Delta — no hint, no reuse, nothing remembered but
// the two sets.
type freshLink struct {
	r      Ranker
	n      int
	p      *Set
	shared *Set
}

func newFreshLink(r Ranker, n int, base []Point) *freshLink {
	return &freshLink{r: r, n: n, p: NewSet(base...), shared: NewSet()}
}

func (f *freshLink) absorb(pts []Point) {
	for _, p := range pts {
		f.shared.AddMinHop(p)
		f.p.AddMinHop(p)
	}
}

func (f *freshLink) delta() []Point {
	d := NewMergeSource(f.r, f.n, f.p.Points()).Delta(f.shared)
	for _, p := range d {
		f.shared.AddMinHop(p)
	}
	return d
}

// pointDiff reports where two point slices first differ in ID, hop,
// birth or feature bits, or nil when they are equal point for point.
func pointDiff(got, want []Point) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d points %s, want %d %s", len(got), idList(got), len(want), idList(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Hop != w.Hop || g.Birth != w.Birth || !slices.Equal(g.Value, w.Value) {
			return fmt.Errorf("slot %d: %v hop %d birth %v %v, want %v hop %d birth %v %v",
				i, g.ID, g.Hop, g.Birth, g.Value, w.ID, w.Hop, w.Birth, w.Value)
		}
	}
	return nil
}

// TestMergeLinkMatchesFresh holds every MergeLink of a star exchange
// against a freshLink fed the same receipts: after every Absorb, the
// link's Delta must be the reference's, point for point and in order,
// whatever the link keeps between rounds to get there.
func TestMergeLinkMatchesFresh(t *testing.T) {
	type star struct {
		name  string
		parts [][]Point
	}
	var stars []star
	for seed := uint64(1); seed <= 3; seed++ {
		parts, _ := clusteredParts(seed, 3, 150)
		if seed%2 == 0 {
			parts[1] = append(parts[1], parts[0][:50]...) // overlap
		}
		stars = append(stars, star{fmt.Sprintf("clustered/seed=%d", seed), parts})
		r := rng(seed)
		uniform := make([][]Point, 3)
		for i := range uniform {
			uniform[i] = randPoints(r, NodeID(i+1), 80, 2, 100)
		}
		stars = append(stars, star{fmt.Sprintf("uniform/seed=%d", seed), uniform})
	}
	for _, rk := range []Ranker{NN(), KNN{K: 3}, CountWithin{Alpha: 2}} {
		for _, s := range stars {
			t.Run(rk.Name()+"/"+s.name, func(t *testing.T) {
				const n = 4
				links := make([]*MergeLink, len(s.parts))
				refs := make([]*freshLink, len(s.parts))
				ledgers := make([]*Set, len(s.parts))
				for i, pts := range s.parts {
					links[i] = NewMergeSource(rk, n, pts).NewLink()
					refs[i] = newFreshLink(rk, n, pts)
					ledgers[i] = NewSet()
				}
				cand := NewSet()
				for round := 0; ; round++ {
					if round == 64 {
						t.Fatal("star exchange did not converge in 64 rounds")
					}
					quiet := true
					var center *MergeSource
					if cand.Len() > 0 {
						center = NewMergeSource(rk, n, cand.Points())
					}
					for i := range links {
						if center != nil {
							down := center.Delta(ledgers[i])
							quiet = quiet && len(down) == 0
							for _, p := range down {
								ledgers[i].AddMinHop(p)
							}
							links[i].Absorb(down)
							refs[i].absorb(down)
							if round%2 == 1 {
								links[i].Absorb(down) // a redelivery changes nothing
							}
						}
						up := links[i].Delta()
						if err := pointDiff(up, refs[i].delta()); err != nil {
							t.Fatalf("round %d link %d: Delta differs from a fresh source's: %v", round, i, err)
						}
						quiet = quiet && len(up) == 0
						for _, p := range up {
							ledgers[i].AddMinHop(p)
							cand.AddMinHop(p)
						}
					}
					if quiet {
						return
					}
				}
			})
		}
	}
}

// TestMergeLinksShareASource runs links over one shared source from
// several goroutines at once, as a shard's concurrent sessions do: each
// link rebuilds its own source from the shared one's estimate (Rebase only
// reads it), and each delta must still be a freshLink's. Run it under
// -race.
func TestMergeLinksShareASource(t *testing.T) {
	parts, _ := clusteredParts(5, 5, 300)
	rk, n := KNN{K: 3}, 4
	base := NewMergeSource(rk, n, parts[0][1:]).Rebase(parts[0])
	want := make([][]Point, len(parts)-1)
	for i := range want {
		ref := newFreshLink(rk, n, parts[0])
		ref.absorb(TopN(rk, NewSet(parts[i+1]...), 8))
		want[i] = ref.delta()
	}
	var wg sync.WaitGroup
	for i := range want {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			link := base.NewLink()
			link.Absorb(TopN(rk, NewSet(parts[i+1]...), 8))
			if err := pointDiff(link.Delta(), want[i]); err != nil {
				t.Errorf("link %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
}
