package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// line builds 1-d points at the given coordinates, originating at
// distinct sequence numbers of node 1.
func line(coords ...float64) []Point {
	pts := make([]Point, len(coords))
	for i, c := range coords {
		pts[i] = NewPoint(1, uint32(i), 0, c)
	}
	return pts
}

func TestRankerNames(t *testing.T) {
	tests := []struct {
		r    Ranker
		want string
	}{
		{r: NN(), want: "NN"},
		{r: KNN{}, want: "NN"},
		{r: KNN{K: 4}, want: "KNN4"},
		{r: KthNN{K: 3}, want: "3thNN"},
		{r: KthNN{}, want: "1thNN"},
		{r: CountWithin{Alpha: 2.5}, want: "DB(2.5)"},
	}
	for _, tt := range tests {
		if got := tt.r.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

func TestParseRanker(t *testing.T) {
	tests := []struct {
		name string
		k    int
		eps  float64
		want Ranker // nil: rejected
	}{
		{name: "nn", want: KNN{K: 1}},
		{name: "knn", k: 2, want: KNN{K: 2}},
		{name: "KNN", k: 3, want: KNN{K: 3}},
		{name: "kthnn", k: 3, want: KthNN{K: 3}},
		{name: "db", eps: 1.5, want: CountWithin{Alpha: 1.5}},
		{name: "knn", k: 0},      // KNN{K: 0} would silently rank as k = 1
		{name: "kthnn", k: -1},   // likewise
		{name: "db", eps: 0},     // nothing is ever within radius 0
		{name: "db", eps: -2},    // α is squared: -2 would silently rank as 2
		{name: "lof", k: 2},      // not anti-monotone, so not a Ranker at all
		{name: "", k: 2, eps: 2}, // no default: callers pick theirs
	}
	for _, tt := range tests {
		got, err := ParseRanker(tt.name, tt.k, tt.eps)
		if tt.want == nil {
			if err == nil {
				t.Errorf("ParseRanker(%q, %d, %v) = %v, want an error", tt.name, tt.k, tt.eps, got)
			}
			continue
		}
		if err != nil || got != tt.want {
			t.Errorf("ParseRanker(%q, %d, %v) = %#v, %v; want %#v", tt.name, tt.k, tt.eps, got, err, tt.want)
		}
	}
}

func TestKNNRankHandComputed(t *testing.T) {
	x := NewPoint(9, 0, 0, 0)
	neighbors := line(1, -2, 4, 8)
	tests := []struct {
		name string
		r    Ranker
		want float64
	}{
		{name: "NN", r: NN(), want: 1},
		{name: "KNN2 avg", r: KNN{K: 2}, want: 1.5},
		{name: "KNN3 avg", r: KNN{K: 3}, want: (1 + 2 + 4) / 3.0},
		{name: "2thNN", r: KthNN{K: 2}, want: 2},
		{name: "4thNN", r: KthNN{K: 4}, want: 8},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.r.Rank(x, neighbors); math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("Rank = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCountWithinRank(t *testing.T) {
	x := NewPoint(9, 0, 0, 0)
	neighbors := line(1, -1, 3, 10)
	r := CountWithin{Alpha: 2}
	if got, want := r.Rank(x, neighbors), 1.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Rank = %v, want %v", got, want)
	}
	if got := r.Rank(x, nil); got != 1 {
		t.Fatalf("isolated point rank = %v, want 1", got)
	}
}

func TestRankInsufficientNeighbors(t *testing.T) {
	x := NewPoint(9, 0, 0, 0)
	one := line(5)
	// Each missing neighbor is charged MissingNeighborPenalty so that
	// small datasets still satisfy the smoothness axiom.
	if got, want := (KNN{K: 3}).Rank(x, one), (2*MissingNeighborPenalty+5)/3; got != want {
		t.Fatalf("KNN3 with one neighbor = %v, want %v", got, want)
	}
	if got, want := (KthNN{K: 2}).Rank(x, one), MissingNeighborPenalty+5; got != want {
		t.Fatalf("KthNN2 with one neighbor = %v, want %v", got, want)
	}
	if got, want := NN().Rank(x, nil), MissingNeighborPenalty; got != want {
		t.Fatalf("NN with no neighbors = %v, want %v", got, want)
	}
	// An undersupplied rank still dominates any realistic supplied rank.
	if (KNN{K: 3}).Rank(x, one) <= (KNN{K: 3}).Rank(x, line(1, 2, 3)) {
		t.Fatal("undersupplied rank must dominate")
	}
}

func TestSupportHandComputed(t *testing.T) {
	x := NewPoint(9, 0, 0, 0)
	neighbors := line(1, -2, 4, 8)
	tests := []struct {
		name string
		r    Ranker
		want []float64 // coordinates of expected support, in order
	}{
		{name: "NN", r: NN(), want: []float64{1}},
		{name: "KNN2", r: KNN{K: 2}, want: []float64{1, -2}},
		{name: "3thNN", r: KthNN{K: 3}, want: []float64{1, -2, 4}},
		{name: "DB(4)", r: CountWithin{Alpha: 4}, want: []float64{1, -2, 4}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.r.Support(x, neighbors)
			if len(got) != len(tt.want) {
				t.Fatalf("support size %d, want %d: %v", len(got), len(tt.want), got)
			}
			for i, w := range tt.want {
				found := false
				for _, p := range got {
					if p.Value[0] == w {
						found = true
					}
				}
				if !found {
					t.Fatalf("support missing coordinate %v (idx %d): %v", w, i, got)
				}
			}
		})
	}
}

func TestKNearestDeterministicTies(t *testing.T) {
	x := NewPoint(9, 0, 0, 0)
	// Two neighbors at identical distance 1; ≺ must break the tie the
	// same way every time.
	a := NewPoint(1, 0, 0, 1)
	b := NewPoint(2, 0, 0, -1)
	first := kNearest(x, []Point{a, b}, 1)
	second := kNearest(x, []Point{b, a}, 1)
	if first[0].ID != second[0].ID {
		t.Fatalf("tie broken inconsistently: %v vs %v", first[0].ID, second[0].ID)
	}
	// ≺ orders by value: -1 < 1.
	if first[0].ID != b.ID {
		t.Fatalf("tie must resolve to ≺-least point, got %v", first[0].ID)
	}
}

func TestKNearestOrdered(t *testing.T) {
	x := NewPoint(9, 0, 0, 0)
	got := kNearest(x, line(8, 1, -2, 4), 3)
	want := []float64{1, -2, 4}
	for i, w := range want {
		if got[i].Value[0] != w {
			t.Fatalf("kNearest[%d] = %v, want %v", i, got[i].Value[0], w)
		}
	}
}

// rankers enumerated for the axiom properties.
func axiomRankers() []Ranker {
	return []Ranker{NN(), KNN{K: 3}, KthNN{K: 2}, CountWithin{Alpha: 15}}
}

// randSplit generates a random Q2 and a random subset Q1 ⊆ Q2.
func randSplit(r *rand.Rand) (q1, q2 []Point) {
	n := 2 + r.IntN(15)
	q2 = randPoints(r, 1, n, 2, 100)
	for _, p := range q2 {
		if r.Float64() < 0.5 {
			q1 = append(q1, p)
		}
	}
	return q1, q2
}

// TestAntiMonotonicityAxiom checks R(x,Q1) ≥ R(x,Q2) for Q1 ⊆ Q2 on all
// rankers (paper §4.1, axiom 1).
func TestAntiMonotonicityAxiom(t *testing.T) {
	for _, rk := range axiomRankers() {
		rk := rk
		t.Run(rk.Name(), func(t *testing.T) {
			f := func(seed uint64) bool {
				r := rng(seed)
				q1, q2 := randSplit(r)
				x := randPoint(r, 2, 0, 2, 100)
				return rk.Rank(x, q1) >= rk.Rank(x, q2)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSmoothnessAxiom checks that whenever R(x,Q1) > R(x,Q2) for Q1 ⊆ Q2,
// some single point z ∈ Q2\Q1 already lowers the rank (paper §4.1,
// axiom 2).
func TestSmoothnessAxiom(t *testing.T) {
	for _, rk := range axiomRankers() {
		rk := rk
		t.Run(rk.Name(), func(t *testing.T) {
			f := func(seed uint64) bool {
				r := rng(seed)
				q1, q2 := randSplit(r)
				x := randPoint(r, 2, 0, 2, 100)
				r1 := rk.Rank(x, q1)
				if r1 <= rk.Rank(x, q2) {
					return true // premise does not hold
				}
				in1 := make(map[PointID]bool, len(q1))
				for _, p := range q1 {
					in1[p.ID] = true
				}
				for _, z := range q2 {
					if in1[z.ID] {
						continue
					}
					if rk.Rank(x, append(append([]Point(nil), q1...), z)) < r1 {
						return true
					}
				}
				return false
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSupportFixesRank checks the defining property of a support set:
// R(x, [P|x]) = R(x, P).
func TestSupportFixesRank(t *testing.T) {
	for _, rk := range axiomRankers() {
		rk := rk
		t.Run(rk.Name(), func(t *testing.T) {
			f := func(seed uint64) bool {
				r := rng(seed)
				neighbors := randPoints(r, 1, 1+r.IntN(20), 2, 100)
				x := randPoint(r, 2, 0, 2, 100)
				sup := rk.Support(x, neighbors)
				return rk.Rank(x, sup) == rk.Rank(x, neighbors)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSupportMinimal verifies by exhaustive subset enumeration on small
// sets that no strictly smaller subset fixes the rank, i.e. Support
// really is the paper's smallest support set.
func TestSupportMinimal(t *testing.T) {
	for _, rk := range axiomRankers() {
		rk := rk
		t.Run(rk.Name(), func(t *testing.T) {
			for seed := uint64(0); seed < 30; seed++ {
				r := rng(seed)
				neighbors := randPoints(r, 1, 1+r.IntN(7), 2, 100)
				x := randPoint(r, 2, 0, 2, 100)
				want := rk.Rank(x, neighbors)
				supSize := len(rk.Support(x, neighbors))
				// Enumerate all subsets smaller than the support.
				n := len(neighbors)
				for mask := 0; mask < 1<<n; mask++ {
					var sub []Point
					for b := 0; b < n; b++ {
						if mask&(1<<b) != 0 {
							sub = append(sub, neighbors[b])
						}
					}
					if len(sub) >= supSize {
						continue
					}
					if rk.Rank(x, sub) == want {
						t.Fatalf("seed %d: subset %v of size %d < %d fixes rank %v",
							seed, idList(sub), len(sub), supSize, want)
					}
				}
			}
		})
	}
}

func TestSupportDoesNotMutateNeighbors(t *testing.T) {
	x := NewPoint(9, 0, 0, 0)
	neighbors := line(8, 1, -2, 4)
	snapshot := idList(neighbors)
	_ = (KNN{K: 2}).Support(x, neighbors)
	_ = (CountWithin{Alpha: 3}).Support(x, neighbors)
	if idList(neighbors) != snapshot {
		t.Fatal("Support reordered the caller's slice")
	}
}
