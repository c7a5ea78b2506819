package dataset

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"innet/internal/wsn"
)

func TestGenerateDefaults(t *testing.T) {
	st, err := Generate(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st.Nodes()); got != 53 {
		t.Fatalf("nodes = %d, want 53", got)
	}
	wantEpochs := int(1000/15) + 1
	if st.Epochs() != wantEpochs {
		t.Fatalf("epochs = %d, want %d", st.Epochs(), wantEpochs)
	}
	for _, id := range st.Nodes() {
		if got := len(st.Samples(id)); got != wantEpochs {
			t.Fatalf("node %d has %d samples", id, got)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Nodes: -1}); err == nil {
		t.Fatal("negative Nodes must fail")
	}
	if _, err := Generate(Config{MissingProb: 1.5}); err == nil {
		t.Fatal("probability out of range must fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range a.Nodes() {
		sa, sb := a.Samples(id), b.Samples(id)
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("node %d epoch %d differs: %+v vs %+v", id, i, sa[i], sb[i])
			}
		}
	}
	c, err := Generate(Config{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if c.Samples(1)[5].Temp == a.Samples(1)[5].Temp {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestLayoutConnectedAtPaperRange(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed))
		pos := LabLayout(53, 50, rng)
		topo := wsn.NewTopology(pos, 6.77)
		if !topo.Connected() {
			t.Fatalf("seed %d: layout disconnected at 6.77 m", seed)
		}
		if topo.Diameter() < 3 {
			t.Fatalf("seed %d: diameter %d too small to be multi-hop", seed, topo.Diameter())
		}
		// Everything inside the terrain.
		for id, p := range pos {
			if p.X < 0 || p.X > 50 || p.Y < 0 || p.Y > 50 {
				t.Fatalf("node %d at %+v escapes the 50 m terrain", id, p)
			}
		}
	}
}

func TestSpatialCorrelation(t *testing.T) {
	st, err := Generate(Config{Seed: 7, SpikeProb: 1e-12, StuckProb: 1e-12, MissingProb: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	pos := st.Positions()
	ids := st.Nodes()
	// Average |ΔT| between 5 m neighbors must be well below the
	// average |ΔT| between far-apart pairs.
	var nearSum, farSum float64
	var nearN, farN int
	for _, a := range ids {
		for _, b := range ids {
			if a >= b {
				continue
			}
			d := pos[a].Dist(pos[b])
			dt := math.Abs(st.Samples(a)[10].Temp - st.Samples(b)[10].Temp)
			if d < 8 {
				nearSum += dt
				nearN++
			} else if d > 30 {
				farSum += dt
				farN++
			}
		}
	}
	if nearN == 0 || farN == 0 {
		t.Fatal("degenerate layout")
	}
	if nearSum/float64(nearN) >= farSum/float64(farN) {
		t.Fatalf("no spatial correlation: near %v, far %v",
			nearSum/float64(nearN), farSum/float64(farN))
	}
}

func TestTemporalCorrelation(t *testing.T) {
	st, err := Generate(Config{Seed: 9, SpikeProb: 1e-12, StuckProb: 1e-12, MissingProb: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	series := st.Samples(5)
	var stepSum float64
	for i := 1; i < len(series); i++ {
		stepSum += math.Abs(series[i].Temp - series[i-1].Temp)
	}
	avgStep := stepSum / float64(len(series)-1)
	if avgStep > 0.5 {
		t.Fatalf("consecutive readings jump by %v°C on average; stream is not smooth", avgStep)
	}
}

func TestFaultInjection(t *testing.T) {
	st, err := Generate(Config{Seed: 11, SpikeProb: 0.05, StuckProb: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if st.FaultCount() == 0 {
		t.Fatal("no faults injected at elevated rates")
	}
	spikes, stucks := 0, 0
	for _, id := range st.Nodes() {
		for _, s := range st.Samples(id) {
			switch s.Fault {
			case FaultSpike:
				spikes++
				if math.Abs(s.Temp) < 1 {
					t.Fatalf("spike with near-zero magnitude: %+v", s)
				}
			case FaultStuck:
				stucks++
				if s.Temp < 40 {
					t.Fatalf("stuck-at fault not at rail: %+v", s)
				}
			}
		}
	}
	if spikes == 0 || stucks == 0 {
		t.Fatalf("fault mix missing a class: %d spikes, %d stuck", spikes, stucks)
	}
}

func TestMissingImputation(t *testing.T) {
	st, err := Generate(Config{Seed: 13, MissingProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if st.MissingCount() == 0 {
		t.Fatal("no readings went missing at 20%")
	}
	for _, id := range st.Nodes() {
		series := st.Samples(id)
		for i, s := range series {
			if !s.Missing || i < 5 {
				continue
			}
			// The imputed value is the window mean of the previous
			// five stored readings.
			var want float64
			for _, prev := range series[i-5 : i] {
				want += prev.Temp
			}
			want /= 5
			if math.Abs(s.Temp-want) > 1e-9 {
				t.Fatalf("node %d epoch %d: imputed %v, want window mean %v",
					id, i, s.Temp, want)
			}
		}
	}
}

func TestFeatures(t *testing.T) {
	s := Sample{Temp: 20, X: 3, Y: 4}
	got := s.Features()
	if got[0] != 20 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("Features = %v", got)
	}
}

func TestAtBounds(t *testing.T) {
	st, err := Generate(Config{Seed: 1, Nodes: 3, Duration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.At(1, 0); !ok {
		t.Fatal("epoch 0 must exist")
	}
	if _, ok := st.At(1, st.Epochs()); ok {
		t.Fatal("epoch past the end must not exist")
	}
	if _, ok := st.At(1, -1); ok {
		t.Fatal("negative epoch must not exist")
	}
}

func TestFaultKindString(t *testing.T) {
	if FaultNone.String() != "none" || FaultSpike.String() != "spike" || FaultStuck.String() != "stuck" {
		t.Fatal("FaultKind strings")
	}
	if FaultKind(9).String() == "" {
		t.Fatal("unknown kind must still format")
	}
}

// Property: generated temperatures stay within physical bounds for any
// seed (no runaway AR(1) or fault arithmetic).
func TestTemperatureBounds(t *testing.T) {
	f := func(seed uint64) bool {
		st, err := Generate(Config{Seed: seed, Nodes: 10, Duration: 5 * time.Minute})
		if err != nil {
			return false
		}
		for _, id := range st.Nodes() {
			for _, s := range st.Samples(id) {
				if s.Temp < -20 || s.Temp > 70 || math.IsNaN(s.Temp) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
