package runner

import (
	"strings"
	"testing"
	"time"
)

// microScale is a tiny-but-complete sweep for testing the figure layer.
func microScale() Scale {
	return Scale{
		Nodes:         9,
		Period:        10 * time.Second,
		Duration:      120 * time.Second,
		Seeds:         []uint64{1},
		AccuracyEvery: 4,
		Windows:       []int{5, 8},
		Outliers:      []int{1, 2},
	}
}

// TestFig4SeriesShape checks every energy figure the session builds on
// the micro scale: the series the paper plots, one point per x value, and
// non-zero energy past warm-up.
func TestFig4SeriesShape(t *testing.T) {
	s := NewSession()
	scale := microScale()
	semi := []string{"Centralized", "Semi-global, epsilon=1", "Semi-global, epsilon=2", "Semi-global, epsilon=3"}
	for _, tc := range []struct {
		id     string
		build  func(Scale) (Figure, error)
		labels []string
		points int
	}{
		{"fig4", s.Fig4, []string{"Centralized", "Global-NN", "Global-KNN"}, len(scale.Windows)},
		{"fig7", s.Fig7, semi, len(scale.Windows)},
		{"fig8", s.Fig8, semi, len(scale.Windows)},
		{"fig9", s.Fig9, semi, len(scale.Outliers)},
		{"scale", s.ScaleComparison, []string{"Centralized", "Global-NN"}, 2},
	} {
		fig, err := tc.build(scale)
		if err != nil {
			t.Fatal(err)
		}
		if fig.ID != tc.id || len(fig.Series) != len(tc.labels) {
			t.Fatalf("%s shape: %s with %d series", tc.id, fig.ID, len(fig.Series))
		}
		for i, ser := range fig.Series {
			if ser.Label != tc.labels[i] {
				t.Fatalf("%s series %d is %q, want %q", tc.id, i, ser.Label, tc.labels[i])
			}
			if len(ser.Points) != tc.points {
				t.Fatalf("%s series %s has %d points, want %d", tc.id, ser.Label, len(ser.Points), tc.points)
			}
			for _, p := range ser.Points {
				if p.TxJ <= 0 || p.RxJ <= 0 {
					t.Fatalf("%s series %s has empty energy at x=%g", tc.id, ser.Label, p.X)
				}
			}
		}
	}
}

func TestSessionMemoizesAcrossFigures(t *testing.T) {
	s := NewSession()
	calls := 0
	s.Observer = func(Config, Result) { calls++ }
	scale := microScale()
	if _, err := s.Fig4(scale); err != nil {
		t.Fatal(err)
	}
	after4 := calls
	// Fig5 and Fig6 reuse Fig4's runs entirely.
	if _, err := s.Fig5(scale); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig6(scale); err != nil {
		t.Fatal(err)
	}
	if calls != after4 {
		t.Fatalf("figs 5/6 re-ran %d cells; expected full cache reuse", calls-after4)
	}
}

func TestFig6Normalization(t *testing.T) {
	s := NewSession()
	scale := microScale()
	scale.Windows = []int{10, 20} // fig6 keeps only w ∈ {10,20,40}
	fig, err := s.Fig6(scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, ser := range fig.Series {
		for _, p := range ser.Points {
			if p.AvgJ != 1 {
				t.Fatalf("normalized avg must be 1, got %v", p.AvgJ)
			}
			if p.MinJ > 1 || p.MaxJ < 1 {
				t.Fatalf("normalized min/max out of order: %v/%v", p.MinJ, p.MaxJ)
			}
		}
	}
}

func TestAccuracyTableSeries(t *testing.T) {
	s := NewSession()
	fig, err := s.AccuracyTable(microScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("accuracy table has %d rows", len(fig.Series))
	}
	for _, ser := range fig.Series {
		if len(ser.Points) != 1 {
			t.Fatalf("row %s has %d cells", ser.Label, len(ser.Points))
		}
		if acc := ser.Points[0].Accuracy; acc < 0 || acc > 1 {
			t.Fatalf("row %s accuracy %v out of range", ser.Label, acc)
		}
	}
}

func TestTSVRendering(t *testing.T) {
	fig := Figure{
		ID:     "t",
		Title:  "test",
		XLabel: "w",
		Series: []Series{
			{Label: "A", Points: []SeriesPoint{{X: 1, TxJ: 0.5}, {X: 2, TxJ: 0.25}}},
			{Label: "B", Points: []SeriesPoint{{X: 2, TxJ: 1.5}}},
		},
	}
	tsv := fig.TSV(MetricTx, "tx")
	lines := strings.Split(strings.TrimSpace(tsv), "\n")
	if len(lines) != 4 {
		t.Fatalf("TSV lines = %d: %q", len(lines), tsv)
	}
	if !strings.HasPrefix(lines[1], "w\tA\tB") {
		t.Fatalf("header = %q", lines[1])
	}
	if lines[2] != "1\t0.5\t" {
		t.Fatalf("row 1 = %q (missing cell must be empty)", lines[2])
	}
	if lines[3] != "2\t0.25\t1.5" {
		t.Fatalf("row 2 = %q", lines[3])
	}
}

func TestCacheKeyDistinguishesConfigs(t *testing.T) {
	base := Config{Algo: AlgoGlobal, Ranker: RankNN}
	base.applyDefaults()
	keys := map[string]string{}
	variants := map[string]func(Config) Config{
		"base":     func(c Config) Config { return c },
		"knn":      func(c Config) Config { c.Ranker = RankKNN; return c },
		"w":        func(c Config) Config { c.WindowSamples = 33; return c },
		"n":        func(c Config) Config { c.N = 7; return c },
		"hop":      func(c Config) Config { c.HopLimit = 2; return c },
		"algo":     func(c Config) Config { c.Algo = AlgoCentralized; return c },
		"loss":     func(c Config) Config { c.LossProb = 0.5; return c },
		"nodes":    func(c Config) Config { c.Nodes = 32; return c },
		"duration": func(c Config) Config { c.Duration = 123 * time.Second; return c },
	}
	for name, mutate := range variants {
		key := cacheKey(mutate(base))
		if prev, dup := keys[key]; dup {
			t.Fatalf("configs %q and %q collide on cache key %q", name, prev, key)
		}
		keys[key] = name
	}
}

func TestScaleBaseAppliesKnobs(t *testing.T) {
	scale := microScale()
	cfg := scale.base(AlgoGlobal)
	if cfg.Nodes != 9 || cfg.Period != 10*time.Second || len(cfg.Seeds) != 1 {
		t.Fatalf("base config did not inherit scale: %+v", cfg)
	}
}
