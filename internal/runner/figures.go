package runner

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Scale bundles the simulation-scale knobs shared by every figure, so
// cmd/expfig's quick and full paper-scale regenerations run the same code.
type Scale struct {
	Nodes         int
	Period        time.Duration
	Duration      time.Duration
	Seeds         []uint64
	LossProb      float64
	AccuracyEvery int
	// Windows is the sliding-window sweep (the paper uses 10..40 in
	// steps of 5).
	Windows []int
	// Outliers is the n sweep of Fig. 9 (the paper uses 1..8).
	Outliers []int
}

// PaperScale reproduces the paper's setup: 53 sensors, 1000 s of
// simulated time, four seeds. The sampling period is 15 s rather than
// the Intel lab's 31 s so the run spans 66 epochs and the full w ∈
// [10, 40] sweep differentiates — at 31 s the paper's own 1000 s runs
// hold at most 33 samples, so a 40-sample window can never fill (which
// may explain their missing Global-KNN w=40 data point).
func PaperScale() Scale {
	return Scale{
		Nodes:         53,
		Period:        15 * time.Second,
		Duration:      1000 * time.Second,
		Seeds:         []uint64{1, 2, 3, 4},
		AccuracyEvery: 5,
		Windows:       []int{10, 15, 20, 25, 30, 35, 40},
		Outliers:      []int{1, 2, 3, 4, 5, 6, 7, 8},
	}
}

// QuickScale is the reduced setup cmd/expfig runs by default: same
// network and sampling cadence as PaperScale, one seed, coarser sweeps,
// and a run just long enough (50 epochs) that even the 40-sample window
// turns over.
func QuickScale() Scale {
	return Scale{
		Nodes:         53,
		Period:        15 * time.Second,
		Duration:      750 * time.Second,
		Seeds:         []uint64{1},
		AccuracyEvery: 4,
		Windows:       []int{10, 20, 40},
		Outliers:      []int{1, 4, 8},
	}
}

func (s Scale) base(algo Algorithm) Config {
	return Config{
		Algo:          algo,
		Nodes:         s.Nodes,
		Period:        s.Period,
		Duration:      s.Duration,
		Seeds:         s.Seeds,
		LossProb:      s.LossProb,
		AccuracyEvery: s.AccuracyEvery,
	}
}

// SeriesPoint is one x-position of one curve, carrying every metric the
// paper plots so a single sweep feeds several figures.
type SeriesPoint struct {
	X        float64
	TxJ      float64 // avg TX J per node per round
	RxJ      float64 // avg RX J per node per round
	AvgJ     float64 // total J per node over the run
	MinJ     float64
	MaxJ     float64
	Accuracy float64
}

// Series is one labeled curve.
type Series struct {
	Label  string
	Points []SeriesPoint
}

// Figure is a regenerated table/figure: a set of curves over one x-axis.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	Series []Series
}

// TSV renders the figure as tab-separated columns: one row per x value,
// one column group per series.
func (f Figure) TSV(metric func(SeriesPoint) float64, metricName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s (%s)\n", f.ID, f.Title, metricName)
	b.WriteString(f.XLabel)
	for _, s := range f.Series {
		b.WriteString("\t" + s.Label)
	}
	b.WriteByte('\n')

	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	for _, x := range sorted {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					cell = fmt.Sprintf("%.6g", metric(p))
				}
			}
			b.WriteString("\t" + cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Session memoizes experiment cells across figures (Figs. 4–6 share the
// same runs; the centralized curve is shared by Figs. 7–9). It is safe
// for concurrent use: the figure builders fan their sweep cells out in
// parallel, and a cell requested by several figures at once is executed
// exactly once (per-cell single-flight) with every requester blocking on
// the same run.
type Session struct {
	mu    sync.Mutex
	cache map[string]*sessionCell

	// Observer, if set, is called after every cell completes (progress
	// reporting in cmd/expfig). Calls are serialized, one per distinct
	// cell, but their order follows completion and is not deterministic
	// under parallel execution. Set it before the first figure request.
	Observer func(cfg Config, res Result)
	obsMu    sync.Mutex

	// Workers bounds how many seed simulations run at once across every
	// cell of the session (a cell's own Config.Workers does not apply);
	// zero means runtime.GOMAXPROCS. Set it before the first figure
	// request.
	Workers int
	semOnce sync.Once
	sem     chan struct{}
}

// sessionCell is the single-flight slot for one experiment cell.
type sessionCell struct {
	once sync.Once
	res  Result
	err  error
}

// NewSession returns an empty memoizing session.
func NewSession() *Session {
	return &Session{cache: make(map[string]*sessionCell)}
}

// cacheKey identifies a cell by every field that affects its results;
// Workers is deliberately absent (it only shapes scheduling).
func cacheKey(cfg Config) string {
	return fmt.Sprintf("%v|%s|k%d|n%d|w%d|h%d|%d|%v|%v|%v|%v|%v|acc%d|wu%d",
		cfg.Algo, cfg.Ranker, cfg.K, cfg.N, cfg.WindowSamples, cfg.HopLimit,
		cfg.Nodes, cfg.Period, cfg.Duration, cfg.Seeds, cfg.LossProb,
		cfg.LocationWeight, cfg.AccuracyEvery, cfg.WarmupRounds)
}

func (s *Session) run(cfg Config) (Result, error) {
	cfg.applyDefaults()
	key := cacheKey(cfg)
	s.mu.Lock()
	cell, ok := s.cache[key]
	if !ok {
		cell = &sessionCell{}
		s.cache[key] = cell
	}
	s.mu.Unlock()
	s.semOnce.Do(func() { s.sem = slots(s.Workers) })
	cell.once.Do(func() {
		cell.res, cell.err = runCell(cfg, s.sem)
		if cell.err == nil && s.Observer != nil {
			s.obsMu.Lock()
			s.Observer(cfg, cell.res)
			s.obsMu.Unlock()
		}
	})
	return cell.res, cell.err
}

func point(x float64, res Result) SeriesPoint {
	return SeriesPoint{
		X:        x,
		TxJ:      res.AvgTxJPerRound,
		RxJ:      res.AvgRxJPerRound,
		AvgJ:     res.AvgTotalJ,
		MinJ:     res.MinTotalJ,
		MaxJ:     res.MaxTotalJ,
		Accuracy: res.Accuracy,
	}
}

// windowSweep runs one algorithm configuration across the window sweep,
// all cells concurrently. The series is assembled in window order, so the
// output is independent of scheduling.
func (s *Session) windowSweep(scale Scale, label string, mutate func(*Config)) (Series, error) {
	points := make([]SeriesPoint, len(scale.Windows))
	err := forEachIndex(len(scale.Windows), func(i int) error {
		w := scale.Windows[i]
		cfg := scale.base(AlgoGlobal)
		mutate(&cfg)
		cfg.WindowSamples = w
		res, err := s.run(cfg)
		if err != nil {
			return fmt.Errorf("%s w=%d: %w", label, w, err)
		}
		points[i] = point(float64(w), res)
		return nil
	})
	if err != nil {
		return Series{}, err
	}
	return Series{Label: label, Points: points}, nil
}

// globalSweepSeries returns the three curves of Figs. 4–6: Centralized,
// Global-NN and Global-KNN with n=4, k=4. The curves — and their cells —
// compute concurrently.
func (s *Session) globalSweepSeries(scale Scale) ([]Series, error) {
	specs := []struct {
		label  string
		mutate func(*Config)
	}{
		{"Centralized", func(c *Config) { c.Algo = AlgoCentralized; c.Ranker = RankNN; c.N = 4 }},
		{"Global-NN", func(c *Config) { c.Algo = AlgoGlobal; c.Ranker = RankNN; c.N = 4 }},
		{"Global-KNN", func(c *Config) { c.Algo = AlgoGlobal; c.Ranker = RankKNN; c.K = 4; c.N = 4 }},
	}
	out := make([]Series, len(specs))
	err := forEachIndex(len(specs), func(i int) error {
		series, err := s.windowSweep(scale, specs[i].label, specs[i].mutate)
		if err != nil {
			return err
		}
		out[i] = series
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig4 regenerates Figure 4: average TX and RX energy per node per
// sampling period vs w (n=4, k=4) for global outlier detection.
func (s *Session) Fig4(scale Scale) (Figure, error) {
	series, err := s.globalSweepSeries(scale)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig4",
		Title:  "Avg TX/RX energy per node per round vs w (global, n=4, k=4)",
		XLabel: "w",
		Series: series,
	}, nil
}

// Fig5 regenerates Figure 5: average, minimum and maximum total energy
// consumed by a node vs w for global outlier detection.
func (s *Session) Fig5(scale Scale) (Figure, error) {
	series, err := s.globalSweepSeries(scale)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig5",
		Title:  "Avg/min/max total energy per node vs w (global)",
		XLabel: "w",
		Series: series,
	}, nil
}

// Fig6 regenerates Figure 6: min/avg/max energy normalized by the
// average, at w ∈ {10, 20, 40}.
func (s *Session) Fig6(scale Scale) (Figure, error) {
	series, err := s.globalSweepSeries(scale)
	if err != nil {
		return Figure{}, err
	}
	var out []Series
	for _, ser := range series {
		norm := Series{Label: ser.Label}
		for _, p := range ser.Points {
			w := int(p.X)
			if w != 10 && w != 20 && w != 40 {
				continue
			}
			if p.AvgJ > 0 {
				p.MinJ /= p.AvgJ
				p.MaxJ /= p.AvgJ
				p.AvgJ = 1
			}
			norm.Points = append(norm.Points, p)
		}
		out = append(out, norm)
	}
	return Figure{
		ID:     "fig6",
		Title:  "Normalized min/avg/max node energy (global), w ∈ {10,20,40}",
		XLabel: "w",
		Series: out,
	}, nil
}

// semiSweep returns the centralized curve plus semi-global curves for
// ε ∈ {1,2,3} with the given ranker, across the window sweep; all four
// curves compute concurrently.
func (s *Session) semiSweep(scale Scale, ranker RankerKind) ([]Series, error) {
	out := make([]Series, 4)
	err := forEachIndex(4, func(i int) error {
		var (
			series Series
			err    error
		)
		if i == 0 {
			series, err = s.windowSweep(scale, "Centralized",
				func(c *Config) { c.Algo = AlgoCentralized; c.Ranker = RankNN; c.N = 4 })
		} else {
			eps := i
			series, err = s.windowSweep(scale, fmt.Sprintf("Semi-global, epsilon=%d", eps),
				func(c *Config) {
					c.Algo = AlgoSemiGlobal
					c.Ranker = ranker
					c.K = 4
					c.N = 4
					c.HopLimit = eps
				})
		}
		if err != nil {
			return err
		}
		out[i] = series
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig7 regenerates Figure 7: TX/RX energy per round vs w for semi-global
// NN detection, ε ∈ {1,2,3}, against the centralized baseline.
func (s *Session) Fig7(scale Scale) (Figure, error) {
	series, err := s.semiSweep(scale, RankNN)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig7",
		Title:  "Avg TX/RX energy per node per round vs w (semi-global NN, n=4)",
		XLabel: "w",
		Series: series,
	}, nil
}

// Fig8 regenerates Figure 8: the same sweep with KNN (k=4).
func (s *Session) Fig8(scale Scale) (Figure, error) {
	series, err := s.semiSweep(scale, RankKNN)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig8",
		Title:  "Avg TX/RX energy per node per round vs w (semi-global KNN, n=4, k=4)",
		XLabel: "w",
		Series: series,
	}, nil
}

// Fig9 regenerates Figure 9: TX/RX energy per round vs the number of
// reported outliers n (w=20, k=4) for semi-global KNN detection.
func (s *Session) Fig9(scale Scale) (Figure, error) {
	nSweep := func(label string, mutate func(*Config)) (Series, error) {
		points := make([]SeriesPoint, len(scale.Outliers))
		err := forEachIndex(len(scale.Outliers), func(i int) error {
			n := scale.Outliers[i]
			cfg := scale.base(AlgoGlobal)
			mutate(&cfg)
			cfg.N = n
			cfg.WindowSamples = 20
			res, err := s.run(cfg)
			if err != nil {
				return fmt.Errorf("%s n=%d: %w", label, n, err)
			}
			points[i] = point(float64(n), res)
			return nil
		})
		if err != nil {
			return Series{}, err
		}
		return Series{Label: label, Points: points}, nil
	}
	series := make([]Series, 4)
	err := forEachIndex(4, func(i int) error {
		var (
			ser Series
			err error
		)
		if i == 0 {
			ser, err = nSweep("Centralized", func(c *Config) { c.Algo = AlgoCentralized; c.Ranker = RankNN })
		} else {
			eps := i
			ser, err = nSweep(fmt.Sprintf("Semi-global, epsilon=%d", eps), func(c *Config) {
				c.Algo = AlgoSemiGlobal
				c.Ranker = RankKNN
				c.K = 4
				c.HopLimit = eps
			})
		}
		if err != nil {
			return err
		}
		series[i] = ser
		return nil
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig9",
		Title:  "Avg TX/RX energy per node per round vs n (semi-global KNN, w=20, k=4)",
		XLabel: "n",
		Series: series,
	}, nil
}

// AccuracyTable regenerates the §7.1 accuracy claim: the fraction of
// sensor-rounds whose estimate equals ground truth, per algorithm, at
// w=20, n=4.
func (s *Session) AccuracyTable(scale Scale) (Figure, error) {
	specs := []struct {
		label  string
		mutate func(*Config)
	}{
		{"Global-NN", func(c *Config) { c.Algo = AlgoGlobal; c.Ranker = RankNN }},
		{"Global-KNN", func(c *Config) { c.Algo = AlgoGlobal; c.Ranker = RankKNN; c.K = 4 }},
		{"Semi-global NN eps=2", func(c *Config) { c.Algo = AlgoSemiGlobal; c.Ranker = RankNN; c.HopLimit = 2 }},
		{"Centralized", func(c *Config) { c.Algo = AlgoCentralized; c.Ranker = RankNN }},
	}
	fig := Figure{
		ID:     "accuracy",
		Title:  "Detection accuracy (§7.1 reports ≈0.99 for the distributed algorithms)",
		XLabel: "w",
	}
	fig.Series = make([]Series, len(specs))
	err := forEachIndex(len(specs), func(i int) error {
		cfg := scale.base(AlgoGlobal)
		specs[i].mutate(&cfg)
		cfg.N = 4
		cfg.WindowSamples = 20
		res, err := s.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", specs[i].label, err)
		}
		fig.Series[i] = Series{
			Label:  specs[i].label,
			Points: []SeriesPoint{point(20, res)},
		}
		return nil
	})
	if err != nil {
		return Figure{}, err
	}
	return fig, nil
}

// ScaleComparison regenerates the §7.1 network-size observation: the
// distributed algorithm's advantage over centralization grows from the
// 32-node to the 53-node network.
func (s *Session) ScaleComparison(scale Scale) (Figure, error) {
	fig := Figure{
		ID:     "scale",
		Title:  "Distributed advantage vs network size (TX J per node per round, w=20, n=4)",
		XLabel: "nodes",
	}
	labels := []string{"Centralized", "Global-NN"}
	sizes := []int{32, 53}
	fig.Series = make([]Series, len(labels))
	for i, label := range labels {
		fig.Series[i] = Series{Label: label, Points: make([]SeriesPoint, len(sizes))}
	}
	err := forEachIndex(len(labels)*len(sizes), func(i int) error {
		label, nodes := labels[i/len(sizes)], sizes[i%len(sizes)]
		cfg := scale.base(AlgoGlobal)
		cfg.Nodes = nodes
		cfg.N = 4
		cfg.WindowSamples = 20
		cfg.Ranker = RankNN
		if label == "Centralized" {
			cfg.Algo = AlgoCentralized
		}
		res, err := s.run(cfg)
		if err != nil {
			return fmt.Errorf("%s nodes=%d: %w", label, nodes, err)
		}
		fig.Series[i/len(sizes)].Points[i%len(sizes)] = point(float64(nodes), res)
		return nil
	})
	if err != nil {
		return Figure{}, err
	}
	return fig, nil
}

// Metrics available for Figure.TSV rendering.
var (
	MetricTx       = func(p SeriesPoint) float64 { return p.TxJ }
	MetricRx       = func(p SeriesPoint) float64 { return p.RxJ }
	MetricAvgJ     = func(p SeriesPoint) float64 { return p.AvgJ }
	MetricMinJ     = func(p SeriesPoint) float64 { return p.MinJ }
	MetricMaxJ     = func(p SeriesPoint) float64 { return p.MaxJ }
	MetricAccuracy = func(p SeriesPoint) float64 { return p.Accuracy }
)
