package runner

import (
	"fmt"
	"slices"
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
	AccuracyEvery int
	// Windows is the sweep of the w axis (the paper uses 10..40 in
	// steps of 5).
	Windows []int
	// Outliers is the sweep of the n axis (Fig. 9; the paper uses 1..8).
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
// for concurrent use: Figure fans a figure's cells out in parallel, and a
// cell requested by several figures at once is executed exactly once
// (per-cell single-flight) with every requester blocking on the same run.
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
	return fmt.Sprintf("%v|%s|k%d|n%d|w%d|h%d|%d|%v|%v|%v|%v|acc%d|wu%d",
		cfg.Algo, cfg.Ranker, cfg.K, cfg.N, cfg.WindowSamples, cfg.HopLimit,
		cfg.Nodes, cfg.Period, cfg.Duration, cfg.Seeds, cfg.LossProb,
		cfg.AccuracyEvery, cfg.WarmupRounds)
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

// Axis is the Config field a figure's x axis sets.
type Axis int

// The x axes of §7.
const (
	AxisW     Axis = iota // sliding window w, swept over Scale.Windows
	AxisN                 // outliers reported n, swept over Scale.Outliers
	AxisNodes             // network size; a figure on it fixes its values
)

func (a Axis) String() string { return [...]string{"w", "n", "nodes"}[a] }

func (a Axis) set(cfg *Config, x int) {
	switch a {
	case AxisW:
		cfg.WindowSamples = x
	case AxisN:
		cfg.N = x
	case AxisNodes:
		cfg.Nodes = x
	}
}

func (a Axis) sweep(scale Scale) []int {
	switch a {
	case AxisW:
		return scale.Windows
	case AxisN:
		return scale.Outliers
	}
	return nil
}

// Curve is one labeled line of a figure: the algorithm, ranker and ε its
// cells run. Each cell has the paper's k=4, n=4 and w=20 unless the
// figure's axis sets one of them.
type Curve struct {
	Label    string
	Algo     Algorithm
	Ranker   RankerKind
	HopLimit int
}

func (c Curve) config(scale Scale) Config {
	cfg := scale.base(c.Algo)
	cfg.Ranker, cfg.K, cfg.N, cfg.WindowSamples, cfg.HopLimit = c.Ranker, 4, 4, 20, c.HopLimit
	return cfg
}

// Metric is one quantity a figure plots, under its TSV name.
type Metric struct {
	Name string
	Of   func(SeriesPoint) float64
}

// FigureSpec is one table or figure of §7: its curves over one x axis,
// and the metrics it plots.
type FigureSpec struct {
	ID, Title string
	X         Axis
	Xs        []int // the x values; nil takes the axis's sweep from the Scale
	Curves    []Curve
	Metrics   []Metric
	// NormalizeAt keeps only these x values and divides each point's
	// min/avg/max energy by its average (Fig. 6).
	NormalizeAt []int
}

func (f FigureSpec) xs(scale Scale) []int {
	xs := f.Xs
	if xs == nil {
		xs = f.X.sweep(scale)
	}
	if f.NormalizeAt == nil {
		return xs
	}
	var kept []int
	for _, x := range xs {
		if slices.Contains(f.NormalizeAt, x) {
			kept = append(kept, x)
		}
	}
	return kept
}

var (
	globalCurves = []Curve{
		{"Centralized", AlgoCentralized, RankNN, 0},
		{"Global-NN", AlgoGlobal, RankNN, 0},
		{"Global-KNN", AlgoGlobal, RankKNN, 0},
	}
	energy = []Metric{{"tx_J_per_round", MetricTx}, {"rx_J_per_round", MetricRx}}
)

// semiCurves is the centralized curve and the semi-global ones for
// ε ∈ {1, 2, 3} with the given ranker.
func semiCurves(ranker RankerKind) []Curve {
	return []Curve{
		{"Centralized", AlgoCentralized, RankNN, 0},
		{"Semi-global, epsilon=1", AlgoSemiGlobal, ranker, 1},
		{"Semi-global, epsilon=2", AlgoSemiGlobal, ranker, 2},
		{"Semi-global, epsilon=3", AlgoSemiGlobal, ranker, 3},
	}
}

// Figures is §7 in cmd/expfig's order: Figs. 4–9, the §7.1 accuracy
// claim and the 32- vs 53-node comparison. Figs. 4–6 share their cells,
// and the centralized curve is shared by Figs. 7–9.
var Figures = []FigureSpec{
	{ID: "fig4", Title: "Avg TX/RX energy per node per round vs w (global, n=4, k=4)",
		X: AxisW, Curves: globalCurves, Metrics: energy},
	{ID: "fig5", Title: "Avg/min/max total energy per node vs w (global)",
		X: AxisW, Curves: globalCurves, Metrics: []Metric{
			{"avg_total_J", MetricAvgJ}, {"min_total_J", MetricMinJ}, {"max_total_J", MetricMaxJ}}},
	{ID: "fig6", Title: "Normalized min/avg/max node energy (global), w ∈ {10,20,40}",
		X: AxisW, Curves: globalCurves, NormalizeAt: []int{10, 20, 40}, Metrics: []Metric{
			{"normalized_min", MetricMinJ}, {"normalized_avg", MetricAvgJ}, {"normalized_max", MetricMaxJ}}},
	{ID: "fig7", Title: "Avg TX/RX energy per node per round vs w (semi-global NN, n=4)",
		X: AxisW, Curves: semiCurves(RankNN), Metrics: energy},
	{ID: "fig8", Title: "Avg TX/RX energy per node per round vs w (semi-global KNN, n=4, k=4)",
		X: AxisW, Curves: semiCurves(RankKNN), Metrics: energy},
	{ID: "fig9", Title: "Avg TX/RX energy per node per round vs n (semi-global KNN, w=20, k=4)",
		X: AxisN, Curves: semiCurves(RankKNN), Metrics: energy},
	{ID: "accuracy", Title: "Detection accuracy (§7.1 reports ≈0.99 for the distributed algorithms)",
		X: AxisW, Xs: []int{20}, Curves: []Curve{
			{"Global-NN", AlgoGlobal, RankNN, 0},
			{"Global-KNN", AlgoGlobal, RankKNN, 0},
			{"Semi-global NN eps=2", AlgoSemiGlobal, RankNN, 2},
			{"Centralized", AlgoCentralized, RankNN, 0},
		}, Metrics: []Metric{{"accuracy", MetricAccuracy}}},
	{ID: "scale", Title: "Distributed advantage vs network size (TX J per node per round, w=20, n=4)",
		X: AxisNodes, Xs: []int{32, 53}, Curves: globalCurves[:2], Metrics: energy},
}

// Figure runs spec's cells, one per curve and x value, all at once
// through the session, and assembles the curves by index, so the output
// does not depend on scheduling.
func (s *Session) Figure(spec FigureSpec, scale Scale) (Figure, error) {
	xs := spec.xs(scale)
	fig := Figure{ID: spec.ID, Title: spec.Title, XLabel: spec.X.String(), Series: make([]Series, len(spec.Curves))}
	for i, c := range spec.Curves {
		fig.Series[i] = Series{Label: c.Label, Points: make([]SeriesPoint, len(xs))}
	}
	err := forEachIndex(len(spec.Curves)*len(xs), func(i int) error {
		c, x := spec.Curves[i/len(xs)], xs[i%len(xs)]
		cfg := c.config(scale)
		spec.X.set(&cfg, x)
		res, err := s.run(cfg)
		if err != nil {
			return fmt.Errorf("%s %s=%d: %w", c.Label, spec.X, x, err)
		}
		p := point(float64(x), res)
		if spec.NormalizeAt != nil && p.AvgJ > 0 {
			p.MinJ /= p.AvgJ
			p.MaxJ /= p.AvgJ
			p.AvgJ = 1
		}
		fig.Series[i/len(xs)].Points[i%len(xs)] = p
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
