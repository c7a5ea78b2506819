// Package runner orchestrates the paper's experiments: it assembles the
// simulated network (internal/wsn) with a generated Intel-lab-equivalent
// stream (internal/dataset), runs the distributed algorithms
// (internal/protocol) or the centralized baseline (internal/baseline)
// over it, and collects the metrics §7.1 defines:
//
//  1. detection accuracy (fraction of sensor-rounds whose estimate equals
//     the centrally computed ground truth),
//  2. average TX / RX energy per node per sampling period, and
//  3. the average, minimum and maximum total energy consumed by a node.
//
// The table of §7's figures lives in figures.go.
package runner

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"innet/internal/baseline"
	"innet/internal/core"
	"innet/internal/dataset"
	"innet/internal/protocol"
	"innet/internal/wsn"
)

// Algorithm selects which protocol the network runs.
type Algorithm int

// Algorithms under test.
const (
	AlgoCentralized Algorithm = iota + 1
	AlgoGlobal
	AlgoSemiGlobal
)

func (a Algorithm) String() string {
	switch a {
	case AlgoCentralized:
		return "Centralized"
	case AlgoGlobal:
		return "Global"
	case AlgoSemiGlobal:
		return "Semi-global"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// RankerKind names the outlier ranking functions of the evaluation.
type RankerKind string

// Ranking functions used in §7 (NN and KNN).
const (
	RankNN  RankerKind = "nn"
	RankKNN RankerKind = "knn"
)

// MakeRanker instantiates the ranking function.
func MakeRanker(kind RankerKind, k int) (core.Ranker, error) {
	switch kind {
	case RankNN:
		return core.NN(), nil
	case RankKNN:
		if k < 1 {
			k = 4
		}
		return core.KNN{K: k}, nil
	default:
		return nil, fmt.Errorf("runner: unknown ranker %q", kind)
	}
}

// Config is one experiment cell: an algorithm, its parameters, and the
// simulation scale.
type Config struct {
	Algo          Algorithm
	Ranker        RankerKind
	K             int // neighbors for KNN (paper: 4)
	N             int // outliers to report (paper: 4 default)
	WindowSamples int // the paper's w, in samples
	HopLimit      int // the paper's epsilon, semi-global only

	Nodes    int           // network size (paper: 53, also 32)
	Period   time.Duration // sampling period
	Duration time.Duration // simulated run length (paper: 1000 s)

	Seeds    []uint64 // one run per seed, metrics averaged (paper: 4)
	LossProb float64  // radio loss probability

	// AccuracyEvery measures accuracy on every k-th round (ground truth
	// is expensive at scale); 0 disables accuracy measurement.
	AccuracyEvery int

	// WarmupRounds excludes the first rounds from energy and accuracy
	// averages: the initial reconciliation (every sensor learning the
	// network's first windows, routes being discovered) takes the
	// 53-node network roughly ten rounds and is a deployment one-off,
	// not the steady state the paper plots. Defaults to 10.
	WarmupRounds int

	// Workers bounds how many seed simulations of a Run execute
	// concurrently; zero (the default) means runtime.GOMAXPROCS. Cells
	// run by a Session share the session's bound (Session.Workers)
	// instead. Results are independent of the setting: each seed's
	// simulation is self-contained and deterministic, and aggregation
	// always proceeds in seed order.
	Workers int
}

func (c *Config) applyDefaults() {
	if c.Ranker == "" {
		c.Ranker = RankNN
	}
	if c.K == 0 {
		c.K = 4
	}
	if c.N == 0 {
		c.N = 4
	}
	if c.WindowSamples == 0 {
		c.WindowSamples = 20
	}
	if c.Nodes == 0 {
		c.Nodes = 53
	}
	if c.Period == 0 {
		// The Intel lab motes reported on 31-second epochs.
		c.Period = 31 * time.Second
	}
	if c.Duration == 0 {
		c.Duration = 1000 * time.Second
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []uint64{1, 2, 3, 4}
	}
	if c.WarmupRounds == 0 {
		c.WarmupRounds = 10
	}
}

// Result aggregates one experiment cell across its seeds.
type Result struct {
	Config Config

	// AvgTxJPerRound / AvgRxJPerRound: energy per node per sampling
	// period, averaged over nodes, rounds and seeds (the y-axes of
	// Figs. 4, 7, 8, 9).
	AvgTxJPerRound float64
	AvgRxJPerRound float64

	// AvgTotalJ / MinTotalJ / MaxTotalJ: total energy consumed by a
	// node over the run including idle draw (Figs. 5, 6).
	AvgTotalJ float64
	MinTotalJ float64
	MaxTotalJ float64

	// Accuracy is the fraction of measured sensor-rounds whose estimate
	// matched ground truth exactly (§7.1 reports ≈0.99).
	Accuracy float64

	// Traffic totals across the run (averaged over seeds).
	FramesSent    float64
	PointsSent    float64
	SinkFrames    float64 // frames transmitted by the busiest node
	MeanDegree    float64
	SimEvents     float64
	AccuracyCount int // sensor-round comparisons behind Accuracy

	// Lifetime imbalance (§8): when the hottest-transmitting node has
	// exhausted a battery, MedianTxAtDeath is the fraction of that same
	// battery the median node has used. The paper's closing argument is
	// that centralization drives this toward zero ("the nodes near the
	// collecting point will die ... when many remaining nodes will use
	// just 2% of their energy").
	MaxTxJ          float64
	MedianTxJ       float64
	MedianTxAtDeath float64
}

// Run executes the experiment cell, fanning the seeds out across
// Config.Workers concurrent simulations, and averages over them. The
// result is identical to a sequential run: seeds share no state and the
// averages accumulate in seed order regardless of completion order.
func Run(cfg Config) (Result, error) {
	return runCell(cfg, slots(cfg.Workers))
}

// runCell is Run with the seed simulations bounded by sem.
func runCell(cfg Config, sem chan struct{}) (Result, error) {
	cfg.applyDefaults()
	results := make([]Result, len(cfg.Seeds))
	errs := make([]error, len(cfg.Seeds))
	var wg sync.WaitGroup
	for i, seed := range cfg.Seeds {
		wg.Add(1)
		go func(i int, seed uint64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = runSeed(cfg, seed)
		}(i, seed)
	}
	wg.Wait()

	agg := Result{Config: cfg, MinTotalJ: 0, MaxTotalJ: 0}
	for i := range cfg.Seeds {
		if errs[i] != nil {
			return Result{}, fmt.Errorf("seed %d: %w", cfg.Seeds[i], errs[i])
		}
		one := results[i]
		agg.AvgTxJPerRound += one.AvgTxJPerRound
		agg.AvgRxJPerRound += one.AvgRxJPerRound
		agg.AvgTotalJ += one.AvgTotalJ
		agg.MinTotalJ += one.MinTotalJ
		agg.MaxTotalJ += one.MaxTotalJ
		agg.Accuracy += one.Accuracy
		agg.FramesSent += one.FramesSent
		agg.PointsSent += one.PointsSent
		agg.SinkFrames += one.SinkFrames
		agg.MeanDegree += one.MeanDegree
		agg.SimEvents += one.SimEvents
		agg.AccuracyCount += one.AccuracyCount
		agg.MaxTxJ += one.MaxTxJ
		agg.MedianTxJ += one.MedianTxJ
		agg.MedianTxAtDeath += one.MedianTxAtDeath
	}
	n := float64(len(cfg.Seeds))
	agg.AvgTxJPerRound /= n
	agg.AvgRxJPerRound /= n
	agg.AvgTotalJ /= n
	agg.MinTotalJ /= n
	agg.MaxTotalJ /= n
	agg.Accuracy /= n
	agg.FramesSent /= n
	agg.PointsSent /= n
	agg.SinkFrames /= n
	agg.MeanDegree /= n
	agg.SimEvents /= n
	agg.MaxTxJ /= n
	agg.MedianTxJ /= n
	agg.MedianTxAtDeath /= n
	return agg, nil
}

// seedRun holds the per-seed network under measurement.
type seedRun struct {
	cfg    Config
	stream *dataset.Stream
	topo   *wsn.Topology
	sim    *wsn.Sim
	ranker core.Ranker

	distApps map[core.NodeID]*protocol.App
	centApps map[core.NodeID]*baseline.App
	sink     core.NodeID
}

func runSeed(cfg Config, seed uint64) (Result, error) {
	run, err := buildSeedRun(cfg, seed)
	if err != nil {
		return Result{}, err
	}
	return run.execute()
}

// buildSeedRun assembles the simulated network for one seed without
// running it.
func buildSeedRun(cfg Config, seed uint64) (*seedRun, error) {
	ranker, err := MakeRanker(cfg.Ranker, cfg.K)
	if err != nil {
		return nil, err
	}
	stream, err := dataset.Generate(dataset.Config{
		Nodes:    cfg.Nodes,
		Seed:     seed,
		Period:   cfg.Period,
		Duration: cfg.Duration,
	})
	if err != nil {
		return nil, err
	}
	radio := wsn.DefaultRadio()
	topo := wsn.NewTopology(stream.Positions(), radio.Range)
	if !topo.Connected() {
		return nil, fmt.Errorf("runner: generated topology disconnected")
	}
	sim := wsn.NewSim(wsn.Config{Seed: seed ^ 0xabcd, LossProb: cfg.LossProb})

	run := &seedRun{cfg: cfg, stream: stream, topo: topo, sim: sim, ranker: ranker}
	// A window of w samples: births are epoch-aligned, so evicting at
	// w·period − period/2 keeps exactly epochs (t−w, t].
	window := time.Duration(cfg.WindowSamples)*cfg.Period - cfg.Period/2

	switch cfg.Algo {
	case AlgoGlobal, AlgoSemiGlobal:
		run.distApps = make(map[core.NodeID]*protocol.App, cfg.Nodes)
		hop := 0
		if cfg.Algo == AlgoSemiGlobal {
			hop = cfg.HopLimit
			if hop == 0 {
				hop = 1
			}
		}
		for _, id := range topo.Nodes() {
			app, err := protocol.New(id, protocol.Config{
				Detector: core.Config{
					Ranker:   ranker,
					N:        cfg.N,
					Window:   window,
					HopLimit: hop,
				},
				Stream:   stream,
				Topology: topo,
			})
			if err != nil {
				return nil, err
			}
			run.distApps[id] = app
			sim.AddNode(id, stream.Positions()[id], app)
		}
	case AlgoCentralized:
		run.centApps = make(map[core.NodeID]*baseline.App, cfg.Nodes)
		run.sink = centralNode(stream.Positions(), topo) // the lab's gateway sat mid-floor
		for _, id := range topo.Nodes() {
			app, err := baseline.New(baseline.Config{
				Sink:          run.sink,
				Ranker:        ranker,
				N:             cfg.N,
				WindowSamples: cfg.WindowSamples,
				Stream:        stream,
			})
			if err != nil {
				return nil, err
			}
			run.centApps[id] = app
			sim.AddNode(id, stream.Positions()[id], app)
		}
	default:
		return nil, fmt.Errorf("runner: unknown algorithm %v", cfg.Algo)
	}

	return run, nil
}

// centralNode picks the node nearest the layout centroid as the sink.
func centralNode(positions map[core.NodeID]wsn.Point2, topo *wsn.Topology) core.NodeID {
	var cx, cy float64
	for _, p := range positions {
		cx += p.X
		cy += p.Y
	}
	cx /= float64(len(positions))
	cy /= float64(len(positions))
	best := topo.Nodes()[0]
	bestD := positions[best].Dist(wsn.Point2{X: cx, Y: cy})
	for _, id := range topo.Nodes() {
		if d := positions[id].Dist(wsn.Point2{X: cx, Y: cy}); d < bestD {
			best, bestD = id, d
		}
	}
	return best
}

// execute runs the rounds and gathers metrics.
func (r *seedRun) execute() (Result, error) {
	cfg := r.cfg
	r.sim.Start()

	rounds := r.stream.Epochs()
	type snap struct{ tx, rx float64 }
	prev := make(map[core.NodeID]snap, cfg.Nodes)
	var txSum, rxSum float64
	samples := 0
	accHits, accTotal := 0, 0

	for epoch := 0; epoch < rounds; epoch++ {
		horizon := time.Duration(epoch+1) * cfg.Period
		r.sim.Run(horizon)

		for _, node := range r.sim.Nodes() {
			e := node.Energy()
			p := prev[node.ID]
			if epoch >= cfg.WarmupRounds {
				txSum += e.TxJ - p.tx
				rxSum += e.RxJ - p.rx
				samples++
			}
			prev[node.ID] = snap{tx: e.TxJ, rx: e.RxJ}
		}

		if cfg.AccuracyEvery > 0 && epoch >= cfg.WarmupRounds &&
			(epoch%cfg.AccuracyEvery == 0 || epoch == rounds-1) {
			hits, total := r.measureAccuracy(epoch)
			accHits += hits
			accTotal += total
		}
	}
	// Drain residual traffic without advancing the measured horizon.
	r.sim.Run(cfg.Duration + 5*time.Second)

	res := Result{Config: cfg}
	if samples > 0 {
		res.AvgTxJPerRound = txSum / float64(samples)
		res.AvgRxJPerRound = rxSum / float64(samples)
	}

	radio := wsn.DefaultRadio()
	first := true
	txByNode := make([]float64, 0, cfg.Nodes)
	for _, node := range r.sim.Nodes() {
		total := node.Energy().TotalAt(cfg.Duration, radio.IdlePower)
		res.AvgTotalJ += total
		if first || total < res.MinTotalJ {
			res.MinTotalJ = total
		}
		if first || total > res.MaxTotalJ {
			res.MaxTotalJ = total
		}
		first = false
		frames := float64(node.Counters().FramesSent)
		res.FramesSent += frames
		if frames > res.SinkFrames {
			res.SinkFrames = frames
		}
		txByNode = append(txByNode, node.Energy().TxJ)
	}
	res.AvgTotalJ /= float64(cfg.Nodes)
	sort.Float64s(txByNode)
	res.MedianTxJ = txByNode[len(txByNode)/2]
	res.MaxTxJ = txByNode[len(txByNode)-1]
	if res.MaxTxJ > 0 {
		// §8's lifetime argument: transmission drains the battery of
		// the hottest node first; at that moment the median node has
		// spent this fraction of the same budget.
		res.MedianTxAtDeath = res.MedianTxJ / res.MaxTxJ
	}
	if accTotal > 0 {
		res.Accuracy = float64(accHits) / float64(accTotal)
		res.AccuracyCount = accTotal
	}
	for _, id := range r.topo.Nodes() {
		res.MeanDegree += float64(r.topo.Degree(id))
	}
	res.MeanDegree /= float64(cfg.Nodes)
	res.SimEvents = float64(r.sim.Events())
	if r.distApps != nil {
		for _, app := range r.distApps {
			res.PointsSent += float64(app.Detector().Stats().PointsSent)
		}
	}
	return res, nil
}

// windowSet rebuilds the ground-truth window contents of one sensor at
// the end of the given epoch, directly from the stream.
func (r *seedRun) windowSet(id core.NodeID, epoch int) []core.Point {
	lo := epoch - r.cfg.WindowSamples + 1
	if lo < 0 {
		lo = 0
	}
	var pts []core.Point
	for e := lo; e <= epoch; e++ {
		s, ok := r.stream.At(id, e)
		if !ok {
			continue
		}
		pts = append(pts, core.NewPoint(id, uint32(e), time.Duration(e)*r.cfg.Period, s.Features()...))
	}
	return pts
}

// measureAccuracy compares every sensor's current answer with the ground
// truth for the end of the given epoch. The truth comes from the
// exhaustive oracle (baseline.Compute), never from the cutoff-pruned
// ranking kernel the detectors run, so a kernel bug cannot make both
// sides agree on the same wrong answer.
func (r *seedRun) measureAccuracy(epoch int) (hits, total int) {
	nodes := r.topo.Nodes()
	windows := make(map[core.NodeID][]core.Point, len(nodes))
	for _, id := range nodes {
		windows[id] = r.windowSet(id, epoch)
	}
	truth := func(ids []core.NodeID) map[core.PointID]bool {
		union := make([][]core.Point, len(ids))
		for i, id := range ids {
			union[i] = windows[id]
		}
		return idSet(baseline.Compute(r.ranker, r.cfg.N, union...))
	}
	if r.cfg.Algo == AlgoSemiGlobal {
		hop := r.cfg.HopLimit
		if hop == 0 {
			hop = 1
		}
		for _, id := range nodes {
			var near []core.NodeID
			for other, d := range r.topo.HopDistances(id) {
				if d <= hop {
					near = append(near, other)
				}
			}
			total++
			if sameIDSet(truth(near), idSet(r.distApps[id].Detector().Estimate())) {
				hits++
			}
		}
		return hits, total
	}
	global := truth(nodes)
	for _, id := range nodes {
		total++
		if r.cfg.Algo == AlgoCentralized {
			// The sink computes from data shipped during the round, so
			// a result exists and is recent.
			res, at := r.centApps[id].LastResult()
			if at > 0 && sameIDSet(global, idSet(res)) {
				hits++
			}
		} else if sameIDSet(global, idSet(r.distApps[id].Detector().Estimate())) {
			hits++
		}
	}
	return hits, total
}

func idSet(pts []core.Point) map[core.PointID]bool {
	out := make(map[core.PointID]bool, len(pts))
	for _, p := range pts {
		out[p.ID] = true
	}
	return out
}

func sameIDSet(a, b map[core.PointID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}
