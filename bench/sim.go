package main

import (
	"runtime"
	"time"

	"innet/internal/runner"
)

// The simulated cell: the paper's 53-node network on 15 s epochs under
// Global-KNN (k=4, n=4, w=20), cut from the paper's 750 s to 375 s (25
// rounds, 15 of them past the warm-up) so that one cell fits one run.
const (
	simNodes  = 53
	simPeriod = 15 * time.Second
	simLength = 375 * time.Second
	simRounds = int(simLength / simPeriod)
)

// simSeed fixes the simulated deployment (node placement and stream).
// One deployment differs from the next by more than any code change will
// — over ten seeds the wall time of this cell had an interquartile range
// of 0.45 of its median and the energy ratio 0.5 — so sim_global measures
// the program on one deployment and --seed does not reach it; the report
// says so.
const simSeed = defaultSeed

func simConfig(algo runner.Algorithm) runner.Config {
	return runner.Config{
		Algo: algo, Ranker: runner.RankKNN, K: 4, N: 4, WindowSamples: 20,
		Nodes: simNodes, Period: simPeriod, Duration: simLength,
		Seeds: []uint64{simSeed}, Workers: 1, AccuracyEvery: 1,
	}
}

// simOutcome is what a cell computed, in comparable form: a repeat of the
// same cell must reproduce it bit for bit.
type simOutcome struct {
	txJ, accuracy, frames, points, events float64
	compared                              int
}

// simCell runs one cell and returns what it computed and how long it took.
func simCell(tr *tracer, algo runner.Algorithm) (simOutcome, time.Duration, stepSample, error) {
	var s stepSample
	clock := startStep()
	sp := tr.begin("runner.Run")
	res, err := runner.Run(simConfig(algo))
	tr.end(sp)
	clock.stop(&s)
	wall := s.total
	// The simulator is a batch job: a step is one whole cell — nothing
	// inside runner.Run can be timed from here, and a shorter cell would
	// not buy more of them, because the first six rounds (every node
	// learning the network's first windows) take 3.4 s of the 8 s. Its
	// operations are the cell's sensor-rounds.
	s.ops = simNodes * simRounds
	return simOutcome{
		txJ: res.AvgTxJPerRound, accuracy: res.Accuracy, frames: res.FramesSent,
		points: res.PointsSent, events: res.SimEvents, compared: res.AccuracyCount,
	}, wall, s, err
}

// sameCell fails the run when a repeat of the cell computed something else.
func sameCell(res *result, first, again simOutcome) {
	if first != again {
		res.fail("simulation is not deterministic: %+v then %+v", first, again)
	}
}

// runSim is the sim_global workload: the Centralized cell as the energy
// reference (its wall time is the set-up), then Global cells for as long
// as another fits the budget. Nothing but core, wsn and protocol.App does
// any work here.
func runSim(o options) (*result, error) {
	res := newResult(o)
	n := setUps
	if o.trace {
		n = 1
	}
	var central simOutcome
	var setups []float64
	for i := 0; i < n; i++ {
		r, wall, _, err := simCell(nil, runner.AlgoCentralized)
		if err != nil {
			return nil, err
		}
		central = r
		setups = append(setups, wall.Seconds())
	}
	res.putSetups(setups)
	res.remark("--seed is ignored: the simulator always runs the deployment of seed %d", uint64(simSeed))

	var tr *tracer
	var plain, traced measured
	var global simOutcome
	var cellWall time.Duration
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for first := true; ; first = false {
		r, wall, s, err := simCell(nil, runner.AlgoGlobal)
		if err != nil {
			return nil, err
		}
		if !first {
			sameCell(res, global, r)
		}
		global, cellWall = r, wall
		plain.samples = append(plain.samples, s)
		if time.Since(start)+wall > budget {
			break
		}
	}
	if o.trace {
		tr = newTracer()
		tr.nextStep()
		r, _, s, err := simCell(tr, runner.AlgoGlobal)
		if err != nil {
			return nil, err
		}
		sameCell(res, global, r)
		traced.samples = append(traced.samples, s)
		// One pair, untraced first: a single span round a cell of seconds
		// costs nothing, so this is what two cells differ by.
		res.putOverhead([]measured{plain}, []measured{traced})
	}

	stepMetrics(res, []measured{plain})
	res.remark("a step is one cell of %d rounds; %d fit, so step_p95_ms is the slowest of them, not a percentile",
		simRounds, len(plain.samples))
	m := res.Metrics
	m["exact_share"] = global.accuracy // the issue's sim_accuracy
	if central.txJ > 0 {
		m["tx_energy_ratio"] = global.txJ / central.txJ
	}
	m["core.points_sent"] = global.points
	m["wsn.sim_events"] = global.events
	m["wsn.frames_sent"] = global.frames
	m["wsn.events_per_s"] = global.events / cellWall.Seconds()
	m["proc.goroutines"] = float64(runtime.NumGoroutine())
	m["proc.peak_rss_mb"] = peakRSSMB()

	// The simulator has no oracle outside itself: its accuracy is already
	// measured against the centralized ground truth. What must hold is the
	// paper's result — in-network detection agrees with the centralized
	// answer and transmits less — on a run that repeats bit for bit.
	res.Attempted = uint64(global.compared)
	if global.compared == 0 || global.accuracy < 0.95 {
		res.fail("simulated accuracy %.4f over %d sensor-rounds, want at least 0.95", global.accuracy, global.compared)
	}
	if ratio := m["tx_energy_ratio"]; ratio <= 0 || ratio >= 1 {
		res.fail("Global/Centralized transmit energy ratio %.4f, want inside (0, 1)", ratio)
	}
	if o.trace {
		if err := writeSpans(o, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}
