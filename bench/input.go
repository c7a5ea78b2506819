package main

import (
	"bytes"
	"strconv"
	"time"

	"innet/internal/core"
	"innet/internal/ingest"
	"innet/internal/loadgen"
)

// The fleet every non-simulator workload drives: 16 attached sensors, one
// reading per sensor per data-time second, KNN(k=2) top-3 over a 200 s
// window — 200 rounds, 3,200 points once full.
const (
	fleetSensors = 16
	windowRounds = 200
	detectorN    = 3
)

// defaultSeed is the seed the checked-in baseline was taken with.
const defaultSeed = 20060704

func detectorConfig() core.Config {
	return core.Config{Ranker: core.KNN{K: 2}, N: detectorN, Window: windowRounds * time.Second}
}

// The benchmark has two input distributions, both a steady regime (base
// 20, noise 0.5) with a burst overlay of faults, because what a step costs
// depends on how much of the window each sensor has been sent, and that
// depends on how often the top-n and its support change.
//
// faulty: one reading in 200 is a fault somewhere in a band 150 wide far
// above the fleet (the overlay jitters by 1% of its offset). About 16
// faults sit in the window at any time, too far apart to support each
// other, so the top-n is always three of them and changes every few
// rounds. Every seed gives the same regime, so these workloads take
// --seed and still repeat.
//
// quiet: the issue's scenario and, to within a factor of two in rate, the
// one every checked-in deployment scenario uses (scripts/scenarios:
// churnloss 0.001/150, smoke 0.002/120, million 0.00005/300). One reading
// in 1000 is a fault and the faults lie within 1.5 of each other; about
// three are in the window, and whenever fewer are the top-n falls back on
// the tail of the noise, for stretches of hundreds of rounds. That is a
// healthy fleet, and it is the slower regime: the noise tail turns over far
// more often than a handful of faults does. Which stretches a run meets
// depends on the seed (median settle 8 ms to 24 ms between seeds), so the
// one workload on this scenario, fleet_quiet, pins its seed.
var (
	faultyBurst = loadgen.BurstConfig{Rate: 0.005, Offset: 15000}
	quietBurst  = loadgen.BurstConfig{Rate: 0.001, Offset: 150}
)

// pinnedSeed is the seed of the workloads that run one stream whatever
// --seed says: fleet_quiet, for the reason above, and fleet_burst, where
// what a step costs is set by the stretch of input a system was filled
// with and keeps to it — on one seed, four systems filled from one part of
// the trace settled in 5.3–5.6 ms and those filled from three other parts
// in 8.7–13.1 ms — so that ten seeds' runs spread by 0.31.
const pinnedSeed = defaultSeed

func scenario(seed uint64, burst loadgen.BurstConfig) *loadgen.Scenario {
	sc := &loadgen.Scenario{
		Name:     "bench",
		Seed:     seed,
		Fleet:    loadgen.FleetConfig{Sensors: fleetSensors, Attached: fleetSensors, Dims: 1},
		Traffic:  loadgen.TrafficConfig{DurationS: 1, StepMS: 1000},
		Regime:   loadgen.RegimeConfig{Kind: "steady", Base: 20, Noise: 0.5},
		Burst:    &burst,
		Detector: loadgen.DetectorConfig{Ranker: "knn", K: 2, N: detectorN, WindowS: windowRounds},
	}
	if err := sc.Validate(); err != nil {
		panic(err) // both scenarios are constants of the benchmark
	}
	return sc
}

// scenarioFor returns the scenario the workload's inputs, and the traced
// run's replays of them, are generated from.
func scenarioFor(o options) *loadgen.Scenario {
	w := stepWorkloads[o.workload]
	seed, burst := o.seed, faultyBurst
	if w.pinSeed {
		seed = pinnedSeed
	}
	if w.quiet {
		burst = quietBurst
	}
	return scenario(seed, burst)
}

// datagrams renders the first steps×roundsPerStep rounds of the scenario's
// trace as line-protocol datagrams, one per step. Within a datagram the
// lines are sensor-major — each sensor's roundsPerStep consecutive
// readings together — which is how a mote that buffers before it
// transmits fills a packet. The program under test sees only these bytes.
func datagrams(sc *loadgen.Scenario, steps, roundsPerStep int) [][]byte {
	trace := loadgen.NewTrace(sc)
	out := make([][]byte, steps)
	perSensor := make([][]byte, fleetSensors)
	for s := range out {
		for i := range perSensor {
			perSensor[i] = perSensor[i][:0]
		}
		for r := 0; r < roundsPerStep; r++ {
			for i := 0; i < fleetSensors; i++ {
				ev := trace.Next()
				perSensor[ev.Sensor-1] = appendLine(perSensor[ev.Sensor-1], ev)
			}
		}
		out[s] = bytes.Join(perSensor, nil)
	}
	return out
}

// appendLine formats one event as "<sensor> <at_ms> <v1>\n"; precision -1
// round-trips, so the target parses the float64 the trace generated.
func appendLine(buf []byte, ev loadgen.Event) []byte {
	buf = strconv.AppendUint(buf, uint64(ev.Sensor), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, ev.At.Milliseconds(), 10)
	for _, v := range ev.Values {
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
	return append(buf, '\n')
}

// lineCounts is the outcome of handing one datagram to a front door,
// counted by the driver for the conservation check.
type lineCounts struct {
	lines, parsed, malformed uint64
}

// parseDatagram splits and parses a datagram exactly as
// ingest.Service.ServeUDP does, handing each reading to sink.
func parseDatagram(tr *tracer, payload []byte, c *lineCounts, sink func(ingest.Reading)) {
	for _, line := range bytes.Split(payload, []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		c.lines++
		sp := tr.begin("ingest.ParseLine")
		r, err := ingest.ParseLine(line)
		tr.end(sp)
		if err != nil {
			c.malformed++
			continue
		}
		c.parsed++
		sink(r)
	}
}
