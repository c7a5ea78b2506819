package loadgen

import (
	"math"
	"math/rand/v2"
	"time"

	"innet/internal/core"
)

// Event is one generated reading of the virtual fleet, before the wire.
type Event struct {
	Sensor  core.NodeID // physical ID the virtual sensor emits as
	Virtual int         // virtual sensor index in [0, Fleet.Sensors)
	Step    int         // sweep number; data time = Step*StepMS + Virtual/Attached ms
	At      time.Duration
	Values  []float64
	Down    bool // churn: sensor offline, nothing is generated
	Lost    bool // radio loss: generated but never sent
	Burst   bool // injected outlier the detector must rank
}

// Trace generates the scenario's event stream: one Event per virtual
// sensor per step, in fixed order (step-major, virtual index within),
// every random draw from one seeded PCG — so a (scenario, seed) pair
// replays bit-identically, which is what lets exactness checkpoints
// and the golden regime tests trust the harness itself. Next is an
// infinite stream; the firehose stops consuming at the wall deadline.
// Not safe for concurrent use: one goroutine generates, senders fan
// out downstream.
type Trace struct {
	sc  *Scenario
	rng *rand.Rand

	step int
	idx  int

	downUntil []int // churn: first step the virtual sensor is back up
	gridSide  int   // side of the placement grid for aux dims
}

// traceSeedMix separates the trace PRNG stream from other consumers of
// the same scenario seed (splitmix64's first golden-gamma constant).
const traceSeedMix = 0x9e3779b97f4a7c15

// NewTrace builds the scenario's deterministic event stream.
func NewTrace(sc *Scenario) *Trace {
	t := &Trace{
		sc:        sc,
		rng:       rand.New(rand.NewPCG(sc.Seed, sc.Seed^traceSeedMix)),
		downUntil: make([]int, sc.Fleet.Sensors),
		gridSide:  int(math.Ceil(math.Sqrt(float64(sc.Fleet.Sensors)))),
	}
	if t.gridSide < 1 {
		t.gridSide = 1
	}
	return t
}

// Next returns the next event of the stream.
func (t *Trace) Next() Event {
	sc := t.sc
	v, step := t.idx, t.step
	t.idx++
	if t.idx == sc.Fleet.Sensors {
		t.idx, t.step = 0, t.step+1
	}

	// The virtual sensors multiplexed onto one attached ID emit a step's
	// readings 1 ms apart: a point is (sensor, data time in ms), so at one
	// shared At they would be one point. Validate keeps the stagger inside
	// the step; with one virtual sensor per ID it is 0.
	ev := Event{
		Sensor:  core.NodeID(1 + v%sc.Fleet.Attached),
		Virtual: v,
		Step:    step,
		At:      time.Duration(int64(step)*sc.Traffic.StepMS+int64(v/sc.Fleet.Attached)) * time.Millisecond,
	}

	// Churn first: a down sensor generates nothing, and consumes no
	// value/burst/loss draws — its silence is part of the trace.
	if sc.Churn != nil {
		if t.downUntil[v] > step {
			ev.Down = true
			return ev
		}
		if t.rng.Float64() < sc.Churn.DownRate {
			span := sc.Churn.MaxDownSteps - sc.Churn.MinDownSteps + 1
			t.downUntil[v] = step + sc.Churn.MinDownSteps + t.rng.IntN(span)
			ev.Down = true
			return ev
		}
	}

	ev.Values = make([]float64, 0, sc.Fleet.Dims)
	ev.Values = append(ev.Values, t.value(v, step))

	// Burst overlay: replace the regime value with a far-out one. The
	// jitter keeps concurrent bursts distinct without bringing them
	// close enough to support each other.
	if sc.Burst != nil && t.rng.Float64() < sc.Burst.Rate {
		ev.Burst = true
		ev.Values[0] = sc.Regime.Base + sc.Burst.Offset + sc.Burst.Offset*0.01*t.rng.Float64()
	}

	// Aux dims: a stable position on a unit-spaced grid, scaled down so
	// value distance dominates — the paper's (reading, x, y) shape.
	for d := 1; d < sc.Fleet.Dims; d++ {
		switch d {
		case 1:
			ev.Values = append(ev.Values, 0.01*float64(v%t.gridSide))
		case 2:
			ev.Values = append(ev.Values, 0.01*float64(v/t.gridSide))
		default:
			ev.Values = append(ev.Values, 0)
		}
	}

	// Radio loss last: the reading exists — the fleet just never hears
	// it. Drawn after the value so loss does not perturb the regime.
	if sc.Loss != nil && t.rng.Float64() < sc.Loss.Rate {
		ev.Lost = true
	}
	return ev
}

// value computes the regime curve for virtual sensor v at step.
func (t *Trace) value(v, step int) float64 {
	r := t.sc.Regime
	noise := r.Noise * t.rng.NormFloat64()
	switch r.Kind {
	case "drift":
		dir := 1.0
		if v%2 == 1 {
			dir = -1
		}
		return r.Base + dir*r.DriftPerStep*float64(step) + noise
	case "diurnal":
		periodMS := r.PeriodS * 1000
		phase := float64(v) / float64(t.sc.Fleet.Sensors) // stagger the fleet
		x := 2 * math.Pi * (float64(int64(step)*t.sc.Traffic.StepMS)/periodMS + phase)
		return r.Base + r.Amplitude*math.Sin(x) + noise
	case "adversarial":
		if float64(v) < r.Fraction*float64(t.sc.Fleet.Sensors) {
			// The colluders: identical extreme readings, no noise —
			// maximal mutual support at maximal distance from Base.
			return r.Base + r.Magnitude
		}
		return r.Base + noise
	default: // steady
		return r.Base + noise
	}
}
