// Package loadgen is the exactness harness: a config-driven generator
// and evaluator that fires synthetic sensor fleets at a live innetd or
// innet-coord cluster over the UDP line protocol and checks, at
// checkpoints, that what the system serves is still the centralized
// answer. Scenarios are JSON files selecting a reading regime (steady,
// drift, burst outliers, diurnal cycles) and overlays (node churn,
// simulated radio loss, adversarial collusion), all driven by one seeded
// PRNG so a scenario replays bit-identically. Timings are not its job:
// bench/ is the repo's perf record, and draws its inputs from the same
// Scenario and Trace.
//
// The harness separates the fleet it simulates from the sensors the
// target sees: NodeID is uint16 and a clique mesh is O(n²) links, so a
// million-sensor fleet is multiplexed onto a bounded set of attached
// physical IDs (virtual sensor v emits as physical ID 1 + v mod
// Attached). The target's per-sensor state stays small while the
// harness sweeps a fleet of any size through it.
//
// Exactness checkpoints are the harness's correctness teeth: between
// firing segments it freezes ingestion (the Flush barrier), fetches the
// window the target computed its answer over, recomputes the answer
// centrally with baseline.Compute, and diffs — per merge mode. A run
// whose checkpoints all match is a run where the distributed answer was
// exact at every freeze point, drops, churn and loss included.
package loadgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"innet/internal/core"
)

// FleetConfig shapes the simulated fleet.
type FleetConfig struct {
	// Sensors is the virtual fleet size (10^3–10^6).
	Sensors int `json:"sensors"`
	// Attached is how many physical sensor IDs the fleet is multiplexed
	// onto at the target; bounded by the uint16 ID space and the
	// target's MaxSensors. Default min(Sensors, 24).
	Attached int `json:"attached"`
	// Dims is the feature-vector dimension. Dim 1 is the reading value;
	// extra dims are stable per-virtual-sensor grid coordinates, like
	// the paper's (temperature, x, y) deployments. Default 1.
	Dims int `json:"dims"`
}

// TrafficConfig shapes the firehose.
type TrafficConfig struct {
	// DurationS is total firing wall time, split evenly across
	// checkpoint segments. Required.
	DurationS float64 `json:"duration_s"`
	// StepMS is the data-time advance between a virtual sensor's
	// consecutive readings. Default 1000.
	StepMS int64 `json:"step_ms"`
	// Rate paces the firehose to this many readings/sec overall;
	// 0 fires as fast as the target's socket accepts writes.
	Rate float64 `json:"rate"`
	// Senders is the bounded concurrent UDP sender count. Default 4.
	Senders int `json:"senders"`
	// LinesPerDatagram batches readings per datagram. Default 32.
	LinesPerDatagram int `json:"lines_per_datagram"`
}

// RegimeConfig selects how the fleet's base readings evolve.
type RegimeConfig struct {
	// Kind: "steady", "drift", "diurnal" or "adversarial".
	Kind string `json:"kind"`
	// Base is the nominal reading value. Noise is the per-reading
	// Gaussian sigma around the regime curve.
	Base  float64 `json:"base"`
	Noise float64 `json:"noise"`
	// DriftPerStep moves half the fleet up and half down each step
	// (kind "drift") — a slow calibration walk.
	DriftPerStep float64 `json:"drift_per_step"`
	// Amplitude/PeriodS shape the sinusoid (kind "diurnal"); each
	// virtual sensor gets a phase offset proportional to its index.
	Amplitude float64 `json:"amplitude"`
	PeriodS   float64 `json:"period_s"`
	// Fraction of the fleet colludes at Base+Magnitude (kind
	// "adversarial"): identical extreme readings that support each
	// other, the gamed-rank pressure case — a lone honest fault must
	// still outrank the colluders' mutual support.
	Magnitude float64 `json:"magnitude"`
	Fraction  float64 `json:"fraction"`
}

// BurstConfig injects outliers: with probability Rate a reading is
// replaced by Base+Offset (plus a small jitter so injected points stay
// distinct). These are the points a correct detector must rank.
type BurstConfig struct {
	Rate   float64 `json:"rate"`
	Offset float64 `json:"offset"`
}

// ChurnConfig takes virtual sensors offline: each step a live sensor
// goes down with probability DownRate, staying down for a uniform
// number of steps in [MinDownSteps, MaxDownSteps].
type ChurnConfig struct {
	DownRate     float64 `json:"down_rate"`
	MinDownSteps int     `json:"min_down_steps"`
	MaxDownSteps int     `json:"max_down_steps"`
}

// LossConfig simulates radio loss: a generated reading is silently
// never sent with probability Rate — the paper's loss model, applied
// harness-side so the expected answer is still computable.
type LossConfig struct {
	Rate float64 `json:"rate"`
}

// DetectorConfig mirrors the detector flags the target daemon runs
// with; the harness needs them to recompute expected answers at
// exactness checkpoints.
type DetectorConfig struct {
	Ranker  string  `json:"ranker"` // nn | knn | kthnn | db
	K       int     `json:"k"`
	Eps     float64 `json:"eps"`
	N       int     `json:"n"`
	WindowS float64 `json:"window_s"`
}

// QueryConfig selects what each checkpoint queries.
type QueryConfig struct {
	// Modes to check: "compact" and/or "full" against a coordinator,
	// "single" against a plain innetd. Defaults by target kind.
	Modes []string `json:"modes"`
}

// CheckpointConfig counts exactness checkpoints, spread evenly through
// the run (0 disables them: the run only fires).
type CheckpointConfig struct {
	Count int `json:"count"`
}

// Scenario is one load-matrix entry, loaded from a JSON file.
type Scenario struct {
	Name        string           `json:"name"`
	Seed        uint64           `json:"seed"`
	Fleet       FleetConfig      `json:"fleet"`
	Traffic     TrafficConfig    `json:"traffic"`
	Regime      RegimeConfig     `json:"regime"`
	Burst       *BurstConfig     `json:"burst,omitempty"`
	Churn       *ChurnConfig     `json:"churn,omitempty"`
	Loss        *LossConfig      `json:"loss,omitempty"`
	Detector    DetectorConfig   `json:"detector"`
	Queries     QueryConfig      `json:"queries"`
	Checkpoints CheckpointConfig `json:"checkpoints"`
}

// Load reads, validates and defaults a scenario file. Unknown fields
// are errors: a typoed overlay key must not silently run a different
// scenario than the matrix claims.
func Load(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	sc := &Scenario{}
	if err := dec.Decode(sc); err != nil {
		return nil, fmt.Errorf("loadgen: %s: %w", path, err)
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("loadgen: %s: %w", path, err)
	}
	return sc, nil
}

// Validate checks the scenario and fills defaults in place.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return errors.New("name is required")
	}
	if sc.Fleet.Sensors < 1 {
		return errors.New("fleet.sensors must be positive")
	}
	if sc.Fleet.Attached == 0 {
		sc.Fleet.Attached = min(sc.Fleet.Sensors, 24)
	}
	if sc.Fleet.Attached < 1 || sc.Fleet.Attached > 60000 {
		return fmt.Errorf("fleet.attached %d outside [1, 60000] (sensor IDs are uint16)", sc.Fleet.Attached)
	}
	if sc.Fleet.Dims == 0 {
		sc.Fleet.Dims = 1
	}
	if sc.Fleet.Dims < 1 || sc.Fleet.Dims > 255 {
		return fmt.Errorf("fleet.dims %d outside [1, 255]", sc.Fleet.Dims)
	}
	if sc.Traffic.DurationS <= 0 {
		return errors.New("traffic.duration_s must be positive")
	}
	if sc.Traffic.StepMS == 0 {
		sc.Traffic.StepMS = 1000
	}
	if sc.Traffic.StepMS < 0 {
		return errors.New("traffic.step_ms must be positive")
	}
	if sc.Traffic.Rate < 0 {
		return errors.New("traffic.rate must be >= 0")
	}
	if sc.Traffic.Senders == 0 {
		sc.Traffic.Senders = 4
	}
	if sc.Traffic.Senders < 1 || sc.Traffic.Senders > 256 {
		return fmt.Errorf("traffic.senders %d outside [1, 256]", sc.Traffic.Senders)
	}
	if sc.Traffic.LinesPerDatagram == 0 {
		sc.Traffic.LinesPerDatagram = 32
	}
	if sc.Traffic.LinesPerDatagram < 1 || sc.Traffic.LinesPerDatagram > 1000 {
		return fmt.Errorf("traffic.lines_per_datagram %d outside [1, 1000]", sc.Traffic.LinesPerDatagram)
	}
	switch sc.Regime.Kind {
	case "steady", "drift", "diurnal", "adversarial":
	case "":
		sc.Regime.Kind = "steady"
	default:
		return fmt.Errorf("regime.kind %q (want steady, drift, diurnal or adversarial)", sc.Regime.Kind)
	}
	if sc.Regime.Kind == "diurnal" && sc.Regime.PeriodS <= 0 {
		return errors.New("regime.period_s must be positive for the diurnal regime")
	}
	if sc.Regime.Kind == "adversarial" && (sc.Regime.Fraction < 0 || sc.Regime.Fraction > 1) {
		return errors.New("regime.fraction must be in [0, 1]")
	}
	if sc.Burst != nil {
		if sc.Burst.Rate < 0 || sc.Burst.Rate > 1 {
			return errors.New("burst.rate must be in [0, 1]")
		}
		if sc.Burst.Offset == 0 {
			return errors.New("burst.offset must be nonzero — a zero-offset burst is not an outlier")
		}
	}
	if sc.Churn != nil {
		if sc.Churn.DownRate < 0 || sc.Churn.DownRate > 1 {
			return errors.New("churn.down_rate must be in [0, 1]")
		}
		if sc.Churn.MinDownSteps < 1 {
			sc.Churn.MinDownSteps = 1
		}
		if sc.Churn.MaxDownSteps < sc.Churn.MinDownSteps {
			sc.Churn.MaxDownSteps = sc.Churn.MinDownSteps
		}
	}
	if sc.Loss != nil && (sc.Loss.Rate < 0 || sc.Loss.Rate > 1) {
		return errors.New("loss.rate must be in [0, 1]")
	}
	if _, err := sc.Ranker(); err != nil {
		return err
	}
	if sc.Detector.N < 1 {
		return errors.New("detector.n must be positive")
	}
	for _, m := range sc.Queries.Modes {
		switch m {
		case "compact", "full", "single":
		default:
			return fmt.Errorf("queries.modes entry %q (want compact, full or single)", m)
		}
	}
	if sc.Checkpoints.Count < 0 {
		return errors.New("checkpoints.count must be >= 0")
	}
	return nil
}

// Ranker builds the core ranker the scenario's detector config names —
// through the same core.ParseRanker as the daemons' -ranker flag, so the
// harness's baseline recomputation ranks exactly like the target. An
// omitted ranker is nn.
func (sc *Scenario) Ranker() (core.Ranker, error) {
	name := sc.Detector.Ranker
	if name == "" {
		name = "nn"
	}
	r, err := core.ParseRanker(name, sc.Detector.K, sc.Detector.Eps)
	if err != nil {
		return nil, fmt.Errorf("detector: %w", err)
	}
	return r, nil
}

// Window returns the detector window as a duration (0 = unwindowed).
func (sc *Scenario) Window() time.Duration {
	return time.Duration(sc.Detector.WindowS * float64(time.Second))
}
