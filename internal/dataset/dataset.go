// Package dataset generates sensor data streams equivalent to the Intel
// Berkeley Research Lab traces the paper evaluates on (the original
// download is unavailable offline; DESIGN.md documents the substitution).
// The generated streams keep the properties the detection workload
// exercises:
//
//   - the paper's schema per reading: sensor ID, epoch, timestamp,
//     temperature, and the sensor's x/y coordinates (which enter the
//     ranking function as features);
//   - spatial correlation: a smooth temperature field over a 53-node,
//     lab-like layout on a 50 m × 50 m terrain, connected at the paper's
//     6.77 m radio range;
//   - temporal correlation: a diurnal drift plus per-sensor AR(1) noise;
//   - rare ground-truth anomalies: transient spikes and stuck-at-rail
//     faults, the classic failure modes of the Intel deployment; and
//   - missing readings, imputed with the sliding-window mean exactly as
//     §7.1 describes.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"innet/internal/core"
	"innet/internal/wsn"
)

// FaultKind labels the ground-truth anomaly class of a sample.
type FaultKind uint8

// Fault kinds.
const (
	FaultNone FaultKind = iota
	FaultSpike
	FaultStuck
)

func (f FaultKind) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultSpike:
		return "spike"
	case FaultStuck:
		return "stuck"
	default:
		return fmt.Sprintf("fault(%d)", uint8(f))
	}
}

// Sample is one sensor reading in the Intel lab schema.
type Sample struct {
	Node  core.NodeID
	Epoch uint32
	At    time.Duration
	Temp  float64
	X, Y  float64
	// Missing marks a reading that was lost in collection and imputed
	// with the sliding-window mean (§7.1).
	Missing bool
	// Fault is the injected ground-truth anomaly class, FaultNone for
	// clean readings.
	Fault FaultKind
}

// Features returns the feature vector the ranking functions consume:
// temperature plus the location coordinates, fed in directly as the
// paper does.
func (s Sample) Features() []float64 {
	return []float64{s.Temp, s.X, s.Y}
}

const (
	// terrain is the edge of the square lab floor, in meters.
	terrain = 50
	// imputeWindow is how many preceding readings the missing-value
	// imputation averages over.
	imputeWindow = 5
)

// Config parameterizes stream generation. The zero value of any field
// takes the defaults of the paper's setup.
type Config struct {
	Nodes    int           // sensor count; default 53
	Seed     uint64        // PRNG seed
	Period   time.Duration // sampling period; default 15 s
	Duration time.Duration // stream length; default 1000 s (paper run)

	MissingProb float64 // P(reading lost); default 0.03
	SpikeProb   float64 // P(transient spike per reading); default 0.008
	StuckProb   float64 // P(entering a stuck-at run per reading); default 0.0015
}

func (c *Config) applyDefaults() {
	if c.Nodes == 0 {
		c.Nodes = 53
	}
	if c.Period == 0 {
		c.Period = 15 * time.Second
	}
	if c.Duration == 0 {
		c.Duration = 1000 * time.Second
	}
	if c.MissingProb == 0 {
		c.MissingProb = 0.03
	}
	if c.SpikeProb == 0 {
		c.SpikeProb = 0.008
	}
	if c.StuckProb == 0 {
		c.StuckProb = 0.0015
	}
}

func (c Config) validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("dataset: Nodes must be positive, got %d", c.Nodes)
	}
	if c.Period <= 0 || c.Duration <= 0 {
		return errors.New("dataset: Period and Duration must be positive")
	}
	for name, p := range map[string]float64{
		"MissingProb": c.MissingProb, "SpikeProb": c.SpikeProb, "StuckProb": c.StuckProb,
	} {
		if p < 0 || p > 1 {
			return fmt.Errorf("dataset: %s out of [0,1]: %v", name, p)
		}
	}
	return nil
}

// Stream is a generated set of per-sensor sample series over a fixed
// layout.
type Stream struct {
	cfg       Config
	positions map[core.NodeID]wsn.Point2
	byNode    map[core.NodeID][]Sample
	epochs    int
}

// Generate builds the full stream for the given configuration. The same
// configuration always yields the same stream.
func Generate(cfg Config) (*Stream, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x5851f42d4c957f2d))
	positions := LabLayout(cfg.Nodes, terrain, rng)

	st := &Stream{
		cfg:       cfg,
		positions: positions,
		byNode:    make(map[core.NodeID][]Sample, cfg.Nodes),
		epochs:    int(cfg.Duration/cfg.Period) + 1,
	}

	// Per-node state for the temporal model.
	type nodeState struct {
		ar1        float64
		stuckLeft  int
		stuckValue float64
	}
	states := make(map[core.NodeID]*nodeState, cfg.Nodes)
	ids := st.Nodes()
	for _, id := range ids {
		states[id] = &nodeState{ar1: rng.NormFloat64() * 0.2}
	}
	phase := rng.Float64() * 86400

	for epoch := 0; epoch < st.epochs; epoch++ {
		at := time.Duration(epoch) * cfg.Period
		tSec := at.Seconds()
		diurnal := 19 + 3*math.Sin(2*math.Pi*(tSec+phase)/86400)
		for _, id := range ids {
			state := states[id]
			pos := positions[id]
			state.ar1 = 0.95*state.ar1 + 0.08*rng.NormFloat64()

			s := Sample{
				Node:  id,
				Epoch: uint32(epoch),
				At:    at,
				X:     pos.X,
				Y:     pos.Y,
				Temp:  diurnal + spatialField(pos) + state.ar1,
			}

			// Fault injection.
			switch {
			case state.stuckLeft > 0:
				state.stuckLeft--
				s.Temp = state.stuckValue
				s.Fault = FaultStuck
			case rng.Float64() < cfg.StuckProb:
				state.stuckLeft = 2 + rng.IntN(6)
				state.stuckValue = 45 + rng.Float64()*10 // sensor rail
				s.Temp = state.stuckValue
				s.Fault = FaultStuck
			case rng.Float64() < cfg.SpikeProb:
				mag := 4 + rng.Float64()*8
				if rng.Float64() < 0.5 {
					mag = -mag
				}
				s.Temp += mag
				s.Fault = FaultSpike
			}

			// Collection loss + sliding-window-mean imputation (§7.1).
			if rng.Float64() < cfg.MissingProb {
				s.Missing = true
				s.Fault = FaultNone
				s.Temp = st.imputed(id, imputeWindow, diurnal+spatialField(pos))
			}

			st.byNode[id] = append(st.byNode[id], s)
		}
	}
	return st, nil
}

// imputed returns the mean of the last w readings of the node, falling
// back to the model baseline when the stream has no history yet.
func (st *Stream) imputed(id core.NodeID, w int, fallback float64) float64 {
	hist := st.byNode[id]
	if len(hist) == 0 {
		return fallback
	}
	if len(hist) > w {
		hist = hist[len(hist)-w:]
	}
	var sum float64
	for _, s := range hist {
		sum += s.Temp
	}
	return sum / float64(len(hist))
}

// spatialField is the smooth spatially correlated temperature offset:
// nearby sensors read similar values, far corners differ by a few
// degrees, as in the lab traces.
func spatialField(p wsn.Point2) float64 {
	return 0.06*p.X + 0.03*p.Y + 1.2*math.Sin(p.X/12)*math.Cos(p.Y/9)
}

// Nodes returns the sensor IDs, sorted.
func (st *Stream) Nodes() []core.NodeID {
	ids := make([]core.NodeID, 0, len(st.positions))
	for id := range st.positions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Positions returns a copy of the sensor layout.
func (st *Stream) Positions() map[core.NodeID]wsn.Point2 {
	out := make(map[core.NodeID]wsn.Point2, len(st.positions))
	for id, p := range st.positions {
		out[id] = p
	}
	return out
}

// Epochs returns the number of sampling rounds in the stream.
func (st *Stream) Epochs() int { return st.epochs }

// Period returns the sampling period.
func (st *Stream) Period() time.Duration { return st.cfg.Period }

// Samples returns the full series of one sensor (read-only).
func (st *Stream) Samples(id core.NodeID) []Sample { return st.byNode[id] }

// At returns one sensor's reading at the given epoch.
func (st *Stream) At(id core.NodeID, epoch int) (Sample, bool) {
	series := st.byNode[id]
	if epoch < 0 || epoch >= len(series) {
		return Sample{}, false
	}
	return series[epoch], true
}

// FaultCount returns the number of injected anomalous readings.
func (st *Stream) FaultCount() int {
	count := 0
	for _, series := range st.byNode {
		for _, s := range series {
			if s.Fault != FaultNone {
				count++
			}
		}
	}
	return count
}

// MissingCount returns the number of lost-and-imputed readings.
func (st *Stream) MissingCount() int {
	count := 0
	for _, series := range st.byNode {
		for _, s := range series {
			if s.Missing {
				count++
			}
		}
	}
	return count
}

// LabLayout places n sensors in a lab-like serpentine grid over a
// terrain×terrain area: 5 m aisles (inside the 6.77 m radio range) with
// a little deterministic jitter, so the disc graph at the paper's range
// is always connected and multi-hop, like the Intel lab's 53-mote floor
// plan. The layout is deterministic for a given rng state.
func LabLayout(n int, terrain float64, rng *rand.Rand) map[core.NodeID]wsn.Point2 {
	const spacing = 5.0
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	width := float64(cols-1) * spacing
	height := float64(rows-1) * spacing
	offX := (terrain - width) / 2
	offY := (terrain - height) / 2

	out := make(map[core.NodeID]wsn.Point2, n)
	for i := 0; i < n; i++ {
		row := i / cols
		col := i % cols
		if row%2 == 1 {
			col = cols - 1 - col // serpentine, like lab aisles
		}
		// Jitter small enough that adjacent nodes stay in range:
		// worst case √((5+1.2)² + 1.2²) ≈ 6.3 < 6.77.
		jx := (rng.Float64() - 0.5) * 1.2
		jy := (rng.Float64() - 0.5) * 1.2
		out[core.NodeID(i+1)] = wsn.Point2{
			X: offX + float64(col)*spacing + jx,
			Y: offY + float64(row)*spacing + jy,
		}
	}
	return out
}
