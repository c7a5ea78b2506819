// Package protocol adapts the core outlier detector to the simulated
// radio: it is the firmware of a sensor running the paper's distributed
// algorithm. Every sampling period the node reads its sensor (a dataset
// stream), advances the sliding window, and broadcasts whatever the
// detector decides its neighbors need; every received packet M is
// dispatched into the detector and the reaction broadcast in turn. All
// communication is single-hop broadcast, exactly as the paper requires.
package protocol

import (
	"fmt"
	"time"

	"innet/internal/core"
	"innet/internal/dataset"
	"innet/internal/wsn"
)

// Config parameterizes one node's distributed-detection firmware.
type Config struct {
	// Detector configures the embedded algorithm; its Node field is
	// overwritten with the host node's ID.
	Detector core.Config

	// Stream supplies the sensor readings.
	Stream *dataset.Stream

	// Topology provides the initial neighbor lists (the paper assumes
	// each sensor accurately maintains Γ_i; neighbor discovery beacons
	// are out of scope for both the paper and this reproduction).
	Topology *wsn.Topology
}

// App is the distributed-detection firmware for one node. It implements
// wsn.App.
type App struct {
	cfg Config
	det *core.Detector
	arq *arq
}

var _ wsn.App = (*App)(nil)

// New builds the firmware for the node with the given ID.
func New(id core.NodeID, cfg Config) (*App, error) {
	if cfg.Stream == nil || cfg.Topology == nil {
		return nil, fmt.Errorf("protocol: Stream and Topology are required")
	}
	dcfg := cfg.Detector
	dcfg.Node = id
	det, err := core.NewDetector(dcfg)
	if err != nil {
		return nil, err
	}
	return &App{cfg: cfg, det: det, arq: newARQ()}, nil
}

// Detector exposes the embedded detector for measurement (estimates,
// stats). Callers must treat it as read-only.
func (a *App) Detector() *core.Detector { return a.det }

// Start implements wsn.App: configure the neighborhood, then sample on
// every epoch of the stream.
func (a *App) Start(n *wsn.Node) {
	for _, j := range a.cfg.Topology.Neighbors(n.ID) {
		a.sendReliable(n, a.det.AddNeighbor(j))
	}
	a.sendReliable(n, a.det.Start())
	a.scheduleEpoch(n, 0)
}

func (a *App) scheduleEpoch(n *wsn.Node, epoch int) {
	if epoch >= a.cfg.Stream.Epochs() {
		return
	}
	period := a.cfg.Stream.Period()
	at := time.Duration(epoch) * period
	// Small per-node jitter decorrelates the sampling broadcasts.
	jitter := wsn.Clock(n.Sim().Rand().Int64N(int64(period / 10)))
	n.Sim().At(at+jitter, func() {
		a.sample(n, epoch)
		a.scheduleEpoch(n, epoch+1)
	})
}

// sample advances the window and feeds the epoch's reading, if the
// stream has one, into the detector as a single data-change event. Births
// are stamped with the logical epoch boundary rather than the jittered
// transmission instant, so every sensor's sliding window covers exactly
// the same sample epochs (the paper assumes "sensor clocks are
// synchronized sufficiently well"; the jitter exists only on the radio).
// The reading's sequence number is its epoch: an epoch without a sample
// skips a number, which the detector's own counter would not.
func (a *App) sample(n *wsn.Node, epoch int) {
	if n.Down() {
		return
	}
	logical := time.Duration(epoch) * a.cfg.Stream.Period()
	var obs []core.Observation
	if s, ok := a.cfg.Stream.At(n.ID, epoch); ok {
		obs = []core.Observation{{
			Birth:    logical,
			Value:    s.Features(),
			Seq:      uint32(epoch),
			Assigned: true,
		}}
	}
	_, out := a.det.StepObserveBatch(logical, obs)
	a.sendReliable(n, out)
}

// Receive implements wsn.App: packets M go through the reliability layer
// into the detector; acks clear pending retransmissions.
func (a *App) Receive(n *wsn.Node, f *wsn.Frame) {
	if len(f.Payload) == 0 {
		return
	}
	switch f.Payload[0] {
	case wsn.PayloadPoints:
		a.handlePoints(n, f)
	case wsn.PayloadPointsAck:
		a.handleAck(n, f)
	}
}

// responseJitterMax spreads reaction broadcasts in time. Every receiver
// of a packet reacts at the same instant, and receivers of the same
// broadcast are often hidden from each other (out of mutual carrier-sense
// range), so un-jittered reactions collide catastrophically at the
// original sender. A few airtimes of random delay decorrelates the storm,
// the same remedy mote MACs apply to broadcast traffic.
const responseJitterMax = 250 * time.Millisecond
