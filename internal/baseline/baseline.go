// Package baseline implements the centralized comparison algorithm of
// §7.1: every sampling period each sensor ships its entire sliding-window
// contents to a central sink over AODV multi-hop unicast (with link-layer
// and end-to-end acknowledgments); the sink unions the windows, computes
// On(D) with the same ranking function, and floods the result back to all
// sensors. Energy cost is therefore dominated by relaying toward the
// sink, which is what the paper's figures compare against.
package baseline

import (
	"fmt"
	"time"

	"innet/internal/core"
	"innet/internal/dataset"
	"innet/internal/wsn"
)

// MaxPointsPerPacket bounds how many points one routed data packet
// carries, reflecting mote-class frame size limits.
const MaxPointsPerPacket = 2

// Config parameterizes the centralized protocol.
type Config struct {
	// Sink is the collecting node's ID.
	Sink core.NodeID
	// Ranker and N define the outlier computation at the sink.
	Ranker core.Ranker
	N      int
	// WindowSamples is the sliding window length w, in samples.
	WindowSamples int
	// Stream supplies sensor readings.
	Stream *dataset.Stream
}

// App is the centralized-baseline firmware for one node (sensors and the
// sink run the same code; the sink additionally aggregates and floods).
type App struct {
	cfg     Config
	router  *wsn.Router
	flooder *wsn.Flooder

	window []core.Point // local sliding window (all nodes)

	// Sink state: latest points per origin.
	collected map[core.PointID]core.Point

	// Every node: the last result flood received (sink: last computed).
	lastResult []core.Point
	resultAt   time.Duration
}

var _ wsn.App = (*App)(nil)

// New builds the centralized firmware for one node.
func New(cfg Config) (*App, error) {
	if cfg.Stream == nil {
		return nil, fmt.Errorf("baseline: Stream is required")
	}
	if cfg.Ranker == nil || cfg.N < 1 {
		return nil, fmt.Errorf("baseline: Ranker and positive N are required")
	}
	if cfg.WindowSamples < 1 {
		return nil, fmt.Errorf("baseline: WindowSamples must be positive, got %d", cfg.WindowSamples)
	}
	return &App{cfg: cfg, collected: make(map[core.PointID]core.Point)}, nil
}

// Compute is the sink's centralized outlier computation as a pure
// function: On(D) with the given ranker over the union of the collected
// windows, deduplicated by point ID. This is the ground truth the paper
// measures the distributed algorithms against, and the equivalence
// property tests call it directly. It is deliberately the exhaustive
// computation — every point ranked to the end, everything sorted, the
// first n taken — and not core.TopN's cutoff-pruned one, so that comparing
// a detector's or a merge's answer with it compares two computations.
func Compute(r core.Ranker, n int, windows ...[]core.Point) []core.Point {
	set := core.NewSet()
	for _, w := range windows {
		for _, p := range w {
			set.Add(p)
		}
	}
	if n <= 0 || set.Len() == 0 {
		return nil
	}
	ranked := core.RankAll(r, set)
	out := make([]core.Point, min(n, len(ranked)))
	for i := range out {
		out[i] = ranked[i].Point
	}
	return out
}

// LastResult returns the most recent outlier set this node knows (the
// flooded answer), and when it was computed.
func (a *App) LastResult() ([]core.Point, time.Duration) {
	out := make([]core.Point, len(a.lastResult))
	copy(out, a.lastResult)
	return out, a.resultAt
}

// Router exposes routing statistics for measurement.
func (a *App) Router() *wsn.Router { return a.router }

// Start implements wsn.App.
func (a *App) Start(n *wsn.Node) {
	a.router = wsn.NewRouter(n, func(src core.NodeID, payload []byte) { a.deliver(n, src, payload) })
	a.flooder = wsn.NewFlooder(n, func(orig core.NodeID, payload []byte) { a.handleResult(n, payload) })
	a.scheduleEpoch(n, 0)
	if n.ID == a.cfg.Sink {
		a.scheduleSinkRound(n, 0)
	}
}

func (a *App) scheduleEpoch(n *wsn.Node, epoch int) {
	if epoch >= a.cfg.Stream.Epochs() {
		return
	}
	period := a.cfg.Stream.Period()
	at := time.Duration(epoch) * period
	jitter := wsn.Clock(n.Sim().Rand().Int64N(int64(period / 10)))
	n.Sim().At(at+jitter, func() {
		a.sample(n, epoch)
		a.scheduleEpoch(n, epoch+1)
	})
}

// sample takes a reading, maintains the local window (exactly the last w
// samples, epoch-aligned births), and ships the whole window to the sink
// (§7.1: "all nodes periodically sent their sliding window contents to a
// central node").
func (a *App) sample(n *wsn.Node, epoch int) {
	if n.Down() {
		return
	}
	logical := time.Duration(epoch) * a.cfg.Stream.Period()
	s, ok := a.cfg.Stream.At(n.ID, epoch)
	if !ok {
		return
	}
	a.window = append(a.window, core.NewPoint(n.ID, uint32(epoch), logical, s.Features()...))
	if len(a.window) > a.cfg.WindowSamples {
		a.window = a.window[len(a.window)-a.cfg.WindowSamples:]
	}

	if n.ID == a.cfg.Sink {
		// The sink's own window goes straight into the collection.
		for _, p := range a.window {
			a.collected[p.ID] = p
		}
		return
	}
	for start := 0; start < len(a.window); start += MaxPointsPerPacket {
		end := start + MaxPointsPerPacket
		if end > len(a.window) {
			end = len(a.window)
		}
		buf, err := core.EncodePoints(a.window[start:end])
		if err != nil {
			continue
		}
		// One chunk per round carries the paper's end-to-end
		// acknowledgment; the rest go best-effort over the hop-by-hop
		// reliable links. End-to-end retrying every chunk only
		// amplifies congestion — next round re-ships the window anyway.
		if start == 0 {
			a.router.Send(a.cfg.Sink, buf, nil)
		} else {
			a.router.SendBestEffort(a.cfg.Sink, buf)
		}
	}
}

// deliver handles routed point shipments arriving at the sink.
func (a *App) deliver(n *wsn.Node, src core.NodeID, payload []byte) {
	if n.ID != a.cfg.Sink {
		return
	}
	pts, err := core.DecodePoints(payload)
	if err != nil {
		return
	}
	for _, p := range pts {
		a.collected[p.ID] = p
	}
}

// scheduleSinkRound makes the sink compute and flood the outliers near
// the end of every sampling period.
func (a *App) scheduleSinkRound(n *wsn.Node, epoch int) {
	if epoch >= a.cfg.Stream.Epochs() {
		return
	}
	period := a.cfg.Stream.Period()
	at := time.Duration(epoch)*period + period*9/10
	n.Sim().At(at, func() {
		a.sinkCompute(n, epoch)
		a.scheduleSinkRound(n, epoch+1)
	})
}

func (a *App) sinkCompute(n *wsn.Node, epoch int) {
	if n.Down() {
		return
	}
	now := n.Sim().Now()
	// Evict the collection with the same epoch-aligned window rule the
	// sensors apply: keep epochs (epoch-w, epoch].
	minEpoch := epoch - a.cfg.WindowSamples + 1
	for id := range a.collected {
		if int(id.Seq) < minEpoch {
			delete(a.collected, id)
		}
	}
	collected := make([]core.Point, 0, len(a.collected))
	for _, p := range a.collected {
		collected = append(collected, p)
	}
	outliers := Compute(a.cfg.Ranker, a.cfg.N, collected)
	a.lastResult = outliers
	a.resultAt = now

	buf, err := core.EncodePoints(outliers)
	if err != nil {
		return
	}
	a.flooder.Flood(buf)
}

// handleResult stores a flooded outlier set at a sensor.
func (a *App) handleResult(n *wsn.Node, payload []byte) {
	pts, err := core.DecodePoints(payload)
	if err != nil {
		return
	}
	a.lastResult = pts
	a.resultAt = n.Sim().Now()
}

// Receive implements wsn.App: frames go to the router, then the flooder.
// Boot is staggered across nodes, so a frame can arrive before this
// node's own Start has built its protocol stack; a real mote's radio
// simply is not listening yet.
func (a *App) Receive(n *wsn.Node, f *wsn.Frame) {
	if a.router == nil {
		return
	}
	if a.router.HandleFrame(f) {
		return
	}
	a.flooder.HandleFrame(f)
}
