package wsn

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand/v2"
	"os"
	"strings"
	"testing"
	"time"

	"innet/internal/core"
)

// The frame-stream golden pins what the radio delivers, not just that it
// delivers: every frame the MAC hands an application on a lossy grid —
// time, receiver, kind, source, destination, sequence number and payload,
// in delivery order — is folded into one hash and compared with
// testdata/frame_stream.golden. The grid is wide enough for hidden
// terminals, runs broadcasts, acknowledged unicast with retries and AODV
// (end-to-end and best effort) over 10 % loss, and fails its centre node
// mid-run, so a change to event order, random draws, carrier sense,
// collisions or routing moves the hash. The file was generated at the
// commit before the simulator's radio tables and typed event heap went
// in; a change that means to alter the simulation replaces the line with
// the one the failure prints and says why.

const (
	goldenSide     = 7
	goldenSpacing  = 5.0
	goldenFailAt   = 30 * time.Second
	goldenDuration = 60 * time.Second
)

// frameGolden drives the grid and hashes what it delivers.
type frameGolden struct {
	sim       *Sim
	h         hash.Hash
	delivered int
	topo      *Topology
	routers   map[core.NodeID]*Router
	ids       []core.NodeID
}

type goldenApp struct {
	g      *frameGolden
	router *Router
	sent   int
}

func (a *goldenApp) Start(n *Node) { a.g.tick(n, a) }

func (a *goldenApp) Receive(n *Node, f *Frame) {
	g := a.g
	g.delivered++
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(g.sim.Now()))
	g.h.Write(b[:])
	binary.BigEndian.PutUint32(b[:4], uint32(n.ID))
	g.h.Write(b[:4])
	g.h.Write([]byte{byte(f.Kind)})
	binary.BigEndian.PutUint32(b[:4], uint32(f.Src))
	g.h.Write(b[:4])
	binary.BigEndian.PutUint32(b[:4], uint32(f.Dst))
	g.h.Write(b[:4])
	binary.BigEndian.PutUint32(b[:4], f.Seq)
	g.h.Write(b[:4])
	binary.BigEndian.PutUint32(b[:4], uint32(len(f.Payload)))
	g.h.Write(b[:4])
	g.h.Write(f.Payload)
	a.router.HandleFrame(f)
}

// tick sends one thing and schedules the next: a broadcast, a unicast to
// a radio neighbour, or a routed send to any node, end to end or best
// effort. Application payloads start with a byte no router claims.
func (g *frameGolden) tick(n *Node, a *goldenApp) {
	rng := g.sim.Rand()
	a.sent++
	payload := make([]byte, 1+rng.IntN(48))
	payload[0] = 0x80
	for i := 1; i < len(payload); i++ {
		payload[i] = byte(int(n.ID) + a.sent + i)
	}
	switch r := rng.IntN(10); {
	case r < 5:
		n.SendBroadcast(payload)
	case r < 8:
		if nbrs := g.topo.Neighbors(n.ID); len(nbrs) > 0 {
			n.SendUnicast(nbrs[rng.IntN(len(nbrs))], payload, nil)
		}
	case r < 9:
		a.router.Send(g.ids[rng.IntN(len(g.ids))], payload, nil)
	default:
		a.router.SendBestEffort(g.ids[rng.IntN(len(g.ids))], payload)
	}
	g.sim.After(time.Second+Clock(rng.Int64N(int64(2*time.Second))), func() { g.tick(n, a) })
}

// goldenGrid is a 7 × 7 grid at 5 m spacing with up to ±0.6 m of jitter
// and a 10 m sense range: a sender 5 m from a receiver cannot hear an
// interferer 7–10 m on the receiver's far side, which corrupts the frame
// (thousands of such hidden-terminal hits a run).
func goldenGrid() *frameGolden {
	s := NewSim(Config{Seed: 20060704, LossProb: 0.1, Radio: RadioConfig{SenseRange: 10}})
	g := &frameGolden{sim: s, h: sha256.New(), routers: make(map[core.NodeID]*Router)}
	jitter := rand.New(rand.NewPCG(7, 11))
	positions := make(map[core.NodeID]Point2)
	for i := 0; i < goldenSide*goldenSide; i++ {
		id := core.NodeID(i + 1)
		positions[id] = Point2{
			X: float64(i%goldenSide)*goldenSpacing + (jitter.Float64()-0.5)*1.2,
			Y: float64(i/goldenSide)*goldenSpacing + (jitter.Float64()-0.5)*1.2,
		}
		g.ids = append(g.ids, id)
	}
	g.topo = NewTopology(positions, s.cfg.Radio.Range)
	for _, id := range g.ids {
		app := &goldenApp{g: g}
		n := s.AddNode(id, positions[id], app)
		app.router = NewRouter(n, func(core.NodeID, []byte) {})
		g.routers[id] = app.router
	}
	return g
}

func (g *frameGolden) run() {
	center := g.ids[len(g.ids)/2]
	g.sim.Start()
	g.sim.At(goldenFailAt, func() { g.sim.Node(center).Fail() })
	g.sim.Run(goldenDuration)
}

func (g *frameGolden) line(name string) string {
	return fmt.Sprintf("%s %s delivered=%d events=%d", name, hex.EncodeToString(g.h.Sum(nil)), g.delivered, g.sim.Events())
}

func TestGoldenFrameStream(t *testing.T) {
	f, err := os.Open("testdata/frame_stream.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, _, ok := strings.Cut(sc.Text(), " "); ok && !strings.HasPrefix(name, "#") {
			want[name] = sc.Text()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	g := goldenGrid()
	g.run()

	// The scenario must exercise what it claims to pin.
	var c Counters
	var rs RouterStats
	for _, n := range g.sim.Nodes() {
		nc := n.Counters()
		c.Collisions += nc.Collisions
		c.Losses += nc.Losses
		c.MACRetries += nc.MACRetries
		c.UnicastFails += nc.UnicastFails
		st := g.routers[n.ID].Stats()
		rs.RREQsSent += st.RREQsSent
		rs.RREPsSent += st.RREPsSent
		rs.RERRsSent += st.RERRsSent
		rs.DataDelivered += st.DataDelivered
	}
	if c.Collisions == 0 || c.Losses == 0 || c.MACRetries == 0 || c.UnicastFails == 0 ||
		rs.RREQsSent == 0 || rs.RREPsSent == 0 || rs.RERRsSent == 0 || rs.DataDelivered == 0 {
		t.Fatalf("grid does not exercise the radio: %+v %+v", c, rs)
	}
	if got := g.line("grid49-lossy"); got != want["grid49-lossy"] {
		t.Errorf("frame stream moved:\n got  %s\n want %s", got, want["grid49-lossy"])
	}
}
