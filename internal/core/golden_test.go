package core

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
)

// The golden packet-stream test pins the protocol's output, not just its
// answers: every Outbound a seeded network of detectors emits — sender,
// groups, point IDs and hop fields, in order — is folded into one hash per
// scenario and compared with testdata/packet_stream.golden. The sufficient
// sets of Eq. (2) are exactly what goes on the air, so an unchanged hash
// means a change to the ranking or reaction code moved no message and the
// paper's communication cost with it. The file was generated at the commit
// before the cutoff-pruned ranking kernel went in; a change that means to
// alter the protocol replaces a line with the one the failure prints and
// says why.

// packetHasher drives detectors in lockstep over lossless in-order links
// (SyncNetwork's delivery discipline) and hashes what they send.
type packetHasher struct {
	dets      map[NodeID]*Detector
	ids       []NodeID
	adj       map[[2]NodeID]bool
	inbox     []queued
	h         hash.Hash
	outbounds int
	points    int
}

type queued struct {
	to, from NodeID
	pts      []Point
}

func newPacketHasher(t testing.TB, nodes int, cfg Config) *packetHasher {
	t.Helper()
	ph := &packetHasher{dets: make(map[NodeID]*Detector), adj: make(map[[2]NodeID]bool), h: sha256.New()}
	for i := 1; i <= nodes; i++ {
		c := cfg
		c.Node = NodeID(i)
		det, err := NewDetector(c)
		if err != nil {
			t.Fatal(err)
		}
		ph.dets[c.Node] = det
		ph.ids = append(ph.ids, c.Node)
	}
	return ph
}

func (ph *packetHasher) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	ph.h.Write(b[:])
}

// emit hashes one packet and queues its groups for delivery.
func (ph *packetHasher) emit(out *Outbound) {
	if out == nil {
		return
	}
	ph.outbounds++
	ph.u32(uint32(out.From))
	ph.u32(uint32(len(out.Groups)))
	for _, g := range out.Groups {
		ph.u32(uint32(g.To))
		ph.u32(uint32(len(g.Points)))
		for _, p := range g.Points {
			ph.u32(uint32(p.ID.Origin))
			ph.u32(p.ID.Seq)
			ph.u32(uint32(p.Hop))
		}
		ph.points += len(g.Points)
		if ph.adj[[2]NodeID{out.From, g.To}] {
			ph.inbox = append(ph.inbox, queued{to: g.To, from: out.From, pts: g.Points})
		}
	}
}

func (ph *packetHasher) connect(a, b NodeID) {
	ph.adj[[2]NodeID{a, b}] = true
	ph.adj[[2]NodeID{b, a}] = true
	ph.emit(ph.dets[a].AddNeighbor(b))
	ph.emit(ph.dets[b].AddNeighbor(a))
}

// clique connects every pair of sensors.
func (ph *packetHasher) clique() {
	for i, a := range ph.ids {
		for _, b := range ph.ids[i+1:] {
			ph.connect(a, b)
		}
	}
}

func (ph *packetHasher) disconnect(a, b NodeID) {
	delete(ph.adj, [2]NodeID{a, b})
	delete(ph.adj, [2]NodeID{b, a})
	ph.emit(ph.dets[a].RemoveNeighbor(b))
	ph.emit(ph.dets[b].RemoveNeighbor(a))
}

// settle delivers queued groups first-in first-out until none are left.
func (ph *packetHasher) settle(t testing.TB) {
	t.Helper()
	for budget := 1 << 22; len(ph.inbox) > 0; budget-- {
		if budget == 0 {
			t.Fatal("network did not go quiescent")
		}
		q := ph.inbox[0]
		ph.inbox = ph.inbox[1:]
		ph.emit(receive(ph.dets[q.to], q.from, q.pts))
	}
}

// round has every sensor sample one reading at data time r seconds, then
// settles the network.
func (ph *packetHasher) round(t testing.TB, r int, value func() float64) {
	t.Helper()
	now := time.Duration(r) * time.Second
	for _, id := range ph.ids {
		_, out := ph.dets[id].StepObserveBatch(now, []Observation{{Birth: now, Value: []float64{value()}}})
		ph.emit(out)
	}
	ph.settle(t)
}

func (ph *packetHasher) line(name string) string {
	return fmt.Sprintf("%s %s outbounds=%d points=%d", name, hex.EncodeToString(ph.h.Sum(nil)), ph.outbounds, ph.points)
}

// burstStream is the bench's input shape: a steady regime (base 20, noise
// 0.5) where a reading is, with probability rate, replaced by a fault
// offset above the fleet with 1% jitter.
func burstStream(seed uint64, rate, offset float64) func() float64 {
	r := rand.New(rand.NewPCG(seed, 0x1cdc5))
	return func() float64 {
		v := 20 + 0.5*r.NormFloat64()
		if r.Float64() < rate {
			v = 20 + offset + offset*0.01*r.Float64()
		}
		return v
	}
}

func goldenClique(t *testing.T, value func() float64) *packetHasher {
	ph := newPacketHasher(t, 16, Config{Ranker: KNN{K: 2}, N: 3, Window: 200 * time.Second})
	ph.clique()
	for r := 0; r < 400; r++ {
		ph.round(t, r, value)
	}
	return ph
}

// goldenLine is the semi-global scenario: 8 sensors on a line, HopLimit 2,
// with the middle link cut for 50 rounds so link-down, link-up and the
// catch-up after a partition are in the stream too.
func goldenLine(t *testing.T) *packetHasher {
	ph := newPacketHasher(t, 8, Config{Ranker: KNN{K: 2}, N: 3, Window: 100 * time.Second, HopLimit: 2})
	for i := 0; i+1 < len(ph.ids); i++ {
		ph.connect(ph.ids[i], ph.ids[i+1])
	}
	value := burstStream(8, 0.02, 150)
	for r := 0; r < 300; r++ {
		switch r {
		case 150:
			ph.disconnect(4, 5)
		case 200:
			ph.connect(4, 5)
		}
		ph.round(t, r, value)
	}
	return ph
}

func TestGoldenPacketStream(t *testing.T) {
	want := make(map[string]string)
	f, err := os.Open("testdata/packet_stream.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, _, ok := strings.Cut(sc.Text(), " "); ok && !strings.HasPrefix(name, "#") {
			want[name] = sc.Text()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	scenarios := map[string]func(*testing.T) *packetHasher{
		"clique16-faulty": func(t *testing.T) *packetHasher { return goldenClique(t, burstStream(16, 0.005, 15000)) },
		"clique16-quiet":  func(t *testing.T) *packetHasher { return goldenClique(t, burstStream(16, 0.001, 150)) },
		"line8-hop2":      goldenLine,
	}
	for name, run := range scenarios {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if got := run(t).line(name); got != want[name] {
				t.Errorf("packet stream moved:\n got  %s\n want %s", got, want[name])
			}
		})
	}
}
