package wsn

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"innet/internal/core"
)

func TestBroadcastReachesOnlyNeighbors(t *testing.T) {
	s, apps := lineSim(Config{}, 4)
	s.Node(2).SendBroadcast([]byte{0xAB})
	s.Run(time.Second)
	if len(apps[0].frames) != 1 || len(apps[2].frames) != 1 {
		t.Fatalf("adjacent nodes must hear the broadcast: %d/%d",
			len(apps[0].frames), len(apps[2].frames))
	}
	if len(apps[3].frames) != 0 {
		t.Fatal("node 4 is out of range and must hear nothing")
	}
	if len(apps[1].frames) != 0 {
		t.Fatal("a sender must not hear its own broadcast")
	}
}

func TestBroadcastEnergyAccounting(t *testing.T) {
	s, _ := lineSim(Config{}, 3)
	payload := make([]byte, 82) // 82+18 = 100 bytes = 800 bits
	s.Node(2).SendBroadcast(payload)
	s.Run(time.Second)

	radio := s.cfg.Radio
	air := radio.airtime(len(payload))
	wantTx := radio.TxPower * air.Seconds()
	if got := s.Node(2).Energy().TxJ; !almost(got, wantTx) {
		t.Fatalf("sender TxJ = %v, want %v", got, wantTx)
	}
	wantRx := radio.RxPower * air.Seconds()
	for _, id := range []core.NodeID{1, 3} {
		if got := s.Node(id).Energy().RxJ; !almost(got, wantRx) {
			t.Fatalf("node %d RxJ = %v, want %v", id, got, wantRx)
		}
	}
	if s.Node(2).Energy().RxJ != 0 {
		t.Fatal("sender must not charge receive energy for its own frame")
	}
}

func almost(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-12
}

func TestIdleEnergy(t *testing.T) {
	e := Energy{TxJ: 1, RxJ: 2, TxTime: time.Second, RxTime: time.Second}
	total := e.TotalAt(10*time.Second, 0.001)
	want := 1 + 2 + 0.001*8
	if !almost(total, want) {
		t.Fatalf("TotalAt = %v, want %v", total, want)
	}
	// Active time beyond elapsed clamps instead of going negative.
	if e.TotalAt(time.Second, 0.001) != 3 {
		t.Fatal("idle time must clamp at zero")
	}
}

func TestUnicastDeliveredAndAcked(t *testing.T) {
	s, apps := lineSim(Config{}, 2)
	var result *UnicastResult
	s.Node(1).SendUnicast(2, []byte{1, 2, 3}, func(r UnicastResult) { result = &r })
	s.Run(time.Second)
	if len(apps[1].frames) != 1 {
		t.Fatalf("receiver got %d frames, want 1", len(apps[1].frames))
	}
	if result == nil || !result.OK || result.Attempts != 1 {
		t.Fatalf("unicast result = %+v, want first-attempt success", result)
	}
	if apps[1].frames[0].Kind != FrameUnicast {
		t.Fatal("delivered frame must be the unicast, not the ack")
	}
}

func TestUnicastToDeadNodeFails(t *testing.T) {
	s, _ := lineSim(Config{}, 2)
	s.Node(2).Fail()
	var result *UnicastResult
	s.Node(1).SendUnicast(2, []byte{1}, func(r UnicastResult) { result = &r })
	s.Run(10 * time.Second)
	if result == nil || result.OK {
		t.Fatalf("unicast to a dead node must fail: %+v", result)
	}
	if result.Attempts != macMaxRetries {
		t.Fatalf("attempts = %d, want all %d retries", result.Attempts, macMaxRetries)
	}
	if got := s.Node(1).Counters().UnicastFails; got != 1 {
		t.Fatalf("UnicastFails = %d, want 1", got)
	}
}

func TestUnicastRetriesThroughLoss(t *testing.T) {
	// 40% loss: first attempts will often fail but five tries nearly
	// always succeed; with a fixed seed the outcome is reproducible.
	s, apps := lineSim(Config{Seed: 7, LossProb: 0.4}, 2)
	delivered := 0
	for i := 0; i < 20; i++ {
		s.Node(1).SendUnicast(2, []byte{byte(i)}, func(r UnicastResult) {
			if r.OK {
				delivered++
			}
		})
	}
	s.Run(time.Minute)
	if delivered < 18 {
		t.Fatalf("only %d/20 delivered through 40%% loss", delivered)
	}
	// At-least-once semantics: a frame whose every ack died is delivered
	// to the app yet reported failed to the sender, so the app may see
	// slightly more than the acked count — but never duplicates.
	if got := len(apps[1].frames); got < delivered || got > 20 {
		t.Fatalf("app saw %d frames for %d acked deliveries of 20 sends",
			got, delivered)
	}
	if s.Node(1).Counters().MACRetries == 0 {
		t.Fatal("40% loss must force retransmissions")
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	// With carrier sensing at 2× the 6.77 m data range, two mutually
	// decodable senders can never be hidden from each other. The
	// remaining hidden-terminal case is an interferer beyond data range
	// but inside interference range of the receiver, and beyond sense
	// range of the sender:
	//
	//	interferer B (-6.9) … receiver R (0) … sender A (+6.7)
	//
	// A–B = 13.6 m > 13.54 m sense range, so B transmits concurrently;
	// B–R = 6.9 m is undecodable but interfering; A–R = 6.7 m would
	// decode, but A is not ≥2× closer than B, so capture fails.
	s := NewSim(Config{})
	recvApp := &collectApp{}
	s.AddNode(1, Point2{X: 0}, recvApp)
	s.AddNode(2, Point2{X: 6.7}, &collectApp{})
	s.AddNode(3, Point2{X: -6.9}, &collectApp{})
	payload := make([]byte, 50)
	s.At(0, func() { s.Node(2).SendBroadcast(payload) })
	s.At(0, func() { s.Node(3).SendBroadcast(payload) })
	s.Run(time.Second)
	if len(recvApp.frames) != 0 {
		t.Fatalf("receiver decoded %d frames through interference", len(recvApp.frames))
	}
	if s.Node(1).Counters().Collisions == 0 {
		t.Fatal("collision not counted")
	}
	// Energy was still burned listening to noise.
	if s.Node(1).Energy().RxJ == 0 {
		t.Fatal("collided receptions still cost receive energy")
	}
}

func TestCaptureEffect(t *testing.T) {
	// Same geometry, but the sender is much closer than the interferer:
	// receiver R at 0, sender A at 2 m, interferer B at -6 m… B must be
	// beyond A's sense range: impossible at these scales, so use a
	// custom radio with a short sense range to isolate capture.
	s := NewSim(Config{Radio: RadioConfig{Range: 6.77, SenseRange: 6.78}})
	recvApp := &collectApp{}
	s.AddNode(1, Point2{X: 0}, recvApp)
	s.AddNode(2, Point2{X: 2}, &collectApp{})  // strong sender
	s.AddNode(3, Point2{X: -6}, &collectApp{}) // weak concurrent sender, hidden from 2
	payload := make([]byte, 50)
	s.At(0, func() { s.Node(2).SendBroadcast(payload) })
	s.At(0, func() { s.Node(3).SendBroadcast(payload) })
	s.Run(time.Second)
	// 2 m vs 6 m is a 3× distance (≈9.5 dB) advantage: captured.
	if len(recvApp.frames) != 1 {
		t.Fatalf("capture failed: receiver decoded %d frames", len(recvApp.frames))
	}
	if recvApp.frames[0].Src != 2 {
		t.Fatalf("captured the weaker frame, src=%d", recvApp.frames[0].Src)
	}
}

func TestCSMADefersToBusyMedium(t *testing.T) {
	// Node 2 starts a long transmission; node 1 (in range) wants to send
	// during it and must defer — so node 3 eventually receives both
	// frames rather than a collision.
	s, apps := lineSim(Config{}, 3)
	long := make([]byte, 200)
	s.At(0, func() { s.Node(2).SendBroadcast(long) })
	s.At(time.Millisecond, func() { s.Node(1).SendBroadcast([]byte{9}) })
	s.Run(time.Second)
	// Node 2 hears node 1's deferred frame after finishing its own.
	if len(apps[1].frames) != 1 {
		t.Fatalf("node 2 got %d frames, want 1 (deferred, not collided)", len(apps[1].frames))
	}
	if got := s.Node(2).Counters().Collisions; got != 0 {
		t.Fatalf("CSMA should have prevented collisions, got %d", got)
	}
}

func TestSimultaneousInRangeSendersSerialize(t *testing.T) {
	// Two in-range nodes asked to transmit at the same instant: carrier
	// sense is instantaneous in the model, so whichever event runs
	// first occupies the medium and the other defers. Both frames must
	// arrive intact — CSMA makes overlap between mutually audible
	// radios impossible (the half-duplex guard only matters for hidden
	// terminals).
	s, apps := lineSim(Config{}, 2)
	long := make([]byte, 200)
	s.At(0, func() { s.Node(1).SendBroadcast(long) })
	s.At(0, func() { s.Node(2).SendBroadcast(long) })
	s.Run(time.Second)
	if len(apps[0].frames) != 1 || len(apps[1].frames) != 1 {
		t.Fatalf("CSMA serialization failed: %d/%d frames decoded",
			len(apps[0].frames), len(apps[1].frames))
	}
	if s.Node(1).Counters().Collisions+s.Node(2).Counters().Collisions != 0 {
		t.Fatal("in-range senders must not collide")
	}
}

func TestRandomLossDropsFrames(t *testing.T) {
	s, apps := lineSim(Config{Seed: 3, LossProb: 1.0}, 2)
	s.Node(1).SendBroadcast([]byte{1})
	s.Run(time.Second)
	if len(apps[1].frames) != 0 {
		t.Fatal("frame survived 100% loss")
	}
	if s.Node(2).Counters().Losses != 1 {
		t.Fatalf("loss not counted: %+v", s.Node(2).Counters())
	}
}

func TestFailedNodeIsSilent(t *testing.T) {
	s, apps := lineSim(Config{}, 2)
	s.Node(1).Fail()
	s.Node(1).SendBroadcast([]byte{1})
	s.Node(2).SendBroadcast([]byte{2})
	s.Run(time.Second)
	if len(apps[1].frames) != 0 {
		t.Fatal("dead node transmitted")
	}
	if len(apps[0].frames) != 0 {
		t.Fatal("dead node received")
	}
	if !s.Node(1).Down() {
		t.Fatal("Down() must report failure")
	}
}

// checkTables compares every node's radio tables with the definition,
// evaluated from scratch: every other node within Range decodes, every
// other node within (Range, SenseRange] senses, in insertion order, at the
// distance the receiver itself computes, to the bit.
func checkTables(t *testing.T, s *Sim) (atRange, atSense int) {
	t.Helper()
	radio := s.cfg.Radio
	for _, n := range s.order {
		var decode, sense []link
		for _, o := range s.order {
			if o == n {
				continue
			}
			switch d := o.Pos.Dist(n.Pos); {
			case d <= radio.Range:
				decode = append(decode, link{o, d})
				if d == radio.Range {
					atRange++
				}
			case d <= radio.SenseRange:
				sense = append(sense, link{o, d})
				if d == radio.SenseRange {
					atSense++
				}
			}
		}
		if !slices.Equal(n.decode, decode) || !slices.Equal(n.sense, sense) {
			t.Fatalf("node %d tables\n decode %v\n sense  %v\nwant\n decode %v\n sense  %v", n.ID, n.decode, n.sense, decode, sense)
		}
	}
	return atRange, atSense
}

// TestRadioTablesMatchDefinition builds tables on an integer lattice,
// where 3-4-5 triangles put nodes at exactly Range and SenseRange, then
// adds nodes after traffic has started and checks the rebuilt tables.
func TestRadioTablesMatchDefinition(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	s := NewSim(Config{Seed: 1, Radio: RadioConfig{Range: 5, SenseRange: 10}})
	add := func(k int) {
		for i := 0; i < k; i++ {
			id := core.NodeID(len(s.order) + 1)
			s.AddNode(id, Point2{X: float64(r.IntN(25) - 12), Y: float64(r.IntN(25) - 12)}, &collectApp{})
		}
	}
	add(40)
	s.order[0].SendBroadcast([]byte{1})
	s.Run(time.Second)
	atRange, atSense := checkTables(t, s)

	add(15)
	if s.tables {
		t.Fatal("AddNode must invalidate the radio tables")
	}
	s.order[len(s.order)-1].SendBroadcast([]byte{2})
	s.Run(2 * time.Second)
	r2, s2 := checkTables(t, s)
	if r2 <= atRange || s2 <= atSense || atRange == 0 || atSense == 0 {
		t.Fatalf("lattice never put a node at exactly Range/SenseRange: %d,%d then %d,%d", atRange, atSense, r2, s2)
	}
}

// TestFailedNodeNeitherReceivesNorInterferes: a down node in a sender's
// decode or sense table gets no reception, energy or carrier, and a down
// hidden terminal corrupts nothing.
//
//	sense-only F4 (-9) … decode F3 (-4) … sender S (0) … receiver R (4) … hidden H (11)
func TestFailedNodeNeitherReceivesNorInterferes(t *testing.T) {
	run := func(failHidden bool) (*Sim, *collectApp) {
		s := NewSim(Config{Radio: RadioConfig{Range: 5, SenseRange: 10}})
		recv := &collectApp{}
		s.AddNode(1, Point2{X: 0}, &collectApp{})
		s.AddNode(2, Point2{X: 4}, recv)
		s.AddNode(3, Point2{X: -4}, &collectApp{})
		s.AddNode(4, Point2{X: -9}, &collectApp{})
		s.AddNode(5, Point2{X: 11}, &collectApp{})
		s.Node(3).Fail()
		s.Node(4).Fail()
		if failHidden {
			s.Node(5).Fail()
		}
		payload := make([]byte, 50)
		s.At(0, func() { s.Node(1).SendBroadcast(payload) })
		s.At(0, func() { s.Node(5).SendBroadcast(payload) })
		s.Run(time.Second)
		return s, recv
	}
	if _, recv := run(false); len(recv.frames) != 0 {
		t.Fatal("a live hidden terminal 7 m from the receiver must corrupt a frame sent from 4 m")
	}
	s, recv := run(true)
	if len(recv.frames) != 1 {
		t.Fatalf("receiver decoded %d frames with the hidden terminal down, want 1", len(recv.frames))
	}
	for _, id := range []core.NodeID{3, 4} {
		n := s.Node(id)
		if n.Energy() != (Energy{}) || n.Counters() != (Counters{}) || n.carrierUntil != 0 ||
			len(n.receptions) != 0 || len(n.interference) != 0 {
			t.Fatalf("failed node %d was reached: %+v %+v carrier %v", id, n.Energy(), n.Counters(), n.carrierUntil)
		}
	}
}

func TestQueueLenReportsBacklog(t *testing.T) {
	s, _ := lineSim(Config{}, 2)
	for i := 0; i < 10; i++ {
		s.Node(1).SendBroadcast(make([]byte, 100))
	}
	if s.Node(1).QueueLen() == 0 {
		t.Fatal("queue must hold the backlog while the first frame is on air")
	}
	s.Run(time.Minute)
	if s.Node(1).QueueLen() != 0 {
		t.Fatal("queue must drain")
	}
}
