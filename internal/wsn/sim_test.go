package wsn

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"time"

	"innet/internal/core"
)

// collectApp records every frame delivered to it.
type collectApp struct {
	started int
	frames  []*Frame
	onFrame func(n *Node, f *Frame)
}

func (a *collectApp) Start(*Node) { a.started++ }

func (a *collectApp) Receive(n *Node, f *Frame) {
	a.frames = append(a.frames, f)
	if a.onFrame != nil {
		a.onFrame(n, f)
	}
}

// lineSim builds nodes 1..n spaced 5 m apart on a line: adjacent nodes
// are inside the default 6.77 m range, two-apart nodes are not.
func lineSim(cfg Config, n int) (*Sim, []*collectApp) {
	s := NewSim(cfg)
	apps := make([]*collectApp, n)
	for i := 0; i < n; i++ {
		apps[i] = &collectApp{}
		s.AddNode(core.NodeID(i+1), Point2{X: float64(i) * 5}, apps[i])
	}
	return s, apps
}

func TestEventOrdering(t *testing.T) {
	s := NewSim(Config{})
	var order []int
	s.At(2*time.Second, func() { order = append(order, 2) })
	s.At(1*time.Second, func() { order = append(order, 1) })
	s.At(1*time.Second, func() { order = append(order, 11) }) // same time: FIFO
	s.At(3*time.Second, func() { order = append(order, 3) })
	s.Run(10 * time.Second)
	want := []int{1, 11, 2, 3}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 10*time.Second {
		t.Fatalf("clock = %v, want advance to horizon", s.Now())
	}
}

// TestEventQueueMatchesSort drives random interleavings of At, After,
// Run and RunUntilIdle — equal times, times in the past (clamped to now),
// events that schedule events — and requires every event to run at its
// clamped time, Run to stop exactly at its horizon, and the whole run to
// come out in the order a sort by (at, seq) gives.
func TestEventQueueMatchesSort(t *testing.T) {
	type key struct {
		at  Clock
		seq uint64
	}
	for seed := uint64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewPCG(seed, 0x5eed))
		s := NewSim(Config{})
		var scheduled, ran []key
		var schedule func()
		schedule = func() {
			var when Clock
			switch r.IntN(4) {
			case 0:
				when = s.Now()
			case 1:
				when = s.Now() - Clock(r.IntN(5))*time.Millisecond
			case 2:
				when = Clock(r.IntN(8)) * time.Millisecond // a coarse grid: ties
			default:
				when = s.Now() + Clock(r.IntN(1000))*time.Microsecond
			}
			var me key
			fn := func() {
				if s.Now() != me.at {
					t.Fatalf("seed %d: event %+v ran at %v", seed, me, s.Now())
				}
				ran = append(ran, me)
				for k := r.IntN(3); k > 0 && len(scheduled) < 3000; k-- {
					schedule()
				}
			}
			if r.IntN(2) == 0 {
				s.At(when, fn)
			} else {
				s.After(when-s.Now(), fn)
			}
			me = key{max(when, s.Now()), s.seq}
			scheduled = append(scheduled, me)
		}
		for step := 0; step < 300; step++ {
			switch r.IntN(3) {
			case 0:
				schedule()
			case 1:
				until := s.Now() + Clock(r.IntN(3))*time.Millisecond
				s.Run(until)
				if len(s.queue) > 0 && s.queue[0].at <= until {
					t.Fatalf("seed %d: Run(%v) left an event due at %v", seed, until, s.queue[0].at)
				}
			default:
				s.RunUntilIdle(r.IntN(10))
			}
		}
		if !s.RunUntilIdle(1 << 20) {
			t.Fatalf("seed %d: queue did not drain", seed)
		}
		sort.Slice(scheduled, func(i, j int) bool {
			a, b := scheduled[i], scheduled[j]
			return a.at < b.at || a.at == b.at && a.seq < b.seq
		})
		if !slices.Equal(ran, scheduled) {
			t.Fatalf("seed %d: %d events ran out of (at, seq) order", seed, len(ran))
		}
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	s := NewSim(Config{})
	fired := false
	s.At(5*time.Second, func() { fired = true })
	s.Run(2 * time.Second)
	if fired {
		t.Fatal("event beyond the horizon ran")
	}
	s.Run(5 * time.Second) // inclusive
	if !fired {
		t.Fatal("event at the horizon must run")
	}
}

func TestAtClampsToPast(t *testing.T) {
	s := NewSim(Config{})
	var at Clock
	s.At(time.Second, func() {
		s.At(0, func() { at = s.Now() }) // scheduling in the past
	})
	s.Run(time.Minute)
	if at != time.Second {
		t.Fatalf("past event ran at %v, want clamped to now", at)
	}
}

func TestRunUntilIdleCap(t *testing.T) {
	s := NewSim(Config{})
	var loop func()
	count := 0
	loop = func() {
		count++
		s.After(time.Millisecond, loop)
	}
	s.After(0, loop)
	if s.RunUntilIdle(100) {
		t.Fatal("self-perpetuating schedule cannot drain")
	}
	if count != 100 {
		t.Fatalf("ran %d events, want exactly the cap", count)
	}
}

func TestAirtime(t *testing.T) {
	radio := DefaultRadio()
	// 100-byte payload + 18 overhead = 944 bits at 250 kbit/s.
	bits := 944.0
	want := time.Duration(bits / 250000.0 * 1e9)
	if got := radio.airtime(100); got != want {
		t.Fatalf("airtime = %v, want %v", got, want)
	}
	slow := RadioConfig{BitRate: 38400}
	slow.applyDefaults()
	if got := slow.airtime(100); got != time.Duration(bits/38400.0*1e9) {
		t.Fatalf("Mica2 airtime = %v", got)
	}
}

func TestRadioDefaultsApplied(t *testing.T) {
	s := NewSim(Config{})
	if s.cfg.Radio.TxPower != 0.0159 || s.cfg.Radio.BitRate != 250000 {
		t.Fatalf("defaults not applied: %+v", s.cfg.Radio)
	}
	if s.cfg.Radio.SenseRange != 2*s.cfg.Radio.Range {
		t.Fatalf("sense range default: %+v", s.cfg.Radio)
	}
	// Partial override keeps other defaults.
	s2 := NewSim(Config{Radio: RadioConfig{Range: 10}})
	if s2.cfg.Radio.Range != 10 || s2.cfg.Radio.RxPower != 0.021 {
		t.Fatalf("partial override broke defaults: %+v", s2.cfg.Radio)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	s := NewSim(Config{})
	s.AddNode(1, Point2{}, &collectApp{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode must panic")
		}
	}()
	s.AddNode(1, Point2{}, &collectApp{})
}

func TestStartStaggersApps(t *testing.T) {
	s, apps := lineSim(Config{}, 3)
	s.Start()
	s.Run(time.Second)
	for i, a := range apps {
		if a.started != 1 {
			t.Fatalf("app %d started %d times", i, a.started)
		}
	}
}

// TestDeterminism runs an identical traffic pattern twice and requires
// bit-identical energy and event counts.
func TestDeterminism(t *testing.T) {
	run := func() (int, Energy) {
		s, _ := lineSim(Config{Seed: 99, LossProb: 0.2}, 5)
		s.Start()
		for i := 0; i < 20; i++ {
			node := s.Nodes()[i%5]
			s.At(Clock(i)*100*time.Millisecond, func() {
				node.SendBroadcast(make([]byte, 30))
			})
		}
		s.Run(10 * time.Second)
		return s.Events(), s.Nodes()[2].Energy()
	}
	e1, en1 := run()
	e2, en2 := run()
	if e1 != e2 || en1 != en2 {
		t.Fatalf("non-deterministic: %d/%+v vs %d/%+v", e1, en1, e2, en2)
	}
}

func TestPoint2Dist(t *testing.T) {
	a := Point2{X: 0, Y: 0}
	b := Point2{X: 3, Y: 4}
	if a.Dist(b) != 5 {
		t.Fatalf("Dist = %v", a.Dist(b))
	}
}
