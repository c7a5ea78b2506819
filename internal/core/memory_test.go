package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// What a detector remembers between events — the supporter over P_i with
// the estimate that hints the next one, the strata with their seeds and
// generations, each link's memo — must be invisible in what it sends. The
// tests here hold a detector that remembers against a twin that is made
// to forget everything before every event, and so recomputes each
// reaction from nothing, as every detector did before the memory existed.

// forget drops every piece of cross-event memory.
func (d *Detector) forget() {
	d.heldSup, d.strata = nil, nil
	for _, l := range d.links {
		clear(l.memo)
	}
}

// twinNet drives a network in which every node is a pair of detectors
// fed the same events; the pair's outputs must agree packet for packet,
// and the one that remembers feeds the network.
type twinNet struct {
	t      *testing.T
	keep   map[NodeID]*Detector
	forget map[NodeID]*Detector
	ids    []NodeID
	adj    map[[2]NodeID]bool
	inbox  []queued
	events int
}

func newTwinNet(t *testing.T, nodes int, cfg Config) *twinNet {
	t.Helper()
	tn := &twinNet{t: t, keep: make(map[NodeID]*Detector), forget: make(map[NodeID]*Detector), adj: make(map[[2]NodeID]bool)}
	for i := 1; i <= nodes; i++ {
		c := cfg
		c.Node = NodeID(i)
		for _, side := range []map[NodeID]*Detector{tn.keep, tn.forget} {
			det, err := NewDetector(c)
			if err != nil {
				t.Fatal(err)
			}
			side[c.Node] = det
		}
		tn.ids = append(tn.ids, c.Node)
	}
	return tn
}

// event applies one event to both twins of a node, compares what they
// send — groups, IDs, hops, order, every field — and queues it.
func (tn *twinNet) event(what string, at NodeID, fn func(*Detector) *Outbound) {
	tn.t.Helper()
	tn.events++
	tn.forget[at].forget()
	got, want := fn(tn.keep[at]), fn(tn.forget[at])
	if !reflect.DeepEqual(got, want) {
		tn.t.Fatalf("event %d (%s at node %d): the detector that remembers sent\n  %s\nthe one that recomputes sent\n  %s",
			tn.events, what, at, describe(got), describe(want))
	}
	if got == nil {
		return
	}
	for _, g := range got.Groups {
		if tn.adj[[2]NodeID{at, g.To}] {
			tn.inbox = append(tn.inbox, queued{to: g.To, from: at, pts: g.Points})
		}
	}
}

func describe(out *Outbound) string {
	if out == nil {
		return "nothing"
	}
	s := ""
	for _, g := range out.Groups {
		s += fmt.Sprintf(" →%d:", g.To)
		for _, p := range g.Points {
			s += fmt.Sprintf(" %s/h%d", p.ID, p.Hop)
		}
	}
	return s
}

func (tn *twinNet) connect(a, b NodeID) {
	tn.adj[[2]NodeID{a, b}], tn.adj[[2]NodeID{b, a}] = true, true
	tn.event("add neighbor", a, func(d *Detector) *Outbound { return d.AddNeighbor(b) })
	tn.event("add neighbor", b, func(d *Detector) *Outbound { return d.AddNeighbor(a) })
}

func (tn *twinNet) disconnect(a, b NodeID) {
	delete(tn.adj, [2]NodeID{a, b})
	delete(tn.adj, [2]NodeID{b, a})
	tn.event("remove neighbor", a, func(d *Detector) *Outbound { return d.RemoveNeighbor(b) })
	tn.event("remove neighbor", b, func(d *Detector) *Outbound { return d.RemoveNeighbor(a) })
}

// settle delivers queued groups first-in first-out; every third one is
// delivered twice, the second time as a receipt that changes nothing.
func (tn *twinNet) settle() {
	tn.t.Helper()
	for n := 0; len(tn.inbox) > 0; n++ {
		if n == 1<<16 {
			tn.t.Fatal("network did not go quiescent")
		}
		q := tn.inbox[0]
		tn.inbox = tn.inbox[1:]
		tn.event("receive", q.to, func(d *Detector) *Outbound { return receive(d, q.from, q.pts) })
		if n%3 == 0 {
			tn.event("redundant receive", q.to, func(d *Detector) *Outbound { return receive(d, q.from, q.pts) })
		}
	}
}

func TestMemoryIsInvisible(t *testing.T) {
	for _, hop := range []int{0, 2} {
		r := rng(0x3e30 + uint64(hop))
		tn := newTwinNet(t, 6, Config{Ranker: KNN{K: 2}, N: 3, Window: 25 * time.Second, HopLimit: hop})
		// A ring with one chord: every node has two or three links, and
		// data has more than one way round.
		for i, a := range tn.ids {
			tn.connect(a, tn.ids[(i+1)%len(tn.ids)])
		}
		tn.connect(1, 4)
		for _, id := range tn.ids {
			tn.event("start", id, (*Detector).Start)
		}
		// Readings sit in a tight cluster; one in eight is flung out, so
		// the estimate — and with it the seed — turns over every few
		// events, while most events leave both where they were.
		reading := func() []float64 {
			v := 20 + 0.5*r.NormFloat64()
			if r.IntN(8) == 0 {
				v += 40 + 20*r.Float64()
			}
			return []float64{v}
		}
		step := func(now time.Duration, obs ...Observation) func(*Detector) *Outbound {
			return func(d *Detector) *Outbound {
				_, out := d.StepObserveBatch(now, obs)
				return out
			}
		}
		now := time.Duration(0)
		for round := 0; round < 90; round++ {
			now += time.Second
			for _, id := range tn.ids {
				switch r.IntN(4) {
				case 0: // a burst, one event
					tn.event("observe batch", id, step(now,
						Observation{Birth: now, Value: reading()},
						Observation{Birth: now, Value: reading()},
						Observation{Birth: now, Value: reading()}))
				case 1: // clock first, then the reading: two events
					tn.event("expire", id, step(now))
					tn.event("observe", id, step(now, Observation{Birth: now, Value: reading()}))
				default:
					tn.event("step observe", id, step(now, Observation{Birth: now, Value: reading()}))
				}
			}
			tn.settle()
			switch {
			case round == 60: // silence longer than the window: everything expires
				now += 40 * time.Second
				for _, id := range tn.ids {
					tn.event("evict all", id, step(now))
				}
				tn.settle()
			case round%11 == 5: // a link drops and the same neighbor returns
				a := tn.ids[r.IntN(len(tn.ids))]
				b := tn.ids[int(a)%len(tn.ids)] // a's ring successor
				tn.disconnect(a, b)
				tn.settle()
				tn.connect(a, b)
				tn.settle()
			}
		}
		var hits, misses int
		for _, d := range tn.keep {
			hits += d.stats.MemoHits
			misses += d.stats.MemoMisses
		}
		if hits == 0 || misses == 0 {
			t.Fatalf("hop=%d: %d memo hits and %d misses over %d events: the sequence must exercise both", hop, hits, misses, tn.events)
		}
		t.Logf("hop=%d: %d events, %d memo hits, %d misses", hop, tn.events, hits, misses)
	}
}

// The memory must also be alive: in the fleet's steady state most readings
// are inliers that move neither a seed nor a ledger, so most per-link
// rankings are answered by the memos, with the floor warm from the hint a
// 200-odd-point window is never worth an index, and most points of P_i
// keep a rank bound from the window before whose witnesses are all still
// held. A memo that silently stopped holding, a hint that stopped warming
// or bounds that stopped carrying would pass every equality test above and
// only slow a benchmark; this fails instead.
func TestSteadyStateCliqueRemembers(t *testing.T) {
	ph, value := steadyClique16(t)
	before := ph.totalStats()
	const rounds = 100
	for r := 200; r < 200+rounds; r++ {
		ph.round(t, r, value)
	}
	after := ph.totalStats()
	hits, misses := after.MemoHits-before.MemoHits, after.MemoMisses-before.MemoMisses
	if share := float64(hits) / float64(hits+misses); share <= 0.5 {
		t.Errorf("link memos answered %d of %d per-link rankings (%.2f), want more than half", hits, hits+misses, share)
	}
	t.Logf("%d hits, %d misses, %d index builds, %d of %d queries abandoned, %d placed by a carried bound", hits, misses,
		after.IndexBuilds-before.IndexBuilds, after.RankAbandoned-before.RankAbandoned, after.RankQueries-before.RankQueries,
		after.RankCarried-before.RankCarried)
	readings := rounds * len(ph.ids)
	if builds := after.IndexBuilds - before.IndexBuilds; builds >= readings {
		t.Errorf("%d index builds over %d readings, want fewer than one a reading", builds, readings)
	}
	if after.RankAbandoned == before.RankAbandoned {
		t.Error("no ranking query was abandoned by the cutoff")
	}
	if after.RankCarried == before.RankCarried {
		t.Error("no point of P_i was placed by a rank bound carried from the window before")
	}
}

// The work counters are a function of the input: two runs of the same
// rounds on the 53-sensor grid start, abandon and scan the same ranking
// queries and build the same indexes on every detector. Snapshots and
// candidate pools come out in ID order, not map order, so what the cutoff
// abandons — and with it when a batch buys an index — repeats too.
func TestWorkCountersRepeat(t *testing.T) {
	counts := func() map[NodeID]Stats {
		net, ids := grid53(t)
		r := rng(1)
		for n := 0; n < 5; n++ {
			sampleRound53(t, net, ids, n, r)
		}
		stats := make(map[NodeID]Stats, len(ids))
		for _, id := range ids {
			stats[id] = net.Detector(id).Stats()
		}
		return stats
	}
	first, second := counts(), counts()
	for id, st := range first {
		if second[id] != st {
			t.Errorf("sensor %d counted %+v on the first run and %+v on the second", id, st, second[id])
		}
	}
}
