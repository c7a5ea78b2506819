package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// Config parameterizes a Detector.
type Config struct {
	// Node is the identifier of the sensor this detector runs on.
	Node NodeID

	// Ranker is the outlier ranking function R. Required.
	Ranker Ranker

	// N is the number of outliers to detect (the paper's n). Required,
	// must be positive.
	N int

	// Window is the length of the time-based sliding window of §5.3.
	// Zero means no window: points are kept forever.
	Window time.Duration

	// HopLimit is the paper's hop diameter d for semi-global detection
	// (Algorithm 2): each sensor detects outliers over the data sampled
	// within HopLimit hops. Zero selects the global algorithm
	// (Algorithm 1), i.e. d = ∞.
	HopLimit int
}

func (c Config) validate() error {
	if c.Ranker == nil {
		return errors.New("core: Config.Ranker is required")
	}
	if c.N < 1 {
		return fmt.Errorf("core: Config.N must be positive, got %d", c.N)
	}
	if c.HopLimit < 0 {
		return fmt.Errorf("core: Config.HopLimit must be non-negative, got %d", c.HopLimit)
	}
	if c.HopLimit > 250 {
		return fmt.Errorf("core: Config.HopLimit %d exceeds the hop-field range", c.HopLimit)
	}
	if c.Window < 0 {
		return fmt.Errorf("core: Config.Window must be non-negative, got %v", c.Window)
	}
	return nil
}

// Group is the portion of a broadcast packet tagged for one recipient.
type Group struct {
	To     NodeID
	Points []Point
}

// Outbound is the single packet M of Algorithm 1: because wireless
// transmission is inherently broadcast, all points destined to all
// immediate neighbors are accumulated into one packet, each tagged with
// its recipient ID. A neighbor that finds no group tagged with its own ID
// does not regard receipt as an event.
type Outbound struct {
	From   NodeID
	Groups []Group
}

// PointCount returns the total number of (recipient, point) pairs carried.
func (o *Outbound) PointCount() int {
	if o == nil {
		return 0
	}
	total := 0
	for _, g := range o.Groups {
		total += len(g.Points)
	}
	return total
}

// For returns the points tagged for the given node, or nil.
func (o *Outbound) For(node NodeID) []Point {
	if o == nil {
		return nil
	}
	for _, g := range o.Groups {
		if g.To == node {
			return g.Points
		}
	}
	return nil
}

// Stats counts detector activity, used by the experiments and the §5.1
// communication-cost comparison.
type Stats struct {
	// Events is the number of events processed (init, data change,
	// receipt, link change, window eviction).
	Events int
	// Broadcasts is the number of non-empty packets produced.
	Broadcasts int
	// PointsSent is the total number of (recipient, point) pairs sent.
	PointsSent int
	// PointsReceived is the total number of points received.
	PointsReceived int
	// Evicted is the number of points aged out of the sliding window.
	Evicted int

	// The remaining counters name the state of the reaction path rather
	// than the protocol's: what an event had to recompute.

	// MemoHits and MemoMisses count the per-link first rankings
	// On(seed ∪ shared) of Eq. (2) that were answered from the link's
	// memory of the previous event and that had to be recomputed.
	MemoHits, MemoMisses int
	// RankQueries is the number of points the top-n passes over the
	// window, its hop strata and the per-link candidate pools had to
	// place; RankCarried is how many of them a rank bound carried over
	// from an earlier window placed below the floor with no query,
	// RankAbandoned how many queries the top-n cutoff stopped before they
	// finished, and RankVisits how many candidates the queries' linear
	// scans looked at (a query through a spatial index counts none).
	RankQueries, RankCarried, RankAbandoned, RankVisits int
	// IndexBuilds is the number of spatial indexes built.
	IndexBuilds int
}

// The counting methods accept a nil receiver and then count nothing: a
// supporter outside a detector (a MergeSource's, a one-off TopN) has no
// Stats to write to and must not share one.

func (st *Stats) memo(hit bool) {
	switch {
	case st == nil:
	case hit:
		st.MemoHits++
	default:
		st.MemoMisses++
	}
}

func (st *Stats) ranked(queries, abandoned, carried, visits int) {
	if st != nil {
		st.RankQueries += queries
		st.RankCarried += carried
		st.RankAbandoned += abandoned
		st.RankVisits += visits
	}
}

func (st *Stats) indexBuilt() {
	if st != nil {
		st.IndexBuilds++
	}
}

// Detector implements the per-sensor state machine of the paper's global
// (Algorithm 1) and semi-global (Algorithm 2) in-network outlier
// detection. It is a pure state machine: every event method returns the
// packet to broadcast (nil when there is nothing to send) and performs no
// I/O, no locking and no timekeeping of its own.
//
// Detector is not safe for concurrent use; drivers own synchronization
// (internal/peer wraps it in a single goroutine per sensor).
type Detector struct {
	cfg     Config
	now     time.Duration
	nextSeq uint32

	own  *Set // D_i: points sampled by this sensor
	held *Set // P_i: everything currently held

	links map[NodeID]*link // per-neighbor ledgers and memory
	nbrs  []NodeID         // Γ_i, the keys of links, kept sorted

	// heldSup caches the ranking supporter (window snapshot, memoized
	// top-n, and the spatial index if the ranking had to build one) over
	// P_i, keyed on the window's mutation version: events that leave P_i
	// unchanged — link changes, repeated Estimate calls — reuse it whole.
	// When the window did change, the outgoing supporter's estimate is
	// the incoming one's hint (see supporter.topN).
	heldSup  *supporter
	heldSupV uint64

	// strata are the datasets the reaction runs over with their
	// supporters and Eq. (2) seeds, keyed on the same window version: the
	// hop strata P≤h for h < HopLimit under Algorithm 2, and under
	// Algorithm 1 the single stratum P_i, which shares heldSup. They are
	// pure derivations of P_i (filter by hop, rank, seed), so any event
	// that leaves the window unchanged reuses them wholesale.
	strata  []stratum
	strataV uint64

	// spare is the rank-bound buffer of the supporter the last rebuild
	// replaced, which the next rebuild fills (see supporter.inherit).
	spare []rankBound

	stats Stats
}

// NewDetector validates cfg and returns a detector with no neighbors and
// no data. Call Start to process the paper's initialization event once
// neighbors are configured.
func NewDetector(cfg Config) (*Detector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Detector{
		cfg:   cfg,
		own:   NewSet(),
		held:  NewSet(),
		links: make(map[NodeID]*link),
	}, nil
}

// Node returns the sensor ID the detector runs on.
func (d *Detector) Node() NodeID { return d.cfg.Node }

// Config returns the configuration the detector was built with.
func (d *Detector) Config() Config { return d.cfg }

// Stats returns a snapshot of the activity counters.
func (d *Detector) Stats() Stats { return d.stats }

// Now returns the detector's current clock reading.
func (d *Detector) Now() time.Duration { return d.now }

// Neighbors returns the current immediate neighborhood Γ_i, sorted.
func (d *Detector) Neighbors() []NodeID { return slices.Clone(d.nbrs) }

// link is everything a detector keeps per immediate neighbor j.
type link struct {
	sent *Set // D(i→j): points sent to j
	recv *Set // D(j→i): points received from j

	// memo remembers the link's last Eq. (2) ranking, one per stratum
	// (see Detector.strata): the hop cutoff on the ledgers differs by
	// stratum, and so does the pool.
	memo []linkMemo
}

// shared is the link's ledger view D(i→j) ∪ D(j→i), every hop admitted.
func (l *link) shared() ledgers {
	return ledgers{sent: l.sent, recv: l.recv, maxHop: anyHop}
}

// link opens the per-link state for a new neighbor j.
func (d *Detector) link(j NodeID) *link {
	l := &link{sent: NewSet(), recv: NewSet(), memo: make([]linkMemo, max(1, d.cfg.HopLimit))}
	d.links[j] = l
	at, _ := slices.BinarySearch(d.nbrs, j)
	d.nbrs = slices.Insert(d.nbrs, at, j)
	return l
}

// Holdings returns a copy of P_i, the set of all points currently held.
func (d *Detector) Holdings() *Set { return d.held.Clone() }

// OwnPoints returns a copy of D_i, the points sampled by this sensor.
func (d *Detector) OwnPoints() *Set { return d.own.Clone() }

// heldSupporter returns the cached supporter over P_i, rebuilding it only
// when the window content has changed since it was built.
func (d *Detector) heldSupporter() *supporter {
	if d.heldSup == nil || d.heldSupV != d.held.Version() {
		d.heldSup = d.supporterAfter(d.heldSup, d.held)
		d.heldSupV = d.held.Version()
	}
	return d.heldSup
}

// supporterAfter snapshots set for ranking, counted in the detector's
// stats, hinted with whatever prev — the supporter this one replaces, nil
// if none — last estimated, and given the rank bounds of prev's that the
// window still holds the witnesses of.
func (d *Detector) supporterAfter(prev *supporter, set *Set) *supporter {
	sup := newSupporter(d.cfg.Ranker, set)
	sup.stats = &d.stats
	if prev != nil {
		sup.hint = prev.top
	}
	d.spare = sup.inherit(prev, d.cutoff(), d.spare)
	return sup
}

// cutoff is the sliding window's eviction cutoff: every point born before
// it has been evicted, and it never falls. Without a window nothing is
// ever evicted, and every birth is at or after the cutoff.
func (d *Detector) cutoff() time.Duration {
	if d.cfg.Window <= 0 {
		return math.MinInt64
	}
	return d.now - d.cfg.Window
}

// Estimate returns the sensor's current outlier estimate On(P_i) in
// (rank desc, ≺) order.
func (d *Detector) Estimate() []Point {
	top := d.heldSupporter().topN(d.cfg.N)
	out := make([]Point, len(top))
	for i, rk := range top {
		out[i] = rk.Point
	}
	return out
}

// Start processes the paper's event (i): algorithm initialization. It
// must be called after the initial neighborhood is configured.
func (d *Detector) Start() *Outbound {
	d.stats.Events++
	return d.react()
}

// AddNeighbor processes a link-up event for neighbor j (paper event iv).
// Adding an already-present neighbor is a no-op returning nil.
func (d *Detector) AddNeighbor(j NodeID) *Outbound {
	if _, ok := d.links[j]; ok {
		return nil
	}
	d.link(j)
	d.stats.Events++
	return d.react()
}

// RemoveNeighbor processes a link-down event for neighbor j (paper event
// iv): the per-link ledgers are dropped (and the link's memory with them),
// while points already received from j remain held and age out of the
// sliding window as §5.3 suggests.
// Removing an unknown neighbor is a no-op returning nil.
func (d *Detector) RemoveNeighbor(j NodeID) *Outbound {
	if _, ok := d.links[j]; !ok {
		return nil
	}
	delete(d.links, j)
	at, _ := slices.BinarySearch(d.nbrs, j)
	d.nbrs = slices.Delete(d.nbrs, at, at+1)
	d.stats.Events++
	return d.react()
}

// Receipt is the points one packet from neighbor From tagged for this
// sensor (paper event iii).
type Receipt struct {
	From   NodeID
	Points []Point
}

// ReceiveBatch processes a run of receipts, in order, as one event per
// receipt and one reaction for the run. Each receipt from an unknown
// neighbor establishes the link first, mirroring the paper's treatment of
// sensor addition, and is counted in Events and PointsReceived; an empty
// one is not an event. A run that changes no state — every point already
// held, at an equal-or-better hop count — provably produces the identical
// (empty) reaction, so the recomputation is skipped. Under Algorithm 1,
// reacting once after the run rather than after each receipt reaches the
// same fixed point, On(∪P) (DESIGN.md § "One mailbox, one counter"); the
// simulator and SyncNetwork pass runs of one, the live fleet the receipts
// its mailbox has queued.
func (d *Detector) ReceiveBatch(rs []Receipt) *Outbound {
	changed := false
	for _, r := range rs {
		if len(r.Points) == 0 {
			continue
		}
		l, ok := d.links[r.From]
		if !ok {
			l = d.link(r.From)
		}
		d.stats.Events++
		d.stats.PointsReceived += len(r.Points)
		if d.cfg.HopLimit > 0 {
			changed = d.receiveSemiGlobal(l, r.Points) || changed
		} else {
			changed = d.receiveGlobal(l, r.Points) || changed
		}
	}
	if !changed {
		return nil
	}
	return d.react()
}

// receiveGlobal is the update step of Algorithm 1: only points not
// already held are added to P_i and recorded in D(j→i). It reports
// whether any state changed.
func (d *Detector) receiveGlobal(from *link, pts []Point) bool {
	changed := false
	for _, p := range pts {
		if d.held.Contains(p.ID) {
			continue
		}
		d.held.Add(p)
		from.recv.Add(p)
		changed = true
	}
	return changed
}

// receiveSemiGlobal is the update step of Algorithm 2: a point replaces a
// held copy only when it traveled fewer hops, in which case every ledger's
// copy is lowered too ("updating as needed D_i and D(f→i) for each f").
// It reports whether any state changed.
func (d *Detector) receiveSemiGlobal(from *link, pts []Point) bool {
	changed := false
	for _, p := range pts {
		held, ok := d.held.Get(p.ID)
		switch {
		case !ok:
			d.held.Add(p)
			from.recv.AddMinHop(p)
			changed = true
		case p.Hop < held.Hop:
			d.held.Add(p)
			for _, l := range d.links {
				l.recv.SetHop(p.ID, p.Hop)
			}
			from.recv.AddMinHop(p)
			changed = true
		}
	}
	return changed
}

// advance performs the clock move and window eviction, reporting whether
// anything was evicted.
func (d *Detector) advance(now time.Duration) bool {
	if now > d.now {
		d.now = now
	}
	if d.cfg.Window <= 0 {
		return false
	}
	cutoff := d.cutoff()
	// P_i holds every point (own included), so its eviction count is
	// the authoritative one; the other books are subsets.
	evicted := d.held.EvictBefore(cutoff)
	d.own.EvictBefore(cutoff)
	for _, l := range d.links {
		l.sent.EvictBefore(cutoff)
		l.recv.EvictBefore(cutoff)
	}
	d.stats.Evicted += evicted
	return evicted > 0
}

// Observation is one raw reading of a batch: the sample timestamp and the
// feature vector, before a Point identity is assigned. It is the unit the
// streaming ingestion layer (internal/ingest) queues per sensor.
//
// When Assigned is set, the reading carries a caller-chosen sequence
// number instead of taking the detector's next one. The live runtimes
// derive it from the reading's data time (ingest.SeqOf), so every copy of
// a reading — a replica's, a retry's, a replay's — names the same point;
// the simulator firmware (internal/protocol) passes its sampling epoch.
type Observation struct {
	Birth time.Duration
	Value []float64

	Seq      uint32
	Assigned bool
}

// StepObserveBatch is the one event that changes D_i (paper event ii):
// it advances the clock to now, evicting what has aged out of the
// sliding window (§5.3), and records a burst of readings, all as a
// single data-change event with a single reaction. The paper treats any
// change to D_i — one reading, a burst, an expiry — as one event, and
// reacting once to the combined change avoids broadcasting an interim
// estimate the very next change would supersede: a burst of b readings
// costs one ranking pass instead of b.
//
// Unassigned readings take consecutive sequence numbers in slice order;
// each keeps its own birth timestamp. A reading whose ID D_i already
// holds is a repeat: the first copy stays and the repeat is skipped. A
// reading born before the window's start at now is skipped too, as the
// advance of a later call would evict it. The returned points are the
// ones added. The resulting state (P_i, D_i, clock, sequence counter,
// estimate) is the same as feeding the readings one call at a time at
// the same now. A batch that adds nothing — empty,
// or only repeats — is an expiry-only event: it reacts, and counts an
// event, only when something was evicted, and otherwise returns nil.
func (d *Detector) StepObserveBatch(now time.Duration, obs []Observation) ([]Point, *Outbound) {
	evicted := d.advance(now)
	cutoff := d.cutoff()
	pts := make([]Point, 0, len(obs))
	for _, o := range obs {
		if o.Birth < cutoff {
			continue
		}
		seq := d.nextSeq
		if o.Assigned {
			seq = o.Seq
		}
		if d.own.Contains(PointID{Origin: d.cfg.Node, Seq: seq}) {
			continue
		}
		p := NewPoint(d.cfg.Node, seq, o.Birth, o.Value...)
		if seq >= d.nextSeq {
			d.nextSeq = seq + 1
		}
		d.own.Add(p)
		d.held.Add(p)
		pts = append(pts, p)
	}
	if len(pts) == 0 && !evicted {
		return nil, nil
	}
	d.stats.Events++
	return pts, d.react()
}

// react runs the main for-loop of Algorithms 1/2 over every neighbor and
// assembles the broadcast packet M. The estimate-plus-support seed of
// Eq. (2) depends only on P_i (or its hop strata), so it is computed once
// per window change and shared across neighbors and events.
func (d *Detector) react() *Outbound {
	out := &Outbound{From: d.cfg.Node}
	strata := d.currentStrata()
	for _, j := range d.nbrs {
		var delta []Point
		if d.cfg.HopLimit > 0 {
			delta = d.semiGlobalDelta(d.links[j], strata)
		} else {
			delta = d.globalDelta(d.links[j], &strata[0])
		}
		if len(delta) > 0 {
			out.Groups = append(out.Groups, Group{To: j, Points: delta})
			d.stats.PointsSent += len(delta)
		}
	}
	if len(out.Groups) == 0 {
		return nil
	}
	d.stats.Broadcasts++
	return out
}

// currentStrata returns the cached strata over P_i, re-deriving them only
// when the window content has changed since they were built — the same
// version-keyed reuse heldSupporter gives the estimate. The slice is never
// empty, so nil doubles as the not-yet-built sentinel. A re-derived
// stratum is hinted by the one it replaces and keeps its seed generation
// when the seed's ID set came out the same, which is what the links'
// memos are keyed on.
func (d *Detector) currentStrata() []stratum {
	if d.strata != nil && d.strataV == d.held.Version() {
		return d.strata
	}
	prev := d.strata
	if prev == nil {
		prev = make([]stratum, max(1, d.cfg.HopLimit))
	}
	d.strata = make([]stratum, len(prev))
	for h := range d.strata {
		var sup *supporter
		if d.cfg.HopLimit > 0 {
			sup = d.supporterAfter(prev[h].sup, d.held.MaxHop(uint8(h)))
		} else {
			sup = d.heldSupporter()
		}
		st := newStratum(sup, d.cfg.N)
		st.gen = prev[h].gen
		if !st.seed.EqualIDs(prev[h].seed) {
			st.gen++
		}
		d.strata[h] = st
	}
	d.strataV = d.held.Version()
	return d.strata
}

// globalDelta computes Z_j \ (D(i→j) ∪ D(j→i)) for one neighbor under
// Algorithm 1 and records the newly sent points in D(i→j).
func (d *Detector) globalDelta(l *link, st *stratum) []Point {
	shared := l.shared()
	owed := st.seed
	if l.memo[0].holds(st.gen, shared) {
		// Same seed, same ledgers as at the link's previous reaction — and
		// the ledgers are the same because that reaction sent nothing,
		// which it could only do with the whole seed already shared.
		owed = nil
	}
	extra := closeSeed(st, shared, d.cfg.N, &l.memo[0])
	delta := unshared(owed, extra, shared)
	for _, p := range delta {
		l.sent.Add(p)
	}
	return delta
}

// semiGlobalDelta computes the per-neighbor send set of Algorithm 2: a
// sufficient set per hop stratum P≤h against the hop-filtered ledgers,
// hop fields incremented, min-merged across strata, then filtered against
// anything the ledgers show the neighbor already has at an equal or
// smaller hop count.
func (d *Detector) semiGlobalDelta(l *link, strata []stratum) []Point {
	shared := l.shared()
	merged := NewSet()
	forward := func(p Point) {
		p.Hop++
		merged.AddMinHop(p)
	}
	for h := range strata {
		st := &strata[h]
		if len(st.sup.pts) == 0 {
			continue
		}
		sharedH := shared
		// Receiver frame: the ledgers store hop fields post-increment
		// (the hop a point has at the receiver), so the pseudo-code's
		// literal D^{i,≤h} filter would leave the stratum-0 shared set
		// permanently empty and the fixed point would never adapt to the
		// neighbor's data. Filtering at ≤ h+1 makes each stratum behave
		// like the global algorithm run pairwise, as §6.1 describes.
		sharedH.maxHop = uint8(h + 1)
		st.seed.ForEach(forward)
		for _, p := range closeSeed(st, sharedH, d.cfg.N, &l.memo[h]) {
			forward(p)
		}
	}
	var delta []Point // in ID order, the order merged is walked in
	merged.ForEach(func(p Point) {
		if prior, ok := shared.minHop(p.ID); !ok || prior > p.Hop {
			delta = append(delta, p)
		}
	})
	for _, p := range delta {
		l.sent.AddMinHop(p)
	}
	return delta
}
