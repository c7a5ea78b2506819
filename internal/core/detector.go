package core

import (
	"errors"
	"fmt"
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
	// RankQueries is the number of ranking queries R(x, ·) started by
	// top-n passes over the window, its hop strata and the per-link
	// candidate pools; RankAbandoned is how many of them the top-n cutoff
	// stopped before they finished, and RankVisits how many candidates
	// their linear scans looked at (a query through a spatial index
	// counts none).
	RankQueries, RankAbandoned, RankVisits int
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

func (st *Stats) ranked(queries, abandoned, visits int) {
	if st != nil {
		st.RankQueries += queries
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

// ReserveSeq raises the per-sensor sequence counter so the next
// unassigned observation mints at least seq. A warm restart uses this to
// restore the identity floor past points whose records already aged out
// of the persisted window — without it, a replayed detector could
// re-mint a PointID it issued before the restart. Lowering the counter
// is impossible; a floor at or below the current counter is a no-op.
func (d *Detector) ReserveSeq(seq uint32) {
	if seq > d.nextSeq {
		d.nextSeq = seq
	}
}

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
// stats and hinted with whatever prev — the supporter this one replaces,
// nil if none — last estimated.
func (d *Detector) supporterAfter(prev *supporter, set *Set) *supporter {
	sup := newSupporter(d.cfg.Ranker, set)
	sup.stats = &d.stats
	if prev != nil {
		sup.hint = prev.top
	}
	return sup
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

// EstimateRanked returns the current estimate with rank values attached.
func (d *Detector) EstimateRanked() []Ranked {
	top := d.heldSupporter().topN(d.cfg.N)
	out := make([]Ranked, len(top))
	copy(out, top)
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

// Observe samples a new data point with the given feature vector at time
// birth, assigning the next per-sensor sequence number (paper event ii:
// D_i changes). It returns the sampled point and the packet to broadcast.
func (d *Detector) Observe(birth time.Duration, value ...float64) (Point, *Outbound) {
	p := NewPoint(d.cfg.Node, d.nextSeq, birth, value...)
	d.nextSeq++
	return p, d.ObservePoint(p)
}

// ObserveBatch samples one point per feature vector, all stamped with the
// same birth time, and processes a single data-change event for the whole
// batch. Loading initial datasets through ObserveBatch matches the
// paper's model, where a change to D_i — of any size — is one event.
func (d *Detector) ObserveBatch(birth time.Duration, values ...[]float64) ([]Point, *Outbound) {
	pts := make([]Point, len(values))
	for i, v := range values {
		p := NewPoint(d.cfg.Node, d.nextSeq, birth, v...)
		d.nextSeq++
		d.own.Add(p)
		d.held.Add(p)
		pts[i] = p
	}
	d.stats.Events++
	return pts, d.react()
}

// ObservePoint adds a pre-built point sampled by this sensor to D_i and
// processes the data-change event. The point's origin must be this node.
func (d *Detector) ObservePoint(p Point) *Outbound {
	if p.ID.Origin != d.cfg.Node {
		panic(fmt.Sprintf("core: ObservePoint origin %d on node %d", p.ID.Origin, d.cfg.Node))
	}
	p.Hop = 0
	if p.ID.Seq >= d.nextSeq {
		d.nextSeq = p.ID.Seq + 1
	}
	d.own.Add(p)
	d.held.Add(p)
	d.stats.Events++
	return d.react()
}

// Receive processes the points tagged for this sensor in a packet from
// neighbor j (paper event iii). Points from unknown neighbors establish
// the link first, mirroring the paper's treatment of sensor addition.
// A receipt that changes no state — every point already held, at an
// equal-or-better hop count — provably produces the identical (empty)
// reaction, so the recomputation is skipped.
func (d *Detector) Receive(from NodeID, pts []Point) *Outbound {
	if len(pts) == 0 {
		return nil
	}
	l, ok := d.links[from]
	if !ok {
		l = d.link(from)
	}
	d.stats.Events++
	d.stats.PointsReceived += len(pts)
	var changed bool
	if d.cfg.HopLimit > 0 {
		changed = d.receiveSemiGlobal(l, pts)
	} else {
		changed = d.receiveGlobal(l, pts)
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

// AdvanceTo moves the detector clock to now and evicts points that have
// aged out of the sliding window (§5.3). Evictions count as a data-change
// event; with nothing evicted there is nothing to send.
func (d *Detector) AdvanceTo(now time.Duration) *Outbound {
	if !d.advance(now) {
		return nil
	}
	d.stats.Events++
	return d.react()
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
	cutoff := d.now - d.cfg.Window
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

// StepObserve advances the clock (evicting expired window contents) and
// records one new observation, all as a single data-change event with a
// single reaction. Sensors sampling on a period use this instead of
// AdvanceTo followed by ObservePoint: the paper's event model treats any
// change to D_i as one event, and reacting once to the combined change
// avoids broadcasting an interim estimate that the very next event would
// supersede.
func (d *Detector) StepObserve(now time.Duration, p Point) *Outbound {
	if p.ID.Origin != d.cfg.Node {
		panic(fmt.Sprintf("core: StepObserve origin %d on node %d", p.ID.Origin, d.cfg.Node))
	}
	d.advance(now)
	p.Hop = 0
	if p.ID.Seq >= d.nextSeq {
		d.nextSeq = p.ID.Seq + 1
	}
	d.own.Add(p)
	d.held.Add(p)
	d.stats.Events++
	return d.react()
}

// Observation is one raw reading of a batch: the sample timestamp and the
// feature vector, before a Point identity is assigned. It is the unit the
// streaming ingestion layer (internal/ingest) queues per sensor.
//
// When Assigned is set, the reading carries a caller-chosen sequence
// number instead of taking the detector's next one. The cluster
// coordinator uses this to stamp every reading with a deterministic
// identity before fanning it out, so replica shards — which may see
// different subsets and orderings under UDP loss — still mint identical
// PointIDs for the same reading and the merged estimate deduplicates
// instead of double-counting.
type Observation struct {
	Birth time.Duration
	Value []float64

	Seq      uint32
	Assigned bool
}

// StepObserveBatch advances the clock (evicting expired window contents)
// and records a burst of readings as a single data-change event with a
// single reaction — the ingestion fast path: a burst of b readings costs
// one ranking pass instead of b. Points are assigned consecutive sequence
// numbers in slice order and each keeps its own birth timestamp, so the
// resulting detector state (P_i, D_i, clock, sequence counter, estimate)
// is identical to calling AdvanceTo(now) followed by one ObservePoint per
// reading; only the interim broadcasts — which the very next observation
// would have superseded — are skipped. With an empty batch it degenerates
// to AdvanceTo.
func (d *Detector) StepObserveBatch(now time.Duration, obs []Observation) ([]Point, *Outbound) {
	evicted := d.advance(now)
	if len(obs) == 0 && !evicted {
		return nil, nil
	}
	pts := make([]Point, len(obs))
	for i, o := range obs {
		seq := d.nextSeq
		if o.Assigned {
			seq = o.Seq
		}
		p := NewPoint(d.cfg.Node, seq, o.Birth, o.Value...)
		if seq >= d.nextSeq {
			d.nextSeq = seq + 1
		}
		d.own.Add(p)
		d.held.Add(p)
		pts[i] = p
	}
	d.stats.Events++
	return pts, d.react()
}

// RemoveOrigin explicitly deletes every held point that originated at the
// given (removed) sensor, the eager variant of sensor removal sketched in
// §5.3. The deletion is a data-change event.
func (d *Detector) RemoveOrigin(origin NodeID) *Outbound {
	removed := d.held.EvictOrigin(origin)
	removed += d.own.EvictOrigin(origin)
	for _, l := range d.links {
		l.sent.EvictOrigin(origin)
		l.recv.EvictOrigin(origin)
	}
	if removed == 0 {
		return nil
	}
	d.stats.Events++
	return d.react()
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
