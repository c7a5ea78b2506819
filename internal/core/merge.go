package core

// This file exports the building block for running Algorithm 1 *between
// processes* instead of between in-memory detectors: a resumable
// sufficient-set exchange over one fixed dataset P and an explicit
// per-link shared ledger. The cluster coordinator drives one exchange
// against every detector shard to merge estimates with O(estimate +
// support) traffic per round instead of shipping whole windows; see
// internal/cluster for the wire protocol and DESIGN.md § Sharded
// cluster for the payload math.

import "slices"

// MergeSource is one party's fixed dataset P in an iterative pairwise
// sufficient-set exchange — the unit of the paper's Algorithm 1 lifted
// out of the detector so any driver (the cluster coordinator, a shard
// server, a test harness) can run the protocol over its own transport.
//
// Construction snapshots P and computes the neighbor-independent seed
// On(P) ∪ [P|On(P)] once, through one supporter (spatial index +
// memoized top-n — the same machinery behind the detector's
// per-window supporter cache). Every subsequent Delta call against any
// link's ledger reuses that work, so a source kept across rounds — or
// shared by several concurrent sessions over the same unchanged window
// — answers from cache. After construction a MergeSource is read-only
// and safe for concurrent use.
type MergeSource struct {
	r   Ranker
	n   int
	st  stratum
	pts []Point
}

// NewMergeSource snapshots pts (which must be duplicate-free by PointID,
// e.g. Set.Points output) as the exchange's dataset P and precomputes
// the Eq. (2) seed for n outliers. The slice is retained and must not be
// mutated afterwards; input not already in ID order is cloned and sorted
// so membership probes can binary-search it.
func NewMergeSource(r Ranker, n int, pts []Point) *MergeSource {
	if !slices.IsSortedFunc(pts, func(a, b Point) int { return idCompare(a.ID, b.ID) }) {
		pts = slices.Clone(pts)
		slices.SortFunc(pts, func(a, b Point) int { return idCompare(a.ID, b.ID) })
	}
	// newStratum runs the ranking batch, which builds the spatial index
	// (when the ranker supports one and P is large enough) and memoizes
	// the estimate — the construction does all the mutating work up
	// front, which is what makes Delta safe for concurrent sessions.
	return &MergeSource{r: r, n: n, st: newStratum(supporterFor(r, pts), n), pts: pts}
}

// Len returns |P|.
func (m *MergeSource) Len() int { return len(m.pts) }

// Estimate returns On(P) in (rank desc, ≺) order.
func (m *MergeSource) Estimate() []Point {
	top := m.st.sup.topN(m.n)
	out := make([]Point, len(top))
	for i, rk := range top {
		out[i] = rk.Point
	}
	return out
}

// Delta computes the points this party owes the link's peer: the
// sufficient set Z ⊆ P of Eq. (2) against shared — everything already
// exchanged on the link, in either direction — minus shared itself, in
// ID order. An empty delta means this side is quiescent on the link:
// when every party's delta on every link is empty, all parties'
// estimates over their accumulated points equal the global On(∪P)
// (Lemma 3 on the star topology).
//
// Delta does not mutate shared. Callers append the returned points to
// the ledger once the peer has confirmed receipt, so a lost message is
// simply recomputed — the exchange is resumable and idempotent (points
// carry identities and ledgers deduplicate).
func (m *MergeSource) Delta(shared *Set) []Point {
	link := ledgers{sent: shared, maxHop: anyHop}
	return unshared(m.st.seed, closeSeed(&m.st, link, m.n, nil), link)
}

// MergeLink is one party's resumable state for a single exchange link:
// the growing dataset P (the source snapshot plus everything absorbed
// from the peer — Algorithm 1 folds receipts into P_i before reacting,
// and the Eq. (2) support lookups must run over the grown set or a
// peer's candidate can never be refuted by local context), the shared
// ledger D(i→j) ∪ D(j→i), and the source rebuilt only when P actually
// grew. Until the first novel absorb, Delta answers straight from the
// shared (possibly cached) base source. MergeLink is not safe for
// concurrent use; drivers serialize per link.
type MergeLink struct {
	src    *MergeSource
	p      *Set // nil until a received point falls outside the base snapshot
	shared *Set
	dirty  bool
}

// NewLink starts a fresh exchange over this source's dataset with an
// empty ledger. Many links may share one base source; each link clones
// the dataset lazily, only if the peer ever contributes a novel point.
func (m *MergeSource) NewLink() *MergeLink {
	return &MergeLink{src: m, shared: NewSet()}
}

// Absorb records points received from the peer into the shared ledger
// and into P, reporting how many were previously unknown to P. It is
// idempotent: re-delivered points change nothing.
func (l *MergeLink) Absorb(pts []Point) int {
	added := 0
	for _, p := range pts {
		l.shared.AddMinHop(p)
		if l.p == nil {
			if l.src.has(p.ID) {
				continue
			}
			l.p = NewSet(l.src.pts...)
		}
		if a, _ := l.p.AddMinHop(p); a {
			added++
		}
	}
	if added > 0 {
		l.dirty = true
	}
	return added
}

// Delta computes the sufficient delta owed to the peer (see
// MergeSource.Delta) over the link's grown dataset and records it in the
// shared ledger. Callers that must reply idempotently under retry cache
// the returned slice per round rather than calling Delta again.
func (l *MergeLink) Delta() []Point {
	if l.dirty {
		l.src = NewMergeSource(l.src.r, l.src.n, l.p.Points())
		l.dirty = false
	}
	delta := l.src.Delta(l.shared)
	for _, p := range delta {
		l.shared.AddMinHop(p)
	}
	return delta
}

// has reports whether the base snapshot holds the given ID. The snapshot
// is in ID order (Set.Points), so a binary search avoids materializing a
// set per link.
func (m *MergeSource) has(id PointID) bool {
	_, ok := slotOf(m.pts, id)
	return ok
}
