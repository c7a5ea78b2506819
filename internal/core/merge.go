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
	return newMergeSource(r, n, pts, nil)
}

// Rebase returns the source NewMergeSource would build over pts, ranked
// from this source's estimate first. A dataset that grew by a few points,
// or a window that moved on a little, mostly keeps its outliers, so the
// ranking batch's floor is final after n queries and the spatial index is
// built only if the scan comes to cost more than it would (see
// supporter.topN). The hint changes the work, never the source. Rebase
// only reads m, so sessions sharing m may call it concurrently.
func (m *MergeSource) Rebase(pts []Point) *MergeSource {
	return newMergeSource(m.r, m.n, pts, m.st.sup.topN(m.n))
}

// newMergeSource builds a source over pts, its ranking batch hinted with
// hint.
func newMergeSource(r Ranker, n int, pts []Point, hint []Ranked) *MergeSource {
	sup := supporterFor(r, inIDOrder(pts))
	sup.hint = hint
	// newStratum runs the ranking batch, which builds the spatial index
	// (when the ranker supports one and P is large enough) and memoizes
	// the estimate — the construction does all the mutating work up
	// front, which is what makes Delta safe for concurrent sessions.
	return &MergeSource{r: r, n: n, st: newStratum(sup, n), pts: sup.pts}
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
// the growing dataset P — the base source's snapshot plus everything
// absorbed from the peer (Algorithm 1 folds receipts into P_i before
// reacting, and the Eq. (2) support lookups must run over the grown set or
// a peer's candidate can never be refuted by local context) — and the
// shared ledger D(i→j) ∪ D(j→i). The link keeps the base and the absorbed
// points apart and rebuilds its source over their merge only when P
// actually grew, ranked from the source it replaces (Rebase): until the
// first novel absorb, Delta answers straight from the shared (possibly
// cached) base source. MergeLink is not safe for concurrent use; drivers
// serialize per link.
type MergeLink struct {
	base     *MergeSource // the snapshot the link started from; shared, never changed
	src      *MergeSource // over base ∪ absorbed: base itself until P grows
	absorbed []Point      // receipts base lacks (or holds at a higher hop), in ID order
	shared   *Set
	dirty    bool // absorbed changed since src was built
}

// NewLink starts a fresh exchange over this source's dataset with an
// empty ledger. Many links may share one base source; none copies it.
func (m *MergeSource) NewLink() *MergeLink {
	return &MergeLink{base: m, src: m, shared: NewSet()}
}

// Absorb records points received from the peer into the shared ledger
// and into P, reporting how many were previously unknown to P. It is
// idempotent: re-delivered points change nothing.
func (l *MergeLink) Absorb(pts []Point) int {
	added := 0
	for _, p := range pts {
		l.shared.AddMinHop(p)
		known := false
		if i, ok := slotOf(l.base.pts, p.ID); ok {
			if l.base.pts[i].Hop <= p.Hop {
				continue
			}
			known = true
		}
		switch i, held := slotOf(l.absorbed, p.ID); {
		case !held:
			l.absorbed = slices.Insert(l.absorbed, i, p)
			if !known {
				added++
			}
		case p.Hop < l.absorbed[i].Hop:
			l.absorbed[i] = p
		default:
			continue
		}
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
		l.src = l.src.Rebase(UnionPoints(l.base.pts, l.absorbed))
		l.dirty = false
	}
	delta := l.src.Delta(l.shared)
	for _, p := range delta {
		l.shared.AddMinHop(p)
	}
	return delta
}
