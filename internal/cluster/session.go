package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"time"

	"innet/internal/core"
	"innet/internal/obs"
	"innet/internal/protocol"
)

// mergeSession is one coordinator merge exchange in flight: the link
// over the window snapshot frozen at session start, and the per-round
// reply cache that makes retried SUFFICIENT queries idempotent.
type mergeSession struct {
	mu      sync.Mutex
	link    *core.MergeLink
	rounds  map[uint16][]core.Point
	touched time.Time
}

// mergeSessionTTL evicts sessions whose coordinator went silent — a
// crashed query must not pin snapshots forever.
const mergeSessionTTL = time.Minute

// maxMergeSessions caps concurrent compact-merge sessions; beyond it the
// least-recently-touched session is evicted (its coordinator falls back
// to the full-window path).
const maxMergeSessions = 8

// sessionCount reports live merge-session cache occupancy.
func (s *ShardServer) sessionCount() int {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	return len(s.sessions)
}

// fingerprintPoints hashes a window snapshot's content (IDs and birth
// stamps; values are determined by identity) so merge sessions can tell
// an unchanged window from a changed one without comparing point lists.
func fingerprintPoints(pts []core.Point) uint64 {
	h := fnv.New64a()
	var buf [14]byte
	for _, p := range pts {
		binary.BigEndian.PutUint16(buf[0:], uint16(p.ID.Origin))
		binary.BigEndian.PutUint32(buf[2:], p.ID.Seq)
		binary.BigEndian.PutUint64(buf[6:], uint64(p.Birth))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// mergeSession returns the session with the given ID, creating it — over
// a freshly frozen window snapshot — only when create is set (a round-0
// SUFFICIENT, the exchange's opening move). Any other frame naming an
// unknown session returns nil: the session was evicted or the shard
// restarted, and transparently recreating it with an empty ledger would
// desynchronize the two ends' ledgers — the coordinator would withhold
// candidates it believes delivered, the shard's fixed point would never
// refute them, and a quiescent-but-wrong answer could be served as
// exact. The caller turns nil into a FlagUnknownSession refusal, which
// drives the coordinator to the full-window fallback.
//
// The snapshot's merge source (spatial index, ranking batch, Eq. (2)
// seed) is reused across sessions while the window fingerprint is
// unchanged, so repeated queries over a quiet window skip straight to
// the fixed point; once the window changes, the new source is ranked
// from the estimate of the one it replaces.
func (s *ShardServer) mergeSession(id uint64, create bool, trace uint64) (*mergeSession, error) {
	s.mergeMu.Lock()
	if sess := s.sessions[id]; sess != nil {
		sess.touched = time.Now()
		s.mergeMu.Unlock()
		return sess, nil
	}
	s.mergeMu.Unlock()
	if !create {
		return nil, nil
	}

	// Snapshot outside the lock: it round-trips every sensor's event
	// loop and must not stall concurrent merge frames.
	createStart := time.Now()
	snap, err := s.svc.Snapshot(s.ctx)
	if err != nil {
		return nil, err
	}
	fp := fingerprintPoints(snap)

	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	if sess := s.sessions[id]; sess != nil {
		return sess, nil // lost the creation race; use the winner's snapshot
	}
	hit := true // Hit: the cached merge source covered this snapshot
	src := s.lastSrc
	switch {
	case src == nil:
		hit = false
		src = core.NewMergeSource(s.svc.DetectorConfig().Ranker, s.svc.DetectorConfig().N, snap)
	case s.lastFP != fp || src.Len() != len(snap):
		hit = false
		src = src.Rebase(snap) // the window moved on: rank from its last estimate
	}
	s.lastSrc, s.lastFP = src, fp
	s.svc.Traces().Record(obs.Span{
		Trace:  trace,
		Op:     obs.OpSessionCreate,
		Points: int32(len(snap)),
		Hit:    hit,
		Start:  createStart,
		Dur:    time.Since(createStart),
	})
	// Expire silent sessions, then evict the least-recently-touched live
	// one if the cap is still reached — whatever its age, so ties on a
	// coarse clock cannot let the map outgrow the cap.
	now := time.Now()
	var victim uint64
	var victimAt time.Time // zero until a live session is seen
	for sid, sess := range s.sessions {
		if now.Sub(sess.touched) > mergeSessionTTL {
			delete(s.sessions, sid)
			continue
		}
		if victimAt.IsZero() || sess.touched.Before(victimAt) {
			victim, victimAt = sid, sess.touched
		}
	}
	if len(s.sessions) >= maxMergeSessions {
		delete(s.sessions, victim)
	}
	sess := &mergeSession{
		link:    src.NewLink(),
		rounds:  make(map[uint16][]core.Point),
		touched: now,
	}
	s.sessions[id] = sess
	return sess, nil
}

// refuseSession answers a frame naming a merge session this shard no
// longer holds; see mergeSession.
func (s *ShardServer) refuseSession(to *net.UDPAddr, req protocol.Frame) error {
	s.svc.Traces().Record(obs.Span{
		Trace: req.Trace,
		ReqID: req.ReqID,
		Op:    obs.OpSessionRefuse,
		Start: time.Now(),
	})
	return s.respond(to, req, protocol.FlagUnknownSession, nil)
}

// handleSufficient serves one fragment of a compact-merge round. Every
// fragment's points, a share of the coordinator's sufficient delta, go
// into the session's shared ledger and dataset (Algorithm 1 folds
// receipts into P before reacting); redelivery is a no-op. A non-final
// fragment is answered with an empty one-fragment response, the final
// one with the session's Eq. (2) sufficient delta against everything
// exchanged so far, fragmented under the byte budget. The coordinator
// sends a round's fragments in order, each after the previous one is
// answered, so the shard reacts once per round, holding the whole
// coordinator delta. A retried round replays the cached delta instead of
// recomputing, so a lost response frame cannot advance the ledger twice.
func (s *ShardServer) handleSufficient(f protocol.Frame, from *net.UDPAddr) error {
	start := time.Now()
	body, err := protocol.DecodeSufficient(f.Body)
	if err != nil {
		return err
	}
	if body.Frag >= body.FragCount {
		return fmt.Errorf("SUFFICIENT fragment %d of %d", body.Frag, body.FragCount)
	}
	sess, err := s.mergeSession(body.Session, body.Round == 0, f.Trace)
	if err != nil {
		return err
	}
	if sess == nil {
		return s.refuseSession(from, f)
	}
	var delta []core.Point
	replayed := false
	sess.mu.Lock()
	sess.link.Absorb(body.Points)
	if body.Frag == body.FragCount-1 {
		if delta, replayed = sess.rounds[body.Round]; !replayed {
			delta = sess.link.Delta()
			sess.rounds[body.Round] = delta
		}
	}
	sess.mu.Unlock()
	// Hit marks a replay served from the per-round reply cache (a retried
	// request); the reqID-keyed dedupe in the ring keeps the retry from
	// recording a second span either way.
	s.svc.Traces().Record(obs.Span{
		Trace:  f.Trace,
		ReqID:  f.ReqID,
		Op:     obs.OpSufficient,
		Round:  int32(body.Round),
		Points: int32(len(delta)),
		Bytes:  int32(len(f.Body)),
		Hit:    replayed,
		Start:  start,
		Dur:    time.Since(start),
	})
	return s.respondFragments(from, f, delta, func(frag, count uint16, chunk []core.Point) ([]byte, error) {
		return protocol.SufficientBody{Session: body.Session, Round: body.Round, Frag: frag, FragCount: count, Points: chunk}.Encode()
	})
}
