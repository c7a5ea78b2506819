package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"innet/internal/core"
	"innet/internal/obs"
	"innet/internal/protocol"
)

// mergeSession is the compact-merge session one control connection
// holds: the link over the window snapshot frozen at its round 0, under
// the session ID (the query's trace) that round named. Only the
// connection's goroutine touches it. The next round 0 replaces it, and
// closing the connection ends it.
type mergeSession struct {
	id   uint64
	link *core.MergeLink
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

// openLink freezes the window and returns a fresh merge link over it.
// The snapshot's merge source (spatial index, ranking batch, Eq. (2)
// seed) is reused across sessions while the window fingerprint is
// unchanged, so repeated queries over a quiet window skip straight to
// the fixed point; once the window changes, the new source is ranked
// from the estimate of the one it replaces.
func (s *ShardServer) openLink(trace uint64) (*core.MergeLink, error) {
	// Snapshot outside the lock: it round-trips every sensor's event
	// loop and must not stall another connection's session.
	start := time.Now()
	snap, err := s.svc.Snapshot(s.ctx)
	if err != nil {
		return nil, err
	}
	fp := fingerprintPoints(snap)

	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
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
		Start:  start,
		Dur:    time.Since(start),
	})
	return src.NewLink(), nil
}

// handleSufficient serves one compact-merge round. Round 0 opens the
// connection's session over a freshly frozen window; any other round
// must name the session the connection holds. The request's points, the
// coordinator's sufficient delta, go into the session's ledger and
// dataset before the shard reacts (Algorithm 1 folds receipts into P
// first), and the response is the session's Eq. (2) sufficient delta
// against everything exchanged so far. Either may span a run of
// fragments; the rest of the request's run is read from r. The
// connection carries one request at a time and never delivers one
// twice, so each round is absorbed and answered exactly once.
func (s *ShardServer) handleSufficient(f protocol.Frame, r io.Reader, sess *mergeSession) ([][]byte, error) {
	start := time.Now()
	body, err := protocol.DecodeSufficient(f.Body)
	if err != nil {
		return nil, err
	}
	bytes := len(f.Body)
	var run fragRun
	for frag := body; ; {
		done, err := run.add(frag.Frag, frag.FragCount)
		if err != nil {
			return nil, fmt.Errorf("SUFFICIENT %w", err)
		}
		if done {
			break
		}
		next, err := readFrame(r)
		if err != nil {
			return nil, err
		}
		if next.Kind != protocol.FrameSufficient || next.Response() {
			return nil, fmt.Errorf("a %v frame (flags %#x) inside a SUFFICIENT request", next.Kind, next.Flags)
		}
		if frag, err = protocol.DecodeSufficient(next.Body); err != nil {
			return nil, err
		}
		if frag.Session != body.Session || frag.Round != body.Round {
			return nil, fmt.Errorf("SUFFICIENT session %016x round %d continued by session %016x round %d",
				body.Session, body.Round, frag.Session, frag.Round)
		}
		body.Points = append(body.Points, frag.Points...)
		bytes += len(next.Body)
	}
	switch {
	case body.Round == 0:
		link, err := s.openLink(f.Trace)
		if err != nil {
			return nil, err
		}
		if sess.link == nil {
			s.sessions.Add(1)
		}
		*sess = mergeSession{id: body.Session, link: link}
	case sess.link == nil || sess.id != body.Session:
		return nil, fmt.Errorf("SUFFICIENT round %d of session %016x, which this connection does not hold", body.Round, body.Session)
	}
	sess.link.Absorb(body.Points)
	delta := sess.link.Delta()
	s.svc.Traces().Record(obs.Span{
		Trace:  f.Trace,
		Op:     obs.OpSufficient,
		Round:  int32(body.Round),
		Points: int32(len(delta)),
		Bytes:  int32(bytes),
		Start:  start,
		Dur:    time.Since(start),
	})
	return splitPoints(delta, func(frag, count uint16, chunk []core.Point) ([]byte, error) {
		return protocol.SufficientBody{Session: body.Session, Round: body.Round, Frag: frag, FragCount: count, Points: chunk}.Encode()
	})
}
