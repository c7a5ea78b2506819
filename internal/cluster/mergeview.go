package cluster

import (
	"time"

	"innet/internal/obs"
)

// GET /debug/merges is a view, not a record: the paper's evaluation is
// about what one Algorithm 1 exchange costs — bytes and rounds to
// converge — and every compact merge already leaves that in the span
// ring (one OpMergeRound span per shard per round, an OpMergeFallback
// span when the session is abandoned, OpMergeFull spans for the rescue,
// the OpQuery root). Grouping those spans by trace ID gives the
// per-session story; nothing is written a second time, so the view's
// byte totals are the spans' byte totals — the same additions that feed
// MergeResult.PayloadBytes and innetcoord_merge_bytes_total.

// MergeSession is one finished compact-merge query as /debug/merges
// shows it.
type MergeSession struct {
	Trace      string       `json:"trace"` // the query's trace ID (hex), also its merge-session ID; key into /debug/traces
	Requested  string       `json:"requested_mode"`
	Final      string       `json:"final_mode"` // after any fallback
	Rounds     []MergeRound `json:"rounds"`
	Quiesced   int          `json:"quiesced_round"`            // round that moved nothing; -1 if the session fell back
	Fallback   string       `json:"fallback_reason,omitempty"` // why the session abandoned the compact path
	TotalBytes int          `json:"total_bytes"`               // Σ round bytes == merge_bytes_total delta for this session
	FullBytes  int          `json:"full_bytes,omitempty"`      // fallback full-path payload (merge_full_bytes_total delta)
	DurationMS float64      `json:"duration_ms"`
}

// MergeRound is one compact-merge round across every shard.
type MergeRound struct {
	Round  int               `json:"round"`
	Bytes  int               `json:"bytes"` // Σ over shards
	Shards []MergeRoundShard `json:"shards"`
}

// MergeRoundShard is one shard's side of one merge round.
type MergeRoundShard struct {
	Shard  string  `json:"shard"`
	Bytes  int     `json:"bytes"`  // SUFFICIENT payload sent + received
	Points int     `json:"points"` // shard delta points received
	RTTMS  float64 `json:"rtt_ms"` // whole network phase
	Err    string  `json:"err,omitempty"`
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// MergeSessions groups the span ring into finished compact-merge
// sessions, newest first, at most limit of them (limit <= 0: all). A
// session appears once its query span is recorded and for as long as the
// ring still holds every byte it moved; a session the ring has partly
// evicted is left out rather than shown with an understated cost.
// Pure-full queries never appear: the view is the Algorithm 1 cost
// record.
func (c *Coordinator) MergeSessions(limit int) []MergeSession {
	type session struct {
		MergeSession
		payload int // bytes the session's closing span says it moved
	}
	byTrace := make(map[uint64]*session)
	get := func(trace uint64) *session {
		s := byTrace[trace]
		if s == nil {
			s = &session{MergeSession: MergeSession{
				Trace: traceHex(trace), Requested: MergeCompact, Final: MergeCompact,
			}}
			byTrace[trace] = s
		}
		return s
	}
	var finished []*session
	spans := c.traceLog.Snapshot(0, 0) // newest first
	for i := len(spans) - 1; i >= 0; i-- {
		sp := spans[i] // oldest first, so a session's rounds arrive in order
		switch sp.Op {
		case obs.OpMergeRound:
			s := get(sp.Trace)
			if n := len(s.Rounds); n == 0 || s.Rounds[n-1].Round != int(sp.Round) {
				s.Rounds = append(s.Rounds, MergeRound{Round: int(sp.Round)})
			}
			r := &s.Rounds[len(s.Rounds)-1]
			r.Bytes += int(sp.Bytes)
			r.Shards = append(r.Shards, MergeRoundShard{
				Shard:  sp.Shard,
				Bytes:  int(sp.Bytes),
				Points: int(sp.Points),
				RTTMS:  durMS(sp.Dur),
				Err:    sp.Err,
			})
			s.TotalBytes += int(sp.Bytes)
		case obs.OpMergeFallback:
			s := get(sp.Trace)
			s.Final, s.Fallback, s.payload = MergeFull, sp.Err, int(sp.Bytes)
		case obs.OpMergeFull:
			get(sp.Trace).FullBytes += int(sp.Bytes)
		case obs.OpQuery:
			s := get(sp.Trace)
			s.DurationMS = durMS(sp.Dur)
			if s.Final == MergeCompact {
				s.payload = int(sp.Bytes)
			}
			finished = append(finished, s)
		}
	}
	out := make([]MergeSession, 0, len(finished))
	for i := len(finished) - 1; i >= 0 && (limit <= 0 || len(out) < limit); i-- {
		s := finished[i]
		if len(s.Rounds) == 0 || s.TotalBytes != s.payload {
			continue // a full-mode query, or a session the ring no longer holds whole
		}
		s.Quiesced = -1
		if s.Final == MergeCompact {
			s.Quiesced = s.Rounds[len(s.Rounds)-1].Round // compactMerge only succeeds on a quiet round
		}
		out = append(out, s.MergeSession)
	}
	return out
}
