package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"errors"

	"innet/internal/baseline"
	"innet/internal/core"
	"innet/internal/ingest"
	"innet/internal/protocol"
)

// lossyProxy is a UDP man-in-the-middle between the coordinator's
// control client and one shard: it forwards datagrams both ways,
// consulting a test-set rule on every decodable control frame. The
// coordinator is pointed at the proxy's front address, so from its
// perspective the proxy IS the shard — dropping frames here exercises
// exactly the loss the real wire can inflict, and a rule that drops
// everything is indistinguishable from killing the shard process.
type lossyProxy struct {
	front *net.UDPConn // coordinator-facing listener
	back  *net.UDPConn // shard-facing socket
	shard *net.UDPAddr

	mu     sync.Mutex
	client *net.UDPAddr
	rule   func(protocol.Frame) bool // true = drop; nil = pass all
}

func newLossyProxy(t testing.TB, shardAddr string) *lossyProxy {
	t.Helper()
	shard, err := net.ResolveUDPAddr("udp", shardAddr)
	if err != nil {
		t.Fatal(err)
	}
	front, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
	if err != nil {
		t.Fatal(err)
	}
	back, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
	if err != nil {
		front.Close()
		t.Fatal(err)
	}
	p := &lossyProxy{front: front, back: back, shard: shard}
	go p.pump(front, func(buf []byte, from *net.UDPAddr) {
		p.mu.Lock()
		p.client = from
		p.mu.Unlock()
		p.back.WriteToUDP(buf, p.shard)
	})
	go p.pump(back, func(buf []byte, _ *net.UDPAddr) {
		p.mu.Lock()
		client := p.client
		p.mu.Unlock()
		if client != nil {
			p.front.WriteToUDP(buf, client)
		}
	})
	t.Cleanup(p.close)
	return p
}

// pump reads conn until closed, forwarding every datagram the rule lets
// through.
func (p *lossyProxy) pump(conn *net.UDPConn, forward func([]byte, *net.UDPAddr)) {
	buf := make([]byte, 64*1024)
	for {
		n, from, err := conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if f, err := protocol.DecodeFrame(buf[:n]); err == nil {
			p.mu.Lock()
			drop := p.rule != nil && p.rule(f)
			p.mu.Unlock()
			if drop {
				continue
			}
		}
		out := make([]byte, n)
		copy(out, buf[:n])
		forward(out, from)
	}
}

// setRule installs the drop rule; the rule runs under the proxy mutex,
// so it may keep unsynchronized state.
func (p *lossyProxy) setRule(rule func(protocol.Frame) bool) {
	p.mu.Lock()
	p.rule = rule
	p.mu.Unlock()
}

func (p *lossyProxy) addr() string { return p.front.LocalAddr().String() }

func (p *lossyProxy) close() {
	p.front.Close()
	p.back.Close()
}

// mergeCluster boots 3 shards behind lossy proxies plus a coordinator
// routed through them and a single-process reference.
func mergeCluster(t *testing.T, replicas int) (*Coordinator, *ingest.Service, []*testShard, []*lossyProxy) {
	t.Helper()
	var shards []*testShard
	var proxies []*lossyProxy
	var addrs []string
	for i := 0; i < 3; i++ {
		sh := startShard(t, "")
		t.Cleanup(sh.stop)
		px := newLossyProxy(t, sh.addr)
		shards = append(shards, sh)
		proxies = append(proxies, px)
		addrs = append(addrs, px.addr())
	}
	coord, err := New(Config{
		Detector:      clusterDetCfg,
		Shards:        addrs,
		Replicas:      replicas,
		QueryTimeout:  15 * time.Second,
		RetryAttempts: 4,
		// These tests exercise the merge protocol, not down-detection:
		// a probe flap on a slow CI box would silently shrink the query
		// target set (with replicas=1 that drops data from the merge),
		// so down-marking is effectively disabled.
		HealthInterval: 50 * time.Millisecond,
		HealthMisses:   1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	single, err := ingest.New(ingest.Config{Detector: clusterDetCfg, AutoJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	return coord, single, shards, proxies
}

// dropEveryNth drops every n-th merge-carrying frame (LEDGER, SUFFICIENT
// and ESTIMATE, both directions), leaving the health plane alone so loss
// cannot masquerade as shard death.
func dropEveryNth(n int) func(protocol.Frame) bool {
	count := 0
	return func(f protocol.Frame) bool {
		switch f.Kind {
		case protocol.FrameLedger, protocol.FrameSufficient, protocol.FrameEstimate:
			count++
			return count%n == 0
		}
		return false
	}
}

// TestCompactMergeEquivalenceUnderLoss is the acceptance property with
// frame loss injected: for random traces at replicas 1 and 2, with every
// third merge frame dropped on every shard link, the merged answer —
// compact by default, fallback permitted when the loss eats the compact
// budget — always equals the full-window merge and baseline.Compute.
// With loss lifted, the compact path itself must serve exactly.
func TestCompactMergeEquivalenceUnderLoss(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			coord, single, shards, proxies := mergeCluster(t, replicas)
			for _, px := range proxies {
				px.setRule(dropEveryNth(3))
			}
			// Wide windows (24 sensors × 8 rounds) so the payload
			// comparison at the end has structural headroom: the full
			// path ships every window point, the compact path only
			// estimates and supports.
			feedBoth(t, ctx, coord, single, shards, trace(11*uint64(replicas), sensorRange(24), 8))
			snap, err := single.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want := baseline.Compute(clusterDetCfg.Ranker, clusterDetCfg.N, snap)

			for q := 0; q < 2; q++ {
				merged, err := coord.MergedEstimate(ctx)
				if err != nil {
					t.Fatalf("query %d: %v", q, err)
				}
				if !samePoints(merged.Outliers, want) {
					t.Fatalf("query %d (%s): merged %s != baseline %s",
						q, merged.Mode, ids(merged.Outliers), ids(want))
				}
			}
			fullLoss, err := coord.MergedEstimateMode(ctx, MergeFull)
			if err != nil {
				t.Fatal(err)
			}
			if !samePoints(fullLoss.Outliers, want) {
				t.Fatalf("full merge under loss %s != baseline %s", ids(fullLoss.Outliers), ids(want))
			}

			// Loss lifted: the compact path must serve, exactly, without
			// falling back — and for strictly less payload than the
			// full-window path moves.
			for _, px := range proxies {
				px.setRule(nil)
			}
			compact, err := coord.MergedEstimateMode(ctx, MergeCompact)
			if err != nil {
				t.Fatal(err)
			}
			if compact.Mode != MergeCompact {
				t.Fatalf("loss-free compact query fell back to %q", compact.Mode)
			}
			if !samePoints(compact.Outliers, want) {
				t.Fatalf("compact %s != baseline %s", ids(compact.Outliers), ids(want))
			}
			full, err := coord.MergedEstimateMode(ctx, MergeFull)
			if err != nil {
				t.Fatal(err)
			}
			if !samePoints(full.Outliers, want) {
				t.Fatalf("full %s != baseline %s", ids(full.Outliers), ids(want))
			}
			if compact.PayloadBytes >= full.PayloadBytes {
				t.Fatalf("compact payload %dB ≥ full payload %dB: no compaction",
					compact.PayloadBytes, full.PayloadBytes)
			}
		})
	}
}

// TestCompactMergeRetryIdempotent forces a retry of every merge round —
// the first SUFFICIENT response of each (session, round) is dropped —
// and requires the compact path to still serve exactly, without falling
// back: the shard must replay the cached round rather than recompute it,
// or the ledgers double-advance and the exchange diverges.
func TestCompactMergeRetryIdempotent(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	coord, single, shards, proxies := mergeCluster(t, 2)
	feedBoth(t, ctx, coord, single, shards, trace(23, sensorRange(12), 5))
	snap, err := single.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Compute(clusterDetCfg.Ranker, clusterDetCfg.N, snap)

	for _, px := range proxies {
		seen := make(map[uint64]map[uint16]bool)
		px.setRule(func(f protocol.Frame) bool {
			if f.Kind != protocol.FrameSufficient || !f.Response() {
				return false
			}
			body, err := protocol.DecodeSufficient(f.Body)
			if err != nil {
				return false
			}
			if seen[body.Session] == nil {
				seen[body.Session] = make(map[uint16]bool)
			}
			if !seen[body.Session][body.Round] {
				seen[body.Session][body.Round] = true
				return true // first response of the round: lose it
			}
			return false
		})
	}
	merged, err := coord.MergedEstimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Mode != MergeCompact {
		t.Fatalf("retried merge fell back to %q", merged.Mode)
	}
	if !samePoints(merged.Outliers, want) {
		t.Fatalf("retried compact merge %s != baseline %s", ids(merged.Outliers), ids(want))
	}
}

// TestCompactMergeFallbackMidQueryKill emulates a shard dying mid-merge:
// after the victim's first SUFFICIENT response its link goes entirely
// dark (from the coordinator's socket that is exactly a process kill).
// The compact session must abort, fall back to the full-window path, and
// — with Replicas 2 covering the victim's points — still serve the exact
// baseline answer, flagged degraded once health catches up or the
// snapshot query times out on the dead link.
func TestCompactMergeFallbackMidQueryKill(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	coord, single, shards, proxies := mergeCluster(t, 2)
	feedBoth(t, ctx, coord, single, shards, trace(37, sensorRange(12), 5))
	snap, err := single.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Compute(clusterDetCfg.Ranker, clusterDetCfg.N, snap)

	// Sanity: a healthy compact merge first.
	healthy, err := coord.MergedEstimate(ctx)
	if err != nil || healthy.Mode != MergeCompact || !samePoints(healthy.Outliers, want) {
		t.Fatalf("healthy compact merge wrong: mode=%v err=%v %s", healthy.Mode, err, ids(healthy.Outliers))
	}

	dead := false
	proxies[1].setRule(func(f protocol.Frame) bool {
		if dead {
			return true
		}
		if f.Kind == protocol.FrameSufficient && f.Response() {
			dead = true // this response passes; everything after is void
		}
		return false
	})
	merged, err := coord.MergedEstimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Mode != MergeFull {
		t.Fatalf("mid-query kill served by %q, want full fallback", merged.Mode)
	}
	if !samePoints(merged.Outliers, want) {
		t.Fatalf("fallback merge %s != baseline %s", ids(merged.Outliers), ids(want))
	}
	if got := coord.Stats().MergeFallbacks; got < 1 {
		t.Fatalf("MergeFallbacks = %d, want ≥ 1", got)
	}
}

// TestCompactMergeBlackholedFramesFallBackExact black-holes every LEDGER
// and SUFFICIENT frame on one shard's link while ASSIGN/ESTIMATE/READINGS
// still pass — a shard that is healthy but cannot play the compact
// exchange. The compact path must time out, fall back to full and stay
// exact and undegraded.
func TestCompactMergeBlackholedFramesFallBackExact(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	coord, single, shards, proxies := mergeCluster(t, 1)
	proxies[2].setRule(func(f protocol.Frame) bool {
		return f.Kind == protocol.FrameLedger || f.Kind == protocol.FrameSufficient
	})
	feedBoth(t, ctx, coord, single, shards, trace(53, sensorRange(12), 5))
	snap, err := single.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Compute(clusterDetCfg.Ranker, clusterDetCfg.N, snap)

	merged, err := coord.MergedEstimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Mode != MergeFull {
		t.Fatalf("black-holed merge served by %q, want full fallback", merged.Mode)
	}
	if merged.Degraded {
		t.Fatal("fallback flagged degraded; the shard is healthy")
	}
	if !samePoints(merged.Outliers, want) {
		t.Fatalf("fallback %s != baseline %s", ids(merged.Outliers), ids(want))
	}
}

// TestMergeSessionEvictionRefused pins the session cap and the
// mid-exchange eviction contract: opening one session more than the cap
// evicts exactly one, whatever the clock says about their ages, and
// since merge sessions are created only by a round-0 SUFFICIENT, later
// frames naming the evicted one must be refused — not silently served
// from a recreated session with an empty ledger, which would
// desynchronize the two ends and could let a quiescent-but-wrong compact
// answer through. The refusal surfaces as errUnknownSession, which sends
// the coordinator to the exact full-window fallback.
func TestMergeSessionEvictionRefused(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	svc, err := ingest.New(ingest.Config{Detector: clusterDetCfg, AutoJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i := 1; i <= 3; i++ {
		if err := svc.Ingest(ingest.Reading{Sensor: 1, At: time.Duration(i) * time.Second, Values: []float64{float64(20 + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	srv, err := NewShardServer(ShardServerConfig{Service: svc, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve()

	client, err := newCtlClient()
	if err != nil {
		t.Fatal(err)
	}
	defer client.close()
	addr, err := net.ResolveUDPAddr("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	open := func(id uint64) {
		t.Helper()
		if _, _, err := client.sufficient(ctx, addr, 0, id, 0); err != nil {
			t.Fatalf("session %d round 0: %v", id, err)
		}
	}
	for id := uint64(1); id <= maxMergeSessions; id++ {
		open(id)
	}
	// A coarse clock: no held session was touched before the next
	// creation reads the time.
	srv.mergeMu.Lock()
	touched := time.Now().Add(time.Second)
	for _, sess := range srv.sessions {
		sess.touched = touched
	}
	srv.mergeMu.Unlock()
	// One session more than the cap evicts exactly one of them.
	open(maxMergeSessions + 1)
	srv.mergeMu.Lock()
	held := len(srv.sessions)
	var evicted uint64
	for id := uint64(1); id <= maxMergeSessions+1; id++ {
		if srv.sessions[id] == nil {
			evicted = id
		}
	}
	srv.mergeMu.Unlock()
	if held != maxMergeSessions || evicted == 0 {
		t.Fatalf("shard holds %d sessions after opening %d (evicted %d), want the cap %d",
			held, maxMergeSessions+1, evicted, maxMergeSessions)
	}
	if _, _, err := client.sufficient(ctx, addr, 0, evicted, 1); !errors.Is(err, errUnknownSession) {
		t.Fatalf("round 1 on evicted session: err = %v, want errUnknownSession", err)
	}
	pt := []core.Point{core.NewPoint(9, 0, 0, 55.3)}
	if _, err := client.ledger(ctx, addr, 0, evicted, pt); !errors.Is(err, errUnknownSession) {
		t.Fatalf("ledger on evicted session: err = %v, want errUnknownSession", err)
	}
	// A fresh round 0 reopens the session cleanly.
	if _, _, err := client.sufficient(ctx, addr, 0, evicted, 0); err != nil {
		t.Fatalf("reopened session %d round 0: %v", evicted, err)
	}
}

// TestCoordinatorIdentityRecovery pins the restart hole: a coordinator
// restarted inside a live window must seed its per-sensor sequence
// counters past what the shards hold, so the next reading mints a fresh
// identity instead of colliding with an in-window point (which the
// windows would silently deduplicate, losing the reading).
func TestCoordinatorIdentityRecovery(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var shards []*testShard
	var addrs []string
	for i := 0; i < 3; i++ {
		sh := startShard(t, "")
		defer sh.stop()
		shards = append(shards, sh)
		addrs = append(addrs, sh.addr)
	}
	cfg := Config{
		Detector:       clusterDetCfg,
		Shards:         addrs,
		Replicas:       2,
		QueryTimeout:   5 * time.Second,
		HealthInterval: 50 * time.Millisecond,
		HealthMisses:   2,
	}
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	single, err := ingest.New(ingest.Config{Detector: clusterDetCfg, AutoJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	const rounds = 4
	feedBoth(t, ctx, first, single, shards, trace(71, sensorRange(6), rounds))
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh coordinator over the same (live, full) shards.
	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if got := second.Stats().Recovered; got != 6 {
		t.Fatalf("recovered %d sensors, want 6", got)
	}

	// A new in-window reading for sensor 3 must extend the identity
	// stream, not re-mint sequence 0 (which the shard windows would
	// deduplicate away).
	if err := second.Ingest(ingest.Reading{
		Sensor: 3,
		At:     rounds * time.Minute,
		Values: []float64{20.7},
	}); err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		if err := sh.svc.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := second.MergedEstimateMode(ctx, MergeFull)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint32
	for _, p := range merged.Window {
		if p.ID.Origin == 3 {
			seqs = append(seqs, p.ID.Seq)
		}
	}
	if len(seqs) != rounds+1 {
		t.Fatalf("sensor 3 holds %d points (%v), want %d — the new reading collided",
			len(seqs), seqs, rounds+1)
	}
	max := seqs[0]
	for _, s := range seqs {
		if s > max {
			max = s
		}
	}
	if max != rounds {
		t.Fatalf("newest sensor-3 sequence %d, want %d (continuation of the stream)", max, rounds)
	}
}
