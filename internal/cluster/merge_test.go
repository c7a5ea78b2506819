package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"innet/internal/baseline"
	"innet/internal/ingest"
	"innet/internal/protocol"
)

// fault is what a streamProxy does with one frame.
type fault uint8

const (
	pass  fault = iota
	delay       // forward it after faultDelay
	hold        // forward it once a rule calls openLocked, or after holdLimit
	stall       // forward nothing more on its connection, either way, and keep it open
	cut         // close both ends of its connection
)

// faultDelay is how long a delayed frame is held; holdLimit bounds how
// long a held one waits to be let through.
const (
	faultDelay = 3 * time.Millisecond
	holdLimit  = 100 * time.Millisecond
)

// streamProxy is a man-in-the-middle between the coordinator and one
// shard on the control stream. Each connection the coordinator opens is
// piped to a fresh connection to the shard, and every frame, either way,
// is handed to a test-set rule that passes, delays, stalls or cuts it.
// The coordinator is pointed at the proxy's address, so from its side
// the proxy IS the shard: a cut is what a killed shard looks like (an
// immediate EOF), a stall what a wedged one looks like (silence until a
// deadline).
type streamProxy struct {
	ln    net.Listener
	shard string

	mu    sync.Mutex
	rule  func(protocol.Frame) fault // nil passes everything
	gate  chan struct{}              // closed to let the held frames through
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func newStreamProxy(t testing.TB, shardAddr string) *streamProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &streamProxy{ln: ln, shard: shardAddr, gate: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.accept()
	t.Cleanup(p.close)
	return p
}

func (p *streamProxy) accept() {
	defer p.wg.Done()
	for {
		front, err := p.ln.Accept()
		if err != nil {
			return
		}
		back, err := net.Dial("tcp", p.shard)
		if err != nil {
			front.Close()
			continue
		}
		if !p.track(front, back) {
			return
		}
		var stalled atomic.Bool
		p.wg.Add(2)
		go p.pump(front, back, &stalled)
		go p.pump(back, front, &stalled)
	}
}

// track registers a piped pair, or closes it when the proxy is closing.
func (p *streamProxy) track(conns ...net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conns == nil {
		for _, c := range conns {
			c.Close()
		}
		return false
	}
	for _, c := range conns {
		p.conns[c] = struct{}{}
	}
	return true
}

// pump forwards frames from src to dst as the rule says until either end
// closes or a frame is cut; then it closes both.
func (p *streamProxy) pump(src, dst net.Conn, stalled *atomic.Bool) {
	defer p.wg.Done()
	defer src.Close()
	defer dst.Close()
	for {
		f, err := readFrame(src)
		if err != nil {
			return
		}
		if stalled.Load() {
			continue
		}
		p.mu.Lock()
		what := pass
		if p.rule != nil {
			what = p.rule(f)
		}
		gate := p.gate
		p.mu.Unlock()
		switch what {
		case cut:
			return
		case stall:
			stalled.Store(true)
			continue
		case delay:
			time.Sleep(faultDelay)
		case hold: // outside the mutex, so other frames' rules still run
			select {
			case <-gate:
			case <-time.After(holdLimit):
			}
		}
		if writeFrame(dst, f) != nil {
			return
		}
	}
}

// setRule installs the rule; it runs under the proxy mutex, so it may
// keep unsynchronized state.
func (p *streamProxy) setRule(rule func(protocol.Frame) fault) {
	p.mu.Lock()
	p.rule = rule
	p.mu.Unlock()
}

// openLocked lets every held frame through; a frame held after it waits
// for the next call. A rule calls it, under the proxy mutex.
func (p *streamProxy) openLocked() {
	close(p.gate)
	p.gate = make(chan struct{})
}

func (p *streamProxy) addr() string { return p.ln.Addr().String() }

func (p *streamProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.conns = nil
	p.mu.Unlock()
	p.wg.Wait()
}

// cutAfterFirstSufficientResponse lets one SUFFICIENT response through
// and then cuts every frame, as if the shard died mid-merge.
func cutAfterFirstSufficientResponse() func(protocol.Frame) fault {
	dead := false
	return func(f protocol.Frame) fault {
		if dead {
			return cut
		}
		dead = f.Kind == protocol.FrameSufficient && f.Response()
		return pass
	}
}

// mergeCluster boots 3 shards behind stream proxies plus a coordinator
// routed through them and a single-process reference. tune, if given,
// adjusts the coordinator's Config before it starts.
func mergeCluster(t *testing.T, replicas int, tune ...func(*Config)) (*Coordinator, *ingest.Service, []*testShard, []*streamProxy) {
	t.Helper()
	var shards []*testShard
	var proxies []*streamProxy
	var addrs []string
	for i := 0; i < 3; i++ {
		sh := startShard(t, "")
		t.Cleanup(sh.stop)
		px := newStreamProxy(t, sh.addr)
		shards = append(shards, sh)
		proxies = append(proxies, px)
		addrs = append(addrs, px.addr())
	}
	cfg := Config{
		Detector: clusterDetCfg,
		Shards:   addrs,
		Replicas: replicas,
		// A stalled merge waits out half of it before falling back.
		QueryTimeout: 4 * time.Second,
		// These tests exercise the merge protocol, not down-detection:
		// a probe flap on a slow CI box would silently shrink the query
		// target set (with replicas=1 that drops data from the merge),
		// so down-marking is effectively disabled.
		HealthInterval: 50 * time.Millisecond,
		HealthMisses:   1 << 20,
	}
	for _, f := range tune {
		f(&cfg)
	}
	coord, err := New(cfg)
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

// seededFaults is one proxy's rule for one phase of a test: it delays
// about a quarter of the frames that move points or windows, drawn from
// seed, and does f to the k-th SUFFICIENT frame it sees (both directions
// counted from 0). HEALTH always passes, so a fault cannot masquerade as
// shard death; f = pass injects delays only.
func seededFaults(seed uint64, f fault, k int) func(protocol.Frame) fault {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	seen := 0
	return func(fr protocol.Frame) fault {
		if fr.Kind == protocol.FrameHealth {
			return pass
		}
		if fr.Kind == protocol.FrameSufficient {
			seen++
			if seen-1 == k {
				return f
			}
		}
		if rng.IntN(4) == 0 {
			return delay
		}
		return pass
	}
}

// TestCompactMergeEquivalenceUnderLoss is the acceptance property with
// faults injected on a seeded schedule: for random traces at replicas 1
// and 2, with frames delayed on every shard link and one link cut, then
// one stalled, in round 0 or 1 of a compact query, the merged answer
// equals the full-window merge and baseline.Compute — the broken session
// falls back to the full path, whose window fetches the faults spare
// (at replicas 1 a lost window fetch loses data whatever the transport).
// With cuts and stalls lifted, the compact path itself must serve
// exactly, delays and all.
func TestCompactMergeEquivalenceUnderLoss(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			coord, single, shards, proxies := mergeCluster(t, replicas)
			rng := rand.New(rand.NewPCG(11*uint64(replicas), 41))
			// install puts a fresh seeded rule on every link, with f on
			// one link chosen by the schedule at a frame of round 0 or 1
			// (every compact query over data runs both).
			install := func(f fault) {
				victim, k := rng.IntN(len(proxies)), rng.IntN(4)
				for i, px := range proxies {
					what := pass
					if i == victim {
						what = f
					}
					px.setRule(seededFaults(rng.Uint64(), what, k))
				}
			}
			install(pass)
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

			for _, phase := range []struct {
				name string
				f    fault
			}{{"cut", cut}, {"stall", stall}} {
				install(phase.f)
				merged, err := coord.MergedEstimateMode(ctx, MergeCompact)
				if err != nil {
					t.Fatalf("query under a %s: %v", phase.name, err)
				}
				if merged.Mode != MergeFull {
					t.Fatalf("query under a %s served by %q, want the full fallback", phase.name, merged.Mode)
				}
				if !samePoints(merged.Outliers, want) {
					t.Fatalf("query under a %s: merged %s != baseline %s", phase.name, ids(merged.Outliers), ids(want))
				}
			}
			install(pass)
			fullDelayed, err := coord.MergedEstimateMode(ctx, MergeFull)
			if err != nil {
				t.Fatal(err)
			}
			if !samePoints(fullDelayed.Outliers, want) {
				t.Fatalf("full merge under delays %s != baseline %s", ids(fullDelayed.Outliers), ids(want))
			}

			// Cuts and stalls lifted: the compact path must serve,
			// exactly, without falling back — and for strictly less
			// payload than the full-window path moves.
			compact, err := coord.MergedEstimateMode(ctx, MergeCompact)
			if err != nil {
				t.Fatal(err)
			}
			if compact.Mode != MergeCompact {
				t.Fatalf("fault-free compact query fell back to %q", compact.Mode)
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

// TestCompactMergeFallbackMidQueryKill emulates a shard dying mid-merge:
// after the victim's first SUFFICIENT response every frame on its link
// is cut (to the coordinator an immediate EOF, exactly a process kill).
// The compact session must abort, fall back to the full-window path, and
// — with Replicas 2 covering the victim's points — still serve the exact
// baseline answer.
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
	healthy, err := coord.MergedEstimateMode(ctx, MergeCompact)
	if err != nil || healthy.Mode != MergeCompact || !samePoints(healthy.Outliers, want) {
		t.Fatalf("healthy compact merge wrong: mode=%v err=%v %s", healthy.Mode, err, ids(healthy.Outliers))
	}

	proxies[1].setRule(cutAfterFirstSufficientResponse())
	start := time.Now()
	merged, err := coord.MergedEstimateMode(ctx, MergeCompact)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Mode != MergeFull {
		t.Fatalf("mid-query kill served by %q, want full fallback", merged.Mode)
	}
	// A killed shard is an EOF, not a silence: nothing waits for the
	// compact half of the query budget.
	if took := time.Since(start); took >= coord.cfg.QueryTimeout/2 {
		t.Fatalf("mid-query kill took %v, as long as a stall", took)
	}
	if !samePoints(merged.Outliers, want) {
		t.Fatalf("fallback merge %s != baseline %s", ids(merged.Outliers), ids(want))
	}
	if got := coord.Stats().MergeFallbacks; got < 1 {
		t.Fatalf("MergeFallbacks = %d, want ≥ 1", got)
	}
}

// TestCompactMergeBlackholedFramesFallBackExact stalls the connection
// that carries SUFFICIENT on one shard's link while ASSIGN, ESTIMATE and
// READINGS still pass on others — a shard that is healthy but cannot
// play the compact exchange. The compact path must time out, fall back
// to full and stay exact and undegraded.
func TestCompactMergeBlackholedFramesFallBackExact(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	coord, single, shards, proxies := mergeCluster(t, 1)
	proxies[2].setRule(stallSufficient)
	feedBoth(t, ctx, coord, single, shards, trace(53, sensorRange(12), 5))
	snap, err := single.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Compute(clusterDetCfg.Ranker, clusterDetCfg.N, snap)

	merged, err := coord.MergedEstimateMode(ctx, MergeCompact)
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

// TestSlowQueryLogsServedMode: the slow-query line names the mode that
// served the answer, as the latency histogram's label does. With
// SUFFICIENT black-holed on one shard's link the compact session falls
// back, and the line must read mode=full, not the mode asked for.
//
// With SUFFICIENT stalled, the compact path waits out half the query
// budget before the fallback gets its turn.
func TestSlowQueryLogsServedMode(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var logged lockedBuffer
	coord, single, shards, proxies := mergeCluster(t, 1, func(cfg *Config) {
		cfg.QueryTimeout = 4 * time.Second // the black hole costs half of it
		cfg.SlowQuery = time.Nanosecond
		cfg.Logger = slog.New(slog.NewTextHandler(&logged, nil))
	})
	proxies[2].setRule(stallSufficient)
	feedBoth(t, ctx, coord, single, shards, trace(53, sensorRange(12), 5))

	merged, err := coord.MergedEstimateMode(ctx, MergeCompact)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Mode != MergeFull {
		t.Fatalf("black-holed merge served by %q, want full fallback", merged.Mode)
	}
	var line string
	for _, l := range strings.Split(logged.String(), "\n") {
		if strings.Contains(l, `msg="slow query"`) && strings.Contains(l, "trace="+traceHex(merged.Trace)) {
			line = l
		}
	}
	if !strings.Contains(line, " mode=full ") {
		t.Fatalf("slow-query line %q, want mode=full", line)
	}
}

// stallSufficient stalls any connection at its first SUFFICIENT frame.
func stallSufficient(f protocol.Frame) fault {
	if f.Kind == protocol.FrameSufficient {
		return stall
	}
	return pass
}

// lockedBuffer is a goroutine-safe log sink.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestCoordinatorIdentityRecovery pins identity across a coordinator
// restart inside a live window. The coordinator keeps no state a restart
// could lose: a reading re-sent to the fresh coordinator names the point
// the shards already hold and changes neither the window nor the answer,
// and a new in-window reading lands as a new point.
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
	readings := trace(71, sensorRange(6), rounds)
	feedBoth(t, ctx, first, single, shards, readings)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh coordinator over the same (live, full) shards.
	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	before, err := second.MergedEstimateMode(ctx, MergeFull)
	if err != nil {
		t.Fatal(err)
	}

	// The last round again, as a producer retrying an unacknowledged
	// batch across the restart delivers it.
	feedBoth(t, ctx, second, single, shards, readings[len(readings)-6:])
	after, err := second.MergedEstimateMode(ctx, MergeFull)
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(after.Window, before.Window) || !samePoints(after.Outliers, before.Outliers) {
		t.Fatalf("re-sent round changed the cluster:\nwindow %d -> %d points\noutliers %v -> %v",
			len(before.Window), len(after.Window), before.Outliers, after.Outliers)
	}
	snap, err := single.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := baseline.Compute(clusterDetCfg.Ranker, clusterDetCfg.N, snap); !samePoints(after.Outliers, want) {
		t.Fatalf("merged %v != single-process %v", after.Outliers, want)
	}

	// A new in-window reading for sensor 3 is a new point.
	at := rounds * time.Minute
	if err := second.IngestBatch([]ingest.Reading{{Sensor: 3, At: at, Values: []float64{20.7}}})[0]; err != nil {
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
	if len(seqs) != rounds+1 || !slices.Contains(seqs, ingest.SeqOf(at)) {
		t.Fatalf("sensor 3 holds %v, want %d points including %d", seqs, rounds+1, ingest.SeqOf(at))
	}
}
