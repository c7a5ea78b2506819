package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"innet/internal/baseline"
	"innet/internal/core"
	"innet/internal/ingest"
)

// clusterDetCfg is the detector configuration shared by every shard, the
// single-process reference, and the coordinator's merge in these tests.
var clusterDetCfg = core.Config{
	Ranker: core.KNN{K: 2},
	N:      3,
	Window: 10 * time.Minute,
}

// testShard is one in-process detector shard: an ingest fleet plus its
// control listener, reachable at addr.
type testShard struct {
	svc  *ingest.Service
	srv  *ShardServer
	addr string
}

// startShard boots a shard, optionally on a fixed control address (""
// picks a free port).
func startShard(t testing.TB, addr string) *testShard {
	t.Helper()
	svc, err := ingest.New(ingest.Config{Detector: clusterDetCfg, AutoJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	srv, err := NewShardServer(ShardServerConfig{Service: svc, Addr: addr})
	if err != nil {
		svc.Close()
		t.Fatal(err)
	}
	go srv.Serve()
	return &testShard{svc: svc, srv: srv, addr: srv.Addr()}
}

func (s *testShard) stop() {
	s.srv.Close()
	s.svc.Close()
}

// trace builds a deterministic multi-round reading trace over the given
// sensors with two planted faults, shuffling within each round so shard
// batches interleave.
func trace(seed uint64, sensors []core.NodeID, rounds int) []ingest.Reading {
	rng := rand.New(rand.NewPCG(seed, seed^0xbf58476d1ce4e5b9))
	var out []ingest.Reading
	for round := 0; round < rounds; round++ {
		order := rng.Perm(len(sensors))
		for _, i := range order {
			id := sensors[i]
			v := 20 + rng.NormFloat64()
			switch {
			case id == 7 && round == rounds-2:
				v = 55.3 // stuck-at-rail fault
			case id == 11 && round == rounds-1:
				v = -40 // frozen-battery fault
			}
			out = append(out, ingest.Reading{
				Sensor: id,
				At:     time.Duration(round) * time.Minute,
				Values: []float64{v},
			})
		}
	}
	return out
}

func sensorRange(n int) []core.NodeID {
	out := make([]core.NodeID, n)
	for i := range out {
		out[i] = core.NodeID(i + 1)
	}
	return out
}

// feedBoth routes the trace through the coordinator and mirrors it into
// the single-process reference service, then flushes everything.
func feedBoth(t *testing.T, ctx context.Context, coord *Coordinator, single *ingest.Service,
	shards []*testShard, rs []ingest.Reading) {
	t.Helper()
	for _, err := range coord.IngestBatch(rs) {
		if err != nil {
			t.Fatalf("coordinator ingest: %v", err)
		}
	}
	for _, r := range rs {
		if err := single.Ingest(r); err != nil {
			t.Fatalf("single ingest: %v", err)
		}
	}
	if err := single.Flush(ctx); err != nil {
		t.Fatalf("single flush: %v", err)
	}
	for _, sh := range shards {
		if err := sh.svc.Flush(ctx); err != nil {
			t.Fatalf("shard %s flush: %v", sh.addr, err)
		}
	}
}

func samePoints(a, b []core.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || len(a[i].Value) != len(b[i].Value) {
			return false
		}
		for d := range a[i].Value {
			if a[i].Value[d] != b[i].Value[d] {
				return false
			}
		}
	}
	return true
}

func ids(pts []core.Point) string {
	out := ""
	for i, p := range pts {
		if i > 0 {
			out += " "
		}
		out += p.ID.String()
	}
	return "[" + out + "]"
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// steppedCoordinator starts a coordinator whose health loop never ticks
// on its own. step runs one probe round and returns once every probe it
// started, and the change or refill that followed, has ended; it runs
// the first round before returning, as the first tick would.
func steppedCoordinator(t *testing.T, cfg Config) (coord *Coordinator, step func()) {
	t.Helper()
	coord, err := start(cfg, make(chan time.Time))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	step = func() { coord.probeRound().Wait() }
	step()
	return coord, step
}

// shardUp reports the coordinator's view of one shard: up, and synced.
func shardUp(t *testing.T, coord *Coordinator, addr string) (up, synced bool) {
	t.Helper()
	for _, info := range coord.ShardInfos() {
		if info.Addr == addr {
			return info.Up, info.Synced
		}
	}
	t.Fatalf("shard %s is not registered", addr)
	return false, false
}

// TestClusterEquivalence is the acceptance property: for random ingest
// traces over random shard assignments (the rendezvous map changes with
// the OS-assigned ports), the coordinator's merged outlier set over 3
// shards equals the single-process innetd answer and baseline.Compute on
// the same data — with and without boundary-sensor replication, through
// both the compact iterative merge and the full-window path.
func TestClusterEquivalence(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, mode := range []string{MergeCompact, MergeFull} {
		for _, replicas := range []int{1, 2} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/replicas=%d/seed=%d", mode, replicas, seed), func(t *testing.T) {
					var shards []*testShard
					var addrs []string
					for i := 0; i < 3; i++ {
						sh := startShard(t, "")
						defer sh.stop()
						shards = append(shards, sh)
						addrs = append(addrs, sh.addr)
					}
					coord, err := New(Config{
						Detector:       clusterDetCfg,
						Shards:         addrs,
						Replicas:       replicas,
						QueryTimeout:   5 * time.Second,
						HealthInterval: 50 * time.Millisecond,
						HealthMisses:   2,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer coord.Close()
					single, err := ingest.New(ingest.Config{Detector: clusterDetCfg, AutoJoin: true})
					if err != nil {
						t.Fatal(err)
					}
					defer single.Close()

					feedBoth(t, ctx, coord, single, shards, trace(seed, sensorRange(12), 5))

					merged, err := coord.MergedEstimateMode(ctx, mode)
					if err != nil {
						t.Fatal(err)
					}
					if merged.Degraded {
						t.Fatalf("merge degraded with all shards up: %d/%d", merged.ShardsOK, merged.ShardsTotal)
					}
					if merged.Mode != mode {
						t.Fatalf("merge served by %q, want %q (no fallback expected)", merged.Mode, mode)
					}
					snap, err := single.Snapshot(ctx)
					if err != nil {
						t.Fatal(err)
					}
					want := baseline.Compute(clusterDetCfg.Ranker, clusterDetCfg.N, snap)
					if !samePoints(merged.Outliers, want) {
						t.Fatalf("merged %s != baseline %s", ids(merged.Outliers), ids(want))
					}
					est, err := single.Estimate(1)
					if err != nil {
						t.Fatal(err)
					}
					if !samePoints(est, want) {
						t.Fatalf("single-process estimate %s != baseline %s", ids(est), ids(want))
					}
					if mode == MergeFull {
						// The merged window is the full dataset,
						// deduplicated across replicas.
						if !samePoints(merged.Window, snap) {
							t.Fatalf("merged window %d points != single snapshot %d points",
								len(merged.Window), len(snap))
						}
					} else {
						// The compact path must have iterated — and its
						// candidate set is a subset of the window, which
						// is the whole point.
						if merged.Rounds < 1 || merged.PayloadBytes <= 0 {
							t.Fatalf("compact merge rounds=%d payload=%d", merged.Rounds, merged.PayloadBytes)
						}
						if len(merged.Window) > len(snap) {
							t.Fatalf("compact candidate set %d > window %d", len(merged.Window), len(snap))
						}
					}
				})
			}
		}
	}
}

// TestClusterShardFailure pins the degraded-but-correct claim: with
// boundary replication (Replicas=2) every point survives a single shard
// failure, so the merged answer stays equal to the full-data baseline
// while the view reports itself degraded.
func TestClusterShardFailure(t *testing.T) {
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
	coord, step := steppedCoordinator(t, Config{
		Detector:     clusterDetCfg,
		Shards:       addrs,
		Replicas:     2,
		QueryTimeout: 5 * time.Second,
		HealthMisses: 2,
	})
	single, err := ingest.New(ingest.Config{Detector: clusterDetCfg, AutoJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	feedBoth(t, ctx, coord, single, shards, trace(42, sensorRange(12), 5))
	snap, err := single.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Compute(clusterDetCfg.Ranker, clusterDetCfg.N, snap)

	// Two missed probes mark the stopped shard down.
	shards[1].stop()
	step()
	if up, _ := shardUp(t, coord, shards[1].addr); !up {
		t.Fatal("shard marked down after one missed probe, want two")
	}
	step()
	if up, _ := shardUp(t, coord, shards[1].addr); up {
		t.Fatal("shard not marked down after two missed probes")
	}

	merged, err := coord.MergedEstimateMode(ctx, MergeCompact)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Degraded || merged.ShardsOK != 2 {
		t.Fatalf("expected a degraded 2/3 merge, got %d/%d degraded=%v",
			merged.ShardsOK, merged.ShardsTotal, merged.Degraded)
	}
	if !samePoints(merged.Outliers, want) {
		t.Fatalf("degraded merge %s != baseline %s (replication should cover one failure)",
			ids(merged.Outliers), ids(want))
	}
}

// TestClusterShardRejoin drives the full failure lifecycle: a shard
// dies, the map drops it and ingestion follows the map, and when a fresh
// (empty) process rejoins at the same address the map takes it back and
// its sensors' windows are restored by handoff from the surviving
// replicas — the merged view converges back to exact and undegraded.
func TestClusterShardRejoin(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	var shards []*testShard
	var addrs []string
	for i := 0; i < 3; i++ {
		sh := startShard(t, "")
		defer sh.stop()
		shards = append(shards, sh)
		addrs = append(addrs, sh.addr)
	}
	coord, step := steppedCoordinator(t, Config{
		Detector:     clusterDetCfg,
		Shards:       addrs,
		Replicas:     2,
		QueryTimeout: 2 * time.Second,
		HealthMisses: 2,
	})
	single, err := ingest.New(ingest.Config{Detector: clusterDetCfg, AutoJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	sensors := sensorRange(12)
	full := trace(7, sensors, 5)
	phase1, phase2 := full[:len(full)/2], full[len(full)/2:]
	feedBoth(t, ctx, coord, single, shards, phase1)

	// Kill one shard; two missed probes mark it down.
	victim := shards[1]
	victim.stop()
	step()
	step()
	if up, _ := shardUp(t, coord, victim.addr); up {
		t.Fatal("shard not marked down after two missed probes")
	}

	// Ingest while degraded: readings for the victim's sensors reroute
	// to the surviving shards.
	live := []*testShard{shards[0], shards[2]}
	feedBoth(t, ctx, coord, single, live, phase2)
	snap, err := single.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Compute(clusterDetCfg.Ranker, clusterDetCfg.N, snap)
	merged, err := coord.MergedEstimateMode(ctx, MergeCompact)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Degraded || !samePoints(merged.Outliers, want) {
		t.Fatalf("degraded merge wrong: degraded=%v got %s want %s",
			merged.Degraded, ids(merged.Outliers), ids(want))
	}

	// Rejoin: a fresh empty process binds the same control address.
	// One answered probe rejoins it, and its change ends with the round.
	reborn := startShard(t, victim.addr)
	defer reborn.stop()
	step()
	if up, synced := shardUp(t, coord, reborn.addr); !up || !synced {
		t.Fatalf("rejoined shard up=%v synced=%v after one answered probe", up, synced)
	}
	m, err := coord.MergedEstimateMode(ctx, MergeCompact)
	if err != nil || m.Degraded || !samePoints(m.Outliers, want) {
		t.Fatalf("merge after rejoin: degraded=%v outliers %s, want %s (%v)", m.Degraded, ids(m.Outliers), ids(want), err)
	}

	// The reborn shard really was restored by handoff: it holds window
	// points again for the sensors it owns (it restarted empty, and
	// phase2 data predates its rebirth).
	smap := coord.ShardMapSnapshot()
	owned := smap.Owned(reborn.addr, sensors, 2)
	if len(owned) > 0 {
		pts, err := reborn.svc.Snapshot(ctx)
		if err != nil || len(pts) == 0 {
			t.Fatalf("handoff restored none of the reborn shard's windows (%v)", err)
		}
	}
}

// TestClusterMembershipChange drives dynamic shard join/leave with no
// replication safety net (Replicas=1): after adding a fourth shard the
// moved sensors' windows must follow them (drain-on-gain), and after
// draining and removing one of the original shards the merged answer
// must still equal the full-data baseline — no point may ride on a
// removed or unassigned shard.
func TestClusterMembershipChange(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	var shards []*testShard
	var addrs []string
	for i := 0; i < 3; i++ {
		sh := startShard(t, "")
		defer sh.stop()
		shards = append(shards, sh)
		addrs = append(addrs, sh.addr)
	}
	coord, err := New(Config{
		Detector:       clusterDetCfg,
		Shards:         addrs,
		Replicas:       1,
		QueryTimeout:   5 * time.Second,
		HealthInterval: 50 * time.Millisecond,
		HealthMisses:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	single, err := ingest.New(ingest.Config{Detector: clusterDetCfg, AutoJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	feedBoth(t, ctx, coord, single, shards, trace(99, sensorRange(12), 5))
	snap, err := single.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Compute(clusterDetCfg.Ranker, clusterDetCfg.N, snap)

	// Grow: a fourth shard joins; windows must move with ownership.
	fourth := startShard(t, "")
	defer fourth.stop()
	if err := coord.AddShard(fourth.addr); err != nil {
		t.Fatal(err)
	}
	// The full path: this test pins window movement through the result's
	// Window field, which the compact path does not materialize. A change
	// returns done, so the merge is checked as soon as it returns.
	exact := func(what string, shards int) {
		t.Helper()
		m, err := coord.MergedEstimateMode(ctx, MergeFull)
		if err != nil || m.Degraded || m.ShardsTotal != shards || !samePoints(m.Outliers, want) || !samePoints(m.Window, snap) {
			t.Fatalf("merge after shard %s: degraded=%v over %d shards, %d-point window (want %d), outliers %s (want %s) (%v)",
				what, m.Degraded, m.ShardsTotal, len(m.Window), len(snap), ids(m.Outliers), ids(want), err)
		}
	}
	exact("add", 4)

	// Shrink: remove one of the original shards; its sensors drain to
	// their new owners before it disappears from the query set.
	if err := coord.RemoveShard(shards[0].addr); err != nil {
		t.Fatal(err)
	}
	exact("removal", 3)
}

// TestCoordinatorRestartDrainsEverySensor: a restarted coordinator
// learns which sensors the shards hold before it serves. Removing a shard
// at Replicas 1 before any sensor reports again must still drain every
// sensor's window to its new owner, so the merged window and the answer
// stay what they were before the restart.
func TestCoordinatorRestartDrainsEverySensor(t *testing.T) {
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
		Replicas:       1,
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
	sensors := sensorRange(12)
	feedBoth(t, ctx, first, single, shards, trace(53, sensors, 5))
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := single.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Compute(clusterDetCfg.Ranker, clusterDetCfg.N, snap)

	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if got := second.Stats().Sensors; got != len(sensors) {
		t.Fatalf("restarted coordinator knows %d sensors, want %d", got, len(sensors))
	}
	if err := second.RemoveShard(shards[0].addr); err != nil {
		t.Fatal(err)
	}
	// The removal returns done: the merge is whole as soon as it returns.
	m, err := second.MergedEstimateMode(ctx, MergeFull)
	if err != nil || m.Degraded || m.ShardsTotal != 2 || !samePoints(m.Outliers, want) || !samePoints(m.Window, snap) {
		t.Fatalf("merge after removal by a restarted coordinator: degraded=%v over %d shards, %d-point window (want %d), outliers %s (want %s) (%v)",
			m.Degraded, m.ShardsTotal, len(m.Window), len(snap), ids(m.Outliers), ids(want), err)
	}
}

// TestCoordinatorRepeatedReadingIsANoOp: a batch delivered twice to the
// coordinator — a retried POST, a duplicated datagram — reaches every
// replica as the points it already holds. Neither the merged window nor
// the answer moves, and the shards count the copies as repeats.
func TestCoordinatorRepeatedReadingIsANoOp(t *testing.T) {
	const rounds = 4
	readings := trace(37, sensorRange(6), rounds)
	lastRound := readings[len(readings)-6:]
	for _, door := range []string{"http", "udp"} {
		t.Run(door, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			coord, single, shards, _ := mergeCluster(t, 2)
			send := coordinatorSender(t, coord, door)
			state := func() MergeResult {
				t.Helper()
				for _, sh := range shards {
					if err := sh.svc.Flush(ctx); err != nil {
						t.Fatal(err)
					}
				}
				res, err := coord.MergedEstimateMode(ctx, MergeFull)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}

			send(readings)
			before := state()
			repeats := func() (n uint64) {
				for _, sh := range shards {
					n += sh.svc.Stats().Repeated
				}
				return n
			}
			repeatedBefore := repeats()
			for _, r := range readings {
				if err := single.Ingest(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := single.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			snap, err := single.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want := baseline.Compute(clusterDetCfg.Ranker, clusterDetCfg.N, snap)
			if len(before.Window) != len(readings) || !samePoints(before.Outliers, want) {
				t.Fatalf("before the repeat: %d-point window, outliers %s; want %d points and %s",
					len(before.Window), ids(before.Outliers), len(readings), ids(want))
			}

			send(lastRound)
			after := state()
			if !samePoints(after.Window, before.Window) || !samePoints(after.Outliers, before.Outliers) {
				t.Fatalf("the repeat moved the cluster: window %d -> %d points, outliers %s -> %s",
					len(before.Window), len(after.Window), ids(before.Outliers), ids(after.Outliers))
			}
			// Replicas 2: each copy reaches two shards. A READINGS frame the
			// coordinator retried adds more.
			if got, want := repeats()-repeatedBefore, uint64(2*len(lastRound)); got < want {
				t.Fatalf("shards counted %d repeats, want at least %d", got, want)
			}
		})
	}
}

// coordinatorSender returns a function that delivers readings to the
// coordinator through the named front door ("http" or "udp") and returns
// once it has routed them.
func coordinatorSender(t *testing.T, coord *Coordinator, door string) func([]ingest.Reading) {
	t.Helper()
	if door == "http" {
		srv := httptest.NewServer(coord.Handler())
		t.Cleanup(srv.Close)
		return func(rs []ingest.Reading) {
			t.Helper()
			var batch ingest.WireBatch
			for _, r := range rs {
				batch.Readings = append(batch.Readings, ingest.WireReading{Sensor: uint16(r.Sensor), AtMS: r.At.Milliseconds(), Values: r.Values})
			}
			body, err := json.Marshal(batch)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(srv.URL+"/v1/observations", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("POST status %d, want 202", resp.StatusCode)
			}
		}
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	go coord.ServeUDP(pc)
	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return func(rs []ingest.Reading) {
		t.Helper()
		want := coord.Stats().Routed + uint64(len(rs))
		var lines []string
		for _, r := range rs {
			lines = append(lines, fmt.Sprintf("%d %d %v", r.Sensor, r.At.Milliseconds(), r.Values[0]))
		}
		if _, err := conn.Write([]byte(strings.Join(lines, "\n"))); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 10*time.Second, "the datagram's readings routed", func() bool { return coord.Stats().Routed >= want })
	}
}
