package cluster

import (
	"context"
	"fmt"
	"math/rand/v2"
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
	coord, err := New(Config{
		Detector:       clusterDetCfg,
		Shards:         addrs,
		Replicas:       2,
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

	feedBoth(t, ctx, coord, single, shards, trace(42, sensorRange(12), 5))
	snap, err := single.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Compute(clusterDetCfg.Ranker, clusterDetCfg.N, snap)

	shards[1].stop()
	waitFor(t, 10*time.Second, "shard marked down", func() bool {
		for _, info := range coord.ShardInfos() {
			if info.Addr == shards[1].addr && !info.Up {
				return true
			}
		}
		return false
	})

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
// dies, ingestion reroutes around it, and when a fresh (empty) process
// rejoins at the same address the coordinator re-ASSIGNs it and restores
// its sensors' windows by handoff from the surviving replicas — the
// merged view converges back to exact and undegraded.
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
	coord, err := New(Config{
		Detector:       clusterDetCfg,
		Shards:         addrs,
		Replicas:       2,
		QueryTimeout:   2 * time.Second,
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

	sensors := sensorRange(12)
	full := trace(7, sensors, 5)
	phase1, phase2 := full[:len(full)/2], full[len(full)/2:]
	feedBoth(t, ctx, coord, single, shards, phase1)

	// Kill one shard and wait for the coordinator to notice.
	victim := shards[1]
	victim.stop()
	waitFor(t, 10*time.Second, "shard marked down", func() bool {
		for _, info := range coord.ShardInfos() {
			if info.Addr == victim.addr && !info.Up {
				return true
			}
		}
		return false
	})

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
	reborn := startShard(t, victim.addr)
	defer reborn.stop()
	waitFor(t, 15*time.Second, "rejoined shard synced", func() bool {
		for _, info := range coord.ShardInfos() {
			if info.Addr == reborn.addr {
				return info.Up && info.Synced
			}
		}
		return false
	})
	waitFor(t, 15*time.Second, "undegraded exact merge after rejoin", func() bool {
		m, err := coord.MergedEstimateMode(ctx, MergeCompact)
		return err == nil && !m.Degraded && samePoints(m.Outliers, want)
	})

	// The reborn shard really was restored by handoff: it holds window
	// points again for the sensors it owns (it restarted empty, and
	// phase2 data predates its rebirth).
	smap := coord.ShardMapSnapshot()
	owned := smap.Owned(reborn.addr, sensors, 2)
	if len(owned) > 0 {
		waitFor(t, 15*time.Second, "handoff restored the reborn shard's windows", func() bool {
			pts, err := reborn.svc.Snapshot(ctx)
			return err == nil && len(pts) > 0
		})
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
	// Window field, which the compact path does not materialize.
	waitFor(t, 15*time.Second, "exact merge after shard add", func() bool {
		m, err := coord.MergedEstimateMode(ctx, MergeFull)
		return err == nil && !m.Degraded && m.ShardsTotal == 4 &&
			samePoints(m.Outliers, want) && samePoints(m.Window, snap)
	})

	// Shrink: remove one of the original shards; its sensors drain to
	// their new owners before it disappears from the query set.
	if err := coord.RemoveShard(shards[0].addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "exact merge after shard removal", func() bool {
		m, err := coord.MergedEstimateMode(ctx, MergeFull)
		return err == nil && !m.Degraded && m.ShardsTotal == 3 &&
			samePoints(m.Outliers, want) && samePoints(m.Window, snap)
	})
}
