package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"innet/internal/baseline"
	"innet/internal/core"
	"innet/internal/ingest"
	"innet/internal/protocol"
)

// TestLateAssignCannotEvictDrainedWindow pins the order of membership
// changes at Replicas 1. A fourth shard is added, then one of the first
// three is removed. At the proxy of the shard that gains one of the
// removed shard's sensors, the add's version-2 ASSIGN is held until the
// removal's window copy of that sensor has been admitted there (or for
// holdLimit at most), and the copy's ack is held until a v2 ASSIGN has
// been answered there. If the add returns before every up shard holds version
// 2, the late ASSIGN evicts the copied window, the only copy left once
// the removed shard is gone. The add must wait for the ASSIGN instead,
// so right after the removal the sensor's new owner holds its whole
// window and the merge is whole.
func TestLateAssignCannotEvictDrainedWindow(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	coord, single, shards, proxies := mergeCluster(t, 1)
	fourth := startShard(t, "")
	t.Cleanup(fourth.stop)
	proxies = append(proxies, newStreamProxy(t, fourth.addr))
	backends := []*testShard{shards[0], shards[1], shards[2], fourth}

	sensors := sensorRange(12)
	feedBoth(t, ctx, coord, single, shards, trace(61, sensors, 5))
	snap, err := single.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Compute(clusterDetCfg.Ranker, clusterDetCfg.N, snap)

	// The removed shard owns moved at version 2; the shard behind gainer
	// owns it at version 3.
	v2 := coord.ShardMapSnapshot().WithShard(proxies[3].addr())
	var removed string
	var moved core.NodeID
	for _, px := range proxies[:3] {
		if owned := v2.Owned(px.addr(), sensors, 1); removed == "" && len(owned) > 0 {
			removed, moved = px.addr(), owned[0]
		}
	}
	if removed == "" {
		t.Fatal("none of the first three shards owns a sensor at version 2")
	}
	owner := v2.WithoutShard(removed).Owners(moved, 1)[0]
	i := slices.IndexFunc(proxies, func(px *streamProxy) bool { return px.addr() == owner })
	gainer, gaining := proxies[i], backends[i]
	own := func(pts []core.Point) (n int) {
		for _, p := range pts {
			if p.ID.Origin == moved {
				n++
			}
		}
		return n
	}

	// assigned: the gainer answered a v2 ASSIGN. copying: moved's copy is
	// on its way to the gainer; landed: the gainer has admitted it.
	assigned, copying, landed := false, false, false
	gainer.setRule(func(f protocol.Frame) fault {
		switch {
		case f.Kind == protocol.FrameAssign && !f.Response():
			if b, err := protocol.DecodeAssign(f.Body); err == nil && b.MapVersion == 2 && !landed {
				return hold
			}
		case f.Kind == protocol.FrameAssign:
			if ack, err := protocol.DecodeAck(f.Body); err == nil && ack.Count >= 2 && !assigned {
				assigned = true
				gainer.openLocked() // the copy's ack, if it is held
			}
		case f.Kind == protocol.FrameReadings && !f.Response():
			body, err := protocol.DecodeReadings(f.Body)
			copying = err == nil && f.Flags&protocol.FlagTransfer != 0 &&
				slices.ContainsFunc(body.Points, func(p core.Point) bool { return p.ID.Origin == moved })
		case f.Kind == protocol.FrameReadings && copying:
			copying, landed = false, true
			if !assigned {
				gainer.openLocked() // the v2 ASSIGN, if it is held
				return hold
			}
		}
		return pass
	})

	if err := coord.AddShard(proxies[3].addr()); err != nil {
		t.Fatal(err)
	}
	if err := coord.RemoveShard(removed); err != nil {
		t.Fatal(err)
	}
	held, err := gaining.svc.HoldingsOf(ctx, moved)
	if err != nil || own(held) != own(snap) {
		t.Fatalf("sensor %d's new owner holds %d of its %d points (%v)", moved, own(held), own(snap), err)
	}
	m, err := coord.MergedEstimateMode(ctx, MergeFull)
	if err != nil {
		t.Fatal(err)
	}
	if m.Degraded || m.ShardsTotal != 3 || !samePoints(m.Window, snap) || !samePoints(m.Outliers, want) {
		t.Fatalf("after removing %s: degraded=%v over %d shards, %d-point window (want %d), outliers %s (want %s)",
			removed, m.Degraded, m.ShardsTotal, len(m.Window), len(snap), ids(m.Outliers), ids(want))
	}
}

// TestConcurrentMembershipChanges: changes issued at once run one after
// the other, each on the map the one before installed. Two adds end in
// one map that holds both new shards; an add racing a removal ends with
// the added shard in and the removed one out. Either way the map is at
// version 3, it names exactly the registered shards, and the merge right
// after both calls return is whole.
func TestConcurrentMembershipChanges(t *testing.T) {
	for _, remove := range []bool{false, true} {
		name := "add+add"
		if remove {
			name = "add+remove"
		}
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			coord, single, shards, proxies := mergeCluster(t, 1)
			sensors := sensorRange(12)
			feedBoth(t, ctx, coord, single, shards, trace(67, sensors, 5))
			snap, err := single.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want := baseline.Compute(clusterDetCfg.Ranker, clusterDetCfg.N, snap)

			// Pick the shards so that each change has a window to copy
			// whichever runs first: one with nothing to copy could end
			// before the other begins. (A shard that owns a sensor in a
			// map owns it in every map with fewer shards.)
			v1 := coord.ShardMapSnapshot()
			copies := func(addr string, smap *ShardMap) bool { return len(smap.Owned(addr, sensors, 1)) > 0 }
			gone := ""
			for _, px := range proxies {
				if gone == "" && copies(px.addr(), v1) {
					gone = px.addr()
				}
			}
			var first, second string
			for try := 0; first == ""; try++ {
				if try == 50 {
					t.Fatal("no pair of shards where each change copies a window")
				}
				a := startShard(t, "")
				t.Cleanup(a.stop)
				withA := v1.WithShard(a.addr)
				if remove {
					if copies(a.addr, withA) && copies(gone, withA) {
						first = a.addr
					}
					continue
				}
				b := startShard(t, "")
				t.Cleanup(b.stop)
				if both := withA.WithShard(b.addr); copies(a.addr, both) && copies(b.addr, both) {
					first, second = a.addr, b.addr
				}
			}
			changes := []func() error{func() error { return coord.AddShard(first) }}
			wantShards := []string{proxies[0].addr(), proxies[1].addr(), proxies[2].addr(), first}
			if remove {
				wantShards = slices.DeleteFunc(wantShards, func(a string) bool { return a == gone })
				changes = append(changes, func() error { return coord.RemoveShard(gone) })
			} else {
				wantShards = append(wantShards, second)
				changes = append(changes, func() error { return coord.AddShard(second) })
			}
			slices.Sort(wantShards)
			// The first window read either change makes is held for
			// holdLimit, so the other change begins while it is copying.
			var held atomic.Bool
			for _, px := range proxies {
				px.setRule(func(f protocol.Frame) fault {
					if f.Kind == protocol.FrameEstimate && !f.Response() && held.CompareAndSwap(false, true) {
						return hold
					}
					return pass
				})
			}

			begin := make(chan struct{})
			errs := make([]error, len(changes))
			var wg sync.WaitGroup
			for i, change := range changes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-begin
					errs[i] = change()
				}()
			}
			close(begin)
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}

			smap := coord.ShardMapSnapshot()
			var registered []string
			for _, info := range coord.ShardInfos() {
				registered = append(registered, info.Addr)
			}
			if smap.Version() != 3 || !slices.Equal(smap.Shards(), wantShards) || !slices.Equal(registered, wantShards) {
				t.Fatalf("map v%d %v, registered %v; want v3 %v", smap.Version(), smap.Shards(), registered, wantShards)
			}
			m, err := coord.MergedEstimateMode(ctx, MergeFull)
			if err != nil {
				t.Fatal(err)
			}
			if m.Degraded || !samePoints(m.Window, snap) || !samePoints(m.Outliers, want) {
				t.Fatalf("degraded=%v, %d-point window (want %d), outliers %s (want %s)",
					m.Degraded, len(m.Window), len(snap), ids(m.Outliers), ids(want))
			}
		})
	}
}

// wholeMerge flushes the shards and the reference, then checks that the
// full merge's window and answer are the reference's.
func wholeMerge(t *testing.T, ctx context.Context, coord *Coordinator, single *ingest.Service, shards []*testShard) {
	t.Helper()
	for _, sh := range append(shards, &testShard{svc: single}) {
		if err := sh.svc.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := single.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Compute(clusterDetCfg.Ranker, clusterDetCfg.N, snap)
	m, err := coord.MergedEstimateMode(ctx, MergeFull)
	if err != nil || !samePoints(m.Window, snap) || !samePoints(m.Outliers, want) {
		t.Fatalf("merge over %d of %d shards: %d-point window (want %d), outliers %s (want %s) (%v)",
			m.ShardsOK, m.ShardsTotal, len(m.Window), len(snap), ids(m.Outliers), ids(want), err)
	}
}

// ownPoints counts the points in pts that sensor originated.
func ownPoints(pts []core.Point, sensor core.NodeID) (n int) {
	for _, p := range pts {
		if p.ID.Origin == sensor {
			n++
		}
	}
	return n
}

// TestReadingDuringMembershipChange: at Replicas 1, a reading of a
// sensor whose window a change is copying must not be lost. The proxy
// of the shard the window is copied from holds its answer to the copy's
// ESTIMATE while one reading of that sensor is routed. The new map is
// installed before the copy, so the reading goes to the sensor's new
// owner, which then holds the copied window and the reading; routed by
// the old map, it would land on the shard that the change evicts the
// sensor from (add) or drops (removal).
func TestReadingDuringMembershipChange(t *testing.T) {
	for _, remove := range []bool{false, true} {
		name := "add"
		if remove {
			name = "remove"
		}
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			coord, single, shards, proxies := mergeCluster(t, 1)
			sensors := sensorRange(12)
			feedBoth(t, ctx, coord, single, shards, trace(71, sensors, 5))

			// moved leaves the shard behind source.
			v1 := coord.ShardMapSnapshot()
			backend := make(map[string]*testShard)
			for i, px := range proxies {
				backend[px.addr()] = shards[i]
			}
			var moved core.NodeID
			var from string
			var change func() error
			if remove {
				from = proxies[slices.IndexFunc(proxies, func(px *streamProxy) bool {
					return len(v1.Owned(px.addr(), sensors, 1)) > 0
				})].addr()
				moved = v1.Owned(from, sensors, 1)[0]
				change = func() error { return coord.RemoveShard(from) }
			} else {
				for try := 0; moved == 0; try++ {
					if try == 50 {
						t.Fatal("no added shard gains a sensor")
					}
					sh := startShard(t, "")
					t.Cleanup(sh.stop)
					if gains := v1.WithShard(sh.addr).Owned(sh.addr, sensors, 1); len(gains) > 0 {
						moved, from = gains[0], v1.Owners(gains[0], 1)[0]
						shards, backend[sh.addr] = append(shards, sh), sh
						change = func() error { return coord.AddShard(sh.addr) }
					}
				}
			}
			source := proxies[slices.IndexFunc(proxies, func(px *streamProxy) bool { return px.addr() == from })]
			asked := false
			held := make(chan struct{})
			source.setRule(func(f protocol.Frame) fault {
				switch {
				case f.Kind != protocol.FrameEstimate:
				case !f.Response():
					sensor, err := protocol.DecodeEstimateRequest(f.Body)
					asked = err == nil && sensor == moved
				case asked:
					asked = false
					close(held)
					return hold
				}
				return pass
			})

			done := make(chan error, 1)
			go func() { done <- change() }()
			select {
			case <-held:
			case <-ctx.Done():
				t.Fatal("the change never read the moving sensor's window")
			}
			r := ingest.Reading{Sensor: moved, At: 5 * time.Minute, Values: []float64{20.7}}
			if err := coord.IngestBatch([]ingest.Reading{r})[0]; err != nil {
				t.Fatal(err)
			}
			if err := single.Ingest(r); err != nil {
				t.Fatal(err)
			}
			source.mu.Lock()
			source.openLocked()
			source.mu.Unlock()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			wholeMerge(t, ctx, coord, single, shards)
			snap, err := single.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			owner := backend[coord.ShardMapSnapshot().Owners(moved, 1)[0]]
			if held, err := owner.svc.HoldingsOf(ctx, moved); err != nil || ownPoints(held, moved) != ownPoints(snap, moved) {
				t.Fatalf("sensor %d's new owner holds %d of its %d points (%v)", moved, ownPoints(held, moved), ownPoints(snap, moved), err)
			}
		})
	}
}

// TestRejoinedOwnerTakesBackItsSensors: while a shard is down, its
// sensors' readings go to the shards that own them in the map without
// it. When it is back up, it gets their windows, and those shards evict
// the sensors: a detector left behind would stop its clock and serve
// its points after they leave the window. A window after the rejoin the
// merged window is the reference's. Rounds are fed one at a time, so
// every batch a detector observes is one reading.
func TestRejoinedOwnerTakesBackItsSensors(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
			defer cancel()
			var shards []*testShard
			var addrs []string
			for range 3 {
				sh := startShard(t, "")
				t.Cleanup(sh.stop)
				shards = append(shards, sh)
				addrs = append(addrs, sh.addr)
			}
			coord, step := steppedCoordinator(t, Config{
				Detector:     clusterDetCfg,
				Shards:       addrs,
				Replicas:     replicas,
				QueryTimeout: 2 * time.Second,
				HealthMisses: 2,
			})
			single, err := ingest.New(ingest.Config{Detector: clusterDetCfg, AutoJoin: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { single.Close() })

			sensors := sensorRange(8)
			rs := trace(uint64(73+replicas), sensors, 19)
			feed := func(from, to int, live []*testShard) {
				for i := from; i < to; i++ {
					feedBoth(t, ctx, coord, single, live, rs[i*len(sensors):(i+1)*len(sensors)])
				}
			}
			smap := coord.ShardMapSnapshot()
			v := slices.IndexFunc(shards, func(sh *testShard) bool { return len(smap.Owned(sh.addr, sensors, replicas)) > 0 })
			victim := shards[v]
			live := slices.Delete(slices.Clone(shards), v, v+1)

			feed(0, 4, shards)
			victim.stop()
			step()
			step()
			if up, _ := shardUp(t, coord, victim.addr); up {
				t.Fatal("shard not marked down after two missed probes")
			}
			feed(4, 8, live)
			reborn := startShard(t, victim.addr)
			t.Cleanup(reborn.stop)
			step()
			if up, synced := shardUp(t, coord, reborn.addr); !up || !synced {
				t.Fatalf("rejoined shard up=%v synced=%v after one answered probe", up, synced)
			}
			live = append(live, reborn)
			feed(8, 19, live) // past round 17 the outage's rounds have left the window
			wholeMerge(t, ctx, coord, single, live)
		})
	}
}

// TestShardRestartedBetweenProbesIsRefilled: at Replicas 2, a shard that
// restarts empty on its address before any probe misses it is behind
// the map's epoch at its next probe, which copies its windows back from
// their other owners. So when a second shard fails after that, every
// point still has a live copy and the merge stays exact.
func TestShardRestartedBetweenProbesIsRefilled(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var shards []*testShard
	var addrs []string
	for range 3 {
		sh := startShard(t, "")
		t.Cleanup(sh.stop)
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
	t.Cleanup(func() { single.Close() })
	sensors := sensorRange(12)
	feedBoth(t, ctx, coord, single, shards, trace(83, sensors, 5))
	snap, err := single.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}

	shards[0].stop()
	reborn := startShard(t, shards[0].addr)
	t.Cleanup(reborn.stop)
	step()
	for _, sensor := range coord.ShardMapSnapshot().Owned(reborn.addr, sensors, 2) {
		held, err := reborn.svc.HoldingsOf(ctx, sensor)
		if err != nil || ownPoints(held, sensor) != ownPoints(snap, sensor) {
			t.Fatalf("restarted shard holds %d of sensor %d's %d points after one probe (%v)",
				ownPoints(held, sensor), sensor, ownPoints(snap, sensor), err)
		}
	}

	shards[1].stop()
	step()
	step()
	if up, _ := shardUp(t, coord, shards[1].addr); up {
		t.Fatal("shard not marked down after two missed probes")
	}
	wholeMerge(t, ctx, coord, single, []*testShard{reborn, shards[2]})
}

// TestRestartedCoordinatorStartsAboveShardEpochs: a shard ignores an
// ASSIGN at or below the epoch it holds, so a coordinator must never
// send one. Restarted after two membership changes, it starts above the
// epoch its shards hold; a shard that reports a higher epoch later (as
// one down at its start would) moves the map above that one. Either way
// every shard adopts the map, an add after the restart is adopted too,
// and the merge stays exact as the window slides on.
func TestRestartedCoordinatorStartsAboveShardEpochs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	var shards []*testShard
	var addrs []string
	for range 5 {
		sh := startShard(t, "")
		t.Cleanup(sh.stop)
		shards = append(shards, sh)
		addrs = append(addrs, sh.addr)
	}
	cfg := Config{
		Detector:     clusterDetCfg,
		Shards:       addrs[:3],
		Replicas:     1,
		QueryTimeout: 5 * time.Second,
		HealthMisses: 2,
	}
	first, _ := steppedCoordinator(t, cfg)
	single, err := ingest.New(ingest.Config{Detector: clusterDetCfg, AutoJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	sensors := sensorRange(8)
	rs := trace(97, sensors, 25)
	round := func(coord *Coordinator, i int, live []*testShard) {
		feedBoth(t, ctx, coord, single, live, rs[i*len(sensors):(i+1)*len(sensors)])
	}
	for i := range 4 {
		round(first, i, shards[:3])
	}
	if err := first.AddShard(addrs[3]); err != nil {
		t.Fatal(err)
	}
	if err := first.RemoveShard(addrs[0]); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	live := shards[1:4]

	// adopted checks that every registered shard is up and holds the
	// map's epoch, and that the epoch is above floor.
	adopted := func(coord *Coordinator, floor uint64) {
		t.Helper()
		version := coord.ShardMapSnapshot().Version()
		for _, info := range coord.ShardInfos() {
			if !info.Up || !info.Synced || info.MapVersion != version || version <= floor {
				t.Fatalf("map at epoch %d (want above %d): shard %s up=%v synced=%v at epoch %d",
					version, floor, info.Addr, info.Up, info.Synced, info.MapVersion)
			}
		}
	}
	cfg.Shards = addrs[1:4]
	second, step := steppedCoordinator(t, cfg)
	for range 5 {
		step()
	}
	adopted(second, 3)

	client := newCtlClient()
	defer client.close()
	if _, err := client.assign(ctx, addrs[1], protocol.AssignBody{MapVersion: 9, ShardCount: 1}); err != nil {
		t.Fatal(err)
	}
	step()
	adopted(second, 9)

	if err := second.AddShard(addrs[4]); err != nil {
		t.Fatal(err)
	}
	adopted(second, 10)
	live = append(live, shards[4])
	for i := 4; i < 25; i++ {
		round(second, i, live)
	}
	wholeMerge(t, ctx, second, single, live)
}
