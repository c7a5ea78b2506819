package cluster

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"innet/internal/baseline"
	"innet/internal/core"
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
