package main

import (
	"context"
	"os"
	"time"

	"innet/internal/cluster"
	"innet/internal/core"
	"innet/internal/loadgen"
	"innet/internal/obs"
	"innet/internal/peer"
	"innet/internal/protocol"
	"innet/internal/store"
)

// The traced run ends with each layer replayed alone on the inputs the
// workloads were given, so that a layer's own cost can be taken out of
// the span that contains it (ingest's self time on fleet_round is the
// settle time less the peer replay, and so on down).

// replayBudget bounds the timed part of each replay; every replay also
// has a fixed iteration cap, so the counts it reports do not depend on
// how fast the box is.
const replayBudget = 250 * time.Millisecond

// timeLoop calls fn until n calls or the budget, whichever comes first
// (at least once), and returns the mean time per call and the calls made.
func timeLoop(n int, fn func()) (time.Duration, int) {
	start := time.Now()
	calls := 0
	for calls < n && (calls == 0 || time.Since(start) < replayBudget) {
		fn()
		calls++
	}
	return time.Since(start) / time.Duration(calls), calls
}

// tracePoints returns the first rounds of the scenario's trace as the
// points a coordinator would mint for them: sequence number = round.
func tracePoints(sc *loadgen.Scenario, rounds int) []core.Point {
	trace := loadgen.NewTrace(sc)
	pts := make([]core.Point, 0, rounds*fleetSensors)
	for i := 0; i < rounds*fleetSensors; i++ {
		ev := trace.Next()
		pts = append(pts, core.NewPoint(ev.Sensor, uint32(ev.Step), ev.At, ev.Values...))
	}
	return pts
}

// replayLayers runs every isolated replay and adds its numbers to res.
func replayLayers(res *result, o options) error {
	all := tracePoints(scenarioFor(o), windowRounds+120)
	window, tail := all[:windowRounds*fleetSensors], all[windowRounds*fleetSensors:]
	put := func(name string, v float64, n int) {
		res.Metrics[name] = v
		res.Samples[name] = n
	}
	cfg := detectorConfig()

	// core: one detector holding the whole window, re-ranking per batch.
	for _, c := range []struct {
		name  string
		batch int
	}{{"core.observe_us_per_reading", 1}, {"core.observe_us_per_reading_burst", 8}} {
		perBatch, calls := replayObserve(window, tail, c.batch)
		put(c.name, us(perBatch)/float64(c.batch), calls*c.batch)
	}
	set := core.NewSet(window...)
	d, n := timeLoop(50, func() { core.NewIndex(window) })
	put("core.index_build_us", us(d), n)
	d, n = timeLoop(50, func() { core.TopN(cfg.Ranker, set, cfg.N) })
	put("core.topn_us", us(d), n)
	halves := splitBySensor(window)
	d, n = timeLoop(50, func() { core.NewMergeSource(cfg.Ranker, cfg.N, halves[0]) })
	put("core.merge_source_build_us", us(d), n)
	rounds, moved := mergeStar(cfg, halves)
	put("core.merge_star_rounds", float64(rounds), 1)
	put("core.merge_star_points", float64(moved), 1)
	d, n = timeLoop(200, func() {
		buf, err := core.EncodePoints(halves[0])
		if err == nil {
			_, err = core.DecodePoints(buf)
		}
		if err != nil {
			panic(err) // the points came from the generator; the codec must take them
		}
	})
	put("core.wire_ns_per_point", float64(d)/float64(len(halves[0])), n*len(halves[0]))

	// protocol: body and frame codec at the sizes the cluster workloads
	// carry — 8 readings per shard per round, one shard's window per full
	// query, a handful of candidates per compact round.
	put("protocol.bytes_per_point", float64(core.EncodedPointSize(1)), 1)
	frames := []struct {
		name string
		kind protocol.FrameKind
		pts  []core.Point
	}{
		{"protocol.readings_frame_ns", protocol.FrameReadings, tail[:fleetSensors/2]},
		{"protocol.estimate_frame_ns", protocol.FrameEstimate, halves[0]},
		{"protocol.sufficient_frame_ns", protocol.FrameSufficient, halves[0][:12]},
	}
	for _, f := range frames {
		d, n = timeLoop(2000, func() { frameRoundTrip(f.kind, f.pts) })
		put(f.name, float64(d), n)
	}

	// cluster: the routing decision every reading pays.
	smap := cluster.NewShardMap([]string{"127.0.0.1:9101", "127.0.0.1:9102"})
	sensor := core.NodeID(0)
	d, n = timeLoop(200000, func() {
		sensor = sensor%fleetSensors + 1
		smap.Owners(sensor, 1)
	})
	put("cluster.shardmap_owners_ns", float64(d), n)

	// baseline: what one oracle call costs (never inside a timed section).
	d, n = timeLoop(20, func() { oracle(nil, window) })
	put("baseline.compute_ms", ms(d), n)

	// obs: what the program's own instruments cost on every timed path.
	ring := obs.NewTraceLog(2048)
	d, n = timeLoop(200000, func() { ring.Record(obs.Span{Op: obs.OpObserve, Points: 1}) })
	put("obs.span_record_ns", float64(d), n)
	hist := obs.NewRegistry().Histogram("bench_replay_seconds", "replay", obs.LatencyBuckets())
	d, n = timeLoop(1000000, func() { hist.Observe(0.003) })
	put("obs.histogram_observe_ns", float64(d), n)

	if err := replayPeers(res, window, tail); err != nil {
		return err
	}
	return replayStore(res, o, window)
}

// replayObserve fills one detector with the window in a single batch and
// then times StepObserveBatch over the tail, batch readings at a time.
func replayObserve(window, tail []core.Point, batch int) (time.Duration, int) {
	cfg := detectorConfig()
	cfg.Node = 1
	det, err := core.NewDetector(cfg)
	if err != nil {
		panic(err) // detectorConfig is a constant of the benchmark
	}
	observations := func(pts []core.Point) []core.Observation {
		out := make([]core.Observation, len(pts))
		for i, p := range pts {
			out[i] = core.Observation{Birth: p.Birth, Value: p.Value}
		}
		return out
	}
	det.StepObserveBatch(window[len(window)-1].Birth, observations(window))
	i := 0
	return timeLoop(len(tail)/batch, func() {
		chunk := tail[i : i+batch]
		det.StepObserveBatch(chunk[batch-1].Birth, observations(chunk))
		i += batch
	})
}

// splitBySensor cuts a window into the two shards' halves (low and high
// sensor IDs), each sorted as Set.Points would return it.
func splitBySensor(window []core.Point) [2][]core.Point {
	var sets [2]*core.Set
	sets[0], sets[1] = core.NewSet(), core.NewSet()
	for _, p := range window {
		sets[(int(p.ID.Origin)-1)*2/fleetSensors].Add(p)
	}
	return [2][]core.Point{sets[0].Points(), sets[1].Points()}
}

// mergeStar runs the compact merge's exchange in process — a coordinator
// with an empty dataset against one MergeLink per shard — to quiescence,
// and returns the rounds it took and the points that moved.
func mergeStar(cfg core.Config, halves [2][]core.Point) (rounds, moved int) {
	var links [2]*core.MergeLink
	var ledgers [2]*core.Set
	for i, h := range halves {
		links[i] = core.NewMergeSource(cfg.Ranker, cfg.N, h).NewLink()
		ledgers[i] = core.NewSet()
	}
	cand := core.NewSet()
	for rounds < 16 {
		rounds++
		quiet := true
		var src *core.MergeSource
		if cand.Len() > 0 {
			src = core.NewMergeSource(cfg.Ranker, cfg.N, cand.Points())
		}
		for i, link := range links {
			if src != nil {
				delta := src.Delta(ledgers[i])
				link.Absorb(delta)
				for _, p := range delta {
					ledgers[i].AddMinHop(p)
				}
				moved += len(delta)
				quiet = quiet && len(delta) == 0
			}
			reply := link.Delta()
			for _, p := range reply {
				cand.AddMinHop(p)
				ledgers[i].AddMinHop(p)
			}
			moved += len(reply)
			quiet = quiet && len(reply) == 0
		}
		if quiet {
			break
		}
	}
	return rounds, moved
}

// frameRoundTrip encodes a body of the given kind into a frame and
// decodes it back, as one RPC leg does.
func frameRoundTrip(kind protocol.FrameKind, pts []core.Point) {
	var body []byte
	var err error
	switch kind {
	case protocol.FrameReadings:
		body, err = protocol.ReadingsBody{Points: pts}.Encode()
	case protocol.FrameEstimate:
		body, err = protocol.EstimateBody{FragCount: 1, Points: pts}.Encode()
	case protocol.FrameSufficient:
		body, err = protocol.SufficientBody{Session: 1, FragCount: 1, Points: pts}.Encode()
	}
	if err != nil {
		panic(err) // the points came from the generator; the codec must take them
	}
	f, err := protocol.DecodeFrame(protocol.EncodeFrame(protocol.Frame{Kind: kind, ReqID: 1, Body: body}))
	if err == nil {
		switch kind {
		case protocol.FrameReadings:
			_, err = protocol.DecodeReadings(f.Body)
		case protocol.FrameEstimate:
			_, err = protocol.DecodeEstimate(f.Body)
		case protocol.FrameSufficient:
			_, err = protocol.DecodeSufficient(f.Body)
		}
	}
	if err != nil {
		panic(err)
	}
}

// replayPeers drives the fleet_round stream through 16 peers on a mesh
// with no ingest queues in front: one ObserveBatch per sensor per round,
// all sensors at once as the feeders would, then WaitQuiescent.
func replayPeers(res *result, window, tail []core.Point) error {
	ctx, cancel := context.WithCancel(bg)
	mesh := peer.NewMesh()
	peers := make([]*peer.Peer, fleetSensors)
	done := make(chan struct{}, fleetSensors)
	defer func() {
		cancel()
		for range peers {
			<-done
		}
	}()
	for i := range peers {
		id := core.NodeID(i + 1)
		tr, err := mesh.Attach(id)
		if err != nil {
			return err
		}
		cfg := detectorConfig()
		cfg.Node = id
		if peers[i], err = peer.New(peer.Config{Detector: cfg, Transport: tr}); err != nil {
			return err
		}
		go func(p *peer.Peer) {
			_ = p.Run(ctx) // returns ctx.Err() on cancel
			done <- struct{}{}
		}(peers[i])
	}
	for i := range peers {
		for j := 0; j < i; j++ {
			a, b := core.NodeID(i+1), core.NodeID(j+1)
			if err := mesh.Connect(a, b); err != nil {
				return err
			}
			if err := peers[i].AddNeighbor(ctx, b); err != nil {
				return err
			}
			if err := peers[j].AddNeighbor(ctx, a); err != nil {
				return err
			}
		}
	}
	observe := func(pts []core.Point) error {
		per := make([][]core.Observation, fleetSensors)
		var now time.Duration
		for _, p := range pts {
			per[p.ID.Origin-1] = append(per[p.ID.Origin-1], core.Observation{Birth: p.Birth, Value: p.Value})
			now = max(now, p.Birth)
		}
		errs := make(chan error, fleetSensors)
		for i, batch := range per {
			go func() { errs <- peers[i].ObserveBatch(ctx, now, batch) }()
		}
		var failed error
		for range per {
			if err := <-errs; err != nil && failed == nil {
				failed = err
			}
		}
		if failed != nil {
			return failed
		}
		return mesh.WaitQuiescent(ctx)
	}
	if err := observe(window); err != nil { // fill: one batch per sensor
		return err
	}
	stats := func() (core.Stats, error) {
		var sum core.Stats
		for _, p := range peers {
			st, err := p.Stats(ctx)
			if err != nil {
				return sum, err
			}
			sum.Broadcasts += st.Broadcasts
			sum.PointsReceived += st.PointsReceived
		}
		return sum, nil
	}
	before, err := stats()
	if err != nil {
		return err
	}
	round := 0
	var failed error
	perRound, rounds := timeLoop(len(tail)/fleetSensors, func() {
		if err := observe(tail[round*fleetSensors : (round+1)*fleetSensors]); err != nil && failed == nil {
			failed = err
		}
		round++
	})
	if failed != nil {
		return failed
	}
	after, err := stats()
	if err != nil {
		return err
	}
	readings := float64(rounds * fleetSensors)
	res.Metrics["peer.replay_us_per_reading"] = us(perRound) / fleetSensors
	res.Samples["peer.replay_us_per_reading"] = rounds * fleetSensors
	res.Metrics["peer.broadcasts_per_reading"] = float64(after.Broadcasts-before.Broadcasts) / readings
	res.Metrics["peer.points_received_per_reading"] = float64(after.PointsReceived-before.PointsReceived) / readings
	held := 0
	for _, p := range peers {
		set, err := p.Holdings(ctx)
		if err != nil {
			return err
		}
		held += set.Len()
	}
	res.Metrics["peer.holdings_mean_points"] = float64(held) / fleetSensors
	return nil
}

// replayStore times the WAL alone: appends of 1 and 8 records, then a
// compaction and a load of the full window.
func replayStore(res *result, o options, window []core.Point) error {
	dir, err := walDir(o.out)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	file, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer file.Close()
	recs := make([]store.Record, len(window))
	for i, p := range window {
		recs[i] = store.RecordOf(p)
	}
	var failed error
	note := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	for _, c := range []struct {
		name  string
		batch int
	}{{"store.append_us_per_batch_1", 1}, {"store.append_us_per_batch_8", 8}} {
		i := 0
		d, n := timeLoop(len(recs)/c.batch, func() {
			note(file.AppendReadings(recs[i : i+c.batch]))
			i += c.batch
		})
		res.Metrics[c.name] = us(d)
		res.Samples[c.name] = n
	}
	d, n := timeLoop(5, func() { note(file.Compact(recs, nil)) })
	res.Metrics["store.compact_ms"] = ms(d)
	res.Samples["store.compact_ms"] = n
	d, n = timeLoop(10, func() {
		_, err := file.Load()
		note(err)
	})
	res.Metrics["store.load_ms"] = ms(d)
	res.Samples["store.load_ms"] = n
	return failed
}
