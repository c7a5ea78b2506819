package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"innet/internal/core"
)

// buildWALBytes frames the given records the way AppendReadings does,
// without touching disk — seed material for the fuzzer.
func buildWALBytes(recs []Record, ids []Identity) []byte {
	var out []byte
	for _, r := range recs {
		out = appendFrame(out, appendReadingBody(nil, r))
	}
	for _, id := range ids {
		out = appendFrame(out, appendIdentityBody(nil, id))
	}
	return out
}

// FuzzWALReplay throws arbitrary bytes at the WAL recovery path and
// checks the invariants torn-tail truncation promises: Open never
// errors on corrupt data, Load's identity floors cover every recovered
// record, the store accepts appends afterwards, and a close/reopen
// round-trips the recovered state exactly.
func FuzzWALReplay(f *testing.F) {
	valid := buildWALBytes(
		[]Record{rec(1, 0, 1000, 1.5), rec(2, 0, 1500, -3, 4), rec(1, 1, 2000, 2.5)},
		[]Identity{{Sensor: 7, NextSeq: 42, Latest: time.Minute}},
	)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0xff // CRC break in the first frame
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // absurd length
	f.Add(buildWALBytes(nil, []Identity{{Sensor: 1, NextSeq: 1, Latest: 1}})[:walIdentitySize-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("Open on arbitrary bytes: %v", err)
		}
		st, err := g.Load()
		if err != nil {
			t.Fatalf("Load after recovery: %v", err)
		}
		floors := make(map[core.NodeID]Identity, len(st.Identities))
		for i, id := range st.Identities {
			if i > 0 && st.Identities[i-1].Sensor >= id.Sensor {
				t.Fatalf("identities not strictly sorted: %+v", st.Identities)
			}
			floors[core.NodeID(id.Sensor)] = id
		}
		seen := map[[2]uint64]bool{}
		for _, r := range st.Records {
			key := [2]uint64{uint64(r.Sensor), uint64(r.Seq)}
			if seen[key] {
				t.Fatalf("duplicate record %d#%d survived recovery", r.Sensor, r.Seq)
			}
			seen[key] = true
			fl, ok := floors[core.NodeID(r.Sensor)]
			if !ok || fl.NextSeq <= r.Seq || fl.Latest < r.Birth {
				t.Fatalf("identity floor %+v does not cover record %+v", fl, r)
			}
		}

		// Recovery must leave a writable store whose state round-trips.
		if err := g.AppendReadings([]Record{rec(999, 0, 5000, 1)}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		after, err := g.Load()
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		h, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer h.Close()
		if h.Metrics().Truncated != 0 {
			t.Fatal("second open still found a torn tail")
		}
		reloaded, err := h.Load()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after, reloaded) {
			t.Fatalf("state did not survive reopen:\nbefore: %+v\nafter:  %+v", after, reloaded)
		}
	})
}

// FuzzSnapshotLoad throws arbitrary snapshot.dat bytes at recovery,
// beside a WAL that repeats the seed snapshot's records (a crash between
// Compact's rename and its WAL truncate). With framed set the bytes are
// wrapped in the magic and a valid frame, so the fuzzer reaches the body
// parser past the CRC. Open and Load never error; a snapshot Load does
// not count in Metrics.SnapCorrupt must re-encode to exactly its bytes,
// and one it counts must leave the WAL's state alone; close and reopen
// return the same State.
func FuzzSnapshotLoad(f *testing.F) {
	recs := []Record{rec(1, 0, 1000, 1), rec(1, 1, 2000, 2)}
	good, err := encodeSnapshot(recs, []Identity{{Sensor: 1, NextSeq: 5, Latest: time.Minute}})
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(good, false)
	f.Add(flipped, false)
	f.Add([]byte{}, false)
	f.Add(snapMagic[:], false)
	f.Add(good[len(snapMagic)+4:len(good)-4], true) // the frame body alone
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, true)     // empty state

	wal := buildWALBytes(recs, nil)
	walOnly := func(t testing.TB) []byte {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		st, err := g.Load()
		if err != nil {
			t.Fatal(err)
		}
		return encodeState(t, st)
	}(f)

	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		if framed {
			data = appendFrame(append([]byte(nil), snapMagic[:]...), data)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("Open beside arbitrary snapshot bytes: %v", err)
		}
		st, err := g.Load()
		if err != nil {
			t.Fatalf("Load beside arbitrary snapshot bytes: %v", err)
		}
		loaded := encodeState(t, st)
		switch g.Metrics().SnapCorrupt {
		case 0:
			snapRecs, snapIDs, _ := g.loadSnapshot()
			if enc, err := encodeSnapshot(snapRecs, snapIDs); err != nil || !bytes.Equal(enc, data) {
				t.Fatalf("uncounted snapshot is not canonical (%v):\nin  %x\nout %x", err, data, enc)
			}
		case 1:
			if !bytes.Equal(loaded, walOnly) {
				t.Fatalf("a counted-corrupt snapshot changed the WAL's state")
			}
		default:
			t.Fatalf("SnapCorrupt = %d after one Load", g.Metrics().SnapCorrupt)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		h, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer h.Close()
		if reloaded := encodeState(t, mustLoad(t, h)); !bytes.Equal(loaded, reloaded) {
			t.Fatalf("state did not survive reopen")
		}
	})
}

// encodeState lays a State out as snapshot bytes: a bit-exact comparison
// key, since reflect.DeepEqual calls a NaN feature unequal to itself.
func encodeState(t testing.TB, st State) []byte {
	t.Helper()
	enc, err := encodeSnapshot(st.Records, st.Identities)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}
