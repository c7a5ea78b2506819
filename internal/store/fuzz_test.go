package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// buildWALBytes frames the given records the way AppendReadings does,
// followed by the given retired identity bodies, without touching disk —
// seed material for the fuzzer.
func buildWALBytes(recs []Record, ids ...[]byte) []byte {
	var out []byte
	for _, r := range recs {
		out = appendFrame(out, appendReadingBody(nil, r))
	}
	for _, id := range ids {
		out = appendFrame(out, id)
	}
	return out
}

// identityBody lays out a retired identity floor (kind 2) the way the
// store wrote one before point identity was derived from the reading: a
// WAL frame's body, or one entry of a snapshot's identity section.
func identityBody(sensor uint16, nextSeq uint32, latest time.Duration) []byte {
	body := []byte{kindIdentity}
	body = binary.BigEndian.AppendUint16(body, sensor)
	body = binary.BigEndian.AppendUint32(body, nextSeq)
	return binary.BigEndian.AppendUint64(body, uint64(latest))
}

// legacySnapshot lays out snapshot.dat with an identity section of the
// given bodies, as the store wrote it before the section was retired.
func legacySnapshot(recs []Record, ids ...[]byte) []byte {
	body := binary.BigEndian.AppendUint32(nil, uint32(len(recs)))
	for _, r := range recs {
		body = appendReadingBody(body, r)
	}
	body = binary.BigEndian.AppendUint32(body, uint32(len(ids)))
	for _, id := range ids {
		body = append(body, id...)
	}
	return appendFrame(append([]byte(nil), snapMagic[:]...), body)
}

// FuzzWALReplay throws arbitrary bytes at the WAL recovery path and
// checks the invariants torn-tail truncation promises: Open never
// errors on corrupt data, no (sensor, seq) survives twice, the store
// accepts appends afterwards, and a close/reopen round-trips the
// recovered state exactly.
func FuzzWALReplay(f *testing.F) {
	valid := buildWALBytes(
		[]Record{rec(1, 0, 1000, 1.5), rec(2, 0, 1500, -3, 4), rec(1, 1, 2000, 2.5)},
		identityBody(7, 42, time.Minute),
	)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0xff // CRC break in the first frame
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // absurd length
	f.Add(buildWALBytes(nil, identityBody(1, 1, 1))[:frameOverhead+identityBodySize-1])

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
		seen := map[[2]uint64]bool{}
		for _, r := range st.Records {
			key := [2]uint64{uint64(r.Sensor), uint64(r.Seq)}
			if seen[key] {
				t.Fatalf("duplicate record %d#%d survived recovery", r.Sensor, r.Seq)
			}
			seen[key] = true
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
// but for the retired identity section it drops, and one it counts must
// leave the WAL's state alone; close and reopen return the same State.
func FuzzSnapshotLoad(f *testing.F) {
	recs := []Record{rec(1, 0, 1000, 1), rec(1, 1, 2000, 2)}
	good := legacySnapshot(recs, identityBody(1, 5, time.Minute))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(good, false)
	f.Add(flipped, false)
	f.Add([]byte{}, false)
	f.Add(snapMagic[:], false)
	f.Add(good[len(snapMagic)+4:len(good)-4], true) // the frame body alone
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, true)     // empty state

	wal := buildWALBytes(recs)
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
			// The records re-encode byte for byte; the identity section,
			// which Load drops, is carried over as read.
			snapRecs, _ := g.loadSnapshot()
			enc, err := encodeSnapshot(snapRecs)
			recEnd := len(enc) - 8 // the empty identity count and the CRC
			if err == nil && len(data) >= recEnd+8 {
				body := append(enc[len(snapMagic)+4:recEnd:recEnd], data[recEnd:len(data)-4]...)
				enc = appendFrame(append([]byte(nil), snapMagic[:]...), body)
			}
			if err != nil || !bytes.Equal(enc, data) {
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
	enc, err := encodeSnapshot(st.Records)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}
