package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"innet/internal/core"
)

func rec(sensor uint16, seq uint32, birthMS int64, values ...float64) Record {
	return Record{
		Sensor: core.NodeID(sensor),
		Seq:    seq,
		Birth:  time.Duration(birthMS) * time.Millisecond,
		Values: values,
	}
}

func mustLoad(t *testing.T, s Store) State {
	t.Helper()
	st, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return st
}

func openFile(t *testing.T, dir string, fsync bool) *File {
	t.Helper()
	f, err := Open(Config{Dir: dir, Fsync: fsync})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return f
}

// Both implementations: append → Load returns the records in append
// order.
func TestRoundtrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(t *testing.T) Store
	}{
		{"mem", func(t *testing.T) Store { return NewMem() }},
		{"file", func(t *testing.T) Store { return openFile(t, t.TempDir(), false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.mk(t)
			defer s.Close()
			recs := []Record{
				rec(1, 0, 1000, 1.5),
				rec(2, 0, 2000, -3, 4),
				rec(1, 1, 3000, 2.5),
			}
			if err := s.AppendReadings(recs); err != nil {
				t.Fatalf("AppendReadings: %v", err)
			}
			st := mustLoad(t, s)
			if !reflect.DeepEqual(st.Records, recs) {
				t.Errorf("Records = %+v, want %+v", st.Records, recs)
			}
		})
	}
}

// A data directory written before point identity was derived from the
// reading holds identity floors: kind-2 WAL frames between readings and a
// nonempty snapshot identity section. Load reads past both and keeps
// every reading; treating a floor as a torn tail would truncate the WAL
// there and lose every reading appended after it. The directory the
// store then compacts carries an empty identity section.
func TestLoadsParentFormatDir(t *testing.T) {
	dir := t.TempDir()
	snapRecs := []Record{rec(1, 0, 1000, 1), rec(2, 0, 1500, 2)}
	snap := legacySnapshot(snapRecs, identityBody(1, 1, time.Second), identityBody(2, 1, 1500*time.Millisecond))
	if err := os.WriteFile(filepath.Join(dir, snapName), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	var wal []byte
	walRecs := []Record{rec(1, 1, 2000, 3), rec(2, 1, 2500, 4), rec(1, 2, 3000, 5)}
	for i, r := range walRecs {
		wal = appendFrame(wal, identityBody(uint16(r.Sensor), r.Seq+1, r.Birth))
		wal = appendFrame(wal, appendReadingBody(nil, r))
		if i == 1 {
			wal = appendFrame(wal, identityBody(7, 42, time.Minute))
		}
	}
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	f := openFile(t, dir, false)
	defer f.Close()
	m := f.Metrics()
	if m.Truncated != 0 || m.SnapCorrupt != 0 {
		t.Fatalf("parent-format dir read as damaged: %+v", m)
	}
	want := append(slices.Clone(snapRecs), walRecs...)
	st := mustLoad(t, f)
	if !reflect.DeepEqual(st.Records, want) {
		t.Fatalf("Records = %+v, want %+v", st.Records, want)
	}
	if err := f.Compact(st.Records, nil); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, legacySnapshot(want)) {
		t.Errorf("compacted snapshot is not the parent layout with an empty identity section")
	}
}

// Duplicate (sensor, seq) records — a warm replay that crashed before
// compacting — collapse to their first occurrence.
func TestLoadDedupsReplayedRecords(t *testing.T) {
	s := NewMem()
	s.AppendReadings([]Record{rec(1, 0, 1000, 5)})
	s.AppendReadings([]Record{rec(1, 0, 1000, 5), rec(1, 1, 2000, 6)})
	st := mustLoad(t, s)
	want := []Record{rec(1, 0, 1000, 5), rec(1, 1, 2000, 6)}
	if !reflect.DeepEqual(st.Records, want) {
		t.Errorf("Records = %+v, want %+v", st.Records, want)
	}
}

// Close/reopen: the file store recovers exactly what was appended, and
// appends after reopen extend the same log.
func TestFileReopen(t *testing.T) {
	dir := t.TempDir()
	f := openFile(t, dir, false)
	f.AppendReadings([]Record{rec(1, 0, 1000, 1), rec(2, 0, 1500, 2)})
	before := mustLoad(t, f)
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	f = openFile(t, dir, false)
	defer f.Close()
	after := mustLoad(t, f)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("reopened state = %+v, want %+v", after, before)
	}
	f.AppendReadings([]Record{rec(1, 1, 2000, 3)})
	st := mustLoad(t, f)
	if len(st.Records) != 3 {
		t.Errorf("after reopen+append: %d records, want 3", len(st.Records))
	}
}

// Compact replaces the state and empties the WAL; a subsequent reopen
// loads snapshot + nothing.
func TestFileCompact(t *testing.T) {
	dir := t.TempDir()
	f := openFile(t, dir, false)
	f.AppendReadings([]Record{rec(1, 0, 1000, 1), rec(1, 1, 2000, 2), rec(2, 0, 1000, 9)})
	keep := []Record{rec(1, 1, 2000, 2), rec(2, 0, 1000, 9)}
	if err := f.Compact(keep, nil); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() != 0 {
		t.Errorf("wal.log size = %v (err %v), want 0", fi.Size(), err)
	}
	st := mustLoad(t, f)
	if !reflect.DeepEqual(st.Records, keep) {
		t.Errorf("Records = %+v, want %+v", st.Records, keep)
	}
	f.Close()

	f = openFile(t, dir, false)
	defer f.Close()
	st = mustLoad(t, f)
	if !reflect.DeepEqual(st.Records, keep) {
		t.Errorf("reopened Records = %+v, want %+v", st.Records, keep)
	}
}

// Appends after a compact land on top of the snapshot.
func TestFileAppendAfterCompact(t *testing.T) {
	dir := t.TempDir()
	f := openFile(t, dir, false)
	defer f.Close()
	f.AppendReadings([]Record{rec(1, 0, 1000, 1)})
	f.Compact([]Record{rec(1, 0, 1000, 1)}, nil)
	f.AppendReadings([]Record{rec(1, 1, 2000, 2)})
	st := mustLoad(t, f)
	want := []Record{rec(1, 0, 1000, 1), rec(1, 1, 2000, 2)}
	if !reflect.DeepEqual(st.Records, want) {
		t.Errorf("Records = %+v, want %+v", st.Records, want)
	}
}

// The fsync policy is observable: Fsync on syncs every append batch.
func TestFileFsyncMetrics(t *testing.T) {
	f := openFile(t, t.TempDir(), true)
	defer f.Close()
	f.AppendReadings([]Record{rec(1, 0, 1000, 1)})
	f.AppendReadings([]Record{rec(1, 1, 2000, 2)})
	if got := f.Metrics().Fsyncs; got < 2 {
		t.Errorf("Fsyncs = %d, want ≥ 2 with Fsync on", got)
	}

	g := openFile(t, t.TempDir(), false)
	defer g.Close()
	g.AppendReadings([]Record{rec(1, 0, 1000, 1)})
	if got := g.Metrics().Fsyncs; got != 0 {
		t.Errorf("Fsyncs = %d, want 0 with Fsync off", got)
	}
}

// WAL byte/record counters track appends.
func TestMetricsCounters(t *testing.T) {
	f := openFile(t, t.TempDir(), false)
	defer f.Close()
	f.AppendReadings([]Record{rec(1, 0, 1000, 1, 2, 3)})
	f.AppendReadings([]Record{rec(1, 1, 2000, 4)})
	m := f.Metrics()
	if m.WALRecords != 2 {
		t.Errorf("WALRecords = %d, want 2", m.WALRecords)
	}
	wantBytes := uint64(walRecordSize(3) + walRecordSize(1))
	if m.WALBytes != wantBytes {
		t.Errorf("WALBytes = %d, want %d", m.WALBytes, wantBytes)
	}
	fi, err := os.Stat(filepath.Join(f.Dir(), "wal.log"))
	if err != nil || uint64(fi.Size()) != wantBytes {
		t.Errorf("wal.log size = %v (err %v), want %d", fi.Size(), err, wantBytes)
	}
}
