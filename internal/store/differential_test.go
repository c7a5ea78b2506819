package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"innet/internal/core"
)

// The differential property the package doc pins: for any operation
// sequence, Mem (the reference) and File load identical State — at every
// checkpoint, and again after File is closed and reopened (Mem, being
// the same process, stands in for the never-restarted reference).
func TestDifferentialStoreOps(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			mem := NewMem()
			file := openFile(t, dir, rng.Intn(2) == 0)
			defer func() { file.Close() }()

			both := func(op func(s Store) error) {
				t.Helper()
				if err := op(mem); err != nil {
					t.Fatalf("mem op: %v", err)
				}
				if err := op(file); err != nil {
					t.Fatalf("file op: %v", err)
				}
			}
			check := func(step int) {
				t.Helper()
				ms, fs := mustLoad(t, mem), mustLoad(t, file)
				if !reflect.DeepEqual(ms, fs) {
					t.Fatalf("step %d: states diverge\nmem:  %+v\nfile: %+v", step, ms, fs)
				}
			}

			nextSeq := map[core.NodeID]uint32{}
			var appended []Record
			randRecs := func() []Record {
				n := 1 + rng.Intn(5)
				out := make([]Record, n)
				for i := range out {
					sensor := core.NodeID(1 + rng.Intn(4))
					out[i] = Record{
						Sensor: sensor,
						Seq:    nextSeq[sensor],
						Birth:  time.Duration(rng.Intn(100_000)) * time.Millisecond,
						Values: []float64{rng.NormFloat64(), rng.NormFloat64()},
					}
					nextSeq[sensor]++
				}
				appended = append(appended, out...)
				return out
			}

			for step := 0; step < 60; step++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4: // append readings, the hot path
					recs := randRecs()
					both(func(s Store) error { return s.AppendReadings(recs) })
				case 5, 6: // re-append an earlier record, as a warm replay that crashed before compacting does
					if len(appended) == 0 {
						break
					}
					recs := []Record{appended[rng.Intn(len(appended))]}
					both(func(s Store) error { return s.AppendReadings(recs) })
				case 7: // compact down to the current state (as the service does)
					st := mustLoad(t, mem)
					both(func(s Store) error { return s.Compact(st.Records, nil) })
				case 8: // close/reopen the file store mid-sequence
					if err := file.Close(); err != nil {
						t.Fatalf("step %d: close: %v", step, err)
					}
					file = openFile(t, dir, rng.Intn(2) == 0)
				case 9:
					both(func(s Store) error { return s.Sync() })
				}
				if step%7 == 0 {
					check(step)
				}
			}
			check(60)

			// Final close/reopen: the state must survive verbatim.
			if err := file.Close(); err != nil {
				t.Fatalf("final close: %v", err)
			}
			file = openFile(t, dir, false)
			check(61)
		})
	}
}
