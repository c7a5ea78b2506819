package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"innet/internal/core"
)

// On-disk layout inside the data directory:
//
//	wal.log       append-only CRC-framed record log
//	snapshot.dat  last Compact's full state, rewritten atomically
//
// WAL frame (multi-byte integers big-endian):
//
//	frame    := length:uint32  body  crc:uint32
//	body     := kind:uint8 payload            (length = len(body))
//	reading  := kind=1 sensor:uint16 seq:uint32 birthNs:int64
//	            dim:uint8 value:float64*dim
//	identity := kind=2 sensor:uint16 nextSeq:uint32 latestNs:int64
//
// Identity frames are retired: nothing writes one, and replay reads one
// (a data directory written before point identity was derived from the
// reading) and drops it. Stopping there instead would truncate every
// reading appended after it.
//
// The CRC (IEEE, over the body) makes a torn or bit-rotten tail
// detectable: replay stops at the first frame whose length is impossible
// or whose CRC disagrees, truncates the file there, and resumes
// appending from that offset — the longest valid prefix wins.
//
// The snapshot file is one frame of kind=3 whose payload is
// recordCount:uint32 reading-payload* identCount:uint32
// identity-payload*, preceded by a 8-byte magic. Compact writes an empty
// identity section (so an older build still opens the directory), and
// Load reads a nonempty one and drops it. It is written to a
// temp file, fsynced, and renamed into place, so a crash mid-Compact
// leaves either the old snapshot or the new one, never a torn mix; the
// WAL truncation that follows the rename may be lost to a crash, in
// which case replay re-applies a WAL suffix that duplicates snapshot
// contents — harmless, because records carry their identities and
// finishState dedups.

const (
	walName      = "wal.log"
	snapName     = "snapshot.dat"
	snapTempName = "snapshot.tmp"

	kindReading  = 1
	kindIdentity = 2

	frameOverhead = 4 + 4 // length + crc
	// maxFrameBody rejects absurd lengths fast during replay: the
	// largest legal body is a reading at the wire format's 255-feature
	// cap, far under this.
	maxFrameBody = 1 << 16
)

var snapMagic = [8]byte{'I', 'N', 'S', 'N', 'A', 'P', '0', '1'}

// walRecordSize returns the framed size of a reading with the given
// feature dimension.
func walRecordSize(dim int) int { return frameOverhead + 1 + 2 + 4 + 8 + 1 + 8*dim }

// identityBodySize is the body size of a retired identity frame.
const identityBodySize = 1 + 2 + 4 + 8

// Config parameterizes a file store.
type Config struct {
	// Dir is the data directory; created if missing. Required.
	Dir string
	// Fsync, when set, fsyncs the WAL after every append batch. Off,
	// appends are flushed to the OS on every call but reach the platters
	// only at Compact/Sync/Close — a crash of the whole machine can then
	// lose the unsynced suffix, a crash of the process alone cannot.
	Fsync bool
}

// File is the persistent Store: an append-only WAL plus a snapshot file.
type File struct {
	cfg Config

	mu      sync.Mutex
	wal     *os.File
	w       *bufio.Writer
	closed  bool
	metrics Metrics
	timing  func(op string, d time.Duration)
}

// SetTiming installs a duration observer for the store's durability
// operations: op is "append" (WAL write+flush), "fsync" (any fsync —
// WAL, snapshot file, or directory), or "compact" (a whole snapshot
// rewrite). The daemons route these into latency histograms; a nil fn
// clears the hook. Not part of the Store interface so wrapper stores in
// tests stay source-compatible.
func (f *File) SetTiming(fn func(op string, d time.Duration)) {
	f.mu.Lock()
	f.timing = fn
	f.mu.Unlock()
}

// observe times one op; every call site holds f.mu, which also guards
// the timing field.
func (f *File) observe(op string, start time.Time) {
	if f.timing != nil {
		f.timing(op, time.Since(start))
	}
}

// Open creates or recovers a file store in cfg.Dir. The WAL's torn tail,
// if any, is truncated immediately so subsequent appends extend the
// longest valid prefix.
func Open(cfg Config) (*File, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f := &File{cfg: cfg}
	path := filepath.Join(cfg.Dir, walName)
	wal, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	valid, _, err := scanWAL(wal)
	if err != nil {
		wal.Close()
		return nil, err
	}
	size, err := wal.Seek(0, io.SeekEnd)
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if valid < size {
		if err := wal.Truncate(valid); err != nil {
			wal.Close()
			return nil, fmt.Errorf("store: truncate torn tail: %w", err)
		}
		f.metrics.Truncated += uint64(size - valid)
		if _, err := wal.Seek(valid, io.SeekStart); err != nil {
			wal.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	f.wal = wal
	f.w = bufio.NewWriterSize(wal, 64*1024)
	return f, nil
}

// Dir returns the store's data directory.
func (f *File) Dir() string { return f.cfg.Dir }

func appendFrame(buf []byte, body []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
}

func appendReadingBody(buf []byte, r Record) []byte {
	buf = append(buf, kindReading)
	buf = binary.BigEndian.AppendUint16(buf, uint16(r.Sensor))
	buf = binary.BigEndian.AppendUint32(buf, r.Seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Birth))
	buf = append(buf, uint8(len(r.Values)))
	for _, v := range r.Values {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

var errBadBody = errors.New("store: bad record body")

func parseReadingBody(body []byte) (Record, error) {
	// body[0] is the kind, already inspected by the caller.
	if len(body) < 1+2+4+8+1 {
		return Record{}, errBadBody
	}
	var r Record
	r.Sensor = core.NodeID(binary.BigEndian.Uint16(body[1:]))
	r.Seq = binary.BigEndian.Uint32(body[3:])
	r.Birth = time.Duration(binary.BigEndian.Uint64(body[7:]))
	dim := int(body[15])
	body = body[16:]
	if len(body) != 8*dim {
		return Record{}, errBadBody
	}
	r.Values = make([]float64, dim)
	for i := range r.Values {
		r.Values[i] = math.Float64frombits(binary.BigEndian.Uint64(body[8*i:]))
	}
	return r, nil
}

// scanWAL replays the log from the start, returning the byte offset of
// the longest valid prefix and the records it carries. A frame with an
// impossible length, a short tail, a CRC mismatch, or an unparseable body
// ends the scan — everything at and after it is torn. A well-formed
// retired identity frame is skipped.
func scanWAL(r io.ReadSeeker) (valid int64, recs []Record, err error) {
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return 0, nil, fmt.Errorf("store: %w", err)
	}
	br := bufio.NewReaderSize(r, 64*1024)
	var header [4]byte
	for {
		if _, err := io.ReadFull(br, header[:]); err != nil {
			return valid, recs, nil // clean EOF or torn length
		}
		n := binary.BigEndian.Uint32(header[:])
		if n == 0 || n > maxFrameBody {
			return valid, recs, nil
		}
		body := make([]byte, n+4)
		if _, err := io.ReadFull(br, body); err != nil {
			return valid, recs, nil
		}
		crc := binary.BigEndian.Uint32(body[n:])
		body = body[:n]
		if crc32.ChecksumIEEE(body) != crc {
			return valid, recs, nil
		}
		switch body[0] {
		case kindReading:
			rec, err := parseReadingBody(body)
			if err != nil {
				return valid, recs, nil
			}
			recs = append(recs, rec)
		case kindIdentity:
			if len(body) != identityBodySize {
				return valid, recs, nil
			}
		default:
			return valid, recs, nil
		}
		valid += int64(len(header)) + int64(n) + 4
	}
}

// append writes framed bodies and applies the fsync policy.
func (f *File) append(frames []byte, n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errors.New("store: closed")
	}
	start := time.Now()
	if _, err := f.w.Write(frames); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	// Flush to the OS on every call: a process crash then loses nothing,
	// only a machine crash can eat the un-fsynced suffix.
	if err := f.w.Flush(); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	f.observe("append", start)
	f.metrics.WALBytes += uint64(len(frames))
	f.metrics.WALRecords += uint64(n)
	if f.cfg.Fsync {
		syncStart := time.Now()
		if err := f.wal.Sync(); err != nil {
			return fmt.Errorf("store: fsync: %w", err)
		}
		f.observe("fsync", syncStart)
		f.metrics.Fsyncs++
	}
	return nil
}

// AppendReadings implements Store.
func (f *File) AppendReadings(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	var frames []byte
	for _, r := range recs {
		if len(r.Values) > 255 {
			return fmt.Errorf("store: %d features exceeds the record format", len(r.Values))
		}
		frames = appendFrame(frames, appendReadingBody(nil, r))
	}
	return f.append(frames, len(recs))
}

// Compact implements Store: write the snapshot to a temp file, fsync,
// rename over the old one, then truncate the WAL.
func (f *File) Compact(recs []Record, _ []Identity) error {
	buf, err := encodeSnapshot(recs)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errors.New("store: closed")
	}
	compactStart := time.Now()
	tmp := filepath.Join(f.cfg.Dir, snapTempName)
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	syncStart := time.Now()
	if err := syncFile(tmp); err != nil {
		return err
	}
	f.observe("fsync", syncStart)
	f.metrics.Fsyncs++
	if err := os.Rename(tmp, filepath.Join(f.cfg.Dir, snapName)); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	syncStart = time.Now()
	if err := syncDir(f.cfg.Dir); err != nil {
		return err
	}
	f.observe("fsync", syncStart)
	f.metrics.Fsyncs++
	// The snapshot now covers everything: drop the log.
	f.w.Reset(f.wal)
	if err := f.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	if _, err := f.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	syncStart = time.Now()
	if err := f.wal.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	f.observe("fsync", syncStart)
	f.metrics.Fsyncs++
	f.metrics.Compacts++
	f.observe("compact", compactStart)
	return nil
}

// encodeSnapshot lays out snapshot.dat's bytes for the given records,
// with an empty identity section.
func encodeSnapshot(recs []Record) ([]byte, error) {
	body := make([]byte, 0, 64+len(recs)*32)
	body = binary.BigEndian.AppendUint32(body, uint32(len(recs)))
	for _, r := range recs {
		if len(r.Values) > 255 {
			return nil, fmt.Errorf("store: %d features exceeds the record format", len(r.Values))
		}
		body = appendReadingBody(body, r)
	}
	body = binary.BigEndian.AppendUint32(body, 0)
	return appendFrame(append([]byte{}, snapMagic[:]...), body), nil
}

func syncFile(path string) error {
	fd, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer fd.Close()
	if err := fd.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %w", path, err)
	}
	return nil
}

func syncDir(dir string) error {
	fd, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer fd.Close()
	if err := fd.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %w", dir, err)
	}
	return nil
}

// loadSnapshot parses snapshot.dat. A missing file is an empty state; a
// file that exists but fails its CRC or framing is dropped (the WAL
// suffix is still replayed) and reported as corrupt — a half-written
// temp never gets renamed, so corruption here means the disk, not a
// crash, damaged the file, and the caller counts it so operators can
// tell it apart from a fresh start. A retired identity section is read
// and dropped.
func (f *File) loadSnapshot() (recs []Record, corrupt bool) {
	buf, err := os.ReadFile(filepath.Join(f.cfg.Dir, snapName))
	if err != nil {
		return nil, !os.IsNotExist(err)
	}
	if len(buf) < len(snapMagic)+frameOverhead {
		return nil, true
	}
	if [8]byte(buf[:8]) != snapMagic {
		return nil, true
	}
	buf = buf[8:]
	n := binary.BigEndian.Uint32(buf)
	if int(n)+frameOverhead != len(buf) {
		return nil, true
	}
	body := buf[4 : 4+n]
	if len(body) < 4 || crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(buf[4+n:]) {
		return nil, true
	}
	count := binary.BigEndian.Uint32(body)
	body = body[4:]
	for i := uint32(0); i < count; i++ {
		if len(body) < 16 || body[0] != kindReading {
			return nil, true
		}
		size := 16 + 8*int(body[15])
		if len(body) < size {
			return nil, true
		}
		rec, err := parseReadingBody(body[:size])
		if err != nil {
			return nil, true
		}
		recs = append(recs, rec)
		body = body[size:]
	}
	if len(body) < 4 {
		return nil, true
	}
	count = binary.BigEndian.Uint32(body)
	body = body[4:]
	for i := uint32(0); i < count; i++ {
		if len(body) < identityBodySize || body[0] != kindIdentity {
			return nil, true
		}
		body = body[identityBodySize:]
	}
	if len(body) != 0 {
		return nil, true
	}
	return recs, false
}

// Load implements Store: snapshot first, then the WAL suffix.
func (f *File) Load() (State, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return State{}, errors.New("store: closed")
	}
	if err := f.w.Flush(); err != nil {
		return State{}, fmt.Errorf("store: %w", err)
	}
	pos, err := f.wal.Seek(0, io.SeekCurrent)
	if err != nil {
		return State{}, fmt.Errorf("store: %w", err)
	}
	_, walRecs, err := scanWAL(f.wal)
	if err != nil {
		return State{}, err
	}
	if _, err := f.wal.Seek(pos, io.SeekStart); err != nil {
		return State{}, fmt.Errorf("store: %w", err)
	}
	recs, corrupt := f.loadSnapshot()
	if corrupt {
		f.metrics.SnapCorrupt++
	}
	return finishState(append(recs, walRecs...)), nil
}

// Sync implements Store.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	if err := f.w.Flush(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := f.wal.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	f.metrics.Fsyncs++
	return nil
}

// Metrics implements Store.
func (f *File) Metrics() Metrics {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.metrics
}

// Close implements Store: flush, fsync, release. Idempotent.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	err := f.w.Flush()
	if serr := f.wal.Sync(); err == nil {
		err = serr
		f.metrics.Fsyncs++
	}
	if cerr := f.wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}
