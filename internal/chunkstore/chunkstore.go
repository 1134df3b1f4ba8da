// Package chunkstore is a worker's durable chunk storage engine: the
// on-disk half of the paper's deployment, where chunk data lives in
// files that survive process death (section 5 runs workers over xrootd
// for exactly this reason). A Store keeps one append-only file per
// storage unit — a (table, chunk) pair or a replicated table — as the
// paper's worker keeps each chunk table as one MySQL table filled by
// bulk loads. The file is a run of frames, each one encoded ingest batch
// behind a header carrying its length, the payload's CRC32 and a CRC32
// of the header itself.
//
// An append writes one frame at the unit's committed length and fsyncs
// the file (and the tables directory, when the append created the file)
// before it returns. A replace writes the new frames to a temporary
// file, fsyncs it and renames it over the unit file: the rename is the
// atomic step, so the store keeps no log.
//
// Recovery (Open) verifies every frame of every unit file. Bytes after
// the last intact frame that are shorter than a header, or a header
// whose own checksum holds but whose payload runs past the end, are a
// torn append — never acknowledged — and are truncated away. Anything
// else quarantines the unit (its file is set aside on disk, dropped
// from the recovered inventory) rather than serving it: the cluster's
// repair subsystem re-ships exactly the quarantined chunks from live
// replicas, the recovery-vs-repair split the availability design
// relies on. The header's checksum keeps the two apart: bit rot in a
// length field can never pass for a torn append.
//
// Layout under the store root:
//
//	spec.json            catalog spec (atomic replace)
//	tables/<unit>.qseg   the unit's frames, in application order
//
// where <unit> is "<table>@<chunk>" or "<table>@shared". The layout
// before unit files kept a directory tables/<unit>/ of one-frame
// segment files seg-<seq>.qseg beside a write-ahead log wal.log; Open
// rewrites such a directory once as a unit file.
package chunkstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// logger emits the store's structured events (quarantines, torn
// appends, migrations); quiet by default, QSERV_LOG=info|debug raises
// verbosity.
var logger = telemetry.NewLogger("chunkstore")

// Unit identifies one storage unit: a partitioned table's chunk or a
// replicated table's full row set.
type Unit struct {
	Table  string
	Chunk  int
	Shared bool
}

// String renders the unit's name, its file's name without the suffix.
func (u Unit) String() string {
	if u.Shared {
		return u.Table + "@shared"
	}
	return u.Table + "@" + strconv.Itoa(u.Chunk)
}

// validUnit rejects table names that cannot be file names.
func validUnit(u Unit) error {
	if u.Table == "" {
		return fmt.Errorf("chunkstore: empty table name")
	}
	for _, r := range u.Table {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
		default:
			return fmt.Errorf("chunkstore: table name %q has non-identifier character %q", u.Table, r)
		}
	}
	if !u.Shared && u.Chunk < 0 {
		return fmt.Errorf("chunkstore: negative chunk id %d", u.Chunk)
	}
	return nil
}

// parseUnit inverts Unit.String.
func parseUnit(name string) (Unit, error) {
	table, target, ok := strings.Cut(name, "@")
	if !ok || table == "" || target == "" {
		return Unit{}, fmt.Errorf("chunkstore: bad unit name %q", name)
	}
	u := Unit{Table: table}
	if target == "shared" {
		u.Shared = true
	} else {
		chunk, err := strconv.Atoi(target)
		if err != nil || chunk < 0 {
			return Unit{}, fmt.Errorf("chunkstore: bad unit name %q", name)
		}
		u.Chunk = chunk
	}
	if err := validUnit(u); err != nil {
		return Unit{}, err
	}
	return u, nil
}

// Recovery reports what Open found on disk.
type Recovery struct {
	// Units are the intact units, every frame checksum-verified, sorted
	// by name. Their bytes stay on disk: Segments reads them.
	Units []Unit
	// TornWrites counts the writes a crash cut short, none of them
	// acknowledged: appends truncated off a unit file's tail, and
	// replaces stopped before their rename, whose temporary file went.
	TornWrites int
	// Quarantined lists units set aside for failing verification:
	// corrupt frames, unparseable names. Their data is renamed out of
	// the way, not deleted; the repair subsystem re-ships these chunks
	// from live replicas.
	Quarantined []Unit
}

// Store is one worker's durable chunk store. All methods are safe for
// concurrent use.
type Store struct {
	dir string

	mu     sync.Mutex
	units  map[Unit]int64 // each unit's committed length: the bytes acknowledged mutations wrote
	closed bool
	fsync  func(*os.File) error // (*os.File).Sync; a test fails it

	counters Counters // commit-protocol accounting (atomic fields)
}

// Counters is a store's durability accounting: the telemetry layer
// exports these per worker, and operators watching fsync rates see
// exactly what the commit protocol is paying. Fields are read with
// atomic loads via (*Store).Counters.
type Counters struct {
	WALFsyncs   int64 // fsyncs the commit protocol issued: unit files, and the tables directory
	SegWrites   int64 // frames written (appends + replaces)
	Quarantines int64 // units renamed aside for failing verification
}

// Counters snapshots the store's durability counters.
func (s *Store) Counters() Counters {
	return Counters{
		WALFsyncs:   atomic.LoadInt64(&s.counters.WALFsyncs),
		SegWrites:   atomic.LoadInt64(&s.counters.SegWrites),
		Quarantines: atomic.LoadInt64(&s.counters.Quarantines),
	}
}

const (
	specFile   = "spec.json"
	walFile    = "wal.log" // the older layout's log, which Open only checks is empty
	tablesDir  = "tables"
	unitSuffix = ".qseg"
	segPrefix  = "seg-" // the older layout's segment files: seg-<seq>.qseg
	tmpSuffix  = ".tmp"
	quarantine = ".quarantined"
)

// Frame format: magic, u64 payload length, u32 CRC32-IEEE of the
// payload, u32 CRC32-IEEE of the header bytes before it, payload.
var frameMagic = []byte("QSEGF2")

const frameHead = 6 + 8 + 4 + 4

// A legacy frame — the whole of a segment file of the older layout — is
// magic, u32 CRC32-IEEE of the payload, u64 payload length, payload. Its
// header has no checksum of its own; such frames were written by atomic
// rename, so one is never torn.
var segMagic = []byte("QSEGF1")

const segHead = 6 + 4 + 8

// Open opens (creating if needed) the store rooted at dir, migrates a
// directory of the older layout, verifies every unit file, cuts torn
// appends off, and reports what survived.
func Open(dir string) (*Store, *Recovery, error) {
	if err := os.MkdirAll(filepath.Join(dir, tablesDir), 0o755); err != nil {
		return nil, nil, fmt.Errorf("chunkstore: %w", err)
	}
	if err := checkWAL(filepath.Join(dir, walFile)); err != nil {
		return nil, nil, err
	}
	s := &Store{dir: dir, units: map[Unit]int64{}, fsync: (*os.File).Sync}
	rec := &Recovery{}
	if err := s.migrate(rec); err != nil {
		return nil, nil, err
	}
	if err := s.scan(rec); err != nil {
		return nil, nil, err
	}
	return s, rec, nil
}

// Close marks the store closed: further mutations fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func (s *Store) tablesPath() string { return filepath.Join(s.dir, tablesDir) }
func (s *Store) unitPath(u Unit) string {
	return filepath.Join(s.dir, tablesDir, u.String()+unitSuffix)
}

// ---------- spec ----------

// PutSpec durably stores the catalog spec document (atomic replace),
// making recovery self-contained: a restarted worker can re-declare
// its tables before rebuilding them from its units.
func (s *Store) PutSpec(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("chunkstore: store closed")
	}
	return writeFileAtomic(filepath.Join(s.dir, specFile), data)
}

// Spec returns the stored catalog spec document, if any.
func (s *Store) Spec() ([]byte, bool) {
	data, err := os.ReadFile(filepath.Join(s.dir, specFile))
	if err != nil {
		return nil, false
	}
	return data, true
}

// ---------- mutations ----------

// Append durably adds one frame (an encoded ingest batch) to a unit: the
// frame is written at the unit's committed length and the file fsynced —
// with the tables directory, when this append created the file — before
// the committed length advances. When Append returns nil the payload
// survives any crash; when it fails, the file is cut back to the
// committed length, so the next append lands where this one would have.
func (s *Store) Append(u Unit, payload []byte) error {
	if err := validUnit(u); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("chunkstore: store closed")
	}
	size, existed := s.units[u]
	f, err := os.OpenFile(s.unitPath(u), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("chunkstore: %w", err)
	}
	// Once the fsync returned the frame is durable, which a Close error
	// cannot undo.
	defer f.Close()
	head := appendHeader(make([]byte, 0, frameHead), payload)
	_, err = f.WriteAt(head, size)
	if err == nil {
		_, err = f.WriteAt(payload, size+frameHead)
	}
	if err == nil {
		atomic.AddInt64(&s.counters.SegWrites, 1)
		err = s.fsync(f)
	}
	if err != nil {
		// Should this fail too, Open meets the bytes: a torn append, or
		// corruption behind a later, shorter frame.
		f.Truncate(size)
		return fmt.Errorf("chunkstore: append %s: %w", u, err)
	}
	atomic.AddInt64(&s.counters.WALFsyncs, 1)
	if !existed {
		syncDir(s.tablesPath())
		atomic.AddInt64(&s.counters.WALFsyncs, 1)
	}
	s.units[u] = size + frameHead + int64(len(payload))
	return nil
}

// Replace durably replaces a unit's whole content (the /repl install
// and direct-load semantics) with the given payloads, one frame each.
func (s *Store) Replace(u Unit, payloads [][]byte) error {
	if err := validUnit(u); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("chunkstore: store closed")
	}
	return s.replace(u, payloads)
}

// replace writes payloads as the unit's file through a temporary file,
// fsynced, renamed into place, and the tables directory fsynced.
// Callers hold s.mu or are Open.
func (s *Store) replace(u Unit, payloads [][]byte) error {
	size := 0
	for _, p := range payloads {
		size += frameHead + len(p)
	}
	data := make([]byte, 0, size)
	for _, p := range payloads {
		data = append(appendHeader(data, p), p...)
	}
	if err := writeFileAtomic(s.unitPath(u), data); err != nil {
		return err
	}
	atomic.AddInt64(&s.counters.SegWrites, int64(len(payloads)))
	atomic.AddInt64(&s.counters.WALFsyncs, 2)
	s.units[u] = int64(size)
	return nil
}

// Segments returns a unit's frame payloads in application order,
// verifying each checksum (the /repl export path ships these bytes
// verbatim).
func (s *Store) Segments(u Unit) ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	size, ok := s.units[u]
	if !ok {
		return nil, fmt.Errorf("chunkstore: no unit %s", u)
	}
	data, err := os.ReadFile(s.unitPath(u))
	if err != nil {
		return nil, fmt.Errorf("chunkstore: %w", err)
	}
	if int64(len(data)) < size {
		return nil, fmt.Errorf("chunkstore: unit %s holds %d bytes, %d committed", u, len(data), size)
	}
	payloads, n, err := readFrames(data[:size])
	if err == nil && int64(n) != size {
		err = fmt.Errorf("a frame ends past the committed length %d", size)
	}
	if err != nil {
		return nil, fmt.Errorf("chunkstore: unit %s: %w", u, err)
	}
	return payloads, nil
}

// Has reports whether the store holds the unit.
func (s *Store) Has(u Unit) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.units[u]
	return ok
}

// ---------- frames ----------

// appendHeader appends the frame header of payload to out.
func appendHeader(out, payload []byte) []byte {
	start := len(out)
	out = append(out, frameMagic...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out[start:]))
}

// readFrames parses a unit file: the payloads of its intact frames in
// order, and the length n they span. When n < len(data) with a nil
// error, the rest is a torn append; an error is corruption at offset n.
// Pure function over untrusted bytes (the fuzz surface for the unit
// file): payloads alias data, and no length field drives an allocation.
func readFrames(data []byte) (payloads [][]byte, n int, err error) {
	for n < len(data) {
		payload, size, err := readFrame(data[n:])
		if err != nil {
			return payloads, n, fmt.Errorf("frame at offset %d: %w", n, err)
		}
		if size == 0 {
			break
		}
		payloads = append(payloads, payload)
		n += size
	}
	return payloads, n, nil
}

// readFrame parses the frame data starts with, returning its payload and
// its size — 0 when data is a torn append: shorter than a header, or a
// header whose own checksum holds but whose payload runs past the end.
func readFrame(data []byte) (payload []byte, size int, err error) {
	if len(data) >= segHead && bytes.HasPrefix(data, segMagic) {
		plen := binary.BigEndian.Uint64(data[6+4 : segHead])
		if plen > uint64(len(data)-segHead) {
			return nil, 0, fmt.Errorf("legacy frame of %d bytes runs past the end", plen)
		}
		size = segHead + int(plen)
		payload, err = decodeSegment(data[:size])
		return payload, size, err
	}
	if len(data) < frameHead {
		return nil, 0, nil
	}
	if !bytes.HasPrefix(data, frameMagic) {
		return nil, 0, errors.New("bad frame magic")
	}
	if crc32.ChecksumIEEE(data[:frameHead-4]) != binary.BigEndian.Uint32(data[frameHead-4:frameHead]) {
		return nil, 0, errors.New("frame header fails its checksum")
	}
	plen := binary.BigEndian.Uint64(data[6:14])
	if plen > uint64(len(data)-frameHead) {
		return nil, 0, nil
	}
	payload = data[frameHead : frameHead+int(plen)]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[14:18]) {
		return nil, 0, errors.New("frame payload fails its checksum")
	}
	return payload, frameHead + int(plen), nil
}

// decodeSegment verifies and strips one legacy frame: a segment file of
// the older layout, or a frame of a unit file migrated from one. Pure
// function over untrusted bytes (the fuzz surface for the legacy frame):
// the declared length must match the actual payload exactly and the
// checksum must hold.
func decodeSegment(data []byte) ([]byte, error) {
	if len(data) < segHead || !bytes.HasPrefix(data, segMagic) {
		return nil, fmt.Errorf("bad segment header")
	}
	sum := binary.BigEndian.Uint32(data[6 : 6+4])
	plen := binary.BigEndian.Uint64(data[6+4 : segHead])
	if plen != uint64(len(data)-segHead) {
		return nil, fmt.Errorf("segment length %d does not match file (%d payload bytes)",
			plen, len(data)-segHead)
	}
	payload := data[segHead:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("segment fails its checksum")
	}
	return payload, nil
}

// ---------- recovery ----------

// checkWAL refuses a store whose write-ahead log, the older layout's
// commit device, still holds a record. The record was never
// acknowledged, but without its decoder a replace it half applied cannot
// be told from a clean one. An empty log is removed.
func checkWAL(path string) error {
	st, err := os.Stat(path)
	switch {
	case os.IsNotExist(err):
		return nil
	case err != nil:
		return fmt.Errorf("chunkstore: %w", err)
	case st.Size() > 0:
		return fmt.Errorf("chunkstore: %s holds %d bytes of the older layout's write-ahead log, "+
			"which this store cannot replay; remove the store and let repair re-ship its chunks", path, st.Size())
	}
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("chunkstore: %w", err)
	}
	return nil
}

// migrate rewrites every unit directory of the older layout as a unit
// file, through the replace path, and then removes it; a directory that
// fails verification is quarantined. A directory found beside its unit
// file was renamed into place before a crash stopped the migration, so
// only its removal is left.
func (s *Store) migrate(rec *Recovery) error {
	root := s.tablesPath()
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("chunkstore: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || strings.Contains(e.Name(), quarantine) {
			continue
		}
		dir := filepath.Join(root, e.Name())
		u, err := parseUnit(e.Name())
		var segs [][]byte
		if err == nil {
			if _, serr := os.Stat(s.unitPath(u)); serr == nil {
				if err := os.RemoveAll(dir); err != nil {
					return fmt.Errorf("chunkstore: %w", err)
				}
				continue
			}
			segs, err = readUnitDir(dir)
		}
		if err != nil {
			if qerr := s.quarantine(dir, e.Name(), err); qerr != nil {
				return qerr
			}
			if u.Table != "" {
				rec.Quarantined = append(rec.Quarantined, u)
			}
			continue
		}
		if len(segs) > 0 {
			if err := s.replace(u, segs); err != nil {
				return err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return fmt.Errorf("chunkstore: %w", err)
		}
		logger.Info("unit.migrated", "unit", e.Name(), "segments", len(segs))
	}
	return nil
}

// scan verifies every unit file, one at a time. Intact units populate
// the index and the Recovery report; a torn append is cut off; a unit
// failing verification is renamed aside and reported quarantined. A
// temporary file is a replace stopped before its rename: the unit file
// still holds the old content, and the temporary one goes.
func (s *Store) scan(rec *Recovery) error {
	root := s.tablesPath()
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("chunkstore: %w", err)
	}
	var buf []byte
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(root, name)
		if e.IsDir() || strings.Contains(name, quarantine) {
			continue
		}
		if strings.HasSuffix(name, tmpSuffix) {
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("chunkstore: %w", err)
			}
			rec.TornWrites++
			continue
		}
		unitName, ok := strings.CutSuffix(name, unitSuffix)
		if !ok {
			continue
		}
		u, err := parseUnit(unitName)
		var size int64
		var torn bool
		if err == nil {
			size, torn, err = recoverUnitFile(path, &buf)
		}
		if err != nil {
			if qerr := s.quarantine(path, unitName, err); qerr != nil {
				return qerr
			}
			if u.Table != "" {
				rec.Quarantined = append(rec.Quarantined, u)
			}
			continue
		}
		if torn {
			rec.TornWrites++
			logger.Info("unit.torn_append", "unit", unitName, "committed", size)
		}
		if size == 0 {
			// Created by an append that never committed: no unit.
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("chunkstore: %w", err)
			}
			continue
		}
		s.units[u] = size
		rec.Units = append(rec.Units, u)
	}
	sort.Slice(rec.Units, func(i, j int) bool { return rec.Units[i].String() < rec.Units[j].String() })
	return nil
}

// recoverUnitFile verifies a unit file frame by frame and truncates a
// torn append off it, returning its committed length and whether it
// was torn. The file is read into *buf, which recovery reuses from unit
// to unit: it holds one unit's bytes at a time.
func recoverUnitFile(path string, buf *[]byte) (size int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, fmt.Errorf("chunkstore: %w", err)
	}
	defer f.Close() // only read
	st, err := f.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("chunkstore: %w", err)
	}
	data := slices.Grow((*buf)[:0], int(st.Size()))[:st.Size()]
	*buf = data
	if _, err := io.ReadFull(f, data); err != nil {
		return 0, false, fmt.Errorf("chunkstore: %s: %w", path, err)
	}
	_, n, err := readFrames(data)
	if err != nil {
		return 0, false, err
	}
	if n < len(data) {
		if err := os.Truncate(path, int64(n)); err != nil {
			return 0, false, fmt.Errorf("chunkstore: %w", err)
		}
		torn = true
	}
	return int64(n), torn, nil
}

// quarantine renames a failed unit file or directory aside (never
// deletes: an operator may still want the bytes) under a name the scan
// skips.
func (s *Store) quarantine(path, unit string, reason error) error {
	dst := path + quarantine
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = fmt.Sprintf("%s%s.%d", path, quarantine, i)
	}
	if err := os.Rename(path, dst); err != nil {
		return fmt.Errorf("chunkstore: quarantine %s: %w", path, err)
	}
	atomic.AddInt64(&s.counters.Quarantines, 1)
	logger.Warn("unit.quarantined", "unit", unit, "reason", reason)
	return nil
}

// readUnitDir reads and verifies the segment files of a unit directory
// of the older layout in sequence order: the migration's reader. A
// temporary file is a segment write whose rename never happened.
func readUnitDir(dir string) ([][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("chunkstore: %w", err)
	}
	type seg struct {
		seq  uint64
		name string
	}
	var segs []seg
	for _, e := range entries {
		rest, ok := strings.CutPrefix(e.Name(), segPrefix)
		if ok {
			rest, ok = strings.CutSuffix(rest, unitSuffix)
		}
		seq, err := strconv.ParseUint(rest, 10, 64)
		if !ok || err != nil {
			if strings.HasSuffix(e.Name(), tmpSuffix) {
				continue
			}
			return nil, fmt.Errorf("chunkstore: stray file %s in %s", e.Name(), dir)
		}
		segs = append(segs, seg{seq, e.Name()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	out := make([][]byte, 0, len(segs))
	for _, sg := range segs {
		path := filepath.Join(dir, sg.name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("chunkstore: %w", err)
		}
		payload, err := decodeSegment(data)
		if err != nil {
			return nil, fmt.Errorf("chunkstore: %s: %w", path, err)
		}
		out = append(out, payload)
	}
	return out, nil
}

// ---------- fs helpers ----------

// writeFileAtomic writes via temp-file, fsync, rename, and fsyncs the
// directory so the rename is durable: readers see the old content or
// the new, never a torn write.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("chunkstore: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("chunkstore: %w", err)
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so creations and renames within it are
// durable. Filesystems that refuse directory fsync (some CI mounts) are
// tolerated: the data files themselves are already synced.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}
