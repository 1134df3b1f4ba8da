package chunkstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func mustOpen(t *testing.T, dir string) (*Store, *Recovery) {
	t.Helper()
	s, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, rec
}

// encodeSegment renders a legacy frame: a segment file of the older
// layout.
func encodeSegment(payload []byte) []byte {
	out := append([]byte(nil), segMagic...)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	return append(out, payload...)
}

// appendFrame renders one frame of a unit file.
func appendFrame(out, payload []byte) []byte {
	return append(appendHeader(out, payload), payload...)
}

// segments reads a unit's payloads as strings.
func segments(t *testing.T, s *Store, u Unit) []string {
	t.Helper()
	segs, err := s.Segments(u)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(segs))
	for i, p := range segs {
		out[i] = string(p)
	}
	return out
}

// unitFile is the path of a unit's file under a store root.
func unitFile(dir string, u Unit) string {
	return filepath.Join(dir, tablesDir, u.String()+unitSuffix)
}

// TestAppendReopen: appended frames and the spec survive a clean
// close-and-reopen, in application order, in one file per unit.
func TestAppendReopen(t *testing.T) {
	dir := t.TempDir()
	s, rec := mustOpen(t, dir)
	if len(rec.Units) != 0 || rec.TornWrites != 0 {
		t.Fatalf("fresh store recovered %+v", rec)
	}
	obj := Unit{Table: "Object", Chunk: 5}
	flt := Unit{Table: "Filter", Shared: true}
	for _, p := range []string{"batch-1", "batch-2"} {
		if err := s.Append(obj, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(flt, []byte("filters")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSpec([]byte(`{"Database":"LSST"}`)); err != nil {
		t.Fatal(err)
	}
	if !s.Has(obj) || !s.Has(flt) || s.Has(Unit{Table: "Object", Chunk: 6}) {
		t.Fatal("Has disagrees with what was appended")
	}
	// Three appends, two of them creating their unit's file: an fsync of
	// the file each, and of the tables directory for each creation.
	if c := s.Counters(); c.WALFsyncs != 5 || c.SegWrites != 3 {
		t.Fatalf("counters after three appends to two new units: %+v", c)
	}
	s.Close()

	entries, err := os.ReadDir(filepath.Join(dir, tablesDir))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"Filter@shared.qseg", "Object@5.qseg"}; !slices.Equal(names, want) {
		t.Fatalf("tables/ holds %v, want %v", names, want)
	}

	s2, rec2 := mustOpen(t, dir)
	if rec2.TornWrites != 0 || len(rec2.Quarantined) != 0 {
		t.Fatalf("clean reopen: %+v", rec2)
	}
	if want := []Unit{flt, obj}; !slices.Equal(rec2.Units, want) {
		t.Fatalf("recovered %v, want %v", rec2.Units, want)
	}
	if got := segments(t, s2, obj); !slices.Equal(got, []string{"batch-1", "batch-2"}) {
		t.Fatalf("Object@5 recovered %q", got)
	}
	if spec, ok := s2.Spec(); !ok || !strings.Contains(string(spec), "LSST") {
		t.Fatalf("spec not recovered: %q %v", spec, ok)
	}
	// Appends continue after recovery, at the committed length.
	if err := s2.Append(obj, []byte("batch-3")); err != nil {
		t.Fatal(err)
	}
	if got := segments(t, s2, obj); !slices.Equal(got, []string{"batch-1", "batch-2", "batch-3"}) {
		t.Fatalf("post-recovery append: %q", got)
	}
}

// TestReplaceDropsOldSegments: Replace installs a new complete frame set
// over the unit's older frames, surviving reopen.
func TestReplaceDropsOldSegments(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	u := Unit{Table: "Object", Chunk: 9}
	for _, p := range []string{"old-1", "old-2"} {
		if err := s.Append(u, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Replace(u, [][]byte{[]byte("new-1"), []byte("new-2")}); err != nil {
		t.Fatal(err)
	}
	if got := segments(t, s, u); !slices.Equal(got, []string{"new-1", "new-2"}) {
		t.Fatalf("after replace: %q", got)
	}
	// An append after a replace lands after its frames.
	if err := s.Append(u, []byte("new-3")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, rec := mustOpen(t, dir)
	if len(rec.Units) != 1 {
		t.Fatalf("recovered %+v", rec.Units)
	}
	if got := segments(t, s2, u); !slices.Equal(got, []string{"new-1", "new-2", "new-3"}) {
		t.Fatalf("recovered %q", got)
	}
}

// crashShape writes two acknowledged frames to a unit (and one to each
// of others), closes the store and then hands the unit file's bytes to
// damage, which returns what a crash (or the disk) left there.
func crashShape(t *testing.T, damage func(data []byte) []byte, others ...Unit) (dir string, u Unit) {
	t.Helper()
	dir = t.TempDir()
	s, _ := mustOpen(t, dir)
	u = Unit{Table: "Object", Chunk: 3}
	for _, p := range []string{"acked-1", "acked-2"} {
		if err := s.Append(u, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range others {
		if err := s.Append(o, []byte("stays-good")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	path := unitFile(dir, u)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, damage(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, u
}

// TestTornAppendTruncated: an append a crash cut short — its frame cut
// anywhere in the payload, or its header cut short — reopens to the
// frames before it, counted as torn, with the tail truncated away so the
// next append lands at the committed length.
func TestTornAppendTruncated(t *testing.T) {
	torn := appendFrame(nil, []byte("never-acked"))
	for name, tail := range map[string][]byte{
		"frame cut short":  torn[:len(torn)-3],
		"header only":      torn[:frameHead],
		"header cut short": torn[:frameHead-5],
		"one byte":         torn[:1],
	} {
		t.Run(name, func(t *testing.T) {
			dir, u := crashShape(t, func(data []byte) []byte { return append(data, tail...) })
			s, rec := mustOpen(t, dir)
			if rec.TornWrites != 1 || len(rec.Quarantined) != 0 || len(rec.Units) != 1 {
				t.Fatalf("recovery: %+v", rec)
			}
			if got := segments(t, s, u); !slices.Equal(got, []string{"acked-1", "acked-2"}) {
				t.Fatalf("recovered %q", got)
			}
			if err := s.Append(u, []byte("acked-3")); err != nil {
				t.Fatal(err)
			}
			s.Close()
			s2, rec2 := mustOpen(t, dir)
			if rec2.TornWrites != 0 {
				t.Fatalf("the torn tail survived its truncation: %+v", rec2)
			}
			if got := segments(t, s2, u); !slices.Equal(got, []string{"acked-1", "acked-2", "acked-3"}) {
				t.Fatalf("after the next append: %q", got)
			}
		})
	}
}

// TestChecksumQuarantine: bit rot is never a torn append. A
// complete frame with one flipped payload byte, and a header with one
// flipped length byte — which could otherwise pass for a frame whose
// payload runs past the end — each quarantine the unit: renamed aside,
// not deleted, excluded from the recovered inventory, while intact units
// keep serving; repair can then refill the unit.
func TestChecksumQuarantine(t *testing.T) {
	second := frameHead + len("acked-1") // offset of the second frame
	for name, damage := range map[string]func([]byte) []byte{
		"payload byte": func(data []byte) []byte { data[len(data)-1] ^= 0xff; return data },
		"length byte":  func(data []byte) []byte { data[second+7] ^= 0x40; return data },
		"first frame":  func(data []byte) []byte { data[frameHead] ^= 0x01; return data },
		"bad magic":    func(data []byte) []byte { data[second] = 'X'; return data },
	} {
		t.Run(name, func(t *testing.T) {
			ok := Unit{Table: "Object", Chunk: 8}
			dir, bad := crashShape(t, damage, ok)
			s2, rec := mustOpen(t, dir)
			if !slices.Equal(rec.Quarantined, []Unit{bad}) || rec.TornWrites != 0 {
				t.Fatalf("recovery %+v, want %v quarantined", rec, bad)
			}
			if !slices.Equal(rec.Units, []Unit{ok}) || s2.Has(bad) || !s2.Has(ok) {
				t.Fatalf("Units = %v, want just %v", rec.Units, ok)
			}
			if _, err := os.Stat(unitFile(dir, bad) + quarantine); err != nil {
				t.Fatalf("quarantined file missing: %v", err)
			}
			if c := s2.Counters(); c.Quarantines != 1 {
				t.Fatalf("counters %+v, want one quarantine", c)
			}
			if err := s2.Replace(bad, [][]byte{[]byte("re-shipped")}); err != nil {
				t.Fatal(err)
			}
			if got := segments(t, s2, bad); !slices.Equal(got, []string{"re-shipped"}) {
				t.Fatalf("refilled unit: %q", got)
			}
		})
	}
}

// TestTornSegmentTmpTolerated: a replace a crash stopped after it wrote
// its temporary file but before the rename reopens to the unit's old
// content, counted as torn, and the temporary file goes.
func TestTornSegmentTmpTolerated(t *testing.T) {
	dir, u := crashShape(t, func(data []byte) []byte { return data })
	tmp := unitFile(dir, u) + tmpSuffix
	if err := os.WriteFile(tmp, appendFrame(nil, []byte("replacement")), 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec := mustOpen(t, dir)
	if len(rec.Quarantined) != 0 || rec.TornWrites != 1 || len(rec.Units) != 1 {
		t.Fatalf("recovery with a stray temporary file: %+v", rec)
	}
	if got := segments(t, s, u); !slices.Equal(got, []string{"acked-1", "acked-2"}) {
		t.Fatalf("recovered %q, want the old content", got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("the temporary file survived Open: %v", err)
	}
}

// TestAppendAfterFailedAppend: an append whose fsync fails is cut off
// the file and not acknowledged; the next append lands at the committed
// length, and a reopen finds exactly the acknowledged frames.
func TestAppendAfterFailedAppend(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	u := Unit{Table: "Object", Chunk: 4}
	if err := s.Append(u, []byte("acked-1")); err != nil {
		t.Fatal(err)
	}
	committed, err := os.Stat(unitFile(dir, u))
	if err != nil {
		t.Fatal(err)
	}
	s.fsync = func(*os.File) error { return errors.New("injected fsync failure") }
	err = s.Append(u, []byte("a much longer payload that was written and never acknowledged"))
	s.fsync = (*os.File).Sync
	if err == nil {
		t.Fatal("append with a failing fsync reported success")
	}
	if st, err := os.Stat(unitFile(dir, u)); err != nil || st.Size() != committed.Size() {
		t.Fatalf("failed append left %v bytes, committed %d (%v)", st.Size(), committed.Size(), err)
	}
	if err := s.Append(u, []byte("acked-2")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, rec := mustOpen(t, dir)
	if rec.TornWrites != 0 || len(rec.Quarantined) != 0 {
		t.Fatalf("recovery %+v", rec)
	}
	if got := segments(t, s2, u); !slices.Equal(got, []string{"acked-1", "acked-2"}) {
		t.Fatalf("recovered %q", got)
	}
}

// TestOldLayoutMigrates: a unit directory of segment files (the layout
// before unit files) is verified, rewritten once as a unit file and
// removed; one that fails verification is quarantined; an empty
// write-ahead log is removed.
func TestOldLayoutMigrates(t *testing.T) {
	dir := t.TempDir()
	good := Unit{Table: "Object", Chunk: 7}
	rotten := Unit{Table: "Object", Chunk: 8}
	for u, segs := range map[Unit][][]byte{
		good:   {encodeSegment([]byte("seg-1")), encodeSegment([]byte("seg-2"))},
		rotten: {encodeSegment([]byte("seg-1"))},
	} {
		udir := filepath.Join(dir, tablesDir, u.String())
		if err := os.MkdirAll(udir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seg := range segs {
			if u == rotten {
				seg[len(seg)-1] ^= 0xff
			}
			name := fmt.Sprintf("%s%08d%s", segPrefix, i+1, unitSuffix)
			if err := os.WriteFile(filepath.Join(udir, name), seg, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// A segment write the older layout never renamed into place.
		if err := os.WriteFile(filepath.Join(udir, "seg-00000009.qseg.tmp"), []byte("half"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, walFile), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	s, rec := mustOpen(t, dir)
	if !slices.Equal(rec.Units, []Unit{good}) || !slices.Equal(rec.Quarantined, []Unit{rotten}) {
		t.Fatalf("recovery %+v", rec)
	}
	if got := segments(t, s, good); !slices.Equal(got, []string{"seg-1", "seg-2"}) {
		t.Fatalf("migrated unit holds %q", got)
	}
	for _, gone := range []string{filepath.Join(dir, tablesDir, good.String()), filepath.Join(dir, walFile)} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("%s survived the migration: %v", gone, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, tablesDir, rotten.String()+quarantine)); err != nil {
		t.Errorf("rotten directory not quarantined: %v", err)
	}
	s.Close()
	s2, rec2 := mustOpen(t, dir)
	if !slices.Equal(rec2.Units, []Unit{good}) || len(rec2.Quarantined) != 0 {
		t.Fatalf("reopen after migration: %+v", rec2)
	}
	if got := segments(t, s2, good); !slices.Equal(got, []string{"seg-1", "seg-2"}) {
		t.Fatalf("migrated unit after reopen holds %q", got)
	}
}

// TestLeftoverWALFailsOpen: a non-empty write-ahead log of the older
// layout fails Open with an error naming it; nothing is touched.
func TestLeftoverWALFailsOpen(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, walFile)
	if err := os.WriteFile(wal, []byte("A\x00\x00\x00\x08Object@3"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil || !strings.Contains(err.Error(), wal) {
		t.Fatalf("Open with a leftover write-ahead log: %v", err)
	}
	if st, err := os.Stat(wal); err != nil || st.Size() == 0 {
		t.Fatalf("the write-ahead log was touched: %v %v", st, err)
	}
}

// TestUnitValidation: names that cannot be file names are refused.
func TestUnitValidation(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	for _, u := range []Unit{
		{Table: "", Chunk: 1},
		{Table: "../evil", Chunk: 1},
		{Table: "a b", Chunk: 1},
		{Table: "Object", Chunk: -2},
	} {
		if err := s.Append(u, []byte("x")); err == nil {
			t.Errorf("Append(%+v) accepted an invalid unit", u)
		}
	}
}

// TestLegacyFrameParses: a segment file of the older layout is a
// one-frame unit file.
func TestLegacyFrameParses(t *testing.T) {
	data := appendFrame(encodeSegment([]byte("legacy")), []byte("current"))
	payloads, n, err := readFrames(data)
	if err != nil || n != len(data) || len(payloads) != 2 ||
		!bytes.Equal(payloads[0], []byte("legacy")) || !bytes.Equal(payloads[1], []byte("current")) {
		t.Fatalf("readFrames = %q, %d, %v", payloads, n, err)
	}
}
