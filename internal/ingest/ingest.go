// Package ingest defines the wire format of the xrd fabric's /load
// transaction — the write half of the system. A catalog is installed in
// two phases: the declarative CatalogSpec is broadcast to every worker
// (path /load/spec, JSON), then row batches are shipped to the workers
// holding each chunk (path /load/t/<table>/<chunk>, or .../shared for
// replicated tables). A batch carries the chunk's own rows plus the
// rows that fall only in the chunk's overlap margin; the worker applies
// both and maintains the director-key index incrementally: it decodes a
// batch straight into its tables' columns (DecodeBatchInto), never into
// rows.
//
// Rows ship in the cell encoding of package rowcodec (binary,
// type-tagged, exact round-trip — text encoding measured as over half
// the ingest CPU); a batch frames them with a magic and two row counts.
package ingest

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"repro/internal/meta"
	"repro/internal/rowcodec"
	"repro/internal/sqlengine"
	"repro/internal/sqlparse"
)

// batchMagic heads every encoded batch; the version byte lets the
// format evolve.
const batchMagic = "QLOAD2"

// Batch is one /load shipment for a single (table, chunk) pair.
type Batch struct {
	// Rows are full storage rows (chunkId/subChunkId included for
	// partitioned tables) owned by the chunk.
	Rows []sqlengine.Row
	// Overlap are rows stored only in the chunk's overlap companion
	// table: rows of nearby chunks within the overlap margin. They keep
	// their owning chunk's chunkId/subChunkId values.
	Overlap []sqlengine.Row
}

// EncodeBatch serializes a batch with the batch's one header writer and
// one row writer, which the partition pass also writes its batches with.
func EncodeBatch(b Batch) ([]byte, error) {
	size := MaxHeaderLen
	for _, r := range b.Rows {
		size += rowcodec.RowSize(r)
	}
	for _, r := range b.Overlap {
		size += rowcodec.RowSize(r)
	}
	out := AppendHeader(make([]byte, 0, size), len(b.Rows), len(b.Overlap))
	var err error
	for _, r := range b.Rows {
		if out, err = AppendRow(out, r); err != nil {
			return nil, err
		}
	}
	for _, r := range b.Overlap {
		if out, err = AppendRow(out, r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MaxHeaderLen bounds the length of a batch header.
const MaxHeaderLen = len(batchMagic) + 2*binary.MaxVarintLen64

// AppendHeader appends the header of a batch of own rows followed by
// overlap rows to out: the magic and the two row counts.
func AppendHeader(out []byte, own, overlap int) []byte {
	out = append(out, batchMagic...)
	out = binary.AppendUvarint(out, uint64(own))
	return binary.AppendUvarint(out, uint64(overlap))
}

// AppendRow appends one row of a batch to out: the cells of r, then sys,
// the system columns a partitioned table stores after its user columns
// (chunkId, subChunkId) when r holds only the user columns. A value that
// is not nil, int64, float64 or string is an error.
func AppendRow(out []byte, r sqlengine.Row, sys ...int64) ([]byte, error) {
	return rowcodec.AppendRow(out, r, sys...)
}

// RowSize upper-bounds the bytes AppendRow appends for r and sys system
// columns.
func RowSize(r sqlengine.Row, sys int) int { return rowcodec.RowSize(r) + 9*sys }

// DecodeBatch parses an encoded batch, one table's rows, into boxed rows:
// a Boxer shaped to the header's row count and the first row's width, once
// both are held against the bytes present, so a row of another width is
// an error.
func DecodeBatch(data []byte) (Batch, error) {
	own, overlap, pos, err := readHeader(data)
	if err != nil {
		return Batch{}, err
	}
	var box sqlengine.Boxer
	if n := own + overlap; n > 0 {
		// Every row costs at least its width byte and a tag byte per cell.
		ncols, taken := binary.Uvarint(data[pos:])
		if taken <= 0 || ncols >= uint64(len(data)-pos)/uint64(n) {
			return Batch{}, fmt.Errorf("ingest: batch claims %d rows of %d values in %d bytes", n, ncols, len(data)-pos)
		}
		box.Shape(n, int(ncols))
	}
	nRows, err := DecodeBatchInto(data, &box, &box)
	if err != nil {
		return Batch{}, err
	}
	return Batch{Rows: box.Rows[:nRows:nRows], Overlap: box.Rows[nRows:]}, nil
}

// BatchRows reads an encoded batch's header: how many own and overlap
// rows it carries, which a decoder's sinks can make room for before the
// first row.
func BatchRows(data []byte) (own, overlap int, err error) {
	own, overlap, _, err = readHeader(data)
	return own, overlap, err
}

// readHeader parses a batch header, returning its row counts and where
// the rows start. The counts are untrusted input: every row costs at
// least one byte (its column-count varint), so counts beyond the
// remaining payload are corrupt and rejected before any row is read.
func readHeader(data []byte) (own, overlap, pos int, err error) {
	if len(data) < len(batchMagic) || string(data[:len(batchMagic)]) != batchMagic {
		return 0, 0, 0, fmt.Errorf("ingest: bad batch header")
	}
	pos = len(batchMagic)
	nOwn, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, 0, 0, fmt.Errorf("ingest: truncated batch")
	}
	pos += n
	nOverlap, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return 0, 0, 0, fmt.Errorf("ingest: truncated batch")
	}
	pos += n
	remaining := uint64(len(data) - pos)
	if nOwn > remaining || nOverlap > remaining || nOwn+nOverlap > remaining {
		return 0, 0, 0, fmt.Errorf("ingest: batch claims %d+%d rows in %d bytes", nOwn, nOverlap, remaining)
	}
	return int(nOwn), int(nOverlap), pos, nil
}

// DecodeBatchInto parses an encoded batch straight into two sinks, the
// chunk's own rows into rows and its overlap rows into overlap, and
// returns how many went to the first. With a table's
// sqlengine.Appender for a sink no row is ever boxed. On error the sinks
// have been handed part of the batch: the caller discards what they hold.
func DecodeBatchInto(data []byte, rows, overlap rowcodec.Sink) (nRows int, err error) {
	own, nOverlap, pos, err := readHeader(data)
	if err != nil {
		return 0, err
	}
	total := own + nOverlap
	for i := 0; i < total; i++ {
		sink := rows
		if i >= own {
			sink = overlap
		}
		if pos, err = rowcodec.Decode(data, pos, sink); err != nil {
			return 0, fmt.Errorf("ingest: row %d of %d: %w", i, total, err)
		}
	}
	return own, nil
}

// ---------- segment framing ----------

// segmentsMagic heads a segment-set frame: the /repl wire format since
// the durable chunk store. A frame carries one or more encoded batches
// ("segments"), each length-prefixed and CRC-checksummed. A durable
// worker ships its stored frame payloads verbatim — no row re-encoding
// — and the installer verifies every segment's checksum before
// applying any, so a corrupted copy is rejected whole.
var segmentsMagic = []byte("QSEGS1")

// EncodeSegments frames a set of encoded-batch payloads for shipment.
func EncodeSegments(segments [][]byte) []byte {
	size := len(segmentsMagic) + binary.MaxVarintLen64
	for _, s := range segments {
		size += binary.MaxVarintLen64 + 4 + len(s)
	}
	out := make([]byte, 0, size)
	out = append(out, segmentsMagic...)
	out = binary.AppendUvarint(out, uint64(len(segments)))
	for _, s := range segments {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(s))
		out = append(out, s...)
	}
	return out
}

// IsSegments reports whether data carries the segment-set framing.
func IsSegments(data []byte) bool {
	return len(data) >= len(segmentsMagic) && string(data[:len(segmentsMagic)]) == string(segmentsMagic)
}

// DecodeSegments parses a segment-set frame, verifying every segment's
// CRC. The returned slices alias data.
func DecodeSegments(data []byte) ([][]byte, error) {
	if !IsSegments(data) {
		return nil, fmt.Errorf("ingest: bad segment-set header")
	}
	pos := len(segmentsMagic)
	count, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("ingest: truncated segment set")
	}
	pos += n
	// Untrusted count: every segment costs at least its length varint
	// plus the 4 CRC bytes.
	if count > uint64(len(data)-pos) {
		return nil, fmt.Errorf("ingest: segment set claims %d segments in %d bytes", count, len(data)-pos)
	}
	out := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		slen, n := binary.Uvarint(data[pos:])
		if n <= 0 || slen > uint64(len(data)) || pos+n+4+int(slen) > len(data) {
			return nil, fmt.Errorf("ingest: segment %d of %d truncated", i, count)
		}
		pos += n
		sum := binary.BigEndian.Uint32(data[pos : pos+4])
		pos += 4
		seg := data[pos : pos+int(slen) : pos+int(slen)]
		pos += int(slen)
		if crc32.ChecksumIEEE(seg) != sum {
			return nil, fmt.Errorf("ingest: segment %d of %d fails its checksum", i, count)
		}
		out = append(out, seg)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("ingest: %d trailing bytes after segment set", len(data)-pos)
	}
	return out, nil
}

// ---------- spec codec ----------

// The JSON wire form of a CatalogSpec (the /load/spec payload). Column
// types use their SQL spellings so the document is self-describing.

type wireSpec struct {
	Database string      `json:"database"`
	Tables   []wireTable `json:"tables"`
}

type wireTable struct {
	Name          string       `json:"name"`
	Kind          string       `json:"kind"`
	Columns       []wireColumn `json:"columns"`
	RAColumn      string       `json:"raColumn,omitempty"`
	DeclColumn    string       `json:"declColumn,omitempty"`
	DirectorKey   string       `json:"directorKey,omitempty"`
	Director      string       `json:"director,omitempty"`
	Overlap       bool         `json:"overlap,omitempty"`
	IndexColumns  []string     `json:"indexColumns,omitempty"`
	PaperRows     int64        `json:"paperRows,omitempty"`
	PaperRowBytes int64        `json:"paperRowBytes,omitempty"`
	EvalRows      int64        `json:"evalRows,omitempty"`
	EvalBytes     int64        `json:"evalBytes,omitempty"`
}

type wireColumn struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// EncodeSpec serializes a catalog spec as JSON.
func EncodeSpec(s meta.CatalogSpec) ([]byte, error) {
	w := wireSpec{Database: s.Database}
	for _, t := range s.Tables {
		wt := wireTable{
			Name:          t.Name,
			Kind:          t.Kind.String(),
			RAColumn:      t.RAColumn,
			DeclColumn:    t.DeclColumn,
			DirectorKey:   t.DirectorKey,
			Director:      t.Director,
			Overlap:       t.Overlap,
			IndexColumns:  t.IndexColumns,
			PaperRows:     t.PaperRows,
			PaperRowBytes: t.PaperRowBytes,
			EvalRows:      t.EvalRows,
			EvalBytes:     t.EvalBytes,
		}
		for _, c := range t.Columns {
			wt.Columns = append(wt.Columns, wireColumn{Name: c.Name, Type: c.Type.String()})
		}
		w.Tables = append(w.Tables, wt)
	}
	return json.Marshal(w)
}

// DecodeSpec parses a JSON catalog spec.
func DecodeSpec(data []byte) (meta.CatalogSpec, error) {
	var w wireSpec
	if err := json.Unmarshal(data, &w); err != nil {
		return meta.CatalogSpec{}, fmt.Errorf("ingest: bad spec payload: %w", err)
	}
	out := meta.CatalogSpec{Database: w.Database}
	for _, wt := range w.Tables {
		kind, err := meta.ParseTableKind(wt.Kind)
		if err != nil {
			return meta.CatalogSpec{}, err
		}
		t := meta.TableSpec{
			Name:          wt.Name,
			Kind:          kind,
			RAColumn:      wt.RAColumn,
			DeclColumn:    wt.DeclColumn,
			DirectorKey:   wt.DirectorKey,
			Director:      wt.Director,
			Overlap:       wt.Overlap,
			IndexColumns:  wt.IndexColumns,
			PaperRows:     wt.PaperRows,
			PaperRowBytes: wt.PaperRowBytes,
			EvalRows:      wt.EvalRows,
			EvalBytes:     wt.EvalBytes,
		}
		for _, c := range wt.Columns {
			typ, err := sqlparse.ParseColType(c.Type)
			if err != nil {
				return meta.CatalogSpec{}, fmt.Errorf("ingest: table %s column %s: %w", wt.Name, c.Name, err)
			}
			t.Columns = append(t.Columns, sqlengine.Column{Name: c.Name, Type: typ})
		}
		out.Tables = append(out.Tables, t)
	}
	return out, nil
}
