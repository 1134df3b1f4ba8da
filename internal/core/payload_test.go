package core

import (
	"crypto/md5"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/meta"
	"repro/internal/partition"
)

var updatePayloads = flag.Bool("update-payloads", false, "rewrite testdata/{chunk,dispatch}_payloads.json from this build's payloads")

// TestChunkPayloadBytesUnchanged pins the one-chunk payloads a plan renders:
// a chunk's result is addressed by its one-chunk payload's hash, even inside
// a dispatch of many, and bench/ and simcluster build, edit and send such
// payloads of their own — so how QueryFor comes by the text is free to
// change and the text is not. testdata/chunk_payloads.json holds the digest of every
// chunk's payload for plans of each class (-update-payloads rewrites it; only
// a change that means to alter the wire should). The wire was changed on
// purpose once, when a near-neighbour chunk query began to carry its
// statement pair once, written for the first listed subchunk, instead of
// once per subchunk, and a FROM table stopped being backquoted (the text is
// cut at the table token, not searched for a placeholder); the file was
// captured again then. It was changed on purpose again when a plan of one
// chunk began to ship the user's statement whole (the one-chunk COUNT of a
// box); the digests of every plan of many chunks stayed as they were.
//
// Each plan is made twice: by a fresh planner, and by one that planned the
// statement with other literals first, whose plan template it binds.
func TestChunkPayloadBytesUnchanged(t *testing.T) {
	for _, warm := range []bool{false, true} {
		_, pl, placed := testSetup(t)
		pl.TopK = true
		got := map[string]string{}
		for _, sql := range payloadSQL {
			p := planWarm(t, pl, placed, sql, warm)
			h := sha256.New()
			for _, c := range p.Chunks {
				payload := p.QueryFor(c).Payload()
				fmt.Fprintf(h, "%d:%d:", c, len(payload))
				h.Write(payload)
			}
			got[sql] = fmt.Sprintf("%d chunks %x", len(p.Chunks), h.Sum(nil))
		}
		checkGolden(t, "testdata/chunk_payloads.json", got)
	}
}

// planWarm plans sql; when warm, right after a statement of its shape with
// other literals.
func planWarm(t *testing.T, pl *Planner, placed []partition.ChunkID, sql string, warm bool) *Plan {
	t.Helper()
	if warm {
		other, _ := otherLiterals(sql, 1)
		if shapeKey(t, other) != shapeKey(t, sql) {
			t.Fatalf("%s and %s should share a shape", sql, other)
		}
		mustPlan(t, pl, placed, other)
	}
	return mustPlan(t, pl, placed, sql)
}

// payloadSQL are the plans whose wire bytes the golden files pin, one or
// more of each query class.
var payloadSQL = []string{
	"SELECT * FROM Object WHERE objectId = 3",
	"SELECT taiMidPoint, fluxToAbMag(psfFlux), ra, decl FROM Source WHERE objectId IN (2, 7)",
	// One chunk, the statement whole; and its twin over five, split.
	"SELECT COUNT(*) FROM Object WHERE ra_PS BETWEEN 1 AND 2 AND decl_PS BETWEEN 3 AND 4",
	"SELECT COUNT(*) FROM Object WHERE ra_PS BETWEEN 1 AND 40 AND decl_PS BETWEEN 3 AND 4",
	"SELECT COUNT(*) FROM Object WHERE fluxToAbMag(rFlux_PS) < 24.1",
	"SELECT count(*) AS n, AVG(ra_PS), chunkId FROM Object WHERE fluxToAbMag(rFlux_PS) < 26 GROUP BY chunkId",
	"SELECT objectId, ra_PS FROM Object WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 6 ORDER BY ra_PS DESC LIMIT 5",
	"SELECT o.objectId, s.psfFlux FROM Object o, Source s WHERE o.objectId = s.objectId AND qserv_areaspec_box(10, -5, 30, 5)",
	"SELECT count(*) FROM Object o1, Object o2 WHERE qserv_areaspec_box(-5, -5, 5, 5) AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1",
	"SELECT o1.objectId, o2.objectId FROM Object o1, Object o2 WHERE qserv_areaspec_box(355, 60, 5, 75) AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) <= 0.02 AND o1.objectId != o2.objectId",
}

// TestDispatchPayloadBytesUnchanged pins a dispatch's bytes as
// TestChunkPayloadBytesUnchanged pins a one-chunk payload's: for each plan,
// the dispatch of all its chunks — every chunk listed with the hash of its
// one-chunk payload, the statements written for the first — and of its odd
// chunks. testdata/dispatch_payloads.json holds their digests
// (-update-payloads rewrites it).
// Like it, it holds the plans of a fresh planner and of a warm one.
func TestDispatchPayloadBytesUnchanged(t *testing.T) {
	for _, warm := range []bool{false, true} {
		testDispatchPayloadBytes(t, warm)
	}
}

func testDispatchPayloadBytes(t *testing.T, warm bool) {
	_, pl, placed := testSetup(t)
	pl.TopK = true
	got := map[string]string{}
	for _, sql := range payloadSQL {
		p := planWarm(t, pl, placed, sql, warm)
		h := sha256.New()
		for odd := range 2 {
			d := Dispatch{Class: p.Class}
			for i, c := range p.Chunks {
				if odd == 1 && i%2 == 0 {
					continue
				}
				cq := p.QueryFor(c)
				if d.Statements == nil {
					d.Statements = cq.Statements
				}
				sum := md5.Sum(cq.Payload())
				d.Chunks = append(d.Chunks, DispatchChunk{Chunk: c, Hash: hex.EncodeToString(sum[:]), SubChunks: cq.SubChunks})
			}
			if len(d.Chunks) == 0 {
				continue
			}
			payload := d.Payload()
			hd, err := ParseHeader(payload)
			if err != nil || len(hd.Chunks) != len(d.Chunks) || string(payload[hd.Body:]) != strings.Join(d.Statements, ";\n")+";\n" {
				t.Fatalf("%s: the dispatch does not read back: %v\n%s", sql, err, payload)
			}
			for i, c := range hd.Chunks {
				if c.Chunk != d.Chunks[i].Chunk || c.Hash != d.Chunks[i].Hash || !slices.Equal(c.SubChunks, d.Chunks[i].SubChunks) {
					t.Fatalf("%s: listed chunk %d reads back as %+v, written %+v", sql, i, c, d.Chunks[i])
				}
			}
			fmt.Fprintf(h, "%d:", len(payload))
			h.Write(payload)
		}
		got[sql] = fmt.Sprintf("%d chunks %x", len(p.Chunks), h.Sum(nil))
	}
	checkGolden(t, "testdata/dispatch_payloads.json", got)
}

// checkGolden holds got to the digests file holds, or with -update-payloads
// writes them there.
func checkGolden(t *testing.T, file string, got map[string]string) {
	t.Helper()
	if *updatePayloads {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for sql, digest := range got {
		if want[sql] != digest {
			t.Errorf("payloads changed for %s:\n got %s\nwant %s", sql, digest, want[sql])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d plans, the test makes %d", file, len(want), len(got))
	}
}

// TestPayloadLiteralsSurvive: a literal that spells a placeholder the planner
// once substituted, or a worker-side table name, reaches the worker as it
// was written, for a full-scan plan and for a near-neighbour one; only the
// FROM tables are the chunk's.
func TestPayloadLiteralsSurvive(t *testing.T) {
	_, pl, placed := testSetup(t)
	for _, c := range []struct{ sql, literal string }{
		{"SELECT COUNT(*) FROM Object WHERE 'a%CC%' LIKE '%CC%'", "'a%CC%' LIKE '%CC%'"},
		{"SELECT objectId FROM Object WHERE 'Object_%CC%_%SS%' != 'LSST.Object_7'", "'Object_%CC%_%SS%' != 'LSST.Object_7'"},
		{`SELECT count(*) FROM Object o1, Object o2 WHERE qserv_areaspec_box(-5, -5, 5, 5)
			AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1 AND 'x%SS%%CC%' LIKE '%SS%'`, "'x%SS%%CC%' LIKE '%SS%'"},
	} {
		p := mustPlan(t, pl, placed, c.sql)
		cq := p.QueryFor(p.Chunks[0])
		for i, st := range cq.Statements {
			if !strings.Contains(st, c.literal) {
				t.Errorf("%s: statement %d lost the literal %s:\n%s", c.sql, i, c.literal, st)
			}
			want := meta.ChunkTableName("Object", cq.Chunk)
			if len(cq.SubChunks) > 0 {
				want = meta.SubChunkTableName("Object", cq.Chunk, cq.SubChunks[0])
			}
			if !strings.Contains(st, "LSST."+want+" AS ") {
				t.Errorf("%s: statement %d does not read %s:\n%s", c.sql, i, want, st)
			}
		}
	}
}

// TestNearNeighbourPayloadCarriesOnePair: every near-neighbour chunk query is
// the self and overlap statements of its first subchunk, whatever the number
// of subchunks it lists: past the header, payloads differ only in the digits
// of the four table names (chunk and subchunk ids of up to four digits here).
func TestNearNeighbourPayloadCarriesOnePair(t *testing.T) {
	_, pl, placed := testSetup(t)
	for _, box := range []string{"0, 0, 60, 30", "355, 60, 5, 75", "1.3, 0.7, 14.1, 9.9"} {
		p := mustPlan(t, pl, placed, "SELECT count(*) FROM Object o1, Object o2 WHERE qserv_areaspec_box("+box+
			") AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1")
		fewest, most, shortest, longest := 1<<30, 0, 1<<30, 0
		for _, c := range p.Chunks {
			cq := p.QueryFor(c)
			if len(cq.Statements) != 2 || len(cq.SubChunks) == 0 {
				t.Fatalf("box %s chunk %d: %d statements for %d subchunks", box, c, len(cq.Statements), len(cq.SubChunks))
			}
			s0 := cq.SubChunks[0]
			self, overlap := meta.SubChunkTableName("Object", c, s0), meta.SubChunkOverlapTableName("Object", c, s0)
			if strings.Count(cq.Statements[0], self) != 2 || strings.Count(cq.Statements[1], self) != 1 || strings.Count(cq.Statements[1], overlap) != 1 {
				t.Errorf("box %s chunk %d: the pair is not subchunk %d's:\n%s", box, c, s0, strings.Join(cq.Statements, "\n"))
			}
			payload := cq.Payload()
			h, err := ParseHeader(payload)
			if err != nil {
				t.Fatal(err)
			}
			fewest, most = min(fewest, len(cq.SubChunks)), max(most, len(cq.SubChunks))
			shortest, longest = min(shortest, len(payload)-h.Body), max(longest, len(payload)-h.Body)
		}
		if most < 2*fewest || longest-shortest > 4*6 {
			t.Errorf("box %s: %d to %d subchunks a chunk, statements of %d to %d bytes", box, fewest, most, shortest, longest)
		}
	}
}
