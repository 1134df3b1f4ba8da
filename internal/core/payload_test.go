package core

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updatePayloads = flag.Bool("update-payloads", false, "rewrite testdata/chunk_payloads.json from this build's payloads")

// TestChunkPayloadBytesUnchanged pins the bytes a plan puts on the wire:
// workers verify and key statement reuse on the payload text, bench/ and
// simcluster build, edit and send payloads of their own, and a result is
// addressed by its payload's hash — so how QueryFor comes by the text is
// free to change and the text is not. testdata/chunk_payloads.json holds the
// digest of every chunk's payload for plans of each class, captured at the
// commit before QueryFor stopped rendering the template once per chunk
// (-update-payloads rewrites it; only a change that means to alter the wire
// should).
func TestChunkPayloadBytesUnchanged(t *testing.T) {
	_, pl, placed := testSetup(t)
	pl.TopK = true
	got := map[string]string{}
	for _, sql := range []string{
		"SELECT * FROM Object WHERE objectId = 3",
		"SELECT taiMidPoint, fluxToAbMag(psfFlux), ra, decl FROM Source WHERE objectId IN (2, 7)",
		"SELECT COUNT(*) FROM Object WHERE ra_PS BETWEEN 1 AND 2 AND decl_PS BETWEEN 3 AND 4",
		"SELECT COUNT(*) FROM Object WHERE fluxToAbMag(rFlux_PS) < 24.1",
		"SELECT count(*) AS n, AVG(ra_PS), chunkId FROM Object WHERE fluxToAbMag(rFlux_PS) < 26 GROUP BY chunkId",
		"SELECT objectId, ra_PS FROM Object WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 6 ORDER BY ra_PS DESC LIMIT 5",
		"SELECT o.objectId, s.psfFlux FROM Object o, Source s WHERE o.objectId = s.objectId AND qserv_areaspec_box(10, -5, 30, 5)",
		"SELECT count(*) FROM Object o1, Object o2 WHERE qserv_areaspec_box(-5, -5, 5, 5) AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1",
		"SELECT o1.objectId, o2.objectId FROM Object o1, Object o2 WHERE qserv_areaspec_box(355, 60, 5, 75) AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) <= 0.02 AND o1.objectId != o2.objectId",
	} {
		p := mustPlan(t, pl, placed, sql)
		h := sha256.New()
		for _, c := range p.Chunks {
			payload := p.QueryFor(c).Payload()
			fmt.Fprintf(h, "%d:%d:", c, len(payload))
			h.Write(payload)
		}
		got[sql] = fmt.Sprintf("%d chunks %x", len(p.Chunks), h.Sum(nil))
	}
	const file = "testdata/chunk_payloads.json"
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
