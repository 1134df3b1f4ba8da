package core

import (
	"slices"
	"testing"
)

// FuzzPlanShape: whatever statement the fuzzer writes, planning it right
// after a statement of its shape with other literals (otherLiterals) gives
// what a fresh planner gives — the same plan field for field, or the same
// error — and that is the plan of its statement without a shape, built from
// its own literals unmarked.
func FuzzPlanShape(f *testing.F) {
	seeds := slices.Concat(payloadSQL, warmBattery, []string{
		// The repository benchmark's statement classes.
		"SELECT * FROM Object WHERE objectId = 4",
		"SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), ra, decl FROM Source WHERE objectId = 7",
		"SELECT COUNT(*) FROM Object WHERE ra_PS BETWEEN 12.3456 AND 13.3456 AND decl_PS BETWEEN -3.2500 AND -2.2500 AND fluxToAbMag(zFlux_PS) BETWEEN 16 AND 30.000007",
		"SELECT COUNT(*) FROM Object WHERE fluxToAbMag(rFlux_PS) < 24.1234567",
		"SELECT count(*) AS n, SUM(ra_PS), MIN(decl_PS), MAX(decl_PS), chunkId FROM Object WHERE fluxToAbMag(rFlux_PS) < 26.1234567 GROUP BY chunkId",
		"SELECT count(*) FROM Object o1, Object o2 WHERE qserv_areaspec_box(9.75000, 0.50000, 11.25000, 2.00000) AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.0166667",
		"SELECT objectId, ra_PS, decl_PS, uFlux_PS FROM Object WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 6.0001234",
		// Literal spellings.
		"SELECT objectId FROM Object WHERE ra_PS > -0 AND decl_PS < -0.0 AND uFlux_PS > 1e-9",
		"SELECT objectId FROM Object WHERE ra_PS < 1e400",
		"SELECT objectId FROM Object WHERE objectId < 9223372036854775808 AND objectId > -9223372036854775808",
		"SELECT ra_PS / 0, SQRT(0 - 1), LOG(0 - 1) FROM Object WHERE objectId = 3",
		"SELECT COUNT(*) FROM Object WHERE 'a%b' LIKE '%' AND 'it''s' != 'x\\\\y' AND '\\\\' = '\\\\'",
		"SELECT SUM(ra_PS*2), SUM(ra_PS*2) FROM Object",
		"SELECT SUM(ra_PS*2), SUM(ra_PS*3) FROM Object",
	})
	for i, s := range seeds {
		f.Add(s, uint8(i))
	}
	reg, setup, placed := testSetup(f)
	f.Fuzz(func(t *testing.T, sql string, k uint8) {
		other, ok := otherLiterals(sql, int(k%4)+1)
		if !ok || shapeKey(t, other) != shapeKey(t, sql) {
			return
		}
		newPlanner := func() *Planner {
			pl := NewPlanner(reg, setup.Index)
			pl.TopK = k&4 != 0
			return pl
		}
		want := planOrError(newPlanner(), placed, other)
		warm := newPlanner()
		planOrError(warm, placed, sql)
		if got := planOrError(warm, placed, other); got != want {
			t.Errorf("after %q\n%q plans warm as\n%s\ncold as\n%s", sql, other, got, want)
		}
		if ref := unshapedPlan(newPlanner(), placed, other); withoutKey(want) != ref {
			t.Errorf("%q plans cold as\n%s\nunmarked as\n%s", other, want, ref)
		}
	})
}
