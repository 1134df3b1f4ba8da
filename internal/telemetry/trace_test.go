package telemetry

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

type attrStringer struct{ s string }

func (a attrStringer) String() string { return "stringer:" + a.s }

type attrPanics struct{}

func (*attrPanics) String() string { panic("no") }

type attrInt int

// TestSetAttrRendersAsPercentV pins SetAttr's text for each kind it spells
// itself — string, int, int64, bool, float64, Stringer — and for those it
// leaves to fmt: every one is fmt's %v.
func TestSetAttrRendersAsPercentV(t *testing.T) {
	for _, tc := range []struct {
		value any
		want  string
	}{
		{"plain", "plain"},
		{"", ""},
		{42, "42"},
		{-7, "-7"},
		{int64(-1 << 62), "-4611686018427387904"},
		{true, "true"},
		{false, "false"},
		{0.5, "0.5"},
		{1e21, "1e+21"},
		{123456789.0, "1.23456789e+08"},
		{1e-5, "1e-05"},
		{math.Copysign(0, -1), "-0"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{math.NaN(), "NaN"},
		{attrStringer{"x"}, "stringer:x"},
		{time.Duration(1500) * time.Microsecond, "1.5ms"},
		{(*attrPanics)(nil), "<nil>"},
		{errors.New("boom"), "boom"},
		{attrInt(3), "3"},
		{[]int{1, 2}, "[1 2]"},
		{nil, "<nil>"},
	} {
		if got := fmt.Sprintf("%v", tc.value); got != tc.want {
			t.Fatalf("%%v of %#v is %q, the table says %q", tc.value, got, tc.want)
		}
		s := StartSpan("x")
		s.SetAttr("k", tc.value)
		if got := s.Attrs[0].Value; got != tc.want {
			t.Errorf("SetAttr(%#v) renders %q, want %q", tc.value, got, tc.want)
		}
	}
}
