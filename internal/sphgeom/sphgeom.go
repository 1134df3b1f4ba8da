// Package sphgeom provides the spherical-geometry primitives Qserv's
// partitioning and spatial predicates are built on.
//
// Positions on the celestial sphere are given by two angles in degrees:
// right ascension (ra, the azimuthal angle, 0 <= ra < 360, wrapping) and
// declination (decl, the polar angle measured from the equator,
// -90 <= decl <= +90). This matches the paper's (phi, theta) convention
// for the LSST catalog (section 5.2).
package sphgeom

import (
	"fmt"
	"math"
)

// Degrees per radian.
const degPerRad = 180.0 / math.Pi

// Epsilon is the angular tolerance, in degrees, used when comparing
// positions and region boundaries. One micro-arcsecond is far below any
// survey astrometric precision.
const Epsilon = 1e-9 / 3600.0

// RadOf converts degrees to radians.
func RadOf(deg float64) float64 { return deg / degPerRad }

// DegOf converts radians to degrees.
func DegOf(rad float64) float64 { return rad * degPerRad }

// WrapRA normalizes a right ascension in degrees to [0, 360).
func WrapRA(ra float64) float64 {
	if ra >= 0 && ra < 360 {
		return ra // what Mod would return, without the call
	}
	ra = math.Mod(ra, 360)
	if ra < 0 {
		ra += 360
	}
	// Mod can return 360 - tiny; collapse exact 360 to 0.
	if ra >= 360 {
		ra -= 360
	}
	return ra
}

// ClampDecl clamps a declination to the valid [-90, +90] range.
func ClampDecl(decl float64) float64 {
	if decl < -90 {
		return -90
	}
	if decl > 90 {
		return 90
	}
	return decl
}

// Point is a position on the unit sphere in spherical coordinates.
type Point struct {
	RA   float64 // right ascension, degrees, [0, 360)
	Decl float64 // declination, degrees, [-90, +90]
}

// NewPoint builds a Point, wrapping RA and clamping declination.
func NewPoint(ra, decl float64) Point {
	return Point{RA: WrapRA(ra), Decl: ClampDecl(decl)}
}

// Vector3 is a unit vector in Cartesian coordinates.
type Vector3 struct{ X, Y, Z float64 }

// Vector converts the point to a Cartesian unit vector.
func (p Point) Vector() Vector3 {
	raR := RadOf(p.RA)
	declR := RadOf(p.Decl)
	cosDecl := math.Cos(declR)
	return Vector3{
		X: math.Cos(raR) * cosDecl,
		Y: math.Sin(raR) * cosDecl,
		Z: math.Sin(declR),
	}
}

// PointFromVector converts a (not necessarily unit) Cartesian vector to
// spherical coordinates.
func PointFromVector(v Vector3) Point {
	norm := math.Sqrt(v.X*v.X + v.Y*v.Y + v.Z*v.Z)
	if norm == 0 {
		return Point{}
	}
	decl := DegOf(math.Asin(v.Z / norm))
	ra := DegOf(math.Atan2(v.Y, v.X))
	return NewPoint(ra, decl)
}

// Dot returns the dot product of two vectors.
func (v Vector3) Dot(o Vector3) float64 { return v.X*o.X + v.Y*o.Y + v.Z*o.Z }

// Cross returns the cross product of two vectors.
func (v Vector3) Cross(o Vector3) Vector3 {
	return Vector3{
		X: v.Y*o.Z - v.Z*o.Y,
		Y: v.Z*o.X - v.X*o.Z,
		Z: v.X*o.Y - v.Y*o.X,
	}
}

// Norm returns the Euclidean norm of the vector.
func (v Vector3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// AngSepDeg returns the angular separation between two points in degrees.
//
// It uses the haversine formulation, which is numerically stable for both
// small and near-antipodal separations. This is the geometry behind the
// qserv_angSep() UDF installed on worker databases (section 5.3).
func AngSepDeg(ra1, decl1, ra2, decl2 float64) float64 {
	ra1R, decl1R := RadOf(ra1), RadOf(decl1)
	ra2R, decl2R := RadOf(ra2), RadOf(decl2)
	sinDDecl := math.Sin((decl2R - decl1R) / 2)
	sinDRA := math.Sin((ra2R - ra1R) / 2)
	a := sinDDecl*sinDDecl + math.Cos(decl1R)*math.Cos(decl2R)*sinDRA*sinDRA
	if a < 0 {
		a = 0
	}
	if a > 1 {
		a = 1
	}
	return DegOf(2 * math.Asin(math.Sqrt(a)))
}

// AngSep returns the angular separation between two Points in degrees.
func AngSep(p, q Point) float64 { return AngSepDeg(p.RA, p.Decl, q.RA, q.Decl) }

// Region is a closed area on the sphere that can test point membership
// and report an RA/decl bounding box.
type Region interface {
	// Contains reports whether the point lies inside the region
	// (boundary inclusive).
	Contains(p Point) bool
	// Bound returns a Box that contains the region.
	Bound() Box
	// String renders the region for diagnostics.
	String() string
}

// Box is a spherical rectangle: a declination band intersected with a
// right-ascension range. The RA range may wrap through 360 (RAMin > RAMax
// means the box crosses the 0/360 meridian). This is the shape behind the
// qserv_areaspec_box() pseudo-function (section 5.3).
type Box struct {
	RAMin, RAMax     float64 // degrees; wraps when RAMin > RAMax
	DeclMin, DeclMax float64 // degrees
}

// NewBox builds a Box from possibly unnormalized bounds. Declination
// bounds are clamped and swapped if reversed; RA bounds are wrapped. An RA
// extent >= 360 degrees produces a full-circle box.
func NewBox(raMin, raMax, declMin, declMax float64) Box {
	if declMin > declMax {
		declMin, declMax = declMax, declMin
	}
	if raMax-raMin >= 360 {
		return Box{RAMin: 0, RAMax: 360, DeclMin: ClampDecl(declMin), DeclMax: ClampDecl(declMax)}
	}
	return Box{
		RAMin:   WrapRA(raMin),
		RAMax:   wrapRAMax(raMax),
		DeclMin: ClampDecl(declMin),
		DeclMax: ClampDecl(declMax),
	}
}

// wrapRAMax wraps an upper RA bound to (0, 360]: unlike WrapRA, an upper
// bound of exactly 360 stays 360 so that [0, 360] means the full circle.
func wrapRAMax(ra float64) float64 {
	w := WrapRA(ra)
	if w == 0 && ra != 0 {
		return 360
	}
	return w
}

// FullSky is the box covering the entire sphere.
func FullSky() Box { return Box{RAMin: 0, RAMax: 360, DeclMin: -90, DeclMax: 90} }

// IsFullCircle reports whether the box spans all right ascensions.
func (b Box) IsFullCircle() bool { return b.RAMin == 0 && b.RAMax == 360 }

// Wraps reports whether the box's RA interval crosses the 0/360 meridian.
func (b Box) Wraps() bool { return b.RAMin > b.RAMax }

// RAExtent returns the box width in right ascension, degrees.
func (b Box) RAExtent() float64 {
	if b.Wraps() {
		return 360 - b.RAMin + b.RAMax
	}
	return b.RAMax - b.RAMin
}

// ContainsRA reports whether a right ascension falls in the box's RA range.
func (b Box) ContainsRA(ra float64) bool {
	if b.IsFullCircle() {
		return true
	}
	ra = WrapRA(ra)
	if b.Wraps() {
		return ra >= b.RAMin || ra <= b.RAMax
	}
	return ra >= b.RAMin && ra <= b.RAMax
}

// Contains reports whether the point lies inside the box.
func (b Box) Contains(p Point) bool {
	if p.Decl < b.DeclMin || p.Decl > b.DeclMax {
		return false
	}
	return b.ContainsRA(p.RA)
}

// Bound returns the box itself.
func (b Box) Bound() Box { return b }

// Area returns the solid angle of the box in square degrees.
func (b Box) Area() float64 {
	dz := math.Sin(RadOf(b.DeclMax)) - math.Sin(RadOf(b.DeclMin))
	return b.RAExtent() * dz * degPerRad
}

// Dilated returns the box grown by the given margin in degrees on every
// side. The RA margin is widened by 1/cos(decl) at the declination of
// largest absolute value so that the margin is a true angular distance,
// mirroring how Qserv computes overlap near the poles. A box whose dilated
// declination band touches a pole becomes full-circle in RA.
func (b Box) Dilated(margin float64) Box {
	if margin <= 0 {
		return b
	}
	declMin := b.DeclMin - margin
	declMax := b.DeclMax + margin
	if declMin <= -90+Epsilon || declMax >= 90-Epsilon {
		return Box{RAMin: 0, RAMax: 360, DeclMin: ClampDecl(declMin), DeclMax: ClampDecl(declMax)}
	}
	maxAbs := math.Max(math.Abs(declMin), math.Abs(declMax))
	raMargin := margin / math.Cos(RadOf(maxAbs))
	if b.RAExtent()+2*raMargin >= 360 {
		return Box{RAMin: 0, RAMax: 360, DeclMin: declMin, DeclMax: declMax}
	}
	return Box{
		RAMin:   WrapRA(b.RAMin - raMargin),
		RAMax:   wrapRAMax(b.RAMax + raMargin),
		DeclMin: declMin,
		DeclMax: declMax,
	}
}

// Intersects reports whether two boxes share any point.
func (b Box) Intersects(o Box) bool {
	if b.DeclMax < o.DeclMin || o.DeclMax < b.DeclMin {
		return false
	}
	return b.raIntersects(o)
}

func (b Box) raIntersects(o Box) bool {
	if b.IsFullCircle() || o.IsFullCircle() {
		return true
	}
	bi := b.raIntervals()
	oi := o.raIntervals()
	for _, x := range bi {
		for _, y := range oi {
			if x[0] <= y[1] && y[0] <= x[1] {
				return true
			}
		}
	}
	return false
}

// raIntervals returns the box's RA coverage as non-wrapping intervals.
func (b Box) raIntervals() [][2]float64 {
	if b.Wraps() {
		return [][2]float64{{b.RAMin, 360}, {0, b.RAMax}}
	}
	return [][2]float64{{b.RAMin, b.RAMax}}
}

// String renders the box like the paper's areaspec arguments.
func (b Box) String() string {
	return fmt.Sprintf("box(%g, %g, %g, %g)", b.RAMin, b.DeclMin, b.RAMax, b.DeclMax)
}

// Circle is a spherical cap: all points within Radius degrees of Center.
type Circle struct {
	Center Point
	Radius float64 // degrees
}

// NewCircle builds a circle, clamping the radius to [0, 180].
func NewCircle(center Point, radius float64) Circle {
	if radius < 0 {
		radius = 0
	}
	if radius > 180 {
		radius = 180
	}
	return Circle{Center: center, Radius: radius}
}

// Contains reports whether the point lies within the cap.
func (c Circle) Contains(p Point) bool { return AngSep(c.Center, p) <= c.Radius+Epsilon }

// Bound returns the RA/decl bounding box of the cap.
func (c Circle) Bound() Box {
	declMin := c.Center.Decl - c.Radius
	declMax := c.Center.Decl + c.Radius
	if declMin <= -90+Epsilon || declMax >= 90-Epsilon {
		return Box{RAMin: 0, RAMax: 360, DeclMin: ClampDecl(declMin), DeclMax: ClampDecl(declMax)}
	}
	// Width of the cap in RA at its widest point.
	sinR := math.Sin(RadOf(c.Radius))
	cosD := math.Cos(RadOf(c.Center.Decl))
	x := sinR / cosD
	if x >= 1 {
		return Box{RAMin: 0, RAMax: 360, DeclMin: declMin, DeclMax: declMax}
	}
	dRA := DegOf(math.Asin(x))
	return NewBox(c.Center.RA-dRA, c.Center.RA+dRA, declMin, declMax)
}

// Area returns the solid angle of the cap in square degrees.
func (c Circle) Area() float64 {
	h := 1 - math.Cos(RadOf(c.Radius))
	return 2 * math.Pi * h * degPerRad * degPerRad
}

// String renders the circle like qserv_areaspec_circle arguments.
func (c Circle) String() string {
	return fmt.Sprintf("circle(%g, %g, %g)", c.Center.RA, c.Center.Decl, c.Radius)
}
