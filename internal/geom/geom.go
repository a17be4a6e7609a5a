// Package geom provides the planar geometry underlying segment databases:
// points, segments, intersection predicates, the vertical-segment (VS)
// query of Bertino, Catania and Shidlovsky (EDBT 1998), line-based segment
// helpers for the priority-search-tree structures of the paper's Section 2,
// and the non-crossing-but-touching (NCT) validity check.
package geom

import (
	"fmt"
	"math"
	"math/big"
)

// ErrInvalidSegment marks a segment the index structures reject: a zero
// ID or degenerate (zero-length) geometry. The structures wrap it, so
// callers across the stack — down to the HTTP write path — can map it to
// a client error with errors.Is.
var ErrInvalidSegment = fmt.Errorf("invalid segment")

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Segment is a plane segment with an application-assigned identifier.
// Degenerate (zero-length) segments are permitted by the predicates but
// rejected by the index structures.
type Segment struct {
	ID   uint64
	A, B Point
}

// Seg constructs a segment from raw coordinates.
func Seg(id uint64, x1, y1, x2, y2 float64) Segment {
	return Segment{ID: id, A: Point{x1, y1}, B: Point{x2, y2}}
}

func (s Segment) String() string {
	return fmt.Sprintf("#%d(%g,%g)-(%g,%g)", s.ID, s.A.X, s.A.Y, s.B.X, s.B.Y)
}

// MinX returns the smaller x coordinate of the two endpoints.
func (s Segment) MinX() float64 { return math.Min(s.A.X, s.B.X) }

// MaxX returns the larger x coordinate of the two endpoints.
func (s Segment) MaxX() float64 { return math.Max(s.A.X, s.B.X) }

// MinY returns the smaller y coordinate of the two endpoints.
func (s Segment) MinY() float64 { return math.Min(s.A.Y, s.B.Y) }

// MaxY returns the larger y coordinate of the two endpoints.
func (s Segment) MaxY() float64 { return math.Max(s.A.Y, s.B.Y) }

// IsVertical reports whether both endpoints share an x coordinate.
func (s Segment) IsVertical() bool { return s.A.X == s.B.X }

// IsPoint reports whether the segment is degenerate.
func (s Segment) IsPoint() bool { return s.A == s.B }

// Orient returns the sign of the signed area of the triangle (p, q, r):
// +1 if r lies to the left of the directed line p→q, -1 if to the right,
// 0 if the three points are collinear.
//
// The predicate is exact for all finite inputs: a Shewchuk-style error
// filter accepts the fast floating-point sign when it is provably
// correct, and near-degenerate cases fall back to exact rational
// arithmetic. Without this, nearly-collinear triples classify
// inconsistently under argument reversal — found by FuzzRelateSymmetry
// and fatal to the non-crossing invariants everything above relies on.
func Orient(p, q, r Point) int {
	detLeft := (q.X - p.X) * (r.Y - p.Y)
	detRight := (q.Y - p.Y) * (r.X - p.X)
	det := detLeft - detRight

	// Error filter (cf. Shewchuk's orient2d): the float result's sign is
	// trustworthy when |det| exceeds the worst-case rounding error of the
	// two products and the subtraction.
	const errBoundFactor = 3.3306690738754716e-16 // (3 + 16ε)·ε
	errBound := errBoundFactor * (math.Abs(detLeft) + math.Abs(detRight))
	if det > errBound {
		return 1
	}
	if -det > errBound {
		return -1
	}
	if detLeft == 0 && detRight == 0 {
		return 0
	}
	return orientExact(p, q, r)
}

// orientExact evaluates the orientation determinant in exact rational
// arithmetic. Non-finite coordinates (possible only through direct
// predicate calls, never from the index structures) degrade to the float
// sign.
func orientExact(p, q, r Point) int {
	for _, v := range []float64{p.X, p.Y, q.X, q.Y, r.X, r.Y} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			det := (q.X-p.X)*(r.Y-p.Y) - (q.Y-p.Y)*(r.X-p.X)
			switch {
			case det > 0:
				return 1
			case det < 0:
				return -1
			default:
				return 0
			}
		}
	}
	rat := func(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }
	ax := new(big.Rat).Sub(rat(q.X), rat(p.X))
	ay := new(big.Rat).Sub(rat(q.Y), rat(p.Y))
	bx := new(big.Rat).Sub(rat(r.X), rat(p.X))
	by := new(big.Rat).Sub(rat(r.Y), rat(p.Y))
	det := new(big.Rat).Sub(new(big.Rat).Mul(ax, by), new(big.Rat).Mul(ay, bx))
	return det.Sign()
}

// onSegment reports whether p, known to be collinear with s, lies within
// s's bounding box (and therefore on s).
func onSegment(s Segment, p Point) bool {
	return s.MinX() <= p.X && p.X <= s.MaxX() &&
		s.MinY() <= p.Y && p.Y <= s.MaxY()
}

// YAt returns the y coordinate at which s crosses the vertical line x = x0.
// The caller must ensure s spans x0 and is not vertical; YAt on a vertical
// segment returns the A endpoint's y.
func (s Segment) YAt(x0 float64) float64 {
	if s.A.X == s.B.X {
		return s.A.Y
	}
	// Interpolate from the nearer endpoint for stability, and return the
	// endpoint y exactly when x0 is an endpoint x.
	if x0 == s.A.X {
		return s.A.Y
	}
	if x0 == s.B.X {
		return s.B.Y
	}
	return s.A.Y + (s.B.Y-s.A.Y)*(x0-s.A.X)/(s.B.X-s.A.X)
}

// XAt returns the x coordinate at which s crosses the horizontal line
// y = y0, symmetric to YAt.
func (s Segment) XAt(y0 float64) float64 {
	if s.A.Y == s.B.Y {
		return s.A.X
	}
	if y0 == s.A.Y {
		return s.A.X
	}
	if y0 == s.B.Y {
		return s.B.X
	}
	return s.A.X + (s.B.X-s.A.X)*(y0-s.A.Y)/(s.B.Y-s.A.Y)
}

// Relation classifies how two segments meet.
type Relation int

// The possible relations between two segments.
const (
	RelDisjoint Relation = iota // no common point
	RelTouch                    // exactly one common point, not interior to both
	RelCross                    // interiors cross at a single point
	RelOverlap                  // collinear with a shared sub-segment
)

func (r Relation) String() string {
	switch r {
	case RelDisjoint:
		return "disjoint"
	case RelTouch:
		return "touch"
	case RelCross:
		return "cross"
	case RelOverlap:
		return "overlap"
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// Relate classifies the intersection of two segments. Touching — sharing a
// single point that is an endpoint of at least one of the two — is what the
// NCT model allows; RelCross and RelOverlap violate it.
func Relate(s1, s2 Segment) Relation {
	d1 := Orient(s2.A, s2.B, s1.A)
	d2 := Orient(s2.A, s2.B, s1.B)
	d3 := Orient(s1.A, s1.B, s2.A)
	d4 := Orient(s1.A, s1.B, s2.B)

	if d1*d2 < 0 && d3*d4 < 0 {
		return RelCross
	}

	if d1 == 0 && d2 == 0 && d3 == 0 && d4 == 0 {
		// Collinear (or one/both degenerate): measure 1-D overlap along
		// the dominant axis.
		ax, bx := s1.MinX(), s1.MaxX()
		cx, dx := s2.MinX(), s2.MaxX()
		ay, by := s1.MinY(), s1.MaxY()
		cy, dy := s2.MinY(), s2.MaxY()
		lox, hix := math.Max(ax, cx), math.Min(bx, dx)
		loy, hiy := math.Max(ay, cy), math.Min(by, dy)
		if lox > hix || loy > hiy {
			return RelDisjoint
		}
		if lox == hix && loy == hiy {
			return RelTouch
		}
		return RelOverlap
	}

	// Non-collinear: any shared point must be an endpoint of one segment
	// lying on the other.
	switch {
	case d1 == 0 && onSegment(s2, s1.A),
		d2 == 0 && onSegment(s2, s1.B),
		d3 == 0 && onSegment(s1, s2.A),
		d4 == 0 && onSegment(s1, s2.B):
		return RelTouch
	}
	return RelDisjoint
}

// Intersects reports whether the two segments share at least one point.
func Intersects(s1, s2 Segment) bool { return Relate(s1, s2) != RelDisjoint }
