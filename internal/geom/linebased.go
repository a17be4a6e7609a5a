package geom

import "fmt"

// Side tells on which side of a vertical base line a set of line-based
// segments extends. Section 2 of the paper presents line-based segments
// over a horizontal base line; the two-level structures of Sections 3–4
// use vertical base lines (the structures L(v)/L_i hold fragments extending
// left of a boundary, R(v)/R_i fragments extending right), so this package
// works in the vertical frame natively.
type Side int

// The two sides of a vertical base line.
const (
	SideLeft  Side = -1 // segments lie in the half-plane x ≤ base
	SideRight Side = 1  // segments lie in the half-plane x ≥ base
)

func (s Side) String() string {
	if s == SideLeft {
		return "left"
	}
	return "right"
}

// BaseFar splits a line-based segment into its endpoint lying on the base
// line x = baseX and the other ("far") endpoint. If both endpoints lie on
// the base line, A is the base. If neither does, BaseFar panics: such a
// segment is not line-based, and storing it is a bug in the caller.
func BaseFar(s Segment, baseX float64) (base, far Point) {
	switch {
	case s.A.X == baseX:
		return s.A, s.B
	case s.B.X == baseX:
		return s.B, s.A
	default:
		panic(fmt.Sprintf("geom: segment %v is not based on x=%g", s, baseX))
	}
}

// IsLineBased reports whether s has an endpoint exactly on x = baseX and
// lies entirely in the half-plane of the given side.
func IsLineBased(s Segment, baseX float64, side Side) bool {
	if s.A.X != baseX && s.B.X != baseX {
		return false
	}
	if side == SideLeft {
		return s.MaxX() == baseX
	}
	return s.MinX() == baseX
}

// Reach returns how far a line-based segment extends from its base line,
// as a non-negative distance on the given side. It is the priority used by
// the external priority search trees: the analogue of the "topmost y-value
// endpoint" in the paper's horizontal presentation.
func Reach(s Segment, baseX float64, side Side) float64 {
	_, far := BaseFar(s, baseX)
	return (far.X - baseX) * float64(side)
}

// QueryReach returns the distance of a query line x = x0 from the base
// line on the given side. A line-based segment can intersect the query only
// if its Reach is at least this value. Negative means the query is on the
// other side of the base line and nothing can intersect it.
func QueryReach(x0, baseX float64, side Side) float64 {
	return (x0 - baseX) * float64(side)
}

// BaseY returns the y coordinate of the base endpoint: the key ordering
// segments "with respect to their intersections with the base line".
func BaseY(s Segment, baseX float64) float64 {
	base, _ := BaseFar(s, baseX)
	return base.Y
}

// SpansX reports whether the vertical line x = x0 meets the segment's x
// extent, so that YAt(x0) is defined.
func SpansX(s Segment, x0 float64) bool {
	return s.MinX() <= x0 && x0 <= s.MaxX()
}

// SideReach returns how far a segment spanning the base line x = baseX
// extends beyond it on the given side: the priority of the segment's
// side-part in the priority search trees. It is ≥ 0 whenever the segment
// spans or touches the base line.
func SideReach(s Segment, baseX float64, side Side) float64 {
	if side == SideRight {
		return s.MaxX() - baseX
	}
	return baseX - s.MinX()
}

// Slant orders segments sharing a base point on x = baseX: the rate at
// which the segment's y changes per unit of distance from the base line
// on the given side. Two non-crossing segments with equal base y diverge
// in slant order.
func Slant(s Segment, baseX float64, side Side) float64 {
	r := SideReach(s, baseX, side)
	if r == 0 {
		return 0
	}
	return (FarYAt(s, side) - s.YAt(baseX)) / r
}

// BaseLess is the total base-line order (baseY, slant, ID) both external
// priority search trees keep their segments in. A stored segment need not
// have an endpoint on the base line: Sections 3–4 store each crossing
// segment once per side, its crossing point acting as the base endpoint of
// the paper's clipped "left and right parts". On an NCT set this order
// agrees with the order of crossings at every line the side-parts reach,
// which the trees' window pruning rests on (DESIGN §5.1).
func BaseLess(a, b Segment, baseX float64, side Side) bool {
	ab, bb := a.YAt(baseX), b.YAt(baseX)
	if ab != bb {
		return ab < bb
	}
	as, bs := Slant(a, baseX, side), Slant(b, baseX, side)
	if as != bs {
		return as < bs
	}
	return a.ID < b.ID
}

// FarYAt returns the y coordinate of the segment's extreme endpoint on
// the given side of the base line.
func FarYAt(s Segment, side Side) float64 {
	a, b := s.A, s.B
	if (side == SideRight && b.X > a.X) || (side == SideLeft && b.X < a.X) {
		return b.Y
	}
	return a.Y
}

// ClipAt splits a segment crossing the vertical line x = x0 into its left
// and right parts, both of which are line-based on x = x0. The caller must
// ensure s properly spans x0 (MinX < x0 < MaxX would be the strict case;
// endpoints exactly on x0 produce a degenerate part, which callers route
// around).
func ClipAt(s Segment, x0 float64) (left, right Segment) {
	mid := Point{X: x0, Y: s.YAt(x0)}
	l, r := s.A, s.B
	if l.X > r.X {
		l, r = r, l
	}
	return Segment{ID: s.ID, A: l, B: mid}, Segment{ID: s.ID, A: mid, B: r}
}
