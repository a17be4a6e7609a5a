package geom

import (
	"fmt"
	"math"
)

// VQuery is a generalized vertical query segment: the vertical line x = X
// restricted to YLo ≤ y ≤ YHi. Open bounds (±Inf) turn it into a ray or a
// full line, covering all three query shapes of the paper. Queries with a
// different fixed angular coefficient are handled by rotating the data into
// this frame; see Rotation.
type VQuery struct {
	X        float64
	YLo, YHi float64
}

// VSeg returns the vertical segment query x = x0, a ≤ y ≤ b. The two
// bounds may be given in either order.
func VSeg(x0, a, b float64) VQuery {
	if a > b {
		a, b = b, a
	}
	return VQuery{X: x0, YLo: a, YHi: b}
}

// VRayUp returns the upward ray query x = x0, y ≥ a.
func VRayUp(x0, a float64) VQuery { return VQuery{X: x0, YLo: a, YHi: math.Inf(1)} }

// VRayDown returns the downward ray query x = x0, y ≤ b.
func VRayDown(x0, b float64) VQuery { return VQuery{X: x0, YLo: math.Inf(-1), YHi: b} }

// VLine returns the full vertical line query x = x0: the classical stabbing
// query that prior segment-database work supports.
func VLine(x0 float64) VQuery {
	return VQuery{X: x0, YLo: math.Inf(-1), YHi: math.Inf(1)}
}

func (q VQuery) String() string {
	return fmt.Sprintf("VS(x=%g, %g..%g)", q.X, q.YLo, q.YHi)
}

// Hits reports whether segment s intersects the query segment.
func (q VQuery) Hits(s Segment) bool {
	if q.X < s.MinX() || q.X > s.MaxX() {
		return false
	}
	if s.IsVertical() {
		// Both on the line x = q.X: 1-D interval intersection.
		return s.MinY() <= q.YHi && q.YLo <= s.MaxY()
	}
	y := s.YAt(q.X)
	return q.YLo <= y && y <= q.YHi
}

// FilterHits returns the subset of segs intersecting q, in input order.
// It is the O(N) reference answer used by tests and the scan baseline.
func (q VQuery) FilterHits(segs []Segment) []Segment {
	var out []Segment
	for _, s := range segs {
		if q.Hits(s) {
			out = append(out, s)
		}
	}
	return out
}

// Rotation is an origin-centred plane rotation. Queries with an arbitrary
// fixed angular coefficient are supported by rotating the database into a
// frame where the query direction is vertical (paper, footnote 1), building
// the index there, and rotating queries on the way in.
type Rotation struct {
	cos, sin float64
}

// RotationAligning returns the rotation that maps direction dir to the
// positive y axis. dir must be non-zero.
func RotationAligning(dir Point) Rotation {
	n := math.Hypot(dir.X, dir.Y)
	if n == 0 {
		panic("geom: RotationAligning of zero direction")
	}
	// We need R·dir = (0, n) with R = [[c, -s], [s, c]]:
	// c·dx - s·dy = 0 and s·dx + c·dy = n  ⇒  c = dy/n, s = dx/n.
	return Rotation{cos: dir.Y / n, sin: dir.X / n}
}

// Apply rotates a point.
func (r Rotation) Apply(p Point) Point {
	return Point{X: r.cos*p.X - r.sin*p.Y, Y: r.sin*p.X + r.cos*p.Y}
}

// Inverse returns the opposite rotation.
func (r Rotation) Inverse() Rotation { return Rotation{cos: r.cos, sin: -r.sin} }

// ApplySeg rotates both endpoints of a segment, preserving its ID.
func (r Rotation) ApplySeg(s Segment) Segment {
	return Segment{ID: s.ID, A: r.Apply(s.A), B: r.Apply(s.B)}
}

// ApplySegs rotates a whole set, returning a new slice.
func (r Rotation) ApplySegs(segs []Segment) []Segment {
	out := make([]Segment, len(segs))
	for i, s := range segs {
		out[i] = r.ApplySeg(s)
	}
	return out
}

// ApplyQuery maps a query segment given by two endpoints in the original
// frame to a VQuery in the rotated frame. The rotated endpoints must share
// an x coordinate up to floating-point noise; the mean is used.
func (r Rotation) ApplyQuery(a, b Point) VQuery {
	pa, pb := r.Apply(a), r.Apply(b)
	return VSeg((pa.X+pb.X)/2, pa.Y, pb.Y)
}
