package sim

import (
	"math"
	"time"

	"nwade/internal/geom"
)

// spatialGrid is a uniform hash grid over vehicle ground-truth positions.
// It replaces the engine's O(V²) all-pairs scans for neighbor sensing,
// legacy gap acceptance, collision detection, and IM visibility with
// O(V + candidates) queries. The grid is rebuilt from scratch twice per
// tick (once after spawning for the physics phase, once after physics for
// the protocol phase); a rebuild is a single O(V) pass, which is far
// cheaper than the scans it replaces. Cell buckets are truncated in place
// and reused across rebuilds, so a warm grid allocates nothing.
//
// Cell edge length equals the sensing radius, so a radius query touches
// at most the 3×3 block of cells around the center (plus slack overhang).
//
// Queries share the grid's one scratch, so they must not nest: no query
// callback may start another query.
type spatialGrid struct {
	cell  float64
	cells map[gridKey][]*body
	// Query scratch: the candidate buffer for unordered queries and the
	// k-way-merge state for ordered ones.
	cand  []*body
	lists [][]*body
	heads []int
}

// gridKey addresses one cell.
type gridKey struct{ x, y int32 }

// newSpatialGrid sizes the grid for the given query radius.
func newSpatialGrid(cell float64) *spatialGrid {
	if cell < 1 {
		cell = 1
	}
	return &spatialGrid{cell: cell, cells: make(map[gridKey][]*body)}
}

// keyAt returns the cell containing p.
func (g *spatialGrid) keyAt(p geom.Vec2) gridKey {
	return gridKey{
		x: int32(math.Floor(p.X / g.cell)),
		y: int32(math.Floor(p.Y / g.cell)),
	}
}

// rebuild reindexes every body present at now. Insertion follows the
// engine's deterministic iteration order, so each cell's slice preserves
// spawn order. Existing buckets are truncated and refilled in place.
func (g *spatialGrid) rebuild(all []*body, now time.Duration) {
	for k, s := range g.cells {
		g.cells[k] = s[:0]
	}
	for _, b := range all {
		if !b.present(now) {
			continue
		}
		k := g.keyAt(b.pos())
		g.cells[k] = append(g.cells[k], b)
	}
}

// gather collects every body whose indexed position lies within r+slack
// of center into the candidate buffer. Slack widens the query when bodies
// may have moved since the last rebuild (the physics phase updates
// positions mid-tick); callers always apply the exact live-position
// predicate themselves.
func (g *spatialGrid) gather(center geom.Vec2, r, slack float64) []*body {
	rr := r + slack
	x0 := int32(math.Floor((center.X - rr) / g.cell))
	x1 := int32(math.Floor((center.X + rr) / g.cell))
	y0 := int32(math.Floor((center.Y - rr) / g.cell))
	y1 := int32(math.Floor((center.Y + rr) / g.cell))
	g.cand = g.cand[:0]
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			// Skip cells whose nearest point is beyond the query disk.
			nx := clamp(center.X, float64(x)*g.cell, float64(x+1)*g.cell)
			ny := clamp(center.Y, float64(y)*g.cell, float64(y+1)*g.cell)
			dx, dy := center.X-nx, center.Y-ny
			if dx*dx+dy*dy > rr*rr {
				continue
			}
			g.cand = append(g.cand, g.cells[gridKey{x, y}]...)
		}
	}
	return g.cand
}

// forEach calls fn for each candidate within r+slack of center, in no
// particular order, stopping early when fn returns false. Use for
// existence queries and minimum searches, where order cannot affect the
// result.
func (g *spatialGrid) forEach(center geom.Vec2, r, slack float64, fn func(*body) bool) {
	for _, b := range g.gather(center, r, slack) {
		if !fn(b) {
			return
		}
	}
}

// forEachOrdered calls fn for each candidate within r+slack of center in
// the engine's iteration order (ascending spawn index), preserving the
// exact neighbor ordering of the sequential all-pairs scan. Each cell's
// slice is already in spawn order (rebuild inserts along the engine's
// body list), so the global order falls out of a k-way merge over the few
// cells in the query box — no sort.
func (g *spatialGrid) forEachOrdered(center geom.Vec2, r, slack float64, fn func(*body) bool) {
	rr := r + slack
	x0 := int32(math.Floor((center.X - rr) / g.cell))
	x1 := int32(math.Floor((center.X + rr) / g.cell))
	y0 := int32(math.Floor((center.Y - rr) / g.cell))
	y1 := int32(math.Floor((center.Y + rr) / g.cell))
	g.lists = g.lists[:0]
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			nx := clamp(center.X, float64(x)*g.cell, float64(x+1)*g.cell)
			ny := clamp(center.Y, float64(y)*g.cell, float64(y+1)*g.cell)
			dx, dy := center.X-nx, center.Y-ny
			if dx*dx+dy*dy > rr*rr {
				continue
			}
			if cell := g.cells[gridKey{x, y}]; len(cell) > 0 {
				g.lists = append(g.lists, cell)
			}
		}
	}
	g.heads = g.heads[:0]
	for range g.lists {
		g.heads = append(g.heads, 0)
	}
	for {
		best := -1
		for i, h := range g.heads {
			if h < len(g.lists[i]) &&
				(best == -1 || g.lists[i][h].orderIdx < g.lists[best][g.heads[best]].orderIdx) {
				best = i
			}
		}
		if best == -1 {
			return
		}
		b := g.lists[best][g.heads[best]]
		g.heads[best]++
		if !fn(b) {
			return
		}
	}
}

// clamp restricts v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
