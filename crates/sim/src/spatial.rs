//! Uniform-grid spatial hash over [`Vec2`] point sets.
//!
//! City-scale runs ask two geometric questions millions of times per
//! round: "which readers cover this tag?" (coverage) and "which tags sit
//! within interference range of this slot?" (neighborhood). Answering
//! them by scanning every point is O(n·m); the spatial hash bins points
//! into a uniform grid so a disc query touches only the cells the disc
//! overlaps.
//!
//! Layout is CSR (compressed sparse rows), rebuilt by a counting sort
//! whenever the points move: `starts[c]..starts[c + 1]` indexes the slice
//! of `entries` holding the point indices of cell `c`. Everything is flat
//! `Vec`s that keep their capacity across rebuilds, so steady-state
//! rebuilds allocate nothing.
//!
//! Determinism: cells are visited row-major, and the counting sort is
//! stable, so entries within a cell stay in ascending point-index order.
//! Query results are therefore a pure function of the input — no hashing
//! of floats, no iteration-order surprises.
//!
//! Distance tests use [`Vec2::dist_sq`] against `r²` — boundary
//! inclusive (a point exactly on the disc rim is returned), one `sqrt`
//! cheaper per candidate than [`Vec2::distance_to`].

use crate::geom::Vec2;

/// A uniform-grid spatial index over a point set.
///
/// The grid covers a fixed world rectangle; points outside it are
/// clamped to the nearest edge cell (they are still found by queries
/// whose disc reaches the edge, and the exact `dist_sq` filter rejects
/// them otherwise). Build once with [`SpatialHash::new`], then
/// [`SpatialHash::rebuild`] each time the points move.
pub struct SpatialHash {
    origin: Vec2,
    cell_size: f64,
    nx: usize,
    ny: usize,
    /// CSR row starts: `starts[c]..starts[c+1]` is cell `c`'s slice of
    /// `entries`. Length `nx * ny + 1`.
    starts: Vec<u32>,
    /// Point indices, grouped by cell, ascending within each cell.
    entries: Vec<u32>,
    /// Counting-sort write cursors (scratch, kept for its capacity).
    cursor: Vec<u32>,
}

impl SpatialHash {
    /// An empty grid covering the rectangle `min..=max` with square cells
    /// of side `cell_size` (the last row/column may overhang `max`).
    ///
    /// # Panics
    /// Panics if `cell_size` is not positive and finite, or if `max` is
    /// not strictly greater than `min` on both axes.
    pub fn new(min: Vec2, max: Vec2, cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive"
        );
        assert!(
            max.x > min.x && max.y > min.y,
            "grid bounds must be non-degenerate"
        );
        let nx = ((max.x - min.x) / cell_size).ceil().max(1.0) as usize;
        let ny = ((max.y - min.y) / cell_size).ceil().max(1.0) as usize;
        SpatialHash {
            origin: min,
            cell_size,
            nx,
            ny,
            starts: vec![0; nx * ny + 1],
            entries: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// Number of grid columns.
    pub fn cols(&self) -> usize {
        self.nx
    }

    /// Number of grid rows.
    pub fn rows(&self) -> usize {
        self.ny
    }

    /// Number of indexed points (as of the last rebuild).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `(col, row)` cell containing `p`, clamped to the grid.
    pub fn cell_of(&self, p: Vec2) -> (usize, usize) {
        let cx = ((p.x - self.origin.x) / self.cell_size).floor();
        let cy = ((p.y - self.origin.y) / self.cell_size).floor();
        (
            (cx.max(0.0) as usize).min(self.nx - 1),
            (cy.max(0.0) as usize).min(self.ny - 1),
        )
    }

    fn cell_index(&self, col: usize, row: usize) -> usize {
        row * self.nx + col
    }

    /// Re-bins `points` into the grid with a stable counting sort.
    /// Allocation-free once the internal vectors have warmed up to the
    /// point-count high-water mark.
    pub fn rebuild(&mut self, points: &[Vec2]) {
        let cells = self.nx * self.ny;
        self.starts.clear();
        self.starts.resize(cells + 1, 0);
        for &p in points {
            let (cx, cy) = self.cell_of(p);
            let c = self.cell_index(cx, cy);
            self.starts[c + 1] += 1;
        }
        for c in 0..cells {
            self.starts[c + 1] += self.starts[c];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..cells]);
        self.entries.clear();
        self.entries.resize(points.len(), 0);
        for (i, &p) in points.iter().enumerate() {
            let (cx, cy) = self.cell_of(p);
            let c = self.cell_index(cx, cy);
            self.entries[self.cursor[c] as usize] = i as u32;
            self.cursor[c] += 1;
        }
    }

    /// The point indices binned into cell `(col, row)`, ascending.
    pub fn cell_entries(&self, col: usize, row: usize) -> &[u32] {
        let c = self.cell_index(col, row);
        &self.entries[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// Calls `visit(index)` for every indexed point within `radius` of
    /// `center` (boundary inclusive: `dist_sq <= radius²`). Visits cells
    /// row-major and points in ascending index order within each cell —
    /// a deterministic order, identical on every run.
    pub fn for_each_in_disc<F: FnMut(u32)>(
        &self,
        points: &[Vec2],
        center: Vec2,
        radius: f64,
        mut visit: F,
    ) {
        let r_sq = radius * radius;
        let (cx0, cy0) = self.cell_of(Vec2::new(center.x - radius, center.y - radius));
        let (cx1, cy1) = self.cell_of(Vec2::new(center.x + radius, center.y + radius));
        for row in cy0..=cy1 {
            for col in cx0..=cx1 {
                for &idx in self.cell_entries(col, row) {
                    if points[idx as usize].dist_sq(center) <= r_sq {
                        visit(idx);
                    }
                }
            }
        }
    }

    /// Collects the indices within `radius` of `center` into `out`
    /// (cleared first; boundary inclusive; deterministic order as in
    /// [`SpatialHash::for_each_in_disc`]).
    pub fn query_disc_into(&self, points: &[Vec2], center: Vec2, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        self.for_each_in_disc(points, center, radius, |idx| out.push(idx));
    }

    /// The nearest indexed point within `radius` of `center` (boundary
    /// inclusive), or `None` if the disc is empty. Exact distance ties
    /// break toward the lower point index, so the answer is deterministic.
    pub fn nearest_within(&self, points: &[Vec2], center: Vec2, radius: f64) -> Option<u32> {
        let mut best: Option<(f64, u32)> = None;
        self.for_each_in_disc(points, center, radius, |idx| {
            let d = points[idx as usize].dist_sq(center);
            // Strict `<` keeps the first (lowest-index) point on ties:
            // the visit order is ascending per cell and a tie at equal
            // distance across cells still resolves by index below.
            let better = match best {
                None => true,
                Some((bd, bi)) => d < bd || (d == bd && idx < bi),
            };
            if better {
                best = Some((d, idx));
            }
        });
        best.map(|(_, idx)| idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid10() -> SpatialHash {
        SpatialHash::new(Vec2::ORIGIN, Vec2::new(10.0, 10.0), 1.0)
    }

    fn brute_force(points: &[Vec2], center: Vec2, radius: f64) -> Vec<u32> {
        let mut hit: Vec<u32> = (0..points.len() as u32)
            .filter(|&i| points[i as usize].dist_sq(center) <= radius * radius)
            .collect();
        hit.sort_unstable();
        hit
    }

    #[test]
    fn grid_dimensions_cover_bounds() {
        let h = SpatialHash::new(Vec2::new(-1.0, -1.0), Vec2::new(4.0, 2.5), 1.0);
        assert_eq!((h.cols(), h.rows()), (5, 4));
    }

    #[test]
    fn rebuild_bins_points_in_index_order() {
        let mut h = grid10();
        let pts = [
            Vec2::new(2.5, 3.5), // cell (2, 3)
            Vec2::new(0.5, 0.5), // cell (0, 0)
            Vec2::new(2.6, 3.4), // cell (2, 3) again, later index
        ];
        h.rebuild(&pts);
        assert_eq!(h.len(), 3);
        assert_eq!(h.cell_entries(0, 0), &[1]);
        assert_eq!(h.cell_entries(2, 3), &[0, 2]); // stable: ascending
        assert_eq!(h.cell_entries(9, 9), &[] as &[u32]);
    }

    #[test]
    fn disc_query_matches_brute_force() {
        let mut h = grid10();
        // Deterministic scatter, including duplicates and cell boundaries.
        let mut pts = Vec::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = (x >> 32) as f64 / u32::MAX as f64 * 10.0;
            let b = (x & 0xFFFF_FFFF) as f64 / u32::MAX as f64 * 10.0;
            pts.push(Vec2::new(a, b));
        }
        h.rebuild(&pts);
        for (center, radius) in [
            (Vec2::new(5.0, 5.0), 2.0),
            (Vec2::new(0.0, 0.0), 3.5),
            (Vec2::new(9.9, 9.9), 1.0),
            (Vec2::new(5.0, 5.0), 20.0), // disc covers the whole grid
        ] {
            let mut got = Vec::new();
            h.query_disc_into(&pts, center, radius, &mut got);
            let mut sorted = got.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, brute_force(&pts, center, radius));
        }
    }

    #[test]
    fn disc_query_is_boundary_inclusive() {
        let mut h = grid10();
        // 3-4-5 triangle: exactly on the rim of a radius-5 disc.
        let pts = [Vec2::new(4.0, 6.0)];
        h.rebuild(&pts);
        let center = Vec2::new(1.0, 2.0);
        let mut got = Vec::new();
        h.query_disc_into(&pts, center, 5.0, &mut got);
        assert_eq!(got, [0], "rim point must be inside the disc");
        h.query_disc_into(&pts, center, 4.999, &mut got);
        assert!(got.is_empty());
    }

    #[test]
    fn out_of_bounds_points_clamp_to_edge_cells() {
        let mut h = grid10();
        let pts = [Vec2::new(-3.0, 5.0), Vec2::new(12.0, 12.0)];
        h.rebuild(&pts);
        assert_eq!(h.cell_of(pts[0]), (0, 5));
        assert_eq!(h.cell_of(pts[1]), (9, 9));
        // A disc reaching past the edge still finds the outside point...
        let mut got = Vec::new();
        h.query_disc_into(&pts, Vec2::new(0.5, 5.0), 4.0, &mut got);
        assert_eq!(got, [0]);
        // ...and an interior disc near the clamped cell rejects it by
        // exact distance.
        h.query_disc_into(&pts, Vec2::new(0.5, 5.0), 1.0, &mut got);
        assert!(got.is_empty());
    }

    #[test]
    fn nearest_within_breaks_ties_by_index() {
        let mut h = grid10();
        // Two points equidistant from the probe, in different cells.
        let pts = [
            Vec2::new(6.0, 5.0),
            Vec2::new(4.0, 5.0),
            Vec2::new(5.0, 5.4),
        ];
        h.rebuild(&pts);
        let probe = Vec2::new(5.0, 5.0);
        assert_eq!(h.nearest_within(&pts, probe, 2.0), Some(2));
        // Remove the closest: tie between 0 and 1 resolves to index 0.
        let pts2 = [Vec2::new(6.0, 5.0), Vec2::new(4.0, 5.0)];
        h.rebuild(&pts2);
        assert_eq!(h.nearest_within(&pts2, probe, 2.0), Some(0));
        assert_eq!(h.nearest_within(&pts2, probe, 0.5), None);
    }

    #[test]
    fn rebuild_is_idempotent_and_reusable() {
        let mut h = grid10();
        let pts = [Vec2::new(1.5, 1.5), Vec2::new(8.5, 8.5)];
        h.rebuild(&pts);
        h.rebuild(&pts);
        assert_eq!(h.cell_entries(1, 1), &[0]);
        assert_eq!(h.cell_entries(8, 8), &[1]);
        // Rebuild with a different set reuses the structure.
        h.rebuild(&[Vec2::new(2.5, 2.5)]);
        assert_eq!(h.len(), 1);
        assert_eq!(h.cell_entries(1, 1), &[] as &[u32]);
        assert_eq!(h.cell_entries(2, 2), &[0]);
    }
}
