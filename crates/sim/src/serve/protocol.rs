//! The wire protocol's vocabulary: how a request's members are read, the
//! limits on a request line and a sweep, the error line, and the
//! interpolation surfaces a `query` is answered from.

use std::fmt::Write as _;

use crate::experiment::Table;
use crate::json::Flat;

/// Hard per-request cap on `sweep` grid size. A sweep expands on the
/// handler thread into per-point flights and (worst case) one queued
/// job per point, so the cap bounds what one request line can pin in
/// memory; larger campaigns split into multiple requests.
pub const MAX_SWEEP_SEEDS: u64 = 4096;

/// The longest request line a connection reads, newline excluded. Every
/// request the protocol defines is a flat object well under 1 KiB; a
/// peer that sends more than this without a newline gets
/// `"error":"line_too_long"` and the connection is closed, so one
/// connection's line buffer never outgrows this.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Numeric member `key`, parsed from its lexeme: `Ok(None)` if absent,
/// `bad_request` if present but not a `T`.
pub(super) fn num<T: std::str::FromStr>(req: &Flat, key: &str) -> Result<Option<T>, &'static str> {
    req.get(key)
        .map(|v| v.as_num().and_then(|n| n.parse().ok()).ok_or("bad_request"))
        .transpose()
}

/// String member `key`: `Ok(None)` if absent, `bad_request` if present
/// but not a string.
pub(super) fn text<'a>(req: &Flat<'a>, key: &str) -> Result<Option<&'a str>, &'static str> {
    req.get(key)
        .map(|v| v.as_str().ok_or("bad_request"))
        .transpose()
}

/// Writes the uniform error response.
pub(super) fn write_err(out: &mut String, id: u64, code: &str) {
    let _ = writeln!(out, "{{\"id\":{id},\"ok\":false,\"error\":\"{code}\"}}");
}

/// The grid corners a query answer was interpolated between — returned
/// in every `query` response so a consumer can audit how far from a
/// simulated sample the value sits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) struct Provenance {
    /// Lower x grid corner.
    pub(super) x0: f64,
    /// Upper x grid corner.
    pub(super) x1: f64,
    /// Lower y grid corner (2-D surfaces only).
    pub(super) y0: Option<f64>,
    /// Upper y grid corner (2-D surfaces only).
    pub(super) y1: Option<f64>,
}

/// A sweep table re-shaped for interpolated point queries: a strictly
/// ordered x axis (and, for 2-D surfaces, a y axis spanning a complete
/// rectangular grid) with one value series per remaining column.
/// Queries *inside* the grid interpolate (linear / bilinear); queries
/// outside it are refused — the daemon never extrapolates.
pub(super) struct Surface {
    xs: Vec<f64>,
    ys: Vec<f64>, // empty = 1-D
    cols: Vec<String>,
    vals: Vec<f64>, // [point-major][column]
}

/// A resolved query position: bracketing indices plus interpolation
/// weights along each axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) struct Bracket {
    x_lo: usize,
    x_hi: usize,
    tx: f64,
    y_lo: usize,
    y_hi: usize,
    ty: f64,
}

impl Surface {
    /// Builds a surface from `table`. 1-D: column 0 must be strictly
    /// increasing and at least one value column must follow. 2-D:
    /// columns 0/1 are the x/y axes and the rows must cover a complete
    /// rectangular grid, each cell exactly once. Returns `None` for any
    /// table that does not satisfy the shape (NaN axis values, duplicate
    /// or missing grid cells, non-monotonic axes).
    pub(super) fn from_table(table: &Table, two_d: bool) -> Option<Surface> {
        if two_d {
            Self::from_table_2d(table)
        } else {
            Self::from_table_1d(table)
        }
    }

    fn from_table_1d(table: &Table) -> Option<Surface> {
        let columns = table.columns();
        if columns.len() < 2 || table.is_empty() {
            return None;
        }
        let xs = table.column(0);
        if xs.iter().any(|v| v.is_nan()) || xs.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        let cols: Vec<String> = columns[1..].to_vec();
        let mut vals = Vec::with_capacity(table.len() * cols.len());
        for row in 0..table.len() {
            for col in 1..columns.len() {
                vals.push(table.cell(row, col));
            }
        }
        Some(Surface {
            xs,
            ys: Vec::new(),
            cols,
            vals,
        })
    }

    fn from_table_2d(table: &Table) -> Option<Surface> {
        let columns = table.columns();
        if columns.len() < 3 || table.is_empty() {
            return None;
        }
        let raw_x = table.column(0);
        let raw_y = table.column(1);
        if raw_x.iter().chain(raw_y.iter()).any(|v| v.is_nan()) {
            return None;
        }
        let mut xs = raw_x.clone();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        let mut ys = raw_y.clone();
        ys.sort_by(f64::total_cmp);
        ys.dedup();
        if xs.len() < 2 || ys.len() < 2 || xs.len() * ys.len() != table.len() {
            return None;
        }
        let ncols = columns.len() - 2;
        let mut vals = vec![f64::NAN; table.len() * ncols];
        let mut seen = vec![false; table.len()];
        for row in 0..table.len() {
            let xi = xs.iter().position(|&v| v == raw_x[row])?;
            let yi = ys.iter().position(|&v| v == raw_y[row])?;
            let cell = xi * ys.len() + yi;
            if seen[cell] {
                return None; // duplicate grid cell
            }
            seen[cell] = true;
            for col in 0..ncols {
                vals[cell * ncols + col] = table.cell(row, col + 2);
            }
        }
        let cols: Vec<String> = columns[2..].to_vec();
        Some(Surface { xs, ys, cols, vals })
    }

    /// Value-column names, in table order.
    pub(super) fn columns(&self) -> &[String] {
        &self.cols
    }

    /// Whether this surface interpolates over two axes.
    pub(super) fn is_2d(&self) -> bool {
        !self.ys.is_empty()
    }

    fn bracket_axis(axis: &[f64], v: f64) -> Option<(usize, usize, f64)> {
        let (first, last) = (*axis.first()?, *axis.last()?);
        if !(v >= first && v <= last) {
            return None; // also rejects NaN
        }
        let i = axis.partition_point(|&a| a <= v);
        let hi = i.min(axis.len() - 1).max(1);
        let lo = hi - 1;
        let span = axis[hi] - axis[lo];
        let t = if span == 0.0 {
            0.0
        } else {
            (v - axis[lo]) / span
        };
        Some((lo, hi, t))
    }

    /// Resolves a query position to its bracketing grid cell, or
    /// `Err("out_of_range")` if it falls outside the grid (no
    /// extrapolation) or the dimensionality disagrees with the surface.
    pub(super) fn bracket(&self, x: f64, y: Option<f64>) -> Result<Bracket, &'static str> {
        if self.is_2d() != y.is_some() {
            return Err("out_of_range");
        }
        let (x_lo, x_hi, tx) = Self::bracket_axis(&self.xs, x).ok_or("out_of_range")?;
        let (y_lo, y_hi, ty) = match y {
            Some(y) => Self::bracket_axis(&self.ys, y).ok_or("out_of_range")?,
            None => (0, 0, 0.0),
        };
        Ok(Bracket {
            x_lo,
            x_hi,
            tx,
            y_lo,
            y_hi,
            ty,
        })
    }

    /// Interpolated value of column `col` at a resolved position —
    /// linear in 1-D, bilinear in 2-D; exact at grid points.
    pub(super) fn value_at(&self, b: &Bracket, col: usize) -> f64 {
        let ncols = self.cols.len();
        let lerp = |a: f64, z: f64, t: f64| a + (z - a) * t;
        if self.ys.is_empty() {
            let lo = self.vals[b.x_lo * ncols + col];
            let hi = self.vals[b.x_hi * ncols + col];
            lerp(lo, hi, b.tx)
        } else {
            let h = self.ys.len();
            let at = |xi: usize, yi: usize| self.vals[(xi * h + yi) * ncols + col];
            let low = lerp(at(b.x_lo, b.y_lo), at(b.x_hi, b.y_lo), b.tx);
            let high = lerp(at(b.x_lo, b.y_hi), at(b.x_hi, b.y_hi), b.tx);
            lerp(low, high, b.ty)
        }
    }

    /// The grid corners of a resolved position.
    pub(super) fn provenance(&self, b: &Bracket) -> Provenance {
        Provenance {
            x0: self.xs[b.x_lo],
            x1: self.xs[b.x_hi],
            y0: (!self.ys.is_empty()).then(|| self.ys[b.y_lo]),
            y1: (!self.ys.is_empty()).then(|| self.ys[b.y_hi]),
        }
    }
}
