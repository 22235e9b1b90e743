//! Lower convex hulls of miss curves.
//!
//! Talus traces the convex hull of the underlying policy's miss curve
//! (paper §III, Theorem 6). The hull is "the curve produced by stretching a
//! taut rubber band across the curve from below": the tightest convex
//! function that never exceeds the original curve on its domain.
//!
//! The paper computes hulls with the three-coins algorithm [31]; for a curve
//! that is already sorted by size (a function, not a general polygon), the
//! standard single-pass monotone-chain scan used here is the same
//! stack-based linear-time procedure.

use std::fmt;

use crate::curve::{interpolate, interpolate_from, CurvePoint, MissCurve};

/// The lower convex hull of a [`MissCurve`].
///
/// A hull is itself a piecewise-linear curve whose vertices are a subset of
/// the original curve's points, beginning at the curve's first point and
/// ending at its last. Between vertices it *bridges* non-convex regions
/// (plateaus followed by cliffs) with straight chords — exactly the segments
/// Talus realises by shadow partitioning.
///
/// # Examples
///
/// ```
/// use talus_core::MissCurve;
/// // Plateau from 2 to 4 MB, cliff at 5 MB (paper Fig. 3 shape).
/// let curve = MissCurve::from_samples(
///     &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0],
///     &[24.0, 18.0, 12.0, 12.0, 12.0, 3.0, 3.0],
/// )?;
/// let hull = curve.convex_hull();
/// // The hull bridges the plateau: vertices at 0, 2, 5 and 10 MB.
/// let sizes: Vec<f64> = hull.vertices().iter().map(|p| p.size).collect();
/// assert_eq!(sizes, vec![0.0, 2.0, 5.0, 10.0]);
/// # Ok::<(), talus_core::CurveError>(())
/// ```
#[derive(Clone)]
pub struct ConvexHull {
    vertices: Vec<CurvePoint>,
    /// The curve's points, staged for the scan: scratch, not state.
    staged: Vec<CurvePoint>,
}

impl ConvexHull {
    /// Computes the lower convex hull of `curve` in a single linear pass.
    ///
    /// A fresh hull allocates two buffers, its vertices and the points it
    /// stages for the scan; a caller that hulls curve after curve keeps one
    /// hull and [`assign`](Self::assign)s it.
    pub fn of_curve(curve: &MissCurve) -> ConvexHull {
        let mut hull = ConvexHull {
            vertices: Vec::new(),
            staged: Vec::new(),
        };
        hull.assign(curve);
        hull
    }

    /// Makes `self` the hull of `curve`, reusing its buffers: equal to
    /// `*self = ConvexHull::of_curve(curve)`, but once the buffers have
    /// held a curve this long nothing is allocated. This is what lets a
    /// caller that plans interval after interval (a shard's epoch, a
    /// simulated LLC) keep its hulls in scratch it owns.
    ///
    /// # Examples
    ///
    /// ```
    /// use talus_core::MissCurve;
    /// let cliff = MissCurve::from_samples(&[0.0, 1.0, 2.0, 3.0], &[9.0, 9.0, 1.0, 1.0])?;
    /// let line = MissCurve::from_samples(&[0.0, 4.0], &[8.0, 0.0])?;
    /// let mut hull = cliff.convex_hull();
    /// hull.assign(&line);
    /// assert_eq!(hull, line.convex_hull());
    /// # Ok::<(), talus_core::CurveError>(())
    /// ```
    pub fn assign(&mut self, curve: &MissCurve) {
        // The curve keeps its sizes and miss values apart; the scan reads
        // points. They are interleaved into the hull's own buffer first —
        // one vectorised pass — so the scan pushes each point as the one
        // 16-byte copy its next pop test loads back. A scan that built its
        // points from the two arrays ran 2.5× slower (the stack top
        // written as two halves misses store forwarding), and one that
        // worked in place over the staged points up to 35 % slower than
        // this on convex curves (ISSUE 25).
        self.staged.clear();
        self.staged.extend(
            curve
                .sizes()
                .iter()
                .zip(curve.misses())
                .map(|(&size, &misses)| CurvePoint { size, misses }),
        );
        // Vertices are a subset of the points: sized for all of them, the
        // stack never regrows.
        let mut stack = std::mem::take(&mut self.vertices);
        stack.clear();
        stack.reserve(self.staged.len());
        self.vertices = scan(stack, &self.staged);
    }

    /// The hull's vertices: the points where the hull touches the original
    /// curve, in increasing size order.
    pub fn vertices(&self) -> &[CurvePoint] {
        &self.vertices
    }

    /// Number of hull vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the hull has no vertices. Always `false` for a hull built
    /// from a valid curve; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Smallest size covered by the hull.
    pub fn min_size(&self) -> f64 {
        self.vertices[0].size
    }

    /// Largest size covered by the hull.
    pub fn max_size(&self) -> f64 {
        self.vertices[self.vertices.len() - 1].size
    }

    /// Evaluates the hull at `size` (piecewise-linear, clamped outside the
    /// domain).
    pub fn value_at(&self, size: f64) -> f64 {
        interpolate(self.vertices.as_slice(), size)
    }

    /// [`value_at`](Self::value_at) for callers that evaluate a run of
    /// nearby sizes: `cursor` carries the segment found by the previous
    /// call (start it at `0`), and the next segment is found by walking
    /// from there instead of by binary search. The result is bit-identical
    /// to `value_at(size)` whatever the cursor holds; with non-decreasing
    /// sizes a whole sweep costs `O(vertices + calls)`. This is what lets
    /// an allocator climb the hull itself rather than a copy of it.
    ///
    /// # Examples
    ///
    /// ```
    /// use talus_core::MissCurve;
    /// let hull = MissCurve::from_samples(&[0.0, 2.0, 5.0], &[24.0, 12.0, 3.0])?.convex_hull();
    /// let mut cursor = 0;
    /// for size in [0.0, 1.0, 2.0, 3.5, 9.0] {
    ///     assert_eq!(hull.value_at_from(&mut cursor, size), hull.value_at(size));
    /// }
    /// # Ok::<(), talus_core::CurveError>(())
    /// ```
    #[inline]
    pub fn value_at_from(&self, cursor: &mut usize, size: f64) -> f64 {
        interpolate_from(self.vertices.as_slice(), cursor, size)
    }

    /// The neighbouring hull vertices around `size` (Theorem 6's α and β):
    /// α is the largest vertex size ≤ `size`, β the smallest vertex size
    /// > `size`.
    ///
    /// Returns `None` if `size` lies outside the hull's domain, or if `size`
    /// is at (or beyond) the last vertex, where no bracketing pair exists
    /// and the cache should run unpartitioned.
    ///
    /// # Examples
    ///
    /// ```
    /// use talus_core::MissCurve;
    /// let curve = MissCurve::from_samples(
    ///     &[0.0, 2.0, 3.0, 4.0, 5.0, 10.0],
    ///     &[24.0, 12.0, 12.0, 12.0, 3.0, 3.0],
    /// )?;
    /// let hull = curve.convex_hull();
    /// let (alpha, beta) = hull.bracket(4.0).unwrap();
    /// assert_eq!((alpha.size, beta.size), (2.0, 5.0)); // paper §III
    /// # Ok::<(), talus_core::CurveError>(())
    /// ```
    pub fn bracket(&self, size: f64) -> Option<(CurvePoint, CurvePoint)> {
        if size < self.min_size() || size >= self.max_size() {
            return None;
        }
        // Index of the first vertex with vertex.size > size.
        let idx = self.vertices.partition_point(|v| v.size <= size);
        debug_assert!(idx >= 1 && idx < self.vertices.len());
        Some((self.vertices[idx - 1], self.vertices[idx]))
    }

    /// Whether `size` coincides (within `tol`) with a hull vertex — i.e. a
    /// size where the original policy is already efficient and Talus leaves
    /// the cache effectively unpartitioned.
    pub fn is_vertex(&self, size: f64, tol: f64) -> bool {
        self.vertices.iter().any(|v| (v.size - size).abs() <= tol)
    }

    /// Converts the hull into a [`MissCurve`] over its vertices.
    ///
    /// This is the curve handed to partitioning algorithms in Talus's
    /// pre-processing step (paper §VI-A): guaranteed convex, so convex
    /// optimisation (hill climbing) is exact on it.
    pub fn to_curve(&self) -> MissCurve {
        MissCurve::new(self.vertices.iter().copied()).expect("hull vertices are valid curve points")
    }

    /// Converts the hull into a [`MissCurve`] sampled on the given grid.
    ///
    /// # Errors
    ///
    /// Returns an error if `grid` is empty or not strictly increasing.
    pub fn to_curve_on_grid(&self, grid: &[f64]) -> Result<MissCurve, crate::CurveError> {
        MissCurve::new(grid.iter().map(|&s| CurvePoint::new(s, self.value_at(s))))
    }
}

/// The monotone-chain scan — the one place a hull is computed — on an
/// empty stack with room for every point, which it returns holding the
/// vertices. The stack is passed by value so the loop runs on a local it
/// owns.
#[inline(always)]
fn scan(mut hull: Vec<CurvePoint>, points: &[CurvePoint]) -> Vec<CurvePoint> {
    debug_assert!(!points.is_empty() && hull.is_empty());
    for &p in points {
        // Pop the last hull vertex while it lies on or above the chord
        // from its predecessor to `p` (non-left turn in the lower hull).
        while hull.len() >= 2 {
            let a = hull[hull.len() - 2];
            let b = hull[hull.len() - 1];
            // Cross product of (b - a) x (p - a); b is kept only if it
            // lies strictly below the chord a->p.
            let cross = (b.size - a.size) * (p.misses - a.misses)
                - (b.misses - a.misses) * (p.size - a.size);
            if cross <= 0.0 {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(p);
    }
    hull
}

/// Hulls are equal when their vertices are: the staged points are
/// scratch.
impl PartialEq for ConvexHull {
    fn eq(&self, other: &Self) -> bool {
        self.vertices == other.vertices
    }
}

impl fmt::Debug for ConvexHull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConvexHull")
            .field("vertices", &self.vertices)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_curve() -> MissCurve {
        MissCurve::from_samples(
            &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0],
            &[24.0, 18.0, 12.0, 12.0, 12.0, 3.0, 3.0],
        )
        .unwrap()
    }

    #[test]
    fn hull_of_fig3_bridges_the_plateau() {
        let hull = fig3_curve().convex_hull();
        let sizes: Vec<f64> = hull.vertices().iter().map(|p| p.size).collect();
        assert_eq!(sizes, vec![0.0, 2.0, 5.0, 10.0]);
        // Talus's §III headline number: 6 MPKI at 4 MB.
        assert!((hull.value_at(4.0) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn hull_of_convex_curve_is_identity() {
        let c = MissCurve::from_samples(&[0.0, 2.0, 5.0, 10.0], &[24.0, 12.0, 3.0, 3.0]).unwrap();
        let hull = c.convex_hull();
        assert!(hull.vertices().iter().copied().eq(c.iter()));
    }

    #[test]
    fn hull_of_single_point() {
        let c = MissCurve::from_samples(&[4.0], &[7.0]).unwrap();
        let hull = c.convex_hull();
        assert_eq!(hull.len(), 1);
        assert_eq!(hull.value_at(0.0), 7.0);
        assert_eq!(hull.value_at(9.0), 7.0);
        assert_eq!(hull.bracket(4.0), None);
    }

    #[test]
    fn hull_of_two_points() {
        let c = MissCurve::from_samples(&[0.0, 8.0], &[10.0, 2.0]).unwrap();
        let hull = c.convex_hull();
        assert_eq!(hull.len(), 2);
        assert_eq!(hull.value_at(4.0), 6.0);
    }

    #[test]
    fn hull_never_exceeds_curve() {
        let c = fig3_curve();
        let hull = c.convex_hull();
        for i in 0..=100 {
            let s = 10.0 * i as f64 / 100.0;
            assert!(
                hull.value_at(s) <= c.value_at(s) + 1e-12,
                "hull above curve at {s}"
            );
        }
    }

    #[test]
    fn hull_is_convex() {
        let hull = fig3_curve().convex_hull();
        assert!(hull.to_curve().is_convex(1e-12));
    }

    #[test]
    fn hull_drops_collinear_interior_points() {
        // Points on a straight line: only the endpoints are vertices.
        let c = MissCurve::from_samples(&[0.0, 1.0, 2.0, 3.0], &[6.0, 4.0, 2.0, 0.0]).unwrap();
        let hull = c.convex_hull();
        assert_eq!(hull.len(), 2);
        assert_eq!(hull.vertices()[0], CurvePoint::new(0.0, 6.0));
        assert_eq!(hull.vertices()[1], CurvePoint::new(3.0, 0.0));
    }

    #[test]
    fn hull_handles_libquantum_shape() {
        // Flat at 33 until 32, then zero: hull is the chord from (0,33) to
        // (32,0), then flat.
        let sizes: Vec<f64> = (0..=40).map(|i| i as f64).collect();
        let misses: Vec<f64> = sizes
            .iter()
            .map(|&s| if s < 32.0 { 33.0 } else { 0.1 })
            .collect();
        let c = MissCurve::from_samples(&sizes, &misses).unwrap();
        let hull = c.convex_hull();
        assert_eq!(hull.vertices()[0].size, 0.0);
        assert!(hull.is_vertex(32.0, 1e-9));
        // Halfway along, Talus gets roughly half the misses.
        let mid = hull.value_at(16.0);
        assert!((mid - 33.0 / 2.0).abs() < 0.2, "got {mid}");
    }

    #[test]
    fn value_at_from_matches_value_at_for_any_cursor_and_order() {
        let hull = fig3_curve().convex_hull();
        let sizes = [-1.0, 0.0, 0.5, 2.0, 4.9, 5.0, 7.0, 10.0, 11.0];
        // Forward, backward, and from every (even out-of-range) cursor.
        let mut cursor = 0;
        for &s in sizes.iter().chain(sizes.iter().rev()) {
            let got = hull.value_at_from(&mut cursor, s);
            assert_eq!(got.to_bits(), hull.value_at(s).to_bits(), "size {s}");
        }
        for start in 0..hull.len() + 3 {
            for &s in &sizes {
                let got = hull.value_at_from(&mut { start }, s);
                assert_eq!(got.to_bits(), hull.value_at(s).to_bits());
            }
        }
        let point = MissCurve::from_samples(&[4.0], &[7.0])
            .unwrap()
            .convex_hull();
        assert_eq!(point.value_at_from(&mut 0, 9.0), 7.0);
    }

    #[test]
    fn bracket_at_vertex_returns_next_segment() {
        let hull = fig3_curve().convex_hull();
        // At an interior vertex, alpha == the vertex itself.
        let (a, b) = hull.bracket(2.0).unwrap();
        assert_eq!(a.size, 2.0);
        assert_eq!(b.size, 5.0);
    }

    #[test]
    fn bracket_outside_domain_is_none() {
        let hull = fig3_curve().convex_hull();
        assert_eq!(hull.bracket(-1.0), None);
        assert_eq!(hull.bracket(10.0), None);
        assert_eq!(hull.bracket(11.0), None);
    }

    #[test]
    fn bracket_of_paper_example() {
        let hull = fig3_curve().convex_hull();
        let (a, b) = hull.bracket(4.0).unwrap();
        assert_eq!(a.size, 2.0);
        assert_eq!(b.size, 5.0);
        assert_eq!(a.misses, 12.0);
        assert_eq!(b.misses, 3.0);
    }

    #[test]
    fn to_curve_on_grid_resamples() {
        let hull = fig3_curve().convex_hull();
        let c = hull.to_curve_on_grid(&[0.0, 4.0, 8.0]).unwrap();
        assert!((c.value_at(4.0) - 6.0).abs() < 1e-9);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn hull_touches_curve_at_vertices() {
        let c = fig3_curve();
        let hull = c.convex_hull();
        for v in hull.vertices() {
            assert!((c.value_at(v.size) - v.misses).abs() < 1e-12);
        }
    }

    #[test]
    fn hull_of_noisy_nonmonotone_curve() {
        let c = MissCurve::from_samples(&[0.0, 1.0, 2.0, 3.0, 4.0], &[10.0, 8.5, 9.0, 4.0, 4.2])
            .unwrap();
        let hull = c.convex_hull();
        assert!(hull.to_curve().is_convex(1e-12));
        for p in &c {
            assert!(hull.value_at(p.size) <= p.misses + 1e-12);
        }
    }
}
