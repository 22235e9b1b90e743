//! Miss curves: miss rate as a function of cache size.
//!
//! A [`MissCurve`] is a piecewise-linear function from cache capacity to a
//! miss metric (misses per access, MPKI, raw miss counts — any linear,
//! non-negative unit works). Talus's theory (paper §IV) operates directly on
//! these curves: the Theorem-4 sampling transform, convex hulls, and shadow
//! partition planning all take and return [`MissCurve`]s.

use crate::error::CurveError;
use crate::hull::ConvexHull;

/// One sample of a miss curve: a cache size and the miss metric at that size.
///
/// Sizes are in abstract capacity units (the simulator uses cache lines;
/// figures use megabytes). Misses may be in any non-negative linear unit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CurvePoint {
    /// Cache capacity at which the miss metric was measured.
    pub size: f64,
    /// Miss metric at `size` (e.g. misses per kilo-instruction).
    pub misses: f64,
}

impl CurvePoint {
    /// Creates a curve point.
    ///
    /// # Examples
    ///
    /// ```
    /// use talus_core::CurvePoint;
    /// let p = CurvePoint::new(2.0, 12.0);
    /// assert_eq!(p.size, 2.0);
    /// assert_eq!(p.misses, 12.0);
    /// ```
    pub fn new(size: f64, misses: f64) -> Self {
        CurvePoint { size, misses }
    }
}

impl From<(f64, f64)> for CurvePoint {
    fn from((size, misses): (f64, f64)) -> Self {
        CurvePoint { size, misses }
    }
}

/// A miss curve: miss metric as a piecewise-linear function of cache size.
///
/// Invariants (enforced at construction):
/// - at least one point,
/// - sizes strictly increasing, finite, and non-negative,
/// - miss values finite and non-negative.
///
/// Miss curves are *not* required to be monotonically decreasing: measured
/// curves are noisy, and all the Talus math tolerates (and the convex hull
/// smooths over) local increases.
///
/// # Examples
///
/// The paper's §III example: an application that accesses 2 MB randomly and
/// 3 MB sequentially plateaus at 12 MPKI from 2 MB until a cliff at 5 MB.
///
/// ```
/// use talus_core::MissCurve;
/// let curve = MissCurve::from_samples(
///     &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0],
///     &[24.0, 18.0, 12.0, 12.0, 12.0, 3.0, 3.0],
/// )?;
/// assert_eq!(curve.value_at(4.0), 12.0); // plateau: no gain from 2 to 5 MB
/// let hull = curve.convex_hull();
/// let talus = hull.value_at(4.0);        // Talus target at 4 MB (paper §III)
/// assert!((talus - 6.0).abs() < 1e-9);
/// # Ok::<(), talus_core::CurveError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MissCurve {
    points: Vec<CurvePoint>,
}

impl MissCurve {
    /// Creates a miss curve from points, validating the invariants.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError`] if the points are empty, sizes are not strictly
    /// increasing, or any coordinate is negative or non-finite.
    pub fn new<I>(points: I) -> Result<Self, CurveError>
    where
        I: IntoIterator,
        I::Item: Into<CurvePoint>,
    {
        let points: Vec<CurvePoint> = points.into_iter().map(Into::into).collect();
        if points.is_empty() {
            return Err(CurveError::Empty);
        }
        // Nearly every curve passes the branch-free check; only one that
        // does not pays for the loop that says what, if anything, is
        // wrong with it.
        if !plainly_valid(&points) {
            if let Some(violation) = first_violation(&points) {
                return Err(violation);
            }
        }
        Ok(MissCurve { points })
    }

    /// Creates a miss curve from parallel slices of sizes and miss values.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::LengthMismatch`] if the slices differ in length,
    /// plus all the validation errors of [`MissCurve::new`].
    pub fn from_samples(sizes: &[f64], misses: &[f64]) -> Result<Self, CurveError> {
        if sizes.len() != misses.len() {
            return Err(CurveError::LengthMismatch {
                sizes: sizes.len(),
                misses: misses.len(),
            });
        }
        Self::new(sizes.iter().copied().zip(misses.iter().copied()))
    }

    /// Creates a curve on a uniform grid `0, step, 2*step, …` from miss values.
    ///
    /// This is the natural constructor for monitor output (e.g. a UMON with
    /// one counter per way).
    ///
    /// # Errors
    ///
    /// Returns [`CurveError`] if `misses` is empty, `step` is not positive,
    /// or any value is invalid.
    pub fn from_uniform(step: f64, misses: &[f64]) -> Result<Self, CurveError> {
        if !(step > 0.0) || !step.is_finite() {
            return Err(CurveError::InvalidSize {
                index: 0,
                value: step,
            });
        }
        Self::new(
            misses
                .iter()
                .enumerate()
                .map(|(i, &m)| CurvePoint::new(i as f64 * step, m)),
        )
    }

    /// Bytes one point occupies in the encoded form.
    pub const POINT_BYTES: usize = 16;

    /// Appends the curve's points to `out` in their one byte form: per
    /// point `size` then `misses`, each the little-endian IEEE-754 bit
    /// pattern, [`POINT_BYTES`](Self::POINT_BYTES) a point, no count and no
    /// padding. The wire protocol and the journal both carry exactly these
    /// bytes behind a count prefix of their own.
    ///
    /// # Examples
    ///
    /// ```
    /// use talus_core::MissCurve;
    /// let curve = MissCurve::from_samples(&[0.0, 4.0], &[8.0, 0.5])?;
    /// let mut bytes = vec![0xAA]; // appended to, never cleared
    /// curve.encode_points(&mut bytes);
    /// assert_eq!(bytes.len(), 1 + 2 * MissCurve::POINT_BYTES);
    /// assert_eq!(MissCurve::decode_points(&bytes[1..])?, curve);
    /// # Ok::<(), talus_core::CurveError>(())
    /// ```
    pub fn encode_points(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + Self::POINT_BYTES * self.points.len(), 0);
        let chunks = out[start..].chunks_exact_mut(Self::POINT_BYTES);
        for (chunk, p) in chunks.zip(&self.points) {
            let (size, misses) = chunk.split_at_mut(8);
            size.copy_from_slice(&p.size.to_bits().to_le_bytes());
            misses.copy_from_slice(&p.misses.to_bits().to_le_bytes());
        }
    }

    /// Decodes what [`encode_points`](Self::encode_points) wrote: one
    /// allocation, and the same validation as [`MissCurve::new`], so a
    /// decoded curve upholds every invariant a locally built one does and
    /// round-trips bit for bit.
    ///
    /// # Errors
    ///
    /// Every error of [`MissCurve::new`], for the same inputs;
    /// [`CurveError::LengthMismatch`] if `bytes` ends inside a point
    /// (readers slice exactly `count × POINT_BYTES`, so they never see it).
    pub fn decode_points(bytes: &[u8]) -> Result<Self, CurveError> {
        let chunks = bytes.chunks_exact(Self::POINT_BYTES);
        if !chunks.remainder().is_empty() {
            return Err(CurveError::LengthMismatch {
                sizes: chunks.len() + 1,
                misses: chunks.len(),
            });
        }
        let field = |raw: &[u8]| {
            let mut word = [0; 8];
            word.copy_from_slice(raw);
            f64::from_bits(u64::from_le_bytes(word))
        };
        Self::new(chunks.map(|chunk| {
            let (size, misses) = chunk.split_at(8);
            CurvePoint::new(field(size), field(misses))
        }))
    }

    /// The curve's sample points, in increasing size order.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the curve has no points. Always `false` for a constructed
    /// curve; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Smallest size covered by the curve.
    pub fn min_size(&self) -> f64 {
        self.points[0].size
    }

    /// Largest size covered by the curve.
    pub fn max_size(&self) -> f64 {
        self.points[self.points.len() - 1].size
    }

    /// Iterates over the curve's points.
    pub fn iter(&self) -> std::slice::Iter<'_, CurvePoint> {
        self.points.iter()
    }

    /// Evaluates the curve at `size` by piecewise-linear interpolation.
    ///
    /// Sizes outside the curve's domain are clamped to the nearest endpoint,
    /// mirroring how a real monitor can only report what it has observed.
    ///
    /// # Examples
    ///
    /// ```
    /// use talus_core::MissCurve;
    /// let c = MissCurve::from_samples(&[0.0, 4.0], &[8.0, 0.0])?;
    /// assert_eq!(c.value_at(1.0), 6.0);
    /// assert_eq!(c.value_at(99.0), 0.0); // clamped
    /// # Ok::<(), talus_core::CurveError>(())
    /// ```
    pub fn value_at(&self, size: f64) -> f64 {
        interpolate(&self.points, size)
    }

    /// Applies the Theorem-4 sampling transform: pseudo-randomly sampling a
    /// fraction `rho` of an access stream yields the miss curve
    /// `m'(s') = rho * m(s'/rho)`.
    ///
    /// The returned curve covers sizes `[rho * min_size, rho * max_size]`;
    /// a partition of size `s'` receiving a `rho` fraction of accesses
    /// behaves like a cache of size `s'/rho` seeing the full stream.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is not in `(0, 1]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use talus_core::MissCurve;
    /// let m = MissCurve::from_samples(&[0.0, 2.0, 5.0], &[24.0, 12.0, 3.0])?;
    /// let sampled = m.sampled(0.5);
    /// // Half the stream into a 1 MB partition behaves like a 2 MB cache,
    /// // contributing half of the 2 MB miss rate.
    /// assert_eq!(sampled.value_at(1.0), 6.0);
    /// # Ok::<(), talus_core::CurveError>(())
    /// ```
    pub fn sampled(&self, rho: f64) -> MissCurve {
        assert!(
            rho > 0.0 && rho <= 1.0 && rho.is_finite(),
            "sampling rate must be in (0, 1], got {rho}"
        );
        MissCurve {
            points: self
                .points
                .iter()
                .map(|p| CurvePoint::new(p.size * rho, p.misses * rho))
                .collect(),
        }
    }

    /// Evaluates the Theorem-4 transform at a single partition size:
    /// `rho * m(s'/rho)`, with the inner size clamped to the curve's domain.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is not in `(0, 1]`.
    pub fn sampled_value_at(&self, rho: f64, size: f64) -> f64 {
        assert!(
            rho > 0.0 && rho <= 1.0 && rho.is_finite(),
            "sampling rate must be in (0, 1], got {rho}"
        );
        rho * self.value_at(size / rho)
    }

    /// Computes the lower convex hull of this curve.
    ///
    /// The hull is the curve Talus traces (Theorem 6): the tight convex
    /// under-approximation of the measured miss curve.
    pub fn convex_hull(&self) -> ConvexHull {
        ConvexHull::of_curve(self)
    }

    /// Returns a copy of the curve with each miss value scaled by `factor`.
    ///
    /// Used to convert between units (misses per access ↔ MPKI given an
    /// access intensity) — both are linear, so scaling commutes with all the
    /// Talus math.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    pub fn scaled(&self, factor: f64) -> MissCurve {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "scale factor must be non-negative and finite, got {factor}"
        );
        MissCurve {
            points: self
                .points
                .iter()
                .map(|p| CurvePoint::new(p.size, p.misses * factor))
                .collect(),
        }
    }

    /// Pointwise sum of two curves resampled onto the union of their grids.
    ///
    /// Models the combined misses of two partitions observed side by side.
    pub fn sum(&self, other: &MissCurve) -> MissCurve {
        let mut sizes: Vec<f64> = self
            .points
            .iter()
            .map(|p| p.size)
            .chain(other.points.iter().map(|p| p.size))
            .collect();
        sizes.sort_by(|a, b| a.partial_cmp(b).expect("sizes are finite"));
        sizes.dedup();
        MissCurve {
            points: sizes
                .into_iter()
                .map(|s| CurvePoint::new(s, self.value_at(s) + other.value_at(s)))
                .collect(),
        }
    }

    /// Whether the curve is non-increasing within tolerance `tol`.
    ///
    /// Well-behaved miss curves never get worse with more capacity; measured
    /// curves can violate this slightly (sampling noise, Belady anomalies in
    /// non-stack policies).
    pub fn is_monotone(&self, tol: f64) -> bool {
        self.points
            .windows(2)
            .all(|w| w[1].misses <= w[0].misses + tol)
    }

    /// Whether the curve is convex within tolerance `tol`: every point lies
    /// on or below the chord of its neighbours (a convex function's chords
    /// lie above it), allowing violations up to `tol`.
    pub fn is_convex(&self, tol: f64) -> bool {
        self.points.windows(3).all(|w| {
            let chord = chord_value(w[0], w[2], w[1].size);
            w[1].misses <= chord + tol
        })
    }

    /// Returns the non-increasing envelope of the curve: each point's miss
    /// value replaced by the minimum over all sizes up to and including it.
    ///
    /// Useful to clean measured noise before computing hulls, since a miss
    /// curve that goes *up* with size is a measurement artifact.
    pub fn monotone_envelope(&self) -> MissCurve {
        let mut out = Vec::with_capacity(self.points.len());
        let mut best = f64::INFINITY;
        for p in &self.points {
            best = best.min(p.misses);
            out.push(CurvePoint::new(p.size, best));
        }
        MissCurve { points: out }
    }

    /// Resamples the curve onto an arbitrary increasing grid by linear
    /// interpolation (clamped outside the domain).
    ///
    /// # Errors
    ///
    /// Returns [`CurveError`] if the grid is empty or not strictly
    /// increasing.
    pub fn resampled(&self, grid: &[f64]) -> Result<MissCurve, CurveError> {
        MissCurve::new(grid.iter().map(|&s| CurvePoint::new(s, self.value_at(s))))
    }

    /// Area under the curve between `lo` and `hi` (trapezoidal), a scalar
    /// summary used by tests and ablations to compare curve quality.
    pub fn area(&self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "area bounds must be ordered");
        // Integrate the piecewise-linear function by visiting each knot.
        let mut knots: Vec<f64> = vec![lo, hi];
        for p in &self.points {
            if p.size > lo && p.size < hi {
                knots.push(p.size);
            }
        }
        knots.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        knots
            .windows(2)
            .map(|w| (self.value_at(w[0]) + self.value_at(w[1])) * 0.5 * (w[1] - w[0]))
            .sum()
    }
}

impl<'a> IntoIterator for &'a MissCurve {
    type Item = &'a CurvePoint;
    type IntoIter = std::slice::Iter<'a, CurvePoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

/// A sufficient condition for validity that needs no branch per point,
/// on the coordinates' bit patterns: a finite non-negative `f64` is one
/// whose bits, read as an integer, lie below infinity's, and among such
/// values integer order is numeric order. So three integer comparisons a
/// point — the size's bits above the previous size's (starting from −1,
/// which also rules the sign bit out) and below infinity's, the miss
/// value's below infinity's — accept every valid curve except one holding
/// a `-0.0`, which [`first_violation`] then clears.
fn plainly_valid(points: &[CurvePoint]) -> bool {
    const INFINITY: u64 = f64::INFINITY.to_bits();
    let mut ok = true;
    let mut prev = -1i64;
    for p in points {
        let size = p.size.to_bits() as i64;
        ok &= (prev < size) & (size < INFINITY as i64) & (p.misses.to_bits() < INFINITY);
        prev = size;
    }
    ok
}

/// What makes `points` an invalid curve, if anything does: the first
/// offending point, checked size, then miss value, then ordering. This
/// loop is the definition of validity; [`plainly_valid`] only spares most
/// curves the walk.
fn first_violation(points: &[CurvePoint]) -> Option<CurveError> {
    for (i, p) in points.iter().enumerate() {
        if !p.size.is_finite() || p.size < 0.0 {
            return Some(CurveError::InvalidSize {
                index: i,
                value: p.size,
            });
        }
        if !p.misses.is_finite() || p.misses < 0.0 {
            return Some(CurveError::InvalidMissValue {
                index: i,
                value: p.misses,
            });
        }
        if i > 0 && points[i - 1].size >= p.size {
            return Some(CurveError::NonIncreasingSizes { index: i });
        }
    }
    None
}

/// Piecewise-linear interpolation over sorted points, clamped at the ends.
pub(crate) fn interpolate(points: &[CurvePoint], size: f64) -> f64 {
    debug_assert!(!points.is_empty());
    if size <= points[0].size {
        return points[0].misses;
    }
    let last = points[points.len() - 1];
    if size >= last.size {
        return last.misses;
    }
    // Binary search for the segment containing `size`.
    let idx = points.partition_point(|p| p.size <= size);
    // points[idx-1].size <= size < points[idx].size
    chord_value(points[idx - 1], points[idx], size)
}

/// [`interpolate`] with the segment found by walking from `*cursor` (the
/// index of the segment's right end on the previous call) instead of by
/// binary search. Any cursor gives the same bits as [`interpolate`]; one
/// carried across calls with non-decreasing `size` makes a whole sweep
/// cost `O(points + calls)`.
pub(crate) fn interpolate_from(points: &[CurvePoint], cursor: &mut usize, size: f64) -> f64 {
    debug_assert!(!points.is_empty());
    if size <= points[0].size {
        return points[0].misses;
    }
    let last = points[points.len() - 1];
    if size >= last.size {
        return last.misses;
    }
    // points[0].size < size < last.size, so both walks stop in bounds.
    let mut idx = (*cursor).clamp(1, points.len() - 1);
    while points[idx].size <= size {
        idx += 1;
    }
    while points[idx - 1].size > size {
        idx -= 1;
    }
    *cursor = idx;
    chord_value(points[idx - 1], points[idx], size)
}

/// Value at `x` of the line through points `a` and `b`.
pub(crate) fn chord_value(a: CurvePoint, b: CurvePoint, x: f64) -> f64 {
    debug_assert!(b.size > a.size);
    let t = (x - a.size) / (b.size - a.size);
    a.misses + t * (b.misses - a.misses)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_curve() -> MissCurve {
        // §III example: 24 APKI; convex decline to 12 MPKI at 2 MB; plateau
        // at 12 MPKI until the cliff at 5 MB; 3 MPKI from there on.
        MissCurve::from_samples(
            &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0],
            &[24.0, 18.0, 12.0, 12.0, 12.0, 3.0, 3.0],
        )
        .unwrap()
    }

    #[test]
    fn new_rejects_empty() {
        assert_eq!(
            MissCurve::new(Vec::<CurvePoint>::new()).unwrap_err(),
            CurveError::Empty
        );
    }

    #[test]
    fn new_rejects_unsorted_sizes() {
        let err = MissCurve::from_samples(&[0.0, 2.0, 2.0], &[3.0, 2.0, 1.0]).unwrap_err();
        assert_eq!(err, CurveError::NonIncreasingSizes { index: 2 });
    }

    #[test]
    fn new_rejects_negative_misses() {
        let err = MissCurve::from_samples(&[0.0, 1.0], &[3.0, -0.5]).unwrap_err();
        assert!(matches!(err, CurveError::InvalidMissValue { index: 1, .. }));
    }

    #[test]
    fn new_rejects_nan_size() {
        let err = MissCurve::from_samples(&[0.0, f64::NAN], &[3.0, 1.0]).unwrap_err();
        assert!(matches!(err, CurveError::InvalidSize { index: 1, .. }));
    }

    #[test]
    fn new_rejects_negative_size() {
        let err = MissCurve::from_samples(&[-1.0, 2.0], &[3.0, 1.0]).unwrap_err();
        assert!(matches!(err, CurveError::InvalidSize { index: 0, .. }));
    }

    #[test]
    fn from_samples_rejects_length_mismatch() {
        let err = MissCurve::from_samples(&[0.0, 1.0], &[3.0]).unwrap_err();
        assert_eq!(
            err,
            CurveError::LengthMismatch {
                sizes: 2,
                misses: 1
            }
        );
    }

    #[test]
    fn from_uniform_builds_grid() {
        let c = MissCurve::from_uniform(2.0, &[10.0, 5.0, 1.0]).unwrap();
        assert_eq!(c.points()[2].size, 4.0);
        assert_eq!(c.value_at(1.0), 7.5);
    }

    #[test]
    fn from_uniform_rejects_bad_step() {
        assert!(MissCurve::from_uniform(0.0, &[1.0]).is_err());
        assert!(MissCurve::from_uniform(-1.0, &[1.0]).is_err());
    }

    #[test]
    fn value_at_interpolates_and_clamps() {
        let c = fig3_curve();
        assert_eq!(c.value_at(0.0), 24.0);
        assert_eq!(c.value_at(1.0), 18.0);
        assert_eq!(c.value_at(2.0), 12.0);
        assert_eq!(c.value_at(3.5), 12.0); // on the plateau
        assert_eq!(c.value_at(4.5), 7.5); // halfway down the cliff
        assert_eq!(c.value_at(5.0), 3.0);
        assert_eq!(c.value_at(100.0), 3.0);
        assert_eq!(c.value_at(-5.0), 24.0);
    }

    #[test]
    fn sampled_matches_theorem_4() {
        let c = fig3_curve();
        // rho = 1/3 as in the paper's worked example: the alpha partition of
        // size 2/3 MB behaves like a 2 MB cache seen by a third of accesses.
        let rho = 1.0 / 3.0;
        let s1 = rho * 2.0;
        let m1 = c.sampled(rho).value_at(s1);
        assert!((m1 - 12.0 / 3.0).abs() < 1e-12, "expected 4 MPKI, got {m1}");
        // The beta partition: 1-rho of accesses into 10/3 MB behaves like 5 MB.
        let rho2 = 1.0 - rho;
        let m2 = c.sampled(rho2).value_at(10.0 / 3.0);
        assert!((m2 - 2.0).abs() < 1e-12, "expected 2 MPKI, got {m2}");
    }

    #[test]
    fn sampled_value_at_agrees_with_sampled_curve() {
        let c = fig3_curve();
        for &rho in &[0.1, 0.25, 0.5, 0.9, 1.0] {
            for &s in &[0.0, 0.5, 1.0, 2.5, 4.0] {
                let a = c.sampled_value_at(rho, s);
                let b = c.sampled(rho).value_at(s);
                assert!((a - b).abs() < 1e-12, "rho={rho} s={s}: {a} vs {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sampling rate")]
    fn sampled_rejects_zero_rho() {
        fig3_curve().sampled(0.0);
    }

    #[test]
    #[should_panic(expected = "sampling rate")]
    fn sampled_rejects_rho_above_one() {
        fig3_curve().sampled(1.5);
    }

    #[test]
    fn scaled_converts_units() {
        let c = fig3_curve();
        let mpki = c.scaled(0.5);
        assert_eq!(mpki.value_at(2.0), 6.0);
    }

    #[test]
    fn sum_combines_partition_curves() {
        let a = MissCurve::from_samples(&[0.0, 2.0], &[4.0, 0.0]).unwrap();
        let b = MissCurve::from_samples(&[0.0, 4.0], &[8.0, 0.0]).unwrap();
        let s = a.sum(&b);
        assert_eq!(s.value_at(0.0), 12.0);
        assert_eq!(s.value_at(2.0), 4.0);
        assert_eq!(s.value_at(4.0), 0.0);
    }

    #[test]
    fn monotone_checks() {
        assert!(fig3_curve().is_monotone(0.0));
        let noisy = MissCurve::from_samples(&[0.0, 1.0, 2.0], &[5.0, 4.0, 4.5]).unwrap();
        assert!(!noisy.is_monotone(0.0));
        assert!(noisy.is_monotone(0.6));
        let env = noisy.monotone_envelope();
        assert!(env.is_monotone(0.0));
        assert_eq!(env.value_at(2.0), 4.0);
    }

    #[test]
    fn convexity_checks() {
        // fig3 has a plateau followed by a cliff at 5 MB: not convex.
        assert!(!fig3_curve().is_convex(1e-12));
        // Slopes -6, -3, 0: magnitudes shrink with size, so this is convex.
        let convex =
            MissCurve::from_samples(&[0.0, 2.0, 5.0, 10.0], &[24.0, 12.0, 3.0, 3.0]).unwrap();
        assert!(convex.is_convex(1e-12));
    }

    #[test]
    fn resampled_evaluates_on_grid() {
        let c = fig3_curve();
        let r = c.resampled(&[1.0, 3.0, 7.0]).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.value_at(3.0), 12.0);
        assert_eq!(r.value_at(7.0), 3.0);
    }

    #[test]
    fn area_of_linear_segment() {
        let c = MissCurve::from_samples(&[0.0, 2.0], &[4.0, 0.0]).unwrap();
        assert!((c.area(0.0, 2.0) - 4.0).abs() < 1e-12);
        assert!((c.area(0.0, 1.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn into_iterator_for_reference() {
        let c = fig3_curve();
        let n = (&c).into_iter().count();
        assert_eq!(n, c.len());
    }
}
