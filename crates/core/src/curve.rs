//! Miss curves: miss rate as a function of cache size.
//!
//! A [`MissCurve`] is a piecewise-linear function from cache capacity to a
//! miss metric (misses per access, MPKI, raw miss counts — any linear,
//! non-negative unit works). Talus's theory (paper §IV) operates directly on
//! these curves: the Theorem-4 sampling transform, convex hulls, and shadow
//! partition planning all take and return [`MissCurve`]s.

use std::sync::Arc;

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
/// A curve is its miss values beside a size grid it shares: immutable, so
/// a clone, [`scaled`](Self::scaled) and
/// [`monotone_envelope`](Self::monotone_envelope) keep the grid they were
/// made from, and [`decode_values`](Self::decode_values) hands every
/// curve the [`Grid`] it is decoded on. A 65-point curve is then 520
/// bytes of its own plus its share of one 520-byte grid.
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
#[derive(Debug, Clone)]
pub struct MissCurve {
    /// The size grid, shared with every curve made from or decoded on it.
    sizes: Arc<[f64]>,
    /// One miss value per size: the curve's own bytes.
    misses: Box<[f64]>,
}

/// A size grid [`MissCurve::decode_grid`] validated: at least one size,
/// every size finite and non-negative, strictly increasing. Decoding is
/// the only way to make one, so [`MissCurve::decode_values`] checks a
/// curve's miss values alone, for the wire and the journal alike. It
/// dereferences to the `Arc<[f64]>` every curve decoded on it shares.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid(Arc<[f64]>);

impl std::ops::Deref for Grid {
    type Target = Arc<[f64]>;

    fn deref(&self) -> &Arc<[f64]> {
        &self.0
    }
}

/// The little-endian `u64` in the first eight bytes of `raw`.
fn word(raw: &[u8]) -> u64 {
    let mut bytes = [0; 8];
    bytes.copy_from_slice(&raw[..8]);
    u64::from_le_bytes(bytes)
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
        let (sizes, misses): (Vec<f64>, Vec<f64>) = points
            .into_iter()
            .map(|p| {
                let p: CurvePoint = p.into();
                (p.size, p.misses)
            })
            .unzip();
        Self::validated(sizes.into(), misses.into())
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
        Self::validated(sizes.into(), misses.into())
    }

    /// The curve over `sizes` and `misses` (of equal length), if it upholds
    /// the invariants. Nearly every curve passes the branch-free check;
    /// only one that does not pays for the loop that says what, if
    /// anything, is wrong with it.
    fn validated(sizes: Arc<[f64]>, misses: Box<[f64]>) -> Result<Self, CurveError> {
        debug_assert_eq!(sizes.len(), misses.len());
        if sizes.is_empty() {
            return Err(CurveError::Empty);
        }
        if !plainly_valid(&sizes, &misses) {
            if let Some(violation) = first_violation(&sizes, &misses) {
                return Err(violation);
            }
        }
        Ok(MissCurve { sizes, misses })
    }

    /// Bytes one value — a size or a miss value — occupies in the
    /// values-only form.
    pub const VALUE_BYTES: usize = 8;

    /// Appends `values` to `out` in the values-only form: each the
    /// little-endian IEEE-754 bit pattern, [`VALUE_BYTES`](Self::VALUE_BYTES)
    /// a value, no count and no padding. A size grid
    /// ([`sizes`](Self::sizes)) written this way is read back by
    /// [`decode_grid`](Self::decode_grid), a curve's
    /// [`misses`](Self::misses) by [`decode_values`](Self::decode_values).
    /// The wire sends each grid of a frame once and every curve on it as
    /// its values alone; a journal record holds a curve's sizes, then its
    /// values.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use talus_core::MissCurve;
    /// let curve = MissCurve::from_samples(&[0.0, 4.0], &[8.0, 0.5])?;
    /// let (mut grid, mut values) = (Vec::new(), Vec::new());
    /// MissCurve::encode_values(curve.sizes(), &mut grid);
    /// MissCurve::encode_values(curve.misses(), &mut values);
    /// assert_eq!(values.len(), 2 * MissCurve::VALUE_BYTES);
    /// let grid = MissCurve::decode_grid(&grid)?;
    /// let decoded = MissCurve::decode_values(&grid, &values)?;
    /// assert_eq!(decoded, curve);
    /// assert!(Arc::ptr_eq(decoded.grid(), &grid));
    /// # Ok::<(), talus_core::CurveError>(())
    /// ```
    pub fn encode_values(values: &[f64], out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + Self::VALUE_BYTES * values.len(), 0);
        let chunks = out[start..].chunks_exact_mut(Self::VALUE_BYTES);
        for (chunk, value) in chunks.zip(values) {
            chunk.copy_from_slice(&value.to_bits().to_le_bytes());
        }
    }

    /// Decodes a size grid [`encode_values`](Self::encode_values) wrote,
    /// validated as a curve's sizes are: the grid is valid exactly when
    /// [`MissCurve::from_samples`] would accept these sizes under valid
    /// miss values, and fails with the error it would give.
    ///
    /// # Errors
    ///
    /// [`CurveError::Empty`], [`CurveError::InvalidSize`] and
    /// [`CurveError::NonIncreasingSizes`] as [`MissCurve::new`] reports
    /// them; [`CurveError::LengthMismatch`] if `bytes` ends inside a value
    /// (readers slice exactly `count × VALUE_BYTES`, so they never see it).
    pub fn decode_grid(bytes: &[u8]) -> Result<Grid, CurveError> {
        let chunks = bytes.chunks_exact(Self::VALUE_BYTES);
        if !chunks.remainder().is_empty() {
            return Err(CurveError::LengthMismatch {
                sizes: chunks.len() + 1,
                misses: chunks.len(),
            });
        }
        let sizes: Arc<[f64]> = chunks.map(|raw| f64::from_bits(word(raw))).collect();
        if sizes.is_empty() {
            return Err(CurveError::Empty);
        }
        // Sizes taken as their own miss values: a valid size is a valid
        // miss value, so only a size can fail, at the index and with the
        // error it fails with under any valid miss values.
        if !plainly_valid(&sizes, &sizes) {
            if let Some(violation) = first_violation(&sizes, &sizes) {
                return Err(violation);
            }
        }
        Ok(Grid(sizes))
    }

    /// Decodes a curve's miss values [`encode_values`](Self::encode_values)
    /// wrote, on `grid` — which the curve then shares, so every curve
    /// decoded on one grid holds one allocation. The grid was validated
    /// when it was decoded, so only the miss values are checked: the
    /// curve upholds every invariant a locally built one does, and fails
    /// as [`MissCurve::from_samples`] over the grid and the values would.
    ///
    /// # Errors
    ///
    /// [`CurveError::InvalidMissValue`] for the first negative or
    /// non-finite value; [`CurveError::LengthMismatch`] unless `bytes`
    /// holds exactly one value a size (a partial value counts as one).
    pub fn decode_values(grid: &Grid, bytes: &[u8]) -> Result<Self, CurveError> {
        if bytes.len() != grid.len() * Self::VALUE_BYTES {
            return Err(CurveError::LengthMismatch {
                sizes: grid.len(),
                misses: bytes.len().div_ceil(Self::VALUE_BYTES),
            });
        }
        // `plainly_valid`'s test on a miss value, in the decoding pass:
        // only a `-0.0` or an invalid value takes the loop that says which.
        const INFINITY: u64 = f64::INFINITY.to_bits();
        let mut plain = true;
        let mut misses = Vec::with_capacity(grid.len());
        for raw in bytes.chunks_exact(Self::VALUE_BYTES) {
            let bits = word(raw);
            plain &= bits < INFINITY;
            misses.push(f64::from_bits(bits));
        }
        let misses = misses.into_boxed_slice();
        if !plain {
            if let Some(violation) = first_violation(&grid.0, &misses) {
                return Err(violation);
            }
        }
        Ok(MissCurve {
            sizes: Arc::clone(&grid.0),
            misses,
        })
    }

    /// The sizes the curve is sampled at, strictly increasing.
    pub fn sizes(&self) -> &[f64] {
        &self.sizes
    }

    /// The miss value at each of [`sizes`](Self::sizes).
    pub fn misses(&self) -> &[f64] {
        &self.misses
    }

    /// The size grid as the curve holds it: one allocation shared by its
    /// clones and by every curve decoded on the same [`Grid`], so
    /// `Arc::ptr_eq` tells whether two curves share it.
    pub fn grid(&self) -> &Arc<[f64]> {
        &self.sizes
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.misses.len()
    }

    /// Whether the curve has no points. Always `false` for a constructed
    /// curve; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.misses.is_empty()
    }

    /// Smallest size covered by the curve.
    pub fn min_size(&self) -> f64 {
        self.sizes[0]
    }

    /// Largest size covered by the curve.
    pub fn max_size(&self) -> f64 {
        self.sizes[self.sizes.len() - 1]
    }

    /// Iterates over the curve's points, by value, in increasing size
    /// order.
    pub fn iter(&self) -> Points<'_> {
        Points(self.sizes.iter().zip(self.misses.iter()))
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
        interpolate(self, size)
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
            sizes: self.sizes.iter().map(|s| s * rho).collect(),
            misses: self.misses.iter().map(|m| m * rho).collect(),
        }
    }

    /// Computes the lower convex hull of this curve.
    ///
    /// The hull is the curve Talus traces (Theorem 6): the tight convex
    /// under-approximation of the measured miss curve.
    pub fn convex_hull(&self) -> ConvexHull {
        ConvexHull::of_curve(self)
    }

    /// Returns a copy of the curve with each miss value scaled by `factor`,
    /// on the same grid.
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
            sizes: Arc::clone(&self.sizes),
            misses: self.misses.iter().map(|m| m * factor).collect(),
        }
    }

    /// Pointwise sum of two curves resampled onto the union of their grids.
    ///
    /// Models the combined misses of two partitions observed side by side.
    pub fn sum(&self, other: &MissCurve) -> MissCurve {
        let mut sizes: Vec<f64> = self
            .sizes
            .iter()
            .chain(other.sizes.iter())
            .copied()
            .collect();
        sizes.sort_by(|a, b| a.partial_cmp(b).expect("sizes are finite")); // audited: both grids are valid curves', so no size is NaN
        sizes.dedup();
        let misses = sizes
            .iter()
            .map(|&s| self.value_at(s) + other.value_at(s))
            .collect();
        MissCurve {
            sizes: sizes.into(),
            misses,
        }
    }

    /// Whether the curve is non-increasing within tolerance `tol`.
    ///
    /// Well-behaved miss curves never get worse with more capacity; measured
    /// curves can violate this slightly (sampling noise, Belady anomalies in
    /// non-stack policies).
    pub fn is_monotone(&self, tol: f64) -> bool {
        self.misses.windows(2).all(|w| w[1] <= w[0] + tol)
    }

    /// Whether the curve is convex within tolerance `tol`: every point lies
    /// on or below the chord of its neighbours (a convex function's chords
    /// lie above it), allowing violations up to `tol`.
    pub fn is_convex(&self, tol: f64) -> bool {
        (1..self.len().saturating_sub(1)).all(|i| {
            let chord = chord_value(self.point(i - 1), self.point(i + 1), self.sizes[i]);
            self.misses[i] <= chord + tol
        })
    }

    /// Returns the non-increasing envelope of the curve, on the same grid:
    /// each point's miss value replaced by the minimum over all sizes up to
    /// and including it.
    ///
    /// Useful to clean measured noise before computing hulls, since a miss
    /// curve that goes *up* with size is a measurement artifact.
    pub fn monotone_envelope(&self) -> MissCurve {
        let mut best = f64::INFINITY;
        MissCurve {
            sizes: Arc::clone(&self.sizes),
            misses: self
                .misses
                .iter()
                .map(|&m| {
                    best = best.min(m);
                    best
                })
                .collect(),
        }
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

    /// The `i`th point.
    fn point(&self, i: usize) -> CurvePoint {
        CurvePoint::new(self.sizes[i], self.misses[i])
    }
}

/// Point-wise `f64` equality, as two lists of points would compare: miss
/// values first (where two distinct curves differ), then the grids — by
/// pointer, and by content only if they are two allocations.
impl PartialEq for MissCurve {
    fn eq(&self, other: &Self) -> bool {
        self.misses == other.misses
            && (Arc::ptr_eq(&self.sizes, &other.sizes) || *self.sizes == *other.sizes)
    }
}

impl<'a> IntoIterator for &'a MissCurve {
    type Item = CurvePoint;
    type IntoIter = Points<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The points of a [`MissCurve`], by value, in increasing size order
/// ([`MissCurve::iter`]).
#[derive(Debug, Clone)]
pub struct Points<'a>(std::iter::Zip<std::slice::Iter<'a, f64>, std::slice::Iter<'a, f64>>);

impl Iterator for Points<'_> {
    type Item = CurvePoint;

    fn next(&mut self) -> Option<CurvePoint> {
        self.0
            .next()
            .map(|(&size, &misses)| CurvePoint { size, misses })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for Points<'_> {
    fn next_back(&mut self) -> Option<CurvePoint> {
        self.0
            .next_back()
            .map(|(&size, &misses)| CurvePoint { size, misses })
    }
}

impl ExactSizeIterator for Points<'_> {}

impl std::iter::FusedIterator for Points<'_> {}

/// A sufficient condition for validity that needs no branch per point,
/// on the coordinates' bit patterns: a finite non-negative `f64` is one
/// whose bits, read as an integer, lie below infinity's, and among such
/// values integer order is numeric order. So three integer comparisons a
/// point — the size's bits above the previous size's (starting from −1,
/// which also rules the sign bit out) and below infinity's, the miss
/// value's below infinity's — accept every valid curve except one holding
/// a `-0.0`, which [`first_violation`] then clears.
fn plainly_valid(sizes: &[f64], misses: &[f64]) -> bool {
    const INFINITY: u64 = f64::INFINITY.to_bits();
    let mut ok = true;
    let mut prev = -1i64;
    for (size, misses) in sizes.iter().zip(misses) {
        let size = size.to_bits() as i64;
        ok &= (prev < size) & (size < INFINITY as i64) & (misses.to_bits() < INFINITY);
        prev = size;
    }
    ok
}

/// What makes the points `(sizes[i], misses[i])` an invalid curve, if
/// anything does: the first offending point, checked size, then miss
/// value, then ordering. This loop is the definition of validity;
/// [`plainly_valid`] only spares most curves the walk.
fn first_violation(sizes: &[f64], misses: &[f64]) -> Option<CurveError> {
    for (i, (&size, &value)) in sizes.iter().zip(misses).enumerate() {
        if !size.is_finite() || size < 0.0 {
            return Some(CurveError::InvalidSize {
                index: i,
                value: size,
            });
        }
        if !value.is_finite() || value < 0.0 {
            return Some(CurveError::InvalidMissValue { index: i, value });
        }
        if i > 0 && sizes[i - 1] >= size {
            return Some(CurveError::NonIncreasingSizes { index: i });
        }
    }
    None
}

/// The knots a piecewise-linear function runs through, however they are
/// stored — a curve's two arrays, a hull's points — so both evaluate
/// through one [`interpolate`] and one [`interpolate_from`].
pub(crate) trait Knots {
    /// Number of knots (at least one).
    fn count(&self) -> usize;
    /// The `i`th knot's size.
    fn size(&self, i: usize) -> f64;
    /// The `i`th knot.
    fn knot(&self, i: usize) -> CurvePoint;
    /// Index of the first knot whose size is above `size`.
    fn first_above(&self, size: f64) -> usize;
}

impl Knots for MissCurve {
    #[inline]
    fn count(&self) -> usize {
        self.len()
    }

    #[inline]
    fn size(&self, i: usize) -> f64 {
        self.sizes[i]
    }

    #[inline]
    fn knot(&self, i: usize) -> CurvePoint {
        self.point(i)
    }

    #[inline]
    fn first_above(&self, size: f64) -> usize {
        self.sizes.partition_point(|&s| s <= size)
    }
}

impl Knots for [CurvePoint] {
    #[inline]
    fn count(&self) -> usize {
        self.len()
    }

    #[inline]
    fn size(&self, i: usize) -> f64 {
        self[i].size
    }

    #[inline]
    fn knot(&self, i: usize) -> CurvePoint {
        self[i]
    }

    #[inline]
    fn first_above(&self, size: f64) -> usize {
        self.partition_point(|p| p.size <= size)
    }
}

/// Piecewise-linear interpolation over sorted knots, clamped at the ends.
#[inline]
pub(crate) fn interpolate<K: Knots + ?Sized>(knots: &K, size: f64) -> f64 {
    debug_assert!(knots.count() > 0);
    let first = knots.knot(0);
    if size <= first.size {
        return first.misses;
    }
    let last = knots.knot(knots.count() - 1);
    if size >= last.size {
        return last.misses;
    }
    // Binary search for the segment containing `size`:
    // knots[idx-1].size <= size < knots[idx].size.
    let idx = knots.first_above(size);
    chord_value(knots.knot(idx - 1), knots.knot(idx), size)
}

/// [`interpolate`] with the segment found by walking from `*cursor` (the
/// index of the segment's right end on the previous call) instead of by
/// binary search. Any cursor gives the same bits as [`interpolate`]; one
/// carried across calls with non-decreasing `size` makes a whole sweep
/// cost `O(knots + calls)`.
#[inline]
pub(crate) fn interpolate_from<K: Knots + ?Sized>(knots: &K, cursor: &mut usize, size: f64) -> f64 {
    debug_assert!(knots.count() > 0);
    let first = knots.knot(0);
    if size <= first.size {
        return first.misses;
    }
    let last = knots.knot(knots.count() - 1);
    if size >= last.size {
        return last.misses;
    }
    // first.size < size < last.size, so both walks stop in bounds.
    let mut idx = (*cursor).clamp(1, knots.count() - 1);
    while knots.size(idx) <= size {
        idx += 1;
    }
    while knots.size(idx - 1) > size {
        idx -= 1;
    }
    *cursor = idx;
    chord_value(knots.knot(idx - 1), knots.knot(idx), size)
}

/// Value at `x` of the line through points `a` and `b`.
#[inline]
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
        // m'(s') = rho·m(s'/rho) everywhere, clamped where s'/rho leaves
        // the curve's domain.
        for &rho in &[0.1, 0.25, 0.5, 0.9, 1.0] {
            for &s in &[0.0, 0.5, 1.0, 2.5, 4.0] {
                let a = rho * c.value_at(s / rho);
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
    fn clones_scaled_copies_and_envelopes_share_the_grid() {
        let c = fig3_curve();
        for same in [c.clone(), c.scaled(2.0), c.monotone_envelope()] {
            assert!(Arc::ptr_eq(c.grid(), same.grid()));
        }
        assert_eq!(Arc::strong_count(c.grid()), 1, "the copies above are gone");
        // Curves built from the same sizes are equal but hold their own.
        let rebuilt = MissCurve::from_samples(c.sizes(), c.misses()).unwrap();
        assert_eq!(rebuilt, c);
        assert!(!Arc::ptr_eq(c.grid(), rebuilt.grid()));
        assert!(!Arc::ptr_eq(c.grid(), c.sampled(0.5).grid()));
    }

    #[test]
    fn points_come_by_value_in_order_from_both_ends() {
        let c = fig3_curve();
        let points: Vec<CurvePoint> = c.iter().collect();
        assert_eq!(points.len(), c.len());
        assert_eq!(c.iter().len(), c.len());
        for (i, p) in points.iter().enumerate() {
            assert_eq!((p.size, p.misses), (c.sizes()[i], c.misses()[i]));
        }
        let back: Vec<CurvePoint> = c.iter().rev().collect();
        assert!(back.iter().rev().eq(points.iter()));
    }

    #[test]
    fn into_iterator_for_reference() {
        let c = fig3_curve();
        let n = (&c).into_iter().count();
        assert_eq!(n, c.len());
    }
}
