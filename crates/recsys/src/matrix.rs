//! Rating matrices: sparse observations in, dense completions out.

/// A partially observed job × configuration rating matrix.
///
/// Rows are applications (known training applications plus the currently
/// running jobs), columns are resource configurations. Entries are `None`
/// until observed through offline characterization, online profiling, or a
/// previous steady state.
#[derive(Debug, Clone, PartialEq)]
pub struct RatingMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Option<f64>>,
}

impl RatingMatrix {
    /// Creates an empty `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> RatingMatrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        RatingMatrix {
            rows,
            cols,
            data: vec![None; rows * cols],
        }
    }

    /// Number of rows (applications).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (configurations).
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn idx(&self, r: usize, c: usize) -> usize {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        r * self.cols + c
    }

    /// The observed value at `(r, c)`, if any.
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        self.data[self.idx(r, c)]
    }

    /// Records an observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite — ratings feed gradient descent.
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        assert!(
            value.is_finite(),
            "rating at ({r}, {c}) must be finite, got {value}"
        );
        let i = self.idx(r, c);
        self.data[i] = Some(value);
    }

    /// Clears an observation (used in leave-one-out accuracy tests).
    pub fn clear(&mut self, r: usize, c: usize) {
        let i = self.idx(r, c);
        self.data[i] = None;
    }

    /// Fills an entire row from a slice (offline-characterized known apps).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != cols`.
    pub fn fill_row(&mut self, r: usize, values: &[f64]) {
        assert_eq!(values.len(), self.cols, "row length mismatch");
        for (c, v) in values.iter().enumerate() {
            self.set(r, c, *v);
        }
    }

    /// Number of observed entries.
    pub fn observed_len(&self) -> usize {
        self.data.iter().filter(|v| v.is_some()).count()
    }

    /// Iterates over observed `(row, col, value)` triples in row-major
    /// order.
    pub fn observed(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.data
            .iter()
            .enumerate()
            .filter_map(move |(i, v)| v.map(|v| (i / self.cols, i % self.cols, v)))
    }

    /// Mean of all observed entries (0 if none).
    pub fn global_mean(&self) -> f64 {
        let (sum, n) = self
            .observed()
            .fold((0.0, 0usize), |(s, n), (_, _, v)| (s + v, n + 1));
        if n > 0 {
            sum / n as f64
        } else {
            0.0
        }
    }

    /// Minimum and maximum observed values, if any entry is observed.
    pub fn observed_range(&self) -> Option<(f64, f64)> {
        let mut range: Option<(f64, f64)> = None;
        for (_, _, v) in self.observed() {
            range = Some(match range {
                None => (v, v),
                Some((lo, hi)) => (lo.min(v), hi.max(v)),
            });
        }
        range
    }

    /// Applies `f` to every observed entry, returning a new matrix (used for
    /// value transforms such as `ln`).
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> RatingMatrix {
        let mut out = RatingMatrix::new(self.rows, self.cols);
        for (r, c, v) in self.observed() {
            out.set(r, c, f(v));
        }
        out
    }
}

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> DenseMatrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> DenseMatrix {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        DenseMatrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Value at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the value at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix product `self · rhsᵀ` where both matrices share the inner
    /// (column) dimension — the PQ-reconstruction shape `Q · Pᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn mul_transpose(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, rhs.cols, "inner dimension mismatch");
        let mut out = DenseMatrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            for j in 0..rhs.rows {
                let dot: f64 = self.row(i).iter().zip(rhs.row(j)).map(|(a, b)| a * b).sum();
                out.set(i, j, dot);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut m = RatingMatrix::new(3, 4);
        assert_eq!(m.get(1, 2), None);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), Some(5.0));
        m.clear(1, 2);
        assert_eq!(m.get(1, 2), None);
    }

    #[test]
    fn observed_iteration_and_counts() {
        let mut m = RatingMatrix::new(2, 3);
        m.set(0, 0, 1.0);
        m.set(1, 2, 2.0);
        assert_eq!(m.observed_len(), 2);
        let triples: Vec<_> = m.observed().collect();
        assert_eq!(triples, vec![(0, 0, 1.0), (1, 2, 2.0)]);
    }

    #[test]
    fn means_and_range() {
        let mut m = RatingMatrix::new(2, 2);
        m.set(0, 0, 2.0);
        m.set(0, 1, 4.0);
        assert_eq!(m.global_mean(), 3.0);
        assert_eq!(m.observed_range(), Some((2.0, 4.0)));
        assert_eq!(RatingMatrix::new(1, 1).observed_range(), None);
    }

    #[test]
    fn fill_row_observes_the_whole_row() {
        let mut m = RatingMatrix::new(2, 3);
        m.fill_row(0, &[1.0, 2.0, 3.0]);
        assert_eq!(m.get(0, 1), Some(2.0));
        assert_eq!(m.observed_len(), 3);
    }

    #[test]
    fn map_transforms_observed_only() {
        let mut m = RatingMatrix::new(1, 3);
        m.set(0, 0, 1.0);
        let t = m.map(|v| v * 2.0);
        assert_eq!(t.get(0, 0), Some(2.0));
        assert_eq!(t.get(0, 1), None);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_rating_rejected() {
        let mut m = RatingMatrix::new(1, 1);
        m.set(0, 0, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rating_oob_panics() {
        let m = RatingMatrix::new(2, 2);
        let _ = m.get(2, 0);
    }

    #[test]
    fn dense_rows_and_product() {
        // Q is 2×2, P is 3×2; Q·Pᵀ is 2×3.
        let q = DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let p = DenseMatrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = q.mul_transpose(&p);
        assert_eq!(r.rows(), 2);
        assert_eq!(r.cols(), 3);
        assert_eq!(r.get(0, 0), 1.0);
        assert_eq!(r.get(1, 2), 6.0);
        assert_eq!(r.row(0), &[1.0, 3.0, 5.0]);
    }
}
