//! Dense row-major and CSR sparse `f64` matrices.
//!
//! * [`CsrMatrix`] — compressed sparse row storage (`row_ptr`/`col_idx`/
//!   `values`), the representation of every [`crate::MarkovChain`].
//!   Matrix–vector products cost `O(nnz)` instead of `O(n²)`, which is what
//!   lets the diffusion and random-walk scenarios sweep networks with tens
//!   of thousands of nodes: a transition matrix built from a bounded-degree
//!   graph has `nnz = Θ(n)`, so a step is linear in the network size.
//! * [`Matrix`] — dense row-major storage, for the two algorithms whose
//!   arithmetic is a dense product: exact mixing times (matrix powers) and
//!   Jacobi eigendecomposition.

use crate::error::MarkovError;
use std::ops::{Index, IndexMut};

/// Tolerance of the stochasticity checks and of the chains' support tests.
pub const EPS: f64 = 1e-9;

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use ale_markov::Matrix;
///
/// let m = Matrix::identity(3);
/// assert_eq!(m[(0, 0)], 1.0);
/// assert_eq!(m[(0, 1)], 0.0);
/// assert_eq!(m.rows(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use ale_markov::Matrix;
    /// let z = Matrix::zeros(2, 3);
    /// assert_eq!(z.cols(), 3);
    /// assert_eq!(z[(1, 2)], 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use ale_markov::Matrix;
    /// let i = Matrix::identity(4);
    /// assert_eq!(i[(2, 2)], 1.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds {}", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds {}", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::DimensionMismatch`] when
    /// `self.cols() != rhs.rows()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ale_markov::Matrix;
    /// let mut a = Matrix::identity(2);
    /// a[(0, 1)] = 1.0;
    /// let b = a.multiply(&a)?;
    /// assert_eq!(b[(0, 1)], 2.0);
    /// # Ok::<(), ale_markov::MarkovError>(())
    /// ```
    pub fn multiply(&self, rhs: &Matrix) -> Result<Matrix, MarkovError> {
        if self.cols != rhs.rows {
            return Err(MarkovError::DimensionMismatch {
                expected: self.cols,
                found: rhs.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // ikj loop order: streams through `rhs` rows for cache friendliness.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, r) in orow.iter_mut().zip(rrow) {
                    *o += a * r;
                }
            }
        }
        Ok(out)
    }

    /// Row-vector-matrix product `v * self` (distribution evolution) into
    /// a caller-provided buffer (no allocation).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::DimensionMismatch`] when `v.len() != self.rows()`
    /// or `out.len() != self.cols()`.
    pub fn vec_mul_into(&self, v: &[f64], out: &mut [f64]) -> Result<(), MarkovError> {
        if v.len() != self.rows {
            return Err(MarkovError::DimensionMismatch {
                expected: self.rows,
                found: v.len(),
            });
        }
        if out.len() != self.cols {
            return Err(MarkovError::DimensionMismatch {
                expected: self.cols,
                found: out.len(),
            });
        }
        out.fill(0.0);
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            let row = self.row(i);
            for (o, r) in out.iter_mut().zip(row) {
                *o += vi * r;
            }
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// A sparse matrix in compressed sparse row (CSR) form.
///
/// Row `i`'s stored entries live at `values[row_ptr[i]..row_ptr[i + 1]]`
/// with their column indices in `col_idx` at the same positions, sorted by
/// column. Only non-zero entries are stored, so matrix–vector products cost
/// `O(nnz)` — for transition matrices built from bounded-degree graphs that
/// is `O(n)` per step instead of the dense `O(n²)`.
///
/// Both constructors also record the **uniform width**: the number of
/// entries every row stores, or 0 when rows differ. A regular graph's
/// matrices have one (degree + 1: 3 on a cycle, 5 on a torus or a
/// 4-regular graph, 9 on a hypercube of dimension 8). For widths 2–9
/// both products run a row kernel whose trip count is that width at
/// compile time, so the short rows unroll and consecutive rows overlap;
/// every other matrix runs the plain per-row loop. The arithmetic is the
/// same either way: one multiply per entry, rows in order, and in
/// [`CsrMatrix::mul_vec_into`] each row summed left to right in one
/// accumulator that starts from the row's first product. That equals
/// starting from `-0.0`, the start `Iterator::sum` uses for `f64`,
/// because `-0.0 + y == y` bit for bit for every `y`.
///
/// # Examples
///
/// ```
/// use ale_markov::CsrMatrix;
///
/// // Lazy walk on a 2-path, built sparsely.
/// let m = CsrMatrix::from_row_entries(
///     2,
///     vec![vec![(0, 0.5), (1, 0.5)], vec![(0, 0.5), (1, 0.5)]],
/// )?;
/// assert_eq!(m.get(0, 1), 0.5);
/// let mut out = [0.0; 2];
/// m.vec_mul_into(&[1.0, 0.0], &mut out)?;
/// assert_eq!(out, [0.5, 0.5]);
/// assert_eq!(m.to_dense()[(1, 0)], 0.5);
/// # Ok::<(), ale_markov::MarkovError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
    /// Entries per row when every row stores the same number, else 0.
    width: usize,
}

/// The number of entries every row stores, or 0 when rows differ.
fn uniform_width(row_ptr: &[usize]) -> usize {
    let width = row_ptr[1] - row_ptr[0];
    if row_ptr.windows(2).all(|w| w[1] - w[0] == width) {
        width
    } else {
        0
    }
}

impl CsrMatrix {
    /// Builds a CSR matrix from per-row `(column, value)` entry lists.
    ///
    /// Entries may arrive unsorted; duplicates within a row are summed in
    /// the order given and exact zeros are dropped from the stored
    /// pattern.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::Empty`] when `rows` is empty or `cols == 0`.
    /// * [`MarkovError::DimensionMismatch`] when an entry's column index is
    ///   `>= cols` (the `found` field carries the offending column).
    pub fn from_row_entries(
        cols: usize,
        rows: Vec<Vec<(usize, f64)>>,
    ) -> Result<Self, MarkovError> {
        if rows.is_empty() || cols == 0 {
            return Err(MarkovError::Empty);
        }
        let nrows = rows.len();
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for mut entries in rows {
            entries.sort_by_key(|&(j, _)| j);
            let mut last: Option<usize> = None;
            for (j, v) in entries {
                if j >= cols {
                    return Err(MarkovError::DimensionMismatch {
                        expected: cols,
                        found: j,
                    });
                }
                if last == Some(j) {
                    *values.last_mut().expect("entry pushed for last column") += v;
                } else if v != 0.0 {
                    col_idx.push(j);
                    values.push(v);
                    last = Some(j);
                }
            }
            // Summed duplicates can cancel to zero; keep them — callers
            // that care about the pattern get what they accumulated.
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix {
            rows: nrows,
            cols,
            width: uniform_width(&row_ptr),
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Materializes the dense form. Costs `O(rows·cols)` memory — for the
    /// dense algorithms on small chains and for test oracles, not the
    /// large-n sweep path.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            let out = m.row_mut(i);
            for (&j, &v) in cols.iter().zip(vals) {
                out[j] = v;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `i` as parallel `(columns, values)` slices, sorted by
    /// column.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        assert!(i < self.rows, "row index {i} out of bounds {}", self.rows);
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// Reads entry `(i, j)`, returning `0.0` for positions outside the
    /// stored pattern.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Matrix-vector product `self * v` in `O(nnz)`, into a
    /// caller-provided buffer (no allocation).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::DimensionMismatch`] when `v.len() != self.cols()`
    /// or `out.len() != self.rows()`.
    pub fn mul_vec_into(&self, v: &[f64], out: &mut [f64]) -> Result<(), MarkovError> {
        if v.len() != self.cols {
            return Err(MarkovError::DimensionMismatch {
                expected: self.cols,
                found: v.len(),
            });
        }
        if out.len() != self.rows {
            return Err(MarkovError::DimensionMismatch {
                expected: self.rows,
                found: out.len(),
            });
        }
        match self.width {
            2 => self.mul_vec_fixed::<2>(v, out),
            3 => self.mul_vec_fixed::<3>(v, out),
            4 => self.mul_vec_fixed::<4>(v, out),
            5 => self.mul_vec_fixed::<5>(v, out),
            6 => self.mul_vec_fixed::<6>(v, out),
            7 => self.mul_vec_fixed::<7>(v, out),
            8 => self.mul_vec_fixed::<8>(v, out),
            9 => self.mul_vec_fixed::<9>(v, out),
            _ => {
                for (i, out_i) in out.iter_mut().enumerate() {
                    let (cols, vals) = self.row(i);
                    *out_i = cols.iter().zip(vals).map(|(&j, &a)| a * v[j]).sum();
                }
            }
        }
        Ok(())
    }

    /// [`CsrMatrix::mul_vec_into`] on a matrix whose rows all store `W`
    /// entries (`W ≥ 1`), after the length checks.
    fn mul_vec_fixed<const W: usize>(&self, v: &[f64], out: &mut [f64]) {
        let (cols, _) = self.col_idx.as_chunks::<W>();
        let (vals, _) = self.values.as_chunks::<W>();
        for (out_i, (cols, vals)) in out.iter_mut().zip(cols.iter().zip(vals)) {
            let mut sum = vals[0] * v[cols[0]];
            for (&j, &a) in cols[1..].iter().zip(&vals[1..]) {
                sum += a * v[j];
            }
            *out_i = sum;
        }
    }

    /// Row-vector-matrix product `v * self` (distribution evolution) in
    /// `O(nnz)`, into a caller-provided buffer (no allocation).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::DimensionMismatch`] when `v.len() != self.rows()`
    /// or `out.len() != self.cols()`.
    pub fn vec_mul_into(&self, v: &[f64], out: &mut [f64]) -> Result<(), MarkovError> {
        if v.len() != self.rows {
            return Err(MarkovError::DimensionMismatch {
                expected: self.rows,
                found: v.len(),
            });
        }
        if out.len() != self.cols {
            return Err(MarkovError::DimensionMismatch {
                expected: self.cols,
                found: out.len(),
            });
        }
        out.fill(0.0);
        match self.width {
            2 => self.vec_mul_fixed::<2>(v, out),
            3 => self.vec_mul_fixed::<3>(v, out),
            4 => self.vec_mul_fixed::<4>(v, out),
            5 => self.vec_mul_fixed::<5>(v, out),
            6 => self.vec_mul_fixed::<6>(v, out),
            7 => self.vec_mul_fixed::<7>(v, out),
            8 => self.vec_mul_fixed::<8>(v, out),
            9 => self.vec_mul_fixed::<9>(v, out),
            _ => {
                for (i, &vi) in v.iter().enumerate() {
                    if vi == 0.0 {
                        continue;
                    }
                    let (cols, vals) = self.row(i);
                    for (&j, &a) in cols.iter().zip(vals) {
                        out[j] += vi * a;
                    }
                }
            }
        }
        Ok(())
    }

    /// [`CsrMatrix::vec_mul_into`] on a matrix whose rows all store `W`
    /// entries, after the length checks and the zero fill.
    fn vec_mul_fixed<const W: usize>(&self, v: &[f64], out: &mut [f64]) {
        let (cols, _) = self.col_idx.as_chunks::<W>();
        let (vals, _) = self.values.as_chunks::<W>();
        for ((&vi, cols), vals) in v.iter().zip(cols).zip(vals) {
            if vi == 0.0 {
                continue;
            }
            for (&j, &a) in cols.iter().zip(vals) {
                out[j] += vi * a;
            }
        }
    }

    /// Returns the transpose in `O(nnz)`.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols];
        for &j in &self.col_idx {
            counts[j] += 1;
        }
        let mut row_ptr = Vec::with_capacity(self.cols + 1);
        row_ptr.push(0usize);
        for c in &counts {
            row_ptr.push(row_ptr.last().expect("non-empty") + c);
        }
        let mut cursor = row_ptr[..self.cols].to_vec();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let slot = cursor[j];
                // Rows are visited in order, so transposed rows stay sorted.
                col_idx[slot] = i;
                values[slot] = v;
                cursor[j] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            width: uniform_width(&row_ptr),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Returns the first row violating row-stochasticity, if any: a row
    /// with an entry below `−EPS` (reported with sum `NaN`) or whose sum
    /// is off 1 by more than `EPS·cols`.
    pub fn stochastic_violation(&self) -> Option<(usize, f64)> {
        for i in 0..self.rows {
            let (_, vals) = self.row(i);
            if vals.iter().any(|&x| x < -EPS) {
                return Some((i, f64::NAN));
            }
            let s: f64 = vals.iter().sum();
            if (s - 1.0).abs() > EPS * self.cols as f64 {
                return Some((i, s));
            }
        }
        None
    }

    /// Checks whether the matrix is doubly stochastic (rows and columns all
    /// sum to 1, entries non-negative) in `O(nnz)`.
    pub fn is_doubly_stochastic(&self) -> bool {
        if !self.is_square() || self.stochastic_violation().is_some() {
            return false;
        }
        let mut col_sums = vec![0.0; self.cols];
        for (&j, &v) in self.col_idx.iter().zip(&self.values) {
            col_sums[j] += v;
        }
        col_sums
            .iter()
            .all(|s| (s - 1.0).abs() <= EPS * self.rows as f64)
    }
}

/// Vector helpers shared across the crate.
pub mod vecops {
    /// L1 norm (sum of absolute values).
    pub fn norm_l1(v: &[f64]) -> f64 {
        v.iter().map(|x| x.abs()).sum()
    }

    /// Largest absolute component-wise difference.
    ///
    /// # Panics
    ///
    /// Panics when `a.len() != b.len()`.
    pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "max_abs_diff length mismatch");
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    /// Scales `v` in place so it sums to 1. No-op on the zero vector.
    pub fn normalize_l1(v: &mut [f64]) {
        let s = norm_l1(v);
        if s > 0.0 {
            for x in v.iter_mut() {
                *x /= s;
            }
        }
    }
}

/// Test fixture: the CSR matrix with the given dense rows.
#[cfg(test)]
pub(crate) fn test_csr(rows: &[Vec<f64>]) -> CsrMatrix {
    let entries = rows
        .iter()
        .map(|r| r.iter().copied().enumerate().collect())
        .collect();
    CsrMatrix::from_row_entries(rows[0].len(), entries).expect("well-formed fixture")
}

/// Test fixture: the dense matrix with the given rows.
#[cfg(test)]
pub(crate) fn test_dense(rows: &[Vec<f64>]) -> Matrix {
    test_csr(rows).to_dense()
}

#[cfg(test)]
mod tests {
    use super::vecops::*;
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(3, 2);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 2);
        assert!(!z.is_square());
        let i = Matrix::identity(3);
        assert!(i.is_square());
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 2)], 0.0);
    }

    #[test]
    fn multiply_identity_is_noop() {
        let a = test_dense(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.multiply(&i).unwrap(), a);
        assert_eq!(i.multiply(&a).unwrap(), a);
    }

    #[test]
    fn multiply_known_product() {
        let a = test_dense(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = test_dense(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.multiply(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn multiply_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.multiply(&b).is_err());
    }

    fn sample_csr() -> CsrMatrix {
        // [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]]
        CsrMatrix::from_row_entries(
            3,
            vec![
                vec![(1, 0.5), (0, 0.5)], // unsorted on purpose
                vec![(0, 0.25), (1, 0.5), (2, 0.25)],
                vec![(1, 0.5), (2, 0.5)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn csr_materializes_dense() {
        let s = sample_csr();
        assert_eq!(s.rows(), 3);
        assert_eq!(s.cols(), 3);
        assert!(s.is_square());
        assert_eq!(s.row(0), (&[0, 1][..], &[0.5, 0.5][..]));
        let d = s.to_dense();
        assert_eq!(d[(1, 2)], 0.25);
        assert_eq!(d[(0, 2)], 0.0);
        assert_eq!(s.get(1, 2), 0.25);
        assert_eq!(s.get(0, 2), 0.0);
    }

    #[test]
    fn csr_builder_sums_duplicates_and_drops_zeros() {
        let s = CsrMatrix::from_row_entries(
            2,
            vec![
                vec![(0, 0.25), (0, 0.25), (1, 0.0), (1, 0.5)],
                vec![(1, 1.0)],
            ],
        )
        .unwrap();
        // The explicit zero was dropped, the duplicate merged.
        assert_eq!(s.row(0), (&[0, 1][..], &[0.5, 0.5][..]));
        assert_eq!(s.row(1), (&[1][..], &[1.0][..]));
        assert!(s.stochastic_violation().is_none());
    }

    #[test]
    fn csr_rejects_bad_shapes() {
        assert!(matches!(
            CsrMatrix::from_row_entries(0, vec![vec![]]),
            Err(MarkovError::Empty)
        ));
        assert!(matches!(
            CsrMatrix::from_row_entries(2, Vec::new()),
            Err(MarkovError::Empty)
        ));
        assert!(matches!(
            CsrMatrix::from_row_entries(2, vec![vec![(5, 1.0)]]),
            Err(MarkovError::DimensionMismatch { found: 5, .. })
        ));
    }

    #[test]
    fn csr_products_reject_bad_lengths() {
        let s = sample_csr();
        let v = [0.2, 0.3, 0.5];
        assert!(s.vec_mul_into(&[1.0], &mut [0.0; 3]).is_err());
        let mut out = vec![0.0; 2];
        assert!(s.mul_vec_into(&v, &mut out).is_err());
        assert!(s.vec_mul_into(&v, &mut out).is_err());
        assert!(s.mul_vec_into(&[1.0], &mut [0.0; 3]).is_err());
        let d = s.to_dense();
        assert!(d.vec_mul_into(&v, &mut out).is_err());
        assert!(d.vec_mul_into(&[1.0], &mut [0.0; 3]).is_err());
    }

    #[test]
    fn csr_transpose_swaps_indices() {
        let s =
            CsrMatrix::from_row_entries(3, vec![vec![(0, 1.0), (2, 2.0)], vec![(1, 3.0)]]).unwrap();
        let t = s.transpose();
        assert_eq!((t.rows(), t.cols()), (3, 2));
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(t.get(j, i), s.get(i, j));
            }
        }
        assert_eq!(t.transpose(), s);
    }

    /// `m · v` entry by entry: each row summed left to right from `-0.0`.
    fn reference_mul_vec(m: &CsrMatrix, v: &[f64]) -> Vec<f64> {
        (0..m.rows())
            .map(|i| {
                let (cols, vals) = m.row(i);
                let mut sum = -0.0;
                for (&j, &a) in cols.iter().zip(vals) {
                    sum += a * v[j];
                }
                sum
            })
            .collect()
    }

    /// `v · m` entry by entry: rows in order, zero inputs skipped.
    fn reference_vec_mul(m: &CsrMatrix, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m.cols()];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            let (cols, vals) = m.row(i);
            for (&j, &a) in cols.iter().zip(vals) {
                out[j] += vi * a;
            }
        }
        out
    }

    /// A value whose magnitude spans 2^±60, so sums depend on their order;
    /// one in six is `±0.0` or a subnormal.
    fn awkward(rng: &mut StdRng) -> f64 {
        let x = match rng.gen_range(0..12u32) {
            0 => -0.0,
            1 => 0.0,
            2 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
            _ => (1.0 + rng.gen::<f64>()) * 2f64.powi(rng.gen_range(0..120u32) as i32 - 60),
        };
        if rng.gen_bool(0.5) {
            -x
        } else {
            x
        }
    }

    /// Both products of `m` equal the per-entry references bit for bit,
    /// on vectors of awkward values and on all-`-0.0` vectors.
    fn assert_products_match(m: &CsrMatrix, rng: &mut StdRng) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for round in 0..4 {
            let fill = |len: usize, rng: &mut StdRng| -> Vec<f64> {
                if round == 0 {
                    vec![-0.0; len]
                } else {
                    (0..len).map(|_| awkward(rng)).collect()
                }
            };
            let v = fill(m.cols(), rng);
            let mut out = vec![1.0; m.rows()];
            m.mul_vec_into(&v, &mut out).unwrap();
            assert_eq!(bits(&out), bits(&reference_mul_vec(m, &v)), "m·v");
            let v = fill(m.rows(), rng);
            let mut out = vec![1.0; m.cols()];
            m.vec_mul_into(&v, &mut out).unwrap();
            assert_eq!(bits(&out), bits(&reference_vec_mul(m, &v)), "v·m");
        }
    }

    /// Rows of the given widths over `cols` columns at random distinct
    /// positions, with awkward non-zero values; every third row's values
    /// are positive, so an all-`-0.0` input makes its products all `-0.0`.
    fn random_rows(cols: usize, widths: &[usize], rng: &mut StdRng) -> CsrMatrix {
        use rand::seq::SliceRandom;
        let rows = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let mut picked: Vec<usize> = (0..cols).collect();
                picked.shuffle(rng);
                picked.truncate(w);
                picked
                    .into_iter()
                    .map(|j| {
                        let mut a = awkward(rng);
                        while a == 0.0 {
                            a = awkward(rng);
                        }
                        (j, if i % 3 == 0 { a.abs() } else { a })
                    })
                    .collect()
            })
            .collect();
        CsrMatrix::from_row_entries(cols, rows).unwrap()
    }

    #[test]
    fn products_match_a_per_entry_reference_at_every_width() {
        let mut rng = StdRng::seed_from_u64(29);
        for w in 1..=10 {
            // Random columns: uniform rows, usually uneven columns.
            let m = random_rows(13, &[w; 40], &mut rng);
            assert_eq!(m.width, w);
            assert_products_match(&m, &mut rng);
            let t = m.transpose();
            assert_eq!(t.width, uniform_width(&t.row_ptr));
            assert_products_match(&t, &mut rng);
            // A circulant band: its transpose is uniform too.
            let rows = (0..13)
                .map(|i| {
                    (0..w)
                        .map(|k| ((i + k) % 13, 1.0 / (k + 1) as f64))
                        .collect()
                })
                .collect();
            let band = CsrMatrix::from_row_entries(13, rows).unwrap();
            assert_eq!((band.width, band.transpose().width), (w, w));
            assert_products_match(&band, &mut rng);
            assert_products_match(&band.transpose(), &mut rng);
        }
        // Rows of differing widths, some empty, and a transpose whose
        // columns are uneven.
        let widths: Vec<usize> = (0..60).map(|i| i % 7).collect();
        let mixed = random_rows(11, &widths, &mut rng);
        assert_eq!(mixed.width, 0);
        assert_products_match(&mixed, &mut rng);
        let uneven = random_rows(9, &[4; 30], &mut rng).transpose();
        assert_eq!(uneven.width, 0);
        assert_products_match(&uneven, &mut rng);
        // Every row empty: `m·v` is `-0.0`, `v·m` is `+0.0`.
        let empty = CsrMatrix::from_row_entries(5, vec![Vec::new(); 4]).unwrap();
        assert_eq!(empty.width, 0);
        assert_products_match(&empty, &mut rng);
    }

    #[test]
    fn csr_stochastic_checks() {
        let s = sample_csr();
        assert!(s.stochastic_violation().is_none());
        // Columns sum to (0.75, 1.5, 0.75).
        assert!(!s.is_doubly_stochastic());
        // Lazy-walk-style symmetric matrix: genuinely doubly stochastic.
        let sym = CsrMatrix::from_row_entries(
            3,
            vec![
                vec![(0, 0.5), (1, 0.5)],
                vec![(0, 0.5), (1, 0.25), (2, 0.25)],
                vec![(1, 0.25), (2, 0.75)],
            ],
        )
        .unwrap();
        assert!(sym.is_doubly_stochastic());
        let neg = CsrMatrix::from_row_entries(2, vec![vec![(0, -0.5), (1, 1.5)], vec![(0, 1.0)]])
            .unwrap();
        assert!(neg.stochastic_violation().is_some());
        assert!(!neg.is_doubly_stochastic());
        let rect = CsrMatrix::from_row_entries(3, vec![vec![(0, 1.0)]]).unwrap();
        assert!(!rect.is_doubly_stochastic());
    }

    #[test]
    fn vecops_norms() {
        let v = [3.0, -4.0];
        assert_eq!(norm_l1(&v), 7.0);
        assert_eq!(max_abs_diff(&v, &[3.0, 0.0]), 4.0);
        let mut u = vec![1.0, 3.0];
        normalize_l1(&mut u);
        assert!((u[0] - 0.25).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        normalize_l1(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }
}
