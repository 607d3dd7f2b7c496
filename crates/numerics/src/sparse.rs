//! Compressed sparse row (CSR) matrices and a coordinate-format builder.
//!
//! The TCAD Poisson solver assembles its Jacobian as a [`CooBuilder`]
//! (duplicate entries are summed, matching finite-volume stamp semantics)
//! and converts it to a [`CsrMatrix`] for the Krylov solvers in
//! [`crate::solve`].

use crate::{NumericsError, Result};

/// Coordinate-format builder that accumulates `(row, col, value)` triplets.
///
/// Duplicates are summed on conversion, so assembly code can stamp the same
/// entry repeatedly — exactly how finite-volume discretizations and MNA
/// stamps want to work.
///
/// # Example
///
/// ```
/// use stco_numerics::sparse::CooBuilder;
///
/// let mut coo = CooBuilder::new(2, 2);
/// coo.push(0, 0, 1.0);
/// coo.push(0, 0, 2.0); // summed with the previous entry
/// coo.push(1, 1, 4.0);
/// let csr = coo.to_csr();
/// assert_eq!(csr.matvec(&[1.0, 1.0]), vec![3.0, 4.0]);
/// ```
#[derive(Debug, Clone)]
pub struct CooBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooBuilder {
    /// Creates an empty builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooBuilder {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Appends a triplet.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "coo index out of range");
        self.entries.push((row, col, value));
    }

    /// Number of raw (pre-deduplication) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Converts to CSR, summing duplicate coordinates.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut entries = self.entries.clone();
        entries.sort_unstable_by_key(|a| (a.0, a.1));
        let mut entry_rows = Vec::with_capacity(entries.len());
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        for &(r, c, v) in &entries {
            if entry_rows.last() == Some(&r) && col_idx.last() == Some(&c) {
                *values.last_mut().expect("non-empty when last matches") += v;
            } else {
                entry_rows.push(r);
                col_idx.push(c);
                values.push(v);
            }
        }
        let mut row_ptr = vec![0usize; self.rows + 1];
        for &r in &entry_rows {
            row_ptr[r + 1] += 1;
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// A compressed sparse row matrix.
///
/// # Example
///
/// ```
/// use stco_numerics::sparse::CsrMatrix;
///
/// let m = CsrMatrix::from_triplets(3, 3, &[(0, 0, 2.0), (1, 1, 3.0), (2, 0, 1.0)]);
/// assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![2.0, 3.0, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix directly from triplets (duplicates summed).
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut coo = CooBuilder::new(rows, cols);
        for &(r, c, v) in triplets {
            coo.push(r, c, v);
        }
        coo.to_csr()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterator over `(col, value)` pairs of row `i`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Sparse matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "spmv shape mismatch");
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Sparse matrix–vector product into a caller-owned buffer (hot path of
    /// the Krylov solvers; avoids reallocating each iteration).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "spmv shape mismatch");
        assert_eq!(y.len(), self.rows, "spmv output shape mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let mut s = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                s += self.values[k] * x[self.col_idx[k]];
            }
            *yi = s;
        }
    }

    /// The main diagonal, with zeros for missing entries.
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.rows.min(self.cols)];
        for (i, di) in d.iter_mut().enumerate() {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                if self.col_idx[k] == i {
                    *di = self.values[k];
                    break;
                }
            }
        }
        d
    }

    /// Returns the stored value at `(i, j)`, or 0 if absent.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        for k in self.row_ptr[i]..self.row_ptr[i + 1] {
            if self.col_idx[k] == j {
                return self.values[k];
            }
        }
        0.0
    }

    /// Converts to a dense matrix (test/debug helper; O(rows·cols) memory).
    pub fn to_dense(&self) -> crate::dense::Matrix {
        let mut m = crate::dense::Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row_entries(i) {
                m.add_at(i, j, v);
            }
        }
        m
    }

    /// Transposed copy.
    pub fn transpose(&self) -> CsrMatrix {
        let mut triplets = Vec::with_capacity(self.nnz());
        for i in 0..self.rows {
            for (j, v) in self.row_entries(i) {
                triplets.push((j, i, v));
            }
        }
        CsrMatrix::from_triplets(self.cols, self.rows, &triplets)
    }

    /// Validates internal invariants; used by property tests.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidArgument`] describing the violated
    /// invariant.
    pub fn validate(&self) -> Result<()> {
        if self.row_ptr.len() != self.rows + 1 {
            return Err(NumericsError::InvalidArgument {
                context: "row_ptr length".into(),
            });
        }
        if self.row_ptr[0] != 0 || *self.row_ptr.last().unwrap() != self.values.len() {
            return Err(NumericsError::InvalidArgument {
                context: "row_ptr endpoints".into(),
            });
        }
        for w in self.row_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(NumericsError::InvalidArgument {
                    context: "row_ptr not monotone".into(),
                });
            }
        }
        for i in 0..self.rows {
            let s = &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]];
            for w in s.windows(2) {
                if w[1] <= w[0] {
                    return Err(NumericsError::InvalidArgument {
                        context: format!("row {i} columns not strictly increasing"),
                    });
                }
            }
            if s.iter().any(|&c| c >= self.cols) {
                return Err(NumericsError::InvalidArgument {
                    context: format!("row {i} column out of range"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coo_duplicates_are_summed() {
        let mut coo = CooBuilder::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.5);
        coo.push(1, 0, -1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 0), 3.5);
        assert_eq!(csr.get(1, 0), -1.0);
        assert_eq!(csr.get(1, 1), 0.0);
        csr.validate().unwrap();
    }

    #[test]
    fn empty_rows_are_handled() {
        let csr = CsrMatrix::from_triplets(4, 4, &[(0, 1, 1.0), (3, 3, 2.0)]);
        csr.validate().unwrap();
        assert_eq!(csr.matvec(&[1.0, 1.0, 1.0, 1.0]), vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn matvec_matches_dense() {
        let triplets = [
            (0, 0, 2.0),
            (0, 2, -1.0),
            (1, 1, 3.0),
            (2, 0, 0.5),
            (2, 2, 4.0),
        ];
        let csr = CsrMatrix::from_triplets(3, 3, &triplets);
        let dense = csr.to_dense();
        let x = [1.0, -2.0, 3.0];
        assert_eq!(csr.matvec(&x), dense.matvec(&x));
    }

    #[test]
    fn diagonal_extraction() {
        let csr = CsrMatrix::from_triplets(3, 3, &[(0, 0, 5.0), (1, 2, 1.0), (2, 2, -3.0)]);
        assert_eq!(csr.diagonal(), vec![5.0, 0.0, -3.0]);
    }

    #[test]
    fn transpose_is_involutive() {
        let csr = CsrMatrix::from_triplets(2, 3, &[(0, 1, 1.0), (1, 0, 2.0), (1, 2, 3.0)]);
        assert_eq!(csr.transpose().transpose(), csr);
    }
}
