//! Dense row-major matrices and the vector helpers the rest of the
//! workspace leans on.
//!
//! [`Matrix`] is deliberately simple: a `Vec<f64>` with a shape. The SPICE
//! engine factors MNA systems of at most a few hundred unknowns, and the
//! neural-network crate multiplies feature matrices of a few thousand rows,
//! so a cache-friendly row-major layout with straightforward loops is both
//! sufficient and easy to audit.

use crate::{gemm, NumericsError, Result};

/// A dense row-major `rows × cols` matrix of `f64`.
///
/// # Example
///
/// ```
/// use stco_numerics::dense::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = a.matmul(&a);
/// assert_eq!(b.get(0, 0), 7.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match shape");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Sets element `(i, j)` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = value;
    }

    /// Adds `value` to element `(i, j)`; the idiom every MNA stamp uses.
    #[inline]
    pub fn add_at(&mut self, i: usize, j: usize, value: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] += value;
    }

    /// Borrow of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.gemm_into(rhs, &mut out);
        out
    }

    /// Accumulating GEMM: `out += self · rhs`, no allocation.
    ///
    /// The kernel is picked from the operand shapes, in this order: a
    /// single-column `rhs` (attention scores, MLP output layers) takes a
    /// row-dot loop; otherwise the cache-blocked, register-tiled kernel
    /// in [`crate::gemm`] runs once the product is large enough to
    /// amortize the pack step ([`crate::gemm::use_blocked`]), and
    /// MNA-sized products stay on the naive ikj loop. Every path produces
    /// bitwise-identical results (proptest-pinned), so the dispatch is
    /// invisible to the determinism contract.
    ///
    /// The dense path deliberately has no per-scalar zero-skip: on dense
    /// operands the branch defeats pipelining and costs more than the
    /// multiplies it saves (sparse stamping belongs in the MNA layer, not
    /// here).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()` or `out` is not
    /// `self.rows() × rhs.cols()`.
    pub fn gemm_into(&self, rhs: &Matrix, out: &mut Matrix) {
        if rhs.cols == 1 {
            self.gemm_into_row_dot(rhs, out);
        } else if gemm::use_blocked(self.rows, rhs.cols, self.cols) {
            self.gemm_into_blocked(rhs, out);
        } else {
            self.gemm_into_naive(rhs, out);
        }
    }

    /// The `n = 1` kernel behind [`Matrix::gemm_into`]: each `out[i]`
    /// accumulates `self[i][k] · rhs[k]` over ascending `k`, one rounded
    /// multiply-then-add per step. That is the naive ikj kernel's exact
    /// sequence, without its one-element inner loop.
    // stco-hot
    fn gemm_into_row_dot(&self, rhs: &Matrix, out: &mut Matrix) {
        self.check_nn_shapes(rhs, out);
        let k = self.cols;
        for (i, o) in out.data.iter_mut().enumerate() {
            let mut acc = *o;
            for (a, b) in self.data[i * k..(i + 1) * k].iter().zip(&rhs.data) {
                acc += a * b;
            }
            *o = acc;
        }
    }

    /// The naive ikj kernel behind [`Matrix::gemm_into`]: the proptest
    /// oracle for the blocked and row-dot paths, and the small-product
    /// fast path.
    // stco-hot
    pub fn gemm_into_naive(&self, rhs: &Matrix, out: &mut Matrix) {
        self.check_nn_shapes(rhs, out);
        // ikj loop order keeps the inner loop contiguous in both operands.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, r) in orow.iter_mut().zip(rrow.iter()) {
                    *o += a * r;
                }
            }
        }
    }

    /// The blocked kernel behind [`Matrix::gemm_into`], callable directly
    /// (below the dispatch threshold) by proptests and benches.
    pub fn gemm_into_blocked(&self, rhs: &Matrix, out: &mut Matrix) {
        self.check_nn_shapes(rhs, out);
        gemm::with_f64_scratch(|apack, bpack| {
            gemm::gemm_nn_blocked(
                self.rows,
                rhs.cols,
                self.cols,
                &self.data,
                &rhs.data,
                &mut out.data,
                apack,
                bpack,
            );
        });
    }

    fn check_nn_shapes(&self, rhs: &Matrix, out: &Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "gemm_into shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, rhs.cols),
            "gemm_into output shape mismatch"
        );
    }

    /// Accumulating transpose-free GEMM: `out += self · rhsᵀ`.
    ///
    /// `rhs` is passed untransposed; no transposed copy is ever
    /// materialized. Accumulation order matches
    /// `self.matmul(&rhs.transpose())` bitwise on both the naive and the
    /// blocked path (size-dispatched like [`Matrix::gemm_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()` or `out` is not
    /// `self.rows() × rhs.rows()`.
    pub fn gemm_nt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        if gemm::use_blocked(self.rows, rhs.rows, self.cols) {
            self.gemm_nt_into_blocked(rhs, out);
        } else {
            self.gemm_nt_into_naive(rhs, out);
        }
    }

    /// The naive row-dot kernel behind [`Matrix::gemm_nt_into`]: the
    /// proptest oracle for the blocked path and the small-product path.
    // stco-hot
    pub fn gemm_nt_into_naive(&self, rhs: &Matrix, out: &mut Matrix) {
        self.check_nt_shapes(rhs, out);
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let orow = &mut out.data[i * rhs.rows..(i + 1) * rhs.rows];
            for (j, o) in orow.iter_mut().enumerate() {
                *o += dot(arow, &rhs.data[j * rhs.cols..(j + 1) * rhs.cols]);
            }
        }
    }

    /// The blocked kernel behind [`Matrix::gemm_nt_into`], callable
    /// directly by proptests and benches.
    pub fn gemm_nt_into_blocked(&self, rhs: &Matrix, out: &mut Matrix) {
        self.check_nt_shapes(rhs, out);
        gemm::with_f64_scratch(|apack, bpack| {
            gemm::gemm_nt_blocked(
                self.rows,
                rhs.rows,
                self.cols,
                &self.data,
                &rhs.data,
                &mut out.data,
                apack,
                bpack,
            );
        });
    }

    fn check_nt_shapes(&self, rhs: &Matrix, out: &Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "gemm_nt_into shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, rhs.rows),
            "gemm_nt_into output shape mismatch"
        );
    }

    /// Accumulating transpose-free GEMM: `out += selfᵀ · rhs`.
    ///
    /// `self` is passed untransposed. Accumulation order matches
    /// `self.transpose().matmul(&rhs)` bitwise on both the naive and the
    /// blocked path (size-dispatched like [`Matrix::gemm_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()` or `out` is not
    /// `self.cols() × rhs.cols()`.
    pub fn gemm_tn_into(&self, rhs: &Matrix, out: &mut Matrix) {
        if gemm::use_blocked(self.cols, rhs.cols, self.rows) {
            self.gemm_tn_into_blocked(rhs, out);
        } else {
            self.gemm_tn_into_naive(rhs, out);
        }
    }

    /// The naive kij kernel behind [`Matrix::gemm_tn_into`]: the proptest
    /// oracle for the blocked path and the small-product path.
    // stco-hot
    pub fn gemm_tn_into_naive(&self, rhs: &Matrix, out: &mut Matrix) {
        self.check_tn_shapes(rhs, out);
        for k in 0..self.rows {
            let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
            for i in 0..self.cols {
                let a = self.data[k * self.cols + i];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, r) in orow.iter_mut().zip(rrow.iter()) {
                    *o += a * r;
                }
            }
        }
    }

    /// The blocked kernel behind [`Matrix::gemm_tn_into`], callable
    /// directly by proptests and benches.
    pub fn gemm_tn_into_blocked(&self, rhs: &Matrix, out: &mut Matrix) {
        self.check_tn_shapes(rhs, out);
        gemm::with_f64_scratch(|apack, bpack| {
            gemm::gemm_tn_blocked(
                self.cols,
                rhs.cols,
                self.rows,
                &self.data,
                &rhs.data,
                &mut out.data,
                apack,
                bpack,
            );
        });
    }

    fn check_tn_shapes(&self, rhs: &Matrix, out: &Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "gemm_tn_into shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, rhs.cols),
            "gemm_tn_into output shape mismatch"
        );
    }

    /// Reshapes the matrix to `rows × cols` and zero-fills it, reusing the
    /// existing allocation whenever the new size fits. The workspace idiom
    /// every hot loop uses instead of `Matrix::zeros`.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix-vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec shape mismatch");
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            *o = dot(self.row(i), x);
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// In-place scaling by a scalar.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Elementwise sum of two equally-shaped matrices.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Solves `self · x = b` by LU factorization with partial pivoting.
    ///
    /// The receiver is copied and the factors and solution are allocated
    /// per call. Use [`Matrix::lu_factor`] to reuse a factorization across
    /// right-hand sides, or [`Matrix::lu_factor_into`] and
    /// [`LuFactors::solve_into`] to reuse the buffers across systems (the
    /// SPICE Newton loop factors every iteration's system that way).
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::SingularMatrix`] if a pivot underflows, and
    /// [`NumericsError::ShapeMismatch`] if `b.len() != self.rows()` or the
    /// matrix is not square.
    pub fn lu_solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let lu = self.lu_factor()?;
        lu.solve(b)
    }

    /// Computes an LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::ShapeMismatch`] if the matrix is not square
    /// and [`NumericsError::SingularMatrix`] on pivot breakdown.
    pub fn lu_factor(&self) -> Result<LuFactors> {
        let mut factors = LuFactors::default();
        self.lu_factor_into(&mut factors)?;
        Ok(factors)
    }

    /// Factors into an existing [`LuFactors`], reusing its buffers.
    ///
    /// The factor-once / solve-many workhorse of the SPICE Newton loop: no
    /// allocation once the factors have grown to the system size.
    ///
    /// Gaussian elimination with partial pivoting that skips the work whose
    /// result is known bit for bit. At step `k` the pivot row's nonzero
    /// trailing columns are recorded. A row whose column-`k` entry is
    /// exactly zero gets the multiplier `0.0 / pivot` and is otherwise left
    /// alone; every other row is updated at the recorded columns only, or
    /// through the contiguous loop when the pivot row has no zero (as in a
    /// dense matrix). A skipped `a − f·(±0)` leaves `a` unchanged when `f`
    /// is finite and `a` is not −0.0. So a step skips only when the input
    /// holds no −0.0 (in round-to-nearest `a − p` is −0.0 only when `a` is,
    /// so none ever reaches the trailing block) and its pivot row is
    /// finite, and a row only when its multiplier is finite; anything else
    /// runs the dense update. The pivot search and the per-entry update
    /// order are the dense kernel's, so every input factors to its bits,
    /// but for one case no solve can see: a signaling NaN input stays
    /// signaling where the dense update would have quieted it, and the
    /// solve's own arithmetic quiets it. An MNA system, which starts from
    /// +0.0 and only adds, always skips.
    ///
    /// # Errors
    ///
    /// Same as [`Matrix::lu_factor`]. On error the factors are left in an
    /// unspecified (but safely reusable) state.
    // stco-hot
    pub fn lu_factor_into(&self, factors: &mut LuFactors) -> Result<()> {
        if self.rows != self.cols {
            return Err(NumericsError::ShapeMismatch {
                context: format!("LU of non-square {}x{} matrix", self.rows, self.cols),
            });
        }
        let n = self.rows;
        factors.n = n;
        factors.lu.clear();
        factors.lu.extend_from_slice(&self.data);
        factors.perm.clear();
        factors.perm.extend(0..n);
        factors.cols.clear();
        factors.cols.resize(n, 0);
        // The OR of the bits of every zero entry is nonzero iff one is −0.0.
        let neg_zero = self
            .data
            .iter()
            .fold(0, |acc, &v| acc | if v == 0.0 { v.to_bits() } else { 0 });
        let skippable = neg_zero == 0;
        let LuFactors { lu, perm, cols, .. } = factors;
        for k in 0..n {
            // Partial pivoting: find the largest magnitude in column k.
            let mut p = k;
            let mut max = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let v = lu[i * n + k].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max < 1e-300 {
                return Err(NumericsError::SingularMatrix { pivot: k });
            }
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
                perm.swap(k, p);
            }
            let (upper, lower) = lu.split_at_mut((k + 1) * n);
            let pivot = upper[k * n + k];
            let urow = &upper[k * n + k + 1..];
            // Record the pivot row's nonzero trailing columns.
            let mut nnz = 0;
            let mut finite = pivot.is_finite();
            for (j, &u) in urow.iter().enumerate() {
                finite &= u.is_finite();
                cols[nnz] = j;
                nnz += usize::from(u != 0.0);
            }
            let skip = skippable && finite;
            let zero_factor = 0.0 / pivot;
            for row in lower.chunks_exact_mut(n) {
                let l = row[k];
                if skip && l == 0.0 {
                    row[k] = zero_factor;
                    continue;
                }
                let factor = l / pivot;
                row[k] = factor;
                let trailing = &mut row[k + 1..];
                if skip && nnz < urow.len() && factor.is_finite() {
                    for &j in &cols[..nnz] {
                        trailing[j] -= factor * urow[j];
                    }
                } else {
                    for (a, &u) in trailing.iter_mut().zip(urow) {
                        *a -= factor * u;
                    }
                }
            }
        }
        Ok(())
    }
}

/// An LU factorization with partial pivoting, reusable across right-hand
/// sides.
///
/// # Example
///
/// ```
/// use stco_numerics::dense::Matrix;
///
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = a.lu_factor().expect("nonsingular");
/// let x = lu.solve(&[3.0, 5.0]).expect("solve");
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
    /// Factorization scratch: the current pivot row's nonzero trailing
    /// columns, kept so a warm workspace factors without allocating.
    cols: Vec<usize>,
}

impl LuFactors {
    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` into a caller-owned buffer, reusing its allocation.
    ///
    /// `x` is cleared and refilled; its capacity is reused, so repeated
    /// solves against the same workspace are allocation-free. Produces the
    /// same bits as [`LuFactors::solve`].
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::ShapeMismatch`] if `b.len() != self.dim()`.
    // stco-hot
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<()> {
        if b.len() != self.n {
            return Err(NumericsError::ShapeMismatch {
                context: format!("rhs length {} vs system dim {}", b.len(), self.n),
            });
        }
        let n = self.n;
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let s = dot(&self.lu[i * n..i * n + i], &x[..i]);
            x[i] -= s;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let s = dot(&self.lu[i * n + i + 1..i * n + n], &x[i + 1..n]);
            x[i] = (x[i] - s) / self.lu[i * n + i];
        }
        Ok(())
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y ← y + alpha * x` for equal-length slices.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_returns_rhs() -> Result<()> {
        let a = Matrix::identity(4);
        let b = vec![1.0, -2.0, 3.0, 0.5];
        let x = a.lu_solve(&b)?;
        for (xi, bi) in x.iter().zip(b.iter()) {
            assert!((xi - bi).abs() < 1e-14);
        }
        Ok(())
    }

    #[test]
    fn lu_solve_matches_known_solution() -> Result<()> {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let x = a.lu_solve(&[8.0, -11.0, -3.0])?;
        let expected = [2.0, 3.0, -1.0];
        for (xi, ei) in x.iter().zip(expected.iter()) {
            assert!((xi - ei).abs() < 1e-12, "{x:?}");
        }
        Ok(())
    }

    #[test]
    fn lu_requires_pivoting() -> Result<()> {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.lu_solve(&[2.0, 3.0])?;
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
        Ok(())
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        match a.lu_solve(&[1.0, 2.0]) {
            Err(NumericsError::SingularMatrix { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn non_square_lu_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.lu_factor(),
            Err(NumericsError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matmul_against_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(0, 1), 64.0);
        assert_eq!(c.get(1, 0), 139.0);
        assert_eq!(c.get(1, 1), 154.0);
    }

    #[test]
    fn matvec_matches_matmul_with_column() {
        let a = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]);
        let y = a.matvec(&[3.0, 4.0]);
        assert_eq!(y, vec![-1.0, 8.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn lu_factors_reusable_across_rhs() -> Result<()> {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let lu = a.lu_factor()?;
        for b in [[1.0, 0.0], [0.0, 1.0], [5.0, -2.0]] {
            let x = lu.solve(&b)?;
            let r0 = 4.0 * x[0] + x[1] - b[0];
            let r1 = x[0] + 3.0 * x[1] - b[1];
            assert!(r0.abs() < 1e-12 && r1.abs() < 1e-12);
        }
        Ok(())
    }

    #[test]
    fn gemm_into_accumulates() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut out = Matrix::full(2, 2, 1.0);
        a.gemm_into(&b, &mut out);
        let expected = a.matmul(&b);
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(out.get(i, j), expected.get(i, j) + 1.0);
            }
        }
    }

    #[test]
    fn gemm_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0, 9.0], &[1.0, -1.0, 2.0]]);
        let mut out = Matrix::zeros(2, 2);
        a.gemm_nt_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b.transpose()));
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let mut out = Matrix::zeros(2, 2);
        a.gemm_tn_into(&b, &mut out);
        assert_eq!(out, a.transpose().matmul(&b));
    }

    #[test]
    fn reset_zeroed_reuses_and_reshapes() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.reset_zeroed(1, 3);
        assert_eq!((m.rows(), m.cols()), (1, 3));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn lu_factor_into_reuses_buffers() -> Result<()> {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let mut factors = LuFactors::default();
        a.lu_factor_into(&mut factors)?;
        let fresh = a.lu_factor()?;
        assert_eq!(factors.lu, fresh.lu);
        assert_eq!(factors.perm, fresh.perm);
        // Refactor a different (larger) system into the same workspace.
        let b = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]]);
        b.lu_factor_into(&mut factors)?;
        assert_eq!(factors.dim(), 3);
        let x = factors.solve(&[1.0, 2.0, 3.0])?;
        assert_eq!(x, vec![2.0, 1.0, 3.0]);
        Ok(())
    }

    #[test]
    fn solve_into_matches_solve_bitwise() -> Result<()> {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, -1.0], &[0.2, -0.7, 5.0]]);
        let lu = a.lu_factor()?;
        let b = [1.0, -2.0, 0.25];
        let fresh = lu.solve(&b)?;
        let mut reused = vec![99.0; 7];
        lu.solve_into(&b, &mut reused)?;
        assert_eq!(fresh.len(), reused.len());
        for (f, r) in fresh.iter().zip(reused.iter()) {
            assert_eq!(f.to_bits(), r.to_bits());
        }
        Ok(())
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }
}
