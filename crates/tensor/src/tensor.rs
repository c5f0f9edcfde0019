//! The dense row-major tensor type.

use crate::kernels;
use crate::TensorError;
use fedpkd_rng::Rng;

/// A dense, row-major tensor of `f32` values.
///
/// Shapes are dynamic; the training stack uses rank-2 tensors
/// `[batch, features]` almost everywhere and rank-4 `[n, c, h, w]` on the
/// convolutional path.
///
/// # Examples
///
/// ```
/// use fedpkd_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// assert_eq!(t.shape(), &[2, 2]);
/// assert_eq!(t.row(1), &[3.0, 4.0]);
/// # Ok::<(), fedpkd_tensor::TensorError>(())
/// ```
#[derive(Debug, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Self {
            data: self.data.clone(),
            shape: self.shape.clone(),
        }
    }

    /// Overwrites `self` with `source`, reusing both allocations when they
    /// are large enough — what the layers' per-batch activation caches use.
    fn clone_from(&mut self, source: &Self) {
        self.data.clone_from(&source.data);
        self.shape.clone_from(&source.shape);
    }
}

impl Tensor {
    /// A tensor that owns no memory yet (unlike [`Tensor::default`], whose
    /// shape allocates): something to be overwritten, not read.
    pub(crate) const fn placeholder() -> Self {
        Self {
            data: Vec::new(),
            shape: Vec::new(),
        }
    }

    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the product of `shape`
    /// does not equal `data.len()`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Self {
            data,
            shape: shape.to_vec(),
        })
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            data: vec![0.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            data: vec![value; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor of i.i.d. Gaussian entries with the given standard
    /// deviation (mean zero).
    pub fn randn(shape: &[usize], std_dev: f32, rng: &mut Rng) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|_| (rng.standard_normal() as f32) * std_dev)
            .collect();
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor of i.i.d. uniform entries in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| lo + rng.next_f32() * (hi - lo)).collect();
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of rows (first dimension). Zero for rank-0 tensors.
    pub fn rows(&self) -> usize {
        self.shape.first().copied().unwrap_or(0)
    }

    /// Number of columns for a rank-2 tensor, or the row stride in general
    /// (product of all dimensions after the first).
    pub fn cols(&self) -> usize {
        self.shape.iter().skip(1).product()
    }

    /// Immutable view of the underlying data (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Immutable view of row `r` (all trailing dimensions flattened).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        let stride = self.cols();
        &self.data[r * stride..(r + 1) * stride]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let stride = self.cols();
        &mut self.data[r * stride..(r + 1) * stride]
    }

    /// Returns a new tensor containing the selected rows, in the given order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if any index exceeds the row
    /// count.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Self, TensorError> {
        let mut out = Self::placeholder();
        self.select_rows_into(indices, &mut out)?;
        Ok(out)
    }

    /// [`select_rows`](Self::select_rows) into `out`, overwriting it and
    /// reusing both of its allocations when they are large enough — what a
    /// mini-batch loop gathers its batches with.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if any index exceeds the row
    /// count; `out` then holds the rows before it and must not be read.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Self) -> Result<(), TensorError> {
        let stride = self.cols();
        let rows = self.rows();
        out.data.clear();
        out.data.reserve_exact(indices.len() * stride);
        // Exactly as large as a fresh clone would be: a batch buffer built
        // here allocates byte for byte what `select_rows` always has.
        out.shape.clear();
        out.shape.reserve_exact(self.shape.len().max(1));
        out.shape.push(indices.len());
        out.shape.extend(self.shape.iter().skip(1));
        for &i in indices {
            if i >= rows {
                return Err(TensorError::IndexOutOfBounds {
                    index: i,
                    bound: rows,
                });
            }
            out.data.extend_from_slice(self.row(i));
        }
        Ok(())
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts
    /// differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected,
                actual: self.data.len(),
            });
        }
        Ok(Self {
            data: self.data.clone(),
            shape: shape.to_vec(),
        })
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_with(other, |a, b| a * b)
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Self) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Sets every element to `value`, in place.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Returns `self * scalar` as a new tensor.
    pub fn scale(&self, scalar: f32) -> Self {
        self.map(|x| x * scalar)
    }

    /// In-place multiplication by a scalar.
    pub fn scale_in_place(&mut self, scalar: f32) {
        for x in &mut self.data {
            *x *= scalar;
        }
    }

    /// Applies `f` element-wise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Combines two equal-shaped tensors element-wise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_with(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Result<Self, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        Ok(Self {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        })
    }

    /// Checks both operands are rank 2 with matching inner dimensions and
    /// returns `(m, k, n)`.
    fn matmul_dims(&self, other: &Self) -> Result<(usize, usize, usize), TensorError> {
        if self.shape.len() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.len(),
            });
        }
        if other.shape.len() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: other.shape.len(),
            });
        }
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: k,
                right_rows: k2,
            });
        }
        Ok((m, k, n))
    }

    /// Matrix product of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// Runs the register-tiled kernel, bit-identical to
    /// [`Tensor::matmul_scalar`] (see the [`crate::kernels`] docs for the
    /// argument). Nothing is skipped, so a NaN or infinity in `other` always
    /// propagates — `0·NaN` is NaN, not 0.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank 2,
    /// or [`TensorError::MatmulDimMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, other: &Self) -> Result<Self, TensorError> {
        let (m, k, n) = self.matmul_dims(other)?;
        let mut out = vec![0.0f32; m * n];
        kernels::matmul_fast_into(&self.data, &other.data, &mut out, m, k, n, None, false);
        Self::from_vec(out, &[m, n])
    }

    /// Matrix product via the reference scalar kernel (the i-k-j triple
    /// loop).
    ///
    /// This is the specification the tiled and transposed-packed kernels
    /// are held bit-identical to; no production path calls it, equivalence
    /// tests compose their references from it.
    ///
    /// # Errors
    ///
    /// Same contract as [`Tensor::matmul`].
    pub fn matmul_scalar(&self, other: &Self) -> Result<Self, TensorError> {
        let (m, k, n) = self.matmul_dims(other)?;
        let mut out = vec![0.0f32; m * n];
        kernels::matmul_scalar_into(&self.data, &other.data, &mut out, m, k, n);
        Self::from_vec(out, &[m, n])
    }

    /// Fused affine map: `self × other + bias`, with an optional fused ReLU
    /// — `[m, k] × [k, n] + [n] → [m, n]`.
    ///
    /// The bias (and ReLU clamp) are applied per element *after* the full
    /// reduction, so the result is bit-identical to
    /// `matmul` → bias pass → ReLU pass; the kernel folds them into its
    /// store epilogue to save the extra sweeps.
    ///
    /// # Errors
    ///
    /// Same contract as [`Tensor::matmul`], plus
    /// [`TensorError::ShapeMismatch`] if `bias` is not a length-`n` vector.
    pub fn matmul_bias(&self, other: &Self, bias: &Self, relu: bool) -> Result<Self, TensorError> {
        let (m, k, n) = self.matmul_dims(other)?;
        if bias.data.len() != n {
            return Err(TensorError::ShapeMismatch {
                left: vec![n],
                right: bias.shape.clone(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        kernels::matmul_fast_into(
            &self.data,
            &other.data,
            &mut out,
            m,
            k,
            n,
            Some(&bias.data),
            relu,
        );
        Self::from_vec(out, &[m, n])
    }

    /// Matrix product against a pre-transposed right operand:
    /// `self × otherᵀ`, with `self: [m, k]` and `other: [n, k] → [m, n]`.
    ///
    /// This is what the Dense backward uses for `dx = g·Wᵀ`. It repacks
    /// `other` into pooled scratch on every call (a blocked transpose,
    /// O(k·n) against the product's O(m·k·n)) and runs the tiled kernel —
    /// the bits of `self.matmul_scalar(&other.transpose()?)` (see
    /// [`crate::kernels`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank
    /// 2, or [`TensorError::MatmulDimMismatch`] if the shared inner width
    /// `k` differs.
    pub fn matmul_transposed(&self, other: &Self) -> Result<Self, TensorError> {
        if self.shape.len() != 2 || other.shape.len() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: if self.shape.len() != 2 {
                    self.shape.len()
                } else {
                    other.shape.len()
                },
            });
        }
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: k,
                right_rows: k2,
            });
        }
        let mut out = vec![0.0f32; m * n];
        kernels::matmul_transposed_fast_into(&self.data, &other.data, &mut out, m, k, n);
        Self::from_vec(out, &[m, n])
    }

    /// Checks both operands of `selfᵀ × other` are rank 2 with matching row
    /// counts and returns `(r, m, n)`.
    fn tr_matmul_dims(&self, other: &Self) -> Result<(usize, usize, usize), TensorError> {
        if self.shape.len() != 2 || other.shape.len() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: if self.shape.len() != 2 {
                    self.shape.len()
                } else {
                    other.shape.len()
                },
            });
        }
        let (r, m) = (self.shape[0], self.shape[1]);
        let (r2, n) = (other.shape[0], other.shape[1]);
        if r != r2 {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: r,
                right_rows: r2,
            });
        }
        Ok((r, m, n))
    }

    /// Matrix product with a transposed left operand: `selfᵀ × other`, with
    /// `self: [r, m]` and `other: [r, n] → [m, n]`.
    ///
    /// The reduction runs over the shared row count `r`, so both operands
    /// are read in their natural row-major layout.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank
    /// 2, or [`TensorError::MatmulDimMismatch`] if the row counts differ.
    pub fn tr_matmul(&self, other: &Self) -> Result<Self, TensorError> {
        let (_, m, n) = self.tr_matmul_dims(other)?;
        let mut out = Self::zeros(&[m, n]);
        self.tr_matmul_acc(other, &mut out)?;
        Ok(out)
    }

    /// Accumulating form of [`tr_matmul`](Self::tr_matmul):
    /// `acc += selfᵀ × other` — what the Dense backward uses for
    /// `dW = xᵀ·g`, summed straight into the weight gradient. Bit-identical
    /// to `acc.axpy(1.0, &self.transpose()?.matmul_scalar(other)?)`; each
    /// finished sum is added in the kernel's store epilogue, so no `[m, n]`
    /// temporary exists.
    ///
    /// # Errors
    ///
    /// Same contract as [`tr_matmul`](Self::tr_matmul), plus
    /// [`TensorError::ShapeMismatch`] unless `acc` is `[m, n]`.
    pub fn tr_matmul_acc(&self, other: &Self, acc: &mut Self) -> Result<(), TensorError> {
        let (_, m, n) = self.tr_matmul_dims(other)?;
        if acc.shape != [m, n] {
            return Err(TensorError::ShapeMismatch {
                left: vec![m, n],
                right: acc.shape.clone(),
            });
        }
        self.tr_matmul_acc_into(other, &mut acc.data)
    }

    /// [`tr_matmul_acc`](Self::tr_matmul_acc) onto a row-major `[m, n]`
    /// slice: the fused step's `dW`, formed in thread scratch.
    ///
    /// # Errors
    ///
    /// Same contract as [`tr_matmul`](Self::tr_matmul), plus
    /// [`TensorError::ShapeMismatch`] unless `acc` has `m · n` elements.
    pub(crate) fn tr_matmul_acc_into(
        &self,
        other: &Self,
        acc: &mut [f32],
    ) -> Result<(), TensorError> {
        let (r, m, n) = self.tr_matmul_dims(other)?;
        if acc.len() != m * n {
            return Err(TensorError::ShapeMismatch {
                left: vec![m, n],
                right: vec![acc.len()],
            });
        }
        kernels::tr_matmul_fast_into(&self.data, &other.data, acc, r, m, n);
        Ok(())
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 2.
    pub fn transpose(&self) -> Result<Self, TensorError> {
        if self.shape.len() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.len(),
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        kernels::transpose_into(&self.data, &mut out, m, n);
        Self::from_vec(out, &[n, m])
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements. Returns 0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element. Returns `f32::NEG_INFINITY` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Sum along rows: `[m, n] → [n]` (column sums).
    pub fn sum_rows(&self) -> Self {
        let stride = self.cols();
        let mut out = vec![0.0f32; stride];
        self.sum_rows_acc(&mut out);
        Self {
            data: out,
            shape: vec![stride],
        }
    }

    /// `acc += ` each row in turn: onto zeros, [`sum_rows`](Self::sum_rows)
    /// bit for bit — the fused step's `db`, formed in thread scratch.
    ///
    /// # Panics
    ///
    /// Panics unless `acc` has one element per column.
    pub(crate) fn sum_rows_acc(&self, acc: &mut [f32]) {
        assert_eq!(acc.len(), self.cols(), "row-sum width");
        for r in 0..self.rows() {
            for (o, &v) in acc.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Index of the maximum element of each row: `[m, n] → Vec` of length m.
    /// Ties resolve to the lowest index.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows())
            .map(|r| {
                let row = self.row(r);
                let mut best = 0;
                let mut best_v = f32::NEG_INFINITY;
                for (j, &v) in row.iter().enumerate() {
                    if v > best_v {
                        best_v = v;
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Euclidean (L2) norm of the whole tensor.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Whether every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Self {
            data: Vec::new(),
            shape: vec![0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[2]).is_ok());
        assert!(Tensor::from_vec(vec![], &[0, 5]).is_ok());
    }

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let f = Tensor::full(&[4], 2.5);
        assert!(f.as_slice().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn rows_and_cols() {
        let x = t(&[1., 2., 3., 4., 5., 6.], &[2, 3]);
        assert_eq!(x.rows(), 2);
        assert_eq!(x.cols(), 3);
        assert_eq!(x.row(0), &[1., 2., 3.]);
        assert_eq!(x.row(1), &[4., 5., 6.]);
    }

    #[test]
    fn rank4_cols_is_row_stride() {
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        assert_eq!(x.cols(), 48);
        assert_eq!(x.row(1).len(), 48);
    }

    #[test]
    fn select_rows_reorders() {
        let x = t(&[1., 2., 3., 4., 5., 6.], &[3, 2]);
        let y = x.select_rows(&[2, 0]).unwrap();
        assert_eq!(y.shape(), &[2, 2]);
        assert_eq!(y.row(0), &[5., 6.]);
        assert_eq!(y.row(1), &[1., 2.]);
    }

    #[test]
    fn select_rows_into_overwrites_and_reuses_the_buffer() {
        let x = t(&[1., 2., 3., 4., 5., 6.], &[3, 2]);
        let mut out = t(&[9.; 8], &[2, 2, 2]);
        let buffer = out.as_slice().as_ptr();
        for rows in [&[2usize, 0, 1][..], &[1], &[]] {
            x.select_rows_into(rows, &mut out).unwrap();
            assert_eq!(out, x.select_rows(rows).unwrap());
            assert_eq!(out.as_slice().as_ptr(), buffer, "no reallocation");
        }
        assert!(x.select_rows_into(&[0, 3], &mut out).is_err());
    }

    #[test]
    fn select_rows_out_of_bounds() {
        let x = t(&[1., 2.], &[1, 2]);
        assert!(matches!(
            x.select_rows(&[1]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn elementwise_ops() {
        let a = t(&[1., 2., 3.], &[3]);
        let b = t(&[4., 5., 6.], &[3]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).as_slice(), &[2., 4., 6.]);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = t(&[1., 2.], &[2]);
        let b = t(&[1., 2.], &[1, 2]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(&[1., 1.], &[2]);
        let b = t(&[2., 3.], &[2]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2., 2.5]);
    }

    #[test]
    fn matmul_known_product() {
        let a = t(&[1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = t(&[7., 8., 9., 10., 11., 12.], &[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[1., 2., 3., 4.], &[2, 2]);
        let i = t(&[1., 0., 0., 1.], &[2, 2]);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_dim_checks() {
        let a = t(&[1., 2.], &[1, 2]);
        let b = t(&[1., 2., 3.], &[1, 3]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
        let v = t(&[1., 2.], &[2]);
        assert!(matches!(
            v.matmul(&a),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn matmul_propagates_nan_hidden_behind_zero() {
        // Regression: the zero-skip branch used to turn `0·NaN` into `0`,
        // silently masking a diverged operand. A NaN in `b` must reach the
        // output even when the matching `a` entry is zero.
        let a = t(&[0.0, 1.0], &[1, 2]);
        let b = Tensor::from_vec(vec![f32::NAN, 2.0], &[2, 1]).unwrap();
        assert!(a.matmul(&b).unwrap().as_slice()[0].is_nan());
        assert!(a.matmul_scalar(&b).unwrap().as_slice()[0].is_nan());
    }

    #[test]
    fn matmul_propagates_infinity_hidden_behind_zero() {
        // `0·∞` is NaN; the skip must not convert it to 0.
        let a = t(&[0.0], &[1, 1]);
        let b = Tensor::from_vec(vec![f32::INFINITY], &[1, 1]).unwrap();
        assert!(a.matmul(&b).unwrap().as_slice()[0].is_nan());
    }

    #[test]
    fn matmul_zero_skip_is_exact_on_finite_inputs() {
        // With a finite right operand the skip must not change results.
        let a = t(&[0.0, -0.0, 2.0, 0.0, 1.0, -3.0], &[2, 3]);
        let b = t(&[-1., 5., 2., -2., 0., 4.], &[3, 2]);
        let dense = a.map(|x| if x == 0.0 { 1e-30 } else { x });
        let skipped = a.matmul(&b).unwrap();
        assert!(skipped.all_finite());
        // Spot-check against hand computation: row1 = [1*2 + -3*0, 1*-2 + -3*4].
        assert_eq!(skipped.row(1), &[2.0, -14.0]);
        assert!(dense.matmul(&b).is_ok());
    }

    #[test]
    fn matmul_bias_matches_unfused_composition() {
        let mut rng = Rng::seed_from_u64(11);
        let a = Tensor::rand_uniform(&[5, 7], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[7, 3], -1.0, 1.0, &mut rng);
        let bias = Tensor::rand_uniform(&[3], -1.0, 1.0, &mut rng);
        let fused = a.matmul_bias(&b, &bias, true).unwrap();
        let mut unfused = a.matmul_scalar(&b).unwrap();
        for r in 0..unfused.rows() {
            for (o, &bv) in unfused.row_mut(r).iter_mut().zip(bias.as_slice()) {
                *o += bv;
            }
        }
        let unfused = unfused.map(|x| x.max(0.0));
        assert_eq!(
            fused
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            unfused
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn matmul_bias_rejects_wrong_bias_width() {
        let a = t(&[1., 2.], &[1, 2]);
        let b = t(&[1., 2., 3., 4.], &[2, 2]);
        let bias = t(&[1., 2., 3.], &[3]);
        assert!(matches!(
            a.matmul_bias(&b, &bias, false),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matmul_transposed_matches_materialized_transpose() {
        let mut rng = Rng::seed_from_u64(12);
        let a = Tensor::rand_uniform(&[6, 9], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[4, 9], -1.0, 1.0, &mut rng);
        let fast = a.matmul_transposed(&b).unwrap();
        let reference = a.matmul_scalar(&b.transpose().unwrap()).unwrap();
        assert_eq!(fast, reference);
        assert_eq!(fast.shape(), &[6, 4]);
    }

    #[test]
    fn tr_matmul_matches_materialized_transpose() {
        let mut rng = Rng::seed_from_u64(13);
        let a = Tensor::rand_uniform(&[9, 6], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[9, 4], -1.0, 1.0, &mut rng);
        let fast = a.tr_matmul(&b).unwrap();
        let reference = a.transpose().unwrap().matmul_scalar(&b).unwrap();
        assert_eq!(fast, reference);
        assert_eq!(fast.shape(), &[6, 4]);
    }

    #[test]
    fn transposed_kernels_check_dims() {
        let a = t(&[1., 2.], &[1, 2]);
        let b = t(&[1., 2., 3.], &[1, 3]);
        assert!(a.matmul_transposed(&b).is_err());
        assert!(a.tr_matmul(&b).is_ok()); // shared row count 1 → [2, 3]
        let c = t(&[1., 2., 3.], &[3]);
        assert!(a.matmul_transposed(&c).is_err());
        assert!(c.tr_matmul(&a).is_err());
        let d = t(&[1., 2., 3., 4.], &[2, 2]);
        assert!(a.tr_matmul(&d).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = t(&[1., 2., 3., 4., 5., 6.], &[2, 3]);
        let at = a.transpose().unwrap();
        assert_eq!(at.shape(), &[3, 2]);
        assert_eq!(at.as_slice(), &[1., 4., 2., 5., 3., 6.]);
        assert_eq!(at.transpose().unwrap(), a);
    }

    #[test]
    fn transpose_places_every_element_at_whole_and_partial_blocks() {
        // Whole 16×16 blocks take the shuffle path, ragged edges the element
        // loop; hold both to the definition, not to each other.
        for (rows, cols) in [(16, 16), (32, 128), (128, 32), (17, 33), (48, 80), (1, 5)] {
            let data: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
            let at = t(&data, &[rows, cols]).transpose().unwrap();
            assert_eq!(at.shape(), &[cols, rows]);
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(at.as_slice()[c * rows + r], data[r * cols + c]);
                }
            }
        }
    }

    #[test]
    fn reductions() {
        let a = t(&[1., 2., 3., 4.], &[2, 2]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.sum_rows().as_slice(), &[4., 6.]);
    }

    #[test]
    fn empty_tensor_reductions() {
        let e = Tensor::zeros(&[0]);
        assert_eq!(e.sum(), 0.0);
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.max(), f32::NEG_INFINITY);
    }

    #[test]
    fn argmax_rows_breaks_ties_low() {
        let a = t(&[1., 3., 3., 0., 5., 2.], &[2, 3]);
        assert_eq!(a.argmax_rows(), vec![1, 1]);
    }

    #[test]
    fn norms_and_distances() {
        let a = t(&[3., 4.], &[2]);
        assert!((a.l2_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = t(&[1., 2., 3., 4.], &[2, 2]);
        let b = a.reshape(&[4]).unwrap();
        assert_eq!(b.shape(), &[4]);
        assert_eq!(b.as_slice(), a.as_slice());
        assert!(a.reshape(&[5]).is_err());
    }

    #[test]
    fn randn_statistics() {
        let mut rng = Rng::seed_from_u64(9);
        let x = Tensor::randn(&[10_000], 2.0, &mut rng);
        let mean = x.mean();
        let var = x.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.1);
        assert!((var - 4.0).abs() < 0.3);
        assert!(x.all_finite());
    }

    #[test]
    fn rand_uniform_bounds() {
        let mut rng = Rng::seed_from_u64(10);
        let x = Tensor::rand_uniform(&[1000], -0.5, 0.5, &mut rng);
        assert!(x.as_slice().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }
}
