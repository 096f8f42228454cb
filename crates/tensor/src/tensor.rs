use std::fmt;
use std::sync::Arc;

use crate::{Result, TensorError};

/// A contiguous, row-major `f32` tensor.
///
/// The buffer is reference-counted; [`Tensor::clone`] is O(1) and mutation
/// goes through copy-on-write ([`Tensor::data_mut`]). Shapes are dynamic
/// (any rank ≥ 1), though the GNN stack predominantly uses rank-1 and rank-2
/// tensors.
///
/// Most arithmetic lives in free-standing kernel functions and in the
/// [`crate::Graph`] autograd API; `Tensor` itself only carries storage,
/// shape bookkeeping, and a handful of shape-preserving conveniences.
#[derive(Clone)]
pub struct Tensor {
    data: Arc<Vec<f32>>,
    shape: Shape,
}

/// Ranks stored without heap allocation. The GNN stack never exceeds
/// rank 2, so 4 gives generous headroom.
const MAX_INLINE_DIMS: usize = 4;

/// Tensor shape storage: small ranks live in a fixed inline array so
/// `Tensor::clone` — pervasive in autograd closure captures — performs no
/// heap allocation; higher ranks fall back to a heap vector.
#[derive(Clone)]
enum Shape {
    Inline {
        len: u8,
        dims: [usize; MAX_INLINE_DIMS],
    },
    Heap(Vec<usize>),
}

impl Shape {
    fn from_slice(dims: &[usize]) -> Self {
        if dims.len() <= MAX_INLINE_DIMS {
            let mut inline = [0usize; MAX_INLINE_DIMS];
            inline[..dims.len()].copy_from_slice(dims);
            Shape::Inline {
                len: dims.len() as u8,
                dims: inline,
            }
        } else {
            Shape::Heap(dims.to_vec())
        }
    }

    fn as_slice(&self) -> &[usize] {
        match self {
            Shape::Inline { len, dims } => &dims[..*len as usize],
            Shape::Heap(v) => v,
        }
    }
}

impl PartialEq for Shape {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl Tensor {
    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` differs from
    /// the product of `shape`, and [`TensorError::EmptyShape`] for an empty
    /// shape list.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        if shape.is_empty() {
            return Err(TensorError::EmptyShape);
        }
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Self {
            data: Arc::new(data),
            shape: Shape::from_slice(shape),
        })
    }

    /// Creates a zero-filled tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(!shape.is_empty(), "shape must have at least one dimension");
        let len = shape.iter().product();
        Self {
            data: Arc::new(vec![0.0; len]),
            shape: Shape::from_slice(shape),
        }
    }

    /// Creates a tensor filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty.
    pub fn full(shape: &[usize], value: f32) -> Self {
        assert!(!shape.is_empty(), "shape must have at least one dimension");
        let len = shape.iter().product();
        Self {
            data: Arc::new(vec![value; len]),
            shape: Shape::from_slice(shape),
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a 1-D tensor from a slice.
    pub fn from_slice(values: &[f32]) -> Self {
        Self {
            data: Arc::new(values.to_vec()),
            shape: Shape::from_slice(&[values.len()]),
        }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        self.shape.as_slice()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.as_slice().len()
    }

    /// Number of rows, interpreting the tensor as a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn rows(&self) -> usize {
        assert_eq!(self.ndim(), 2, "rows() requires a rank-2 tensor");
        self.shape.as_slice()[0]
    }

    /// Number of columns, interpreting the tensor as a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn cols(&self) -> usize {
        assert_eq!(self.ndim(), 2, "cols() requires a rank-2 tensor");
        self.shape.as_slice()[1]
    }

    /// Read-only view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer; clones the storage if shared.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Crate-internal: the backing buffer, but only if this tensor is its
    /// sole owner. Used by the buffer pool to decide whether a released
    /// tensor can be recycled without copy-on-write hazards.
    pub(crate) fn unique_buffer_mut(&mut self) -> Option<&mut Vec<f32>> {
        Arc::get_mut(&mut self.data)
    }

    /// Crate-internal: rewrite the shape in place without touching the
    /// data buffer (allocation-free for ranks up to [`MAX_INLINE_DIMS`]).
    /// The caller must keep `shape.iter().product()` equal to the buffer
    /// length.
    pub(crate) fn set_shape_in_place(&mut self, shape: &[usize]) {
        debug_assert_eq!(
            shape.iter().product::<usize>(),
            self.data.len(),
            "in-place reshape must preserve element count"
        );
        self.shape = Shape::from_slice(shape);
    }

    /// Size of the tensor contents in bytes (excluding metadata).
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self> {
        if shape.is_empty() {
            return Err(TensorError::EmptyShape);
        }
        let expected: usize = shape.iter().product();
        if expected != self.len() {
            return Err(TensorError::ShapeMismatch {
                expected,
                actual: self.len(),
            });
        }
        Ok(Self {
            data: Arc::clone(&self.data),
            shape: Shape::from_slice(shape),
        })
    }

    /// Borrow a row of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[f32] {
        let cols = self.cols();
        assert!(row < self.rows(), "row {row} out of bounds");
        &self.data[row * cols..(row + 1) * cols]
    }

    /// Scalar value of a single-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor does not have exactly one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() requires a single-element tensor");
        self.data[0]
    }

    /// Element access by flat index.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at(&self, idx: usize) -> f32 {
        self.data[idx]
    }

    /// Element access for rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or indices are out of bounds.
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        let cols = self.cols();
        assert!(r < self.rows() && c < cols, "index ({r},{c}) out of bounds");
        self.data[r * cols + c]
    }

    /// Transpose of a rank-2 tensor (materialized).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Self {
        let (r, c) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; r * c];
        crate::kernels::transpose_into(self, &mut out);
        Self {
            data: Arc::new(out),
            shape: Shape::from_slice(&[c, r]),
        }
    }

    /// Sum of all elements.
    pub fn sum_all(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; 0.0 for an empty tensor.
    pub fn mean_all(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum_all() / self.len() as f32
        }
    }

    /// Maximum absolute element; 0.0 for an empty tensor.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Whether all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// True when `self` and `other` have identical shape and all elements
    /// differ by at most `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// In-place elementwise addition of another tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        let dst = self.data_mut();
        for (d, s) in dst.iter_mut().zip(other.data.iter()) {
            *d += s;
        }
    }

    /// In-place scaling by a scalar.
    pub fn scale_assign(&mut self, factor: f32) {
        for d in self.data_mut() {
            *d *= factor;
        }
    }

    /// Fill every element with `value`.
    pub fn fill(&mut self, value: f32) {
        for d in self.data_mut() {
            *d = value;
        }
    }

    /// Per-row argmax of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (r, c) = (self.rows(), self.cols());
        assert!(c > 0, "argmax_rows requires at least one column");
        (0..r)
            .map(|i| {
                let row = &self.data[i * c..(i + 1) * c];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(j, _)| j)
                    .unwrap_or(0)
            })
            .collect()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor{:?} [", self.shape)?;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.len() > PREVIEW {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

impl Default for Tensor {
    /// A single-element zero tensor.
    fn default() -> Self {
        Tensor::zeros(&[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_shape() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[2]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![1.0, 2.0], &[3]),
            Err(TensorError::ShapeMismatch { expected: 3, actual: 2 })
        ));
        assert!(matches!(
            Tensor::from_vec(vec![], &[]),
            Err(TensorError::EmptyShape)
        ));
    }

    #[test]
    fn zeros_ones_full() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let o = Tensor::ones(&[4]);
        assert!(o.data().iter().all(|&v| v == 1.0));
        let f = Tensor::full(&[2], 3.5);
        assert_eq!(f.data(), &[3.5, 3.5]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.reshape(&[4]).unwrap();
        assert_eq!(r.shape(), &[4]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[5]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transpose();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at2(0, 1), 4.0);
        assert_eq!(tt.transpose(), t);
    }

    #[test]
    fn copy_on_write() {
        let a = Tensor::zeros(&[3]);
        let mut b = a.clone();
        b.data_mut()[0] = 7.0;
        assert_eq!(a.at(0), 0.0);
        assert_eq!(b.at(0), 7.0);
    }

    #[test]
    fn row_and_at2() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t.row(1), &[3.0, 4.0]);
        assert_eq!(t.at2(1, 0), 3.0);
    }

    #[test]
    fn argmax_rows_picks_max() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.2, 0.3, 0.1], &[2, 3]).unwrap();
        assert_eq!(t.argmax_rows(), vec![1, 1]);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[0.5, 0.5]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[1.5, 2.5]);
        a.scale_assign(2.0);
        assert_eq!(a.data(), &[3.0, 5.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1.0, -4.0, 3.0]);
        assert_eq!(t.sum_all(), 0.0);
        assert_eq!(t.mean_all(), 0.0);
        assert_eq!(t.max_abs(), 4.0);
        assert!((t.norm() - (26.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[1.0 + 1e-6, 2.0 - 1e-6]);
        assert!(a.approx_eq(&b, 1e-5));
        assert!(!a.approx_eq(&b, 1e-8));
        let c = Tensor::from_slice(&[1.0]);
        assert!(!a.approx_eq(&c, 1.0));
    }

    #[test]
    fn debug_is_nonempty() {
        let t = Tensor::zeros(&[1]);
        assert!(!format!("{t:?}").is_empty());
    }

    #[test]
    fn size_bytes_counts_f32() {
        let t = Tensor::zeros(&[10, 3]);
        assert_eq!(t.size_bytes(), 120);
    }
}
