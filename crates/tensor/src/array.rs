//! Contiguous row-major `f32` n-dimensional arrays.
//!
//! [`NdArray`] is the numeric workhorse underneath the autograd layer: it
//! implements numpy-style broadcasting, batched matrix multiplication (the
//! `ikj` loop order so the inner loop vectorises), axis reductions, shape
//! manipulation, and the `im2col`/`col2im` pair that turns convolution into
//! matrix multiplication.
//!
//! Arrays are always contiguous after every operation; at the sizes used by
//! skeleton models (`V = 25`, `T ≤ 64`, `C ≤ 256`) this is both simpler and
//! faster than maintaining strided views.

use std::fmt;

use crate::shape_check::ShapeError;
use crate::workspace::Workspace;

/// A dense, contiguous, row-major `f32` n-dimensional array.
///
/// The empty shape `[]` denotes a scalar holding exactly one element.
#[derive(Clone, PartialEq)]
pub struct NdArray {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for NdArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NdArray(shape={:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(f, ", data=[{} elements])", self.data.len())
        }
    }
}

/// Number of elements implied by a shape (product of dimensions; 1 for `[]`).
#[inline]
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Row-major strides for a contiguous array of the given shape.
pub fn contiguous_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![0; shape.len()];
    let mut acc = 1usize;
    for d in (0..shape.len()).rev() {
        strides[d] = acc;
        acc *= shape[d];
    }
    strides
}

/// Broadcast two shapes following numpy rules (align trailing dimensions;
/// a dimension of 1 stretches). Returns `None` if the shapes are
/// incompatible.
pub fn broadcast_shape(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let nd = a.len().max(b.len());
    let mut out = vec![0; nd];
    for d in 0..nd {
        let da = if d < nd - a.len() { 1 } else { a[d - (nd - a.len())] };
        let db = if d < nd - b.len() { 1 } else { b[d - (nd - b.len())] };
        out[d] = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            return None;
        };
    }
    Some(out)
}

/// Strides for iterating an array of shape `src` as if broadcast to `dst`
/// (stride 0 on stretched dimensions). `src` must be broadcast-compatible
/// with `dst` and `dst.len() >= src.len()`.
fn broadcast_strides(src: &[usize], dst: &[usize]) -> Vec<usize> {
    let nd = dst.len();
    let base = contiguous_strides(src);
    let offset = nd - src.len();
    let mut out = vec![0usize; nd];
    for d in 0..src.len() {
        out[offset + d] = if src[d] == 1 && dst[offset + d] != 1 { 0 } else { base[d] };
    }
    out
}

impl NdArray {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// An array of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        NdArray { shape: shape.to_vec(), data: vec![0.0; numel(shape)] }
    }

    /// An array of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// An array filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        NdArray { shape: shape.to_vec(), data: vec![value; numel(shape)] }
    }

    /// Wrap an existing buffer. Panics if `data.len()` does not match the
    /// shape.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            numel(shape),
            "from_vec: data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        NdArray { shape: shape.to_vec(), data }
    }

    /// A rank-0 scalar.
    pub fn scalar(value: f32) -> Self {
        NdArray { shape: vec![], data: vec![value] }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut a = Self::zeros(&[n, n]);
        for i in 0..n {
            a.data[i * n + i] = 1.0;
        }
        a
    }

    /// Evenly spaced values `[0, 1, ..., n-1]` as a rank-1 array.
    pub fn arange(n: usize) -> Self {
        NdArray { shape: vec![n], data: (0..n).map(|i| i as f32).collect() }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The shape of the array.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array holds no elements (some dimension is zero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat, row-major data buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat data buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the array and return its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Value of a rank-0 or single-element array.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on array with {} elements", self.data.len());
        self.data[0]
    }

    /// Element at a multi-index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Set the element at a multi-index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let i = self.flat_index(index);
        self.data[i] = value;
    }

    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let strides = contiguous_strides(&self.shape);
        index
            .iter()
            .zip(&self.shape)
            .zip(&strides)
            .map(|((&i, &d), &s)| {
                assert!(i < d, "index {i} out of bounds for dim of size {d}");
                i * s
            })
            .sum()
    }

    // ------------------------------------------------------------------
    // Elementwise
    // ------------------------------------------------------------------

    /// Apply `f` to every element, producing a new array.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        NdArray { shape: self.shape.clone(), data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combine two same-shaped arrays elementwise (no broadcasting).
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        NdArray {
            shape: self.shape.clone(),
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// Elementwise binary operation with numpy broadcasting.
    pub fn binop(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        if self.shape == other.shape {
            return self.zip_map(other, f);
        }
        let out_shape = broadcast_shape(&self.shape, &other.shape).unwrap_or_else(|| {
            panic!("broadcast mismatch: {:?} vs {:?}", self.shape, other.shape)
        });
        let n = numel(&out_shape);
        let sa = broadcast_strides(&self.shape, &out_shape);
        let sb = broadcast_strides(&other.shape, &out_shape);
        let nd = out_shape.len();
        let mut data = Vec::with_capacity(n);
        let mut idx = vec![0usize; nd];
        let (mut oa, mut ob) = (0usize, 0usize);
        for _ in 0..n {
            data.push(f(self.data[oa], other.data[ob]));
            // odometer increment from the last dimension
            for d in (0..nd).rev() {
                idx[d] += 1;
                oa += sa[d];
                ob += sb[d];
                if idx[d] < out_shape[d] {
                    break;
                }
                idx[d] = 0;
                oa -= sa[d] * out_shape[d];
                ob -= sb[d] * out_shape[d];
            }
        }
        NdArray { shape: out_shape, data }
    }

    /// Elementwise sum with broadcasting.
    pub fn add(&self, other: &Self) -> Self {
        self.binop(other, |a, b| a + b)
    }

    /// Elementwise difference with broadcasting.
    pub fn sub(&self, other: &Self) -> Self {
        self.binop(other, |a, b| a - b)
    }

    /// Elementwise product with broadcasting.
    pub fn mul(&self, other: &Self) -> Self {
        self.binop(other, |a, b| a * b)
    }

    /// Elementwise quotient with broadcasting.
    pub fn div(&self, other: &Self) -> Self {
        self.binop(other, |a, b| a / b)
    }

    /// Add `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map(|v| v + s)
    }

    /// Multiply every element by `s`.
    pub fn mul_scalar(&self, s: f32) -> Self {
        self.map(|v| v * s)
    }

    /// Accumulate `other * scale` into `self` (same shape, no broadcast).
    pub fn add_assign_scaled(&mut self, other: &Self, scale: f32) {
        assert_eq!(self.shape, other.shape, "add_assign_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * scale;
        }
    }

    /// `max(x, 0)` applied in place — the inference-path ReLU, which reuses
    /// the input buffer instead of allocating a fresh array.
    pub fn relu_inplace(&mut self) {
        for v in &mut self.data {
            *v = v.max(0.0);
        }
    }

    /// `self += other` followed by an in-place ReLU, fused into one pass
    /// (the residual-join epilogue of every block's inference path).
    pub fn add_relu_inplace(&mut self, other: &Self) {
        assert_eq!(self.shape, other.shape, "add_relu_inplace shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = (*a + b).max(0.0);
        }
    }

    /// Per-channel affine `x[n, c, ...] = x[n, c, ...] * scale[c] + shift[c]`
    /// over axis 1, in place. This is exactly an eval-mode BatchNorm once
    /// the running statistics are folded into `(scale, shift)`.
    pub fn channel_affine_inplace(&mut self, scale: &[f32], shift: &[f32]) {
        assert!(self.ndim() >= 2, "channel_affine_inplace needs rank >= 2");
        let c = self.shape[1];
        assert_eq!(scale.len(), c, "channel_affine_inplace scale length mismatch");
        assert_eq!(shift.len(), c, "channel_affine_inplace shift length mismatch");
        let inner: usize = self.shape[2..].iter().product();
        for plane in self.data.chunks_mut(c * inner) {
            for (ci, chan) in plane.chunks_mut(inner).enumerate() {
                let (s, b) = (scale[ci], shift[ci]);
                for v in chan {
                    *v = *v * s + b;
                }
            }
        }
    }

    /// Add `bias[c]` to every element of channel `c` (axis 1), optionally
    /// fusing a ReLU into the same pass — the epilogue of a folded
    /// convolution, replacing the separate broadcast-add and ReLU ops of
    /// the training path.
    pub fn bias_relu_inplace(&mut self, bias: &[f32], relu: bool) {
        assert!(self.ndim() >= 2, "bias_relu_inplace needs rank >= 2");
        let c = self.shape[1];
        assert_eq!(bias.len(), c, "bias_relu_inplace bias length mismatch");
        let inner: usize = self.shape[2..].iter().product();
        for plane in self.data.chunks_mut(c * inner) {
            for (ci, chan) in plane.chunks_mut(inner).enumerate() {
                let b = bias[ci];
                if relu {
                    for v in chan {
                        *v = (*v + b).max(0.0);
                    }
                } else {
                    for v in chan {
                        *v += b;
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reinterpret the buffer with a new shape of the same element count.
    /// A single `usize::MAX` ("infer") dimension is allowed.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        let shape = resolve_reshape(self.len(), shape);
        assert_eq!(numel(&shape), self.len(), "reshape to {shape:?} from {:?}", self.shape);
        NdArray { shape, data: self.data.clone() }
    }

    /// [`NdArray::reshape`] by value: reinterpret the shape without copying
    /// the buffer. The zero-cost reshape for owned intermediates on the
    /// inference path (`reshape` on a borrowed array must clone).
    pub fn into_shape(self, shape: &[usize]) -> Self {
        let shape = resolve_reshape(self.len(), shape);
        assert_eq!(numel(&shape), self.len(), "into_shape to {shape:?} from {:?}", self.shape);
        NdArray { shape, data: self.data }
    }

    /// Materialise a permutation of the axes. `perm` must be a permutation of
    /// `0..ndim`.
    pub fn permute(&self, perm: &[usize]) -> Self {
        let nd = self.ndim();
        assert_eq!(perm.len(), nd, "permute rank mismatch");
        let mut seen = vec![false; nd];
        for &p in perm {
            assert!(p < nd && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let out_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        let in_strides = contiguous_strides(&self.shape);
        // stride of output dim d in the *input* buffer
        let strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        let n = self.len();
        let mut data = Vec::with_capacity(n);
        let mut idx = vec![0usize; nd];
        let mut off = 0usize;
        for _ in 0..n {
            data.push(self.data[off]);
            for d in (0..nd).rev() {
                idx[d] += 1;
                off += strides[d];
                if idx[d] < out_shape[d] {
                    break;
                }
                idx[d] = 0;
                off -= strides[d] * out_shape[d];
            }
        }
        NdArray { shape: out_shape, data }
    }

    /// Swap the last two axes (matrix transpose for the batched case).
    pub fn transpose_last2(&self) -> Self {
        let nd = self.ndim();
        assert!(nd >= 2, "transpose_last2 needs rank >= 2");
        let mut perm: Vec<usize> = (0..nd).collect();
        perm.swap(nd - 1, nd - 2);
        self.permute(&perm)
    }

    /// Materialise this array broadcast to `shape`.
    pub fn broadcast_to(&self, shape: &[usize]) -> Self {
        if self.shape == shape {
            return self.clone();
        }
        let bs = broadcast_shape(&self.shape, shape)
            .unwrap_or_else(|| panic!("cannot broadcast {:?} to {:?}", self.shape, shape));
        assert_eq!(bs, shape, "cannot broadcast {:?} to {:?}", self.shape, shape);
        NdArray::zeros(shape).binop(self, |_, b| b)
    }

    /// Sum a gradient-like array down to `target` shape, undoing broadcasting
    /// (sums over prepended dims and dims that were stretched from 1).
    pub fn reduce_to_shape(&self, target: &[usize]) -> Self {
        if self.shape == target {
            return self.clone();
        }
        let nd = self.ndim();
        let offset = nd - target.len();
        // sum over the leading extra dims and over stretched dims
        let mut axes: Vec<usize> = (0..offset).collect();
        for (d, &t) in target.iter().enumerate() {
            if t == 1 && self.shape[offset + d] != 1 {
                axes.push(offset + d);
            }
        }
        let summed = self.sum_axes(&axes, true);
        summed.reshape(target)
    }

    /// Concatenate arrays along `axis`. All other dimensions must match.
    pub fn concat(parts: &[&NdArray], axis: usize) -> Self {
        assert!(!parts.is_empty(), "concat of zero arrays");
        let nd = parts[0].ndim();
        assert!(axis < nd, "concat axis out of range");
        let mut out_shape = parts[0].shape.clone();
        out_shape[axis] = parts.iter().map(|p| p.shape[axis]).sum();
        for p in parts {
            assert_eq!(p.ndim(), nd, "concat rank mismatch");
            for (d, &want) in out_shape.iter().enumerate() {
                if d != axis {
                    assert_eq!(p.shape[d], want, "concat dim {d} mismatch");
                }
            }
        }
        let outer: usize = parts[0].shape[..axis].iter().product();
        let inner: usize = parts[0].shape[axis + 1..].iter().product();
        let mut data = Vec::with_capacity(numel(&out_shape));
        for o in 0..outer {
            for p in parts {
                let block = p.shape[axis] * inner;
                let start = o * block;
                data.extend_from_slice(&p.data[start..start + block]);
            }
        }
        NdArray { shape: out_shape, data }
    }

    /// Extract `len` consecutive indices starting at `start` along `axis`.
    pub fn slice_axis(&self, axis: usize, start: usize, len: usize) -> Self {
        assert!(axis < self.ndim(), "slice axis out of range");
        assert!(start + len <= self.shape[axis], "slice out of bounds");
        let outer: usize = self.shape[..axis].iter().product();
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut out_shape = self.shape.clone();
        out_shape[axis] = len;
        let mut data = Vec::with_capacity(outer * len * inner);
        let src_block = self.shape[axis] * inner;
        for o in 0..outer {
            let base = o * src_block + start * inner;
            data.extend_from_slice(&self.data[base..base + len * inner]);
        }
        NdArray { shape: out_shape, data }
    }

    /// Scatter-add `src` (shaped like the slice) back into a zero array of
    /// `full_shape` at the given position along `axis`. Inverse of
    /// [`NdArray::slice_axis`] for gradients.
    pub fn unslice_axis(src: &NdArray, full_shape: &[usize], axis: usize, start: usize) -> Self {
        let mut out = NdArray::zeros(full_shape);
        let outer: usize = full_shape[..axis].iter().product();
        let inner: usize = full_shape[axis + 1..].iter().product();
        let len = src.shape[axis];
        let dst_block = full_shape[axis] * inner;
        let src_block = len * inner;
        for o in 0..outer {
            let dst = o * dst_block + start * inner;
            let s = o * src_block;
            out.data[dst..dst + src_block].copy_from_slice(&src.data[s..s + src_block]);
        }
        out
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum over the given axes. With `keepdim` the reduced dimensions stay
    /// as size 1; otherwise they are removed.
    pub fn sum_axes(&self, axes: &[usize], keepdim: bool) -> Self {
        if axes.is_empty() {
            return self.clone();
        }
        let nd = self.ndim();
        let mut reduce = vec![false; nd];
        for &a in axes {
            assert!(a < nd, "sum axis {a} out of range for rank {nd}");
            reduce[a] = true;
        }
        let kept_shape: Vec<usize> =
            (0..nd).map(|d| if reduce[d] { 1 } else { self.shape[d] }).collect();
        let out_strides_full = contiguous_strides(&kept_shape);
        let out_strides: Vec<usize> =
            (0..nd).map(|d| if reduce[d] { 0 } else { out_strides_full[d] }).collect();
        let mut out = NdArray::zeros(&kept_shape);
        let n = self.len();
        let mut idx = vec![0usize; nd];
        let mut off_out = 0usize;
        for i in 0..n {
            out.data[off_out] += self.data[i];
            for d in (0..nd).rev() {
                idx[d] += 1;
                off_out += out_strides[d];
                if idx[d] < self.shape[d] {
                    break;
                }
                idx[d] = 0;
                off_out -= out_strides[d] * self.shape[d];
            }
        }
        if keepdim {
            out
        } else {
            let squeezed: Vec<usize> =
                (0..nd).filter(|&d| !reduce[d]).map(|d| self.shape[d]).collect();
            out.reshape(&squeezed)
        }
    }

    /// Mean over the given axes.
    pub fn mean_axes(&self, axes: &[usize], keepdim: bool) -> Self {
        let count: usize = axes.iter().map(|&a| self.shape[a]).product();
        self.sum_axes(axes, keepdim).mul_scalar(1.0 / count as f32)
    }

    /// Sum of all elements as an `f32`.
    pub fn sum_all(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean_all(&self) -> f32 {
        self.sum_all() / self.len() as f32
    }

    /// Maximum element (NaN-ignoring; `-inf` for empty arrays).
    pub fn max_all(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Maximum along `axis` (keepdim). Used internally by stable softmax.
    pub fn max_axis_keepdim(&self, axis: usize) -> Self {
        let nd = self.ndim();
        assert!(axis < nd);
        let outer: usize = self.shape[..axis].iter().product();
        let k = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut out_shape = self.shape.clone();
        out_shape[axis] = 1;
        let mut out = NdArray::full(&out_shape, f32::NEG_INFINITY);
        for o in 0..outer {
            for j in 0..k {
                let base = (o * k + j) * inner;
                for i in 0..inner {
                    let v = self.data[base + i];
                    let dst = o * inner + i;
                    if v > out.data[dst] {
                        out.data[dst] = v;
                    }
                }
            }
        }
        out
    }

    /// Index of the maximum element along the last axis, one per row.
    pub fn argmax_last(&self) -> Vec<usize> {
        let k = *self.shape.last().expect("argmax on scalar");
        self.data
            .chunks_exact(k)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |acc, (i, &v)| {
                        if v > acc.1 {
                            (i, v)
                        } else {
                            acc
                        }
                    })
                    .0
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Batched matrix multiplication with broadcasting over leading
    /// dimensions. `self: [..., m, k]`, `other: [..., k, n]` →
    /// `[broadcast(...), m, n]`. Rank-2 inputs are ordinary matmul.
    ///
    /// Dense rows of `self` run the packed cache-blocked microkernel (see
    /// [`crate::gemm`]): row-blocks are sharded over the worker pool with
    /// [`crate::parallel::for_each_span`] and each block packs its dense A
    /// rows into panels and runs the register-tiled inner kernel. A bounded
    /// density probe on each row of `self` sends rows that are more than
    /// three quarters zeros to the zero-skip `ikj` kernel instead
    /// (hypergraph incidence rows are nearly all zeros). The choice is made
    /// per row, from that row alone — `m = 1` included — because serving
    /// relies on each output row being bitwise identical whether computed
    /// alone or inside a larger batch, which forbids dispatching on `m` or
    /// on the density of the other rows.
    ///
    /// Every dispatch decision depends only on shapes and operand data —
    /// never on the thread count — and both kernels fix each output
    /// element's accumulation order independently of the sharding, so the
    /// result is bitwise identical at every `DHGCN_THREADS` value. The
    /// packed and reference kernels round differently; they agree within
    /// `allclose(1e-5)` (pinned by the property suite) but not bit-for-bit,
    /// which is why [`NdArray::matmul_reference`] stays available.
    pub fn matmul(&self, other: &Self) -> Self {
        self.try_matmul_impl(other, None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`NdArray::matmul`] forced onto the retained reference `ikj` row
    /// kernel (with its per-row zero-skip density branch). This is the
    /// numerical baseline the packed kernel is pinned against in the
    /// property suite and the "before" side of the GEMM benchmarks.
    pub fn matmul_reference(&self, other: &Self) -> Self {
        crate::shape_check::check_matmul(&self.shape, &other.shape)
            .unwrap_or_else(|e| panic!("{e}"));
        self.matmul_impl(other, None, MatmulKernel::Reference)
    }

    /// [`NdArray::matmul`] forced onto the packed cache-blocked kernel,
    /// bypassing the density/shape dispatch — degenerate shapes (`m = 1`,
    /// `k = 1`, ragged edge tiles) and sparse operands included. Property
    /// tests use this to exercise the packed kernel on shapes the automatic
    /// dispatch would route elsewhere.
    pub fn matmul_packed(&self, other: &Self) -> Self {
        crate::shape_check::check_matmul(&self.shape, &other.shape)
            .unwrap_or_else(|e| panic!("{e}"));
        self.matmul_impl(other, None, MatmulKernel::Packed)
    }

    /// [`NdArray::matmul`] with the output buffer drawn from (and other
    /// temporaries avoided via) a [`Workspace`], so repeated grad-free
    /// forwards reuse storage instead of allocating per call. Bitwise
    /// identical to `matmul`.
    pub fn matmul_ws(&self, other: &Self, ws: &mut Workspace) -> Self {
        self.try_matmul_impl(other, Some(ws)).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`NdArray::matmul`] returning a typed [`ShapeError`] instead of
    /// panicking on incompatible operands. The error `Display` is the same
    /// text the panicking entry point raises, so the static analyzer and
    /// the runtime report one diagnostic.
    pub fn try_matmul(&self, other: &Self) -> Result<Self, ShapeError> {
        self.try_matmul_impl(other, None)
    }

    fn try_matmul_impl(&self, other: &Self, ws: Option<&mut Workspace>) -> Result<Self, ShapeError> {
        crate::shape_check::check_matmul(&self.shape, &other.shape)?;
        Ok(self.matmul_impl(other, ws, MatmulKernel::Auto))
    }

    fn matmul_impl(&self, other: &Self, ws: Option<&mut Workspace>, kernel: MatmulKernel) -> Self {
        debug_assert!(self.ndim() >= 2 && other.ndim() >= 2, "matmul needs rank >= 2");
        let (m, k1) = (self.shape[self.ndim() - 2], self.shape[self.ndim() - 1]);
        let n = other.shape[other.ndim() - 1];
        debug_assert_eq!(
            k1,
            other.shape[other.ndim() - 2],
            "matmul inner-dim mismatch: {:?} x {:?}",
            self.shape,
            other.shape
        );
        let batch_a = &self.shape[..self.ndim() - 2];
        let batch_b = &other.shape[..other.ndim() - 2];
        let batch = broadcast_shape(batch_a, batch_b).unwrap_or_else(|| {
            panic!("matmul batch broadcast mismatch: {:?} x {:?}", self.shape, other.shape)
        });
        let nb = numel(&batch);
        let sa = broadcast_strides(batch_a, &batch);
        let sb = broadcast_strides(batch_b, &batch);
        // per-batch element counts
        let ea = m * k1;
        let eb = k1 * n;
        let mut out_shape = batch.clone();
        out_shape.push(m);
        out_shape.push(n);
        // both kernels fully overwrite their output span (matmul_row zeroes
        // the row, gemm assigns on the first k-block), so the buffer may
        // come back dirty from the workspace — no memset needed
        let mut ws = ws;
        let mut out = match ws.as_mut() {
            Some(ws) => ws.take(nb * m * n),
            None => vec![0.0f32; nb * m * n],
        };
        // walk the broadcast odometer once to precompute each batch's
        // operand offsets; workers then index instead of iterating
        let nd = batch.len();
        let mut abases = Vec::with_capacity(nb);
        let mut bbases = Vec::with_capacity(nb);
        let mut idx = vec![0usize; nd];
        let (mut oa, mut ob) = (0usize, 0usize);
        for _ in 0..nb {
            abases.push(oa * ea);
            bbases.push(ob * eb);
            for d in (0..nd).rev() {
                idx[d] += 1;
                oa += sa[d];
                ob += sb[d];
                if idx[d] < batch[d] {
                    break;
                }
                idx[d] = 0;
                oa -= sa[d] * batch[d];
                ob -= sb[d] * batch[d];
            }
        }
        let work = nb
            .saturating_mul(m)
            .saturating_mul(n)
            .saturating_mul(k1.max(1));
        // Dispatch, per left-hand row. The packed kernel takes every dense
        // row — including m = 1, where packing B costs more than it saves,
        // because serving depends on batch invariance: a request's logits
        // must be bitwise identical whether it runs alone (an [1, F] FC
        // product) or inside a micro-batch ([B, F]). Both kernels fix each
        // output row's bits as a function of that row and B alone, so
        // invariance holds exactly when the *kernel choice* for a row
        // depends on nothing but that row: no shape test on m, and no
        // density probe over the whole operand, where batchmates would
        // vote. Rows that are nearly all zeros (hypergraph incidence rows,
        // zero-padded joints) take the zero-skipping row kernel. Nothing
        // here reads the thread count, so dispatch never breaks
        // thread-count determinism either.
        let mut sparse = vec![false; nb * m];
        if kernel != MatmulKernel::Packed && k1 > 0 {
            for (flags, &abase) in sparse.chunks_exact_mut(m.max(1)).zip(&abases) {
                let rows = self.data[abase..abase + ea].chunks_exact(k1);
                for (flag, row) in flags.iter_mut().zip(rows) {
                    *flag = mostly_zero(row);
                }
            }
        }
        let packed_row = |item: usize| match kernel {
            MatmulKernel::Packed => true,
            MatmulKernel::Reference => false,
            MatmulKernel::Auto => !sparse[item] && k1 > 0,
        };
        // Shard (batch, row-block) spans of up to `rb` rows, and list each
        // span's packed rows (span-relative, ascending).
        let rb = crate::gemm::row_block(m, nb, crate::parallel::num_threads());
        let mut spans = Vec::with_capacity(nb * m.div_ceil(rb));
        let mut ends = Vec::with_capacity(spans.capacity());
        let mut packed_rows = Vec::new();
        let mut packed_bbs = Vec::new();
        for (b, &bb) in bbases.iter().enumerate() {
            for i0 in (0..m).step_by(rb) {
                let i1 = (i0 + rb).min(m);
                let start = packed_rows.len();
                packed_rows.extend((i0..i1).filter(|&i| packed_row(b * m + i)).map(|i| i - i0));
                if packed_rows.len() > start {
                    packed_bbs.push(bb);
                }
                spans.push((b, i0, i1, start..packed_rows.len()));
                ends.push((b * m + i1) * n);
            }
        }
        // Pack each *distinct* rhs matrix a packed row reads once, before
        // sharding: a broadcast B (the common conv/FC case) packs a single
        // time no matter how many batches or row-blocks consume it.
        // Workers share the packed image read-only and pack only their own
        // A rows, so the sharding grain can shrink with the thread count
        // without multiplying pack work.
        packed_bbs.sort_unstable();
        packed_bbs.dedup();
        let bp_len = crate::gemm::packed_b_len(k1, n);
        let mut bpack = match ws.as_mut() {
            Some(ws) => ws.take(packed_bbs.len() * bp_len),
            None => vec![0.0f32; packed_bbs.len() * bp_len],
        };
        for (u, &bb) in packed_bbs.iter().enumerate() {
            crate::gemm::pack_b_full(
                &other.data[bb..bb + eb],
                &mut bpack[u * bp_len..(u + 1) * bp_len],
                n,
                k1,
            );
        }
        crate::parallel::for_each_span(&mut out, &ends, work, |item, cspan| {
            let (b, i0, i1, ref prows) = spans[item];
            let ablock = &self.data[abases[b] + i0 * k1..abases[b] + i1 * k1];
            let prows = &packed_rows[prows.clone()];
            if !prows.is_empty() {
                let u = packed_bbs.binary_search(&bbases[b]).unwrap();
                let bp = &bpack[u * bp_len..(u + 1) * bp_len];
                if prows.len() == i1 - i0 {
                    crate::gemm::gemm_block_prepacked(ablock, bp, cspan, i1 - i0, n, k1);
                } else {
                    crate::gemm::gemm_rows_prepacked(ablock, prows, bp, cspan, n, k1);
                }
            }
            if prows.len() < i1 - i0 {
                let bm = &other.data[bbases[b]..bbases[b] + eb];
                for i in (0..i1 - i0).filter(|&i| !packed_row(b * m + i0 + i)) {
                    let arow = &ablock[i * k1..(i + 1) * k1];
                    let skip = sparse[b * m + i0 + i];
                    matmul_row(arow, bm, &mut cspan[i * n..(i + 1) * n], n, skip);
                }
            }
        });
        if let Some(ws) = ws.as_mut() {
            ws.give(bpack);
        }
        NdArray { shape: out_shape, data: out }
    }

    // ------------------------------------------------------------------
    // Convolution support
    // ------------------------------------------------------------------

    /// Unfold `[N, C, H, W]` into column form `[N, C*kh*kw, Ho*Wo]` so that
    /// convolution becomes a batched matmul with the `[Cout, C*kh*kw]`
    /// weight matrix. Out-of-bounds (padding) positions read as zero.
    ///
    /// The `[Ho*Wo]`-long output rows (one per `(batch, channel, kernel
    /// tap)`) are independent, so they are sharded over the worker pool;
    /// see [`crate::parallel`] for the determinism contract.
    #[allow(clippy::too_many_arguments)]
    pub fn im2col(&self, kh: usize, kw: usize, sh: usize, sw: usize, ph: usize, pw: usize, dh: usize, dw: usize) -> Self {
        self.try_im2col_impl(kh, kw, sh, sw, ph, pw, dh, dw, None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`NdArray::im2col`] with the column buffer drawn from a
    /// [`Workspace`]. Bitwise identical to `im2col`.
    #[allow(clippy::too_many_arguments)]
    pub fn im2col_ws(&self, kh: usize, kw: usize, sh: usize, sw: usize, ph: usize, pw: usize, dh: usize, dw: usize, ws: &mut Workspace) -> Self {
        self.try_im2col_impl(kh, kw, sh, sw, ph, pw, dh, dw, Some(ws)).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`NdArray::im2col`] returning a typed [`ShapeError`] instead of
    /// panicking on a bad rank or an input smaller than the effective
    /// kernel — same `Display` text as the panicking entry point.
    #[allow(clippy::too_many_arguments)]
    pub fn try_im2col(&self, kh: usize, kw: usize, sh: usize, sw: usize, ph: usize, pw: usize, dh: usize, dw: usize) -> Result<Self, ShapeError> {
        self.try_im2col_impl(kh, kw, sh, sw, ph, pw, dh, dw, None)
    }

    #[allow(clippy::too_many_arguments)]
    fn try_im2col_impl(&self, kh: usize, kw: usize, sh: usize, sw: usize, ph: usize, pw: usize, dh: usize, dw: usize, ws: Option<&mut Workspace>) -> Result<Self, ShapeError> {
        crate::shape_check::check_im2col(&self.shape, kh, kw, sh, sw, ph, pw, dh, dw)?;
        Ok(self.im2col_impl(kh, kw, sh, sw, ph, pw, dh, dw, ws))
    }

    #[allow(clippy::too_many_arguments)]
    fn im2col_impl(&self, kh: usize, kw: usize, sh: usize, sw: usize, ph: usize, pw: usize, dh: usize, dw: usize, ws: Option<&mut Workspace>) -> Self {
        debug_assert_eq!(self.ndim(), 4, "im2col expects [N, C, H, W]");
        let (n, c, h, w) = (self.shape[0], self.shape[1], self.shape[2], self.shape[3]);
        let (ho, wo) = conv_out_size(h, w, kh, kw, sh, sw, ph, pw, dh, dw);
        let l = ho * wo;
        let ckk = c * kh * kw;
        let kk = kh * kw;
        // padding positions are skipped by the copy loop below, so the
        // buffer must start zeroed either way
        let mut out = match ws {
            Some(ws) => ws.take_zeroed(n * ckk * l),
            None => vec![0.0f32; n * ckk * l],
        };
        let work = n * ckk * l;
        crate::parallel::for_each_block(&mut out, l.max(1), work, |item, row_out| {
            // item indexes the (batch, channel, kernel-tap) row
            let (b, row) = (item / ckk, item % ckk);
            let (ci, tap) = (row / kk, row % kk);
            let (ki, kj) = (tap / kw, tap % kw);
            let src_c = (b * c + ci) * h * w;
            for y in 0..ho {
                let iy = (y * sh + ki * dh) as isize - ph as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                let src_y = src_c + iy as usize * w;
                let dst_y = y * wo;
                for x in 0..wo {
                    let ix = (x * sw + kj * dw) as isize - pw as isize;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    row_out[dst_y + x] = self.data[src_y + ix as usize];
                }
            }
        });
        NdArray { shape: vec![n, ckk, l], data: out }
    }

    /// Fold column form `[N, C*kh*kw, Ho*Wo]` back to `[N, C, H, W]`,
    /// accumulating overlapping contributions. This is the adjoint of
    /// [`NdArray::im2col`] and therefore its gradient.
    ///
    /// Kernel taps of the *same* `(batch, channel)` overlap in the output,
    /// so the shard unit is one `[H, W]` channel plane: each plane is
    /// accumulated by one thread in the serial tap order, keeping the
    /// result bitwise identical to the serial path.
    #[allow(clippy::too_many_arguments)]
    pub fn col2im(&self, c: usize, h: usize, w: usize, kh: usize, kw: usize, sh: usize, sw: usize, ph: usize, pw: usize, dh: usize, dw: usize) -> Self {
        assert_eq!(self.ndim(), 3, "col2im expects [N, C*kh*kw, L]");
        let n = self.shape[0];
        let (ho, wo) = conv_out_size(h, w, kh, kw, sh, sw, ph, pw, dh, dw);
        let l = ho * wo;
        assert_eq!(self.shape[1], c * kh * kw, "col2im channel-kernel mismatch");
        assert_eq!(self.shape[2], l, "col2im spatial mismatch");
        let ckk = c * kh * kw;
        let mut out = vec![0.0f32; n * c * h * w];
        let work = n * ckk * l;
        crate::parallel::for_each_block(&mut out, (h * w).max(1), work, |item, plane| {
            // item indexes the (batch, channel) output plane
            let (b, ci) = (item / c, item % c);
            let src_b = b * ckk * l;
            for ki in 0..kh {
                for kj in 0..kw {
                    let row = (ci * kh + ki) * kw + kj;
                    let src_row = src_b + row * l;
                    for y in 0..ho {
                        let iy = (y * sh + ki * dh) as isize - ph as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let dst_y = iy as usize * w;
                        let src_y = src_row + y * wo;
                        for x in 0..wo {
                            let ix = (x * sw + kj * dw) as isize - pw as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            plane[dst_y + ix as usize] += self.data[src_y + x];
                        }
                    }
                }
            }
        });
        NdArray { shape: vec![n, c, h, w], data: out }
    }

    // ------------------------------------------------------------------
    // Comparisons
    // ------------------------------------------------------------------

    /// Whether every element differs from `other`'s by at most
    /// `atol + rtol * |other|`.
    ///
    /// The tolerance is **asymmetric** — `other` is the reference operand
    /// and scales the relative term (numpy's `allclose` convention), so
    /// `a.allclose(b, ..)` and `b.allclose(a, ..)` can disagree when the
    /// magnitudes differ near the tolerance boundary.
    ///
    /// Bitwise-equal elements short-circuit before any arithmetic: equal
    /// infinities compare close (where `inf - inf = NaN` would fail the
    /// tolerance test), as do identical NaN bit patterns, and the common
    /// exactly-equal case skips the float ops entirely. Non-finite
    /// elements are *only* close when bitwise equal — otherwise
    /// `rtol * |±inf|` would make the threshold infinite and declare
    /// opposite infinities close.
    pub fn allclose(&self, other: &Self, rtol: f32, atol: f32) -> bool {
        self.shape == other.shape
            && self.data.iter().zip(&other.data).all(|(&a, &b)| {
                if a.to_bits() == b.to_bits() {
                    return true;
                }
                a.is_finite() && b.is_finite() && (a - b).abs() <= atol + rtol * b.abs()
            })
    }
}

/// Which matmul inner kernel [`NdArray::matmul_impl`] runs. `Auto` is the
/// production dispatch; the forced variants back the public
/// [`NdArray::matmul_reference`] / [`NdArray::matmul_packed`] entry points
/// so tests and benches can pin a kernel regardless of operand shape or
/// density.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MatmulKernel {
    Auto,
    Reference,
    Packed,
}

/// Most elements the density probe is willing to look at. Above this the
/// probe strides instead of scanning, keeping the cost of the dispatch
/// decision bounded no matter how large the operand is.
const DENSITY_PROBE_MAX: usize = 4096;

/// Whether more than three quarters of the probed elements of `data` are
/// exactly zero — the density probe that decides, for one left-hand row,
/// between the dense packed kernel and the zero-skipping row kernel in
/// [`NdArray::matmul`]. The packed kernel computes a dense row about 2.5×
/// faster than the row kernel, and the skip's data-dependent branch costs
/// more as zeros thin out, so the skip pays only on rows that are nearly
/// all zeros: rows of hypergraph operators (`H`-products, `Imp·Impᵀ`
/// factors). Half-silenced ReLU activations and im2col'd conv inputs stay
/// on the packed kernel.
///
/// Small operands are scanned in full. Larger ones are probed at a fixed
/// deterministic stride chosen odd and not divisible by 3, so the sample
/// cannot alias the period-2/3/4/6 zero patterns that interleaved or
/// padded operands produce. The probe reads only operand data and length,
/// never the thread count, so the dispatch decision — and therefore the
/// result bits — are identical at every `DHGCN_THREADS` value. A wrong
/// density guess on an adversarial pattern costs only speed, never
/// correctness: both kernels compute the same product.
fn mostly_zero(data: &[f32]) -> bool {
    if data.len() <= DENSITY_PROBE_MAX {
        // a branch-free count, so the full scan vectorises
        let zeros: usize = data.iter().map(|&v| usize::from(v == 0.0)).sum();
        return zeros * 4 > data.len() * 3;
    }
    let mut stride = data.len() / DENSITY_PROBE_MAX;
    stride |= 1;
    if stride.is_multiple_of(3) {
        stride += 2;
    }
    let (mut zeros, mut probed) = (0usize, 0usize);
    let mut i = 0;
    while i < data.len() {
        if data[i] == 0.0 {
            zeros += 1;
        }
        probed += 1;
        i += stride;
    }
    zeros * 4 > probed * 3
}

/// One output row of the `ikj` matmul kernel: `orow = arow · bm` where
/// `bm` is the `[k, n]` right-hand matrix. Zeroes `orow` first — the
/// output buffer may be recycled dirty from a [`Workspace`]. Shared by the
/// serial and parallel paths so both make identical per-element
/// decisions — this is what makes the parallel result bitwise equal to
/// the serial one.
#[inline]
fn matmul_row(arow: &[f32], bm: &[f32], orow: &mut [f32], n: usize, skip_zeros: bool) {
    orow.fill(0.0);
    if skip_zeros {
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &bm[p * n..(p + 1) * n];
            for (ov, &bv) in orow.iter_mut().zip(brow) {
                *ov += av * bv;
            }
        }
    } else {
        for (p, &av) in arow.iter().enumerate() {
            let brow = &bm[p * n..(p + 1) * n];
            for (ov, &bv) in orow.iter_mut().zip(brow) {
                *ov += av * bv;
            }
        }
    }
}

/// Output spatial size of a 2-D convolution. Panics when the padded input
/// is smaller than the effective kernel; [`crate::check_conv_out_size`] is
/// the non-panicking equivalent with the same diagnostic text.
#[allow(clippy::too_many_arguments)]
pub fn conv_out_size(h: usize, w: usize, kh: usize, kw: usize, sh: usize, sw: usize, ph: usize, pw: usize, dh: usize, dw: usize) -> (usize, usize) {
    crate::shape_check::check_conv_out_size(h, w, kh, kw, sh, sw, ph, pw, dh, dw)
        .unwrap_or_else(|e| panic!("{e}"))
}

fn resolve_reshape(len: usize, shape: &[usize]) -> Vec<usize> {
    let infer = shape.iter().filter(|&&d| d == usize::MAX).count();
    assert!(infer <= 1, "reshape allows at most one inferred dim");
    if infer == 0 {
        return shape.to_vec();
    }
    let known: usize = shape.iter().filter(|&&d| d != usize::MAX).product();
    assert!(known > 0 && len.is_multiple_of(known), "cannot infer reshape dim");
    shape.iter().map(|&d| if d == usize::MAX { len / known } else { d }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let a = NdArray::zeros(&[2, 3]);
        assert_eq!(a.shape(), &[2, 3]);
        assert_eq!(a.len(), 6);
        let b = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(b.at(&[1, 0]), 3.0);
        let s = NdArray::scalar(5.0);
        assert_eq!(s.ndim(), 0);
        assert_eq!(s.item(), 5.0);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_len_mismatch_panics() {
        NdArray::from_vec(vec![1.0], &[2, 2]);
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = NdArray::from_vec((0..9).map(|i| i as f32).collect(), &[3, 3]);
        let i = NdArray::eye(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn broadcast_shapes() {
        assert_eq!(broadcast_shape(&[2, 1, 3], &[4, 3]), Some(vec![2, 4, 3]));
        assert_eq!(broadcast_shape(&[2, 3], &[2, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shape(&[], &[5]), Some(vec![5]));
        assert_eq!(broadcast_shape(&[2, 3], &[3, 3]), None);
    }

    #[test]
    fn broadcast_add() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = NdArray::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        let c = a.add(&b);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        let col = NdArray::from_vec(vec![100.0, 200.0], &[2, 1]);
        let d = a.add(&col);
        assert_eq!(d.data(), &[101.0, 102.0, 103.0, 204.0, 205.0, 206.0]);
    }

    #[test]
    fn matmul_2d() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = NdArray::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_batched_broadcast() {
        // a: [2, 2, 2] batched, b: [2, 2] broadcast over batch
        let a = NdArray::from_vec(vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], &[2, 2, 2]);
        let b = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0]);
        // and the mirrored broadcast
        let d = b.matmul(&a);
        assert_eq!(d.shape(), &[2, 2, 2]);
        assert_eq!(d.data(), &[1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn permute_and_transpose() {
        let a = NdArray::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]);
        let p = a.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), a.at(&[0, 2, 1]));
        let t = a.transpose_last2();
        assert_eq!(t.shape(), &[2, 4, 3]);
        assert_eq!(t.at(&[1, 3, 2]), a.at(&[1, 2, 3]));
        // permute twice with inverse perm is identity
        let back = p.permute(&[1, 2, 0]);
        assert_eq!(back, a);
    }

    #[test]
    fn sum_axes_keepdim_and_squeeze() {
        let a = NdArray::from_vec((1..=24).map(|i| i as f32).collect(), &[2, 3, 4]);
        let s = a.sum_axes(&[1], true);
        assert_eq!(s.shape(), &[2, 1, 4]);
        assert_eq!(s.at(&[0, 0, 0]), 1.0 + 5.0 + 9.0);
        let s2 = a.sum_axes(&[0, 2], false);
        assert_eq!(s2.shape(), &[3]);
        assert_eq!(s2.data()[0], (1..=4).sum::<i32>() as f32 + (13..=16).sum::<i32>() as f32);
    }

    #[test]
    fn mean_and_reduce_to_shape() {
        let a = NdArray::ones(&[2, 3]);
        assert_eq!(a.mean_axes(&[0, 1], false).item(), 1.0);
        let g = NdArray::ones(&[4, 2, 3]);
        let r = g.reduce_to_shape(&[2, 3]);
        assert_eq!(r.shape(), &[2, 3]);
        assert_eq!(r.data()[0], 4.0);
        let r2 = g.reduce_to_shape(&[2, 1]);
        assert_eq!(r2.shape(), &[2, 1]);
        assert_eq!(r2.data()[0], 12.0);
    }

    #[test]
    fn max_axis_and_argmax() {
        let a = NdArray::from_vec(vec![1.0, 5.0, 3.0, 9.0, 2.0, 4.0], &[2, 3]);
        let m = a.max_axis_keepdim(1);
        assert_eq!(m.shape(), &[2, 1]);
        assert_eq!(m.data(), &[5.0, 9.0]);
        assert_eq!(a.argmax_last(), vec![1, 0]);
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = NdArray::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let b = NdArray::from_vec((6..12).map(|i| i as f32).collect(), &[2, 3]);
        let c = NdArray::concat(&[&a, &b], 1);
        assert_eq!(c.shape(), &[2, 6]);
        assert_eq!(c.slice_axis(1, 0, 3), a);
        assert_eq!(c.slice_axis(1, 3, 3), b);
        let c0 = NdArray::concat(&[&a, &b], 0);
        assert_eq!(c0.shape(), &[4, 3]);
        assert_eq!(c0.slice_axis(0, 2, 2), b);
    }

    #[test]
    fn unslice_is_adjoint_of_slice() {
        let full = NdArray::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]);
        let s = full.slice_axis(0, 1, 2);
        let u = NdArray::unslice_axis(&s, &[3, 4], 0, 1);
        assert_eq!(u.slice_axis(0, 1, 2), s);
        assert_eq!(u.slice_axis(0, 0, 1).sum_all(), 0.0);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: im2col is a reshape
        let a = NdArray::from_vec((0..16).map(|i| i as f32).collect(), &[1, 2, 2, 4]);
        let c = a.im2col(1, 1, 1, 1, 0, 0, 1, 1);
        assert_eq!(c.shape(), &[1, 2, 8]);
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn im2col_known_values() {
        // input 1x1x3x3 with values 1..9, 2x2 kernel, stride 1, no pad
        let a = NdArray::from_vec((1..=9).map(|i| i as f32).collect(), &[1, 1, 3, 3]);
        let c = a.im2col(2, 2, 1, 1, 0, 0, 1, 1);
        assert_eq!(c.shape(), &[1, 4, 4]);
        // rows are kernel positions, columns are output positions
        assert_eq!(&c.data()[0..4], &[1.0, 2.0, 4.0, 5.0]); // k=(0,0)
        assert_eq!(&c.data()[4..8], &[2.0, 3.0, 5.0, 6.0]); // k=(0,1)
        assert_eq!(&c.data()[8..12], &[4.0, 5.0, 7.0, 8.0]); // k=(1,0)
        assert_eq!(&c.data()[12..16], &[5.0, 6.0, 8.0, 9.0]); // k=(1,1)
    }

    #[test]
    fn im2col_padding_reads_zero() {
        let a = NdArray::ones(&[1, 1, 2, 2]);
        let c = a.im2col(3, 3, 1, 1, 1, 1, 1, 1);
        assert_eq!(c.shape(), &[1, 9, 4]);
        // centre kernel tap sees all four ones
        let centre_row = &c.data()[4 * 4..5 * 4];
        assert_eq!(centre_row, &[1.0, 1.0, 1.0, 1.0]);
        // corner tap (0,0) only sees input at output (1,1)
        let corner = &c.data()[0..4];
        assert_eq!(corner, &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y
        let x = NdArray::from_vec((0..36).map(|i| (i as f32).sin()).collect(), &[1, 1, 6, 6]);
        let xc = x.im2col(3, 1, 1, 1, 1, 0, 2, 1);
        let y = NdArray::from_vec((0..xc.len()).map(|i| (i as f32 * 0.7).cos()).collect(), xc.shape());
        let yi = y.col2im(1, 6, 6, 3, 1, 1, 1, 1, 0, 2, 1);
        let lhs: f32 = xc.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(yi.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_out_sizes() {
        assert_eq!(conv_out_size(5, 5, 3, 3, 1, 1, 1, 1, 1, 1), (5, 5));
        assert_eq!(conv_out_size(8, 25, 3, 1, 2, 1, 1, 0, 1, 1), (4, 25));
        // dilation 2: effective kernel 5
        assert_eq!(conv_out_size(10, 1, 3, 1, 1, 1, 2, 0, 2, 1), (10, 1));
    }

    #[test]
    fn reshape_with_inferred_dim() {
        let a = NdArray::zeros(&[2, 3, 4]);
        let r = a.reshape(&[usize::MAX, 4]);
        assert_eq!(r.shape(), &[6, 4]);
    }

    #[test]
    fn broadcast_to_materialises() {
        let a = NdArray::from_vec(vec![1.0, 2.0], &[2, 1]);
        let b = a.broadcast_to(&[2, 3]);
        assert_eq!(b.data(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn allclose_tolerances() {
        let a = NdArray::from_vec(vec![1.0, 2.0], &[2]);
        let b = NdArray::from_vec(vec![1.0 + 1e-6, 2.0 - 1e-6], &[2]);
        assert!(a.allclose(&b, 1e-4, 1e-5));
        let c = NdArray::from_vec(vec![1.1, 2.0], &[2]);
        assert!(!a.allclose(&c, 1e-4, 1e-5));
    }

    #[test]
    fn allclose_handles_infinities_and_bitwise_equality() {
        // equal infinities must compare close: inf - inf = NaN would fail
        // the tolerance check without the bitwise short-circuit
        let inf = NdArray::from_vec(vec![f32::INFINITY, f32::NEG_INFINITY, 1.0], &[3]);
        assert!(inf.allclose(&inf.clone(), 1e-5, 1e-8));
        // opposite infinities are not close
        let flipped = NdArray::from_vec(vec![f32::NEG_INFINITY, f32::INFINITY, 1.0], &[3]);
        assert!(!inf.allclose(&flipped, 1e-5, 1e-8));
        // identical NaN payloads are bitwise equal and therefore close
        let nan = NdArray::from_vec(vec![f32::NAN], &[1]);
        assert!(nan.allclose(&nan.clone(), 0.0, 0.0));
        // NaN vs a number is never close
        assert!(!nan.allclose(&NdArray::from_vec(vec![0.0], &[1]), 1.0, 1.0));
    }

    #[test]
    fn allclose_relative_tolerance_is_asymmetric() {
        // rtol scales |b| (the receiver's argument), numpy-style: with
        // a = 100, b = 104, |a-b| = 4 <= rtol*104 but not rtol*100 once
        // rtol sits between the two thresholds
        let a = NdArray::from_vec(vec![100.0], &[1]);
        let b = NdArray::from_vec(vec![104.0], &[1]);
        let rtol = 4.0 / 102.0;
        assert!(a.allclose(&b, rtol, 0.0));
        assert!(!b.allclose(&a, rtol, 0.0));
    }

    #[test]
    fn auto_matmul_rows_do_not_depend_on_their_batchmates_density() {
        // Serving stacks requests into one left operand. A mostly-zero row
        // (zero-padded joints) next to dense rows must produce, bit for
        // bit, what each row produces alone: the kernel choice may read
        // the row, never its batchmates.
        let (k, n) = (64, 48);
        let dense: Vec<f32> = (0..k).map(|i| (i as f32 * 0.37).sin() * 1.7).collect();
        let sparse: Vec<f32> = (0..k)
            .map(|i| if i % 8 == 0 { (i as f32 * 0.53).cos() } else { 0.0 })
            .collect();
        let b = NdArray::from_vec((0..k * n).map(|i| (i as f32 * 0.011).sin()).collect(), &[k, n]);
        let alone = |row: &[f32]| NdArray::from_vec(row.to_vec(), &[1, k]).matmul(&b);
        let (want_dense, want_sparse) = (alone(&dense), alone(&sparse));
        // a dense row among mostly-zero ones, and a mostly-zero row among
        // dense ones, at the front and in the middle of a stacked batch
        for rows in [
            vec![&dense, &sparse, &sparse, &sparse],
            vec![&sparse, &dense, &dense, &dense],
            vec![&sparse, &sparse, &dense, &sparse, &sparse],
            vec![&dense, &dense, &sparse, &dense],
        ] {
            let stacked: Vec<f32> = rows.iter().flat_map(|r| r.iter().copied()).collect();
            let got = NdArray::from_vec(stacked, &[rows.len(), k]).matmul(&b);
            for (i, row) in rows.iter().enumerate() {
                let want = if std::ptr::eq(*row, &dense) { &want_dense } else { &want_sparse };
                let got_row = &got.data()[i * n..(i + 1) * n];
                let same = got_row.iter().zip(want.data()).all(|(g, w)| g.to_bits() == w.to_bits());
                assert!(same, "row {i} of a mixed-density batch differs from the row alone");
            }
        }
    }

    #[test]
    fn density_probe_decision_is_unchanged_by_sampling() {
        // Small operands: exact scan. An incidence-like pattern (4 of 5
        // zero) reads sparse; a dense weight block reads dense.
        assert!(mostly_zero(&[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0]));
        assert!(!mostly_zero(&[0.0, 0.0, 1.0, 0.0, 0.0, 2.0])); // two thirds zero
        assert!(!mostly_zero(&[1.0; 100]));

        // Large operands go through the strided probe; the decision on
        // realistic workloads must match the full scan. Incidence-shaped:
        // each row of H has ~k nonzeros out of many columns.
        let (rows, cols, nnz_per_row) = (512, 400, 10);
        let mut incidence = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for j in 0..nnz_per_row {
                incidence[r * cols + (r * 7 + j * 41) % cols] = 1.0;
            }
        }
        assert!(incidence.len() > DENSITY_PROBE_MAX);
        assert!(mostly_zero(&incidence));

        // Conv-shaped dense operand (im2col output with some zero padding
        // positions, still majority nonzero).
        let mut dense: Vec<f32> = (0..64 * 576).map(|i| (i % 13) as f32 + 1.0).collect();
        for v in dense.iter_mut().step_by(10) {
            *v = 0.0; // 10% padding zeros
        }
        assert!(dense.len() > DENSITY_PROBE_MAX);
        assert!(!mostly_zero(&dense));

        // Periodic patterns from half to seven eighths zero. The stride
        // (odd, not divisible by 3) cannot alias onto only-zeros or
        // only-nonzeros.
        let alt2: Vec<f32> = (0..20000).map(|i| (i % 2) as f32).collect();
        assert!(!mostly_zero(&alt2)); // exactly half zero
        let alt3: Vec<f32> = (0..20000).map(|i| ((i % 3) != 0) as i32 as f32).collect();
        assert!(!mostly_zero(&alt3)); // one third zero
        let alt3_sparse: Vec<f32> = (0..20000).map(|i| ((i % 3) == 0) as i32 as f32).collect();
        assert!(!mostly_zero(&alt3_sparse)); // two thirds zero
        let alt4_sparse: Vec<f32> = (0..20000).map(|i| ((i % 4) == 0) as i32 as f32).collect();
        assert!(!mostly_zero(&alt4_sparse)); // exactly three quarters zero
        let alt8_sparse: Vec<f32> = (0..20000).map(|i| ((i % 8) == 0) as i32 as f32).collect();
        assert!(mostly_zero(&alt8_sparse)); // seven eighths zero
    }

    #[test]
    fn forced_kernels_agree_with_auto_dispatch() {
        // One shape the auto path sends to the packed kernel and one it
        // sends to the row kernel; both forced entry points must agree
        // within tolerance everywhere.
        let mut s = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let a = NdArray::from_vec((0..23 * 17).map(|_| next()).collect(), &[23, 17]);
        let b = NdArray::from_vec((0..17 * 29).map(|_| next()).collect(), &[17, 29]);
        let auto = a.matmul(&b);
        let reference = a.matmul_reference(&b);
        let packed = a.matmul_packed(&b);
        assert!(auto.allclose(&reference, 1e-5, 1e-6));
        assert!(auto.allclose(&packed, 1e-5, 1e-6));
        // dense multi-row auto dispatch IS the packed kernel, bit for bit
        assert_eq!(
            auto.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            packed.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        // a dense single-row product also dispatches packed: its row must
        // be bitwise identical to the same row inside a larger batch
        // (serving batch-size invariance), so dispatch cannot test m
        let row = NdArray::from_vec(a.data()[..17].to_vec(), &[1, 17]);
        let auto_row = row.matmul(&b);
        assert_eq!(
            auto_row.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            row.matmul_packed(&b).data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            auto_row.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            packed.data()[..auto_row.len()].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn matmul_ws_reuses_dirty_buffers_correctly() {
        // Recycle a workspace buffer through products of both kernels and
        // a smaller follow-up product; stale garbage from the larger
        // buffer must never leak into results.
        let mut ws = Workspace::new();
        let a = NdArray::from_vec((0..12 * 7).map(|i| (i as f32).sin()).collect(), &[12, 7]);
        let b = NdArray::from_vec((0..7 * 9).map(|i| (i as f32).cos()).collect(), &[7, 9]);
        let expect = a.matmul(&b);
        for _ in 0..3 {
            let got = a.matmul_ws(&b, &mut ws);
            assert_eq!(got, expect);
            ws.give(got.into_vec());
        }
        // sparse operand -> row kernel, same recycled buffer
        let mut sp = vec![0.0f32; 12 * 7];
        sp[3] = 2.0;
        sp[40] = -1.0;
        let sparse = NdArray::from_vec(sp, &[12, 7]);
        let expect_sp = sparse.matmul(&b);
        let got_sp = sparse.matmul_ws(&b, &mut ws);
        assert_eq!(got_sp, expect_sp);
    }
}
