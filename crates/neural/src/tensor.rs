//! Dense tensors with explicit `[batch, channels, length]` layout.
//!
//! The substrate intentionally avoids a general N-dimensional tensor: 1D
//! convnets only ever need rank-3 activations ([`Tensor`]) and rank-2
//! classifier inputs/outputs ([`Matrix`]). Fixing the ranks keeps indexing
//! branch-free and lets hot loops borrow contiguous channel rows as slices.

use serde::{Deserialize, Serialize};

/// A `[batch, channels, length]` activation tensor, row-major
/// (`data[b*C*L + c*L + l]`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    /// Batch size B.
    pub batch: usize,
    /// Channel count C.
    pub channels: usize,
    /// Sequence length L.
    pub len: usize,
    /// Row-major storage of size `B * C * L`.
    pub data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled tensor of the given shape.
    pub fn zeros(batch: usize, channels: usize, len: usize) -> Tensor {
        Tensor {
            batch,
            channels,
            len,
            data: vec![0.0; batch * channels * len],
        }
    }

    /// Build from raw data.
    ///
    /// # Panics
    /// Panics if `data.len() != batch * channels * len`.
    pub fn from_data(batch: usize, channels: usize, len: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(
            data.len(),
            batch * channels * len,
            "tensor data length does not match shape"
        );
        Tensor {
            batch,
            channels,
            len,
            data,
        }
    }

    /// Wrap a batch of equal-length univariate windows as a
    /// `[B, 1, L]` tensor (the standard model input in this repo).
    pub fn from_windows(windows: &[Vec<f32>]) -> Tensor {
        assert!(!windows.is_empty(), "cannot build a tensor from no windows");
        let len = windows[0].len();
        assert!(
            windows.iter().all(|w| w.len() == len),
            "all windows must share a length"
        );
        let mut data = Vec::with_capacity(windows.len() * len);
        for w in windows {
            data.extend_from_slice(w);
        }
        Tensor::from_data(windows.len(), 1, len, data)
    }

    /// Shape as a tuple.
    #[inline]
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.batch, self.channels, self.len)
    }

    /// Flat index of `(b, c, l)`.
    #[inline]
    pub fn idx(&self, b: usize, c: usize, l: usize) -> usize {
        (b * self.channels + c) * self.len + l
    }

    /// Value at `(b, c, l)`.
    #[inline]
    pub fn get(&self, b: usize, c: usize, l: usize) -> f32 {
        self.data[self.idx(b, c, l)]
    }

    /// Mutable value at `(b, c, l)`.
    #[inline]
    pub fn get_mut(&mut self, b: usize, c: usize, l: usize) -> &mut f32 {
        let i = self.idx(b, c, l);
        &mut self.data[i]
    }

    /// Borrow the contiguous `(b, c)` channel row.
    #[inline]
    pub fn row(&self, b: usize, c: usize) -> &[f32] {
        let start = (b * self.channels + c) * self.len;
        &self.data[start..start + self.len]
    }

    /// Mutably borrow the contiguous `(b, c)` channel row.
    #[inline]
    pub fn row_mut(&mut self, b: usize, c: usize) -> &mut [f32] {
        let start = (b * self.channels + c) * self.len;
        &mut self.data[start..start + self.len]
    }

    /// A same-shape zero tensor (gradient buffer).
    pub fn zeros_like(&self) -> Tensor {
        Tensor::zeros(self.batch, self.channels, self.len)
    }

    /// Element-wise add `other` into `self`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "tensor shape mismatch in add");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }
}

/// A `[rows, cols]` matrix (classifier logits, GAP outputs), row-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    /// Row count (usually the batch size).
    pub rows: usize,
    /// Column count (features or classes).
    pub cols: usize,
    /// Row-major storage of size `rows * cols`.
    pub data: Vec<f32>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from raw data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_data(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Value at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable value at `(r, c)`.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_indexing_is_row_major() {
        let mut t = Tensor::zeros(2, 3, 4);
        *t.get_mut(1, 2, 3) = 7.0;
        assert_eq!(t.data[3 * 4 + 2 * 4 + 3], 7.0);
        assert_eq!(t.get(1, 2, 3), 7.0);
        assert_eq!(t.shape(), (2, 3, 4));
        assert_eq!(t.row(1, 2)[3], 7.0);
        t.row_mut(0, 0)[0] = 1.0;
        assert_eq!(t.get(0, 0, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn tensor_shape_mismatch_panics() {
        let _ = Tensor::from_data(2, 2, 2, vec![0.0; 7]);
    }

    #[test]
    fn from_windows_packs_batch() {
        let t = Tensor::from_windows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(t.shape(), (2, 1, 2));
        assert_eq!(t.get(0, 0, 1), 2.0);
        assert_eq!(t.get(1, 0, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "share a length")]
    fn from_windows_rejects_ragged() {
        let _ = Tensor::from_windows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn add_assign_and_zeros_like() {
        let mut a = Tensor::from_data(1, 1, 3, vec![1.0, -5.0, 2.0]);
        let b = Tensor::from_data(1, 1, 3, vec![1.0, 1.0, 1.0]);
        a.add_assign(&b);
        assert_eq!(a.data, vec![2.0, -4.0, 3.0]);
        assert_eq!(a.zeros_like().data, vec![0.0; 3]);
    }

    #[test]
    fn matrix_rows() {
        let mut m = Matrix::zeros(2, 3);
        *m.get_mut(1, 2) = 9.0;
        assert_eq!(m.get(1, 2), 9.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 9.0]);
        m.row_mut(0)[1] = 4.0;
        assert_eq!(m.get(0, 1), 4.0);
        let m2 = Matrix::from_data(1, 2, vec![5.0, 6.0]);
        assert_eq!(m2.row(0), &[5.0, 6.0]);
    }
}
