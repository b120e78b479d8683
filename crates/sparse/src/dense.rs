//! Dense matrices for the topic–word model φ.
//!
//! φ is a dense `K × V` count matrix (§2.1).  The sampling kernel reads it
//! column-wise (all topics of one word), and the update-φ kernel writes it
//! with atomic adds (§6.2), so two variants are provided:
//!
//! * [`DenseMatrix`] — plain row-major storage, generic over the element type
//!   (the paper compresses φ to 16-bit entries, `DenseMatrix<u16>`).
//! * [`AtomicMatrix`] — `AtomicU32` storage shared between thread blocks
//!   during the update kernels.  Blocks execute on real OS threads, so these
//!   atomics are load-bearing, not simulation theater: they must stay
//!   relaxed-ordering *additive* updates (commutative), which is what keeps
//!   the accumulated counts independent of block scheduling.  It is stored
//!   column-major (word-major for φ), so one word's `K` topic counts are one
//!   contiguous slice; [`AtomicMatrix::to_dense`] transposes back to the
//!   row-major `K × V` form everything outside the kernels sees.

use std::sync::atomic::{AtomicU32, Ordering};

/// A row-major dense matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseMatrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> DenseMatrix<T> {
    /// A matrix of the given shape filled with `T::default()`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }

    /// Build from an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        DenseMatrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable access to element `(r, c)`.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut T {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Set element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The whole backing buffer in row-major order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Size in bytes of the device-resident representation.
    pub fn device_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<T>()) as u64
    }
}

impl DenseMatrix<u32> {
    /// Column `c` gathered into a fresh vector (φ is read per word, i.e. per
    /// column, by the sampling kernel).
    pub fn column(&self, c: usize) -> Vec<u32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Per-row sums (for φ these are the topic totals `n_k = Σ_v φ[k,v]`).
    pub fn row_sums(&self) -> Vec<u64> {
        (0..self.rows)
            .map(|r| self.row(r).iter().map(|&v| v as u64).sum())
            .collect()
    }

    /// Sum of every element.
    pub fn total(&self) -> u64 {
        self.data.iter().map(|&v| v as u64).sum()
    }
}

/// A dense matrix of `AtomicU32`, used where simulated thread blocks running
/// on different host threads must update the same model replica: the φ
/// counts of update-φ (§6.2), read per word by the sampling kernels.
///
/// Storage is column-major so that [`AtomicMatrix::column`] is a contiguous
/// slice; `(row, col)` indexing means the same as for [`DenseMatrix`].
#[derive(Debug)]
pub struct AtomicMatrix {
    rows: usize,
    cols: usize,
    data: Vec<AtomicU32>,
}

impl AtomicMatrix {
    /// A zero-filled atomic matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        data.resize_with(rows * cols, || AtomicU32::new(0));
        AtomicMatrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn idx(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.rows && c < self.cols);
        c * self.rows + r
    }

    /// Column `c` (for φ: the `K` topic counts of word `c`) in row order.
    #[inline]
    pub fn column(&self, c: usize) -> &[AtomicU32] {
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Relaxed load of element `(r, c)`.
    #[inline]
    pub fn load(&self, r: usize, c: usize) -> u32 {
        self.data[self.idx(r, c)].load(Ordering::Relaxed)
    }

    /// Relaxed store of element `(r, c)`.
    #[inline]
    pub fn store(&self, r: usize, c: usize, v: u32) {
        self.data[self.idx(r, c)].store(v, Ordering::Relaxed)
    }

    /// Atomic `fetch_add`, mirroring CUDA's `atomicAdd`.
    #[inline]
    pub fn fetch_add(&self, r: usize, c: usize, v: u32) -> u32 {
        self.data[self.idx(r, c)].fetch_add(v, Ordering::Relaxed)
    }

    /// Atomic saturating decrement, mirroring `atomicSub` on counts.
    ///
    /// Counts never go negative in a correct sampler; in debug builds an
    /// underflow panics so bugs surface in tests.
    #[inline]
    pub fn fetch_sub(&self, r: usize, c: usize, v: u32) -> u32 {
        let prev = self.data[self.idx(r, c)].fetch_sub(v, Ordering::Relaxed);
        debug_assert!(
            prev >= v,
            "AtomicMatrix underflow at ({r},{c}): {prev} - {v}"
        );
        prev
    }

    /// Snapshot into a plain row-major matrix: a transpose of the storage,
    /// done in strips of `STRIP` columns so each output row segment is
    /// written contiguously while the strip's columns are read in order.
    pub fn to_dense(&self) -> DenseMatrix<u32> {
        const STRIP: usize = 64;
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for c0 in (0..self.cols).step_by(STRIP) {
            let c1 = (c0 + STRIP).min(self.cols);
            for r in 0..self.rows {
                for (c, dst) in (c0..c1).zip(&mut out.row_mut(r)[c0..c1]) {
                    *dst = self.load(r, c);
                }
            }
        }
        out
    }

    /// Size in bytes of the device-resident representation assuming the
    /// 16-bit compressed layout of §6.1.3 (the simulator stores u32 on the
    /// host for convenience, but the *device* model and the transfer model
    /// charge 2 bytes per element).
    pub fn device_bytes_compressed(&self) -> u64 {
        (self.data.len() * 2) as u64
    }

    /// Size in bytes of the uncompressed (u32) representation.
    pub fn device_bytes_uncompressed(&self) -> u64 {
        (self.data.len() * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_get_set_round_trip() {
        let mut m: DenseMatrix<u32> = DenseMatrix::zeros(3, 4);
        m.set(1, 2, 42);
        assert_eq!(m.get(1, 2), 42);
        assert_eq!(m.get(0, 0), 0);
        assert_eq!(m.row(1), &[0, 0, 42, 0]);
    }

    #[test]
    fn dense_from_vec_checks_shape() {
        let m = DenseMatrix::from_vec(2, 2, vec![1u32, 2, 3, 4]);
        assert_eq!(m.get(1, 0), 3);
        assert_eq!(m.column(1), vec![2, 4]);
        assert_eq!(m.row_sums(), vec![3, 7]);
        assert_eq!(m.total(), 10);
    }

    #[test]
    #[should_panic]
    fn dense_from_vec_panics_on_bad_shape() {
        let _ = DenseMatrix::from_vec(2, 3, vec![1u32, 2, 3, 4]);
    }

    #[test]
    fn dense_u16_device_bytes_are_half_of_u32() {
        let a: DenseMatrix<u16> = DenseMatrix::zeros(4, 8);
        let b: DenseMatrix<u32> = DenseMatrix::zeros(4, 8);
        assert_eq!(a.device_bytes() * 2, b.device_bytes());
    }

    #[test]
    fn atomic_fetch_add_and_snapshot() {
        let a = AtomicMatrix::zeros(2, 2);
        a.fetch_add(0, 1, 5);
        a.fetch_add(0, 1, 2);
        a.fetch_add(1, 0, 1);
        let d = a.to_dense();
        assert_eq!(d.get(0, 1), 7);
        assert_eq!(d.get(1, 0), 1);
        assert_eq!(d.get(1, 1), 0);
    }

    /// The distinct value [`numbered`] stores at `(r, c)`.
    fn cell(r: usize, c: usize) -> u32 {
        (r * 1000 + c) as u32 + 1
    }

    /// A matrix holding [`cell`] at every `(r, c)`, written through `store`.
    fn numbered(rows: usize, cols: usize) -> AtomicMatrix {
        let a = AtomicMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                a.store(r, c, cell(r, c));
            }
        }
        a
    }

    #[test]
    fn atomic_column_is_the_word_major_view_of_load() {
        let a = numbered(70, 65);
        for c in 0..65 {
            let col = a.column(c);
            assert_eq!(col.len(), 70);
            for (r, x) in col.iter().enumerate() {
                assert_eq!(x.load(Ordering::Relaxed), a.load(r, c));
                assert_eq!(a.load(r, c), cell(r, c));
            }
        }
    }

    #[test]
    fn atomic_to_dense_round_trips_off_strip_shapes() {
        // Shapes that are not multiples of the transpose strip.
        for (rows, cols) in [(1, 1), (3, 130), (70, 65)] {
            let a = numbered(rows, cols);
            let d = a.to_dense();
            assert_eq!((d.rows(), d.cols()), (rows, cols));
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(d.get(r, c), cell(r, c), "({r},{c}) of {rows}x{cols}");
                }
            }
        }
    }

    #[test]
    fn atomic_matrix_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AtomicMatrix>();
    }

    #[test]
    fn atomic_parallel_updates_are_not_lost() {
        use rayon::prelude::*;
        let a = AtomicMatrix::zeros(4, 4);
        (0..1000usize).into_par_iter().for_each(|i| {
            a.fetch_add(i % 4, (i / 4) % 4, 1);
        });
        assert_eq!(a.to_dense().total(), 1000);
    }

    #[test]
    fn compressed_device_bytes_halved() {
        let a = AtomicMatrix::zeros(8, 8);
        assert_eq!(
            a.device_bytes_compressed() * 2,
            a.device_bytes_uncompressed()
        );
    }
}
