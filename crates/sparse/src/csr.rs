//! Compressed sparse row (CSR) storage for the document–topic matrix θ.
//!
//! The paper stores θ in CSR format with 16-bit column (topic) indices
//! (§6.1.3).  A row corresponds to one document; the non-zero entries of the
//! row are the topics that currently have at least one token assigned in that
//! document, together with their counts.  Because the average document is far
//! shorter than the number of topics `K`, θ is very sparse, which is exactly
//! the property the sparsity-aware sampler (§6.1.1) exploits.

use crate::topic::TopicId;
use serde::{Deserialize, Serialize};

/// A CSR matrix with `u16` column indices and `u32` values.
///
/// Invariants (checked by [`CsrMatrix::validate`] and exercised by the
/// property tests):
///
/// * `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`, `row_ptr` is
///   non-decreasing and `row_ptr[rows] == cols_idx.len() == values.len()`.
/// * within each row, column indices are strictly increasing and < `cols`.
/// * all stored values are non-zero (zero entries are simply absent).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<TopicId>,
    values: Vec<u32>,
}

impl CsrMatrix {
    /// An empty matrix with the given shape and no stored entries.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build a CSR matrix from per-row `(column, value)` pairs.
    ///
    /// Each row's pairs may be unsorted and may contain duplicate columns;
    /// duplicates are summed.  Zero values are dropped.
    pub fn from_rows(cols: usize, rows: &[Vec<(TopicId, u32)>]) -> Self {
        let mut builder = CsrBuilder::new(rows.len(), cols);
        for row in rows {
            builder.push_row(row.iter().copied());
        }
        builder.finish()
    }

    /// Build a CSR matrix from dense rows; zero entries are dropped.
    pub fn from_dense_rows(cols: usize, dense: &[Vec<u32>]) -> Self {
        let mut builder = CsrBuilder::new(dense.len(), cols);
        for row in dense {
            assert_eq!(row.len(), cols, "dense row length must equal `cols`");
            builder.push_row(
                row.iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0)
                    .map(|(k, &v)| (k as TopicId, v)),
            );
        }
        builder.finish()
    }

    /// Number of rows (documents).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (topics).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Release any capacity beyond the stored entries.
    pub fn shrink_to_fit(&mut self) {
        self.row_ptr.shrink_to_fit();
        self.col_idx.shrink_to_fit();
        self.values.shrink_to_fit();
    }

    /// Total number of stored (non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Number of stored entries in row `r` (the paper's `K_d`).
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }

    /// The column indices and values of row `r`, as parallel slices.
    #[inline]
    pub fn row(&self, r: usize) -> (&[TopicId], &[u32]) {
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// The raw row pointer array (`rows + 1` entries).
    #[inline]
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Value at `(r, c)`, or 0 when the entry is not stored.
    pub fn get(&self, r: usize, c: usize) -> u32 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&(c as TopicId)) {
            Ok(i) => vals[i],
            Err(_) => 0,
        }
    }

    /// Expand row `r` into a dense vector of length `cols`.
    pub fn dense_row(&self, r: usize) -> Vec<u32> {
        let mut out = vec![0u32; self.cols];
        let (cols, vals) = self.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            out[c as usize] = v;
        }
        out
    }

    /// Sum of the values in row `r` (for θ this is the document length).
    pub fn row_sum(&self, r: usize) -> u64 {
        let (_, vals) = self.row(r);
        vals.iter().map(|&v| v as u64).sum()
    }

    /// Sum of all stored values.
    pub fn total(&self) -> u64 {
        self.values.iter().map(|&v| v as u64).sum()
    }

    /// Iterate over `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, TopicId, u32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Size in bytes of the device-resident representation
    /// (`row_ptr` as u32, column indices as u16, values as u32).
    ///
    /// Used by the PCIe transfer model and the device-memory capacity check.
    pub fn device_bytes(&self) -> u64 {
        (self.row_ptr.len() * 4 + self.col_idx.len() * 2 + self.values.len() * 4) as u64
    }

    /// Check all structural invariants; returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.row_ptr.len() != self.rows + 1 {
            return Err(format!(
                "row_ptr length {} != rows + 1 = {}",
                self.row_ptr.len(),
                self.rows + 1
            ));
        }
        if self.row_ptr[0] != 0 {
            return Err("row_ptr[0] != 0".into());
        }
        if *self.row_ptr.last().unwrap() as usize != self.col_idx.len()
            || self.col_idx.len() != self.values.len()
        {
            return Err("row_ptr end / col_idx / values length mismatch".into());
        }
        for r in 0..self.rows {
            if self.row_ptr[r] > self.row_ptr[r + 1] {
                return Err(format!("row_ptr decreases at row {r}"));
            }
            let (cols, vals) = self.row(r);
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {r} columns not strictly increasing"));
                }
            }
            if let Some(&c) = cols.last() {
                if c as usize >= self.cols {
                    return Err(format!("row {r} column {c} out of bounds"));
                }
            }
            if vals.contains(&0) {
                return Err(format!("row {r} stores an explicit zero"));
            }
        }
        Ok(())
    }

    /// Convert to a dense row-major matrix (mainly for tests and debugging).
    pub fn to_dense(&self) -> Vec<Vec<u32>> {
        (0..self.rows).map(|r| self.dense_row(r)).collect()
    }
}

/// Incremental builder for [`CsrMatrix`], pushing one row at a time.
///
/// Rows enter through one of three doors:
///
/// * [`CsrBuilder::push_counted_row`] counts a θ row from its tokens'
///   topics; the trainer, the streaming session and the update-θ kernel
///   (§6.2) count every θ row they build from tokens with it.  A long row is counted in a dense
///   `cols`-wide histogram that is scanned and reset in place, as the
///   paper's kernel compacts its dense per-document array; a short row is
///   sorted and run-length encoded.  A row of `n` tokens is long when
///   `n ≥ 16` and `n·⌈log2(n+1)⌉ > cols`, i.e. when sorting it would cost
///   more steps than the `cols`-wide scan.
/// * [`CsrBuilder::push_sorted_row`] appends a row that is already in CSR
///   form, such as a row of another [`CsrMatrix`].
/// * [`CsrBuilder::push_row`] takes unsorted `(column, value)` pairs, as
///   read from disk, and sorts them.
#[derive(Debug)]
pub struct CsrBuilder {
    cols: usize,
    expected_rows: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<TopicId>,
    values: Vec<u32>,
    scratch: Vec<(TopicId, u32)>,
    /// Sort buffer of the short-row path of `push_counted_row`.
    topics: Vec<TopicId>,
    /// `cols`-wide histogram of the long-row path of `push_counted_row`,
    /// allocated on first use and all zero between calls.
    histogram: Vec<u32>,
}

/// Whether [`CsrBuilder::push_counted_row`] counts a row of `n` tokens over
/// `cols` columns in a dense histogram (true) or by sorting (false).
/// Sorting costs about `n·⌈log2(n+1)⌉` steps and the histogram a `cols`-wide
/// scan; rows under 16 tokens always sort, since that is a few compares.
#[inline]
fn counts_by_histogram(n: usize, cols: usize) -> bool {
    let log2_ceil = (usize::BITS - n.leading_zeros()) as usize;
    n >= 16 && n * log2_ceil > cols
}

impl CsrBuilder {
    /// Start building a matrix with `rows` rows and `cols` columns.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(
            cols <= TopicId::MAX as usize + 1,
            "column index must fit in u16"
        );
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        CsrBuilder {
            cols,
            expected_rows: rows,
            row_ptr,
            col_idx: Vec::new(),
            values: Vec::new(),
            scratch: Vec::new(),
            topics: Vec::new(),
            histogram: Vec::new(),
        }
    }

    /// Reserve space for an estimated total number of non-zeros.
    pub fn reserve_nnz(&mut self, nnz: usize) {
        self.col_idx.reserve(nnz);
        self.values.reserve(nnz);
    }

    /// Append the next row from `(column, value)` pairs.
    ///
    /// Pairs may be unsorted and contain duplicates (summed); zeros dropped.
    pub fn push_row(&mut self, entries: impl IntoIterator<Item = (TopicId, u32)>) {
        self.scratch.clear();
        self.scratch.extend(entries);
        self.scratch.sort_unstable_by_key(|&(c, _)| c);
        let mut i = 0;
        while i < self.scratch.len() {
            let (c, mut v) = self.scratch[i];
            let mut j = i + 1;
            while j < self.scratch.len() && self.scratch[j].0 == c {
                v += self.scratch[j].1;
                j += 1;
            }
            debug_assert!((c as usize) < self.cols, "column {c} out of bounds");
            if v != 0 {
                self.col_idx.push(c);
                self.values.push(v);
            }
            i = j;
        }
        self.row_ptr.push(self.col_idx.len() as u32);
    }

    /// Append the next row counted from its tokens' topics: every distinct
    /// topic with its number of occurrences, exactly the row
    /// `push_row(topics.map(|t| (t, 1)))` appends.
    pub fn push_counted_row(&mut self, topics: impl ExactSizeIterator<Item = TopicId>) {
        if counts_by_histogram(topics.len(), self.cols) {
            if self.histogram.is_empty() {
                self.histogram = vec![0; self.cols];
            }
            for t in topics {
                self.histogram[t as usize] += 1;
            }
            for (c, count) in self.histogram.iter_mut().enumerate() {
                if *count != 0 {
                    self.col_idx.push(c as TopicId);
                    self.values.push(std::mem::take(count));
                }
            }
        } else {
            self.topics.clear();
            self.topics.extend(topics);
            self.topics.sort_unstable();
            for run in self.topics.chunk_by(|a, b| a == b) {
                debug_assert!(
                    (run[0] as usize) < self.cols,
                    "column {} out of bounds",
                    run[0]
                );
                self.col_idx.push(run[0]);
                self.values.push(run.len() as u32);
            }
        }
        self.row_ptr.push(self.col_idx.len() as u32);
    }

    /// Append the next row in CSR form: strictly increasing in-bounds
    /// columns with non-zero values (checked in debug builds).
    pub fn push_sorted_row(&mut self, cols: &[TopicId], values: &[u32]) {
        debug_assert_eq!(cols.len(), values.len());
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "columns not sorted");
        debug_assert!(cols.last().is_none_or(|&c| (c as usize) < self.cols));
        debug_assert!(!values.contains(&0), "explicit zero");
        self.col_idx.extend_from_slice(cols);
        self.values.extend_from_slice(values);
        self.row_ptr.push(self.col_idx.len() as u32);
    }

    /// Append the next row from a dense slice of length `cols`.
    pub fn push_dense_row(&mut self, dense: &[u32]) {
        debug_assert_eq!(dense.len(), self.cols);
        for (k, &v) in dense.iter().enumerate() {
            if v != 0 {
                self.col_idx.push(k as TopicId);
                self.values.push(v);
            }
        }
        self.row_ptr.push(self.col_idx.len() as u32);
    }

    /// Number of rows pushed so far.
    pub fn rows_pushed(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Finish building.  Missing rows (fewer `push_row` calls than `rows`)
    /// are treated as empty.
    pub fn finish(mut self) -> CsrMatrix {
        while self.rows_pushed() < self.expected_rows {
            let nnz = self.col_idx.len() as u32;
            self.row_ptr.push(nnz);
        }
        let m = CsrMatrix {
            rows: self.expected_rows,
            cols: self.cols,
            row_ptr: self.row_ptr,
            col_idx: self.col_idx,
            values: self.values,
        };
        debug_assert!(m.validate().is_ok(), "builder produced invalid CSR");
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_rows(
            8,
            &[
                vec![(1, 3), (4, 1)],
                vec![],
                vec![(0, 2), (7, 5), (3, 1)],
                vec![(6, 1)],
            ],
        )
    }

    #[test]
    fn shrink_to_fit_keeps_the_matrix() {
        let mut b = CsrBuilder::new(4, 8);
        b.reserve_nnz(1_000);
        for row in [
            vec![(1, 3), (4, 1)],
            vec![],
            vec![(0, 2), (7, 5), (3, 1)],
            vec![(6, 1)],
        ] {
            b.push_row(row);
        }
        let mut m = b.finish();
        m.shrink_to_fit();
        assert_eq!(m, sample());
        assert_eq!(m.col_idx.capacity(), m.nnz());
        assert_eq!(m.values.capacity(), m.nnz());
    }

    #[test]
    fn shape_and_nnz() {
        let m = sample();
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 8);
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row_nnz(2), 3);
        m.validate().unwrap();
    }

    #[test]
    fn get_returns_stored_and_zero() {
        let m = sample();
        assert_eq!(m.get(0, 1), 3);
        assert_eq!(m.get(0, 2), 0);
        assert_eq!(m.get(2, 7), 5);
        assert_eq!(m.get(1, 0), 0);
    }

    #[test]
    fn rows_are_sorted_even_if_input_is_not() {
        let m = CsrMatrix::from_rows(10, &[vec![(9, 1), (2, 2), (5, 3)]]);
        let (cols, vals) = m.row(0);
        assert_eq!(cols, &[2, 5, 9]);
        assert_eq!(vals, &[2, 3, 1]);
    }

    #[test]
    fn duplicate_columns_are_summed_and_zeros_dropped() {
        let m = CsrMatrix::from_rows(4, &[vec![(1, 2), (1, 3), (2, 0)]]);
        assert_eq!(m.row(0), (&[1u16][..], &[5u32][..]));
        m.validate().unwrap();
    }

    #[test]
    fn dense_round_trip() {
        let dense = vec![vec![0, 2, 0, 1], vec![5, 0, 0, 0], vec![0, 0, 0, 0]];
        let m = CsrMatrix::from_dense_rows(4, &dense);
        assert_eq!(m.to_dense(), dense);
    }

    #[test]
    fn row_sum_and_total() {
        let m = sample();
        assert_eq!(m.row_sum(0), 4);
        assert_eq!(m.row_sum(1), 0);
        assert_eq!(m.total(), 13);
    }

    #[test]
    fn iter_visits_all_entries_in_order() {
        let m = sample();
        let triples: Vec<_> = m.iter().collect();
        assert_eq!(triples[0], (0, 1, 3));
        assert_eq!(triples.len(), 6);
        assert!(triples.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn builder_fills_missing_rows() {
        let mut b = CsrBuilder::new(5, 4);
        b.push_row([(0u16, 1u32)]);
        let m = b.finish();
        assert_eq!(m.rows(), 5);
        assert_eq!(m.row_nnz(4), 0);
        m.validate().unwrap();
    }

    #[test]
    fn push_dense_row_matches_push_row() {
        let mut a = CsrBuilder::new(1, 6);
        a.push_dense_row(&[0, 3, 0, 0, 7, 0]);
        let mut b = CsrBuilder::new(1, 6);
        b.push_row([(1u16, 3u32), (4, 7)]);
        assert_eq!(a.finish(), b.finish());
    }

    /// Check `push_counted_row` against its definition, `push_row` of
    /// `(topic, 1)` pairs, over rows pushed one after another into one
    /// builder.
    fn assert_counted_rows_match_push_row(cols: usize, rows: &[Vec<TopicId>]) {
        let mut counted = CsrBuilder::new(rows.len(), cols);
        let mut reference = CsrBuilder::new(rows.len(), cols);
        for row in rows {
            counted.push_counted_row(row.iter().copied());
            reference.push_row(row.iter().map(|&t| (t, 1)));
        }
        assert_eq!(counted.finish(), reference.finish(), "cols = {cols}");
    }

    /// `n` topics below `cols` in scrambled order, with repeats, starting
    /// at topic 0 and ending at topic `cols - 1`.
    fn scrambled_row(n: usize, cols: usize) -> Vec<TopicId> {
        let mut row: Vec<TopicId> = (0..n)
            .map(|i| ((i * 37 + i / 3) % cols) as TopicId)
            .collect();
        if n >= 2 {
            row[0] = 0;
            row[n - 1] = (cols - 1) as TopicId;
        }
        row
    }

    #[test]
    fn counted_rows_equal_push_row_on_edge_cases() {
        let cols = 8;
        assert_counted_rows_match_push_row(cols, &[vec![]]);
        assert_counted_rows_match_push_row(cols, &[vec![3]]);
        assert_counted_rows_match_push_row(cols, &[vec![5; 3], vec![5; 40]]);
        assert_counted_rows_match_push_row(cols, &[vec![7, 0, 7], scrambled_row(30, cols)]);
    }

    #[test]
    fn counted_rows_equal_push_row_on_both_sides_of_the_switch() {
        for cols in [8usize, 128, 512] {
            let switch = (1..).find(|&n| counts_by_histogram(n, cols)).unwrap();
            assert!(switch >= 16 && !counts_by_histogram(switch - 1, cols));
            let below = scrambled_row(switch - 1, cols);
            let above = scrambled_row(switch, cols);
            assert_counted_rows_match_push_row(cols, &[below.clone(), above.clone()]);
            // Two long rows in a row: the second must not see the first's
            // counts, i.e. the histogram is left zeroed.
            let mut shifted = above.clone();
            shifted.rotate_left(5);
            shifted[0] = 1;
            assert_counted_rows_match_push_row(cols, &[above, shifted, below]);
        }
    }

    #[test]
    fn push_sorted_row_copies_rows_of_another_matrix() {
        let m = sample();
        let mut b = CsrBuilder::new(m.rows(), m.cols());
        for r in 0..m.rows() {
            let (cols, vals) = m.row(r);
            b.push_sorted_row(cols, vals);
        }
        assert_eq!(b.finish(), m);
    }

    #[test]
    fn device_bytes_accounts_for_compression() {
        let m = sample();
        // row_ptr: 5 * 4, cols: 6 * 2, vals: 6 * 4
        assert_eq!(m.device_bytes(), 20 + 12 + 24);
    }

    #[test]
    fn zeros_matrix_is_valid() {
        let m = CsrMatrix::zeros(3, 9);
        m.validate().unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.get(2, 8), 0);
    }
}
