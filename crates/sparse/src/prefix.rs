//! Prefix sums (scans) and the search over them.
//!
//! * [`parallel_offsets_u64`] turns per-document token counts into the
//!   offsets the corpus partitioner splits by token count (§5.1).  It runs
//!   on real OS threads; its fixed block decomposition — not thread
//!   arrival order — defines every intermediate sum, so its output is
//!   bit-identical at any thread count.
//! * [`search_prefix`] samples from an *inclusive* prefix sum of a
//!   probability vector (§6.1.1, Fig. 5): the sampling kernel's sparse
//!   branch searches the document's p1 prefix with it.

use rayon::prelude::*;

/// Parallel exclusive prefix sum over `u64` counts, returning a `len + 1`
/// offsets array.  Used host-side when partitioning a corpus into chunks by
/// token count (§5.1) where the number of documents can be in the millions.
///
/// The implementation is a classic two-pass block scan: per-block sums are
/// computed in parallel, scanned sequentially (the number of blocks is tiny),
/// and then each block is re-scanned in parallel with its offset.
pub fn parallel_offsets_u64(counts: &[u64]) -> Vec<u64> {
    const BLOCK: usize = 16_384;
    if counts.len() <= BLOCK {
        let mut out = Vec::with_capacity(counts.len() + 1);
        let mut acc = 0u64;
        out.push(0);
        for &c in counts {
            acc += c;
            out.push(acc);
        }
        return out;
    }

    let block_sums: Vec<u64> = counts
        .par_chunks(BLOCK)
        .map(|chunk| chunk.iter().sum())
        .collect();

    let mut block_offsets = Vec::with_capacity(block_sums.len());
    let mut acc = 0u64;
    for &s in &block_sums {
        block_offsets.push(acc);
        acc += s;
    }
    let total = acc;

    let mut out = vec![0u64; counts.len() + 1];
    out[counts.len()] = total;
    // Fill out[0..len) in parallel, one block at a time.
    out[..counts.len()]
        .par_chunks_mut(BLOCK)
        .zip(counts.par_chunks(BLOCK))
        .zip(block_offsets.par_iter())
        .for_each(|((out_chunk, in_chunk), &base)| {
            let mut acc = base;
            for (o, &c) in out_chunk.iter_mut().zip(in_chunk) {
                *o = acc;
                acc += c;
            }
        });
    out
}

/// Binary search over an inclusive prefix-sum array: smallest `i` such that
/// `u < prefix[i]`, clamped to the last index when there is none.  This is
/// the "search problem" formulation of multinomial sampling that the index
/// tree accelerates (§6.1.1).  `prefix` must be non-decreasing, as the
/// running sums of non-negative weights are.  The predicate is `u < x`
/// negated, so a NaN `u` clamps too.
#[inline]
pub fn search_prefix(prefix: &[f32], u: f32) -> usize {
    debug_assert!(!prefix.is_empty());
    prefix.partition_point(|&x| !(u < x)).min(prefix.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_offsets_small_input() {
        assert_eq!(parallel_offsets_u64(&[1, 2, 3]), vec![0, 1, 3, 6]);
    }

    #[test]
    fn parallel_offsets_matches_sequential_on_large_input() {
        let counts: Vec<u64> = (0..100_000u64).map(|i| i % 7).collect();
        let par = parallel_offsets_u64(&counts);
        let mut acc = 0u64;
        let mut seq = vec![0u64];
        for &c in &counts {
            acc += c;
            seq.push(acc);
        }
        assert_eq!(par, seq);
    }

    #[test]
    fn search_prefix_finds_first_bucket_exceeding_u() {
        let p = vec![0.1, 0.3, 0.6, 1.0];
        assert_eq!(search_prefix(&p, 0.05), 0);
        assert_eq!(search_prefix(&p, 0.1), 1);
        assert_eq!(search_prefix(&p, 0.59), 2);
        assert_eq!(search_prefix(&p, 0.99), 3);
        // Out-of-range u clamps to the last bucket.
        assert_eq!(search_prefix(&p, 2.0), 3);
    }

    #[test]
    fn search_prefix_single_element() {
        assert_eq!(search_prefix(&[1.0], 0.3), 0);
    }
}
