//! Property-based tests for the sparse-matrix and sampling primitives.

use culda_sparse::index_tree::TreeSampleStats;
use culda_sparse::prefix::search_prefix;
use culda_sparse::{AliasTable, CsrMatrix, IndexTree};
use proptest::prelude::*;

fn arb_dense_rows() -> impl Strategy<Value = (usize, Vec<Vec<u32>>)> {
    (1usize..24).prop_flat_map(|cols| {
        (
            Just(cols),
            prop::collection::vec(prop::collection::vec(0u32..6, cols), 0..24),
        )
    })
}

/// Non-negative weights in which about a third are zero, so the prefix sums
/// hold runs of equal entries.
fn arb_weights() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(
        (0u32..3, 0.0f32..10.0).prop_map(|(keep, w)| if keep == 0 { 0.0 } else { w }),
        1..300,
    )
}

/// The draws worth probing over `prefix`: 0, every prefix value exactly,
/// the midpoints between neighbours, `fraction` of the total, and values at
/// and past the total (which clamp), NaN included.
fn probe_draws(prefix: &[f32], fraction: f32) -> Vec<f32> {
    let total = prefix[prefix.len() - 1];
    let mut draws = vec![
        0.0,
        fraction * total,
        total,
        total * 2.0 + 1.0,
        f32::MAX,
        f32::NAN,
    ];
    draws.extend_from_slice(prefix);
    draws.extend(prefix.windows(2).map(|w| (w[0] + w[1]) * 0.5));
    draws
}

/// The inclusive prefix sums of `weights`, added left to right.
fn running_sums(weights: &[f32]) -> Vec<f32> {
    let mut acc = 0.0f32;
    weights
        .iter()
        .map(|&w| {
            acc += w;
            acc
        })
        .collect()
}

/// The hand-written binary search `search_prefix` replaced.
fn search_prefix_oracle(prefix: &[f32], u: f32) -> usize {
    let mut lo = 0usize;
    let mut hi = prefix.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if u < prefix[mid] {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo.min(prefix.len() - 1)
}

/// The index tree's levels as `IndexTree::with_fanout` builds them, searched
/// with the early-exit child scan `sample_with_stats` replaced.
fn tree_sample_oracle(fanout: usize, weights: &[f32], u: f32) -> (usize, TreeSampleStats) {
    let mut levels = vec![running_sums(weights)];
    while levels.last().unwrap().len() > fanout {
        let up = levels
            .last()
            .unwrap()
            .chunks(fanout)
            .map(|b| *b.last().unwrap())
            .collect();
        levels.push(up);
    }
    let mut stats = TreeSampleStats::default();
    let mut block = 0usize;
    for level in levels.iter().rev() {
        stats.levels += 1;
        let start = block * fanout;
        let end = (start + fanout).min(level.len());
        let mut child = end - 1;
        for (i, &v) in level[start..end].iter().enumerate() {
            stats.nodes_visited += 1;
            if u < v {
                child = start + i;
                break;
            }
        }
        block = child;
    }
    (block, stats)
}

/// Every observable of `tree`, with floats as bits: the sums, the shape and
/// the sample at each probe draw.
fn tree_view(tree: &IndexTree) -> (u32, Vec<u32>, usize, usize, Vec<(usize, TreeSampleStats)>) {
    let prefix = tree.leaf_prefix();
    let samples = probe_draws(prefix, 0.5)
        .into_iter()
        .map(|u| tree.sample_with_stats(u))
        .collect();
    (
        tree.total().to_bits(),
        prefix.iter().map(|x| x.to_bits()).collect(),
        tree.depth(),
        tree.internal_nodes(),
        samples,
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        failure_persistence: FileFailurePersistence::WithSource("proptest-regressions"),
        ..ProptestConfig::default()
    })]
    /// CSR ⇄ dense round trips exactly.
    #[test]
    fn csr_dense_round_trip((cols, rows) in arb_dense_rows()) {
        let m = CsrMatrix::from_dense_rows(cols, &rows);
        prop_assert!(m.validate().is_ok());
        prop_assert_eq!(m.to_dense(), rows);
    }

    /// nnz equals the number of non-zero entries, and total equals the sum.
    #[test]
    fn csr_nnz_and_total((cols, rows) in arb_dense_rows()) {
        let m = CsrMatrix::from_dense_rows(cols, &rows);
        let nnz: usize = rows.iter().map(|r| r.iter().filter(|&&v| v != 0).count()).sum();
        let total: u64 = rows.iter().flatten().map(|&v| v as u64).sum();
        prop_assert_eq!(m.nnz(), nnz);
        prop_assert_eq!(m.total(), total);
    }

    /// `get` agrees with the dense representation for every coordinate.
    #[test]
    fn csr_get_matches_dense((cols, rows) in arb_dense_rows()) {
        let m = CsrMatrix::from_dense_rows(cols, &rows);
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                prop_assert_eq!(m.get(r, c), v);
            }
        }
    }

    /// Tree-based sampling selects exactly the bucket a linear scan over the
    /// prefix sums would select, for any fan-out and any weights.
    #[test]
    fn index_tree_matches_linear_search(
        weights in prop::collection::vec(0.0f32..10.0, 1..300),
        fanout in 2usize..40,
        fraction in 0.0f64..1.0,
    ) {
        let tree = IndexTree::with_fanout(fanout, &weights);
        let total = tree.total();
        prop_assume!(total > 0.0);
        let u = (fraction as f32 * total).min(total * 0.999_999);
        let prefix = tree.leaf_prefix().to_vec();
        let linear = search_prefix(&prefix, u);
        prop_assert_eq!(tree.sample(u), linear);
    }

    /// `search_prefix` returns the index the hand-written binary search
    /// did, on prefixes with runs of equal entries, at u = 0, on every
    /// prefix value and at or past the total.
    #[test]
    fn search_prefix_matches_the_binary_search_oracle(
        weights in arb_weights(),
        fraction in 0.0f32..1.0,
    ) {
        let prefix = running_sums(&weights);
        for u in probe_draws(&prefix, fraction) {
            prop_assert_eq!(search_prefix(&prefix, u), search_prefix_oracle(&prefix, u), "u = {}", u);
        }
    }

    /// The tree descent returns the index *and* the traversal statistics
    /// of the early-exit scan, for any fan-out, at the same draws.
    #[test]
    fn tree_descent_matches_the_scan_oracle(
        weights in arb_weights(),
        fanout in 2usize..40,
        fraction in 0.0f32..1.0,
    ) {
        let tree = IndexTree::with_fanout(fanout, &weights);
        for u in probe_draws(tree.leaf_prefix(), fraction) {
            prop_assert_eq!(
                tree.sample_with_stats(u),
                tree_sample_oracle(fanout, &weights, u),
                "u = {}",
                u
            );
        }
    }

    /// A tree rebuilt in place, after shrinking K and then growing it,
    /// equals a tree built fresh over the same weights.
    #[test]
    fn rebuild_equals_a_fresh_tree_after_shrinking_and_growing(
        first in arb_weights(),
        cut in 1usize..300,
        grow in arb_weights(),
        fanouts in (2usize..40, 2usize..40, 2usize..40),
    ) {
        let small: Vec<f32> = first[..cut.min(first.len())].to_vec();
        let large: Vec<f32> = first.iter().chain(&grow).copied().collect();
        let mut tree = IndexTree::with_fanout(fanouts.0, &first);
        for (fanout, weights) in [(fanouts.1, &small), (fanouts.2, &large)] {
            tree.rebuild(fanout, weights);
            prop_assert_eq!(tree_view(&tree), tree_view(&IndexTree::with_fanout(fanout, weights)));
        }
    }

    /// The index-tree total equals the weight sum regardless of fan-out.
    #[test]
    fn index_tree_total_is_weight_sum(
        weights in prop::collection::vec(0.0f32..5.0, 1..200),
        fanout in 2usize..34,
    ) {
        let tree = IndexTree::with_fanout(fanout, &weights);
        let expect: f32 = weights.iter().sum();
        prop_assert!((tree.total() - expect).abs() <= expect.abs() * 1e-5 + 1e-5);
    }

    /// Alias tables never return an out-of-range bucket and never return a
    /// zero-weight bucket when at least one weight is positive.
    #[test]
    fn alias_table_respects_support(
        weights in prop::collection::vec(0.0f32..4.0, 1..64),
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let table = AliasTable::new(&weights);
        let positive: f32 = weights.iter().sum();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..64 {
            let k = table.sample(&mut rng);
            prop_assert!(k < weights.len());
            if positive > 0.0 {
                // Zero-weight buckets may appear only through float rounding in
                // the build; with the exact arithmetic used here they cannot.
                prop_assert!(weights[k] > 0.0, "drew zero-weight bucket {}", k);
            }
        }
    }

    /// Parallel offsets agree with the sequential definition.
    #[test]
    fn parallel_offsets_match_sequential(values in prop::collection::vec(0u64..1000, 0..500)) {
        let offsets = culda_sparse::prefix::parallel_offsets_u64(&values);
        prop_assert_eq!(offsets.len(), values.len() + 1);
        let mut acc = 0u64;
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(offsets[i], acc);
            acc += v;
        }
        prop_assert_eq!(*offsets.last().unwrap(), acc);
    }

    /// LEB128 round trips for arbitrary u32 slices, and the size-only
    /// accounting matches the materialised byte stream.
    #[test]
    fn varint_slice_round_trip(values in prop::collection::vec(any::<u32>(), 0..300)) {
        use culda_sparse::varint;
        let bytes = varint::encode_slice(&values);
        prop_assert_eq!(bytes.len(), varint::encoded_len(&values));
        prop_assert_eq!(varint::decode_slice(&bytes, values.len()).unwrap(), values);
    }

    /// Delta + LEB128 round trips for any non-decreasing sequence, and the
    /// encoding never exceeds the plain varint encoding of the same values.
    #[test]
    fn varint_delta_round_trip(mut values in prop::collection::vec(any::<u32>(), 0..300)) {
        use culda_sparse::varint;
        values.sort_unstable();
        let bytes = varint::encode_deltas(&values);
        prop_assert_eq!(bytes.len(), varint::delta_encoded_len(&values));
        prop_assert_eq!(varint::decode_deltas(&bytes, values.len()).unwrap(), values.clone());
        prop_assert!(bytes.len() <= varint::encoded_len(&values));
        let stats = varint::delta_stats(&values);
        prop_assert!(stats.ratio() > 0.0);
        if !values.is_empty() {
            // LEB128 of a u32 never exceeds 5 bytes → ratio bounded by 1.25.
            prop_assert!(stats.ratio() <= 1.25 + 1e-9);
        }
    }

    /// Decoding never panics on arbitrary byte soup — it either succeeds or
    /// reports a structured error.
    #[test]
    fn varint_decode_is_total(bytes in prop::collection::vec(any::<u8>(), 0..64), count in 0usize..16) {
        use culda_sparse::varint;
        let _ = varint::decode_slice(&bytes, count);
        let _ = varint::decode_deltas(&bytes, count);
    }
}
