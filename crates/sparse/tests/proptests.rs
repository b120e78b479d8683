//! Property-based tests for the sparse-matrix and sampling primitives.

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
        let linear = culda_sparse::prefix::search_prefix(&prefix, u);
        prop_assert_eq!(tree.sample(u), linear);
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

    /// Exclusive scan: out[i] is the sum of all preceding inputs.
    #[test]
    fn exclusive_scan_is_prefix_sum(values in prop::collection::vec(0u32..100, 0..200)) {
        let mut scanned = values.clone();
        let total = culda_sparse::prefix::exclusive_scan_u32(&mut scanned);
        let mut acc = 0u32;
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(scanned[i], acc);
            acc += v;
        }
        prop_assert_eq!(total, acc);
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
