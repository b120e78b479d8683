//! Tree-based multinomial sampling (§6.1.1, Figure 5).
//!
//! Sampling a topic from an (unnormalised) probability vector `p[0..n)` is
//! reformulated as a search problem: draw `u ~ U(0, Σp)` and find the smallest
//! `k` such that `prefixSum[k] > u`.  A flat search touches `O(n)` memory; the
//! paper instead builds an *index tree* whose internal levels are small enough
//! to live in shared memory, so the off-chip traffic per sample shrinks to a
//! handful of leaf elements.
//!
//! CuLDA_CGS uses a 32-way tree because one warp (32 lanes) inspects the 32
//! children of a node in a single step.  The simulator keeps the fan-out
//! configurable so the ablation benchmarks can compare fan-outs, and so the
//! binary tree of Figure 5 can be reproduced in tests.

/// An N-ary index tree over the inclusive prefix sums of a weight vector.
#[derive(Debug, Clone)]
pub struct IndexTree {
    fanout: usize,
    /// `levels[0]` is the leaf level: the inclusive prefix sum of the weights.
    /// `levels[i+1][j]` is the running total at the end of the `j`-th block of
    /// `fanout` nodes of `levels[i]`.
    levels: Vec<Vec<f32>>,
    total: f32,
}

/// Per-sample traversal statistics, used by the GPU cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TreeSampleStats {
    /// Number of tree nodes inspected during the descent.
    pub nodes_visited: u32,
    /// Number of levels traversed (including the leaf level).
    pub levels: u32,
}

impl IndexTree {
    /// The fan-out used by CuLDA_CGS on NVIDIA GPUs (one warp inspects one
    /// node's children in a single step).
    pub const WARP_FANOUT: usize = 32;

    /// Build a tree with the given fan-out from raw (unnormalised,
    /// non-negative) weights.
    ///
    /// # Panics
    /// Panics if `fanout < 2` or `weights` is empty.
    pub fn with_fanout(fanout: usize, weights: &[f32]) -> Self {
        let mut tree = IndexTree {
            fanout,
            levels: Vec::new(),
            total: 0.0,
        };
        tree.rebuild(fanout, weights);
        tree
    }

    /// Rebuild the tree in place over new weights, of any length: the tree
    /// [`IndexTree::with_fanout`] builds, in the level buffers this one
    /// already holds, so a caller that rebuilds per word allocates only
    /// when the tree grows.
    ///
    /// # Panics
    /// Panics if `fanout < 2` or `weights` is empty.
    pub fn rebuild(&mut self, fanout: usize, weights: &[f32]) {
        assert!(fanout >= 2, "fan-out must be at least 2");
        assert!(
            !weights.is_empty(),
            "cannot build an index tree over no weights"
        );
        self.fanout = fanout;
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        let leaf = &mut self.levels[0];
        leaf.clear();
        let mut acc = 0.0f32;
        leaf.extend(weights.iter().map(|&w| {
            debug_assert!(w >= 0.0, "negative weight {w}");
            acc += w;
            acc
        }));
        self.total = acc;
        let mut depth = 1;
        while self.levels[depth - 1].len() > fanout {
            if self.levels.len() == depth {
                self.levels.push(Vec::new());
            }
            let (below, above) = self.levels.split_at_mut(depth);
            let up = &mut above[0];
            up.clear();
            // The running total at the end of a block of `fanout` nodes is
            // simply the last prefix-sum entry in the block.
            up.extend(
                below[depth - 1]
                    .chunks(fanout)
                    .map(|block| block[block.len() - 1]),
            );
            depth += 1;
        }
        self.levels.truncate(depth);
    }

    /// Build a 32-way tree (the configuration used by the paper's kernels).
    pub fn new(weights: &[f32]) -> Self {
        Self::with_fanout(Self::WARP_FANOUT, weights)
    }

    /// The sum of all weights (`S` for the sparse part, `Q` for the dense
    /// part of the decomposed distribution).
    #[inline]
    pub fn total(&self) -> f32 {
        self.total
    }

    /// Number of leaves (the length of the weight vector).
    #[inline]
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// True when the tree has no leaves (never constructed in practice).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.levels[0].is_empty()
    }

    /// Number of levels, including the leaf level.
    #[inline]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Number of internal (non-leaf) nodes — this is what must fit in shared
    /// memory, and is what makes the tree attractive on a GPU.
    pub fn internal_nodes(&self) -> usize {
        self.levels[1..].iter().map(Vec::len).sum()
    }

    /// Bytes of shared memory the internal levels occupy (4 bytes per node).
    pub fn shared_bytes(&self) -> u64 {
        (self.internal_nodes() * 4) as u64
    }

    /// Bytes of (off-chip or shared, depending on placement) memory the leaf
    /// prefix-sum level occupies.
    pub fn leaf_bytes(&self) -> u64 {
        (self.len() * 4) as u64
    }

    /// Sample the smallest index `k` with `prefixSum[k] > u`.
    ///
    /// `u` must lie in `[0, total)`; values outside the range are clamped to
    /// the last index, which matches the behaviour of the CUDA kernel when
    /// floating-point rounding pushes `u` marginally past the total.
    #[inline]
    pub fn sample(&self, u: f32) -> usize {
        self.sample_with_stats(u).0
    }

    /// [`IndexTree::sample`] plus traversal statistics for the cost model.
    #[inline]
    pub fn sample_with_stats(&self, u: f32) -> (usize, TreeSampleStats) {
        let mut stats = TreeSampleStats::default();
        // Descend from the top level; `block` is the index of the block of
        // `fanout` nodes at the current level that contains the answer.
        let mut block = 0usize;
        for level in self.levels.iter().rev() {
            let start = block * self.fanout;
            let children = &level[start..(start + self.fanout).min(level.len())];
            // A real warp inspects all children at once.  The answer is the
            // first child whose running total exceeds `u`, or the last child
            // (clamp) when none does, and the warp is charged the nodes a
            // scan stopping at that child visits.  `!(u < v)` is that scan's
            // test negated, so a NaN `u` clamps as well.
            let child = children
                .partition_point(|&v| !(u < v))
                .min(children.len() - 1);
            stats.levels += 1;
            stats.nodes_visited += child as u32 + 1;
            block = start + child;
        }
        (block, stats)
    }

    /// The leaf-level prefix sums (exposed for tests and for the cost model).
    pub fn leaf_prefix(&self) -> &[f32] {
        &self.levels[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example from Figure 5 of the paper (binary tree over 8
    /// probabilities, u = 0.15 selects index 5).
    #[test]
    fn figure5_example() {
        let p = [0.01, 0.02, 0.03, 0.02, 0.04, 0.06, 0.01, 0.01];
        let tree = IndexTree::with_fanout(2, &p);
        assert!((tree.total() - 0.20).abs() < 1e-6);
        let (k, _) = tree.sample_with_stats(0.15);
        assert_eq!(k, 5);
    }

    #[test]
    fn sample_matches_linear_search_for_all_buckets() {
        let p = [0.1f32, 0.0, 0.25, 0.05, 0.3, 0.3];
        let tree = IndexTree::with_fanout(2, &p);
        let prefix = tree.leaf_prefix().to_vec();
        for i in 0..600 {
            let u = i as f32 / 600.0 * tree.total() * 0.999;
            let linear = crate::prefix::search_prefix(&prefix, u);
            assert_eq!(tree.sample(u), linear, "mismatch at u={u}");
        }
    }

    #[test]
    fn warp_fanout_tree_handles_large_k() {
        let weights: Vec<f32> = (0..4096).map(|i| ((i * 37) % 101) as f32 + 0.5).collect();
        let tree = IndexTree::new(&weights);
        assert_eq!(tree.len(), 4096);
        // 4096 leaves / 32 = 128 internal + 4 above = at most 3 levels total.
        assert!(tree.depth() <= 3, "depth {}", tree.depth());
        // Internal nodes must be small enough for shared memory (48 KiB).
        assert!(tree.shared_bytes() < 48 * 1024);
        // Spot-check samples against linear search.
        let prefix = tree.leaf_prefix().to_vec();
        for i in 0..200 {
            let u = (i as f32 + 0.5) / 200.0 * tree.total();
            assert_eq!(tree.sample(u), crate::prefix::search_prefix(&prefix, u));
        }
    }

    #[test]
    fn zero_weight_buckets_are_never_selected() {
        let p = [0.0f32, 0.5, 0.0, 0.5, 0.0];
        let tree = IndexTree::with_fanout(2, &p);
        for i in 0..100 {
            let u = i as f32 / 100.0 * tree.total() * 0.999;
            let k = tree.sample(u);
            assert!(k == 1 || k == 3, "selected zero-probability bucket {k}");
        }
    }

    #[test]
    fn single_element_tree() {
        let tree = IndexTree::new(&[2.5]);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.sample(1.0), 0);
        assert_eq!(tree.internal_nodes(), 0);
    }

    #[test]
    fn out_of_range_u_clamps_to_last_index() {
        let tree = IndexTree::with_fanout(2, &[0.3, 0.3, 0.4]);
        assert_eq!(tree.sample(10.0), 2);
    }

    #[test]
    fn stats_count_levels_and_nodes() {
        let weights = vec![1.0f32; 64];
        let tree = IndexTree::new(&weights); // 64 leaves, fanout 32 → 2 levels
        let (_, stats) = tree.sample_with_stats(5.5);
        assert_eq!(stats.levels, 2);
        assert!(stats.nodes_visited >= 2);
        assert!(stats.nodes_visited <= 64);
    }

    #[test]
    fn depth_grows_logarithmically() {
        let weights = vec![1.0f32; 32 * 32 * 4];
        let tree = IndexTree::new(&weights);
        assert_eq!(tree.depth(), 3);
        let tree2 = IndexTree::with_fanout(2, &vec![1.0f32; 1024]);
        assert_eq!(tree2.depth(), 10);
    }

    /// The bits of every level, the fan-out and the total.
    fn tree_bits(tree: &IndexTree) -> (usize, u32, Vec<Vec<u32>>) {
        let levels = tree
            .levels
            .iter()
            .map(|level| level.iter().map(|x| x.to_bits()).collect())
            .collect();
        (tree.fanout, tree.total.to_bits(), levels)
    }

    #[test]
    fn rebuild_in_place_equals_a_fresh_tree() {
        let weights =
            |n: usize| -> Vec<f32> { (0..n).map(|i| ((i * 37) % 11) as f32 * 0.25).collect() };
        let mut tree = IndexTree::with_fanout(4, &weights(100));
        for (fanout, n) in [(4, 3), (32, 1), (2, 1000), (32, 33), (3, 64), (32, 4096)] {
            tree.rebuild(fanout, &weights(n));
            let fresh = IndexTree::with_fanout(fanout, &weights(n));
            assert_eq!(
                tree_bits(&tree),
                tree_bits(&fresh),
                "fan-out {fanout}, {n} weights"
            );
        }
    }

    #[test]
    #[should_panic]
    fn empty_weights_panic() {
        let _ = IndexTree::new(&[]);
    }
}
