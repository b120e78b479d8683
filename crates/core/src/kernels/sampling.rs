//! The default sparse-CGS sampling kernel (§6.1, Algorithm 2).
//!
//! [`SparseCgsSampler`] is the default [`SamplerKernel`] implementation: the
//! paper's exact S/Q-split collapsed Gibbs kernel.  One thread block samples
//! the tokens of one word (or a slice of a heavy word's tokens).  The block
//! first computes the shared quantities that depend only on the word:
//!
//! * the reused sub-expression `p*(k) = (φ[k,v] + β) / (n_k + βV)` (§6.1.3),
//!   stored in shared memory;
//! * the dense part `p2(k) = α · p*(k)`, its sum `Q`, and its 32-way index
//!   tree (§6.1.1), also in shared memory.
//!
//! Each sampler (warp) then processes its tokens: it reads the document's
//! sparse θ row, forms the sparse part `p1(k) = θ_{d,k} · p*(k)` and its sum
//! `S`, draws `u ~ U(0, S + Q)` and samples from `p1` (tree over the `K_d`
//! non-zeros) when `u < S`, from the shared `p2` tree otherwise.  The new
//! topic is written to `z_next`; counts are folded in by the update kernels.

use crate::config::LdaConfig;
use crate::kernels::sampler::{SamplerKernel, BURN_STREAM_BASE};
use crate::model::ChunkState;
use crate::work::WorkItem;
use culda_gpusim::rng::stable_f32;
use culda_gpusim::{BlockCtx, BlockKernel};
use culda_sparse::prefix::search_prefix;
use culda_sparse::{DenseMatrix, IndexTree, TopicId};
use std::sync::atomic::Ordering;

/// The paper's exact S/Q-split collapsed Gibbs sampler — the default
/// [`SamplerKernel`] implementation ([`crate::SamplerStrategy::SparseCgs`]).
///
/// Stateless: the per-word shared structures (p*(k), the p2 index tree) are
/// rebuilt inside every block, every iteration, exactly as §6.1 describes —
/// which is precisely the `O(K)` per-word cost the alias-hybrid strategy
/// amortises away.
pub struct SparseCgsSampler;

impl SamplerKernel for SparseCgsSampler {
    fn name(&self) -> &'static str {
        crate::kernels::names::SAMPLING
    }

    fn sampling_kernel<'a>(
        &'a self,
        state: &'a ChunkState,
        items: &'a [WorkItem],
        config: &'a LdaConfig,
        iteration: u64,
    ) -> Box<dyn BlockKernel + 'a> {
        Box::new(SparseCgsBlock {
            state,
            items,
            config,
            iteration,
        })
    }

    /// Exact document-major collapsed Gibbs: the full conditional
    /// `(θ_{d,k} + α)(φ_{k,w} + β)/(n_k + βV)` is evaluated fresh for every
    /// token and sampled by inverse CDF from one counter-based draw keyed by
    /// `(uid, slot)`.
    fn burn_in_sweep(
        &self,
        config: &LdaConfig,
        uid: u64,
        sweep: usize,
        words: &[u32],
        z: &mut [u16],
        theta_d: &mut [u32],
        phi: &mut DenseMatrix<u32>,
        nk: &mut [i64],
    ) {
        let k = config.num_topics;
        let alpha = config.alpha;
        let beta = config.beta;
        let stream = BURN_STREAM_BASE - sweep as u64;
        let v_beta = beta * phi.cols() as f64;
        let mut weights = vec![0.0f64; k];
        for (slot, &w) in words.iter().enumerate() {
            let w = w as usize;
            let c = z[slot] as usize;
            theta_d[c] -= 1;
            *phi.get_mut(c, w) -= 1;
            nk[c] -= 1;
            let mut total = 0.0f64;
            for (topic, weight) in weights.iter_mut().enumerate() {
                total += (theta_d[topic] as f64 + alpha) * (phi.get(topic, w) as f64 + beta)
                    / (nk[topic] as f64 + v_beta);
                *weight = total;
            }
            let u = stable_f32(config.seed, stream, (uid << 32) | slot as u64) as f64 * total;
            let new_topic = weights.partition_point(|&cum| cum <= u).min(k - 1);
            z[slot] = new_topic as u16;
            theta_d[new_topic] += 1;
            *phi.get_mut(new_topic, w) += 1;
            nk[new_topic] += 1;
        }
    }
}

/// The per-launch block kernel of [`SparseCgsSampler`]: one chunk's work
/// items at one iteration.
pub struct SparseCgsBlock<'a> {
    /// Chunk being sampled.
    pub state: &'a ChunkState,
    /// Per-block work assignment (see [`crate::work::build_work_items`]).
    pub items: &'a [WorkItem],
    /// Run configuration.
    pub config: &'a LdaConfig,
    /// Training iteration number; tags each token's counter-based RNG stream
    /// so draws are bit-identical across runs and GPU topologies.
    pub iteration: u64,
}

impl BlockKernel for SparseCgsBlock<'_> {
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
        self.run_block_with(block_id, ctx, p1_prefix_sums);
    }
}

impl SparseCgsBlock<'_> {
    /// Bytes of a compressed (or not) integer model element.
    #[inline]
    fn model_int_bytes(&self) -> u64 {
        if self.config.compress_16bit {
            2
        } else {
            4
        }
    }

    /// The kernel body, generic over the p1 fill ([`p1_prefix_sums`]) so the
    /// tests can run it against a reference fill.
    fn run_block_with<F>(&self, block_id: usize, ctx: &mut BlockCtx, fill_p1: F)
    where
        F: Fn(&mut Vec<f32>, &[TopicId], &[u32], usize, &[f32], f32) -> f32,
    {
        let item = &self.items[block_id];
        if item.is_empty() {
            return;
        }
        let state = self.state;
        let cfg = self.config;
        let k = cfg.num_topics;
        let v = item.word as usize;
        let vocab = state.layout.vocab_size;
        let alpha = cfg.alpha as f32;
        let beta = cfg.beta as f32;
        let beta_v = (cfg.beta * vocab as f64) as f32;
        let int_bytes = self.model_int_bytes();

        // ---- Per-word shared state: p*(k), Q, and the p2 index tree. ----
        // Reading the φ column and n_k for the word: K compressed ints + K
        // 32-bit totals from global memory; 2 flops per topic to form p*.
        // The raw φ[·,v] and n_k values are kept so each token can remove its
        // own contribution (the n^{¬dv} correction of collapsed Gibbs).
        // φ is stored word-major, so φ[·, v] is one contiguous run.
        let mut phi_col = vec![0.0f32; k];
        let mut nk_vals = vec![0.0f32; k];
        let mut p_star = vec![0.0f32; k];
        for (kk, phi_kv) in state.phi_global.column(v).iter().enumerate() {
            phi_col[kk] = phi_kv.load(Ordering::Relaxed) as f32;
            nk_vals[kk] = state.nk_global.get(kk) as f32;
            p_star[kk] = (phi_col[kk] + beta) / (nk_vals[kk] + beta_v);
        }
        ctx.read_global(k as u64 * int_bytes); // φ[·, v]
        ctx.read_global(k as u64 * 4); // n_k
        ctx.flops(2 * k as u64);

        // p2(k) = α · p*(k); the tree over p2 is shared by every sampler in
        // the block (§6.1.2).  If shared memory cannot hold p* and the tree,
        // the structures spill and their traffic is charged to L1 instead.
        let p2: Vec<f32> = p_star.iter().map(|&x| alpha * x).collect();
        ctx.flops(k as u64);
        let p2_tree = IndexTree::with_fanout(cfg.tree_fanout, &p2);
        let q = p2_tree.total();

        let p_star_bytes = 4 * k as u64;
        let tree_bytes = p2_tree.shared_bytes() + p2_tree.leaf_bytes();
        // `in_shared`: the block-shared placement of §6.1.2.  When sharing is
        // disabled (the SaberLDA-style configuration and the ablation), the
        // per-token lookups fall back to off-chip memory; when sharing is
        // enabled but the structures exceed the block's shared budget, they
        // spill to the L1-cached path instead.
        let fits = ctx.shared_alloc(p_star_bytes) && ctx.shared_alloc(tree_bytes);
        let in_shared = cfg.share_p2_tree && fits;
        if in_shared {
            ctx.shared_traffic(p_star_bytes + tree_bytes); // construction writes
        } else if cfg.share_p2_tree {
            // Capacity spill: rebuilt per sampler through L1.
            ctx.read_l1(p_star_bytes + tree_bytes);
        } else {
            ctx.write_global(p_star_bytes + tree_bytes);
        }

        // ---- Per-token sampling. ----
        let theta = state.theta.read();
        let mut p1_prefix: Vec<f32> = Vec::with_capacity(64);
        for pos in item.start..item.end {
            let pos = pos as usize;
            let d = state.layout.token_doc[pos] as usize;
            ctx.read_global(4); // token → document index

            // The token's current assignment, so its own count can be
            // excluded from every distribution it is resampled from
            // (collapsed Gibbs samples from n^{¬dv}, Algorithm 2 line 4).
            let c = state.z[pos].load(Ordering::Relaxed) as usize;
            ctx.read_global(int_bytes); // current topic assignment
            let p_star_c =
                ((phi_col[c] - 1.0).max(0.0) + beta) / ((nk_vals[c] - 1.0).max(0.0) + beta_v);
            ctx.flops(2);

            let (cols, vals) = theta.row(d);
            let kd = cols.len();
            // Reading the CSR row: K_d (compressed column index + 32-bit
            // count) pairs plus the two row-pointer entries.
            ctx.read_global(kd as u64 * (int_bytes + 4) + 8);

            // p1(k) = θ_{d,k} · p*(k): one multiply and one add per non-zero,
            // with the p* lookups served from shared memory.  The current
            // topic's own count is excluded.
            let s = fill_p1(&mut p1_prefix, cols, vals, c, &p_star, p_star_c);
            ctx.flops(2 * kd as u64);
            if in_shared {
                ctx.shared_traffic(4 * kd as u64);
            } else if cfg.share_p2_tree {
                ctx.read_l1(4 * kd as u64);
            } else {
                ctx.read_global(4 * kd as u64);
            }

            // The dense part's mass with the current topic's self-count
            // removed: only the p2 leaf for topic `c` changes, so the shared
            // tree is reused and the draw is remapped around the removed
            // mass instead of rebuilding the tree per token.
            let p2_c_adj = alpha * p_star_c;
            let delta = p2[c] - p2_c_adj;
            let q_adj = (q - delta).max(0.0);
            let leaf_before_c = if c == 0 {
                0.0
            } else {
                p2_tree.leaf_prefix()[c - 1]
            };
            ctx.flops(3);

            // Draw u ~ U(0, S + Q) and pick the branch (Algorithm 2, line 6).
            // The draw is a pure function of (seed, iteration, token
            // identity): the same token gets the same randomness no matter
            // which block, device or topology samples it.
            let global_doc = (state.layout.range.start + d) as u64;
            let slot = state.token_slot[pos] as u64;
            let u =
                ctx.stable_f32(cfg.seed, self.iteration, (global_doc << 32) | slot) * (s + q_adj);
            ctx.flops(2);
            let new_topic = if u < s && kd > 0 {
                // Sparse branch: search the K_d-entry prefix sum (the warp
                // holds it in registers; a binary search costs ~log2(K_d)).
                let idx = search_prefix(&p1_prefix, u);
                ctx.int_ops((kd.max(2) as u64).ilog2() as u64 + 1);
                cols[idx] as usize
            } else {
                // Dense branch: descend the shared 32-way p2 tree, remapping
                // the draw across topic `c`'s reduced leaf.
                let u2 = (u - s).clamp(0.0, q_adj);
                let u2_orig = if u2 < leaf_before_c {
                    Some(u2)
                } else if u2 < leaf_before_c + p2_c_adj {
                    None // lands inside topic c's adjusted leaf
                } else {
                    Some((u2 + delta).clamp(0.0, q))
                };
                match u2_orig {
                    Some(u2) => {
                        let (idx, stats) = p2_tree.sample_with_stats(u2);
                        if in_shared {
                            ctx.shared_traffic(stats.nodes_visited as u64 * 4);
                        } else if cfg.share_p2_tree {
                            ctx.read_l1(stats.nodes_visited as u64 * 4);
                        } else {
                            ctx.read_global(stats.nodes_visited as u64 * 4);
                        }
                        ctx.int_ops(stats.levels as u64);
                        idx
                    }
                    None => {
                        // The warp still descends the tree to reach the leaf.
                        let depth = p2_tree.depth() as u64;
                        if in_shared {
                            ctx.shared_traffic(depth * 4);
                        } else if cfg.share_p2_tree {
                            ctx.read_l1(depth * 4);
                        } else {
                            ctx.read_global(depth * 4);
                        }
                        ctx.int_ops(depth);
                        c
                    }
                }
            };

            state.z_next[pos].store(new_topic as u16, Ordering::Relaxed);
            ctx.write_global(int_bytes); // compressed topic assignment
        }
    }
}

/// Writes the running sums of `p1(k) = θ_{d,k} · p*(k)` over one θ row
/// segment into `out`, continuing from `s`, and returns the last sum.
#[inline]
fn accumulate_p1(
    out: &mut [f32],
    cols: &[TopicId],
    vals: &[u32],
    p_star: &[f32],
    mut s: f32,
) -> f32 {
    for ((slot, &kk), &n) in out.iter_mut().zip(cols).zip(vals) {
        s += n as f32 * p_star[kk as usize];
        *slot = s;
    }
    s
}

/// Fills `p1_prefix` with the running sums of the sparse part `p1` of one
/// document's θ row and returns its total `S`.  The token's own topic `c`
/// contributes `(θ_{d,c} − 1)⁺ · p*_c` (its count excluded, with the
/// self-excluded `p*_c`); every other non-zero contributes `θ_{d,k} · p*(k)`.
/// θ rows are sorted, so `c` is located once and the rest are two
/// straight-line multiply-add runs around it.
fn p1_prefix_sums(
    p1_prefix: &mut Vec<f32>,
    cols: &[TopicId],
    vals: &[u32],
    c: usize,
    p_star: &[f32],
    p_star_c: f32,
) -> f32 {
    debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "θ row not sorted");
    let kd = cols.len();
    p1_prefix.resize(kd, 0.0);
    let own = cols.binary_search(&(c as TopicId)).unwrap_or(kd);
    let s = accumulate_p1(
        &mut p1_prefix[..own],
        &cols[..own],
        &vals[..own],
        p_star,
        0.0,
    );
    if own == kd {
        return s;
    }
    let s = s + (vals[own] as f32 - 1.0).max(0.0) * p_star_c;
    p1_prefix[own] = s;
    let next = own + 1;
    accumulate_p1(
        &mut p1_prefix[next..],
        &cols[next..],
        &vals[next..],
        p_star,
        s,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::UpdatePhiKernel;
    use crate::model::ChunkState;
    use crate::work::build_work_items;
    use culda_corpus::{partition::DocRange, ChunkLayout, CorpusBuilder, DatasetProfile};
    use culda_gpusim::{Device, DeviceSpec, LaunchConfig};

    fn make_state(num_topics: usize, seed: u64) -> ChunkState {
        let corpus = DatasetProfile {
            name: "t".into(),
            num_docs: 60,
            vocab_size: 120,
            avg_doc_len: 30.0,
            zipf_exponent: 1.05,
            doc_len_sigma: 0.4,
        }
        .generate(seed);
        let layout = ChunkLayout::build(
            &corpus,
            DocRange {
                start: 0,
                end: corpus.num_docs(),
            },
        );
        let state = ChunkState::new(0, layout, num_topics);
        state.random_init_stable(&LdaConfig::with_topics(num_topics), seed);
        state
    }

    #[test]
    fn sampling_assigns_valid_topics_to_every_token() {
        let state = make_state(8, 3);
        let cfg = LdaConfig::with_topics(8);
        let items = build_work_items(&state.layout, cfg.max_tokens_per_block);
        let kernel = SparseCgsBlock {
            state: &state,
            items: &items,
            config: &cfg,
            iteration: 0,
        };
        let dev = Device::new(0, DeviceSpec::titan_x_maxwell(), 11);
        let stats = dev.launch("Sampling", LaunchConfig::new(items.len()), &kernel);
        for z in &state.z_next {
            assert!((z.load(Ordering::Relaxed) as usize) < 8);
        }
        // Every token wrote one compressed assignment.
        assert_eq!(
            stats.counters.dram_write_bytes,
            state.num_tokens() as u64 * 2
        );
        assert!(stats.counters.dram_read_bytes > 0);
        assert!(stats.time.total_s > 0.0);
    }

    /// The per-non-zero p1 loop the kernel used before [`p1_prefix_sums`]:
    /// one `kk == c` branch and one push per θ non-zero.  Kept as the oracle
    /// the straight-line fill must match bit for bit.
    fn p1_prefix_sums_branchy(
        p1_prefix: &mut Vec<f32>,
        cols: &[TopicId],
        vals: &[u32],
        c: usize,
        p_star: &[f32],
        p_star_c: f32,
    ) -> f32 {
        p1_prefix.clear();
        let mut s = 0.0f32;
        for i in 0..cols.len() {
            let kk = cols[i] as usize;
            let w = if kk == c {
                (vals[i] as f32 - 1.0).max(0.0) * p_star_c
            } else {
                vals[i] as f32 * p_star[kk]
            };
            s += w;
            p1_prefix.push(s);
        }
        s
    }

    /// [`SparseCgsBlock`] running the oracle p1 loop.
    struct BranchyBlock<'a>(SparseCgsBlock<'a>);

    impl BlockKernel for BranchyBlock<'_> {
        fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
            self.0.run_block_with(block_id, ctx, p1_prefix_sums_branchy);
        }
    }

    #[test]
    fn straight_line_p1_matches_the_branchy_oracle_bit_for_bit() {
        for (k, seed) in [(8, 21), (64, 22), (256, 23)] {
            let state = make_state(k, seed);
            // The corpus must exercise the edge cases of the split: a zero
            // self-excluded weight (θ_{d,c} = 1) and c at either end of its
            // θ row.
            let (mut unit, mut first, mut last) = (0, 0, 0);
            {
                let theta = state.theta.read();
                for pos in 0..state.num_tokens() {
                    let d = state.layout.token_doc[pos] as usize;
                    let c = state.z[pos].load(Ordering::Relaxed);
                    let (cols, vals) = theta.row(d);
                    let i = cols.binary_search(&c).expect("z is counted in θ");
                    unit += usize::from(vals[i] == 1);
                    first += usize::from(i == 0);
                    last += usize::from(i + 1 == cols.len());
                }
            }
            assert!(
                unit > 0 && first > 0 && last > 0,
                "K={k}: {unit} {first} {last}"
            );

            let cfg = LdaConfig::with_topics(k);
            let items = build_work_items(&state.layout, cfg.max_tokens_per_block);
            let dev = Device::new(0, DeviceSpec::v100_volta(), 3);
            let launch = LaunchConfig::new(items.len());
            let z_next = |state: &ChunkState| -> Vec<u16> {
                state
                    .z_next
                    .iter()
                    .map(|z| z.load(Ordering::Relaxed))
                    .collect()
            };
            for iteration in 0..3 {
                let block = || SparseCgsBlock {
                    state: &state,
                    items: &items,
                    config: &cfg,
                    iteration,
                };
                let oracle = dev.launch("Sampling", launch, &BranchyBlock(block()));
                let oracle_z = z_next(&state);
                let fast = dev.launch("Sampling", launch, &block());
                assert_eq!(z_next(&state), oracle_z, "K={k} iteration {iteration}");
                assert_eq!(
                    fast.counters, oracle.counters,
                    "K={k} iteration {iteration}"
                );
            }
        }

        // A row that does not hold the token's topic takes no exclusion.
        let p_star: Vec<f32> = (0..16).map(|kk| 0.01 + kk as f32 * 0.003).collect();
        let (cols, vals) = ([1 as TopicId, 4, 9, 15], [3u32, 1, 2, 7]);
        for c in [0, 1, 4, 5, 9, 15] {
            let (mut fast, mut oracle) = (Vec::new(), Vec::new());
            let s = p1_prefix_sums(&mut fast, &cols, &vals, c, &p_star, 0.5);
            let s_oracle = p1_prefix_sums_branchy(&mut oracle, &cols, &vals, c, &p_star, 0.5);
            assert_eq!((s.to_bits(), fast), (s_oracle.to_bits(), oracle), "c={c}");
        }
    }

    #[test]
    fn sampling_is_memory_bound_as_in_table_1() {
        let state = make_state(32, 5);
        let cfg = LdaConfig::with_topics(32);
        let items = build_work_items(&state.layout, cfg.max_tokens_per_block);
        let kernel = SparseCgsBlock {
            state: &state,
            items: &items,
            config: &cfg,
            iteration: 0,
        };
        let dev = Device::new(0, DeviceSpec::v100_volta(), 1);
        let stats = dev.launch("Sampling", LaunchConfig::new(items.len()), &kernel);
        let intensity = stats.counters.flops_per_byte();
        // The paper's characterisation: well under 1 flop per byte.
        assert!(intensity < 1.0, "intensity {intensity}");
        assert!(intensity > 0.01);
        assert_eq!(stats.time.bound_by(), culda_gpusim::cost::Bound::Memory);
    }

    #[test]
    fn sampling_moves_assignments_towards_cooccurring_words() {
        // Build a corpus with two disjoint word groups; after several Gibbs
        // sweeps documents should concentrate on few topics (θ rows sparser
        // than uniform random assignment).
        let mut b = CorpusBuilder::new(20);
        for d in 0..40 {
            let base = if d % 2 == 0 { 0u32 } else { 10u32 };
            let doc: Vec<u32> = (0..30).map(|t| base + (t % 10) as u32).collect();
            b.push_doc(&doc);
        }
        let corpus = b.build();
        let layout = ChunkLayout::build(&corpus, DocRange { start: 0, end: 40 });
        let state = ChunkState::new(0, layout, 4);
        let cfg = LdaConfig::with_topics(4);
        state.random_init_stable(&cfg, 9);

        let initial_nnz = state.theta.read().nnz();
        let dev = Device::new(0, DeviceSpec::titan_x_maxwell(), 77);
        let items = build_work_items(&state.layout, cfg.max_tokens_per_block);
        for _ in 0..15 {
            let kernel = SparseCgsBlock {
                state: &state,
                items: &items,
                config: &cfg,
                iteration: 0,
            };
            dev.launch("Sampling", LaunchConfig::new(items.len()), &kernel);
            // Fold z_next into φ / n_k and z, then rebuild θ.
            let update = UpdatePhiKernel {
                state: &state,
                items: &items,
                compress_16bit: cfg.compress_16bit,
            };
            dev.launch("Update phi", LaunchConfig::new(items.len()), &update);
            state.rebuild_theta();
        }
        let final_nnz = state.theta.read().nnz();
        assert!(
            final_nnz < initial_nnz,
            "θ should sparsify: {initial_nnz} → {final_nnz}"
        );
        state.validate_theta().unwrap();
        let tokens: i64 = state.nk_global.to_vec().iter().sum();
        assert_eq!(tokens, state.num_tokens() as i64);
    }

    #[test]
    fn shared_tree_reuse_reduces_offchip_traffic() {
        let state = make_state(64, 13);
        let mut shared_cfg = LdaConfig::with_topics(64);
        shared_cfg.share_p2_tree = true;
        let mut unshared_cfg = shared_cfg.clone();
        unshared_cfg.share_p2_tree = false;

        let items = build_work_items(&state.layout, shared_cfg.max_tokens_per_block);
        let dev = Device::new(0, DeviceSpec::titan_x_maxwell(), 5);
        let with = dev.launch(
            "Sampling",
            LaunchConfig::new(items.len()),
            &SparseCgsBlock {
                state: &state,
                items: &items,
                config: &shared_cfg,
                iteration: 0,
            },
        );
        let without = dev.launch(
            "Sampling",
            LaunchConfig::new(items.len()),
            &SparseCgsBlock {
                state: &state,
                items: &items,
                config: &unshared_cfg,
                iteration: 0,
            },
        );
        // Without sharing, the p*/tree traffic lands in off-chip memory
        // instead of shared memory: shared traffic must be higher with the
        // optimisation and DRAM traffic higher without it.
        assert!(with.counters.shared_bytes > without.counters.shared_bytes);
        assert!(without.counters.dram_read_bytes > with.counters.dram_read_bytes);
    }
}
