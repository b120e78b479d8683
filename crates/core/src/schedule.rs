//! The workload scheduling algorithm (Algorithm 1, §5.1).
//!
//! The corpus is partitioned into `C = M × G` chunks; chunk `i` is processed
//! by GPU `i % G`.  Two procedures are distinguished:
//!
//! * **`WorkSchedule1`** (`M = 1`, [`ScheduleKind::Resident`]): every chunk
//!   stays resident in its GPU's memory for the whole run, so host↔device
//!   transfers happen only before the first and after the last iteration and
//!   are amortised away.
//! * **`WorkSchedule2`** (`M > 1`, [`ScheduleKind::Streamed`]): chunks are
//!   staged over PCIe every iteration; uploads and downloads are overlapped
//!   with compute through double-buffered streams (§5.1), which requires room
//!   for two chunks in device memory.
//!
//! Either way, each iteration ends with the φ synchronization of §5.2, which
//! the θ update is overlapped with (§6.2: "the update of model θ can be
//! overlapped with the synchronization of model ϕ").
//!
//! When the synchronization is vocabulary-sharded ([`crate::sync::SyncPlan`], `S > 1` with
//! a non-zero overlap depth), the iteration additionally overlaps the
//! *reduces themselves* with sampling: the word-major sampling pass emits the
//! vocabulary shards in order, shard `s`'s tree reduce starts as soon as its
//! `update-φ` contribution is complete, and the sampling of shard `s + 1`
//! proceeds concurrently.  All shards still complete before the next
//! iteration reads φ, so the sampled assignments are bit-identical to the
//! dense schedule — only the exposed synchronization time shrinks (see
//! `DESIGN.md` §8).

use crate::config::LdaConfig;
use crate::kernels::{names, SamplerKernel, UpdatePhiKernel, UpdateThetaKernel};
use crate::model::ChunkState;
use crate::sync::{
    global_word_tokens, synchronize_phi_hier_over_ranges, synchronize_phi_hier_sharded,
    HierarchicalSyncPlan,
};
use crate::work::WorkItem;
use culda_gpusim::stream::Stage;
use culda_gpusim::{LaunchConfig, MultiGpuSystem, PipelineModel};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which of Algorithm 1's two procedures is in effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScheduleKind {
    /// `M = 1`: chunks are resident on their GPU (`WorkSchedule1`).
    Resident,
    /// `M > 1`: chunks are streamed over PCIe each iteration
    /// (`WorkSchedule2`) with transfer/compute overlap.
    Streamed {
        /// Chunks per GPU (`M`).
        chunks_per_gpu: usize,
    },
}

/// Simulated timing of one training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationStats {
    /// Total simulated wall-clock time of the iteration.
    pub sim_time_s: f64,
    /// Max-over-devices sampler setup + sampling + update-φ time (the part
    /// that cannot overlap with the synchronization).
    pub compute_time_s: f64,
    /// Max-over-devices per-iteration sampler setup time (e.g. the stale
    /// alias-table rebuild of [`crate::kernels::AliasHybridSampler`]; 0 for
    /// the default sparse-CGS sampler and on non-rebuild iterations).
    /// Included in [`IterationStats::compute_time_s`].
    pub sampler_setup_time_s: f64,
    /// Max-over-devices update-θ time (overlapped with the synchronization).
    pub update_theta_time_s: f64,
    /// φ synchronization (tree reduce + broadcast) interconnect work, summed
    /// over all vocabulary shards.
    pub sync_time_s: f64,
    /// The part of the synchronization the iteration critical path actually
    /// sees after shard reduces are overlapped with sampling.  Equals
    /// `sync_time_s` for the dense schedule (`S = 1` or overlap depth 0).
    pub sync_exposed_time_s: f64,
    /// Host↔device staging time (non-zero only for the streamed schedule).
    pub transfer_time_s: f64,
    /// Bytes the φ sync moved over intra-node links this iteration (all the
    /// sync traffic on a single-node system).
    pub intra_sync_bytes: u64,
    /// Bytes the φ sync moved over the inter-node fabric this iteration
    /// (0 on a single-node system).
    pub inter_sync_bytes: u64,
    /// Tokens sampled this iteration (the whole corpus).
    pub tokens_processed: u64,
}

/// Per-device accumulation of one iteration's kernel times.
#[derive(Debug, Clone, Copy, Default)]
struct DeviceTimes {
    setup_s: f64,
    sampling_s: f64,
    update_phi_s: f64,
    update_theta_s: f64,
    pipeline_s: f64,
    transfer_s: f64,
}

/// Fraction of the corpus tokens whose word falls into each vocabulary shard
/// — the weights the overlap model uses to split the sampling phase into
/// per-shard slices (the sampling kernel is word-major, so the time it
/// spends in a shard tracks the tokens the shard's words own).  Shared with
/// the trainer's shard-count auto-tuner, which predicts spans with the same
/// weights the scheduler will run them with.
pub(crate) fn shard_token_weights(
    word_tokens: &[u64],
    ranges: &[std::ops::Range<usize>],
) -> Vec<f64> {
    let tokens: Vec<u64> = ranges
        .iter()
        .map(|r| word_tokens[r.clone()].iter().sum())
        .collect();
    let total: u64 = tokens.iter().sum();
    if total == 0 {
        return vec![1.0 / ranges.len().max(1) as f64; ranges.len()];
    }
    tokens.iter().map(|&t| t as f64 / total as f64).collect()
}

/// Execute one full pass over all chunks (one iteration of Algorithm 1's
/// inner loop) with `sampler`'s kernel and synchronize φ according to `plan`.
#[allow(clippy::too_many_arguments)]
pub fn run_iteration(
    states: &[Arc<ChunkState>],
    work_items: &[Vec<WorkItem>],
    system: &MultiGpuSystem,
    config: &LdaConfig,
    sampler: &dyn SamplerKernel,
    kind: ScheduleKind,
    plan: &HierarchicalSyncPlan,
    iteration: u64,
) -> IterationStats {
    assert_eq!(states.len(), work_items.len());
    let g = system.num_gpus();

    // Chunk i is processed by GPU i % G, chunks with smaller ids first (§5.1).
    // Devices run on separate OS threads, exactly like the real system;
    // per-device results are safe to compute concurrently because a device
    // only reads the chunks assigned to it and all cross-chunk state (φ̂, n̂k)
    // was synchronized before this point.
    let per_device: Vec<DeviceTimes> = (0..g)
        .into_par_iter()
        .map(|dev_idx| {
            let device = system.device(dev_idx);
            let mut times = DeviceTimes::default();
            let mut stages: Vec<Stage> = Vec::new();
            for (chunk_idx, state) in states.iter().enumerate() {
                if chunk_idx % g != dev_idx {
                    continue;
                }
                let items = &work_items[chunk_idx];
                let mut chunk_compute = 0.0f64;

                // Per-iteration sampler setup (e.g. the stale alias-table
                // rebuild on its cadence); free for the default sampler.
                let setup = sampler.prepare_chunk(device, state, config, iteration);
                times.setup_s += setup;
                chunk_compute += setup;

                // Sampling kernel (whatever implementation the sampler
                // strategy emits).
                if !items.is_empty() {
                    let kernel = sampler.sampling_kernel(state, items, config, iteration);
                    let stats =
                        device.launch(sampler.name(), LaunchConfig::new(items.len()), &kernel);
                    times.sampling_s += stats.time.total_s;
                    chunk_compute += stats.time.total_s;
                }

                // Update φ (word-major atomics; promotes z_next → z).
                if !items.is_empty() {
                    let kernel = UpdatePhiKernel {
                        state,
                        items,
                        compress_16bit: config.compress_16bit,
                    };
                    let stats =
                        device.launch(names::UPDATE_PHI, LaunchConfig::new(items.len()), &kernel);
                    times.update_phi_s += stats.time.total_s;
                    chunk_compute += stats.time.total_s;
                }

                // Update θ (dense scatter + prefix-sum compaction).  The
                // paper assigns one warp per document and 32 documents per
                // block, which is right for corpora with 10^5–10^7 documents;
                // for smaller (scaled) corpora the grid is shrunk so the
                // device still has enough blocks to stay occupied.
                if state.layout.num_docs() > 0 {
                    let saturation =
                        (device.spec.sm_count * device.spec.blocks_per_sm_saturation) as usize;
                    let docs_per_block = (state.layout.num_docs() / saturation.max(1)).clamp(1, 32);
                    let kernel =
                        UpdateThetaKernel::new(state, docs_per_block, config.compress_16bit);
                    let grid = kernel.grid_blocks();
                    let stats =
                        device.launch(names::UPDATE_THETA, LaunchConfig::new(grid), &kernel);
                    kernel.finish();
                    times.update_theta_s += stats.time.total_s;
                    chunk_compute += stats.time.total_s;
                }

                // Streamed schedule: account the staging of this chunk.
                if let ScheduleKind::Streamed { .. } = kind {
                    let chunk_bytes = state.device_bytes(config.compress_16bit);
                    let theta_bytes = state.theta.read().device_bytes();
                    let upload = system.transfer_time_s(chunk_bytes);
                    let download = system.transfer_time_s(theta_bytes);
                    times.transfer_s += upload + download;
                    stages.push(Stage {
                        upload_s: upload,
                        compute_s: chunk_compute,
                        download_s: download,
                    });
                }
            }
            if let ScheduleKind::Streamed { .. } = kind {
                times.pipeline_s = PipelineModel::from_stages(stages).simulate().overlapped_s;
            }
            times
        })
        .collect();

    // Synchronize φ across all chunks (functional + simulated per-shard tree
    // cost).  When the plan overlaps, resolve the word histogram once and
    // reuse it for both the shard boundaries and the compute weights.
    let (sync, weights) = if plan.overlaps() {
        let word_tokens = global_word_tokens(states);
        let ranges = plan.base().token_balanced_ranges(&word_tokens);
        let weights = shard_token_weights(&word_tokens, &ranges);
        let sync =
            synchronize_phi_hier_over_ranges(states, system, ranges, config.compress_16bit, plan);
        (sync, Some(weights))
    } else {
        let sync = synchronize_phi_hier_sharded(states, system, plan, config.compress_16bit);
        (sync, None)
    };
    let sync_total = sync.stats.time_s;

    let max_samp_phi = per_device
        .iter()
        .map(|t| t.setup_s + t.sampling_s + t.update_phi_s)
        .fold(0.0, f64::max);
    let max_setup = per_device.iter().map(|t| t.setup_s).fold(0.0, f64::max);
    let max_theta = per_device
        .iter()
        .map(|t| t.update_theta_s)
        .fold(0.0, f64::max);
    let max_pipeline = per_device.iter().map(|t| t.pipeline_s).fold(0.0, f64::max);
    let max_transfer = per_device.iter().map(|t| t.transfer_s).fold(0.0, f64::max);

    let tokens: u64 = states.iter().map(|s| s.num_tokens() as u64).sum();

    // The compute phase the shard reduces can hide behind: sampling +
    // update-φ for the resident schedule, the whole staged pipeline for the
    // streamed one (its θ/transfer work is already folded in).
    let compute_base = match kind {
        ScheduleKind::Resident => max_samp_phi,
        ScheduleKind::Streamed { .. } => max_pipeline,
    };
    // Span of the sampling phase with the shard reduces scheduled inside it:
    // shard s's reduce starts when its slice of the word-major pass ends.
    let (span, sync_exposed) = if let Some(weights) = &weights {
        let compute_shards: Vec<f64> = weights.iter().map(|w| compute_base * w).collect();
        let span = culda_gpusim::overlapped_span_s(
            &compute_shards,
            &sync.per_shard_time_s,
            plan.overlap_depth(),
        );
        (span, (span - compute_base).max(0.0))
    } else {
        (compute_base + sync_total, sync_total)
    };

    let sim_time_s = match kind {
        // Resident: the θ update overlaps whatever synchronization tail is
        // left after the sampling span.
        ScheduleKind::Resident => span.max(max_samp_phi + max_theta),
        // Streamed: the per-device pipelines (which already include all three
        // kernels and the staging) run concurrently with the shard reduces.
        ScheduleKind::Streamed { .. } => span,
    };

    IterationStats {
        sim_time_s,
        compute_time_s: max_samp_phi,
        sampler_setup_time_s: max_setup,
        update_theta_time_s: max_theta,
        sync_time_s: sync_total,
        sync_exposed_time_s: sync_exposed,
        transfer_time_s: if matches!(kind, ScheduleKind::Streamed { .. }) {
            max_transfer
        } else {
            0.0
        },
        intra_sync_bytes: sync.intra_bytes,
        inter_sync_bytes: sync.inter_bytes,
        tokens_processed: tokens,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::SparseCgsSampler;
    use crate::sync::SyncPlan;
    use crate::work::build_work_items;
    use culda_corpus::{DatasetProfile, Partitioner};
    use culda_gpusim::{DeviceSpec, Interconnect};

    fn setup(
        chunks: usize,
        gpus: usize,
        k: usize,
    ) -> (
        Vec<Arc<ChunkState>>,
        Vec<Vec<WorkItem>>,
        MultiGpuSystem,
        LdaConfig,
    ) {
        let corpus = DatasetProfile {
            name: "sched".into(),
            num_docs: 120,
            vocab_size: 100,
            avg_doc_len: 20.0,
            zipf_exponent: 1.0,
            doc_len_sigma: 0.4,
        }
        .generate(17);
        let cfg = LdaConfig::with_topics(k).seed(2);
        let partitioner = Partitioner::by_tokens(&corpus, chunks);
        let states: Vec<Arc<ChunkState>> = partitioner
            .build_layouts(&corpus)
            .into_iter()
            .enumerate()
            .map(|(i, layout)| {
                let st = ChunkState::new(i, layout, k);
                let mut x = 77u32 + i as u32;
                st.random_init(&cfg, move || {
                    x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                    (x >> 16) as u16
                });
                Arc::new(st)
            })
            .collect();
        let items: Vec<Vec<WorkItem>> = states
            .iter()
            .map(|s| build_work_items(&s.layout, cfg.max_tokens_per_block))
            .collect();
        let system = MultiGpuSystem::homogeneous(
            DeviceSpec::titan_xp_pascal(),
            gpus,
            9,
            Interconnect::Pcie3,
        );
        // Fill every chunk's synchronized φ before the first iteration,
        // exactly as the trainer does at construction time.
        synchronize_phi_hier_sharded(&states, &system, &DENSE, cfg.compress_16bit);
        (states, items, system, cfg)
    }

    const DENSE: HierarchicalSyncPlan = HierarchicalSyncPlan::dense();

    #[test]
    fn resident_iteration_preserves_count_invariants() {
        let (states, items, system, cfg) = setup(2, 2, 8);
        let total_tokens: usize = states.iter().map(|s| s.num_tokens()).sum();
        let stats = run_iteration(
            &states,
            &items,
            &system,
            &cfg,
            &SparseCgsSampler,
            ScheduleKind::Resident,
            &DENSE,
            0,
        );
        assert_eq!(stats.tokens_processed as usize, total_tokens);
        assert!(stats.sim_time_s > 0.0);
        assert_eq!(stats.transfer_time_s, 0.0);
        for st in &states {
            st.validate_counts().unwrap();
        }
        // Global φ covers the whole corpus after the sync.
        assert_eq!(states[0].phi_global.total() as usize, total_tokens);
    }

    #[test]
    fn streamed_iteration_accounts_transfers() {
        let (states, items, system, cfg) = setup(4, 2, 8);
        let stats = run_iteration(
            &states,
            &items,
            &system,
            &cfg,
            &SparseCgsSampler,
            ScheduleKind::Streamed { chunks_per_gpu: 2 },
            &DENSE,
            0,
        );
        assert!(stats.transfer_time_s > 0.0);
        assert!(stats.sim_time_s >= stats.sync_time_s);
        for st in &states {
            st.validate_counts().unwrap();
        }
    }

    #[test]
    fn multi_gpu_iteration_is_faster_than_single_gpu() {
        let (states1, items1, system1, cfg) = setup(1, 1, 8);
        let t1 = run_iteration(
            &states1,
            &items1,
            &system1,
            &cfg,
            &SparseCgsSampler,
            ScheduleKind::Resident,
            &DENSE,
            0,
        );
        let (states4, items4, system4, cfg4) = setup(4, 4, 8);
        let t4 = run_iteration(
            &states4,
            &items4,
            &system4,
            &cfg4,
            &SparseCgsSampler,
            ScheduleKind::Resident,
            &DENSE,
            0,
        );
        assert!(
            t4.compute_time_s < t1.compute_time_s,
            "4-GPU compute {} should beat 1-GPU {}",
            t4.compute_time_s,
            t1.compute_time_s
        );
    }

    #[test]
    fn dense_plan_exposes_the_full_sync_and_overlap_exposes_less() {
        let (states, items, system, cfg) = setup(4, 4, 8);
        let dense = run_iteration(
            &states,
            &items,
            &system,
            &cfg,
            &SparseCgsSampler,
            ScheduleKind::Resident,
            &DENSE,
            0,
        );
        assert_eq!(dense.sync_exposed_time_s, dense.sync_time_s);
        // Single node: every synchronized byte is intra-node traffic.
        assert!(dense.intra_sync_bytes > 0);
        assert_eq!(dense.inter_sync_bytes, 0);

        let plan = HierarchicalSyncPlan::new(SyncPlan::new(8, 2), true, 1);
        let sharded = run_iteration(
            &states,
            &items,
            &system,
            &cfg,
            &SparseCgsSampler,
            ScheduleKind::Resident,
            &plan,
            1,
        );
        // The exposed time can never exceed the interconnect work, and the
        // total work can only grow (per-shard latencies).  Whether the
        // overlap *wins* depends on the replica size vs the link latency;
        // `tests/sharded_sync.rs` asserts the win at a realistic scale.
        assert!(sharded.sync_exposed_time_s <= sharded.sync_time_s + 1e-12);
        assert!(sharded.sync_time_s >= dense.sync_time_s);
        for st in &states {
            st.validate_counts().unwrap();
        }
    }

    #[test]
    fn zero_depth_sharded_plan_does_not_overlap() {
        let (states, items, system, cfg) = setup(2, 2, 8);
        let plan = HierarchicalSyncPlan::new(SyncPlan::new(4, 0), true, 1);
        let stats = run_iteration(
            &states,
            &items,
            &system,
            &cfg,
            &SparseCgsSampler,
            ScheduleKind::Resident,
            &plan,
            0,
        );
        assert_eq!(stats.sync_exposed_time_s, stats.sync_time_s);
    }

    #[test]
    fn likelihood_improves_over_iterations() {
        let (states, items, system, cfg) = setup(2, 2, 8);
        let ll = |states: &[Arc<ChunkState>]| {
            // Merge chunk thetas and compute the joint likelihood.
            let mut builder = culda_sparse::CsrBuilder::new(
                states.iter().map(|s| s.layout.num_docs()).sum(),
                cfg.num_topics,
            );
            for st in states {
                let theta = st.theta.read();
                for d in 0..theta.rows() {
                    let (cols, vals) = theta.row(d);
                    builder.push_row(cols.iter().copied().zip(vals.iter().copied()));
                }
            }
            let theta = builder.finish();
            let phi = states[0].phi_global.to_dense();
            let nk = states[0].nk_global.to_vec();
            culda_metrics::log_likelihood(&theta, &phi, &nk, cfg.alpha, cfg.beta).per_token()
        };
        let before = ll(&states);
        for it in 0..8 {
            run_iteration(
                &states,
                &items,
                &system,
                &cfg,
                &SparseCgsSampler,
                ScheduleKind::Resident,
                &DENSE,
                it,
            );
        }
        let after = ll(&states);
        assert!(
            after > before,
            "log-likelihood should improve: {before} → {after}"
        );
    }
}
