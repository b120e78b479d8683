//! The alias-table hybrid sampling kernel (AliasLDA-style, ROADMAP "speed"
//! item; Li et al., KDD'14 — reference \[19\] of the paper).
//!
//! The paper's §6.1 kernel pays an `O(K)` cost *per word per iteration*: it
//! reads the full φ column, forms `p*(k)` and builds the dense p2 index tree
//! before sampling a single token — even for the Zipf tail of words with one
//! or two tokens.  [`AliasHybridSampler`] amortises that cost away:
//!
//! * the **sparse part** `p1(k) = θ_{d,k} · p*(k)` stays exact and fresh
//!   (evaluated lazily at the document's `K_d ≪ K` topics);
//! * the **dense part** is drawn in O(1) from a per-word *stale*
//!   [`StaleAliasProposal`] (the same Walker/Vose bundle the AliasLDA CPU
//!   baseline builds), rebuilt only every `rebuild_every` iterations by a
//!   dedicated alias-build kernel whose cost the scheduler charges and
//!   reports ([`crate::IterationStats::sampler_setup_time_s`]);
//! * the staleness is corrected by `mh_steps` **Metropolis–Hastings** steps
//!   per token against the fresh φ, so the sampler still targets the exact
//!   collapsed conditional `p^{¬token}` as its stationary distribution.
//!
//! ## Determinism
//!
//! Every draw of the MH chain is derived from a per-token sub-stream seed
//! `t = stable_u64(seed, iteration, (doc ≪ 32) | slot)` — a pure function of
//! token identity — and the stale tables themselves are built from the
//! synchronized `phi_global`, the one φ every chunk reads, whose content at
//! a given iteration count does not depend on the chunking.  Both are
//! independent of topology and batching, so the alias path inherits the
//! full bit-exactness contract (`DESIGN.md` §10).

use crate::config::LdaConfig;
use crate::kernels::sampler::{SamplerKernel, SamplerResumeState, BURN_STREAM_BASE};
use crate::kernels::stale::{Prepare, StaleCache, StaleTables};
use crate::model::ChunkState;
use crate::work::{chunk_words, WorkItem};
use culda_gpusim::rng::{stable_f32, stable_u64};
use culda_gpusim::{BlockCtx, BlockKernel, Device, KernelStats, LaunchConfig};
use culda_sparse::{AtomicMatrix, StaleAliasProposal};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Stale-alias + Metropolis–Hastings hybrid sampler
/// ([`crate::SamplerStrategy::AliasHybrid`]).  See the [module
/// docs](crate::kernels::alias_hybrid) for the algorithm and determinism
/// argument.
pub struct AliasHybridSampler {
    mh_steps: usize,
    /// The stale tables of the current rebuild, shared by every chunk, and
    /// the global `(φ̂, n̂)` snapshot behind them: captured at every cadence
    /// rebuild (for [`SamplerKernel::resume_state`]) or installed by
    /// [`SamplerKernel::restore_resume_state`] on a checkpoint resume.
    tables: StaleCache<StaleAliasProposal>,
}

impl AliasHybridSampler {
    /// A sampler rebuilding its stale tables every `rebuild_every`
    /// iterations and correcting with `mh_steps` MH steps per token (both
    /// must be ≥ 1, as [`crate::SamplerStrategy::validate`] enforces).
    pub fn new(rebuild_every: usize, mh_steps: usize) -> Self {
        assert!(mh_steps >= 1, "mh_steps must be at least 1");
        AliasHybridSampler {
            mh_steps,
            tables: StaleCache::new(rebuild_every),
        }
    }

    /// The configured rebuild cadence.
    pub fn rebuild_every(&self) -> usize {
        self.tables.rebuild_every()
    }

    /// The configured MH steps per token.
    pub fn mh_steps(&self) -> usize {
        self.mh_steps
    }

    /// Fill the chunk's words of a restored set from its global snapshot —
    /// the same `(φ̂ + β) / (n̂ + Vβ)` f64 arithmetic as [`AliasBuildBlock`],
    /// evaluated on the same `u32`/`i64` inputs, so the tables are
    /// bit-identical to the ones the uninterrupted run built.
    fn proposals_from_snapshot(
        set: &StaleTables<StaleAliasProposal>,
        state: &ChunkState,
        config: &LdaConfig,
    ) {
        let beta = config.beta;
        let v_beta = beta * state.layout.vocab_size as f64;
        let snap = set.snapshot();
        for w in chunk_words(&state.layout) {
            let v = w as usize;
            set.get_or_build(v, |spare| {
                rebuilt(
                    spare,
                    snap.dense_column(v)
                        .iter()
                        .zip(&snap.nk_hat)
                        .map(|(&phi_kv, &nk)| (phi_kv as f64 + beta) / (nk as f64 + v_beta)),
                )
            });
        }
    }

    /// Launch the alias-build kernel over the chunk's words into `set`
    /// (`None` for a chunk without tokens).
    fn launch_build(
        device: &Device,
        state: &ChunkState,
        config: &LdaConfig,
        set: &StaleTables<StaleAliasProposal>,
    ) -> Option<KernelStats> {
        let words = chunk_words(&state.layout);
        if words.is_empty() {
            return None;
        }
        let build = AliasBuildBlock {
            state,
            config,
            words: &words,
            tables: set,
        };
        Some(device.launch(
            crate::kernels::names::ALIAS_BUILD,
            LaunchConfig::new(words.len()),
            &build,
        ))
    }
}

impl SamplerKernel for AliasHybridSampler {
    fn name(&self) -> &'static str {
        crate::kernels::names::SAMPLING
    }

    /// Rebuild the chunk's stale tables on the configured cadence by
    /// launching the alias-build kernel on `device`; returns the simulated
    /// build span (0 on non-rebuild iterations).  After a checkpoint resume
    /// the restored snapshot stands in for the tables the uninterrupted run
    /// would still be holding: the chunk's words are filled host-side
    /// (bit-identical, see `proposals_from_snapshot`) at no charge, since
    /// the original build was paid before the checkpoint.  If the resume
    /// lands on a rebuild iteration anyway, the ordinary build runs.
    fn prepare_chunk(
        &self,
        device: &Device,
        state: &ChunkState,
        config: &LdaConfig,
        iteration: u64,
    ) -> f64 {
        match self.tables.prepare(state, iteration) {
            Prepare::Keep => 0.0,
            Prepare::Restore(set) => {
                Self::proposals_from_snapshot(&set, state, config);
                0.0
            }
            Prepare::Build(set) => Self::launch_build(device, state, config, &set)
                .map_or(0.0, |stats| stats.time.total_s),
        }
    }

    /// The `(φ̂, n̂)` snapshot behind the current stale tables, so a
    /// checkpoint taken mid-cadence resumes with the *same* tables instead
    /// of fresh ones (`None` until the first rebuild ever runs).
    fn resume_state(&self) -> Option<SamplerResumeState> {
        self.tables
            .current()
            .map(|s| SamplerResumeState::AliasTables {
                built_at: s.built_at,
                phi_hat: s.snapshot().to_dense(),
                nk_hat: s.snapshot().nk_hat.clone(),
            })
    }

    /// Install a checkpointed snapshot; the next
    /// [`SamplerKernel::prepare_chunk`] of each chunk fills its proposals
    /// from it instead of rebuilding from the current φ, keeping the
    /// resumed run bit-exact and on the original rebuild cadence.
    fn restore_resume_state(&self, state: &SamplerResumeState) {
        // States captured by other portfolio members are ignored (checkpoint
        // validation rejects such mismatches before they get here anyway).
        if let SamplerResumeState::AliasTables {
            built_at,
            phi_hat,
            nk_hat,
        } = state
        {
            self.tables.restore(*built_at, phi_hat, nk_hat.clone());
        }
    }

    fn sampling_kernel<'a>(
        &'a self,
        state: &'a ChunkState,
        items: &'a [WorkItem],
        config: &'a LdaConfig,
        iteration: u64,
    ) -> Box<dyn BlockKernel + 'a> {
        Box::new(AliasSampleBlock {
            state,
            items,
            config,
            iteration,
            mh_steps: self.mh_steps,
            tables: self.tables.tables(),
        })
    }

    /// Iteration 0 always pays a full table build; steady state pays it only
    /// every `rebuild_every` iterations.
    fn predict_steady_compute_s(&self, measured_compute_s: f64, measured_setup_s: f64) -> f64 {
        (measured_compute_s - measured_setup_s).max(0.0)
            + measured_setup_s / self.rebuild_every() as f64
    }

    /// Host-side burn-in with the same stale-proposal + MH structure as the
    /// device kernel: stale tables are built once per (document, sweep) for
    /// the document's distinct words, then every token runs `mh_steps`
    /// MH-corrected mixture-proposal steps against the evolving live counts.
    fn burn_in_sweep(
        &self,
        config: &LdaConfig,
        uid: u64,
        sweep: usize,
        words: &[u32],
        z: &mut [u16],
        theta_d: &mut [u32],
        phi: &mut AtomicMatrix,
        nk: &mut [i64],
    ) {
        let k = config.num_topics;
        let alpha = config.alpha;
        let beta = config.beta;
        let stream = BURN_STREAM_BASE - sweep as u64;
        let v_beta = beta * phi.cols() as f64;

        // Stale snapshot at sweep start, for the document's distinct words.
        let mut stale: BTreeMap<u32, StaleAliasProposal> = BTreeMap::new();
        for &w in words {
            stale.entry(w).or_insert_with(|| {
                StaleAliasProposal::from_weights(
                    (0..k)
                        .map(|kk| {
                            (phi.load(kk, w as usize) as f64 + beta) / (nk[kk] as f64 + v_beta)
                        })
                        .collect(),
                )
            });
        }

        let mut p1_topics: Vec<usize> = Vec::new();
        let mut p1_prefix: Vec<f64> = Vec::new();
        for (slot, &w) in words.iter().enumerate() {
            let w = w as usize;
            let c = z[slot] as usize;
            // Remove the token: the MH chain targets p^{¬token}.
            theta_d[c] -= 1;
            *phi.get_mut(c, w) -= 1;
            nk[c] -= 1;

            let proposal = &stale[&(w as u32)];
            let fresh = |kk: usize| (phi.load(kk, w) as f64 + beta) / (nk[kk] as f64 + v_beta);

            // Exact sparse part over the document's live topics.
            p1_topics.clear();
            p1_prefix.clear();
            let mut s = 0.0f64;
            for (kk, &cnt) in theta_d.iter().enumerate() {
                if cnt == 0 {
                    continue;
                }
                s += cnt as f64 * fresh(kk);
                p1_topics.push(kk);
                p1_prefix.push(s);
            }
            let q_hat = alpha * proposal.mass();

            // Per-token sub-stream: every MH draw is a pure function of
            // (seed, sweep stream, uid, slot, step, draw index).
            let tseed = stable_u64(config.seed, stream, (uid << 32) | slot as u64);
            let mut k_cur = c;
            for step in 0..self.mh_steps {
                let step = step as u64;
                let pick = stable_f32(tseed, 2 * step, 0) as f64 * (s + q_hat);
                let k_prop = if pick < s && !p1_topics.is_empty() {
                    let idx = p1_prefix
                        .partition_point(|&cum| cum <= pick)
                        .min(p1_topics.len() - 1);
                    p1_topics[idx]
                } else {
                    let u1 = stable_f32(tseed, 2 * step, 1);
                    let u2 = stable_f32(tseed, 2 * step, 2);
                    proposal.table().sample_with(u1, u2)
                };
                if k_prop == k_cur {
                    continue;
                }
                let posterior = |kk: usize| (theta_d[kk] as f64 + alpha) * fresh(kk);
                let mixture =
                    |kk: usize| theta_d[kk] as f64 * fresh(kk) + alpha * proposal.weight(kk);
                let accept =
                    posterior(k_prop) * mixture(k_cur) / (posterior(k_cur) * mixture(k_prop));
                if (stable_f32(tseed, 2 * step + 1, 3) as f64) < accept {
                    k_cur = k_prop;
                }
            }

            z[slot] = k_cur as u16;
            theta_d[k_cur] += 1;
            *phi.get_mut(k_cur, w) += 1;
            nk[k_cur] += 1;
        }
    }
}

/// A word's stale proposal over `weights`, rebuilt in the buffers of
/// `spare` (the word's proposal of an earlier rebuild) when there is one.
fn rebuilt(
    spare: Option<StaleAliasProposal>,
    weights: impl Iterator<Item = f64>,
) -> StaleAliasProposal {
    match spare {
        Some(mut proposal) => {
            proposal.rebuild(weights);
            proposal
        }
        None => StaleAliasProposal::from_weights(weights.collect()),
    }
}

/// The alias-build kernel: one thread block builds the stale proposal of one
/// word from the synchronized φ (read once per rebuild instead of once per
/// iteration — the amortisation the hybrid exists for).  Every chunk's
/// launch charges the full build of each of its words; the host builds each
/// word once per rebuild and shares it ([`StaleTables`]).
struct AliasBuildBlock<'a> {
    state: &'a ChunkState,
    config: &'a LdaConfig,
    /// Words with tokens in this chunk, one per block.
    words: &'a [u32],
    /// The rebuild's shared tables.
    tables: &'a StaleTables<StaleAliasProposal>,
}

impl BlockKernel for AliasBuildBlock<'_> {
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
        let v = self.words[block_id] as usize;
        let k = self.config.num_topics;
        let beta = self.config.beta;
        let v_beta = beta * self.state.layout.vocab_size as f64;
        let int_bytes: u64 = if self.config.compress_16bit { 2 } else { 4 };

        // Read the φ column and n_k, form the weights (2 flops each + the
        // α-free normalisation) and run the Vose construction.  The device
        // layout stores the table as prob (f32) + alias (u32) + the stale φ̂
        // column snapshot (compressed int, like φ itself); the stale weight
        // the MH ratio needs is reconstructed from φ̂ and the device's n̂_k
        // snapshot (K × 8 bytes per rebuild, amortised over every word) at
        // two flops per evaluation.
        self.tables.get_or_build(v, |spare| {
            rebuilt(
                spare,
                self.state
                    .phi_global
                    .column(v)
                    .iter()
                    .enumerate()
                    .map(|(kk, phi_kv)| {
                        (phi_kv.load(Ordering::Relaxed) as f64 + beta)
                            / (self.state.nk_global.get(kk) as f64 + v_beta)
                    }),
            )
        });
        ctx.read_global(k as u64 * int_bytes); // φ[·, v]
        ctx.read_global(k as u64 * 4); // n_k
        ctx.flops(3 * k as u64);
        ctx.int_ops(k as u64); // Vose small/large queue maintenance
        ctx.write_global(k as u64 * (8 + int_bytes)); // prob + alias + φ̂ snapshot
    }
}

/// The per-launch block kernel of [`AliasHybridSampler`]: one chunk's work
/// items at one iteration, sampling from the rebuild's stale tables.
struct AliasSampleBlock<'a> {
    state: &'a ChunkState,
    items: &'a [WorkItem],
    config: &'a LdaConfig,
    iteration: u64,
    mh_steps: usize,
    tables: Arc<StaleTables<StaleAliasProposal>>,
}

impl BlockKernel for AliasSampleBlock<'_> {
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
        let item = &self.items[block_id];
        if item.is_empty() {
            return;
        }
        let state = self.state;
        let cfg = self.config;
        let v = item.word as usize;
        let vocab = state.layout.vocab_size;
        let alpha = cfg.alpha;
        let beta = cfg.beta;
        let v_beta = cfg.beta * vocab as f64;
        let int_bytes: u64 = if cfg.compress_16bit { 2 } else { 4 };

        let stale = self.tables.get(v);
        // Stale dense mass Q̂ = α · Σ_k ŵ(k); the table and its mass live in
        // device memory from the build, read once per block.
        let q_hat = alpha * stale.mass();
        ctx.read_global(8);

        let theta = state.theta.read();
        let mut p1_prefix: Vec<f64> = Vec::with_capacity(64);
        for pos in item.start..item.end {
            let pos = pos as usize;
            let d = state.layout.token_doc[pos] as usize;
            ctx.read_global(4); // token → document index
            let c = state.z[pos].load(Ordering::Relaxed) as usize;
            ctx.read_global(int_bytes); // current topic assignment

            // Fresh p*(k) with the token's own count removed (collapsed
            // Gibbs samples from n^{¬dv}), evaluated lazily: the alias
            // hybrid never touches the full φ column, only the topics the
            // sparse part and the MH steps actually visit (L1-served, like
            // the sparse kernel's spilled lookups).
            let phi_mat = &state.phi_global;
            let nk = &state.nk_global;
            let fresh = |kk: usize| {
                let self_count = if kk == c { 1.0 } else { 0.0 };
                ((phi_mat.load(kk, v) as f64 - self_count).max(0.0) + beta)
                    / ((nk.get(kk) as f64 - self_count).max(0.0) + v_beta)
            };

            // Exact sparse part over the document's θ row, self-excluded.
            let (cols, vals) = theta.row(d);
            let kd = cols.len();
            ctx.read_global(kd as u64 * (int_bytes + 4) + 8); // CSR row
            p1_prefix.clear();
            let mut s = 0.0f64;
            for i in 0..kd {
                let kk = cols[i] as usize;
                let cnt = if kk == c {
                    (vals[i] as f64 - 1.0).max(0.0)
                } else {
                    vals[i] as f64
                };
                s += cnt * fresh(kk);
                p1_prefix.push(s);
            }
            ctx.read_l1(kd as u64 * (int_bytes + 8)); // φ[k,v] + n_k at doc topics
            ctx.flops(4 * kd as u64);

            // θ^{¬token}_{d,k} for an arbitrary topic (the MH acceptance
            // evaluates it at the proposed and current topics).  CSR columns
            // are sorted, so the probe is the binary search the cost model
            // charges below.
            let theta_adj = |kk: usize| {
                let raw = cols
                    .binary_search(&(kk as u16))
                    .map(|i| vals[i] as f64)
                    .unwrap_or(0.0);
                if kk == c {
                    (raw - 1.0).max(0.0)
                } else {
                    raw
                }
            };

            // Per-token MH chain, every draw keyed by token identity.
            let global_doc = (state.layout.range.start + d) as u64;
            let slot = state.token_slot[pos] as u64;
            let tseed = stable_u64(cfg.seed, self.iteration, (global_doc << 32) | slot);

            let mut k_cur = c;
            for step in 0..self.mh_steps {
                let step = step as u64;
                // Mixture proposal: exact sparse bucket vs stale alias
                // bucket, then O(1) within either.
                let pick = ctx.stable_f32(tseed, 2 * step, 0) as f64 * (s + q_hat);
                ctx.flops(2);
                let k_prop = if pick < s && kd > 0 {
                    let idx = p1_prefix.partition_point(|&cum| cum <= pick).min(kd - 1);
                    ctx.int_ops((kd.max(2) as u64).ilog2() as u64 + 1);
                    cols[idx] as usize
                } else {
                    let u1 = ctx.stable_f32(tseed, 2 * step, 1);
                    let u2 = ctx.stable_f32(tseed, 2 * step, 2);
                    ctx.read_l1(8); // prob + alias of one bucket
                    stale.table().sample_with(u1, u2)
                };
                if k_prop == k_cur {
                    continue;
                }
                // MH correction for the staleness of the dense part:
                // accept with p(k')q(k) / (p(k)q(k')), p fresh, q stale-mixed.
                let posterior = |kk: usize| (theta_adj(kk) + alpha) * fresh(kk);
                let mixture = |kk: usize| theta_adj(kk) * fresh(kk) + alpha * stale.weight(kk);
                let accept =
                    posterior(k_prop) * mixture(k_cur) / (posterior(k_cur) * mixture(k_prop));
                // Fresh φ/n_k plus the stale φ̂ snapshot at the two topics
                // (the stale weight is reconstructed from φ̂ and the device's
                // n̂_k snapshot, two extra flops each).
                ctx.read_l1(2 * (int_bytes + 8 + int_bytes));
                ctx.flops(20);
                ctx.int_ops(2 * (kd.max(2) as u64).ilog2() as u64); // θ row probes
                if (ctx.stable_f32(tseed, 2 * step + 1, 3) as f64) < accept {
                    k_cur = k_prop;
                }
            }

            state.z_next[pos].store(k_cur as u16, Ordering::Relaxed);
            ctx.write_global(int_bytes); // compressed topic assignment
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::stale::shared_chunks;
    use crate::work::build_work_items;
    use crate::SamplerStrategy;
    use culda_corpus::{partition::DocRange, ChunkLayout, DatasetProfile};
    use culda_gpusim::DeviceSpec;
    use culda_sparse::DenseMatrix;

    fn make_state(num_topics: usize, seed: u64) -> ChunkState {
        let corpus = DatasetProfile {
            name: "alias-hybrid".into(),
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
        let cfg = LdaConfig::with_topics(num_topics);
        state.random_init_stable(&cfg, cfg.seed);
        state
    }

    #[test]
    fn prepare_builds_on_cadence_and_sampling_assigns_valid_topics() {
        let state = make_state(16, 5);
        let cfg = LdaConfig::with_topics(16).sampler(crate::SamplerStrategy::AliasHybrid {
            rebuild_every: 3,
            mh_steps: 2,
        });
        let sampler = AliasHybridSampler::new(3, 2);
        let dev = Device::new(0, DeviceSpec::v100_volta(), 7);

        // Iteration 0 builds (no tables yet), 1 and 2 reuse, 3 rebuilds.
        assert!(sampler.prepare_chunk(&dev, &state, &cfg, 0) > 0.0);
        assert_eq!(sampler.prepare_chunk(&dev, &state, &cfg, 1), 0.0);
        assert_eq!(sampler.prepare_chunk(&dev, &state, &cfg, 2), 0.0);
        assert!(sampler.prepare_chunk(&dev, &state, &cfg, 3) > 0.0);

        let items = build_work_items(&state.layout, cfg.max_tokens_per_block);
        let kernel = sampler.sampling_kernel(&state, &items, &cfg, 3);
        let stats = dev.launch(sampler.name(), LaunchConfig::new(items.len()), &kernel);
        for z in &state.z_next {
            assert!((z.load(Ordering::Relaxed) as usize) < 16);
        }
        assert!(stats.counters.dram_read_bytes > 0);
        assert!(stats.counters.rng_draws > 0);
    }

    #[test]
    fn resume_style_first_iteration_always_builds() {
        let state = make_state(8, 9);
        let cfg = LdaConfig::with_topics(8);
        let sampler = AliasHybridSampler::new(4, 2);
        let dev = Device::new(0, DeviceSpec::v100_volta(), 1);
        // First iteration the sampler ever sees is 6 (mid-cadence, as after
        // a resume from a checkpoint with no persisted sampler state, e.g. a
        // pre-v4 file): with nothing to restore, tables must still be built.
        assert!(sampler.prepare_chunk(&dev, &state, &cfg, 6) > 0.0);
        // ...and the next rebuild falls back onto the cadence grid.
        assert_eq!(sampler.prepare_chunk(&dev, &state, &cfg, 7), 0.0);
        assert!(sampler.prepare_chunk(&dev, &state, &cfg, 8) > 0.0);
    }

    fn devices() -> Vec<Device> {
        (0..4)
            .map(|i| Device::new(i, DeviceSpec::v100_volta(), 1 + i as u64))
            .collect()
    }

    fn z_next(state: &ChunkState) -> Vec<u16> {
        state
            .z_next
            .iter()
            .map(|z| z.load(Ordering::Relaxed))
            .collect()
    }

    #[test]
    fn restored_snapshot_resumes_mid_cadence_without_a_rebuild() {
        let cfg = LdaConfig::with_topics(8);
        let sampler = AliasHybridSampler::new(4, 2);
        let devs = devices();

        // No rebuild has happened yet, so there is nothing to persist.
        assert!(sampler.resume_state().is_none());

        let chunks = shared_chunks(8, 9);
        for (state, dev) in chunks.iter().zip(&devs) {
            assert!(sampler.prepare_chunk(dev, state, &cfg, 0) > 0.0);
        }
        let snapshot = sampler.resume_state().expect("snapshot after rebuild");

        // A fresh sampler with the snapshot restored skips every chunk's
        // device build at a mid-cadence iteration (the uninterrupted run
        // already paid for it before the checkpoint) ...
        let restored = AliasHybridSampler::new(4, 2);
        restored.restore_resume_state(&snapshot);
        let chunks_b = shared_chunks(8, 9);
        for (state, dev) in chunks_b.iter().zip(&devs) {
            assert_eq!(restored.prepare_chunk(dev, state, &cfg, 2), 0.0);
        }

        // ... and produces bit-identical assignments from the stale tables
        // on every chunk.
        for ((state, state_b), dev) in chunks.iter().zip(&chunks_b).zip(&devs) {
            let items = build_work_items(&state.layout, cfg.max_tokens_per_block);
            assert_eq!(sampler.prepare_chunk(dev, state, &cfg, 2), 0.0);
            dev.launch(
                sampler.name(),
                LaunchConfig::new(items.len()),
                &sampler.sampling_kernel(state, &items, &cfg, 2),
            );
            dev.launch(
                restored.name(),
                LaunchConfig::new(items.len()),
                &restored.sampling_kernel(state_b, &items, &cfg, 2),
            );
            assert_eq!(z_next(state), z_next(state_b));
        }

        // The restored sampler stays on the original cadence grid.
        for (state, dev) in chunks_b.iter().zip(&devs) {
            assert_eq!(restored.prepare_chunk(dev, state, &cfg, 3), 0.0);
        }
        for (state, dev) in chunks_b.iter().zip(&devs) {
            assert!(restored.prepare_chunk(dev, state, &cfg, 4) > 0.0);
        }
    }

    #[test]
    fn chunks_share_one_table_per_word_and_each_pays_its_own_build() {
        let SamplerStrategy::AliasHybrid {
            rebuild_every,
            mh_steps,
        } = SamplerStrategy::alias_hybrid()
        else {
            unreachable!()
        };
        let k = 32;
        let cfg = LdaConfig::with_topics(k);
        let sampler = AliasHybridSampler::new(rebuild_every, mh_steps);
        let devs = devices();
        let chunks = shared_chunks(k, 4);
        let vocab = chunks[0].layout.vocab_size;
        let owners = |v: usize| {
            chunks
                .iter()
                .filter(|st| st.layout.word_token_count(v) > 0)
                .count()
        };
        let shared = chunk_words(&chunks[0].layout)
            .into_iter()
            .map(|w| w as usize)
            .find(|&v| owners(v) >= 2)
            .expect("a word held by several chunks");

        // Per word: the φ column and n_k read, 3 flops and one Vose step
        // per topic, and the table written back.
        let int_bytes: u64 = if cfg.compress_16bit { 2 } else { 4 };
        let kk = k as u64;
        let charges = |state: &ChunkState| {
            let words = chunk_words(&state.layout).len() as u64;
            culda_gpusim::CostCounters {
                dram_read_bytes: words * kk * (int_bytes + 4),
                dram_write_bytes: words * kk * (8 + int_bytes),
                flops: words * 3 * kk,
                int_ops: words * kk,
                ..Default::default()
            }
        };

        let mut first: Option<(
            Arc<StaleTables<StaleAliasProposal>>,
            *const StaleAliasProposal,
        )> = None;
        for (state, dev) in chunks.iter().zip(&devs) {
            let Prepare::Build(set) = sampler.tables.prepare(state, 0) else {
                panic!("iteration 0 builds every chunk");
            };
            let stats = AliasHybridSampler::launch_build(dev, state, &cfg, &set)
                .expect("every chunk holds tokens");
            assert_eq!(stats.counters, charges(state));
            let (set0, table0) = first.get_or_insert_with(|| (set.clone(), set.get(shared)));
            assert!(Arc::ptr_eq(set0, &set));
            assert!(std::ptr::eq(*table0, set.get(shared)));
        }

        // One table per distinct word, not one per (chunk, word).
        let distinct = (0..vocab).filter(|&v| owners(v) > 0).count();
        let per_chunk: usize = chunks.iter().map(|st| chunk_words(&st.layout).len()).sum();
        assert_eq!(sampler.tables.tables().built().count(), distinct);
        assert!(distinct < per_chunk);

        // The trait entry point charges each chunk's build, then reuses the
        // set until the cadence.
        let again = AliasHybridSampler::new(rebuild_every, mh_steps);
        for (state, dev) in chunks.iter().zip(&devs) {
            let span = again.prepare_chunk(dev, state, &cfg, 0);
            let words = chunk_words(&state.layout).len();
            assert_eq!(span, dev.time_for(&charges(state), words).total_s);
            assert_eq!(again.prepare_chunk(dev, state, &cfg, 1), 0.0);
        }
    }

    #[test]
    fn alias_sampling_avoids_the_per_word_dense_rebuild_traffic() {
        // On non-rebuild iterations the alias kernel must read far less
        // off-chip data than the sparse kernel, which pays K ints + K totals
        // per word: that per-word saving is the point of the hybrid.
        let k = 256;
        let state = make_state(k, 3);
        let cfg = LdaConfig::with_topics(k);
        let items = build_work_items(&state.layout, cfg.max_tokens_per_block);

        let dev = Device::new(0, DeviceSpec::v100_volta(), 2);
        let sparse_stats = dev.launch(
            "Sampling",
            LaunchConfig::new(items.len()),
            &crate::kernels::SparseCgsSampler.sampling_kernel(&state, &items, &cfg, 1),
        );

        let alias = AliasHybridSampler::new(8, 2);
        alias.prepare_chunk(&dev, &state, &cfg, 0);
        let alias_stats = dev.launch(
            "Sampling",
            LaunchConfig::new(items.len()),
            &alias.sampling_kernel(&state, &items, &cfg, 1),
        );
        // The shared per-token θ-row traffic bounds the ratio on this small
        // corpus; the per-word saving still has to be clearly visible.
        assert!(
            (alias_stats.counters.dram_read_bytes as f64)
                < sparse_stats.counters.dram_read_bytes as f64 * 0.8,
            "alias {} vs sparse {}",
            alias_stats.counters.dram_read_bytes,
            sparse_stats.counters.dram_read_bytes
        );
    }

    #[test]
    #[should_panic(expected = "prepare_chunk")]
    fn sampling_before_prepare_is_a_bug() {
        let state = make_state(8, 1);
        let cfg = LdaConfig::with_topics(8);
        let items = build_work_items(&state.layout, cfg.max_tokens_per_block);
        let sampler = AliasHybridSampler::new(4, 2);
        let _ = sampler.sampling_kernel(&state, &items, &cfg, 0);
    }

    /// The burn-in sweep as it ran over a row-major `K × V` φ, reading a
    /// word's topic counts at a stride of V: the oracle the column sweep
    /// must match bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn row_major_burn_in(
        sampler: &AliasHybridSampler,
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

        // Stale snapshot at sweep start, for the document's distinct words.
        let mut stale: BTreeMap<u32, StaleAliasProposal> = BTreeMap::new();
        for &w in words {
            stale.entry(w).or_insert_with(|| {
                StaleAliasProposal::from_weights(
                    (0..k)
                        .map(|kk| {
                            (phi.get(kk, w as usize) as f64 + beta) / (nk[kk] as f64 + v_beta)
                        })
                        .collect(),
                )
            });
        }

        let mut p1_topics: Vec<usize> = Vec::new();
        let mut p1_prefix: Vec<f64> = Vec::new();
        for (slot, &w) in words.iter().enumerate() {
            let w = w as usize;
            let c = z[slot] as usize;
            // Remove the token: the MH chain targets p^{¬token}.
            theta_d[c] -= 1;
            *phi.get_mut(c, w) -= 1;
            nk[c] -= 1;

            let proposal = &stale[&(w as u32)];
            let fresh = |kk: usize| (phi.get(kk, w) as f64 + beta) / (nk[kk] as f64 + v_beta);

            // Exact sparse part over the document's live topics.
            p1_topics.clear();
            p1_prefix.clear();
            let mut s = 0.0f64;
            for (kk, &cnt) in theta_d.iter().enumerate() {
                if cnt == 0 {
                    continue;
                }
                s += cnt as f64 * fresh(kk);
                p1_topics.push(kk);
                p1_prefix.push(s);
            }
            let q_hat = alpha * proposal.mass();

            // Per-token sub-stream: every MH draw is a pure function of
            // (seed, sweep stream, uid, slot, step, draw index).
            let tseed = stable_u64(config.seed, stream, (uid << 32) | slot as u64);
            let mut k_cur = c;
            for step in 0..sampler.mh_steps {
                let step = step as u64;
                let pick = stable_f32(tseed, 2 * step, 0) as f64 * (s + q_hat);
                let k_prop = if pick < s && !p1_topics.is_empty() {
                    let idx = p1_prefix
                        .partition_point(|&cum| cum <= pick)
                        .min(p1_topics.len() - 1);
                    p1_topics[idx]
                } else {
                    let u1 = stable_f32(tseed, 2 * step, 1);
                    let u2 = stable_f32(tseed, 2 * step, 2);
                    proposal.table().sample_with(u1, u2)
                };
                if k_prop == k_cur {
                    continue;
                }
                let posterior = |kk: usize| (theta_d[kk] as f64 + alpha) * fresh(kk);
                let mixture =
                    |kk: usize| theta_d[kk] as f64 * fresh(kk) + alpha * proposal.weight(kk);
                let accept =
                    posterior(k_prop) * mixture(k_cur) / (posterior(k_cur) * mixture(k_prop));
                if (stable_f32(tseed, 2 * step + 1, 3) as f64) < accept {
                    k_cur = k_prop;
                }
            }

            z[slot] = k_cur as u16;
            theta_d[k_cur] += 1;
            *phi.get_mut(k_cur, w) += 1;
            nk[k_cur] += 1;
        }
    }

    #[test]
    fn column_burn_in_matches_the_row_major_oracle() {
        for (k, mh_steps) in [(8, 2), (64, 4)] {
            let config = LdaConfig::with_topics(k).seed(11 + k as u64);
            let sampler = AliasHybridSampler::new(8, mh_steps);
            crate::kernels::sampler::assert_burn_in_matches_row_major(
                &sampler,
                &config,
                |c, uid, sweep, words, z, theta, phi, nk| {
                    row_major_burn_in(&sampler, c, uid, sweep, words, z, theta, phi, nk)
                },
            );
        }
    }
}
