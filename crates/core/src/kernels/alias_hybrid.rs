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
use crate::model::ChunkState;
use crate::work::{chunk_words, WorkItem};
use culda_gpusim::rng::{stable_f32, stable_u64};
use culda_gpusim::{BlockCtx, BlockKernel, Device, LaunchConfig};
use culda_sparse::{DenseMatrix, StaleAliasProposal};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The stale per-word tables of one chunk, tagged with the iteration they
/// were built at.
struct ChunkTables {
    /// Iteration whose synchronized φ the tables snapshot.
    built_at: u64,
    /// `StaleAliasProposal` per word id (`None` for words without tokens in
    /// the chunk).
    proposals: Vec<Option<StaleAliasProposal>>,
}

/// The global `(φ, n_k)` snapshot the stale tables were last built from —
/// exactly the φ̂/n̂ the device keeps next to each table (see
/// [`AliasBuildBlock`]).  This is what a checkpoint carries: per-chunk
/// proposals are a deterministic function of it, so a resumed sampler
/// reconstructs them bit-exactly instead of rebuilding fresh tables from the
/// *current* φ (which would diverge from the uninterrupted run until the
/// next cadence rebuild).
struct TablesSnapshot {
    /// Iteration whose synchronized φ this snapshot captures.
    built_at: u64,
    /// The synchronized φ at `built_at` (`K × V`).
    phi_hat: DenseMatrix<u32>,
    /// The topic totals at `built_at`.
    nk_hat: Vec<i64>,
    /// True when the snapshot was restored from a checkpoint rather than
    /// captured from a live rebuild.  Only a restored snapshot may satisfy a
    /// chunk's missing tables without a device build (the uninterrupted run
    /// paid that build before the checkpoint, so the resumed run must not
    /// charge it again — nor rebuild from the wrong φ).
    restored: bool,
}

/// Stale-alias + Metropolis–Hastings hybrid sampler
/// ([`crate::SamplerStrategy::AliasHybrid`]).  See the [module
/// docs](crate::kernels::alias_hybrid) for the algorithm and determinism
/// argument.
pub struct AliasHybridSampler {
    rebuild_every: u64,
    mh_steps: usize,
    /// Per-chunk stale tables, keyed by chunk id.  Rebuilt by
    /// [`SamplerKernel::prepare_chunk`] on the configured cadence.
    chunks: Mutex<BTreeMap<usize, Arc<ChunkTables>>>,
    /// The global snapshot behind the current tables: captured at every
    /// cadence rebuild (for [`SamplerKernel::resume_state`]) or installed by
    /// [`SamplerKernel::restore_resume_state`] on a checkpoint resume.
    snapshot: Mutex<Option<Arc<TablesSnapshot>>>,
}

impl AliasHybridSampler {
    /// A sampler rebuilding its stale tables every `rebuild_every`
    /// iterations and correcting with `mh_steps` MH steps per token (both
    /// must be ≥ 1, as [`crate::SamplerStrategy::validate`] enforces).
    pub fn new(rebuild_every: usize, mh_steps: usize) -> Self {
        assert!(rebuild_every >= 1, "rebuild_every must be at least 1");
        assert!(mh_steps >= 1, "mh_steps must be at least 1");
        AliasHybridSampler {
            rebuild_every: rebuild_every as u64,
            mh_steps,
            chunks: Mutex::new(BTreeMap::new()),
            snapshot: Mutex::new(None),
        }
    }

    /// The configured rebuild cadence.
    pub fn rebuild_every(&self) -> usize {
        self.rebuild_every as usize
    }

    /// The configured MH steps per token.
    pub fn mh_steps(&self) -> usize {
        self.mh_steps
    }

    /// Whether `iteration` rebuilds the tables of a chunk last built at
    /// `built_at` (tables are always built when none exist yet — the first
    /// iteration after construction or a checkpoint resume).
    fn needs_rebuild(&self, built_at: Option<u64>, iteration: u64) -> bool {
        match built_at {
            None => true,
            Some(at) => iteration > at && iteration.is_multiple_of(self.rebuild_every),
        }
    }

    /// Reconstruct one chunk's per-word proposals from a restored global
    /// snapshot — the same `(φ̂ + β) / (n̂ + Vβ)` f64 arithmetic as
    /// [`AliasBuildBlock`], evaluated on the same `u32`/`i64` inputs, so the
    /// tables are bit-identical to the ones the uninterrupted run built.
    fn proposals_from_snapshot(
        snap: &TablesSnapshot,
        state: &ChunkState,
        config: &LdaConfig,
    ) -> Vec<Option<StaleAliasProposal>> {
        let k = config.num_topics;
        let beta = config.beta;
        let v_beta = beta * state.layout.vocab_size as f64;
        let mut proposals: Vec<Option<StaleAliasProposal>> = vec![None; state.layout.vocab_size];
        for w in chunk_words(&state.layout) {
            let v = w as usize;
            let weights: Vec<f64> = (0..k)
                .map(|kk| {
                    (snap.phi_hat.get(kk, v) as f64 + beta) / (snap.nk_hat[kk] as f64 + v_beta)
                })
                .collect();
            proposals[v] = Some(StaleAliasProposal::from_weights(weights));
        }
        proposals
    }
}

impl SamplerKernel for AliasHybridSampler {
    fn name(&self) -> &'static str {
        crate::kernels::names::SAMPLING
    }

    /// Rebuild the chunk's stale tables on the configured cadence by
    /// launching the alias-build kernel on `device`; returns the simulated
    /// build span (0 on non-rebuild iterations).
    fn prepare_chunk(
        &self,
        device: &Device,
        state: &ChunkState,
        config: &LdaConfig,
        iteration: u64,
    ) -> f64 {
        let built_at = self.chunks.lock().get(&state.chunk_id).map(|t| t.built_at);
        if built_at.is_none() {
            // A chunk with no tables yet normally means a fresh sampler —
            // but after a checkpoint resume the restored snapshot stands in
            // for the tables the uninterrupted run would still be holding:
            // reconstruct them host-side (bit-identical, see
            // `proposals_from_snapshot`) and charge nothing, since the
            // original build was paid before the checkpoint.  If the resume
            // lands on a rebuild iteration anyway, fall through to the
            // ordinary fresh build.
            let restored = self
                .snapshot
                .lock()
                .clone()
                .filter(|s| s.restored && s.phi_hat.cols() == state.layout.vocab_size);
            if let Some(snap) = restored {
                if !self.needs_rebuild(Some(snap.built_at), iteration) {
                    let proposals = Self::proposals_from_snapshot(&snap, state, config);
                    self.chunks.lock().insert(
                        state.chunk_id,
                        Arc::new(ChunkTables {
                            built_at: snap.built_at,
                            proposals,
                        }),
                    );
                    return 0.0;
                }
            }
        }
        if !self.needs_rebuild(built_at, iteration) {
            return 0.0;
        }
        let words = chunk_words(&state.layout);
        let mut proposals: Vec<Option<StaleAliasProposal>> = vec![None; state.layout.vocab_size];
        let span = if words.is_empty() {
            0.0
        } else {
            let slots: Vec<Mutex<Option<StaleAliasProposal>>> =
                (0..words.len()).map(|_| Mutex::new(None)).collect();
            let build = AliasBuildBlock {
                state,
                config,
                words: &words,
                slots: &slots,
            };
            let stats = device.launch(
                crate::kernels::names::ALIAS_BUILD,
                LaunchConfig::new(words.len()),
                &build,
            );
            for (&w, slot) in words.iter().zip(slots) {
                proposals[w as usize] = slot.into_inner();
            }
            stats.time.total_s
        };
        self.chunks.lock().insert(
            state.chunk_id,
            Arc::new(ChunkTables {
                built_at: iteration,
                proposals,
            }),
        );
        // Capture the global snapshot behind this rebuild once per rebuild
        // iteration (every chunk reads the one synchronized φ, so the first
        // chunk's capture covers them all) — it is what a checkpoint
        // taken before the next rebuild needs for a bit-exact resume.
        {
            let mut snap = self.snapshot.lock();
            if snap
                .as_ref()
                .is_none_or(|s| s.restored || s.built_at != iteration)
            {
                *snap = Some(Arc::new(TablesSnapshot {
                    built_at: iteration,
                    phi_hat: state.phi_global.to_dense(),
                    nk_hat: state.nk_global.to_vec(),
                    restored: false,
                }));
            }
        }
        span
    }

    /// The `(φ̂, n̂)` snapshot behind the current stale tables, so a
    /// checkpoint taken mid-cadence resumes with the *same* tables instead
    /// of fresh ones (`None` until the first rebuild ever runs).
    fn resume_state(&self) -> Option<SamplerResumeState> {
        self.snapshot
            .lock()
            .as_ref()
            .map(|s| SamplerResumeState::AliasTables {
                built_at: s.built_at,
                phi_hat: s.phi_hat.clone(),
                nk_hat: s.nk_hat.clone(),
            })
    }

    /// Install a checkpointed snapshot; the next
    /// [`SamplerKernel::prepare_chunk`] of each chunk reconstructs its
    /// proposals from it instead of rebuilding from the current φ, keeping
    /// the resumed run bit-exact and on the original rebuild cadence.
    fn restore_resume_state(&self, state: &SamplerResumeState) {
        // States captured by other portfolio members are ignored (checkpoint
        // validation rejects such mismatches before they get here anyway).
        if let SamplerResumeState::AliasTables {
            built_at,
            phi_hat,
            nk_hat,
        } = state
        {
            *self.snapshot.lock() = Some(Arc::new(TablesSnapshot {
                built_at: *built_at,
                phi_hat: phi_hat.clone(),
                nk_hat: nk_hat.clone(),
                restored: true,
            }));
        }
    }

    fn sampling_kernel<'a>(
        &'a self,
        state: &'a ChunkState,
        items: &'a [WorkItem],
        config: &'a LdaConfig,
        iteration: u64,
    ) -> Box<dyn BlockKernel + 'a> {
        let tables = self
            .chunks
            .lock()
            .get(&state.chunk_id)
            .cloned()
            .expect("prepare_chunk must run before sampling_kernel");
        Box::new(AliasSampleBlock {
            state,
            items,
            config,
            iteration,
            mh_steps: self.mh_steps,
            tables,
        })
    }

    /// Iteration 0 always pays a full table build; steady state pays it only
    /// every `rebuild_every` iterations.
    fn predict_steady_compute_s(&self, measured_compute_s: f64, measured_setup_s: f64) -> f64 {
        (measured_compute_s - measured_setup_s).max(0.0)
            + measured_setup_s / self.rebuild_every as f64
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

/// The alias-build kernel: one thread block builds the stale proposal of one
/// word from the synchronized φ (read once per rebuild instead of once per
/// iteration — the amortisation the hybrid exists for).
struct AliasBuildBlock<'a> {
    state: &'a ChunkState,
    config: &'a LdaConfig,
    /// Words with tokens in this chunk, one per block.
    words: &'a [u32],
    /// Output slot per block.
    slots: &'a [Mutex<Option<StaleAliasProposal>>],
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
        // the MH ratio needs is reconstructed from φ̂ and the per-chunk n̂_k
        // snapshot (K × 8 bytes per rebuild, amortised over every word) at
        // two flops per evaluation.
        let weights: Vec<f64> = self
            .state
            .phi_global
            .column(v)
            .iter()
            .enumerate()
            .map(|(kk, phi_kv)| {
                (phi_kv.load(Ordering::Relaxed) as f64 + beta)
                    / (self.state.nk_global.get(kk) as f64 + v_beta)
            })
            .collect();
        ctx.read_global(k as u64 * int_bytes); // φ[·, v]
        ctx.read_global(k as u64 * 4); // n_k
        ctx.flops(3 * k as u64);
        let proposal = StaleAliasProposal::from_weights(weights);
        ctx.int_ops(k as u64); // Vose small/large queue maintenance
        ctx.write_global(k as u64 * (8 + int_bytes)); // prob + alias + φ̂ snapshot
        *self.slots[block_id].lock() = Some(proposal);
    }
}

/// The per-launch block kernel of [`AliasHybridSampler`]: one chunk's work
/// items at one iteration, sampling from the chunk's stale tables.
struct AliasSampleBlock<'a> {
    state: &'a ChunkState,
    items: &'a [WorkItem],
    config: &'a LdaConfig,
    iteration: u64,
    mh_steps: usize,
    tables: Arc<ChunkTables>,
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

        let stale = self.tables.proposals[v]
            .as_ref()
            .expect("alias tables cover every word with tokens in the chunk");
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
                // (the stale weight is reconstructed from φ̂ and the chunk's
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
    use crate::work::build_work_items;
    use culda_corpus::{partition::DocRange, ChunkLayout, DatasetProfile};
    use culda_gpusim::DeviceSpec;

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
        state.phi_global.copy_from(&state.phi_local);
        state.nk_global.store_all(&state.nk_local.to_vec());
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

    #[test]
    fn restored_snapshot_resumes_mid_cadence_without_a_rebuild() {
        let cfg = LdaConfig::with_topics(8);
        let sampler = AliasHybridSampler::new(4, 2);
        let dev = Device::new(0, DeviceSpec::v100_volta(), 1);

        // No rebuild has happened yet, so there is nothing to persist.
        assert!(sampler.resume_state().is_none());

        let state = make_state(8, 9);
        assert!(sampler.prepare_chunk(&dev, &state, &cfg, 0) > 0.0);
        let snapshot = sampler.resume_state().expect("snapshot after rebuild");

        // A fresh sampler with the snapshot restored skips the device build
        // at a mid-cadence iteration (the uninterrupted run already paid for
        // it before the checkpoint) ...
        let restored = AliasHybridSampler::new(4, 2);
        restored.restore_resume_state(&snapshot);
        let state_b = make_state(8, 9);
        assert_eq!(restored.prepare_chunk(&dev, &state_b, &cfg, 2), 0.0);

        // ... and produces bit-identical assignments from the stale tables.
        let items = build_work_items(&state.layout, cfg.max_tokens_per_block);
        assert_eq!(sampler.prepare_chunk(&dev, &state, &cfg, 2), 0.0);
        dev.launch(
            sampler.name(),
            LaunchConfig::new(items.len()),
            &sampler.sampling_kernel(&state, &items, &cfg, 2),
        );
        dev.launch(
            restored.name(),
            LaunchConfig::new(items.len()),
            &restored.sampling_kernel(&state_b, &items, &cfg, 2),
        );
        for (a, b) in state.z_next.iter().zip(&state_b.z_next) {
            assert_eq!(a.load(Ordering::Relaxed), b.load(Ordering::Relaxed));
        }

        // The restored sampler stays on the original cadence grid.
        assert_eq!(restored.prepare_chunk(&dev, &state_b, &cfg, 3), 0.0);
        assert!(restored.prepare_chunk(&dev, &state_b, &cfg, 4) > 0.0);
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
}
