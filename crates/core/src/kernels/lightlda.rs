//! The LightLDA cycled Metropolis–Hastings sampling kernel (Yuan et al.,
//! WWW'15 — reference \[42\] of the paper; ROADMAP "sampler portfolio" item).
//!
//! Both shipped kernels pay a per-token cost that grows with the problem:
//! the paper's §6.1 kernel is `O(K)` per *word* (tree build) plus `O(K_d)`
//! per token, and the alias hybrid still walks the document's `K_d` topics
//! for its exact sparse part.  [`LightLdaSampler`] drops the sparse pass
//! entirely: every token runs `mh_steps` O(1) Metropolis–Hastings steps of a
//! *cycle proposal* that alternates
//!
//! * **doc proposals** `q_d(k) ∝ θ_{d,k} + α` — drawn in O(1) by picking the
//!   topic of another token of the same document (mass `L_d`) or a uniform
//!   topic (smoothing mass `Kα`), using the document–word map
//!   ([`culda_corpus::ChunkLayout::doc_positions`]) for the token pick;
//! * **word proposals** `q_w(k) ∝ φ̂_{k,v} + β` — drawn in O(1) from a
//!   per-word *stale* alias table rebuilt every `rebuild_every` iterations
//!   ([`crate::IterationStats::sampler_setup_time_s`] carries the build
//!   span, exactly like the alias hybrid's);
//!
//! each corrected by an MH acceptance test against the *fresh* counts, so
//! the chain's stationary distribution is the exact collapsed conditional
//! `p^{¬token}` regardless of the staleness (an independence/mixture
//! proposal only has to dominate the support).
//!
//! ## Vocabulary pruning for power-law tails
//!
//! With `prune_below > 0`, words whose corpus-wide stale count
//! `Σ_k φ̂(k, v)` is below the threshold — the Zipf tail, which is most of
//! the vocabulary — build their word proposal from the sparse list of
//! non-zero topics plus an explicit `K·β` smoothing bucket instead of a
//! dense `K`-ary alias table: `O(nnz)` construction and memory instead of
//! `O(K)`.  The column sum is the word's corpus-wide token count — a
//! quantity independent of iteration, topology and batching — so the
//! pruning decision (and therefore the draw path) is bit-stable everywhere
//! the determinism contract reaches.
//!
//! ## Determinism
//!
//! Every MH draw derives from the per-token sub-stream seed
//! `t = stable_u64(seed, iteration, (doc ≪ 32) | slot)` with the same
//! `(2·step, i)` draw indexing the alias hybrid uses; the doc proposal's
//! token pick reads the *iteration-start* `z` (the kernels are
//! double-buffered into `z_next`), which is itself bit-stable across
//! topologies; and the stale word proposals are a pure function of the
//! synchronized `phi_global`.  The kernel therefore inherits the full
//! bit-exactness contract (`DESIGN.md` §13).

use crate::config::LdaConfig;
use crate::kernels::sampler::{SamplerKernel, SamplerResumeState, BURN_STREAM_BASE};
use crate::kernels::stale::{Prepare, StaleCache, StaleTables};
use crate::model::ChunkState;
use crate::model::TopicTotals;
use crate::work::{chunk_words, WorkItem};
use culda_gpusim::rng::{stable_f32, stable_u64};
use culda_gpusim::{BlockCtx, BlockKernel, Device, KernelStats, LaunchConfig};
use culda_sparse::{AliasTable, AtomicMatrix, StaleAliasProposal};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// One word's stale proposal distribution `q_w(k) ∝ φ̂_{k,v} + β`.
///
/// Both representations draw the *same* distribution; the pruned form just
/// splits it into the sparse count mass `Σ_k φ̂(k,v)` and the uniform
/// smoothing mass `K·β`, which is exact because β is a constant shared by
/// every topic.
pub enum WordProposal {
    /// Dense `K`-ary alias table over `φ̂_{k,v} + β` (the default, and every
    /// word at or above the pruning threshold).
    Dense(StaleAliasProposal),
    /// Sparse tail form: an alias table over the non-zero stale counts plus
    /// an explicit uniform smoothing bucket.
    Pruned {
        /// Topics with `φ̂(k, v) > 0`, ascending.
        topics: Vec<u16>,
        /// The stale counts at `topics` (parallel array).
        counts: Vec<u32>,
        /// Alias table over `counts`.
        table: AliasTable,
        /// `Σ counts` — the word's corpus-wide token count.
        sparse_mass: f64,
        /// `K·β` — the uniform smoothing mass.
        smooth_mass: f64,
        /// Number of topics `K` (the smoothing bucket draws uniformly from
        /// all of them).
        num_topics: usize,
    },
}

impl WordProposal {
    /// Build the proposal from a word's stale φ̂ column.  Pure function of
    /// `(counts, beta, prune_below)`, shared by the device build kernel and
    /// the checkpoint-resume reconstruction so both produce bit-identical
    /// tables.
    pub fn build(counts: &[u32], beta: f64, prune_below: usize) -> WordProposal {
        let k = counts.len();
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        if prune_below > 0 && (total as usize) < prune_below && total > 0 {
            let topics: Vec<u16> = (0..k)
                .filter(|&kk| counts[kk] > 0)
                .map(|kk| kk as u16)
                .collect();
            let nz: Vec<u32> = topics.iter().map(|&kk| counts[kk as usize]).collect();
            let weights: Vec<f32> = nz.iter().map(|&c| c as f32).collect();
            WordProposal::Pruned {
                table: AliasTable::new(&weights),
                topics,
                counts: nz,
                sparse_mass: total as f64,
                smooth_mass: beta * k as f64,
                num_topics: k,
            }
        } else {
            WordProposal::Dense(StaleAliasProposal::from_weights(
                counts.iter().map(|&c| c as f64 + beta).collect(),
            ))
        }
    }

    /// Draw a topic from two uniforms in `[0, 1)` — a pure function of its
    /// inputs, like [`AliasTable::sample_with`].
    #[inline]
    pub fn draw(&self, u1: f32, u2: f32) -> usize {
        match self {
            WordProposal::Dense(p) => p.table().sample_with(u1, u2),
            WordProposal::Pruned {
                topics,
                table,
                sparse_mass,
                smooth_mass,
                num_topics,
                ..
            } => {
                let pick = u1 as f64 * (sparse_mass + smooth_mass);
                if pick < *sparse_mass && !topics.is_empty() {
                    // Rescale the residual into a conditional uniform so one
                    // draw serves both the branch test and the bucket pick.
                    let ub = (pick / sparse_mass) as f32;
                    topics[table.sample_with(ub, u2)] as usize
                } else {
                    let frac = ((pick - sparse_mass) / smooth_mass).clamp(0.0, 1.0);
                    ((frac * *num_topics as f64) as usize).min(num_topics - 1)
                }
            }
        }
    }

    /// The stale proposal weight `φ̂(k, v) + β` of an arbitrary topic (the
    /// MH acceptance ratio evaluates it at the current and proposed topics).
    #[inline]
    pub fn weight(&self, kk: usize, beta: f64) -> f64 {
        match self {
            WordProposal::Dense(p) => p.weight(kk),
            WordProposal::Pruned { topics, counts, .. } => topics
                .binary_search(&(kk as u16))
                .map(|i| counts[i] as f64 + beta)
                .unwrap_or(beta),
        }
    }

    /// Whether this word took the pruned (sparse-tail) representation.
    #[inline]
    pub fn is_pruned(&self) -> bool {
        matches!(self, WordProposal::Pruned { .. })
    }
}

/// LightLDA cycled doc-/word-proposal Metropolis–Hastings sampler
/// ([`crate::SamplerStrategy::LightLda`]).  See the [module
/// docs](crate::kernels::lightlda) for the algorithm and determinism
/// argument.
pub struct LightLdaSampler {
    mh_steps: usize,
    prune_below: usize,
    /// The word proposals of the current rebuild, shared by every chunk.
    /// Word proposals depend only on `φ̂ + β` (the `n_k + Vβ` normalizer
    /// cancels from the `q_w` acceptance ratio), so the snapshot's topic
    /// totals go unused.
    tables: StaleCache<WordProposal>,
}

impl LightLdaSampler {
    /// A sampler rebuilding its stale word proposals every `rebuild_every`
    /// iterations, running `mh_steps` MH steps per token, and pruning words
    /// below `prune_below` global tokens to the sparse tail representation
    /// (`0` disables pruning).
    pub fn new(rebuild_every: usize, mh_steps: usize, prune_below: usize) -> Self {
        assert!(mh_steps >= 1, "mh_steps must be at least 1");
        LightLdaSampler {
            mh_steps,
            prune_below,
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

    /// The configured vocabulary-pruning threshold (0 = disabled).
    pub fn prune_below(&self) -> usize {
        self.prune_below
    }

    /// Fill the chunk's words of a restored set from its snapshot through
    /// the same [`WordProposal::build`] the device kernel runs, on the same
    /// `u32` counts — bit-identical to the tables the uninterrupted run
    /// held.
    fn proposals_from_snapshot(
        &self,
        set: &StaleTables<WordProposal>,
        state: &ChunkState,
        config: &LdaConfig,
    ) {
        let snap = set.snapshot();
        for w in chunk_words(&state.layout) {
            let v = w as usize;
            set.get_or_build(v, || {
                WordProposal::build(&snap.dense_column(v), config.beta, self.prune_below)
            });
        }
    }

    /// Launch the word-proposal build kernel over the chunk's words into
    /// `set` (`None` for a chunk without tokens).
    fn launch_build(
        &self,
        device: &Device,
        state: &ChunkState,
        config: &LdaConfig,
        set: &StaleTables<WordProposal>,
    ) -> Option<KernelStats> {
        let words = chunk_words(&state.layout);
        if words.is_empty() {
            return None;
        }
        let build = LightBuildBlock {
            state,
            config,
            prune_below: self.prune_below,
            words: &words,
            tables: set,
        };
        Some(device.launch(
            crate::kernels::names::LIGHT_BUILD,
            LaunchConfig::new(words.len()),
            &build,
        ))
    }
}

impl SamplerKernel for LightLdaSampler {
    fn name(&self) -> &'static str {
        crate::kernels::names::SAMPLING
    }

    /// Rebuild the chunk's stale word proposals on the configured cadence by
    /// launching the word-proposal build kernel on `device`; returns the
    /// simulated build span (0 on non-rebuild iterations).  After a
    /// checkpoint resume the restored snapshot stands in for the tables the
    /// uninterrupted run would still be holding: the chunk's words are
    /// filled host-side at zero cost (the original build was paid before the
    /// checkpoint) unless the resume lands on a rebuild iteration anyway.
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
                self.proposals_from_snapshot(&set, state, config);
                0.0
            }
            Prepare::Build(set) => self
                .launch_build(device, state, config, &set)
                .map_or(0.0, |stats| stats.time.total_s),
        }
    }

    /// The φ̂ snapshot behind the current word proposals (`None` until the
    /// first rebuild ever runs).
    fn resume_state(&self) -> Option<SamplerResumeState> {
        self.tables
            .current()
            .map(|s| SamplerResumeState::LightWordTables {
                built_at: s.built_at,
                phi_hat: s.snapshot().to_dense(),
            })
    }

    /// Install a checkpointed snapshot; the next
    /// [`SamplerKernel::prepare_chunk`] of each chunk fills its proposals
    /// from it, keeping the resumed run bit-exact and on the original
    /// rebuild cadence.
    fn restore_resume_state(&self, state: &SamplerResumeState) {
        // States captured by other portfolio members are ignored (checkpoint
        // validation rejects such mismatches before they get here anyway).
        if let SamplerResumeState::LightWordTables { built_at, phi_hat } = state {
            self.tables.restore(*built_at, phi_hat, Vec::new());
        }
    }

    fn sampling_kernel<'a>(
        &'a self,
        state: &'a ChunkState,
        items: &'a [WorkItem],
        config: &'a LdaConfig,
        iteration: u64,
    ) -> Box<dyn BlockKernel + 'a> {
        Box::new(LightSampleBlock {
            state,
            items,
            config,
            iteration,
            mh_steps: self.mh_steps,
            tables: self.tables.tables(),
        })
    }

    /// Iteration 0 always pays a full word-proposal build; steady state pays
    /// it only every `rebuild_every` iterations.
    fn predict_steady_compute_s(&self, measured_compute_s: f64, measured_setup_s: f64) -> f64 {
        (measured_compute_s - measured_setup_s).max(0.0)
            + measured_setup_s / self.rebuild_every() as f64
    }

    /// Host-side burn-in with the same cycle-proposal structure as the
    /// device kernel: stale word proposals are built once per (document,
    /// sweep), then every token runs `mh_steps` alternating doc/word MH
    /// steps against the evolving live counts.
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
        let alpha_k = alpha * k as f64;
        let stream = BURN_STREAM_BASE - sweep as u64;
        let v_beta = beta * phi.cols() as f64;
        let len = words.len();

        // Stale snapshot at sweep start, for the document's distinct words.
        let mut stale: BTreeMap<u32, WordProposal> = BTreeMap::new();
        for &w in words {
            stale.entry(w).or_insert_with(|| {
                let counts: Vec<u32> = (0..k).map(|kk| phi.load(kk, w as usize)).collect();
                WordProposal::build(&counts, beta, self.prune_below)
            });
        }

        for (slot, &w) in words.iter().enumerate() {
            let w = w as usize;
            let c = z[slot] as usize;
            // Remove the token: the MH chain targets p^{¬token}.
            theta_d[c] -= 1;
            *phi.get_mut(c, w) -= 1;
            nk[c] -= 1;

            let proposal = &stale[&(w as u32)];
            let fresh = |kk: usize| (phi.load(kk, w) as f64 + beta) / (nk[kk] as f64 + v_beta);
            let posterior = |kk: usize| (theta_d[kk] as f64 + alpha) * fresh(kk);

            let tseed = stable_u64(config.seed, stream, (uid << 32) | slot as u64);
            let mut k_cur = c;
            for step in 0..self.mh_steps {
                let sstep = step as u64;
                let (k_prop, q_ratio) = if step % 2 == 0 {
                    // Doc proposal q(k) ∝ θ_{d,k} + α, drawn O(1): the topic
                    // of a random token of this document (including the
                    // current one, as the reference implementation does) or
                    // a uniform topic from the smoothing mass.
                    let pick = stable_f32(tseed, 2 * sstep, 0) as f64 * (len as f64 + alpha_k);
                    let u1 = stable_f32(tseed, 2 * sstep, 1);
                    let kp = if pick < len as f64 {
                        let j = ((u1 as f64 * len as f64) as usize).min(len - 1);
                        z[j] as usize
                    } else {
                        ((u1 as f64 * k as f64) as usize).min(k - 1)
                    };
                    let q_new = theta_d[kp] as f64 + alpha;
                    let q_old = theta_d[k_cur] as f64 + alpha;
                    (kp, q_old / q_new)
                } else {
                    // Word proposal q(k) ∝ φ̂_{k,v} + β from the stale table.
                    let u1 = stable_f32(tseed, 2 * sstep, 1);
                    let u2 = stable_f32(tseed, 2 * sstep, 2);
                    let kp = proposal.draw(u1, u2);
                    let q_new = proposal.weight(kp, beta);
                    let q_old = proposal.weight(k_cur, beta);
                    (kp, q_old / q_new)
                };
                if k_prop == k_cur {
                    continue;
                }
                let accept = posterior(k_prop) / posterior(k_cur) * q_ratio;
                if (stable_f32(tseed, 2 * sstep + 1, 3) as f64) < accept {
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

/// The word-proposal build kernel: one thread block scans one word's
/// synchronized φ̂ column and builds its [`WordProposal`] (dense Vose table
/// or the pruned sparse-tail form).  Every chunk's launch charges the full
/// build of each of its words; the host builds each word once per rebuild
/// and shares it ([`StaleTables`]).
struct LightBuildBlock<'a> {
    state: &'a ChunkState,
    config: &'a LdaConfig,
    prune_below: usize,
    /// Words with tokens in this chunk, one per block.
    words: &'a [u32],
    /// The rebuild's shared word proposals.
    tables: &'a StaleTables<WordProposal>,
}

impl BlockKernel for LightBuildBlock<'_> {
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
        let v = self.words[block_id] as usize;
        let k = self.config.num_topics;
        let int_bytes: u64 = if self.config.compress_16bit { 2 } else { 4 };

        // The column scan is unavoidable (the counts live there); what the
        // pruned form saves is the table construction and its footprint.
        let proposal = self.tables.get_or_build(v, || {
            let counts: Vec<u32> = self
                .state
                .phi_global
                .column(v)
                .iter()
                .map(|phi_kv| phi_kv.load(Ordering::Relaxed))
                .collect();
            WordProposal::build(&counts, self.config.beta, self.prune_below)
        });
        ctx.read_global(k as u64 * int_bytes); // φ̂[·, v]
        ctx.flops(k as u64); // accumulate the column total
        let built = match proposal {
            WordProposal::Dense(_) => k as u64,
            WordProposal::Pruned { topics, .. } => topics.len() as u64,
        };
        ctx.int_ops(built); // Vose small/large queue maintenance
        ctx.write_global(built * (8 + int_bytes) + 16); // prob + alias + φ̂ snapshot (+ masses)
    }
}

/// The per-launch block kernel of [`LightLdaSampler`]: one chunk's work
/// items at one iteration, running the cycle-proposal MH chain per token.
struct LightSampleBlock<'a> {
    state: &'a ChunkState,
    items: &'a [WorkItem],
    config: &'a LdaConfig,
    iteration: u64,
    mh_steps: usize,
    tables: Arc<StaleTables<WordProposal>>,
}

/// One token's inputs to the MH chain: the draws are keyed by `tseed` and
/// the chain starts at the token's topic `c`.
struct TokenChain<'a> {
    tseed: u64,
    c: usize,
    /// The document's length and its tokens' word-major positions.
    len: usize,
    doc_pos: &'a [u32],
    /// The document's sorted θ row.
    cols: &'a [u16],
    vals: &'a [u32],
    /// Cost of one θ row probe (a binary search over `K_d` columns).
    probe_cost: u64,
    /// The word's fresh φ column and the fresh topic totals.
    phi_col: &'a [AtomicU32],
    nk: &'a TopicTotals,
    proposal: &'a WordProposal,
    alpha: f64,
    beta: f64,
    v_beta: f64,
}

impl TokenChain<'_> {
    /// θ^{¬token}_{d,k}: the θ row probe with the token's own count removed.
    #[inline]
    fn theta_adj(&self, kk: usize) -> f64 {
        let raw = self
            .cols
            .binary_search(&(kk as u16))
            .map(|i| self.vals[i] as f64)
            .unwrap_or(0.0);
        if kk == self.c {
            (raw - 1.0).max(0.0)
        } else {
            raw
        }
    }

    /// Fresh p*(k) with the token's own count removed.
    #[inline]
    fn fresh(&self, kk: usize) -> f64 {
        let self_count = if kk == self.c { 1.0 } else { 0.0 };
        ((self.phi_col[kk].load(Ordering::Relaxed) as f64 - self_count).max(0.0) + self.beta)
            / ((self.nk.get(kk) as f64 - self_count).max(0.0) + self.v_beta)
    }

    /// The posterior mass `p(k) ∝ (θ^{¬token}_{d,k} + α) · p*(k)`, given
    /// `theta = θ^{¬token}_{d,k}`.
    #[inline]
    fn posterior(&self, theta: f64, kk: usize) -> f64 {
        (theta + self.alpha) * self.fresh(kk)
    }
}

impl BlockKernel for LightSampleBlock<'_> {
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
        self.run_block_with(block_id, ctx, Self::cached_chain);
    }
}

impl LightSampleBlock<'_> {
    /// The kernel body, generic over the per-token MH chain
    /// ([`LightSampleBlock::cached_chain`]) so the tests can run it against
    /// the step-by-step reference chain.
    fn run_block_with<C>(&self, block_id: usize, ctx: &mut BlockCtx, chain: C)
    where
        C: Fn(&Self, &TokenChain<'_>, &mut BlockCtx) -> usize,
    {
        let item = &self.items[block_id];
        if item.is_empty() {
            return;
        }
        let state = self.state;
        let cfg = self.config;
        let v = item.word as usize;
        let int_bytes: u64 = if cfg.compress_16bit { 2 } else { 4 };

        let proposal = self.tables.get(v);
        ctx.read_global(16); // proposal masses, once per block

        let theta = state.theta.read();
        for pos in item.start..item.end {
            let pos = pos as usize;
            let d = state.layout.token_doc[pos] as usize;
            ctx.read_global(4); // token → document index
            let c = state.z[pos].load(Ordering::Relaxed) as usize;
            ctx.read_global(int_bytes); // current topic assignment
            ctx.read_global(8); // doc_ptr[d], doc_ptr[d+1]

            // Fresh p*(k) and the self-excluded θ row probe (CSR columns are
            // sorted; the binary search is charged per probe — light never
            // walks the full row, which is its whole point).  Every draw is
            // keyed by token identity with the same (2·step, i) indexing as
            // the alias hybrid.
            let (cols, vals) = theta.row(d);
            let global_doc = (state.layout.range.start + d) as u64;
            let slot = state.token_slot[pos] as u64;
            let token = TokenChain {
                tseed: stable_u64(cfg.seed, self.iteration, (global_doc << 32) | slot),
                c,
                len: state.layout.doc_len(d),
                doc_pos: state.layout.doc_positions(d),
                cols,
                vals,
                probe_cost: (cols.len().max(2) as u64).ilog2() as u64 + 1,
                phi_col: state.phi_global.column(v),
                nk: &state.nk_global,
                proposal,
                alpha: cfg.alpha,
                beta: cfg.beta,
                v_beta: cfg.beta * state.layout.vocab_size as f64,
            };
            let k_new = chain(self, &token, ctx);

            state.z_next[pos].store(k_new as u16, Ordering::Relaxed);
            ctx.write_global(int_bytes); // compressed topic assignment
        }
    }

    /// Draw step `step`'s proposal: even steps propose from the document
    /// (another token's iteration-start topic, mass L_d, or a uniform topic,
    /// mass Kα), odd steps from the stale word table.  Charges the draw and
    /// the evaluation of its proposal ratio.
    #[inline]
    fn propose(&self, t: &TokenChain<'_>, step: usize, ctx: &mut BlockCtx) -> usize {
        let k = self.config.num_topics;
        let int_bytes: u64 = if self.config.compress_16bit { 2 } else { 4 };
        let sstep = step as u64;
        if step.is_multiple_of(2) {
            let alpha_k = self.config.alpha * k as f64;
            let pick = ctx.stable_f32(t.tseed, 2 * sstep, 0) as f64 * (t.len as f64 + alpha_k);
            let u1 = ctx.stable_f32(t.tseed, 2 * sstep, 1);
            ctx.flops(4);
            let kp = if pick < t.len as f64 {
                let j = ((u1 as f64 * t.len as f64) as usize).min(t.len - 1);
                ctx.read_global(4 + int_bytes); // doc map entry + that token's z
                self.state.z[t.doc_pos[j] as usize].load(Ordering::Relaxed) as usize
            } else {
                ((u1 as f64 * k as f64) as usize).min(k - 1)
            };
            // q(k)/q(k') with the fresh self-excluded θ (two probes).
            ctx.int_ops(2 * t.probe_cost);
            ctx.read_l1(2 * t.probe_cost * (int_bytes + 4));
            kp
        } else {
            // Word proposal from the stale table: O(1).
            let u1 = ctx.stable_f32(t.tseed, 2 * sstep, 1);
            let u2 = ctx.stable_f32(t.tseed, 2 * sstep, 2);
            ctx.read_l1(8); // prob + alias of one bucket
            let kp = t.proposal.draw(u1, u2);
            ctx.read_l1(8); // φ̂ snapshot at the two topics
            ctx.flops(4);
            kp
        }
    }

    /// Charge the MH acceptance test of step `step` and draw its uniform.
    #[inline]
    fn accept_draw(&self, t: &TokenChain<'_>, step: usize, ctx: &mut BlockCtx) -> f64 {
        let int_bytes: u64 = if self.config.compress_16bit { 2 } else { 4 };
        ctx.read_l1(2 * (int_bytes + 8)); // fresh φ/n_k at two topics
        ctx.int_ops(2 * t.probe_cost); // θ row probes
        ctx.flops(16);
        ctx.stable_f32(t.tseed, 2 * step as u64 + 1, 3) as f64
    }

    /// The per-token MH chain.  The θ probe, the posterior and the stale
    /// weight of the current topic are kept across steps: each is computed
    /// the first time a step needs it and refreshed on accept from the
    /// values already computed for the proposal, so a rejected or no-move
    /// step evaluates nothing at the current topic twice.  The f64
    /// expressions are the reference chain's, in the same order.
    fn cached_chain(&self, t: &TokenChain<'_>, ctx: &mut BlockCtx) -> usize {
        let (alpha, beta) = (t.alpha, t.beta);
        let mut k_cur = t.c;
        let mut theta_cur: Option<f64> = None;
        let mut post_cur: Option<f64> = None;
        let mut weight_cur: Option<f64> = None;
        for step in 0..self.mh_steps {
            let k_prop = self.propose(t, step, ctx);
            if k_prop == k_cur {
                continue;
            }
            let theta_prop = t.theta_adj(k_prop);
            let theta_k = *theta_cur.get_or_insert_with(|| t.theta_adj(k_cur));
            let (q_ratio, weight_prop) = if step.is_multiple_of(2) {
                ((theta_k + alpha) / (theta_prop + alpha), None)
            } else {
                let w = t.proposal.weight(k_prop, beta);
                let w_cur = *weight_cur.get_or_insert_with(|| t.proposal.weight(k_cur, beta));
                (w_cur / w, Some(w))
            };
            // MH acceptance with the exact fresh posterior masses:
            // accept = p(k')q(k) / (p(k)q(k')).
            let post_prop = t.posterior(theta_prop, k_prop);
            let post_k = *post_cur.get_or_insert_with(|| t.posterior(theta_k, k_cur));
            let accept = post_prop / post_k * q_ratio;
            if self.accept_draw(t, step, ctx) < accept {
                k_cur = k_prop;
                theta_cur = Some(theta_prop);
                post_cur = Some(post_prop);
                weight_cur = weight_prop;
            }
        }
        k_cur
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
    use std::sync::atomic::AtomicU64;

    fn make_state(num_topics: usize, seed: u64) -> ChunkState {
        let corpus = DatasetProfile {
            name: "lightlda".into(),
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
        let cfg = LdaConfig::with_topics(16).sampler(crate::SamplerStrategy::LightLda {
            rebuild_every: 3,
            mh_steps: 4,
            prune_below: 0,
        });
        let sampler = LightLdaSampler::new(3, 4, 0);
        let dev = Device::new(0, DeviceSpec::v100_volta(), 7);

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
    fn pruned_variant_samples_the_same_distribution_family() {
        // A pruned word proposal draws from exactly q(k) ∝ φ̂(k,v) + β: sweep
        // a grid of uniforms and compare the empirical law against the dense
        // representation built from the same counts.
        let counts = vec![0u32, 3, 0, 1, 0, 0, 0, 0];
        let beta = 0.25;
        let dense = WordProposal::build(&counts, beta, 0);
        let pruned = WordProposal::build(&counts, beta, 100);
        assert!(!dense.is_pruned());
        assert!(pruned.is_pruned());
        let k = counts.len();
        let total: f64 = counts.iter().map(|&c| c as f64 + beta).sum();
        let n = 600;
        let mut freq = vec![0usize; k];
        for a in 0..n {
            for b in 0..n {
                let u1 = (a as f32 + 0.5) / n as f32;
                let u2 = (b as f32 + 0.5) / n as f32;
                freq[pruned.draw(u1, u2)] += 1;
            }
        }
        for kk in 0..k {
            let expect = (counts[kk] as f64 + beta) / total;
            let got = freq[kk] as f64 / (n * n) as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "topic {kk}: got {got}, expected {expect}"
            );
            // The acceptance-ratio weights agree exactly between the forms.
            assert_eq!(pruned.weight(kk, beta), dense.weight(kk, beta));
        }
    }

    #[test]
    fn pruning_keys_on_the_global_count_threshold() {
        let state = make_state(16, 5);
        let cfg = LdaConfig::with_topics(16);
        // A huge threshold prunes every word; zero prunes none.
        let pruned = LightLdaSampler::new(4, 4, usize::MAX);
        let dense = LightLdaSampler::new(4, 4, 0);
        let dev = Device::new(0, DeviceSpec::v100_volta(), 7);
        let span_pruned = pruned.prepare_chunk(&dev, &state, &cfg, 0);
        let span_dense = dense.prepare_chunk(&dev, &state, &cfg, 0);
        assert!(span_pruned > 0.0 && span_dense > 0.0);
        // The pruned build writes O(nnz) per word instead of O(K): cheaper.
        assert!(
            span_pruned < span_dense,
            "pruned {span_pruned} vs dense {span_dense}"
        );
        assert!(pruned.tables.tables().built().any(|p| p.is_pruned()));
        assert!(dense.tables.tables().built().all(|p| !p.is_pruned()));
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
        let sampler = LightLdaSampler::new(4, 4, 8);
        let devs = devices();

        assert!(sampler.resume_state().is_none());

        let chunks = shared_chunks(8, 9);
        for (state, dev) in chunks.iter().zip(&devs) {
            assert!(sampler.prepare_chunk(dev, state, &cfg, 0) > 0.0);
        }
        let snapshot = sampler.resume_state().expect("snapshot after rebuild");

        // Every chunk of the resumed run fills its words from the one
        // restored set at no cost ...
        let restored = LightLdaSampler::new(4, 4, 8);
        restored.restore_resume_state(&snapshot);
        let chunks_b = shared_chunks(8, 9);
        for (state, dev) in chunks_b.iter().zip(&devs) {
            assert_eq!(restored.prepare_chunk(dev, state, &cfg, 2), 0.0);
        }

        // ... and samples every chunk bit-identically from it.
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

        for (state, dev) in chunks_b.iter().zip(&devs) {
            assert_eq!(restored.prepare_chunk(dev, state, &cfg, 3), 0.0);
        }
        for (state, dev) in chunks_b.iter().zip(&devs) {
            assert!(restored.prepare_chunk(dev, state, &cfg, 4) > 0.0);
        }
    }

    /// Expected counters of one chunk's word-proposal build: the per-word
    /// charges of [`LightBuildBlock`], summed over the chunk's words.
    fn light_build_charges(
        state: &ChunkState,
        cfg: &LdaConfig,
        set: &StaleTables<WordProposal>,
    ) -> culda_gpusim::CostCounters {
        let k = cfg.num_topics as u64;
        let int_bytes: u64 = if cfg.compress_16bit { 2 } else { 4 };
        let mut c = culda_gpusim::CostCounters::zero();
        for w in chunk_words(&state.layout) {
            let built = match set.get(w as usize) {
                WordProposal::Dense(_) => k,
                WordProposal::Pruned { topics, .. } => topics.len() as u64,
            };
            c.dram_read_bytes += k * int_bytes;
            c.flops += k;
            c.int_ops += built;
            c.dram_write_bytes += built * (8 + int_bytes) + 16;
        }
        c
    }

    #[test]
    fn chunks_share_one_proposal_per_word_and_each_pays_its_own_build() {
        let SamplerStrategy::LightLda {
            rebuild_every,
            mh_steps,
            prune_below,
        } = SamplerStrategy::light_lda_pruned()
        else {
            unreachable!()
        };
        let k = 32;
        let cfg = LdaConfig::with_topics(k);
        let sampler = LightLdaSampler::new(rebuild_every, mh_steps, prune_below);
        let devs = devices();
        let chunks = shared_chunks(k, 4);
        let vocab = chunks[0].layout.vocab_size;
        let owners = |v: usize| {
            chunks
                .iter()
                .filter(|st| st.layout.word_token_count(v) > 0)
                .count()
        };
        // A word of the first chunk that other chunks hold too.
        let shared = chunk_words(&chunks[0].layout)
            .into_iter()
            .map(|w| w as usize)
            .find(|&v| owners(v) >= 2)
            .expect("a word held by several chunks");

        let mut first: Option<(Arc<StaleTables<WordProposal>>, *const WordProposal)> = None;
        for (state, dev) in chunks.iter().zip(&devs) {
            let Prepare::Build(set) = sampler.tables.prepare(state, 0) else {
                panic!("iteration 0 builds every chunk");
            };
            let stats = sampler
                .launch_build(dev, state, &cfg, &set)
                .expect("every chunk holds tokens");
            // The charge does not depend on which chunk built a table.
            assert_eq!(stats.counters, light_build_charges(state, &cfg, &set));
            let (set0, table0) = first.get_or_insert_with(|| (set.clone(), set.get(shared)));
            assert!(Arc::ptr_eq(set0, &set));
            assert!(std::ptr::eq(*table0, set.get(shared)));
        }

        // One table per distinct word, not one per (chunk, word).
        let set = sampler.tables.tables();
        let distinct = (0..vocab).filter(|&v| owners(v) > 0).count();
        let per_chunk: usize = chunks.iter().map(|st| chunk_words(&st.layout).len()).sum();
        assert_eq!(set.built().count(), distinct);
        assert!(distinct < per_chunk);
        assert!(set.built().any(|p| p.is_pruned()) && set.built().any(|p| !p.is_pruned()));

        // The trait entry point charges each chunk's build, then reuses the
        // set until the cadence.
        let again = LightLdaSampler::new(rebuild_every, mh_steps, prune_below);
        for (state, dev) in chunks.iter().zip(&devs) {
            let span = again.prepare_chunk(dev, state, &cfg, 0);
            let charges = light_build_charges(state, &cfg, &again.tables.tables());
            let words = chunk_words(&state.layout).len();
            assert_eq!(span, dev.time_for(&charges, words).total_s);
            assert_eq!(again.prepare_chunk(dev, state, &cfg, 1), 0.0);
        }
    }

    /// The MH chain as it ran before the per-token cache: every step
    /// evaluates θ, the posterior and the stale weight at both topics afresh.
    /// Counts the steps it takes as `[accepted, rejected, no-move]`.
    fn stepwise_chain(
        block: &LightSampleBlock<'_>,
        t: &TokenChain<'_>,
        ctx: &mut BlockCtx,
        seen: &[AtomicU64; 3],
    ) -> usize {
        let cfg = block.config;
        let k = cfg.num_topics;
        let alpha = cfg.alpha;
        let beta = cfg.beta;
        let alpha_k = alpha * k as f64;
        let int_bytes: u64 = if cfg.compress_16bit { 2 } else { 4 };
        let (len, tseed, probe_cost) = (t.len, t.tseed, t.probe_cost);
        let posterior = |kk: usize| (t.theta_adj(kk) + alpha) * t.fresh(kk);
        let mut k_cur = t.c;
        for step in 0..block.mh_steps {
            let sstep = step as u64;
            let (k_prop, q_ratio) = if step % 2 == 0 {
                let pick = ctx.stable_f32(tseed, 2 * sstep, 0) as f64 * (len as f64 + alpha_k);
                let u1 = ctx.stable_f32(tseed, 2 * sstep, 1);
                ctx.flops(4);
                let kp = if pick < len as f64 {
                    let j = ((u1 as f64 * len as f64) as usize).min(len - 1);
                    ctx.read_global(4 + int_bytes);
                    block.state.z[t.doc_pos[j] as usize].load(Ordering::Relaxed) as usize
                } else {
                    ((u1 as f64 * k as f64) as usize).min(k - 1)
                };
                ctx.int_ops(2 * probe_cost);
                ctx.read_l1(2 * probe_cost * (int_bytes + 4));
                let q_new = t.theta_adj(kp) + alpha;
                let q_old = t.theta_adj(k_cur) + alpha;
                (kp, q_old / q_new)
            } else {
                let u1 = ctx.stable_f32(tseed, 2 * sstep, 1);
                let u2 = ctx.stable_f32(tseed, 2 * sstep, 2);
                ctx.read_l1(8);
                let kp = t.proposal.draw(u1, u2);
                ctx.read_l1(8);
                ctx.flops(4);
                let q_new = t.proposal.weight(kp, beta);
                let q_old = t.proposal.weight(k_cur, beta);
                (kp, q_old / q_new)
            };
            if k_prop == k_cur {
                seen[2].fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let accept = posterior(k_prop) / posterior(k_cur) * q_ratio;
            ctx.read_l1(2 * (int_bytes + 8));
            ctx.int_ops(2 * probe_cost);
            ctx.flops(16);
            if (ctx.stable_f32(tseed, 2 * sstep + 1, 3) as f64) < accept {
                seen[0].fetch_add(1, Ordering::Relaxed);
                k_cur = k_prop;
            } else {
                seen[1].fetch_add(1, Ordering::Relaxed);
            }
        }
        k_cur
    }

    /// [`LightSampleBlock`] running [`stepwise_chain`].
    struct StepwiseBlock<'a> {
        block: LightSampleBlock<'a>,
        seen: [AtomicU64; 3],
    }

    impl BlockKernel for StepwiseBlock<'_> {
        fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
            self.block.run_block_with(block_id, ctx, |b, t, ctx| {
                stepwise_chain(b, t, ctx, &self.seen)
            });
        }
    }

    #[test]
    fn cached_chain_matches_the_stepwise_oracle_bit_for_bit() {
        for (k, seed) in [(8, 31), (64, 32), (512, 33)] {
            let state = make_state(k, seed);
            let cfg = LdaConfig::with_topics(k);
            let items = build_work_items(&state.layout, cfg.max_tokens_per_block);
            for prune_below in [0, usize::MAX] {
                for mh_steps in [1, 2, 3, 5] {
                    let sampler = LightLdaSampler::new(4, mh_steps, prune_below);
                    let dev = Device::new(0, DeviceSpec::v100_volta(), 7);
                    assert!(sampler.prepare_chunk(&dev, &state, &cfg, 0) > 0.0);
                    let tables = sampler.tables.tables();
                    assert!(tables.built().all(|p| p.is_pruned() == (prune_below > 0)));
                    let block = || LightSampleBlock {
                        state: &state,
                        items: &items,
                        config: &cfg,
                        iteration: 1,
                        mh_steps,
                        tables: tables.clone(),
                    };
                    let grid = LaunchConfig::new(items.len());
                    let cached = dev.launch("cached", grid, &block());
                    let z_cached = z_next(&state);
                    let oracle = StepwiseBlock {
                        block: block(),
                        seen: Default::default(),
                    };
                    let reference = dev.launch("stepwise", grid, &oracle);
                    let at = format!("K = {k}, prune_below = {prune_below}, mh_steps = {mh_steps}");
                    assert_eq!(z_cached, z_next(&state), "{at}");
                    assert_eq!(cached.counters, reference.counters, "{at}");
                    // The corpus exercises every branch of the chain.
                    let [accepted, rejected, no_move] = oracle.seen.map(AtomicU64::into_inner);
                    assert!(
                        accepted > 0 && rejected > 0 && no_move > 0,
                        "{at}: accepted {accepted}, rejected {rejected}, no-move {no_move}"
                    );
                }
            }
        }
    }

    #[test]
    fn light_sampling_avoids_the_per_token_theta_row_walk() {
        // At large K and long documents, the light kernel's per-token cost
        // is O(mh_steps · log K_d) instead of O(K_d): the off-chip traffic
        // must come in clearly under both the sparse kernel (which also pays
        // the per-word O(K) tree build) and the alias hybrid's sparse pass.
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

        let light = LightLdaSampler::new(8, 4, 0);
        light.prepare_chunk(&dev, &state, &cfg, 0);
        let light_stats = dev.launch(
            "Sampling",
            LaunchConfig::new(items.len()),
            &light.sampling_kernel(&state, &items, &cfg, 1),
        );
        assert!(
            (light_stats.counters.dram_read_bytes as f64)
                < sparse_stats.counters.dram_read_bytes as f64 * 0.5,
            "light {} vs sparse {}",
            light_stats.counters.dram_read_bytes,
            sparse_stats.counters.dram_read_bytes
        );
    }

    #[test]
    #[should_panic(expected = "prepare_chunk")]
    fn sampling_before_prepare_is_a_bug() {
        let state = make_state(8, 1);
        let cfg = LdaConfig::with_topics(8);
        let items = build_work_items(&state.layout, cfg.max_tokens_per_block);
        let sampler = LightLdaSampler::new(4, 4, 0);
        let _ = sampler.sampling_kernel(&state, &items, &cfg, 0);
    }

    /// The burn-in sweep as it ran over a row-major `K × V` φ, reading a
    /// word's topic counts at a stride of V: the oracle the column sweep
    /// must match bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn row_major_burn_in(
        sampler: &LightLdaSampler,
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
        let alpha_k = alpha * k as f64;
        let stream = BURN_STREAM_BASE - sweep as u64;
        let v_beta = beta * phi.cols() as f64;
        let len = words.len();

        // Stale snapshot at sweep start, for the document's distinct words.
        let mut stale: BTreeMap<u32, WordProposal> = BTreeMap::new();
        for &w in words {
            stale.entry(w).or_insert_with(|| {
                let counts: Vec<u32> = (0..k).map(|kk| phi.get(kk, w as usize)).collect();
                WordProposal::build(&counts, beta, sampler.prune_below)
            });
        }

        for (slot, &w) in words.iter().enumerate() {
            let w = w as usize;
            let c = z[slot] as usize;
            // Remove the token: the MH chain targets p^{¬token}.
            theta_d[c] -= 1;
            *phi.get_mut(c, w) -= 1;
            nk[c] -= 1;

            let proposal = &stale[&(w as u32)];
            let fresh = |kk: usize| (phi.get(kk, w) as f64 + beta) / (nk[kk] as f64 + v_beta);
            let posterior = |kk: usize| (theta_d[kk] as f64 + alpha) * fresh(kk);

            let tseed = stable_u64(config.seed, stream, (uid << 32) | slot as u64);
            let mut k_cur = c;
            for step in 0..sampler.mh_steps {
                let sstep = step as u64;
                let (k_prop, q_ratio) = if step % 2 == 0 {
                    // Doc proposal q(k) ∝ θ_{d,k} + α, drawn O(1): the topic
                    // of a random token of this document (including the
                    // current one, as the reference implementation does) or
                    // a uniform topic from the smoothing mass.
                    let pick = stable_f32(tseed, 2 * sstep, 0) as f64 * (len as f64 + alpha_k);
                    let u1 = stable_f32(tseed, 2 * sstep, 1);
                    let kp = if pick < len as f64 {
                        let j = ((u1 as f64 * len as f64) as usize).min(len - 1);
                        z[j] as usize
                    } else {
                        ((u1 as f64 * k as f64) as usize).min(k - 1)
                    };
                    let q_new = theta_d[kp] as f64 + alpha;
                    let q_old = theta_d[k_cur] as f64 + alpha;
                    (kp, q_old / q_new)
                } else {
                    // Word proposal q(k) ∝ φ̂_{k,v} + β from the stale table.
                    let u1 = stable_f32(tseed, 2 * sstep, 1);
                    let u2 = stable_f32(tseed, 2 * sstep, 2);
                    let kp = proposal.draw(u1, u2);
                    let q_new = proposal.weight(kp, beta);
                    let q_old = proposal.weight(k_cur, beta);
                    (kp, q_old / q_new)
                };
                if k_prop == k_cur {
                    continue;
                }
                let accept = posterior(k_prop) / posterior(k_cur) * q_ratio;
                if (stable_f32(tseed, 2 * sstep + 1, 3) as f64) < accept {
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
        // Unpruned, a mix of pruned and dense word proposals, all pruned.
        for prune_below in [0, 40, 1 << 20] {
            for (k, mh_steps) in [(8, 2), (64, 4)] {
                let config = LdaConfig::with_topics(k).seed(17 + k as u64);
                let sampler = LightLdaSampler::new(8, mh_steps, prune_below);
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
}
