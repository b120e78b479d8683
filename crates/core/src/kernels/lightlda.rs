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
use crate::model::ChunkState;
use crate::work::{chunk_words, WorkItem};
use culda_gpusim::rng::{stable_f32, stable_u64};
use culda_gpusim::{BlockCtx, BlockKernel, Device, LaunchConfig};
use culda_sparse::{AliasTable, DenseMatrix, StaleAliasProposal};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
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

/// The stale per-word proposals of one chunk, tagged with the iteration they
/// were built at.
struct ChunkTables {
    built_at: u64,
    /// `WordProposal` per word id (`None` for words without tokens in the
    /// chunk).
    proposals: Vec<Option<WordProposal>>,
}

/// The global φ̂ snapshot the stale word proposals were last built from.
/// Checkpoints carry this (per-chunk proposals are a deterministic function
/// of it); unlike the alias hybrid no topic totals are needed, because the
/// `n_k + Vβ` normalizer cancels from the `q_w` acceptance ratio.
struct TablesSnapshot {
    built_at: u64,
    phi_hat: DenseMatrix<u32>,
    /// True when restored from a checkpoint rather than captured live; only
    /// a restored snapshot may satisfy a chunk's missing tables without a
    /// device build (the uninterrupted run paid that build already).
    restored: bool,
}

/// LightLDA cycled doc-/word-proposal Metropolis–Hastings sampler
/// ([`crate::SamplerStrategy::LightLda`]).  See the [module
/// docs](crate::kernels::lightlda) for the algorithm and determinism
/// argument.
pub struct LightLdaSampler {
    rebuild_every: u64,
    mh_steps: usize,
    prune_below: usize,
    chunks: Mutex<BTreeMap<usize, Arc<ChunkTables>>>,
    snapshot: Mutex<Option<Arc<TablesSnapshot>>>,
}

impl LightLdaSampler {
    /// A sampler rebuilding its stale word proposals every `rebuild_every`
    /// iterations, running `mh_steps` MH steps per token, and pruning words
    /// below `prune_below` global tokens to the sparse tail representation
    /// (`0` disables pruning).
    pub fn new(rebuild_every: usize, mh_steps: usize, prune_below: usize) -> Self {
        assert!(rebuild_every >= 1, "rebuild_every must be at least 1");
        assert!(mh_steps >= 1, "mh_steps must be at least 1");
        LightLdaSampler {
            rebuild_every: rebuild_every as u64,
            mh_steps,
            prune_below,
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

    /// The configured vocabulary-pruning threshold (0 = disabled).
    pub fn prune_below(&self) -> usize {
        self.prune_below
    }

    /// Same cadence rule as the alias hybrid: always build when no tables
    /// exist yet, otherwise rebuild on multiples of the cadence.
    fn needs_rebuild(&self, built_at: Option<u64>, iteration: u64) -> bool {
        match built_at {
            None => true,
            Some(at) => iteration > at && iteration.is_multiple_of(self.rebuild_every),
        }
    }

    /// Reconstruct one chunk's proposals from a restored snapshot through
    /// the same [`WordProposal::build`] the device kernel runs, on the same
    /// `u32` counts — bit-identical to the tables the uninterrupted run
    /// held.
    fn proposals_from_snapshot(
        &self,
        snap: &TablesSnapshot,
        state: &ChunkState,
        config: &LdaConfig,
    ) -> Vec<Option<WordProposal>> {
        let k = config.num_topics;
        let mut proposals: Vec<Option<WordProposal>> = Vec::with_capacity(state.layout.vocab_size);
        proposals.resize_with(state.layout.vocab_size, || None);
        for w in chunk_words(&state.layout) {
            let v = w as usize;
            let counts: Vec<u32> = (0..k).map(|kk| snap.phi_hat.get(kk, v)).collect();
            proposals[v] = Some(WordProposal::build(&counts, config.beta, self.prune_below));
        }
        proposals
    }
}

impl SamplerKernel for LightLdaSampler {
    fn name(&self) -> &'static str {
        crate::kernels::names::SAMPLING
    }

    /// Rebuild the chunk's stale word proposals on the configured cadence by
    /// launching the word-proposal build kernel on `device`; returns the
    /// simulated build span (0 on non-rebuild iterations).
    fn prepare_chunk(
        &self,
        device: &Device,
        state: &ChunkState,
        config: &LdaConfig,
        iteration: u64,
    ) -> f64 {
        let built_at = self.chunks.lock().get(&state.chunk_id).map(|t| t.built_at);
        if built_at.is_none() {
            // After a checkpoint resume the restored snapshot stands in for
            // the tables the uninterrupted run would still be holding:
            // reconstruct host-side at zero cost (the original build was
            // paid before the checkpoint) unless the resume lands on a
            // rebuild iteration anyway.
            let restored = self
                .snapshot
                .lock()
                .clone()
                .filter(|s| s.restored && s.phi_hat.cols() == state.layout.vocab_size);
            if let Some(snap) = restored {
                if !self.needs_rebuild(Some(snap.built_at), iteration) {
                    let proposals = self.proposals_from_snapshot(&snap, state, config);
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
        let mut proposals: Vec<Option<WordProposal>> = Vec::with_capacity(state.layout.vocab_size);
        proposals.resize_with(state.layout.vocab_size, || None);
        let span = if words.is_empty() {
            0.0
        } else {
            let slots: Vec<Mutex<Option<WordProposal>>> =
                (0..words.len()).map(|_| Mutex::new(None)).collect();
            let build = LightBuildBlock {
                state,
                config,
                prune_below: self.prune_below,
                words: &words,
                slots: &slots,
            };
            let stats = device.launch(
                crate::kernels::names::LIGHT_BUILD,
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
        // Capture the snapshot behind this rebuild once per rebuild
        // iteration (every chunk reads the one synchronized φ).
        {
            let mut snap = self.snapshot.lock();
            if snap
                .as_ref()
                .is_none_or(|s| s.restored || s.built_at != iteration)
            {
                *snap = Some(Arc::new(TablesSnapshot {
                    built_at: iteration,
                    phi_hat: state.phi_global.to_dense(),
                    restored: false,
                }));
            }
        }
        span
    }

    /// The φ̂ snapshot behind the current word proposals (`None` until the
    /// first rebuild ever runs).
    fn resume_state(&self) -> Option<SamplerResumeState> {
        self.snapshot
            .lock()
            .as_ref()
            .map(|s| SamplerResumeState::LightWordTables {
                built_at: s.built_at,
                phi_hat: s.phi_hat.clone(),
            })
    }

    /// Install a checkpointed snapshot; the next
    /// [`SamplerKernel::prepare_chunk`] of each chunk reconstructs its
    /// proposals from it, keeping the resumed run bit-exact and on the
    /// original rebuild cadence.
    fn restore_resume_state(&self, state: &SamplerResumeState) {
        // States captured by other portfolio members are ignored (checkpoint
        // validation rejects such mismatches before they get here anyway).
        if let SamplerResumeState::LightWordTables { built_at, phi_hat } = state {
            *self.snapshot.lock() = Some(Arc::new(TablesSnapshot {
                built_at: *built_at,
                phi_hat: phi_hat.clone(),
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
        Box::new(LightSampleBlock {
            state,
            items,
            config,
            iteration,
            mh_steps: self.mh_steps,
            tables,
        })
    }

    /// Iteration 0 always pays a full word-proposal build; steady state pays
    /// it only every `rebuild_every` iterations.
    fn predict_steady_compute_s(&self, measured_compute_s: f64, measured_setup_s: f64) -> f64 {
        (measured_compute_s - measured_setup_s).max(0.0)
            + measured_setup_s / self.rebuild_every as f64
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
            let fresh = |kk: usize| (phi.get(kk, w) as f64 + beta) / (nk[kk] as f64 + v_beta);
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
/// or the pruned sparse-tail form).
struct LightBuildBlock<'a> {
    state: &'a ChunkState,
    config: &'a LdaConfig,
    prune_below: usize,
    /// Words with tokens in this chunk, one per block.
    words: &'a [u32],
    /// Output slot per block.
    slots: &'a [Mutex<Option<WordProposal>>],
}

impl BlockKernel for LightBuildBlock<'_> {
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
        let v = self.words[block_id] as usize;
        let k = self.config.num_topics;
        let int_bytes: u64 = if self.config.compress_16bit { 2 } else { 4 };

        // The column scan is unavoidable (the counts live there); what the
        // pruned form saves is the table construction and its footprint.
        let counts: Vec<u32> = self
            .state
            .phi_global
            .column(v)
            .iter()
            .map(|phi_kv| phi_kv.load(Ordering::Relaxed))
            .collect();
        ctx.read_global(k as u64 * int_bytes); // φ̂[·, v]
        ctx.flops(k as u64); // accumulate the column total
        let proposal = WordProposal::build(&counts, self.config.beta, self.prune_below);
        let built = match &proposal {
            WordProposal::Dense(_) => k as u64,
            WordProposal::Pruned { topics, .. } => topics.len() as u64,
        };
        ctx.int_ops(built); // Vose small/large queue maintenance
        ctx.write_global(built * (8 + int_bytes) + 16); // prob + alias + φ̂ snapshot (+ masses)
        *self.slots[block_id].lock() = Some(proposal);
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
    tables: Arc<ChunkTables>,
}

impl BlockKernel for LightSampleBlock<'_> {
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
        let item = &self.items[block_id];
        if item.is_empty() {
            return;
        }
        let state = self.state;
        let cfg = self.config;
        let v = item.word as usize;
        let k = cfg.num_topics;
        let alpha = cfg.alpha;
        let beta = cfg.beta;
        let alpha_k = alpha * k as f64;
        let v_beta = beta * state.layout.vocab_size as f64;
        let int_bytes: u64 = if cfg.compress_16bit { 2 } else { 4 };

        let proposal = self.tables.proposals[v]
            .as_ref()
            .expect("word proposals cover every word with tokens in the chunk");
        ctx.read_global(16); // proposal masses, once per block

        let theta = state.theta.read();
        for pos in item.start..item.end {
            let pos = pos as usize;
            let d = state.layout.token_doc[pos] as usize;
            ctx.read_global(4); // token → document index
            let c = state.z[pos].load(Ordering::Relaxed) as usize;
            ctx.read_global(int_bytes); // current topic assignment
            let len = state.layout.doc_len(d);
            let doc_pos = state.layout.doc_positions(d);
            ctx.read_global(8); // doc_ptr[d], doc_ptr[d+1]

            // Fresh p*(k) with the token's own count removed, and the
            // self-excluded θ row probe (CSR columns are sorted; the binary
            // search is charged per probe — light never walks the full row,
            // which is its whole point).
            let phi_mat = &state.phi_global;
            let nk = &state.nk_global;
            let fresh = |kk: usize| {
                let self_count = if kk == c { 1.0 } else { 0.0 };
                ((phi_mat.load(kk, v) as f64 - self_count).max(0.0) + beta)
                    / ((nk.get(kk) as f64 - self_count).max(0.0) + v_beta)
            };
            let (cols, vals) = theta.row(d);
            let kd = cols.len();
            let probe_cost = (kd.max(2) as u64).ilog2() as u64 + 1;
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
            let posterior = |kk: usize| (theta_adj(kk) + alpha) * fresh(kk);

            // Per-token MH chain, every draw keyed by token identity with
            // the same (2·step, i) indexing as the alias hybrid.
            let global_doc = (state.layout.range.start + d) as u64;
            let slot = state.token_slot[pos] as u64;
            let tseed = stable_u64(cfg.seed, self.iteration, (global_doc << 32) | slot);

            let mut k_cur = c;
            for step in 0..self.mh_steps {
                let sstep = step as u64;
                let (k_prop, q_ratio) = if step % 2 == 0 {
                    // Doc proposal: another token's iteration-start topic
                    // (mass L_d) or a uniform topic (mass Kα).
                    let pick = ctx.stable_f32(tseed, 2 * sstep, 0) as f64 * (len as f64 + alpha_k);
                    let u1 = ctx.stable_f32(tseed, 2 * sstep, 1);
                    ctx.flops(4);
                    let kp = if pick < len as f64 {
                        let j = ((u1 as f64 * len as f64) as usize).min(len - 1);
                        ctx.read_global(4 + int_bytes); // doc map entry + that token's z
                        state.z[doc_pos[j] as usize].load(Ordering::Relaxed) as usize
                    } else {
                        ((u1 as f64 * k as f64) as usize).min(k - 1)
                    };
                    // q(k)/q(k') with the fresh self-excluded θ (two probes).
                    ctx.int_ops(2 * probe_cost);
                    ctx.read_l1(2 * probe_cost * (int_bytes + 4));
                    let q_new = theta_adj(kp) + alpha;
                    let q_old = theta_adj(k_cur) + alpha;
                    (kp, q_old / q_new)
                } else {
                    // Word proposal from the stale table: O(1).
                    let u1 = ctx.stable_f32(tseed, 2 * sstep, 1);
                    let u2 = ctx.stable_f32(tseed, 2 * sstep, 2);
                    ctx.read_l1(8); // prob + alias of one bucket
                    let kp = proposal.draw(u1, u2);
                    ctx.read_l1(8); // φ̂ snapshot at the two topics
                    ctx.flops(4);
                    let q_new = proposal.weight(kp, beta);
                    let q_old = proposal.weight(k_cur, beta);
                    (kp, q_old / q_new)
                };
                if k_prop == k_cur {
                    continue;
                }
                // MH acceptance with the exact fresh posterior masses:
                // accept = p(k')q(k) / (p(k)q(k')).
                let accept = posterior(k_prop) / posterior(k_cur) * q_ratio;
                ctx.read_l1(2 * (int_bytes + 8)); // fresh φ/n_k at two topics
                ctx.int_ops(2 * probe_cost); // θ row probes
                ctx.flops(16);
                if (ctx.stable_f32(tseed, 2 * sstep + 1, 3) as f64) < accept {
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
        state.phi_global.copy_from(&state.phi_local);
        state.nk_global.store_all(&state.nk_local.to_vec());
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
        let chunks = pruned.chunks.lock();
        let tables = chunks.get(&0).unwrap();
        assert!(tables.proposals.iter().flatten().any(|p| p.is_pruned()));
        let chunks = dense.chunks.lock();
        let tables = chunks.get(&0).unwrap();
        assert!(tables.proposals.iter().flatten().all(|p| !p.is_pruned()));
    }

    #[test]
    fn restored_snapshot_resumes_mid_cadence_without_a_rebuild() {
        let cfg = LdaConfig::with_topics(8);
        let sampler = LightLdaSampler::new(4, 4, 8);
        let dev = Device::new(0, DeviceSpec::v100_volta(), 1);

        assert!(sampler.resume_state().is_none());

        let state = make_state(8, 9);
        assert!(sampler.prepare_chunk(&dev, &state, &cfg, 0) > 0.0);
        let snapshot = sampler.resume_state().expect("snapshot after rebuild");

        let restored = LightLdaSampler::new(4, 4, 8);
        restored.restore_resume_state(&snapshot);
        let state_b = make_state(8, 9);
        assert_eq!(restored.prepare_chunk(&dev, &state_b, &cfg, 2), 0.0);

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

        assert_eq!(restored.prepare_chunk(&dev, &state_b, &cfg, 3), 0.0);
        assert!(restored.prepare_chunk(&dev, &state_b, &cfg, 4) > 0.0);
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
}
