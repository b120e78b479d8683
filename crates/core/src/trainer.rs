//! The top-level CuLDA_CGS trainer (the training engine of Figure 3).
//!
//! Trainers are constructed through [`crate::session::SessionBuilder`].
//!
//! ```no_run
//! use culda_core::{LdaConfig, SessionBuilder};
//! use culda_corpus::DatasetProfile;
//! use culda_gpusim::{DeviceSpec, MultiGpuSystem};
//!
//! let corpus = DatasetProfile::nytimes().scaled_to_tokens(200_000).generate(42);
//! let mut trainer = SessionBuilder::new()
//!     .corpus(&corpus)
//!     .config(LdaConfig::with_topics(128))
//!     .system(MultiGpuSystem::single(DeviceSpec::v100_volta(), 42))
//!     .build()
//!     .unwrap();
//! trainer.train(100);
//! println!("simulated time: {:.2}s", trainer.sim_time_s());
//! ```

use crate::config::LdaConfig;
use crate::kernels::{sampler_for, SamplerKernel, SamplerResumeState};
use crate::model::{check_recount, ChunkState, TopicTotals};
use crate::schedule::{run_iteration, IterationStats, ScheduleKind};
use crate::sync::{HierarchicalSyncPlan, SyncPlan};
use crate::work::{build_work_items, WorkItem};
use culda_corpus::{ChunkLayout, Corpus, Partitioner};
use culda_gpusim::MultiGpuSystem;
use culda_sparse::{AtomicMatrix, CsrBuilder, CsrMatrix, DenseMatrix};
use rayon::prelude::*;
use std::sync::Arc;

/// Errors produced while constructing a trainer.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainerError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// Even the largest supported `M` cannot fit a chunk in device memory.
    DeviceMemoryTooSmall {
        /// Estimated bytes required for the smallest feasible working set.
        required: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// The corpus holds no tokens.
    EmptyCorpus,
}

impl std::fmt::Display for TrainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainerError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            TrainerError::DeviceMemoryTooSmall { required, capacity } => write!(
                f,
                "device memory too small: needs {required} bytes, capacity {capacity} bytes"
            ),
            TrainerError::EmptyCorpus => write!(f, "corpus contains no tokens"),
        }
    }
}

impl std::error::Error for TrainerError {}

/// The CuLDA_CGS trainer: owns the chunk states, the (simulated) GPU system
/// and the training loop of Algorithm 1.
pub struct CuLdaTrainer {
    config: LdaConfig,
    system: MultiGpuSystem,
    states: Vec<Arc<ChunkState>>,
    work_items: Vec<Vec<WorkItem>>,
    schedule: ScheduleKind,
    sync_plan: HierarchicalSyncPlan,
    /// The pluggable sampling-kernel implementation
    /// ([`LdaConfig::sampler`]); owns whatever per-chunk state the strategy
    /// keeps between iterations (e.g. stale alias tables).
    sampler: Arc<dyn SamplerKernel>,
    vocab_size: usize,
    num_docs: usize,
    total_tokens: u64,
    history: Vec<IterationStats>,
    /// Iterations completed before this trainer was constructed (non-zero
    /// only when resumed from a checkpoint); keeps the counter-based RNG's
    /// iteration streams from ever being reused across a resume.
    base_iteration: u64,
    /// True while the sync plan is still to be picked from iteration 0's
    /// measured compute span — on a multi-GPU system, when either the shard
    /// count (`LdaConfig::sync_shards == None`) or, on a multi-node cluster
    /// with the hierarchical sync, the fabric group count
    /// (`LdaConfig::sync_inter_groups == None`) is left to the tuner;
    /// cleared once `auto_tune_sync_plan` has run.
    auto_tune_shards: bool,
}

impl CuLdaTrainer {
    /// Build a trainer (what [`crate::session::SessionBuilder`] calls):
    /// validates the configuration, chooses `M` (chunks per GPU) from the
    /// device memory capacity as §5.1 prescribes, partitions the corpus by
    /// token count, preprocesses every chunk into its word-major layout and
    /// initialises the topic assignments, which fills the one synchronized
    /// φ every chunk shares.  `init` optionally restores an explicit assignment
    /// snapshot (`z[doc][token]`, original token order, covering exactly
    /// this corpus) together with the iteration counter to continue the RNG
    /// streams from, and `sampler_state` optionally replays checkpointed
    /// sampler-internal state (e.g. the alias hybrid's stale tables) into
    /// the freshly built sampler so a mid-cadence resume is bit-exact.
    pub(crate) fn from_parts<R: AsRef<[u16]> + Sync>(
        corpus: &Corpus,
        config: LdaConfig,
        system: MultiGpuSystem,
        init: Option<(&[R], u64)>,
        sampler_state: Option<&SamplerResumeState>,
    ) -> Result<Self, TrainerError> {
        let start_iteration = match init {
            None => 0,
            Some((z, start_iteration)) => {
                Self::validate_assignments(corpus, &config, z)?;
                start_iteration
            }
        };
        let mut trainer = Self::build(corpus, config, system, init.map(|(z, _)| z), sampler_state)?;
        trainer.base_iteration = start_iteration;
        Ok(trainer)
    }

    fn validate_assignments<R: AsRef<[u16]>>(
        corpus: &Corpus,
        config: &LdaConfig,
        z: &[R],
    ) -> Result<(), TrainerError> {
        if z.len() != corpus.num_docs() {
            return Err(TrainerError::InvalidConfig(format!(
                "assignment snapshot covers {} documents, corpus has {}",
                z.len(),
                corpus.num_docs()
            )));
        }
        for (d, zd) in z.iter().map(AsRef::as_ref).enumerate() {
            if zd.len() != corpus.doc(d).len() {
                return Err(TrainerError::InvalidConfig(format!(
                    "assignment snapshot row {d} has {} tokens, document has {}",
                    zd.len(),
                    corpus.doc(d).len()
                )));
            }
            if zd.iter().any(|&k| k as usize >= config.num_topics) {
                return Err(TrainerError::InvalidConfig(format!(
                    "assignment snapshot row {d} assigns a topic ≥ K = {}",
                    config.num_topics
                )));
            }
        }
        Ok(())
    }

    fn build<R: AsRef<[u16]> + Sync>(
        corpus: &Corpus,
        mut config: LdaConfig,
        system: MultiGpuSystem,
        init: Option<&[R]>,
        sampler_state: Option<&SamplerResumeState>,
    ) -> Result<Self, TrainerError> {
        config.validate().map_err(TrainerError::InvalidConfig)?;
        if corpus.num_tokens() == 0 {
            return Err(TrainerError::EmptyCorpus);
        }
        // Resolve `Auto` to a concrete portfolio member from corpus-level
        // statistics before any kernel exists.  The choice is a pure
        // function of the corpus and K — never of topology or timings — and
        // the resolved strategy is what `config()` (and therefore every
        // checkpoint) carries, so a resumed run never re-decides.
        crate::kernels::portfolio::resolve_auto_sampler(&mut config, corpus);

        let g = system.num_gpus();
        let m = match config.chunks_per_gpu {
            Some(m) => m,
            None => Self::choose_chunks_per_gpu(corpus, &config, &system)?,
        };
        let num_chunks = m * g;
        let schedule = if m == 1 {
            ScheduleKind::Resident
        } else {
            ScheduleKind::Streamed { chunks_per_gpu: m }
        };

        // Partition by document, balanced by token count (§4).
        let partitioner = Partitioner::by_tokens(corpus, num_chunks);

        // Build every chunk's layout, state and work list, the chunks
        // concurrently on the pool (a lone chunk splits its own passes
        // instead), and initialise the assignments.  The initial topics come
        // from the counter-based generator keyed by each token's
        // (document, slot) identity, so the initialisation — like the
        // sampling draws — is identical for every chunking of the corpus.
        // Every chunk adds its tokens into, and later samples from, the one
        // synchronized φ / n_k pair allocated here; those adds are integer
        // atomics, so the order the chunks run in cannot change them.
        let phi_global = Arc::new(AtomicMatrix::zeros(config.num_topics, corpus.vocab_size()));
        let nk_global = Arc::new(TopicTotals::zeros(config.num_topics));
        let (states, work_items): (Vec<Arc<ChunkState>>, Vec<Vec<WorkItem>>) = (0..num_chunks)
            .into_par_iter()
            .map(|i| {
                let layout = ChunkLayout::build(corpus, partitioner.ranges()[i]);
                let state =
                    ChunkState::with_globals(i, layout, phi_global.clone(), nk_global.clone());
                match init {
                    None => state.random_init_stable(&config, config.seed),
                    Some(z) => state.init_from_assignments(z),
                }
                let items = build_work_items(&state.layout, config.max_tokens_per_block);
                (Arc::new(state), items)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .unzip();

        // Register the resident working set with the device memory trackers.
        for (i, state) in states.iter().enumerate() {
            let device = system.device(i % g);
            let bytes = state.device_bytes(config.compress_16bit);
            let name = format!("chunk{i}");
            if m == 1 {
                device.memory.alloc(&name, bytes).map_err(|e| {
                    TrainerError::DeviceMemoryTooSmall {
                        required: e.requested,
                        capacity: e.capacity,
                    }
                })?;
            }
        }

        let sync_plan = HierarchicalSyncPlan::from_config(&config, corpus.vocab_size());
        let tune_groups = system.num_nodes() > 1
            && config.hierarchical_sync
            && config.sync_inter_groups.is_none();
        let auto_tune_shards =
            (config.sync_shards.is_none() || tune_groups) && system.num_gpus() > 1;
        let sampler = sampler_for(&config);
        if let Some(state) = sampler_state {
            sampler.restore_resume_state(state);
        }

        Ok(CuLdaTrainer {
            sampler,
            vocab_size: corpus.vocab_size(),
            num_docs: corpus.num_docs(),
            total_tokens: corpus.num_tokens() as u64,
            config,
            system,
            states,
            work_items,
            schedule,
            sync_plan,
            history: Vec::new(),
            base_iteration: 0,
            auto_tune_shards,
        })
    }

    /// Pick the smallest `M` such that the working set fits in device memory
    /// (`M = 1` needs one resident chunk; `M > 1` needs room for two chunks
    /// because of the double-buffered streaming, §5.1).
    fn choose_chunks_per_gpu(
        corpus: &Corpus,
        config: &LdaConfig,
        system: &MultiGpuSystem,
    ) -> Result<usize, TrainerError> {
        let g = system.num_gpus() as u64;
        let capacity = system.device(0).spec.mem_capacity_bytes;
        let phi_elem: u64 = if config.compress_16bit { 2 } else { 4 };
        // Two φ matrices (the GPU's contribution and its replica of the
        // synchronized φ) plus topic totals live on every GPU regardless of M.
        let phi_bytes = 2 * (config.num_topics as u64 * corpus.vocab_size() as u64 * phi_elem)
            + config.num_topics as u64 * 16;
        // Per-token chunk footprint: word-major corpus (4), doc map (4),
        // token_doc (4), z + z_next (2×2), θ entry upper bound (6).
        let per_token: u64 = 4 + 4 + 4 + 4 + 6;
        let corpus_bytes = corpus.num_tokens() as u64 * per_token
            + corpus.num_docs() as u64 * 8
            + corpus.vocab_size() as u64 * 4;

        for m in 1..=1024u64 {
            let chunk_bytes = corpus_bytes.div_ceil(m * g);
            let resident = if m == 1 { chunk_bytes } else { 2 * chunk_bytes };
            if phi_bytes + resident <= capacity {
                return Ok(m as usize);
            }
        }
        Err(TrainerError::DeviceMemoryTooSmall {
            required: phi_bytes + corpus_bytes.div_ceil(1024 * g) * 2,
            capacity,
        })
    }

    /// The schedule (Resident ↔ `WorkSchedule1`, Streamed ↔ `WorkSchedule2`)
    /// the trainer selected.
    pub fn schedule(&self) -> ScheduleKind {
        self.schedule
    }

    /// The φ synchronization plan currently in effect: the shard layout plus
    /// the hierarchical flag and the inter-node fabric group count (which
    /// only matter on a multi-node [`MultiGpuSystem::clustered`] system).
    /// With an explicit `LdaConfig::sync_shards(S)` the shard count is fixed
    /// for the whole run (clamped to the vocabulary); with the auto-tuned
    /// default (`sync_shards == None`) iteration 0 runs dense and the plan is
    /// replaced by the tuned one before iteration 1 (see
    /// [`CuLdaTrainer::run_iteration`]).
    pub fn hier_sync_plan(&self) -> HierarchicalSyncPlan {
        self.sync_plan
    }

    /// Candidate shard counts the auto-tuner evaluates (reused as the
    /// candidate fabric group counts on a cluster, capped at the shard
    /// count).
    const AUTO_SHARD_CANDIDATES: [usize; 5] = [1, 2, 4, 8, 16];

    /// Pick the synchronization plan from iteration 0's measured compute
    /// span (the ROADMAP follow-up to the PR-3 sharding): for each candidate
    /// shard count `S` — and, on a multi-node cluster with the hierarchical
    /// schedule, each candidate fabric group count `G ≤ S` — predict the
    /// iteration span with exactly the machinery the scheduler runs:
    /// token-balanced shard ranges, the per-shard tree costs of the system's
    /// collective model (two-tier on a cluster, with each group's fabric
    /// exchange folded into its last shard), and the overlapped-span
    /// pipeline.  Keep the fastest; ties go to fewer shards and coarser
    /// groups, and `S = 1` is always a candidate, so latency-bound
    /// configurations where sharding loses stay dense.  A knob the
    /// configuration fixes explicitly is held fixed and only the free ones
    /// are searched.  The choice affects *timing only*: sharding and the
    /// sync hierarchy are bit-neutral for the sampled assignments
    /// (DESIGN.md §8 and §14), which is what makes a timing-driven knob safe
    /// under the determinism contract.
    fn auto_tune_sync_plan(&self, measured_compute_s: f64) -> HierarchicalSyncPlan {
        let depth = self.config.sync_overlap_depth;
        let word_tokens = crate::sync::global_word_tokens(&self.states);
        let hierarchical = self.config.hierarchical_sync;
        let shard_candidates: Vec<usize> = match self.config.sync_shards {
            Some(s) => vec![s],
            None => Self::AUTO_SHARD_CANDIDATES.to_vec(),
        };
        let mut best_span = f64::INFINITY;
        let mut best_plan = HierarchicalSyncPlan::from_config(&self.config, self.vocab_size);
        for &candidate in &shard_candidates {
            let shards = candidate.clamp(1, self.vocab_size.max(1));
            let base = SyncPlan::new(shards, depth);
            let ranges = base.token_balanced_ranges(&word_tokens);
            let shard_bytes = crate::sync::shard_bytes(
                self.config.num_topics,
                &ranges,
                self.config.compress_16bit,
            );
            let group_candidates: Vec<usize> = if !(hierarchical && self.system.num_nodes() > 1) {
                vec![1]
            } else if let Some(g) = self.config.sync_inter_groups {
                vec![g.clamp(1, ranges.len())]
            } else {
                let mut gs: Vec<usize> = Self::AUTO_SHARD_CANDIDATES
                    .iter()
                    .copied()
                    .filter(|&g| g <= ranges.len())
                    .collect();
                if gs.is_empty() {
                    gs.push(1);
                }
                gs
            };
            for &groups in &group_candidates {
                let plan = HierarchicalSyncPlan::new(base, hierarchical, groups);
                let (per_shard, _, _) =
                    crate::sync::hier_shard_times(&self.system, &shard_bytes, &plan);
                let span = if base.overlaps() {
                    let weights = crate::schedule::shard_token_weights(&word_tokens, &ranges);
                    let compute_shards: Vec<f64> =
                        weights.iter().map(|w| measured_compute_s * w).collect();
                    culda_gpusim::overlapped_span_s(&compute_shards, &per_shard, depth)
                } else {
                    measured_compute_s + per_shard.iter().sum::<f64>()
                };
                if span < best_span {
                    best_span = span;
                    best_plan = plan;
                }
            }
        }
        best_plan
    }

    /// The run configuration.
    pub fn config(&self) -> &LdaConfig {
        &self.config
    }

    /// The pluggable sampler kernel driving this trainer's sampling launches
    /// (selected by [`LdaConfig::sampler`]).
    pub fn sampler_kernel(&self) -> &dyn SamplerKernel {
        &*self.sampler
    }

    /// The simulated GPU system the trainer runs on.
    pub fn system(&self) -> &MultiGpuSystem {
        &self.system
    }

    /// Number of corpus chunks (`C = M × G`).
    pub fn num_chunks(&self) -> usize {
        self.states.len()
    }

    /// Total tokens in the corpus.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Vocabulary size `V`.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Number of documents `D`.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Total training iterations this model state has absorbed, including
    /// iterations run before a checkpoint resume.
    pub fn completed_iterations(&self) -> u64 {
        self.base_iteration + self.history.len() as u64
    }

    /// Accumulated simulated training time.
    pub fn sim_time_s(&self) -> f64 {
        // A fold from +0.0, not `sum()`: an empty `f64` sum is −0.0, which
        // prints as `-0.000`.
        self.history.iter().fold(0.0, |a, h| a + h.sim_time_s)
    }

    /// Per-iteration statistics recorded so far.
    pub fn history(&self) -> &[IterationStats] {
        &self.history
    }

    /// Run one training iteration (a full pass over every token).
    ///
    /// Under the auto-tuned synchronization default
    /// (`LdaConfig::sync_shards == None`), the first iteration of a
    /// multi-GPU trainer runs the dense §5.2 reduce, and its measured
    /// compute span drives the cost-model prediction that picks the plan
    /// every later iteration uses (see `auto_tune_sync_plan` and
    /// DESIGN.md §8).
    pub fn run_iteration(&mut self) -> IterationStats {
        let stats = run_iteration(
            &self.states,
            &self.work_items,
            &self.system,
            &self.config,
            &*self.sampler,
            self.schedule,
            &self.sync_plan,
            self.base_iteration + self.history.len() as u64,
        );
        if std::mem::take(&mut self.auto_tune_shards) {
            // Iteration 0 may have paid one-off sampler setup (e.g. a full
            // alias-table build); let the sampler amortise it before the
            // span prediction, so periodic work does not skew the plan.
            let steady = self
                .sampler
                .predict_steady_compute_s(stats.compute_time_s, stats.sampler_setup_time_s);
            self.sync_plan = self.auto_tune_sync_plan(steady);
        }
        self.history.push(stats);
        stats
    }

    /// Run `iterations` iterations and return the recorded statistics.
    pub fn train(&mut self, iterations: usize) -> &[IterationStats] {
        for _ in 0..iterations {
            self.run_iteration();
        }
        self.history()
    }

    /// Run `iterations` iterations, invoking `callback(iteration_index,
    /// stats, trainer)` after each one (used to record convergence
    /// timelines without re-implementing the loop).
    pub fn train_with(
        &mut self,
        iterations: usize,
        mut callback: impl FnMut(usize, IterationStats, &Self),
    ) {
        for i in 0..iterations {
            let stats = self.run_iteration();
            callback(i, stats, self);
        }
    }

    /// The topic assignment of every token, per document in corpus order and
    /// per token in original document order — regardless of how the corpus
    /// is chunked internally.  Two trainers with the same seed produce the
    /// same snapshot whatever their GPU topology; the determinism tests in
    /// `culda-testkit` rely on exactly this.
    pub fn z_snapshot(&self) -> Vec<Vec<u16>> {
        let mut docs: Vec<Vec<u16>> = self
            .states
            .iter()
            .flat_map(|state| {
                let layout = &state.layout;
                (0..layout.num_docs()).map(|d| vec![0; layout.doc_positions(d).len()])
            })
            .collect();
        self.copy_z_into(docs.iter_mut().map(Vec::as_mut_slice));
        docs
    }

    /// Write the assignments into `rows`, one per document in the order and
    /// shape of [`CuLdaTrainer::z_snapshot`], without allocating.
    pub(crate) fn copy_z_into<'a>(&self, rows: impl IntoIterator<Item = &'a mut [u16]>) {
        let mut rows = rows.into_iter();
        for state in &self.states {
            for d in 0..state.layout.num_docs() {
                let row = rows.next().expect("a row for every document");
                let positions = state.layout.doc_positions(d);
                debug_assert_eq!(row.len(), positions.len(), "row length of a document");
                for (dst, &pos) in row.iter_mut().zip(positions) {
                    *dst = state.z[pos as usize].load(std::sync::atomic::Ordering::Relaxed);
                }
            }
        }
        debug_assert!(rows.next().is_none(), "more rows than documents");
    }

    /// The full document–topic matrix θ (documents in corpus order).
    pub fn merged_theta(&self) -> CsrMatrix {
        let mut builder = CsrBuilder::new(self.num_docs, self.config.num_topics);
        builder.reserve_nnz(self.total_tokens as usize);
        for state in &self.states {
            let theta = state.theta.read();
            for d in 0..theta.rows() {
                let (cols, vals) = theta.row(d);
                builder.push_sorted_row(cols, vals);
            }
        }
        builder.finish()
    }

    /// The synchronized global topic–word matrix φ (`K × V`).
    pub fn global_phi(&self) -> DenseMatrix<u32> {
        self.states[0].phi_global.to_dense()
    }

    /// The global topic totals `n_k`.
    pub fn global_nk(&self) -> Vec<i64> {
        self.states[0].nk_global.to_vec()
    }

    /// The shared φ / n_k pair every chunk reads and updates, φ word-major.
    pub(crate) fn shared_counts(&self) -> (&AtomicMatrix, &TopicTotals) {
        (&self.states[0].phi_global, &self.states[0].nk_global)
    }

    /// Drop the trainer and keep its φ / n_k.  Only the chunks share φ, so
    /// once they are gone it changes hands without a copy.
    pub(crate) fn into_counts(self) -> (AtomicMatrix, Vec<i64>) {
        let nk = self.global_nk();
        let phi = Arc::clone(&self.states[0].phi_global);
        drop(self);
        let phi = Arc::try_unwrap(phi).expect("only the trainer's chunks share φ");
        (phi, nk)
    }

    /// The `n` highest-count words of a topic (for qualitative inspection).
    pub fn top_words(&self, topic: usize, n: usize) -> Vec<(u32, u32)> {
        let phi = &self.states[0].phi_global;
        let mut pairs: Vec<(u32, u32)> = (0..phi.cols())
            .map(|w| (w as u32, phi.load(topic, w)))
            .filter(|&(_, c)| c > 0)
            .collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(n);
        pairs
    }

    /// Per-iteration throughput in tokens/second (Eq. 2, the y-axis of Fig. 7).
    pub fn throughput_per_iteration(&self) -> Vec<f64> {
        self.history
            .iter()
            .map(|h| h.tokens_processed as f64 / h.sim_time_s)
            .collect()
    }

    /// Average tokens/second over the first `n` recorded iterations (Table 4).
    pub fn average_throughput(&self, n: usize) -> f64 {
        let n = n.min(self.history.len());
        if n == 0 {
            return 0.0;
        }
        let time: f64 = self.history[..n].iter().map(|h| h.sim_time_s).sum();
        let tokens: f64 = self.history[..n]
            .iter()
            .map(|h| h.tokens_processed as f64)
            .sum();
        tokens / time
    }

    /// Per-kernel execution-time breakdown across all devices (Table 5).
    pub fn kernel_breakdown(&self) -> Vec<(String, f64)> {
        self.system.aggregate_breakdown()
    }

    /// Verify the count invariants (used by integration tests and exposed
    /// for callers who want to assert invariants mid-run): every θ row sums
    /// to its document's length, θ covers the corpus, and φ and n_k equal a
    /// recount of every chunk's `z`, cell for cell.
    pub fn validate(&self) -> Result<(), String> {
        for state in &self.states {
            state.validate_theta()?;
        }
        let theta_total = self.merged_theta().total();
        if theta_total != self.total_tokens {
            return Err(format!(
                "merged θ covers {theta_total} tokens, corpus has {}",
                self.total_tokens
            ));
        }
        check_recount(&self.states)
    }
}

/// Everything a trainer holds right after construction, in comparable
/// form: per chunk the layout (token slots included), `z`, `z_next`, θ and
/// the work list, plus the shared φ and n_k.
#[cfg(test)]
#[derive(Debug, PartialEq)]
pub(crate) struct BuiltState {
    layouts: Vec<ChunkLayout>,
    z: Vec<Vec<u16>>,
    z_next: Vec<Vec<u16>>,
    theta: Vec<CsrMatrix>,
    work_items: Vec<Vec<WorkItem>>,
    phi: DenseMatrix<u32>,
    nk: Vec<i64>,
}

#[cfg(test)]
impl CuLdaTrainer {
    pub(crate) fn built_state(&self) -> BuiltState {
        use std::sync::atomic::Ordering;
        let plain = |z: &[std::sync::atomic::AtomicU16]| -> Vec<u16> {
            z.iter().map(|t| t.load(Ordering::Relaxed)).collect()
        };
        BuiltState {
            layouts: self.states.iter().map(|s| s.layout.clone()).collect(),
            z: self.states.iter().map(|s| plain(&s.z)).collect(),
            z_next: self.states.iter().map(|s| plain(&s.z_next)).collect(),
            theta: self.states.iter().map(|s| s.theta.read().clone()).collect(),
            work_items: self.work_items.clone(),
            phi: self.global_phi(),
            nk: self.global_nk(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use culda_corpus::DatasetProfile;
    use culda_gpusim::{ClusterSystem, DeviceSpec, Interconnect};

    /// Run `op` with every parallel region pinned to `threads` OS threads.
    pub(crate) fn with_threads<R>(threads: usize, op: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(op)
    }

    type Case = (Corpus, LdaConfig, fn() -> MultiGpuSystem);

    /// The construction cases: a one-chunk NYTimes-shaped corpus large
    /// enough that every pass splits at 2 and 8 threads, and a tail-heavy
    /// corpus on a 2 × 2 cluster whose `Auto` sampler resolves to pruned
    /// light MH, built as four concurrent chunks.
    fn construction_cases() -> Vec<Case> {
        let nyt = DatasetProfile::nytimes()
            .scaled_to_tokens(300_000)
            .generate(31);
        let tail = DatasetProfile {
            name: "tail".into(),
            num_docs: 800,
            vocab_size: 6_000,
            avg_doc_len: 20.0,
            zipf_exponent: 1.05,
            doc_len_sigma: 0.4,
        }
        .generate(32);
        vec![
            (nyt, LdaConfig::with_topics(64).seed(3), || {
                MultiGpuSystem::single(DeviceSpec::v100_volta(), 3)
            }),
            (
                tail,
                LdaConfig::with_topics(512)
                    .seed(4)
                    .sampler(crate::SamplerStrategy::Auto),
                || {
                    ClusterSystem::homogeneous(
                        DeviceSpec::titan_xp_pascal(),
                        2,
                        2,
                        4,
                        Interconnect::Pcie3,
                        Interconnect::Ethernet10G,
                    )
                    .into_system()
                },
            ),
        ]
    }

    #[test]
    fn construction_is_bit_identical_at_any_thread_count() {
        for (corpus, config, system) in construction_cases() {
            let fresh = || build(&corpus, config.clone(), system()).unwrap();
            let reference = with_threads(1, fresh);
            reference.validate().unwrap();
            let chunks = reference.num_chunks();
            if chunks > 1 {
                assert_eq!(chunks, 4);
                assert!(
                    matches!(
                        reference.config().sampler,
                        crate::SamplerStrategy::LightLda { prune_below, .. } if prune_below > 0
                    ),
                    "Auto resolved to {}",
                    reference.config().sampler
                );
            }
            let expected = reference.built_state();

            // A resume from assignments that are not the random init.
            let mut trained = with_threads(1, fresh);
            trained.train(1);
            let z = trained.z_snapshot();
            let resume = || {
                CuLdaTrainer::from_parts(&corpus, config.clone(), system(), Some((&z, 1)), None)
                    .unwrap()
            };
            let resumed = with_threads(1, resume).built_state();

            for threads in [2, 8] {
                let got = with_threads(threads, fresh).built_state();
                assert!(
                    got == expected,
                    "random init differs at {threads} threads ({chunks} chunks)"
                );
                let got = with_threads(threads, resume).built_state();
                assert!(
                    got == resumed,
                    "resume differs at {threads} threads ({chunks} chunks)"
                );
            }
        }
    }

    /// The construction path `SessionBuilder::build` calls.
    fn build(
        corpus: &Corpus,
        config: LdaConfig,
        system: MultiGpuSystem,
    ) -> Result<CuLdaTrainer, TrainerError> {
        CuLdaTrainer::from_parts(corpus, config, system, None::<(&[Vec<u16>], u64)>, None)
    }

    fn small_corpus() -> Corpus {
        DatasetProfile {
            name: "trainer".into(),
            num_docs: 150,
            vocab_size: 120,
            avg_doc_len: 18.0,
            zipf_exponent: 1.05,
            doc_len_sigma: 0.4,
        }
        .generate(33)
    }

    #[test]
    fn trainer_initialises_consistently() {
        let corpus = small_corpus();
        let system = MultiGpuSystem::single(DeviceSpec::titan_x_maxwell(), 1);
        let trainer = build(&corpus, LdaConfig::with_topics(16).seed(5), system).unwrap();
        assert_eq!(trainer.schedule(), ScheduleKind::Resident);
        assert_eq!(trainer.num_chunks(), 1);
        assert_eq!(trainer.total_tokens(), corpus.num_tokens() as u64);
        trainer.validate().unwrap();
    }

    #[test]
    fn training_improves_likelihood_and_sparsifies_theta() {
        let corpus = small_corpus();
        let system = MultiGpuSystem::single(DeviceSpec::v100_volta(), 2);
        let mut trainer = build(&corpus, LdaConfig::with_topics(16).seed(7), system).unwrap();
        let cfg = trainer.config().clone();
        let ll_before = culda_metrics::log_likelihood(
            &trainer.merged_theta(),
            &trainer.global_phi(),
            &trainer.global_nk(),
            cfg.alpha,
            cfg.beta,
        )
        .per_token();
        let nnz_before = trainer.merged_theta().nnz();
        trainer.train(12);
        trainer.validate().unwrap();
        let ll_after = culda_metrics::log_likelihood(
            &trainer.merged_theta(),
            &trainer.global_phi(),
            &trainer.global_nk(),
            cfg.alpha,
            cfg.beta,
        )
        .per_token();
        let nnz_after = trainer.merged_theta().nnz();
        assert!(ll_after > ll_before, "LL {ll_before} → {ll_after}");
        assert!(nnz_after < nnz_before, "θ nnz {nnz_before} → {nnz_after}");
        assert_eq!(trainer.history().len(), 12);
        assert!(trainer.sim_time_s() > 0.0);
        assert!(trainer.average_throughput(12) > 0.0);
    }

    #[test]
    fn multi_gpu_trainer_distributes_chunks_round_robin() {
        let corpus = small_corpus();
        let system =
            MultiGpuSystem::homogeneous(DeviceSpec::titan_xp_pascal(), 4, 11, Interconnect::Pcie3);
        let mut trainer = build(&corpus, LdaConfig::with_topics(8).seed(1), system).unwrap();
        assert_eq!(trainer.num_chunks(), 4);
        trainer.train(3);
        trainer.validate().unwrap();
        // Every device must have recorded some sampling time.
        for d in trainer.system().devices() {
            assert!(d.busy_time_s() > 0.0, "device {} idle", d.id);
        }
    }

    #[test]
    fn every_chunk_shares_one_synchronized_phi() {
        let corpus = small_corpus();
        for (gpus, chunks_per_gpu) in [(4, 1), (4, 3)] {
            let system = MultiGpuSystem::homogeneous(
                DeviceSpec::titan_xp_pascal(),
                gpus,
                11,
                Interconnect::Pcie3,
            );
            let config = LdaConfig::with_topics(8)
                .seed(1)
                .chunks_per_gpu(chunks_per_gpu);
            let mut trainer = build(&corpus, config, system).unwrap();
            assert_eq!(trainer.num_chunks(), gpus * chunks_per_gpu);
            trainer.train(2);
            let first = &trainer.states[0];
            for state in &trainer.states {
                assert!(Arc::ptr_eq(&state.phi_global, &first.phi_global));
                assert!(Arc::ptr_eq(&state.nk_global, &first.nk_global));
            }
            // The chunks hold the only references: no other K × V copy.
            assert_eq!(Arc::strong_count(&first.phi_global), trainer.num_chunks());
            assert_eq!(Arc::strong_count(&first.nk_global), trainer.num_chunks());
            trainer.validate().unwrap();
        }
    }

    #[test]
    fn validate_catches_a_count_moved_between_topics() {
        let corpus = small_corpus();
        let system = MultiGpuSystem::single(DeviceSpec::v100_volta(), 4);
        let mut trainer = build(&corpus, LdaConfig::with_topics(8).seed(4), system).unwrap();
        trainer.train(2);
        trainer.validate().unwrap();
        // Move one count of the first word between two topics: the φ total,
        // the word's column sum and n_k are unchanged.
        let phi = &trainer.states[0].phi_global;
        let from = (0..8).find(|&t| phi.load(t, 0) > 0).unwrap();
        let to = (from + 1) % 8;
        phi.fetch_sub(from, 0, 1);
        phi.fetch_add(to, 0, 1);
        assert_eq!(phi.to_dense().total(), trainer.total_tokens());
        let err = trainer.validate().unwrap_err();
        assert!(err.contains("recount"), "{err}");
    }

    #[test]
    fn forced_streaming_schedule_is_respected() {
        let corpus = small_corpus();
        let system = MultiGpuSystem::single(DeviceSpec::gtx_1080(), 3);
        let mut trainer = build(
            &corpus,
            LdaConfig::with_topics(8).seed(3).chunks_per_gpu(3),
            system,
        )
        .unwrap();
        assert_eq!(
            trainer.schedule(),
            ScheduleKind::Streamed { chunks_per_gpu: 3 }
        );
        assert_eq!(trainer.num_chunks(), 3);
        let stats = trainer.run_iteration();
        assert!(stats.transfer_time_s > 0.0);
        trainer.validate().unwrap();
    }

    #[test]
    fn invalid_configs_and_empty_corpora_are_rejected() {
        let corpus = small_corpus();
        let system = MultiGpuSystem::single(DeviceSpec::v100_volta(), 0);
        assert!(matches!(
            build(&corpus, LdaConfig::with_topics(1), system),
            Err(TrainerError::InvalidConfig(_))
        ));
        let empty = culda_corpus::CorpusBuilder::new(10).build();
        let system = MultiGpuSystem::single(DeviceSpec::v100_volta(), 0);
        assert!(matches!(
            build(&empty, LdaConfig::with_topics(4), system),
            Err(TrainerError::EmptyCorpus)
        ));
    }

    #[test]
    fn top_words_are_sorted_by_count() {
        let corpus = small_corpus();
        let system = MultiGpuSystem::single(DeviceSpec::v100_volta(), 5);
        let mut trainer = build(&corpus, LdaConfig::with_topics(8).seed(9), system).unwrap();
        trainer.train(3);
        let top = trainer.top_words(0, 5);
        assert!(top.len() <= 5);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn auto_tune_stays_dense_where_sharding_loses() {
        // Tiny replica on a tiny corpus: the per-shard round latencies
        // dominate, so the predicted span is minimised by the dense plan —
        // the tuner must not make the run slower than S = 1.
        let corpus = small_corpus();
        let mk_system = || {
            MultiGpuSystem::homogeneous(DeviceSpec::titan_xp_pascal(), 4, 2, Interconnect::Pcie3)
        };
        let mut auto = build(&corpus, LdaConfig::with_topics(16).seed(2), mk_system()).unwrap();
        assert!(auto.hier_sync_plan().is_dense(), "iteration 0 runs dense");
        auto.train(4);
        let mut dense = build(
            &corpus,
            LdaConfig::with_topics(16).seed(2).sync_shards(1),
            mk_system(),
        )
        .unwrap();
        dense.train(4);
        // Bit-neutrality holds whatever the tuner picked...
        assert_eq!(auto.z_snapshot(), dense.z_snapshot());
        // ...and on this latency-bound configuration it must pick dense.
        assert!(
            auto.hier_sync_plan().is_dense(),
            "latency-bound run must stay dense, got {:?}",
            auto.hier_sync_plan()
        );
        assert!(auto.sim_time_s() <= dense.sim_time_s() * (1.0 + 1e-9));
        // Single-GPU runs never auto-shard (there is nothing to reduce).
        let single = build(
            &corpus,
            LdaConfig::with_topics(16).seed(2),
            MultiGpuSystem::single(DeviceSpec::v100_volta(), 2),
        )
        .unwrap();
        assert!(single.hier_sync_plan().is_dense());
    }

    #[test]
    fn auto_tune_shards_where_the_overlap_wins_and_never_slows_the_run() {
        // The bandwidth-bound regime of tests/sharded_sync.rs: a φ replica
        // large enough that the reduce is bandwidth-dominated and a corpus
        // heavy enough that sampling can hide the per-shard reduces.
        let corpus = DatasetProfile {
            name: "auto-tune".into(),
            num_docs: 900,
            vocab_size: 4000,
            avg_doc_len: 330.0,
            zipf_exponent: 1.05,
            doc_len_sigma: 0.4,
        }
        .generate(11);
        let mk_system = || {
            MultiGpuSystem::homogeneous(DeviceSpec::titan_xp_pascal(), 4, 11, Interconnect::Pcie3)
        };
        let mut auto = build(&corpus, LdaConfig::with_topics(160).seed(11), mk_system()).unwrap();
        auto.train(3);
        let mut dense = build(
            &corpus,
            LdaConfig::with_topics(160).seed(11).sync_shards(1),
            mk_system(),
        )
        .unwrap();
        dense.train(3);
        assert_eq!(
            auto.z_snapshot(),
            dense.z_snapshot(),
            "sharding is bit-neutral"
        );
        assert!(
            auto.hier_sync_plan().shards() > 1,
            "bandwidth-bound run should auto-shard, got {:?}",
            auto.hier_sync_plan()
        );
        // Iteration 0 is identical (dense measurement pass); the prediction
        // uses the same cost model the scheduler charges, so the tuned
        // iterations can only be at least as fast as the dense ones.
        assert!(
            auto.sim_time_s() <= dense.sim_time_s() * (1.0 + 1e-9),
            "auto {} vs dense {}",
            auto.sim_time_s(),
            dense.sim_time_s()
        );
    }

    #[test]
    fn kernel_breakdown_is_dominated_by_sampling() {
        // A corpus with realistic document lengths: sampling cost per token is
        // proportional to K_d, which is what makes it dominate (Table 5).
        let corpus = DatasetProfile {
            name: "breakdown".into(),
            num_docs: 1500,
            vocab_size: 300,
            avg_doc_len: 60.0,
            zipf_exponent: 1.05,
            doc_len_sigma: 0.4,
        }
        .generate(8);
        let system = MultiGpuSystem::single(DeviceSpec::titan_x_maxwell(), 5);
        let mut trainer = build(&corpus, LdaConfig::with_topics(64).seed(9), system).unwrap();
        trainer.train(5);
        let breakdown = trainer.kernel_breakdown();
        assert_eq!(breakdown[0].0, crate::kernels::names::SAMPLING);
        assert!(breakdown[0].1 > 50.0, "sampling only {}%", breakdown[0].1);
    }
}
