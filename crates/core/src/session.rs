//! Session construction and streaming/online training.
//!
//! This module is the front door of the crate.  [`SessionBuilder`] fluently
//! assembles a corpus, an [`LdaConfig`] and a (simulated) [`MultiGpuSystem`]
//! and then either:
//!
//! * [`SessionBuilder::build`] — a batch [`TrainingSession`] (the classic
//!   train-N-iterations workflow of the paper), or
//! * [`SessionBuilder::build_streaming`] — a [`StreamingSession`]: a live
//!   model that accepts **mini-batch ingestion** of new documents, **retires**
//!   old ones, and **rotates checkpoints** so the process can die and resume
//!   exactly (`DESIGN.md` §9).
//!
//! ```
//! use culda_core::{LdaConfig, SessionBuilder};
//! use culda_corpus::{DatasetProfile, Document};
//! use culda_gpusim::{DeviceSpec, MultiGpuSystem};
//!
//! // Batch: the whole corpus up front.
//! let corpus = DatasetProfile::nytimes().scaled_to_tokens(2_000).generate(7);
//! let mut trainer = SessionBuilder::new()
//!     .corpus(&corpus)
//!     .config(LdaConfig::with_topics(8).seed(7))
//!     .system(MultiGpuSystem::single(DeviceSpec::v100_volta(), 7))
//!     .build()
//!     .unwrap();
//! trainer.train(2);
//!
//! // Streaming: start empty, feed documents as they arrive.
//! let mut session = SessionBuilder::new()
//!     .config(LdaConfig::with_topics(8).seed(7))
//!     .system(MultiGpuSystem::single(DeviceSpec::v100_volta(), 7))
//!     .build_streaming()
//!     .unwrap();
//! let uids = session.ingest(&[
//!     Document::new(vec![0u32, 1, 2, 1]),
//!     Document::new(vec![2u32, 3, 3]),
//! ]);
//! session.train(2).unwrap();
//! session.retire(&uids[..1]).unwrap();
//! assert_eq!(session.stats().live_docs, 1);
//! session.validate().unwrap();
//! ```
//!
//! ## Why determinism survives ingestion batching
//!
//! Every random draw a [`StreamingSession`] makes is a counter-based pure
//! function of `(seed, stream, document uid, slot)`.  Document uids are
//! assigned by a monotone counter that never depends on how documents are
//! grouped into [`StreamingSession::ingest`] calls, and each ingested
//! document is initialised and Gibbs-burnt-in **sequentially in uid order**
//! against the evolving global φ.  Ingesting `[a, b] + [c]` therefore
//! executes the exact same sequence of draws and count updates as ingesting
//! `[a, b, c]` — bit for bit — and training afterwards sees identical state.

use crate::checkpoint::{rotation, ModelCheckpoint};
use crate::config::{LdaConfig, SamplerStrategy};
use crate::inference::TopicInferencer;
use crate::kernels::{sampler_for, SamplerKernel, SamplerResumeState};
use crate::model::ChunkState;
use crate::schedule::IterationStats;
use crate::serve::{ModelSnapshots, SnapshotShared};
use crate::trainer::{CuLdaTrainer, TrainerError};
use culda_corpus::{Corpus, CorpusBuilder, Document};
use culda_gpusim::rng::stable_u64;
use culda_gpusim::MultiGpuSystem;
use culda_sparse::{AtomicMatrix, CsrBuilder, CsrMatrix, DenseMatrix};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// A batch training session.
///
/// The batch path is exactly the CuLDA_CGS trainer of Figure 3; the alias
/// names the role it plays next to [`StreamingSession`] in the builder API.
pub type TrainingSession = CuLdaTrainer;

/// Errors produced by streaming sessions.
#[derive(Debug)]
pub enum SessionError {
    /// Constructing or rebuilding the underlying trainer failed.
    Trainer(TrainerError),
    /// Reading or validating a rotated checkpoint failed.
    Checkpoint(crate::checkpoint::CheckpointError),
    /// Reading or writing a corpus snapshot failed.
    Corpus(culda_corpus::SnapshotError),
    /// Filesystem failure while rotating or resuming.
    Io(io::Error),
    /// The request conflicts with the session state (unknown uid, empty
    /// session, corrupt rotation metadata, ...).
    State(String),
    /// The model failed validation while freezing a serving snapshot
    /// ([`StreamingSession::publish_snapshot`]).
    Inference(crate::inference::InferenceError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Trainer(e) => write!(f, "trainer error: {e}"),
            SessionError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            SessionError::Corpus(e) => write!(f, "corpus snapshot error: {e}"),
            SessionError::Io(e) => write!(f, "io error: {e}"),
            SessionError::State(msg) => write!(f, "session state error: {msg}"),
            SessionError::Inference(e) => write!(f, "snapshot publication error: {e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Trainer(e) => Some(e),
            SessionError::Checkpoint(e) => Some(e),
            SessionError::Corpus(e) => Some(e),
            SessionError::Io(e) => Some(e),
            SessionError::State(_) => None,
            SessionError::Inference(e) => Some(e),
        }
    }
}

impl From<crate::inference::InferenceError> for SessionError {
    fn from(e: crate::inference::InferenceError) -> Self {
        SessionError::Inference(e)
    }
}

impl From<io::Error> for SessionError {
    fn from(e: io::Error) -> Self {
        SessionError::Io(e)
    }
}

impl From<TrainerError> for SessionError {
    fn from(e: TrainerError) -> Self {
        SessionError::Trainer(e)
    }
}

impl From<crate::checkpoint::CheckpointError> for SessionError {
    fn from(e: crate::checkpoint::CheckpointError) -> Self {
        SessionError::Checkpoint(e)
    }
}

impl From<culda_corpus::SnapshotError> for SessionError {
    fn from(e: culda_corpus::SnapshotError) -> Self {
        SessionError::Corpus(e)
    }
}

/// Knobs specific to streaming sessions (set through [`SessionBuilder`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingOptions {
    /// Collapsed-Gibbs sweeps each ingested document is burnt in with
    /// against the current global φ before it joins regular training.
    /// `0` skips the burn-in: documents enter with their stable random
    /// initialisation only, which makes an ingest-everything-then-train
    /// streaming run bit-identical to a batch [`TrainingSession`].
    pub burn_in_sweeps: usize,
    /// Directory checkpoints are rotated into on the iteration cadence.
    pub checkpoint_dir: Option<PathBuf>,
    /// Rotate a checkpoint every this many completed training iterations
    /// (requires `checkpoint_dir`).
    pub checkpoint_every: Option<usize>,
    /// How many rotated checkpoints to retain.
    pub keep_last: usize,
}

impl Default for StreamingOptions {
    fn default() -> Self {
        StreamingOptions {
            burn_in_sweeps: 1,
            checkpoint_dir: None,
            checkpoint_every: None,
            keep_last: 3,
        }
    }
}

/// Fluent construction of training sessions — the crate's entry point, and
/// the only way to construct a [`CuLdaTrainer`].  See the
/// [module docs](crate::session) for examples of both the batch and the
/// streaming path.
#[derive(Debug, Default)]
pub struct SessionBuilder {
    corpus: Option<Corpus>,
    config: Option<LdaConfig>,
    system: Option<MultiGpuSystem>,
    assignments: Option<(Vec<Vec<u16>>, u64)>,
    sampler_state: Option<SamplerResumeState>,
    streaming: StreamingOptions,
}

impl SessionBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The corpus to train on (cloned into the session).  Required for
    /// [`SessionBuilder::build`]; optional for
    /// [`SessionBuilder::build_streaming`], where it becomes the first
    /// ingested mini-batch.
    pub fn corpus(mut self, corpus: &Corpus) -> Self {
        self.corpus = Some(corpus.clone());
        self
    }

    /// The run configuration (defaults to `LdaConfig::with_topics(128)`).
    pub fn config(mut self, config: LdaConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Override the configuration's RNG seed (convenience; applies on top of
    /// whatever `config` is set).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config = Some(
            self.config
                .unwrap_or_else(|| LdaConfig::with_topics(128))
                .seed(seed),
        );
        self
    }

    /// The simulated GPU system to run on.  Required.
    pub fn system(mut self, system: MultiGpuSystem) -> Self {
        self.system = Some(system);
        self
    }

    /// Restore an explicit per-document assignment snapshot
    /// (`z[doc][token]`, original token order) instead of random
    /// initialisation, continuing the iteration counter from
    /// `start_iteration` — the checkpoint-resume path for batch sessions.
    pub fn assignments(mut self, z: Vec<Vec<u16>>, start_iteration: u64) -> Self {
        self.assignments = Some((z, start_iteration));
        self
    }

    /// Restore checkpointed sampler-internal state
    /// ([`crate::ModelCheckpoint::sampler_state`]) alongside the assignment
    /// snapshot, so a sampler that keeps state between iterations — the
    /// alias hybrid's stale tables — resumes mid-cadence bit-exactly
    /// instead of rebuilding fresh tables from the current φ.  `None` is
    /// accepted (and is all a memoryless sampler ever has).
    pub fn sampler_state(mut self, state: Option<SamplerResumeState>) -> Self {
        self.sampler_state = state;
        self
    }

    /// Select the sampler-kernel implementation (convenience; applies on top
    /// of whatever `config` is set, like [`SessionBuilder::seed`]).  Both
    /// the batch trainer and the streaming session — including its ingest
    /// burn-in — route through the selected
    /// [`crate::kernels::SamplerKernel`].
    pub fn sampler(mut self, sampler: SamplerStrategy) -> Self {
        self.config = Some(
            self.config
                .unwrap_or_else(|| LdaConfig::with_topics(128))
                .sampler(sampler),
        );
        self
    }

    /// Burn-in sweeps per ingested document (streaming only; default 1).
    pub fn burn_in_sweeps(mut self, sweeps: usize) -> Self {
        self.streaming.burn_in_sweeps = sweeps;
        self
    }

    /// Rotate CLDM checkpoint snapshots into `dir` every `every` completed
    /// training iterations, keeping the most recent
    /// [`StreamingOptions::keep_last`] (streaming only).
    pub fn checkpoint_cadence(mut self, dir: impl Into<PathBuf>, every: usize) -> Self {
        self.streaming.checkpoint_dir = Some(dir.into());
        self.streaming.checkpoint_every = Some(every.max(1));
        self
    }

    /// How many rotated checkpoints to retain (streaming only; default 3).
    pub fn keep_last(mut self, keep: usize) -> Self {
        self.streaming.keep_last = keep.max(1);
        self
    }

    fn config_or_default(config: Option<LdaConfig>) -> LdaConfig {
        config.unwrap_or_else(|| LdaConfig::with_topics(128))
    }

    /// Build a batch [`TrainingSession`] over the configured corpus.
    pub fn build(self) -> Result<TrainingSession, TrainerError> {
        let corpus = self.corpus.ok_or_else(|| {
            TrainerError::InvalidConfig(
                "a batch session needs a corpus (SessionBuilder::corpus)".into(),
            )
        })?;
        let system = self.system.ok_or_else(|| {
            TrainerError::InvalidConfig("a session needs a system (SessionBuilder::system)".into())
        })?;
        let config = Self::config_or_default(self.config);
        CuLdaTrainer::from_parts(
            &corpus,
            config,
            system,
            self.assignments.as_ref().map(|(z, s)| (z.as_slice(), *s)),
            self.sampler_state.as_ref(),
        )
    }

    /// Build a [`StreamingSession`].  A configured corpus is ingested as the
    /// first mini-batch (stable init + burn-in, exactly as a later
    /// [`StreamingSession::ingest`] of the same documents would be).
    pub fn build_streaming(self) -> Result<StreamingSession, TrainerError> {
        if self.assignments.is_some() || self.sampler_state.is_some() {
            return Err(TrainerError::InvalidConfig(
                "streaming sessions restore state via StreamingSession::resume, \
                 not SessionBuilder::assignments / sampler_state"
                    .into(),
            ));
        }
        let system = self.system.ok_or_else(|| {
            TrainerError::InvalidConfig("a session needs a system (SessionBuilder::system)".into())
        })?;
        let mut config = Self::config_or_default(self.config);
        config.validate().map_err(TrainerError::InvalidConfig)?;
        // Resolve `Auto` before the session fixes its kernel: from the seed
        // corpus when one is configured (it is ingested as the first
        // mini-batch below), from the deterministic empty-corpus default
        // otherwise.  Either way the decision is independent of ingestion
        // batching, and checkpoints carry the resolved strategy.
        match &self.corpus {
            Some(corpus) => {
                crate::kernels::portfolio::resolve_auto_sampler(&mut config, corpus);
            }
            None => {
                let empty = culda_corpus::CorpusBuilder::new(0).build();
                crate::kernels::portfolio::resolve_auto_sampler(&mut config, &empty);
            }
        }
        let mut session = StreamingSession::empty(config, system, self.streaming);
        if let Some(corpus) = self.corpus {
            // Keep the corpus's full id range, even trailing words that no
            // document uses yet.
            session
                .model
                .own(&mut session.docs)
                .0
                .widen(corpus.vocab_size());
            let docs: Vec<Document> = (0..corpus.num_docs())
                .map(|d| Document::from(corpus.doc(d)))
                .collect();
            session
                .try_ingest(&docs)
                .map_err(|e| TrainerError::InvalidConfig(e.to_string()))?;
        }
        Ok(session)
    }
}

/// A point-in-time summary of a streaming session.
///
/// Every field is derived when the summary is taken, from the document
/// store, the uid stream, the iteration history or the query tier; the
/// session keeps no counter beside them.  Lifetime figures count across
/// resumes, the per-burst sums cover this process's training only.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStats {
    /// Live (non-retired) documents.
    pub live_docs: usize,
    /// Tokens across the live documents.
    pub live_tokens: u64,
    /// Documents ingested over the session's lifetime: the uid stream's
    /// position, since uids are never reused.
    pub ingested_docs: u64,
    /// Documents retired over the session's lifetime (ingested minus live).
    pub retired_docs: u64,
    /// Completed training iterations (across resumes).
    pub iterations: u64,
    /// Simulated training time of this process's bursts.
    pub sim_time_s: f64,
    /// Bytes the φ syncs of this process's bursts moved over intra-node
    /// links (all the sync traffic on a single-node system).
    pub intra_sync_bytes: u64,
    /// Bytes the φ syncs of this process's bursts moved over the inter-node
    /// fabric (0 on a single-node system).
    pub inter_sync_bytes: u64,
    /// Checkpoints rotated out so far (across resumes).
    pub checkpoints_written: u64,
    /// Current vocabulary size (grows with ingestion).
    pub vocab_size: usize,
    /// Queries answered through [`ModelSnapshots`] handles (lifetime).
    pub queries_served: u64,
    /// Median per-query latency over the recent window, milliseconds
    /// (0 while nothing has been served).
    pub query_p50_ms: f64,
    /// 99th-percentile per-query latency over the recent window,
    /// milliseconds (0 while nothing has been served).
    pub query_p99_ms: f64,
    /// Lifetime queries per wall-clock second (0 while nothing has been
    /// served).
    pub query_qps: f64,
    /// The currently published snapshot epoch (0 = nothing published).
    pub snapshot_epoch: u64,
}

/// One live document of a streaming session.
#[derive(Debug, Clone)]
struct Doc {
    /// The token word ids, original document order.
    words: Vec<u32>,
    /// Topic assignment of every token, original document order.
    z: Vec<u16>,
}

/// Where the authoritative φ / `n_k` (and z) live between calls.
enum Model {
    /// The session's own word-major counts, with z in each [`Doc`]: before
    /// the first training burst, and from a membership change until the
    /// next one rebuilds the trainer.
    Own { phi: AtomicMatrix, nk: Vec<i64> },
    /// A trainer built for the current membership.  Its shared pair is φ /
    /// `n_k` and its chunks hold z; the [`Doc`] z rows are stale until
    /// [`Model::own`] pulls them back.
    Trainer(Box<CuLdaTrainer>),
}

impl Model {
    /// The session's own counts.  A trainer is taken apart first: its z is
    /// pulled into `docs` and its φ / `n_k` change hands.
    fn own(&mut self, docs: &mut BTreeMap<u64, Doc>) -> (&mut AtomicMatrix, &mut Vec<i64>) {
        if let Model::Trainer(_) = self {
            let empty = Model::Own {
                phi: AtomicMatrix::zeros(0, 0),
                nk: Vec::new(),
            };
            let Model::Trainer(trainer) = std::mem::replace(self, empty) else {
                unreachable!("matched above")
            };
            trainer.copy_z_into(docs.values_mut().map(|doc| doc.z.as_mut_slice()));
            let (phi, nk) = trainer.into_counts();
            *self = Model::Own { phi, nk };
        }
        match self {
            Model::Own { phi, nk } => (phi, nk),
            Model::Trainer(_) => unreachable!("taken apart above"),
        }
    }

    /// φ, word-major: the session's own or the trainer's shared counts.
    fn phi(&self) -> &AtomicMatrix {
        match self {
            Model::Own { phi, .. } => phi,
            Model::Trainer(trainer) => trainer.shared_counts().0,
        }
    }
}

/// Row-major views the `&self` accessors hand out, built on first use and
/// dropped whenever the model changes.
#[derive(Default)]
struct Views {
    phi: OnceLock<DenseMatrix<u32>>,
    nk: OnceLock<Vec<i64>>,
}

/// A live LDA model that grows and shrinks while training.
///
/// Owns the authoritative global state between training bursts: every live
/// document's words and topic assignments under its stable uid, and the
/// global φ / `n_k` counts.  Training itself is delegated to the
/// batch trainer: whenever the membership changed since the last burst, the
/// trainer is rebuilt from the live corpus and the current assignments (an
/// exact state hand-off, so the rebuild is invisible to the sampled
/// trajectory).  While that trainer is current, its shared
/// word-major pair *is* the session's φ / `n_k` and its chunks hold z; the
/// session takes them back (one sync) only when the membership changes
/// again.  See the [module docs](crate::session) for the determinism
/// rationale and `DESIGN.md` §9 for the lifecycle.
pub struct StreamingSession {
    config: LdaConfig,
    /// Pristine system template; every trainer rebuild gets a
    /// `fresh_like()` copy so device memory trackers start clean.
    system: MultiGpuSystem,
    /// The configured sampler kernel; ingest burn-in routes through its
    /// [`SamplerKernel::burn_in_sweep`] so a document is burnt in by the
    /// same sampler family that will train it.
    sampler: Arc<dyn SamplerKernel>,
    opts: StreamingOptions,
    /// The live documents by stable uid; ascending uid order is corpus
    /// order for the trainer, z snapshots and checkpoints.
    docs: BTreeMap<u64, Doc>,
    /// The uid the next ingested document receives (never reused).
    next_uid: u64,
    /// φ / `n_k` (and where z lives): the session's own counts or a trainer
    /// built for the current membership.
    model: Model,
    /// The last published frozen model, until φ / `n_k` next change.
    published: Option<Arc<TopicInferencer>>,
    views: Views,
    iterations_done: u64,
    /// Per-iteration statistics of this process's bursts; the simulated
    /// time and sync traffic [`StreamingSession::stats`] reports sum it.
    history: Vec<IterationStats>,
    /// Checkpointed sampler-internal state awaiting the first trainer build
    /// after a resume.  Cleared by ingest/retire: once the membership
    /// changes, the uninterrupted run would also have rebuilt its trainer
    /// (and its sampler state) from scratch, so restoring the snapshot
    /// would *diverge* from it rather than match it.
    resume_sampler_state: Option<SamplerResumeState>,
    checkpoints_written: u64,
    /// The query tier's publication cell, shared with every
    /// [`ModelSnapshots`] handle ([`StreamingSession::snapshots`]).
    serve: Arc<SnapshotShared>,
}

impl StreamingSession {
    fn empty(config: LdaConfig, system: MultiGpuSystem, opts: StreamingOptions) -> Self {
        let k = config.num_topics;
        let sampler = sampler_for(&config);
        StreamingSession {
            sampler,
            docs: BTreeMap::new(),
            next_uid: 0,
            model: Model::Own {
                phi: AtomicMatrix::zeros(k, 0),
                nk: vec![0i64; k],
            },
            published: None,
            views: Views::default(),
            iterations_done: 0,
            history: Vec::new(),
            resume_sampler_state: None,
            checkpoints_written: 0,
            serve: Arc::new(SnapshotShared::new()),
            config,
            system,
            opts,
        }
    }

    /// φ / `n_k` changed: drop the row-major views and the published
    /// frozen model.
    fn model_changed(&mut self) {
        self.views = Views::default();
        self.published = None;
    }

    /// Append documents to the live model.
    ///
    /// Each document, **sequentially in arrival order**: receives the next
    /// stable uid; grows the vocabulary if it introduces new word ids; gets
    /// a stable random topic per token (the same counter-based draw the
    /// batch trainer's initialisation uses, keyed by `(uid, slot)`); and is
    /// burnt in with [`StreamingOptions::burn_in_sweeps`] collapsed-Gibbs
    /// sweeps against the current global φ, with every draw keyed by
    /// `(uid, slot)` as well.
    /// Because nothing depends on the grouping into `ingest` calls, results
    /// are bit-exact regardless of ingestion batching.
    ///
    /// Returns the stable uids, which later address
    /// [`StreamingSession::retire`].
    ///
    /// Panicking wrapper over [`StreamingSession::try_ingest`] for the
    /// (astronomically common) case where the keying bounds documented
    /// there cannot be hit.
    pub fn ingest(&mut self, docs: &[Document]) -> Vec<u64> {
        match self.try_ingest(docs) {
            Ok(uids) => uids,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`StreamingSession::ingest`].
    ///
    /// Every deterministic draw for a document is keyed by packing
    /// `(uid << 32) | slot` into one 64-bit counter, so a uid or a token
    /// slot at or beyond 2³² would silently *collide* with another
    /// document's RNG stream (same draws, correlated topics) instead of
    /// failing.  Ingestion therefore rejects — before any mutation, so a
    /// failed call is side-effect-free like [`StreamingSession::retire`] —
    /// any batch that would:
    ///
    /// * assign a document uid ≥ 2³² (more than ~4.3 billion documents over
    ///   the session's lifetime; shard across sessions instead), or
    /// * ingest a single document longer than 2³² tokens.
    pub fn try_ingest(&mut self, docs: &[Document]) -> Result<Vec<u64>, SessionError> {
        let first_uid = self.next_uid;
        let end_uid = first_uid.checked_add(docs.len() as u64);
        if end_uid.is_none() || end_uid.unwrap() > MAX_KEYED_UID {
            return Err(SessionError::State(format!(
                "ingesting {} documents starting at uid {first_uid} would exceed \
                 the 2^32 uid bound of the deterministic `(uid << 32) | slot` \
                 draw keying; shard across sessions instead",
                docs.len()
            )));
        }
        if let Some(doc) = docs.iter().find(|d| d.words.len() as u64 > MAX_KEYED_UID) {
            return Err(SessionError::State(format!(
                "a document with {} tokens exceeds the 2^32 token-slot bound of \
                 the deterministic `(uid << 32) | slot` draw keying",
                doc.words.len()
            )));
        }
        Ok(docs.iter().map(|doc| self.ingest_one(doc)).collect())
    }

    fn ingest_one(&mut self, doc: &Document) -> u64 {
        let k = self.config.num_topics;
        let uid = self.next_uid;
        self.next_uid += 1;
        let (phi, nk) = self.model.own(&mut self.docs);
        // Word ids beyond the vocabulary grow it.
        if let Some(&w) = doc.words.iter().max() {
            phi.widen(w as usize + 1);
        }

        // Stable initialisation: same stream and keying as the batch
        // trainer's `random_init_stable`, so a session that never retires
        // keys every document exactly like the batch path does.
        let mut z = Vec::with_capacity(doc.words.len());
        let mut theta_d = vec![0u32; k];
        for (slot, &w) in doc.words.iter().enumerate() {
            let draw = stable_u64(
                self.config.seed,
                ChunkState::INIT_STREAM,
                (uid << 32) | slot as u64,
            );
            let topic = (draw % k as u64) as usize;
            z.push(topic as u16);
            theta_d[topic] += 1;
            *phi.get_mut(topic, w as usize) += 1;
            nk[topic] += 1;
        }

        // Burn the document in against the current global φ, document-major
        // so batching cannot change the order of draws.  The sweep itself is
        // the configured sampler's [`SamplerKernel::burn_in_sweep`]: exact
        // collapsed Gibbs for the default sparse-CGS strategy, stale-alias +
        // MH for the alias hybrid — either way every draw is keyed by
        // `(uid, slot)`.
        for sweep in 0..self.opts.burn_in_sweeps {
            self.sampler.burn_in_sweep(
                &self.config,
                uid,
                sweep,
                &doc.words,
                &mut z,
                &mut theta_d,
                phi,
                nk,
            );
        }

        let words = doc.words.clone();
        self.docs.insert(uid, Doc { words, z });
        self.model_changed();
        // A membership change invalidates any checkpointed sampler state:
        // the uninterrupted run rebuilds its sampler from scratch here too.
        self.resume_sampler_state = None;
        uid
    }

    /// Retire documents: subtract each document's topic counts from the
    /// global φ / `n_k` and drop it from the store.  The live documents
    /// keep their ascending uid order.
    ///
    /// Fails without side effects if any uid is unknown, already retired,
    /// or listed more than once.
    pub fn retire(&mut self, uids: &[u64]) -> Result<(), SessionError> {
        // Validate the whole request up front so the mutation loop below
        // cannot fail halfway through (all-or-nothing semantics).
        let mut seen = std::collections::BTreeSet::new();
        for &uid in uids {
            if !self.docs.contains_key(&uid) {
                return Err(SessionError::State(format!(
                    "document {uid} is unknown or already retired"
                )));
            }
            if !seen.insert(uid) {
                return Err(SessionError::State(format!(
                    "document {uid} is listed twice in the retire request"
                )));
            }
        }
        // Even an empty request counts as a membership change, which
        // rebuilds the trainer (and a stateful sampler's tables).
        let (phi, nk) = self.model.own(&mut self.docs);
        for uid in uids {
            let doc = self.docs.remove(uid).expect("validated live above");
            for (&w, &t) in doc.words.iter().zip(&doc.z) {
                let t = t as usize;
                *phi.get_mut(t, w as usize) -= 1;
                nk[t] -= 1;
            }
        }
        self.model_changed();
        self.resume_sampler_state = None;
        Ok(())
    }

    /// Rebuild the trainer from the live corpus + current assignments if the
    /// membership changed since the last burst.
    fn ensure_trainer(&mut self) -> Result<&mut CuLdaTrainer, SessionError> {
        if let Model::Own { .. } = self.model {
            if self.live_tokens() == 0 {
                return Err(SessionError::State(
                    "the session holds no live tokens; ingest documents before training".into(),
                ));
            }
            let corpus = self.live_corpus();
            let z: Vec<&[u16]> = self.docs.values().map(|doc| doc.z.as_slice()).collect();
            // Consume any checkpointed sampler state on this first build
            // after a resume (later rebuilds are membership changes, which
            // cleared it).
            let sampler_state = self.resume_sampler_state.take();
            let trainer = CuLdaTrainer::from_parts(
                &corpus,
                self.config.clone(),
                self.system.fresh_like(),
                Some((&z, self.iterations_done)),
                sampler_state.as_ref(),
            )?;
            // The trainer recounted the same φ / n_k from z; its shared pair
            // replaces the session's own.
            self.model = Model::Trainer(Box::new(trainer));
        }
        match &mut self.model {
            Model::Trainer(trainer) => Ok(trainer),
            Model::Own { .. } => unreachable!("built above"),
        }
    }

    /// Run one training iteration over all live documents.
    pub fn run_iteration(&mut self) -> Result<IterationStats, SessionError> {
        let stats = self.run_iteration_inner()?;
        self.publish_if_serving()?;
        Ok(stats)
    }

    fn run_iteration_inner(&mut self) -> Result<IterationStats, SessionError> {
        let stats = self.ensure_trainer()?.run_iteration();
        self.model_changed();
        self.iterations_done += 1;
        self.history.push(stats);
        Ok(stats)
    }

    /// Run `iterations` training iterations, rotating checkpoints on the
    /// configured cadence ([`SessionBuilder::checkpoint_cadence`]).
    pub fn train(&mut self, iterations: usize) -> Result<&[IterationStats], SessionError> {
        for _ in 0..iterations {
            self.run_iteration_inner()?;
            if let (Some(every), Some(dir)) =
                (self.opts.checkpoint_every, self.opts.checkpoint_dir.clone())
            {
                if self.iterations_done.is_multiple_of(every as u64) {
                    let keep = self.opts.keep_last;
                    self.rotate_checkpoints(&dir, keep)?;
                }
            }
            // Iteration boundary: refresh the query tier's snapshot while
            // anyone is serving from it.
            self.publish_if_serving()?;
        }
        Ok(&self.history)
    }

    /// A cloneable handle onto the session's epoch-published model
    /// snapshots — the reader side of the concurrent query tier
    /// (`DESIGN.md` §12).  While at least one handle is live, training
    /// publishes a fresh snapshot at every iteration boundary;
    /// [`StreamingSession::publish_snapshot`] publishes on demand (e.g.
    /// right after building the session, before the first burst).
    ///
    /// Readers run fold-in inference against frozen snapshots and never
    /// touch training state, so serving cannot perturb the training
    /// trajectory by a single bit.
    pub fn snapshots(&self) -> ModelSnapshots {
        ModelSnapshots::from_shared(Arc::clone(&self.serve))
    }

    /// Freeze the current φ / `n_k` into an immutable [`TopicInferencer`]
    /// and publish it to every [`ModelSnapshots`] handle.  Returns the new
    /// snapshot epoch.
    ///
    /// The model is frozen from word-major columns
    /// ([`TopicInferencer::try_from_columns`]): the session's own, or the
    /// current trainer's shared φ, which nothing is pulled out of.  When φ /
    /// `n_k` have not changed since the last publication, the same frozen
    /// model is published again under the new epoch.
    pub fn publish_snapshot(&mut self) -> Result<u64, SessionError> {
        let frozen = match &self.published {
            Some(frozen) => Arc::clone(frozen),
            None => {
                let frozen = Arc::new(TopicInferencer::try_from_columns(
                    self.model.phi(),
                    self.global_nk(),
                    self.config.alpha,
                    self.config.beta,
                )?);
                self.published = Some(Arc::clone(&frozen));
                frozen
            }
        };
        Ok(self.serve.publish(frozen))
    }

    /// Publish a snapshot ([`StreamingSession::publish_snapshot`]) iff a
    /// [`ModelSnapshots`] handle exists, so sessions nobody serves from
    /// never pay to freeze a model.  Training calls it at every iteration
    /// boundary.
    fn publish_if_serving(&mut self) -> Result<(), SessionError> {
        if Arc::strong_count(&self.serve) > 1 {
            self.publish_snapshot()?;
        }
        Ok(())
    }

    /// Capture the current model + sampler state as a checkpoint
    /// snapshot (θ is recounted from the live assignments).  This is where
    /// the checkpoint's row-major `K × V` φ is built.
    pub fn to_checkpoint(&mut self) -> ModelCheckpoint {
        let k = self.config.num_topics;
        let z = self.z_snapshot();
        let mut builder = CsrBuilder::new(z.len(), k);
        for row in &z {
            builder.push_counted_row(row.iter().copied());
        }
        let theta: CsrMatrix = builder.finish();
        // Sampler-internal state: from the live trainer when it is current;
        // otherwise whatever a resume left pending (the next trainer's
        // sampler is built from scratch anyway, exactly as the
        // uninterrupted run rebuilds it after a membership change).
        let sampler_state = match &self.model {
            Model::Own { .. } => self.resume_sampler_state.clone(),
            Model::Trainer(trainer) => trainer.sampler_kernel().resume_state(),
        };
        ModelCheckpoint {
            num_topics: k,
            vocab_size: self.model.phi().cols(),
            alpha: self.config.alpha,
            beta: self.config.beta,
            nk: self.global_nk().to_vec(),
            phi: self.model.phi().to_dense(),
            theta,
            seed: self.config.seed,
            iterations: self.iterations_done,
            z: Some(z),
            sampler: self.config.sampler,
            sampler_state,
        }
    }

    /// Write a rotated checkpoint set into `dir` and prune old ones so at
    /// most `keep_last` remain.  A set is three files sharing a stem
    /// ([`rotation::stem`]): the CLDM checkpoint model (`.cldm`), the live
    /// corpus snapshot (`.cldc`), and the session metadata (`.meta` — the
    /// uid stream position, the next rotation's sequence number and the
    /// live uids).  Returns the stem path of the new set.
    pub fn rotate_checkpoints(
        &mut self,
        dir: impl AsRef<Path>,
        keep_last: usize,
    ) -> Result<PathBuf, SessionError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let seq = self.checkpoints_written;
        let stem = dir.join(rotation::stem(seq, self.iterations_done));

        let ckpt = self.to_checkpoint();
        let corpus = self.live_corpus();
        culda_corpus::save_corpus(&corpus, stem.with_extension(rotation::CORPUS_EXT))?;
        self.write_meta(&stem.with_extension(rotation::META_EXT))?;
        // The model file lands last, and whole: it is written under a
        // temporary name and renamed into place.  Discovery treats a set
        // without its `.cldm` as incomplete, so a crash mid-rotation never
        // yields a resumable-but-corrupt set.
        let model = stem.with_extension(rotation::MODEL_EXT);
        let tmp = stem.with_extension(rotation::MODEL_TMP_EXT);
        ckpt.save(&tmp)?;
        std::fs::rename(&tmp, &model)?;

        self.checkpoints_written += 1;
        rotation::prune(dir, keep_last.max(1))?;
        Ok(stem)
    }

    fn write_meta(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(META_MAGIC)?;
        w.write_all(&META_VERSION.to_le_bytes())?;
        w.write_all(&self.next_uid.to_le_bytes())?;
        // The rotation being written is number `checkpoints_written`; a
        // session resumed from it must continue the sequence *after* it.
        w.write_all(&(self.checkpoints_written + 1).to_le_bytes())?;
        w.write_all(&(self.docs.len() as u64).to_le_bytes())?;
        for uid in self.docs.keys() {
            w.write_all(&uid.to_le_bytes())?;
        }
        w.flush()
    }

    /// Resume a session from the most recent rotated checkpoint set in
    /// `dir`, restoring the exact sampler state: training after the resume
    /// is bit-identical to a session that never stopped, and later ingests
    /// continue the stable uid stream.
    ///
    /// The configuration is reconstructed from the checkpoint (K, priors,
    /// seed) with default knobs elsewhere; use
    /// [`StreamingSession::resume_with`] to supply the full original
    /// configuration.
    pub fn resume(dir: impl AsRef<Path>, system: MultiGpuSystem) -> Result<Self, SessionError> {
        Self::resume_inner(dir.as_ref(), None, system, StreamingOptions::default())
    }

    /// [`StreamingSession::resume`] with explicit streaming options
    /// (burn-in sweeps, checkpoint cadence) while the configuration is still
    /// reconstructed from the checkpoint.
    pub fn resume_with_options(
        dir: impl AsRef<Path>,
        system: MultiGpuSystem,
        opts: StreamingOptions,
    ) -> Result<Self, SessionError> {
        Self::resume_inner(dir.as_ref(), None, system, opts)
    }

    /// [`StreamingSession::resume`] with an explicit configuration and
    /// streaming options (validated against the checkpoint).
    pub fn resume_with(
        dir: impl AsRef<Path>,
        config: LdaConfig,
        system: MultiGpuSystem,
        opts: StreamingOptions,
    ) -> Result<Self, SessionError> {
        Self::resume_inner(dir.as_ref(), Some(config), system, opts)
    }

    fn resume_inner(
        dir: &Path,
        config: Option<LdaConfig>,
        system: MultiGpuSystem,
        opts: StreamingOptions,
    ) -> Result<Self, SessionError> {
        let entry = rotation::latest(dir)?.ok_or_else(|| {
            SessionError::State(format!("no rotated checkpoints found in {}", dir.display()))
        })?;
        let stem = dir.join(&entry.stem);
        let ckpt = ModelCheckpoint::load(stem.with_extension(rotation::MODEL_EXT))?;
        let corpus = culda_corpus::load_corpus(stem.with_extension(rotation::CORPUS_EXT))?;
        let meta = SessionMeta::read(&stem.with_extension(rotation::META_EXT))?;

        let z = ckpt.z.clone().ok_or_else(|| {
            SessionError::State("checkpoint stores no assignment state; cannot resume".into())
        })?;
        if corpus.num_docs() != z.len() || corpus.num_docs() != meta.uids.len() {
            return Err(SessionError::State(format!(
                "rotation set is inconsistent: corpus has {} documents, z {}, meta {}",
                corpus.num_docs(),
                z.len(),
                meta.uids.len()
            )));
        }
        if corpus.vocab_size() != ckpt.vocab_size {
            return Err(SessionError::State(format!(
                "corpus vocabulary ({}) does not match the checkpoint ({})",
                corpus.vocab_size(),
                ckpt.vocab_size
            )));
        }
        let config = match config {
            Some(mut cfg) => {
                if cfg.num_topics != ckpt.num_topics {
                    return Err(SessionError::State(format!(
                        "configuration K = {} conflicts with the checkpoint's K = {}",
                        cfg.num_topics, ckpt.num_topics
                    )));
                }
                cfg.alpha = ckpt.alpha;
                cfg.beta = ckpt.beta;
                cfg.seed = ckpt.seed;
                cfg.sampler = ckpt.sampler;
                cfg
            }
            None => {
                let mut cfg = LdaConfig::with_topics(ckpt.num_topics).seed(ckpt.seed);
                cfg.alpha = ckpt.alpha;
                cfg.beta = ckpt.beta;
                cfg.sampler = ckpt.sampler;
                cfg
            }
        };
        config
            .validate()
            .map_err(|e| SessionError::State(format!("invalid configuration: {e}")))?;

        // The sidecar is untrusted on-disk input: the uid stream must be
        // strictly ascending and below next_uid.  That makes the store's
        // ascending uid order the corpus file's order, and keeps later
        // ingests from reusing a uid.
        let mut prev: Option<u64> = None;
        for &uid in &meta.uids {
            if prev.is_some_and(|p| p >= uid) || uid >= meta.next_uid {
                return Err(SessionError::State(format!(
                    "session meta is corrupt: document uid {uid} breaks the \
                     uid stream (next_uid = {})",
                    meta.next_uid
                )));
            }
            prev = Some(uid);
        }

        let mut session = StreamingSession::empty(config, system, opts);
        session.next_uid = meta.next_uid;
        for ((&uid, row), d) in meta.uids.iter().zip(z).zip(0..corpus.num_docs()) {
            if row.len() != corpus.doc_len(d) {
                return Err(SessionError::State(format!(
                    "z row for document {uid} has {} tokens, corpus stores {}",
                    row.len(),
                    corpus.doc_len(d)
                )));
            }
            let words = corpus.doc(d).to_vec();
            session.docs.insert(uid, Doc { words, z: row });
        }
        session.model = Model::Own {
            phi: AtomicMatrix::from_dense(&ckpt.phi),
            nk: ckpt.nk,
        };
        session.resume_sampler_state = ckpt.sampler_state;
        session.iterations_done = ckpt.iterations;
        session.checkpoints_written = meta.checkpoints_written;
        session.validate().map_err(SessionError::State)?;
        Ok(session)
    }

    /// A point-in-time summary (live documents/tokens, lifetime counts,
    /// this process's simulated time and sync traffic, the query tier).
    pub fn stats(&self) -> SessionStats {
        let query = self.serve.query_stats();
        SessionStats {
            live_docs: self.docs.len(),
            live_tokens: self.live_tokens(),
            ingested_docs: self.next_uid,
            retired_docs: self.next_uid - self.docs.len() as u64,
            iterations: self.iterations_done,
            sim_time_s: self.sim_time_s(),
            intra_sync_bytes: self.history.iter().map(|h| h.intra_sync_bytes).sum(),
            inter_sync_bytes: self.history.iter().map(|h| h.inter_sync_bytes).sum(),
            checkpoints_written: self.checkpoints_written,
            vocab_size: self.model.phi().cols(),
            queries_served: query.queries,
            query_p50_ms: query.p50_ms,
            query_p99_ms: query.p99_ms,
            query_qps: query.qps,
            snapshot_epoch: query.epoch,
        }
    }

    /// The run configuration.
    pub fn config(&self) -> &LdaConfig {
        &self.config
    }

    /// Stable uids of the live documents, in corpus order.
    pub fn live_uids(&self) -> Vec<u64> {
        self.docs.keys().copied().collect()
    }

    /// Tokens across the live documents.
    fn live_tokens(&self) -> u64 {
        self.docs.values().map(|doc| doc.words.len() as u64).sum()
    }

    /// The live documents as a [`Corpus`], ascending uid order, over φ's
    /// vocabulary width.
    fn live_corpus(&self) -> Corpus {
        let mut b = CorpusBuilder::new(self.model.phi().cols());
        b.reserve_tokens(self.live_tokens() as usize);
        for doc in self.docs.values() {
            b.push_doc(&doc.words);
        }
        b.build()
    }

    /// Completed training iterations, including those before a resume.
    pub fn completed_iterations(&self) -> u64 {
        self.iterations_done
    }

    /// Accumulated simulated training time of this process's bursts.
    pub fn sim_time_s(&self) -> f64 {
        // A fold from +0.0, not `sum()`: an empty `f64` sum is −0.0, which
        // prints as `-0.000`.
        self.history.iter().fold(0.0, |a, h| a + h.sim_time_s)
    }

    /// Per-iteration statistics of this process's training bursts.
    pub fn history(&self) -> &[IterationStats] {
        &self.history
    }

    /// The global topic–word counts φ as a row-major `K × V` matrix.
    ///
    /// The session keeps φ word-major (its own columns, or the current
    /// trainer's shared pair), so this builds the row-major form on first
    /// use and keeps it until φ next changes.  Nothing on the training or
    /// serving path calls it.
    pub fn global_phi(&self) -> &DenseMatrix<u32> {
        self.views.phi.get_or_init(|| self.model.phi().to_dense())
    }

    /// The global topic totals `n_k`.
    pub fn global_nk(&self) -> &[i64] {
        match &self.model {
            Model::Own { nk, .. } => nk,
            Model::Trainer(trainer) => self.views.nk.get_or_init(|| trainer.global_nk()),
        }
    }

    /// Topic assignments of every live document, in corpus order — the same
    /// shape [`CuLdaTrainer::z_snapshot`] reports, so the determinism
    /// helpers in `culda-testkit` apply directly.
    pub fn z_snapshot(&self) -> Vec<Vec<u16>> {
        match &self.model {
            Model::Own { .. } => self.docs.values().map(|doc| doc.z.clone()).collect(),
            Model::Trainer(trainer) => trainer.z_snapshot(),
        }
    }

    /// The batch trainer currently backing the session, if one was built for
    /// the latest membership (useful for schedule/throughput introspection).
    pub fn trainer(&self) -> Option<&CuLdaTrainer> {
        match &self.model {
            Model::Own { .. } => None,
            Model::Trainer(trainer) => Some(trainer),
        }
    }

    /// Check every count invariant: φ/n_k must be exactly recountable from
    /// the live assignments, and the backing trainer (when current) must
    /// agree.
    pub fn validate(&self) -> Result<(), String> {
        let k = self.config.num_topics;
        let phi = self.model.phi();
        let mut recount = AtomicMatrix::zeros(k, phi.cols());
        let mut nk = vec![0i64; k];
        let z = self.z_snapshot();
        if z.len() != self.docs.len() {
            return Err(format!(
                "{} documents hold assignments, {} are live",
                z.len(),
                self.docs.len()
            ));
        }
        for ((uid, doc), z) in self.docs.iter().zip(&z) {
            let words = &doc.words;
            if words.len() != z.len() {
                return Err(format!(
                    "document {uid} stores {} tokens but {} assignments",
                    words.len(),
                    z.len()
                ));
            }
            for (&w, &t) in words.iter().zip(z) {
                if t as usize >= k {
                    return Err(format!("document {uid} assigns an out-of-range topic {t}"));
                }
                *recount.get_mut(t as usize, w as usize) += 1;
                nk[t as usize] += 1;
            }
        }
        let same =
            |a: &AtomicU32, b: &AtomicU32| a.load(Ordering::Relaxed) == b.load(Ordering::Relaxed);
        let matches_phi = (0..phi.cols()).all(|w| {
            phi.column(w)
                .iter()
                .zip(recount.column(w))
                .all(|(a, b)| same(a, b))
        });
        if !matches_phi {
            return Err("global φ does not match a recount of the live assignments".into());
        }
        if nk != self.global_nk() {
            return Err("n_k does not match a recount of the live assignments".into());
        }
        if let Model::Trainer(trainer) = &self.model {
            trainer.validate()?;
        }
        Ok(())
    }
}

/// Exclusive bound on document uids *and* per-document token slots: the
/// deterministic draw keying packs `(uid << 32) | slot`, so either half
/// reaching 2³² would alias another document's RNG stream.  Enforced by
/// [`StreamingSession::try_ingest`].
const MAX_KEYED_UID: u64 = 1 << 32;

/// Magic bytes of the session metadata sidecar.
const META_MAGIC: &[u8; 4] = b"CLSM";
/// Current metadata format version.  Version 2 keeps only what cannot be
/// derived: the uid stream position, the next rotation's sequence number
/// and the live uids.  Version 1 files are still read.
const META_VERSION: u32 = 2;

/// Parsed `.meta` sidecar of one rotation set.
struct SessionMeta {
    next_uid: u64,
    checkpoints_written: u64,
    /// The live uids, ascending.
    uids: Vec<u64>,
}

impl SessionMeta {
    fn read(path: &Path) -> Result<Self, SessionError> {
        let mut r = io::BufReader::new(std::fs::File::open(path)?);
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != META_MAGIC {
            return Err(SessionError::State(format!(
                "bad session meta magic {magic:?} in {}",
                path.display()
            )));
        }
        let version = read_u32(&mut r)?;
        if version != 1 && version != META_VERSION {
            return Err(SessionError::State(format!(
                "unsupported session meta version {version}"
            )));
        }
        let v1 = version == 1;
        let next_uid = read_u64(&mut r)?;
        if v1 {
            // The ingested and retired counters, which the uid stream and
            // the live uids give.
            read_u64(&mut r)?;
            read_u64(&mut r)?;
        }
        let checkpoints_written = read_u64(&mut r)?;
        if v1 {
            // The session chunk count, which nothing reads.
            read_u64(&mut r)?;
        }
        let num_docs = read_u64(&mut r)?;
        let mut uids = Vec::with_capacity(num_docs.min(1 << 20) as usize);
        for _ in 0..num_docs {
            uids.push(read_u64(&mut r)?);
            if v1 {
                // The document's session chunk slot.
                read_u32(&mut r)?;
            }
        }
        Ok(SessionMeta {
            next_uid,
            checkpoints_written,
            uids,
        })
    }
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_corpus::DatasetProfile;
    use culda_gpusim::DeviceSpec;

    fn small_corpus() -> Corpus {
        DatasetProfile {
            name: "session".into(),
            num_docs: 60,
            vocab_size: 50,
            avg_doc_len: 12.0,
            zipf_exponent: 1.05,
            doc_len_sigma: 0.4,
        }
        .generate(13)
    }

    fn builder(seed: u64) -> SessionBuilder {
        SessionBuilder::new()
            .config(LdaConfig::with_topics(8).seed(seed))
            .system(MultiGpuSystem::single(DeviceSpec::v100_volta(), seed))
    }

    #[test]
    fn builder_requires_corpus_and_system() {
        assert!(matches!(
            SessionBuilder::new().build(),
            Err(TrainerError::InvalidConfig(_))
        ));
        assert!(matches!(
            SessionBuilder::new().corpus(&small_corpus()).build(),
            Err(TrainerError::InvalidConfig(_))
        ));
        assert!(matches!(
            SessionBuilder::new().build_streaming(),
            Err(TrainerError::InvalidConfig(_))
        ));
    }

    #[test]
    fn streaming_with_zero_burn_in_matches_batch_training() {
        let corpus = small_corpus();
        let mut batch = builder(9).corpus(&corpus).build().unwrap();
        batch.train(4);

        let mut streaming = builder(9)
            .corpus(&corpus)
            .burn_in_sweeps(0)
            .build_streaming()
            .unwrap();
        streaming.train(4).unwrap();

        assert_eq!(batch.z_snapshot(), streaming.z_snapshot());
        assert_eq!(&batch.global_phi(), streaming.global_phi());
        assert_eq!(batch.global_nk(), streaming.global_nk());
    }

    #[test]
    fn ingest_burn_in_keeps_counts_consistent() {
        let corpus = small_corpus();
        let mut session = builder(3)
            .corpus(&corpus)
            .burn_in_sweeps(3)
            .build_streaming()
            .unwrap();
        session.validate().unwrap();
        assert_eq!(session.stats().live_tokens as usize, corpus.num_tokens());
        session.train(2).unwrap();
        session.validate().unwrap();
        assert_eq!(session.completed_iterations(), 2);
        assert!(session.sim_time_s() > 0.0);
    }

    #[test]
    fn vocabulary_grows_on_ingest() {
        let mut session = builder(1).build_streaming().unwrap();
        session.ingest(&[Document::new(vec![0u32, 1, 2])]);
        assert_eq!(session.stats().vocab_size, 3);
        session.ingest(&[Document::new(vec![9u32, 9])]);
        assert_eq!(session.stats().vocab_size, 10);
        assert_eq!(session.global_phi().cols(), 10);
        session.validate().unwrap();
        session.train(1).unwrap();
        session.validate().unwrap();
    }

    #[test]
    fn retire_rejects_unknown_uids_without_side_effects() {
        let mut session = builder(2)
            .corpus(&small_corpus())
            .build_streaming()
            .unwrap();
        let stats_before = session.stats();
        let live = session.live_uids();
        assert!(session.retire(&[live[0], 9_999]).is_err());
        assert_eq!(
            session.stats(),
            stats_before,
            "failed retire must not mutate"
        );
        session.retire(&[live[0]]).unwrap();
        assert_eq!(session.stats().live_docs, stats_before.live_docs - 1);
        session.validate().unwrap();
    }

    #[test]
    fn retire_rejects_duplicate_uids_without_side_effects() {
        let mut session = builder(8)
            .corpus(&small_corpus())
            .build_streaming()
            .unwrap();
        session.train(1).unwrap();
        let stats_before = session.stats();
        let live = session.live_uids();
        assert!(session.retire(&[live[0], live[0]]).is_err());
        assert_eq!(
            session.stats(),
            stats_before,
            "a rejected duplicate retire must not mutate the session"
        );
        session.train(1).unwrap();
        session.validate().unwrap();
    }

    #[test]
    fn training_an_empty_session_is_an_error() {
        let mut session = builder(4).build_streaming().unwrap();
        assert!(matches!(session.train(1), Err(SessionError::State(_))));
    }

    #[test]
    fn ingest_keying_is_pinned_for_normal_inputs() {
        // Regression pin for the `(uid << 32) | slot` draw keying: the
        // initial topic of token `slot` of document `uid` must be exactly
        // `stable_u64(seed, INIT_STREAM, (uid << 32) | slot) % K`, forever.
        // (A keying change would silently break bit-compat of every stored
        // checkpoint and the batch/streaming equivalence.)
        let seed = 11u64;
        let k = 8usize;
        let mut session = SessionBuilder::new()
            .config(LdaConfig::with_topics(k).seed(seed))
            .system(MultiGpuSystem::single(DeviceSpec::v100_volta(), seed))
            .burn_in_sweeps(0)
            .build_streaming()
            .unwrap();
        let docs = vec![
            Document::new(vec![0u32, 1, 2, 3, 1]),
            Document::new(vec![4u32, 4, 0]),
        ];
        let uids = session.try_ingest(&docs).unwrap();
        assert_eq!(uids, vec![0, 1]);
        let z = session.z_snapshot();
        for (uid, doc) in uids.iter().zip(&docs) {
            for slot in 0..doc.words.len() {
                let expected =
                    stable_u64(seed, ChunkState::INIT_STREAM, (uid << 32) | slot as u64) % k as u64;
                assert_eq!(z[*uid as usize][slot] as u64, expected);
            }
        }
    }

    #[test]
    fn ingest_rejects_uids_beyond_the_keying_bound() {
        let mut session = builder(1).build_streaming().unwrap();
        // Fast-forward the uid stream to the 2^32 boundary, as ~4.3 billion
        // ingests would.
        session.next_uid = (1u64 << 32) - 1;
        let last = session.try_ingest(&[Document::new(vec![0u32, 1])]).unwrap();
        assert_eq!(last, vec![(1u64 << 32) - 1]);
        let err = session
            .try_ingest(&[Document::new(vec![2u32])])
            .unwrap_err();
        assert!(
            err.to_string().contains("2^32 uid bound"),
            "unexpected error: {err}"
        );
        // The failed call was all-or-nothing: the uid stream did not move.
        assert_eq!(session.next_uid, 1u64 << 32);
        session.validate().unwrap();
    }

    #[test]
    fn snapshots_publish_at_iteration_boundaries_only_while_serving() {
        let mut session = builder(7)
            .corpus(&small_corpus())
            .build_streaming()
            .unwrap();
        session.train(1).unwrap();
        // No handle: training must not pay for snapshot builds.
        assert_eq!(session.stats().snapshot_epoch, 0);

        let handle = session.snapshots();
        assert!(handle.snapshot().is_none());
        session.train(2).unwrap();
        assert_eq!(handle.epoch(), 2, "one publication per iteration");
        let (epoch, frozen) = handle.snapshot().unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(frozen.num_topics(), 8);
        assert_eq!(session.stats().snapshot_epoch, 2);

        // On-demand publication works without training.
        assert_eq!(session.publish_snapshot().unwrap(), 3);
        drop(handle);
        session.train(1).unwrap();
        assert_eq!(
            session.stats().snapshot_epoch,
            3,
            "publication stops once the last handle is dropped"
        );
    }

    /// z, φ, `n_k` and the checkpoint bytes: everything the determinism
    /// contract pins.
    type Pinned = (Vec<Vec<u16>>, DenseMatrix<u32>, Vec<i64>, Vec<u8>);

    fn pinned(session: &mut StreamingSession) -> Pinned {
        let mut bytes = Vec::new();
        session.to_checkpoint().write(&mut bytes).unwrap();
        let z = session.z_snapshot();
        (
            z,
            session.global_phi().clone(),
            session.global_nk().to_vec(),
            bytes,
        )
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("culda_session_sync_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Ingest(usize, usize),
        RetireOldest(usize),
        Iterate,
        Publish,
        Rotate,
    }

    #[test]
    fn serving_sessions_pin_the_same_bits_after_every_operation() {
        let corpus = small_corpus();
        let docs: Vec<Document> = (0..corpus.num_docs())
            .map(|d| Document::from(corpus.doc(d)))
            .collect();
        let ops = [
            Op::Ingest(0, 20),
            Op::Iterate,
            Op::Publish,
            Op::Ingest(20, 30),
            Op::RetireOldest(5),
            Op::Iterate,
            Op::Iterate,
            Op::Publish,
            Op::Publish,
            Op::Rotate,
            Op::Ingest(30, 45),
            Op::Publish,
            Op::Iterate,
            Op::RetireOldest(8),
            Op::Rotate,
            Op::Iterate,
            Op::Publish,
            Op::Rotate,
        ];
        for (s, sampler) in [
            SamplerStrategy::SparseCgs,
            SamplerStrategy::light_lda(),
            SamplerStrategy::alias_hybrid(),
        ]
        .into_iter()
        .enumerate()
        {
            let build = || builder(5).sampler(sampler).build_streaming().unwrap();
            // `served` publishes at every iteration boundary and on demand;
            // `quiet` never publishes; both are compared after every step.
            // `untouched` runs the same steps with no accessor in between.
            let (mut served, mut quiet, mut untouched) = (build(), build(), build());
            let handle = served.snapshots();
            let dirs: Vec<PathBuf> = ["served", "quiet", "untouched"]
                .iter()
                .map(|name| scratch_dir(&format!("{name}_{s}")))
                .collect();
            for (step, &op) in ops.iter().enumerate() {
                for (i, session) in [&mut served, &mut quiet, &mut untouched]
                    .into_iter()
                    .enumerate()
                {
                    match op {
                        Op::Ingest(a, b) => {
                            session.ingest(&docs[a..b]);
                        }
                        Op::RetireOldest(n) => session.retire(&session.live_uids()[..n]).unwrap(),
                        Op::Iterate => {
                            session.run_iteration().unwrap();
                        }
                        Op::Publish if i == 0 => {
                            session.publish_snapshot().unwrap();
                        }
                        Op::Publish => {}
                        Op::Rotate => {
                            session.rotate_checkpoints(&dirs[i], 2).unwrap();
                        }
                    }
                }
                let at = format!("{sampler}, step {step} ({op:?})");
                assert_eq!(pinned(&mut served), pinned(&mut quiet), "{at}");
                served.validate().unwrap();
                quiet.validate().unwrap();
            }
            assert!(handle.epoch() > 0);
            assert_eq!(pinned(&mut untouched), pinned(&mut quiet), "{sampler}");
            untouched.validate().unwrap();
            let newest = |dir: &Path| {
                let entry = rotation::latest(dir).unwrap().unwrap();
                std::fs::read(dir.join(entry.stem).with_extension(rotation::MODEL_EXT)).unwrap()
            };
            assert_eq!(newest(&dirs[0]), newest(&dirs[1]), "{sampler}");
            assert_eq!(newest(&dirs[2]), newest(&dirs[1]), "{sampler}");
            for dir in dirs {
                std::fs::remove_dir_all(dir).unwrap();
            }
        }
    }

    #[test]
    fn every_publication_bumps_the_epoch_and_reuses_an_unchanged_model() {
        let mut session = builder(6)
            .corpus(&small_corpus())
            .build_streaming()
            .unwrap();
        let handle = session.snapshots();
        let frozen = |h: &ModelSnapshots| h.snapshot().unwrap().1;

        assert_eq!(session.publish_snapshot().unwrap(), 1);
        let first = frozen(&handle);
        assert_eq!(session.publish_snapshot().unwrap(), 2);
        assert!(Arc::ptr_eq(&first, &frozen(&handle)), "unchanged model");

        session.run_iteration().unwrap();
        assert_eq!(handle.epoch(), 3, "the iteration boundary publishes");
        let trained = frozen(&handle);
        assert!(!Arc::ptr_eq(&first, &trained));
        assert_eq!(session.publish_snapshot().unwrap(), 4);
        assert!(Arc::ptr_eq(&trained, &frozen(&handle)));
        // The accessors and a checkpoint read the model without changing it.
        let _ = (session.global_phi(), session.z_snapshot());
        let _ = session.to_checkpoint();
        assert_eq!(session.publish_snapshot().unwrap(), 5);
        assert!(Arc::ptr_eq(&trained, &frozen(&handle)));

        session.ingest(&[Document::new(vec![0u32, 3, 3])]);
        assert_eq!(session.publish_snapshot().unwrap(), 6);
        let ingested = frozen(&handle);
        assert!(!Arc::ptr_eq(&trained, &ingested));
        session.retire(&session.live_uids()[..1]).unwrap();
        assert_eq!(session.publish_snapshot().unwrap(), 7);
        assert!(!Arc::ptr_eq(&ingested, &frozen(&handle)));
    }

    #[test]
    fn validate_is_exact_straight_after_an_iteration() {
        let mut session = builder(4)
            .corpus(&small_corpus())
            .build_streaming()
            .unwrap();
        session.run_iteration().unwrap();
        session.validate().unwrap();
        // Move one count between topics in the trainer's shared φ: nothing
        // was pulled out of the trainer, so validate must read it there.
        let (phi, _) = session.trainer().unwrap().shared_counts();
        let word = (0..phi.cols()).find(|&w| phi.load(0, w) > 0).unwrap();
        phi.fetch_sub(0, word, 1);
        phi.fetch_add(1, word, 1);
        let err = session.validate().unwrap_err();
        assert!(err.contains("global φ"), "{err}");
        phi.fetch_sub(1, word, 1);
        phi.fetch_add(0, word, 1);
        session.validate().unwrap();
        session.run_iteration().unwrap();
        session.validate().unwrap();
    }
}
