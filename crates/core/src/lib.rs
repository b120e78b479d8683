//! # culda-core
//!
//! The primary contribution of *CuLDA_CGS: Solving Large-scale LDA Problems
//! on GPUs* (PPoPP 2019): a sparsity-aware, tree-based collapsed Gibbs
//! sampling trainer for LDA that scales across multiple (simulated) GPUs.
//!
//! The crate is organised along the paper's structure:
//!
//! | paper section | module |
//! |---|---|
//! | §4 workload partition (partition-by-document, token-balanced chunks) | [`trainer`] + `culda_corpus::partition` |
//! | §5.1 scheduling algorithm (`WorkSchedule1`/`WorkSchedule2`) | [`schedule`] |
//! | §5.2 φ synchronization (tree reduce + broadcast; dense or vocabulary-sharded with sampling overlap, DESIGN.md §8; two-tier hierarchical on multi-node clusters, DESIGN.md §14) | [`sync`] |
//! | §6.1 sampling kernel (sparsity-aware S/Q decomposition, 32-way index trees, warp-per-sampler, shared p2 tree, p*(k) reuse, 16-bit compression) | [`kernels::sampling`], [`work`] |
//! | pluggable sampler kernels (trait API + stale-alias/MH hybrid, DESIGN.md §10) | [`kernels::sampler`], [`kernels::alias_hybrid`] |
//! | §6.2 model update kernels (atomic φ update, dense-scatter + prefix-sum θ rebuild) | [`kernels::update_phi`], [`kernels::update_theta`] |
//! | training loop / public API | [`session::SessionBuilder`], [`trainer::CuLdaTrainer`], [`config::LdaConfig`] |
//! | streaming/online training (ingest · retire · rotate, DESIGN.md §9) | [`session::StreamingSession`] |
//!
//! Beyond the paper's training loop, the crate also provides the serving
//! path a production deployment needs: fold-in [`inference`] for unseen
//! documents, model [`checkpoint`]s, Minka fixed-point [`hyper`]-parameter
//! optimisation and [`convergence`] detection / early stopping (see
//! `DESIGN.md` §6 for the rationale).
//!
//! The GPU itself is provided by the [`culda_gpusim`] substrate: kernels
//! execute functionally on the host thread pool while their memory traffic,
//! arithmetic and atomics are accounted and converted into simulated time by
//! a roofline model, which is how the paper's performance results are
//! reproduced without CUDA hardware (see `DESIGN.md` at the repository root).

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod convergence;
pub mod hyper;
pub mod inference;
pub mod kernels;
pub mod model;
pub mod schedule;
pub mod serve;
pub mod session;
pub mod sync;
pub mod trainer;
pub mod work;

pub use checkpoint::{CheckpointError, ModelCheckpoint};
pub use config::{LdaConfig, SamplerStrategy};
pub use convergence::{train_until_converged, ConvergenceMonitor, EarlyStopper};
pub use hyper::{optimize_alpha, optimize_beta, HyperOptOptions, HyperUpdate};
pub use inference::{DocumentTopics, InferenceError, InferenceOptions, TopicInferencer};
pub use kernels::{
    auto_select_sampler, sampler_for, sampler_for_strategy, AliasHybridSampler, ChunkStatistics,
    LightLdaSampler, SamplerKernel, SamplerResumeState, SparseCgsSampler,
};
pub use model::{ChunkState, TopicTotals};
pub use schedule::{IterationStats, ScheduleKind};
pub use serve::{BatchReply, ModelSnapshots, QueryStats, ServeError};
pub use session::{
    SessionBuilder, SessionError, SessionStats, StreamingOptions, StreamingSession, TrainingSession,
};
pub use sync::{
    synchronize_phi_hier_sharded, HierarchicalSyncPlan, ShardedSyncStats, SyncPlan, SyncStats,
};
pub use trainer::{CuLdaTrainer, TrainerError};
pub use work::{build_work_items, WorkItem};
