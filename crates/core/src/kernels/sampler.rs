//! The pluggable sampler-kernel API.
//!
//! PR 4 put session construction behind [`crate::session::SessionBuilder`];
//! this module does the same for the *kernel layer*: the scheduler no longer
//! hard-codes the §6.1 S/Q-split kernel but drives any [`SamplerKernel`],
//! selected through [`LdaConfig::sampler`] ([`SamplerStrategy`]).  Two
//! implementations ship today:
//!
//! * [`SparseCgsSampler`](crate::kernels::SparseCgsSampler) — the paper's
//!   exact collapsed Gibbs kernel (the default);
//! * [`AliasHybridSampler`](crate::kernels::AliasHybridSampler) — stale
//!   per-word alias tables with a Metropolis–Hastings correction
//!   (AliasLDA-style), closing the ROADMAP's alias-table hybrid item.
//!
//! A sampler owns three responsibilities (`DESIGN.md` §10):
//!
//! 1. **Per-chunk state** — [`SamplerKernel::prepare_chunk`] runs whatever
//!    periodic device work the strategy needs (e.g. the stale alias-table
//!    rebuild) and reports its simulated span so the scheduler can charge it.
//! 2. **Block work** — [`SamplerKernel::sampling_kernel`] emits the
//!    per-thread-block [`BlockKernel`] for one chunk's work items; the
//!    scheduler launches it under [`SamplerKernel::name`].
//! 3. **Cost-model feedback** — [`SamplerKernel::predict_steady_compute_s`]
//!    converts iteration 0's measured spans into the steady-state compute
//!    span (amortising periodic setup), which feeds the φ-sync shard
//!    auto-tuner's span prediction.
//!
//! Streaming burn-in routes through the same trait
//! ([`SamplerKernel::burn_in_sweep`]), so an ingested document is burnt in
//! by the *same sampler family* that will train it — and every draw stays a
//! counter-based pure function of `(seed, stream, uid, slot)`, preserving
//! the ingestion-batching and topology bit-exactness contract for every
//! strategy.

use crate::config::{LdaConfig, SamplerStrategy};
use crate::model::ChunkState;
use crate::work::WorkItem;
use culda_gpusim::{BlockKernel, Device};
use culda_sparse::{AtomicMatrix, DenseMatrix};
use std::sync::Arc;

/// RNG stream tag of the first streaming burn-in sweep; sweep `s` uses
/// `BURN_STREAM_BASE - s`.  Training iterations tag their streams with the
/// iteration number (counting up from 0) and the stable initialisation uses
/// `u64::MAX`, so burn-in streams can never collide with either.
pub const BURN_STREAM_BASE: u64 = u64::MAX - 2;

/// Portable sampler-internal state a checkpoint carries so that resuming
/// mid-cadence is bit-exact.
///
/// The model state (`z`, φ, θ, the iteration counter) reconstructs every
/// *memoryless* sampler exactly, but a strategy that keeps state *between*
/// iterations — the alias hybrid's stale tables, rebuilt only every
/// `rebuild_every` iterations — would otherwise restart that state fresh on
/// resume and diverge from the uninterrupted run until the next rebuild.
/// [`SamplerKernel::resume_state`] captures the inputs needed to reconstruct
/// that state exactly, and [`SamplerKernel::restore_resume_state`] replays
/// them into a freshly built sampler.  Its `phi_hat` is the dense `K × V`
/// form the checkpoint stores; the MH samplers keep φ̂ as sparse word
/// columns and make the dense form only for this state.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplerResumeState {
    /// The global snapshot the alias hybrid's stale tables were last built
    /// from.  The per-word proposal tables are deterministically
    /// reconstructed from it (the same `(φ̂ + β) / (n̂ + Vβ)` arithmetic as
    /// the build kernel), so they do not need to be serialized themselves.
    AliasTables {
        /// Iteration the tables were built at; resume keeps the rebuild
        /// cadence anchored to the original grid.
        built_at: u64,
        /// The synchronized φ at `built_at` (`K × V`).
        phi_hat: DenseMatrix<u32>,
        /// The topic totals at `built_at`.
        nk_hat: Vec<i64>,
    },
    /// The global snapshot the LightLDA sampler's stale word proposals were
    /// last built from.  Word proposals depend only on `φ̂ + β` (the
    /// normalizer cancels in the MH acceptance ratio), so no topic totals
    /// are carried; the word tables are reconstructed deterministically on
    /// resume exactly as the alias hybrid's are.
    LightWordTables {
        /// Iteration the word proposals were built at; resume keeps the
        /// rebuild cadence anchored to the original grid.
        built_at: u64,
        /// The synchronized φ at `built_at` (`K × V`).
        phi_hat: DenseMatrix<u32>,
    },
}

/// A pluggable sampling-kernel implementation.
///
/// Implementations must be deterministic: every random draw — on the device
/// and in [`SamplerKernel::burn_in_sweep`] — must be a counter-based pure
/// function of the token's partition-independent identity, never of block,
/// device, topology or ingestion batching.
pub trait SamplerKernel: Send + Sync {
    /// Profiling name of the per-iteration sampling launch (Table 5 key).
    fn name(&self) -> &'static str;

    /// Run this iteration's per-chunk setup work on `device` (e.g. a stale
    /// alias-table rebuild) and return its simulated span in seconds.  The
    /// default does nothing and costs nothing.
    fn prepare_chunk(
        &self,
        device: &Device,
        state: &ChunkState,
        config: &LdaConfig,
        iteration: u64,
    ) -> f64 {
        let _ = (device, state, config, iteration);
        0.0
    }

    /// The per-block sampling work for one chunk at `iteration`
    /// ([`crate::work::build_work_items`] defines the block ↔ token-range
    /// mapping).  Launched by the scheduler as one thread block per item.
    fn sampling_kernel<'a>(
        &'a self,
        state: &'a ChunkState,
        items: &'a [WorkItem],
        config: &'a LdaConfig,
        iteration: u64,
    ) -> Box<dyn BlockKernel + 'a>;

    /// The sampler-internal state a checkpoint must carry for a mid-cadence
    /// resume to be bit-exact, or `None` for memoryless strategies (the
    /// default) and for samplers that have not built any state yet.
    fn resume_state(&self) -> Option<SamplerResumeState> {
        None
    }

    /// Replay a [`SamplerResumeState`] captured by
    /// [`SamplerKernel::resume_state`] into this (freshly constructed)
    /// sampler.  The default ignores the state, which is correct for
    /// memoryless strategies.
    fn restore_resume_state(&self, state: &SamplerResumeState) {
        let _ = state;
    }

    /// Predict the steady-state per-iteration compute span from iteration
    /// 0's measured compute and setup spans, amortising periodic setup work
    /// over its cadence.  The φ-sync shard auto-tuner predicts overlap spans
    /// with this value, so a sampler whose iteration 0 included a full
    /// rebuild does not mislead the tuner about later iterations.
    fn predict_steady_compute_s(&self, measured_compute_s: f64, measured_setup_s: f64) -> f64 {
        let _ = measured_setup_s;
        measured_compute_s
    }

    /// One host-side streaming burn-in sweep over a freshly ingested
    /// document: resample every token of `words` against the live global
    /// (`phi`, `nk`) counts, updating `z` and the document's topic histogram
    /// `theta_d` in place.  φ is word-major, so a token reads and writes the
    /// one contiguous column of its word.  Sweep `sweep` must draw only from
    /// RNG streams derived from [`BURN_STREAM_BASE`]`- sweep` keyed by
    /// `(uid, slot)`.
    #[allow(clippy::too_many_arguments)]
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
    );
}

/// Instantiate the sampler kernel a configuration selects.
///
/// The configuration's strategy must already be concrete:
/// [`SamplerStrategy::Auto`] is resolved by every construction path
/// (trainer build, streaming session, checkpoint resume) *before* a kernel
/// is instantiated — see [`crate::kernels::portfolio`].
pub fn sampler_for(config: &LdaConfig) -> Arc<dyn SamplerKernel> {
    sampler_for_strategy(config.sampler)
}

/// Instantiate the sampler kernel for a concrete strategy.
///
/// # Panics
///
/// Panics on [`SamplerStrategy::Auto`]: auto-selection is a construction-time
/// decision ([`crate::kernels::portfolio::auto_select_sampler`]), never a
/// kernel.
pub fn sampler_for_strategy(strategy: SamplerStrategy) -> Arc<dyn SamplerKernel> {
    match strategy {
        SamplerStrategy::SparseCgs => Arc::new(crate::kernels::SparseCgsSampler),
        SamplerStrategy::AliasHybrid {
            rebuild_every,
            mh_steps,
        } => Arc::new(crate::kernels::AliasHybridSampler::new(
            rebuild_every,
            mh_steps,
        )),
        SamplerStrategy::LightLda {
            rebuild_every,
            mh_steps,
            prune_below,
        } => Arc::new(crate::kernels::LightLdaSampler::new(
            rebuild_every,
            mh_steps,
            prune_below,
        )),
        SamplerStrategy::Auto => panic!(
            "SamplerStrategy::Auto must be resolved to a concrete strategy \
             before a kernel is instantiated"
        ),
    }
}

/// Burn in a run of documents twice, through `kernel` on word-major columns
/// and through `oracle`, the kernel's sweep as it was over a row-major
/// `K × V` φ (`(config, uid, sweep, words, z, theta_d, phi, nk)`), and assert identical z, θ_d, φ and
/// `n_k` after each of three sweeps per document.  φ starts from a random
/// assignment of a background corpus; the fourth document brings words the
/// vocabulary has not seen, which widens both φs first.
#[cfg(test)]
pub(crate) fn assert_burn_in_matches_row_major(
    kernel: &dyn SamplerKernel,
    config: &LdaConfig,
    oracle: impl Fn(
        &LdaConfig,
        u64,
        usize,
        &[u32],
        &mut [u16],
        &mut [u32],
        &mut DenseMatrix<u32>,
        &mut [i64],
    ),
) {
    use culda_gpusim::rng::stable_u64;
    let k = config.num_topics;
    let vocab = 40usize;
    let mut columns = AtomicMatrix::zeros(k, vocab);
    let mut nk = vec![0i64; k];
    // Background: Zipf-like word ids, so some words are hot and some rare.
    for i in 0..3_000u64 {
        let r = stable_u64(config.seed, 1, i);
        let w = ((r % 1_000) * (r % 1_000) / 25_000) as usize % vocab;
        let t = (stable_u64(config.seed, 2, i) % k as u64) as usize;
        *columns.get_mut(t, w) += 1;
        nk[t] += 1;
    }
    let mut dense = columns.to_dense();
    let mut dense_nk = nk.clone();
    let docs: Vec<Vec<u32>> = vec![
        vec![0, 1, 2, 0, 5, 7, 0, 1, 39],
        vec![3, 3, 3, 12, 30, 31, 3],
        (0..25).map(|i| (i * 7 % 40) as u32).collect(),
        vec![2, 41, 44, 41, 0, 44, 44, 40],
        // A long document: thousands of MH steps, so even a slightly wrong
        // acceptance ratio flips some decision.
        (0..2_000u64)
            .map(|i| (stable_u64(config.seed, 4, i) % 45) as u32)
            .collect(),
    ];
    for (uid, words) in docs.iter().enumerate() {
        let uid = uid as u64;
        let width = *words.iter().max().unwrap() as usize + 1;
        if width > columns.cols() {
            columns.widen(width);
            let mut wider = DenseMatrix::zeros(k, width);
            for t in 0..k {
                wider.row_mut(t)[..dense.cols()].copy_from_slice(dense.row(t));
            }
            dense = wider;
        }
        let mut z: Vec<u16> = (0..words.len())
            .map(|slot| (stable_u64(config.seed, 3, (uid << 32) | slot as u64) % k as u64) as u16)
            .collect();
        let mut theta = vec![0u32; k];
        for (&w, &t) in words.iter().zip(&z) {
            theta[t as usize] += 1;
            *columns.get_mut(t as usize, w as usize) += 1;
            *dense.get_mut(t as usize, w as usize) += 1;
            nk[t as usize] += 1;
            dense_nk[t as usize] += 1;
        }
        let (mut z_ref, mut theta_ref) = (z.clone(), theta.clone());
        for sweep in 0..3 {
            kernel.burn_in_sweep(
                config,
                uid,
                sweep,
                words,
                &mut z,
                &mut theta,
                &mut columns,
                &mut nk,
            );
            oracle(
                config,
                uid,
                sweep,
                words,
                &mut z_ref,
                &mut theta_ref,
                &mut dense,
                &mut dense_nk,
            );
            let at = format!("document {uid}, sweep {sweep}");
            assert_eq!(z, z_ref, "z, {at}");
            assert_eq!(theta, theta_ref, "θ_d, {at}");
            assert_eq!(nk, dense_nk, "n_k, {at}");
            assert_eq!(columns.to_dense(), dense, "φ, {at}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_matches_the_strategy() {
        let sparse = sampler_for(&LdaConfig::with_topics(8));
        assert_eq!(sparse.name(), crate::kernels::names::SAMPLING);
        let alias =
            sampler_for(&LdaConfig::with_topics(8).sampler(SamplerStrategy::alias_hybrid()));
        assert_eq!(alias.name(), crate::kernels::names::SAMPLING);
        let light = sampler_for(&LdaConfig::with_topics(8).sampler(SamplerStrategy::light_lda()));
        assert_eq!(light.name(), crate::kernels::names::SAMPLING);
        // Setup is free for the default sampler and its steady-state
        // prediction is the identity.
        assert_eq!(sparse.predict_steady_compute_s(2.0, 0.5), 2.0);
        assert_eq!(alias.predict_steady_compute_s(2.0, 0.5), 1.5625);
        // Light amortises its rebuild over the same cadence formula.
        assert_eq!(light.predict_steady_compute_s(2.0, 0.5), 1.5625);
    }

    #[test]
    #[should_panic(expected = "Auto must be resolved")]
    fn factory_rejects_unresolved_auto() {
        let _ = sampler_for_strategy(SamplerStrategy::Auto);
    }
}
