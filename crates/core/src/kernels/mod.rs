//! The GPU kernels of Figure 3: sampling, update φ, update θ.
//!
//! Each kernel is implemented against the [`culda_gpusim`] execution model:
//! the *functional* effect (topic assignments, count updates) is computed for
//! real, and every memory access / floating-point operation / atomic the real
//! CUDA kernel would issue is accounted in the block's cost counters so the
//! simulated time follows the paper's roofline analysis (§3.1).
//!
//! The *sampling* kernel is pluggable: the scheduler drives any
//! [`SamplerKernel`] (see [`sampler`] and `DESIGN.md` §10), selected through
//! [`crate::LdaConfig::sampler`].  [`SparseCgsSampler`] is the paper's §6.1
//! kernel and the default; [`AliasHybridSampler`] is the stale-alias-table +
//! Metropolis–Hastings hybrid; [`LightLdaSampler`] is the LightLDA cycled
//! doc-/word-proposal MH kernel ([`portfolio`] picks among the three for
//! [`crate::SamplerStrategy::Auto`] runs).  The update kernels are shared by
//! every sampler.

pub mod alias_hybrid;
pub mod lightlda;
pub mod portfolio;
pub mod sampler;
pub mod sampling;
mod stale;
pub mod update_phi;
pub mod update_theta;

pub use alias_hybrid::AliasHybridSampler;
pub use lightlda::LightLdaSampler;
pub use portfolio::{auto_select_sampler, ChunkStatistics};
pub use sampler::{sampler_for, sampler_for_strategy, SamplerKernel, SamplerResumeState};
pub use sampling::{SparseCgsBlock, SparseCgsSampler};
pub use update_phi::UpdatePhiKernel;
pub use update_theta::UpdateThetaKernel;

/// Kernel profiling names (shared with Table 5 reporting).
pub mod names {
    /// The LDA sampling kernel (any [`super::SamplerKernel`] strategy).
    pub const SAMPLING: &str = "Sampling";
    /// The θ-update kernel.
    pub const UPDATE_THETA: &str = "Update theta";
    /// The φ-update kernel.
    pub const UPDATE_PHI: &str = "Update phi";
    /// The stale alias-table build of [`super::AliasHybridSampler`].
    pub const ALIAS_BUILD: &str = "Alias build";
    /// The stale word-proposal build of [`super::LightLdaSampler`].
    pub const LIGHT_BUILD: &str = "Word-proposal build";
}
