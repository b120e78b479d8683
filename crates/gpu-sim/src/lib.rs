//! # culda-gpusim
//!
//! A SIMT GPU **simulator substrate** standing in for the CUDA devices the
//! paper runs on (Table 2: Maxwell Titan X, Pascal Titan Xp, Volta V100).
//!
//! ## Why a simulator
//!
//! The reproduction targets machines without NVIDIA GPUs, and Rust's GPU
//! kernel story is not mature enough for the hand-tuned warp-level sampling
//! kernels the paper describes.  The substitution keeps the two things the
//! paper's claims rest on:
//!
//! 1. **Functional fidelity** — kernels written against this crate execute
//!    for real (on a rayon thread pool, one task per thread block), so the
//!    statistical behaviour of the LDA solver (convergence, log-likelihood,
//!    topic quality) is genuine, not modelled.
//! 2. **Performance fidelity by roofline** — every kernel accounts the bytes
//!    it moves, the flops it spends, and the atomics it issues
//!    ([`cost::CostCounters`]).  The paper's own §3 argues LDA is memory
//!    bound (0.27 Flops/Byte), so simulated time computed as
//!    `max(bytes/bandwidth, flops/peak, atomics/throughput)` per device
//!    reproduces the *relative* performance the paper reports across device
//!    generations, against CPU baselines, and across GPU counts.
//!
//! ## What is modelled
//!
//! * [`device::DeviceSpec`] — per-architecture specifications (memory
//!   bandwidth, SM count, shared memory, peak FLOPS, capacity) with presets
//!   matching Table 2 plus the GTX 1080 used by SaberLDA and the evaluation
//!   platforms' Xeon CPUs.
//! * [`kernel`] — the execution model: a [`kernel::BlockKernel`] is launched
//!   over a grid of thread blocks; each block gets a [`kernel::BlockCtx`]
//!   that provides a deterministic per-block RNG, shared-memory accounting
//!   and operation counters.
//! * [`memory`] — device-memory capacity tracking (the paper's motivation
//!   for the `M > 1` scheduling mode) and shared-memory capacity checks.
//! * [`occupancy`] — a CUDA-style theoretical occupancy calculator (per-SM
//!   warp/block/shared-memory/register limits) for analysing the paper's
//!   32-samplers-per-block, shared-p*(k) kernel layout.
//! * [`transfer`] — PCIe 3.0 / NVLink / 10 GbE interconnect cost models.
//! * [`collective`] — the tree reduce + broadcast schedule of §5.2.
//! * [`stream`] — transfer/compute overlap for the pipelined `WorkSchedule2`.
//! * [`profile`] — per-kernel time breakdown (Table 5).
//! * [`multi_gpu`] — a multi-device system with a shared interconnect.
//! * [`cluster`] — multi-node clusters (`N` nodes × `G` GPUs) over a
//!   two-tier interconnect, with flat vs hierarchical φ-sync cost models.
//! * [`topology`] — interconnect topologies (PCIe tree, NVLink mesh) and the
//!   tree-vs-ring collective comparison used by the extension ablations.
//! * [`energy`] — per-architecture energy model (pJ/byte, pJ/flop) and
//!   per-run energy reports.
//! * [`trace`] — Chrome trace-event export of simulated timelines.

#![warn(missing_docs)]

pub mod cluster;
pub mod collective;
pub mod cost;
pub mod device;
pub mod energy;
pub mod kernel;
pub mod memory;
pub mod multi_gpu;
pub mod occupancy;
pub mod profile;
pub mod rng;
pub mod stream;
pub mod topology;
pub mod trace;
pub mod transfer;

pub use cluster::{ClusterSystem, ClusterTopology};
pub use collective::{overlapped_span_s, sharded_sync_times_s, ReducePlan};
pub use cost::{CostCounters, KernelTime};
pub use device::{Arch, Device, DeviceSpec, DeviceSpecBuilder};
pub use energy::{EnergyModel, EnergyReport};
pub use kernel::{BlockCtx, BlockKernel, KernelStats, LaunchConfig};
pub use memory::{DeviceMemory, OutOfMemory, SharedMemory};
pub use multi_gpu::MultiGpuSystem;
pub use occupancy::{ArchLimits, KernelResources, Occupancy, OccupancyLimiter};
pub use profile::Profiler;
pub use stream::PipelineModel;
pub use topology::Topology;
pub use trace::{TraceCollector, TraceKind, TraceSpan};
pub use transfer::Interconnect;
