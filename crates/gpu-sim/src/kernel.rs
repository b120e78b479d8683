//! The kernel execution model.
//!
//! A kernel is launched over a grid of thread blocks (§2.2).  The simulator
//! executes one host task per thread block on the rayon pool — this mirrors
//! the real machine closely enough for correctness purposes (thread blocks
//! are independent except for global atomics, which map to host atomics) —
//! and charges simulated time from the operation counters each block
//! accumulates in its [`BlockCtx`].
//!
//! Kernels are written at "warp granularity": CuLDA_CGS dedicates one warp to
//! one sampler (§6.1.1), so the kernel code models a warp's vector step as a
//! single logical operation whose cost helpers account the full 32 lanes.

use crate::cost::{CostCounters, KernelTime};
use crate::device::Device;
use crate::memory::SharedMemory;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Most groups a launch's blocks run in.  The blocks of a group run one
/// after another on one thread and add up their counters, so the reduction
/// keeps a few KiB of partial sums instead of one per block: a launch of
/// thousands of blocks would otherwise allocate and free a partials buffer
/// of some 200 KiB on whichever pool thread launches it, which strands
/// memory in that thread's malloc arena.  The counters are integers, so the
/// grouping cannot change their sum.
const LAUNCH_GROUPS: usize = 256;

/// Launch geometry of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub grid_blocks: usize,
    /// Number of warps (samplers) per thread block; CuLDA_CGS uses 32, the
    /// maximum the hardware allows (§6.1.2).
    pub warps_per_block: u32,
}

impl LaunchConfig {
    /// A grid of `grid_blocks` blocks with the paper's 32 samplers per block.
    pub fn new(grid_blocks: usize) -> Self {
        LaunchConfig {
            grid_blocks,
            warps_per_block: 32,
        }
    }

    /// Total number of warps in the launch.
    pub fn total_warps(&self) -> u64 {
        self.grid_blocks as u64 * self.warps_per_block as u64
    }
}

/// Per-block execution context: operation counters and the block's
/// shared-memory budget.
#[derive(Debug)]
pub struct BlockCtx {
    /// Index of this block within the grid.
    pub block_id: usize,
    /// Operation counters accumulated by this block.
    pub counters: CostCounters,
    /// Shared-memory budget for this block.
    pub shared: SharedMemory,
    /// Warp width of the device (32 on NVIDIA GPUs, 1 on CPUs).
    pub warp_size: u32,
}

impl BlockCtx {
    /// Create a context (normally done by [`Device::launch`]).
    pub fn new(block_id: usize, shared_capacity: u64, warp_size: u32) -> Self {
        BlockCtx {
            block_id,
            counters: CostCounters::zero(),
            shared: SharedMemory::new(shared_capacity),
            warp_size,
        }
    }

    /// Account `bytes` read from global (off-chip) memory.
    #[inline]
    pub fn read_global(&mut self, bytes: u64) {
        self.counters.dram_read_bytes += bytes;
    }

    /// Account `bytes` written to global memory.
    #[inline]
    pub fn write_global(&mut self, bytes: u64) {
        self.counters.dram_write_bytes += bytes;
    }

    /// Account `bytes` served by the L1 cache (§6.1.2: sparse-index loads are
    /// routed through L1 following the cache-bypassing heuristics of \[28\]).
    #[inline]
    pub fn read_l1(&mut self, bytes: u64) {
        self.counters.l1_bytes += bytes;
    }

    /// Account `bytes` of shared-memory traffic (reads or writes).
    #[inline]
    pub fn shared_traffic(&mut self, bytes: u64) {
        self.counters.shared_bytes += bytes;
    }

    /// Try to reserve shared memory for a block-lifetime structure (the p2
    /// index tree, the p*(k) array).  Returns `false` when it does not fit,
    /// in which case the caller should account the structure's traffic as L1
    /// instead (the spill path).
    #[inline]
    pub fn shared_alloc(&mut self, bytes: u64) -> bool {
        self.shared.try_alloc(bytes)
    }

    /// Account `n` single-precision floating-point operations.
    #[inline]
    pub fn flops(&mut self, n: u64) {
        self.counters.flops += n;
    }

    /// Account `n` integer ALU operations.
    #[inline]
    pub fn int_ops(&mut self, n: u64) {
        self.counters.int_ops += n;
    }

    /// Account `n` global-memory atomic operations (each also touches DRAM).
    #[inline]
    pub fn atomics(&mut self, n: u64) {
        self.counters.atomic_ops += n;
        self.counters.dram_write_bytes += 4 * n;
    }

    /// Counter-based draw in `[0, 1)`: a pure function of
    /// `(seed, stream, counter)`, independent of which block, launch or
    /// device executes it (see [`crate::rng::stable_f32`]).  Costed like any
    /// other RNG draw.
    #[inline]
    pub fn stable_f32(&mut self, seed: u64, stream: u64, counter: u64) -> f32 {
        self.counters.rng_draws += 1;
        crate::rng::stable_f32(seed, stream, counter)
    }
}

/// A kernel body executed once per thread block.
///
/// Implemented by closures of type `Fn(usize, &mut BlockCtx)`.
pub trait BlockKernel: Sync {
    /// Execute the block with index `block_id`.
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx);
}

impl<F> BlockKernel for F
where
    F: Fn(usize, &mut BlockCtx) + Sync,
{
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
        self(block_id, ctx)
    }
}

// Kernels selected at runtime (e.g. the pluggable sampler kernels of
// `culda-core`) arrive as boxed trait objects; this forwarding impl — plus
// `Device::launch` accepting `?Sized` kernels — lets them launch directly.
impl BlockKernel for Box<dyn BlockKernel + '_> {
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
        (**self).run_block(block_id, ctx)
    }
}

/// Result of one kernel launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Kernel name (profiling key).
    pub name: String,
    /// Launch geometry.
    pub config: LaunchConfig,
    /// Summed operation counters of all blocks.
    pub counters: CostCounters,
    /// Simulated execution time under the device's roofline model.
    pub time: KernelTime,
}

impl Device {
    /// Launch `kernel` over `config.grid_blocks` thread blocks.
    ///
    /// Blocks execute concurrently on the host thread pool (real OS threads,
    /// `CULDA_NUM_THREADS` wide); their counters are reduced and converted
    /// into simulated time, which is recorded in the device profiler under
    /// `name`.  The result is independent of which thread runs which block:
    /// kernels draw randomness only through [`BlockCtx::stable_f32`] (or the
    /// counter-based generator it wraps), a pure function of the logical
    /// unit of work rather than of any shared RNG stream, and the counters
    /// are integers, summed over contiguous block groups, so neither
    /// randomness nor summation order can vary with scheduling.
    pub fn launch<K: BlockKernel + ?Sized>(
        &self,
        name: &str,
        config: LaunchConfig,
        kernel: &K,
    ) -> KernelStats {
        let grid = config.grid_blocks;
        let per_group = grid.div_ceil(LAUNCH_GROUPS).max(1);
        let counters: CostCounters = (0..grid.div_ceil(per_group))
            .into_par_iter()
            .map(|g| {
                let mut counters = CostCounters::zero();
                for b in g * per_group..((g + 1) * per_group).min(grid) {
                    let mut ctx =
                        BlockCtx::new(b, self.spec.shared_mem_per_block, self.spec.warp_size);
                    kernel.run_block(b, &mut ctx);
                    counters += ctx.counters;
                }
                counters
            })
            .sum();
        let time = self.time_for(&counters, config.grid_blocks);
        self.record_time(name, time.total_s);
        KernelStats {
            name: name.to_owned(),
            config,
            counters,
            time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn device() -> Device {
        Device::new(0, DeviceSpec::titan_x_maxwell(), 123)
    }

    #[test]
    fn launch_runs_every_block_exactly_once() {
        let dev = device();
        let hits = AtomicU64::new(0);
        let kernel = |_b: usize, ctx: &mut BlockCtx| {
            hits.fetch_add(1, Ordering::Relaxed);
            ctx.read_global(100);
        };
        let stats = dev.launch("test", LaunchConfig::new(64), &kernel);
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert_eq!(stats.counters.dram_read_bytes, 6400);
        assert!(stats.time.total_s > 0.0);
    }

    #[test]
    fn counters_are_summed_across_blocks() {
        let dev = device();
        let kernel = |b: usize, ctx: &mut BlockCtx| {
            ctx.flops(b as u64);
            ctx.atomics(1);
        };
        let stats = dev.launch("sum", LaunchConfig::new(10), &kernel);
        assert_eq!(stats.counters.flops, (0..10u64).sum());
        assert_eq!(stats.counters.atomic_ops, 10);
    }

    #[test]
    fn launches_are_deterministic_for_a_seed() {
        // Counters depend on the kernel's RNG seed, never on the device's.
        let run = |kernel_seed: u64, device_seed: u64| {
            let dev = Device::new(0, DeviceSpec::gtx_1080(), device_seed);
            let kernel = |b: usize, ctx: &mut BlockCtx| {
                let u = ctx.stable_f32(kernel_seed, 0, b as u64);
                ctx.read_global((u * 1000.0) as u64);
            };
            dev.launch("k", LaunchConfig::new(50), &kernel).counters
        };
        assert_eq!(run(7, 1), run(7, 1));
        assert_eq!(run(7, 1), run(7, 2));
        assert_ne!(run(7, 1), run(8, 1));
    }

    #[test]
    fn profiler_accumulates_across_launches() {
        let dev = device();
        let kernel = |_b: usize, ctx: &mut BlockCtx| ctx.read_global(1 << 20);
        dev.launch("sampling", LaunchConfig::new(100), &kernel);
        dev.launch("sampling", LaunchConfig::new(100), &kernel);
        dev.launch("update_phi", LaunchConfig::new(100), &kernel);
        let pct = dev.profiler.percentages();
        let sampling = pct.iter().find(|(n, _)| n == "sampling").unwrap().1;
        assert!((sampling - 2.0 / 3.0 * 100.0).abs() < 1.0);
    }

    #[test]
    fn shared_alloc_respects_block_budget() {
        let dev = device(); // Maxwell: 48 KiB shared per block
        let kernel = |_b: usize, ctx: &mut BlockCtx| {
            assert!(ctx.shared_alloc(40 * 1024));
            assert!(!ctx.shared_alloc(20 * 1024));
            ctx.shared_traffic(64);
        };
        let stats = dev.launch("shared", LaunchConfig::new(4), &kernel);
        assert_eq!(stats.counters.shared_bytes, 4 * 64);
    }

    #[test]
    fn rng_draws_are_counted() {
        let dev = device();
        let kernel = |b: usize, ctx: &mut BlockCtx| {
            for i in 0..10 {
                ctx.stable_f32(1, b as u64, i);
            }
        };
        let stats = dev.launch("rng", LaunchConfig::new(8), &kernel);
        assert_eq!(stats.counters.rng_draws, 80);
    }

    #[test]
    fn boxed_trait_object_kernels_launch_like_concrete_ones() {
        let dev_a = Device::new(0, DeviceSpec::v100_volta(), 3);
        let dev_b = Device::new(0, DeviceSpec::v100_volta(), 3);
        let concrete = |_b: usize, ctx: &mut BlockCtx| {
            ctx.read_global(64);
            ctx.flops(8);
        };
        let boxed: Box<dyn BlockKernel> = Box::new(concrete);
        let a = dev_a.launch("k", LaunchConfig::new(16), &concrete);
        let b = dev_b.launch("k", LaunchConfig::new(16), &boxed);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.time, b.time);
    }

    #[test]
    fn launch_config_total_warps() {
        let cfg = LaunchConfig::new(10);
        assert_eq!(cfg.warps_per_block, 32);
        assert_eq!(cfg.total_warps(), 320);
    }
}
