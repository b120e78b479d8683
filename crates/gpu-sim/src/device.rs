//! Device specifications and device instances.
//!
//! The presets mirror Table 2 of the paper (the three evaluation platforms)
//! plus the GTX 1080 used by the cited SaberLDA results and the Xeon CPUs the
//! CPU baselines run on.  Peak numbers are the vendor specifications the
//! paper quotes; *effective* numbers are derived with per-architecture
//! efficiency factors that reflect how much of the peak an irregular,
//! gather-heavy workload like LDA sampling can realistically achieve.

use crate::cost::{kernel_time, CostCounters, KernelTime};
use crate::memory::DeviceMemory;
use crate::profile::Profiler;
use serde::{Deserialize, Serialize};

/// Processor micro-architecture family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Arch {
    /// NVIDIA Kepler (K40) — the generation preceding the paper's platforms.
    Kepler,
    /// NVIDIA Maxwell (Titan X).
    Maxwell,
    /// NVIDIA Pascal (Titan Xp, GTX 1080, P100).
    Pascal,
    /// NVIDIA Volta (V100).
    Volta,
    /// NVIDIA Ampere (A100) — a post-publication generation, used to check
    /// the paper's "scales to future GPUs" claim.
    Ampere,
    /// A host CPU socket (used by the CPU baselines).
    Cpu,
}

impl Arch {
    /// True for GPU architectures.
    pub fn is_gpu(self) -> bool {
        !matches!(self, Arch::Cpu)
    }
}

/// Static description of one processor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"NVIDIA TITAN X (Maxwell)"`.
    pub name: String,
    /// Micro-architecture family.
    pub arch: Arch,
    /// Streaming multiprocessors (or CPU cores for [`Arch::Cpu`]).
    pub sm_count: u32,
    /// Warp width (threads executing in lock-step); 1 for CPUs.
    pub warp_size: u32,
    /// Peak off-chip memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Fraction of peak bandwidth achievable by gather-heavy kernels.
    pub mem_efficiency: f64,
    /// Peak single-precision throughput in GFLOPS.
    pub peak_gflops: f64,
    /// On-chip (shared memory / L1 / L2-cache) bandwidth advantage over DRAM.
    pub on_chip_bw_multiplier: f64,
    /// Shared memory available to one thread block, in bytes (0 for CPUs).
    pub shared_mem_per_block: u64,
    /// Device memory capacity in bytes.
    pub mem_capacity_bytes: u64,
    /// Sustained global atomic throughput in billions of operations/s
    /// (assuming good locality, as §6.2 notes for the φ update).
    pub atomic_gops_per_s: f64,
    /// Fixed kernel-launch (or parallel-region fork) overhead in seconds.
    pub kernel_launch_overhead_s: f64,
    /// Thread blocks per SM needed to fully hide latency.
    pub blocks_per_sm_saturation: u32,
}

impl DeviceSpec {
    /// NVIDIA Titan X, Maxwell architecture — the "Maxwell platform" GPU of
    /// Table 2 (336 GB/s, 24 SMs, 12 GB).
    pub fn titan_x_maxwell() -> Self {
        DeviceSpec {
            name: "NVIDIA TITAN X (Maxwell)".into(),
            arch: Arch::Maxwell,
            sm_count: 24,
            warp_size: 32,
            mem_bandwidth_gbps: 336.0,
            mem_efficiency: 0.58,
            peak_gflops: 6_100.0,
            on_chip_bw_multiplier: 8.0,
            shared_mem_per_block: 48 * 1024,
            mem_capacity_bytes: 12 * (1 << 30),
            atomic_gops_per_s: 20.0,
            kernel_launch_overhead_s: 8e-6,
            blocks_per_sm_saturation: 2,
        }
    }

    /// NVIDIA Titan Xp, Pascal architecture — the "Pascal platform" GPU of
    /// Table 2 (550 GB/s, 28 SMs, 12 GB).
    pub fn titan_xp_pascal() -> Self {
        DeviceSpec {
            name: "NVIDIA Titan Xp (Pascal)".into(),
            arch: Arch::Pascal,
            sm_count: 28,
            warp_size: 32,
            mem_bandwidth_gbps: 550.0,
            mem_efficiency: 0.55,
            peak_gflops: 12_100.0,
            on_chip_bw_multiplier: 8.0,
            shared_mem_per_block: 48 * 1024,
            mem_capacity_bytes: 12 * (1 << 30),
            atomic_gops_per_s: 30.0,
            kernel_launch_overhead_s: 7e-6,
            blocks_per_sm_saturation: 2,
        }
    }

    /// NVIDIA V100, Volta architecture — the "Volta platform" GPU of Table 2
    /// (900 GB/s, 80 SMs, 16 GB).
    pub fn v100_volta() -> Self {
        DeviceSpec {
            name: "NVIDIA V100 (Volta)".into(),
            arch: Arch::Volta,
            sm_count: 80,
            warp_size: 32,
            mem_bandwidth_gbps: 900.0,
            mem_efficiency: 0.78,
            peak_gflops: 14_000.0,
            on_chip_bw_multiplier: 10.0,
            shared_mem_per_block: 96 * 1024,
            mem_capacity_bytes: 16 * (1 << 30),
            atomic_gops_per_s: 50.0,
            kernel_launch_overhead_s: 5e-6,
            blocks_per_sm_saturation: 2,
        }
    }

    /// NVIDIA GTX 1080 — the GPU the cited SaberLDA numbers were measured on
    /// (§7.2; "more powerful than Titan X" in compute, 320 GB/s bandwidth).
    pub fn gtx_1080() -> Self {
        DeviceSpec {
            name: "NVIDIA GTX 1080 (Pascal)".into(),
            arch: Arch::Pascal,
            sm_count: 20,
            warp_size: 32,
            mem_bandwidth_gbps: 320.0,
            mem_efficiency: 0.55,
            peak_gflops: 8_900.0,
            on_chip_bw_multiplier: 8.0,
            shared_mem_per_block: 48 * 1024,
            mem_capacity_bytes: 8 * (1 << 30),
            atomic_gops_per_s: 25.0,
            kernel_launch_overhead_s: 7e-6,
            blocks_per_sm_saturation: 2,
        }
    }

    /// Intel Xeon E5-2690 v4 — the CPU of the Volta platform, used by the
    /// paper to run WarpLDA ("the most powerful one among all of the in-hand
    /// CPUs"): 470 GFLOPS peak, 51.2 GB/s of theoretical memory bandwidth.
    ///
    /// `mem_efficiency > 1` models the large L2/L3 caches that CPU LDA
    /// implementations (WarpLDA in particular) are designed to exploit; the
    /// paper's §3.2 discusses exactly this cache dependence and why it stops
    /// scaling once the working set outgrows the cache.
    pub fn xeon_e5_2690v4() -> Self {
        DeviceSpec {
            name: "Intel Xeon E5-2690 v4".into(),
            arch: Arch::Cpu,
            sm_count: 14,
            warp_size: 1,
            mem_bandwidth_gbps: 51.2,
            mem_efficiency: 1.35,
            peak_gflops: 470.0,
            on_chip_bw_multiplier: 6.0,
            shared_mem_per_block: 0,
            mem_capacity_bytes: 64 * (1 << 30),
            atomic_gops_per_s: 0.6,
            kernel_launch_overhead_s: 2e-6,
            blocks_per_sm_saturation: 1,
        }
    }

    /// Intel Xeon E5-2670 — the CPU of the Maxwell platform (Table 2).
    pub fn xeon_e5_2670() -> Self {
        DeviceSpec {
            name: "Intel Xeon E5-2670".into(),
            arch: Arch::Cpu,
            sm_count: 8,
            warp_size: 1,
            mem_bandwidth_gbps: 51.2,
            mem_efficiency: 1.1,
            peak_gflops: 330.0,
            on_chip_bw_multiplier: 5.0,
            shared_mem_per_block: 0,
            mem_capacity_bytes: 64 * (1 << 30),
            atomic_gops_per_s: 0.5,
            kernel_launch_overhead_s: 2e-6,
            blocks_per_sm_saturation: 1,
        }
    }

    /// NVIDIA Tesla K40 (Kepler) — an older-generation GPU used by the
    /// ablation that checks CuLDA_CGS degrades gracefully on pre-Maxwell
    /// hardware (288 GB/s, 15 SMs, 12 GB).
    pub fn k40_kepler() -> Self {
        DeviceSpec {
            name: "NVIDIA Tesla K40 (Kepler)".into(),
            arch: Arch::Kepler,
            sm_count: 15,
            warp_size: 32,
            mem_bandwidth_gbps: 288.0,
            mem_efficiency: 0.50,
            peak_gflops: 4_300.0,
            on_chip_bw_multiplier: 6.0,
            shared_mem_per_block: 48 * 1024,
            mem_capacity_bytes: 12 * (1 << 30),
            atomic_gops_per_s: 10.0,
            kernel_launch_overhead_s: 10e-6,
            blocks_per_sm_saturation: 2,
        }
    }

    /// NVIDIA Tesla P100 (Pascal) — the HBM2 datacentre Pascal part
    /// (732 GB/s, 56 SMs, 16 GB).
    pub fn p100_pascal() -> Self {
        DeviceSpec {
            name: "NVIDIA Tesla P100 (Pascal)".into(),
            arch: Arch::Pascal,
            sm_count: 56,
            warp_size: 32,
            mem_bandwidth_gbps: 732.0,
            mem_efficiency: 0.60,
            peak_gflops: 9_300.0,
            on_chip_bw_multiplier: 8.0,
            shared_mem_per_block: 64 * 1024,
            mem_capacity_bytes: 16 * (1 << 30),
            atomic_gops_per_s: 35.0,
            kernel_launch_overhead_s: 6e-6,
            blocks_per_sm_saturation: 2,
        }
    }

    /// NVIDIA A100 (Ampere) — a post-publication GPU (1 555 GB/s, 108 SMs,
    /// 40 GB) used to extrapolate the paper's "scales to future GPUs" claim.
    pub fn a100_ampere() -> Self {
        DeviceSpec {
            name: "NVIDIA A100 (Ampere)".into(),
            arch: Arch::Ampere,
            sm_count: 108,
            warp_size: 32,
            mem_bandwidth_gbps: 1_555.0,
            mem_efficiency: 0.80,
            peak_gflops: 19_500.0,
            on_chip_bw_multiplier: 12.0,
            shared_mem_per_block: 160 * 1024,
            mem_capacity_bytes: 40 * (1u64 << 30),
            atomic_gops_per_s: 80.0,
            kernel_launch_overhead_s: 4e-6,
            blocks_per_sm_saturation: 2,
        }
    }

    /// Start a builder for a custom device specification, seeded from an
    /// existing preset (typically the closest real device).
    pub fn builder(base: DeviceSpec) -> DeviceSpecBuilder {
        DeviceSpecBuilder { spec: base }
    }

    /// Effective (achievable) off-chip bandwidth in bytes/second.
    pub fn effective_bandwidth_bytes_per_s(&self) -> f64 {
        self.mem_bandwidth_gbps * 1e9 * self.mem_efficiency
    }

    /// On-chip (shared memory / cache) bandwidth in bytes/second.
    pub fn on_chip_bandwidth_bytes_per_s(&self) -> f64 {
        self.mem_bandwidth_gbps * 1e9 * self.on_chip_bw_multiplier
    }

    /// Peak-FLOPS to peak-bandwidth ratio (Flops/Byte), the roofline ridge
    /// point the paper computes in §3.1 (9.2 for the Volta platform's CPU).
    pub fn ridge_flops_per_byte(&self) -> f64 {
        self.peak_gflops * 1e9 / (self.mem_bandwidth_gbps * 1e9)
    }

    /// Occupancy derate for a launch of `grid_blocks` thread blocks: a grid
    /// too small to fill every SM leaves bandwidth unused.
    pub fn occupancy(&self, grid_blocks: usize) -> f64 {
        let needed = (self.sm_count * self.blocks_per_sm_saturation) as f64;
        ((grid_blocks as f64) / needed).clamp(0.02, 1.0)
    }
}

/// Builder for custom [`DeviceSpec`]s (hypothetical or future devices used by
/// the scaling ablations).
#[derive(Debug, Clone)]
pub struct DeviceSpecBuilder {
    spec: DeviceSpec,
}

impl DeviceSpecBuilder {
    /// Override the marketing name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.spec.name = name.into();
        self
    }

    /// Override the peak off-chip bandwidth in GB/s.
    pub fn mem_bandwidth_gbps(mut self, gbps: f64) -> Self {
        self.spec.mem_bandwidth_gbps = gbps;
        self
    }

    /// Override the achievable fraction of peak bandwidth.
    pub fn mem_efficiency(mut self, efficiency: f64) -> Self {
        self.spec.mem_efficiency = efficiency;
        self
    }

    /// Override the SM (or CPU-core) count.
    pub fn sm_count(mut self, sms: u32) -> Self {
        self.spec.sm_count = sms;
        self
    }

    /// Override the peak single-precision throughput in GFLOPS.
    pub fn peak_gflops(mut self, gflops: f64) -> Self {
        self.spec.peak_gflops = gflops;
        self
    }

    /// Override the device-memory capacity in bytes.
    pub fn mem_capacity_bytes(mut self, bytes: u64) -> Self {
        self.spec.mem_capacity_bytes = bytes;
        self
    }

    /// Override the shared memory per thread block in bytes.
    pub fn shared_mem_per_block(mut self, bytes: u64) -> Self {
        self.spec.shared_mem_per_block = bytes;
        self
    }

    /// Finish the builder.
    ///
    /// # Panics
    /// Panics if the resulting spec is degenerate (zero bandwidth, zero SMs
    /// or out-of-range efficiency).
    pub fn build(self) -> DeviceSpec {
        let s = &self.spec;
        assert!(s.mem_bandwidth_gbps > 0.0, "bandwidth must be positive");
        assert!(s.sm_count > 0, "sm_count must be positive");
        assert!(
            s.mem_efficiency > 0.0 && s.mem_efficiency <= 2.0,
            "mem_efficiency out of range"
        );
        assert!(s.peak_gflops > 0.0, "peak_gflops must be positive");
        self.spec
    }
}

/// A device instance: a spec plus mutable simulation state (memory allocator,
/// per-kernel profile, simulated busy time).
#[derive(Debug)]
pub struct Device {
    /// Device index within its system (the CUDA device ordinal).
    pub id: usize,
    /// Static specification.
    pub spec: DeviceSpec,
    /// Device-memory allocator / capacity tracker.
    pub memory: DeviceMemory,
    /// Per-kernel time profile (feeds Table 5).
    pub profiler: Profiler,
    /// Seed the device was created with (carried into clones of its
    /// system; kernel randomness is keyed by the kernels themselves).
    pub seed: u64,
    busy_time_s: parking_lot::Mutex<f64>,
}

impl Device {
    /// Create device `id` with the given spec and RNG seed.
    pub fn new(id: usize, spec: DeviceSpec, seed: u64) -> Self {
        let memory = DeviceMemory::new(spec.mem_capacity_bytes);
        Device {
            id,
            spec,
            memory,
            profiler: Profiler::new(),
            seed,
            busy_time_s: parking_lot::Mutex::new(0.0),
        }
    }

    /// Record `seconds` of simulated busy time attributed to `kernel_name`.
    pub fn record_time(&self, kernel_name: &str, seconds: f64) {
        self.profiler.record(kernel_name, seconds);
        *self.busy_time_s.lock() += seconds;
    }

    /// Total simulated busy time accumulated so far.
    pub fn busy_time_s(&self) -> f64 {
        *self.busy_time_s.lock()
    }

    /// Reset the simulated clock and profile (used between experiments).
    pub fn reset_time(&self) {
        *self.busy_time_s.lock() = 0.0;
        self.profiler.reset();
    }

    /// Convert raw counters into a [`KernelTime`] under this device's spec.
    pub fn time_for(&self, counters: &CostCounters, grid_blocks: usize) -> KernelTime {
        kernel_time(&self.spec, counters, grid_blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_bandwidths_match_paper() {
        assert_eq!(DeviceSpec::titan_x_maxwell().mem_bandwidth_gbps, 336.0);
        assert_eq!(DeviceSpec::titan_xp_pascal().mem_bandwidth_gbps, 550.0);
        assert_eq!(DeviceSpec::v100_volta().mem_bandwidth_gbps, 900.0);
        assert_eq!(DeviceSpec::v100_volta().sm_count, 80);
    }

    #[test]
    fn cpu_ridge_point_is_about_9() {
        // §3.1: 470 GFLOPS / 51.2 GB/s ≈ 9.2 Flops/Byte.
        let cpu = DeviceSpec::xeon_e5_2690v4();
        let ridge = cpu.ridge_flops_per_byte();
        assert!((ridge - 9.18).abs() < 0.1, "ridge {ridge}");
    }

    #[test]
    fn gpu_effective_bandwidth_exceeds_cpu() {
        let cpu = DeviceSpec::xeon_e5_2690v4().effective_bandwidth_bytes_per_s();
        for gpu in [
            DeviceSpec::titan_x_maxwell(),
            DeviceSpec::titan_xp_pascal(),
            DeviceSpec::v100_volta(),
            DeviceSpec::gtx_1080(),
        ] {
            assert!(gpu.effective_bandwidth_bytes_per_s() > cpu, "{}", gpu.name);
        }
    }

    #[test]
    fn occupancy_saturates_at_one() {
        let spec = DeviceSpec::v100_volta();
        assert_eq!(spec.occupancy(1_000_000), 1.0);
        assert!(spec.occupancy(8) <= 0.06);
        assert!(spec.occupancy(0) >= 0.02);
    }

    #[test]
    fn arch_is_gpu_classification() {
        assert!(Arch::Volta.is_gpu());
        assert!(Arch::Maxwell.is_gpu());
        assert!(!Arch::Cpu.is_gpu());
    }

    #[test]
    fn device_records_time_and_resets() {
        let dev = Device::new(0, DeviceSpec::titan_x_maxwell(), 42);
        dev.record_time("sampling", 0.5);
        dev.record_time("sampling", 0.25);
        dev.record_time("update_phi", 0.25);
        assert!((dev.busy_time_s() - 1.0).abs() < 1e-12);
        let breakdown = dev.profiler.breakdown();
        assert!((breakdown["sampling"] - 0.75).abs() < 1e-12);
        dev.reset_time();
        assert_eq!(dev.busy_time_s(), 0.0);
        assert!(dev.profiler.breakdown().is_empty());
    }

    #[test]
    fn device_memory_capacity_matches_spec() {
        let dev = Device::new(0, DeviceSpec::titan_x_maxwell(), 0);
        assert_eq!(dev.memory.capacity(), 12 * (1 << 30));
    }

    #[test]
    fn extra_presets_order_by_generation_bandwidth() {
        // K40 < Titan X < P100 < V100 < A100 in effective bandwidth — the
        // ordering the cross-generation experiments rely on.
        let seq = [
            DeviceSpec::k40_kepler(),
            DeviceSpec::titan_x_maxwell(),
            DeviceSpec::p100_pascal(),
            DeviceSpec::v100_volta(),
            DeviceSpec::a100_ampere(),
        ];
        for pair in seq.windows(2) {
            assert!(
                pair[1].effective_bandwidth_bytes_per_s()
                    > pair[0].effective_bandwidth_bytes_per_s(),
                "{} should beat {}",
                pair[1].name,
                pair[0].name
            );
        }
        assert!(Arch::Ampere.is_gpu() && Arch::Kepler.is_gpu());
    }

    #[test]
    fn builder_overrides_fields_and_validates() {
        let custom = DeviceSpec::builder(DeviceSpec::v100_volta())
            .name("Hypothetical 2 TB/s GPU")
            .mem_bandwidth_gbps(2_000.0)
            .sm_count(160)
            .peak_gflops(30_000.0)
            .mem_capacity_bytes(80 * (1u64 << 30))
            .build();
        assert_eq!(custom.name, "Hypothetical 2 TB/s GPU");
        assert_eq!(custom.mem_bandwidth_gbps, 2_000.0);
        assert_eq!(custom.arch, Arch::Volta); // inherited from the base
        assert!(
            custom.effective_bandwidth_bytes_per_s()
                > DeviceSpec::v100_volta().effective_bandwidth_bytes_per_s()
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn builder_rejects_degenerate_specs() {
        let _ = DeviceSpec::builder(DeviceSpec::v100_volta())
            .mem_bandwidth_gbps(0.0)
            .build();
    }
}
