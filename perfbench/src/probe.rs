//! The kernel/sync probe: training iterations driven through the public
//! layer functions, one span per call.
//!
//! It repeats `culda_core::schedule::run_iteration` call for call for the
//! resident schedule: per device (in parallel, as the scheduler runs them),
//! per chunk, the sampler's `prepare_chunk`, the sampling launch, the
//! update-φ launch and the update-θ launch; then the φ synchronization
//! under the plan the trainer used for that iteration.  The caller proves
//! the probe ran the same program by comparing its z, φ and n_k, bit for
//! bit, with a `TrainingSession` given the same inputs.

use crate::trace::{timed, Tracer};
use culda_core::kernels::{names, UpdatePhiKernel, UpdateThetaKernel};
use culda_core::sync::{
    global_word_tokens, synchronize_phi_hier_over_ranges, synchronize_phi_hier_sharded,
};
use culda_core::{
    build_work_items, sampler_for, ChunkState, HierarchicalSyncPlan, LdaConfig, SamplerKernel,
    SamplerResumeState, WorkItem,
};
use culda_corpus::{Corpus, Partitioner};
use culda_gpusim::{LaunchConfig, MultiGpuSystem};
use culda_sparse::DenseMatrix;
use rayon::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Where the probe's topic assignments start.
pub enum Init<'a> {
    /// The trainer's counter-based random initialisation.
    Random,
    /// An explicit snapshot (`z[doc][token]`) continuing after `iterations`.
    Resume {
        z: &'a [Vec<u16>],
        iterations: u64,
        sampler_state: Option<&'a SamplerResumeState>,
    },
}

/// Simulated-clock totals of one probe iteration (summed over devices).
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTotals {
    pub setup_s: f64,
    pub sampling_s: f64,
    pub update_phi_s: f64,
    pub update_theta_s: f64,
    pub sync_s: f64,
    pub sampling_dram_bytes: u64,
    pub update_phi_atomics: u64,
    pub intra_bytes: u64,
    pub inter_bytes: u64,
}

impl std::ops::AddAssign for SimTotals {
    fn add_assign(&mut self, o: Self) {
        self.setup_s += o.setup_s;
        self.sampling_s += o.sampling_s;
        self.update_phi_s += o.update_phi_s;
        self.update_theta_s += o.update_theta_s;
        self.sync_s += o.sync_s;
        self.sampling_dram_bytes += o.sampling_dram_bytes;
        self.update_phi_atomics += o.update_phi_atomics;
        self.intra_bytes += o.intra_bytes;
        self.inter_bytes += o.inter_bytes;
    }
}

pub struct Probe {
    config: LdaConfig,
    system: MultiGpuSystem,
    sampler: Arc<dyn SamplerKernel>,
    states: Vec<Arc<ChunkState>>,
    items: Vec<Vec<WorkItem>>,
    num_docs: usize,
    next_iteration: u64,
}

impl Probe {
    /// Partition `corpus` into `num_chunks` chunks, build and initialise
    /// their states and work items, and run the initial φ sync under
    /// `plan` — the trainer's construction, layer by layer.  `config` must
    /// be the trainer's resolved configuration.
    pub fn build(
        tracer: &Tracer,
        corpus: &Corpus,
        config: &LdaConfig,
        system: MultiGpuSystem,
        num_chunks: usize,
        init: Init<'_>,
        plan: &HierarchicalSyncPlan,
    ) -> Probe {
        let t = Some(tracer);
        let (layouts, _) = timed(t, "corpus.partition", None, |_| {
            Partitioner::by_tokens(corpus, num_chunks).build_layouts(corpus)
        });
        let (states, _) = timed(t, "probe.init_states", None, |_| {
            layouts
                .into_iter()
                .enumerate()
                .map(|(i, layout)| {
                    let state = ChunkState::new(i, layout, config.num_topics);
                    match &init {
                        Init::Random => state.random_init_stable(config, config.seed),
                        Init::Resume { z, .. } => state.init_from_assignments(z),
                    }
                    Arc::new(state)
                })
                .collect::<Vec<_>>()
        });
        let (items, _) = timed(t, "probe.work_items", None, |_| {
            states
                .iter()
                .map(|s| build_work_items(&s.layout, config.max_tokens_per_block))
                .collect()
        });
        timed(t, "sync.initial", None, |_| {
            synchronize_phi_hier_sharded(&states, &system, plan, config.compress_16bit)
        });
        let sampler = sampler_for(config);
        let next_iteration = match init {
            Init::Random => 0,
            Init::Resume {
                iterations,
                sampler_state,
                ..
            } => {
                if let Some(state) = sampler_state {
                    sampler.restore_resume_state(state);
                }
                iterations
            }
        };
        Probe {
            config: config.clone(),
            system,
            sampler,
            states,
            items,
            num_docs: corpus.num_docs(),
            next_iteration,
        }
    }

    /// Run one iteration under `plan`, recording a `probe.iteration` span
    /// with one child span per layer call.
    pub fn iteration(&mut self, tracer: &Tracer, plan: &HierarchicalSyncPlan) -> SimTotals {
        let iteration = self.next_iteration;
        self.next_iteration += 1;
        let t = Some(tracer);
        let (sim, _) = timed(t, "probe.iteration", None, |it| {
            let g = self.system.num_gpus();
            let (per_device, _) = timed(t, "probe.compute", it, |compute| {
                (0..g)
                    .into_par_iter()
                    .map(|dev| self.device_pass(tracer, compute, dev, iteration))
                    .collect::<Vec<SimTotals>>()
            });
            let mut sim = SimTotals::default();
            for d in per_device {
                sim += d;
            }
            let states = &self.states;
            let compress = self.config.compress_16bit;
            let (sync, _) = timed(t, "sync.pass", it, |_| {
                if plan.overlaps() {
                    let ranges = plan
                        .base()
                        .token_balanced_ranges(&global_word_tokens(states));
                    synchronize_phi_hier_over_ranges(states, &self.system, ranges, compress, plan)
                } else {
                    synchronize_phi_hier_sharded(states, &self.system, plan, compress)
                }
            });
            sim.sync_s = sync.stats.time_s;
            sim.intra_bytes = sync.intra_bytes;
            sim.inter_bytes = sync.inter_bytes;
            sim
        });
        sim
    }

    /// One device's share of an iteration: every chunk it owns, in chunk
    /// order, exactly as the scheduler visits them.
    fn device_pass(
        &self,
        tracer: &Tracer,
        parent: Option<usize>,
        dev: usize,
        iteration: u64,
    ) -> SimTotals {
        let t = Some(tracer);
        let device = self.system.device(dev);
        let g = self.system.num_gpus();
        let config = &self.config;
        let mut sim = SimTotals::default();
        for (chunk, state) in self.states.iter().enumerate() {
            if chunk % g != dev {
                continue;
            }
            let items = &self.items[chunk];
            let (setup, _) = timed(t, "kernels.setup", parent, |_| {
                self.sampler.prepare_chunk(device, state, config, iteration)
            });
            sim.setup_s += setup;
            if !items.is_empty() {
                let (stats, _) = timed(t, "kernels.sampling", parent, |_| {
                    let kernel = self
                        .sampler
                        .sampling_kernel(state, items, config, iteration);
                    device.launch(self.sampler.name(), LaunchConfig::new(items.len()), &kernel)
                });
                sim.sampling_s += stats.time.total_s;
                sim.sampling_dram_bytes +=
                    stats.counters.dram_read_bytes + stats.counters.dram_write_bytes;
                let (stats, _) = timed(t, "kernels.update_phi", parent, |_| {
                    let kernel = UpdatePhiKernel {
                        state,
                        items,
                        compress_16bit: config.compress_16bit,
                    };
                    device.launch(names::UPDATE_PHI, LaunchConfig::new(items.len()), &kernel)
                });
                sim.update_phi_s += stats.time.total_s;
                sim.update_phi_atomics += stats.counters.atomic_ops;
            }
            if state.layout.num_docs() > 0 {
                let (stats, _) = timed(t, "kernels.update_theta", parent, |_| {
                    let saturation =
                        (device.spec.sm_count * device.spec.blocks_per_sm_saturation) as usize;
                    let docs_per_block = (state.layout.num_docs() / saturation.max(1)).clamp(1, 32);
                    let kernel =
                        UpdateThetaKernel::new(state, docs_per_block, config.compress_16bit);
                    let grid = kernel.grid_blocks();
                    let stats =
                        device.launch(names::UPDATE_THETA, LaunchConfig::new(grid), &kernel);
                    kernel.finish();
                    stats
                });
                sim.update_theta_s += stats.time.total_s;
            }
        }
        sim
    }

    /// Tokens one iteration samples.
    pub fn tokens(&self) -> u64 {
        self.states.iter().map(|s| s.num_tokens() as u64).sum()
    }

    /// Topic assignments per document in corpus order, per token in
    /// document order (the layout of `TrainingSession::z_snapshot`).
    pub fn z_snapshot(&self) -> Vec<Vec<u16>> {
        let mut docs = Vec::with_capacity(self.num_docs);
        for state in &self.states {
            for d in 0..state.layout.num_docs() {
                let row = state
                    .layout
                    .doc_positions(d)
                    .iter()
                    .map(|&pos| state.z[pos as usize].load(Ordering::Relaxed))
                    .collect();
                docs.push(row);
            }
        }
        docs
    }

    /// The synchronized φ.
    pub fn phi(&self) -> DenseMatrix<u32> {
        self.states[0].phi_global.to_dense()
    }

    /// The synchronized topic totals.
    pub fn nk(&self) -> Vec<i64> {
        self.states[0].nk_global.to_vec()
    }
}
