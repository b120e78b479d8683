//! The stale per-word tables of the MH samplers, one set per rebuild.
//!
//! [`crate::kernels::AliasHybridSampler`] and
//! [`crate::kernels::LightLdaSampler`] both draw from per-word proposals
//! built from the synchronized φ̂ every `rebuild_every` iterations.  On the
//! paper's hardware every GPU builds the tables of its own chunk's words
//! from its own φ replica (§5.2).  The replicas are identical, and φ and
//! `n_k` are read-only while the compute phase runs, so the table of word
//! `v` is the same pure function for every chunk.  The host therefore keeps
//! one V-wide [`StaleTables`] per rebuild, shared by every chunk: a word's
//! table is built by the first chunk that reaches it
//! ([`StaleTables::get_or_build`]).  Every chunk still launches its own
//! build kernel over its own words, so the cost model charges each device's
//! build exactly as if it had built every table itself.

use crate::model::ChunkState;
use culda_sparse::DenseMatrix;
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};

/// One rebuild's stale tables, shared by every chunk, plus the global
/// snapshot they were built from.
pub(crate) struct StaleTables<P> {
    /// Iteration whose synchronized φ the tables snapshot.
    pub built_at: u64,
    /// True when restored from a checkpoint rather than captured at a live
    /// rebuild.  Chunks fill a restored set host-side at no cost (the
    /// uninterrupted run paid the builds before the checkpoint).
    pub restored: bool,
    snapshot: OnceLock<Snapshot>,
    slots: Vec<OnceLock<P>>,
}

/// The global `(φ̂, n̂)` a set of stale tables was built from: what a
/// checkpoint carries so a resume can rebuild the same tables.
pub(crate) struct Snapshot {
    /// The synchronized φ at `built_at` (`K × V`).
    pub phi_hat: DenseMatrix<u32>,
    /// The topic totals at `built_at` (the light sampler ignores them).
    pub nk_hat: Vec<i64>,
}

impl<P> StaleTables<P> {
    fn new(built_at: u64, vocab_size: usize, restored: bool) -> Self {
        let mut slots = Vec::with_capacity(vocab_size);
        slots.resize_with(vocab_size, OnceLock::new);
        StaleTables {
            built_at,
            restored,
            snapshot: OnceLock::new(),
            slots,
        }
    }

    /// The snapshot behind the tables, set when the set is opened.
    pub fn snapshot(&self) -> &Snapshot {
        self.snapshot
            .get()
            .expect("the chunk that opens a set captures its snapshot")
    }

    /// Word `v`'s table, built by `build` if no chunk has built it yet.
    pub fn get_or_build(&self, v: usize, build: impl FnOnce() -> P) -> &P {
        self.slots[v].get_or_init(build)
    }

    /// Word `v`'s table, which the chunk's `prepare_chunk` must have built.
    #[inline]
    pub fn get(&self, v: usize) -> &P {
        self.slots[v]
            .get()
            .expect("stale tables cover every word with tokens in the chunk")
    }

    /// The tables built so far, in word order.
    #[cfg(test)]
    pub fn built(&self) -> impl Iterator<Item = &P> {
        self.slots.iter().filter_map(OnceLock::get)
    }
}

/// What one chunk's `prepare_chunk` has to do at an iteration.
pub(crate) enum Prepare<P> {
    /// The current set stays valid and already holds the chunk's words.
    Keep,
    /// Fill the chunk's words from the restored snapshot, at no cost (a
    /// word some chunk already filled is skipped).
    Restore(Arc<StaleTables<P>>),
    /// Launch the chunk's build kernel into this iteration's set.
    Build(Arc<StaleTables<P>>),
}

/// The rebuild cadence and the current [`StaleTables`] of one sampler.
pub(crate) struct StaleCache<P> {
    rebuild_every: u64,
    current: Mutex<Option<Arc<StaleTables<P>>>>,
}

impl<P> StaleCache<P> {
    pub fn new(rebuild_every: usize) -> Self {
        assert!(rebuild_every >= 1, "rebuild_every must be at least 1");
        StaleCache {
            rebuild_every: rebuild_every as u64,
            current: Mutex::new(None),
        }
    }

    /// The configured rebuild cadence.
    pub fn rebuild_every(&self) -> usize {
        self.rebuild_every as usize
    }

    /// Whether tables built at `built_at` are rebuilt at `iteration`: on
    /// multiples of the cadence after the build.
    fn needs_rebuild(&self, built_at: u64, iteration: u64) -> bool {
        iteration > built_at && iteration.is_multiple_of(self.rebuild_every)
    }

    /// Decide what `state`'s chunk does at `iteration`.  Every chunk of an
    /// iteration reaches the same decision: the first chunk of a rebuild
    /// iteration opens the new set and captures its φ̂/n̂ snapshot, and
    /// every later chunk of that iteration builds into it.
    pub fn prepare(&self, state: &ChunkState, iteration: u64) -> Prepare<P> {
        let set = {
            let mut current = self.current.lock();
            if let Some(set) = current.as_ref() {
                if !set.restored && set.built_at == iteration {
                    return Prepare::Build(set.clone());
                }
                // A restored snapshot over another vocabulary cannot stand in.
                let fits = set.slots.len() == state.layout.vocab_size;
                if fits && !self.needs_rebuild(set.built_at, iteration) {
                    return if set.restored {
                        Prepare::Restore(set.clone())
                    } else {
                        Prepare::Keep
                    };
                }
            }
            let set = Arc::new(StaleTables::new(iteration, state.layout.vocab_size, false));
            *current = Some(set.clone());
            set
        };
        // Only the opening chunk gets here; the other chunks of the
        // iteration build their words meanwhile (φ is read-only until the
        // sync, so the capture sees the φ every table is built from).
        set.snapshot.get_or_init(|| Snapshot {
            phi_hat: state.phi_global.to_dense(),
            nk_hat: state.nk_global.to_vec(),
        });
        Prepare::Build(set)
    }

    /// Install a checkpointed snapshot; each chunk fills its words from it
    /// until the next rebuild on the original cadence.
    pub fn restore(&self, built_at: u64, phi_hat: DenseMatrix<u32>, nk_hat: Vec<i64>) {
        let set = StaleTables::new(built_at, phi_hat.cols(), true);
        set.snapshot.get_or_init(|| Snapshot { phi_hat, nk_hat });
        *self.current.lock() = Some(Arc::new(set));
    }

    /// The current set (`None` until the first rebuild or restore).
    pub fn current(&self) -> Option<Arc<StaleTables<P>>> {
        self.current.lock().clone()
    }

    /// The current set, for a sampling launch.
    pub fn tables(&self) -> Arc<StaleTables<P>> {
        self.current()
            .expect("prepare_chunk must run before sampling_kernel")
    }
}

/// Four chunks of one corpus sharing one synchronized φ / n_k, as in a
/// trainer, with that φ synchronized from a stable random initialization.
#[cfg(test)]
pub(crate) fn shared_chunks(num_topics: usize, seed: u64) -> Vec<Arc<ChunkState>> {
    use crate::config::LdaConfig;
    use crate::sync::{synchronize_phi_hier_sharded, HierarchicalSyncPlan};
    use culda_corpus::{DatasetProfile, Partitioner};
    use culda_gpusim::{DeviceSpec, Interconnect, MultiGpuSystem};

    let corpus = DatasetProfile {
        name: "stale".into(),
        num_docs: 80,
        vocab_size: 120,
        avg_doc_len: 24.0,
        zipf_exponent: 1.05,
        doc_len_sigma: 0.4,
    }
    .generate(seed);
    let cfg = LdaConfig::with_topics(num_topics);
    let phi = Arc::new(culda_sparse::AtomicMatrix::zeros(
        num_topics,
        corpus.vocab_size(),
    ));
    let nk = Arc::new(crate::model::TopicTotals::zeros(num_topics));
    let states: Vec<Arc<ChunkState>> = Partitioner::by_tokens(&corpus, 4)
        .build_layouts(&corpus)
        .into_iter()
        .enumerate()
        .map(|(i, layout)| {
            let st = ChunkState::with_globals(i, layout, phi.clone(), nk.clone());
            st.random_init_stable(&cfg, cfg.seed);
            Arc::new(st)
        })
        .collect();
    let system = MultiGpuSystem::homogeneous(DeviceSpec::v100_volta(), 4, 1, Interconnect::Pcie3);
    synchronize_phi_hier_sharded(&states, &system, &HierarchicalSyncPlan::dense(), true);
    states
}
