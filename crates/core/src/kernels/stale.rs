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
//!
//! The φ̂ a set was built from is kept as sparse word columns
//! ([`Snapshot`]): one word's non-zero `(topic, count)` pairs, captured in
//! one pass over the word-major φ.  Its heap is `O(nnz + V)`, where a dense
//! copy would be `K × V`.  The dense form exists only at the checkpoint
//! boundary: [`Snapshot::to_dense`] makes it while a checkpoint is written,
//! and [`StaleCache::restore`] converts a loaded one to columns.

use crate::model::ChunkState;
use culda_sparse::{AtomicMatrix, DenseMatrix};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
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
    /// One slot per word.  A table is boxed so the V-wide slot vector each
    /// rebuild allocates takes 16 bytes per word instead of a whole table
    /// (a light proposal is over 100 bytes before its buffers); unboxed,
    /// tail peak RSS read about 4.5 MiB higher.
    slots: Vec<OnceLock<Box<P>>>,
    /// The tables of the set this one replaced, when nothing else held
    /// that set any more: word `v`'s build rebuilds `spares[v]` in place
    /// instead of allocating, so a rebuild neither frees nor allocates a
    /// table on whichever pool thread happens to claim the word.
    spares: Mutex<Vec<OnceLock<Box<P>>>>,
}

/// The global `(φ̂, n̂)` a set of stale tables was built from: what a
/// checkpoint carries so a resume can rebuild the same tables.
///
/// φ̂ is stored as sparse word columns: word `v`'s non-zero counts are
/// `counts[offsets[v]..offsets[v + 1]]`, at the ascending topics of the same
/// range of `topics`.
pub(crate) struct Snapshot {
    num_topics: usize,
    /// `V + 1` offsets into `topics` / `counts`.
    offsets: Vec<usize>,
    topics: Vec<u16>,
    counts: Vec<u32>,
    /// The topic totals at `built_at` (the light sampler ignores them).
    pub nk_hat: Vec<i64>,
}

impl Snapshot {
    /// Capture the synchronized φ, one word column at a time.
    fn capture(phi: &AtomicMatrix, nk_hat: Vec<i64>) -> Self {
        let mut offsets = Vec::with_capacity(phi.cols() + 1);
        offsets.push(0);
        let (mut topics, mut counts) = (Vec::new(), Vec::new());
        for v in 0..phi.cols() {
            for (k, c) in phi.column(v).iter().enumerate() {
                let c = c.load(Ordering::Relaxed);
                if c != 0 {
                    topics.push(k as u16);
                    counts.push(c);
                }
            }
            offsets.push(topics.len());
        }
        Snapshot {
            num_topics: phi.rows(),
            offsets,
            topics,
            counts,
            nk_hat,
        }
    }

    /// The columns of a dense `K × V` φ̂, read row by row: count each word's
    /// non-zeros, then place them in topic order.
    fn from_dense(phi_hat: &DenseMatrix<u32>, nk_hat: Vec<i64>) -> Self {
        let vocab = phi_hat.cols();
        let mut offsets = vec![0usize; vocab + 1];
        for k in 0..phi_hat.rows() {
            for (v, &c) in phi_hat.row(k).iter().enumerate() {
                offsets[v + 1] += (c != 0) as usize;
            }
        }
        for v in 0..vocab {
            offsets[v + 1] += offsets[v];
        }
        let nnz = offsets[vocab];
        let (mut topics, mut counts) = (vec![0u16; nnz], vec![0u32; nnz]);
        let mut next = offsets[..vocab].to_vec();
        for k in 0..phi_hat.rows() {
            for (v, &c) in phi_hat.row(k).iter().enumerate() {
                if c != 0 {
                    topics[next[v]] = k as u16;
                    counts[next[v]] = c;
                    next[v] += 1;
                }
            }
        }
        Snapshot {
            num_topics: phi_hat.rows(),
            offsets,
            topics,
            counts,
            nk_hat,
        }
    }

    /// The vocabulary width `V` of the snapshot.
    fn vocab_size(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Word `v`'s `K` stale counts, zeros included.
    pub fn dense_column(&self, v: usize) -> Vec<u32> {
        let mut column = vec![0u32; self.num_topics];
        let range = self.offsets[v]..self.offsets[v + 1];
        for (&k, &c) in self.topics[range.clone()].iter().zip(&self.counts[range]) {
            column[k as usize] = c;
        }
        column
    }

    /// The number of stored `(topic, count)` pairs.
    #[cfg(test)]
    fn nnz(&self) -> usize {
        self.counts.len()
    }

    /// The snapshot as the dense `K × V` φ̂ a checkpoint stores.
    pub fn to_dense(&self) -> DenseMatrix<u32> {
        let mut dense = DenseMatrix::zeros(self.num_topics, self.vocab_size());
        for v in 0..self.vocab_size() {
            for i in self.offsets[v]..self.offsets[v + 1] {
                dense.set(self.topics[i] as usize, v, self.counts[i]);
            }
        }
        dense
    }
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
            spares: Mutex::new(Vec::new()),
        }
    }

    /// The snapshot behind the tables, set when the set is opened.
    pub fn snapshot(&self) -> &Snapshot {
        self.snapshot
            .get()
            .expect("the chunk that opens a set captures its snapshot")
    }

    /// Word `v`'s table, built by `build` if no chunk has built it yet.
    /// `build` receives the word's table of the replaced set, if this set
    /// took it over, to rebuild in place.
    pub fn get_or_build(&self, v: usize, build: impl FnOnce(Option<P>) -> P) -> &P {
        self.slots[v].get_or_init(|| {
            let spare = self.spares.lock().get_mut(v).and_then(OnceLock::take);
            match spare {
                Some(mut table) => {
                    *table = build(Some(*table));
                    table
                }
                None => Box::new(build(None)),
            }
        })
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
        self.slots.iter().filter_map(OnceLock::get).map(|t| &**t)
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
            let mut set = StaleTables::new(iteration, state.layout.vocab_size, false);
            // Hand the replaced set's tables over when no launch holds it.
            if let Some(Ok(old)) = current.take().map(Arc::try_unwrap) {
                if old.slots.len() == set.slots.len() {
                    set.spares = Mutex::new(old.slots);
                }
            }
            let set = Arc::new(set);
            *current = Some(set.clone());
            set
        };
        // Only the opening chunk gets here; the other chunks of the
        // iteration build their words meanwhile (φ is read-only until the
        // sync, so the capture sees the φ every table is built from).
        set.snapshot
            .get_or_init(|| Snapshot::capture(&state.phi_global, state.nk_global.to_vec()));
        Prepare::Build(set)
    }

    /// Install a checkpointed snapshot, converted to word columns once;
    /// each chunk fills its words from it until the next rebuild on the
    /// original cadence.
    pub fn restore(&self, built_at: u64, phi_hat: &DenseMatrix<u32>, nk_hat: Vec<i64>) {
        let set = StaleTables::new(built_at, phi_hat.cols(), true);
        set.snapshot
            .get_or_init(|| Snapshot::from_dense(phi_hat, nk_hat));
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
/// trainer, filled by a stable random initialization.
#[cfg(test)]
pub(crate) fn shared_chunks(num_topics: usize, seed: u64) -> Vec<Arc<ChunkState>> {
    use crate::config::LdaConfig;
    use culda_corpus::{DatasetProfile, Partitioner};

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
    Partitioner::by_tokens(&corpus, 4)
        .build_layouts(&corpus)
        .into_iter()
        .enumerate()
        .map(|(i, layout)| {
            let st = ChunkState::with_globals(i, layout, phi.clone(), nk.clone());
            st.random_init_stable(&cfg, cfg.seed);
            Arc::new(st)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{AliasHybridSampler, LightLdaSampler, SamplerKernel, SamplerResumeState};

    fn opened(
        cache: &StaleCache<()>,
        chunks: &[Arc<ChunkState>],
        iteration: u64,
    ) -> Arc<StaleTables<()>> {
        let mut opened = None;
        for state in chunks {
            match cache.prepare(state, iteration) {
                Prepare::Build(set) => opened = Some(set),
                _ => panic!("iteration {iteration} must build"),
            }
        }
        opened.expect("at least one chunk")
    }

    #[test]
    fn a_rebuild_captures_exactly_the_synchronized_phi() {
        let chunks = shared_chunks(12, 3);
        let phi = &chunks[0].phi_global;
        let before = phi.to_dense();
        let cache = StaleCache::new(4);
        let set = opened(&cache, &chunks, 0);

        // Update-φ runs after the capture and must not reach the snapshot.
        let v = (0..phi.cols())
            .find(|&v| phi.load(0, v) > 0)
            .expect("a word with tokens in topic 0");
        phi.fetch_sub(0, v, 1);
        phi.fetch_add(11, v, 1);

        let snap = set.snapshot();
        assert_eq!(snap.to_dense(), before);
        let nnz = before.as_slice().iter().filter(|&&c| c != 0).count();
        assert_eq!(snap.nnz(), nnz);
        assert!(
            nnz < before.as_slice().len(),
            "the corpus leaves zero cells"
        );
        for w in 0..phi.cols() {
            let column: Vec<u32> = (0..12).map(|k| before.get(k, w)).collect();
            assert_eq!(snap.dense_column(w), column);
        }
        assert_eq!(snap.nk_hat, chunks[0].nk_global.to_vec());

        // The next rebuild captures the updated φ.
        let rebuilt = opened(&cache, &chunks, 4);
        assert_eq!(rebuilt.snapshot().to_dense(), phi.to_dense());
    }

    #[test]
    fn a_restored_dense_snapshot_round_trips_exactly() {
        let chunks = shared_chunks(8, 5);
        let trained = chunks[0].phi_global.to_dense();
        // A vocabulary wider than any chunk's words: the extra columns, and
        // the corpus's unused words, are all zero.
        let (k, vocab) = (8, trained.cols() + 7);
        let mut phi_hat = DenseMatrix::zeros(k, vocab);
        for kk in 0..k {
            phi_hat.row_mut(kk)[..trained.cols()].copy_from_slice(trained.row(kk));
        }
        phi_hat.set(k - 1, vocab - 1, 5);
        phi_hat.set(0, vocab - 1, 1);
        assert!((0..k).all(|kk| phi_hat.get(kk, vocab - 2) == 0));
        let nk_hat: Vec<i64> = phi_hat.row_sums().iter().map(|&n| n as i64).collect();

        let cache: StaleCache<()> = StaleCache::new(4);
        cache.restore(3, &phi_hat, nk_hat.clone());
        let set = cache.current().expect("restored set");
        assert!(set.restored);
        assert_eq!(set.built_at, 3);
        assert_eq!(set.snapshot().to_dense(), phi_hat);
        let nnz = phi_hat.as_slice().iter().filter(|&&c| c != 0).count();
        assert_eq!(set.snapshot().nnz(), nnz);
        assert_eq!(set.snapshot().dense_column(vocab - 2), vec![0; k]);

        // Both MH samplers hand the same dense state back.
        let alias = SamplerResumeState::AliasTables {
            built_at: 3,
            phi_hat: phi_hat.clone(),
            nk_hat,
        };
        let sampler = AliasHybridSampler::new(4, 2);
        sampler.restore_resume_state(&alias);
        assert_eq!(sampler.resume_state(), Some(alias));
        let light = SamplerResumeState::LightWordTables {
            built_at: 3,
            phi_hat,
        };
        let sampler = LightLdaSampler::new(4, 2, 0);
        sampler.restore_resume_state(&light);
        assert_eq!(sampler.resume_state(), Some(light));
    }
}
