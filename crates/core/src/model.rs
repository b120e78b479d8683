//! Model state: per-chunk θ and φ contributions plus the synchronized φ
//! (Figure 3(a)).
//!
//! With partition-by-document, every chunk owns the θ rows of its documents
//! exclusively and accumulates the φ counts of its own tokens (`phi_local`).
//! The synchronized global matrix (`phi_global = Σ_c phi_local[c]`) is what
//! the samplers read.  On the paper's hardware every GPU holds its own copy
//! of it; the host keeps exactly one, shared by every chunk of a trainer
//! through an [`Arc`].  The per-GPU replicas exist only in the cost model
//! ([`ChunkState::device_bytes`] and the tree schedules of [`crate::sync`]).

use crate::config::LdaConfig;
use culda_corpus::ChunkLayout;
use culda_sparse::{AtomicMatrix, CsrBuilder, CsrMatrix};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicI64, AtomicU16, Ordering};
use std::sync::Arc;

/// Atomic per-topic totals `n_k` (64-bit: billion-token corpora overflow u32).
#[derive(Debug)]
pub struct TopicTotals {
    counts: Vec<AtomicI64>,
}

impl TopicTotals {
    /// `k` zero-initialised totals.
    pub fn zeros(k: usize) -> Self {
        let mut counts = Vec::with_capacity(k);
        counts.resize_with(k, || AtomicI64::new(0));
        TopicTotals { counts }
    }

    /// Number of topics.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when there are no topics (never in practice).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Relaxed load of `n_k`.
    #[inline]
    pub fn get(&self, k: usize) -> i64 {
        self.counts[k].load(Ordering::Relaxed)
    }

    /// Atomic add.
    #[inline]
    pub fn add(&self, k: usize, delta: i64) {
        self.counts[k].fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrite all totals.
    pub fn store_all(&self, values: &[i64]) {
        assert_eq!(values.len(), self.counts.len());
        for (c, &v) in self.counts.iter().zip(values) {
            c.store(v, Ordering::Relaxed);
        }
    }

    /// Reset to zero.
    pub fn clear(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshot.
    pub fn to_vec(&self) -> Vec<i64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Sum of all totals (equals the number of tokens covered).
    pub fn total(&self) -> i64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// All device-resident state for one corpus chunk (Figure 3: the chunk, its θ
/// replica, its φ contribution, and the synchronized φ it samples from).
#[derive(Debug)]
pub struct ChunkState {
    /// Chunk index within the run.
    pub chunk_id: usize,
    /// Preprocessed word-major layout (built on the CPU, §6.1.2/§6.2).
    pub layout: ChunkLayout,
    /// Current topic assignment of every token, in word-major order
    /// (16-bit compressed, §6.1.3).
    pub z: Vec<AtomicU16>,
    /// Topic assignments proposed by the current iteration's sampling kernel;
    /// the update-φ kernel folds the `z → z_next` deltas into `phi_local` and
    /// then promotes `z_next` to `z`.
    pub z_next: Vec<AtomicU16>,
    /// θ rows of this chunk's documents (CSR with 16-bit topic columns).
    /// Rebuilt by the update-θ kernel after every iteration.
    pub theta: RwLock<CsrMatrix>,
    /// This chunk's contribution to φ (`K × V`), rebuilt each iteration by
    /// the update-φ kernel.
    pub phi_local: AtomicMatrix,
    /// This chunk's contribution to the topic totals `n_k`.
    pub nk_local: TopicTotals,
    /// The synchronized global φ the sampling kernel reads
    /// (`Σ` of every chunk's `phi_local` after the reduce+broadcast of §5.2).
    /// Shared by every chunk of a trainer.
    pub phi_global: Arc<AtomicMatrix>,
    /// The synchronized global topic totals, shared like `phi_global`.
    pub nk_global: Arc<TopicTotals>,
    /// For every word-major position, the token's index within its document
    /// (see [`ChunkLayout::token_slots`]); combined with the global document
    /// id this keys the counter-based sampling RNG.
    pub token_slot: Vec<u32>,
}

impl ChunkState {
    /// Allocate the state for a chunk, with all counts zero and all topic
    /// assignments set to topic 0 (callers run [`ChunkState::random_init`]).
    /// The chunk gets a synchronized φ / n_k pair of its own; a trainer
    /// instead shares one pair between all of its chunks.
    pub fn new(chunk_id: usize, layout: ChunkLayout, num_topics: usize) -> Self {
        let phi_global = Arc::new(AtomicMatrix::zeros(num_topics, layout.vocab_size));
        let nk_global = Arc::new(TopicTotals::zeros(num_topics));
        Self::with_globals(chunk_id, layout, phi_global, nk_global)
    }

    /// Allocate the state for a chunk that reads the given synchronized
    /// `phi_global` (`K × V`) and `nk_global` (`K`); `K` is taken from them.
    pub(crate) fn with_globals(
        chunk_id: usize,
        layout: ChunkLayout,
        phi_global: Arc<AtomicMatrix>,
        nk_global: Arc<TopicTotals>,
    ) -> Self {
        let (num_topics, vocab) = (phi_global.rows(), layout.vocab_size);
        assert!(phi_global.cols() == vocab && nk_global.len() == num_topics);
        let tokens = layout.num_tokens();
        let docs = layout.num_docs();
        let mut z = Vec::with_capacity(tokens);
        z.resize_with(tokens, || AtomicU16::new(0));
        let mut z_next = Vec::with_capacity(tokens);
        z_next.resize_with(tokens, || AtomicU16::new(0));
        let token_slot = layout.token_slots();
        ChunkState {
            chunk_id,
            layout,
            token_slot,
            z,
            z_next,
            theta: RwLock::new(CsrMatrix::zeros(docs, num_topics)),
            phi_local: AtomicMatrix::zeros(num_topics, vocab),
            nk_local: TopicTotals::zeros(num_topics),
            phi_global,
            nk_global,
        }
    }

    /// Number of topics `K`.
    pub fn num_topics(&self) -> usize {
        self.phi_local.rows()
    }

    /// Number of tokens in the chunk.
    pub fn num_tokens(&self) -> usize {
        self.z.len()
    }

    /// Randomly assign a topic to every token ("Initially, each token is
    /// randomly assigned with a topic", §2.1), then build the initial θ
    /// replica and local φ counts from those assignments.
    pub fn random_init(&self, config: &LdaConfig, mut rand_topic: impl FnMut() -> u16) {
        let k = self.num_topics();
        debug_assert_eq!(k, config.num_topics);
        // Assign topics and accumulate φ_local / n_k.
        self.phi_local.clear();
        self.nk_local.clear();
        for v in 0..self.layout.vocab_size {
            let (start, end) = self.layout.word_token_range(v);
            for pos in start..end {
                let topic = rand_topic() % k as u16;
                self.z[pos].store(topic, Ordering::Relaxed);
                self.z_next[pos].store(topic, Ordering::Relaxed);
                self.phi_local.fetch_add(topic as usize, v, 1);
                self.nk_local.add(topic as usize, 1);
            }
        }
        self.rebuild_theta();
    }

    /// Randomly assign topics with the counter-based generator keyed by each
    /// token's partition-independent identity `(global document, slot)`.
    ///
    /// Unlike [`ChunkState::random_init`] (whose stream depends on the order
    /// the closure is polled in, i.e. on the chunk layout), this produces the
    /// *same* initial assignment for every token no matter how the corpus is
    /// partitioned — the foundation of the cross-topology determinism
    /// guarantee.
    pub fn random_init_stable(&self, config: &LdaConfig, seed: u64) {
        let k = self.num_topics() as u64;
        debug_assert_eq!(k as usize, config.num_topics);
        self.phi_local.clear();
        self.nk_local.clear();
        for d in 0..self.layout.num_docs() {
            let global_doc = (self.layout.range.start + d) as u64;
            for (t, &pos) in self.layout.doc_positions(d).iter().enumerate() {
                let draw = culda_gpusim::rng::stable_u64(
                    seed,
                    Self::INIT_STREAM,
                    (global_doc << 32) | t as u64,
                );
                let topic = (draw % k) as u16;
                let pos = pos as usize;
                self.z[pos].store(topic, Ordering::Relaxed);
                self.z_next[pos].store(topic, Ordering::Relaxed);
                let v = self.layout.word_of_position(pos as u32) as usize;
                self.phi_local.fetch_add(topic as usize, v, 1);
                self.nk_local.add(topic as usize, 1);
            }
        }
        self.rebuild_theta();
    }

    /// RNG stream tag for the initial assignment (iteration numbers, which
    /// tag the sampling streams, start at 0 and stay far below this).
    pub const INIT_STREAM: u64 = u64::MAX;

    /// Initialise the chunk's assignments from an explicit per-document
    /// topic snapshot (`z[global_doc][token]`, original token order) — the
    /// resume path: a trainer rebuilt from a checkpoint's `z` continues
    /// exactly where the saved run stopped.
    ///
    /// Callers must have validated that the snapshot covers this chunk's
    /// documents with the right lengths and in-range topics.
    pub fn init_from_assignments(&self, z: &[Vec<u16>]) {
        self.phi_local.clear();
        self.nk_local.clear();
        for d in 0..self.layout.num_docs() {
            let row = &z[self.layout.range.start + d];
            for (t, &pos) in self.layout.doc_positions(d).iter().enumerate() {
                let topic = row[t];
                let pos = pos as usize;
                self.z[pos].store(topic, Ordering::Relaxed);
                self.z_next[pos].store(topic, Ordering::Relaxed);
                let v = self.layout.word_of_position(pos as u32) as usize;
                self.phi_local.fetch_add(topic as usize, v, 1);
                self.nk_local.add(topic as usize, 1);
            }
        }
        self.rebuild_theta();
    }

    /// Rebuild the θ replica from the current topic assignments (the
    /// functional core of the update-θ kernel; the kernel additionally
    /// accounts the cost of doing this on the device).
    pub fn rebuild_theta(&self) {
        let k = self.num_topics();
        let docs = self.layout.num_docs();
        let mut builder = CsrBuilder::new(docs, k);
        builder.reserve_nnz(self.layout.num_tokens().min(docs * k));
        let mut scratch: Vec<(u16, u32)> = Vec::new();
        for d in 0..docs {
            scratch.clear();
            for &pos in self.layout.doc_positions(d) {
                let topic = self.z[pos as usize].load(Ordering::Relaxed);
                scratch.push((topic, 1));
            }
            builder.push_row(scratch.iter().copied());
        }
        *self.theta.write() = builder.finish();
    }

    /// Recount this chunk's φ contribution from the current assignments (the
    /// functional core of the update-φ kernel).
    pub fn rebuild_phi_local(&self) {
        self.phi_local.clear();
        self.nk_local.clear();
        for v in 0..self.layout.vocab_size {
            let (start, end) = self.layout.word_token_range(v);
            for pos in start..end {
                let topic = self.z[pos].load(Ordering::Relaxed) as usize;
                self.phi_local.fetch_add(topic, v, 1);
                self.nk_local.add(topic, 1);
            }
        }
    }

    /// Estimated device-memory footprint in bytes (chunk layout + z + θ +
    /// `phi_local` + the GPU's own replica of the synchronized φ, with 16-bit
    /// compression when enabled).  The replica is charged per chunk even
    /// though the host shares one synchronized φ between chunks.
    pub fn device_bytes(&self, compress_16bit: bool) -> u64 {
        let phi = if compress_16bit {
            self.phi_local.device_bytes_compressed() + self.phi_global.device_bytes_compressed()
        } else {
            self.phi_local.device_bytes_uncompressed() + self.phi_global.device_bytes_uncompressed()
        };
        self.layout.device_bytes()
            + self.theta.read().device_bytes()
            + phi
            + (self.num_topics() * 8) as u64 * 2
    }

    /// Consistency check: θ row sums must equal document lengths, φ_local
    /// totals must equal the chunk token count, and every count must be
    /// reproducible from `z`.  Used by tests and debug assertions.
    pub fn validate_counts(&self) -> Result<(), String> {
        let theta = self.theta.read();
        for d in 0..self.layout.num_docs() {
            let expect = self.layout.doc_len(d) as u64;
            let got = theta.row_sum(d);
            if expect != got {
                return Err(format!(
                    "θ row {d} sums to {got}, document has {expect} tokens"
                ));
            }
        }
        let total: i64 = self.nk_local.total();
        if total != self.num_tokens() as i64 {
            return Err(format!(
                "n_k totals {total} do not match chunk token count {}",
                self.num_tokens()
            ));
        }
        let phi_total = self.phi_local.total();
        if phi_total != self.num_tokens() as u64 {
            return Err(format!(
                "φ_local total {phi_total} does not match chunk token count {}",
                self.num_tokens()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_corpus::{partition::DocRange, CorpusBuilder};

    fn small_state(num_topics: usize) -> ChunkState {
        let mut b = CorpusBuilder::new(6);
        b.push_doc(&[0, 1, 1, 3, 5]);
        b.push_doc(&[2, 2, 4]);
        b.push_doc(&[5, 0]);
        let corpus = b.build();
        let layout = ChunkLayout::build(&corpus, DocRange { start: 0, end: 3 });
        ChunkState::new(0, layout, num_topics)
    }

    #[test]
    fn random_init_produces_consistent_counts() {
        let state = small_state(4);
        let config = LdaConfig::with_topics(4);
        let mut x = 7u32;
        state.random_init(&config, move || {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            (x >> 16) as u16
        });
        state.validate_counts().unwrap();
        assert_eq!(state.num_tokens(), 10);
        assert_eq!(state.nk_local.total(), 10);
        let theta = state.theta.read();
        assert_eq!(theta.total(), 10);
        assert_eq!(theta.rows(), 3);
        assert_eq!(theta.cols(), 4);
    }

    #[test]
    fn rebuild_phi_matches_assignments() {
        let state = small_state(3);
        // Assign every token topic 2.
        for z in &state.z {
            z.store(2, Ordering::Relaxed);
        }
        state.rebuild_phi_local();
        state.rebuild_theta();
        assert_eq!(state.nk_local.get(2), 10);
        assert_eq!(state.nk_local.get(0), 0);
        let theta = state.theta.read();
        assert_eq!(theta.get(0, 2), 5);
        assert_eq!(theta.row_nnz(0), 1);
        state.validate_counts().unwrap();
        // word 1 has 2 tokens, both topic 2.
        assert_eq!(state.phi_local.load(2, 1), 2);
    }

    #[test]
    fn topic_totals_basic_ops() {
        let t = TopicTotals::zeros(3);
        t.add(0, 5);
        t.add(2, 1);
        t.add(0, -2);
        assert_eq!(t.get(0), 3);
        assert_eq!(t.to_vec(), vec![3, 0, 1]);
        assert_eq!(t.total(), 4);
        t.store_all(&[1, 1, 1]);
        assert_eq!(t.total(), 3);
        t.clear();
        assert_eq!(t.total(), 0);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn device_bytes_reflect_compression() {
        let state = small_state(8);
        let compressed = state.device_bytes(true);
        let uncompressed = state.device_bytes(false);
        assert!(uncompressed > compressed);
    }
}
