//! Model state: per-chunk θ plus the synchronized φ every chunk shares
//! (Figure 3(a)).
//!
//! With partition-by-document, every chunk owns the θ rows of its documents
//! exclusively.  φ and the topic totals `n_k` count every token of the
//! corpus: the samplers read them, and the initialization paths and the
//! update-φ kernel add each chunk's tokens into them with atomics.  On the
//! paper's hardware every GPU holds a φ contribution of its own plus a
//! replica of the synchronized φ, combined by the reduce + broadcast of
//! §5.2; the host keeps exactly one φ / n_k pair, shared by every chunk of a
//! trainer through an [`Arc`].  Integer adds commute, so the shared pair
//! equals the sum of per-chunk contributions bit for bit.  The per-GPU
//! copies exist only in the cost model ([`ChunkState::device_bytes`] and
//! the tree schedules of [`crate::sync`]).

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

    /// Snapshot.
    pub fn to_vec(&self) -> Vec<i64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

/// All device-resident state for one corpus chunk (Figure 3: the chunk, its θ
/// replica, and the synchronized φ it samples from and updates).
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
    /// the update-φ kernel folds the `z → z_next` deltas into `phi_global`
    /// and then promotes `z_next` to `z`.
    pub z_next: Vec<AtomicU16>,
    /// θ rows of this chunk's documents (CSR with 16-bit topic columns).
    /// Rebuilt by the update-θ kernel after every iteration.
    pub theta: RwLock<CsrMatrix>,
    /// The synchronized global φ (`K × V`) the sampling kernel reads and
    /// the update-φ kernel writes.  Shared by every chunk of a trainer.
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
    /// assignments set to topic 0 (callers run one of the initialization
    /// paths).  The chunk gets a φ / n_k pair of its own, which then holds
    /// only this chunk's counts until a [`crate::sync`] call stores the
    /// corpus-wide recount into it; a trainer instead shares one pair
    /// between all of its chunks.
    pub fn new(chunk_id: usize, layout: ChunkLayout, num_topics: usize) -> Self {
        let phi_global = Arc::new(AtomicMatrix::zeros(num_topics, layout.vocab_size));
        let nk_global = Arc::new(TopicTotals::zeros(num_topics));
        Self::with_globals(chunk_id, layout, phi_global, nk_global)
    }

    /// Allocate the state for a chunk that reads and updates the given
    /// synchronized `phi_global` (`K × V`) and `nk_global` (`K`); `K` is
    /// taken from them.
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
            phi_global,
            nk_global,
        }
    }

    /// Number of topics `K`.
    pub fn num_topics(&self) -> usize {
        self.nk_global.len()
    }

    /// Number of tokens in the chunk.
    pub fn num_tokens(&self) -> usize {
        self.z.len()
    }

    /// Randomly assign a topic to every token ("Initially, each token is
    /// randomly assigned with a topic", §2.1) with the counter-based
    /// generator keyed by each token's partition-independent identity
    /// `(global document, slot)`, add the chunk's tokens into φ / n_k and
    /// build the initial θ replica.
    ///
    /// Every token gets the *same* initial assignment no matter how the
    /// corpus is partitioned — the foundation of the cross-topology
    /// determinism guarantee.  Like [`ChunkState::init_from_assignments`],
    /// this runs once per chunk on a freshly allocated state: it adds into
    /// φ / n_k rather than overwriting them, so chunks sharing one pair
    /// together fill it with the corpus-wide counts.
    pub fn random_init_stable(&self, config: &LdaConfig, seed: u64) {
        let k = self.num_topics() as u64;
        debug_assert_eq!(k as usize, config.num_topics);
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
                self.phi_global.fetch_add(topic as usize, v, 1);
                self.nk_global.add(topic as usize, 1);
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
    /// documents with the right lengths and in-range topics.  Adds into
    /// φ / n_k like [`ChunkState::random_init_stable`].
    pub fn init_from_assignments(&self, z: &[Vec<u16>]) {
        for d in 0..self.layout.num_docs() {
            let row = &z[self.layout.range.start + d];
            for (t, &pos) in self.layout.doc_positions(d).iter().enumerate() {
                let topic = row[t];
                let pos = pos as usize;
                self.z[pos].store(topic, Ordering::Relaxed);
                self.z_next[pos].store(topic, Ordering::Relaxed);
                let v = self.layout.word_of_position(pos as u32) as usize;
                self.phi_global.fetch_add(topic as usize, v, 1);
                self.nk_global.add(topic as usize, 1);
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

    /// Estimated device-memory footprint in bytes: chunk layout + z + θ +
    /// two `K × V` φ matrices + two `K`-entry 8-byte topic-total vectors
    /// (16-bit φ elements when compressed).  The two φ matrices are what the
    /// paper's GPU holds: its own contribution and its replica of the
    /// synchronized φ.  Both are charged per chunk even though the host keeps
    /// one φ for all chunks.
    pub fn device_bytes(&self, compress_16bit: bool) -> u64 {
        let phi = if compress_16bit {
            self.phi_global.device_bytes_compressed()
        } else {
            self.phi_global.device_bytes_uncompressed()
        };
        self.layout.device_bytes()
            + self.theta.read().device_bytes()
            + 2 * phi
            + (self.num_topics() * 8) as u64 * 2
    }

    /// Consistency check of θ: every row must sum to its document's length.
    /// φ / n_k span chunks, so their check (a recount of `z`) lives in
    /// `CuLdaTrainer::validate`.
    pub fn validate_theta(&self) -> Result<(), String> {
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
        Ok(())
    }
}

/// Recount word `v`'s φ column from the assignments: `column[k]` becomes the
/// number of tokens of `v` in `states` whose `z` is topic `k`.  The one
/// definition of "φ equals a recount of z", shared by the synchronization of
/// private φ / n_k pairs and by [`check_recount`].
pub(crate) fn recount_column<'a>(
    states: impl IntoIterator<Item = &'a ChunkState>,
    v: usize,
    column: &mut [u32],
) {
    column.fill(0);
    for st in states {
        let (start, end) = st.layout.word_token_range(v);
        for z in &st.z[start..end] {
            column[z.load(Ordering::Relaxed) as usize] += 1;
        }
    }
}

/// Check that the φ / n_k pair `states` share equals a recount of their `z`,
/// cell for cell.
pub(crate) fn check_recount(states: &[Arc<ChunkState>]) -> Result<(), String> {
    let k = states[0].num_topics();
    let phi = &states[0].phi_global;
    let mut column = vec![0u32; k];
    let mut nk = vec![0i64; k];
    for v in 0..phi.cols() {
        recount_column(states.iter().map(Arc::as_ref), v, &mut column);
        for (topic, &count) in column.iter().enumerate() {
            let got = phi.load(topic, v);
            if got != count {
                return Err(format!(
                    "φ[{topic}][{v}] is {got}, a recount of z gives {count}"
                ));
            }
            nk[topic] += count as i64;
        }
    }
    let got = states[0].nk_global.to_vec();
    if got != nk {
        return Err(format!("n_k is {got:?}, a recount of z gives {nk:?}"));
    }
    Ok(())
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
        let state = Arc::new(small_state(4));
        let config = LdaConfig::with_topics(4);
        state.random_init_stable(&config, 7);
        state.validate_theta().unwrap();
        assert_eq!(state.num_tokens(), 10);
        assert_eq!(state.nk_global.to_vec().iter().sum::<i64>(), 10);
        check_recount(std::slice::from_ref(&state)).unwrap();
        let theta = state.theta.read();
        assert_eq!(theta.total(), 10);
        assert_eq!(theta.rows(), 3);
        assert_eq!(theta.cols(), 4);
    }

    #[test]
    fn init_from_assignments_adds_into_phi() {
        let state = Arc::new(small_state(3));
        // Every token of a document gets the document's index as its topic.
        let z = vec![vec![0u16; 5], vec![1u16; 3], vec![2u16; 2]];
        state.init_from_assignments(&z);
        state.validate_theta().unwrap();
        assert_eq!(state.nk_global.to_vec(), vec![5, 3, 2]);
        check_recount(std::slice::from_ref(&state)).unwrap();
        // Word 1 occurs twice, both in document 0; word 5 in documents 0
        // and 2.
        assert_eq!(state.phi_global.load(0, 1), 2);
        assert_eq!(state.phi_global.load(0, 5), 1);
        assert_eq!(state.phi_global.load(2, 5), 1);
        assert_eq!(state.theta.read().get(1, 1), 3);
    }

    #[test]
    fn recount_column_counts_each_words_topics() {
        let state = small_state(3);
        // Assign every token topic 2.
        for z in &state.z {
            z.store(2, Ordering::Relaxed);
        }
        state.rebuild_theta();
        let theta = state.theta.read();
        assert_eq!(theta.get(0, 2), 5);
        assert_eq!(theta.row_nnz(0), 1);
        state.validate_theta().unwrap();
        let mut column = vec![9u32; 3];
        // Word 1 has 2 tokens, both topic 2.
        recount_column([&state], 1, &mut column);
        assert_eq!(column, vec![0, 0, 2]);
        // Two chunks holding the same tokens count them twice.
        recount_column([&state, &state], 5, &mut column);
        assert_eq!(column, vec![0, 0, 4]);
    }

    #[test]
    fn topic_totals_basic_ops() {
        let t = TopicTotals::zeros(3);
        t.add(0, 5);
        t.add(2, 1);
        t.add(0, -2);
        assert_eq!(t.get(0), 3);
        assert_eq!(t.to_vec(), vec![3, 0, 1]);
        t.store_all(&[1, 1, 2]);
        assert_eq!(t.to_vec(), vec![1, 1, 2]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn device_bytes_reflect_compression() {
        let state = small_state(8);
        let compressed = state.device_bytes(true);
        let uncompressed = state.device_bytes(false);
        assert!(uncompressed > compressed);
    }

    #[test]
    fn device_bytes_charge_a_contribution_and_a_replica_of_phi() {
        let state = small_state(8);
        state.random_init_stable(&LdaConfig::with_topics(8), 3);
        let (k, v) = (8u64, 6u64);
        for (compress, elem) in [(true, 2u64), (false, 4u64)] {
            let expect = state.layout.device_bytes()
                + state.theta.read().device_bytes()
                + 2 * k * v * elem
                + 16 * k;
            assert_eq!(state.device_bytes(compress), expect);
        }
    }
}
