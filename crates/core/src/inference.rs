//! Fold-in inference for unseen documents.
//!
//! Training produces the topic–word counts φ; serving a topic model means
//! answering "what is this *new* document about?" without re-training.  The
//! standard answer is fold-in Gibbs sampling: hold φ fixed, run a short Gibbs
//! chain over the new document's tokens only, and read the document–topic
//! counts off the chain.  The per-token conditional is the same Eq. 1 the
//! trainer samples from,
//!
//! ```text
//! p(k) ∝ (n_{d,k} + α) · (φ_{k,v} + β) / (n_k + Vβ)
//! ```
//!
//! except that φ and `n_k` are frozen.  This module provides
//! [`TopicInferencer`], which owns a frozen model and infers mixtures for
//! single documents or whole corpora (the latter in parallel with rayon,
//! since documents are independent once φ is frozen).
//!
//! The frozen weights are stored word-major and sparse: one base vector
//! for every zero cell, each word's non-zero weights, and a dense column
//! only for words dense enough to need one (see [`TopicInferencer`] and
//! DESIGN.md §12, "Frozen-model layout").  A draw splits the conditional
//! into three buckets (SparseLDA's, §6.1.1's split of the paper): one over
//! the document's topics, one over the word's non-zeros and one smoothing
//! bucket every word shares, so a token costs O(K_d + nnz_v) instead of a
//! K-long prefix chain, and the model takes O(nnz(φ) + K + V + hot·K)
//! memory instead of O(K·V).
//!
//! Because inference is the *serving* path — the model may come from an
//! untrusted checkpoint on disk — construction and querying are fallible:
//! the `try_*` methods return a typed [`InferenceError`] on corrupt input
//! (negative `n_k`, NaN weights, shape mismatches) and the panicking
//! wrappers exist only for callers holding trusted in-process state.

use crate::config::LdaConfig;
use crate::trainer::CuLdaTrainer;
use culda_corpus::{Corpus, WordId};
use culda_sparse::{AtomicMatrix, CsrBuilder, CsrMatrix, DenseMatrix};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::Ordering;

/// Why a model cannot be frozen for inference, or a query cannot be answered.
///
/// Serving reads models from untrusted places — checkpoints on disk, snapshots
/// published mid-training — so every way a corrupt φ/`n_k` can poison the
/// fold-in arithmetic is a typed error here rather than a panic: one bad
/// checkpoint must never take down a process that is answering queries
/// (DESIGN.md §12).
#[derive(Debug, Clone, PartialEq)]
pub enum InferenceError {
    /// [`InferenceOptions::validate`] failed (zero sweeps, burn-in ≥ sweeps).
    InvalidOptions(String),
    /// φ has a different number of topic rows than `n_k` has totals.
    ShapeMismatch {
        /// Rows of the supplied φ matrix.
        phi_rows: usize,
        /// Length of the supplied `n_k` slice.
        nk_len: usize,
    },
    /// The model has no topics at all (`K = 0`).
    NoTopics,
    /// A prior is non-positive or non-finite.
    InvalidPrior {
        /// The document–topic prior α.
        alpha: f64,
        /// The topic–word prior β.
        beta: f64,
    },
    /// A topic's smoothed-weight denominator `n_k + Vβ` is non-positive or
    /// non-finite — the signature of a corrupt checkpoint (e.g. a negative
    /// `n_k`), which would turn every weight of that topic into NaN or a
    /// negative number.
    CorruptTopic {
        /// The offending topic index.
        topic: usize,
        /// The computed denominator.
        denom: f64,
    },
    /// A smoothed weight `(φ_{k,v} + β) / (n_k + Vβ)` came out non-finite.
    CorruptWeight {
        /// Topic row of the offending weight.
        topic: usize,
        /// Word column of the offending weight.
        word: usize,
    },
    /// The corpus being inferred was built against a different vocabulary
    /// than the model was trained on.
    VocabMismatch {
        /// Vocabulary size of the corpus.
        corpus: usize,
        /// Vocabulary size the model was trained on.
        model: usize,
    },
    /// The model has more topics than a 16-bit topic index holds (`K` above
    /// 65536, the bound training enforces), which only a corrupt checkpoint
    /// carries.
    TooManyTopics(usize),
}

impl std::fmt::Display for InferenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferenceError::InvalidOptions(msg) => write!(f, "invalid inference options: {msg}"),
            InferenceError::ShapeMismatch { phi_rows, nk_len } => write!(
                f,
                "φ rows and n_k length must agree (φ has {phi_rows} rows, n_k has {nk_len})"
            ),
            InferenceError::NoTopics => write!(f, "the model has no topics (K = 0)"),
            InferenceError::InvalidPrior { alpha, beta } => {
                write!(f, "priors must be positive (α = {alpha}, β = {beta})")
            }
            InferenceError::CorruptTopic { topic, denom } => write!(
                f,
                "topic {topic} has a non-positive smoothing denominator n_k + Vβ = {denom} \
                 — the model counts are corrupt"
            ),
            InferenceError::CorruptWeight { topic, word } => write!(
                f,
                "smoothed weight for topic {topic}, word {word} is not finite \
                 — the model counts are corrupt"
            ),
            InferenceError::VocabMismatch { corpus, model } => write!(
                f,
                "corpus vocabulary does not match the model (corpus V = {corpus}, model V = {model})"
            ),
            InferenceError::TooManyTopics(k) => write!(
                f,
                "the model has {k} topics, more than a 16-bit topic index holds"
            ),
        }
    }
}

impl std::error::Error for InferenceError {}

/// Options controlling the fold-in Gibbs chain.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct InferenceOptions {
    /// Total Gibbs sweeps over each document.
    pub sweeps: usize,
    /// Sweeps discarded before counts are accumulated into the estimate.
    pub burn_in: usize,
    /// RNG seed; per-document streams are derived from it, so corpus-level
    /// inference is deterministic regardless of thread scheduling.
    pub seed: u64,
}

impl Default for InferenceOptions {
    fn default() -> Self {
        InferenceOptions {
            sweeps: 20,
            burn_in: 5,
            seed: 0xFEED,
        }
    }
}

impl InferenceOptions {
    /// Validate the options.
    pub fn validate(&self) -> Result<(), String> {
        if self.sweeps == 0 {
            return Err("sweeps must be at least 1".into());
        }
        if self.burn_in >= self.sweeps {
            return Err(format!(
                "burn_in ({}) must be smaller than sweeps ({})",
                self.burn_in, self.sweeps
            ));
        }
        Ok(())
    }
}

/// The inferred topic mixture of one document.
#[derive(Debug, Clone, PartialEq)]
pub struct DocumentTopics {
    /// Accumulated topic counts over the post-burn-in sweeps.
    pub counts: Vec<u32>,
    /// Smoothed, normalised mixture `θ̂_d` (sums to 1).
    pub mixture: Vec<f64>,
}

impl DocumentTopics {
    /// Topics sorted by decreasing probability, truncated to `n`.
    pub fn top_topics(&self, n: usize) -> Vec<(usize, f64)> {
        let mut pairs: Vec<(usize, f64)> = self.mixture.iter().copied().enumerate().collect();
        // `total_cmp` instead of `partial_cmp().unwrap()`: a NaN anywhere in
        // the mixture must not be able to panic the serving path.
        pairs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(n);
        pairs
    }
}

/// A word is *hot* when `nnz · HOT_DENSITY ≥ K`: its non-zero cells fill at
/// least an eighth of the topics, so the frozen model keeps its full K-wide
/// column and a token of it skips the scatter.  Colder words are cheaper to
/// scatter over a copy of the base vector than to store densely.
const HOT_DENSITY: usize = 8;

/// [`WordColumn::len`] of a hot word; its `start` then numbers its dense
/// column.  A sparse column is shorter than `K / HOT_DENSITY`, so it never
/// reaches this length.
const HOT: u32 = u32::MAX;

/// Topics per block of a hot word's word-bucket sums.  The frozen model
/// keeps one running sum per block, so a draw that lands in a hot word's
/// word bucket bisects `K / 8` sums and scans at most 8 cells instead of
/// walking up to K.
const BLOCK: usize = 8;

/// Words per strip of the freeze's column pass.  Transposing a row-major φ
/// stores a row's cells `K` counts apart, and at `K = 512` those 2 KiB
/// strides fall into two L1 sets: 16 lines fit them, 64 thrash.  On a
/// 2-core host a tail-shaped φ (K = 512, V = 20k) transposed in 19 ms
/// with 16-word strips and in 50 ms with 64-word ones.
const STRIP: usize = 16;

/// Where one word's weights live in the frozen model.
#[derive(Debug, Clone, Copy)]
struct WordColumn {
    /// First cell of the word's sparse column, or its dense slot if hot.
    start: u32,
    /// Non-zero cells of the word, or [`HOT`].
    len: u32,
}

/// A cell's share of the word bucket: `α · (w − base)`, which is
/// `α · φ_{k,v} / (n_k + Vβ)` up to rounding.  The freeze sums it over a
/// word's cells in topic order and the word-bucket scan repeats the same
/// sum, so the scan's last running sum is the stored bucket mass exactly.
/// A zero cell (`w == base`) adds exactly `+0.0`.
#[inline]
fn word_term(alpha: f64, w: f64, base: f64) -> f64 {
    alpha * (w - base)
}

/// The word-bucket mass of a block of a hot word's column: [`word_term`]
/// summed in topic order, as the word-bucket scan sums it.
fn block_mass(alpha: f64, weights: &[f64], base: &[f64]) -> f64 {
    let mut s = 0.0;
    for (&w, &b) in weights.iter().zip(base) {
        s += word_term(alpha, w, b);
    }
    s
}

/// A frozen LDA model that can answer topic queries for unseen documents.
///
/// The smoothed weights `w_{k,v} = (φ_{k,v} + β) / (n_k + Vβ)` never change
/// during inference, so they are computed once, in three word-major parts:
///
/// * a K-wide base vector `base_k = β / (n_k + Vβ)`, the weight of every
///   zero cell;
/// * for each word with fewer than `K / 8` non-zero cells, its non-zero
///   topics (`u16`) and weights (`f64`) in two parallel arrays, in topic
///   order;
/// * for each other (*hot*) word, its full K-wide weight column.
///
/// A fold-in draw splits `p(k) ∝ (n_{d,k} + α) · w_{k,v}` into three
/// buckets, with `w = base + φ / (n_k + Vβ)`:
///
/// * the **doc bucket** `D = Σ n_{d,k} · w_{k,v}` over the document's
///   topics, summed per draw in O(K_d);
/// * the **word bucket** `R_v = Σ α · (w_{k,v} − base_k)` over the word's
///   non-zeros, whose total is stored per word and whose cells are scanned
///   only when the draw lands there;
/// * the **smoothing bucket** `S = Σ_k α · base_k`, shared by every word,
///   whose running sums are stored once and searched by bisection.
///
/// A hot word also keeps the running sum of its word bucket at the end of
/// every block of 8 topics, so a draw that lands there bisects `K / 8` sums
/// and scans at most 8 cells.
///
/// The model holds `10·nnz_s + 8·K·(hot + 2) + 8·⌈K/8⌉·hot + 16·V` bytes,
/// where `nnz_s` counts the sparse words' non-zeros.  One `(u32, f64)` pair
/// per sparse cell would take `16·nnz_s + 8·K·(hot + 1) + 8·V`; the 6 bytes
/// saved per cell pay for the smoothing sums, the block sums and `R_v`
/// whenever `6·nnz_s ≥ 8·(K + V) + 8·⌈K/8⌉·hot`, as on every benchmark
/// model.  Either is far below the `8·K·V` of a dense matrix (DESIGN.md
/// §12, "Frozen-model layout").
pub struct TopicInferencer {
    /// `β / (n_k + Vβ)` per topic.
    base: Vec<f64>,
    /// Running sums of `α · base_k` in topic order; the last is `S`.
    smoothing: Vec<f64>,
    /// One entry per word of the vocabulary.
    columns: Vec<WordColumn>,
    /// Each word's word-bucket mass `R_v`.
    word_mass: Vec<f64>,
    /// The sparse words' non-zero topics, word after word, each word's in
    /// topic order.
    topics: Vec<u16>,
    /// The weights of the cells of `topics`.
    weights: Vec<f64>,
    /// The hot words' K-wide weight columns, one after another.
    dense: Vec<f64>,
    /// Each hot word's word-bucket running sums at the end of every
    /// [`BLOCK`] of topics, `⌈K / 8⌉` per word, in the order of `dense`;
    /// the last is the word's `R_v`.
    blocks: Vec<f64>,
    alpha: f64,
}

impl TopicInferencer {
    /// Freeze a model given the trained topic–word counts, topic totals and
    /// the training hyper-parameters, validating every value the fold-in
    /// arithmetic divides by.
    ///
    /// Rejects (instead of panicking on) the corrupt-checkpoint shapes that
    /// would otherwise poison inference: φ/`n_k` shape disagreement, `K = 0`,
    /// non-positive or non-finite priors, any topic whose smoothing
    /// denominator `n_k + Vβ` is non-positive — e.g. a negative `n_k`, which
    /// would make every weight of that topic NaN or negative — and any
    /// non-finite weight.  Of several faults, the first in row-major
    /// `(topic, word)` order is reported.
    pub fn try_new(
        phi: &DenseMatrix<u32>,
        nk: &[i64],
        alpha: f64,
        beta: f64,
    ) -> Result<Self, InferenceError> {
        // The column pass reads strips of word columns: transpose each one
        // from a short run of every row, so no `K × V` copy is made.
        let k = phi.rows();
        Self::from_word_columns(k, phi.cols(), nk, alpha, beta, |words, strip| {
            for topic in 0..k {
                for (i, &c) in phi.row(topic)[words.clone()].iter().enumerate() {
                    strip[i * k + topic] = c;
                }
            }
        })
    }

    /// [`TopicInferencer::try_new`] over word-major φ, the layout of the
    /// trainer's shared counts and of a streaming session's: the same
    /// frozen model, and the same [`InferenceError`] for the same fault.
    pub fn try_from_columns(
        phi: &AtomicMatrix,
        nk: &[i64],
        alpha: f64,
        beta: f64,
    ) -> Result<Self, InferenceError> {
        let k = phi.rows();
        Self::from_word_columns(k, phi.cols(), nk, alpha, beta, |words, strip| {
            for (word, out) in words.zip(strip.chunks_exact_mut(k)) {
                for (dst, src) in out.iter_mut().zip(phi.column(word)) {
                    *dst = src.load(Ordering::Relaxed);
                }
            }
        })
    }

    /// The one pass behind every constructor: `fill(words, strip)` writes
    /// the `num_topics` counts of each word of `words` (at most [`STRIP`]
    /// of them, in order) to `strip`, one column after another, and each
    /// word's column is read once, checked and laid out.
    ///
    /// The error is the first fault in row-major `(topic, word)` order, a
    /// topic's corrupt denominator ahead of its cells.  Walking words, the
    /// pass finds it by checking a word's cells only at the topics below
    /// the least faulty topic found so far.
    fn from_word_columns(
        num_topics: usize,
        vocab: usize,
        nk: &[i64],
        alpha: f64,
        beta: f64,
        mut fill: impl FnMut(Range<usize>, &mut [u32]),
    ) -> Result<Self, InferenceError> {
        if num_topics != nk.len() {
            return Err(InferenceError::ShapeMismatch {
                phi_rows: num_topics,
                nk_len: nk.len(),
            });
        }
        if num_topics == 0 {
            return Err(InferenceError::NoTopics);
        }
        if !(alpha > 0.0 && alpha.is_finite() && beta > 0.0 && beta.is_finite()) {
            return Err(InferenceError::InvalidPrior { alpha, beta });
        }
        if num_topics > usize::from(u16::MAX) + 1 {
            return Err(InferenceError::TooManyTopics(num_topics));
        }
        let k = num_topics;

        // Denominators in topic order, up to the first corrupt one: the
        // row-major scan reaches no cell of that topic or a later one.  A
        // zero cell's weight is the topic's base weight `β / denom`, always
        // finite: a positive finite `n_k + Vβ` is at least β, or, for a
        // negative `n_k`, above an ulp of `Vβ > 1`.
        let mut denoms = Vec::with_capacity(k);
        let mut corrupt_topic = None;
        for (topic, &n) in nk.iter().enumerate() {
            let denom = n as f64 + vocab as f64 * beta;
            if !(denom > 0.0 && denom.is_finite()) {
                corrupt_topic = Some(InferenceError::CorruptTopic { topic, denom });
                break;
            }
            denoms.push(denom);
        }
        let base: Vec<f64> = denoms.iter().map(|&denom| beta / denom).collect();
        let mut smoothing = Vec::with_capacity(k);
        let mut s = 0.0;
        for &b in &base {
            s += alpha * b;
            smoothing.push(s);
        }

        // Non-zero cells are checked at topics below `limit`: the least
        // topic of a faulty cell found so far, or of a corrupt denominator.
        // A later word's fault at a lower topic comes first in row-major
        // order.  Hot words get a dense slot, the rest a run of sparse
        // cells, in topic order; each word gets its word-bucket mass.
        let mut limit = denoms.len();
        let mut corrupt_cell = None;
        let mut strip = vec![0u32; k * STRIP.min(vocab)];
        let mut cells: Vec<(u16, f64)> = Vec::new();
        let mut columns = Vec::with_capacity(vocab);
        let mut word_mass = Vec::with_capacity(vocab);
        let (mut topics, mut weights) = (Vec::new(), Vec::new());
        let (mut dense, mut blocks) = (Vec::new(), Vec::new());
        let to_u32 = |n: usize| u32::try_from(n).expect("frozen model offsets fit in u32");
        for w0 in (0..vocab).step_by(STRIP) {
            let words = w0..(w0 + STRIP).min(vocab);
            let strip = &mut strip[..words.len() * k];
            fill(words.clone(), strip);
            for (word, counts) in words.zip(strip.chunks_exact(k)) {
                cells.clear();
                for (topic, &c) in counts[..limit].iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    let w = (c as f64 + beta) / denoms[topic];
                    if !w.is_finite() {
                        corrupt_cell = Some(InferenceError::CorruptWeight { topic, word });
                        limit = topic;
                        break;
                    }
                    cells.push((topic as u16, w));
                }
                if corrupt_cell.is_some() || corrupt_topic.is_some() {
                    continue;
                }
                if cells.len() * HOT_DENSITY >= k {
                    columns.push(WordColumn {
                        start: to_u32(dense.len() / k),
                        len: HOT,
                    });
                    let start = dense.len();
                    dense.extend_from_slice(&base);
                    for &(topic, w) in &cells {
                        dense[start + topic as usize] = w;
                    }
                    let mut r = 0.0;
                    for (ws, bs) in dense[start..].chunks(BLOCK).zip(base.chunks(BLOCK)) {
                        r += block_mass(alpha, ws, bs);
                        blocks.push(r);
                    }
                    word_mass.push(r);
                } else {
                    word_mass.push(
                        cells
                            .iter()
                            .fold(0.0, |r, &(t, w)| r + word_term(alpha, w, base[t as usize])),
                    );
                    columns.push(WordColumn {
                        start: to_u32(topics.len()),
                        len: to_u32(cells.len()),
                    });
                    topics.extend(cells.iter().map(|&(t, _)| t));
                    weights.extend(cells.iter().map(|&(_, w)| w));
                }
            }
        }
        if let Some(e) = corrupt_cell.or(corrupt_topic) {
            return Err(e);
        }
        topics.shrink_to_fit();
        weights.shrink_to_fit();
        dense.shrink_to_fit();
        blocks.shrink_to_fit();
        Ok(TopicInferencer {
            base,
            smoothing,
            columns,
            word_mass,
            topics,
            weights,
            dense,
            blocks,
            alpha,
        })
    }

    /// Panicking convenience wrapper around [`TopicInferencer::try_new`] for
    /// callers that construct from trusted, in-process state.
    pub fn new(phi: &DenseMatrix<u32>, nk: &[i64], alpha: f64, beta: f64) -> Self {
        match Self::try_new(phi, nk, alpha, beta) {
            Ok(inferencer) => inferencer,
            Err(e) => panic!("{e}"),
        }
    }

    /// Freeze the current state of a trainer: the column pass of
    /// [`TopicInferencer::try_from_columns`] over its shared word-major φ,
    /// with no `K × V` transpose.
    pub fn from_trainer(trainer: &CuLdaTrainer) -> Self {
        let cfg: &LdaConfig = trainer.config();
        let (phi, nk) = trainer.shared_counts();
        match Self::try_from_columns(phi, &nk.to_vec(), cfg.alpha, cfg.beta) {
            Ok(inferencer) => inferencer,
            Err(e) => panic!("{e}"),
        }
    }

    /// Number of topics `K`.
    pub fn num_topics(&self) -> usize {
        self.base.len()
    }

    /// Vocabulary size `V` the model was trained on.
    pub fn vocab_size(&self) -> usize {
        self.columns.len()
    }

    /// Bytes the frozen model holds on the heap.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.base.capacity() + self.smoothing.capacity()) * size_of::<f64>()
            + self.columns.capacity() * size_of::<WordColumn>()
            + self.word_mass.capacity() * size_of::<f64>()
            + self.topics.capacity() * size_of::<u16>()
            + (self.weights.capacity() + self.dense.capacity() + self.blocks.capacity())
                * size_of::<f64>()
    }

    /// One fold-in transition: draw a topic for a token of `word` from
    /// `p(k) ∝ (n_{d,k} + α) · (φ_{k,v} + β) / (n_k + Vβ)`, where `doc`
    /// holds the document's counts without the token and `u` is a uniform
    /// draw in `[0, 1)`.
    ///
    /// `u · (D + R_v + S)` falls in the doc bucket, the word bucket or the
    /// smoothing bucket, in that order.  Each bucket is searched over the
    /// running sums its mass was formed from, so a target below a bucket's
    /// mass always finds a topic in it.  The comparisons are negated
    /// (`!(x < sum)`), so a NaN target falls through every bucket to the
    /// last topic instead of panicking.
    fn draw(&self, word: usize, doc: &mut DocState, u: f64) -> usize {
        let (d, dr) = self.masses(word, doc);
        let total = dr + self.smoothing[self.base.len() - 1];
        self.invert(word, doc, d, dr, u * total)
    }

    /// The doc bucket's mass `D` and `D + R_v` for a token of `word`; the
    /// doc bucket's running sums are left in `doc.prefix`.  A sparse word's
    /// cells are scattered over `doc.column` for the sum and restored after.
    fn masses(&self, word: usize, doc: &mut DocState) -> (f64, f64) {
        let col = self.columns[word];
        let start = col.start as usize;
        let d = if col.len == HOT {
            let k = self.base.len();
            let column = &self.dense[start * k..(start + 1) * k];
            doc_mass(&doc.counts, &doc.topics, column, &mut doc.prefix)
        } else {
            let cells = start..start + col.len as usize;
            let topics = &self.topics[cells.clone()];
            for (&t, &w) in topics.iter().zip(&self.weights[cells]) {
                doc.column[t as usize] = w;
            }
            let d = doc_mass(&doc.counts, &doc.topics, &doc.column, &mut doc.prefix);
            for &t in topics {
                doc.column[t as usize] = self.base[t as usize];
            }
            d
        };
        (d, d + self.word_mass[word])
    }

    /// The topic at target `x` of the buckets [`TopicInferencer::masses`]
    /// returned: the doc bucket below `d`, the word bucket below `dr`, the
    /// smoothing bucket above.
    fn invert(&self, word: usize, doc: &DocState, d: f64, dr: f64, x: f64) -> usize {
        let k = self.base.len();
        if x < d {
            let n = doc.topics.len();
            let i = doc.prefix[..n].partition_point(|&p| !(x < p));
            return doc.topics[i] as usize;
        }
        if x < dr {
            let col = self.columns[word];
            let start = col.start as usize;
            if col.len == HOT {
                // The first block whose running sum passes `x`, then the
                // cell inside it, summed as the freeze summed the block.
                let nb = k.div_ceil(BLOCK);
                let blocks = &self.blocks[start * nb..(start + 1) * nb];
                let j = blocks.partition_point(|&p| !(x < d + p)).min(nb - 1);
                let before = if j == 0 { 0.0 } else { blocks[j - 1] };
                let topics = j * BLOCK..((j + 1) * BLOCK).min(k);
                let column = &self.dense[start * k..(start + 1) * k];
                let mut s = 0.0;
                for t in topics {
                    s += word_term(self.alpha, column[t], self.base[t]);
                    if x < d + (before + s) {
                        return t;
                    }
                }
            } else {
                let mut r = 0.0;
                let cells = start..start + col.len as usize;
                for (&t, &w) in self.topics[cells.clone()].iter().zip(&self.weights[cells]) {
                    r += word_term(self.alpha, w, self.base[t as usize]);
                    if x < d + r {
                        return t as usize;
                    }
                }
            }
        }
        self.smoothing
            .partition_point(|&s| !(x < dr + s))
            .min(k - 1)
    }

    /// Infer the topic mixture of a single document given as word ids.
    ///
    /// **OOV-drop semantics:** word ids at or beyond the model's vocabulary
    /// (`V`) are *dropped before the Gibbs chain starts* — they contribute no
    /// tokens, no counts, and no RNG draws, exactly as if the query had never
    /// contained them.  A document whose tokens are all out-of-vocabulary
    /// (or empty) therefore skips the chain entirely and returns the uniform
    /// smoothed mixture `α / (Kα)` with zero accumulated counts.
    pub fn try_infer_document(
        &self,
        words: &[WordId],
        options: InferenceOptions,
    ) -> Result<DocumentTopics, InferenceError> {
        options.validate().map_err(InferenceError::InvalidOptions)?;
        let mut rng = ChaCha8Rng::seed_from_u64(options.seed);
        Ok(self.infer_with_rng(words, options, &mut rng))
    }

    /// Panicking convenience wrapper around
    /// [`TopicInferencer::try_infer_document`] (same OOV-drop semantics);
    /// panics only on invalid [`InferenceOptions`].
    pub fn infer_document(&self, words: &[WordId], options: InferenceOptions) -> DocumentTopics {
        match self.try_infer_document(words, options) {
            Ok(doc) => doc,
            Err(e) => panic!("{e}"),
        }
    }

    fn infer_with_rng(
        &self,
        words: &[WordId],
        options: InferenceOptions,
        rng: &mut ChaCha8Rng,
    ) -> DocumentTopics {
        let k = self.num_topics();
        let mut accumulated = vec![0u32; k];
        let kept = CHAIN.with(|chain| {
            let mut chain = chain.borrow_mut();
            let Chain { tokens, z, doc } = &mut *chain;
            tokens.clear();
            tokens.extend(words.iter().filter(|&&w| (w as usize) < self.vocab_size()));
            if tokens.is_empty() {
                return 0;
            }

            // Random initial assignment.
            doc.reset(&self.base);
            z.clear();
            z.extend(tokens.iter().map(|_| rng.gen_range(0..k) as u16));
            for &t in z.iter() {
                doc.add(t);
            }

            for sweep in 0..options.sweeps {
                for (t, &v) in z.iter_mut().zip(tokens.iter()) {
                    doc.remove(*t);
                    *t = self.draw(v as usize, doc, rng.gen()) as u16;
                    doc.add(*t);
                }
                if sweep >= options.burn_in {
                    for &t in &doc.topics {
                        accumulated[t as usize] += doc.counts[t as usize];
                    }
                }
            }
            tokens.len()
        });
        if kept == 0 {
            let mixture = vec![1.0 / k as f64; k];
            return DocumentTopics {
                counts: accumulated,
                mixture,
            };
        }

        // Average the counts over the kept sweeps, smooth with α, normalise.
        let kept_sweeps = (options.sweeps - options.burn_in) as f64;
        let denom = kept as f64 + k as f64 * self.alpha;
        let mixture: Vec<f64> = accumulated
            .iter()
            .map(|&c| (c as f64 / kept_sweeps + self.alpha) / denom)
            .collect();
        // Normalise explicitly to guard against floating-point drift.
        let s: f64 = mixture.iter().sum();
        let mixture = mixture.into_iter().map(|x| x / s).collect();
        DocumentTopics {
            counts: accumulated,
            mixture,
        }
    }

    /// Infer topic mixtures for every document of a corpus, in parallel.
    /// Returns one [`DocumentTopics`] per document, in corpus order
    /// (per-document OOV-drop semantics as in
    /// [`TopicInferencer::try_infer_document`]).
    pub fn try_infer_corpus(
        &self,
        corpus: &Corpus,
        options: InferenceOptions,
    ) -> Result<Vec<DocumentTopics>, InferenceError> {
        options.validate().map_err(InferenceError::InvalidOptions)?;
        if corpus.vocab_size() != self.vocab_size() {
            return Err(InferenceError::VocabMismatch {
                corpus: corpus.vocab_size(),
                model: self.vocab_size(),
            });
        }
        // One independent task per document on the thread pool.  Each
        // document derives its RNG from its own id, so the inferred topics
        // are identical however the documents land on OS threads.
        Ok((0..corpus.num_docs())
            .into_par_iter()
            .map(|d| self.infer_with_rng(corpus.doc(d), options, &mut doc_rng(options.seed, d)))
            .collect())
    }

    /// Panicking convenience wrapper around
    /// [`TopicInferencer::try_infer_corpus`].
    pub fn infer_corpus(&self, corpus: &Corpus, options: InferenceOptions) -> Vec<DocumentTopics> {
        match self.try_infer_corpus(corpus, options) {
            Ok(results) => results,
            Err(e) => panic!("{e}"),
        }
    }

    /// Infer a whole corpus and return the per-document *mean* topic counts
    /// as a CSR matrix (rows aligned with the corpus), which is the shape the
    /// held-out evaluation in `culda-metrics` consumes.
    pub fn try_infer_corpus_counts(
        &self,
        corpus: &Corpus,
        options: InferenceOptions,
    ) -> Result<CsrMatrix, InferenceError> {
        let results = self.try_infer_corpus(corpus, options)?;
        let kept = (options.sweeps - options.burn_in).max(1) as u32;
        let mut builder = CsrBuilder::new(corpus.num_docs(), self.num_topics());
        for doc in &results {
            let entries: Vec<(u16, u32)> = doc
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(k, &c)| (k as u16, (c + kept / 2) / kept))
                .filter(|&(_, c)| c > 0)
                .collect();
            builder.push_row(entries);
        }
        Ok(builder.finish())
    }

    /// Panicking convenience wrapper around
    /// [`TopicInferencer::try_infer_corpus_counts`].
    pub fn infer_corpus_counts(&self, corpus: &Corpus, options: InferenceOptions) -> CsrMatrix {
        match self.try_infer_corpus_counts(corpus, options) {
            Ok(counts) => counts,
            Err(e) => panic!("{e}"),
        }
    }
}

/// The document side of one fold-in chain: `n_{d,k}` and the topics it is
/// non-zero at, kept in step with every move.
#[derive(Default)]
struct DocState {
    /// `n_{d,k}`, without the token being drawn.
    counts: Vec<u32>,
    /// The topics with `n_{d,k} > 0`, in the order they entered.
    topics: Vec<u16>,
    /// Where each topic of `topics` sits in it.
    slot: Vec<u16>,
    /// The model's base vector, which a sparse word's cells are scattered
    /// over for one draw and restored from after it.
    column: Vec<f64>,
    /// The doc bucket's running sums over `topics`.
    prefix: Vec<f64>,
}

impl DocState {
    /// An empty document over the `K` topics of `base`.
    fn reset(&mut self, base: &[f64]) {
        let k = base.len();
        self.counts.clear();
        self.counts.resize(k, 0);
        self.topics.clear();
        self.slot.resize(k, 0);
        self.column.clear();
        self.column.extend_from_slice(base);
        self.prefix.resize(k, 0.0);
    }

    fn add(&mut self, t: u16) {
        let c = &mut self.counts[t as usize];
        if *c == 0 {
            self.slot[t as usize] = self.topics.len() as u16;
            self.topics.push(t);
        }
        *c += 1;
    }

    fn remove(&mut self, t: u16) {
        let c = &mut self.counts[t as usize];
        *c -= 1;
        if *c == 0 {
            let i = self.slot[t as usize];
            self.topics.swap_remove(i as usize);
            if let Some(&moved) = self.topics.get(i as usize) {
                self.slot[moved as usize] = i;
            }
        }
    }
}

/// The doc bucket `D = Σ n_{d,k} · weights[k]` over the document's
/// `topics`, leaving its running sums in `prefix`.
fn doc_mass(counts: &[u32], topics: &[u16], weights: &[f64], prefix: &mut [f64]) -> f64 {
    let mut d = 0.0;
    for (p, &t) in prefix.iter_mut().zip(topics) {
        d += counts[t as usize] as f64 * weights[t as usize];
        *p = d;
    }
    d
}

/// One thread's fold-in buffers, reused by every document it infers.
#[derive(Default)]
struct Chain {
    /// The document's in-vocabulary tokens.
    tokens: Vec<WordId>,
    /// Each token's topic.
    z: Vec<u16>,
    doc: DocState,
}

thread_local! {
    static CHAIN: RefCell<Chain> = RefCell::default();
}

/// The RNG of document `d` in a corpus query: derived from the document's
/// index, so replies do not depend on how documents land on threads.
fn doc_rng(seed: u64, d: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_add((d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_corpus::CorpusBuilder;

    /// A model with two sharply separated topics: topic 0 emits words 0..5,
    /// topic 1 emits words 5..10.
    fn two_topic_model() -> TopicInferencer {
        let mut phi = DenseMatrix::zeros(2, 10);
        for w in 0..5 {
            phi.set(0, w, 100);
        }
        for w in 5..10 {
            phi.set(1, w, 100);
        }
        let nk = vec![500, 500];
        TopicInferencer::new(&phi, &nk, 0.1, 0.01)
    }

    #[test]
    fn options_validation() {
        assert!(InferenceOptions::default().validate().is_ok());
        let bad = InferenceOptions {
            sweeps: 0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = InferenceOptions {
            sweeps: 5,
            burn_in: 5,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn documents_are_assigned_to_the_right_topic() {
        let model = two_topic_model();
        let opts = InferenceOptions::default();
        let doc0 = model.infer_document(&[0, 1, 2, 3, 4, 0, 1], opts);
        let doc1 = model.infer_document(&[5, 6, 7, 8, 9, 9], opts);
        assert_eq!(doc0.top_topics(1)[0].0, 0);
        assert_eq!(doc1.top_topics(1)[0].0, 1);
        assert!(doc0.mixture[0] > 0.8, "mixture {:?}", doc0.mixture);
        assert!(doc1.mixture[1] > 0.8, "mixture {:?}", doc1.mixture);
    }

    #[test]
    fn mixtures_are_normalised_and_deterministic() {
        let model = two_topic_model();
        let opts = InferenceOptions::default();
        let a = model.infer_document(&[0, 5, 1, 6], opts);
        let b = model.infer_document(&[0, 5, 1, 6], opts);
        assert_eq!(a, b);
        assert!((a.mixture.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let c = model.infer_document(&[0, 5, 1, 6], InferenceOptions { seed: 777, ..opts });
        assert!((c.mixture.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_and_oov_documents_get_uniform_mixtures() {
        let model = two_topic_model();
        let opts = InferenceOptions::default();
        let empty = model.infer_document(&[], opts);
        assert!((empty.mixture[0] - 0.5).abs() < 1e-12);
        assert_eq!(empty.top_topics(1)[0].0, 0);
        // Word ids beyond V are skipped entirely.
        let oov = model.infer_document(&[42, 99], opts);
        assert!((oov.mixture[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn corpus_inference_matches_per_document_inference() {
        let model = two_topic_model();
        let opts = InferenceOptions {
            sweeps: 10,
            burn_in: 2,
            seed: 5,
        };
        let mut b = CorpusBuilder::new(10);
        b.push_doc(&[0, 1, 2, 2]);
        b.push_doc(&[7, 8, 9]);
        b.push_doc(&[]);
        let corpus = b.build();
        let results = model.infer_corpus(&corpus, opts);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].top_topics(1)[0].0, 0);
        assert_eq!(results[1].top_topics(1)[0].0, 1);
        // Counts matrix has one row per document and only non-zero entries.
        let counts = model.infer_corpus_counts(&corpus, opts);
        assert_eq!(counts.rows(), 3);
        assert_eq!(counts.cols(), 2);
        assert!(counts.get(0, 0) > 0);
        assert_eq!(counts.row_nnz(2), 0);
        counts.validate().unwrap();
    }

    #[test]
    fn top_topics_are_sorted() {
        let model = two_topic_model();
        let doc = model.infer_document(&[0, 0, 0, 5], InferenceOptions::default());
        let top = doc.top_topics(2);
        assert_eq!(top.len(), 2);
        assert!(top[0].1 >= top[1].1);
    }

    #[test]
    #[should_panic(expected = "corpus vocabulary does not match")]
    fn vocabulary_mismatch_is_rejected() {
        let model = two_topic_model();
        let corpus = CorpusBuilder::new(3).build();
        let _ = model.infer_corpus(&corpus, InferenceOptions::default());
    }

    /// The dense topic-major model the word-major layout replaced, kept as
    /// the oracle for bit-identical replies and errors: a `K × V` weight
    /// matrix walked with a stride of V per token.
    struct DenseReference {
        weight: DenseMatrix<f64>,
        alpha: f64,
    }

    impl DenseReference {
        fn try_new(
            phi: &DenseMatrix<u32>,
            nk: &[i64],
            alpha: f64,
            beta: f64,
        ) -> Result<Self, InferenceError> {
            if phi.rows() != nk.len() {
                return Err(InferenceError::ShapeMismatch {
                    phi_rows: phi.rows(),
                    nk_len: nk.len(),
                });
            }
            if phi.rows() == 0 {
                return Err(InferenceError::NoTopics);
            }
            if !(alpha > 0.0 && alpha.is_finite() && beta > 0.0 && beta.is_finite()) {
                return Err(InferenceError::InvalidPrior { alpha, beta });
            }
            let (k, v) = (phi.rows(), phi.cols());
            let mut weight = DenseMatrix::zeros(k, v);
            for topic in 0..k {
                let denom = nk[topic] as f64 + v as f64 * beta;
                if !(denom > 0.0 && denom.is_finite()) {
                    return Err(InferenceError::CorruptTopic { topic, denom });
                }
                let row = weight.row_mut(topic);
                for (word, (slot, &c)) in row.iter_mut().zip(phi.row(topic)).enumerate() {
                    let w = (c as f64 + beta) / denom;
                    if !w.is_finite() {
                        return Err(InferenceError::CorruptWeight { topic, word });
                    }
                    *slot = w;
                }
            }
            Ok(DenseReference { weight, alpha })
        }

        fn infer(
            &self,
            words: &[WordId],
            options: InferenceOptions,
            rng: &mut ChaCha8Rng,
        ) -> DocumentTopics {
            let (k, v) = (self.weight.rows(), self.weight.cols());
            let tokens: Vec<usize> = words
                .iter()
                .filter(|&&w| (w as usize) < v)
                .map(|&w| w as usize)
                .collect();
            let mut doc_counts = vec![0u32; k];
            let mut accumulated = vec![0u32; k];
            if tokens.is_empty() {
                return DocumentTopics {
                    counts: accumulated,
                    mixture: vec![1.0 / k as f64; k],
                };
            }
            let mut z: Vec<usize> = tokens.iter().map(|_| rng.gen_range(0..k)).collect();
            for &t in &z {
                doc_counts[t] += 1;
            }
            let mut p = vec![0.0f64; k];
            for sweep in 0..options.sweeps {
                for (i, &v) in tokens.iter().enumerate() {
                    doc_counts[z[i]] -= 1;
                    let mut total = 0.0;
                    for topic in 0..k {
                        let w = self.weight.get(topic, v);
                        let val = (doc_counts[topic] as f64 + self.alpha) * w;
                        total += val;
                        p[topic] = total;
                    }
                    let u = rng.gen::<f64>() * total;
                    let new = match p.binary_search_by(|x| x.total_cmp(&u)) {
                        Ok(idx) | Err(idx) => idx.min(k - 1),
                    };
                    z[i] = new;
                    doc_counts[new] += 1;
                }
                if sweep >= options.burn_in {
                    for (acc, &c) in accumulated.iter_mut().zip(&doc_counts) {
                        *acc += c;
                    }
                }
            }
            let kept_sweeps = (options.sweeps - options.burn_in) as f64;
            let denom = tokens.len() as f64 + k as f64 * self.alpha;
            let mixture: Vec<f64> = accumulated
                .iter()
                .map(|&c| (c as f64 / kept_sweeps + self.alpha) / denom)
                .collect();
            let s: f64 = mixture.iter().sum();
            DocumentTopics {
                counts: accumulated,
                mixture: mixture.into_iter().map(|x| x / s).collect(),
            }
        }
    }

    fn topic_totals(phi: &DenseMatrix<u32>) -> Vec<i64> {
        (0..phi.rows())
            .map(|t| phi.row(t).iter().map(|&c| c as i64).sum())
            .collect()
    }

    /// A random `K × V` count matrix whose columns cover every layout the
    /// frozen model tells apart: all-zero words, words one non-zero short
    /// of the hot rule and exactly at it, fully dense words, random
    /// densities, and word 5, whose only non-zeros are topics 0 and K − 1.
    fn random_counts(k: usize, v: usize, seed: u64) -> (DenseMatrix<u32>, Vec<i64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let edge = k.div_ceil(HOT_DENSITY);
        let mut phi = DenseMatrix::zeros(k, v);
        let mut topics: Vec<usize> = (0..k).collect();
        for word in 0..v {
            let nnz = match word % 6 {
                _ if word == 5 => 0,
                0 => 0,
                1 => edge - 1,
                2 => edge,
                3 => k,
                _ => rng.gen_range(0..k + 1),
            };
            for i in 0..nnz {
                let j = rng.gen_range(i..k);
                topics.swap(i, j);
                phi.set(topics[i], word, rng.gen_range(1..50u32));
            }
        }
        phi.set(0, 5, 7);
        phi.set(k - 1, 5, 3);
        let nk = topic_totals(&phi);
        (phi, nk)
    }

    /// The K weights of `word` as the K-wide prefix chain the buckets
    /// replaced read them: a hot word's stored column, or the base vector
    /// with the word's non-zero weights scattered over it.
    fn column_weights(model: &TopicInferencer, word: usize) -> Vec<f64> {
        let col = model.columns[word];
        let (k, start) = (model.num_topics(), col.start as usize);
        if col.len == HOT {
            return model.dense[start * k..(start + 1) * k].to_vec();
        }
        let mut column = model.base.clone();
        let cells = start..start + col.len as usize;
        for (&t, &w) in model.topics[cells.clone()]
            .iter()
            .zip(&model.weights[cells])
        {
            column[t as usize] = w;
        }
        column
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn frozen_weights_are_bit_identical_to_the_dense_topic_major_model() {
        let (v, alpha) = (40, 0.1);
        for (i, &k) in [1usize, 2, 8, 96, 512].iter().enumerate() {
            let (phi, nk) = random_counts(k, v, 11 + i as u64);
            let model = TopicInferencer::try_new(&phi, &nk, alpha, 0.01).unwrap();
            let reference = DenseReference::try_new(&phi, &nk, alpha, 0.01).unwrap();
            let hot = |w: usize| model.columns[w].len == HOT;
            // Word 1 sits one non-zero below the hot rule, word 2 on it.
            assert!(!hot(0) && !hot(1) && hot(2) && hot(3), "K = {k}");
            if k > 16 {
                // Word 5 is sparse with non-zeros at both ends of the column,
                // and word 1 is sparse with non-zeros of its own.
                assert!(!hot(5) && model.columns[5].len == 2);
                assert!(model.columns[1].len > 0);
            }
            let mut s = 0.0;
            for (t, &b) in model.base.iter().enumerate() {
                s += alpha * b;
                assert_eq!(model.smoothing[t].to_bits(), s.to_bits(), "K = {k}");
            }
            for word in 0..v {
                let column = column_weights(&model, word);
                let want: Vec<f64> = (0..k).map(|t| reference.weight.get(t, word)).collect();
                assert_eq!(bits(&column), bits(&want), "K = {k}, word {word}");
                // R_v is the word-bucket terms of the column, summed the way
                // the scan sums them: per block for a hot word, cell by cell
                // (a zero cell adds +0.0) for a sparse one.
                let r = if hot(word) {
                    column
                        .chunks(BLOCK)
                        .zip(model.base.chunks(BLOCK))
                        .fold(0.0, |r, (ws, bs)| r + block_mass(alpha, ws, bs))
                } else {
                    column
                        .iter()
                        .zip(&model.base)
                        .fold(0.0, |r, (&w, &b)| r + word_term(alpha, w, b))
                };
                assert_eq!(model.word_mass[word].to_bits(), r.to_bits(), "word {word}");
            }
        }
    }

    /// Builds both models from the same input and checks they fail alike
    /// (compared through `Debug`, so a NaN field compares too); returns the
    /// error.
    fn same_error(
        phi: &DenseMatrix<u32>,
        nk: &[i64],
        alpha: f64,
        beta: f64,
    ) -> Option<InferenceError> {
        let got = TopicInferencer::try_new(phi, nk, alpha, beta).err();
        let want = DenseReference::try_new(phi, nk, alpha, beta).err();
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        got
    }

    #[test]
    fn errors_match_the_dense_topic_major_model() {
        let (phi, nk) = random_counts(8, 12, 3);

        let mut negative = nk.clone();
        negative[2] = -1_000_000;
        assert!(matches!(
            same_error(&phi, &negative, 0.1, 0.01),
            Some(InferenceError::CorruptTopic { topic: 2, .. })
        ));
        assert!(matches!(
            same_error(&phi, &nk[..7], 0.1, 0.01),
            Some(InferenceError::ShapeMismatch { .. })
        ));
        assert_eq!(
            same_error(&DenseMatrix::zeros(0, 5), &[], 0.1, 0.01),
            Some(InferenceError::NoTopics)
        );
        for (alpha, beta) in [
            (0.0, 0.01),
            (0.1, -1.0),
            (f64::NAN, 0.01),
            (0.1, f64::INFINITY),
        ] {
            assert!(matches!(
                same_error(&phi, &nk, alpha, beta),
                Some(InferenceError::InvalidPrior { .. })
            ));
        }
        // A huge β overflows Vβ itself.
        assert!(matches!(
            same_error(&phi, &nk, 0.1, 1e308),
            Some(InferenceError::CorruptTopic { topic: 0, .. })
        ));

        // A subnormal β over a zero n_k leaves a subnormal denominator: the
        // base weight β / denom = 1/V stays finite while every non-zero cell
        // (c + β) / denom overflows.  The first non-zero in row-major order
        // is reported, even ahead of a later topic's negative n_k.
        let beta = 1e-310;
        let mut phi = DenseMatrix::zeros(4, 5);
        phi.set(0, 1, 4);
        phi.set(2, 3, 6);
        phi.set(2, 4, 1);
        phi.set(3, 0, 2);
        let nk = vec![1_000, 0, 0, -5];
        assert_eq!(
            same_error(&phi, &nk, 0.1, beta),
            Some(InferenceError::CorruptWeight { topic: 2, word: 3 })
        );
        // With no non-zero under the subnormal denominators the model is
        // valid, and the weights of those topics are 1/V and tiny.
        phi.set(2, 3, 0);
        phi.set(2, 4, 0);
        let nk = vec![1_000, 0, 0, 2];
        assert_eq!(same_error(&phi, &nk, 0.1, beta), None);

        // The reverse: a base weight that underflows to zero beside normal
        // non-zero weights is still a valid model, with the same weights.
        // (A base weight can never overflow where a non-zero weight stays
        // finite: division is monotone and c + β ≥ β.)
        let beta = 5e-324;
        let nk = vec![1_i64 << 52; 4];
        assert_eq!(same_error(&phi, &nk, 0.1, beta), None);
        let model = TopicInferencer::try_new(&phi, &nk, 0.1, beta).unwrap();
        assert!(model.base.iter().all(|&b| b == 0.0));
        assert_eq!(model.smoothing[3], 0.0);
        let reference = DenseReference::try_new(&phi, &nk, 0.1, beta).unwrap();
        for word in 0..5 {
            let want: Vec<f64> = (0..4).map(|t| reference.weight.get(t, word)).collect();
            assert_eq!(bits(&column_weights(&model, word)), bits(&want));
        }
        // Word 0's only non-zero weight is at topic 3 and word 1's at topic
        // 0, so every draw of theirs lands there; words 2 and 4 have no
        // mass at all and still draw a valid topic.
        let opts = InferenceOptions::default();
        let kept = (opts.sweeps - opts.burn_in) as u32;
        let reply = model.try_infer_document(&[0, 1, 2, 1, 4, 0], opts).unwrap();
        assert!(reply.counts[3] >= 2 * kept && reply.counts[0] >= 2 * kept);
        assert_eq!(reply.counts.iter().sum::<u32>(), 6 * kept);
        let reply = model.try_infer_document(&[2, 4], opts).unwrap();
        assert_eq!(reply.counts.iter().sum::<u32>(), 2 * kept);
        assert!((reply.mixture.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_topics_than_a_u16_index_holds_is_a_typed_error() {
        let k = usize::from(u16::MAX) + 1;
        for (topics, want) in [
            (k + 1, Some(InferenceError::TooManyTopics(k + 1))),
            (k, None),
        ] {
            let mut phi = DenseMatrix::zeros(topics, 2);
            phi.set(topics - 1, 0, 5);
            let got = TopicInferencer::try_new(&phi, &topic_totals(&phi), 0.1, 0.01);
            assert_eq!(got.as_ref().err(), want.as_ref());
            if let Ok(model) = got {
                // The largest topic id still round-trips the 16-bit chain.
                let reply = model.try_infer_document(&[0, 0, 1], InferenceOptions::default());
                assert_eq!(reply.unwrap().counts.len(), k);
            }
        }
    }

    /// 64-bit FNV-1a over every reply's counts and mixture bits.
    fn replies_digest(replies: &[DocumentTopics]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for reply in replies {
            reply.counts.iter().for_each(|c| eat(&c.to_le_bytes()));
            reply
                .mixture
                .iter()
                .for_each(|x| eat(&x.to_bits().to_le_bytes()));
        }
        h
    }

    #[test]
    fn column_constructor_freezes_the_model_try_new_freezes() {
        // Many of the column pass's strips, and not a multiple of them.
        let v = 150;
        let opts = InferenceOptions {
            sweeps: 8,
            burn_in: 2,
            seed: 7,
        };
        for (i, &k) in [1usize, 2, 8, 96, 512].iter().enumerate() {
            let (phi, nk) = random_counts(k, v, 31 + i as u64);
            let want = TopicInferencer::try_new(&phi, &nk, 0.1, 0.01).unwrap();
            let got =
                TopicInferencer::try_from_columns(&AtomicMatrix::from_dense(&phi), &nk, 0.1, 0.01)
                    .unwrap();
            let mut b = CorpusBuilder::new(v);
            let mut rng = ChaCha8Rng::seed_from_u64(k as u64);
            b.push_doc(&[]);
            b.push_doc(&[1, 5, 1, 5, 0, 5, 2, 3]);
            for _ in 0..12 {
                let len = rng.gen_range(1..40);
                let doc: Vec<WordId> = (0..len).map(|_| rng.gen_range(0..v as WordId)).collect();
                b.push_doc(&doc);
            }
            let corpus = b.build();
            let digest =
                |m: &TopicInferencer| replies_digest(&m.try_infer_corpus(&corpus, opts).unwrap());
            assert_eq!(digest(&got), digest(&want), "K = {k}");
            for (g, w) in [
                (&got.base, &want.base),
                (&got.smoothing, &want.smoothing),
                (&got.word_mass, &want.word_mass),
                (&got.weights, &want.weights),
                (&got.dense, &want.dense),
                (&got.blocks, &want.blocks),
            ] {
                assert_eq!(bits(g), bits(w), "K = {k}");
            }
            let layout = |m: &TopicInferencer| -> Vec<(u32, u32)> {
                m.columns.iter().map(|c| (c.start, c.len)).collect()
            };
            assert_eq!(layout(&got), layout(&want));
            assert_eq!(got.topics, want.topics);
            assert_eq!(got.heap_bytes(), want.heap_bytes());
        }
    }

    /// Freezes `phi` through `try_new`, the column constructor and the
    /// dense topic-major oracle and checks all three fail alike; returns
    /// the error.
    fn same_column_error(
        phi: &DenseMatrix<u32>,
        nk: &[i64],
        alpha: f64,
        beta: f64,
    ) -> Option<InferenceError> {
        let want = same_error(phi, nk, alpha, beta);
        let got =
            TopicInferencer::try_from_columns(&AtomicMatrix::from_dense(phi), nk, alpha, beta)
                .err();
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        want
    }

    #[test]
    fn column_constructor_fails_like_try_new() {
        let (phi, nk) = random_counts(8, 12, 3);
        let mut negative = nk.clone();
        negative[2] = -1_000_000;
        assert!(matches!(
            same_column_error(&phi, &negative, 0.1, 0.01),
            Some(InferenceError::CorruptTopic { topic: 2, .. })
        ));
        // n_k = −Vβ: a zero denominator.
        let mut zero = nk.clone();
        zero[5] = -6;
        assert!(matches!(
            same_column_error(&phi, &zero, 0.1, 0.5),
            Some(InferenceError::CorruptTopic { topic: 5, denom }) if denom == 0.0
        ));
        for (alpha, beta) in [(f64::NAN, 0.01), (0.1, f64::INFINITY), (0.0, 0.01)] {
            assert!(matches!(
                same_column_error(&phi, &nk, alpha, beta),
                Some(InferenceError::InvalidPrior { .. })
            ));
        }
        assert!(matches!(
            same_column_error(&phi, &nk[..7], 0.1, 0.01),
            Some(InferenceError::ShapeMismatch {
                phi_rows: 8,
                nk_len: 7
            })
        ));
        assert_eq!(
            same_column_error(&DenseMatrix::zeros(0, 5), &[], 0.1, 0.01),
            Some(InferenceError::NoTopics)
        );

        // Subnormal denominators at topics 1 and 2 (zero n_k under a
        // subnormal β) make every non-zero cell there overflow.  Word 0 is
        // clean; word 1 faults at topic 2 and word 3 at topic 1, so the
        // least (topic, word) sits at a later word than the first fault
        // the column pass meets — and ahead of topic 3's negative n_k.
        let beta = 1e-310;
        let mut phi = DenseMatrix::zeros(4, 5);
        phi.set(0, 0, 9);
        phi.set(2, 1, 4);
        phi.set(1, 3, 6);
        phi.set(2, 4, 1);
        let nk = vec![1_000, 0, 0, -5];
        assert_eq!(
            same_column_error(&phi, &nk, 0.1, beta),
            Some(InferenceError::CorruptWeight { topic: 1, word: 3 })
        );
        // The only fault at a word other than the first, in a later strip
        // of the column pass.
        let mut phi = DenseMatrix::zeros(4, 130);
        phi.set(0, 0, 9);
        phi.set(3, 0, 2);
        phi.set(1, 100, 5);
        let nk = vec![1_000, 0, 1_000, 1_000];
        assert_eq!(
            same_column_error(&phi, &nk, 0.1, beta),
            Some(InferenceError::CorruptWeight {
                topic: 1,
                word: 100
            })
        );
        // No non-zero under the subnormal denominators: a valid model.
        phi.set(1, 100, 0);
        assert_eq!(same_column_error(&phi, &nk, 0.1, beta), None);
    }

    /// What the layout the buckets replaced held for the same hot/sparse
    /// split: the base vector, one `(start, len)` per word, one `(u32, f64)`
    /// pair (16 B with padding) per sparse cell and the hot columns.
    fn pair_layout_bytes(model: &TopicInferencer) -> usize {
        let (k, v) = (model.num_topics(), model.vocab_size());
        8 * k + 8 * v + 16 * model.topics.len() + 8 * model.dense.len()
    }

    /// A `K × V` count matrix shaped like a trained φ over `tokens` tokens
    /// of a Zipf vocabulary: word `v` has about `tokens / (v + 1)^1.05 / H`
    /// tokens, half on a few home topics of its own, half spread at random.
    fn zipf_counts(k: usize, v: usize, tokens: f64, seed: u64) -> (DenseMatrix<u32>, Vec<i64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let h: f64 = (1..=v).map(|r| (r as f64).powf(-1.05)).sum();
        let mut phi = DenseMatrix::zeros(k, v);
        for word in 0..v {
            let n = (tokens * ((word + 1) as f64).powf(-1.05) / h)
                .round()
                .max(1.0) as usize;
            let home = rng.gen_range(0..k);
            for _ in 0..n {
                let t = if rng.gen::<bool>() {
                    (home + rng.gen_range(0..4)) % k
                } else {
                    rng.gen_range(0..k)
                };
                phi.set(t, word, phi.get(t, word) + 1);
            }
        }
        let nk = topic_totals(&phi);
        (phi, nk)
    }

    #[test]
    fn frozen_model_memory_is_bounded_by_its_non_zeros() {
        let v = 60;
        for &k in &[1usize, 8, 96, 512] {
            let (phi, nk) = random_counts(k, v, 5);
            let model = TopicInferencer::try_new(&phi, &nk, 0.1, 0.01).unwrap();
            let nnz = phi.as_slice().iter().filter(|&&c| c != 0).count();
            let hot = model.dense.len() / k;
            let sparse = model.topics.len();
            assert_eq!(model.weights.len(), sparse);
            assert!(sparse <= nnz);
            // 10 B per sparse cell, the base vector and the smoothing sums,
            // a column and `⌈K / 8⌉` block sums per hot word, and a
            // `(start, len)` and an `R_v` per word.
            let layout = 10 * sparse + 16 * k + 8 * (k + k.div_ceil(BLOCK)) * hot + 16 * v;
            assert_eq!(model.heap_bytes(), layout, "K = {k}");
        }
        // One non-zero per word: a small fraction of the dense K × V matrix.
        let (k, v) = (512, 2_000);
        let mut phi = DenseMatrix::zeros(k, v);
        for w in 0..v {
            phi.set(w % k, w, 3);
        }
        let model = TopicInferencer::try_new(&phi, &topic_totals(&phi), 0.1, 0.01).unwrap();
        assert!(model.dense.is_empty());
        assert!(model.heap_bytes() * 100 < 8 * k * v);
        // Models shaped like the tail-heavy (K = 512, V = 20k, 240 k
        // tokens) and NYTimes (K = 256, V = 7892, 600 k tokens) benchmark
        // models: 6 B saved per sparse cell pay for the smoothing sums, the
        // word-bucket masses and the block sums, so the model is no larger
        // than the pair layout, and within the old bound
        // `16·nnz + 8·K·(hot + 1) + 8·(V + 1)`.
        for (k, v, tokens) in [(512, 20_000, 240e3), (256, 7_892, 600e3)] {
            let (phi, nk) = zipf_counts(k, v, tokens, 9);
            let model = TopicInferencer::try_new(&phi, &nk, 50.0 / k as f64, 0.01).unwrap();
            let nnz = phi.as_slice().iter().filter(|&&c| c != 0).count();
            let hot = model.dense.len() / k;
            let old_bound = 16 * nnz + 8 * k * (hot + 1) + 8 * (v + 1);
            let (bytes, pairs) = (model.heap_bytes(), pair_layout_bytes(&model));
            assert!(
                bytes <= pairs && pairs <= old_bound,
                "K = {k}: {bytes} > {pairs}"
            );
        }
    }

    /// `P(χ²_df ≥ stat)`: the regularized upper incomplete gamma function
    /// `Q(df/2, stat/2)`, by its series below `a + 1` and its continued
    /// fraction (modified Lentz) above.
    fn chi_square_survival(stat: f64, df: usize) -> f64 {
        use culda_metrics::special::ln_gamma;
        let (a, x) = (df as f64 / 2.0, stat / 2.0);
        if x <= 0.0 {
            return 1.0;
        }
        let scale = (a * x.ln() - x - ln_gamma(a)).exp();
        if x < a + 1.0 {
            let (mut n, mut term) = (a, 1.0 / a);
            let mut sum = term;
            while term > sum * 1e-16 {
                n += 1.0;
                term *= x / n;
                sum += term;
            }
            1.0 - sum * scale
        } else {
            let tiny = 1e-300;
            let mut b = x + 1.0 - a;
            let mut c = 1.0 / tiny;
            let mut d = 1.0 / b;
            let mut h = d;
            for i in 1..10_000 {
                let an = -(i as f64) * (i as f64 - a);
                b += 2.0;
                d = an * d + b;
                if d.abs() < tiny {
                    d = tiny;
                }
                c = b + an / c;
                if c.abs() < tiny {
                    c = tiny;
                }
                d = 1.0 / d;
                let step = d * c;
                h *= step;
                if (step - 1.0).abs() < 1e-16 {
                    break;
                }
            }
            scale * h
        }
    }

    #[test]
    fn chi_square_survival_matches_closed_forms() {
        // For even df = 2m, Q = e^{-x/2} Σ_{i<m} (x/2)^i / i!.
        for df in [2usize, 10, 24, 40] {
            for x in [0.5, 3.0, 20.0, 35.564, 80.0] {
                let (mut term, mut sum) = (1.0, 0.0);
                for i in 0..df / 2 {
                    sum += term;
                    term *= x / 2.0 / (i + 1) as f64;
                }
                let exact = (-x / 2.0).exp() * sum;
                let got = chi_square_survival(x, df);
                assert!(
                    (got - exact).abs() < 1e-10 * exact.max(1e-3),
                    "df {df}, x {x}"
                );
            }
        }
        // The 1e-4 critical value of χ² with 10 degrees of freedom.
        assert!((chi_square_survival(35.564, 10) - 1e-4).abs() < 1e-6);
        // Odd df through Q(a + 1, x) = Q(a, x) + x^a e^{-x} / Γ(a + 1).
        for df in [1usize, 7, 23] {
            for x in [0.5f64, 9.0, 60.0] {
                let (a, h) = (df as f64 / 2.0, x / 2.0);
                let step = (a * h.ln() - h - culda_metrics::special::ln_gamma(a + 1.0)).exp();
                let (lo, hi) = (chi_square_survival(x, df), chi_square_survival(x, df + 2));
                assert!(
                    (hi - lo - step).abs() < 1e-10 * hi.max(1e-3),
                    "df {df}, x {x}"
                );
            }
        }
    }

    /// Pearson's χ² of observed `counts` against `probs`, pooling the cells
    /// expected fewer than 5 times into one; returns the p-value.
    fn chi_square_p_value(counts: &[u64], probs: &[f64]) -> f64 {
        let n = counts.iter().sum::<u64>() as f64;
        let (mut stat, mut cells) = (0.0, 0);
        let (mut pooled_obs, mut pooled_exp) = (0.0, 0.0);
        for (&o, &p) in counts.iter().zip(probs) {
            let e = p * n;
            if e < 5.0 {
                pooled_obs += o as f64;
                pooled_exp += e;
            } else {
                stat += (o as f64 - e).powi(2) / e;
                cells += 1;
            }
        }
        if pooled_exp > 0.0 {
            stat += (pooled_obs - pooled_exp).powi(2) / pooled_exp;
            cells += 1;
        }
        chi_square_survival(stat, cells - 1)
    }

    /// A document state holding `counts`, as the chain holds it between
    /// draws.
    fn doc_state(model: &TopicInferencer, counts: &[u32]) -> DocState {
        let mut doc = DocState::default();
        doc.reset(&model.base);
        for (t, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                doc.add(t as u16);
            }
        }
        doc
    }

    /// The exact conditional `(n_{d,k} + α) · w_{k,v}` of every topic.
    fn exact_masses(model: &TopicInferencer, word: usize, counts: &[u32]) -> Vec<f64> {
        let column = column_weights(model, word);
        counts
            .iter()
            .zip(&column)
            .map(|(&n, &w)| (n as f64 + model.alpha) * w)
            .collect()
    }

    /// A count matrix over K topics and 6 words: word 0 non-zero at every
    /// other topic, word 1 at topics 3 and 17 if they exist (at the last
    /// topic otherwise), word 5 nowhere; words 2–4 carry the rest of each
    /// topic's mass.
    fn bucket_counts(k: usize) -> (DenseMatrix<u32>, Vec<i64>) {
        let mut phi = DenseMatrix::zeros(k, 6);
        for t in (0..k).step_by(2) {
            phi.set(t, 0, 1 + (t as u32 * 7) % 13);
        }
        if k > 17 {
            phi.set(3, 1, 9);
            phi.set(17, 1, 2);
        } else {
            phi.set(k - 1, 1, 9);
        }
        for t in 0..k {
            phi.set(t, 2 + t % 3, 20 + t as u32);
        }
        let nk = topic_totals(&phi);
        (phi, nk)
    }

    #[test]
    fn each_draw_follows_the_exact_fold_in_conditional() {
        const DRAWS: usize = 200_000;
        let k = 24usize;
        let (phi, nk) = bucket_counts(k);
        let model = TopicInferencer::try_new(&phi, &nk, 0.1, 0.05).unwrap();
        assert_eq!(model.columns[0].len, HOT);
        assert_eq!(model.columns[1].len, 2);
        assert_eq!(model.columns[5].len, 0);
        let docs: [Vec<u32>; 3] = [
            // Four empty topics, so the law depends on α.
            (0..k as u32).map(|t| (t * 5) % 7).collect(),
            // An empty doc bucket: the token is the document's only one.
            vec![0; k],
            // Every topic in the doc bucket (K_d = K).
            (0..k as u32).map(|t| 1 + t % 3).collect(),
        ];
        for (i, counts) in docs.iter().enumerate() {
            let mut doc = doc_state(&model, counts);
            // A hot word, a sparse word and a word with no cells.
            for word in [0usize, 1, 5] {
                let exact = exact_masses(&model, word, counts);
                let norm: f64 = exact.iter().sum();
                let probs: Vec<f64> = exact.iter().map(|p| p / norm).collect();
                let mut rng = ChaCha8Rng::seed_from_u64(21 + 10 * i as u64 + word as u64);
                let mut hist = vec![0u64; k];
                for _ in 0..DRAWS {
                    hist[model.draw(word, &mut doc, rng.gen())] += 1;
                }
                let p = chi_square_p_value(&hist, &probs);
                assert!(p > 1e-4, "doc {i}, word {word}: p = {p:e}, counts {hist:?}");
                // A sparse word's scatter is undone after every draw.
                assert_eq!(bits(&doc.column), bits(&model.base));

                // u = 0 lands on the first topic of the first non-empty
                // bucket; the largest u below 1 on the last smoothing topic.
                let first = match (doc.topics.first(), word) {
                    (Some(&t), _) => t as usize,
                    (None, 5) => 0,
                    (None, _) => (0..k).find(|&t| phi.get(t, word) > 0).unwrap(),
                };
                assert_eq!(
                    model.draw(word, &mut doc, 0.0),
                    first,
                    "doc {i}, word {word}"
                );
                let below_one = 1.0 - f64::EPSILON / 2.0;
                assert_eq!(model.draw(word, &mut doc, below_one), k - 1);
            }
        }
    }

    /// The least `x` in `[lo, hi]` where `above(x)` holds, by bisection over
    /// the bits of non-negative floats (ordered as the floats are).
    /// `above` must be monotone on the interval and hold at `hi`.
    fn least_where(lo: f64, hi: f64, above: impl Fn(f64) -> bool) -> f64 {
        let (mut lo, mut hi) = (lo.to_bits(), hi.to_bits());
        if above(f64::from_bits(lo)) {
            return f64::from_bits(lo);
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if above(f64::from_bits(mid)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        f64::from_bits(hi)
    }

    #[test]
    fn the_three_buckets_split_the_exact_conditional() {
        // K ≤ 4 makes every word with a non-zero hot; K = 24 adds a sparse
        // word with cells.
        for k in [1usize, 2, 3, 4, 24] {
            let (phi, nk) = bucket_counts(k);
            let model = TopicInferencer::try_new(&phi, &nk, 0.5, 0.5).unwrap();
            for counts in [
                (0..k as u32)
                    .map(|t| [2, 0, 1, 3][t as usize % 4])
                    .collect::<Vec<_>>(),
                vec![0; k],
            ] {
                let mut doc = doc_state(&model, &counts);
                for word in [0usize, 1, 5] {
                    let (d, dr) = model.masses(word, &mut doc);
                    let z = dr + model.smoothing[k - 1];
                    let col = model.columns[word];
                    let start = col.start as usize;
                    let cells: Vec<usize> = if col.len == HOT {
                        (0..k).collect()
                    } else {
                        model.topics[start..start + col.len as usize]
                            .iter()
                            .map(|&t| t as usize)
                            .collect()
                    };
                    let doc_topics: Vec<usize> = doc.topics.iter().map(|&t| t as usize).collect();
                    // Each bucket's x-range and the topics it walks, in
                    // order; a topic's piece of the bucket is the stretch of
                    // x that `invert` maps to it.
                    let mut masses = vec![0.0; k];
                    for (lo, hi, walk) in [
                        (0.0, d, doc_topics),
                        (d, dr, cells),
                        (dr, z, (0..k).collect()),
                    ] {
                        let at = |x: f64| {
                            let t = model.invert(word, &doc, d, dr, x);
                            walk.iter()
                                .position(|&w| w == t)
                                .expect("a topic of the bucket")
                        };
                        let mut from = lo;
                        for (j, &t) in walk.iter().enumerate() {
                            let to = if j + 1 == walk.len() {
                                hi
                            } else {
                                least_where(from, hi, |x| x >= hi || at(x) > j)
                            };
                            masses[t] += to - from;
                            from = to;
                        }
                    }
                    let exact = exact_masses(&model, word, &counts);
                    for t in 0..k {
                        let err = (masses[t] - exact[t]).abs() / exact[t];
                        assert!(err < 1e-12, "K = {k}, word {word}, topic {t}: {err:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn replies_agree_with_the_k_wide_chain_in_distribution() {
        // 256 documents on a K = 512 model, against the dense walk of the
        // K-wide prefix chain the buckets replaced.  The chains consume the
        // same uniforms differently, so replies agree in law, not in bits:
        // the mean mixtures must be within total variation 0.025.  Two
        // seeds of the K-wide chain itself differ by 0.013 here, and the
        // buckets differ from it by as much.
        let (k, v, docs) = (512usize, 300usize, 256usize);
        // Each word peaks on a home topic and its neighbour and has a few
        // stray cells; every tenth word is also spread over 100 topics
        // (a hot word).
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut phi = DenseMatrix::zeros(k, v);
        for w in 0..v {
            let home = (w * 7) % k;
            phi.set(home, w, 200);
            phi.set((home + 1) % k, w, 50);
            let strays = if w % 10 == 0 {
                100
            } else {
                rng.gen_range(0..4)
            };
            for _ in 0..strays {
                let t = rng.gen_range(0..k);
                phi.set(t, w, phi.get(t, w) + rng.gen_range(1..4));
            }
        }
        let nk = topic_totals(&phi);
        let model = TopicInferencer::try_new(&phi, &nk, 0.1, 0.01).unwrap();
        let reference = DenseReference::try_new(&phi, &nk, 0.1, 0.01).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut b = CorpusBuilder::new(v);
        for _ in 0..docs {
            // A few themes per document, as in a query.
            let themes: Vec<usize> = (0..3).map(|_| rng.gen_range(0..v)).collect();
            let len = rng.gen_range(16..33);
            let doc: Vec<WordId> = (0..len)
                .map(|_| ((themes[rng.gen_range(0..3)] + rng.gen_range(0..5)) % v) as WordId)
                .collect();
            b.push_doc(&doc);
        }
        let corpus = b.build();
        let opts = InferenceOptions {
            sweeps: 40,
            burn_in: 5,
            seed: 12,
        };
        let mean = |replies: Vec<DocumentTopics>| -> Vec<f64> {
            let mut m = vec![0.0; k];
            for reply in &replies {
                for (a, &p) in m.iter_mut().zip(&reply.mixture) {
                    *a += p / docs as f64;
                }
            }
            m
        };
        let tv =
            |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / 2.0;
        let chain = mean(
            (0..docs)
                .map(|d| reference.infer(corpus.doc(d), opts, &mut doc_rng(opts.seed, d)))
                .collect(),
        );
        let buckets = mean(model.try_infer_corpus(&corpus, opts).unwrap());
        let got = tv(&buckets, &chain);
        assert!(got < 0.025, "total variation {got}");
    }
}
