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
//! DESIGN.md §12, "Frozen-model layout").  A token reads one contiguous
//! K-wide column, replies are the bits a dense `K × V` weight matrix gives,
//! and the model takes O(nnz(φ) + K + hot·K) memory instead of O(K·V).
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

    /// The single most probable topic (`None` for an empty mixture).
    pub fn dominant_topic(&self) -> Option<usize> {
        self.top_topics(1).first().map(|&(k, _)| k)
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

/// Words per strip of the freeze's column pass.  Transposing a row-major φ
/// stores a row's cells `K` counts apart, and at `K = 512` those 2 KiB
/// strides fall into two L1 sets: 16 lines fit them, 64 thrash.  On a
/// 2-core host a tail-shaped φ (K = 512, V = 20k) transposed in 19 ms
/// with 16-word strips and in 50 ms with 64-word ones.
const STRIP: usize = 16;

/// Where one word's weights live in the frozen model.
#[derive(Debug, Clone, Copy)]
struct WordColumn {
    /// First entry of the word's sparse column, or its dense slot if hot.
    start: u32,
    /// Non-zero cells of the word, or [`HOT`].
    len: u32,
}

/// A frozen LDA model that can answer topic queries for unseen documents.
///
/// The smoothed weights `(φ_{k,v} + β) / (n_k + Vβ)` never change during
/// inference, so they are computed once, in three word-major parts:
///
/// * a K-wide base vector `β / (n_k + Vβ)`, the weight of every zero cell;
/// * for each word with fewer than `K / 8` non-zero cells, its non-zero
///   `(topic, weight)` pairs in topic order;
/// * for each other (*hot*) word, its full K-wide weight column.
///
/// That is `16·nnz(φ) + 8·K·(hot + 1) + 8·V` bytes at most, where a dense
/// `K × V` matrix would take `8·K·V`.  Each token of the fold-in chain reads
/// one contiguous K-wide column, so replies are bit-identical to a walk of
/// the dense matrix (DESIGN.md §12, "Frozen-model layout").
pub struct TopicInferencer {
    /// `β / (n_k + Vβ)` per topic.
    base: Vec<f64>,
    /// One entry per word of the vocabulary.
    columns: Vec<WordColumn>,
    /// The sparse words' non-zero `(topic, weight)` cells, word after word,
    /// each word's in topic order.
    entries: Vec<(u32, f64)>,
    /// The hot words' K-wide weight columns, one after another.
    dense: Vec<f64>,
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

        // Non-zero cells are checked at topics below `limit`: the least
        // topic of a faulty cell found so far, or of a corrupt denominator.
        // A later word's fault at a lower topic comes first in row-major
        // order.  Hot words get a dense slot, the rest a run of sparse
        // entries, in topic order.
        let mut limit = denoms.len();
        let mut corrupt_cell = None;
        let mut strip = vec![0u32; k * STRIP.min(vocab)];
        let mut cells: Vec<(u32, f64)> = Vec::new();
        let mut columns = Vec::with_capacity(vocab);
        let (mut entries, mut dense) = (Vec::new(), Vec::new());
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
                    cells.push((topic as u32, w));
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
                } else {
                    columns.push(WordColumn {
                        start: to_u32(entries.len()),
                        len: to_u32(cells.len()),
                    });
                    entries.extend_from_slice(&cells);
                }
            }
        }
        if let Some(e) = corrupt_cell.or(corrupt_topic) {
            return Err(e);
        }
        entries.shrink_to_fit();
        dense.shrink_to_fit();
        Ok(TopicInferencer {
            base,
            columns,
            entries,
            dense,
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
        self.base.capacity() * size_of::<f64>()
            + self.columns.capacity() * size_of::<WordColumn>()
            + self.entries.capacity() * size_of::<(u32, f64)>()
            + self.dense.capacity() * size_of::<f64>()
    }

    /// The K weights `(φ_{k,v} + β) / (n_k + Vβ)` of `word`: a hot word's
    /// stored column, or else the base vector with the word's non-zero
    /// weights scattered over it in `scratch`.
    fn weights<'a>(&'a self, word: usize, scratch: &'a mut [f64]) -> &'a [f64] {
        let col = self.columns[word];
        let start = col.start as usize;
        if col.len == HOT {
            let k = self.base.len();
            return &self.dense[start * k..(start + 1) * k];
        }
        scratch.copy_from_slice(&self.base);
        for &(topic, w) in &self.entries[start..start + col.len as usize] {
            scratch[topic as usize] = w;
        }
        scratch
    }

    /// One fold-in transition: draw a topic for a token of `word` from
    /// `p(k) ∝ (n_{d,k} + α) · (φ_{k,v} + β) / (n_k + Vβ)`, where
    /// `doc_counts` holds the document's counts without the token and `u` is
    /// a uniform draw in `[0, 1)`.  The prefix sums run in topic order and
    /// the search inverts them at `u · total`.
    fn draw(
        &self,
        word: usize,
        doc_counts: &[u32],
        u: f64,
        scratch: &mut [f64],
        prefix: &mut [f64],
    ) -> usize {
        let weights = self.weights(word, scratch);
        let mut total = 0.0;
        for ((p, &n), &w) in prefix.iter_mut().zip(doc_counts).zip(weights) {
            total += (n as f64 + self.alpha) * w;
            *p = total;
        }
        // `total_cmp` gives a total order over f64, so the search cannot
        // panic even if a corrupt weight slipped a NaN into the prefix sums
        // (`try_new` rejects those up front; this is the second line of
        // defence for the serving path).
        let target = u * total;
        match prefix.binary_search_by(|x| x.total_cmp(&target)) {
            Ok(idx) | Err(idx) => idx.min(prefix.len() - 1),
        }
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
        let tokens: Vec<usize> = words
            .iter()
            .filter(|&&w| (w as usize) < self.vocab_size())
            .map(|&w| w as usize)
            .collect();
        let mut doc_counts = vec![0u32; k];
        let mut accumulated = vec![0u32; k];
        if tokens.is_empty() {
            let mixture = vec![1.0 / k as f64; k];
            return DocumentTopics {
                counts: accumulated,
                mixture,
            };
        }

        // Random initial assignment.
        let mut z: Vec<usize> = tokens.iter().map(|_| rng.gen_range(0..k)).collect();
        for &t in &z {
            doc_counts[t] += 1;
        }

        let mut prefix = vec![0.0f64; k];
        let mut scratch = vec![0.0f64; k];
        for sweep in 0..options.sweeps {
            for (i, &v) in tokens.iter().enumerate() {
                doc_counts[z[i]] -= 1;
                let new = self.draw(v, &doc_counts, rng.gen(), &mut scratch, &mut prefix);
                z[i] = new;
                doc_counts[new] += 1;
            }
            if sweep >= options.burn_in {
                for (acc, &c) in accumulated.iter_mut().zip(&doc_counts) {
                    *acc += c;
                }
            }
        }

        // Average the counts over the kept sweeps, smooth with α, normalise.
        let kept_sweeps = (options.sweeps - options.burn_in) as f64;
        let denom = tokens.len() as f64 + k as f64 * self.alpha;
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
        assert_eq!(doc0.dominant_topic(), Some(0));
        assert_eq!(doc1.dominant_topic(), Some(1));
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
        assert_eq!(empty.dominant_topic(), Some(0));
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
        assert_eq!(results[0].dominant_topic(), Some(0));
        assert_eq!(results[1].dominant_topic(), Some(1));
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

    fn assert_same_reply(got: &DocumentTopics, want: &DocumentTopics) {
        let bits = |d: &DocumentTopics| d.mixture.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.counts, want.counts);
        assert_eq!(bits(got), bits(want));
    }

    #[test]
    fn replies_are_bit_identical_to_the_dense_topic_major_model() {
        let v = 40;
        let opts = InferenceOptions {
            sweeps: 8,
            burn_in: 2,
            seed: 99,
        };
        for (i, &k) in [1usize, 2, 8, 96, 512].iter().enumerate() {
            let (phi, nk) = random_counts(k, v, 11 + i as u64);
            let model = TopicInferencer::try_new(&phi, &nk, 0.1, 0.01).unwrap();
            let reference = DenseReference::try_new(&phi, &nk, 0.1, 0.01).unwrap();
            let hot = |w: usize| model.columns[w].len == HOT;
            // Word 1 sits one non-zero below the hot rule, word 2 on it.
            assert!(!hot(0) && !hot(1) && hot(2) && hot(3), "K = {k}");
            if k > 16 {
                // Word 5 is sparse with non-zeros at both ends of the column,
                // and word 1 is sparse with non-zeros of its own.
                assert!(!hot(5) && model.columns[5].len == 2);
                assert!(model.columns[1].len > 0);
            }

            let mut rng = ChaCha8Rng::seed_from_u64(k as u64);
            let oov = v as WordId;
            let mut docs: Vec<Vec<WordId>> = vec![
                vec![],
                vec![oov, oov + 7],
                vec![2, 2, 2, 3, 3, oov, 4, 4, 0],
                // Consecutive tokens of two sparse words with different
                // non-zeros: the scratch column must carry nothing over.
                vec![1, 5, 1, 5, 0, 5],
            ];
            docs.extend((0..6).map(|_| {
                let len = rng.gen_range(1..40);
                (0..len)
                    .map(|_| rng.gen_range(0..v as WordId + 3))
                    .collect()
            }));
            for doc in &docs {
                let got = model.try_infer_document(doc, opts).unwrap();
                let want = reference.infer(doc, opts, &mut ChaCha8Rng::seed_from_u64(opts.seed));
                assert_same_reply(&got, &want);
            }

            let mut b = CorpusBuilder::new(v);
            for doc in &docs {
                let in_vocab: Vec<WordId> =
                    doc.iter().copied().filter(|&w| (w as usize) < v).collect();
                b.push_doc(&in_vocab);
            }
            let corpus = b.build();
            let got = model.try_infer_corpus(&corpus, opts).unwrap();
            assert_eq!(got.len(), corpus.num_docs());
            for (d, reply) in got.iter().enumerate() {
                let want = reference.infer(corpus.doc(d), opts, &mut doc_rng(opts.seed, d));
                assert_same_reply(reply, &want);
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
        // non-zero weights is still a valid model, and replies still match.
        // (A base weight can never overflow where a non-zero weight stays
        // finite: division is monotone and c + β ≥ β.)
        let beta = 5e-324;
        let nk = vec![1_i64 << 52; 4];
        assert_eq!(same_error(&phi, &nk, 0.1, beta), None);
        let model = TopicInferencer::try_new(&phi, &nk, 0.1, beta).unwrap();
        assert!(model.base.iter().all(|&b| b == 0.0));
        let reference = DenseReference::try_new(&phi, &nk, 0.1, beta).unwrap();
        let opts = InferenceOptions::default();
        for doc in [vec![0, 1, 2, 1, 4, 0], vec![2, 4]] {
            let got = model.try_infer_document(&doc, opts).unwrap();
            let want = reference.infer(&doc, opts, &mut ChaCha8Rng::seed_from_u64(opts.seed));
            assert_same_reply(&got, &want);
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
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.base), bits(&want.base));
            assert_eq!(bits(&got.dense), bits(&want.dense));
            let cells = |m: &TopicInferencer| {
                let layout: Vec<(u32, u32)> = m.columns.iter().map(|c| (c.start, c.len)).collect();
                let entries: Vec<(u32, u64)> =
                    m.entries.iter().map(|&(t, w)| (t, w.to_bits())).collect();
                (layout, entries)
            };
            assert_eq!(cells(&got), cells(&want));
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

    #[test]
    fn frozen_model_memory_is_bounded_by_its_non_zeros() {
        let v = 60;
        for &k in &[1usize, 8, 96, 512] {
            let (phi, nk) = random_counts(k, v, 5);
            let model = TopicInferencer::try_new(&phi, &nk, 0.1, 0.01).unwrap();
            let nnz = phi.as_slice().iter().filter(|&&c| c != 0).count();
            let hot = model.dense.len() / k;
            let bound = 16 * nnz + 8 * k * (hot + 1) + 8 * (v + 1);
            assert!(
                model.heap_bytes() <= bound,
                "K = {k}: {} > {bound}",
                model.heap_bytes()
            );
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

    #[test]
    fn each_draw_follows_the_exact_fold_in_conditional() {
        const DRAWS: usize = 200_000;
        let (k, v) = (24usize, 5usize);
        let (alpha, beta) = (0.1, 0.05);
        let mut phi = DenseMatrix::zeros(k, v);
        // Word 0 is hot (a non-zero in every other topic), word 1 sparse
        // (two non-zeros); words 2–4 carry the rest of each topic's mass.
        for t in (0..k).step_by(2) {
            phi.set(t, 0, 1 + (t as u32 * 7) % 13);
        }
        phi.set(3, 1, 9);
        phi.set(17, 1, 2);
        for t in 0..k {
            phi.set(t, 2 + t % 3, 20 + t as u32);
        }
        let nk = topic_totals(&phi);
        let model = TopicInferencer::try_new(&phi, &nk, alpha, beta).unwrap();
        assert_eq!(model.columns[0].len, HOT);
        assert_eq!(model.columns[1].len, 2);
        // The document's counts without the token; four topics are empty,
        // so the draw law depends on α.
        let doc_counts: Vec<u32> = (0..k as u32).map(|t| (t * 5) % 7).collect();
        let (mut scratch, mut prefix) = (vec![0.0; k], vec![0.0; k]);
        for (word, seed) in [(0usize, 21u64), (1, 22)] {
            let exact: Vec<f64> = (0..k)
                .map(|t| {
                    (doc_counts[t] as f64 + alpha) * (phi.get(t, word) as f64 + beta)
                        / (nk[t] as f64 + v as f64 * beta)
                })
                .collect();
            let norm: f64 = exact.iter().sum();
            let probs: Vec<f64> = exact.iter().map(|p| p / norm).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut hist = vec![0u64; k];
            for _ in 0..DRAWS {
                hist[model.draw(word, &doc_counts, rng.gen(), &mut scratch, &mut prefix)] += 1;
            }
            let p = chi_square_p_value(&hist, &probs);
            assert!(p > 1e-4, "word {word}: p = {p:e}, counts {hist:?}");
        }
    }
}
