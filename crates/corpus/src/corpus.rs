//! The in-memory corpus representation.
//!
//! A corpus is a collection of `D` documents over a vocabulary of `V` words;
//! each document is a sequence of tokens, each token an occurrence of one
//! word (§2.1).  Tokens are stored flattened in document-major order with a
//! CSR-style document pointer array, which keeps the representation compact
//! (8 bytes amortised per token) and makes token-balanced partitioning a
//! prefix-sum problem.

use serde::{Deserialize, Serialize};

/// Index of a document within a corpus.
pub type DocId = u32;
/// Index of a word within the vocabulary.
pub type WordId = u32;

/// An immutable tokenised corpus.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Corpus {
    vocab_size: usize,
    /// `doc_ptr[d]..doc_ptr[d+1]` is the token range of document `d`.
    doc_ptr: Vec<u64>,
    /// Word id of every token, flattened in document order.
    tokens: Vec<WordId>,
}

impl Corpus {
    /// Number of documents `D`.
    #[inline]
    pub fn num_docs(&self) -> usize {
        self.doc_ptr.len() - 1
    }

    /// Vocabulary size `V`.
    #[inline]
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Total number of tokens `T`.
    #[inline]
    pub fn num_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Length (token count) of document `d`.
    #[inline]
    pub fn doc_len(&self, d: usize) -> usize {
        (self.doc_ptr[d + 1] - self.doc_ptr[d]) as usize
    }

    /// The tokens (word ids) of document `d`.
    #[inline]
    pub fn doc(&self, d: usize) -> &[WordId] {
        &self.tokens[self.doc_ptr[d] as usize..self.doc_ptr[d + 1] as usize]
    }

    /// The document pointer array (`D + 1` entries).
    #[inline]
    pub fn doc_ptr(&self) -> &[u64] {
        &self.doc_ptr
    }

    /// All tokens flattened in document order.
    #[inline]
    pub fn tokens(&self) -> &[WordId] {
        &self.tokens
    }

    /// Average document length (`T / D`); 0.0 for an empty corpus.
    pub fn avg_doc_len(&self) -> f64 {
        if self.num_docs() == 0 {
            0.0
        } else {
            self.num_tokens() as f64 / self.num_docs() as f64
        }
    }

    /// Length of the longest document.
    pub fn max_doc_len(&self) -> usize {
        (0..self.num_docs())
            .map(|d| self.doc_len(d))
            .max()
            .unwrap_or(0)
    }

    /// Per-word token counts (the empirical word-frequency distribution).
    pub fn word_frequencies(&self) -> Vec<u64> {
        let mut freq = vec![0u64; self.vocab_size];
        for &w in &self.tokens {
            freq[w as usize] += 1;
        }
        freq
    }

    /// Number of distinct words that actually occur at least once.
    pub fn words_in_use(&self) -> usize {
        self.word_frequencies().iter().filter(|&&f| f > 0).count()
    }

    /// Estimated bytes of the device-resident corpus chunk representation
    /// (token word ids as u32 + topic assignments as u16 + doc map as u32).
    pub fn device_bytes_estimate(&self) -> u64 {
        self.num_tokens() as u64 * (4 + 2 + 4) + self.doc_ptr.len() as u64 * 8
    }

    /// Check structural invariants (monotone doc_ptr, word ids in range).
    pub fn validate(&self) -> Result<(), String> {
        if self.doc_ptr.is_empty() || self.doc_ptr[0] != 0 {
            return Err("doc_ptr must start with 0".into());
        }
        if *self.doc_ptr.last().unwrap() as usize != self.tokens.len() {
            return Err("doc_ptr end does not match token count".into());
        }
        if self.doc_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err("doc_ptr is not monotone".into());
        }
        if let Some(&w) = self.tokens.iter().find(|&&w| w as usize >= self.vocab_size) {
            return Err(format!("word id {w} out of range (V={})", self.vocab_size));
        }
        Ok(())
    }
}

/// Builder assembling a [`Corpus`] one document at a time.
#[derive(Debug, Clone)]
pub struct CorpusBuilder {
    vocab_size: usize,
    doc_ptr: Vec<u64>,
    tokens: Vec<WordId>,
}

impl CorpusBuilder {
    /// Start a corpus over a vocabulary of `vocab_size` words.
    pub fn new(vocab_size: usize) -> Self {
        CorpusBuilder {
            vocab_size,
            doc_ptr: vec![0],
            tokens: Vec::new(),
        }
    }

    /// Pre-allocate space for an expected number of tokens.
    pub fn reserve_tokens(&mut self, tokens: usize) {
        self.tokens.reserve(tokens);
    }

    /// Append a document given its token word ids.
    ///
    /// # Panics
    /// Panics (in debug builds) if any word id is out of range.
    pub fn push_doc(&mut self, words: &[WordId]) -> DocId {
        debug_assert!(
            words.iter().all(|&w| (w as usize) < self.vocab_size),
            "word id out of vocabulary range"
        );
        self.tokens.extend_from_slice(words);
        self.doc_ptr.push(self.tokens.len() as u64);
        (self.doc_ptr.len() - 2) as DocId
    }

    /// Append a document given bag-of-words `(word, count)` pairs, expanding
    /// each pair into `count` tokens (this is how UCI corpora are stored).
    pub fn push_doc_bow(&mut self, pairs: &[(WordId, u32)]) -> DocId {
        for &(w, c) in pairs {
            debug_assert!((w as usize) < self.vocab_size);
            for _ in 0..c {
                self.tokens.push(w);
            }
        }
        self.doc_ptr.push(self.tokens.len() as u64);
        (self.doc_ptr.len() - 2) as DocId
    }

    /// Number of documents pushed so far.
    pub fn num_docs(&self) -> usize {
        self.doc_ptr.len() - 1
    }

    /// Number of tokens pushed so far.
    pub fn num_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Finish building the corpus.
    pub fn build(self) -> Corpus {
        let c = Corpus {
            vocab_size: self.vocab_size,
            doc_ptr: self.doc_ptr,
            tokens: self.tokens,
        };
        debug_assert!(c.validate().is_ok());
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Corpus {
        let mut b = CorpusBuilder::new(6);
        b.push_doc(&[0, 1, 1, 3]);
        b.push_doc(&[]);
        b.push_doc(&[5, 5, 2]);
        b.build()
    }

    #[test]
    fn basic_shape() {
        let c = small();
        assert_eq!(c.num_docs(), 3);
        assert_eq!(c.num_tokens(), 7);
        assert_eq!(c.vocab_size(), 6);
        assert_eq!(c.doc_len(0), 4);
        assert_eq!(c.doc_len(1), 0);
        assert_eq!(c.doc(2), &[5, 5, 2]);
        c.validate().unwrap();
    }

    #[test]
    fn word_frequencies_count_tokens() {
        let c = small();
        assert_eq!(c.word_frequencies(), vec![1, 2, 1, 1, 0, 2]);
        assert_eq!(c.words_in_use(), 5);
    }

    #[test]
    fn avg_and_max_doc_len() {
        let c = small();
        assert!((c.avg_doc_len() - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.max_doc_len(), 4);
    }

    #[test]
    fn bow_expansion_matches_explicit_tokens() {
        let mut a = CorpusBuilder::new(4);
        a.push_doc_bow(&[(1, 2), (3, 1)]);
        let mut b = CorpusBuilder::new(4);
        b.push_doc(&[1, 1, 3]);
        assert_eq!(a.build(), b.build());
    }

    #[test]
    fn empty_corpus_is_valid() {
        let c = CorpusBuilder::new(10).build();
        c.validate().unwrap();
        assert_eq!(c.num_docs(), 0);
        assert_eq!(c.avg_doc_len(), 0.0);
        assert_eq!(c.max_doc_len(), 0);
    }

    #[test]
    fn builder_counts_match_built_corpus() {
        let mut b = CorpusBuilder::new(3);
        b.reserve_tokens(16);
        b.push_doc(&[0, 1, 2]);
        b.push_doc(&[2]);
        assert_eq!(b.num_docs(), 2);
        assert_eq!(b.num_tokens(), 4);
        let c = b.build();
        assert_eq!(c.num_docs(), 2);
        assert_eq!(c.num_tokens(), 4);
    }
}
