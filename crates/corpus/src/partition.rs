//! Workload partitioning and chunk layouts (§4, §5.1, §6.1.2, §6.2).
//!
//! CuLDA_CGS partitions the corpus **by document** into `C = M × G` chunks
//! that are balanced *by token count* ("the corpus is evenly partitioned by
//! number of tokens, instead of number of documents", §4).  Each chunk is then
//! preprocessed on the CPU into the layout the GPU kernels consume:
//!
//! * a **word-major** token ordering, so every thread block samples tokens of
//!   a single word and can share the p2 index tree and the p*(k) array in
//!   shared memory (§6.1.2);
//! * a **document–word map** — for every document, the positions of its
//!   tokens inside the word-major arrays — which the update-θ kernel uses to
//!   rebuild θ rows (§6.2, "the map is generated on CPU's side at the data
//!   preprocessing stage").

use crate::corpus::Corpus;
use culda_sparse::prefix::parallel_offsets_u64;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A contiguous range of documents assigned to one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DocRange {
    /// First (global) document index in the chunk.
    pub start: usize,
    /// One past the last (global) document index.
    pub end: usize,
}

impl DocRange {
    /// Number of documents in the range.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the range holds no documents.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Token-balanced, partition-by-document chunking of a corpus.
#[derive(Debug, Clone)]
pub struct Partitioner {
    ranges: Vec<DocRange>,
    tokens_per_chunk: Vec<u64>,
}

impl Partitioner {
    /// Split `corpus` into `num_chunks` contiguous document ranges whose token
    /// counts are as balanced as possible.
    ///
    /// # Panics
    /// Panics if `num_chunks == 0`.
    pub fn by_tokens(corpus: &Corpus, num_chunks: usize) -> Self {
        assert!(num_chunks > 0, "must request at least one chunk");
        let d = corpus.num_docs();
        let doc_lens: Vec<u64> = (0..d).map(|i| corpus.doc_len(i) as u64).collect();
        let offsets = parallel_offsets_u64(&doc_lens);
        let total = *offsets.last().unwrap();

        let mut ranges = Vec::with_capacity(num_chunks);
        let mut tokens_per_chunk = Vec::with_capacity(num_chunks);
        let mut start = 0usize;
        for c in 0..num_chunks {
            // Ideal cumulative token count at the end of chunk c.
            let target = total * (c as u64 + 1) / num_chunks as u64;
            // First document index whose cumulative count reaches the target.
            let end = if c + 1 == num_chunks {
                d
            } else {
                let mut e = offsets.partition_point(|&t| t < target);
                e = e.clamp(start, d);
                // Never produce an empty chunk while documents remain.
                if e == start && start < d {
                    e = start + 1;
                }
                e.min(d)
            };
            ranges.push(DocRange { start, end });
            tokens_per_chunk.push(offsets[end] - offsets[start]);
            start = end;
        }
        Partitioner {
            ranges,
            tokens_per_chunk,
        }
    }

    /// The document ranges, one per chunk.
    pub fn ranges(&self) -> &[DocRange] {
        &self.ranges
    }

    /// Tokens assigned to each chunk.
    pub fn tokens_per_chunk(&self) -> &[u64] {
        &self.tokens_per_chunk
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.ranges.len()
    }

    /// Load-imbalance factor: max chunk tokens / mean chunk tokens (1.0 is
    /// perfect balance).  Reported by the scheduling diagnostics.
    pub fn imbalance(&self) -> f64 {
        let max = *self.tokens_per_chunk.iter().max().unwrap_or(&0) as f64;
        let sum: u64 = self.tokens_per_chunk.iter().sum();
        if sum == 0 {
            return 1.0;
        }
        let mean = sum as f64 / self.num_chunks() as f64;
        max / mean
    }

    /// Build the GPU-side layout of every chunk (in parallel across OS
    /// threads — preprocessing is a CPU responsibility in the paper's
    /// system, Figure 3).  Each layout is a pure function of `(corpus,
    /// range)`, so the build order cannot affect the result.
    pub fn build_layouts(&self, corpus: &Corpus) -> Vec<ChunkLayout> {
        self.ranges
            .par_iter()
            .map(|&range| ChunkLayout::build(corpus, range))
            .collect()
    }
}

/// The device-side layout of one corpus chunk.
///
/// Token arrays are stored in **word-major** order: all tokens of word 0
/// first, then word 1, and so on.  `word_ptr` delimits each word's slice.
/// `doc_token_pos` groups, per local document, the word-major positions of
/// that document's tokens (the "document–word map" of §6.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkLayout {
    /// Global document range this chunk covers.
    pub range: DocRange,
    /// Vocabulary size (shared by all chunks).
    pub vocab_size: usize,
    /// `word_ptr[v]..word_ptr[v+1]` is the token slice of word `v`.
    pub word_ptr: Vec<u32>,
    /// Local document index of each token, in word-major order.
    pub token_doc: Vec<u32>,
    /// Local per-document token offsets (`local_docs + 1` entries).
    pub doc_ptr: Vec<u32>,
    /// For each local document, the word-major positions of its tokens.
    pub doc_token_pos: Vec<u32>,
}

impl ChunkLayout {
    /// Build the layout for the documents in `range`.
    pub fn build(corpus: &Corpus, range: DocRange) -> Self {
        let vocab_size = corpus.vocab_size();
        let local_docs = range.len();

        // Pass 1: count tokens per word within the chunk.
        let mut word_counts = vec![0u32; vocab_size];
        let mut num_tokens = 0usize;
        for d in range.start..range.end {
            for &w in corpus.doc(d) {
                word_counts[w as usize] += 1;
                num_tokens += 1;
            }
        }

        // Exclusive scan → word_ptr.
        let mut word_ptr = Vec::with_capacity(vocab_size + 1);
        let mut acc = 0u32;
        word_ptr.push(0);
        for &c in &word_counts {
            acc += c;
            word_ptr.push(acc);
        }
        debug_assert_eq!(acc as usize, num_tokens);

        // Pass 2: scatter tokens into word-major order, remembering where each
        // document's tokens landed (the document–word map).
        let mut cursor: Vec<u32> = word_ptr[..vocab_size].to_vec();
        let mut token_doc = vec![0u32; num_tokens];
        let mut doc_ptr = Vec::with_capacity(local_docs + 1);
        let mut doc_token_pos = Vec::with_capacity(num_tokens);
        doc_ptr.push(0);
        for (local_d, d) in (range.start..range.end).enumerate() {
            for &w in corpus.doc(d) {
                let pos = cursor[w as usize];
                cursor[w as usize] += 1;
                token_doc[pos as usize] = local_d as u32;
                doc_token_pos.push(pos);
            }
            doc_ptr.push(doc_token_pos.len() as u32);
        }

        ChunkLayout {
            range,
            vocab_size,
            word_ptr,
            token_doc,
            doc_ptr,
            doc_token_pos,
        }
    }

    /// Number of tokens in the chunk.
    #[inline]
    pub fn num_tokens(&self) -> usize {
        self.token_doc.len()
    }

    /// Number of (local) documents in the chunk.
    #[inline]
    pub fn num_docs(&self) -> usize {
        self.doc_ptr.len() - 1
    }

    /// Number of tokens of word `v` present in the chunk.
    #[inline]
    pub fn word_token_count(&self, v: usize) -> usize {
        (self.word_ptr[v + 1] - self.word_ptr[v]) as usize
    }

    /// The word-major token positions `[start, end)` of word `v`.
    #[inline]
    pub fn word_token_range(&self, v: usize) -> (usize, usize) {
        (self.word_ptr[v] as usize, self.word_ptr[v + 1] as usize)
    }

    /// Local token length of local document `d`.
    #[inline]
    pub fn doc_len(&self, d: usize) -> usize {
        (self.doc_ptr[d + 1] - self.doc_ptr[d]) as usize
    }

    /// Word-major positions of local document `d`'s tokens.
    #[inline]
    pub fn doc_positions(&self, d: usize) -> &[u32] {
        &self.doc_token_pos[self.doc_ptr[d] as usize..self.doc_ptr[d + 1] as usize]
    }

    /// The inverse of the document–word map: for every word-major position,
    /// the token's index within its *document* (original corpus token
    /// order).  `(global document id, slot)` is a partition-independent
    /// identity for a token, which is what keys the counter-based sampling
    /// RNG so that training is bit-reproducible across GPU topologies.
    pub fn token_slots(&self) -> Vec<u32> {
        let mut slots = vec![0u32; self.num_tokens()];
        for d in 0..self.num_docs() {
            for (t, &pos) in self.doc_positions(d).iter().enumerate() {
                slots[pos as usize] = t as u32;
            }
        }
        slots
    }

    /// Distinct words that actually occur in this chunk.
    pub fn words_present(&self) -> usize {
        (0..self.vocab_size)
            .filter(|&v| self.word_token_count(v) > 0)
            .count()
    }

    /// Bytes of device memory this chunk layout occupies
    /// (word_ptr + token_doc + doc_ptr + doc_token_pos as u32, plus 2 bytes
    /// per token for the compressed topic assignment array that lives next to
    /// it on the device).
    pub fn device_bytes(&self) -> u64 {
        (self.word_ptr.len() * 4
            + self.token_doc.len() * 4
            + self.doc_ptr.len() * 4
            + self.doc_token_pos.len() * 4
            + self.num_tokens() * 2) as u64
    }

    /// Validate internal consistency (used by property tests).
    pub fn validate(&self) -> Result<(), String> {
        if self.word_ptr.len() != self.vocab_size + 1 {
            return Err("word_ptr length mismatch".into());
        }
        if *self.word_ptr.last().unwrap() as usize != self.token_doc.len() {
            return Err("word_ptr end does not match token count".into());
        }
        if self.doc_ptr.len() != self.range.len() + 1 {
            return Err("doc_ptr length mismatch".into());
        }
        if self.doc_token_pos.len() != self.token_doc.len() {
            return Err("doc_token_pos length mismatch".into());
        }
        // Every word-major position must be referenced exactly once.
        let mut seen = vec![false; self.num_tokens()];
        for &p in &self.doc_token_pos {
            let p = p as usize;
            if p >= seen.len() || seen[p] {
                return Err(format!("position {p} referenced twice or out of range"));
            }
            seen[p] = true;
        }
        // token_doc of each doc position must equal the owning doc.
        for d in 0..self.num_docs() {
            for &p in self.doc_positions(d) {
                if self.token_doc[p as usize] as usize != d {
                    return Err(format!("token at {p} does not belong to doc {d}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;
    use crate::synthetic::DatasetProfile;

    fn small_corpus() -> Corpus {
        let mut b = CorpusBuilder::new(5);
        b.push_doc(&[0, 1, 1, 4]); // doc 0
        b.push_doc(&[2, 2]); // doc 1
        b.push_doc(&[4, 0, 3]); // doc 2
        b.push_doc(&[1]); // doc 3
        b.build()
    }

    #[test]
    fn partition_covers_all_documents_in_order() {
        let c = small_corpus();
        let p = Partitioner::by_tokens(&c, 2);
        let r = p.ranges();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].start, 0);
        assert_eq!(r.last().unwrap().end, c.num_docs());
        for w in r.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        let total: u64 = p.tokens_per_chunk().iter().sum();
        assert_eq!(total, c.num_tokens() as u64);
    }

    #[test]
    fn partition_single_chunk_is_whole_corpus() {
        let c = small_corpus();
        let p = Partitioner::by_tokens(&c, 1);
        assert_eq!(p.ranges(), &[DocRange { start: 0, end: 4 }]);
        assert_eq!(p.imbalance(), 1.0);
    }

    #[test]
    fn partition_is_token_balanced_on_realistic_corpus() {
        let corpus = DatasetProfile::nytimes().scaled(0.002).generate(5);
        for &chunks in &[2usize, 4, 8] {
            let p = Partitioner::by_tokens(&corpus, chunks);
            assert!(
                p.imbalance() < 1.10,
                "imbalance {} for {} chunks",
                p.imbalance(),
                chunks
            );
        }
    }

    #[test]
    fn partition_handles_more_chunks_than_documents() {
        let mut b = CorpusBuilder::new(3);
        b.push_doc(&[0]);
        b.push_doc(&[1]);
        let c = b.build();
        let p = Partitioner::by_tokens(&c, 5);
        assert_eq!(p.num_chunks(), 5);
        let total: u64 = p.tokens_per_chunk().iter().sum();
        assert_eq!(total, 2);
        assert_eq!(p.ranges().last().unwrap().end, 2);
    }

    #[test]
    fn chunk_layout_is_word_major() {
        let c = small_corpus();
        let layout = ChunkLayout::build(&c, DocRange { start: 0, end: 4 });
        layout.validate().unwrap();
        assert_eq!(layout.num_tokens(), 10);
        assert_eq!(layout.num_docs(), 4);
        // Word 1 occurs 3 times (docs 0, 0, 3).
        assert_eq!(layout.word_token_count(1), 3);
        let (s, e) = layout.word_token_range(1);
        let docs: Vec<u32> = layout.token_doc[s..e].to_vec();
        assert_eq!(docs, vec![0, 0, 3]);
    }

    #[test]
    fn doc_word_map_points_back_to_owning_documents() {
        let c = small_corpus();
        let layout = ChunkLayout::build(&c, DocRange { start: 1, end: 3 });
        layout.validate().unwrap();
        assert_eq!(layout.num_docs(), 2);
        assert_eq!(layout.num_tokens(), 5);
        assert_eq!(layout.doc_len(0), 2); // global doc 1
        assert_eq!(layout.doc_len(1), 3); // global doc 2
    }

    #[test]
    fn layouts_of_all_chunks_cover_corpus() {
        let corpus = DatasetProfile::pubmed().scaled(0.00002).generate(9);
        let p = Partitioner::by_tokens(&corpus, 4);
        let layouts = p.build_layouts(&corpus);
        assert_eq!(layouts.len(), 4);
        let tokens: usize = layouts.iter().map(|l| l.num_tokens()).sum();
        assert_eq!(tokens, corpus.num_tokens());
        for l in &layouts {
            l.validate().unwrap();
        }
    }

    #[test]
    fn empty_chunk_layout_is_valid() {
        let c = small_corpus();
        let layout = ChunkLayout::build(&c, DocRange { start: 2, end: 2 });
        layout.validate().unwrap();
        assert_eq!(layout.num_tokens(), 0);
        assert_eq!(layout.num_docs(), 0);
        assert_eq!(layout.words_present(), 0);
    }
}
