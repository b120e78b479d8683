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
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

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

/// Fewest tokens one part of a chunk's parallel passes covers: a chunk
/// under twice this runs each pass as one serial loop.
const MIN_PART_TOKENS: usize = 1 << 15;

/// Split the items of the prefix array `offsets` (item `i` holds
/// `offsets[i]..offsets[i + 1]` tokens) into contiguous ranges of about
/// equal token counts, one per thread of the next parallel region and at
/// least [`MIN_PART_TOKENS`] each; one range inside a parallel region.
/// Every pass that splits a chunk this way gives the same result for any
/// split, so the thread count shapes only the schedule.
fn token_parts(offsets: &[u32]) -> Vec<Range<usize>> {
    let items = offsets.len() - 1;
    let tokens = offsets[items] as usize;
    let parts = rayon::current_num_threads()
        .min(tokens / MIN_PART_TOKENS)
        .max(1);
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 1..=parts {
        let end = if p == parts {
            items
        } else {
            let target = (tokens * p / parts) as u32;
            offsets.partition_point(|&t| t < target).clamp(start, items)
        };
        ranges.push(start..end);
        start = end;
    }
    ranges
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
    /// Index of each token within its document (original corpus token
    /// order), in word-major order: the inverse of the document–word map.
    /// `(global document id, slot)` is a partition-independent identity for
    /// a token, which is what keys the counter-based sampling RNG so that
    /// training is bit-reproducible across GPU topologies.
    pub token_slot: Vec<u32>,
    /// Local per-document token offsets (`local_docs + 1` entries).
    pub doc_ptr: Vec<u32>,
    /// For each local document, the word-major positions of its tokens.
    pub doc_token_pos: Vec<u32>,
}

impl ChunkLayout {
    /// Build the layout for the documents in `range`: a counting sort of
    /// the chunk's tokens by word, run over contiguous parts of its
    /// documents on the pool.
    ///
    /// Each part counts its own word histogram.  The cursor of word `w` in
    /// part `p` starts at `word_ptr[w]` plus the counts of `w` in the parts
    /// before `p`, so within a word the tokens keep document order and the
    /// layout is the same for any number of parts.  The scatter writes
    /// `doc_token_pos` into the part's own document-major slice and
    /// `token_doc` and `token_slot` at the word-major positions it claims
    /// (each position once, through relaxed atomics).
    pub fn build(corpus: &Corpus, range: DocRange) -> Self {
        let vocab_size = corpus.vocab_size();
        let first = corpus.doc_ptr()[range.start];
        let doc_ptr: Vec<u32> = corpus.doc_ptr()[range.start..=range.end]
            .iter()
            .map(|&p| (p - first) as u32)
            .collect();
        let num_tokens = doc_ptr[range.len()] as usize;
        let parts = token_parts(&doc_ptr);
        let words_of = |d: usize| corpus.doc(range.start + d);

        // Pass 1: each part counts its tokens per word.
        let mut cursors = vec![0u32; parts.len() * vocab_size];
        cursors
            .par_chunks_mut(vocab_size.max(1))
            .zip(parts.par_iter())
            .for_each(|(counts, docs)| {
                for d in docs.clone() {
                    for &w in words_of(d) {
                        counts[w as usize] += 1;
                    }
                }
            });

        // Exclusive scan over (word, part) → word_ptr, and each part's
        // counts become its cursors.
        let mut word_ptr = Vec::with_capacity(vocab_size + 1);
        let mut acc = 0u32;
        word_ptr.push(0);
        for w in 0..vocab_size {
            for part in cursors.chunks_exact_mut(vocab_size) {
                let count = std::mem::replace(&mut part[w], acc);
                acc += count;
            }
            word_ptr.push(acc);
        }
        debug_assert_eq!(acc as usize, num_tokens);

        // Pass 2: scatter tokens into word-major order, remembering where
        // each document's tokens landed (the document–word map).  The
        // zeroed word-major arrays become atomics in place, untouched until
        // the scatter writes them.
        let atomic =
            |v: Vec<u32>| -> Vec<AtomicU32> { v.into_iter().map(AtomicU32::new).collect() };
        let token_doc = atomic(vec![0; num_tokens]);
        let token_slot = atomic(vec![0; num_tokens]);
        let mut doc_token_pos = vec![0u32; num_tokens];
        let mut part_positions = Vec::with_capacity(parts.len());
        let mut rest = doc_token_pos.as_mut_slice();
        for docs in &parts {
            let len = (doc_ptr[docs.end] - doc_ptr[docs.start]) as usize;
            let (head, tail) = rest.split_at_mut(len);
            part_positions.push(head);
            rest = tail;
        }
        part_positions
            .par_iter_mut()
            .zip(cursors.par_chunks_mut(vocab_size.max(1)))
            .zip(parts.par_iter())
            .for_each(|((positions, cursor), docs)| {
                let mut out = positions.iter_mut();
                for d in docs.clone() {
                    for (&w, doc_pos) in words_of(d).iter().zip(out.by_ref()) {
                        let pos = cursor[w as usize];
                        cursor[w as usize] += 1;
                        token_doc[pos as usize].store(d as u32, Ordering::Relaxed);
                        *doc_pos = pos;
                    }
                }
                // The slots in a second walk over the part's positions: one
                // scattered write stream per walk is faster than two.
                let mut positions = &positions[..];
                for d in docs.clone() {
                    let (doc, rest) = positions.split_at(words_of(d).len());
                    for (slot, &pos) in doc.iter().enumerate() {
                        token_slot[pos as usize].store(slot as u32, Ordering::Relaxed);
                    }
                    positions = rest;
                }
            });

        let plain =
            |v: Vec<AtomicU32>| -> Vec<u32> { v.into_iter().map(AtomicU32::into_inner).collect() };
        ChunkLayout {
            range,
            vocab_size,
            word_ptr,
            token_doc: plain(token_doc),
            token_slot: plain(token_slot),
            doc_ptr,
            doc_token_pos,
        }
    }

    /// Contiguous local document ranges of about equal token counts that
    /// split a per-document pass over the pool (one range when the chunk is
    /// small or the caller already runs inside a parallel region).
    pub fn doc_parts(&self) -> Vec<Range<usize>> {
        token_parts(&self.doc_ptr)
    }

    /// Contiguous word ranges of about equal token counts that split a
    /// per-word pass over the pool, as [`ChunkLayout::doc_parts`] does
    /// documents.
    pub fn word_parts(&self) -> Vec<Range<usize>> {
        token_parts(&self.word_ptr)
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
        if self.doc_token_pos.len() != self.token_doc.len()
            || self.token_slot.len() != self.token_doc.len()
        {
            return Err("doc_token_pos or token_slot length mismatch".into());
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
        // token_doc and token_slot of each doc position must name the
        // owning doc and the token's index in it.
        for d in 0..self.num_docs() {
            for (slot, &p) in self.doc_positions(d).iter().enumerate() {
                if self.token_doc[p as usize] as usize != d {
                    return Err(format!("token at {p} does not belong to doc {d}"));
                }
                if self.token_slot[p as usize] as usize != slot {
                    return Err(format!("token at {p} is not slot {slot} of doc {d}"));
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
    fn layout_is_the_same_for_any_number_of_parts() {
        // Enough tokens for eight parts of `MIN_PART_TOKENS`.
        let corpus = DatasetProfile::nytimes()
            .scaled_to_tokens(300_000)
            .generate(2);
        let range = DocRange {
            start: 3,
            end: corpus.num_docs() - 5,
        };
        let pool = |n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        };
        let serial = pool(1).install(|| ChunkLayout::build(&corpus, range));
        serial.validate().unwrap();
        assert_eq!(pool(1).install(|| serial.doc_parts()).len(), 1);
        for n in [2, 3, 8] {
            let parts = pool(n).install(|| serial.doc_parts());
            assert_eq!(parts.len(), n, "{n} threads");
            assert_eq!(parts.first().unwrap().start, 0);
            assert_eq!(parts.last().unwrap().end, serial.num_docs());
            assert!(parts.windows(2).all(|w| w[0].end == w[1].start));
            let layout = pool(n).install(|| ChunkLayout::build(&corpus, range));
            assert!(layout == serial, "layout differs at {n} threads");
        }
    }

    #[test]
    fn empty_chunk_layout_is_valid() {
        let c = small_corpus();
        let layout = ChunkLayout::build(&c, DocRange { start: 2, end: 2 });
        layout.validate().unwrap();
        assert_eq!(layout.num_tokens(), 0);
        assert_eq!(layout.num_docs(), 0);
        assert!(layout.word_ptr.iter().all(|&p| p == 0));
    }
}
