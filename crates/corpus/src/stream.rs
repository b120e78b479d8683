//! Documents for streaming/online training.
//!
//! Batch training consumes an immutable [`Corpus`](crate::Corpus); the
//! streaming session in `culda-core` instead grows (and shrinks) its corpus
//! while a model is live.  [`Document`] is one not-yet-ingested document (a
//! sequence of word ids) handed to it.  The session gives each ingested
//! document a **stable uid** (a monotone 64-bit identity, never reused) and
//! keys its counter-based RNG streams by it, which is why ingestion
//! batching cannot change sampled assignments (see `DESIGN.md` §9).

use crate::corpus::WordId;
use serde::{Deserialize, Serialize};

/// A single document handed to a streaming session for ingestion.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Document {
    /// The token word ids, in original document order.
    pub words: Vec<WordId>,
}

impl Document {
    /// A document over the given word ids.
    pub fn new(words: impl Into<Vec<WordId>>) -> Self {
        Document {
            words: words.into(),
        }
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the document holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

impl From<Vec<WordId>> for Document {
    fn from(words: Vec<WordId>) -> Self {
        Document { words }
    }
}

impl From<&[WordId]> for Document {
    fn from(words: &[WordId]) -> Self {
        Document {
            words: words.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_conversions() {
        let d = Document::new(vec![1u32, 2, 3]);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        let from_slice: Document = [4u32, 5].as_slice().into();
        assert_eq!(from_slice.words, vec![4, 5]);
        let from_vec: Document = vec![7u32].into();
        assert_eq!(from_vec.words, vec![7]);
        assert!(Document::new(Vec::new()).is_empty());
    }
}
