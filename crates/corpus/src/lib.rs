//! # culda-corpus
//!
//! Corpus representation, dataset generators and workload partitioning for
//! the CuLDA_CGS reproduction.
//!
//! The paper evaluates on two UCI bag-of-words corpora, NYTimes and PubMed
//! (Table 3).  Those corpora are not redistributable with this repository, so
//! this crate provides:
//!
//! * [`Corpus`] — the in-memory token representation (documents are slices of
//!   word ids, exactly the "collection of documents, each a group of tokens"
//!   of §2.1);
//! * [`bow`] — a reader/writer for the UCI `docword.txt` bag-of-words format
//!   so the real corpora can be dropped in when available;
//! * [`synthetic`] — synthetic corpus generators whose statistics (document
//!   count, vocabulary size, average document length, Zipfian word skew)
//!   match the published Table 3 numbers at configurable scale;
//! * [`partition`] — the partition-by-document, token-balanced chunking of
//!   §5.1 together with the word-major layout and the document–word map the
//!   GPU kernels consume (§6.1.2, §6.2);
//! * [`stats`] — corpus statistics used to print Table 3;
//! * [`stream`] — the [`Document`] a streaming session ingests (the session
//!   itself keeps its live documents);
//! * [`text`] — raw-text ingestion (tokenisation, stop words, frequency
//!   pruning) producing a [`Corpus`] + [`Vocabulary`] pair;
//! * [`holdout`] — train/test splits (document-level and document-completion)
//!   for held-out evaluation;
//! * [`snapshot`] — versioned binary corpus snapshots so preprocessing is
//!   done once and reloaded per run.

#![warn(missing_docs)]

pub mod bow;
pub mod corpus;
pub mod holdout;
pub mod partition;
pub mod snapshot;
pub mod stats;
pub mod stream;
pub mod synthetic;
pub mod text;
pub mod vocab;

pub use corpus::{Corpus, CorpusBuilder, DocId, WordId};
pub use holdout::{split_documents, DocumentCompletion, DocumentSplit};
pub use partition::{ChunkLayout, Partitioner};
pub use snapshot::{load_corpus, save_corpus, SnapshotError};
pub use stats::CorpusStats;
pub use stream::Document;
pub use synthetic::{DatasetProfile, LdaGenerator, SyntheticCorpus};
pub use text::{TextPipeline, Tokenizer, TokenizerOptions};
pub use vocab::Vocabulary;
