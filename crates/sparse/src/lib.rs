//! # culda-sparse
//!
//! Sparse and dense matrix primitives used throughout the CuLDA_CGS
//! reproduction, together with the sampling data structures the paper's GPU
//! kernels rely on:
//!
//! * [`csr::CsrMatrix`] — compressed sparse row storage for the
//!   document–topic matrix θ (16-bit column indices, §6.1.3 of the paper).
//! * [`dense::DenseMatrix`] / [`dense::AtomicMatrix`] — dense storage for the
//!   topic–word matrix φ, with an atomic variant used by the update-φ kernel.
//! * [`prefix`] — the parallel offsets of the corpus partition (§5.1) and
//!   the prefix-sum search of multinomial sampling (§6.1.1).
//! * [`index_tree::IndexTree`] — the N-ary (32-way on NVIDIA GPUs) index tree
//!   over prefix sums used for tree-based multinomial sampling (§6.1.1,
//!   Figure 5).
//! * [`alias::AliasTable`] / [`alias::StaleAliasProposal`] — Vose alias
//!   tables and the stale per-word proposal bundle shared by the
//!   Metropolis–Hastings baselines (WarpLDA, AliasLDA) and `culda-core`'s
//!   alias-hybrid sampler kernel.
//! * [`varint`] — LEB128 + delta codecs for the chunk streams that cross the
//!   PCIe bus under the streamed schedule (§6.1.3's data-size compression).
//!
//! The crate is deliberately free of any LDA- or GPU-specific logic so that it
//! can be tested exhaustively in isolation (see the property tests under
//! `tests/`).

#![warn(missing_docs)]

pub mod alias;
pub mod csr;
pub mod dense;
pub mod index_tree;
pub mod prefix;
pub mod topic;
pub mod varint;

pub use alias::{AliasTable, StaleAliasProposal};
pub use csr::{CsrBuilder, CsrMatrix};
pub use dense::{AtomicMatrix, DenseMatrix};
pub use index_tree::IndexTree;
pub use topic::{Topic, TopicId};
