//! The update-θ kernel (§6.2).
//!
//! θ is sparse (CSR), so it cannot be updated in place with atomics.  The
//! paper regenerates it per document in two steps: (1) scatter the document's
//! token topics into a dense per-document array with atomic adds, using the
//! document–word map built at preprocessing time to find the document's
//! tokens inside the word-major chunk; (2) compact the dense array back into
//! a CSR row with a prefix sum.
//!
//! The simulator performs the same computation per document (functionally a
//! counting sort over the document's topics) and accounts the dense-scatter
//! atomics, the map lookups and the compaction traffic.  Each thread block
//! owns a contiguous range of documents and deposits its finished rows into
//! its own output slot; the host then stitches the slots into the chunk's new
//! θ replica (the device would write the rows directly into the CSR arrays
//! at offsets produced by the prefix sum).

use crate::model::ChunkState;
use culda_gpusim::{BlockCtx, BlockKernel};
use culda_sparse::CsrBuilder;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;

/// One document's regenerated θ row: sorted `(topic, count)` pairs.
pub type ThetaRow = Vec<(u16, u32)>;

/// The θ-update kernel for one chunk.
pub struct UpdateThetaKernel<'a> {
    state: &'a ChunkState,
    docs_per_block: usize,
    compress_16bit: bool,
    /// Per-block output slots (block `b` owns slot `b`; no contention).
    rows: Vec<Mutex<Vec<ThetaRow>>>,
}

impl<'a> UpdateThetaKernel<'a> {
    /// Create the kernel; `docs_per_block` documents are assigned to each
    /// thread block (the paper's kernel uses one warp per document with 32
    /// warps per block, i.e. 32 documents per block).
    pub fn new(state: &'a ChunkState, docs_per_block: usize, compress_16bit: bool) -> Self {
        assert!(docs_per_block > 0);
        let num_blocks = state.layout.num_docs().div_ceil(docs_per_block).max(1);
        let mut rows = Vec::with_capacity(num_blocks);
        rows.resize_with(num_blocks, || Mutex::new(Vec::new()));
        UpdateThetaKernel {
            state,
            docs_per_block,
            compress_16bit,
            rows,
        }
    }

    /// Number of thread blocks this kernel launches with.
    pub fn grid_blocks(&self) -> usize {
        self.rows.len()
    }

    /// Assemble the per-block outputs into the chunk's θ replica.
    /// Call after the launch completes.
    pub fn finish(self) {
        let docs = self.state.layout.num_docs();
        let k = self.state.num_topics();
        let mut builder = CsrBuilder::new(docs, k);
        builder.reserve_nnz(self.state.layout.num_tokens().min(docs * k));
        for slot in &self.rows {
            let slot = slot.lock();
            for row in slot.iter() {
                builder.push_row(row.iter().copied());
            }
        }
        *self.state.theta.write() = builder.finish();
    }
}

impl BlockKernel for UpdateThetaKernel<'_> {
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
        let state = self.state;
        let k = state.num_topics();
        let int_bytes: u64 = if self.compress_16bit { 2 } else { 4 };
        let doc_start = block_id * self.docs_per_block;
        let doc_end = (doc_start + self.docs_per_block).min(state.layout.num_docs());
        if doc_start >= doc_end {
            return;
        }

        let mut out = Vec::with_capacity(doc_end - doc_start);
        let mut scratch: Vec<u16> = Vec::new();
        for d in doc_start..doc_end {
            let positions = state.layout.doc_positions(d);
            // Step 1: dense scatter — one atomic add per token, plus reading
            // the document–word map entry and the token's topic.
            scratch.clear();
            scratch.extend(
                positions
                    .iter()
                    .map(|&p| state.z[p as usize].load(Ordering::Relaxed)),
            );
            ctx.read_global(positions.len() as u64 * (4 + int_bytes));
            ctx.atomics(positions.len() as u64);

            // Step 2: compact the dense row into CSR via a prefix sum — the
            // device scans the K-length dense row and writes K_d entries.
            scratch.sort_unstable();
            let mut row: ThetaRow = Vec::new();
            let mut i = 0usize;
            while i < scratch.len() {
                let t = scratch[i];
                let mut j = i + 1;
                while j < scratch.len() && scratch[j] == t {
                    j += 1;
                }
                row.push((t, (j - i) as u32));
                i = j;
            }
            ctx.read_global(k as u64 * 4); // scan of the dense scratch row
            ctx.int_ops(k as u64 / 32 + 1); // warp-level prefix sum steps
            ctx.write_global(row.len() as u64 * (int_bytes + 4) + 8); // CSR row + row_ptr
            out.push(row);
        }
        *self.rows[block_id].lock() = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LdaConfig;
    use crate::model::ChunkState;
    use culda_corpus::{partition::DocRange, ChunkLayout, DatasetProfile};
    use culda_gpusim::{Device, DeviceSpec, LaunchConfig};

    fn init_state(k: usize, seed: u64) -> ChunkState {
        let corpus = DatasetProfile {
            name: "t".into(),
            num_docs: 50,
            vocab_size: 70,
            avg_doc_len: 20.0,
            zipf_exponent: 1.0,
            doc_len_sigma: 0.5,
        }
        .generate(seed);
        let layout = ChunkLayout::build(
            &corpus,
            DocRange {
                start: 0,
                end: corpus.num_docs(),
            },
        );
        let state = ChunkState::new(0, layout, k);
        state.random_init_stable(&LdaConfig::with_topics(k), seed);
        state
    }

    #[test]
    fn rebuilt_theta_matches_reference_rebuild() {
        let state = init_state(8, 2);
        // Change some assignments so the kernel has real work to do.
        for (i, z) in state.z.iter().enumerate() {
            if i % 3 == 0 {
                z.store((z.load(Ordering::Relaxed) + 2) % 8, Ordering::Relaxed);
            }
        }
        let dev = Device::new(0, DeviceSpec::titan_x_maxwell(), 6);
        let kernel = UpdateThetaKernel::new(&state, 8, true);
        let grid = kernel.grid_blocks();
        dev.launch("Update theta", LaunchConfig::new(grid), &kernel);
        kernel.finish();
        let from_kernel = state.theta.read().clone();

        // Reference: the simple host-side rebuild.
        state.rebuild_theta();
        assert_eq!(from_kernel, *state.theta.read());
        from_kernel.validate().unwrap();
        // Row sums equal document lengths.
        for d in 0..state.layout.num_docs() {
            assert_eq!(from_kernel.row_sum(d), state.layout.doc_len(d) as u64);
        }
    }

    #[test]
    fn grid_covers_all_documents_for_any_block_size() {
        let state = init_state(4, 9);
        for &dpb in &[1usize, 7, 32, 1000] {
            let kernel = UpdateThetaKernel::new(&state, dpb, true);
            let dev = Device::new(0, DeviceSpec::v100_volta(), 1);
            dev.launch(
                "Update theta",
                LaunchConfig::new(kernel.grid_blocks()),
                &kernel,
            );
            kernel.finish();
            assert_eq!(state.theta.read().rows(), state.layout.num_docs());
            assert_eq!(state.theta.read().total(), state.num_tokens() as u64);
        }
    }

    #[test]
    fn atomic_count_equals_token_count() {
        let state = init_state(4, 12);
        let kernel = UpdateThetaKernel::new(&state, 16, true);
        let dev = Device::new(0, DeviceSpec::titan_xp_pascal(), 2);
        let stats = dev.launch(
            "Update theta",
            LaunchConfig::new(kernel.grid_blocks()),
            &kernel,
        );
        // Step 1 issues exactly one atomic per token (the dense scatter).
        assert_eq!(stats.counters.atomic_ops, state.num_tokens() as u64);
        kernel.finish();
    }
}
