//! The update-φ kernel (§6.2).
//!
//! φ is dense, so the update is a stream of atomic adds.  Because the chunk
//! is sorted in word-major order, consecutive tokens touch the same φ column,
//! giving the atomics the locality the paper relies on ("atomic functions
//! that have good data locality shows good performance").
//!
//! The kernel folds the `z → z_next` differences of this iteration straight
//! into the chunk's synchronized φ and topic totals, then promotes `z_next`
//! to be the current assignment.  A trainer's chunks share one φ, so every
//! chunk's launch adds into it; integer adds commute, so the result equals
//! the paper's sum of per-GPU contributions whatever order the launches and
//! their atomics run in.  Sampling reads that φ, so the scheduler runs every
//! update-φ launch only after every sampling launch of the iteration (see
//! [`crate::schedule`]).  φ is updated *before* θ so the φ synchronization
//! can start as early as possible and overlap with the θ update (§6.2).

use crate::model::ChunkState;
use crate::work::WorkItem;
use culda_gpusim::{BlockCtx, BlockKernel};
use std::sync::atomic::Ordering;

/// The φ-update kernel for one chunk.
pub struct UpdatePhiKernel<'a> {
    /// Chunk whose counts are being updated.
    pub state: &'a ChunkState,
    /// The same word-major work items the sampling kernel used.
    pub items: &'a [WorkItem],
    /// Whether φ entries are stored 16-bit compressed (§6.1.3).
    pub compress_16bit: bool,
}

impl BlockKernel for UpdatePhiKernel<'_> {
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
        let item = &self.items[block_id];
        let state = self.state;
        let v = item.word as usize;
        let int_bytes: u64 = if self.compress_16bit { 2 } else { 4 };

        for pos in item.start..item.end {
            let pos = pos as usize;
            let old = state.z[pos].load(Ordering::Relaxed);
            let new = state.z_next[pos].load(Ordering::Relaxed);
            // Reading both assignments (old and proposed).
            ctx.read_global(2 * int_bytes);
            if old != new {
                state.phi_global.fetch_sub(old as usize, v, 1);
                state.phi_global.fetch_add(new as usize, v, 1);
                state.nk_global.add(old as usize, -1);
                state.nk_global.add(new as usize, 1);
                // Two φ atomics + two n_k atomics.
                ctx.atomics(4);
            }
            // Promote the proposal to the current assignment.
            state.z[pos].store(new, Ordering::Relaxed);
            ctx.write_global(int_bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LdaConfig;
    use crate::model::{check_recount, ChunkState};
    use crate::work::build_work_items;
    use culda_corpus::{partition::DocRange, ChunkLayout, DatasetProfile};
    use culda_gpusim::{Device, DeviceSpec, LaunchConfig};
    use std::sync::Arc;

    fn init_state(k: usize) -> ChunkState {
        let corpus = DatasetProfile {
            name: "t".into(),
            num_docs: 40,
            vocab_size: 80,
            avg_doc_len: 25.0,
            zipf_exponent: 1.0,
            doc_len_sigma: 0.4,
        }
        .generate(21);
        let layout = ChunkLayout::build(
            &corpus,
            DocRange {
                start: 0,
                end: corpus.num_docs(),
            },
        );
        let state = ChunkState::new(0, layout, k);
        state.random_init_stable(&LdaConfig::with_topics(k), 3);
        state
    }

    #[test]
    fn delta_update_matches_full_rebuild() {
        let state = Arc::new(init_state(6));
        // Propose new assignments: rotate every token's topic by one.
        for (pos, zn) in state.z_next.iter().enumerate() {
            let old = state.z[pos].load(Ordering::Relaxed);
            zn.store((old + 1) % 6, Ordering::Relaxed);
        }
        let items = build_work_items(&state.layout, 2048);
        let dev = Device::new(0, DeviceSpec::titan_xp_pascal(), 4);
        let kernel = UpdatePhiKernel {
            state: &state,
            items: &items,
            compress_16bit: true,
        };
        dev.launch("Update phi", LaunchConfig::new(items.len()), &kernel);

        // The delta-updated φ / n_k must equal a from-scratch recount.
        check_recount(std::slice::from_ref(&state)).unwrap();
        // And z must now hold the promoted assignments.
        for (z, zn) in state.z.iter().zip(&state.z_next) {
            assert_eq!(z.load(Ordering::Relaxed), zn.load(Ordering::Relaxed));
        }
    }

    #[test]
    fn unchanged_assignments_cost_no_atomics() {
        let state = init_state(4);
        // z_next equals z after the initialization.
        let items = build_work_items(&state.layout, 2048);
        let dev = Device::new(0, DeviceSpec::v100_volta(), 4);
        let kernel = UpdatePhiKernel {
            state: &state,
            items: &items,
            compress_16bit: true,
        };
        let stats = dev.launch("Update phi", LaunchConfig::new(items.len()), &kernel);
        assert_eq!(stats.counters.atomic_ops, 0);
        assert!(stats.counters.dram_read_bytes > 0);
        state.validate_theta().unwrap();
    }

    #[test]
    fn compression_halves_assignment_traffic() {
        let state = init_state(4);
        let items = build_work_items(&state.layout, 2048);
        let dev = Device::new(0, DeviceSpec::v100_volta(), 4);
        let small = dev
            .launch(
                "Update phi",
                LaunchConfig::new(items.len()),
                &UpdatePhiKernel {
                    state: &state,
                    items: &items,
                    compress_16bit: true,
                },
            )
            .counters;
        let big = dev
            .launch(
                "Update phi",
                LaunchConfig::new(items.len()),
                &UpdatePhiKernel {
                    state: &state,
                    items: &items,
                    compress_16bit: false,
                },
            )
            .counters;
        assert_eq!(small.dram_read_bytes * 2, big.dram_read_bytes);
        assert_eq!(small.dram_write_bytes * 2, big.dram_write_bytes);
    }
}
