//! The update-φ kernel (§6.2).
//!
//! On the device φ is dense, so the modelled kernel is a stream of atomic
//! adds: two φ atomics and two n_k atomics per token whose topic changed.
//! Because the chunk is sorted in word-major order, consecutive tokens touch
//! the same φ column, giving the atomics the locality the paper relies on
//! ("atomic functions that have good data locality shows good
//! performance").  The launch charges exactly those atomics.
//!
//! The host computes the same end state with fewer writes where it can.
//! Each block covers a slice of one word's tokens and promotes `z_next` to
//! be the current assignment as it goes.  A block with at least K tokens
//! sums its `z → z_next` deltas per topic in a per-thread K-wide scratch
//! column, then flushes once per touched topic, with one φ add and one n_k
//! add, and leaves the column zeroed; it pays neither an O(K) scan nor an
//! allocation.  A block with fewer tokens than topics rarely moves two
//! tokens into or out of one topic, so summing would save no atomic there;
//! it applies each change directly, as the modelled kernel does.  On the
//! tail-heavy benchmark workload (K = 512, 6.5 tokens per block on
//! average) 99.8 % of blocks take the direct path; summing them too made
//! its update-φ about 20–25 % slower than direct atomics.
//!
//! A trainer's chunks share one φ, so every chunk's launch adds into it;
//! integer adds commute, so the result equals the paper's sum of per-GPU
//! contributions whatever order the launches, their blocks and their flushes
//! run in.  Sampling reads that φ, so the scheduler runs every update-φ
//! launch only after every sampling launch of the iteration (see
//! [`crate::schedule`]).  φ is updated *before* θ so the φ synchronization
//! can start as early as possible and overlap with the θ update (§6.2).

use crate::model::ChunkState;
use crate::work::WorkItem;
use culda_gpusim::{BlockCtx, BlockKernel};
use std::cell::RefCell;
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

/// A thread's block-local topic deltas: a K-wide column that every flush
/// leaves all zero, and the topics the current block touched (a topic may
/// appear twice if its delta returned to zero in between).
#[derive(Default)]
struct Deltas {
    by_topic: Vec<i32>,
    touched: Vec<u16>,
}

thread_local! {
    static DELTAS: RefCell<Deltas> = RefCell::default();
}

impl UpdatePhiKernel<'_> {
    /// Promote `z_next` to `z` over positions `start..end`, calling
    /// `moved(old, new)` for every token whose topic changed; returns the
    /// number of changed tokens.
    fn promote(&self, start: usize, end: usize, mut moved: impl FnMut(u16, u16)) -> u64 {
        let state = self.state;
        let mut changed = 0u64;
        for (z, z_next) in state.z[start..end].iter().zip(&state.z_next[start..end]) {
            let old = z.load(Ordering::Relaxed);
            let new = z_next.load(Ordering::Relaxed);
            if old != new {
                moved(old, new);
                changed += 1;
            }
            z.store(new, Ordering::Relaxed);
        }
        changed
    }

    /// [`Self::promote`] over word `v`'s positions `start..end`, adding
    /// each move into φ / n_k at once.
    fn promote_directly(&self, v: usize, start: usize, end: usize) -> u64 {
        let state = self.state;
        self.promote(start, end, |old, new| {
            state.phi_global.fetch_sub(old as usize, v, 1);
            state.phi_global.fetch_add(new as usize, v, 1);
            state.nk_global.add(old as usize, -1);
            state.nk_global.add(new as usize, 1);
        })
    }

    /// [`Self::promote`] over word `v`'s positions `start..end`, summing the
    /// moves per topic first and flushing one φ add and one n_k add per
    /// touched topic.
    fn promote_summed(&self, v: usize, start: usize, end: usize) -> u64 {
        let state = self.state;
        DELTAS.with_borrow_mut(|Deltas { by_topic, touched }| {
            if by_topic.len() < state.num_topics() {
                by_topic.resize(state.num_topics(), 0);
            }
            let changed = self.promote(start, end, |old, new| {
                for (topic, delta) in [(old, -1), (new, 1)] {
                    if by_topic[topic as usize] == 0 {
                        touched.push(topic);
                    }
                    by_topic[topic as usize] += delta;
                }
            });
            for topic in touched.drain(..) {
                let t = topic as usize;
                let delta = std::mem::take(&mut by_topic[t]);
                if delta > 0 {
                    state.phi_global.fetch_add(t, v, delta as u32);
                } else if delta < 0 {
                    state.phi_global.fetch_sub(t, v, delta.unsigned_abs());
                }
                if delta != 0 {
                    state.nk_global.add(t, delta as i64);
                }
            }
            changed
        })
    }
}

impl BlockKernel for UpdatePhiKernel<'_> {
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
        let item = &self.items[block_id];
        let v = item.word as usize;
        let int_bytes: u64 = if self.compress_16bit { 2 } else { 4 };
        let (start, end) = (item.start as usize, item.end as usize);
        let changed = if end - start < self.state.num_topics() {
            self.promote_directly(v, start, end)
        } else {
            self.promote_summed(v, start, end)
        };
        // The modelled kernel reads both assignments of every token, issues
        // two φ and two n_k atomics per changed token and writes every
        // promoted assignment back.
        let tokens = (end - start) as u64;
        ctx.read_global(2 * int_bytes * tokens);
        ctx.atomics(4 * changed);
        ctx.write_global(int_bytes * tokens);
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
    fn block_local_deltas_equal_a_recount_and_keep_the_modelled_charges() {
        let k = 8u16;
        let state = Arc::new(init_state(k as usize));
        // Blocks of 2K tokens split the most frequent word over several
        // blocks that sum their deltas, which a pool of four threads then
        // flushes concurrently; words with fewer than K tokens take the
        // direct path in the same launch.
        let items = build_work_items(&state.layout, 2 * k as usize);
        let summed = |it: &&WorkItem| (it.end - it.start) as usize >= k as usize;
        let hot = items[0].word;
        assert!(
            items
                .iter()
                .filter(|it| it.word == hot)
                .filter(summed)
                .count()
                >= 3
        );
        assert!(items.iter().any(|it| !summed(&it)));
        // Unchanged tokens, +1 moves and scattered moves, so a block sees
        // deltas of both signs and deltas that return to zero.
        let mut changed = 0u64;
        for (pos, zn) in state.z_next.iter().enumerate() {
            let old = state.z[pos].load(Ordering::Relaxed);
            let new = match pos % 3 {
                0 => old,
                1 => (old + 1) % k,
                _ => (old * 5 + 3) % k,
            };
            changed += u64::from(old != new);
            zn.store(new, Ordering::Relaxed);
        }
        assert!(changed > 0);
        let dev = Device::new(0, DeviceSpec::v100_volta(), 4);
        let kernel = UpdatePhiKernel {
            state: &state,
            items: &items,
            compress_16bit: false,
        };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let stats =
            pool.install(|| dev.launch("Update phi", LaunchConfig::new(items.len()), &kernel));

        check_recount(std::slice::from_ref(&state)).unwrap();
        for (z, zn) in state.z.iter().zip(&state.z_next) {
            assert_eq!(z.load(Ordering::Relaxed), zn.load(Ordering::Relaxed));
        }
        // The modelled kernel: 4 atomics per changed token (each also a
        // 4-byte DRAM write), both assignments read and one written per
        // token, at 4 bytes each uncompressed.
        let tokens = state.num_tokens() as u64;
        assert_eq!(stats.counters.atomic_ops, 4 * changed);
        assert_eq!(stats.counters.dram_read_bytes, 2 * 4 * tokens);
        assert_eq!(
            stats.counters.dram_write_bytes,
            4 * tokens + 4 * 4 * changed
        );
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
