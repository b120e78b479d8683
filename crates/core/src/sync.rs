//! φ model synchronization (§5.2, Figure 4), dense or vocabulary-sharded.
//!
//! On the paper's hardware every GPU accumulates its chunks' φ contribution,
//! and after every iteration the contributions must be combined into the
//! global matrix every sampler reads:
//!
//! ```text
//! φ = φ0 + φ1 + … + φC−1,      n_k = Σ_c n_k[c]
//! ```
//!
//! The paper performs the combination on the GPUs as a `⌈log2 G⌉`-round tree
//! **reduce** followed by a tree **broadcast** of the full `K × V` replica
//! behind one global barrier.  This module additionally implements the
//! range-sharded variant the §5.2 schedule permits: the vocabulary is
//! partitioned into `S` contiguous column ranges ([`SyncPlan`]), each range
//! runs its own tree reduce + broadcast, and the only barrier is per shard —
//! which is what lets the scheduler overlap shard `s`'s reduce with the
//! sampling of shard `s + 1` (see [`crate::schedule`] and `DESIGN.md` §8).
//!
//! The simulator charges the time of the per-shard tree schedules over the
//! system's interconnect, which is what determines multi-GPU scalability
//! (Figure 9); the cost model charges one replica per GPU.  The host holds
//! no per-GPU contributions to combine: a trainer's chunks share one φ / n_k
//! pair, and update-φ adds every chunk's deltas straight into it (integer
//! adds commute, so the pair equals the sum above bit for bit).  For a
//! trainer the functional half of a synchronization is therefore a no-op.
//!
//! Chunks built with `ChunkState::new` each own a private pair holding only
//! their own counts; the layer-by-layer probe of the benchmark and unit
//! tests build them.  For those the synchronization recounts every word's
//! column from the `z` of the chunks that hold the word and stores it into
//! every pair, with zeros for a word no chunk holds.  The recount runs on
//! real OS threads, which is safe because every value is an integer count.
//! Floating-point reduces must not be added to this path without routing
//! them through the shim's fixed partial-sum tree, where the tree shape —
//! not thread arrival order — defines the result.

use crate::config::LdaConfig;
use crate::model::{recount_column, ChunkState, TopicTotals};
use culda_gpusim::MultiGpuSystem;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// How one φ synchronization is laid out: how many vocabulary shards, and how
/// many of their reduces may overlap sampling.
///
/// ```
/// use culda_core::sync::SyncPlan;
///
/// // 10 columns over 4 shards: the remainder goes to the leading shards.
/// let plan = SyncPlan::new(4, 2);
/// let ranges = plan.shard_ranges(10);
/// assert_eq!(ranges.len(), 4);
/// assert_eq!(ranges[0], 0..3);
/// assert_eq!(ranges[3], 8..10);
/// assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncPlan {
    shards: usize,
    overlap_depth: usize,
}

impl SyncPlan {
    /// The paper's dense schedule: one shard, one global barrier.
    pub const fn dense() -> Self {
        SyncPlan {
            shards: 1,
            overlap_depth: 0,
        }
    }

    /// A plan with `shards` vocabulary ranges and up to `overlap_depth`
    /// reduces in flight during sampling (`0` = no overlap).
    pub fn new(shards: usize, overlap_depth: usize) -> Self {
        assert!(shards >= 1, "a plan needs at least one shard");
        SyncPlan {
            shards,
            overlap_depth,
        }
    }

    /// Derive the plan from a run configuration, clamping the shard count to
    /// the vocabulary size (a shard must own at least one column).  An
    /// auto-tuned configuration (`sync_shards == None`) starts dense — the
    /// trainer measures iteration 0 under this plan and swaps in the tuned
    /// shard count afterwards (see `CuLdaTrainer::run_iteration`).
    pub fn from_config(config: &LdaConfig, vocab_size: usize) -> Self {
        SyncPlan {
            shards: config.sync_shards.unwrap_or(1).clamp(1, vocab_size.max(1)),
            overlap_depth: config.sync_overlap_depth,
        }
    }

    /// Number of vocabulary shards `S`.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Maximum shard reduces in flight while sampling continues.
    pub fn overlap_depth(&self) -> usize {
        self.overlap_depth
    }

    /// True for the paper's single-shard schedule.
    pub fn is_dense(&self) -> bool {
        self.shards == 1
    }

    /// Whether the schedule actually overlaps reduces with sampling (needs
    /// more than one shard and a non-zero depth).
    pub fn overlaps(&self) -> bool {
        self.shards > 1 && self.overlap_depth > 0
    }

    /// The contiguous column ranges of the shards over a `vocab_size`-wide
    /// matrix, split evenly by *column count*.  The remainder columns go to
    /// the leading shards.  A plan with more shards than columns produces
    /// one range per column (never an empty shard), matching the clamp in
    /// [`SyncPlan::from_config`].
    pub fn shard_ranges(&self, vocab_size: usize) -> Vec<Range<usize>> {
        let shards = self.shards.min(vocab_size.max(1));
        let base = vocab_size / shards;
        let rem = vocab_size % shards;
        let mut start = 0usize;
        (0..shards)
            .map(|s| {
                let width = base + usize::from(s < rem);
                let range = start..start + width;
                start += width;
                range
            })
            .collect()
    }

    /// Contiguous shard ranges balanced by *token count* instead of column
    /// count: the boundary after shard `s` is placed where the cumulative
    /// token mass crosses `(s + 1) / S` of the corpus, while every shard
    /// keeps at least one column.  This is the partition-by-token idea of §4
    /// applied to the vocabulary axis: the sampling kernel is word-major, so
    /// equal-token shards finish sampling at evenly spaced times, which is
    /// what gives the per-shard reduces compute to hide behind.  With a
    /// frequency-skewed *and frequency-sorted* vocabulary, equal-column
    /// shards would put nearly all sampling work in the first shard and
    /// leave the later reduces fully exposed.
    pub fn token_balanced_ranges(&self, word_tokens: &[u64]) -> Vec<Range<usize>> {
        let v = word_tokens.len();
        let total: u64 = word_tokens.iter().sum();
        if self.shards == 1 || total == 0 {
            return self.shard_ranges(v);
        }
        let shards = self.shards.min(v);
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0usize;
        let mut cum = 0u64;
        for s in 0..shards {
            let remaining = shards - s;
            let end = if remaining == 1 {
                v
            } else {
                let target = total * (s as u64 + 1) / shards as u64;
                let mut e = start;
                // Leave at least one column for each remaining shard.
                while e < v - (remaining - 1) && (e == start || cum + word_tokens[e] <= target) {
                    cum += word_tokens[e];
                    e += 1;
                }
                e
            };
            ranges.push(start..end);
            start = end;
        }
        ranges
    }
}

/// A [`SyncPlan`] layered with the cluster-aware hierarchy decisions: whether
/// the sync runs the two-tier schedule (per-node tree reduce → inter-node
/// leader exchange → per-node broadcast) and how many contiguous *inter-node
/// groups* the vocabulary shards are batched into for the fabric exchange.
///
/// Grouping amortizes the fabric's round latencies: with `S` shards and `G`
/// groups, the slow inter-node fabric sees `G` exchanges of `S / G` shards'
/// worth of reduced columns each, instead of `S` small ones — at the price of
/// coarser overlap (a group's exchange cannot start before its last shard's
/// local reduce).  On a single-node system every plan degenerates to the flat
/// [`SyncPlan`] schedule and the hierarchy fields are ignored.
///
/// ```
/// use culda_core::sync::{HierarchicalSyncPlan, SyncPlan};
///
/// let plan = HierarchicalSyncPlan::new(SyncPlan::new(8, 2), true, 2);
/// assert_eq!(plan.shards(), 8);
/// assert_eq!(plan.inter_groups(), 2);
/// assert!(plan.hierarchical());
/// // The flat LDA*-style baseline keeps the same shard layout but sends
/// // every tree round over the fabric.
/// let flat = HierarchicalSyncPlan::flat(SyncPlan::new(8, 2));
/// assert!(!flat.hierarchical());
/// assert_eq!(flat.base(), plan.base());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchicalSyncPlan {
    base: SyncPlan,
    hierarchical: bool,
    inter_groups: usize,
}

impl HierarchicalSyncPlan {
    /// The paper's dense schedule with the hierarchical path enabled (a
    /// no-op off-cluster): one shard, one barrier, one fabric group.
    pub const fn dense() -> Self {
        HierarchicalSyncPlan {
            base: SyncPlan::dense(),
            hierarchical: true,
            inter_groups: 1,
        }
    }

    /// A plan over `base` with the hierarchical schedule switched
    /// `hierarchical` and the shards batched into `inter_groups` fabric
    /// exchanges (clamped to the shard count at use).
    pub fn new(base: SyncPlan, hierarchical: bool, inter_groups: usize) -> Self {
        assert!(inter_groups >= 1, "a plan needs at least one fabric group");
        HierarchicalSyncPlan {
            base,
            hierarchical,
            inter_groups,
        }
    }

    /// The topology-oblivious baseline over `base`: every tree round crosses
    /// whatever interconnect is slowest (what LDA* does over Ethernet).
    pub const fn flat(base: SyncPlan) -> Self {
        HierarchicalSyncPlan {
            base,
            hierarchical: false,
            inter_groups: 1,
        }
    }

    /// Derive the plan from a run configuration.  An auto-tuned group count
    /// (`sync_inter_groups == None`) starts at one group; the trainer swaps
    /// in the tuned `(shards, groups)` pair after measuring iteration 0.
    pub fn from_config(config: &LdaConfig, vocab_size: usize) -> Self {
        let base = SyncPlan::from_config(config, vocab_size);
        HierarchicalSyncPlan {
            base,
            hierarchical: config.hierarchical_sync,
            inter_groups: config
                .sync_inter_groups
                .unwrap_or(1)
                .clamp(1, base.shards()),
        }
    }

    /// The underlying shard/overlap layout.
    pub fn base(&self) -> SyncPlan {
        self.base
    }

    /// Whether the two-tier schedule is enabled (only observable on a
    /// multi-node system).
    pub fn hierarchical(&self) -> bool {
        self.hierarchical
    }

    /// Number of contiguous inter-node fabric exchanges the shards are
    /// batched into.
    pub fn inter_groups(&self) -> usize {
        self.inter_groups
    }

    /// Number of vocabulary shards `S` (of the base plan).
    pub fn shards(&self) -> usize {
        self.base.shards()
    }

    /// Maximum shard reduces in flight while sampling continues.
    pub fn overlap_depth(&self) -> usize {
        self.base.overlap_depth()
    }

    /// True for the single-shard schedule.
    pub fn is_dense(&self) -> bool {
        self.base.is_dense()
    }

    /// Whether the schedule overlaps reduces with sampling.
    pub fn overlaps(&self) -> bool {
        self.base.overlaps()
    }
}

/// Global per-word token counts across all chunks (`Σ_c` of every chunk's
/// word-major histogram) — the weights [`SyncPlan::token_balanced_ranges`]
/// cuts the vocabulary with.  Independent of how the corpus is chunked.
pub fn global_word_tokens(states: &[Arc<ChunkState>]) -> Vec<u64> {
    let v = states[0].layout.vocab_size;
    let mut counts = vec![0u64; v];
    for st in states {
        for (w, c) in counts.iter_mut().enumerate() {
            *c += st.layout.word_token_count(w) as u64;
        }
    }
    counts
}

/// Outcome of one φ synchronization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyncStats {
    /// Simulated time of the reduce + broadcast, summed over all shards (the
    /// interconnect work; the *exposed* time after overlap is decided by the
    /// scheduler, see `IterationStats::sync_exposed_time_s`).
    pub time_s: f64,
    /// Bytes of one φ replica (what the tree steps move in aggregate).
    pub replica_bytes: u64,
    /// Number of devices participating.
    pub num_devices: usize,
}

/// Outcome of one sharded φ synchronization: the aggregate [`SyncStats`] plus
/// the per-shard simulated times the scheduler overlaps with sampling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedSyncStats {
    /// Aggregate statistics (`time_s` is the sum over shards).
    pub stats: SyncStats,
    /// Simulated time of each shard's tree reduce + broadcast, in shard
    /// order.  `n_k` rides with the last shard.
    pub per_shard_time_s: Vec<f64>,
    /// The token-balanced column ranges the sync actually used (see
    /// [`SyncPlan::token_balanced_ranges`]); the scheduler aligns its
    /// per-shard compute slices with these.
    pub shard_ranges: Vec<Range<usize>>,
    /// Bytes the tree steps moved over intra-node links (all the traffic on
    /// a single-node system).
    pub intra_bytes: u64,
    /// Bytes the tree steps moved over the inter-node fabric (0 on a
    /// single-node system).
    pub inter_bytes: u64,
}

/// Bytes of one replica that each shard's tree moves: `K × |range|`
/// elements of 2 (16-bit compressed, §6.1.3) or 4 bytes, with the `K`
/// 8-byte `n_k` totals riding on the last shard.  Summed over ranges that
/// cover `0..V` this is one full replica.  Shared by the synchronization and
/// the trainer's auto-tuner.
pub(crate) fn shard_bytes(k: usize, ranges: &[Range<usize>], compress_16bit: bool) -> Vec<u64> {
    let elem_bytes: u64 = if compress_16bit { 2 } else { 4 };
    let mut bytes: Vec<u64> = ranges
        .iter()
        .map(|range| k as u64 * range.len() as u64 * elem_bytes)
        .collect();
    if let Some(last) = bytes.last_mut() {
        *last += k as u64 * 8;
    }
    bytes
}

/// Cost the per-shard tree schedules of one sync under `plan`, given each
/// shard's replica bytes (`n_k` already folded into the last shard).
///
/// Returns the per-shard simulated times — with each fabric group's
/// inter-node exchange folded into the time of the group's *last* shard,
/// which is when the exchange can start — plus the per-tier byte totals.
/// Shared by the synchronization itself and the trainer's auto-tuner, so the
/// tuner predicts with exactly the cost model the scheduler will charge.
pub(crate) fn hier_shard_times(
    system: &MultiGpuSystem,
    shard_bytes: &[u64],
    plan: &HierarchicalSyncPlan,
) -> (Vec<f64>, u64, u64) {
    let mut intra = 0u64;
    let mut inter = 0u64;
    if !(plan.hierarchical() && system.num_nodes() > 1) {
        let times = shard_bytes
            .iter()
            .map(|&b| {
                let (i, x) = system.phi_sync_tier_bytes(b, false);
                intra += i;
                inter += x;
                system.phi_sync_time_s(b)
            })
            .collect();
        return (times, intra, inter);
    }
    let shards = shard_bytes.len();
    let groups = plan.inter_groups().clamp(1, shards);
    let mut times: Vec<f64> = shard_bytes
        .iter()
        .map(|&b| {
            intra += system.phi_sync_tier_bytes(b, true).0;
            system.phi_hier_local_time_s(b)
        })
        .collect();
    // Batch the shards into `groups` contiguous fabric exchanges, remainder
    // to the leading groups (the same split rule as SyncPlan::shard_ranges).
    let base = shards / groups;
    let rem = shards % groups;
    let mut start = 0usize;
    for g in 0..groups {
        let width = base + usize::from(g < rem);
        let group_bytes: u64 = shard_bytes[start..start + width].iter().sum();
        times[start + width - 1] += system.phi_inter_exchange_time_s(group_bytes);
        inter += system.phi_sync_tier_bytes(group_bytes, true).1;
        start += width;
    }
    (times, intra, inter)
}

/// Synchronize the chunks' φ / `n_k` and return the per-shard simulated
/// costs of the tree schedules under `plan`: on a multi-node system with the
/// hierarchy enabled, each shard is costed as its per-node tree reduce +
/// broadcast and every fabric group's reduced columns cross the inter-node
/// fabric once, folded into the group's last shard.  A dense plan uses one
/// shard; a sharded plan cuts the vocabulary into token-balanced ranges.
///
/// `compress_16bit` selects the per-element transfer size (§6.1.3 halves the
/// synchronization volume as well as the kernel traffic).  The functional
/// result is the same for every plan: when every chunk shares one φ / n_k
/// pair (a trainer) there is nothing to do; otherwise every pair receives a
/// recount of all chunks' `z` (see the module docs).
pub fn synchronize_phi_hier_sharded(
    states: &[Arc<ChunkState>],
    system: &MultiGpuSystem,
    plan: &HierarchicalSyncPlan,
    compress_16bit: bool,
) -> ShardedSyncStats {
    assert!(!states.is_empty());
    let v = states[0].layout.vocab_size;
    let base = plan.base();
    let ranges = if base.is_dense() {
        base.shard_ranges(v)
    } else {
        base.token_balanced_ranges(&global_word_tokens(states))
    };
    synchronize_phi_hier_over_ranges(states, system, ranges, compress_16bit, plan)
}

/// [`synchronize_phi_hier_sharded`] over an explicit, already-resolved set
/// of contiguous column ranges (which must cover `0..V` in order).  Exposed
/// so the scheduler can resolve the ranges once per iteration and reuse them
/// for its compute-overlap weights.
pub fn synchronize_phi_hier_over_ranges(
    states: &[Arc<ChunkState>],
    system: &MultiGpuSystem,
    ranges: Vec<Range<usize>>,
    compress_16bit: bool,
    plan: &HierarchicalSyncPlan,
) -> ShardedSyncStats {
    assert!(!states.is_empty());
    let k = states[0].num_topics();
    debug_assert_eq!(
        ranges.iter().map(|r| r.len()).sum::<usize>(),
        states[0].layout.vocab_size
    );
    if !shares_one_pair(states) {
        store_recount(states);
    }

    // --- Cost model: one tree schedule per shard, grouped fabric hops. ---
    let shard_bytes = shard_bytes(k, &ranges, compress_16bit);
    let (per_shard_time_s, intra_bytes, inter_bytes) = hier_shard_times(system, &shard_bytes, plan);
    ShardedSyncStats {
        stats: SyncStats {
            time_s: per_shard_time_s.iter().sum(),
            replica_bytes: shard_bytes.iter().sum(),
            num_devices: system.num_gpus(),
        },
        per_shard_time_s,
        shard_ranges: ranges,
        intra_bytes,
        inter_bytes,
    }
}

/// Whether every chunk reads and updates the same φ / n_k pair.
fn shares_one_pair(states: &[Arc<ChunkState>]) -> bool {
    let first = &states[0];
    states.iter().all(|st| {
        Arc::ptr_eq(&st.phi_global, &first.phi_global)
            && Arc::ptr_eq(&st.nk_global, &first.nk_global)
    })
}

/// Store a recount of every chunk's `z` into every chunk's φ / n_k pair,
/// word by word (φ is stored word-major); shards only structure the costed
/// schedule, so the pass ignores them.
fn store_recount(states: &[Arc<ChunkState>]) {
    let k = states[0].num_topics();
    let nk = TopicTotals::zeros(k);
    (0..states[0].layout.vocab_size)
        .into_par_iter()
        .for_each(|v| {
            let mut column = vec![0u32; k];
            recount_column(states.iter().map(Arc::as_ref), v, &mut column);
            for st in states {
                for (cell, &count) in st.phi_global.column(v).iter().zip(&column) {
                    cell.store(count, Ordering::Relaxed);
                }
            }
            for (topic, &count) in column.iter().enumerate() {
                if count > 0 {
                    nk.add(topic, count as i64);
                }
            }
        });
    let nk = nk.to_vec();
    for st in states {
        st.nk_global.store_all(&nk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LdaConfig;
    use crate::kernels::{names, UpdatePhiKernel};
    use crate::work::build_work_items;
    use culda_corpus::{Corpus, DatasetProfile, Partitioner};
    use culda_gpusim::{DeviceSpec, Interconnect, LaunchConfig};

    fn make_states(corpus: &Corpus, chunks: usize, k: usize) -> Vec<Arc<ChunkState>> {
        build_states(corpus, chunks, k, false)
    }

    /// With `shared`, every chunk reads one synchronized φ / n_k pair, as in
    /// a trainer; otherwise each chunk owns a pair (`ChunkState::new`), as in
    /// the benchmark's probe.
    fn build_states(
        corpus: &Corpus,
        chunks: usize,
        k: usize,
        shared: bool,
    ) -> Vec<Arc<ChunkState>> {
        let partitioner = Partitioner::by_tokens(corpus, chunks);
        let cfg = LdaConfig::with_topics(k);
        let phi = Arc::new(culda_sparse::AtomicMatrix::zeros(k, corpus.vocab_size()));
        let nk = Arc::new(crate::model::TopicTotals::zeros(k));
        partitioner
            .build_layouts(corpus)
            .into_iter()
            .enumerate()
            .map(|(i, layout)| {
                let st = if shared {
                    ChunkState::with_globals(i, layout, phi.clone(), nk.clone())
                } else {
                    ChunkState::new(i, layout, k)
                };
                st.random_init_stable(&cfg, 5);
                Arc::new(st)
            })
            .collect()
    }

    fn corpus() -> Corpus {
        DatasetProfile {
            name: "sync".into(),
            num_docs: 80,
            vocab_size: 60,
            avg_doc_len: 15.0,
            zipf_exponent: 1.0,
            doc_len_sigma: 0.4,
        }
        .generate(5)
    }

    /// Synchronize under `plan` with the flat single-tier cost model.
    fn flat_sync(
        states: &[Arc<ChunkState>],
        system: &MultiGpuSystem,
        plan: SyncPlan,
        compress_16bit: bool,
    ) -> ShardedSyncStats {
        synchronize_phi_hier_sharded(
            states,
            system,
            &HierarchicalSyncPlan::flat(plan),
            compress_16bit,
        )
    }

    #[test]
    fn global_phi_is_the_sum_of_all_chunk_contributions() {
        let corpus = corpus();
        let states = make_states(&corpus, 3, 6);
        let system =
            MultiGpuSystem::homogeneous(DeviceSpec::titan_xp_pascal(), 3, 1, Interconnect::Pcie3);
        let stats = flat_sync(&states, &system, SyncPlan::dense(), true).stats;
        assert!(stats.time_s > 0.0);
        assert_eq!(stats.num_devices, 3);

        // Every chunk sees the same global matrix, and it sums to the corpus
        // token count.
        let total: u64 = states[0].phi_global.to_dense().total();
        assert_eq!(total, corpus.num_tokens() as u64);
        for st in &states[1..] {
            assert_eq!(st.phi_global.to_dense(), states[0].phi_global.to_dense());
            assert_eq!(st.nk_global.to_vec(), states[0].nk_global.to_vec());
        }
        // n_k equals the φ row sums.
        let phi = states[0].phi_global.to_dense();
        for (kk, &nk) in states[0].nk_global.to_vec().iter().enumerate() {
            let row_sum: u64 = phi.row(kk).iter().map(|&x| x as u64).sum();
            assert_eq!(nk as u64, row_sum);
        }
    }

    #[test]
    fn single_device_sync_costs_nothing_but_still_combines() {
        let corpus = corpus();
        let states = make_states(&corpus, 1, 4);
        let system = MultiGpuSystem::single(DeviceSpec::v100_volta(), 3);
        let stats = flat_sync(&states, &system, SyncPlan::dense(), true).stats;
        assert_eq!(stats.time_s, 0.0);
        let total = states[0].phi_global.to_dense().total();
        assert_eq!(total, corpus.num_tokens() as u64);
    }

    #[test]
    fn compression_halves_the_synchronized_volume() {
        let corpus = corpus();
        let states = make_states(&corpus, 2, 4);
        let system =
            MultiGpuSystem::homogeneous(DeviceSpec::titan_xp_pascal(), 2, 1, Interconnect::Pcie3);
        let a = flat_sync(&states, &system, SyncPlan::dense(), true).stats;
        let b = flat_sync(&states, &system, SyncPlan::dense(), false).stats;
        assert!(b.replica_bytes > a.replica_bytes);
        assert!(b.time_s > a.time_s);
    }

    #[test]
    fn sharded_sync_produces_the_identical_global_state() {
        let corpus = corpus();
        let dense_states = make_states(&corpus, 3, 6);
        let sharded_states = make_states(&corpus, 3, 6);
        let system =
            MultiGpuSystem::homogeneous(DeviceSpec::titan_xp_pascal(), 3, 1, Interconnect::Pcie3);
        flat_sync(&dense_states, &system, SyncPlan::dense(), true);
        // V = 60 is not divisible by 7: the remainder shards must still
        // cover every column exactly once.
        let plan = SyncPlan::new(7, 2);
        let stats = flat_sync(&sharded_states, &system, plan, true);
        assert_eq!(stats.per_shard_time_s.len(), 7);
        for (d, s) in dense_states.iter().zip(&sharded_states) {
            assert_eq!(d.phi_global.to_dense(), s.phi_global.to_dense());
            assert_eq!(d.nk_global.to_vec(), s.nk_global.to_vec());
        }

        // One global shared by every chunk (a trainer's layout) and one
        // global per chunk (the probe's) hold the same sums under a sharded
        // hierarchical plan on a 2 × 2 cluster, and are costed the same.
        let cluster = MultiGpuSystem::clustered(
            DeviceSpec::titan_xp_pascal(),
            culda_gpusim::ClusterTopology::new(2, 2, Interconnect::Ethernet10G),
            7,
            Interconnect::Pcie3,
        );
        let dense_states = make_states(&corpus, 4, 6);
        let private_states = make_states(&corpus, 4, 6);
        let shared_states = build_states(&corpus, 4, 6, true);
        for st in &shared_states {
            assert!(Arc::ptr_eq(&st.phi_global, &shared_states[0].phi_global));
            assert!(Arc::ptr_eq(&st.nk_global, &shared_states[0].nk_global));
        }
        flat_sync(&dense_states, &cluster, SyncPlan::dense(), true);
        let plan = HierarchicalSyncPlan::new(SyncPlan::new(7, 2), true, 2);
        let private = synchronize_phi_hier_sharded(&private_states, &cluster, &plan, true);
        let shared = synchronize_phi_hier_sharded(&shared_states, &cluster, &plan, true);
        assert_eq!(private, shared);
        assert_eq!(shared.per_shard_time_s.len(), 7);
        for ((d, p), s) in dense_states.iter().zip(&private_states).zip(&shared_states) {
            assert_eq!(d.phi_global.to_dense(), p.phi_global.to_dense());
            assert_eq!(d.nk_global.to_vec(), p.nk_global.to_vec());
            assert_eq!(p.phi_global.to_dense(), s.phi_global.to_dense());
            assert_eq!(p.nk_global.to_vec(), s.nk_global.to_vec());
        }

        // A tail-heavy corpus: most words live in one or two of the four
        // chunks, and the last word in none.  Each chunk runs one update-φ
        // launch, which adds its deltas into its own pair.  The shared pair
        // is then current without a sync; the private pairs (one per chunk,
        // as in the probe) must come out of the sync equal to it and to a
        // recount of z, including a zero column for the missing word whose
        // private columns were dirtied.
        let tail = tail_corpus();
        let missing = tail.vocab_size() - 1;
        let [private, shared] = [false, true].map(|shared| {
            let states = build_states(&tail, 4, 6, shared);
            for (i, st) in states.iter().enumerate() {
                for (pos, (z, next)) in st.z.iter().zip(&st.z_next).enumerate() {
                    let old = z.load(Ordering::Relaxed) as usize;
                    let new = if pos % 3 == 0 { old } else { (old + pos) % 6 };
                    next.store(new as u16, Ordering::Relaxed);
                }
                let items = build_work_items(&st.layout, 64);
                let kernel = UpdatePhiKernel {
                    state: st,
                    items: &items,
                    compress_16bit: true,
                };
                let launch = LaunchConfig::new(items.len());
                cluster
                    .device(i % 4)
                    .launch(names::UPDATE_PHI, launch, &kernel);
            }
            states
        });
        let owners = |v: usize| {
            private
                .iter()
                .filter(|st| st.layout.word_token_count(v) > 0)
                .count()
        };
        assert_eq!(owners(missing), 0);
        assert!((0..missing).any(|v| owners(v) == 1));
        assert!((0..missing).any(|v| (2..4).contains(&owners(v))));
        let (phi, nk) = recount(&private, 6);
        assert_eq!(recount(&shared, 6), (phi.clone(), nk.clone()));
        assert_ne!(private[0].phi_global.to_dense(), phi, "not yet synced");
        for st in &private {
            for row in 0..6 {
                st.phi_global.store(row, missing, 7);
            }
        }
        let private_sync = synchronize_phi_hier_sharded(&private, &cluster, &plan, true);
        let shared_sync = synchronize_phi_hier_sharded(&shared, &cluster, &plan, true);
        assert_eq!(private_sync, shared_sync);
        for st in private.iter().chain(&shared) {
            assert_eq!(st.phi_global.to_dense(), phi);
            assert_eq!(st.nk_global.to_vec(), nk);
            assert!((0..6).all(|row| st.phi_global.load(row, missing) == 0));
        }
    }

    /// Short documents over a skewed vocabulary whose last word never
    /// occurs.
    fn tail_corpus() -> Corpus {
        let vocab = 48u32;
        let mut builder = culda_corpus::CorpusBuilder::new(vocab as usize);
        let mut x = 12345u32;
        let mut next = move || {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            x >> 8
        };
        for _ in 0..60 {
            let len = 2 + next() % 4;
            // The smaller of two uniform draws skews toward the head.
            let words: Vec<u32> = (0..len)
                .map(|_| (next() % (vocab - 1)).min(next() % (vocab - 1)))
                .collect();
            builder.push_doc(&words);
        }
        builder.build()
    }

    /// φ and n_k counted from scratch from every chunk's z.
    fn recount(states: &[Arc<ChunkState>], k: usize) -> (culda_sparse::DenseMatrix<u32>, Vec<i64>) {
        let v = states[0].layout.vocab_size;
        let mut phi = culda_sparse::DenseMatrix::zeros(k, v);
        let mut nk = vec![0i64; k];
        for st in states {
            for w in 0..v {
                let (start, end) = st.layout.word_token_range(w);
                for z in &st.z[start..end] {
                    let topic = z.load(Ordering::Relaxed) as usize;
                    *phi.get_mut(topic, w) += 1;
                    nk[topic] += 1;
                }
            }
        }
        (phi, nk)
    }

    #[test]
    fn one_shard_plan_degenerates_to_the_dense_cost() {
        let corpus = corpus();
        let states = make_states(&corpus, 2, 4);
        let system =
            MultiGpuSystem::homogeneous(DeviceSpec::titan_xp_pascal(), 2, 1, Interconnect::Pcie3);
        let dense = flat_sync(&states, &system, SyncPlan::dense(), true).stats;
        let sharded = flat_sync(&states, &system, SyncPlan::new(1, 4), true);
        assert_eq!(sharded.per_shard_time_s.len(), 1);
        assert_eq!(sharded.stats, dense);
    }

    #[test]
    fn sharded_cost_exceeds_dense_only_by_per_shard_latency() {
        let corpus = corpus();
        let states = make_states(&corpus, 4, 8);
        let system =
            MultiGpuSystem::homogeneous(DeviceSpec::titan_xp_pascal(), 4, 1, Interconnect::Pcie3);
        let dense = flat_sync(&states, &system, SyncPlan::dense(), true).stats;
        let sharded = flat_sync(&states, &system, SyncPlan::new(4, 2), true);
        assert_eq!(sharded.stats.replica_bytes, dense.replica_bytes);
        assert!(sharded.stats.time_s >= dense.time_s);
        // The tiny test replica is latency-bound, so the worst case is one
        // full set of round latencies per shard — S× the dense time, never
        // more (the bandwidth term is identical in aggregate).
        assert!(sharded.stats.time_s <= dense.time_s * 4.0 + 1e-12);
    }

    #[test]
    fn token_balanced_ranges_cover_the_vocabulary_and_follow_the_mass() {
        let plan = SyncPlan::new(4, 2);
        // Uniform counts degenerate to the even column split.
        let uniform = vec![5u64; 16];
        assert_eq!(plan.token_balanced_ranges(&uniform), plan.shard_ranges(16));
        // Skewed counts pull the boundaries toward the head.
        let mut skewed = vec![1u64; 16];
        skewed[0] = 100;
        skewed[1] = 50;
        let ranges = plan.token_balanced_ranges(&skewed);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], 0..1, "the head word owns a shard of its own");
        // Contiguous cover of every column, in order.
        let mut expect_start = 0;
        for r in &ranges {
            assert_eq!(r.start, expect_start);
            assert!(!r.is_empty());
            expect_start = r.end;
        }
        assert_eq!(expect_start, 16);
        // All-zero counts fall back to the column split rather than panic.
        assert_eq!(
            plan.token_balanced_ranges(&[0u64; 16]),
            plan.shard_ranges(16)
        );
    }

    #[test]
    fn hierarchical_sync_on_a_cluster_is_cheaper_and_bit_identical() {
        let corpus = corpus();
        let flat_states = make_states(&corpus, 4, 6);
        let hier_states = make_states(&corpus, 4, 6);
        let system = MultiGpuSystem::clustered(
            DeviceSpec::titan_xp_pascal(),
            culda_gpusim::ClusterTopology::new(2, 2, Interconnect::Ethernet10G),
            7,
            Interconnect::Pcie3,
        );
        let base = SyncPlan::new(3, 1);
        let flat = synchronize_phi_hier_sharded(
            &flat_states,
            &system,
            &HierarchicalSyncPlan::flat(base),
            true,
        );
        let hier = synchronize_phi_hier_sharded(
            &hier_states,
            &system,
            &HierarchicalSyncPlan::new(base, true, 1),
            true,
        );
        // Same sums either way; only the costed schedule differs.
        for (f, h) in flat_states.iter().zip(&hier_states) {
            assert_eq!(f.phi_global.to_dense(), h.phi_global.to_dense());
            assert_eq!(f.nk_global.to_vec(), h.nk_global.to_vec());
        }
        assert!(hier.stats.time_s < flat.stats.time_s);
        // Flat sends everything over the fabric; hierarchical moves most of
        // the volume onto the intra-node links.
        assert_eq!(flat.intra_bytes, 0);
        assert!(flat.inter_bytes > 0);
        assert!(hier.intra_bytes > 0);
        assert!(hier.inter_bytes < flat.inter_bytes);
        // With N = 2 nodes the fabric carries exactly one replica's worth
        // of reduced columns: 2 · (N − 1) · bytes = 2 × the shard bytes.
        let replica = hier.stats.replica_bytes;
        assert_eq!(hier.inter_bytes, 2 * replica);
        assert_eq!(flat.inter_bytes, 2 * (4 - 1) * replica);
    }

    #[test]
    fn grouping_fabric_exchanges_amortizes_the_round_latencies() {
        let corpus = corpus();
        let states = make_states(&corpus, 4, 6);
        let system = MultiGpuSystem::clustered(
            DeviceSpec::titan_xp_pascal(),
            culda_gpusim::ClusterTopology::new(2, 2, Interconnect::Ethernet10G),
            7,
            Interconnect::Pcie3,
        );
        let base = SyncPlan::new(6, 2);
        let fine = synchronize_phi_hier_sharded(
            &states,
            &system,
            &HierarchicalSyncPlan::new(base, true, 6),
            true,
        );
        let coarse = synchronize_phi_hier_sharded(
            &states,
            &system,
            &HierarchicalSyncPlan::new(base, true, 1),
            true,
        );
        // Identical volume on each tier, fewer fabric latencies when
        // batched.
        assert_eq!(fine.intra_bytes, coarse.intra_bytes);
        assert_eq!(fine.inter_bytes, coarse.inter_bytes);
        assert!(coarse.stats.time_s < fine.stats.time_s);
        // One group folds its single exchange into the last shard; six
        // groups pay one exchange per shard.
        let last = coarse.per_shard_time_s.len() - 1;
        assert!(coarse.per_shard_time_s[last] > fine.per_shard_time_s[0]);
    }

    #[test]
    fn single_node_systems_ignore_the_hierarchy_flag() {
        let corpus = corpus();
        let states = make_states(&corpus, 2, 4);
        let system =
            MultiGpuSystem::homogeneous(DeviceSpec::titan_xp_pascal(), 2, 1, Interconnect::Pcie3);
        let plan = SyncPlan::new(3, 1);
        let hier = synchronize_phi_hier_sharded(
            &states,
            &system,
            &HierarchicalSyncPlan::new(plan, true, 2),
            true,
        );
        let flat =
            synchronize_phi_hier_sharded(&states, &system, &HierarchicalSyncPlan::flat(plan), true);
        assert_eq!(hier.stats, flat.stats);
        assert_eq!(hier.per_shard_time_s, flat.per_shard_time_s);
        // All traffic is intra-node.
        assert!(hier.intra_bytes > 0);
        assert_eq!(hier.inter_bytes, 0);
        assert_eq!(hier.intra_bytes, flat.intra_bytes);
    }

    #[test]
    fn plan_clamps_shards_to_the_vocabulary() {
        let cfg = LdaConfig::with_topics(8).sync_shards(100);
        let plan = SyncPlan::from_config(&cfg, 6);
        assert_eq!(plan.shards(), 6);
        assert!(plan.shard_ranges(6).iter().all(|r| r.len() == 1));
        // A raw plan (no from_config clamp) never yields empty shards either:
        // both range constructions cap at one column per shard.
        let wild = SyncPlan::new(8, 2);
        assert_eq!(wild.shard_ranges(3).len(), 3);
        assert_eq!(wild.token_balanced_ranges(&[5, 5, 5]).len(), 3);
        let dense = SyncPlan::from_config(&LdaConfig::with_topics(8), 6);
        assert!(dense.is_dense());
        assert!(!dense.overlaps());
        assert!(SyncPlan::new(4, 2).overlaps());
        assert!(!SyncPlan::new(4, 0).overlaps());
    }
}
