//! Ablation studies of the design choices §6 calls out.
//!
//! The paper motivates several kernel-level decisions without isolating their
//! individual contribution; these ablations quantify each one on the
//! simulated substrate:
//!
//! * **shared p2 tree / p*(k) reuse** (§6.1.2) — on vs off;
//! * **16-bit precision compression** (§6.1.3) — on vs off;
//! * **index-tree fan-out** (§6.1.1) — warp-wide (32) vs binary (2);
//! * **load balancing** (§6.1.2) — splitting heavy words across blocks vs
//!   one block per word;
//! * **chunk-stream compression** (§6.1.3) — delta + LEB128 encoding of the
//!   word-major token stream that crosses the PCIe bus under the streamed
//!   schedule, vs transferring raw 32-bit ids.

use crate::datasets;
use crate::scale::ExperimentScale;
use culda_core::{LdaConfig, SessionBuilder};
use culda_corpus::Partitioner;
use culda_gpusim::{DeviceSpec, Interconnect, MultiGpuSystem};
use culda_sparse::varint;
use serde::{Deserialize, Serialize};

/// The outcome of one ablation: throughput with the optimisation enabled and
/// disabled.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ablation {
    /// Name of the design choice.
    pub name: String,
    /// Average tokens/sec with the optimisation enabled (the paper's design).
    pub enabled_tokens_per_sec: f64,
    /// Average tokens/sec with the optimisation disabled.
    pub disabled_tokens_per_sec: f64,
}

impl Ablation {
    /// Speedup contributed by the optimisation.
    pub fn speedup(&self) -> f64 {
        self.enabled_tokens_per_sec / self.disabled_tokens_per_sec
    }
}

fn run(config: LdaConfig, scale: &ExperimentScale) -> f64 {
    let dataset = datasets::nytimes(scale);
    let system = MultiGpuSystem::single(DeviceSpec::titan_x_maxwell(), scale.seed);
    let mut trainer = SessionBuilder::new()
        .corpus(&dataset.corpus)
        .config(config)
        .system(system)
        .build()
        .expect("trainer");
    trainer.train(scale.iterations);
    trainer.average_throughput(scale.iterations)
}

/// Run all ablations on the NYTimes twin / Maxwell platform.
pub fn ablations(scale: &ExperimentScale) -> Vec<Ablation> {
    // The paper's dense reduce: the harness reproduces published results,
    // so the auto-tuned sharding default is pinned off.
    let base = LdaConfig::with_topics(scale.num_topics)
        .seed(scale.seed)
        .sync_shards(1);
    let baseline_tps = run(base.clone(), scale);
    let mut out = Vec::new();

    let mut no_share = base.clone();
    no_share.share_p2_tree = false;
    out.push(Ablation {
        name: "Shared p2 tree / p*(k) reuse (6.1.2)".into(),
        enabled_tokens_per_sec: baseline_tps,
        disabled_tokens_per_sec: run(no_share, scale),
    });

    let mut no_compress = base.clone();
    no_compress.compress_16bit = false;
    out.push(Ablation {
        name: "16-bit precision compression (6.1.3)".into(),
        enabled_tokens_per_sec: baseline_tps,
        disabled_tokens_per_sec: run(no_compress, scale),
    });

    let mut binary_tree = base.clone();
    binary_tree.tree_fanout = 2;
    out.push(Ablation {
        name: "32-way index tree vs binary tree (6.1.1)".into(),
        enabled_tokens_per_sec: baseline_tps,
        disabled_tokens_per_sec: run(binary_tree, scale),
    });

    let mut no_split = base;
    no_split.max_tokens_per_block = usize::MAX / 2;
    out.push(Ablation {
        name: "Heavy-word splitting across blocks (6.1.2)".into(),
        enabled_tokens_per_sec: baseline_tps,
        disabled_tokens_per_sec: run(no_split, scale),
    });

    out
}

/// Outcome of the chunk-stream compression ablation: bytes and PCIe time per
/// iteration for the streamed (`WorkSchedule2`) schedule, with and without the
/// delta + LEB128 encoding of the word-major token stream.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TransferCompression {
    /// Bytes of the raw 32-bit word-id stream across all chunks.
    pub raw_bytes: u64,
    /// Bytes after delta + LEB128 encoding.
    pub encoded_bytes: u64,
    /// PCIe 3.0 transfer time of the raw stream (one full pass).
    pub raw_transfer_s: f64,
    /// PCIe 3.0 transfer time of the encoded stream (one full pass).
    pub encoded_transfer_s: f64,
}

impl TransferCompression {
    /// `encoded / raw` size ratio.
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            1.0
        } else {
            self.encoded_bytes as f64 / self.raw_bytes as f64
        }
    }

    /// Transfer-time speedup contributed by the encoding.
    pub fn speedup(&self) -> f64 {
        self.raw_transfer_s / self.encoded_transfer_s
    }
}

/// Measure the chunk-stream compression on the PubMed twin partitioned into
/// four chunks (the configuration Figure 9 streams over four GPUs).
pub fn transfer_compression(scale: &ExperimentScale) -> TransferCompression {
    let dataset = datasets::pubmed(scale);
    let partitioner = Partitioner::by_tokens(&dataset.corpus, 4);
    let layouts = partitioner.build_layouts(&dataset.corpus);
    let mut raw_bytes = 0u64;
    let mut encoded_bytes = 0u64;
    for layout in &layouts {
        // The word id of every token in word-major order: word v, repeated
        // once per token of v.
        let ids: Vec<u32> = (0..layout.vocab_size)
            .flat_map(|v| std::iter::repeat_n(v as u32, layout.word_token_count(v)))
            .collect();
        let stats = varint::delta_stats(&ids);
        raw_bytes += stats.raw_bytes;
        encoded_bytes += stats.encoded_bytes;
    }
    let link = Interconnect::Pcie3;
    TransferCompression {
        raw_bytes,
        encoded_bytes,
        raw_transfer_s: link.transfer_time_s(raw_bytes),
        encoded_transfer_s: link.transfer_time_s(encoded_bytes),
    }
}

/// Render the chunk-stream compression report.
pub fn transfer_compression_text(t: &TransferCompression) -> String {
    let mut out = String::from(
        "Chunk-stream compression for the streamed schedule (PubMed twin, 4 chunks, PCIe 3.0)\n",
    );
    out.push_str(&format!(
        "{:<34} {:>14} {:>14}\n",
        "", "bytes", "transfer (ms)"
    ));
    out.push_str(&format!(
        "{:<34} {:>14} {:>14.3}\n",
        "raw u32 word-major stream",
        t.raw_bytes,
        t.raw_transfer_s * 1e3
    ));
    out.push_str(&format!(
        "{:<34} {:>14} {:>14.3}\n",
        "delta + LEB128 encoded",
        t.encoded_bytes,
        t.encoded_transfer_s * 1e3
    ));
    out.push_str(&format!(
        "encoded/raw ratio: {:.2}   PCIe transfer speedup: {:.2}x\n",
        t.ratio(),
        t.speedup()
    ));
    out
}

/// Render the ablation table.
pub fn ablations_text(rows: &[Ablation]) -> String {
    let mut out =
        String::from("Ablations of CuLDA_CGS design choices (NYTimes twin, Maxwell, simulated)\n");
    out.push_str(&format!(
        "{:<44} {:>14} {:>14} {:>9}\n",
        "Design choice", "with (MT/s)", "without (MT/s)", "speedup"
    ));
    for a in rows {
        out.push_str(&format!(
            "{:<44} {:>14.1} {:>14.1} {:>8.2}x\n",
            a.name,
            a.enabled_tokens_per_sec / 1e6,
            a.disabled_tokens_per_sec / 1e6,
            a.speedup()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_and_sharing_help_at_tiny_scale() {
        let mut scale = ExperimentScale::tiny();
        scale.tokens = 30_000;
        let rows = ablations(&scale);
        assert_eq!(rows.len(), 4);
        let by_name = |needle: &str| {
            rows.iter()
                .find(|a| a.name.contains(needle))
                .unwrap()
                .speedup()
        };
        assert!(by_name("compression") > 1.0);
        assert!(by_name("Shared p2") > 0.9); // sharing never hurts materially
        let text = ablations_text(&rows);
        assert!(text.contains("speedup"));
    }

    #[test]
    fn chunk_stream_compression_shrinks_the_transfer() {
        let mut scale = ExperimentScale::tiny();
        scale.tokens = 20_000;
        let t = transfer_compression(&scale);
        assert_eq!(t.raw_bytes % 4, 0);
        assert!(t.encoded_bytes > 0 && t.encoded_bytes < t.raw_bytes);
        // Word-major word ids are non-decreasing with long runs of zeros, so
        // the encoding should land near one byte per token.  The transfer
        // speedup is smaller than the byte ratio because the PCIe latency
        // term is unaffected by compression (and dominates at tiny scale).
        assert!(t.ratio() < 0.5, "ratio {}", t.ratio());
        assert!(t.speedup() > 1.2, "speedup {}", t.speedup());
        assert!(t.raw_transfer_s > t.encoded_transfer_s);
        let text = transfer_compression_text(&t);
        assert!(text.contains("LEB128"));
        assert!(text.contains("PCIe transfer speedup"));
    }
}
