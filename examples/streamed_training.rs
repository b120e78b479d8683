//! Streaming/online training: a live model fed in mini-batches through the
//! `StreamingSession` API, on memory-starved devices that force the `M > 1`
//! streaming schedule (`WorkSchedule2` of Algorithm 1), with document
//! retirement, checkpoint rotation, and the energy estimate of the run.
//!
//! ```text
//! cargo run --release --example streamed_training
//! ```

use culda::core::{LdaConfig, StreamingSession};
use culda::core::{ScheduleKind, SessionBuilder};
use culda::corpus::{DatasetProfile, Document};
use culda::gpusim::{
    DeviceSpec, EnergyModel, EnergyReport, Interconnect, MultiGpuSystem, Topology,
};

fn main() {
    // 1. A PubMed-like corpus and a deliberately memory-starved device (the
    //    V100 spec with its memory cut to a fraction of a GiB) so the trainer
    //    is forced into the streaming schedule exactly as §5.1 describes for
    //    corpora larger than device memory.
    let corpus = DatasetProfile::pubmed()
        .scaled_to_tokens(300_000)
        .generate(3);
    let small_gpu = DeviceSpec::builder(DeviceSpec::v100_volta())
        .name("V100 (2 MiB for the demo)")
        .mem_capacity_bytes(2 << 20)
        .build();
    let system = MultiGpuSystem::homogeneous(small_gpu, 2, 3, Interconnect::Pcie3);

    // 2. A streaming session that starts empty: documents arrive in
    //    mini-batches, each batch is burnt in against the current φ, a few
    //    training iterations run, and a checkpoint set is rotated out.
    let ckpt_dir = std::env::temp_dir().join("culda_streamed_training_example");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let mut session = SessionBuilder::new()
        .config(LdaConfig::with_topics(64).seed(3))
        .system(system)
        .burn_in_sweeps(1)
        .build_streaming()
        .expect("session");

    let docs: Vec<Document> = (0..corpus.num_docs())
        .map(|d| Document::from(corpus.doc(d)))
        .collect();
    let batch_size = docs.len().div_ceil(4).max(1);
    let window = docs.len() * 3 / 4; // retire the oldest quarter over the run
    for batch in docs.chunks(batch_size) {
        session.ingest(batch);
        let live = session.live_uids();
        if live.len() > window {
            session
                .retire(&live[..live.len() - window])
                .expect("retire");
        }
        session.train(3).expect("train");
        session.rotate_checkpoints(&ckpt_dir, 2).expect("rotate");
    }
    match session.trainer().map(|t| t.schedule()) {
        Some(ScheduleKind::Streamed { chunks_per_gpu }) => println!(
            "streaming schedule selected: M = {chunks_per_gpu} chunks per GPU ({} chunks total)",
            session.trainer().map(|t| t.num_chunks()).unwrap_or(0)
        ),
        Some(ScheduleKind::Resident) => {
            println!("resident schedule (corpus fits in device memory)")
        }
        None => println!("no training burst has run yet"),
    }

    // 3. Where did the time go?  Transfer share of the iteration time
    //    (guarded: a session that never trained has no simulated time), and
    //    the session's document counts.  The chunks are the trainer's: it
    //    splits the live corpus by token count at every rebuild.
    let stats = session.stats();
    let transfer: f64 = session.history().iter().map(|h| h.transfer_time_s).sum();
    let total = session.sim_time_s();
    if total > 0.0 {
        println!(
            "{} iterations in {total:.3} simulated seconds ({:.1}% spent in transfers)",
            stats.iterations,
            transfer / total * 100.0
        );
    } else {
        println!("no simulated time accumulated (degenerate configuration)");
    }
    println!(
        "session: {} live docs / {} ingested / {} retired, {} rotations into {} (last 2 kept)",
        stats.live_docs,
        stats.ingested_docs,
        stats.retired_docs,
        stats.checkpoints_written,
        ckpt_dir.display()
    );

    // 4. The rotated checkpoints are live: resume the newest one and verify
    //    the restored session carries the exact same state.
    let resumed = StreamingSession::resume(
        &ckpt_dir,
        MultiGpuSystem::homogeneous(
            DeviceSpec::builder(DeviceSpec::v100_volta())
                .name("V100 (2 MiB for the demo)")
                .mem_capacity_bytes(2 << 20)
                .build(),
            2,
            3,
            Interconnect::Pcie3,
        ),
    )
    .expect("resume");
    assert_eq!(resumed.z_snapshot(), session.z_snapshot());
    println!(
        "resumed session matches bit-for-bit at iteration {}",
        resumed.completed_iterations()
    );

    // 5. Energy estimate of the run: charge each device's busy time and the
    //    corpus-sized traffic to the per-architecture energy model.
    if let Some(trainer) = session.trainer() {
        let mut report = EnergyReport::default();
        for device in trainer.system().devices() {
            let model = EnergyModel::for_spec(&device.spec);
            let bytes =
                (device.busy_time_s() * device.spec.effective_bandwidth_bytes_per_s()) as u64;
            let counters = culda::gpusim::CostCounters {
                dram_read_bytes: bytes,
                ..Default::default()
            };
            let time = culda::gpusim::cost::kernel_time(&device.spec, &counters, 1_000_000);
            report.add_kernel(&model, &counters, &time, stats.live_tokens / 2);
        }
        println!(
            "energy estimate (last burst): {:.1} J total, {:.1} W average, {:.0} tokens/J",
            report.total_j,
            report.average_power_w(),
            report.tokens_per_joule()
        );
    }

    // 6. Would the φ synchronization be cheaper on NVLink?  Compare the §5.2
    //    tree reduce+broadcast on both fabrics, and against a ring all-reduce.
    let phi_bytes = (session.config().num_topics * stats.vocab_size * 2) as u64;
    for topology in [Topology::PcieTree, Topology::NvLinkMesh] {
        let (tree, ring, ratio) = topology.tree_vs_ring(2, phi_bytes, 500.0e9);
        println!(
            "{topology:?}: tree sync {:.3} ms, ring all-reduce {:.3} ms (tree/ring = {ratio:.2})",
            tree * 1e3,
            ring * 1e3
        );
    }

    let _ = std::fs::remove_dir_all(&ckpt_dir);
}
