//! Per-layer metrics of a traced run, derived from its spans and from the
//! simulated clock (`KernelStats` via the probe, `IterationStats` via the
//! reference session).

use crate::probe::SimTotals;
use crate::report::{median, Metrics};
use crate::trace::Tracer;
use culda_core::{HierarchicalSyncPlan, IterationStats};

/// What a traced run measured besides its spans.
pub struct LayerRun<'a> {
    /// Simulated totals of every probe iteration.
    pub sims: &'a [SimTotals],
    /// The reference session's statistics for the same iterations.
    pub history: &'a [IterationStats],
    /// The sync plan of the last iteration.
    pub plan: HierarchicalSyncPlan,
    /// Tokens one iteration samples.
    pub tokens: u64,
    /// Reference (untraced) wall time of the same iterations, seconds.
    pub untraced_wall_s: f64,
    /// Bytes one checkpoint wrote.
    pub checkpoint_bytes: u64,
    /// Documents ingested by the session-layer rounds.
    pub ingested_docs: usize,
    /// Published epoch minus the epoch that answered, per query request.
    pub epoch_lags: &'a [f64],
}

fn med(tracer: &Tracer, name: &str) -> f64 {
    let d = tracer.durations_ms(name);
    if d.is_empty() {
        0.0
    } else {
        median(&d)
    }
}

/// Every per-layer metric of BENCHMARK.json.
pub fn layer_metrics(tracer: &Tracer, run: &LayerRun<'_>) -> Metrics {
    for (name, calls, total, own) in tracer.summary() {
        println!("span {name:<24} calls {calls:>6} total {total:>11.3} ms self {own:>11.3} ms");
    }
    let mut m = Metrics::default();
    let n = run.sims.len() as f64;
    let per_iter = |name: &str| tracer.total_ms(name) / n;
    let sim_ms = |f: fn(&SimTotals) -> f64| run.sims.iter().map(f).sum::<f64>() * 1e3 / n;
    let tokens = run.tokens as f64 * n;

    for (layer, sim) in [
        ("setup", sim_ms(|s| s.setup_s)),
        ("sampling", sim_ms(|s| s.sampling_s)),
        ("update_phi", sim_ms(|s| s.update_phi_s)),
        ("update_theta", sim_ms(|s| s.update_theta_s)),
    ] {
        m.set(
            &format!("kernels.{layer}_wall_ms"),
            per_iter(&format!("kernels.{layer}")),
            "ms",
        );
        m.set(&format!("kernels.{layer}_sim_ms"), sim, "ms");
    }
    let dram: u64 = run.sims.iter().map(|s| s.sampling_dram_bytes).sum();
    let atomics: u64 = run.sims.iter().map(|s| s.update_phi_atomics).sum();
    m.set(
        "kernels.sampling_dram_bytes_per_token",
        dram as f64 / tokens,
        "B/token",
    );
    m.set(
        "kernels.update_phi_atomics_per_token",
        atomics as f64 / tokens,
        "1/token",
    );

    m.set("sync.pass_wall_ms", per_iter("sync.pass"), "ms");
    m.set("sync.sim_ms", sim_ms(|s| s.sync_s), "ms");
    let exposed: f64 = run.history.iter().map(|h| h.sync_exposed_time_s).sum();
    m.set("sync.exposed_sim_ms", exposed * 1e3 / n, "ms");
    let intra: u64 = run.sims.iter().map(|s| s.intra_bytes).sum();
    let inter: u64 = run.sims.iter().map(|s| s.inter_bytes).sum();
    m.set("sync.intra_bytes", intra as f64 / n, "B");
    m.set("sync.inter_bytes", inter as f64 / n, "B");
    m.set("sync.shards", run.plan.shards() as f64, "count");
    m.set("sync.groups", run.plan.inter_groups() as f64, "count");

    m.set(
        "corpus.partition_ms",
        tracer.total_ms("corpus.partition"),
        "ms",
    );
    m.set("trainer.build_ms", med(tracer, "trainer.build"), "ms");
    m.set("trainer.iter_ms_p50", med(tracer, "probe.iteration"), "ms");
    m.set(
        "schedule.untracked_wall_ms",
        per_iter("probe.iteration") - per_iter("probe.compute") - per_iter("sync.pass"),
        "ms",
    );

    m.set(
        "session.ingest_ms_per_doc",
        tracer.total_ms("session.ingest") / run.ingested_docs.max(1) as f64,
        "ms",
    );
    m.set("session.retire_ms", med(tracer, "session.retire"), "ms");
    m.set(
        "session.rebuild_ms",
        med(tracer, "session.iter_first") - med(tracer, "session.iter_steady"),
        "ms",
    );

    m.set("serve.publish_ms", med(tracer, "serve.publish"), "ms");
    m.set("serve.batch_ms_p50", med(tracer, "serve.batch"), "ms");
    let lag = if run.epoch_lags.is_empty() {
        0.0
    } else {
        run.epoch_lags.iter().sum::<f64>() / run.epoch_lags.len() as f64
    };
    m.set("serve.epoch_lag", lag, "epochs");

    m.set(
        "checkpoint.rotate_ms",
        med(tracer, "checkpoint.rotate"),
        "ms",
    );
    m.set("checkpoint.bytes_written", run.checkpoint_bytes as f64, "B");
    m.set(
        "checkpoint.resume_ms",
        med(tracer, "checkpoint.resume"),
        "ms",
    );

    let traced_s = tracer.total_ms("probe.iteration") / 1e3;
    m.set(
        "trace.overhead_tokens_per_s",
        tokens / traced_s - tokens / run.untraced_wall_s,
        "tokens/s",
    );
    m
}
