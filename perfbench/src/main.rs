//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, runs it in this process
//! for about `--seconds`, checks the program's outputs, prints every metric
//! by name with its unit, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 0` reports the end-to-end metrics of an untraced run; `--trace
//! 1` reports the per-layer metrics of a traced run.  A failed check names
//! the workload and the check and makes the exit code 1.

mod batch;
mod layers;
mod probe;
mod report;
mod stream;
mod trace;
mod workloads;

use report::Outcome;
use workloads::Workload;

/// The end-to-end metrics every untraced run reports.
const END_TO_END: [&str; 9] = [
    "train_tokens_per_s",
    "sim_tokens_per_s",
    "setup_s",
    "peak_rss_mib",
    "neg_llpt_final",
    "stream_docs_per_s",
    "query_ms_p50",
    "query_ms_p99",
    "queries_per_s",
];

/// The per-layer metrics every traced run reports.
const PER_LAYER: [&str; 31] = [
    "kernels.setup_wall_ms",
    "kernels.setup_sim_ms",
    "kernels.sampling_wall_ms",
    "kernels.sampling_sim_ms",
    "kernels.update_phi_wall_ms",
    "kernels.update_phi_sim_ms",
    "kernels.update_theta_wall_ms",
    "kernels.update_theta_sim_ms",
    "kernels.sampling_dram_bytes_per_token",
    "kernels.update_phi_atomics_per_token",
    "sync.pass_wall_ms",
    "sync.sim_ms",
    "sync.exposed_sim_ms",
    "sync.intra_bytes",
    "sync.inter_bytes",
    "sync.shards",
    "sync.groups",
    "corpus.partition_ms",
    "trainer.build_ms",
    "trainer.iter_ms_p50",
    "schedule.untracked_wall_ms",
    "session.ingest_ms_per_doc",
    "session.retire_ms",
    "session.rebuild_ms",
    "serve.publish_ms",
    "serve.batch_ms_p50",
    "serve.epoch_lag",
    "checkpoint.rotate_ms",
    "checkpoint.bytes_written",
    "checkpoint.resume_ms",
    "trace.overhead_tokens_per_s",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = args.workload.train_threads(nproc);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the thread-pool shim cannot fail");
    println!(
        "workload {} seed {} seconds {} trace {} threads {threads} of {nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = pool.install(|| match args.workload {
        Workload::StreamWindowServe => stream::run(args.seed, args.seconds, args.trace),
        w => batch::run(w, args.seed, args.seconds, args.trace),
    });
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: workload {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let ops = out.ops;
    // Failed operations show in `failed` / `attempted` (the error rate).
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for name in expected {
        let value = out.metrics.get(name);
        out.checks.check(
            "metric_reported",
            match value {
                Some(v) if v.is_finite() => Ok(()),
                _ => Err(format!("{name} is {value:?}")),
            },
        );
    }
    for (name, value, unit) in out.metrics.iter() {
        println!("{name:<40} {value:>18.6} {unit}");
    }
    println!(
        "operations: {} attempted, {} failed",
        ops.attempted, ops.failed
    );
    let outcome = Outcome {
        correct: out.checks.ok(),
        attempted: ops.attempted.max(1),
        failed: ops.failed,
        metrics: out.metrics,
    };
    println!("{}", outcome.to_json());
    if !outcome.correct {
        std::process::exit(1);
    }
}
