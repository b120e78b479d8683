//! The batch workloads: build a `TrainingSession`, then alternately train
//! it and fold in queries against its current model.

use crate::layers::{layer_metrics, LayerRun};
use crate::probe::{Init, Probe};
use crate::report::{median, peak_rss_mib, Metrics};
use crate::trace::{timed, Tracer};
use crate::workloads::{
    check_llpt, closed_loop_client, llpt, query_options, same_state, Checks, ClientStats, Ops,
    RunOutput, Scratch, Workload,
};
use culda_core::{
    CuLdaTrainer, ModelCheckpoint, ScheduleKind, SessionBuilder, TopicInferencer, TrainerError,
    TrainingSession,
};
use culda_corpus::{Corpus, Document};
use std::time::{Duration, Instant};

/// Set-up is repeated this many times; `setup_s` is the median.
const SETUP_REPS: usize = 7;
/// Iterations left out of the wall-clock rate (the first tunes the sync
/// plan and builds sampler tables once).
const WARMUP: usize = 2;
/// Log-likelihood and simulated throughput are taken after this many
/// iterations, so they do not depend on how fast the host is.
const FIXED_ITERS: usize = 8;
/// A run alternates training blocks of this many iterations (one rebuild
/// cadence of the MH samplers) with serving this many query requests, so
/// both are measured over the whole run.
const BLOCK: usize = 8;
const REQUESTS_PER_BLOCK: usize = 250;
/// Fewest blocks a run measures, however slow the host.
const MIN_BLOCKS: usize = 3;
/// Fewest iterations the traced run compares against the probe.
const MIN_PROBE_ITERS: usize = 4;

fn build(w: Workload, seed: u64, corpus: &Corpus) -> Result<TrainingSession, TrainerError> {
    SessionBuilder::new()
        .corpus(corpus)
        .config(w.config(seed))
        .system(w.system(seed))
        .build()
}

fn trainer_llpt(t: &CuLdaTrainer) -> f64 {
    llpt(
        &t.merged_theta(),
        &t.global_phi(),
        &t.global_nk(),
        t.config(),
    )
}

/// Publish `trainer`'s model as a fold-in inferencer and send it
/// `requests` query requests.
fn serve(
    trainer: &CuLdaTrainer,
    seed: u64,
    queries: &[Vec<u32>],
    requests: usize,
    tracer: Option<&Tracer>,
    ops: &mut Ops,
    checks: &mut Checks,
) -> ClientStats {
    let cfg = trainer.config();
    let (inferencer, _) = timed(tracer, "serve.publish", None, |_| {
        TopicInferencer::try_new(
            &trainer.global_phi(),
            &trainer.global_nk(),
            cfg.alpha,
            cfg.beta,
        )
    });
    let Some(inferencer) = ops.run("publish", inferencer) else {
        return ClientStats::default();
    };
    let opts = query_options(seed);
    closed_loop_client(
        tracer,
        queries,
        cfg.num_topics,
        |i| i < requests,
        ops,
        checks,
        |req| {
            req.iter()
                .map(|q| inferencer.try_infer_document(q, opts))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())
        },
    )
}

pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool) -> Result<RunOutput, String> {
    let (corpus, queries) = w.inputs(seed);
    if traced {
        return run_traced(w, seed, seconds, &corpus, &queries);
    }
    let mut ops = Ops::default();
    let mut checks = Checks::new(w);
    let mut m = Metrics::default();

    let mut setup = Vec::new();
    let mut trainer = None;
    for _ in 0..SETUP_REPS {
        drop(trainer.take());
        let (t, d) = timed(None, "trainer.build", None, |_| build(w, seed, &corpus));
        setup.push(d.as_secs_f64());
        trainer = Some(t.map_err(|e| e.to_string())?);
    }
    let mut trainer = trainer.expect("set-up ran at least once");
    let llpt0 = trainer_llpt(&trainer);

    for _ in 0..WARMUP {
        trainer.run_iteration();
        ops.attempted += 1;
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut block_walls = Vec::new();
    let mut client = ClientStats::default();
    let mut llpt_fixed = f64::NAN;
    while block_walls.len() < MIN_BLOCKS || Instant::now() < deadline {
        let mut wall = 0.0;
        for _ in 0..BLOCK {
            let (_, d) = timed(None, "trainer.iteration", None, |_| trainer.run_iteration());
            ops.attempted += 1;
            wall += d.as_secs_f64();
            if trainer.history().len() == FIXED_ITERS {
                llpt_fixed = trainer_llpt(&trainer);
            }
        }
        block_walls.push(wall);
        let served = serve(
            &trainer,
            seed,
            &queries,
            REQUESTS_PER_BLOCK,
            None,
            &mut ops,
            &mut checks,
        );
        client.append(served);
    }
    checks.check("trainer_validate", trainer.validate());
    checks.check("llpt", check_llpt(llpt0, llpt_fixed));

    // Rates are medians over blocks, so one disturbed block cannot move them.
    let rate = |work: f64| {
        let rates: Vec<f64> = block_walls
            .iter()
            .map(|w| work * BLOCK as f64 / w)
            .collect();
        median(&rates)
    };
    m.set(
        "train_tokens_per_s",
        rate(trainer.total_tokens() as f64),
        "tokens/s",
    );
    m.set(
        "sim_tokens_per_s",
        trainer.average_throughput(FIXED_ITERS),
        "tokens/s",
    );
    m.set("setup_s", median(&setup), "s");
    m.set("neg_llpt_final", -llpt_fixed, "nats/token");
    m.set(
        "stream_docs_per_s",
        rate(trainer.num_docs() as f64),
        "docs/s",
    );
    client.record(&mut m);
    m.set("peak_rss_mib", peak_rss_mib().unwrap_or(0.0), "MiB");
    Ok(RunOutput {
        metrics: m,
        ops,
        checks,
    })
}

/// The traced run: reference iterations through `TrainingSession`, a
/// checkpoint and resume, queries, the same iterations through the probe
/// (which must reproduce the reference bit for bit), and a few session
/// rounds over the workload's documents.
fn run_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    corpus: &Corpus,
    queries: &[Vec<u32>],
) -> Result<RunOutput, String> {
    let tracer = Tracer::new();
    let tr = Some(&tracer);
    let scratch = Scratch::new(w)?;
    let mut ops = Ops::default();
    let mut checks = Checks::new(w);

    let (trainer, _) = timed(tr, "trainer.build", None, |_| build(w, seed, corpus));
    let mut trainer = trainer.map_err(|e| e.to_string())?;
    if trainer.schedule() != ScheduleKind::Resident {
        return Err(format!("{} must run the resident schedule", w.name()));
    }
    let cfg = trainer.config().clone();
    let num_chunks = trainer.num_chunks();
    let deadline = Instant::now() + Duration::from_secs_f64(0.35 * seconds);
    let mut plans = Vec::new();
    let mut untraced = Duration::ZERO;
    while plans.len() < MIN_PROBE_ITERS || Instant::now() < deadline {
        plans.push(trainer.hier_sync_plan());
        let (_, d) = timed(None, "trainer.iteration", None, |_| trainer.run_iteration());
        untraced += d;
        ops.attempted += 1;
    }
    checks.check("trainer_validate", trainer.validate());
    let history = trainer.history().to_vec();
    let reference = (
        trainer.z_snapshot(),
        trainer.global_phi(),
        trainer.global_nk(),
    );

    let path = scratch.path().join("model.cldm");
    let (saved, _) = timed(tr, "checkpoint.rotate", None, |_| {
        ModelCheckpoint::from_trainer(&trainer).save(&path)
    });
    ops.run("checkpoint save", saved);
    let checkpoint_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    serve(
        &trainer,
        seed,
        queries,
        REQUESTS_PER_BLOCK,
        tr,
        &mut ops,
        &mut checks,
    );
    drop(trainer);

    let (resumed, _) = timed(tr, "checkpoint.resume", None, |_| {
        let ckpt = ModelCheckpoint::load(&path).map_err(|e| e.to_string())?;
        let z = ckpt.z.ok_or("checkpoint without z")?;
        SessionBuilder::new()
            .corpus(corpus)
            .config(cfg.clone())
            .system(w.system(seed))
            .assignments(z, ckpt.iterations)
            .sampler_state(ckpt.sampler_state)
            .build()
            .map_err(|e| e.to_string())
    });
    if let Some(resumed) = ops.run("resume", resumed) {
        checks.check("resumed_validate", resumed.validate());
        checks.check(
            "resume_state",
            same_state(
                (
                    &resumed.z_snapshot(),
                    &resumed.global_phi(),
                    &resumed.global_nk(),
                ),
                (&reference.0, &reference.1, &reference.2),
            ),
        );
    }

    let mut probe = Probe::build(
        &tracer,
        corpus,
        &cfg,
        w.system(seed),
        num_chunks,
        Init::Random,
        &plans[0],
    );
    let sims: Vec<_> = plans.iter().map(|p| probe.iteration(&tracer, p)).collect();
    checks.check(
        "probe_bit_identity",
        same_state(
            (&probe.z_snapshot(), &probe.phi(), &probe.nk()),
            (&reference.0, &reference.1, &reference.2),
        ),
    );
    let tokens = probe.tokens();
    drop(probe);

    let docs: Vec<Document> = (0..corpus.num_docs())
        .map(|d| Document::from(corpus.doc(d)))
        .collect();
    let ingested_docs =
        crate::stream::session_rounds(w, seed, &docs, &tracer, &mut ops, &mut checks);

    let metrics = layer_metrics(
        &tracer,
        &LayerRun {
            sims: &sims,
            history: &history,
            plan: *plans.last().expect("at least one iteration"),
            tokens,
            untraced_wall_s: untraced.as_secs_f64(),
            checkpoint_bytes,
            ingested_docs,
            epoch_lags: &[],
        },
    );
    Ok(RunOutput {
        metrics,
        ops,
        checks,
    })
}
