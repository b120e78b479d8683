//! The streaming workload: a sliding window of documents trained online
//! while a closed-loop client folds in queries against published
//! snapshots, with checkpoint rotation and a final resume.

use crate::layers::{layer_metrics, LayerRun};
use crate::probe::{Init, Probe};
use crate::report::{block_rate_median, median, peak_rss_mib, Metrics};
use crate::trace::{timed, Tracer};
use crate::workloads::{
    check_llpt, closed_loop_client, llpt, query_options, same, same_state, Checks, Ops, RunOutput,
    Scratch, Workload,
};
use culda_core::checkpoint::rotation;
use culda_core::{LdaConfig, ModelCheckpoint, SessionBuilder, StreamingOptions, StreamingSession};
use culda_corpus::Document;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Documents that enter (and leave) the window per round.
pub const ROUND_DOCS: usize = 32;
/// A checkpoint set is rotated out every this many rounds.
const ROTATE_EVERY: usize = 4;
const KEEP_LAST: usize = 2;
/// Log-likelihood and simulated throughput are taken after this many
/// rounds, so they do not depend on how fast the host is.
const FIXED_ROUNDS: usize = 6;
/// Set-up is repeated this many times; `setup_s` is the median.
const SETUP_REPS: usize = 7;
/// Share of `--seconds` the window loop runs for.
const LOOP_SHARE: f64 = 0.8;
/// Iterations the traced run drives through the probe.
const PROBE_ITERS: usize = 6;

fn options() -> StreamingOptions {
    StreamingOptions {
        burn_in_sweeps: 1,
        keep_last: KEEP_LAST,
        ..StreamingOptions::default()
    }
}

/// `build_streaming` plus the seed ingest.
pub fn build_session(
    w: Workload,
    seed: u64,
    seed_docs: &[Document],
    burn_in_sweeps: usize,
) -> Result<StreamingSession, String> {
    let mut session = SessionBuilder::new()
        .config(w.config(seed))
        .system(w.system(seed))
        .burn_in_sweeps(burn_in_sweeps)
        .keep_last(KEEP_LAST)
        .build_streaming()
        .map_err(|e| e.to_string())?;
    session.try_ingest(seed_docs).map_err(|e| e.to_string())?;
    Ok(session)
}

/// Log-likelihood per token of a session's current model.
fn session_llpt(session: &mut StreamingSession, cfg: &LdaConfig) -> f64 {
    let ckpt = session.to_checkpoint();
    llpt(&ckpt.theta, &ckpt.phi, &ckpt.nk, cfg)
}

/// The live window: documents arrive from `pool` in order (wrapping
/// around), and the oldest leave.
pub struct Window<'a> {
    pool: &'a [Document],
    next: usize,
    live: VecDeque<u64>,
    publish: bool,
    pub docs_in: usize,
    pub rounds: usize,
    /// Per round: tokens its iterations sampled and their wall seconds.
    pub iters: Vec<(f64, f64)>,
    pub sim_tokens: u64,
    pub sim_s: f64,
}

impl<'a> Window<'a> {
    pub fn new(session: &StreamingSession, pool: &'a [Document], publish: bool) -> Self {
        Window {
            pool,
            next: 0,
            live: session.live_uids().into(),
            publish,
            docs_in: 0,
            rounds: 0,
            iters: Vec::new(),
            sim_tokens: 0,
            sim_s: 0.0,
        }
    }

    /// One round: ingest, retire the oldest, one iteration that rebuilds
    /// the trainer and one steady iteration, then (if serving) publish.
    pub fn round(
        &mut self,
        session: &mut StreamingSession,
        tracer: Option<&Tracer>,
        ops: &mut Ops,
    ) {
        let batch: Vec<Document> = (0..ROUND_DOCS)
            .map(|i| self.pool[(self.next + i) % self.pool.len()].clone())
            .collect();
        self.next += ROUND_DOCS;
        let (uids, _) = timed(tracer, "session.ingest", None, |_| {
            session.try_ingest(&batch)
        });
        if let Some(uids) = ops.run("ingest", uids) {
            self.live.extend(uids);
            self.docs_in += batch.len();
        }
        let oldest: Vec<u64> = self.live.drain(..ROUND_DOCS.min(self.live.len())).collect();
        let (retired, _) = timed(tracer, "session.retire", None, |_| session.retire(&oldest));
        ops.run("retire", retired);
        let mut sampled = (0.0, 0.0);
        for name in ["session.iter_first", "session.iter_steady"] {
            let (stats, d) = timed(tracer, name, None, |_| session.run_iteration());
            if let Some(s) = ops.run("iteration", stats) {
                sampled.0 += s.tokens_processed as f64;
                sampled.1 += d.as_secs_f64();
                self.sim_tokens += s.tokens_processed;
                self.sim_s += s.sim_time_s;
            }
        }
        self.iters.push(sampled);
        if self.publish {
            let (r, _) = timed(tracer, "serve.publish", None, |_| {
                session.publish_snapshot()
            });
            ops.run("publish", r);
        }
        self.rounds += 1;
    }
}

/// Rotate a checkpoint set into `dir`; returns its stem and bytes written.
fn rotate(
    session: &mut StreamingSession,
    dir: &Path,
    tracer: Option<&Tracer>,
    ops: &mut Ops,
) -> Option<(PathBuf, u64)> {
    let (stem, _) = timed(tracer, "checkpoint.rotate", None, |_| {
        session.rotate_checkpoints(dir, KEEP_LAST)
    });
    let stem = ops.run("rotate", stem)?;
    let bytes = [
        rotation::MODEL_EXT,
        rotation::CORPUS_EXT,
        rotation::META_EXT,
    ]
    .iter()
    .filter_map(|ext| std::fs::metadata(stem.with_extension(ext)).ok())
    .map(|m| m.len())
    .sum();
    Some((stem, bytes))
}

/// A few window rounds over a batch workload's own documents, so its
/// traced run measures the session layer too.
pub fn session_rounds(
    w: Workload,
    seed: u64,
    docs: &[Document],
    tracer: &Tracer,
    ops: &mut Ops,
    checks: &mut Checks,
) -> usize {
    const SEED_DOCS: usize = 2 * ROUND_DOCS;
    const ROUNDS: usize = 3;
    let Some(mut session) = ops.run(
        "session build",
        build_session(w, seed, &docs[..SEED_DOCS], options().burn_in_sweeps),
    ) else {
        return 0;
    };
    let mut window = Window::new(&session, &docs[SEED_DOCS..], false);
    for _ in 0..ROUNDS {
        window.round(&mut session, Some(tracer), ops);
    }
    checks.check("session_validate", session.validate());
    window.docs_in
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<RunOutput, String> {
    let w = Workload::StreamWindowServe;
    let tracer = traced.then(Tracer::new);
    let tr = tracer.as_ref();
    let (corpus, queries) = w.inputs(seed);
    let docs: Vec<Document> = (0..corpus.num_docs())
        .map(|d| Document::from(corpus.doc(d)))
        .collect();
    let (seed_docs, pool) = docs.split_at(docs.len() / 2);
    let scratch = Scratch::new(w)?;
    let mut ops = Ops::default();
    let mut checks = Checks::new(w);
    let mut m = Metrics::default();

    let mut setup = Vec::new();
    let mut session = None;
    for _ in 0..SETUP_REPS {
        drop(session.take());
        let (s, d) = timed(tr, "session.build", None, |_| {
            build_session(w, seed, seed_docs, options().burn_in_sweeps)
        });
        setup.push(d.as_secs_f64());
        session = Some(s?);
    }
    let mut session = session.expect("set-up ran at least once");
    let cfg = session.config().clone();
    let k = cfg.num_topics;
    // Iteration 0 is the seed window before any sampling: the stable random
    // initialisation, without the burn-in sweep ingest runs.
    let llpt0 = session_llpt(&mut build_session(w, seed, seed_docs, 0)?, &cfg);

    let snapshots = session.snapshots();
    let (r, _) = timed(tr, "serve.publish", None, |_| session.publish_snapshot());
    ops.run("publish", r);
    let stop = AtomicBool::new(false);
    let mut window = Window::new(&session, pool, true);
    let mut fixed = None;
    // Per round (rotation included): documents cycled and wall seconds.
    let mut rounds = Vec::new();
    let opts = query_options(seed);
    let (client, client_ops, client_checks, lags) = std::thread::scope(|s| {
        let client = s.spawn(|| {
            let mut ops = Ops::default();
            let mut checks = Checks::new(w);
            let mut lags = Vec::new();
            let stats = closed_loop_client(
                tr,
                &queries,
                k,
                |_| !stop.load(Ordering::Acquire),
                &mut ops,
                &mut checks,
                |req| {
                    let reply = snapshots
                        .infer_batch(req, opts)
                        .map_err(|e| e.to_string())?;
                    lags.push(snapshots.epoch().saturating_sub(reply.epoch) as f64);
                    Ok(reply.results)
                },
            );
            (stats, ops, checks, lags)
        });
        let deadline = Instant::now() + Duration::from_secs_f64(LOOP_SHARE * seconds);
        while window.rounds < FIXED_ROUNDS.max(2 * ROTATE_EVERY) || Instant::now() < deadline {
            let start = Instant::now();
            let before = window.docs_in;
            window.round(&mut session, tr, &mut ops);
            if window.rounds.is_multiple_of(ROTATE_EVERY) {
                rotate(&mut session, scratch.path(), tr, &mut ops);
            }
            rounds.push((
                (window.docs_in - before) as f64,
                start.elapsed().as_secs_f64(),
            ));
            if window.rounds == FIXED_ROUNDS {
                let sim = window.sim_tokens as f64 / window.sim_s;
                fixed = Some((session_llpt(&mut session, &cfg), sim));
            }
        }
        stop.store(true, Ordering::Release);
        client.join().expect("query client panicked")
    });
    ops.attempted += client_ops.attempted;
    ops.failed += client_ops.failed;
    checks.failures.extend(client_checks.failures);
    drop(snapshots);
    let (llpt_fixed, sim_tps) = fixed.expect("the loop runs at least FIXED_ROUNDS rounds");
    checks.check("session_validate", session.validate());
    checks.check("llpt", check_llpt(llpt0, llpt_fixed));

    // End with a rotation and a resume, which must restore the live state.
    let (stem, checkpoint_bytes) =
        rotate(&mut session, scratch.path(), tr, &mut ops).ok_or("final rotation failed")?;
    let (resumed, _) = timed(tr, "checkpoint.resume", None, |_| {
        StreamingSession::resume_with(scratch.path(), cfg.clone(), w.system(seed), options())
    });
    if let Some(resumed) = ops.run("resume", resumed) {
        checks.check("resumed_validate", resumed.validate());
        checks.check(
            "resume_state",
            same_state(
                (
                    &resumed.z_snapshot(),
                    resumed.global_phi(),
                    resumed.global_nk(),
                ),
                (
                    &session.z_snapshot(),
                    session.global_phi(),
                    session.global_nk(),
                ),
            ),
        );
    }

    // Rates are medians over blocks of rounds that each hold one rotation.
    m.set(
        "train_tokens_per_s",
        block_rate_median(&window.iters, ROTATE_EVERY),
        "tokens/s",
    );
    m.set("sim_tokens_per_s", sim_tps, "tokens/s");
    m.set("setup_s", median(&setup), "s");
    m.set("peak_rss_mib", peak_rss_mib().unwrap_or(0.0), "MiB");
    m.set("neg_llpt_final", -llpt_fixed, "nats/token");
    m.set(
        "stream_docs_per_s",
        block_rate_median(&rounds, ROTATE_EVERY),
        "docs/s",
    );
    client.record(&mut m);

    if let Some(tracer) = &tracer {
        // Reference: the session's own iterations from the rotated state.
        let trainer = session
            .trainer()
            .ok_or("no trainer after the final rotation")?;
        let plan = trainer.hier_sync_plan();
        let num_chunks = trainer.num_chunks();
        let before = session.history().len();
        let start = Instant::now();
        let r = session.train(PROBE_ITERS).map(|_| ());
        let untraced_wall_s = start.elapsed().as_secs_f64();
        ops.run("iteration", r);
        let after_plan = session.trainer().map(|t| t.hier_sync_plan());
        checks.check(
            "reference_plan_fixed",
            same("sync plan", &Some(plan), &after_plan),
        );
        let history = session.history()[before..].to_vec();

        // Probe: the same iterations from the rotated checkpoint on disk.
        let ckpt = ModelCheckpoint::load(stem.with_extension(rotation::MODEL_EXT))
            .map_err(|e| e.to_string())?;
        let live = culda_corpus::load_corpus(stem.with_extension(rotation::CORPUS_EXT))
            .map_err(|e| e.to_string())?;
        let z = ckpt.z.as_deref().ok_or("checkpoint without z")?;
        // What every membership change costs the session: a trainer built
        // from the live corpus and the current assignments.
        let (built, _) = timed(tr, "trainer.build", None, |_| {
            SessionBuilder::new()
                .corpus(&live)
                .config(cfg.clone())
                .system(w.system(seed))
                .assignments(z.to_vec(), ckpt.iterations)
                .build()
        });
        ops.run("trainer build", built);
        let mut probe = Probe::build(
            tracer,
            &live,
            &cfg,
            w.system(seed),
            num_chunks,
            Init::Resume {
                z,
                iterations: ckpt.iterations,
                sampler_state: ckpt.sampler_state.as_ref(),
            },
            &plan,
        );
        let sims: Vec<_> = (0..PROBE_ITERS)
            .map(|_| probe.iteration(tracer, &plan))
            .collect();
        checks.check(
            "probe_bit_identity",
            same_state(
                (&probe.z_snapshot(), &probe.phi(), &probe.nk()),
                (
                    &session.z_snapshot(),
                    session.global_phi(),
                    session.global_nk(),
                ),
            ),
        );
        m = layer_metrics(
            tracer,
            &LayerRun {
                sims: &sims,
                history: &history,
                plan,
                tokens: probe.tokens(),
                untraced_wall_s,
                checkpoint_bytes,
                ingested_docs: window.docs_in,
                epoch_lags: &lags,
            },
        );
    }
    Ok(RunOutput {
        metrics: m,
        ops,
        checks,
    })
}
