//! Thread-count invariance: every result the system produces — topic
//! assignments, the synchronized φ, serialized checkpoints, conformance
//! log-likelihood trajectories — must be bit-identical whether the parallel
//! regions execute on 1, 2, 8 or all available OS threads, across 1- and
//! 4-GPU topologies and both the batch and streaming entry points.
//!
//! This is the stress battery for the real thread pool: the shim hands out
//! work by atomic cursor, so *which* thread touches a chunk varies run to
//! run, and only the counter-based RNG plus the fixed partial-sum tree keep
//! the numbers exact.  A scheduling-order dependence anywhere in the hot
//! paths shows up here as a signature mismatch.

use culda::baselines::CuLdaSolver;
use culda::core::{LdaConfig, ModelCheckpoint, SamplerStrategy, SessionBuilder};
use culda::gpusim::{DeviceSpec, Interconnect, MultiGpuSystem};
use culda_testkit::conformance::run_conformance;
use culda_testkit::determinism::z_signature;
use culda_testkit::{doc_lens, fixtures};
use rayon::ThreadPoolBuilder;

const K: usize = 8;
const SEED: u64 = 2019;
const ITERATIONS: usize = 5;

/// Run `op` with every parallel region pinned to `threads` OS threads.
fn with_threads<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(op)
}

/// The thread counts under test: sequential, minimal parallelism, whatever
/// the machine actually has, and 8 — more threads than the 4-GPU runs have
/// chunks, and than most hosts that run this have cores.
fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1, 2, max, 8];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn system(gpus: usize) -> MultiGpuSystem {
    if gpus == 1 {
        MultiGpuSystem::single(DeviceSpec::v100_volta(), SEED)
    } else {
        MultiGpuSystem::homogeneous(DeviceSpec::v100_volta(), gpus, SEED, Interconnect::NvLink)
    }
}

fn config(sampler: SamplerStrategy) -> LdaConfig {
    LdaConfig::with_topics(K).seed(SEED).sampler(sampler)
}

/// Train a batch session and reduce it to comparable artifacts: the z
/// signature, the dense φ, and the exact checkpoint bytes.
fn batch_artifacts(gpus: usize, sampler: SamplerStrategy) -> (u64, Vec<u32>, Vec<u8>) {
    let corpus = fixtures::medium(fixtures::FIXTURE_SEED);
    let mut trainer = SessionBuilder::new()
        .corpus(&corpus)
        .config(config(sampler))
        .system(system(gpus))
        .build()
        .unwrap();
    trainer.train(ITERATIONS);
    let ckpt = ModelCheckpoint::from_trainer(&trainer);
    let mut bytes = Vec::new();
    ckpt.write(&mut bytes).unwrap();
    let phi = trainer.global_phi().as_slice().to_vec();
    let solver = CuLdaSolver::new(trainer, "thread-invariance");
    (z_signature(&solver), phi, bytes)
}

/// Ingest-then-train through the streaming entry point, including one
/// mid-run membership change so the rebuild path runs under the pool too.
fn streaming_artifacts(gpus: usize) -> (Vec<Vec<u16>>, Vec<u32>) {
    let corpus = fixtures::tiny(fixtures::FIXTURE_SEED);
    let docs = fixtures::documents_of(&corpus);
    let (head, tail) = docs.split_at(docs.len() / 2);
    let mut session = SessionBuilder::new()
        .config(config(SamplerStrategy::SparseCgs))
        .burn_in_sweeps(1)
        .system(system(gpus))
        .build_streaming()
        .unwrap();
    session.ingest(head);
    session.train(2).unwrap();
    session.ingest(tail);
    session.train(3).unwrap();
    (
        session.z_snapshot(),
        session.global_phi().as_slice().to_vec(),
    )
}

#[test]
fn batch_training_is_bit_identical_across_thread_counts() {
    for gpus in [1, 4] {
        for sampler in [
            SamplerStrategy::SparseCgs,
            SamplerStrategy::AliasHybrid {
                rebuild_every: 2,
                mh_steps: 2,
            },
            SamplerStrategy::LightLda {
                rebuild_every: 2,
                mh_steps: 2,
                prune_below: 8,
            },
        ] {
            let baseline = with_threads(1, || batch_artifacts(gpus, sampler));
            for threads in thread_counts() {
                let run = with_threads(threads, || batch_artifacts(gpus, sampler));
                assert_eq!(
                    baseline.0, run.0,
                    "z signature diverged at {threads} threads ({gpus} GPUs, {sampler:?})"
                );
                assert_eq!(
                    baseline.1, run.1,
                    "φ diverged at {threads} threads ({gpus} GPUs, {sampler:?})"
                );
                assert_eq!(
                    baseline.2, run.2,
                    "checkpoint bytes diverged at {threads} threads ({gpus} GPUs, {sampler:?})"
                );
            }
        }
    }
}

#[test]
fn streaming_training_is_bit_identical_across_thread_counts() {
    for gpus in [1, 4] {
        let baseline = with_threads(1, || streaming_artifacts(gpus));
        for threads in thread_counts() {
            let run = with_threads(threads, || streaming_artifacts(gpus));
            assert_eq!(
                baseline, run,
                "streaming state diverged at {threads} threads ({gpus} GPUs)"
            );
        }
    }
}

#[test]
fn conformance_battery_passes_identically_under_every_thread_count() {
    // The full conformance battery — count invariants at start / mid / end
    // plus the log-likelihood trajectory — must pass under the real pool,
    // and the trajectory itself must be bit-identical: log-likelihood is a
    // float reduction over every token, so it is the most sensitive witness
    // of a summation-order dependence.
    let corpus = fixtures::small(fixtures::FIXTURE_SEED);
    let lens = doc_lens(&corpus);
    let cfg = config(SamplerStrategy::SparseCgs);
    let (alpha, beta) = (cfg.alpha, cfg.beta);

    let run = |threads: usize| {
        with_threads(threads, || {
            let trainer = SessionBuilder::new()
                .corpus(&corpus)
                .config(config(SamplerStrategy::SparseCgs))
                .system(system(1))
                .build()
                .unwrap();
            let mut solver = CuLdaSolver::new(trainer, format!("CuLDA ({threads} threads)"));
            run_conformance(&mut solver, &lens, alpha, beta, ITERATIONS)
                .unwrap_or_else(|e| panic!("conformance failed at {threads} threads: {e}"))
        })
    };

    let baseline = run(1);
    for threads in thread_counts() {
        let series = run(threads);
        assert_eq!(
            baseline.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            series.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "log-likelihood trajectory diverged at {threads} threads"
        );
    }
}

#[test]
fn checkpoint_resume_crosses_thread_counts() {
    // A checkpoint written under one thread count must resume bit-exactly
    // under another: persistence is thread-count-neutral.
    let corpus = fixtures::medium(fixtures::FIXTURE_SEED);
    let build = || {
        SessionBuilder::new()
            .corpus(&corpus)
            .config(config(SamplerStrategy::SparseCgs))
            .system(system(1))
            .build()
            .unwrap()
    };

    let straight = with_threads(2, || {
        let mut t = build();
        t.train(ITERATIONS + 3);
        (t.z_snapshot(), t.global_phi().as_slice().to_vec())
    });

    let ckpt = with_threads(thread_counts().pop().unwrap(), || {
        let mut t = build();
        t.train(ITERATIONS);
        ModelCheckpoint::from_trainer(&t)
    });
    let resumed = with_threads(1, || {
        let mut t = SessionBuilder::new()
            .corpus(&corpus)
            .config(config(SamplerStrategy::SparseCgs))
            .system(system(1))
            .assignments(ckpt.z.clone().unwrap(), ckpt.iterations)
            .sampler_state(ckpt.sampler_state.clone())
            .build()
            .unwrap();
        t.train(3);
        (t.z_snapshot(), t.global_phi().as_slice().to_vec())
    });
    assert_eq!(straight, resumed);
}

#[test]
fn wall_clock_speedup_materializes_on_multicore_hosts() {
    // Only meaningful where the host actually has cores to spend; on a
    // single-core runner the real-pool overhead is all cost and no benefit,
    // and even the "sequential" timing would be perturbed by whatever else
    // shares the core — skip outright instead of asserting on noise.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!("skipping wall-clock speedup check: only {cores} core available");
        return;
    }
    let corpus = fixtures::medium(fixtures::FIXTURE_SEED);
    let timed = |threads: usize| {
        with_threads(threads, || {
            let mut t = SessionBuilder::new()
                .corpus(&corpus)
                .config(config(SamplerStrategy::SparseCgs))
                .system(system(1))
                .build()
                .unwrap();
            let start = std::time::Instant::now();
            t.train(ITERATIONS);
            start.elapsed().as_secs_f64()
        })
    };
    // Warm up caches/allocator before timing anything.
    let _ = timed(1);
    let sequential = timed(1);
    assert!(sequential > 0.0);
    if cores >= 4 {
        let parallel = timed(cores.min(8));
        assert!(
            parallel < sequential,
            "no wall-clock benefit from {cores} cores: {parallel:.3}s vs {sequential:.3}s"
        );
    }
}
