//! Bit-exact determinism: the same seed must produce the same topic
//! assignments — across repeated runs for every solver, and for the CuLDA
//! trainer across *different simulated GPU topologies* (the counter-based
//! sampling RNG is keyed by token identity, not by block or device).

use culda::baselines::{
    AliasLda, CpuCgs, CuLdaSolver, LdaSolver, LdaStar, LightLda, SaberLda, SolverState, SparseLda,
    WarpLda,
};
use culda::core::{LdaConfig, SessionBuilder};
use culda::gpusim::{DeviceSpec, Interconnect, MultiGpuSystem};
use culda_testkit::determinism::{assert_same_assignments, state_digest, z_signature};
use culda_testkit::fixtures;

const K: usize = 8;
const SEED: u64 = 2019;
const ITERATIONS: usize = 5;

fn trained_culda(corpus: &culda::corpus::Corpus, gpus: usize, seed: u64) -> CuLdaSolver {
    let system = if gpus == 1 {
        MultiGpuSystem::single(DeviceSpec::v100_volta(), seed)
    } else {
        MultiGpuSystem::homogeneous(DeviceSpec::v100_volta(), gpus, seed, Interconnect::NvLink)
    };
    let mut trainer = SessionBuilder::new()
        .corpus(corpus)
        .config(LdaConfig::with_topics(K).seed(seed))
        .system(system)
        .build()
        .expect("trainer construction");
    trainer.train(ITERATIONS);
    CuLdaSolver::new(trainer, format!("CuLDA ({gpus} GPU)"))
}

#[test]
fn culda_same_seed_same_assignments_across_runs() {
    let corpus = fixtures::medium(fixtures::FIXTURE_SEED);
    let a = trained_culda(&corpus, 1, SEED);
    let b = trained_culda(&corpus, 1, SEED);
    assert_same_assignments(&a, &b);
    assert_eq!(z_signature(&a), z_signature(&b));
}

#[test]
fn culda_assignments_are_identical_on_1_and_4_gpu_topologies() {
    let corpus = fixtures::medium(fixtures::FIXTURE_SEED);
    let single = trained_culda(&corpus, 1, SEED);
    let quad = trained_culda(&corpus, 4, SEED);
    assert!(
        single.trainer().num_chunks() != quad.trainer().num_chunks(),
        "topologies must actually partition differently for this test to mean anything"
    );
    assert_same_assignments(&single, &quad);
    assert_eq!(z_signature(&single), z_signature(&quad));
}

#[test]
fn culda_streamed_schedule_matches_resident_schedule() {
    // Forcing M=3 chunks on one GPU switches to the streamed schedule
    // (WorkSchedule2); the arithmetic must not change, only the timing.
    let corpus = fixtures::medium(fixtures::FIXTURE_SEED);
    let resident = trained_culda(&corpus, 1, SEED);
    let system = MultiGpuSystem::single(DeviceSpec::v100_volta(), SEED);
    let mut streamed = SessionBuilder::new()
        .corpus(&corpus)
        .config(LdaConfig::with_topics(K).seed(SEED).chunks_per_gpu(3))
        .system(system)
        .build()
        .expect("trainer construction");
    streamed.train(ITERATIONS);
    let streamed = CuLdaSolver::new(streamed, "CuLDA (streamed)");
    assert_same_assignments(&resident, &streamed);
}

#[test]
fn resume_is_bit_identical_to_uninterrupted_training() {
    // `train 7` and `train 4 → checkpoint → resume 3` must produce the same
    // assignments: the checkpoint carries the iteration counter, so the
    // counter-based RNG streams line up exactly across the resume.
    use culda::core::ModelCheckpoint;
    let corpus = fixtures::medium(fixtures::FIXTURE_SEED);
    let straight = trained_culda(&corpus, 1, SEED); // ITERATIONS = 5

    let system = MultiGpuSystem::single(DeviceSpec::v100_volta(), SEED);
    let mut first_leg = SessionBuilder::new()
        .corpus(&corpus)
        .config(LdaConfig::with_topics(K).seed(SEED))
        .system(system)
        .build()
        .unwrap();
    first_leg.train(2);
    let ckpt = ModelCheckpoint::from_trainer(&first_leg);
    assert_eq!(ckpt.iterations, 2);

    let system = MultiGpuSystem::single(DeviceSpec::v100_volta(), SEED);
    let mut resumed = SessionBuilder::new()
        .corpus(&corpus)
        .config(LdaConfig::with_topics(K).seed(SEED))
        .system(system)
        .assignments(ckpt.z.clone().unwrap(), ckpt.iterations)
        .build()
        .unwrap();
    resumed.train(ITERATIONS - 2);
    assert_eq!(resumed.completed_iterations(), ITERATIONS as u64);
    let resumed = CuLdaSolver::new(resumed, "CuLDA (resumed)");
    assert_same_assignments(&straight, &resumed);
}

#[test]
fn different_seeds_actually_diverge() {
    let corpus = fixtures::medium(fixtures::FIXTURE_SEED);
    let a = trained_culda(&corpus, 1, SEED);
    let b = trained_culda(&corpus, 1, SEED + 1);
    assert_ne!(z_signature(&a), z_signature(&b));
}

/// Four single-GPU sparse-CGS iterations, pinned by state digest at the
/// paper's K = 256 and at K = 100, which leaves the 32-way p2 tree's last
/// node partly filled.  The values were recorded with the kernel that read
/// `n_k` and built its per-word state in fresh buffers in every block and
/// searched with hand-written loops; the kernel must keep every bit of that
/// trajectory.
#[test]
fn sparse_cgs_batch_trajectory_is_pinned() {
    let corpus = fixtures::medium(fixtures::FIXTURE_SEED);
    for (k, pinned) in [(256, 0xac21_ea86_5cb4_2c78), (100, 0xf993_cdbc_d177_f223)] {
        let mut trainer = SessionBuilder::new()
            .corpus(&corpus)
            .config(LdaConfig::with_topics(k).seed(SEED))
            .system(MultiGpuSystem::single(DeviceSpec::v100_volta(), SEED))
            .build()
            .unwrap();
        trainer.train(4);
        trainer.validate().unwrap();
        let digest = state_digest(
            &trainer.z_snapshot(),
            &trainer.global_phi(),
            &trainer.global_nk(),
        );
        assert_eq!(digest, pinned, "K = {k}");
    }
}

#[test]
fn every_baseline_is_run_to_run_deterministic() {
    let corpus = fixtures::small(fixtures::FIXTURE_SEED);
    type Builder = fn(&culda::corpus::Corpus) -> Box<dyn DeterministicSolver>;
    let builders: Vec<(&str, Builder)> = vec![
        ("cpu_cgs", |c| {
            Box::new(CpuCgs::with_paper_priors(c, K, SEED))
        }),
        ("sparselda", |c| {
            Box::new(SparseLda::with_paper_priors(c, K, SEED))
        }),
        ("alias_lda", |c| {
            Box::new(AliasLda::with_paper_priors(c, K, SEED))
        }),
        ("lightlda", |c| {
            Box::new(LightLda::with_paper_priors(c, K, SEED))
        }),
        ("warplda", |c| {
            Box::new(WarpLda::with_paper_priors(c, K, SEED))
        }),
        ("saberlda", |c| {
            Box::new(SaberLda::on_gtx_1080(c, K, SEED).expect("saberlda"))
        }),
        ("lda_star", |c| Box::new(LdaStar::new(c, K, 8, SEED))),
    ];
    for (label, build) in builders {
        let mut a = build(&corpus);
        let mut b = build(&corpus);
        for _ in 0..ITERATIONS {
            a.run_iteration();
            b.run_iteration();
        }
        assert_eq!(
            z_signature(a.as_state()),
            z_signature(b.as_state()),
            "{label}: same seed produced different assignments"
        );
    }
}

/// Object-safe bundle of the two traits the determinism loop needs.
trait DeterministicSolver {
    fn run_iteration(&mut self) -> f64;
    fn as_state(&self) -> &dyn SolverState;
}

impl<T: LdaSolver + SolverState> DeterministicSolver for T {
    fn run_iteration(&mut self) -> f64 {
        LdaSolver::run_iteration(self)
    }
    fn as_state(&self) -> &dyn SolverState {
        self
    }
}
