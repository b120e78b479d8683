//! # culda-testkit
//!
//! Shared machinery for the cross-sampler test harness:
//!
//! * **Fixtures** ([`fixtures`]): seeded synthetic corpora in standard sizes,
//!   so every test in the workspace exercises the same reproducible inputs.
//! * **Conformance** ([`conformance`]): a sampler-agnostic invariant battery
//!   run against anything implementing [`LdaSolver`] + [`SolverState`] —
//!   count conservation, non-negativity, φ/θ normalization, and
//!   monotone-ish log-likelihood.  The CuLDA trainer and all seven baseline
//!   solvers are driven through the *same* checks.
//! * **Determinism** ([`determinism`]): signatures of topic-assignment state,
//!   used to prove that the same seed produces bit-identical assignments
//!   across runs and across GPU topologies.
//!
//! The crate deliberately contains no `#[test]` functions of its own beyond
//! unit tests of the helpers: the suites instantiating it live in the
//! workspace root's `tests/` directory (tier-1) and can be reused by any
//! future solver by implementing the two traits.

#![warn(missing_docs)]

pub use culda_baselines::{LdaSolver, SolverState};

pub mod fixtures {
    //! Seeded synthetic corpora in standard sizes.

    use culda_corpus::{Corpus, DatasetProfile, LdaGenerator};

    /// The seed used by every standard fixture.
    pub const FIXTURE_SEED: u64 = 0xC01DA;

    /// A tiny corpus (~60 docs) for smoke tests.
    pub fn tiny(seed: u64) -> Corpus {
        DatasetProfile {
            name: "testkit-tiny".into(),
            num_docs: 60,
            vocab_size: 50,
            avg_doc_len: 12.0,
            zipf_exponent: 1.05,
            doc_len_sigma: 0.4,
        }
        .generate(seed)
    }

    /// A small corpus (~200 docs) sized for per-solver conformance runs.
    pub fn small(seed: u64) -> Corpus {
        DatasetProfile {
            name: "testkit-small".into(),
            num_docs: 200,
            vocab_size: 120,
            avg_doc_len: 20.0,
            zipf_exponent: 1.05,
            doc_len_sigma: 0.4,
        }
        .generate(seed)
    }

    /// A corpus with planted topic structure (and the true φ it was drawn
    /// from), for tests that check samplers actually *recover* structure.
    pub fn planted(num_topics: usize, seed: u64) -> (Corpus, Vec<Vec<f64>>) {
        LdaGenerator::small(num_topics, 100, 220, 22.0).generate(seed)
    }

    /// A medium corpus that forces multi-chunk layouts when combined with
    /// `chunks_per_gpu`, for topology-determinism tests.
    pub fn medium(seed: u64) -> Corpus {
        DatasetProfile::nytimes()
            .scaled_to_tokens(8_000)
            .generate(seed)
    }

    /// The documents of a corpus as ingestible [`culda_corpus::Document`]s,
    /// in corpus order — the shape `StreamingSession::ingest` consumes.
    pub fn documents_of(corpus: &Corpus) -> Vec<culda_corpus::Document> {
        (0..corpus.num_docs())
            .map(|d| culda_corpus::Document::from(corpus.doc(d)))
            .collect()
    }

    /// Split a corpus into `batches` contiguous mini-batches of documents
    /// (the last batch takes the remainder).  Streaming-determinism tests
    /// ingest these separately and compare against ingesting
    /// [`documents_of`] in one call.
    pub fn doc_batches(corpus: &Corpus, batches: usize) -> Vec<Vec<culda_corpus::Document>> {
        let docs = documents_of(corpus);
        let per = docs.len().div_ceil(batches.max(1)).max(1);
        docs.chunks(per).map(|c| c.to_vec()).collect()
    }

    /// Deterministically permute a corpus's word ids (Fisher–Yates over an
    /// LCG stream).  The synthetic generators emit ids in Zipf-rank order —
    /// word 0 is the most frequent — whereas real corpora have alphabetical
    /// vocabularies with frequency spread across the id range; tests and
    /// examples that depend on the realistic spread (e.g. the sharded-sync
    /// overlap win) shuffle their corpora through this.
    pub fn shuffled_vocab(corpus: &Corpus) -> Corpus {
        use culda_corpus::CorpusBuilder;
        let v = corpus.vocab_size();
        let mut perm: Vec<u32> = (0..v as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..v).rev() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (x >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let mut b = CorpusBuilder::new(v);
        for d in 0..corpus.num_docs() {
            let doc: Vec<u32> = corpus.doc(d).iter().map(|&w| perm[w as usize]).collect();
            b.push_doc(&doc);
        }
        b.build()
    }
}

pub mod conformance {
    //! The sampler-agnostic invariant battery.

    use super::{LdaSolver, SolverState};

    /// A solver that can be driven by the conformance suite.
    pub trait ConformantSolver: LdaSolver + SolverState {}
    impl<T: LdaSolver + SolverState + ?Sized> ConformantSolver for T {}

    /// How many nats/token the likelihood may fall below its running
    /// maximum before the trajectory stops counting as "monotone-ish".
    /// Gibbs likelihood trajectories are stochastic, so small dips are
    /// expected; sustained collapse is a bug.
    pub const MAX_DRAWDOWN_NATS: f64 = 0.35;

    /// Every count-matrix invariant that must hold at any point in
    /// training, checked through [`SolverState`] alone:
    ///
    /// 1. `n_k` totals sum to the corpus token count (conservation);
    /// 2. φ row sums equal `n_k` per topic (φ/`n_k` consistency);
    /// 3. θ row `d` sums to the length of document `d` (θ conservation);
    /// 4. the column sums of θ equal `n_k` (θ/φ agree on topic masses);
    /// 5. every `z` assignment is a valid topic id and regenerating θ from
    ///    `z` reproduces the reported θ (assignments ↔ counts consistency);
    /// 6. the normalized φ̂/θ̂ rows are proper distributions (sum to 1).
    ///
    /// u32 storage makes literal negativity unrepresentable, so the
    /// non-negativity requirement is checked at its actual failure mode:
    /// underflow, which invariants 1–4 catch (a wrapped count inflates a
    /// sum by ~2³²).
    pub fn check_invariants(
        solver: &dyn ConformantSolver,
        doc_lens: &[usize],
        alpha: f64,
        beta: f64,
    ) -> Result<(), String> {
        let name = solver.name();
        let theta = solver.doc_topic_counts();
        let phi = solver.topic_word_counts();
        let nk = solver.topic_totals_vec();
        let z = solver.z_assignments();
        let tokens: u64 = doc_lens.iter().map(|&l| l as u64).sum();
        let k = nk.len();

        // 1. n_k conservation.
        let nk_sum: u64 = nk.iter().sum();
        if nk_sum != tokens {
            return Err(format!("{name}: n_k sums to {nk_sum}, corpus has {tokens}"));
        }

        // 2. φ rows match n_k.
        if phi.len() != k {
            return Err(format!("{name}: φ has {} rows, expected K={k}", phi.len()));
        }
        for (topic, row) in phi.iter().enumerate() {
            let sum: u64 = row.iter().map(|&c| c as u64).sum();
            if sum != nk[topic] {
                return Err(format!(
                    "{name}: φ row {topic} sums to {sum}, n_k says {}",
                    nk[topic]
                ));
            }
        }

        // 3. θ rows match document lengths.
        if theta.len() != doc_lens.len() {
            return Err(format!(
                "{name}: θ has {} rows, corpus has {} documents",
                theta.len(),
                doc_lens.len()
            ));
        }
        let mut theta_col_sums = vec![0u64; k];
        for (d, row) in theta.iter().enumerate() {
            let sum: u64 = row.iter().map(|&c| c as u64).sum();
            if sum != doc_lens[d] as u64 {
                return Err(format!(
                    "{name}: θ row {d} sums to {sum}, document has {} tokens",
                    doc_lens[d]
                ));
            }
            for (topic, &c) in row.iter().enumerate() {
                theta_col_sums[topic] += c as u64;
            }
        }

        // 4. θ column sums equal n_k.
        for topic in 0..k {
            if theta_col_sums[topic] != nk[topic] {
                return Err(format!(
                    "{name}: θ column {topic} sums to {}, n_k says {}",
                    theta_col_sums[topic], nk[topic]
                ));
            }
        }

        // 5. z is valid and regenerates θ.
        if z.len() != doc_lens.len() {
            return Err(format!(
                "{name}: z covers {} documents, corpus has {}",
                z.len(),
                doc_lens.len()
            ));
        }
        for (d, zd) in z.iter().enumerate() {
            if zd.len() != doc_lens[d] {
                return Err(format!(
                    "{name}: z row {d} has {} tokens, document has {}",
                    zd.len(),
                    doc_lens[d]
                ));
            }
            let mut counts = vec![0u32; k];
            for &topic in zd {
                if topic as usize >= k {
                    return Err(format!("{name}: z assigns invalid topic {topic} (K={k})"));
                }
                counts[topic as usize] += 1;
            }
            if counts != theta[d] {
                return Err(format!("{name}: θ row {d} does not match a recount of z"));
            }
        }

        // 6. Normalized rows are proper distributions.
        let v = phi.first().map(|r| r.len()).unwrap_or(0);
        for (topic, row) in phi.iter().enumerate() {
            let denom = nk[topic] as f64 + beta * v as f64;
            let total: f64 = row.iter().map(|&c| (c as f64 + beta) / denom).sum();
            if (total - 1.0).abs() > 1e-6 {
                return Err(format!("{name}: normalized φ̂ row {topic} sums to {total}"));
            }
        }
        for (d, row) in theta.iter().enumerate() {
            let denom = doc_lens[d] as f64 + alpha * k as f64;
            let total: f64 = row.iter().map(|&c| (c as f64 + alpha) / denom).sum();
            if (total - 1.0).abs() > 1e-6 {
                return Err(format!("{name}: normalized θ̂ row {d} sums to {total}"));
            }
        }

        Ok(())
    }

    /// Check a per-iteration log-likelihood trajectory is "monotone-ish":
    /// it must end above where it started, and never fall more than
    /// [`MAX_DRAWDOWN_NATS`] below its running maximum.
    pub fn check_loglik_trajectory(name: &str, series: &[f64]) -> Result<(), String> {
        if series.len() < 2 {
            return Err(format!("{name}: trajectory too short ({})", series.len()));
        }
        for (i, &ll) in series.iter().enumerate() {
            if !ll.is_finite() || ll >= 0.0 {
                return Err(format!(
                    "{name}: log-likelihood/token at iteration {i} is {ll} \
                     (must be finite and negative)"
                ));
            }
        }
        let first = series[0];
        let last = *series.last().unwrap();
        if last <= first {
            return Err(format!(
                "{name}: log-likelihood did not improve ({first:.4} → {last:.4})"
            ));
        }
        let mut running_max = f64::NEG_INFINITY;
        for (i, &ll) in series.iter().enumerate() {
            running_max = running_max.max(ll);
            if ll < running_max - MAX_DRAWDOWN_NATS {
                return Err(format!(
                    "{name}: log-likelihood collapsed at iteration {i}: \
                     {ll:.4} is more than {MAX_DRAWDOWN_NATS} nats below the \
                     running maximum {running_max:.4}"
                ));
            }
        }
        Ok(())
    }

    /// Drive `solver` for `iterations` sweeps, checking [`check_invariants`]
    /// at start, mid-run and end, and the likelihood trajectory over the
    /// whole run.  Returns the trajectory so callers can assert more.
    pub fn run_conformance(
        solver: &mut dyn ConformantSolver,
        doc_lens: &[usize],
        alpha: f64,
        beta: f64,
        iterations: usize,
    ) -> Result<Vec<f64>, String> {
        check_invariants(solver, doc_lens, alpha, beta)?;
        let mut series = Vec::with_capacity(iterations + 1);
        series.push(solver.loglik_per_token());
        for i in 0..iterations {
            let dt = solver.run_iteration();
            if !(dt > 0.0) || !dt.is_finite() {
                return Err(format!(
                    "{}: iteration {i} reported non-positive time {dt}",
                    solver.name()
                ));
            }
            series.push(solver.loglik_per_token());
            if i == iterations / 2 {
                check_invariants(solver, doc_lens, alpha, beta)?;
            }
        }
        check_invariants(solver, doc_lens, alpha, beta)?;
        check_loglik_trajectory(&solver.name(), &series)?;
        Ok(series)
    }
}

pub mod determinism {
    //! Signatures of assignment state for bit-exactness tests.

    use super::SolverState;
    use culda_sparse::DenseMatrix;

    /// A fully positional FNV-1a signature of the complete topic-assignment
    /// state: any single changed assignment changes the signature.
    pub fn z_signature(solver: &dyn SolverState) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut absorb = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (d, zd) in solver.z_assignments().iter().enumerate() {
            absorb(d as u64 ^ 0x5555_5555_5555_5555);
            for &topic in zd {
                absorb(topic as u64);
            }
        }
        h
    }

    /// 64-bit FNV-1a over z (each row prefixed with its length), row-major
    /// φ (prefixed with its column count) and n_k: a digest of a trainer's
    /// or a session's sampled state, independent of file formats, for
    /// pinning a trajectory.
    pub fn state_digest(z: &[Vec<u16>], phi: &DenseMatrix<u32>, nk: &[i64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut absorb = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for row in z {
            absorb(&(row.len() as u64).to_le_bytes());
            for t in row {
                absorb(&t.to_le_bytes());
            }
        }
        absorb(&(phi.cols() as u64).to_le_bytes());
        for k in 0..phi.rows() {
            for &count in phi.row(k) {
                absorb(&count.to_le_bytes());
            }
        }
        for n in nk {
            absorb(&n.to_le_bytes());
        }
        h
    }

    /// Assert two solvers hold identical assignments, reporting the first
    /// differing document on failure.
    pub fn assert_same_assignments(a: &dyn SolverState, b: &dyn SolverState) {
        let za = a.z_assignments();
        let zb = b.z_assignments();
        assert_eq!(za.len(), zb.len(), "different document counts");
        for (d, (ra, rb)) in za.iter().zip(&zb).enumerate() {
            assert_eq!(ra, rb, "assignments differ at document {d}");
        }
    }
}

/// Per-document token counts of a corpus (the shape the conformance checks
/// need).
pub fn doc_lens(corpus: &culda_corpus::Corpus) -> Vec<usize> {
    (0..corpus.num_docs())
        .map(|d| corpus.doc(d).len())
        .collect()
}

pub mod golden {
    //! Golden on-disk checkpoint files, one per historical format version.
    //!
    //! The bytes are committed under `fixtures/` and embedded here; they are
    //! the back-compat contract of [`culda_core::ModelCheckpoint::read`]:
    //! every file must keep loading, forever, with the documented fallback
    //! semantics (v1 → no `z`, v1/v2 → sparse-CGS strategy, v1–v3 → no
    //! sampler resume state).  All four store the *same* trained model —
    //! sparse-CGS on the tiny fixture, K = 8 — so loaders can also assert
    //! the matrices agree across versions.

    /// A v1 file: model matrices only.
    pub const V1: &[u8] = include_bytes!("../fixtures/golden-v1.cldm");
    /// A v2 file: adds the z / iterations / seed section.
    pub const V2: &[u8] = include_bytes!("../fixtures/golden-v2.cldm");
    /// A v3 file: adds the sampler-strategy tag.
    pub const V3: &[u8] = include_bytes!("../fixtures/golden-v3.cldm");
    /// A v4 file: adds the sampler-resume flag.
    pub const V4: &[u8] = include_bytes!("../fixtures/golden-v4.cldm");

    /// Every golden file with its format version, oldest first.
    pub fn all() -> [(u32, &'static [u8]); 4] {
        [(1, V1), (2, V2), (3, V3), (4, V4)]
    }
}

#[cfg(test)]
mod golden_bless {
    //! Regeneration machinery for the committed golden checkpoint files in
    //! `fixtures/`.  The committed bytes are the contract — they must keep
    //! loading forever — so the bless test is `#[ignore]`d and only run by
    //! hand when a *new* historical version is frozen, never on format
    //! drift.

    use culda_core::{LdaConfig, ModelCheckpoint, SessionBuilder};
    use culda_gpusim::{DeviceSpec, MultiGpuSystem};

    /// The one standard model every golden file stores: sparse-CGS on the
    /// tiny fixture, K = 8, trained 3 iterations.
    pub fn golden_model() -> ModelCheckpoint {
        let corpus = crate::fixtures::tiny(crate::fixtures::FIXTURE_SEED);
        let mut trainer = SessionBuilder::new()
            .corpus(&corpus)
            .config(LdaConfig::with_topics(8).seed(31))
            .system(MultiGpuSystem::single(DeviceSpec::v100_volta(), 31))
            .build()
            .unwrap();
        trainer.train(3);
        ModelCheckpoint::from_trainer(&trainer)
    }

    /// Reconstruct the byte stream a version-`version` writer produced for
    /// [`golden_model`]: older formats are strict prefixes of the current
    /// stream (with the version stamp patched), because every format bump
    /// only ever appended trailing sections.
    pub fn synthesize(version: u32) -> Vec<u8> {
        let model = golden_model();
        match version {
            2..=5 => {
                let mut buf = Vec::new();
                model.write(&mut buf).unwrap();
                buf[4..8].copy_from_slice(&version.to_le_bytes());
                // v4 lacks nothing here (sparse strategy, no resume state);
                // v3 drops the resume flag; v2 drops the strategy tag too.
                if version == 3 {
                    buf.truncate(buf.len() - 1);
                }
                if version == 2 {
                    buf.truncate(buf.len() - 2);
                }
                buf
            }
            1 => {
                // v1 ends after θ: no z section (flag + iterations + seed =
                // 17 bytes when z is absent), no strategy tag, no flag.
                let mut headless = golden_model();
                headless.z = None;
                let mut buf = Vec::new();
                headless.write(&mut buf).unwrap();
                buf[4..8].copy_from_slice(&1u32.to_le_bytes());
                buf.truncate(buf.len() - 19);
                buf
            }
            other => panic!("no golden fixture recipe for version {other}"),
        }
    }

    #[test]
    #[ignore = "regenerates the committed golden fixtures in fixtures/"]
    fn bless_golden_fixtures() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        std::fs::create_dir_all(&dir).unwrap();
        for version in 1..=4u32 {
            let path = dir.join(format!("golden-v{version}.cldm"));
            std::fs::write(&path, synthesize(version)).unwrap();
            eprintln!("blessed {}", path.display());
        }
    }

    #[test]
    fn committed_fixtures_match_the_recipe() {
        // If this fails, either the current writer changed the byte layout
        // of a *historical* section (a back-compat break — fix the writer)
        // or a new trailing section was appended (update `synthesize`'s
        // truncation offsets; the committed files themselves must NOT be
        // re-blessed).
        for (version, bytes) in crate::golden::all() {
            assert_eq!(
                synthesize(version),
                bytes,
                "golden v{version} fixture no longer matches the writer-derived recipe"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::conformance::{check_invariants, check_loglik_trajectory};
    use super::*;
    use culda_baselines::CpuCgs;

    #[test]
    fn fixtures_are_reproducible() {
        let a = fixtures::small(fixtures::FIXTURE_SEED);
        let b = fixtures::small(fixtures::FIXTURE_SEED);
        assert_eq!(a.num_tokens(), b.num_tokens());
        for d in 0..a.num_docs() {
            assert_eq!(a.doc(d), b.doc(d));
        }
        let c = fixtures::small(fixtures::FIXTURE_SEED + 1);
        assert_ne!(
            (0..a.num_docs())
                .map(|d| a.doc(d).to_vec())
                .collect::<Vec<_>>(),
            (0..c.num_docs())
                .map(|d| c.doc(d).to_vec())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn invariant_checker_accepts_a_fresh_exact_sampler() {
        let corpus = fixtures::tiny(3);
        let cgs = CpuCgs::with_paper_priors(&corpus, 4, 3);
        check_invariants(&cgs, &doc_lens(&corpus), 50.0 / 4.0, 0.01).unwrap();
    }

    #[test]
    fn invariant_checker_rejects_wrong_doc_lens() {
        let corpus = fixtures::tiny(3);
        let cgs = CpuCgs::with_paper_priors(&corpus, 4, 3);
        let mut lens = doc_lens(&corpus);
        lens[0] += 1;
        assert!(check_invariants(&cgs, &lens, 50.0 / 4.0, 0.01).is_err());
    }

    #[test]
    fn trajectory_checker_flags_collapse_and_non_improvement() {
        check_loglik_trajectory("good", &[-5.0, -4.5, -4.4, -4.45, -4.3]).unwrap();
        assert!(check_loglik_trajectory("flat", &[-4.0, -4.0]).is_err());
        assert!(check_loglik_trajectory("collapse", &[-5.0, -4.0, -4.5, -3.9]).is_err());
        assert!(check_loglik_trajectory("positive", &[1.0, 2.0]).is_err());
    }

    #[test]
    fn doc_batches_partition_the_corpus_in_order() {
        let corpus = fixtures::tiny(5);
        let all = fixtures::documents_of(&corpus);
        assert_eq!(all.len(), corpus.num_docs());
        for batches in [1usize, 2, 3, 7] {
            let split = fixtures::doc_batches(&corpus, batches);
            let rejoined: Vec<_> = split.iter().flatten().cloned().collect();
            assert_eq!(rejoined, all, "{batches} batches must rejoin losslessly");
        }
    }

    #[test]
    fn z_signature_is_sensitive_to_single_changes() {
        let corpus = fixtures::tiny(9);
        let a = CpuCgs::with_paper_priors(&corpus, 4, 7);
        let b = CpuCgs::with_paper_priors(&corpus, 4, 7);
        assert_eq!(determinism::z_signature(&a), determinism::z_signature(&b));
        let c = CpuCgs::with_paper_priors(&corpus, 4, 8);
        assert_ne!(determinism::z_signature(&a), determinism::z_signature(&c));
    }
}
