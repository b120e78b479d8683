//! The workloads, their inputs (a pure function of `--seed`), and what the
//! batch and streaming runs share: output checks, operation counts, the
//! log-likelihood guard and the fold-in query client.

use crate::report::{blocks, median, quantile, tail_percentile, Metrics};
use crate::trace::{ms, timed, Tracer};
use culda_core::{DocumentTopics, InferenceOptions, LdaConfig, SamplerStrategy};
use culda_corpus::{Corpus, DatasetProfile};
use culda_gpusim::{ClusterSystem, DeviceSpec, Interconnect, MultiGpuSystem};
use culda_sparse::{CsrMatrix, DenseMatrix};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Documents per fold-in request.
pub const QUERY_BATCH: usize = 8;
/// Distinct held-out query documents a run cycles through.
const QUERY_DOCS: usize = 256;
/// Query documents are cut to this many words, like short search snippets.
const QUERY_WORDS: usize = 32;
/// Fold-in chain of every query.
pub fn query_options(seed: u64) -> InferenceOptions {
    InferenceOptions {
        sweeps: 10,
        burn_in: 2,
        seed,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NytSparse1Gpu,
    TailAuto2x2,
    StreamWindowServe,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::NytSparse1Gpu,
        Workload::TailAuto2x2,
        Workload::StreamWindowServe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NytSparse1Gpu => "nyt_sparse_1gpu",
            Workload::TailAuto2x2 => "tail_auto_2x2_10g",
            Workload::StreamWindowServe => "stream_window_serve",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the training pool may use on a host with `nproc` cores: the
    /// stream keeps one core for its query client.
    pub fn train_threads(self, nproc: usize) -> usize {
        match self {
            Workload::StreamWindowServe => nproc.saturating_sub(1).max(1),
            _ => nproc,
        }
    }

    /// The corpus profile documents are drawn from.
    fn profile(self) -> DatasetProfile {
        match self {
            // ~600k tokens of ~332-token documents.
            Workload::NytSparse1Gpu => DatasetProfile::nytimes().scaled_to_tokens(600_000),
            // Short documents over a wide Zipf-tailed vocabulary: K x V = 10M.
            Workload::TailAuto2x2 => DatasetProfile {
                name: "tail-heavy".into(),
                num_docs: 12_000,
                vocab_size: 20_000,
                avg_doc_len: 20.0,
                zipf_exponent: 1.05,
                doc_len_sigma: 0.4,
            },
            // The stream's whole document pool: half seeds the window, the
            // rest arrives in rounds (and wraps around if a run outlasts it).
            Workload::StreamWindowServe => DatasetProfile::pubmed().scaled_to_tokens(720_000),
        }
    }

    pub fn config(self, seed: u64) -> LdaConfig {
        match self {
            Workload::NytSparse1Gpu => LdaConfig::with_topics(256).seed(seed),
            Workload::TailAuto2x2 => LdaConfig::with_topics(512)
                .seed(seed)
                .sampler(SamplerStrategy::Auto),
            Workload::StreamWindowServe => LdaConfig::with_topics(128).seed(seed),
        }
    }

    /// A fresh simulated system (device seeds derive from the run seed).
    pub fn system(self, seed: u64) -> MultiGpuSystem {
        match self {
            Workload::NytSparse1Gpu | Workload::StreamWindowServe => {
                MultiGpuSystem::single(DeviceSpec::v100_volta(), seed)
            }
            Workload::TailAuto2x2 => ClusterSystem::homogeneous(
                DeviceSpec::titan_xp_pascal(),
                2,
                2,
                seed,
                Interconnect::Pcie3,
                Interconnect::Ethernet10G,
            )
            .into_system(),
        }
    }

    /// The training corpus and the held-out query documents.
    pub fn inputs(self, seed: u64) -> (Corpus, Vec<Vec<u32>>) {
        let profile = self.profile();
        let corpus = profile.generate(seed);
        let held_out = DatasetProfile {
            num_docs: QUERY_DOCS,
            ..profile
        }
        .generate(seed ^ 0x9E37_79B9_7F4A_7C15);
        let queries = (0..held_out.num_docs())
            .map(|d| held_out.doc(d).iter().take(QUERY_WORDS).copied().collect())
            .filter(|q: &Vec<u32>| !q.is_empty())
            .collect();
        (corpus, queries)
    }
}

/// What one run of a workload produced.
pub struct RunOutput {
    pub metrics: Metrics,
    pub ops: Ops,
    pub checks: Checks,
}

/// A scratch directory for a run's files, inside the working directory and
/// removed when the run ends.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(w: Workload) -> Result<Self, String> {
        let dir = PathBuf::from(".perfbench-scratch").join(format!(
            "{}-{}",
            w.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent only once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Output checks; a failed one names the workload and the check.
#[derive(Debug)]
pub struct Checks {
    workload: &'static str,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn new(workload: Workload) -> Self {
        Checks {
            workload: workload.name(),
            failures: Vec::new(),
        }
    }

    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        if let Err(detail) = result {
            let msg = format!("workload {}: check {name} failed: {detail}", self.workload);
            eprintln!("perfbench: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// `Err` unless `a == b`, naming what differed.
pub fn same<T: PartialEq>(what: &str, a: &T, b: &T) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what} differs"))
    }
}

/// Bit-identity of two model states (z, φ, n_k).
pub fn same_state(
    a: (&[Vec<u16>], &DenseMatrix<u32>, &[i64]),
    b: (&[Vec<u16>], &DenseMatrix<u32>, &[i64]),
) -> Result<(), String> {
    same("z", &a.0, &b.0)?;
    same("phi", a.1, b.1)?;
    same("n_k", &a.2, &b.2)
}

/// Operations attempted and failed over a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Count one operation; returns its value, or `None` if it failed.
    pub fn run<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }
}

/// Log-likelihood per token of a model state.
pub fn llpt(theta: &CsrMatrix, phi: &DenseMatrix<u32>, nk: &[i64], cfg: &LdaConfig) -> f64 {
    culda_metrics::log_likelihood(theta, phi, nk, cfg.alpha, cfg.beta).per_token()
}

/// `llpt_final` must be finite and above the iteration-0 value.
pub fn check_llpt(initial: f64, last: f64) -> Result<(), String> {
    if last.is_finite() && initial.is_finite() && last > initial {
        Ok(())
    } else {
        Err(format!(
            "log-likelihood per token went from {initial} to {last}"
        ))
    }
}

/// Every reply mixture has K finite, non-negative entries summing to 1.
pub fn check_mixtures(results: &[DocumentTopics], k: usize) -> Result<(), String> {
    for doc in results {
        let sum: f64 = doc.mixture.iter().sum();
        if doc.mixture.len() != k
            || doc.mixture.iter().any(|p| !(p.is_finite() && *p >= 0.0))
            || (sum - 1.0).abs() > 1e-9
        {
            return Err(format!(
                "a reply mixture has {} entries summing to {sum}",
                doc.mixture.len()
            ));
        }
    }
    Ok(())
}

/// Client-side fold-in requests: latency in milliseconds and completion
/// time in seconds since the client started.
#[derive(Debug, Default)]
pub struct ClientStats {
    pub requests: Vec<(f64, f64)>,
}

/// Query metrics are taken per segment of consecutive requests (at most
/// this many segments, of at least `SEGMENT_MIN` requests each, so the p99
/// has ten samples beyond it) and reported as the median over segments.
const MAX_SEGMENTS: usize = 8;
const SEGMENT_MIN: usize = 1000;

impl ClientStats {
    /// Add the requests of a later client session; its times continue
    /// from this one's last completion.
    pub fn append(&mut self, later: ClientStats) {
        let offset = self.requests.last().map_or(0.0, |r| r.1);
        self.requests
            .extend(later.requests.into_iter().map(|(l, t)| (l, t + offset)));
    }

    /// `query_ms_p50`, `query_ms_p99` (by the ten-samples-beyond rule) and
    /// `queries_per_s`.
    pub fn record(&self, m: &mut Metrics) {
        let n = self.requests.len();
        if n == 0 {
            return;
        }
        let segments = blocks(&self.requests, (n / MAX_SEGMENTS).max(SEGMENT_MIN));
        let p = tail_percentile(segments[0].len()).unwrap_or(50.0).min(99.0);
        let (mut p50, mut tail, mut rate) = (Vec::new(), Vec::new(), Vec::new());
        let mut since = 0.0;
        for seg in &segments {
            let lat: Vec<f64> = seg.iter().map(|r| r.0).collect();
            p50.push(median(&lat));
            tail.push(quantile(&lat, p / 100.0));
            let end = seg[seg.len() - 1].1;
            rate.push(seg.len() as f64 / (end - since));
            since = end;
        }
        m.set("query_ms_p50", median(&p50), "ms");
        m.set("query_ms_p99", median(&tail), "ms");
        m.set("queries_per_s", median(&rate), "1/s");
        println!(
            "queries: {n} requests of {QUERY_BATCH} documents in {} segments; tail percentile p{p}",
            segments.len()
        );
    }
}

/// The `i`-th request of the query stream (cycling over the query docs).
pub fn request(queries: &[Vec<u32>], i: usize) -> &[Vec<u32>] {
    let batches = (queries.len() / QUERY_BATCH).max(1);
    let start = (i % batches) * QUERY_BATCH;
    &queries[start..(start + QUERY_BATCH).min(queries.len())]
}

/// A closed-loop client: sends the next request through `answer` as soon
/// as the previous reply arrived, while `keep_going(requests_sent)` holds,
/// and checks every reply.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop_client(
    tracer: Option<&Tracer>,
    queries: &[Vec<u32>],
    k: usize,
    keep_going: impl Fn(usize) -> bool,
    ops: &mut Ops,
    checks: &mut Checks,
    mut answer: impl FnMut(&[Vec<u32>]) -> Result<Vec<DocumentTopics>, String>,
) -> ClientStats {
    let mut stats = ClientStats::default();
    let start = Instant::now();
    let mut i = 0;
    while keep_going(i) {
        let req = request(queries, i);
        let (reply, dur) = timed(tracer, "serve.batch", None, |_| answer(req));
        if let Some(results) = ops.run("query", reply) {
            checks.check("query_mixture", check_mixtures(&results, k));
            stats
                .requests
                .push((ms(dur), start.elapsed().as_secs_f64()));
        }
        i += 1;
    }
    stats
}
