//! Model checkpoints: persist a trained LDA model to disk and reload it.
//!
//! Training a billion-token corpus takes hours even at CuLDA_CGS throughput,
//! so the trained model must outlive the process.  A checkpoint captures the
//! synchronized global state of Figure 3 — the topic–word counts φ, the topic
//! totals `n_k`, the merged document–topic counts θ and the hyper-parameters
//! — in a small versioned binary container.  A reloaded checkpoint supports
//! everything the serving path needs (topic inspection, fold-in inference,
//! held-out evaluation), and a v2 checkpoint additionally stores the sampler
//! state (`z`, the iteration counter and the seed), so training resumes
//! *exactly* via [`crate::session::SessionBuilder::assignments`] /
//! `culda-cli train --resume-from`.  Streaming sessions rotate whole sets of
//! these files (model + corpus + session metadata) through the [`rotation`]
//! helpers.
//!
//! ```text
//! magic   "CLDM"       4 bytes
//! version u32          currently 5 (v1 files load with no sampler state,
//!                      v2 files load with the default sparse-CGS strategy,
//!                      v3 files load with no sampler-internal resume state)
//! K, V, D u64
//! alpha, beta f64
//! nk      K × i64
//! phi     K × V × u32  (row-major)
//! theta   CSR: (D + 1) × u32 row_ptr, nnz × (u16 col, u32 val)
//! --- v2 sampler-state section ---
//! z flag  u8           0 = absent, 1 = present
//! iterations u64       completed training iterations
//! seed    u64          the run's RNG seed
//! z       per document: u64 len, len × u16  (only when flag = 1)
//! --- v3 sampler-strategy section ---
//! sampler u8           0 = sparse-CGS, 1 = alias hybrid, 2 = LightLDA (v5+)
//! rebuild_every u64    (alias and light)
//! mh_steps u64         (alias and light)
//! prune_below u64      (light only, v5+)
//! --- v4/v5 sampler-resume section ---
//! state flag u8        0 = absent, 1 = alias-tables snapshot,
//!                      2 = light word-proposal snapshot (v5+)
//! built_at u64         iteration the stale tables were built at (flag ≥ 1)
//! phi_hat K × V × u32  the synchronized φ at built_at (flag ≥ 1)
//! nk_hat  K × i64      the topic totals at built_at (flag = 1 only)
//! ```
//!
//! The v4 section closes the mid-cadence alias-resume gap: without it, a
//! checkpoint taken between alias rebuilds resumed with *fresh* tables built
//! from the current φ and diverged from the uninterrupted run until the next
//! cadence rebuild.  The snapshot reconstructs the exact stale tables (see
//! [`crate::kernels::SamplerResumeState`]).  v5 extends both trailing
//! sections to the LightLDA portfolio member: strategy tag 2 (with its
//! `prune_below` knob) and resume flag 2 (a φ̂-only snapshot — word
//! proposals need no topic totals).  [`SamplerStrategy::Auto`] is *never*
//! written: construction resolves it to a concrete strategy first, and
//! [`ModelCheckpoint::write`] rejects an unresolved `Auto` with
//! [`io::ErrorKind::InvalidInput`], so resume continues the decided kernel
//! instead of re-deciding.

use crate::config::{LdaConfig, SamplerStrategy};
use crate::inference::TopicInferencer;
use crate::kernels::SamplerResumeState;
use crate::trainer::CuLdaTrainer;
use culda_sparse::{CsrBuilder, CsrMatrix, DenseMatrix};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes identifying a model checkpoint.
pub const MAGIC: &[u8; 4] = b"CLDM";
/// Current checkpoint format version.
pub const VERSION: u32 = 5;

/// Errors produced while reading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying IO failure.
    Io(io::Error),
    /// The magic bytes do not match [`MAGIC`].
    BadMagic([u8; 4]),
    /// The format version is not supported.
    UnsupportedVersion(u32),
    /// Structural inconsistency in the stored model.
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io error: {e}"),
            CheckpointError::BadMagic(m) => write!(f, "bad magic bytes {m:?}"),
            CheckpointError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A trained model snapshot.
///
/// ```
/// use culda_core::{LdaConfig, ModelCheckpoint, SessionBuilder};
/// use culda_corpus::DatasetProfile;
/// use culda_gpusim::{DeviceSpec, MultiGpuSystem};
///
/// let corpus = DatasetProfile::nytimes().scaled_to_tokens(2_000).generate(7);
/// let mut trainer = SessionBuilder::new()
///     .corpus(&corpus)
///     .config(LdaConfig::with_topics(8).seed(7))
///     .system(MultiGpuSystem::single(DeviceSpec::v100_volta(), 7))
///     .build()
///     .unwrap();
/// trainer.train(1);
///
/// // Serialize, reload, and get the identical model (and sampler state) back.
/// let ckpt = ModelCheckpoint::from_trainer(&trainer);
/// let mut buf = Vec::new();
/// ckpt.write(&mut buf).unwrap();
/// let back = ModelCheckpoint::read(buf.as_slice()).unwrap();
/// assert_eq!(back, ckpt);
/// assert_eq!(back.iterations, 1);
/// assert!(back.z.is_some(), "v2 checkpoints carry z for exact resume");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCheckpoint {
    /// Number of topics `K`.
    pub num_topics: usize,
    /// Vocabulary size `V`.
    pub vocab_size: usize,
    /// Dirichlet prior on document–topic mixtures.
    pub alpha: f64,
    /// Dirichlet prior on topic–word distributions.
    pub beta: f64,
    /// Topic totals `n_k`.
    pub nk: Vec<i64>,
    /// Topic–word counts φ (`K × V`).
    pub phi: DenseMatrix<u32>,
    /// Merged document–topic counts θ (`D × K`).
    pub theta: CsrMatrix,
    /// The RNG seed of the run that produced this checkpoint; resume
    /// continues on the same seed unless the user explicitly overrides it.
    pub seed: u64,
    /// Training iterations completed when the checkpoint was captured.
    /// Resume continues the iteration counter from here, so the
    /// counter-based sampling RNG never reuses an earlier iteration's
    /// streams — `train N+M` and `train N → resume M` are bit-identical.
    pub iterations: u64,
    /// Per-document topic assignments `z` (original token order), when the
    /// checkpoint was captured for exact training resume.  θ/φ alone
    /// reconstruct the *model*; `z` additionally reconstructs the *sampler
    /// state*, so `train --resume-from` continues bit-for-bit from where the
    /// saved run stopped.
    pub z: Option<Vec<Vec<u16>>>,
    /// The sampler strategy the run was training with; resume continues on
    /// the same strategy (and knobs) unless the user explicitly overrides
    /// it.  v1/v2 files load as [`SamplerStrategy::SparseCgs`].
    pub sampler: SamplerStrategy,
    /// Sampler-internal state needed for a bit-exact mid-cadence resume
    /// (the alias hybrid's stale-table snapshot); `None` for memoryless
    /// strategies and for files older than v4.
    pub sampler_state: Option<SamplerResumeState>,
}

impl ModelCheckpoint {
    /// Capture the current synchronized state of a trainer.
    pub fn from_trainer(trainer: &CuLdaTrainer) -> Self {
        let cfg: &LdaConfig = trainer.config();
        ModelCheckpoint {
            num_topics: cfg.num_topics,
            vocab_size: trainer.vocab_size(),
            alpha: cfg.alpha,
            beta: cfg.beta,
            nk: trainer.global_nk(),
            phi: trainer.global_phi(),
            theta: trainer.merged_theta(),
            seed: cfg.seed,
            iterations: trainer.completed_iterations(),
            z: Some(trainer.z_snapshot()),
            sampler: cfg.sampler,
            sampler_state: trainer.sampler_kernel().resume_state(),
        }
    }

    /// Build a fold-in inferencer from the stored model, rejecting corrupt
    /// state (negative `n_k`, non-positive priors, shape mismatches) with a
    /// typed error instead of panicking — checkpoints are untrusted on-disk
    /// input, so this is the constructor the serving path must use.
    pub fn try_inferencer(&self) -> Result<TopicInferencer, crate::inference::InferenceError> {
        TopicInferencer::try_new(&self.phi, &self.nk, self.alpha, self.beta)
    }

    /// Build a fold-in inferencer from the stored model; panics on corrupt
    /// state (see [`ModelCheckpoint::try_inferencer`]).
    pub fn inferencer(&self) -> TopicInferencer {
        match self.try_inferencer() {
            Ok(inferencer) => inferencer,
            Err(e) => panic!("{e}"),
        }
    }

    /// Total number of tokens the stored φ covers.
    pub fn total_tokens(&self) -> u64 {
        self.phi.total()
    }

    /// Structural consistency checks (shapes, totals, non-negative counts).
    pub fn validate(&self) -> Result<(), String> {
        if self.phi.rows() != self.num_topics || self.phi.cols() != self.vocab_size {
            return Err("φ shape does not match K × V".into());
        }
        if self.nk.len() != self.num_topics {
            return Err("n_k length does not match K".into());
        }
        if self.theta.cols() != self.num_topics {
            return Err("θ columns do not match K".into());
        }
        if !(self.alpha > 0.0) || !(self.beta > 0.0) {
            return Err("priors must be positive".into());
        }
        let row_sums = self.phi.row_sums();
        for (k, (&nk, &sum)) in self.nk.iter().zip(&row_sums).enumerate() {
            if nk < 0 || nk as u64 != sum {
                return Err(format!("n_k[{k}] = {nk} does not match φ row sum {sum}"));
            }
        }
        if self.theta.total() != self.phi.total() {
            return Err(format!(
                "θ covers {} tokens, φ covers {}",
                self.theta.total(),
                self.phi.total()
            ));
        }
        if let Some(z) = &self.z {
            if z.len() != self.theta.rows() {
                return Err(format!(
                    "z covers {} documents, θ has {}",
                    z.len(),
                    self.theta.rows()
                ));
            }
            for (d, zd) in z.iter().enumerate() {
                if zd.len() as u64 != self.theta.row_sum(d) {
                    return Err(format!(
                        "z row {d} has {} tokens, θ row sums to {}",
                        zd.len(),
                        self.theta.row_sum(d)
                    ));
                }
                if zd.iter().any(|&k| k as usize >= self.num_topics) {
                    return Err(format!("z row {d} assigns an out-of-range topic"));
                }
            }
        }
        if self.sampler.is_auto() {
            return Err("checkpoints must store the resolved sampler strategy, not `auto`".into());
        }
        match &self.sampler_state {
            Some(SamplerResumeState::AliasTables {
                built_at,
                phi_hat,
                nk_hat,
            }) => {
                if !matches!(self.sampler, SamplerStrategy::AliasHybrid { .. }) {
                    return Err("alias-tables resume state on a non-alias sampler".into());
                }
                if phi_hat.rows() != self.num_topics || phi_hat.cols() != self.vocab_size {
                    return Err("φ̂ snapshot shape does not match K × V".into());
                }
                if nk_hat.len() != self.num_topics {
                    return Err("n̂_k snapshot length does not match K".into());
                }
                if *built_at >= self.iterations {
                    return Err(format!(
                        "alias tables claim to be built at iteration {built_at}, but only {} \
                         iterations completed",
                        self.iterations
                    ));
                }
            }
            Some(SamplerResumeState::LightWordTables { built_at, phi_hat }) => {
                if !matches!(self.sampler, SamplerStrategy::LightLda { .. }) {
                    return Err("light word-table resume state on a non-light sampler".into());
                }
                if phi_hat.rows() != self.num_topics || phi_hat.cols() != self.vocab_size {
                    return Err("φ̂ snapshot shape does not match K × V".into());
                }
                if *built_at >= self.iterations {
                    return Err(format!(
                        "word proposals claim to be built at iteration {built_at}, but only {} \
                         iterations completed",
                        self.iterations
                    ));
                }
            }
            None => {}
        }
        Ok(())
    }

    /// Serialize the checkpoint into a writer.
    pub fn write<W: Write>(&self, writer: W) -> io::Result<()> {
        let mut w = BufWriter::new(writer);
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&(self.num_topics as u64).to_le_bytes())?;
        w.write_all(&(self.vocab_size as u64).to_le_bytes())?;
        w.write_all(&(self.theta.rows() as u64).to_le_bytes())?;
        w.write_all(&self.alpha.to_le_bytes())?;
        w.write_all(&self.beta.to_le_bytes())?;
        for &nk in &self.nk {
            w.write_all(&nk.to_le_bytes())?;
        }
        for &c in self.phi.as_slice() {
            w.write_all(&c.to_le_bytes())?;
        }
        for &p in self.theta.row_ptr() {
            w.write_all(&p.to_le_bytes())?;
        }
        for d in 0..self.theta.rows() {
            let (cols, vals) = self.theta.row(d);
            for (&k, &v) in cols.iter().zip(vals) {
                w.write_all(&k.to_le_bytes())?;
                w.write_all(&v.to_le_bytes())?;
            }
        }
        match &self.z {
            None => {
                w.write_all(&[0u8])?;
                w.write_all(&self.iterations.to_le_bytes())?;
                w.write_all(&self.seed.to_le_bytes())?;
            }
            Some(z) => {
                w.write_all(&[1u8])?;
                w.write_all(&self.iterations.to_le_bytes())?;
                w.write_all(&self.seed.to_le_bytes())?;
                for zd in z {
                    w.write_all(&(zd.len() as u64).to_le_bytes())?;
                    for &k in zd {
                        w.write_all(&k.to_le_bytes())?;
                    }
                }
            }
        }
        match self.sampler {
            SamplerStrategy::SparseCgs => w.write_all(&[0u8])?,
            SamplerStrategy::AliasHybrid {
                rebuild_every,
                mh_steps,
            } => {
                w.write_all(&[1u8])?;
                w.write_all(&(rebuild_every as u64).to_le_bytes())?;
                w.write_all(&(mh_steps as u64).to_le_bytes())?;
            }
            SamplerStrategy::LightLda {
                rebuild_every,
                mh_steps,
                prune_below,
            } => {
                w.write_all(&[2u8])?;
                w.write_all(&(rebuild_every as u64).to_le_bytes())?;
                w.write_all(&(mh_steps as u64).to_le_bytes())?;
                w.write_all(&(prune_below as u64).to_le_bytes())?;
            }
            SamplerStrategy::Auto => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "SamplerStrategy::Auto is a construction-time directive, not a trained \
                     state; resolve it to a concrete strategy before checkpointing",
                ));
            }
        }
        match &self.sampler_state {
            None => w.write_all(&[0u8])?,
            Some(SamplerResumeState::AliasTables {
                built_at,
                phi_hat,
                nk_hat,
            }) => {
                w.write_all(&[1u8])?;
                w.write_all(&built_at.to_le_bytes())?;
                for &c in phi_hat.as_slice() {
                    w.write_all(&c.to_le_bytes())?;
                }
                for &n in nk_hat {
                    w.write_all(&n.to_le_bytes())?;
                }
            }
            Some(SamplerResumeState::LightWordTables { built_at, phi_hat }) => {
                w.write_all(&[2u8])?;
                w.write_all(&built_at.to_le_bytes())?;
                for &c in phi_hat.as_slice() {
                    w.write_all(&c.to_le_bytes())?;
                }
            }
        }
        w.flush()
    }

    /// Deserialize a checkpoint from a reader and validate it.
    pub fn read<R: Read>(reader: R) -> Result<Self, CheckpointError> {
        let mut r = BufReader::new(reader);
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(CheckpointError::BadMagic(magic));
        }
        let version = read_u32(&mut r)?;
        if version == 0 || version > VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let num_topics = read_u64(&mut r)? as usize;
        let vocab_size = read_u64(&mut r)? as usize;
        let num_docs = read_u64(&mut r)? as usize;
        let alpha = read_f64(&mut r)?;
        let beta = read_f64(&mut r)?;

        // The header counts are untrusted: cap up-front reservations and
        // guard the K × V product so a corrupt header yields a clean error
        // (EOF or `Corrupt`) instead of an absurd allocation or an overflow.
        const MAX_PREALLOC: usize = 1 << 20;
        let phi_len = num_topics
            .checked_mul(vocab_size)
            .ok_or_else(|| CheckpointError::Corrupt("K × V overflows".into()))?;

        let mut nk = Vec::with_capacity(num_topics.min(MAX_PREALLOC));
        for _ in 0..num_topics {
            nk.push(read_i64(&mut r)?);
        }
        let mut phi_data = Vec::with_capacity(phi_len.min(MAX_PREALLOC));
        for _ in 0..phi_len {
            phi_data.push(read_u32(&mut r)?);
        }
        let phi = DenseMatrix::from_vec(num_topics, vocab_size, phi_data);

        let mut row_ptr = Vec::with_capacity(num_docs.saturating_add(1).min(MAX_PREALLOC));
        for _ in 0..=num_docs {
            row_ptr.push(read_u32(&mut r)?);
        }
        if row_ptr.first() != Some(&0) || row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(CheckpointError::Corrupt(
                "θ row pointers are invalid".into(),
            ));
        }
        let mut builder = CsrBuilder::new(num_docs, num_topics);
        builder.reserve_nnz((*row_ptr.last().unwrap_or(&0) as usize).min(MAX_PREALLOC));
        for d in 0..num_docs {
            let nnz = (row_ptr[d + 1] - row_ptr[d]) as usize;
            let mut entries = Vec::with_capacity(nnz.min(MAX_PREALLOC));
            for _ in 0..nnz {
                let k = read_u16(&mut r)?;
                let v = read_u32(&mut r)?;
                if k as usize >= num_topics {
                    return Err(CheckpointError::Corrupt(format!(
                        "θ column {k} out of range (K = {num_topics})"
                    )));
                }
                entries.push((k, v));
            }
            builder.push_row(entries);
        }
        let theta = builder.finish();

        // v1 files end here: they carry the model but no sampler state.
        let (z, iterations, seed) = if version == 1 {
            (None, 0, 0)
        } else {
            let mut flag = [0u8; 1];
            r.read_exact(&mut flag)?;
            let iterations = read_u64(&mut r)?;
            let seed = read_u64(&mut r)?;
            let z = match flag[0] {
                0 => None,
                1 => {
                    let mut z = Vec::with_capacity(num_docs.min(MAX_PREALLOC));
                    for _ in 0..num_docs {
                        let len = read_u64(&mut r)? as usize;
                        let mut zd = Vec::with_capacity(len.min(MAX_PREALLOC));
                        for _ in 0..len {
                            zd.push(read_u16(&mut r)?);
                        }
                        z.push(zd);
                    }
                    Some(z)
                }
                other => {
                    return Err(CheckpointError::Corrupt(format!(
                        "invalid z-section flag {other}"
                    )))
                }
            };
            (z, iterations, seed)
        };

        // v1/v2 files predate pluggable samplers: they load as the default
        // sparse-CGS strategy.
        let sampler = if version < 3 {
            SamplerStrategy::SparseCgs
        } else {
            let mut tag = [0u8; 1];
            r.read_exact(&mut tag)?;
            match tag[0] {
                0 => SamplerStrategy::SparseCgs,
                1 => {
                    let rebuild_every = read_u64(&mut r)? as usize;
                    let mh_steps = read_u64(&mut r)? as usize;
                    let strategy = SamplerStrategy::AliasHybrid {
                        rebuild_every,
                        mh_steps,
                    };
                    strategy.validate().map_err(CheckpointError::Corrupt)?;
                    strategy
                }
                2 if version >= 5 => {
                    let rebuild_every = read_u64(&mut r)? as usize;
                    let mh_steps = read_u64(&mut r)? as usize;
                    let prune_below = read_u64(&mut r)? as usize;
                    let strategy = SamplerStrategy::LightLda {
                        rebuild_every,
                        mh_steps,
                        prune_below,
                    };
                    strategy.validate().map_err(CheckpointError::Corrupt)?;
                    strategy
                }
                other => {
                    return Err(CheckpointError::Corrupt(format!(
                        "invalid sampler-strategy tag {other} for a v{version} file"
                    )))
                }
            }
        };

        // v1–v3 files predate sampler-internal resume state.
        let sampler_state = if version < 4 {
            None
        } else {
            let mut flag = [0u8; 1];
            r.read_exact(&mut flag)?;
            match flag[0] {
                0 => None,
                1 => {
                    let built_at = read_u64(&mut r)?;
                    let mut phi_hat = Vec::with_capacity(phi_len.min(MAX_PREALLOC));
                    for _ in 0..phi_len {
                        phi_hat.push(read_u32(&mut r)?);
                    }
                    let mut nk_hat = Vec::with_capacity(num_topics.min(MAX_PREALLOC));
                    for _ in 0..num_topics {
                        nk_hat.push(read_i64(&mut r)?);
                    }
                    Some(SamplerResumeState::AliasTables {
                        built_at,
                        phi_hat: DenseMatrix::from_vec(num_topics, vocab_size, phi_hat),
                        nk_hat,
                    })
                }
                2 if version >= 5 => {
                    let built_at = read_u64(&mut r)?;
                    let mut phi_hat = Vec::with_capacity(phi_len.min(MAX_PREALLOC));
                    for _ in 0..phi_len {
                        phi_hat.push(read_u32(&mut r)?);
                    }
                    Some(SamplerResumeState::LightWordTables {
                        built_at,
                        phi_hat: DenseMatrix::from_vec(num_topics, vocab_size, phi_hat),
                    })
                }
                other => {
                    return Err(CheckpointError::Corrupt(format!(
                        "invalid sampler-resume flag {other} for a v{version} file"
                    )))
                }
            }
        };

        let checkpoint = ModelCheckpoint {
            num_topics,
            vocab_size,
            alpha,
            beta,
            nk,
            phi,
            theta,
            seed,
            iterations,
            z,
            sampler,
            sampler_state,
        };
        checkpoint.validate().map_err(CheckpointError::Corrupt)?;
        Ok(checkpoint)
    }

    /// Write the checkpoint to a file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        self.write(File::create(path)?)
    }

    /// Load a checkpoint from a file.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, CheckpointError> {
        Self::read(File::open(path)?)
    }
}

/// File naming and discovery for rotated streaming-session checkpoints.
///
/// A rotation *set* is three files sharing a stem
/// (`stream-<seq:06>-it<iterations:010>`): the CLDM checkpoint model
/// (`.cldm`), the live corpus snapshot (`.cldc`), and the session metadata
/// sidecar (`.meta`).  The model file is written last, to `.cldm.tmp` and
/// then renamed into place, so only sets whose whole `.cldm` exists
/// alongside the other two count as complete; `latest` returns the
/// complete set with the highest sequence number.
pub mod rotation {
    use std::io;
    use std::path::{Path, PathBuf};

    /// Extension of the CLDM checkpoint model file.
    pub const MODEL_EXT: &str = "cldm";
    /// Extension the model file is written under before it is renamed to
    /// [`MODEL_EXT`].
    pub const MODEL_TMP_EXT: &str = "cldm.tmp";
    /// Extension of the live corpus snapshot.
    pub const CORPUS_EXT: &str = "cldc";
    /// Extension of the session metadata sidecar.
    pub const META_EXT: &str = "meta";

    /// One complete rotation set found on disk.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RotationEntry {
        /// Monotone rotation sequence number (survives resume).
        pub seq: u64,
        /// Completed training iterations at capture time.
        pub iterations: u64,
        /// File stem (no directory, no extension).
        pub stem: String,
    }

    /// The stem of rotation `seq` captured after `iterations` iterations.
    pub fn stem(seq: u64, iterations: u64) -> String {
        format!("stream-{seq:06}-it{iterations:010}")
    }

    fn parse_stem(stem: &str) -> Option<(u64, u64)> {
        let rest = stem.strip_prefix("stream-")?;
        let (seq, it) = rest.split_once("-it")?;
        Some((seq.parse().ok()?, it.parse().ok()?))
    }

    /// Complete rotation sets in `dir`, ascending by sequence number.
    /// A missing directory reads as empty.
    pub fn list(dir: &Path) -> io::Result<Vec<RotationEntry>> {
        let mut entries = Vec::new();
        for path in files(dir)? {
            if path.extension().and_then(|e| e.to_str()) != Some(MODEL_EXT) {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Some((seq, iterations)) = parse_stem(stem) else {
                continue;
            };
            if path.with_extension(CORPUS_EXT).exists() && path.with_extension(META_EXT).exists() {
                entries.push(RotationEntry {
                    seq,
                    iterations,
                    stem: stem.to_string(),
                });
            }
        }
        entries.sort_by_key(|e| e.seq);
        Ok(entries)
    }

    /// The paths in `dir`; a missing directory reads as empty.
    fn files(dir: &Path) -> io::Result<Vec<PathBuf>> {
        match std::fs::read_dir(dir) {
            Ok(rd) => rd.map(|entry| entry.map(|e| e.path())).collect(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// The most recent complete rotation set in `dir`, if any.
    pub fn latest(dir: &Path) -> io::Result<Option<RotationEntry>> {
        Ok(list(dir)?.pop())
    }

    /// Delete all but the `keep_last` most recent complete sets, and every
    /// other rotation file: the `.cldc`, `.meta` and `.cldm.tmp` a crashed
    /// rotation left behind.  A file goes unless its whole stem names a
    /// kept set, since a resumed session can reuse a torn set's sequence
    /// number at a different iteration count.  Returns how many complete
    /// sets were pruned.
    pub fn prune(dir: &Path, keep_last: usize) -> io::Result<usize> {
        let entries = list(dir)?;
        let excess = entries.len().saturating_sub(keep_last);
        let kept: Vec<&str> = entries[excess..].iter().map(|e| e.stem.as_str()).collect();
        for path in files(dir)? {
            let Some((stem, ext)) = path.file_name().and_then(|n| n.to_str()?.split_once('.'))
            else {
                continue;
            };
            let rotation_file = [MODEL_EXT, MODEL_TMP_EXT, CORPUS_EXT, META_EXT].contains(&ext);
            if rotation_file && parse_stem(stem).is_some() && !kept.contains(&stem) {
                match std::fs::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(excess)
    }
}

fn read_u16<R: Read>(r: &mut R) -> io::Result<u16> {
    let mut buf = [0u8; 2];
    r.read_exact(&mut buf)?;
    Ok(u16::from_le_bytes(buf))
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_i64<R: Read>(r: &mut R) -> io::Result<i64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(i64::from_le_bytes(buf))
}

fn read_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(f64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LdaConfig;
    use culda_corpus::DatasetProfile;
    use culda_gpusim::{DeviceSpec, MultiGpuSystem};

    fn trained_trainer() -> CuLdaTrainer {
        let corpus = DatasetProfile {
            name: "ckpt".into(),
            num_docs: 100,
            vocab_size: 80,
            avg_doc_len: 15.0,
            zipf_exponent: 1.0,
            doc_len_sigma: 0.4,
        }
        .generate(21);
        let mut trainer = crate::session::SessionBuilder::new()
            .corpus(&corpus)
            .config(LdaConfig::with_topics(12).seed(4))
            .system(MultiGpuSystem::single(DeviceSpec::v100_volta(), 3))
            .build()
            .unwrap();
        trainer.train(5);
        trainer
    }

    #[test]
    fn roundtrip_preserves_the_model_exactly() {
        let trainer = trained_trainer();
        let ckpt = ModelCheckpoint::from_trainer(&trainer);
        ckpt.validate().unwrap();
        let mut buf = Vec::new();
        ckpt.write(&mut buf).unwrap();
        let back = ModelCheckpoint::read(buf.as_slice()).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.total_tokens(), trainer.total_tokens());
    }

    #[test]
    fn reloaded_checkpoint_drives_identical_inference() {
        let trainer = trained_trainer();
        let ckpt = ModelCheckpoint::from_trainer(&trainer);
        let mut buf = Vec::new();
        ckpt.write(&mut buf).unwrap();
        let back = ModelCheckpoint::read(buf.as_slice()).unwrap();
        let opts = crate::inference::InferenceOptions::default();
        let doc = [0u32, 1, 2, 3, 4, 5];
        let a = ckpt.inferencer().infer_document(&doc, opts);
        let b = back.inferencer().infer_document(&doc, opts);
        assert_eq!(a, b);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let trainer = trained_trainer();
        let ckpt = ModelCheckpoint::from_trainer(&trainer);
        let mut buf = Vec::new();
        ckpt.write(&mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] = b'Z';
        assert!(matches!(
            ModelCheckpoint::read(bad.as_slice()),
            Err(CheckpointError::BadMagic(_))
        ));
        let mut bad = buf.clone();
        bad[4..8].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            ModelCheckpoint::read(bad.as_slice()),
            Err(CheckpointError::UnsupportedVersion(7))
        ));
        buf.truncate(32);
        assert!(matches!(
            ModelCheckpoint::read(buf.as_slice()),
            Err(CheckpointError::Io(_))
        ));
    }

    #[test]
    fn sampler_strategy_roundtrips_and_bad_tags_are_rejected() {
        let corpus = DatasetProfile {
            name: "ckpt-sampler".into(),
            num_docs: 40,
            vocab_size: 50,
            avg_doc_len: 10.0,
            zipf_exponent: 1.0,
            doc_len_sigma: 0.4,
        }
        .generate(3);
        let mut trainer = crate::session::SessionBuilder::new()
            .corpus(&corpus)
            .config(
                LdaConfig::with_topics(8)
                    .seed(2)
                    .sampler(SamplerStrategy::AliasHybrid {
                        rebuild_every: 3,
                        mh_steps: 2,
                    }),
            )
            .system(MultiGpuSystem::single(DeviceSpec::v100_volta(), 2))
            .build()
            .unwrap();
        trainer.train(2);
        let full = ModelCheckpoint::from_trainer(&trainer);
        assert_eq!(
            full.sampler,
            SamplerStrategy::AliasHybrid {
                rebuild_every: 3,
                mh_steps: 2
            }
        );
        // The trainer rebuilt its tables at iteration 0, so the checkpoint
        // carries the stale-table snapshot — and it round-trips exactly.
        assert!(
            matches!(
                full.sampler_state,
                Some(SamplerResumeState::AliasTables { built_at: 0, .. })
            ),
            "alias checkpoints carry the stale-table snapshot"
        );
        let mut buf = Vec::new();
        full.write(&mut buf).unwrap();
        let back = ModelCheckpoint::read(buf.as_slice()).unwrap();
        assert_eq!(back, full);
        assert_eq!(back.sampler, full.sampler);
        assert_eq!(back.sampler_state, full.sampler_state);

        // Tag-corruption checks on a stateless copy, where the trailing
        // layout is fixed: v3 section (1 tag + 2 × u64 knobs) + v4 flag.
        let mut ckpt = full.clone();
        ckpt.sampler_state = None;
        let mut buf = Vec::new();
        ckpt.write(&mut buf).unwrap();
        let tag_pos = buf.len() - 18;
        assert_eq!(buf[tag_pos], 1);
        let mut bad = buf.clone();
        bad[tag_pos] = 9;
        assert!(matches!(
            ModelCheckpoint::read(bad.as_slice()),
            Err(CheckpointError::Corrupt(_))
        ));
        // A zeroed rebuild_every is caught by strategy validation.
        let mut bad = buf.clone();
        bad[tag_pos + 1..tag_pos + 9].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            ModelCheckpoint::read(bad.as_slice()),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn v3_files_load_with_no_sampler_resume_state() {
        // A v4 writer emits ... | v3 sampler section | v4 flag byte; a v3
        // file is the same stream with version 3 and no trailing flag.
        let trainer = trained_trainer();
        let mut ckpt = ModelCheckpoint::from_trainer(&trainer);
        ckpt.sampler_state = None;
        let mut buf = Vec::new();
        ckpt.write(&mut buf).unwrap();
        buf[4..8].copy_from_slice(&3u32.to_le_bytes());
        buf.truncate(buf.len() - 1);
        let back = ModelCheckpoint::read(buf.as_slice()).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.sampler_state, None);
    }

    #[test]
    fn bad_sampler_resume_flags_are_rejected() {
        let trainer = trained_trainer();
        let mut ckpt = ModelCheckpoint::from_trainer(&trainer);
        ckpt.sampler_state = None;
        let mut buf = Vec::new();
        ckpt.write(&mut buf).unwrap();
        let flag_pos = buf.len() - 1;
        assert_eq!(buf[flag_pos], 0);
        buf[flag_pos] = 7;
        assert!(matches!(
            ModelCheckpoint::read(buf.as_slice()),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn light_strategy_and_word_tables_roundtrip_in_v5() {
        let corpus = DatasetProfile {
            name: "ckpt-light".into(),
            num_docs: 40,
            vocab_size: 50,
            avg_doc_len: 10.0,
            zipf_exponent: 1.0,
            doc_len_sigma: 0.4,
        }
        .generate(3);
        let mut trainer = crate::session::SessionBuilder::new()
            .corpus(&corpus)
            .config(
                LdaConfig::with_topics(8)
                    .seed(2)
                    .sampler(SamplerStrategy::LightLda {
                        rebuild_every: 3,
                        mh_steps: 2,
                        prune_below: 4,
                    }),
            )
            .system(MultiGpuSystem::single(DeviceSpec::v100_volta(), 2))
            .build()
            .unwrap();
        trainer.train(2);
        let full = ModelCheckpoint::from_trainer(&trainer);
        assert_eq!(
            full.sampler,
            SamplerStrategy::LightLda {
                rebuild_every: 3,
                mh_steps: 2,
                prune_below: 4,
            }
        );
        assert!(
            matches!(
                full.sampler_state,
                Some(SamplerResumeState::LightWordTables { built_at: 0, .. })
            ),
            "light checkpoints carry the word-proposal snapshot"
        );
        let mut buf = Vec::new();
        full.write(&mut buf).unwrap();
        let back = ModelCheckpoint::read(buf.as_slice()).unwrap();
        assert_eq!(back, full);

        // A truncated v5 sampler section surfaces as a typed IO error (EOF
        // mid-snapshot), never a panic.
        let truncated = &buf[..buf.len() - 7];
        assert!(matches!(
            ModelCheckpoint::read(truncated),
            Err(CheckpointError::Io(_))
        ));

        // The light tag and resume flag are v5 vocabulary: a v4-stamped file
        // using them is corrupt, not silently accepted.
        let mut v4_stamped = buf.clone();
        v4_stamped[4..8].copy_from_slice(&4u32.to_le_bytes());
        assert!(matches!(
            ModelCheckpoint::read(v4_stamped.as_slice()),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn unresolved_auto_is_rejected_at_write_and_validate() {
        let trainer = trained_trainer();
        let mut ckpt = ModelCheckpoint::from_trainer(&trainer);
        ckpt.sampler = SamplerStrategy::Auto;
        assert!(ckpt.validate().is_err());
        let mut buf = Vec::new();
        let err = ckpt.write(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn validation_catches_inconsistent_counts() {
        let trainer = trained_trainer();
        let mut ckpt = ModelCheckpoint::from_trainer(&trainer);
        ckpt.nk[0] += 1;
        assert!(ckpt.validate().is_err());
    }

    #[test]
    fn rotation_discovery_orders_and_prunes_complete_sets() {
        let dir = std::env::temp_dir().join(format!("culda_rotation_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // An absent directory reads as empty rather than erroring.
        assert!(rotation::list(&dir.join("missing")).unwrap().is_empty());
        for (seq, it) in [(0u64, 10u64), (1, 20), (2, 30)] {
            let stem = dir.join(rotation::stem(seq, it));
            for ext in [
                rotation::MODEL_EXT,
                rotation::CORPUS_EXT,
                rotation::META_EXT,
            ] {
                std::fs::write(stem.with_extension(ext), b"x").unwrap();
            }
        }
        // An incomplete set (no .cldm) and a foreign file are both ignored.
        let partial = dir.join(rotation::stem(3, 40));
        std::fs::write(partial.with_extension(rotation::CORPUS_EXT), b"x").unwrap();
        std::fs::write(partial.with_extension(rotation::META_EXT), b"x").unwrap();
        std::fs::write(dir.join("notes.cldm"), b"x").unwrap();

        let entries = rotation::list(&dir).unwrap();
        assert_eq!(
            entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        let latest = rotation::latest(&dir).unwrap().unwrap();
        assert_eq!((latest.seq, latest.iterations), (2, 30));

        assert_eq!(rotation::prune(&dir, 2).unwrap(), 1);
        let kept = rotation::list(&dir).unwrap();
        assert_eq!(kept.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_roundtrip() {
        let trainer = trained_trainer();
        let ckpt = ModelCheckpoint::from_trainer(&trainer);
        let dir = std::env::temp_dir().join("culda_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cldm");
        ckpt.save(&path).unwrap();
        let back = ModelCheckpoint::load(&path).unwrap();
        assert_eq!(back, ckpt);
        std::fs::remove_file(&path).ok();
    }
}
