//! Implementations of the CLI subcommands.
//!
//! Every command is a pure function from parsed arguments to a report
//! `String`, so the unit tests can exercise full command flows without
//! touching stdout; `main` simply prints whatever comes back.

use crate::args::{ArgError, ParsedArgs};
use crate::CliError;
use culda_core::{
    CuLdaTrainer, DocumentTopics, InferenceOptions, LdaConfig, ModelCheckpoint, SamplerStrategy,
    SessionBuilder, StreamingSession, TopicInferencer,
};
use culda_corpus::{holdout::DocumentCompletion, Corpus, CorpusStats, DatasetProfile, Document};
use culda_gpusim::{ClusterSystem, DeviceSpec, Interconnect, MultiGpuSystem};
use culda_metrics::{coherence::topic_quality_report, heldout::evaluate_heldout, log_likelihood};
use std::fmt::Write as _;

/// Usage text printed by `help` and on argument errors.
pub const USAGE: &str = "\
culda-cli — CuLDA_CGS (PPoPP'19) reproduction command line

USAGE:
    culda-cli <COMMAND> [OPTIONS]

COMMANDS:
    platforms       List the simulated device presets (Table 2 and beyond)
    gen-corpus      Generate a synthetic corpus snapshot
                      --profile nytimes|pubmed  --tokens N  --seed S  --out FILE
    stats           Print Table-3 style statistics for a corpus snapshot
                      --corpus FILE
    train           Train CuLDA_CGS on a corpus
                      --corpus FILE | --profile P --tokens N
                      [--topics K] [--iterations N] [--gpus G] [--device NAME]
                      [--seed S] [--save-model FILE] [--optimize-priors]
                      [--sync-shards S|auto] shard the φ synchronization into
                                            S vocabulary ranges; `auto` (the
                                            default) picks S from the
                                            measured compute/sync ratio of
                                            iteration 0, `1` forces the
                                            paper's dense reduce
                      [--overlap-depth D]   shard reduces in flight while
                                            sampling continues (default 2;
                                            0 disables the overlap)
                      [--nodes N]           simulate an N-node cluster of
                                            --gpus GPUs each (N × G devices
                                            total); φ is synchronized
                                            hierarchically: per-node tree
                                            reduce, one exchange of the
                                            reduced shards over the fabric,
                                            per-node broadcast back
                      [--inter-link L]      inter-node fabric for --nodes:
                                            ethernet (10 GbE, default),
                                            infiniband, pcie3 or nvlink
                      [--sampler S]         sampler kernel: `sparse` (the
                                            paper's exact S/Q kernel, the
                                            default), `alias[:R]` (stale
                                            alias tables rebuilt every R
                                            iterations — default 8 — with
                                            MH correction), `light[:M]`
                                            (LightLDA-style cycle MH with M
                                            doc/word proposal steps — default
                                            4), or `auto` (measure the corpus
                                            and pick the fastest kernel)
                      [--resume-from FILE]  continue exactly from a saved
                                            model's assignment state (the
                                            checkpoint's sampler strategy
                                            is preserved)
    stream          Stream a corpus into a live model in mini-batches
                    (ingest -> train -> retire -> rotate checkpoints)
                      --corpus FILE | --profile P --tokens N
                      [--topics K] [--gpus G] [--device NAME] [--seed S]
                      [--batch-docs B]      documents ingested per mini-batch
                                            (default 256)
                      [--iterations-per-batch I]  training iterations after
                                            each ingested batch (default 2)
                      [--window W]          retire the oldest documents so at
                                            most W stay live (0 = keep all)
                      [--burn-in S]         Gibbs sweeps burning each new
                                            document in (default 1)
                      [--sampler S]         sampler kernel, as in `train`
                                            (burn-in routes through it too)
                      [--checkpoint-dir D]  rotate checkpoint sets into D
                                            after each batch
                      [--keep-last N]       checkpoint sets retained
                                            (default 3)
                      [--resume]            resume the session from the
                                            latest set in --checkpoint-dir
                                            before streaming
                      [--nodes N] [--inter-link L]  multi-node cluster
                                            simulation, as in `train`
    serve           Stream a corpus into a live model while query threads
                    answer fold-in inference against epoch-published
                    snapshots; reports p50/p99 query latency and QPS
                      --corpus FILE | --profile P --tokens N
                      [--topics K] [--gpus G] [--device NAME] [--seed S]
                      [--batch-docs B]      documents ingested per mini-batch
                                            (default 256)
                      [--iterations-per-batch I]  training iterations after
                                            each ingested batch (default 2)
                      [--query-threads T]   concurrent reader threads
                                            (default 2)
                      [--query-batch Q]     queries per inference batch, all
                                            answered against one frozen
                                            snapshot (default 8)
                      [--sweeps N]          fold-in Gibbs sweeps per query
                                            (default 5)
                      [--nodes N] [--inter-link L]  multi-node cluster
                                            simulation, as in `train`
    topics          Show the top words of every topic of a saved model
                      --model FILE [--top N]
    infer           Infer the topic mixture of new text or a corpus
                      --model FILE (--text \"...\" | --corpus FILE) [--sweeps N]
    eval            Held-out perplexity of a saved model on a test corpus
                      --model FILE --corpus FILE [--heldout-fraction F]
    help            Show this message

DEVICES: maxwell | pascal | volta (default) | gtx1080 | k40 | p100 | a100 | cpu
";

/// Resolve a `--device` name to a spec.
pub fn device_by_name(name: &str) -> Result<DeviceSpec, CliError> {
    let spec = match name.to_ascii_lowercase().as_str() {
        "maxwell" | "titanx" | "titan-x" => DeviceSpec::titan_x_maxwell(),
        "pascal" | "titanxp" | "titan-xp" => DeviceSpec::titan_xp_pascal(),
        "volta" | "v100" => DeviceSpec::v100_volta(),
        "gtx1080" | "1080" => DeviceSpec::gtx_1080(),
        "k40" | "kepler" => DeviceSpec::k40_kepler(),
        "p100" => DeviceSpec::p100_pascal(),
        "a100" | "ampere" => DeviceSpec::a100_ampere(),
        "cpu" | "xeon" => DeviceSpec::xeon_e5_2690v4(),
        other => return Err(CliError::Usage(format!("unknown device `{other}`"))),
    };
    Ok(spec)
}

/// Resolve a `--profile` name to a dataset profile.
pub fn profile_by_name(name: &str) -> Result<DatasetProfile, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "nytimes" | "nyt" => Ok(DatasetProfile::nytimes()),
        "pubmed" => Ok(DatasetProfile::pubmed()),
        other => Err(CliError::Usage(format!(
            "unknown profile `{other}` (expected nytimes or pubmed)"
        ))),
    }
}

/// `--sync-shards auto|N` → `None` (auto-tune) or `Some(N)`.
fn parse_sync_shards(args: &ParsedArgs) -> Result<Option<usize>, CliError> {
    match args.get("sync-shards") {
        None => Ok(None),
        Some(raw) if raw.eq_ignore_ascii_case("auto") => Ok(None),
        Some(raw) => raw.parse().map(Some).map_err(|_| {
            CliError::Usage(format!(
                "--sync-shards {raw}: expected a positive integer or `auto`"
            ))
        }),
    }
}

/// `--inter-link ethernet|infiniband|pcie3|nvlink` → the inter-node fabric,
/// 10 GbE (the LDA* cluster network) when absent.
fn parse_inter_link(args: &ParsedArgs) -> Result<Interconnect, CliError> {
    match args.get("inter-link") {
        None => Ok(Interconnect::Ethernet10G),
        Some(raw) => match raw.to_ascii_lowercase().as_str() {
            "ethernet" | "eth" | "10gbe" => Ok(Interconnect::Ethernet10G),
            "infiniband" | "ib" | "edr" => Ok(Interconnect::InfinibandEdr),
            "pcie" | "pcie3" => Ok(Interconnect::Pcie3),
            "nvlink" => Ok(Interconnect::NvLink),
            other => Err(CliError::Usage(format!(
                "--inter-link {other}: expected `ethernet`, `infiniband`, `pcie3` or `nvlink`"
            ))),
        },
    }
}

/// Human-readable name of an interconnect for the `system:` report line.
fn link_name(link: Interconnect) -> &'static str {
    match link {
        Interconnect::Ethernet10G => "10 GbE",
        Interconnect::InfinibandEdr => "InfiniBand EDR",
        Interconnect::Pcie3 => "PCIe 3.0",
        Interconnect::NvLink => "NVLink",
        Interconnect::Custom { .. } => "custom link",
    }
}

/// Build the simulated system from `--gpus`, `--nodes` and `--inter-link`:
/// a single device, a single-node multi-GPU system over PCIe, or — with
/// `--nodes N > 1` — an `N × --gpus` cluster whose nodes talk over the
/// `--inter-link` fabric.  Returns the system plus the label the commands
/// print as their `system:` line.
fn system_from_args(
    args: &ParsedArgs,
    device: &DeviceSpec,
    seed: u64,
) -> Result<(MultiGpuSystem, String), CliError> {
    let gpus: usize = args.get_parsed_or("gpus", 1usize)?;
    let nodes: usize = args.get_parsed_or("nodes", 1usize)?;
    if gpus == 0 || nodes == 0 {
        return Err(CliError::Usage(
            "--gpus and --nodes must be positive".into(),
        ));
    }
    if nodes == 1 {
        if args.get("inter-link").is_some() {
            return Err(CliError::Usage(
                "--inter-link only applies to a cluster; pass --nodes N with N > 1".into(),
            ));
        }
        let system = if gpus <= 1 {
            MultiGpuSystem::single(device.clone(), seed)
        } else {
            MultiGpuSystem::homogeneous(device.clone(), gpus, seed, Interconnect::Pcie3)
        };
        return Ok((system, format!("{} × {}", gpus, device.name)));
    }
    let inter_link = parse_inter_link(args)?;
    let system = ClusterSystem::homogeneous(
        device.clone(),
        nodes,
        gpus,
        seed,
        Interconnect::Pcie3,
        inter_link,
    )
    .into_system();
    let label = format!(
        "{nodes} nodes × {gpus} × {} over {}",
        device.name,
        link_name(inter_link)
    );
    Ok((system, label))
}

/// `--sampler sparse|alias[:rebuild_every]|light[:mh_steps]|auto` → a
/// strategy, `None` when the option is absent (callers default to the
/// checkpoint's strategy on resume, to sparse-CGS otherwise).  `auto` defers
/// the choice to the measured portfolio selection at construction.
fn parse_sampler(args: &ParsedArgs) -> Result<Option<SamplerStrategy>, CliError> {
    let Some(raw) = args.get("sampler") else {
        return Ok(None);
    };
    let lower = raw.to_ascii_lowercase();
    if lower == "sparse" || lower == "sparse-cgs" {
        return Ok(Some(SamplerStrategy::SparseCgs));
    }
    if lower == "alias" {
        return Ok(Some(SamplerStrategy::alias_hybrid()));
    }
    if let Some(cadence) = lower.strip_prefix("alias:") {
        let rebuild_every: usize = cadence.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
            CliError::Usage(format!(
                "--sampler {raw}: rebuild cadence `{cadence}` must be a positive integer"
            ))
        })?;
        let SamplerStrategy::AliasHybrid { mh_steps, .. } = SamplerStrategy::alias_hybrid() else {
            unreachable!("alias_hybrid() is the alias variant");
        };
        return Ok(Some(SamplerStrategy::AliasHybrid {
            rebuild_every,
            mh_steps,
        }));
    }
    if lower == "light" {
        return Ok(Some(SamplerStrategy::light_lda()));
    }
    if let Some(steps) = lower.strip_prefix("light:") {
        let mh_steps: usize = steps.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
            CliError::Usage(format!(
                "--sampler {raw}: MH step count `{steps}` must be a positive integer"
            ))
        })?;
        let SamplerStrategy::LightLda {
            rebuild_every,
            prune_below,
            ..
        } = SamplerStrategy::light_lda()
        else {
            unreachable!("light_lda() is the light variant");
        };
        return Ok(Some(SamplerStrategy::LightLda {
            rebuild_every,
            mh_steps,
            prune_below,
        }));
    }
    if lower == "auto" {
        return Ok(Some(SamplerStrategy::Auto));
    }
    Err(CliError::Usage(format!(
        "--sampler {raw}: expected `sparse`, `alias[:rebuild_every]`, `light[:mh_steps]` or `auto`"
    )))
}

/// Load a corpus from `--corpus`, or generate one from `--profile`/`--tokens`.
fn corpus_from_args(args: &ParsedArgs) -> Result<(Corpus, String), CliError> {
    if let Some(path) = args.get("corpus") {
        let corpus = culda_corpus::load_corpus(&path)
            .map_err(|e| CliError::Runtime(format!("failed to load {path}: {e}")))?;
        return Ok((corpus, path));
    }
    let profile = profile_by_name(&args.get("profile").unwrap_or_else(|| "nytimes".into()))?;
    let tokens: u64 = args.get_parsed_or("tokens", 200_000u64)?;
    let seed: u64 = args.get_parsed_or("seed", 42u64)?;
    let profile = profile.scaled_to_tokens(tokens);
    let name = format!("{} (synthetic, ~{} tokens)", profile.name, tokens);
    Ok((profile.generate(seed), name))
}

/// `platforms` — list the device presets.
pub fn platforms(args: &ParsedArgs) -> Result<String, CliError> {
    args.reject_unknown()?;
    let specs = [
        DeviceSpec::xeon_e5_2670(),
        DeviceSpec::xeon_e5_2690v4(),
        DeviceSpec::k40_kepler(),
        DeviceSpec::titan_x_maxwell(),
        DeviceSpec::gtx_1080(),
        DeviceSpec::titan_xp_pascal(),
        DeviceSpec::p100_pascal(),
        DeviceSpec::v100_volta(),
        DeviceSpec::a100_ampere(),
    ];
    let mut out = String::new();
    writeln!(
        out,
        "{:<28} {:>6} {:>10} {:>12} {:>10}",
        "Device", "SMs", "BW (GB/s)", "Peak GFLOPS", "Mem (GiB)"
    )
    .unwrap();
    for s in specs {
        writeln!(
            out,
            "{:<28} {:>6} {:>10.0} {:>12.0} {:>10.0}",
            s.name,
            s.sm_count,
            s.mem_bandwidth_gbps,
            s.peak_gflops,
            s.mem_capacity_bytes as f64 / (1u64 << 30) as f64
        )
        .unwrap();
    }
    Ok(out)
}

/// `gen-corpus` — generate and save a synthetic corpus snapshot.
pub fn gen_corpus(args: &ParsedArgs) -> Result<String, CliError> {
    let out_path = args.require("out")?;
    let profile = profile_by_name(&args.get("profile").unwrap_or_else(|| "nytimes".into()))?;
    let tokens: u64 = args.get_parsed_or("tokens", 200_000u64)?;
    let seed: u64 = args.get_parsed_or("seed", 42u64)?;
    args.reject_unknown()?;
    let corpus = profile.scaled_to_tokens(tokens).generate(seed);
    culda_corpus::save_corpus(&corpus, &out_path)
        .map_err(|e| CliError::Runtime(format!("failed to write {out_path}: {e}")))?;
    let stats = CorpusStats::compute(profile.name.clone(), &corpus);
    Ok(format!(
        "wrote {} ({} documents, {} tokens, V = {})\n{}\n",
        out_path,
        corpus.num_docs(),
        corpus.num_tokens(),
        corpus.vocab_size(),
        stats.table3_row()
    ))
}

/// `stats` — Table-3 style statistics of a corpus snapshot.
pub fn stats(args: &ParsedArgs) -> Result<String, CliError> {
    let path = args.require("corpus")?;
    args.reject_unknown()?;
    let corpus = culda_corpus::load_corpus(&path)
        .map_err(|e| CliError::Runtime(format!("failed to load {path}: {e}")))?;
    let stats = CorpusStats::compute(path.clone(), &corpus);
    Ok(format!("{}\n", stats.table3_row()))
}

/// `train` — run CuLDA_CGS training and optionally save a model checkpoint.
pub fn train(args: &ParsedArgs) -> Result<String, CliError> {
    let (corpus, corpus_name) = corpus_from_args(args)?;
    let resume_from = args.get("resume-from");
    let resume = match &resume_from {
        None => None,
        Some(path) => {
            let ckpt = ModelCheckpoint::load(path)
                .map_err(|e| CliError::Runtime(format!("failed to load {path}: {e}")))?;
            if ckpt.z.is_none() {
                return Err(CliError::Runtime(format!(
                    "{path} stores no assignment state; only checkpoints saved \
                     with --save-model by this version can be resumed"
                )));
            }
            Some(ckpt)
        }
    };
    let topics: usize = match &resume {
        // Resuming fixes K (and the priors) to the checkpoint's values.
        Some(ckpt) => {
            if let Some(requested) = args.get("topics") {
                let requested: usize = requested
                    .parse()
                    .map_err(|_| CliError::Usage("--topics must be an integer".into()))?;
                if requested != ckpt.num_topics {
                    return Err(CliError::Usage(format!(
                        "--topics {requested} conflicts with the checkpoint's K = {}",
                        ckpt.num_topics
                    )));
                }
            }
            ckpt.num_topics
        }
        None => args.get_parsed_or("topics", 128usize)?,
    };
    let iterations: usize = args.get_parsed_or("iterations", 20usize)?;
    // Resuming continues on the checkpoint's seed (exact continuation); an
    // explicit conflicting --seed is rejected like a conflicting --topics.
    let seed: u64 = match &resume {
        Some(ckpt) => {
            if let Some(requested) = args.get("seed") {
                let requested: u64 = requested
                    .parse()
                    .map_err(|_| CliError::Usage("--seed must be an integer".into()))?;
                if requested != ckpt.seed {
                    return Err(CliError::Usage(format!(
                        "--seed {requested} conflicts with the checkpoint's seed {}",
                        ckpt.seed
                    )));
                }
            }
            ckpt.seed
        }
        None => args.get_parsed_or("seed", 42u64)?,
    };
    let device = device_by_name(&args.get("device").unwrap_or_else(|| "volta".into()))?;
    let save_model = args.get("save-model");
    let optimize_priors = args.flag("optimize-priors");
    let sync_shards = parse_sync_shards(args)?;
    let overlap_depth: usize = args.get_parsed_or("overlap-depth", 2usize)?;
    // Resuming continues on the checkpoint's sampler strategy; an explicit
    // conflicting --sampler is rejected like a conflicting --topics.
    let sampler = match (&resume, parse_sampler(args)?) {
        // A checkpoint always stores the *resolved* strategy, so resuming
        // with `--sampler auto` continues the decision already made — a
        // mid-run re-selection would fork the deterministic trajectory.
        (Some(ckpt), Some(SamplerStrategy::Auto)) => ckpt.sampler,
        (Some(ckpt), Some(requested)) => {
            if requested != ckpt.sampler {
                return Err(CliError::Usage(format!(
                    "--sampler {requested} conflicts with the checkpoint's sampler {}",
                    ckpt.sampler
                )));
            }
            requested
        }
        (Some(ckpt), None) => ckpt.sampler,
        (None, requested) => requested.unwrap_or_default(),
    };
    let (system, system_label) = system_from_args(args, &device, seed)?;
    args.reject_unknown()?;

    let mut config = LdaConfig::with_topics(topics)
        .seed(seed)
        .sync_shards(sync_shards)
        .sync_overlap_depth(overlap_depth)
        .sampler(sampler);
    config
        .validate()
        .map_err(|e| CliError::Usage(format!("invalid configuration: {e}")))?;
    let mut trainer = match &resume {
        None => SessionBuilder::new()
            .corpus(&corpus)
            .config(config)
            .system(system)
            .build()
            .map_err(|e| CliError::Runtime(format!("failed to build trainer: {e}")))?,
        Some(ckpt) => {
            if ckpt.vocab_size != corpus.vocab_size() {
                return Err(CliError::Runtime(format!(
                    "checkpoint vocabulary ({}) does not match the corpus ({})",
                    ckpt.vocab_size,
                    corpus.vocab_size()
                )));
            }
            config.alpha = ckpt.alpha;
            config.beta = ckpt.beta;
            let z = ckpt.z.clone().expect("checked above");
            SessionBuilder::new()
                .corpus(&corpus)
                .config(config)
                .system(system)
                .assignments(z, ckpt.iterations)
                .sampler_state(ckpt.sampler_state.clone())
                .build()
                .map_err(|e| CliError::Runtime(format!("failed to resume trainer: {e}")))?
        }
    };
    trainer.train(iterations);

    let cfg = trainer.config().clone();
    let ll = log_likelihood(
        &trainer.merged_theta(),
        &trainer.global_phi(),
        &trainer.global_nk(),
        cfg.alpha,
        cfg.beta,
    );
    let mut out = String::new();
    writeln!(out, "corpus:       {corpus_name}").unwrap();
    if let Some(path) = &resume_from {
        writeln!(out, "resumed from: {path}").unwrap();
    }
    writeln!(
        out,
        "model:        K = {topics}, α = {:.4}, β = {:.3}",
        cfg.alpha, cfg.beta
    )
    .unwrap();
    writeln!(out, "sampler:      {}", cfg.sampler).unwrap();
    writeln!(out, "system:       {system_label}").unwrap();
    writeln!(out, "schedule:     {:?}", trainer.schedule()).unwrap();
    if trainer.system().num_nodes() > 1 {
        let hier = trainer.hier_sync_plan();
        let n = trainer.history().len().max(1) as u64;
        let intra: u64 = trainer.history().iter().map(|h| h.intra_sync_bytes).sum();
        let inter: u64 = trainer.history().iter().map(|h| h.inter_sync_bytes).sum();
        writeln!(
            out,
            "cluster sync: {} ({} fabric group{}), {:.2} MB intra-node + {:.2} MB fabric per iteration",
            if hier.hierarchical() {
                "hierarchical"
            } else {
                "flat (LDA*-style)"
            },
            hier.inter_groups(),
            if hier.inter_groups() == 1 { "" } else { "s" },
            intra as f64 / n as f64 / 1e6,
            inter as f64 / n as f64 / 1e6,
        )
        .unwrap();
    }
    let plan = trainer.hier_sync_plan();
    if !plan.is_dense() {
        let n = trainer.history().len().max(1) as f64;
        let work: f64 = trainer.history().iter().map(|h| h.sync_time_s).sum::<f64>() / n;
        let exposed: f64 = trainer
            .history()
            .iter()
            .map(|h| h.sync_exposed_time_s)
            .sum::<f64>()
            / n;
        let origin = if trainer.config().sync_shards.is_none() {
            " (auto-tuned from iteration 0)"
        } else {
            ""
        };
        writeln!(
            out,
            "φ sync:       {} shards{origin}, overlap depth {} \
             ({:.3} ms reduce work, {:.3} ms exposed per iteration)",
            plan.shards(),
            plan.overlap_depth(),
            work * 1e3,
            exposed * 1e3
        )
        .unwrap();
    }
    writeln!(out, "iterations:   {iterations}").unwrap();
    writeln!(out, "sim time:     {:.3} s", trainer.sim_time_s()).unwrap();
    writeln!(
        out,
        "throughput:   {:.1} M tokens/s (mean of first {} iterations)",
        trainer.average_throughput(iterations) / 1e6,
        iterations
    )
    .unwrap();
    writeln!(out, "loglik/token: {:.4}", ll.per_token()).unwrap();
    writeln!(out, "kernel breakdown:").unwrap();
    for (name, pct) in trainer.kernel_breakdown() {
        writeln!(out, "  {name:<12} {pct:>6.1}%").unwrap();
    }
    if optimize_priors {
        let alpha = culda_core::optimize_alpha(
            &trainer.merged_theta(),
            cfg.alpha,
            culda_core::HyperOptOptions::default(),
        );
        let beta = culda_core::optimize_beta(
            &trainer.global_phi(),
            &trainer.global_nk(),
            cfg.beta,
            culda_core::HyperOptOptions::default(),
        );
        writeln!(
            out,
            "optimized priors: α = {:.4}, β = {:.4}",
            alpha.value, beta.value
        )
        .unwrap();
    }
    if let Some(path) = save_model {
        let ckpt = ModelCheckpoint::from_trainer(&trainer);
        ckpt.save(&path)
            .map_err(|e| CliError::Runtime(format!("failed to save model to {path}: {e}")))?;
        writeln!(out, "model saved to {path}").unwrap();
    }
    Ok(out)
}

/// `stream` — drive a [`StreamingSession`] from a corpus in mini-batches:
/// ingest a batch of documents, train a few iterations, retire documents
/// that fell out of the sliding window, and rotate checkpoints.
pub fn stream(args: &ParsedArgs) -> Result<String, CliError> {
    let (corpus, corpus_name) = corpus_from_args(args)?;
    let topics: usize = args.get_parsed_or("topics", 64usize)?;
    let seed: u64 = args.get_parsed_or("seed", 42u64)?;
    let device = device_by_name(&args.get("device").unwrap_or_else(|| "volta".into()))?;
    let batch_docs: usize = args.get_parsed_or("batch-docs", 256usize)?;
    let iterations_per_batch: usize = args.get_parsed_or("iterations-per-batch", 2usize)?;
    let window: usize = args.get_parsed_or("window", 0usize)?;
    let burn_in: usize = args.get_parsed_or("burn-in", 1usize)?;
    let checkpoint_dir = args.get("checkpoint-dir");
    let keep_last: usize = args.get_parsed_or("keep-last", 3usize)?;
    let resume = args.flag("resume");
    let sampler = parse_sampler(args)?;
    let (system, system_label) = system_from_args(args, &device, seed)?;
    args.reject_unknown()?;
    if batch_docs == 0 {
        return Err(CliError::Usage("--batch-docs must be positive".into()));
    }
    if resume && checkpoint_dir.is_none() {
        return Err(CliError::Usage(
            "--resume needs --checkpoint-dir to resume from".into(),
        ));
    }

    let mut session = if resume {
        let dir = checkpoint_dir.clone().expect("checked above");
        let opts = culda_core::StreamingOptions {
            burn_in_sweeps: burn_in,
            keep_last: keep_last.max(1),
            ..Default::default()
        };
        let session = StreamingSession::resume_with_options(&dir, system, opts)
            .map_err(|e| CliError::Runtime(format!("failed to resume from {dir}: {e}")))?;
        // Like `train --resume-from`, an explicit --topics/--seed that
        // conflicts with the checkpoint is a usage error, not silently
        // ignored.
        if let Some(requested) = args.get("topics") {
            let requested: usize = requested
                .parse()
                .map_err(|_| CliError::Usage("--topics must be an integer".into()))?;
            if requested != session.config().num_topics {
                return Err(CliError::Usage(format!(
                    "--topics {requested} conflicts with the resumed session's K = {}",
                    session.config().num_topics
                )));
            }
        }
        if let Some(requested) = args.get("seed") {
            let requested: u64 = requested
                .parse()
                .map_err(|_| CliError::Usage("--seed must be an integer".into()))?;
            if requested != session.config().seed {
                return Err(CliError::Usage(format!(
                    "--seed {requested} conflicts with the resumed session's seed {}",
                    session.config().seed
                )));
            }
        }
        // The rotated checkpoint set carries the *resolved* sampler
        // strategy (`auto` accepts whatever was decided); an explicit
        // conflicting --sampler is rejected, like --topics/--seed.
        if let Some(requested) = sampler {
            if requested != SamplerStrategy::Auto && requested != session.config().sampler {
                return Err(CliError::Usage(format!(
                    "--sampler {requested} conflicts with the resumed session's sampler {}",
                    session.config().sampler
                )));
            }
        }
        session
    } else {
        SessionBuilder::new()
            .config(
                LdaConfig::with_topics(topics)
                    .seed(seed)
                    .sampler(sampler.unwrap_or_default()),
            )
            .burn_in_sweeps(burn_in)
            .system(system)
            .build_streaming()
            .map_err(|e| CliError::Runtime(format!("failed to build session: {e}")))?
    };

    let mut out = String::new();
    writeln!(out, "corpus:  {corpus_name}").unwrap();
    writeln!(out, "system:  {system_label}").unwrap();
    writeln!(out, "sampler: {}", session.config().sampler).unwrap();
    if resume {
        let s = session.stats();
        writeln!(
            out,
            "resumed: {} live docs, {} iterations, {} checkpoints already rotated",
            s.live_docs, s.iterations, s.checkpoints_written
        )
        .unwrap();
    }
    writeln!(
        out,
        "streaming {} documents in batches of {batch_docs} \
         ({iterations_per_batch} iterations/batch, window {})",
        corpus.num_docs(),
        if window == 0 {
            "unbounded".to_string()
        } else {
            window.to_string()
        }
    )
    .unwrap();

    let docs: Vec<Document> = (0..corpus.num_docs())
        .map(|d| Document::from(corpus.doc(d)))
        .collect();
    for (batch_idx, batch) in docs.chunks(batch_docs).enumerate() {
        session.ingest(batch);
        // Sliding window: retire the oldest live documents beyond it.
        if window > 0 {
            let live = session.live_uids();
            if live.len() > window {
                let retire: Vec<u64> = live[..live.len() - window].to_vec();
                session
                    .retire(&retire)
                    .map_err(|e| CliError::Runtime(format!("retire failed: {e}")))?;
            }
        }
        session
            .train(iterations_per_batch)
            .map_err(|e| CliError::Runtime(format!("training failed: {e}")))?;
        if let Some(dir) = &checkpoint_dir {
            session
                .rotate_checkpoints(dir, keep_last)
                .map_err(|e| CliError::Runtime(format!("checkpoint rotation failed: {e}")))?;
        }
        let s = session.stats();
        writeln!(
            out,
            "batch {batch_idx:>3}: {:>6} live docs {:>9} live tokens  \
             it {:>4}  {:.3}s simulated",
            s.live_docs, s.live_tokens, s.iterations, s.sim_time_s
        )
        .unwrap();
    }

    session
        .validate()
        .map_err(|e| CliError::Runtime(format!("session invariants violated: {e}")))?;
    let s = session.stats();
    writeln!(out, "\nsession totals:").unwrap();
    writeln!(
        out,
        "  ingested {} docs, retired {} docs, {} live ({} tokens, V = {})",
        s.ingested_docs, s.retired_docs, s.live_docs, s.live_tokens, s.vocab_size
    )
    .unwrap();
    writeln!(
        out,
        "  {} iterations in {:.3} simulated seconds, {} checkpoint sets rotated",
        s.iterations, s.sim_time_s, s.checkpoints_written
    )
    .unwrap();
    if s.inter_sync_bytes > 0 {
        writeln!(
            out,
            "  φ sync traffic: {:.2} MB intra-node, {:.2} MB over the fabric",
            s.intra_sync_bytes as f64 / 1e6,
            s.inter_sync_bytes as f64 / 1e6
        )
        .unwrap();
    }
    Ok(out)
}

/// `serve` — the concurrent query tier end to end: stream a corpus into a
/// live model in mini-batches while `--query-threads` reader threads hammer
/// batched fold-in inference against the epoch-published snapshots
/// (`DESIGN.md` §12), then report both sides — training totals and
/// p50/p99 query latency + QPS.
pub fn serve(args: &ParsedArgs) -> Result<String, CliError> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let (corpus, corpus_name) = corpus_from_args(args)?;
    let topics: usize = args.get_parsed_or("topics", 64usize)?;
    let seed: u64 = args.get_parsed_or("seed", 42u64)?;
    let device = device_by_name(&args.get("device").unwrap_or_else(|| "volta".into()))?;
    let batch_docs: usize = args.get_parsed_or("batch-docs", 256usize)?;
    let iterations_per_batch: usize = args.get_parsed_or("iterations-per-batch", 2usize)?;
    let query_threads: usize = args.get_parsed_or("query-threads", 2usize)?;
    let query_batch: usize = args.get_parsed_or("query-batch", 8usize)?;
    let sweeps: usize = args.get_parsed_or("sweeps", 5usize)?;
    let (system, system_label) = system_from_args(args, &device, seed)?;
    args.reject_unknown()?;
    if batch_docs == 0 {
        return Err(CliError::Usage("--batch-docs must be positive".into()));
    }
    if query_threads == 0 || query_batch == 0 {
        return Err(CliError::Usage(
            "--query-threads and --query-batch must be positive".into(),
        ));
    }
    if corpus.num_docs() == 0 {
        return Err(CliError::Runtime("the corpus holds no documents".into()));
    }

    let mut session = SessionBuilder::new()
        .config(LdaConfig::with_topics(topics).seed(seed))
        .system(system)
        .build_streaming()
        .map_err(|e| CliError::Runtime(format!("failed to build session: {e}")))?;

    let docs: Vec<Document> = (0..corpus.num_docs())
        .map(|d| Document::from(corpus.doc(d)))
        .collect();
    // The query workload replays (a slice of) the corpus itself — realistic
    // word statistics without inventing a second corpus format.
    let query_docs: Arc<Vec<Vec<u32>>> = Arc::new(
        docs.iter()
            .take(512)
            .map(|d| d.words.clone())
            .collect::<Vec<_>>(),
    );
    let options = InferenceOptions {
        sweeps,
        burn_in: (sweeps / 4).clamp(usize::from(sweeps > 1), sweeps.saturating_sub(1)),
        seed: 7,
    };

    // Ingest the first batch and publish an initial snapshot so readers can
    // answer queries from the very first moment of the run.
    let mut batches = docs.chunks(batch_docs);
    let first = batches.next().expect("non-empty corpus");
    session
        .try_ingest(first)
        .map_err(|e| CliError::Runtime(format!("ingest failed: {e}")))?;
    session
        .publish_snapshot()
        .map_err(|e| CliError::Runtime(format!("snapshot publication failed: {e}")))?;

    // Reader side: each thread loops batched queries against the snapshot
    // tier until training finishes (and always completes at least one batch,
    // so short runs still serve).
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..query_threads)
        .map(|t| {
            let snapshots = session.snapshots();
            let stop = Arc::clone(&stop);
            let query_docs = Arc::clone(&query_docs);
            std::thread::spawn(move || -> Result<u64, String> {
                let mut served = 0u64;
                let mut cursor = t * query_batch;
                loop {
                    let batch: Vec<Vec<u32>> = (0..query_batch)
                        .map(|i| query_docs[(cursor + i) % query_docs.len()].clone())
                        .collect();
                    cursor = (cursor + query_batch) % query_docs.len();
                    let reply = snapshots
                        .infer_batch(&batch, options)
                        .map_err(|e| e.to_string())?;
                    served += reply.results.len() as u64;
                    if stop.load(Ordering::Relaxed) {
                        return Ok(served);
                    }
                }
            })
        })
        .collect();

    // Writer side: the usual streaming loop; every iteration boundary
    // republishes the snapshot because reader handles are live.
    let train_result = (|| -> Result<(), CliError> {
        session
            .train(iterations_per_batch)
            .map_err(|e| CliError::Runtime(format!("training failed: {e}")))?;
        for batch in batches {
            session
                .try_ingest(batch)
                .map_err(|e| CliError::Runtime(format!("ingest failed: {e}")))?;
            session
                .train(iterations_per_batch)
                .map_err(|e| CliError::Runtime(format!("training failed: {e}")))?;
        }
        Ok(())
    })();
    stop.store(true, Ordering::Relaxed);
    let mut served_per_thread = Vec::with_capacity(readers.len());
    for reader in readers {
        let served = reader
            .join()
            .map_err(|_| CliError::Runtime("a query thread panicked".into()))?
            .map_err(|e| CliError::Runtime(format!("query failed: {e}")))?;
        served_per_thread.push(served);
    }
    train_result?;
    session
        .validate()
        .map_err(|e| CliError::Runtime(format!("session invariants violated: {e}")))?;

    let s = session.stats();
    let mut out = String::new();
    writeln!(out, "corpus:  {corpus_name}").unwrap();
    writeln!(out, "model:   K = {topics}, seed {seed}, {system_label}").unwrap();
    writeln!(
        out,
        "serving: {query_threads} query threads × batches of {query_batch} \
         ({sweeps} fold-in sweeps per query)"
    )
    .unwrap();
    writeln!(
        out,
        "trained: {} docs ingested, {} iterations, {:.3}s simulated, \
         {} snapshot epochs published",
        s.ingested_docs, s.iterations, s.sim_time_s, s.snapshot_epoch
    )
    .unwrap();
    writeln!(out, "\nquery tier:").unwrap();
    writeln!(
        out,
        "  queries answered: {} ({})",
        s.queries_served,
        served_per_thread
            .iter()
            .enumerate()
            .map(|(t, n)| format!("thread{t}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    )
    .unwrap();
    writeln!(
        out,
        "  latency: p50 {:.3} ms, p99 {:.3} ms",
        s.query_p50_ms, s.query_p99_ms
    )
    .unwrap();
    writeln!(out, "  throughput: {:.1} queries/s", s.query_qps).unwrap();
    Ok(out)
}

/// `topics` — print the top words of every topic of a saved model.
pub fn topics(args: &ParsedArgs) -> Result<String, CliError> {
    let model_path = args.require("model")?;
    let top_n: usize = args.get_parsed_or("top", 10usize)?;
    args.reject_unknown()?;
    let ckpt = ModelCheckpoint::load(&model_path)
        .map_err(|e| CliError::Runtime(format!("failed to load {model_path}: {e}")))?;
    let mut out = String::new();
    writeln!(
        out,
        "model: K = {}, V = {}, {} tokens",
        ckpt.num_topics,
        ckpt.vocab_size,
        ckpt.total_tokens()
    )
    .unwrap();
    for k in 0..ckpt.num_topics {
        let words = culda_metrics::coherence::top_words(&ckpt.phi, k, top_n);
        let rendered: Vec<String> = words
            .iter()
            .map(|&w| format!("word{w}({})", ckpt.phi.get(k, w as usize)))
            .collect();
        writeln!(out, "topic {k:>3}: {}", rendered.join(" ")).unwrap();
    }
    Ok(out)
}

/// `infer` — topic mixture of ad-hoc text (space-separated word ids) or a
/// corpus snapshot.
pub fn infer(args: &ParsedArgs) -> Result<String, CliError> {
    let model_path = args.require("model")?;
    let sweeps: usize = args.get_parsed_or("sweeps", 20usize)?;
    let text = args.get("text");
    let corpus_path = args.get("corpus");
    args.reject_unknown()?;
    let ckpt = ModelCheckpoint::load(&model_path)
        .map_err(|e| CliError::Runtime(format!("failed to load {model_path}: {e}")))?;
    // The fallible path: a corrupt checkpoint (NaN weights, non-positive
    // topic totals, shape mismatch) is a runtime error, never a panic.
    let inferencer: TopicInferencer = ckpt
        .try_inferencer()
        .map_err(|e| CliError::Runtime(format!("{model_path} is corrupt: {e}")))?;
    let options = InferenceOptions {
        sweeps,
        burn_in: (sweeps / 4).max(1).min(sweeps - 1),
        seed: 7,
    };
    let mut out = String::new();
    match (text, corpus_path) {
        (Some(text), _) => {
            let words: Vec<u32> = text
                .split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect();
            if words.is_empty() {
                return Err(CliError::Usage(
                    "--text must contain space-separated word ids".into(),
                ));
            }
            let doc = inferencer
                .try_infer_document(&words, options)
                .map_err(|e| CliError::Runtime(format!("inference failed: {e}")))?;
            writeln!(out, "tokens used: {}", words.len()).unwrap();
            for (k, p) in doc.top_topics(5) {
                writeln!(out, "topic {k:>3}: {:>6.2}%", p * 100.0).unwrap();
            }
        }
        (None, Some(path)) => {
            let corpus = culda_corpus::load_corpus(&path)
                .map_err(|e| CliError::Runtime(format!("failed to load {path}: {e}")))?;
            let results = inferencer
                .try_infer_corpus(&corpus, options)
                .map_err(|e| CliError::Runtime(format!("inference failed: {e}")))?;
            writeln!(out, "{} documents", results.len()).unwrap();
            for (d, doc) in results.iter().enumerate().take(20) {
                let top = doc.top_topics(3);
                let rendered: Vec<String> = top
                    .iter()
                    .map(|&(k, p)| format!("{k}:{:.0}%", p * 100.0))
                    .collect();
                writeln!(out, "doc {d:>5}: {}", rendered.join(" ")).unwrap();
            }
            if results.len() > 20 {
                writeln!(out, "... ({} more documents)", results.len() - 20).unwrap();
            }
            writeln!(out, "replies digest: {:016x}", replies_digest(&results)).unwrap();
        }
        (None, None) => {
            return Err(CliError::Usage(
                "infer needs either --text or --corpus".into(),
            ))
        }
    }
    Ok(out)
}

/// 64-bit FNV-1a over every reply in order: its `counts` as `u32` LE, then
/// its `mixture` as `f64` bits in `u64` LE.  Equal digests mean equal
/// replies to the bit, which the rendered top topics do not show.
fn replies_digest(replies: &[DocumentTopics]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut absorb = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for reply in replies {
        for &c in &reply.counts {
            absorb(&c.to_le_bytes());
        }
        for &p in &reply.mixture {
            absorb(&p.to_bits().to_le_bytes());
        }
    }
    h
}

/// `eval` — held-out perplexity of a saved model on a test corpus under the
/// document-completion protocol.
pub fn eval(args: &ParsedArgs) -> Result<String, CliError> {
    let model_path = args.require("model")?;
    let corpus_path = args.require("corpus")?;
    let heldout_fraction: f64 = args.get_parsed_or("heldout-fraction", 0.5f64)?;
    let sweeps: usize = args.get_parsed_or("sweeps", 20usize)?;
    args.reject_unknown()?;
    if !(0.0..1.0).contains(&heldout_fraction) {
        return Err(CliError::Usage(
            "--heldout-fraction must be in [0, 1)".into(),
        ));
    }
    let ckpt = ModelCheckpoint::load(&model_path)
        .map_err(|e| CliError::Runtime(format!("failed to load {model_path}: {e}")))?;
    let corpus = culda_corpus::load_corpus(&corpus_path)
        .map_err(|e| CliError::Runtime(format!("failed to load {corpus_path}: {e}")))?;
    if corpus.vocab_size() != ckpt.vocab_size {
        return Err(CliError::Runtime(format!(
            "corpus vocabulary ({}) does not match the model ({})",
            corpus.vocab_size(),
            ckpt.vocab_size
        )));
    }
    let split = DocumentCompletion::split(&corpus, heldout_fraction, 11);
    let inferencer = ckpt
        .try_inferencer()
        .map_err(|e| CliError::Runtime(format!("{model_path} is corrupt: {e}")))?;
    let options = InferenceOptions {
        sweeps,
        burn_in: (sweeps / 4).max(1).min(sweeps - 1),
        seed: 13,
    };
    let theta_counts = inferencer
        .try_infer_corpus_counts(&split.observed, options)
        .map_err(|e| CliError::Runtime(format!("inference failed: {e}")))?;
    let score = evaluate_heldout(
        &split.heldout,
        &theta_counts,
        &ckpt.phi,
        &ckpt.nk,
        ckpt.alpha,
        ckpt.beta,
    );
    let mut out = String::new();
    writeln!(out, "test documents:      {}", corpus.num_docs()).unwrap();
    writeln!(out, "held-out tokens:     {}", score.num_tokens).unwrap();
    writeln!(out, "log p per token:     {:.4}", score.per_token()).unwrap();
    writeln!(out, "held-out perplexity: {:.1}", score.perplexity()).unwrap();
    Ok(out)
}

/// Topic-quality report (coherence/diversity) shared by `train --quality` in
/// the examples and the tests; exposed for reuse.
pub fn quality_report(corpus: &Corpus, trainer: &CuLdaTrainer, top_n: usize) -> String {
    let q = topic_quality_report(corpus, &trainer.global_phi(), top_n);
    format!(
        "topic quality: mean UMass coherence {:.2}, mean NPMI {:.2}, diversity {:.2} (top {})",
        q.mean_coherence, q.mean_npmi, q.diversity, q.top_n
    )
}

/// Dispatch a parsed command line to its implementation.
pub fn dispatch(args: &ParsedArgs) -> Result<String, CliError> {
    match args.command.as_str() {
        "platforms" => platforms(args),
        "gen-corpus" => gen_corpus(args),
        "stats" => stats(args),
        "train" => train(args),
        "stream" => stream(args),
        "serve" => serve(args),
        "topics" => topics(args),
        "infer" => infer(args),
        "eval" => eval(args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Usage(e.to_string())
    }
}
