//! Performance regression gate over simulated **and** wall-clock throughput.
//!
//! Measures tokens/s on a fixed set of scenarios and compares the numbers
//! against a committed baseline (`bench_baseline.json` at the repository
//! root).  Two metrics are recorded per scenario:
//!
//! * **Simulated tokens/s** (`tokens_per_s`) — the cost-model throughput.
//!   A pure function of its inputs, bit-stable across machines and thread
//!   counts, so it is gated strictly: CI fails on any scenario slower than
//!   `baseline × (1 - TOLERANCE)`.  The 10 % tolerance absorbs *intentional*
//!   cost-model adjustments, not measurement noise.
//! * **Wall-clock tokens/s** (`wall_tokens_per_s`) — tokens actually pushed
//!   through the host per real second, including trainer construction.
//!   This depends on the machine, its load, and `CULDA_NUM_THREADS`, so it
//!   is gated with a wide band: the gate only fails when throughput falls
//!   below `baseline × WALL_BAND`, catching order-of-magnitude rots (an
//!   accidentally quadratic path, a poisoned thread pool) without flaking
//!   on hardware differences.
//!
//! ```text
//! perf-gate --write bench_baseline.json    # refresh the baseline
//! perf-gate --check bench_baseline.json    # CI gate
//! ```

use culda_bench::tables::culda_throughput;
use culda_bench::{datasets, ExperimentScale};
use culda_core::{InferenceOptions, LdaConfig, SamplerStrategy, SessionBuilder};
use culda_gpusim::{ClusterSystem, DeviceSpec, Interconnect, MultiGpuSystem};

/// Fractional slowdown of *simulated* throughput tolerated before the gate
/// fails.
const TOLERANCE: f64 = 0.10;

/// Fraction of the baseline *wall-clock* throughput below which the gate
/// fails.  Wall time varies with hardware and load, so only a 5× collapse —
/// a structural regression, not noise — trips it.
const WALL_BAND: f64 = 0.20;

/// One scenario's measured throughputs.
struct RunResult {
    /// Simulated (cost-model) tokens/s.
    sim_tps: f64,
    /// Wall-clock tokens/s over the same run.
    wall_tps: f64,
}

/// Run `train`, timing it, and derive wall-clock tokens/s from
/// `total_tokens` (tokens per iteration × iterations).  Wall time covers
/// trainer construction and training, not corpus generation.
fn timed(total_tokens: u64, train: impl FnOnce() -> f64) -> RunResult {
    let start = std::time::Instant::now();
    let sim_tps = train();
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    RunResult {
        sim_tps,
        wall_tps: total_tokens as f64 / wall_s,
    }
}

struct Scenario {
    name: &'static str,
    run: fn() -> RunResult,
}

/// The gated scenarios: the resident single-GPU path on two architectures,
/// the multi-GPU scaling path under the paper's dense reduce
/// (`culda_throughput` pins `sync_shards(1)`), the multi-GPU path under
/// the *default* configuration, where the φ-sync shard count auto-tunes
/// from iteration 0 — so a regression in the tuner's choice fails the gate —
/// and a large-K sampler-portfolio quartet comparing sparse CGS against the
/// alias hybrid and both LightLDA variants on the tail-heavy workload (the
/// MH kernels must stay at least as fast there: they amortise or drop the
/// per-word work the sparse kernel pays every iteration — exactly the
/// regime where `--sampler auto` picks them), a wall-clock
/// query-latency canary for the epoch-snapshot serving tier, and a
/// 2-node × 2-GPU cluster over 10 GbE under the default hierarchical sync —
/// so a regression in the two-tier schedule or its (shards, fabric-groups)
/// auto-tuner fails the gate.
fn scenarios() -> Vec<Scenario> {
    fn scale() -> ExperimentScale {
        ExperimentScale {
            tokens: 120_000,
            num_topics: 96,
            iterations: 8,
            seed: 42,
        }
    }
    /// The regime the alias hybrid targets: K large and a wide, Zipf-tailed
    /// vocabulary of short documents, where the sparse kernel's per-word
    /// `O(K)` column read + tree build dominates the iteration (on the
    /// long-document NYTimes twin the per-token θ-row traffic swamps it and
    /// the two samplers tie).
    fn large_k_throughput(sampler: SamplerStrategy) -> RunResult {
        let corpus = culda_corpus::DatasetProfile {
            name: "tail-heavy".into(),
            num_docs: 6_000,
            vocab_size: 20_000,
            avg_doc_len: 20.0,
            zipf_exponent: 1.05,
            doc_len_sigma: 0.4,
        }
        .generate(42);
        let iterations = 6;
        let total = (corpus.num_tokens() * iterations) as u64;
        timed(total, || {
            let mut trainer = SessionBuilder::new()
                .corpus(&corpus)
                .config(
                    LdaConfig::with_topics(512)
                        .seed(42)
                        .sync_shards(1)
                        .sampler(sampler),
                )
                .system(MultiGpuSystem::single(DeviceSpec::v100_volta(), 42))
                .build()
                .expect("trainer construction");
            trainer.train(iterations);
            trainer.average_throughput(iterations)
        })
    }
    /// Query-latency canary for the serving tier: train a streaming model,
    /// publish a snapshot, then push a fixed batched query load through the
    /// [`culda_core::ModelSnapshots`] handle.  Queries run on the host,
    /// outside the GPU cost model, so the *simulated* column is pinned to
    /// the (pure, deterministic) total query token count — trivially green
    /// under the strict gate — while the *wall* column is the real canary:
    /// it collapses if the fold-in chain or the snapshot load path rots
    /// (e.g. an accidental per-query φ copy).
    fn query_latency() -> RunResult {
        const QUERY_ROUNDS: u64 = 3;
        let corpus = culda_corpus::DatasetProfile {
            name: "serve".into(),
            num_docs: 2_000,
            vocab_size: 8_000,
            avg_doc_len: 18.0,
            zipf_exponent: 1.05,
            doc_len_sigma: 0.4,
        }
        .generate(42);
        let queries: Vec<Vec<u32>> = (0..corpus.num_docs().min(256))
            .map(|d| corpus.doc(d).to_vec())
            .collect();
        let query_tokens: u64 = queries.iter().map(|q| q.len() as u64).sum::<u64>() * QUERY_ROUNDS;
        let mut session = SessionBuilder::new()
            .corpus(&corpus)
            .config(LdaConfig::with_topics(96).seed(42))
            .system(MultiGpuSystem::single(DeviceSpec::v100_volta(), 42))
            .build_streaming()
            .expect("session construction");
        session.train(2).expect("training");
        session.publish_snapshot().expect("snapshot publication");
        let snapshots = session.snapshots();
        let options = InferenceOptions {
            sweeps: 5,
            burn_in: 1,
            seed: 7,
        };
        timed(query_tokens, || {
            for _ in 0..QUERY_ROUNDS {
                for batch in queries.chunks(16) {
                    snapshots
                        .infer_batch(batch, options)
                        .expect("serving query");
                }
            }
            query_tokens as f64
        })
    }
    vec![
        Scenario {
            name: "nytimes_volta_1gpu_resident",
            run: || {
                let s = scale();
                let dataset = datasets::nytimes(&s);
                timed((dataset.corpus.num_tokens() * s.iterations) as u64, || {
                    culda_throughput(&dataset, DeviceSpec::v100_volta(), 1, &s)
                })
            },
        },
        Scenario {
            name: "pubmed_pascal_4gpu_scaling",
            run: || {
                let s = scale();
                let dataset = datasets::pubmed(&s);
                timed((dataset.corpus.num_tokens() * s.iterations) as u64, || {
                    culda_throughput(&dataset, DeviceSpec::titan_xp_pascal(), 4, &s)
                })
            },
        },
        Scenario {
            name: "nytimes_maxwell_1gpu_resident",
            run: || {
                let s = scale();
                let dataset = datasets::nytimes(&s);
                timed((dataset.corpus.num_tokens() * s.iterations) as u64, || {
                    culda_throughput(&dataset, DeviceSpec::titan_x_maxwell(), 1, &s)
                })
            },
        },
        Scenario {
            name: "pubmed_pascal_4gpu_autotuned_sync",
            run: || {
                let s = scale();
                let dataset = datasets::pubmed(&s);
                timed((dataset.corpus.num_tokens() * s.iterations) as u64, || {
                    let mut trainer = SessionBuilder::new()
                        .corpus(&dataset.corpus)
                        // Default config: sync_shards = None → the tuner picks
                        // the shard count after the dense iteration 0.
                        .config(LdaConfig::with_topics(s.num_topics).seed(s.seed))
                        .system(MultiGpuSystem::homogeneous(
                            DeviceSpec::titan_xp_pascal(),
                            4,
                            s.seed,
                            Interconnect::Pcie3,
                        ))
                        .build()
                        .expect("trainer construction");
                    trainer.train(s.iterations);
                    trainer.average_throughput(s.iterations)
                })
            },
        },
        Scenario {
            name: "tailheavy_volta_1gpu_largeK_sparse",
            run: || large_k_throughput(SamplerStrategy::SparseCgs),
        },
        Scenario {
            name: "tailheavy_volta_1gpu_largeK_alias",
            run: || large_k_throughput(SamplerStrategy::alias_hybrid()),
        },
        Scenario {
            name: "tailheavy_volta_1gpu_largeK_light",
            run: || large_k_throughput(SamplerStrategy::light_lda()),
        },
        Scenario {
            name: "tailheavy_volta_1gpu_largeK_light_pruned",
            run: || large_k_throughput(SamplerStrategy::light_lda_pruned()),
        },
        Scenario {
            name: "serve_volta_query_latency",
            run: query_latency,
        },
        Scenario {
            name: "pubmed_2node_2gpu_cluster_hier",
            run: || {
                let s = scale();
                let dataset = datasets::pubmed(&s);
                timed((dataset.corpus.num_tokens() * s.iterations) as u64, || {
                    let mut trainer = SessionBuilder::new()
                        .corpus(&dataset.corpus)
                        // Default config: hierarchical sync on, shard count
                        // and fabric group count both auto-tuned after the
                        // dense iteration 0.
                        .config(LdaConfig::with_topics(s.num_topics).seed(s.seed))
                        .system(
                            ClusterSystem::homogeneous(
                                DeviceSpec::titan_xp_pascal(),
                                2,
                                2,
                                s.seed,
                                Interconnect::Pcie3,
                                Interconnect::Ethernet10G,
                            )
                            .into_system(),
                        )
                        .build()
                        .expect("trainer construction");
                    trainer.train(s.iterations);
                    trainer.average_throughput(s.iterations)
                })
            },
        },
    ]
}

fn measure() -> Vec<(String, RunResult)> {
    scenarios()
        .into_iter()
        .map(|s| {
            let r = (s.run)();
            eprintln!(
                "measured {:<34} {:>14.1} sim t/s {:>12.1} wall t/s",
                s.name, r.sim_tps, r.wall_tps
            );
            (s.name.to_string(), r)
        })
        .collect()
}

fn write_baseline(path: &str, rows: &[(String, RunResult)]) -> std::io::Result<()> {
    let mut out = String::from("{\n  \"scenarios\": [\n");
    for (i, (name, r)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{ \"name\": \"{name}\", \"tokens_per_s\": {:.3}, \
             \"wall_tokens_per_s\": {:.3} }}{comma}\n",
            r.sim_tps, r.wall_tps
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// One baseline entry: name, simulated tokens/s, and (absent in baselines
/// written before the wall-clock gate) wall-clock tokens/s.
#[derive(Debug)]
struct BaselineRow {
    name: String,
    sim_tps: f64,
    wall_tps: Option<f64>,
}

/// Minimal parser for the baseline file this tool itself writes; avoids a
/// JSON dependency, per the offline dependency policy (DESIGN.md §3).
///
/// Each `{ … }` scenario object is parsed as a whole: its fields are split
/// out and matched by *exact key*, so field order inside an object does not
/// matter and a scenario name containing a key as a substring cannot
/// mispair values.  Duplicate scenario names are an error.
fn read_baseline(path: &str) -> Result<Vec<BaselineRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let root = text
        .find('{')
        .ok_or_else(|| format!("{path} is not a JSON object"))?;
    let mut rows: Vec<BaselineRow> = Vec::new();
    let mut rest = &text[root + 1..];
    while let Some(open) = rest.find('{') {
        let close = rest[open..]
            .find('}')
            .map(|c| open + c)
            .ok_or_else(|| format!("unbalanced braces in {path}"))?;
        let object = &rest[open + 1..close];
        rest = &rest[close + 1..];

        let mut name: Option<String> = None;
        let mut sim: Option<f64> = None;
        let mut wall: Option<f64> = None;
        for field in object.split(',') {
            let Some((key, value)) = field.split_once(':') else {
                continue;
            };
            let key = key.trim().trim_matches('"');
            let value = value.trim();
            match key {
                "name" => name = Some(value.trim_matches('"').to_string()),
                "tokens_per_s" => {
                    sim =
                        Some(value.parse().map_err(|e| {
                            format!("bad tokens_per_s value {value:?} in {path}: {e}")
                        })?);
                }
                "wall_tokens_per_s" => {
                    wall = Some(value.parse().map_err(|e| {
                        format!("bad wall_tokens_per_s value {value:?} in {path}: {e}")
                    })?);
                }
                _ => {}
            }
        }
        let name = name.ok_or_else(|| format!("scenario object without a name in {path}"))?;
        let sim_tps =
            sim.ok_or_else(|| format!("scenario `{name}` has no tokens_per_s in {path}"))?;
        if rows.iter().any(|r| r.name == name) {
            return Err(format!("duplicate scenario name `{name}` in {path}"));
        }
        rows.push(BaselineRow {
            name,
            sim_tps,
            wall_tps: wall,
        });
    }
    if rows.is_empty() {
        return Err(format!("{path} contains no scenarios"));
    }
    Ok(rows)
}

fn check(path: &str) -> Result<(), String> {
    let baseline = read_baseline(path)?;
    let measured = measure();
    let mut failures = Vec::new();
    println!("threads: {}", rayon::current_num_threads());
    println!(
        "{:<34} {:>14} {:>14} {:>8} {:>12} {:>12} {:>8}",
        "scenario", "base sim t/s", "meas sim t/s", "Δ sim", "base wall", "meas wall", "Δ wall"
    );
    for row in &baseline {
        let name = &row.name;
        let Some((_, r)) = measured.iter().find(|(n, _)| n == name) else {
            failures.push(format!("scenario `{name}` in baseline but not measured"));
            continue;
        };
        let ratio = r.sim_tps / row.sim_tps;
        let verdict = if ratio < 1.0 - TOLERANCE {
            failures.push(format!(
                "{name}: {:.1} tokens/s is {:.1}% below the baseline {:.1}",
                r.sim_tps,
                (1.0 - ratio) * 100.0,
                row.sim_tps
            ));
            "FAIL"
        } else {
            "ok"
        };
        let (base_wall, wall_delta) = match row.wall_tps {
            Some(bw) => {
                let wr = r.wall_tps / bw;
                if wr < WALL_BAND {
                    failures.push(format!(
                        "{name}: wall-clock {:.1} tokens/s collapsed to {:.2}× the \
                         baseline {bw:.1} (band: ≥ {WALL_BAND})",
                        r.wall_tps, wr
                    ));
                }
                (
                    format!("{bw:>12.1}"),
                    format!("{:>+7.1}%", (wr - 1.0) * 100.0),
                )
            }
            None => ("           -".to_string(), "       -".to_string()),
        };
        println!(
            "{name:<34} {:>14.1} {:>14.1} {:>+7.1}% {base_wall} {:>12.1} {wall_delta} {verdict}",
            row.sim_tps,
            r.sim_tps,
            (ratio - 1.0) * 100.0,
            r.wall_tps
        );
        if ratio > 1.0 + TOLERANCE {
            eprintln!(
                "note: {name} improved by {:.1}% — consider refreshing the baseline \
                 (perf-gate --write {path})",
                (ratio - 1.0) * 100.0
            );
        }
    }
    for (name, _) in &measured {
        if !baseline.iter().any(|r| &r.name == name) {
            failures.push(format!(
                "scenario `{name}` is measured but missing from {path} — refresh the baseline"
            ));
        }
    }
    // Cross-scenario invariant, independent of the committed baseline: the
    // alias-hybrid sampler exists to beat sparse CGS on the large-K
    // tail-heavy workload, so the gate fails outright if it ever measures
    // slower there — even if both numbers individually stay within their
    // own baselines' tolerance.
    let tps = |name: &str| {
        measured
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.sim_tps)
    };
    if let (Some(alias), Some(sparse)) = (
        tps("tailheavy_volta_1gpu_largeK_alias"),
        tps("tailheavy_volta_1gpu_largeK_sparse"),
    ) {
        if alias < sparse {
            failures.push(format!(
                "alias sampler ({alias:.1} tokens/s) measured slower than sparse CGS \
                 ({sparse:.1} tokens/s) on the large-K scenario — the amortisation \
                 invariant is broken"
            ));
        } else {
            println!(
                "alias/sparse large-K ratio: {:.3} (must stay ≥ 1)",
                alias / sparse
            );
        }
    }
    // Same invariant for the LightLDA portfolio member: dropping the
    // per-token O(K_d) sparse pass for O(mh · log K_d) proposals must pay
    // off exactly where the auto-tuner would pick it.
    for light_name in [
        "tailheavy_volta_1gpu_largeK_light",
        "tailheavy_volta_1gpu_largeK_light_pruned",
    ] {
        if let (Some(light), Some(sparse)) =
            (tps(light_name), tps("tailheavy_volta_1gpu_largeK_sparse"))
        {
            if light < sparse {
                failures.push(format!(
                    "{light_name} ({light:.1} tokens/s) measured slower than sparse CGS \
                     ({sparse:.1} tokens/s) on the large-K scenario — the MH-proposal \
                     invariant is broken"
                ));
            } else {
                println!(
                    "{}/sparse large-K ratio: {:.3} (must stay ≥ 1)",
                    light_name,
                    light / sparse
                );
            }
        }
    }
    if failures.is_empty() {
        println!(
            "perf gate passed ({} scenarios, sim tolerance {:.0}%, wall floor {:.2}× baseline)",
            baseline.len(),
            TOLERANCE * 100.0,
            WALL_BAND
        );
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [flag, path] if flag == "--write" => {
            let rows = measure();
            write_baseline(path, &rows)
                .map_err(|e| format!("cannot write {path}: {e}"))
                .map(|()| println!("wrote {} scenarios to {path}", rows.len()))
        }
        [flag, path] if flag == "--check" => check(path),
        _ => Err("usage: perf-gate (--write|--check) <baseline.json>".to_string()),
    };
    if let Err(msg) = result {
        eprintln!("perf-gate: {msg}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, contents: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("perf_gate_test_{name}_{}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn round_trips_what_it_writes() {
        let rows = vec![
            (
                "alpha".to_string(),
                RunResult {
                    sim_tps: 123.456,
                    wall_tps: 7.5,
                },
            ),
            (
                "beta".to_string(),
                RunResult {
                    sim_tps: 99.0,
                    wall_tps: 1.25,
                },
            ),
        ];
        let path = tmp("roundtrip", "");
        write_baseline(&path, &rows).unwrap();
        let parsed = read_baseline(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "alpha");
        assert!((parsed[0].sim_tps - 123.456).abs() < 1e-9);
        assert_eq!(parsed[0].wall_tps, Some(7.5));
        assert_eq!(parsed[1].name, "beta");
        assert_eq!(parsed[1].wall_tps, Some(1.25));
    }

    #[test]
    fn field_order_inside_an_object_does_not_matter() {
        let path = tmp(
            "reorder",
            r#"{ "scenarios": [
                 { "tokens_per_s": 10.0, "name": "value_first" },
                 { "wall_tokens_per_s": 3.0, "name": "wall_first", "tokens_per_s": 20.0 }
               ] }"#,
        );
        let parsed = read_baseline(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(parsed[0].name, "value_first");
        assert_eq!(parsed[0].sim_tps, 10.0);
        assert_eq!(parsed[0].wall_tps, None);
        assert_eq!(parsed[1].name, "wall_first");
        assert_eq!(parsed[1].sim_tps, 20.0);
        assert_eq!(parsed[1].wall_tps, Some(3.0));
    }

    #[test]
    fn a_name_containing_a_key_substring_cannot_mispair() {
        let path = tmp(
            "keylike",
            r#"{ "scenarios": [
                 { "name": "weird_tokens_per_s_scenario", "tokens_per_s": 5.0 }
               ] }"#,
        );
        let parsed = read_baseline(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "weird_tokens_per_s_scenario");
        assert_eq!(parsed[0].sim_tps, 5.0);
    }

    #[test]
    fn duplicate_scenario_names_are_rejected() {
        let path = tmp(
            "dup",
            r#"{ "scenarios": [
                 { "name": "same", "tokens_per_s": 1.0 },
                 { "name": "same", "tokens_per_s": 2.0 }
               ] }"#,
        );
        let err = read_baseline(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("duplicate scenario name `same`"), "{err}");
    }

    #[test]
    fn missing_fields_are_reported() {
        let no_name = tmp("noname", r#"{ "scenarios": [ { "tokens_per_s": 1.0 } ] }"#);
        let err = read_baseline(&no_name).unwrap_err();
        std::fs::remove_file(&no_name).ok();
        assert!(err.contains("without a name"), "{err}");

        let no_tps = tmp("notps", r#"{ "scenarios": [ { "name": "x" } ] }"#);
        let err = read_baseline(&no_tps).unwrap_err();
        std::fs::remove_file(&no_tps).ok();
        assert!(err.contains("no tokens_per_s"), "{err}");
    }

    #[test]
    fn pre_wall_clock_baselines_still_parse() {
        let path = tmp(
            "legacy",
            r#"{ "scenarios": [ { "name": "old", "tokens_per_s": 42.0 } ] }"#,
        );
        let parsed = read_baseline(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(parsed[0].wall_tps, None);
    }
}
