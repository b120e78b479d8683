//! End-to-end smoke test of the `culda-cli` binary: generate a tiny
//! synthetic corpus, train with a model checkpoint, resume training from
//! that checkpoint, and run inference against the resumed model — all
//! through the real executable via `assert_cmd`.

use assert_cmd::Command;

fn cli() -> Command {
    Command::cargo_bin("culda-cli").expect("culda-cli binary built for tests")
}

#[test]
fn train_checkpoint_resume_infer_round_trip() {
    let dir = std::env::temp_dir().join(format!(
        "culda-cli-smoke-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.cldc");
    let model = dir.join("model.cldm");
    let resumed = dir.join("resumed.cldm");

    // 1. Generate a tiny synthetic corpus snapshot.
    cli()
        .args([
            "gen-corpus",
            "--profile",
            "nytimes",
            "--tokens",
            "4000",
            "--seed",
            "11",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .assert()
        .success();
    assert!(corpus.exists(), "gen-corpus must write the snapshot");

    // 2. Train and save a checkpoint.
    cli()
        .args([
            "train",
            "--corpus",
            corpus.to_str().unwrap(),
            "--topics",
            "8",
            "--iterations",
            "3",
            "--seed",
            "11",
            "--save-model",
            model.to_str().unwrap(),
        ])
        .assert()
        .success()
        .stdout_contains("loglik/token:")
        .stdout_contains("model saved to");
    assert!(model.exists(), "train must write the checkpoint");

    // 3. Resume from the checkpoint and keep training.
    cli()
        .args([
            "train",
            "--corpus",
            corpus.to_str().unwrap(),
            "--iterations",
            "2",
            "--seed",
            "11",
            "--resume-from",
            model.to_str().unwrap(),
            "--save-model",
            resumed.to_str().unwrap(),
        ])
        .assert()
        .success()
        .stdout_contains("resumed from:")
        .stdout_contains("model saved to");
    assert!(resumed.exists(), "resumed train must write its checkpoint");

    // 4. Infer a topic mixture from the resumed model.
    cli()
        .args([
            "infer",
            "--model",
            resumed.to_str().unwrap(),
            "--text",
            "0 1 2 3 4 5 6 7",
            "--sweeps",
            "8",
        ])
        .assert()
        .success()
        .stdout_contains("topic");

    // 5. Inspect the topics of the resumed model for good measure.
    cli()
        .args(["topics", "--model", resumed.to_str().unwrap(), "--top", "3"])
        .assert()
        .success()
        .stdout_contains("topic");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_ingest_retire_rotate_resume_round_trip() {
    let dir = std::env::temp_dir().join(format!(
        "culda-cli-stream-smoke-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.cldc");
    let ckpts = dir.join("checkpoints");

    cli()
        .args([
            "gen-corpus",
            "--profile",
            "nytimes",
            "--tokens",
            "4000",
            "--seed",
            "11",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .assert()
        .success();

    // 1. Stream the corpus in mini-batches with a sliding window and
    //    checkpoint rotation: documents get ingested, retired, and the
    //    model is snapshotted after every batch.
    cli()
        .args([
            "stream",
            "--corpus",
            corpus.to_str().unwrap(),
            "--topics",
            "8",
            "--seed",
            "11",
            "--batch-docs",
            "4",
            "--iterations-per-batch",
            "2",
            "--window",
            "8",
            "--checkpoint-dir",
            ckpts.to_str().unwrap(),
            "--keep-last",
            "2",
        ])
        .assert()
        .success()
        .stdout_contains("retired")
        .stdout_contains("checkpoint sets rotated");
    let sets: Vec<_> = std::fs::read_dir(&ckpts)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "cldm"))
        .collect();
    assert_eq!(sets.len(), 2, "--keep-last 2 must leave two model files");

    // 2. Resume the rotated session and stream more documents into it.
    cli()
        .args([
            "stream",
            "--corpus",
            corpus.to_str().unwrap(),
            "--batch-docs",
            "8",
            "--iterations-per-batch",
            "1",
            "--checkpoint-dir",
            ckpts.to_str().unwrap(),
            "--resume",
        ])
        .assert()
        .success()
        .stdout_contains("resumed:")
        .stdout_contains("session totals:");

    // 3. --resume without a checkpoint dir is a usage error.
    cli()
        .args(["stream", "--tokens", "2000", "--resume"])
        .assert()
        .code(2)
        .stderr_contains("--checkpoint-dir");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn alias_sampler_train_checkpoint_resume_round_trip() {
    let dir = std::env::temp_dir().join(format!(
        "culda-cli-alias-smoke-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.cldc");
    let model = dir.join("model.cldm");
    let resumed = dir.join("resumed.cldm");

    cli()
        .args([
            "gen-corpus",
            "--profile",
            "nytimes",
            "--tokens",
            "4000",
            "--seed",
            "11",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .assert()
        .success();

    // 1. Train with the alias-hybrid sampler and save a checkpoint.
    cli()
        .args([
            "train",
            "--corpus",
            corpus.to_str().unwrap(),
            "--topics",
            "8",
            "--iterations",
            "3",
            "--seed",
            "11",
            "--sampler",
            "alias:2",
            "--save-model",
            model.to_str().unwrap(),
        ])
        .assert()
        .success()
        .stdout_contains("sampler:      alias(rebuild_every=2, mh_steps=2)")
        .stdout_contains("Alias build")
        .stdout_contains("model saved to");

    // 2. Resume WITHOUT --sampler: the checkpoint meta must carry the
    //    strategy forward.
    cli()
        .args([
            "train",
            "--corpus",
            corpus.to_str().unwrap(),
            "--iterations",
            "2",
            "--resume-from",
            model.to_str().unwrap(),
            "--save-model",
            resumed.to_str().unwrap(),
        ])
        .assert()
        .success()
        .stdout_contains("resumed from:")
        .stdout_contains("sampler:      alias(rebuild_every=2, mh_steps=2)");
    assert!(resumed.exists());

    // 3. A conflicting --sampler on resume is a usage error.
    cli()
        .args([
            "train",
            "--corpus",
            corpus.to_str().unwrap(),
            "--iterations",
            "1",
            "--resume-from",
            model.to_str().unwrap(),
            "--sampler",
            "sparse",
        ])
        .assert()
        .code(2)
        .stderr_contains("conflicts with the checkpoint's sampler");

    // 4. Streaming honours the flag too (burn-in routes through the trait).
    cli()
        .args([
            "stream",
            "--corpus",
            corpus.to_str().unwrap(),
            "--topics",
            "8",
            "--seed",
            "11",
            "--batch-docs",
            "16",
            "--iterations-per-batch",
            "1",
            "--sampler",
            "alias",
        ])
        .assert()
        .success()
        .stdout_contains("sampler: alias(rebuild_every=8, mh_steps=2)")
        .stdout_contains("session totals:");

    // 5. Malformed sampler specs are usage errors.
    cli()
        .args(["train", "--tokens", "2000", "--sampler", "alias:0"])
        .assert()
        .code(2)
        .stderr_contains("positive integer");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn light_and_auto_samplers_train_and_resume() {
    let dir = std::env::temp_dir().join(format!(
        "culda-cli-light-smoke-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.cldc");
    let model = dir.join("model.cldm");

    cli()
        .args([
            "gen-corpus",
            "--profile",
            "nytimes",
            "--tokens",
            "4000",
            "--seed",
            "11",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .assert()
        .success();

    // 1. Train with the LightLDA sampler (custom MH step count) and save.
    cli()
        .args([
            "train",
            "--corpus",
            corpus.to_str().unwrap(),
            "--topics",
            "8",
            "--iterations",
            "3",
            "--seed",
            "11",
            "--sampler",
            "light:2",
            "--save-model",
            model.to_str().unwrap(),
        ])
        .assert()
        .success()
        .stdout_contains("sampler:      light(rebuild_every=8, mh_steps=2, prune_below=0)")
        .stdout_contains("model saved to");

    // 2. Resuming with `--sampler auto` continues the checkpoint's resolved
    //    strategy instead of re-deciding mid-run.
    cli()
        .args([
            "train",
            "--corpus",
            corpus.to_str().unwrap(),
            "--iterations",
            "1",
            "--resume-from",
            model.to_str().unwrap(),
            "--sampler",
            "auto",
        ])
        .assert()
        .success()
        .stdout_contains("resumed from:")
        .stdout_contains("sampler:      light(rebuild_every=8, mh_steps=2, prune_below=0)");

    // 3. A fresh `--sampler auto` run resolves to a concrete strategy before
    //    training (this small short-doc corpus scores sparse-CGS fastest).
    cli()
        .args([
            "train",
            "--corpus",
            corpus.to_str().unwrap(),
            "--topics",
            "8",
            "--iterations",
            "1",
            "--seed",
            "11",
            "--sampler",
            "auto",
        ])
        .assert()
        .success()
        .stdout_contains("sampler:      sparse-cgs");

    // 4. Malformed light specs are usage errors, as for alias.
    cli()
        .args(["train", "--tokens", "2000", "--sampler", "light:0"])
        .assert()
        .code(2)
        .stderr_contains("positive integer");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_streams_and_answers_queries_concurrently() {
    // The whole query tier through the real binary: stream a corpus while
    // reader threads answer batched fold-in queries against the
    // epoch-published snapshots, and report latency/QPS at the end.
    cli()
        .args([
            "serve",
            "--tokens",
            "4000",
            "--topics",
            "8",
            "--seed",
            "11",
            "--batch-docs",
            "4",
            "--iterations-per-batch",
            "1",
            "--query-threads",
            "2",
            "--query-batch",
            "4",
            "--sweeps",
            "3",
        ])
        .assert()
        .success()
        .stdout_contains("snapshot epochs published")
        .stdout_contains("queries answered:")
        .stdout_contains("latency: p50")
        .stdout_contains("queries/s");

    // Zero reader threads make no sense and are a usage error.
    cli()
        .args(["serve", "--tokens", "2000", "--query-threads", "0"])
        .assert()
        .code(2)
        .stderr_contains("--query-threads");
}

#[test]
fn resume_rejects_mismatched_topics() {
    let dir = std::env::temp_dir().join(format!("culda-cli-smoke-k-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.cldc");
    let model = dir.join("model.cldm");

    cli()
        .args([
            "gen-corpus",
            "--profile",
            "nytimes",
            "--tokens",
            "2000",
            "--seed",
            "5",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .assert()
        .success();
    cli()
        .args([
            "train",
            "--corpus",
            corpus.to_str().unwrap(),
            "--topics",
            "4",
            "--iterations",
            "1",
            "--save-model",
            model.to_str().unwrap(),
        ])
        .assert()
        .success();

    // K conflicting with the checkpoint is a usage error (exit code 2).
    cli()
        .args([
            "train",
            "--corpus",
            corpus.to_str().unwrap(),
            "--topics",
            "16",
            "--iterations",
            "1",
            "--resume-from",
            model.to_str().unwrap(),
        ])
        .assert()
        .code(2)
        .stderr_contains("conflicts with the checkpoint");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cluster_train_matches_the_flat_gpu_count_bit_for_bit() {
    let dir = std::env::temp_dir().join(format!(
        "culda-cli-cluster-smoke-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.cldc");
    let flat = dir.join("flat.cldm");
    let cluster = dir.join("cluster.cldm");

    cli()
        .args([
            "gen-corpus",
            "--profile",
            "nytimes",
            "--tokens",
            "4000",
            "--seed",
            "11",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .assert()
        .success();

    // 1. Four single-node GPUs.
    cli()
        .args([
            "train",
            "--corpus",
            corpus.to_str().unwrap(),
            "--topics",
            "8",
            "--iterations",
            "2",
            "--seed",
            "11",
            "--gpus",
            "4",
            "--save-model",
            flat.to_str().unwrap(),
        ])
        .assert()
        .success();

    // 2. The same four devices as a 2 × 2 cluster over 10 GbE: the run
    //    reports the hierarchical sync and its per-tier traffic, and the
    //    saved model must be byte-identical — node grouping is costing only.
    cli()
        .args([
            "train",
            "--corpus",
            corpus.to_str().unwrap(),
            "--topics",
            "8",
            "--iterations",
            "2",
            "--seed",
            "11",
            "--gpus",
            "2",
            "--nodes",
            "2",
            "--inter-link",
            "ethernet",
            "--save-model",
            cluster.to_str().unwrap(),
        ])
        .assert()
        .success()
        .stdout_contains("2 nodes × 2 ×")
        .stdout_contains("cluster sync: hierarchical");
    let a = std::fs::read(&flat).unwrap();
    let b = std::fs::read(&cluster).unwrap();
    assert_eq!(a, b, "cluster grouping must not change the trained model");

    // 3. --inter-link without a cluster is a usage error.
    cli()
        .args(["train", "--tokens", "2000", "--inter-link", "ethernet"])
        .assert()
        .code(2)
        .stderr_contains("--nodes");

    // 4. An unknown fabric is a usage error.
    cli()
        .args([
            "train",
            "--tokens",
            "2000",
            "--nodes",
            "2",
            "--inter-link",
            "carrier-pigeon",
        ])
        .assert()
        .code(2)
        .stderr_contains("expected");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_and_bad_usage_exit_codes() {
    cli()
        .args(["help"])
        .assert()
        .success()
        .stdout_contains("USAGE");
    cli().args(["no-such-command"]).assert().code(2);
    cli()
        .args(["infer", "--model", "/nonexistent/model.cldm", "--text", "1"])
        .assert()
        .code(1);
}

#[test]
fn infer_corpus_replies_digest_is_thread_invariant() {
    let dir = std::env::temp_dir().join(format!(
        "culda-cli-digest-smoke-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.cldc");
    let heldout = dir.join("heldout.cldc");
    let model = dir.join("model.cldm");

    // A held-out corpus of the training profile and size shares its
    // vocabulary, under another seed.
    for (path, seed) in [(&corpus, "11"), (&heldout, "99")] {
        cli()
            .args([
                "gen-corpus",
                "--profile",
                "nytimes",
                "--tokens",
                "4000",
                "--seed",
                seed,
                "--out",
                path.to_str().unwrap(),
            ])
            .assert()
            .success();
    }
    cli()
        .args([
            "train",
            "--corpus",
            corpus.to_str().unwrap(),
            "--topics",
            "8",
            "--iterations",
            "3",
            "--seed",
            "11",
            "--save-model",
            model.to_str().unwrap(),
        ])
        .assert()
        .success();

    // Every reply's counts and mixture bits go into the digest, so equal
    // lines mean bit-identical replies at both pool widths.
    let digest = |threads: &str| -> String {
        let out = cli()
            .env("CULDA_NUM_THREADS", threads)
            .args([
                "infer",
                "--model",
                model.to_str().unwrap(),
                "--corpus",
                heldout.to_str().unwrap(),
            ])
            .assert()
            .success()
            .stdout_contains("replies digest: ")
            .get_output()
            .stdout
            .clone();
        let out = String::from_utf8(out).unwrap();
        let line = out
            .lines()
            .find(|l| l.starts_with("replies digest: "))
            .unwrap()
            .to_string();
        let hex = line.trim_start_matches("replies digest: ");
        assert_eq!(hex.len(), 16, "{line}");
        assert!(hex.bytes().all(|b| b.is_ascii_hexdigit()), "{line}");
        line
    };
    assert_eq!(digest("1"), digest("4"));

    std::fs::remove_dir_all(&dir).ok();
}
