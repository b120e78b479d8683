//! Streaming-session determinism and lifecycle (ISSUE 4 acceptance suite).
//!
//! The contract under test (DESIGN.md §9): a [`StreamingSession`]'s sampled
//! state is a pure function of `(seed, ingested documents in uid order,
//! retirements, iteration schedule)` — never of how documents were grouped
//! into `ingest` calls, which GPU topology ran the bursts, or whether the
//! process died and resumed from a rotated checkpoint in between.

use culda::core::{LdaConfig, ModelCheckpoint, SamplerStrategy, SessionBuilder, StreamingSession};
use culda::corpus::Corpus;
use culda::gpusim::{DeviceSpec, Interconnect, MultiGpuSystem};
use culda_testkit::determinism::state_digest;
use culda_testkit::fixtures;
use std::path::PathBuf;

const K: usize = 8;
const SEED: u64 = 2019;

fn system(gpus: usize) -> MultiGpuSystem {
    if gpus == 1 {
        MultiGpuSystem::single(DeviceSpec::v100_volta(), SEED)
    } else {
        MultiGpuSystem::homogeneous(DeviceSpec::v100_volta(), gpus, SEED, Interconnect::NvLink)
    }
}

fn streaming(gpus: usize) -> StreamingSession {
    SessionBuilder::new()
        .config(LdaConfig::with_topics(K).seed(SEED))
        .system(system(gpus))
        .build_streaming()
        .expect("streaming session")
}

fn corpus() -> Corpus {
    fixtures::medium(fixtures::FIXTURE_SEED)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("culda_streaming_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_same_state(a: &StreamingSession, b: &StreamingSession) {
    assert_eq!(a.z_snapshot(), b.z_snapshot(), "z must be bit-identical");
    assert_eq!(a.global_phi(), b.global_phi(), "φ must be bit-identical");
    assert_eq!(a.global_nk(), b.global_nk(), "n_k must be bit-identical");
}

#[test]
fn ingest_in_batches_is_bit_exact_with_ingest_all_at_once() {
    let corpus = corpus();
    for batches in [2usize, 5] {
        let mut all_at_once = streaming(1);
        all_at_once.ingest(&fixtures::documents_of(&corpus));
        all_at_once.train(4).unwrap();

        let mut batched = streaming(1);
        for batch in fixtures::doc_batches(&corpus, batches) {
            batched.ingest(&batch);
        }
        batched.train(4).unwrap();

        assert_same_state(&all_at_once, &batched);
        batched.validate().unwrap();
    }
}

#[test]
fn streaming_state_is_identical_on_1_and_4_gpu_topologies() {
    let corpus = corpus();
    let mut single = streaming(1);
    single.ingest(&fixtures::documents_of(&corpus));
    single.train(4).unwrap();

    let mut quad = streaming(4);
    for batch in fixtures::doc_batches(&corpus, 3) {
        quad.ingest(&batch);
    }
    quad.train(4).unwrap();

    assert!(
        single.trainer().unwrap().num_chunks() != quad.trainer().unwrap().num_chunks(),
        "topologies must actually partition differently for this test to mean anything"
    );
    assert_same_state(&single, &quad);
}

#[test]
fn retire_then_reingest_conserves_counts() {
    let corpus = corpus();
    let mut session = streaming(1);
    let uids = session.ingest(&fixtures::documents_of(&corpus));
    session.train(2).unwrap();
    session.validate().unwrap();
    let tokens_before = session.stats().live_tokens;

    // Retire a third of the documents...
    let retired: Vec<u64> = uids.iter().copied().step_by(3).collect();
    let retired_tokens: u64 = retired
        .iter()
        .map(|&uid| corpus.doc(uid as usize).len() as u64)
        .sum();
    session.retire(&retired).unwrap();
    session.validate().unwrap();
    let stats = session.stats();
    assert_eq!(stats.live_tokens, tokens_before - retired_tokens);
    assert_eq!(
        session.global_phi().total(),
        stats.live_tokens,
        "φ must cover exactly the live tokens after retirement"
    );

    // ...train through the membership change, then re-ingest the same
    // documents as fresh arrivals (new uids).
    session.train(2).unwrap();
    session.validate().unwrap();
    let reingested: Vec<_> = retired
        .iter()
        .map(|&uid| culda::corpus::Document::from(corpus.doc(uid as usize)))
        .collect();
    let new_uids = session.ingest(&reingested);
    assert!(
        new_uids.iter().all(|u| !uids.contains(u)),
        "uids are never reused"
    );
    session.train(2).unwrap();
    session.validate().unwrap();
    assert_eq!(session.stats().live_tokens, tokens_before);
    assert_eq!(session.global_phi().total(), tokens_before);
}

/// The acceptance round-trip of ISSUE 4: ingesting a corpus in k
/// mini-batches, rotating checkpoints, and resuming from the latest must
/// produce bit-identical z/φ to a single-session run with the same seed —
/// on 1-GPU and 4-GPU topologies.
#[test]
fn rotate_and_resume_round_trip_matches_single_session_run() {
    let corpus = corpus();
    for gpus in [1usize, 4] {
        // Reference: one uninterrupted session, everything ingested at once.
        let mut reference = streaming(gpus);
        reference.ingest(&fixtures::documents_of(&corpus));
        reference.train(5).unwrap();

        // Round-trip: k mini-batches, checkpoint rotation mid-run, process
        // "dies", resumes from the latest set, finishes the schedule.
        let dir = tmp_dir(&format!("roundtrip_{gpus}"));
        let mut first_leg = streaming(gpus);
        for batch in fixtures::doc_batches(&corpus, 3) {
            first_leg.ingest(&batch);
        }
        first_leg.train(2).unwrap();
        first_leg.rotate_checkpoints(&dir, 2).unwrap();
        drop(first_leg);

        let mut resumed = StreamingSession::resume(&dir, system(gpus)).unwrap();
        assert_eq!(resumed.completed_iterations(), 2);
        resumed.train(3).unwrap();
        resumed.validate().unwrap();

        assert_same_state(&reference, &resumed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn checkpoint_cadence_rotates_and_prunes() {
    let corpus = corpus();
    let dir = tmp_dir("cadence");
    let mut session = SessionBuilder::new()
        .config(LdaConfig::with_topics(K).seed(SEED))
        .system(system(1))
        .checkpoint_cadence(&dir, 2)
        .keep_last(2)
        .build_streaming()
        .unwrap();
    session.ingest(&fixtures::documents_of(&corpus));
    session.train(7).unwrap(); // cadence 2 → rotations after it 2, 4, 6
    assert_eq!(session.stats().checkpoints_written, 3);

    use culda::core::checkpoint::rotation;
    let entries = rotation::list(&dir).unwrap();
    assert_eq!(entries.len(), 2, "keep_last=2 must prune the oldest set");
    assert_eq!(
        entries.iter().map(|e| e.iterations).collect::<Vec<_>>(),
        vec![4, 6]
    );

    // The pruned directory still resumes from the newest set, and rotations
    // resumed there continue the sequence numbering.
    let mut resumed = StreamingSession::resume(&dir, system(1)).unwrap();
    assert_eq!(resumed.completed_iterations(), 6);
    resumed.train(1).unwrap();
    resumed.rotate_checkpoints(&dir, 2).unwrap();
    let entries = rotation::list(&dir).unwrap();
    assert_eq!(entries.last().unwrap().iterations, 7);
    assert!(entries.last().unwrap().seq > 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_fails_cleanly_on_an_empty_directory() {
    let dir = tmp_dir("empty");
    std::fs::create_dir_all(&dir).unwrap();
    let err = match StreamingSession::resume(&dir, system(1)) {
        Ok(_) => panic!("resume from an empty directory must fail"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("no rotated checkpoints"),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streaming_with_zero_burn_in_bridges_to_the_batch_trainer() {
    // With burn-in disabled, ingestion is exactly the batch trainer's stable
    // initialisation, so the streaming and batch paths must coincide — the
    // bridge that anchors the streaming API to the existing determinism
    // contract (same-seed, cross-topology, resume).
    let corpus = corpus();
    let mut batch = SessionBuilder::new()
        .corpus(&corpus)
        .config(LdaConfig::with_topics(K).seed(SEED))
        .system(system(1))
        .build()
        .unwrap();
    batch.train(5);

    let mut stream = SessionBuilder::new()
        .config(LdaConfig::with_topics(K).seed(SEED))
        .system(system(4))
        .burn_in_sweeps(0)
        .build_streaming()
        .unwrap();
    for batch_docs in fixtures::doc_batches(&corpus, 4) {
        stream.ingest(&batch_docs);
    }
    stream.train(5).unwrap();

    assert_eq!(batch.z_snapshot(), stream.z_snapshot());
    assert_eq!(&batch.global_phi(), stream.global_phi());
}

/// A sliding-window run (ingest a batch, retire the oldest documents beyond
/// the window, train) whose retired share of all documents ever ingested
/// passes a quarter, pinned by state digest per sampler family.  The values
/// were recorded with the earlier tombstoning document store, which
/// compacted itself three times during this run: the session's membership
/// bookkeeping must keep every bit of z, φ and n_k of that history.
#[test]
fn sliding_window_trajectory_is_pinned_across_retires() {
    let docs = fixtures::documents_of(&corpus());
    let batch = docs.len() / 6;
    let window = 2 * batch;
    for (sampler, pinned) in [
        (SamplerStrategy::SparseCgs, 0xe5aa_9299_1a5b_eae5),
        (SamplerStrategy::light_lda(), 0xc7db_3cc3_a9f7_df56),
        (SamplerStrategy::alias_hybrid(), 0xfc7f_2cbe_02ed_99c7),
    ] {
        let mut session = SessionBuilder::new()
            .config(LdaConfig::with_topics(K).seed(SEED).sampler(sampler))
            .system(system(1))
            .build_streaming()
            .unwrap();
        for chunk in docs.chunks(batch) {
            session.ingest(chunk);
            let live = session.live_uids();
            if live.len() > window {
                session.retire(&live[..live.len() - window]).unwrap();
            }
            session.train(2).unwrap();
        }
        session.validate().unwrap();
        let stats = session.stats();
        assert!(4 * stats.retired_docs > stats.ingested_docs, "{stats:?}");
        let digest = state_digest(
            &session.z_snapshot(),
            session.global_phi(),
            session.global_nk(),
        );
        assert_eq!(digest, pinned, "{sampler}");
    }
}

/// A crash while a rotation set is written, after its `.cldc` and `.meta`
/// but before its model file is renamed into place, leaves a torn
/// `.cldm.tmp`.  Discovery must skip that set, and a resume from the set
/// before it must continue bit-exactly.
#[test]
fn a_torn_model_file_never_becomes_the_latest_set() {
    use culda::core::checkpoint::rotation;
    let dir = tmp_dir("torn");
    let mut session = streaming(1);
    session.ingest(&fixtures::documents_of(&corpus()));
    session.train(2).unwrap();
    let first = session.rotate_checkpoints(&dir, 3).unwrap();
    assert!(first.with_extension(rotation::MODEL_EXT).exists());
    assert!(!first.with_extension(rotation::MODEL_TMP_EXT).exists());
    session.train(1).unwrap();
    let second = session.rotate_checkpoints(&dir, 3).unwrap();
    // Fake the crash: the second set's model never got its final name, and
    // only half of it reached the disk.
    let model = second.with_extension(rotation::MODEL_EXT);
    let bytes = std::fs::read(&model).unwrap();
    std::fs::remove_file(&model).unwrap();
    std::fs::write(
        second.with_extension(rotation::MODEL_TMP_EXT),
        &bytes[..bytes.len() / 2],
    )
    .unwrap();
    assert!(second.with_extension(rotation::CORPUS_EXT).exists());
    assert!(second.with_extension(rotation::META_EXT).exists());

    let latest = rotation::latest(&dir).unwrap().unwrap();
    assert_eq!(dir.join(&latest.stem), first);
    let mut resumed = StreamingSession::resume(&dir, system(1)).unwrap();
    assert_eq!(resumed.completed_iterations(), 2);
    resumed.train(3).unwrap();
    session.train(2).unwrap();
    assert_same_state(&session, &resumed);
    resumed.validate().unwrap();

    // The resumed session reuses the torn set's sequence number under
    // another iteration count; its rotation prunes the torn files.
    let third = resumed.rotate_checkpoints(&dir, 3).unwrap();
    assert_ne!(third, second);
    for ext in [
        rotation::MODEL_EXT,
        rotation::MODEL_TMP_EXT,
        rotation::CORPUS_EXT,
        rotation::META_EXT,
    ] {
        assert!(!second.with_extension(ext).exists(), "{ext} survived");
    }
    let kept: Vec<PathBuf> = rotation::list(&dir)
        .unwrap()
        .into_iter()
        .map(|e| dir.join(e.stem))
        .collect();
    assert_eq!(kept, vec![first, third]);
    for stem in &kept {
        ModelCheckpoint::load(stem.with_extension(rotation::MODEL_EXT)).unwrap();
        culda::corpus::load_corpus(stem.with_extension(rotation::CORPUS_EXT)).unwrap();
    }
    let mut again = StreamingSession::resume(&dir, system(1)).unwrap();
    again.train(2).unwrap();
    session.train(2).unwrap();
    assert_same_state(&session, &again);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The version-1 `.meta` layout: magic, version, `next_uid`, the ingested
/// and retired counters, the next rotation's sequence number, a chunk
/// count, the live document count, then `(uid u64, chunk u32)` per live
/// document.
fn v1_meta(next_uid: u64, ingested: u64, retired: u64, next_seq: u64, uids: &[u64]) -> Vec<u8> {
    let mut bytes = b"CLSM".to_vec();
    bytes.extend(1u32.to_le_bytes());
    for field in [next_uid, ingested, retired, next_seq, 2, uids.len() as u64] {
        bytes.extend(field.to_le_bytes());
    }
    for (i, uid) in uids.iter().enumerate() {
        bytes.extend(uid.to_le_bytes());
        bytes.extend((i as u32 % 2).to_le_bytes());
    }
    bytes
}

/// A set whose `.meta` is in the version-1 layout still resumes: the run
/// continues bit-exactly, and the lifetime counts come back from the uid
/// stream, not from the counters the file also stores.
#[test]
fn a_version_1_meta_still_resumes_bit_exactly() {
    use culda::core::checkpoint::rotation;
    let dir = tmp_dir("meta_v1");
    let docs = fixtures::documents_of(&corpus());
    let mut session = streaming(1);
    session.ingest(&docs[..docs.len() / 2]);
    session.train(1).unwrap();
    session.retire(&session.live_uids()[..5]).unwrap();
    session.ingest(&docs[docs.len() / 2..]);
    session.train(2).unwrap();
    let stem = session.rotate_checkpoints(&dir, 2).unwrap();
    let at_rotation = session.stats();
    let meta = stem.with_extension(rotation::META_EXT);
    std::fs::write(
        &meta,
        v1_meta(
            at_rotation.ingested_docs,
            at_rotation.ingested_docs,
            at_rotation.retired_docs,
            at_rotation.checkpoints_written,
            &session.live_uids(),
        ),
    )
    .unwrap();

    let mut resumed = StreamingSession::resume(&dir, system(1)).unwrap();
    let stats = resumed.stats();
    assert_eq!(stats.ingested_docs, at_rotation.ingested_docs);
    assert_eq!(stats.retired_docs, at_rotation.retired_docs);
    assert_eq!(stats.checkpoints_written, at_rotation.checkpoints_written);
    assert_eq!(stats.retired_docs, 5);
    resumed.train(3).unwrap();
    session.train(3).unwrap();
    assert_same_state(&session, &resumed);
    resumed.validate().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `.meta` cut short at any byte, in either layout, fails the resume
/// with a `SessionError`.
#[test]
fn a_truncated_meta_fails_the_resume_in_both_layouts() {
    use culda::core::checkpoint::rotation;
    let dir = tmp_dir("meta_cut");
    let mut session = streaming(1);
    session.ingest(&fixtures::documents_of(&corpus())[..6]);
    session.train(1).unwrap();
    let stem = session.rotate_checkpoints(&dir, 2).unwrap();
    let meta = stem.with_extension(rotation::META_EXT);
    let v2 = std::fs::read(&meta).unwrap();
    let s = session.stats();
    let v1 = v1_meta(6, 6, 0, s.checkpoints_written, &session.live_uids());
    for whole in [v1, v2] {
        std::fs::write(&meta, &whole).unwrap();
        StreamingSession::resume(&dir, system(1)).unwrap();
        for cut in 0..whole.len() {
            std::fs::write(&meta, &whole[..cut]).unwrap();
            assert!(
                StreamingSession::resume(&dir, system(1)).is_err(),
                "a .meta cut at byte {cut} of {} resumed",
                whole.len()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Simulated time is a sum over the iteration history; with no iteration
/// it is +0.0, bit for bit, on the batch trainer and the session alike.
#[test]
fn an_untrained_model_reports_positive_zero_sim_time() {
    let trainer = SessionBuilder::new()
        .corpus(&corpus())
        .config(LdaConfig::with_topics(K).seed(SEED))
        .system(system(1))
        .build()
        .unwrap();
    assert_eq!(trainer.sim_time_s().to_bits(), 0);
    let mut session = streaming(1);
    assert_eq!(session.sim_time_s().to_bits(), 0);
    session.ingest(&fixtures::documents_of(&corpus()));
    assert_eq!(session.sim_time_s().to_bits(), 0);
    assert_eq!(session.stats().sim_time_s.to_bits(), 0);
    session.train(1).unwrap();
    assert!(session.stats().sim_time_s > 0.0);
}
