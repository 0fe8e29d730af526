//! Crash-recovery matrix for the checkpointed crawl driver.
//!
//! The invariant under test is the one `sockscope-analysis/src/checkpoint.rs`
//! promises: **a crawl killed at any phase boundary of a segment write and
//! then resumed produces a study snapshot byte-identical to an
//! uninterrupted run** — and anything the crash left torn on disk is
//! quarantined with a reason, never silently merged.
//!
//! The matrix crosses every [`KillPoint`] (mid-segment torn write, a
//! complete temp that never renamed, the pre-rename boundary, and the
//! post-rename boundary where the segment is already durable) with
//! different shard partitions and thread counts. Further cases cover
//! fingerprint mismatches (a journal from a different config must be
//! fully quarantined, not absorbed), seeded bit-flip corruption of a
//! durable segment, and resuming under a different degree of parallelism
//! than the crawl was checkpointed with.

use std::path::PathBuf;

use sockscope_analysis::checkpoint::{CheckpointError, CheckpointOptions, KillPlan};
use sockscope_analysis::{Study, StudyConfig, StudySnapshot};
use sockscope_faults::FaultProfile;
use sockscope_journal::KillPoint;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sockscope-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(threads: usize) -> StudyConfig {
    StudyConfig {
        seed: 0xC0FFEE,
        n_sites: 36,
        threads,
        ..StudyConfig::default()
    }
}

fn snapshot_json(study: &Study) -> String {
    StudySnapshot::capture(study).to_json()
}

/// Runs with the kill plan installed and asserts the simulated process
/// death fired where planned.
fn run_killed(cfg: &StudyConfig, dir: &PathBuf, shards: usize, kill: KillPlan) {
    let opts = CheckpointOptions {
        shards: Some(shards),
        kill: Some(kill),
        ..CheckpointOptions::fresh(dir)
    };
    match Study::run_checkpointed(cfg, &opts) {
        Err(CheckpointError::Killed { era, shard }) => {
            assert_eq!(era, kill.era);
            assert_eq!(shard, kill.shard);
        }
        Err(other) => panic!("expected the injected kill, got {other:?}"),
        Ok(_) => panic!("expected the injected kill, but the run completed"),
    }
}

#[test]
fn every_kill_point_resumes_byte_identical() {
    // Output is thread-count and shard-count independent, so one
    // uninterrupted baseline serves the whole matrix.
    let baseline = snapshot_json(&Study::run(&config(2)));

    for (shards, threads) in [(3usize, 1usize), (8, 4)] {
        for (case, point) in KillPoint::ALL.into_iter().enumerate() {
            let tag = format!("matrix-s{shards}-t{threads}-k{case}");
            let dir = tmpdir(&tag);
            let cfg = config(threads);
            let kill = KillPlan {
                era: 1,
                shard: shards as u32 / 2,
                point,
                seed: 0x5EED ^ case as u64,
            };
            run_killed(&cfg, &dir, shards, kill);

            let (study, report) = Study::run_checkpointed(&cfg, &CheckpointOptions::resume(&dir))
                .unwrap_or_else(|e| panic!("[{tag}] resume failed: {e}"));

            assert_eq!(
                snapshot_json(&study),
                baseline,
                "[{tag}] resumed snapshot must be byte-identical to an uninterrupted run"
            );
            assert!(report.resumed);
            assert_eq!(report.shard_count, shards, "[{tag}]");
            match point {
                // The kill landed after the rename: the segment is
                // durable and the journal is clean.
                KillPoint::PostRename => assert!(
                    report.quarantined.is_empty(),
                    "[{tag}] post-rename kill leaves nothing to quarantine: {:?}",
                    report.quarantined
                ),
                // The kill left a torn or orphaned temp file behind; it
                // must be quarantined with a reason, never merged.
                _ => assert!(
                    !report.quarantined.is_empty(),
                    "[{tag}] expected the torn write to be quarantined"
                ),
            }
            // Era 0 completed before the kill, so the resume recovered
            // real work; eras after the kill were never crawled, so the
            // resume re-crawled real work too.
            assert!(report.shards_recovered >= shards, "[{tag}] {report:?}");
            assert!(report.shards_recrawled >= shards, "[{tag}] {report:?}");

            // A second resume sees a fully-clean journal: everything
            // torn was moved out of the scan path the first time.
            let (study2, report2) =
                Study::run_checkpointed(&cfg, &CheckpointOptions::resume(&dir)).unwrap();
            assert_eq!(snapshot_json(&study2), baseline, "[{tag}] second resume");
            assert!(report2.quarantined.is_empty(), "[{tag}] {report2:?}");
            assert_eq!(report2.shards_recrawled, 0, "[{tag}]");

            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn fingerprint_mismatch_quarantines_every_segment() {
    let dir = tmpdir("fingerprint");
    let cfg_a = config(2);
    let cfg_b = StudyConfig {
        seed: 0xD15EA5E,
        ..config(2)
    };
    // Fill the journal under config A, then "resume" under config B: a
    // journal written by a different universe must never be absorbed.
    Study::run_checkpointed(&cfg_a, &CheckpointOptions::fresh(&dir)).unwrap();
    let (study, report) =
        Study::run_checkpointed(&cfg_b, &CheckpointOptions::resume(&dir)).unwrap();
    assert_eq!(report.shards_recovered, 0);
    assert!(!report.quarantined.is_empty());
    assert!(
        report
            .quarantined
            .iter()
            .all(|q| q.reason.contains("fingerprint")),
        "{:?}",
        report.quarantined
    );
    assert_eq!(
        snapshot_json(&study),
        snapshot_json(&Study::run(&cfg_b)),
        "the full re-crawl under config B must match B's uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_segment_is_quarantined_never_merged() {
    let dir = tmpdir("bitflip");
    let cfg = config(2);
    Study::run_checkpointed(&cfg, &CheckpointOptions::fresh(&dir)).unwrap();

    // Flip one bit in the middle of one durable segment.
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segs.sort();
    let victim = &segs[segs.len() / 2];
    let mut bytes = std::fs::read(victim).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x10;
    std::fs::write(victim, &bytes).unwrap();

    let (study, report) = Study::run_checkpointed(&cfg, &CheckpointOptions::resume(&dir)).unwrap();
    assert_eq!(report.quarantined.len(), 1, "{:?}", report.quarantined);
    assert_eq!(report.shards_recrawled, 1);
    assert_eq!(
        snapshot_json(&study),
        snapshot_json(&Study::run(&cfg)),
        "re-crawling the corrupt shard must restore byte-identity"
    );
    // The corrupt file was preserved for forensics, not deleted.
    let quarantine_dir = dir.join("quarantine");
    assert!(std::fs::read_dir(&quarantine_dir).unwrap().count() >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_under_a_different_thread_count_keeps_the_partition() {
    let dir = tmpdir("threads");
    let kill = KillPlan {
        era: 2,
        shard: 3,
        point: KillPoint::PreRename,
        seed: 7,
    };
    // Checkpoint on 4 threads with a 10-shard partition, die mid-crawl…
    run_killed(&config(4), &dir, 10, kill);
    // …and resume on a single thread. The journal's recorded partition
    // wins over the thread-derived default, so every surviving segment
    // still lines up.
    let (study, report) =
        Study::run_checkpointed(&config(1), &CheckpointOptions::resume(&dir)).unwrap();
    assert_eq!(report.shard_count, 10);
    assert!(report.shards_recovered >= 10);
    assert_eq!(
        snapshot_json(&study),
        snapshot_json(&Study::run(&config(2)))
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn orchestrator_kill_points_resume_byte_identical() {
    // Under the orchestrator a shard persists the moment the reducer folds
    // that shard's last site, so which shard the kill plan dooms selects
    // *when* in the pipeline's life the process dies: the first-persisted
    // shard dies while workers are still crawling (and stealing) later
    // positions; a middle shard dies with the hand-off queue churning; the
    // last-persisted shard dies after the queue has drained. A depth-1
    // queue and a tiny admission window keep backpressure and unclaim
    // retries live at the kill instant.
    let baseline = snapshot_json(&Study::run(&config(2)));
    let shards = 3usize;
    let cfg = StudyConfig {
        queue_depth: 1,
        ..config(4)
    };
    // With sites dealt `i % shards`, shard `s` finishes at position
    // `33 + s`: shard 0 persists first (mid-steal), shard 2 last
    // (queue drained).
    for (phase, doomed) in [("mid-steal", 0u32), ("mid-merge", 1), ("queue-drained", 2)] {
        let dir = tmpdir(&format!("orch-{phase}"));
        let kill = KillPlan {
            era: 1,
            shard: doomed,
            point: KillPoint::PreRename,
            seed: 0x0BC ^ u64::from(doomed),
        };
        run_killed(&cfg, &dir, shards, kill);
        let (study, report) = Study::run_checkpointed(&cfg, &CheckpointOptions::resume(&dir))
            .unwrap_or_else(|e| panic!("[{phase}] resume failed: {e}"));
        assert_eq!(
            snapshot_json(&study),
            baseline,
            "[{phase}] orchestrated resume must be byte-identical to an uninterrupted run"
        );
        assert!(
            !report.quarantined.is_empty(),
            "[{phase}] the pre-rename kill leaves a temp to quarantine"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn kill_mid_quarantine_persist_neither_loses_nor_duplicates_entries() {
    // Supervised execution stores quarantine records inside the same
    // per-shard `CrawlReduction` the journal persists, so a kill while a
    // poisoned shard's segment is being written is a kill mid-
    // quarantine-persist. The resume invariant extends to them: after
    // recovery the quarantine set must be byte-identical to an
    // uninterrupted poisoned run — an entry lost would un-quarantine a
    // poison site, an entry duplicated would double-count it in the
    // report and the snapshot.
    let cfg = StudyConfig {
        faults: Some(FaultProfile::poison()),
        queue_depth: 1,
        ..config(4)
    };
    let baseline_study = Study::run(&cfg);
    let baseline = snapshot_json(&baseline_study);
    let expected_quarantined: usize = baseline_study
        .reductions
        .iter()
        .filter_map(|r| r.quarantine.as_ref())
        .map(|q| q.len())
        .sum();
    assert!(
        expected_quarantined > 0,
        "the poison profile must quarantine at least one of the 36 sites"
    );
    assert!(
        baseline.contains("quarantine"),
        "snapshot carries the table"
    );

    // The torn-write points kill the segment while (among everything
    // else) its quarantine entries are mid-persist; the post-rename
    // point covers "durable, then die" so a resume must not re-append.
    for point in [
        KillPoint::MidSegment,
        KillPoint::PreRename,
        KillPoint::PostRename,
    ] {
        let tag = format!("quarantine-{point:?}");
        let dir = tmpdir(&tag);
        let kill = KillPlan {
            era: 1,
            shard: 1,
            point,
            seed: 0x9_A12A,
        };
        run_killed(&cfg, &dir, 3, kill);
        let (study, _) = Study::run_checkpointed(&cfg, &CheckpointOptions::resume(&dir))
            .unwrap_or_else(|e| panic!("[{tag}] resume failed: {e}"));
        let recovered: usize = study
            .reductions
            .iter()
            .filter_map(|r| r.quarantine.as_ref())
            .map(|q| q.len())
            .sum();
        assert_eq!(
            recovered, expected_quarantined,
            "[{tag}] resume lost or duplicated quarantine entries"
        );
        assert_eq!(
            snapshot_json(&study),
            baseline,
            "[{tag}] resumed poisoned snapshot must be byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn kill_point_from_draw_is_deterministic_and_total() {
    // The harness draws kill points from the same pure-hash generator the
    // fault subsystem uses; the draw must be stable and cover all four.
    let mut seen = std::collections::BTreeSet::new();
    for stream in 0..64u64 {
        let a = KillPoint::from_draw(0xABCD, stream);
        let b = KillPoint::from_draw(0xABCD, stream);
        assert_eq!(a, b);
        seen.insert(format!("{a:?}"));
    }
    assert_eq!(seen.len(), KillPoint::ALL.len());
}
