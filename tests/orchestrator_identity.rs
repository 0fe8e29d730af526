//! Orchestrator identity: the ordered-claim pipelined crawl driver must be
//! **scheduling invisible** — byte-identical study snapshots at every
//! worker count, and under in-flight caps tight enough that most workers
//! are parked on the admission window at any instant.
//!
//! The fault-free matrix is pinned to the same CRC as
//! `snapshot_regression.rs`/`stream_identity.rs`. Configs the CRC does not
//! pin (heavy faults) are diffed against the sequential reference
//! ([`Study::run_reference`]), which shares only the per-site frontier
//! loop with the orchestrator.

use sockscope::analysis::snapshot::StudySnapshot;
use sockscope::{Study, StudyConfig};
use sockscope_analysis::{CrawlReduction, FusedShard, PiiLibrary};
use sockscope_crawler::OrchestratorConfig;
use sockscope_webgen::CrawlEra;

/// The pinned bytes of the seeded mini-study (same capture
/// `snapshot_regression.rs` pins): every cell of the matrix lands here.
const PINNED_CRC32: u32 = 0x57EC_C8D3;
const PINNED_LEN: usize = 254_074;

fn pinned_config() -> StudyConfig {
    StudyConfig {
        seed: 0xD15C,
        n_sites: 150,
        ..StudyConfig::default()
    }
}

fn faulted_config() -> StudyConfig {
    StudyConfig {
        seed: 0xD15C,
        n_sites: 60,
        threads: 4,
        faults: Some(sockscope::faults::FaultProfile::heavy()),
        ..StudyConfig::default()
    }
}

fn orchestrated_snapshot(base: &StudyConfig, workers: usize) -> String {
    let config = StudyConfig {
        threads: workers,
        ..base.clone()
    };
    StudySnapshot::capture(&Study::run(&config)).to_json()
}

#[test]
fn orchestrated_snapshots_are_pinned_across_workers() {
    for workers in [1, 4, 8] {
        let snapshot = orchestrated_snapshot(&pinned_config(), workers);
        assert_eq!(
            snapshot.len(),
            PINNED_LEN,
            "snapshot length drifted at {workers} workers"
        );
        assert_eq!(
            sockscope_journal::crc32(snapshot.as_bytes()),
            PINNED_CRC32,
            "snapshot bytes drifted at {workers} workers"
        );
    }
}

#[test]
fn orchestrated_matches_the_sequential_reference_under_heavy_faults() {
    // Faults change per-site wall time wildly, which reshuffles which
    // worker crawls what and how often the reducer stalls — exactly the
    // schedules where a reorder bug would surface.
    let reference = StudySnapshot::capture(&Study::run_reference(&faulted_config())).to_json();
    for workers in [1, 4, 8] {
        let orchestrated = orchestrated_snapshot(&faulted_config(), workers);
        assert_eq!(
            orchestrated, reference,
            "faulted snapshot diverged at {workers} workers"
        );
    }
}

#[test]
fn orchestrated_matches_the_record_materializing_reference() {
    // Zero-fault differential against the sequential reference: buffered
    // page events and per-record reduction. This crosses both the driver
    // boundary and the fusion boundary at once.
    let config = StudyConfig {
        seed: 0xD15C,
        n_sites: 80,
        threads: 3,
        ..StudyConfig::default()
    };
    let orchestrated = StudySnapshot::capture(&Study::run(&config)).to_json();
    let reference = StudySnapshot::capture(&Study::run_reference(&config)).to_json();
    assert_eq!(orchestrated, reference);
}

#[test]
fn tight_admission_windows_cannot_move_a_byte() {
    // Era-level stress: in-flight caps of one and two sites keep most of
    // 4 or 8 workers parked on the admission window while heavy faults
    // make per-site cost wildly uneven, so the reducer stalls on one slow
    // site after another. Every cell must reduce to the very bytes the
    // sequential reference produces.
    let config = StudyConfig {
        seed: 0xD15C,
        n_sites: 60,
        faults: Some(sockscope::faults::FaultProfile::heavy()),
        ..StudyConfig::default()
    };
    let web = Study::universe(&config);
    let engine = Study::engine_for(&web);
    let crawl_config = Study::crawl_config(&config);
    let era = CrawlEra::ALL[1];
    let era_web = web.for_era(era);
    let make_extensions =
        || sockscope_browser::ExtensionHost::stock(sockscope_crawler::browser_era(&era.into()));

    let lib = PiiLibrary::new();
    let mut reference = CrawlReduction::new(era.label(), era.pre_patch());
    for record in sockscope_crawler::crawl(&era_web, &crawl_config).records {
        reference.observe_site(&record, &engine, &lib);
    }
    reference.normalize();

    for (in_flight, workers) in [(1, 4), (1, 8), (2, 4), (2, 8)] {
        let orch = OrchestratorConfig {
            workers,
            in_flight,
            supervised: true,
        };
        let mut reduction = sockscope_crawler::crawl_orchestrated(
            &era_web,
            &crawl_config,
            &orch,
            &make_extensions,
            &|| FusedShard::new(era.label(), era.pre_patch(), &engine),
            &|worker: &mut FusedShard<'_>| worker.take_site_reduction(),
            &|| CrawlReduction::new(era.label(), era.pre_patch()),
            &|acc: &mut CrawlReduction, site| acc.absorb(site),
        );
        reduction.normalize();
        assert_eq!(
            reduction, reference,
            "in-flight cap {in_flight} at {workers} workers changed the reduction"
        );
    }
}
