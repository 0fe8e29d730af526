//! Shared plumbing for the benchmark/reproduction harness.
//!
//! Every `--bin` in this crate regenerates one table or figure of the
//! paper. Scale knobs come from the environment so the same binaries serve
//! quick smoke runs and paper-scale reproductions:
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `SOCKSCOPE_SITES` | 8000 | publisher universe size (paper: ~100K) |
//! | `SOCKSCOPE_THREADS` | all cores | orchestrator crawl workers |
//! | `SOCKSCOPE_SEED` | 0x50C25C0F | universe seed |
//! | `SOCKSCOPE_QUEUE_DEPTH` | 64 | orchestrator hand-off queue capacity |
//! | `SOCKSCOPE_ERAS` | unset | N-era synthetic timeline instead of the paper's 4 crawls |

#![forbid(unsafe_code)]

use sockscope::{EraTimeline, StudyConfig};

/// Reads the scale knobs from the environment.
pub fn study_config_from_env() -> StudyConfig {
    let mut config = StudyConfig::default();
    if let Ok(v) = std::env::var("SOCKSCOPE_SITES") {
        if let Ok(n) = v.parse() {
            config.n_sites = n;
        }
    } else {
        config.n_sites = 8_000;
    }
    if let Ok(v) = std::env::var("SOCKSCOPE_THREADS") {
        if let Ok(n) = v.parse() {
            config.threads = n;
        }
    }
    if let Ok(v) = std::env::var("SOCKSCOPE_SEED") {
        if let Ok(n) = u64::from_str_radix(v.trim_start_matches("0x"), 16) {
            config.seed = n;
        }
    }
    if let Ok(v) = std::env::var("SOCKSCOPE_QUEUE_DEPTH") {
        if let Ok(n) = v.parse::<usize>() {
            config.queue_depth = n.max(1);
        }
    }
    // After --seed so the synthetic timeline derives from the final seed,
    // matching the CLI's `--eras` behaviour.
    if let Ok(v) = std::env::var("SOCKSCOPE_ERAS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                config.timeline = EraTimeline::synthetic(n, config.seed ^ 0x0E5A_51DE, n / 2);
            }
        }
    }
    config
}

/// Runs the study once with an announcement banner.
pub fn run_study_announced(what: &str) -> sockscope::report::StudyReport {
    let config = study_config_from_env();
    eprintln!(
        "[sockscope] regenerating {what}: {} sites x {} crawls, {} threads, seed {:#x}",
        config.n_sites,
        config.timeline.len(),
        config.threads,
        config.seed
    );
    let t = std::time::Instant::now();
    let report = sockscope::StudyReport::run(&config);
    eprintln!(
        "[sockscope] study completed in {:.1}s",
        t.elapsed().as_secs_f64()
    );
    report
}
