//! The traced benchmark run, in its own process:
//!
//! ```text
//! perfbench-trace --expect-snapshot FILE -- run <sockscope run arguments>
//! ```
//!
//! `FILE` is the snapshot an untraced run of the same arguments saved.
//! Two traced passes each rebuild the study from the public crate APIs
//! `Study::run` is made of, and each must reproduce `FILE` byte for byte:
//!
//! 1. the orchestrated crawl, era by era as `Study::run` drives it, with
//!    every worker's `FusedShard` inside a timing sink and the
//!    `take_site`/`fold` callbacks timed (sink, reduce and scheduler
//!    layers), followed by the rest of what `sockscope run` does — report,
//!    drift, lineage, snapshot — each timed on its own;
//! 2. every site through `supervise_site` on one thread, with the browser
//!    over a timing `WebHost` and the classifier and filter calls replayed
//!    (webgen, browser, crawler, supervisor, classify and filter layers).
//!
//! This is the only benchmark process that installs the counting
//! allocator; nothing it times feeds an end-to-end metric. Prints one JSON
//! line of per-layer metrics and exits 1 when a check fails.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use sockscope::analysis::longitudinal::{era_deltas, era_snapshots};
use sockscope::analysis::snapshot::StudySnapshot;
use sockscope::analysis::{CrawlReduction, FusedShard};
use sockscope::browser::{Browser, BrowserConfig, ExtensionHost};
use sockscope::crawler::{browser_era, crawl_orchestrated, supervise_site, SiteSink};
use sockscope::filterlist::Engine;
use sockscope::webgen::{Era, SyntheticWeb};
use sockscope::{SnapshotLineage, Study, StudyConfig, StudyReport};
use sockscope_perfbench::allocs::{thread_allocs, ThreadCountingAlloc};
use sockscope_perfbench::layers::{Replay, SinkTimes, TimedHost, TimedSink};
use sockscope_perfbench::{dir_stats, flag, percentile, secs, split_args, timed, Line, RunSpec};

#[global_allocator]
static ALLOC: ThreadCountingAlloc = ThreadCountingAlloc;

/// How far the layer self times may sum from the traced busy time.
const COVERAGE_TOLERANCE: f64 = 0.10;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut line = Line::default();
    let result = trace(&args, &mut line);
    line.print(&result);
    if result.is_err() {
        std::process::exit(1);
    }
}

fn trace(args: &[String], line: &mut Line) -> Result<(), String> {
    let (flags, cli_args) = split_args(args)?;
    let spec = RunSpec::parse(&cli_args)?;
    let expected_path = flag(&flags, "--expect-snapshot").ok_or("--expect-snapshot is required")?;
    let expected = std::fs::read(expected_path).map_err(|e| format!("{expected_path}: {e}"))?;
    let visits = spec.visits() as f64;

    // Pass 1, then the rest of `execute_with_status`'s run path.
    let t0 = Instant::now();
    let one = pass_one(&spec.config);
    let (mut report, from_study_s) = timed(|| StudyReport::from_study(one.study));
    let (mut drift_s, mut snapshots_s, mut build_s, mut lineage_save_s) = (0.0, 0.0, 0.0, 0.0);
    if spec.longitudinal() {
        let web = Study::universe(&spec.config);
        let (drift, s) = timed(|| era_deltas(&report.study, &web, &spec.config));
        report.era_drift = Some(drift);
        drift_s = s;
        let (snapshots, s) = timed(|| era_snapshots(&web, &report.study.reductions));
        snapshots_s = s;
        let (lineage, s) = timed(|| SnapshotLineage::build(&snapshots));
        build_s = s;
        if let Some(dir) = &spec.lineage_dir {
            let (saved, s) = timed(|| lineage.save(Path::new(dir)));
            saved.map_err(|e| format!("saving lineage: {e}"))?;
            lineage_save_s = s;
        }
    }
    let (saved, snapshot_save_s) =
        timed(|| StudySnapshot::capture(&report.study).save(Path::new(&spec.save)));
    saved.map_err(|e| format!("saving snapshot: {e}"))?;
    let (text, render_s) = timed(|| report.render());
    std::hint::black_box(text);
    let traced_wall = secs(t0);
    drop(report);

    let snapshot = std::fs::read(&spec.save).map_err(|e| format!("traced snapshot: {e}"))?;
    if snapshot != expected {
        return Err("traced pass 1 snapshot differs from the untraced run's".into());
    }
    let (restored, snapshot_load_s) =
        timed(|| StudySnapshot::load(Path::new(&spec.save)).and_then(StudySnapshot::restore));
    restored.map_err(|e| format!("reloading traced snapshot: {e}"))?;
    let (mut reconstruct_s, mut lineage_bytes) = (0.0, 0);
    if let Some(dir) = &spec.lineage_dir {
        let (eras, s) =
            timed(|| SnapshotLineage::load(Path::new(dir)).map(|l| l.reconstruct_all()));
        let eras = eras
            .map_err(|e| format!("loading lineage: {e}"))?
            .map_err(|e| format!("reconstructing lineage: {e}"))?;
        if eras.last() != Some(&expected) {
            return Err("traced lineage's last era differs from the snapshot".into());
        }
        reconstruct_s = s;
        lineage_bytes = dir_stats(Path::new(dir)).1;
    }

    let two = pass_two(&spec.config);
    if StudySnapshot::capture(&two.study).to_json().into_bytes() != expected {
        return Err("traced pass 2 snapshot differs from the untraced run's".into());
    }
    let arena = sockscope_arena::stats();

    let spans: f64 = two.sink.site_spans.iter().sum();
    let browser_self_s = spans - two.webgen_s - two.sink.sink_s();
    let coverage = (spans + two.reduce_s) / (two.busy_s - two.replay.total_s);
    let handoffs = &one.fold.handoffs;
    let busy1: f64 = one.sink.site_spans.iter().sum();

    line.num("traced_sites_per_s", visits / traced_wall)
        .num("webgen.busy_s", two.webgen_s)
        .num("webgen.calls", two.webgen_calls as f64)
        .num("browser.self_s", browser_self_s)
        .num("browser.events", two.sink.events as f64)
        .num("sink.event_s", one.sink.event_s)
        .num("sink.page_end_s", one.sink.page_end_s)
        .num("sink.other_s", one.sink.other_s)
        .num("sink.pages", one.sink.pages as f64)
        .num("filter.decide_s", two.replay.decide_s)
        .num("filter.decisions", two.replay.decisions as f64)
        .num("filter.parse_s", one.parse_s)
        .num("filter.rules", one.rules as f64)
        .num("classify.s", two.replay.classify_s)
        .num("classify.calls", two.replay.classify_calls as f64)
        .num("classify.dfa_fallbacks", two.dfa_fallbacks as f64)
        .num("reduce.fold_s", one.fold.fold_s)
        .num("sched.wait_s", one.sink.wait_s)
        .num(
            "sched.idle_share",
            one.sink.wait_s / (one.sink.wait_s + busy1),
        )
        .num("sched.handoff_p50_ms", 1e3 * percentile(handoffs, 0.50))
        .num("sched.handoff_p99_ms", 1e3 * percentile(handoffs, 0.99))
        .num(
            "crawler.site_p50_ms",
            1e3 * percentile(&two.sink.site_spans, 0.50),
        )
        .num(
            "crawler.site_p99_ms",
            1e3 * percentile(&two.sink.site_spans, 0.99),
        )
        .num("crawler.page_aborts", two.sink.page_aborts as f64)
        .num("supervisor.site_aborts", two.sink.site_aborts as f64)
        .num("supervisor.quarantined", two.sink.quarantined as f64)
        .num("longitudinal.drift_s", drift_s)
        .num("longitudinal.snapshots_s", snapshots_s)
        .num("lineage.build_s", build_s)
        .num("lineage.save_s", lineage_save_s)
        .num("lineage.reconstruct_s", reconstruct_s)
        .num("lineage.bytes", lineage_bytes as f64)
        .num("report.render_s", from_study_s + render_s)
        .num("snapshot.save_s", snapshot_save_s)
        .num("snapshot.load_s", snapshot_load_s)
        .num("snapshot.bytes", snapshot.len() as f64)
        .num("arena.spills", arena.spills as f64)
        .num("arena.high_water_bytes", arena.high_water_bytes as f64)
        .num("alloc.per_site", one.allocs as f64 / visits)
        .num("trace.coverage", coverage);
    if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
        return Err(format!(
            "layer self times cover {coverage:.3} of the busy time"
        ));
    }
    Ok(())
}

/// One worker of pass 1: the study's fused shard inside a timing sink.
type Worker<'c, 'e> = TimedSink<'c, 'e, FusedShard<'e>>;

/// The reduce stage's own measurements, kept beside its accumulator.
#[derive(Default)]
struct FoldTimes {
    fold_s: f64,
    /// Seconds from a worker handing a site over to its fold.
    handoffs: Vec<f64>,
}

struct PassOne {
    study: Study,
    parse_s: f64,
    rules: u64,
    sink: SinkTimes,
    fold: FoldTimes,
    allocs: u64,
}

/// Parses an era's lists into an engine, timing the parse.
fn parse_lists(web: &SyntheticWeb, parse_s: &mut f64, rules: &mut u64) -> Engine {
    let (engine, s) = timed(|| Study::engine_for(web));
    *parse_s += s;
    *rules += engine.len() as u64;
    engine
}

fn extensions(era: &Era) -> ExtensionHost {
    ExtensionHost::stock(browser_era(era))
}

/// Pass 1: `Study::run`'s orchestrated driver with timed workers and folds.
fn pass_one(config: &StudyConfig) -> PassOne {
    let (mut parse_s, mut rules) = (0.0, 0);
    let web = Study::universe(config);
    let base_engine = parse_lists(&web, &mut parse_s, &mut rules);
    let crawl_config = Study::crawl_config(config);
    let orch = Study::orchestrator_config(config);
    let collect = Mutex::new(Vec::new());
    let mut fold = FoldTimes::default();
    let mut allocs = 0;
    let mut reductions = Vec::new();
    for era in config.timeline.eras() {
        let era_web = web.for_era(era.clone());
        let own = config
            .timeline
            .evolves()
            .then(|| parse_lists(&era_web, &mut parse_s, &mut rules));
        let engine = own.as_ref().unwrap_or(&base_engine);
        let allocs_at_start = thread_allocs();
        let (mut reduction, times) = crawl_orchestrated(
            &era_web,
            &crawl_config,
            &orch,
            &|| extensions(era),
            &|| {
                let shard = FusedShard::new(era.label(), era.pre_patch(), engine);
                TimedSink::new(shard, None, Some(&collect))
            },
            &|worker: &mut Worker<'_, '_>| {
                let site = worker.inner.take_site_reduction();
                (site, worker.site_done())
            },
            &|| {
                let acc = CrawlReduction::new(era.label(), era.pre_patch());
                (acc, FoldTimes::default())
            },
            &|acc: &mut (CrawlReduction, FoldTimes), (site, done): (CrawlReduction, Instant)| {
                acc.1.handoffs.push(secs(done));
                let t = Instant::now();
                acc.0.absorb(site);
                acc.1.fold_s += secs(t);
            },
        );
        allocs += thread_allocs() - allocs_at_start;
        reduction.normalize();
        reductions.push(reduction);
        fold.fold_s += times.fold_s;
        fold.handoffs.extend(times.handoffs);
    }
    let mut sink = SinkTimes::default();
    for worker in collect
        .into_inner()
        .expect("no worker panicked holding the lock")
    {
        sink.absorb(&worker);
    }
    allocs += sink.allocs;
    PassOne {
        study: Study::assemble(&web, base_engine, reductions),
        parse_s,
        rules,
        sink,
        fold,
        allocs,
    }
}

#[derive(Default)]
struct ReplayTotals {
    classify_s: f64,
    classify_calls: u64,
    decide_s: f64,
    decisions: u64,
    total_s: f64,
}

struct PassTwo {
    study: Study,
    webgen_s: f64,
    webgen_calls: u64,
    sink: SinkTimes,
    replay: ReplayTotals,
    dfa_fallbacks: u64,
    reduce_s: f64,
    /// Wall time of the site loops: the one worker's busy time.
    busy_s: f64,
}

/// Pass 2: every site supervised on this thread, with timed synthesis and
/// replayed classifier/filter calls.
fn pass_two(config: &StudyConfig) -> PassTwo {
    let web = Study::universe(config);
    let base_engine = Study::engine_for(&web);
    let crawl_config = Study::crawl_config(config);
    let mut sink_times = SinkTimes::default();
    let mut replay = ReplayTotals::default();
    let (mut webgen_s, mut webgen_calls, mut dfa_fallbacks) = (0.0, 0, 0);
    let (mut reduce_s, mut busy_s) = (0.0, 0.0);
    let mut reductions = Vec::new();
    for era in config.timeline.eras() {
        let era_web = web.for_era(era.clone());
        let own = config
            .timeline
            .evolves()
            .then(|| Study::engine_for(&era_web));
        let engine = own.as_ref().unwrap_or(&base_engine);
        let host = TimedHost::new(&era_web);
        let browser_config = BrowserConfig {
            seed: crawl_config.seed ^ era_web.config().seed,
            ..BrowserConfig::default()
        };
        let browser = Browser::new(&host, extensions(era), browser_config);
        let shard = FusedShard::new(era.label(), era.pre_patch(), engine);
        let mut sink = TimedSink::new(shard, Some(Replay::new(engine)), None);
        let mut acc = CrawlReduction::new(era.label(), era.pre_patch());
        let t = Instant::now();
        for i in 0..era_web.sites().len() {
            if let Some(q) = supervise_site(&era_web, &crawl_config, &browser, i, &mut sink) {
                sink.site_quarantined(&q);
            }
            sink.site_done();
            let ((), s) = timed(|| acc.absorb(sink.inner.take_site_reduction()));
            reduce_s += s;
        }
        busy_s += secs(t);
        acc.normalize();
        reductions.push(acc);
        webgen_s += host.busy_s();
        webgen_calls += host.calls();
        let r = sink.replay.take().expect("pass 2 sinks replay");
        replay.classify_s += r.classify_s;
        replay.classify_calls += r.classify_calls;
        replay.decide_s += r.decide_s;
        replay.decisions += r.decisions;
        replay.total_s += r.total_s;
        dfa_fallbacks += r.dfa_fallbacks();
        sink_times.absorb(&sink.times);
    }
    PassTwo {
        study: Study::assemble(&web, base_engine, reductions),
        webgen_s,
        webgen_calls,
        sink: sink_times,
        replay,
        dfa_fallbacks,
        reduce_s,
        busy_s,
    }
}
