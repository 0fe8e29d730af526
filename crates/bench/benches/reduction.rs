//! Perf bench P5: locked streaming reduction vs sharded lock-free merge.
//!
//! `reduce_records/*` isolates the reduction stage. Records are crawled
//! once up front; the bench then replays them through (a) one shared
//! `CrawlReduction` behind a mutex with classification inside the
//! critical section — the pre-refactor hot path — and (b) per-shard
//! private reductions folded with `CrawlReduction::merge` afterwards.
//!
//! Knobs: `SOCKSCOPE_BENCH_SITES` (default 2000) and
//! `SOCKSCOPE_BENCH_THREADS` (default 4).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sockscope_analysis::pii::PiiLibrary;
use sockscope_analysis::reduce::CrawlReduction;
use sockscope_crawler::{CrawlConfig, SiteRecord};
use sockscope_filterlist::Engine;
use sockscope_webgen::{Era, SyntheticWeb, WebGenConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Setup {
    web: SyntheticWeb,
    engine: Engine,
    era: Era,
    threads: usize,
    shards: usize,
}

fn setup() -> Setup {
    let web = SyntheticWeb::new(WebGenConfig {
        n_sites: env_usize("SOCKSCOPE_BENCH_SITES", 2_000),
        ..WebGenConfig::default()
    });
    let (engine, errs) = Engine::parse_many(&[&web.easylist(), &web.easyprivacy()]);
    assert!(errs.is_empty(), "generated lists must parse");
    let era = web.config().era.clone();
    let threads = env_usize("SOCKSCOPE_BENCH_THREADS", 4);
    Setup {
        web,
        engine,
        era,
        threads,
        shards: threads * 4,
    }
}

/// The pre-refactor reduction: workers pull records by index and fold them
/// into one shared reduction, classifying *inside* the critical section.
fn reduce_locked(s: &Setup, records: &[SiteRecord]) -> CrawlReduction {
    let lib = PiiLibrary::new();
    let reduction = Mutex::new(CrawlReduction::new(s.era.label(), s.era.pre_patch()));
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..s.threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(record) = records.get(i) else { break };
                reduction
                    .lock()
                    .expect("reduction lock")
                    .observe_site(record, &s.engine, &lib);
            });
        }
    });
    let mut reduction = reduction.into_inner().expect("reduction lock");
    reduction.normalize();
    reduction
}

/// The sharded reduction: each worker folds its interleaved shard into a
/// private reduction with a private classification context; shards merge
/// in shard order afterwards.
fn reduce_sharded(s: &Setup, records: &[SiteRecord]) -> CrawlReduction {
    let next_shard = AtomicUsize::new(0);
    let mut out: Vec<Option<CrawlReduction>> = (0..s.shards).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..s.threads)
            .map(|_| {
                scope.spawn(|| {
                    let lib = PiiLibrary::new();
                    let mut finished = Vec::new();
                    loop {
                        let shard = next_shard.fetch_add(1, Ordering::Relaxed);
                        if shard >= s.shards {
                            break;
                        }
                        let mut acc = CrawlReduction::new(s.era.label(), s.era.pre_patch());
                        let mut i = shard;
                        while i < records.len() {
                            acc.observe_site(&records[i], &s.engine, &lib);
                            i += s.shards;
                        }
                        finished.push((shard, acc));
                    }
                    finished
                })
            })
            .collect();
        for worker in workers {
            for (shard, acc) in worker.join().expect("bench worker") {
                out[shard] = Some(acc);
            }
        }
    });
    let mut reduction = out.into_iter().map(|a| a.expect("shard reduced")).fold(
        CrawlReduction::new(s.era.label(), s.era.pre_patch()),
        CrawlReduction::merge,
    );
    reduction.normalize();
    reduction
}

/// The locked-vs-sharded contrast is a *parallelism* contrast: with one CPU
/// core the mutex is never contended and the shards run back to back, so the
/// two reducers tie by construction. Say so up front rather than letting a
/// single-core tie read as a regression.
fn report_parallelism() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {cores} core(s)");
    if cores < 2 {
        println!(
            "note: single-core host; locked and sharded are expected to tie here. \
             The sharded speedup (>=1.5x at 4+ threads) needs a multi-core host."
        );
    }
}

fn bench_reduce_records(c: &mut Criterion) {
    report_parallelism();
    let s = setup();
    let dataset = sockscope_crawler::crawl(&s.web, &CrawlConfig::default());
    let records = dataset.records;
    assert_eq!(
        reduce_locked(&s, &records),
        reduce_sharded(&s, &records),
        "both reducers must agree before their times mean anything"
    );

    let mut group = c.benchmark_group("reduce_records");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.sample_size(10);
    group.bench_function("locked_streaming", |b| {
        b.iter(|| reduce_locked(&s, &records).sockets.len())
    });
    group.bench_function("sharded", |b| {
        b.iter(|| reduce_sharded(&s, &records).sockets.len())
    });
    group.finish();
}

criterion_group!(benches, bench_reduce_records);
criterion_main!(benches);
