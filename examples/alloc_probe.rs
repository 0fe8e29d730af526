//! Allocation-attribution probe for the fused hot path.
//!
//! Runs one era of the crawl three times, on one orchestrator worker,
//! against progressively heavier sinks — event-discarding, tree-building, and the full fused
//! classify+reduce shard — so the global allocation count can be
//! attributed to each layer by subtraction. Reads `SOCKSCOPE_SITES`;
//! prints per-site allocation counts plus the bump-arena counters.
//!
//! This is a diagnostic, not a benchmark: it exists so "where do the
//! allocations come from" has a one-command answer.

use sockscope_analysis::{FusedShard, Study};
use sockscope_browser::CdpEvent;
use sockscope_crawler::{CrawlConfig, OrchestratorConfig, QuarantineRecord, SiteFaults, SiteSink};
use sockscope_exec::memmeter::{CountingAlloc, Meter};
use sockscope_inclusion::TreeBuilder;
use sockscope_webgen::{CrawlEra, SyntheticWeb};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Discards every event: measures webgen + browser alone.
struct NullSink;

impl sockscope_browser::VisitSink for NullSink {
    fn on_event(&mut self, _event: CdpEvent<'_>) {}
}

impl SiteSink for NullSink {
    fn site_begin(&mut self, _site_id: usize, _domain: &str, _rank: u32) {}
    fn page_begin(&mut self, _url: &str) {}
    fn page_end(&mut self) {}
    fn page_abort(&mut self) {}
    fn site_end(&mut self, _faults: Option<&SiteFaults>) {}
    fn site_abort(&mut self) {}
    fn site_quarantined(&mut self, _record: &QuarantineRecord) {}
}

/// Builds (and drops) the inclusion tree: browser + tree, no classify.
struct TreeDropSink {
    builder: Option<TreeBuilder>,
}

impl sockscope_browser::VisitSink for TreeDropSink {
    fn on_event(&mut self, event: CdpEvent<'_>) {
        if let Some(b) = self.builder.as_mut() {
            b.push(&event);
        }
    }
}

impl SiteSink for TreeDropSink {
    fn site_begin(&mut self, _site_id: usize, _domain: &str, _rank: u32) {}
    fn page_begin(&mut self, url: &str) {
        self.builder = Some(TreeBuilder::new(url));
    }
    fn page_end(&mut self) {
        let tree = self.builder.take().expect("page open").finish();
        std::hint::black_box(&tree);
    }
    fn page_abort(&mut self) {
        self.builder = None;
    }
    fn site_end(&mut self, _faults: Option<&SiteFaults>) {}
    fn site_abort(&mut self) {
        self.builder = None;
    }
    fn site_quarantined(&mut self, _record: &QuarantineRecord) {}
}

/// Crawls the era on one orchestrator worker into `make()`'s sink,
/// dropping whatever `take` extracts after each site.
fn run<A: SiteSink, R: Send>(
    label: &str,
    era_web: &SyntheticWeb,
    crawl_config: &CrawlConfig,
    make_extensions: &(dyn Fn() -> sockscope_browser::ExtensionHost + Sync),
    make: &(dyn Fn() -> A + Sync),
    take: &(dyn Fn(&mut A) -> R + Sync),
    n: f64,
) {
    let orch = OrchestratorConfig {
        workers: 1,
        ..OrchestratorConfig::default()
    };
    let m = Meter::start();
    sockscope_crawler::crawl_orchestrated(
        era_web,
        crawl_config,
        &orch,
        make_extensions,
        make,
        take,
        &|| (),
        &|_: &mut (), _site: R| {},
    );
    let stats = m.finish();
    println!(
        "{label:<12} {:>12} allocs  {:>10.0} allocs/site  {:>8.2}s",
        stats.alloc_count,
        stats.alloc_count as f64 / n,
        stats.seconds
    );
}

fn main() {
    let mut config = sockscope_analysis::StudyConfig::default();
    if let Ok(v) = std::env::var("SOCKSCOPE_SITES") {
        config.n_sites = v.parse().expect("SOCKSCOPE_SITES");
    }
    let web = Study::universe(&config);
    let engine = Study::engine_for(&web);
    let crawl_config = Study::crawl_config(&config);
    let era = CrawlEra::ALL[0];
    let era_web = web.for_era(era);
    let make_extensions =
        || sockscope_browser::ExtensionHost::stock(sockscope_crawler::browser_era(&era.into()));
    let n = config.n_sites as f64;

    // Webgen synthesis alone: every page of every site, plus the script
    // behaviours its tags reference.
    {
        use sockscope_webmodel::{ScriptRef, WebHost};
        let m = Meter::start();
        let mut pages = 0usize;
        for site in era_web.sites() {
            let mut i = 0;
            loop {
                let url = if i == 0 {
                    format!("http://www.{}/", site.domain)
                } else {
                    format!("http://www.{}/page{i}.html", site.domain)
                };
                let Some(page) = era_web.get_page(&url) else {
                    break;
                };
                pages += 1;
                for s in &page.scripts {
                    if let ScriptRef::Remote(u) = s {
                        std::hint::black_box(era_web.get_script(u));
                    }
                }
                std::hint::black_box(&page);
                i += 1;
            }
        }
        let stats = m.finish();
        println!(
            "{:<12} {:>12} allocs  {:>10.0} allocs/site  {:>8.2}s  ({} pages)",
            "webgen",
            stats.alloc_count,
            stats.alloc_count as f64 / n,
            stats.seconds,
            pages
        );
    }

    run(
        "null",
        &era_web,
        &crawl_config,
        &make_extensions,
        &|| NullSink,
        &|_| (),
        n,
    );
    run(
        "tree",
        &era_web,
        &crawl_config,
        &make_extensions,
        &|| TreeDropSink { builder: None },
        &|_| (),
        n,
    );
    run(
        "fused",
        &era_web,
        &crawl_config,
        &make_extensions,
        &|| FusedShard::new(era.label(), era.pre_patch(), &engine),
        &|shard: &mut FusedShard<'_>| shard.take_site_reduction(),
        n,
    );

    let a = sockscope_arena::stats();
    println!(
        "arena: high_water {} B, resets {}, spills {}, served {} B",
        a.high_water_bytes, a.resets, a.spills, a.served_bytes
    );
}
