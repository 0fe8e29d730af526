//! Perf bench P4: end-to-end crawl rate — pages per second through the
//! full pipeline (page synthesis → browser → CDP events → inclusion tree).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sockscope_browser::{Browser, BrowserConfig, BrowserEra, ExtensionHost};
use sockscope_crawler::{crawl, crawl_one_site_sink, CrawlConfig, RecordSink};
use sockscope_webgen::{SyntheticWeb, WebGenConfig};

fn bench_single_site(c: &mut Criterion) {
    let web = SyntheticWeb::new(WebGenConfig {
        n_sites: 200,
        ..WebGenConfig::default()
    });
    // Pick a site with WebSocket services so the bench exercises the codec.
    let site = web
        .sites()
        .iter()
        .position(|s| s.has_ws_service())
        .unwrap_or(0);
    let config = CrawlConfig::default();
    let browser = Browser::new(
        &web,
        ExtensionHost::stock(BrowserEra::PreChrome58),
        BrowserConfig::default(),
    );
    let mut group = c.benchmark_group("crawl_pipeline");
    group.throughput(Throughput::Elements(16));
    group.bench_function("one_site_sixteen_pages", |b| {
        b.iter(|| {
            let mut sink = RecordSink::default();
            crawl_one_site_sink(&web, &config, &browser, site, &mut sink);
            sink.into_records().len()
        })
    });
    group.finish();
}

fn bench_small_crawl(c: &mut Criterion) {
    let web = SyntheticWeb::new(WebGenConfig {
        n_sites: 60,
        ..WebGenConfig::default()
    });
    let config = CrawlConfig::default();
    let mut group = c.benchmark_group("crawl_pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(60 * 16));
    group.bench_function("sixty_sites_reference", |b| {
        b.iter(|| crawl(&web, &config).records.len())
    });
    group.finish();
}

criterion_group!(benches, bench_single_site, bench_small_crawl);
criterion_main!(benches);
