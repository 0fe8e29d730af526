//! Ablation A1: the webRequest Bug with an ad blocker **in the loop**.
//!
//! The paper measures what companies did; this ablation shows what the bug
//! *enabled*, by crawling the identical pre-patch web three ways:
//!
//! 1. pre-Chrome-58 browser + blocker — the WRB is live: WebSocket requests
//!    never reach `onBeforeRequest`;
//! 2. post-Chrome-58 browser + the same blocker — the patch lets the
//!    blocker see (and cancel) sockets;
//! 3. post-Chrome-58 browser + a blocker that kept `http://*`-only URL
//!    filters — Franken et al.'s extension-side mistake: patched browser,
//!    still no socket blocking;
//! 4. pre-Chrome-58 browser + blocker + a uBO-Extra-style `WebSocket`
//!    constructor shim — the mitigation blockers actually shipped during
//!    the WRB years: most sockets become blockable again, but iframe
//!    sockets still escape the page-world wrapper.
//!
//! Company behaviour is held fixed (the pre-patch web), so any difference
//! is the interposition mechanics alone.

use sockscope::browser::{AdBlockerExtension, BrowserEra, ExtensionHost};
use sockscope::crawler::{
    crawl_orchestrated, CrawlConfig, OrchestratorConfig, RecordSink, SiteRecord,
};
use sockscope::filterlist::Engine;
use sockscope::inclusion::NodeKind;
use sockscope::webgen::{SyntheticWeb, WebGenConfig};

#[derive(Default)]
struct Outcome {
    sockets_opened: usize,
    sockets_blocked: usize,
    http_blocked: usize,
}

impl Outcome {
    fn count(&mut self, record: SiteRecord) {
        for tree in &record.trees {
            for node in tree.nodes() {
                match node.kind {
                    NodeKind::WebSocket => self.sockets_opened += 1,
                    NodeKind::Blocked => {
                        if node.url.starts_with("ws://") || node.url.starts_with("wss://") {
                            self.sockets_blocked += 1;
                        } else {
                            self.http_blocked += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

fn run(
    web: &SyntheticWeb,
    era: BrowserEra,
    legacy_filters: bool,
    shim: bool,
    threads: usize,
) -> Outcome {
    // The blocker gets extra socket-aware rules for the A&A endpoints —
    // the uBO-mitigation-era configuration.
    let mut list = web.easylist();
    list.push_str(&web.easyprivacy());
    for company in web.catalog().all().iter().filter(|c| c.aa_listed) {
        list.push_str(&format!("||{}^$websocket\n", company.domain));
        // Cloudfront-hosted endpoints need host rules.
        if company.ws_host.contains("cloudfront") {
            list.push_str(&format!("||{}^$websocket\n", company.ws_host));
        }
    }
    let orch = OrchestratorConfig {
        workers: threads,
        ..OrchestratorConfig::default()
    };
    let make_extensions = || {
        let (engine, _) = Engine::parse(&list);
        let mut blocker = AdBlockerExtension::new("abp", engine);
        if legacy_filters {
            blocker = blocker.with_legacy_filters();
        }
        let mut host = ExtensionHost::stock(era).install(blocker);
        if shim {
            host = host.with_ws_shim();
        }
        host
    };
    crawl_orchestrated(
        web,
        &CrawlConfig::default(),
        &orch,
        &make_extensions,
        &RecordSink::default,
        &|sink: &mut RecordSink| sink.take_record().expect("one record per site"),
        &Outcome::default,
        &Outcome::count,
    )
}

fn main() {
    let n_sites: usize = std::env::var("SOCKSCOPE_SITES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3_000);
    let threads = std::env::var("SOCKSCOPE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });
    eprintln!("[sockscope] WRB ablation: {n_sites} sites, {threads} threads");
    // Fixed pre-patch web: DoubleClick & friends are still opening sockets.
    let web = SyntheticWeb::new(WebGenConfig {
        n_sites,
        ..WebGenConfig::default()
    });

    let wrb = run(&web, BrowserEra::PreChrome58, false, false, threads);
    let patched = run(&web, BrowserEra::PostChrome58, false, false, threads);
    let legacy = run(&web, BrowserEra::PostChrome58, true, false, threads);
    let shimmed = run(&web, BrowserEra::PreChrome58, false, true, threads);

    println!("WRB ablation (identical pre-patch web, ad blocker installed)\n");
    println!(
        "{:<46} {:>10} {:>12} {:>12}",
        "configuration", "WS opened", "WS blocked", "HTTP blocked"
    );
    println!(
        "{:<46} {:>10} {:>12} {:>12}",
        "Chrome <58 (WRB live)", wrb.sockets_opened, wrb.sockets_blocked, wrb.http_blocked
    );
    println!(
        "{:<46} {:>10} {:>12} {:>12}",
        "Chrome 58+ (patched)",
        patched.sockets_opened,
        patched.sockets_blocked,
        patched.http_blocked
    );
    println!(
        "{:<46} {:>10} {:>12} {:>12}",
        "Chrome 58+ but http://*-only extension filters",
        legacy.sockets_opened,
        legacy.sockets_blocked,
        legacy.http_blocked
    );
    println!(
        "{:<46} {:>10} {:>12} {:>12}",
        "Chrome <58 + uBO-Extra-style constructor shim",
        shimmed.sockets_opened,
        shimmed.sockets_blocked,
        shimmed.http_blocked
    );
    println!();
    println!(
        "WRB effect: {} sockets slipped past the blocker that the patched \
         browser intercepts ({} -> {}).",
        wrb.sockets_opened.saturating_sub(patched.sockets_opened),
        wrb.sockets_opened,
        patched.sockets_opened
    );
    assert!(wrb.sockets_blocked == 0, "pre-58 must never block a socket");
    assert!(
        patched.sockets_blocked > 0,
        "patched browser must block A&A sockets"
    );
    assert!(
        legacy.sockets_blocked == 0,
        "legacy filters must not block sockets even when patched"
    );
    // The shim recovers most — but not all — of the patched behaviour.
    assert!(
        shimmed.sockets_blocked > 0,
        "shim must block main-frame sockets"
    );
    assert!(
        shimmed.sockets_opened >= patched.sockets_opened,
        "shim cannot beat the real patch"
    );
    println!(
        "uBO-Extra-style shim recovers {} of the {} sockets the patch blocks; \
         the remainder open inside ad iframes, beyond the page-world wrapper.",
        shimmed.sockets_blocked, patched.sockets_blocked
    );
    assert!(
        shimmed.sockets_opened > patched.sockets_opened,
        "iframe sockets must escape the shim"
    );
}
