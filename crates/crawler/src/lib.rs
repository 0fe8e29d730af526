//! # sockscope-crawler
//!
//! Crawl orchestration, mirroring §3.3 of the paper:
//!
//! * for every site, visit the homepage;
//! * extract the links that point back to the same site;
//! * visit up to 15 of them, chosen at random; if the homepage has fewer,
//!   keep harvesting links from visited pages until 15 pages are seen or
//!   the frontier empties;
//! * drive an instrumented browser and keep the per-page CDP event stream,
//!   reduced to an inclusion tree.
//!
//! The real study waited ~60s between pages and randomized link choice; we
//! keep the random choice (seeded) and drop the wall-clock politeness —
//! the synthetic web has no rate limits, and determinism is a feature.
//!
//! Two drivers are provided:
//!
//! * [`crawl_orchestrated`] / [`crawl_orchestrated_resumable`] — **the**
//!   production driver ([`orchestrator`]): workers claim sites in
//!   ascending order from one sequencer under a global in-flight cap,
//!   each site runs supervised, and results fold in ascending site
//!   order, so the merged output is independent of scheduling. Each
//!   worker feeds a private [`SiteSink`] straight off the browser's event
//!   stream ([`crawl_one_site_sink`]); no per-page event buffer or
//!   [`SiteRecord`] exists on that path.
//! * [`crawl`] — the sequential reference: one thread, no sink, no
//!   supervisor. It buffers each page's events and batch-builds its
//!   inclusion tree, returning every [`SiteRecord`] of the crawl. It
//!   shares only the frontier/fault loop (`drive_site`) with the
//!   production path, which is what makes it a useful oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod orchestrator;
pub mod supervisor;

pub use orchestrator::{crawl_orchestrated, crawl_orchestrated_resumable, OrchestratorConfig};
pub use supervisor::{supervise_site, QuarantineReason, QuarantineRecord};

use std::collections::BTreeMap;

use sockscope_browser::{
    Browser, BrowserConfig, BrowserEra, CdpEvent, ExtensionHost, VisitError, VisitSink,
    VisitSummary,
};
use sockscope_faults::{FaultContext, FaultProfile, VirtualClock};
use sockscope_inclusion::{InclusionTree, TreeBuilder};
use sockscope_webgen::{Era, SyntheticWeb};

/// Crawler configuration.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Seed for link sampling and per-visit browser seeds.
    pub seed: u64,
    /// Maximum links to visit beyond the homepage (the paper's 15).
    pub max_links: usize,
    /// The crawl's fault profile, the only source of one. `None` is a
    /// perfectly reliable network; a profile whose rates are all zero is
    /// treated as no injection at all, so the crawl output is
    /// byte-identical to the fault-free pipeline.
    pub faults: Option<FaultProfile>,
}

impl Default for CrawlConfig {
    fn default() -> CrawlConfig {
        CrawlConfig {
            seed: 0xC4A31,
            max_links: 15,
            faults: None,
        }
    }
}

/// Resolves the *transport* side of the crawl's fault profile: all-zero
/// profiles collapse to `None` so they cannot perturb accounting.
pub fn effective_faults(config: &CrawlConfig) -> Option<FaultProfile> {
    config.faults.clone().filter(|p| !p.is_zero())
}

/// Resolves the *site-hazard* side of the crawl's fault profile, filtered
/// on [`FaultProfile::has_hazards`]. The two resolutions are deliberately
/// independent: a hazard-only profile (e.g. `poison`) activates the
/// supervisor without touching the transport pipeline, so every site the
/// supervisor does *not* quarantine crawls byte-identically to a
/// fault-free run.
pub fn effective_hazards(config: &CrawlConfig) -> Option<FaultProfile> {
    config.faults.clone().filter(|p| p.has_hazards())
}

/// Everything observed while crawling one site.
#[derive(Debug, Clone)]
pub struct SiteRecord {
    /// Site index in the universe.
    pub site_id: usize,
    /// Site second-level domain.
    pub domain: String,
    /// Alexa-like rank.
    pub rank: u32,
    /// One inclusion tree per visited page.
    pub trees: Vec<InclusionTree>,
    /// Failure accounting when the crawl ran under fault injection;
    /// `None` on the fault-free path.
    pub faults: Option<SiteFaults>,
}

/// Failure accounting for one site crawled under fault injection. All
/// counters are exact and deterministic for a given fault seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteFaults {
    /// Page visits attempted, counting every retry separately.
    pub pages_attempted: u64,
    /// Pages given up on after exhausting the retry budget.
    pub pages_failed: u64,
    /// Pages skipped because the site's virtual-clock budget ran out.
    pub pages_timed_out: u64,
    /// Re-visits performed after an unreachable page.
    pub retries: u64,
    /// The homepage never loaded — the record carries no trees.
    pub abandoned: bool,
    /// The site completed, but with failed or timed-out pages.
    pub degraded: bool,
    /// Histogram of injected error kinds observed across the site's
    /// visits (connection, handshake, frame, fetch, and page failures).
    pub errors: BTreeMap<String, u64>,
    /// Virtual ticks consumed crawling the site (stalls plus backoff).
    pub ticks: u64,
}

impl SiteRecord {
    /// Total WebSockets observed on the site.
    pub fn websocket_count(&self) -> usize {
        self.trees.iter().map(|t| t.websockets().count()).sum()
    }

    /// Number of pages visited.
    pub fn pages_visited(&self) -> usize {
        self.trees.len()
    }
}

/// A completed crawl.
#[derive(Debug, Clone)]
pub struct CrawlDataset {
    /// The crawl's date label (Table 1 row).
    pub label: String,
    /// Crawl era.
    pub era: Era,
    /// Per-site records, in site order.
    pub records: Vec<SiteRecord>,
}

impl CrawlDataset {
    /// All inclusion trees of the crawl.
    pub fn trees(&self) -> impl Iterator<Item = &InclusionTree> {
        self.records.iter().flat_map(|r| r.trees.iter())
    }

    /// Fraction of sites with at least one WebSocket (Table 1, column 2).
    pub fn fraction_sites_with_sockets(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let with = self
            .records
            .iter()
            .filter(|r| r.websocket_count() > 0)
            .count();
        with as f64 / self.records.len() as f64
    }
}

/// Deterministic xorshift for link sampling.
struct LinkRng(u64);

impl LinkRng {
    fn new(seed: u64) -> LinkRng {
        LinkRng(seed | 1)
    }

    fn below(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) % n.max(1) as u64) as usize
    }
}

fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The per-site frontier driver: [`crawl`] and [`crawl_one_site_sink`]
/// both run it, through [`drive_universe_site`].
///
/// One loop implements §3.3's frontier policy *and* the fault machinery:
/// the fault-free crawl is the fault crawl with an empty plan
/// (`faults: None` ⇒ a single attempt per page, no `FaultContext`, no
/// budget check, and the returned [`SiteFaults`] is discarded by the
/// caller). There is exactly one copy of the link-sampling,
/// retry/backoff, and budget logic.
///
/// `visit_page` performs the actual page load (streamed or materializing —
/// the driver does not care) and reports the page's summary; the driver
/// owns link filtering, dedup, the seeded frontier pick, and all fault
/// accounting.
type VisitPage<'a> =
    dyn FnMut(&str, Option<&FaultContext>) -> Result<VisitSummary, VisitError> + 'a;

fn drive_site(
    homepage: &str,
    site_domain: &str,
    max_links: usize,
    seed: u64,
    faults: Option<(&FaultProfile, u64, u64)>,
    visit_page: &mut VisitPage<'_>,
) -> SiteFaults {
    let mut pages = 0usize;
    let mut visited: Vec<String> = Vec::new();
    let mut frontier: Vec<String> = Vec::new();
    let mut rng = LinkRng::new(seed);
    let mut clock = VirtualClock::new();
    let mut site_faults = SiteFaults::default();
    let max_retries = faults.map(|(p, _, _)| p.max_retries).unwrap_or(0);

    // Returns true when the page loaded (possibly after retries).
    let mut visit = |url: &str,
                     pages: &mut usize,
                     frontier: &mut Vec<String>,
                     visited: &mut Vec<String>,
                     clock: &mut VirtualClock,
                     site_faults: &mut SiteFaults| {
        for attempt in 0..=max_retries {
            site_faults.pages_attempted += 1;
            let ctx = faults.map(|(profile, fault_seed, site_rank)| FaultContext {
                profile: profile.clone(),
                seed: fault_seed,
                site_rank,
                attempt,
            });
            match visit_page(url, ctx.as_ref()) {
                Ok(v) => {
                    clock.advance(v.faults.ticks);
                    for (_, kind) in &v.faults.faults {
                        *site_faults.errors.entry((*kind).to_string()).or_insert(0) += 1;
                    }
                    visited.push(url.to_string());
                    for link in &v.links {
                        // Same-site links only, unseen only.
                        let same_site = sockscope_urlkit::Url::parse(link)
                            .ok()
                            .and_then(|u| u.second_level_domain().map(|d| d == site_domain))
                            .unwrap_or(false);
                        if same_site && !visited.contains(link) && !frontier.contains(link) {
                            frontier.push(link.clone());
                        }
                    }
                    *pages += 1;
                    return true;
                }
                Err(VisitError::Unreachable(_)) => {
                    *site_faults
                        .errors
                        .entry("page_unreachable".to_string())
                        .or_insert(0) += 1;
                    if let Some((profile, _, _)) = faults {
                        if attempt < profile.max_retries {
                            site_faults.retries += 1;
                            clock.advance(profile.backoff_base << attempt.min(16));
                        }
                    }
                }
                // Unknown page: skip it exactly like the fault-free crawl.
                Err(_) => return false,
            }
        }
        site_faults.pages_failed += 1;
        false
    };

    let homepage_ok = visit(
        homepage,
        &mut pages,
        &mut frontier,
        &mut visited,
        &mut clock,
        &mut site_faults,
    );
    if !homepage_ok {
        site_faults.abandoned = true;
    } else {
        while pages < max_links + 1 && !frontier.is_empty() {
            let pick = rng.below(frontier.len());
            let url = frontier.swap_remove(pick);
            if visited.contains(&url) {
                continue;
            }
            if let Some((profile, _, _)) = faults {
                if clock.now() >= profile.page_budget {
                    site_faults.pages_timed_out += 1;
                    break;
                }
            }
            visit(
                &url,
                &mut pages,
                &mut frontier,
                &mut visited,
                &mut clock,
                &mut site_faults,
            );
        }
    }
    site_faults.degraded =
        !site_faults.abandoned && (site_faults.pages_failed > 0 || site_faults.pages_timed_out > 0);
    site_faults.ticks = clock.now();
    site_faults
}

/// Runs [`drive_site`] over site `i` of the universe with the per-site
/// seeds every driver derives identically: links are sampled from the
/// crawl seed mixed with the era's stream for the site, and under an
/// effective fault profile each era draws its own fault stream over the
/// crawl seed. Returns the site's failure accounting exactly when a fault
/// profile is in effect, matching [`SiteRecord::faults`].
fn drive_universe_site(
    web: &SyntheticWeb,
    config: &CrawlConfig,
    i: usize,
    visit_page: &mut VisitPage<'_>,
) -> Option<SiteFaults> {
    let site = &web.sites()[i];
    let era = &web.config().era;
    let effective = effective_faults(config);
    let site_faults = drive_site(
        &site.homepage(),
        &site.domain,
        config.max_links,
        mix(config.seed, era.site_stream(site.id as u64)),
        effective
            .as_ref()
            .map(|profile| (profile, mix(config.seed, era.index()), site.rank as u64)),
        visit_page,
    );
    effective.is_some().then_some(site_faults)
}

/// Maps crawl era to browser era.
pub fn browser_era(era: &Era) -> BrowserEra {
    if era.pre_patch() {
        BrowserEra::PreChrome58
    } else {
        BrowserEra::PostChrome58
    }
}

/// The sequential reference crawl: every site of the universe, in site
/// order, on one thread with a stock browser (no extensions — the paper's
/// measurement configuration; the browser era tracks the crawl era).
///
/// Each page's full event stream is buffered into a materialized visit and
/// its inclusion tree batch-built with [`InclusionTree::build`]. There is
/// no sink, no supervisor and no scheduling: the only code this shares
/// with [`crawl_orchestrated`] is the frontier/fault loop, so diffing the
/// two catches scheduling and stream-fusion bugs. Site hazards are drawn
/// only by the supervisor, so under a hazard profile this crawl still
/// crawls the sites the production driver would quarantine.
pub fn crawl(web: &SyntheticWeb, config: &CrawlConfig) -> CrawlDataset {
    let browser = Browser::new(
        web,
        ExtensionHost::stock(browser_era(&web.config().era)),
        BrowserConfig {
            seed: config.seed ^ web.config().seed,
            ..BrowserConfig::default()
        },
    );
    let records = web
        .sites()
        .iter()
        .enumerate()
        .map(|(i, site)| {
            let mut trees = Vec::new();
            let faults = drive_universe_site(web, config, i, &mut |url, ctx| {
                let v = browser.visit_with_faults(url, ctx)?;
                trees.push(InclusionTree::build(url, &v.events));
                Ok(VisitSummary {
                    page_url: v.page_url,
                    links: v.links,
                    blocked: v.blocked,
                    faults: v.faults,
                })
            });
            SiteRecord {
                site_id: site.id,
                domain: site.domain.clone(),
                rank: site.rank,
                trees,
                faults,
            }
        })
        .collect();
    CrawlDataset {
        label: web.config().era.label().to_string(),
        era: web.config().era.clone(),
        records,
    }
}

/// A consumer of a *fused* crawl: per-site and per-page lifecycle
/// callbacks, with every CDP event of the current page delivered through
/// the [`VisitSink`] supertrait between `page_begin` and `page_end`.
///
/// This is the zero-materialization seam: no `Visit`, no `SiteRecord`, no
/// per-page event buffer exists anywhere on the path from the browser to
/// the sink. The contract:
///
/// * `page_begin(url)` opens a page; the events that follow belong to it.
///   A page that fails mid-retry produces `page_begin` → (zero events,
///   the browser decides every [`VisitError`] before emitting) →
///   `page_abort`, possibly several times before a final `page_end` or
///   the page is given up on.
/// * `site_end(faults)` closes the site; `faults` is `Some` exactly when
///   the crawl ran under an effective fault profile, matching
///   [`SiteRecord::faults`].
pub trait SiteSink: VisitSink {
    /// A site's crawl is starting.
    fn site_begin(&mut self, site_id: usize, domain: &str, rank: u32);
    /// A page visit is starting; subsequent events belong to this page.
    fn page_begin(&mut self, url: &str);
    /// The current page loaded successfully.
    fn page_end(&mut self);
    /// The current page failed before emitting any event; discard it.
    fn page_abort(&mut self);
    /// The site's crawl is complete.
    fn site_end(&mut self, faults: Option<&SiteFaults>);
    /// The site's crawl was torn down mid-flight by the supervisor
    /// (panic, deadline, or budget breach): discard *all* partial state of
    /// the current site — including any pages already completed — and
    /// return to the pristine between-sites state, ready for either a
    /// byte-identical retry of the same site or the next site. Only the
    /// supervised orchestrator calls this, and it drains completed sites
    /// out of the sink before each new one, so "current site" is
    /// everything the sink holds.
    fn site_abort(&mut self);
    /// The supervisor gave up on a site after exhausting its retries; the
    /// site contributes nothing but this record. Called instead of (not in
    /// addition to) `site_end`, after the final `site_abort`. Sinks that
    /// do not account for quarantine may ignore it.
    fn site_quarantined(&mut self, record: &QuarantineRecord) {
        let _ = record;
    }
}

/// Crawls site `i` straight into a [`SiteSink`]: the streamed per-site
/// driver behind the orchestrator and the supervisor. Seeds, frontier
/// policy and fault accounting are those of [`crawl`] (the same
/// [`drive_site`]), so a sink that reassembles trees observes exactly the
/// state a [`SiteRecord`] holds. Its event-order contract, pinned by
/// `sink_event_order_contract` in the tests:
///
/// 1. `page_begin(url)` brackets with exactly one `page_end()` or
///    `page_abort()`; pages never nest and never cross sites.
/// 2. Every [`VisitSink`] event is delivered between a `page_begin` and
///    its closing call; an aborted page delivers **zero** events (the
///    browser decides every [`VisitError`] before emitting).
/// 3. `page_begin` count equals [`SiteFaults::pages_attempted`] (every
///    retry is its own bracket); `page_end` count equals pages kept.
pub fn crawl_one_site_sink<A: SiteSink>(
    web: &SyntheticWeb,
    config: &CrawlConfig,
    browser: &Browser<'_>,
    i: usize,
    sink: &mut A,
) {
    let site = &web.sites()[i];
    sink.site_begin(site.id, &site.domain, site.rank);
    let faults = drive_universe_site(web, config, i, &mut |url, ctx| {
        sink.page_begin(url);
        match browser.visit_streamed(url, ctx, &mut *sink) {
            Ok(summary) => {
                sink.page_end();
                Ok(summary)
            }
            Err(e) => {
                sink.page_abort();
                Err(e)
            }
        }
    });
    sink.site_end(faults.as_ref());
}

/// A [`SiteSink`] that reassembles full [`SiteRecord`]s from the event
/// stream: the adapter for callers of [`crawl_orchestrated`] that want
/// records (the WRB ablation), and the proof in the tests that the
/// streamed driver delivers exactly the state [`crawl`] records.
#[derive(Default)]
pub struct RecordSink {
    records: Vec<SiteRecord>,
    current: Option<SiteRecord>,
    builder: Option<TreeBuilder>,
}

impl RecordSink {
    /// Completed records, in completion order.
    pub fn records(&self) -> &[SiteRecord] {
        &self.records
    }

    /// Consumes the sink, returning every completed record.
    pub fn into_records(self) -> Vec<SiteRecord> {
        self.records
    }

    /// Removes and returns the oldest completed record. Per-site drivers
    /// drain the sink with this after each `site_end`.
    pub fn take_record(&mut self) -> Option<SiteRecord> {
        if self.records.is_empty() {
            None
        } else {
            Some(self.records.remove(0))
        }
    }
}

impl VisitSink for RecordSink {
    fn on_event(&mut self, event: CdpEvent) {
        self.builder
            .as_mut()
            .expect("events only between page_begin and page_end")
            .push(&event);
    }
}

impl SiteSink for RecordSink {
    fn site_begin(&mut self, site_id: usize, domain: &str, rank: u32) {
        self.current = Some(SiteRecord {
            site_id,
            domain: domain.to_string(),
            rank,
            trees: Vec::new(),
            faults: None,
        });
    }

    fn page_begin(&mut self, url: &str) {
        self.builder = Some(TreeBuilder::new(url));
    }

    fn page_end(&mut self) {
        let tree = self.builder.take().expect("page_end after page_begin");
        self.current
            .as_mut()
            .expect("page inside site")
            .trees
            .push(tree.finish());
    }

    fn page_abort(&mut self) {
        self.builder = None;
    }

    fn site_end(&mut self, faults: Option<&SiteFaults>) {
        let mut record = self.current.take().expect("site_end after site_begin");
        record.faults = faults.cloned();
        self.records.push(record);
    }

    fn site_abort(&mut self) {
        self.builder = None;
        self.current = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sockscope_webgen::{EraTimeline, WebGenConfig};

    fn web(n: usize) -> SyntheticWeb {
        SyntheticWeb::new(WebGenConfig {
            n_sites: n,
            ..WebGenConfig::default()
        })
    }

    #[test]
    fn crawl_visits_up_to_sixteen_pages_per_site() {
        let web = web(30);
        let ds = crawl(&web, &CrawlConfig::default());
        assert_eq!(ds.records.len(), 30);
        for r in &ds.records {
            assert!(r.pages_visited() >= 1);
            assert!(r.pages_visited() <= 16, "{}", r.pages_visited());
        }
        // The generator produces 15 pages per site (homepage + 14
        // subpages), so the §3.3 cap of 16 is never binding here; the
        // crawler should exhaust the site instead.
        assert!(ds.records.iter().any(|r| r.pages_visited() == 15));
    }

    #[test]
    fn paper_eras_share_the_universe() {
        let web = web(15);
        let crawls: Vec<CrawlDataset> = EraTimeline::paper()
            .eras()
            .iter()
            .map(|era| crawl(&web.for_era(era.clone()), &CrawlConfig::default()))
            .collect();
        assert_eq!(crawls.len(), 4);
        assert!(crawls[0].era.pre_patch());
        assert!(!crawls[3].era.pre_patch());
        for ds in &crawls {
            assert_eq!(ds.records.len(), 15);
        }
        assert_eq!(crawls[0].label, "Apr 02-05, 2017");
        assert_eq!(crawls[3].label, "Oct 12-16, 2017");
    }

    #[test]
    fn trees_have_valid_invariants() {
        let web = web(25);
        let ds = crawl(&web, &CrawlConfig::default());
        for tree in ds.trees() {
            tree.check_invariants().unwrap();
        }
    }

    #[test]
    fn zero_rate_profile_is_identical_to_no_profile() {
        let web = web(20);
        let plain = crawl(&web, &CrawlConfig::default());
        let zeroed = crawl(
            &web,
            &CrawlConfig {
                faults: Some(FaultProfile::none()),
                ..CrawlConfig::default()
            },
        );
        assert_eq!(plain.records.len(), zeroed.records.len());
        for (a, b) in plain.records.iter().zip(&zeroed.records) {
            assert_eq!(a.trees, b.trees);
            assert_eq!(b.faults, None, "zero-rate profile must not account");
        }
    }

    #[test]
    fn heavy_faults_degrade_but_never_panic() {
        let web = web(60);
        let ds = crawl(
            &web,
            &CrawlConfig {
                faults: Some(FaultProfile::heavy()),
                ..CrawlConfig::default()
            },
        );
        assert_eq!(ds.records.len(), 60);
        let mut retried = 0u64;
        let mut shortfall = 0usize;
        for r in &ds.records {
            let f = r.faults.as_ref().expect("faulted crawl must account");
            assert!(f.pages_attempted >= r.pages_visited() as u64);
            if f.abandoned {
                assert!(r.trees.is_empty(), "abandoned sites carry no trees");
            }
            retried += f.retries;
            shortfall += usize::from(r.pages_visited() < 15);
            for tree in &r.trees {
                tree.check_invariants().unwrap();
            }
        }
        assert!(retried > 0, "heavy profile should force retries");
        assert!(shortfall > 0, "heavy profile should cut some site short");
    }

    #[test]
    fn reference_crawl_is_decision_identical_to_the_streamed_driver() {
        let web = web(25);
        for faults in [None, Some(FaultProfile::heavy())] {
            let config = CrawlConfig {
                faults,
                ..CrawlConfig::default()
            };
            let reference = crawl(&web, &config);
            let browser = Browser::new(
                &web,
                ExtensionHost::stock(browser_era(&web.config().era)),
                BrowserConfig {
                    seed: config.seed ^ web.config().seed,
                    ..BrowserConfig::default()
                },
            );
            let mut sink = RecordSink::default();
            for i in 0..web.sites().len() {
                crawl_one_site_sink(&web, &config, &browser, i, &mut sink);
            }
            let streamed = sink.into_records();
            assert_eq!(streamed.len(), reference.records.len());
            for (a, b) in streamed.iter().zip(&reference.records) {
                assert_eq!(a.site_id, b.site_id);
                assert_eq!(a.domain, b.domain);
                assert_eq!(a.trees, b.trees);
                assert_eq!(a.faults, b.faults);
            }
        }
    }

    /// A [`SiteSink`] that verifies the event-order contract documented on
    /// `drive_site_sink` as it is driven, and counts the brackets.
    #[derive(Default)]
    struct ContractSink {
        sites_begun: u64,
        sites_ended: u64,
        page_begins: u64,
        page_ends: u64,
        page_aborts: u64,
        /// `Some(n)` while inside a page that has delivered `n` events.
        events_in_page: Option<u64>,
    }

    impl VisitSink for ContractSink {
        fn on_event(&mut self, _event: CdpEvent) {
            let n = self
                .events_in_page
                .as_mut()
                .expect("contract: events only inside an open page");
            *n += 1;
        }
    }

    impl SiteSink for ContractSink {
        fn site_begin(&mut self, _site_id: usize, _domain: &str, _rank: u32) {
            assert_eq!(
                self.sites_begun, self.sites_ended,
                "contract: sites never nest"
            );
            assert!(self.events_in_page.is_none());
            self.sites_begun += 1;
        }

        fn page_begin(&mut self, _url: &str) {
            assert!(
                self.events_in_page.is_none(),
                "contract: pages never nest — page_begin inside an open page"
            );
            assert_eq!(self.sites_begun, self.sites_ended + 1);
            self.events_in_page = Some(0);
            self.page_begins += 1;
        }

        fn page_end(&mut self) {
            self.events_in_page
                .take()
                .expect("contract: page_end only after page_begin");
            self.page_ends += 1;
        }

        fn page_abort(&mut self) {
            let events = self
                .events_in_page
                .take()
                .expect("contract: page_abort only after page_begin");
            assert_eq!(events, 0, "contract: aborted pages deliver zero events");
            self.page_aborts += 1;
        }

        fn site_end(&mut self, _faults: Option<&SiteFaults>) {
            assert!(
                self.events_in_page.is_none(),
                "contract: site_end with a page still open"
            );
            self.sites_ended += 1;
        }

        fn site_abort(&mut self) {
            // A supervised teardown may interrupt an open page; the sink
            // returns to the between-sites state with the bracket counters
            // rebalanced so a retry starts clean.
            if self.events_in_page.take().is_some() {
                self.page_aborts += 1;
            }
            self.sites_ended = self.sites_begun;
            self.page_begins = self.page_ends + self.page_aborts;
        }
    }

    #[test]
    fn sink_event_order_contract() {
        let web = web(25);
        for faults in [None, Some(FaultProfile::heavy())] {
            let heavy = faults.is_some();
            let config = CrawlConfig {
                faults,
                ..CrawlConfig::default()
            };
            let browser = Browser::new(
                &web,
                ExtensionHost::stock(browser_era(&web.config().era)),
                BrowserConfig {
                    seed: config.seed ^ web.config().seed,
                    ..BrowserConfig::default()
                },
            );
            let mut total_aborts = 0u64;
            for i in 0..web.sites().len() {
                let mut contract = ContractSink::default();
                crawl_one_site_sink(&web, &config, &browser, i, &mut contract);
                let mut recorder = RecordSink::default();
                crawl_one_site_sink(&web, &config, &browser, i, &mut recorder);
                let record = recorder.take_record().expect("one record per site");

                assert_eq!(contract.sites_begun, 1);
                assert_eq!(contract.sites_ended, 1);
                assert_eq!(
                    contract.page_ends as usize,
                    record.trees.len(),
                    "every page_end corresponds to exactly one kept tree"
                );
                assert_eq!(
                    contract.page_begins,
                    contract.page_ends + contract.page_aborts,
                    "every page_begin is closed exactly once"
                );
                match &record.faults {
                    Some(f) => assert_eq!(
                        contract.page_begins, f.pages_attempted,
                        "every attempt (retries included) is its own bracket"
                    ),
                    None => assert_eq!(
                        contract.page_aborts, 0,
                        "fault-free crawls never abort a page"
                    ),
                }
                total_aborts += contract.page_aborts;
            }
            if heavy {
                assert!(
                    total_aborts > 0,
                    "heavy faults must exercise the page_abort path"
                );
            }
        }
    }

    #[test]
    fn some_site_has_sockets_eventually() {
        // With ~2–3% incidence, 400 sites should show a few socket users.
        let web = web(400);
        let ds = crawl(&web, &CrawlConfig::default());
        let frac = ds.fraction_sites_with_sockets();
        assert!(frac > 0.0, "no sockets at all");
        assert!(frac < 0.15, "implausibly many socket sites: {frac}");
    }
}
