//! Supervised per-site execution: panic isolation, virtual-clock
//! deadlines, and allocation budgets around [`crawl_one_site_sink`].
//!
//! The paper's crawl ran unattended over ~100K real sites, where a single
//! hostile site can crash the instrumentation, never terminate, or balloon
//! memory. This module is the layer that turns those three failure shapes
//! into *accounted loss*: each site attempt runs under
//! [`std::panic::catch_unwind`]; a guard interposed on the sink protocol
//! enforces a deadline counted in page-visit steps (a [`VirtualClock`], so
//! it is deterministic across machines and schedules) and a per-attempt
//! allocation budget read from the task-scoped meter in
//! `sockscope_exec::memmeter`. A site that breaches on every attempt is
//! quarantined — reported to the sink as a [`QuarantineRecord`] instead of
//! a `site_end`, leaving the rest of the crawl byte-identical to a run
//! that never saw the site.
//!
//! # Unwind safety
//!
//! The supervised closure crosses `&SyntheticWeb`, `&CrawlConfig`,
//! `&Browser`, and `&mut GuardedSink` into `catch_unwind` under
//! [`AssertUnwindSafe`]. The assertion is justified by audit, not hand
//! waving — see DESIGN.md §11 for the full argument:
//!
//! * the web, config, and browser are shared immutably and contain no
//!   interior mutability on the visit path except the classifier's lazy
//!   DFA cache, which is lock-poisoning-tolerant by construction
//!   (`try_lock` with a decision-identical reference fallback);
//! * the sink *is* left in a torn state by an unwind — and that is exactly
//!   what [`SiteSink::site_abort`] exists for: the supervisor calls it on
//!   every catch before retrying or quarantining, restoring the pristine
//!   between-sites state.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use sockscope_browser::Browser;
use sockscope_exec::memmeter;
use sockscope_faults::{FaultProfile, HazardPlan, SiteHazard, VirtualClock};
use sockscope_webgen::SyntheticWeb;

use crate::{crawl_one_site_sink, effective_hazards, mix, CrawlConfig, SiteSink};

/// Why the supervisor gave up on a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QuarantineReason {
    /// Every attempt panicked (injected or real).
    Panic,
    /// Every attempt blew the visit-step deadline.
    Deadline,
    /// Every attempt blew the allocation budget.
    Budget,
}

impl QuarantineReason {
    /// Short stable key, the vocabulary of the quarantine table.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            QuarantineReason::Panic => "panic",
            QuarantineReason::Deadline => "deadline",
            QuarantineReason::Budget => "budget",
        }
    }
}

/// One quarantined site: the degraded record a hostile site leaves behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Site index in the universe.
    pub site_id: usize,
    /// Site second-level domain.
    pub domain: String,
    /// Alexa-like rank.
    pub rank: u32,
    /// Why the site was given up on (the final attempt's breach).
    pub reason: QuarantineReason,
    /// Attempts spent before giving up (always `site_retries + 1`).
    pub attempts: u32,
}

/// Payload of a seeded [`SiteHazard::PanicAt`] injection. Public only to
/// the panic-hook filter; carries the step for diagnostics.
#[derive(Debug, Clone, Copy)]
struct InjectedPanic(#[allow(dead_code)] u64);

/// Payload of a guard-enforced breach. Breaches unwind — that is the only
/// way to stop an arbitrary visit mid-flight without threading a poll
/// through every layer — and the supervisor catches and classifies them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GuardBreach {
    Deadline,
    Budget,
}

/// Installs (once per process) a panic-hook filter that suppresses the
/// default stderr report for *expected* payloads — injected hazards and
/// guard breaches — while delegating every real panic to the previous
/// hook, so genuine bugs still print.
fn install_panic_silencer() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.is::<InjectedPanic>() || payload.is::<GuardBreach>() {
                return;
            }
            previous(info);
        }));
    });
}

fn classify(payload: &(dyn Any + Send)) -> QuarantineReason {
    match payload.downcast_ref::<GuardBreach>() {
        Some(GuardBreach::Deadline) => QuarantineReason::Deadline,
        Some(GuardBreach::Budget) => QuarantineReason::Budget,
        None => QuarantineReason::Panic,
    }
}

/// The per-attempt guard: owns the virtual deadline clock, the allocation
/// mark, and the site's hazard (if any). Checked on every `page_begin`,
/// the one sink callback every visit passes through.
struct SiteGuard {
    clock: VirtualClock,
    deadline: u64,
    budget: u64,
    charged0: u64,
    hazard: Option<SiteHazard>,
}

impl SiteGuard {
    fn new(deadline: u64, budget: u64, hazard: Option<SiteHazard>) -> SiteGuard {
        SiteGuard {
            clock: VirtualClock::new(),
            deadline: deadline.max(1),
            budget: budget.max(1),
            charged0: memmeter::task_allocated(),
            hazard,
        }
    }

    /// One page-visit step: advance the clock, fire the hazard if its step
    /// has come, then enforce deadline and budget. Breaches unwind with a
    /// typed payload the supervisor classifies.
    fn check_in(&mut self) {
        let step = self.clock.now();
        self.clock.advance(1);
        match self.hazard {
            Some(SiteHazard::PanicAt { step: s }) if step == s => {
                std::panic::panic_any(InjectedPanic(s));
            }
            Some(SiteHazard::HangAt { step: s }) if step >= s => {
                // A hang makes no further progress while time keeps
                // passing: the virtual clock races to the deadline.
                self.clock.advance(self.deadline);
            }
            Some(SiteHazard::AllocBomb { step: s }) if step >= s => {
                // A runaway allocator: charge the whole budget at once so
                // the breach lands identically with or without the
                // counting global allocator installed.
                memmeter::task_charge(self.budget);
            }
            _ => {}
        }
        if self.clock.now() >= self.deadline {
            std::panic::panic_any(GuardBreach::Deadline);
        }
        if memmeter::task_allocated().wrapping_sub(self.charged0) >= self.budget {
            std::panic::panic_any(GuardBreach::Budget);
        }
    }
}

/// A [`SiteSink`] shim that interposes the guard on `page_begin` and
/// forwards everything else untouched. The guard fires *between* pages —
/// before the inner sink opens the bracket — so the inner sink never sees
/// a half-open page from an injected breach.
struct GuardedSink<'g, C: SiteSink> {
    inner: &'g mut C,
    guard: SiteGuard,
}

impl<C: SiteSink> sockscope_browser::VisitSink for GuardedSink<'_, C> {
    fn on_event(&mut self, event: sockscope_browser::CdpEvent) {
        self.inner.on_event(event);
    }
}

impl<C: SiteSink> SiteSink for GuardedSink<'_, C> {
    fn site_begin(&mut self, site_id: usize, domain: &str, rank: u32) {
        self.inner.site_begin(site_id, domain, rank);
    }

    fn page_begin(&mut self, url: &str) {
        self.guard.check_in();
        self.inner.page_begin(url);
    }

    fn page_end(&mut self) {
        self.inner.page_end();
    }

    fn page_abort(&mut self) {
        self.inner.page_abort();
    }

    fn site_end(&mut self, faults: Option<&crate::SiteFaults>) {
        self.inner.site_end(faults);
    }

    fn site_abort(&mut self) {
        self.inner.site_abort();
    }
}

/// Crawls site `i` under supervision: up to `site_retries + 1` attempts,
/// each isolated by `catch_unwind` and guarded by the visit-step deadline
/// and allocation budget of the active profile. Returns `None` when the
/// site completed (the sink holds its result exactly as if
/// [`crawl_one_site_sink`] had been called directly) or the site's
/// [`QuarantineRecord`] when every attempt breached (the sink holds
/// nothing of the site; the caller decides where the record goes —
/// the orchestrator hands it to [`SiteSink::site_quarantined`]).
///
/// Determinism: the hazard draw is a pure function of
/// `(config.seed, era, site.rank)`; a breached attempt tears the sink back
/// to pristine and the retry re-derives the identical per-site seeds, so
/// recovered sites are byte-identical to never-breached ones and the
/// quarantine set is identical across worker counts and steal schedules.
pub fn supervise_site<C: SiteSink>(
    web: &SyntheticWeb,
    config: &CrawlConfig,
    browser: &Browser<'_>,
    i: usize,
    sink: &mut C,
) -> Option<QuarantineRecord> {
    install_panic_silencer();
    let site = &web.sites()[i];
    // Limits come from whichever profile is active (even a transport-only
    // one); with no profile at all the defaults of `none()` apply.
    let limits = config
        .faults
        .clone()
        .or_else(|| web.config().faults.clone())
        .unwrap_or_else(FaultProfile::none);
    let hazard = effective_hazards(web, config).and_then(|p| {
        let hazard_seed = mix(config.seed, web.config().era.index());
        HazardPlan::new(hazard_seed, u64::from(site.rank)).decide(&p)
    });
    let mut reason = QuarantineReason::Panic;
    for _attempt in 0..=limits.site_retries {
        let guard = SiteGuard::new(limits.site_deadline, limits.site_alloc_budget, hazard);
        let mut guarded = GuardedSink { inner: sink, guard };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            crawl_one_site_sink(web, config, browser, i, &mut guarded);
        }));
        match outcome {
            Ok(()) => return None,
            Err(payload) => {
                sink.site_abort();
                reason = classify(payload.as_ref());
            }
        }
    }
    Some(QuarantineRecord {
        site_id: site.id,
        domain: site.domain.clone(),
        rank: site.rank,
        reason,
        attempts: limits.site_retries + 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{browser_era, RecordSink};
    use sockscope_browser::{BrowserConfig, ExtensionHost};
    use sockscope_webgen::WebGenConfig;

    fn web(n: usize, faults: Option<FaultProfile>) -> SyntheticWeb {
        SyntheticWeb::new(WebGenConfig {
            n_sites: n,
            faults,
            ..WebGenConfig::default()
        })
    }

    fn browser<'w>(web: &'w SyntheticWeb, config: &CrawlConfig) -> Browser<'w> {
        Browser::new(
            web,
            ExtensionHost::stock(browser_era(&web.config().era)),
            BrowserConfig {
                seed: config.seed ^ web.config().seed,
                ..BrowserConfig::default()
            },
        )
    }

    #[test]
    fn clean_sites_supervise_to_the_unsupervised_record() {
        let web = web(20, None);
        let config = CrawlConfig::default();
        let browser = browser(&web, &config);
        for i in 0..web.sites().len() {
            let mut supervised = RecordSink::default();
            assert_eq!(
                supervise_site(&web, &config, &browser, i, &mut supervised),
                None
            );
            let mut plain = RecordSink::default();
            crawl_one_site_sink(&web, &config, &browser, i, &mut plain);
            let a = supervised.take_record().unwrap();
            let b = plain.take_record().unwrap();
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.trees, b.trees);
            assert_eq!(a.faults, b.faults);
        }
    }

    #[test]
    fn poisoned_sites_quarantine_and_leave_the_sink_empty() {
        let web = web(60, Some(FaultProfile::poison()));
        let config = CrawlConfig::default();
        let browser = browser(&web, &config);
        let mut quarantined = Vec::new();
        let mut sink = RecordSink::default();
        for i in 0..web.sites().len() {
            match supervise_site(&web, &config, &browser, i, &mut sink) {
                Some(q) => {
                    assert!(sink.take_record().is_none(), "quarantine leaves no record");
                    assert_eq!(q.attempts, FaultProfile::poison().site_retries + 1);
                    quarantined.push(q);
                }
                None => {
                    let r = sink.take_record().expect("completed site leaves a record");
                    assert_eq!(r.site_id, i);
                    assert!(r.faults.is_none(), "poison is transport-clean");
                }
            }
        }
        // ~20% of 60 sites; the exact set is seed-determined.
        assert!(
            (4..25).contains(&quarantined.len()),
            "quarantined {} of 60",
            quarantined.len()
        );
        // The draw matches the oracle exactly.
        let hazard_seed = mix(config.seed, web.config().era.index());
        for site in web.sites() {
            let expect =
                HazardPlan::new(hazard_seed, u64::from(site.rank)).decide(&FaultProfile::poison());
            let got = quarantined.iter().find(|q| q.site_id == site.id);
            assert_eq!(expect.is_some(), got.is_some(), "site {}", site.id);
            if let (Some(h), Some(q)) = (expect, got) {
                let reason = match h {
                    SiteHazard::PanicAt { .. } => QuarantineReason::Panic,
                    SiteHazard::HangAt { .. } => QuarantineReason::Deadline,
                    SiteHazard::AllocBomb { .. } => QuarantineReason::Budget,
                };
                assert_eq!(q.reason, reason);
            }
        }
    }

    #[test]
    fn every_reason_is_reachable_and_deterministic() {
        let web = web(120, Some(FaultProfile::poison()));
        let config = CrawlConfig::default();
        let browser = browser(&web, &config);
        let run = || {
            let mut sink = RecordSink::default();
            let mut out = Vec::new();
            for i in 0..web.sites().len() {
                if let Some(q) = supervise_site(&web, &config, &browser, i, &mut sink) {
                    out.push((q.site_id, q.reason, q.attempts));
                }
                sink.take_record();
            }
            out
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "quarantine set must be reproducible");
        let reasons: std::collections::BTreeSet<_> = a.iter().map(|(_, r, _)| *r).collect();
        assert!(reasons.contains(&QuarantineReason::Panic));
        assert!(reasons.contains(&QuarantineReason::Deadline));
        assert!(reasons.contains(&QuarantineReason::Budget));
    }

    #[test]
    fn real_panics_in_the_sink_are_isolated_too() {
        // A sink that panics on its first page proves supervision does not
        // depend on the injected-hazard path: any unwind quarantines.
        struct Bomb {
            inner: RecordSink,
            fuse_lit: bool,
        }
        impl sockscope_browser::VisitSink for Bomb {
            fn on_event(&mut self, event: sockscope_browser::CdpEvent) {
                self.inner.on_event(event);
            }
        }
        impl SiteSink for Bomb {
            fn site_begin(&mut self, site_id: usize, domain: &str, rank: u32) {
                self.inner.site_begin(site_id, domain, rank);
            }
            fn page_begin(&mut self, url: &str) {
                if self.fuse_lit {
                    panic!("sink bug");
                }
                self.inner.page_begin(url);
            }
            fn page_end(&mut self) {
                self.inner.page_end();
            }
            fn page_abort(&mut self) {
                self.inner.page_abort();
            }
            fn site_end(&mut self, faults: Option<&crate::SiteFaults>) {
                self.inner.site_end(faults);
            }
            fn site_abort(&mut self) {
                self.inner.site_abort();
            }
        }

        let web = web(3, None);
        let config = CrawlConfig::default();
        let browser = browser(&web, &config);
        let mut sink = Bomb {
            inner: RecordSink::default(),
            fuse_lit: true,
        };
        let q = supervise_site(&web, &config, &browser, 0, &mut sink)
            .expect("a panicking site must quarantine");
        assert_eq!(q.reason, QuarantineReason::Panic);
        assert_eq!(q.site_id, 0);
        // The worker survives: the same sink crawls the next site cleanly.
        sink.fuse_lit = false;
        assert_eq!(supervise_site(&web, &config, &browser, 1, &mut sink), None);
        assert_eq!(sink.inner.take_record().unwrap().site_id, 1);
    }

    #[test]
    fn hazard_free_profiles_never_quarantine() {
        let web = web(25, Some(FaultProfile::heavy()));
        let config = CrawlConfig::default();
        let browser = browser(&web, &config);
        let mut sink = RecordSink::default();
        for i in 0..web.sites().len() {
            assert_eq!(supervise_site(&web, &config, &browser, i, &mut sink), None);
            let r = sink.take_record().unwrap();
            assert!(r.faults.is_some(), "heavy transport faults still account");
        }
    }
}
