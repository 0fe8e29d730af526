//! Ordered-claim pipelined crawl orchestrator: the crawler's one
//! parallel driver.
//!
//! Binding whole shards to workers would leave a worker that draws a slow
//! shard finishing long after the others go idle. The orchestrator
//! schedules *per site* instead, while keeping the merged output
//! independent of scheduling:
//!
//! * **visit/classify** — each free worker claims the next site position
//!   from one [`Sequencer`] (ascending, a shared counter) and runs the one
//!   shared per-site driver ([`crawl_one_site_sink`], under
//!   [`supervise_site`] by default) into its private [`SiteSink`] — so
//!   classification happens on the worker, lock-free.
//! * **reduce** — each finished per-site result goes into the
//!   sequencer's slot for its position; a single reducer takes the slots
//!   **in ascending site order** and folds them into per-shard
//!   accumulators.
//! * **in-flight cap** — a position may only start while it is less than
//!   `cap` ahead of the fold point, which bounds the buffered results and
//!   hence peak memory, independent of worker count and site cost.
//!
//! Determinism: per-site output depends only on `(universe, config, site)`
//! — never on which worker crawls it — and the reducer folds sites in
//! ascending order, which the `CrawlReduction` monoid (stable-sort
//! normalized, per-site payloads contiguous) maps to the same bytes at
//! every shard count. Worker count and the in-flight cap can only change
//! *timing*, never the fold sequence. Because claims are ascending, the
//! lowest unfolded site is always held by an admitted worker, so the
//! pipeline is live for any cap with no timer on the crawl path
//! (`DESIGN.md` §10).

use sockscope_browser::{Browser, BrowserConfig, ExtensionHost};
use sockscope_exec::Sequencer;
use sockscope_webgen::SyntheticWeb;

use crate::{crawl_one_site_sink, supervise_site, CrawlConfig, SiteSink};

/// Reorder slack the auto in-flight cap allows beyond one site per worker.
const AUTO_IN_FLIGHT_SLACK: usize = 64;

/// Concurrency surface of the orchestrator, separate from [`CrawlConfig`]
/// because none of these knobs may influence crawl *output* — they are
/// scheduling-only and deliberately excluded from checkpoint fingerprints.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Crawl worker threads (the visit/classify stage). Clamped to ≥ 1.
    pub workers: usize,
    /// Global cap on sites claimed but not yet folded: the bound on
    /// buffered results. `0` means auto: `workers + 64`.
    pub in_flight: usize,
    /// Run every site under the supervisor ([`supervise_site`]): panic
    /// isolation, visit-step deadline, allocation budget, deterministic
    /// quarantine. On by default — a fault-free supervised run is
    /// byte-identical to an unsupervised one, so this only costs a
    /// `catch_unwind` frame per site.
    pub supervised: bool,
}

impl Default for OrchestratorConfig {
    fn default() -> OrchestratorConfig {
        OrchestratorConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            in_flight: 0,
            supervised: true,
        }
    }
}

impl OrchestratorConfig {
    /// The effective in-flight cap: the explicit value (at least 1; a cap
    /// below the worker count idles workers but stays live), or
    /// `workers + 64` when auto.
    pub fn effective_in_flight(&self) -> usize {
        if self.in_flight == 0 {
            self.workers.max(1) + AUTO_IN_FLIGHT_SLACK
        } else {
            self.in_flight.max(1)
        }
    }
}

/// Closes the sequencer if its thread unwinds, so a panicking worker or
/// reducer cannot leave the others waiting on a position nobody will
/// fill; the scope then re-raises the panic on the caller.
struct CloseOnUnwind<'a, R>(&'a Sequencer<R>);

impl<R> Drop for CloseOnUnwind<'_, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

/// Orchestrated crawl producing one merged accumulator: the whole universe
/// folds into a single `make_acc()` in ascending site order. This is the
/// single-shard convenience over [`crawl_orchestrated_resumable`]; see it
/// for the stage/hook contract.
#[allow(clippy::too_many_arguments)]
pub fn crawl_orchestrated<C, R, A>(
    web: &SyntheticWeb,
    config: &CrawlConfig,
    orch: &OrchestratorConfig,
    make_extensions: &(dyn Fn() -> ExtensionHost + Sync),
    make_worker: &(dyn Fn() -> C + Sync),
    take_site: &(dyn Fn(&mut C) -> R + Sync),
    make_acc: &(dyn Fn() -> A + Sync),
    fold: &(dyn Fn(&mut A, R) + Sync),
) -> A
where
    C: SiteSink,
    R: Send,
    A: Send,
{
    crawl_orchestrated_resumable(
        web,
        config,
        orch,
        1,
        make_extensions,
        make_worker,
        take_site,
        &|_shard| make_acc(),
        fold,
        &|_shard| false,
        &|_shard, _acc| {},
        &|| false,
    )
    .pop()
    .flatten()
    .expect("single-shard orchestrated crawl always yields its accumulator")
}

/// Checkpoint-aware orchestrated crawl.
///
/// Shard `s` owns sites `i % shard_count == s`; `skip(s)` elides shards
/// recovered from a journal (their slot returns `None`), and
/// `persist(s, &acc)` fires the moment shard `s`'s last site folds. Sites
/// are crawled by whichever worker claims them next, and `persist` runs
/// on the reducer thread, off the visit hot path.
///
/// Per worker, `make_worker()` builds the stage-private [`SiteSink`]
/// (classification state); after each site, `take_site` extracts that
/// site's finished result `R`, which the reducer folds with `fold` in
/// ascending site order.
///
/// `abort()` is polled by each worker before it claims a site and by the
/// reducer after each fold: once it returns true (e.g. a simulated crash
/// marked the run dead), the sequencer closes, workers stop without
/// crawling further sites and the partially folded accumulators are
/// returned as-is — the checkpoint journal, not the return value, is the
/// source of truth on that path. A panic on any thread closes the
/// sequencer too, and propagates to the caller.
#[allow(clippy::too_many_arguments)]
pub fn crawl_orchestrated_resumable<C, R, A>(
    web: &SyntheticWeb,
    config: &CrawlConfig,
    orch: &OrchestratorConfig,
    shard_count: usize,
    make_extensions: &(dyn Fn() -> ExtensionHost + Sync),
    make_worker: &(dyn Fn() -> C + Sync),
    take_site: &(dyn Fn(&mut C) -> R + Sync),
    make_shard: &(dyn Fn(usize) -> A + Sync),
    fold: &(dyn Fn(&mut A, R) + Sync),
    skip: &(dyn Fn(usize) -> bool + Sync),
    persist: &(dyn Fn(usize, &A) + Sync),
    abort: &(dyn Fn() -> bool + Sync),
) -> Vec<Option<A>>
where
    C: SiteSink,
    R: Send,
    A: Send,
{
    let n = web.sites().len();
    let shard_count = shard_count.max(1);

    // The work list: every site of a shard that was not recovered, in
    // ascending order. Position in this list — not raw site id — is what
    // the sequencer hands out and the reducer folds by.
    let todo: Vec<usize> = (0..n).filter(|i| !skip(i % shard_count)).collect();
    let seq: Sequencer<R> = Sequencer::new(todo.len(), orch.effective_in_flight());

    std::thread::scope(|scope| {
        for _ in 0..orch.workers.max(1) {
            let (todo, seq) = (&todo, &seq);
            scope.spawn(move || {
                let _unwind = CloseOnUnwind(seq);
                let extensions = make_extensions();
                let browser_config = BrowserConfig {
                    seed: config.seed ^ web.config().seed,
                    ..BrowserConfig::default()
                };
                let browser = Browser::new(web, extensions, browser_config);
                let mut sink = make_worker();
                loop {
                    if abort() {
                        seq.close();
                        break;
                    }
                    let Some(pos) = seq.claim() else {
                        break;
                    };
                    if orch.supervised {
                        // A quarantined site leaves nothing in the sink;
                        // the sink's own accounting (site_quarantined)
                        // carries the record and `take_site` still yields
                        // exactly one result per position.
                        if let Some(q) = supervise_site(web, config, &browser, todo[pos], &mut sink)
                        {
                            sink.site_quarantined(&q);
                        }
                    } else {
                        crawl_one_site_sink(web, config, &browser, todo[pos], &mut sink);
                    }
                    seq.put(pos, take_site(&mut sink));
                }
            });
        }

        // Reduce stage, on the calling thread: fold in ascending site
        // order, persist each shard the moment its last site lands. Shard
        // completion order is therefore itself deterministic — a shard
        // finishes when its highest position folds.
        let _unwind = CloseOnUnwind(&seq);
        let mut accs: Vec<Option<A>> = (0..shard_count)
            .map(|s| (!skip(s)).then(|| make_shard(s)))
            .collect();
        let mut remaining = vec![0usize; shard_count];
        for &i in &todo {
            remaining[i % shard_count] += 1;
        }
        // Shards that own no sites (shard_count > n) still persist: a
        // journal must cover every live shard or a resume would re-crawl
        // it.
        for (s, left) in remaining.iter().enumerate() {
            if *left == 0 {
                if let Some(acc) = &accs[s] {
                    persist(s, acc);
                }
            }
        }
        while let Some((pos, site)) = seq.take() {
            let shard = todo[pos] % shard_count;
            let acc = accs[shard].as_mut().expect("unskipped shard has an acc");
            fold(acc, site);
            remaining[shard] -= 1;
            if remaining[shard] == 0 {
                persist(shard, acc);
            }
            if abort() {
                break;
            }
        }
        // Wakes workers still parked on the window if we stopped early.
        seq.close();
        accs
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{browser_era, crawl, RecordSink, SiteRecord};
    use sockscope_faults::FaultProfile;
    use sockscope_webgen::{SyntheticWeb, WebGenConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::Result as ThreadResult;
    use std::time::Duration;

    fn web(n: usize) -> SyntheticWeb {
        SyntheticWeb::new(WebGenConfig {
            n_sites: n,
            ..WebGenConfig::default()
        })
    }

    fn orch(workers: usize, in_flight: usize) -> OrchestratorConfig {
        OrchestratorConfig {
            workers,
            in_flight,
            ..OrchestratorConfig::default()
        }
    }

    fn orchestrate_with(
        web: &SyntheticWeb,
        config: &CrawlConfig,
        orch: &OrchestratorConfig,
        take_site: &(dyn Fn(&mut RecordSink) -> SiteRecord + Sync),
    ) -> Vec<SiteRecord> {
        crawl_orchestrated(
            web,
            config,
            orch,
            &|| ExtensionHost::stock(browser_era(&web.config().era)),
            &RecordSink::default,
            take_site,
            &Vec::new,
            &|acc: &mut Vec<SiteRecord>, record| acc.push(record),
        )
    }

    fn orchestrate(
        web: &SyntheticWeb,
        config: &CrawlConfig,
        orch: &OrchestratorConfig,
    ) -> Vec<SiteRecord> {
        orchestrate_with(web, config, orch, &|sink: &mut RecordSink| {
            sink.take_record().expect("one record per site")
        })
    }

    /// Runs `f` on a helper thread and fails the test if it has not
    /// finished within a minute: a deadlocked crawl fails instead of
    /// hanging the suite.
    fn within_a_minute<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> ThreadResult<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)))
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("orchestrated crawl hung")
    }

    fn assert_matches_reference(records: &[SiteRecord], web: &SyntheticWeb, config: &CrawlConfig) {
        let reference = crawl(web, config);
        assert_eq!(records.len(), reference.records.len());
        for (got, want) in records.iter().zip(&reference.records) {
            assert_eq!(got.site_id, want.site_id, "fold order must be site order");
            assert_eq!(got.domain, want.domain);
            assert_eq!(got.trees, want.trees);
            assert_eq!(got.faults, want.faults);
        }
    }

    #[test]
    fn orchestrated_folds_in_site_order_and_matches_the_reference() {
        let web = web(33);
        for faults in [None, Some(FaultProfile::heavy())] {
            let config = CrawlConfig {
                faults,
                ..CrawlConfig::default()
            };
            for (workers, in_flight) in [(1, 1), (3, 2), (8, 0)] {
                let records = orchestrate(&web, &config, &orch(workers, in_flight));
                assert_matches_reference(&records, &web, &config);
            }
        }
    }

    #[test]
    fn tight_windows_cannot_change_the_fold_sequence() {
        // Heavy faults make per-site cost wildly uneven, and a window no
        // wider than two sites keeps most workers parked on it: the
        // schedules where a reorder bug would surface.
        let web = web(24);
        let config = CrawlConfig {
            faults: Some(FaultProfile::heavy()),
            ..CrawlConfig::default()
        };
        let calm = orchestrate(&web, &config, &OrchestratorConfig::default());
        for in_flight in [1, 2] {
            for workers in [4, 8] {
                let tight = orchestrate(&web, &config, &orch(workers, in_flight));
                assert_eq!(calm.len(), tight.len());
                for (a, b) in calm.iter().zip(&tight) {
                    assert_eq!(a.site_id, b.site_id);
                    assert_eq!(a.trees, b.trees);
                    assert_eq!(a.faults, b.faults);
                }
            }
        }
    }

    #[test]
    fn supervision_is_identity_on_a_clean_run() {
        let web = web(20);
        let config = CrawlConfig::default();
        let supervised = orchestrate(&web, &config, &OrchestratorConfig::default());
        let bare = orchestrate(
            &web,
            &config,
            &OrchestratorConfig {
                supervised: false,
                ..OrchestratorConfig::default()
            },
        );
        assert_eq!(supervised.len(), bare.len());
        for (a, b) in supervised.iter().zip(&bare) {
            assert_eq!(a.site_id, b.site_id);
            assert_eq!(a.trees, b.trees);
            assert_eq!(a.faults, b.faults);
        }
    }

    #[test]
    fn all_workers_stalling_on_a_tight_window_stays_live() {
        // Eight workers on an in-flight cap of 1: seven are parked on the
        // window at every instant, and only ascending claims guarantee
        // the one holding the fold point is never among them.
        let records = within_a_minute(|| {
            let web = web(18);
            let records = orchestrate(&web, &CrawlConfig::default(), &orch(8, 1));
            (web, records)
        });
        let (web, records) = records.expect("crawl completed");
        assert_matches_reference(&records, &web, &CrawlConfig::default());
    }

    #[test]
    fn a_worker_panic_propagates_instead_of_hanging() {
        // A panic outside the supervisor (here in `take_site`, on its 4th
        // call) must close the sequencer, so the reducer and the other
        // worker stop and the scope re-raises the panic on the caller.
        let outcome = within_a_minute(|| {
            let web = web(40);
            let calls = AtomicUsize::new(0);
            orchestrate_with(
                &web,
                &CrawlConfig::default(),
                &orch(2, 0),
                &|sink: &mut RecordSink| {
                    if calls.fetch_add(1, Ordering::Relaxed) == 3 {
                        panic!("take_site failed");
                    }
                    sink.take_record().expect("one record per site")
                },
            )
            .len()
        });
        assert!(outcome.is_err(), "the worker panic must reach the caller");
    }

    #[test]
    fn resumable_skips_recovered_shards_and_persists_complete_ones() {
        let web = web(22);
        let config = CrawlConfig::default();
        let persisted = std::sync::Mutex::new(Vec::new());
        let shard_count = 5usize;
        let out = crawl_orchestrated_resumable(
            &web,
            &config,
            &orch(3, 4),
            shard_count,
            &|| ExtensionHost::stock(browser_era(&web.config().era)),
            &RecordSink::default,
            &|sink: &mut RecordSink| sink.take_record().expect("one record per site"),
            &|_s| Vec::new(),
            &|acc: &mut Vec<SiteRecord>, record| acc.push(record),
            &|s| s == 2, // pretend shard 2 was recovered from a journal
            &|s, acc: &Vec<SiteRecord>| persisted.lock().unwrap().push((s, acc.len())),
            &|| false,
        );
        assert_eq!(out.len(), shard_count);
        assert!(out[2].is_none(), "skipped shard must come back empty");
        for (s, slot) in out.iter().enumerate() {
            if s == 2 {
                continue;
            }
            let records = slot.as_ref().expect("crawled shard present");
            for record in records {
                assert_eq!(record.site_id % shard_count, s);
            }
            // Within a shard the fold preserved ascending site order.
            assert!(records.windows(2).all(|w| w[0].site_id < w[1].site_id));
        }
        let mut persisted = persisted.into_inner().unwrap();
        persisted.sort_unstable();
        assert_eq!(
            persisted,
            vec![(0, 5), (1, 5), (3, 4), (4, 4)],
            "every unskipped shard persists exactly once, with its full site count"
        );
    }

    #[test]
    fn abort_stops_the_crawl_without_hanging() {
        let web = web(40);
        let config = CrawlConfig::default();
        let folded = AtomicUsize::new(0);
        let out = crawl_orchestrated_resumable(
            &web,
            &config,
            &orch(3, 2),
            2,
            &|| ExtensionHost::stock(browser_era(&web.config().era)),
            &RecordSink::default,
            &|sink: &mut RecordSink| sink.take_record().expect("one record per site"),
            &|_s| Vec::new(),
            &|acc: &mut Vec<SiteRecord>, record| {
                folded.fetch_add(1, Ordering::Relaxed);
                acc.push(record)
            },
            &|_s| false,
            &|_s, _acc: &Vec<SiteRecord>| {},
            // Abort once a handful of sites have folded; every worker and
            // the reducer must still wind down cleanly.
            &|| folded.load(Ordering::Relaxed) >= 5,
        );
        let total: usize = out.iter().flatten().map(Vec::len).sum();
        assert!(total >= 5, "some sites folded before the abort: {total}");
        assert!(total < 40, "abort must cut the crawl short: {total}");
    }
}
