//! The stream-fused classification shard.
//!
//! [`FusedShard`] is a [`SiteSink`]: the crawler pushes every CDP event
//! into it the moment the browser emits it. Structural events flow into an
//! incremental [`TreeBuilder`]; payload-carrying events are intercepted,
//! classified on the spot, and **their bytes are dropped immediately** —
//! HTTP response bodies and WebSocket frames never accumulate anywhere.
//! When a page completes, the (payload-stripped) tree is reduced through
//! the same [`CrawlReduction::observe_tree_with`] decision logic as the
//! batch pipeline, reading the eager classifications back through the
//! [`PayloadSource`] oracle. The result is decision-identical to batch
//! reduction of a materialized [`SiteRecord`](sockscope_crawler::SiteRecord)
//! while bounding per-page memory by the tree's *structure* alone.
//!
//! ## Intern lifetime rules
//!
//! All interned state — the tree builder's URL→host arena and the eager
//! side tables keyed by [`NodeId`] — is scoped to a single page and
//! dropped at `page_end`/`page_abort`. Nothing symbol-valued survives into
//! the [`CrawlReduction`], which stores only resolved strings; this is
//! what lets shards merge across threads without any shared symbol table.

use crate::pii::{PiiLibrary, ReceivedClass};
use crate::reduce::{CrawlReduction, PayloadSource, WsPayloadSummary};
use sockscope_browser::{CdpEvent, VisitSink};
use sockscope_crawler::{SiteFaults, SiteSink};
use sockscope_filterlist::Engine;
use sockscope_inclusion::{Node, NodeId, NodeKind, TreeBuilder};
use sockscope_webmodel::SentItem;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};

/// Eagerly classified WebSocket payload state for one socket node: exactly
/// the facts [`WsPayloadSummary`] reports, accumulated frame by frame as
/// the events arrive instead of from a retained transcript.
#[derive(Debug, Clone, Default)]
struct WsEager {
    sent_items: BTreeSet<SentItem>,
    received_classes: BTreeSet<ReceivedClass>,
    payload_frames: usize,
    received_frames: usize,
}

/// Per-page fused state: the incremental tree plus the eager side tables.
struct PageState {
    builder: TreeBuilder,
    /// `ResponseReceived` classifications for `Image`/`Xhr` nodes (the only
    /// kinds whose body the reducer reads). Overwritten on re-response,
    /// mirroring the batch path's "last body wins".
    recv_class: HashMap<NodeId, Option<ReceivedClass>>,
    /// Per-socket eager payload classifications.
    ws: HashMap<NodeId, WsEager>,
}

/// The fused [`PayloadSource`]: reads the eager side tables instead of
/// retained payloads.
struct EagerPayloads<'p> {
    recv_class: &'p HashMap<NodeId, Option<ReceivedClass>>,
    ws: &'p HashMap<NodeId, WsEager>,
}

impl PayloadSource for EagerPayloads<'_> {
    fn http_recv_class(&self, node: &Node, _lib: &PiiLibrary) -> Option<ReceivedClass> {
        self.recv_class.get(&node.id).copied().flatten()
    }

    fn ws_summary(&self, node: &Node, _lib: &PiiLibrary) -> WsPayloadSummary {
        let eager = self.ws.get(&node.id).cloned().unwrap_or_default();
        WsPayloadSummary {
            sent_items: eager.sent_items,
            received_classes: eager.received_classes,
            payload_frames: eager.payload_frames,
            received_frames: eager.received_frames,
        }
    }
}

/// One worker's sink in the fused pipeline: a [`CrawlReduction`] fed
/// straight off the browser's event stream, with a private classification
/// context per worker (only the filter engine is shared, read-only).
pub struct FusedShard<'e> {
    engine: &'e Engine,
    lib: PiiLibrary,
    reduction: CrawlReduction,
    site_rank: u32,
    site_domain: String,
    site_pages: usize,
    site_sockets: usize,
    page: Option<PageState>,
}

impl<'e> FusedShard<'e> {
    /// Creates a shard reducing into `CrawlReduction::new(label, pre_patch)`
    /// with its own [`PiiLibrary`].
    pub fn new(label: impl Into<String>, pre_patch: bool, engine: &'e Engine) -> FusedShard<'e> {
        FusedShard {
            engine,
            lib: PiiLibrary::new(),
            reduction: CrawlReduction::new(label, pre_patch),
            site_rank: 0,
            site_domain: String::new(),
            site_pages: 0,
            site_sockets: 0,
            page: None,
        }
    }

    /// Takes everything reduced since the last take, leaving the shard
    /// empty (same label/era) and ready for the next site. The
    /// orchestrator calls this after each `site_end`, so a worker-private
    /// `FusedShard` doubles as a per-*site* reducer: the classification
    /// context (engine borrow + PII library) stays warm across sites while
    /// each site's reduction travels to the reduce stage on its own.
    pub fn take_site_reduction(&mut self) -> CrawlReduction {
        debug_assert!(self.page.is_none(), "taken mid-page");
        let fresh = CrawlReduction::new(self.reduction.label.clone(), self.reduction.pre_patch);
        std::mem::replace(&mut self.reduction, fresh)
    }
}

impl VisitSink for FusedShard<'_> {
    fn on_event(&mut self, event: CdpEvent) {
        let page = self
            .page
            .as_mut()
            .expect("events arrive only between page_begin and page_end");
        match event {
            CdpEvent::ResponseReceived {
                request_id,
                url,
                status,
                mime_type,
                body,
                sent_ground_truth,
            } => {
                // Classify the body now, for the node kinds whose body the
                // reducer will read; forward the event with the body
                // stripped so the node keeps its `Some(..)` presence (the
                // "a response arrived" fact) without the bytes.
                if let Some(id) = page.builder.node_for_request(request_id) {
                    if matches!(page.builder.node(id).kind, NodeKind::Image | NodeKind::Xhr) {
                        page.recv_class
                            .insert(id, self.lib.classify_received(&body));
                    }
                }
                page.builder.push(&CdpEvent::ResponseReceived {
                    request_id,
                    url,
                    status,
                    mime_type,
                    body: Cow::Borrowed(&[]),
                    sent_ground_truth,
                });
            }
            CdpEvent::WebSocketWillSendHandshakeRequest {
                request_id,
                request,
            } => {
                // The handshake's only downstream use is sent-item
                // classification; do it now and drop the bytes entirely.
                if let Some(id) = page.builder.node_for_request(request_id) {
                    if page.builder.node(id).ws.is_some() {
                        let text = String::from_utf8_lossy(&request);
                        page.ws
                            .entry(id)
                            .or_default()
                            .sent_items
                            .extend(self.lib.classify_sent_text(&text));
                    }
                }
            }
            CdpEvent::WebSocketHandshakeResponseReceived {
                request_id, status, ..
            } => {
                // Only the status is read downstream; the raw response
                // bytes are dropped here.
                page.builder
                    .push(&CdpEvent::WebSocketHandshakeResponseReceived {
                        request_id,
                        status,
                        response: Cow::Borrowed(&[]),
                    });
            }
            CdpEvent::WebSocketFrameSent {
                request_id,
                payload,
            } => {
                if let Some(id) = page.builder.node_for_request(request_id) {
                    if page.builder.node(id).ws.is_some() {
                        let eager = page.ws.entry(id).or_default();
                        if !payload.to_bytes().is_empty() {
                            eager.payload_frames += 1;
                            match payload.as_text() {
                                Some(t) => eager.sent_items.extend(self.lib.classify_sent_text(t)),
                                None => {
                                    eager.sent_items.insert(SentItem::Binary);
                                }
                            }
                        }
                    }
                }
            }
            CdpEvent::WebSocketFrameReceived {
                request_id,
                payload,
            } => {
                if let Some(id) = page.builder.node_for_request(request_id) {
                    if page.builder.node(id).ws.is_some() {
                        let eager = page.ws.entry(id).or_default();
                        let bytes = payload.to_bytes();
                        if !bytes.is_empty() {
                            eager.received_frames += 1;
                            if let Some(class) = self.lib.classify_received(&bytes) {
                                eager.received_classes.insert(class);
                            }
                        }
                    }
                }
            }
            // Structural events (including WebSocket open/error/close)
            // carry no payload worth stripping; feed them through.
            other => page.builder.push(&other),
        }
    }
}

impl SiteSink for FusedShard<'_> {
    fn site_begin(&mut self, _site_id: usize, domain: &str, rank: u32) {
        self.site_rank = rank;
        self.site_domain.clear();
        self.site_domain.push_str(domain);
        self.site_pages = 0;
        self.site_sockets = 0;
    }

    fn page_begin(&mut self, url: &str) {
        self.page = Some(PageState {
            builder: TreeBuilder::new(url),
            recv_class: HashMap::new(),
            ws: HashMap::new(),
        });
    }

    fn page_end(&mut self) {
        let page = self.page.take().expect("page_end after page_begin");
        let tree = page.builder.finish();
        let payloads = EagerPayloads {
            recv_class: &page.recv_class,
            ws: &page.ws,
        };
        self.site_sockets += self.reduction.observe_tree_with(
            &tree,
            self.site_rank,
            &self.site_domain,
            self.engine,
            &self.lib,
            &payloads,
        );
        self.site_pages += 1;
    }

    fn page_abort(&mut self) {
        self.page = None;
    }

    fn site_end(&mut self, faults: Option<&SiteFaults>) {
        self.reduction
            .observe_site_flags(self.site_rank, self.site_pages, self.site_sockets);
        self.reduction.observe_site_faults(faults);
    }

    fn site_abort(&mut self) {
        // Supervised teardown: drop the open page and everything the
        // current site already reduced. In the orchestrator — the only
        // supervised driver — the shard is drained with
        // `take_site_reduction` after every site, so the accumulated
        // reduction holds exactly the aborted site and nothing else.
        self.page = None;
        self.site_pages = 0;
        self.site_sockets = 0;
        let _ = self.take_site_reduction();
    }

    fn site_quarantined(&mut self, record: &sockscope_crawler::QuarantineRecord) {
        self.reduction.observe_quarantine(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sockscope_browser::{Browser, BrowserConfig, ExtensionHost};
    use sockscope_crawler::{browser_era, crawl, crawl_one_site_sink, CrawlConfig};
    use sockscope_faults::FaultProfile;
    use sockscope_webgen::{SyntheticWeb, WebGenConfig};

    /// The load-bearing differential: a fused crawl's reduction is
    /// byte-identical to batch reduction of the materialized records, with
    /// and without fault injection.
    #[test]
    fn fused_reduction_matches_batch_reduction() {
        let web = SyntheticWeb::new(WebGenConfig {
            n_sites: 40,
            ..WebGenConfig::default()
        });
        let engine = crate::study::Study::engine_for(&web);
        for faults in [None, Some(FaultProfile::heavy())] {
            let config = CrawlConfig {
                faults,
                ..CrawlConfig::default()
            };

            let lib = PiiLibrary::new();
            let mut batch = CrawlReduction::new("era", true);
            for record in crawl(&web, &config).records {
                batch.observe_site(&record, &engine, &lib);
            }
            batch.normalize();

            // The streamed side, site by site as an orchestrator worker
            // and its reduce stage run it.
            let browser = Browser::new(
                &web,
                ExtensionHost::stock(browser_era(&web.config().era)),
                BrowserConfig {
                    seed: config.seed ^ web.config().seed,
                    ..BrowserConfig::default()
                },
            );
            let mut shard = FusedShard::new("era", true, &engine);
            let mut fused = CrawlReduction::new("era", true);
            for i in 0..web.sites().len() {
                crawl_one_site_sink(&web, &config, &browser, i, &mut shard);
                fused.absorb(shard.take_site_reduction());
            }
            fused.normalize();

            assert_eq!(fused, batch);
        }
    }
}
