//! Timing shims the traced run puts around the public seams between the
//! pipeline's layers. Each wraps one real component and forwards every
//! call unchanged, so a traced crawl produces the same bytes as an
//! untraced one; the shims only add clock reads at the boundaries.
//!
//! * [`TimedHost`] — a [`WebHost`] around `SyntheticWeb`: page, script
//!   and WebSocket-endpoint synthesis (the `webgen` layer).
//! * [`TimedSink`] — a [`SiteSink`] around the stream-fused
//!   classification shard: per-event `TreeBuilder` push plus eager
//!   classification, and per-page tree finish plus filter decisions plus
//!   reduction. It also tracks per-site spans and the idle gaps between
//!   them, which is the worker's scheduler wait.
//! * [`Replay`] — re-issues the classifier and filter-engine calls the
//!   shard makes, on the same payloads and requests, against its own
//!   `PiiLibrary` and the era's `Engine`, so those layers get their own
//!   time and counts. Replay time is kept apart so it can be subtracted
//!   from the spans it happens inside.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use sockscope::analysis::PiiLibrary;
use sockscope::browser::{CdpEvent, RequestId, ResourceKind, VisitSink};
use sockscope::crawler::{QuarantineRecord, SiteFaults, SiteSink};
use sockscope::filterlist::{Engine, RequestContext, ResourceType};
use sockscope::urlkit::Url;
use sockscope::webgen::SyntheticWeb;
use sockscope::webmodel::{Page, ScriptBehavior, WebHost, WsServerProfile};

use crate::allocs::thread_allocs;
use crate::secs;

/// A [`WebHost`] that times every synthesis call it forwards.
pub struct TimedHost<'w> {
    web: &'w SyntheticWeb,
    busy_s: Cell<f64>,
    calls: Cell<u64>,
}

impl<'w> TimedHost<'w> {
    /// Wraps a synthetic web.
    pub fn new(web: &'w SyntheticWeb) -> TimedHost<'w> {
        TimedHost {
            web,
            busy_s: Cell::new(0.0),
            calls: Cell::new(0),
        }
    }

    /// Seconds spent inside the wrapped host.
    pub fn busy_s(&self) -> f64 {
        self.busy_s.get()
    }

    /// Calls forwarded.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.busy_s.set(self.busy_s.get() + secs(t));
        self.calls.set(self.calls.get() + 1);
        out
    }
}

impl WebHost for TimedHost<'_> {
    fn get_page(&self, url: &str) -> Option<Page> {
        self.time(|| self.web.get_page(url))
    }

    fn get_script(&self, url: &str) -> Option<ScriptBehavior> {
        self.time(|| self.web.get_script(url))
    }

    fn get_ws_server(&self, url: &str) -> Option<WsServerProfile> {
        self.time(|| self.web.get_ws_server(url))
    }
}

/// Classifier and filter-engine calls re-issued on one worker's traffic.
pub struct Replay<'e> {
    engine: &'e Engine,
    lib: PiiLibrary,
    kinds: HashMap<RequestId, ResourceKind>,
    page_url: String,
    requests: Vec<(String, ResourceType)>,
    /// Seconds inside `PiiLibrary` calls.
    pub classify_s: f64,
    /// `PiiLibrary` calls made.
    pub classify_calls: u64,
    /// Seconds inside `Engine::blocks`.
    pub decide_s: f64,
    /// `Engine::blocks` calls made.
    pub decisions: u64,
    /// Every second the replay took, bookkeeping included.
    pub total_s: f64,
}

impl<'e> Replay<'e> {
    /// A replay against `engine` with a fresh classifier.
    pub fn new(engine: &'e Engine) -> Replay<'e> {
        Replay {
            engine,
            lib: PiiLibrary::new(),
            kinds: HashMap::new(),
            page_url: String::new(),
            requests: Vec::new(),
            classify_s: 0.0,
            classify_calls: 0,
            decide_s: 0.0,
            decisions: 0,
            total_s: 0.0,
        }
    }

    /// Lazy-DFA scans the replay classifier answered with the Pike VM.
    pub fn dfa_fallbacks(&self) -> u64 {
        self.lib.cache_stats().fallbacks
    }

    fn classify<T>(&mut self, f: impl FnOnce(&PiiLibrary) -> T) {
        let t = Instant::now();
        std::hint::black_box(f(&self.lib));
        self.classify_s += secs(t);
        self.classify_calls += 1;
    }

    /// The classifier calls `FusedShard::on_event` makes for this event.
    fn on_event(&mut self, event: &CdpEvent<'_>) {
        let t = Instant::now();
        match event {
            CdpEvent::RequestWillBeSent {
                request_id,
                url,
                resource_type,
                ..
            } => {
                self.kinds.insert(*request_id, *resource_type);
                let rtype = match resource_type {
                    ResourceKind::Script => Some(ResourceType::Script),
                    ResourceKind::Image => Some(ResourceType::Image),
                    ResourceKind::Xhr => Some(ResourceType::Xhr),
                    _ => None,
                };
                if let Some(rtype) = rtype {
                    self.requests.push((url.to_string(), rtype));
                }
            }
            CdpEvent::ResponseReceived {
                request_id, body, ..
            } => {
                if matches!(
                    self.kinds.get(request_id),
                    Some(ResourceKind::Image | ResourceKind::Xhr)
                ) {
                    self.classify(|lib| lib.classify_received(body));
                }
            }
            CdpEvent::WebSocketWillSendHandshakeRequest { request, .. } => {
                let text = String::from_utf8_lossy(request);
                self.classify(|lib| lib.classify_sent_text(&text));
            }
            CdpEvent::WebSocketFrameSent { payload, .. } => {
                if let Some(text) = payload.as_text().filter(|t| !t.is_empty()) {
                    self.classify(|lib| lib.classify_sent_text(text));
                }
            }
            CdpEvent::WebSocketFrameReceived { payload, .. } => {
                let bytes = payload.to_bytes();
                if !bytes.is_empty() {
                    self.classify(|lib| lib.classify_received(&bytes));
                }
            }
            _ => {}
        }
        self.total_s += secs(t);
    }

    fn page_begin(&mut self, url: &str) {
        self.page_url.clear();
        self.page_url.push_str(url);
        self.requests.clear();
        self.kinds.clear();
    }

    /// The filter decisions the reducer makes for the page just finished:
    /// one `Engine::blocks` per script, image and XHR request.
    fn page_end(&mut self) {
        let t = Instant::now();
        if let Ok(page) = Url::parse(&self.page_url) {
            for (url, rtype) in &self.requests {
                let Ok(url) = Url::parse(url) else { continue };
                let ctx = RequestContext {
                    url: &url,
                    page: &page,
                    resource_type: *rtype,
                };
                let d = Instant::now();
                std::hint::black_box(self.engine.blocks(&ctx));
                self.decide_s += secs(d);
                self.decisions += 1;
            }
        }
        self.total_s += secs(t);
    }
}

/// What one [`TimedSink`] measured.
#[derive(Debug, Clone, Default)]
pub struct SinkTimes {
    /// Seconds in the inner sink's `on_event`.
    pub event_s: f64,
    /// Seconds in the inner sink's `page_end`.
    pub page_end_s: f64,
    /// Seconds in every other inner-sink callback.
    pub other_s: f64,
    /// Events forwarded.
    pub events: u64,
    /// Pages completed.
    pub pages: u64,
    /// Pages aborted (a failed visit attempt).
    pub page_aborts: u64,
    /// Sites torn down by the supervisor (one per breached attempt).
    pub site_aborts: u64,
    /// Sites quarantined after exhausting their retries.
    pub quarantined: u64,
    /// Per-site busy spans (first `site_begin` to [`TimedSink::site_done`]),
    /// in seconds, with replay time removed.
    pub site_spans: Vec<f64>,
    /// Seconds between one site's end and the next site's start.
    pub wait_s: f64,
    /// Allocation calls the sink's thread made while the sink lived.
    pub allocs: u64,
}

impl SinkTimes {
    /// Seconds inside the inner sink, over all callbacks.
    pub fn sink_s(&self) -> f64 {
        self.event_s + self.page_end_s + self.other_s
    }

    /// Accumulates another worker's measurements.
    pub fn absorb(&mut self, other: &SinkTimes) {
        self.event_s += other.event_s;
        self.page_end_s += other.page_end_s;
        self.other_s += other.other_s;
        self.events += other.events;
        self.pages += other.pages;
        self.page_aborts += other.page_aborts;
        self.site_aborts += other.site_aborts;
        self.quarantined += other.quarantined;
        self.site_spans.extend_from_slice(&other.site_spans);
        self.wait_s += other.wait_s;
        self.allocs += other.allocs;
    }
}

/// A [`SiteSink`] that times every callback it forwards to `inner`.
pub struct TimedSink<'c, 'e, S: SiteSink> {
    /// The wrapped sink.
    pub inner: S,
    /// Measurements so far.
    pub times: SinkTimes,
    /// Classifier/filter replay, when this worker runs one.
    pub replay: Option<Replay<'e>>,
    site_start: Option<Instant>,
    replay_at_start: f64,
    idle_since: Option<Instant>,
    allocs_at_start: u64,
    collect: Option<&'c Mutex<Vec<SinkTimes>>>,
}

impl<'c, 'e, S: SiteSink> TimedSink<'c, 'e, S> {
    /// Wraps `inner`. With `collect`, the measurements are pushed there
    /// when the sink drops — how an orchestrator worker's sink, which the
    /// orchestrator owns, reports back. Create the sink on the thread that
    /// drives it: its allocation count is that thread's.
    pub fn new(
        inner: S,
        replay: Option<Replay<'e>>,
        collect: Option<&'c Mutex<Vec<SinkTimes>>>,
    ) -> Self {
        TimedSink {
            inner,
            times: SinkTimes::default(),
            replay,
            site_start: None,
            replay_at_start: 0.0,
            idle_since: Some(Instant::now()),
            allocs_at_start: thread_allocs(),
            collect,
        }
    }

    fn replay_s(&self) -> f64 {
        self.replay.as_ref().map_or(0.0, |r| r.total_s)
    }

    /// Closes the current site's span; the worker is idle from here until
    /// the next `site_begin`. Returns the closing instant.
    pub fn site_done(&mut self) -> Instant {
        let now = Instant::now();
        if let Some(start) = self.site_start.take() {
            let span = (now - start).as_secs_f64() - (self.replay_s() - self.replay_at_start);
            self.times.site_spans.push(span);
        }
        self.idle_since = Some(now);
        now
    }

    fn other<T>(&mut self, f: impl FnOnce(&mut S) -> T) -> T {
        let t = Instant::now();
        let out = f(&mut self.inner);
        self.times.other_s += secs(t);
        out
    }
}

impl<S: SiteSink> Drop for TimedSink<'_, '_, S> {
    fn drop(&mut self) {
        if let Some(out) = self.collect {
            self.times.allocs = thread_allocs() - self.allocs_at_start;
            if let Ok(mut all) = out.lock() {
                all.push(std::mem::take(&mut self.times));
            }
        }
    }
}

impl<S: SiteSink> VisitSink for TimedSink<'_, '_, S> {
    fn on_event(&mut self, event: CdpEvent<'_>) {
        if let Some(replay) = &mut self.replay {
            replay.on_event(&event);
        }
        let t = Instant::now();
        self.inner.on_event(event);
        self.times.event_s += secs(t);
        self.times.events += 1;
    }
}

impl<S: SiteSink> SiteSink for TimedSink<'_, '_, S> {
    fn site_begin(&mut self, site_id: usize, domain: &str, rank: u32) {
        // A supervised retry begins the same site again: only the first
        // attempt opens the span.
        if self.site_start.is_none() {
            let now = Instant::now();
            if let Some(idle) = self.idle_since.take() {
                self.times.wait_s += (now - idle).as_secs_f64();
            }
            self.site_start = Some(now);
            self.replay_at_start = self.replay_s();
        }
        self.other(|s| s.site_begin(site_id, domain, rank));
    }

    fn page_begin(&mut self, url: &str) {
        if let Some(replay) = &mut self.replay {
            replay.page_begin(url);
        }
        self.other(|s| s.page_begin(url));
    }

    fn page_end(&mut self) {
        let t = Instant::now();
        self.inner.page_end();
        self.times.page_end_s += secs(t);
        self.times.pages += 1;
        if let Some(replay) = &mut self.replay {
            replay.page_end();
        }
    }

    fn page_abort(&mut self) {
        self.times.page_aborts += 1;
        self.other(|s| s.page_abort());
    }

    fn site_end(&mut self, faults: Option<&SiteFaults>) {
        self.other(|s| s.site_end(faults));
    }

    fn site_abort(&mut self) {
        self.times.site_aborts += 1;
        self.other(|s| s.site_abort());
    }

    fn site_quarantined(&mut self, record: &QuarantineRecord) {
        self.times.quarantined += 1;
        self.other(|s| s.site_quarantined(record));
    }
}
