//! Property-based tests over the substrate crates: protocol roundtrips
//! under arbitrary payloads and packetization, parser totality, labeling
//! monotonicity, and inclusion-tree invariants under random event streams.

use proptest::prelude::*;
use sockscope::browser::{
    CdpEvent, FrameId, FramePayload, Initiator, RequestId, ResourceKind, ScriptId,
};
use sockscope::inclusion::InclusionTree;
use sockscope::wsproto::codec::{FrameDecoder, FrameEncoder, MaskingRole};
use sockscope::wsproto::{base64, sha1, Frame};

// ---------------------------------------------------------------------------
// wsproto
// ---------------------------------------------------------------------------

proptest! {
    /// Any payload, encoded by either role, decodes identically no matter
    /// how the byte stream is chopped up.
    #[test]
    fn frame_roundtrip_survives_any_packetization(
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
        client_side in any::<bool>(),
        cut in any::<prop::sample::Index>(),
    ) {
        let (enc_role, dec_role) = if client_side {
            (MaskingRole::Client, MaskingRole::Server)
        } else {
            (MaskingRole::Server, MaskingRole::Client)
        };
        let mut enc = FrameEncoder::new(enc_role, 99);
        let bytes = enc.encode(&Frame::binary(payload.clone()));
        let mut dec = FrameDecoder::new(dec_role);
        let split = cut.index(bytes.len() + 1);
        dec.feed(&bytes[..split]);
        let early = dec.next_frame().unwrap();
        if split < bytes.len() {
            prop_assert!(early.is_none() || early.as_ref().unwrap().payload == payload);
        }
        dec.feed(&bytes[split..]);
        if early.is_none() {
            let frame = dec.next_frame().unwrap().expect("complete frame");
            prop_assert_eq!(frame.payload, payload);
        }
    }

    /// Multiple frames coalesced into one buffer come out in order.
    #[test]
    fn coalesced_frames_decode_in_order(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 1..8),
    ) {
        let mut enc = FrameEncoder::new(MaskingRole::Client, 3);
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend(enc.encode(&Frame::binary(p.clone())));
        }
        let mut dec = FrameDecoder::new(MaskingRole::Server);
        dec.feed(&stream);
        for p in &payloads {
            let f = dec.next_frame().unwrap().expect("frame available");
            prop_assert_eq!(&f.payload, p);
        }
        prop_assert!(dec.next_frame().unwrap().is_none());
    }

    /// Fragmented text messages reassemble to the original string for any
    /// fragment size.
    #[test]
    fn fragmentation_reassembles(text in ".{0,500}", frag in 1usize..64) {
        use sockscope::wsproto::{connection::pump, Connection, Event, Message, Role};
        let mut c = Connection::new(Role::Client, 1);
        let mut s = Connection::new(Role::Server, 2);
        c.send_text_fragmented(&text, frag).unwrap();
        let (_, events) = pump(&mut c, &mut s).unwrap();
        if text.is_empty() {
            // Empty text may arrive as one empty message.
            prop_assert!(events.len() <= 1);
        } else {
            prop_assert_eq!(events.len(), 1);
            match &events[0] {
                Event::Message(Message::Text(t)) => prop_assert_eq!(t, &text),
                other => prop_assert!(false, "unexpected event {:?}", other),
            }
        }
    }

    /// Base64 roundtrips arbitrary bytes.
    #[test]
    fn base64_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let encoded = base64::encode(&data);
        prop_assert_eq!(base64::decode(&encoded).unwrap(), data);
    }

    /// The decoder never panics on garbage input.
    #[test]
    fn decoder_is_total(garbage in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut dec = FrameDecoder::new(MaskingRole::Server);
        dec.feed(&garbage);
        // Drain until error or exhaustion — must not panic or loop.
        for _ in 0..600 {
            match dec.next_frame() {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// SHA-1 streaming equals one-shot for any split.
    #[test]
    fn sha1_incremental(data in proptest::collection::vec(any::<u8>(), 0..300),
                        cut in any::<prop::sample::Index>()) {
        let split = cut.index(data.len() + 1);
        let mut h = sha1::Sha1::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha1::sha1(&data));
    }
}

// ---------------------------------------------------------------------------
// urlkit
// ---------------------------------------------------------------------------

fn url_strategy() -> impl Strategy<Value = String> {
    (
        prop::sample::select(vec!["http", "https", "ws", "wss"]),
        "[a-z]{1,8}",
        prop::sample::select(vec!["com", "net", "io", "co.uk", "example"]),
        prop::option::of(1024u16..60000),
        "[a-z0-9/_.-]{0,20}",
        prop::option::of("[a-z0-9=&]{1,20}"),
    )
        .prop_map(|(scheme, host, tld, port, path, query)| {
            let mut u = format!("{scheme}://{host}.{tld}");
            if let Some(p) = port {
                u.push_str(&format!(":{p}"));
            }
            u.push('/');
            u.push_str(path.trim_start_matches('/'));
            if let Some(q) = query {
                u.push('?');
                u.push_str(&q);
            }
            u
        })
}

proptest! {
    /// Display → parse is a fixed point.
    #[test]
    fn url_display_roundtrip(u in url_strategy()) {
        if let Ok(parsed) = sockscope::urlkit::Url::parse(&u) {
            let text = parsed.to_string();
            let reparsed = sockscope::urlkit::Url::parse(&text).unwrap();
            prop_assert_eq!(parsed, reparsed);
        }
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn url_parser_is_total(s in ".{0,80}") {
        let _ = sockscope::urlkit::Url::parse(&s);
    }

    /// second_level_domain is idempotent and a suffix of its input.
    #[test]
    fn sld_idempotent(host in "[a-z]{1,6}(\\.[a-z]{1,6}){0,4}") {
        let sld = sockscope::urlkit::second_level_domain(&host);
        prop_assert!(host.ends_with(sld));
        prop_assert_eq!(sockscope::urlkit::second_level_domain(sld), sld);
    }
}

// ---------------------------------------------------------------------------
// filterlist
// ---------------------------------------------------------------------------

proptest! {
    /// The rule parser never panics, whatever the line.
    #[test]
    fn rule_parser_is_total(line in ".{0,100}") {
        let _ = sockscope::filterlist::rule::parse_line(&line);
    }

    /// A domain-anchored rule blocks every subdomain and never blocks
    /// unrelated registrable domains.
    #[test]
    fn domain_anchor_semantics(sub in "[a-z]{1,8}", other in "[a-z]{1,8}") {
        use sockscope::filterlist::{Engine, RequestContext, ResourceType};
        let (engine, errs) = Engine::parse("||blocked.example^");
        prop_assert!(errs.is_empty());
        let page = sockscope::urlkit::Url::parse("http://pub.example/").unwrap();
        let hit = sockscope::urlkit::Url::parse(
            &format!("http://{sub}.blocked.example/x")).unwrap();
        let hit_blocked = engine.blocks(&RequestContext {
            url: &hit,
            page: &page,
            resource_type: ResourceType::Script,
        });
        prop_assert!(hit_blocked);
        prop_assume!(other != "blocked");
        let miss = sockscope::urlkit::Url::parse(
            &format!("http://{other}.example/x")).unwrap();
        let miss_blocked = engine.blocks(&RequestContext {
            url: &miss,
            page: &page,
            resource_type: ResourceType::Script,
        });
        prop_assert!(!miss_blocked);
    }

    /// Labeling threshold is monotone: adding A&A observations never
    /// removes a domain from D'.
    #[test]
    fn labeler_monotone(aa in 0u32..50, non_aa in 0u32..50, extra in 1u32..20) {
        use sockscope::filterlist::Labeler;
        let mut small = Labeler::new();
        let mut big = Labeler::new();
        for _ in 0..aa {
            small.observe("d.example", true);
            big.observe("d.example", true);
        }
        for _ in 0..non_aa {
            small.observe("d.example", false);
            big.observe("d.example", false);
        }
        for _ in 0..extra {
            big.observe("d.example", true);
        }
        let in_small = small.finalize_paper().contains("d.example");
        let in_big = big.finalize_paper().contains("d.example");
        prop_assert!(!in_small || in_big);
    }
}

// ---------------------------------------------------------------------------
// redlite
// ---------------------------------------------------------------------------

proptest! {
    /// Literal patterns agree with `str::contains`.
    #[test]
    fn regex_literal_matches_contains(needle in "[a-z]{1,6}", hay in "[a-z ]{0,40}") {
        let re = sockscope::redlite::Regex::new(&needle).unwrap();
        prop_assert_eq!(re.is_match(&hay), hay.contains(&needle));
    }

    /// find() returns offsets of an actual occurrence.
    #[test]
    fn regex_find_offsets_are_real(needle in "[a-z]{1,4}", hay in "[a-z]{0,40}") {
        let re = sockscope::redlite::Regex::new(&needle).unwrap();
        if let Some(m) = re.find(&hay) {
            prop_assert_eq!(&hay[m.start..m.end], needle.as_str());
        }
    }

    /// The compiler rejects or accepts but never panics.
    #[test]
    fn regex_compiler_is_total(pattern in ".{0,30}") {
        let _ = sockscope::redlite::Regex::new(&pattern);
    }
}

// ---------------------------------------------------------------------------
// inclusion trees from random event streams
// ---------------------------------------------------------------------------

fn random_events() -> impl Strategy<Value = Vec<CdpEvent<'static>>> {
    let event = (0u8..6, 0u64..12, 0u64..12).prop_map(|(kind, a, b)| match kind {
        0 => CdpEvent::ScriptParsed {
            script_id: ScriptId(a),
            url: format!("http://s{a}.example/x.js").into(),
            frame_id: FrameId(0),
            initiator: if b % 2 == 0 {
                Initiator::Parser(FrameId(b % 3))
            } else {
                Initiator::Script(ScriptId(b))
            },
        },
        1 => CdpEvent::RequestWillBeSent {
            request_id: RequestId(a),
            url: format!("http://r{a}.example/p.gif").into(),
            resource_type: ResourceKind::Image,
            initiator: Initiator::Script(ScriptId(b)),
            frame_id: FrameId(0),
        },
        2 => CdpEvent::WebSocketCreated {
            request_id: RequestId(100 + a),
            url: format!("wss://w{a}.example/ws").into(),
            initiator: Initiator::Script(ScriptId(b)),
            frame_id: FrameId(0),
        },
        3 => CdpEvent::WebSocketFrameSent {
            request_id: RequestId(100 + a),
            payload: FramePayload::Text(format!("m{b}").into()),
        },
        4 => CdpEvent::FrameNavigated {
            frame_id: FrameId(1 + a % 3),
            parent_frame_id: Some(FrameId(b % 2)),
            url: format!("http://f{a}.example/").into(),
        },
        _ => CdpEvent::WebSocketClosed {
            request_id: RequestId(100 + a),
        },
    });
    proptest::collection::vec(event, 0..60)
}

proptest! {
    /// Whatever the event stream — including dangling references and
    /// orphaned frames — the tree builder upholds its invariants.
    #[test]
    fn tree_invariants_hold_for_any_stream(events in random_events()) {
        let tree = InclusionTree::build("http://page.example/", &events);
        prop_assert!(tree.check_invariants().is_ok());
        // Chains terminate at the root.
        for node in tree.nodes() {
            let chain = tree.chain(node.id);
            prop_assert_eq!(chain[0].id, tree.root().id);
            prop_assert_eq!(chain[chain.len() - 1].id, node.id);
        }
    }

    /// The fused pipeline's incremental builder — fed one event at a time,
    /// as a [`VisitSink`] — produces exactly the tree the batch constructor
    /// builds from the buffered stream, for any event ordering (including
    /// dangling references and orphaned frames).
    #[test]
    fn incremental_tree_equals_batch_tree(events in random_events()) {
        use sockscope::browser::VisitSink;
        use sockscope::inclusion::TreeBuilder;

        let batch = InclusionTree::build("http://page.example/", &events);
        let mut builder = TreeBuilder::new("http://page.example/");
        for event in &events {
            builder.on_event(event.clone());
        }
        prop_assert_eq!(builder.finish(), batch);
    }
}

// ---------------------------------------------------------------------------
// payload classification: rendered items are always recovered
// ---------------------------------------------------------------------------

proptest! {
    /// Whatever subset of (non-DOM, non-binary) items a tracker sends, the
    /// regex library recovers exactly a superset containing them.
    #[test]
    fn classifier_recovers_any_item_subset(mask in 0u16..(1 << 13), seed in any::<u64>()) {
        use sockscope::webmodel::{SentItem, ValueContext};
        let all = [
            SentItem::UserAgent, SentItem::Cookie, SentItem::Ip, SentItem::UserId,
            SentItem::Device, SentItem::Screen, SentItem::Browser, SentItem::Viewport,
            SentItem::ScrollPosition, SentItem::Orientation, SentItem::FirstSeen,
            SentItem::Resolution, SentItem::Language,
        ];
        let items: Vec<SentItem> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &item)| item)
            .collect();
        let ctx = ValueContext::deterministic(seed);
        let payload = ctx.render_sent(&items);
        let lib = sockscope::analysis::PiiLibrary::new();
        let got = lib.classify_sent(payload.as_bytes());
        for item in &items {
            prop_assert!(got.contains(item), "{:?} lost in roundtrip", item);
        }
    }
}

// ---------------------------------------------------------------------------
// sharded reduction: merge is a faithful monoid over site partitions
// ---------------------------------------------------------------------------

/// Shared crawl fixture for the merge properties: records are expensive to
/// produce and the properties only ever *reduce* them.
mod shard_fixture {
    use sockscope::crawler::{crawl, CrawlConfig, SiteRecord};
    use sockscope::filterlist::Engine;
    use sockscope::webgen::{SyntheticWeb, WebGenConfig};
    use std::sync::OnceLock;

    pub const N_SITES: usize = 40;

    pub struct Fixture {
        pub records: Vec<SiteRecord>,
        pub engine: Engine,
        pub label: String,
        pub pre_patch: bool,
    }

    pub fn get() -> &'static Fixture {
        static FIX: OnceLock<Fixture> = OnceLock::new();
        FIX.get_or_init(|| {
            let web = SyntheticWeb::new(WebGenConfig {
                n_sites: N_SITES,
                ..WebGenConfig::default()
            });
            let (engine, errs) = Engine::parse_many(&[&web.easylist(), &web.easyprivacy()]);
            assert!(errs.is_empty(), "generated lists must parse");
            let dataset = crawl(&web, &CrawlConfig::default());
            Fixture {
                label: dataset.label.clone(),
                pre_patch: dataset.era.pre_patch(),
                records: dataset.records,
                engine,
            }
        })
    }
}

proptest! {
    /// ANY assignment of sites to shards, reduced shard-locally and folded
    /// with `merge`, equals the sequential single-reduction baseline on
    /// every table-feeding field.
    #[test]
    fn any_shard_partition_merges_to_the_sequential_reduction(
        assignment in proptest::collection::vec(0usize..5, shard_fixture::N_SITES..shard_fixture::N_SITES + 1),
    ) {
        use sockscope::analysis::reduce::CrawlReduction;
        use sockscope::analysis::PiiLibrary;
        let fix = shard_fixture::get();
        let lib = PiiLibrary::new();

        let mut sequential = CrawlReduction::new(fix.label.as_str(), fix.pre_patch);
        for record in &fix.records {
            sequential.observe_site(record, &fix.engine, &lib);
        }
        sequential.normalize();

        let mut shards: Vec<CrawlReduction> = (0..5)
            .map(|_| CrawlReduction::new(fix.label.as_str(), fix.pre_patch))
            .collect();
        for (record, &shard) in fix.records.iter().zip(&assignment) {
            shards[shard].observe_site(record, &fix.engine, &lib);
        }
        let mut merged = shards.into_iter().fold(
            CrawlReduction::new(fix.label.as_str(), fix.pre_patch),
            CrawlReduction::merge,
        );
        merged.normalize();

        // Field by field first, so a regression names the table it breaks.
        prop_assert_eq!(&merged.label_counts, &sequential.label_counts); // D' labeling
        prop_assert_eq!(&merged.http, &sequential.http);                 // Table 5 HTTP/S
        prop_assert_eq!(&merged.sockets, &sequential.sockets);           // Tables 2-5
        prop_assert_eq!(&merged.sites, &sequential.sites);               // Table 1 / Figure 3
        prop_assert_eq!(merged, sequential);
    }

    /// merge is associative: (a ⋅ b) ⋅ c == a ⋅ (b ⋅ c) for any 3-way split.
    #[test]
    fn merge_is_associative(
        assignment in proptest::collection::vec(0usize..3, shard_fixture::N_SITES..shard_fixture::N_SITES + 1),
    ) {
        use sockscope::analysis::reduce::CrawlReduction;
        use sockscope::analysis::PiiLibrary;
        let fix = shard_fixture::get();
        let lib = PiiLibrary::new();

        let mut parts: Vec<CrawlReduction> = (0..3)
            .map(|_| CrawlReduction::new(fix.label.as_str(), fix.pre_patch))
            .collect();
        for (record, &shard) in fix.records.iter().zip(&assignment) {
            parts[shard].observe_site(record, &fix.engine, &lib);
        }
        let [a, b, c]: [CrawlReduction; 3] = parts.try_into().expect("three parts");

        let left = a.clone().merge(b.clone()).merge(c.clone());
        let right = a.merge(b.merge(c));
        prop_assert_eq!(left, right);
    }

    /// merge is commutative up to normalize (shard order must not matter
    /// beyond the canonical sort).
    #[test]
    fn merge_is_commutative_after_normalize(
        assignment in proptest::collection::vec(0usize..2, shard_fixture::N_SITES..shard_fixture::N_SITES + 1),
    ) {
        use sockscope::analysis::reduce::CrawlReduction;
        use sockscope::analysis::PiiLibrary;
        let fix = shard_fixture::get();
        let lib = PiiLibrary::new();

        let mut a = CrawlReduction::new(fix.label.as_str(), fix.pre_patch);
        let mut b = CrawlReduction::new(fix.label.as_str(), fix.pre_patch);
        for (record, &shard) in fix.records.iter().zip(&assignment) {
            let target = if shard == 0 { &mut a } else { &mut b };
            target.observe_site(record, &fix.engine, &lib);
        }
        let mut ab = a.clone().merge(b.clone());
        let mut ba = b.merge(a);
        ab.normalize();
        ba.normalize();
        prop_assert_eq!(ab, ba);
    }
}

// ---------------------------------------------------------------------------
// browser visit arena: reset-and-reuse
// ---------------------------------------------------------------------------

use sockscope::browser::{Browser, BrowserConfig, BrowserEra, ExtensionHost, VisitSink};
use sockscope::webmodel::host::StaticHost;
use sockscope::webmodel::{
    Action, Page, ReceivedItem, ScriptBehavior, ScriptRef, SentItem, WsExchange, WsServerProfile,
};

/// A small fixed web with enough variety (scripts, an image fetch, a
/// WebSocket with traffic) to exercise every arena-backed buffer a visit
/// allocates.
fn arena_web() -> StaticHost {
    let mut h = StaticHost::new();
    let mut home = Page::new("http://site.example/index.html", "Site");
    home.scripts = vec![
        ScriptRef::Remote("http://site.example/app.js".into()),
        ScriptRef::Remote("http://beacon.example/tag.js".into()),
    ];
    h.add_page(home);
    let mut small = Page::new("http://site.example/about.html", "About");
    small.scripts = vec![ScriptRef::Remote("http://site.example/app.js".into())];
    h.add_page(small);
    h.add_script("http://site.example/app.js", ScriptBehavior::inert());
    h.add_script(
        "http://beacon.example/tag.js",
        ScriptBehavior::inert()
            .then(Action::FetchImage {
                url: "http://beacon.example/px.gif".into(),
                sent: vec![SentItem::Cookie, SentItem::Screen],
            })
            .then(Action::OpenWebSocket {
                url: "ws://beacon.example/feed.ws".into(),
                exchanges: vec![WsExchange {
                    send: vec![SentItem::Cookie, SentItem::UserAgent],
                    receive: vec![ReceivedItem::Json],
                }],
            }),
    );
    h.add_ws_server("ws://beacon.example/feed.ws", WsServerProfile::accepting());
    h
}

const ARENA_PAGES: [&str; 2] = [
    "http://site.example/index.html",
    "http://site.example/about.html",
];

/// A sink that unwinds partway through a visit, the way a supervision
/// guard breach does: the visit's arena borrow must drop cleanly and the
/// browser must remain fully usable afterwards.
struct BreachingSink {
    remaining: usize,
}

impl VisitSink for BreachingSink {
    fn on_event(&mut self, _event: sockscope::browser::CdpEvent<'_>) {
        if self.remaining == 0 {
            panic!("injected guard breach");
        }
        self.remaining -= 1;
    }
}

proptest! {
    /// Interleaving successful visits, missing-page errors, and
    /// mid-visit unwinds in any order (a) leaves the visit arena at a
    /// stable high-water capacity — replaying the same interleaving
    /// allocates no new chunks — and (b) never perturbs visit output:
    /// after any history, a visit produces events byte-identical to a
    /// fresh browser's, because the reset arena is indistinguishable
    /// from a new one.
    #[test]
    fn visit_arena_reset_and_reuse_is_invisible(
        ops in proptest::collection::vec((0u8..3, 0usize..6), 1..16),
        seed in any::<u64>(),
    ) {
        let web = arena_web();
        let config = BrowserConfig {
            seed,
            ..BrowserConfig::default()
        };
        let make = || {
            Browser::new(
                &web,
                ExtensionHost::stock(BrowserEra::PreChrome58),
                config.clone(),
            )
        };

        // Reference streams, one fresh browser per page.
        let expected: Vec<String> = ARENA_PAGES
            .iter()
            .map(|url| format!("{:?}", make().visit(url).unwrap().events))
            .collect();

        let browser = make();
        let replay = |browser: &Browser<'_>| {
            for &(kind, arg) in &ops {
                match kind {
                    0 => {
                        let url = ARENA_PAGES[arg % ARENA_PAGES.len()];
                        browser.visit(url).unwrap();
                    }
                    1 => {
                        assert!(browser.visit("http://missing.example/x").is_err());
                    }
                    _ => {
                        let url = ARENA_PAGES[arg % ARENA_PAGES.len()];
                        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let mut sink = BreachingSink { remaining: arg };
                            let _ = browser.visit_streamed(url, None, &mut sink);
                        }));
                        // Short budgets unwind mid-visit; long ones let the
                        // visit finish. Both must leave the browser usable.
                        let _ = outcome;
                    }
                }
            }
        };

        replay(&browser);
        let warm = browser.arena_capacity();
        replay(&browser);
        prop_assert_eq!(
            browser.arena_capacity(),
            warm,
            "arena grew on a replayed interleaving"
        );

        for (url, want) in ARENA_PAGES.iter().zip(&expected) {
            let got = format!("{:?}", browser.visit(url).unwrap().events);
            prop_assert_eq!(&got, want, "history leaked into visit events");
        }
    }
}
