//! The filter-matching engine.

use crate::rule::{Anchor, ParsedLine, ResourceType, Rule, RuleError};
use sockscope_urlkit::psl::shares_second_level_domain;
use sockscope_urlkit::{second_level_domain, Host, Url};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};

/// A request being evaluated against the lists.
#[derive(Debug, Clone)]
pub struct RequestContext<'a> {
    /// The resource URL.
    pub url: &'a Url,
    /// The page (first party) the request happens on.
    pub page: &'a Url,
    /// The resource type.
    pub resource_type: ResourceType,
}

impl RequestContext<'_> {
    /// Third-party = the resource and page second-level domains differ.
    pub fn is_third_party(&self) -> bool {
        sockscope_urlkit::origin::is_third_party(self.page, self.url)
    }
}

/// The engine's verdict for a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// A block rule matched (index into [`Engine::rules`]).
    Block(usize),
    /// An exception rule matched (overrides any block).
    Allow(usize),
    /// No rule matched.
    None,
}

impl Decision {
    /// `true` if the request would be blocked.
    pub fn is_blocked(&self) -> bool {
        matches!(self, Decision::Block(_))
    }
}

/// Hasher for the token index. Its keys are FNV-1a token hashes that are
/// already well mixed, so hashing them a second time (SipHash) is pure
/// cost on every URL token. Only the compiled lists insert keys; request
/// URLs only probe, so a URL cannot lengthen a bucket chain.
#[derive(Debug, Clone, Copy, Default)]
struct TokenHasher(u64);

impl Hasher for TokenHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// A compiled filter list.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    rules: Vec<Rule>,
    /// `||` rules whose pattern starts with a complete host (see
    /// [`domain_key`]), indexed by that host's second-level domain.
    domain_index: HashMap<String, Vec<usize>>,
    /// Rules that must be scanned for every request (pre-token-index
    /// shape; kept as the reference path for differential tests).
    generic: Vec<usize>,
    /// Generic rules keyed by one *complete* token of their pattern
    /// (adblock-style): a rule is only a candidate for URLs that contain
    /// that token as a maximal `[a-z0-9]` run. See [`choose_token`].
    token_index: HashMap<u64, Vec<usize>, BuildHasherDefault<TokenHasher>>,
    /// Generic rules with no usable token; scanned for every request.
    untokenized: Vec<usize>,
}

/// Candidate-narrowing statistics for the perf harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexStats {
    /// Total compiled rules.
    pub rules: usize,
    /// Rules reachable through the domain index.
    pub domain_indexed: usize,
    /// Generic rules reachable through the token index.
    pub tokenized: usize,
    /// Generic rules with no usable token (scanned every request).
    pub untokenized: usize,
}

impl Engine {
    /// Compiles a list from its text. Lines that fail to parse are returned
    /// alongside the engine (EasyList in the wild always contains a few
    /// rules outside any parser's subset; the paper's pipeline skips them).
    pub fn parse(list_text: &str) -> (Engine, Vec<(usize, RuleError)>) {
        Engine::parse_many(&[list_text])
    }

    /// Compiles multiple lists into one engine (the paper combines EasyList
    /// and EasyPrivacy).
    pub fn parse_many(lists: &[&str]) -> (Engine, Vec<(usize, RuleError)>) {
        let mut engine = Engine::default();
        let mut errors = Vec::new();
        for text in lists {
            for (lineno, line) in text.lines().enumerate() {
                match crate::rule::parse_line(line) {
                    Ok(ParsedLine::Rule(rule)) => engine.push_rule(rule),
                    Ok(ParsedLine::Ignored) => {}
                    Err(e) => errors.push((lineno + 1, e)),
                }
            }
        }
        (engine, errors)
    }

    /// Adds one rule.
    pub fn push_rule(&mut self, rule: Rule) {
        let idx = self.rules.len();
        if let Some(key) = domain_key(&rule) {
            let sld = second_level_domain(key).to_string();
            self.rules.push(rule);
            self.domain_index.entry(sld).or_default().push(idx);
            return;
        }
        match choose_token(&rule) {
            Some(token) => self
                .token_index
                .entry(fnv1a(token.as_bytes()))
                .or_default()
                .push(idx),
            None => self.untokenized.push(idx),
        }
        self.rules.push(rule);
        self.generic.push(idx);
    }

    /// Candidate-narrowing statistics (domain/token index coverage).
    pub fn index_stats(&self) -> IndexStats {
        IndexStats {
            rules: self.rules.len(),
            domain_indexed: self.domain_index.values().map(Vec::len).sum(),
            tokenized: self.token_index.values().map(Vec::len).sum(),
            untokenized: self.untokenized.len(),
        }
    }

    /// All compiled rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of network rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` if no rules are loaded.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Evaluates a request: exceptions beat blocks (ABP semantics).
    ///
    /// Hot path: generic rules are narrowed through the token index — only
    /// rules whose indexed token occurs in the URL are tried, plus the
    /// untokenizable remainder. Candidate order reproduces the reference
    /// scan (domain hits, then generic in rule order), and the index is
    /// sound (a matching rule's token always occurs in the URL), so the
    /// decision — including the winning rule index — is identical to
    /// [`Engine::evaluate_reference`] on every request.
    ///
    /// The lowercased URL text is the only allocation, plus one candidate
    /// `Vec` when the token index hits: the domain hits and the
    /// untokenized rules are walked in place.
    pub fn evaluate(&self, ctx: &RequestContext<'_>) -> Decision {
        let mut req = Request::new(ctx);
        let mut token_hits: Vec<usize> = Vec::new();
        if !self.token_index.is_empty() {
            for_each_url_token(&req.url_text, |hash| {
                if let Some(v) = self.token_index.get(&hash) {
                    token_hits.extend_from_slice(v);
                }
            });
            // Rule order among the generic candidates, so "first match
            // wins" picks the same rule the linear scan would. A token that
            // occurs twice in the URL hits its bucket twice.
            token_hits.sort_unstable();
            token_hits.dedup();
        }
        let generic = merge_sorted(&token_hits, &self.untokenized);
        self.decide(
            &mut req,
            self.domain_hits(ctx.url).iter().copied().chain(generic),
        )
    }

    /// Reference evaluation: the pre-token-index shape, scanning every
    /// generic rule per request. Kept for differential tests and the
    /// `matchers` micro-bench; must agree with [`Engine::evaluate`] on
    /// every request (including the winning rule index).
    pub fn evaluate_reference(&self, ctx: &RequestContext<'_>) -> Decision {
        let mut req = Request::new(ctx);
        let candidates = self.domain_hits(ctx.url).iter().chain(&self.generic);
        self.decide(&mut req, candidates.copied())
    }

    /// Convenience: would this request be blocked?
    pub fn blocks(&self, ctx: &RequestContext<'_>) -> bool {
        self.evaluate(ctx).is_blocked()
    }

    /// The domain-indexed rules for the URL's second-level domain.
    fn domain_hits(&self, url: &Url) -> &[usize] {
        url.second_level_domain()
            .and_then(|sld| self.domain_index.get(sld))
            .map_or(&[], Vec::as_slice)
    }

    /// Runs the full matcher over `candidates` in order: the first matching
    /// exception wins outright, else the first matching block rule.
    fn decide(
        &self,
        req: &mut Request<'_, '_>,
        candidates: impl Iterator<Item = usize>,
    ) -> Decision {
        let mut block: Option<usize> = None;
        for i in candidates {
            let rule = &self.rules[i];
            if !req.applies(rule) || !req.matches(rule) {
                continue;
            }
            if rule.exception {
                return Decision::Allow(i);
            }
            block.get_or_insert(i);
        }
        match block {
            Some(i) => Decision::Block(i),
            None => Decision::None,
        }
    }
}

/// The two ascending index slices merged into one ascending walk. The
/// token-indexed and untokenized rule sets are disjoint, so no index
/// repeats.
fn merge_sorted<'s>(a: &'s [usize], b: &'s [usize]) -> impl Iterator<Item = usize> + 's {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) | (None, Some(&x)) => x,
            (None, None) => return None,
        };
        if a.get(i) == Some(&next) {
            i += 1;
        } else {
            j += 1;
        }
        Some(next)
    })
}

/// The index key of a `||` rule: the leading host of its pattern, when
/// that host is *complete* — a DNS name followed by `^`, `/` or `:` — and
/// every name under it shares its second-level domain
/// ([`shares_second_level_domain`]). Then every URL the anchor can match
/// has a host at or under the key, hence the key's second-level domain,
/// and the domain index finds the rule through the URL's.
///
/// Any other `||` rule returns `None` and takes the generic path, where
/// `Request::matches` checks the anchor itself: a partial host
/// (`||adserver`, `||ads*.example^`, `||pixel.`), an IPv4 literal or
/// all-numeric tail (`||10.1.2.3^`; IPv4 hosts have no second-level
/// domain), or a public suffix (`||co.uk^`).
fn domain_key(rule: &Rule) -> Option<&str> {
    if rule.anchor != Anchor::Domain {
        return None;
    }
    let first = rule.parts.first()?;
    let len = first
        .bytes()
        .take_while(|&b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'-' | b'_'))
        .count();
    let (key, rest) = first.split_at(len);
    let complete = matches!(rest.bytes().next(), Some(b'^' | b'/' | b':'));
    let dns_name = matches!(Host::parse(key), Ok(Host::Domain(_)))
        && key.bytes().any(|b| !b.is_ascii_digit() && b != b'.');
    (complete && dns_name && shares_second_level_domain(key)).then_some(key)
}

/// `true` for characters that make up an indexable token. The URL text is
/// lowercased before tokenization, so `[a-z0-9]` covers every token char.
fn is_token_char(c: u8) -> bool {
    c.is_ascii_lowercase() || c.is_ascii_digit()
}

/// FNV-1a over the token bytes. Collisions only add false candidates —
/// every candidate is still verified by the full matcher.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Calls `f` with the hash of every maximal token run in the (lowercased)
/// URL text.
fn for_each_url_token(url_text: &str, mut f: impl FnMut(u64)) {
    let bytes = url_text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if is_token_char(bytes[i]) {
            let start = i;
            while i < bytes.len() && is_token_char(bytes[i]) {
                i += 1;
            }
            f(fnv1a(&bytes[start..i]));
        } else {
            i += 1;
        }
    }
}

/// Tokens so common in URLs that indexing on them narrows nothing.
const STOP_TOKENS: &[&str] = &["http", "https", "www", "com", "net", "org"];

/// Picks the token a generic rule is indexed under, or `None` when the
/// pattern has no usable token.
///
/// A run of token chars inside a rule part is *usable* only when the rule
/// guarantees the matched URL contains it as a **maximal** run:
///
/// * left boundary — a non-token char precedes it in the part (`^`, `.`,
///   `-`, `_`, `%`, `/`, …), or it starts the first part of a
///   start-/domain-anchored rule (the match begins at the URL start, the
///   host boundary, or right after `://` — all non-token contexts);
/// * right boundary — a non-token char follows it in the part, or it ends
///   the last part of an end-anchored rule.
///
/// Runs adjacent to a `*` wildcard are never usable (the wildcard can
/// continue the run in the URL). The longest usable run wins, preferring
/// anything over [`STOP_TOKENS`].
fn choose_token(rule: &Rule) -> Option<&str> {
    let last_part = rule.parts.len().saturating_sub(1);
    let mut best: Option<&str> = None;
    let mut best_stop: Option<&str> = None;
    for (pi, part) in rule.parts.iter().enumerate() {
        let bytes = part.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if !is_token_char(bytes[i]) {
                i += 1;
                continue;
            }
            let start = i;
            while i < bytes.len() && is_token_char(bytes[i]) {
                i += 1;
            }
            let left_ok = start > 0 || (pi == 0 && rule.anchor != Anchor::None);
            let right_ok = i < bytes.len() || (pi == last_part && rule.end_anchor);
            if !(left_ok && right_ok) {
                continue;
            }
            let run = &part[start..i];
            let slot = if STOP_TOKENS.contains(&run) {
                &mut best_stop
            } else {
                &mut best
            };
            if slot.map(str::len).unwrap_or(0) < run.len() {
                *slot = Some(run);
            }
        }
    }
    best.or(best_stop)
}

/// Per-request state shared by every candidate rule.
struct Request<'c, 'a> {
    ctx: &'c RequestContext<'a>,
    /// The URL as `Display` renders it, ASCII-lowercased — the one
    /// allocation per request.
    url_text: String,
    /// Byte offset of the host in `url_text` (just past `://`).
    host_at: usize,
    /// The third-party bit, computed on first use: most candidates carry
    /// no `$third-party` option.
    third_party: Option<bool>,
}

impl<'c, 'a> Request<'c, 'a> {
    fn new(ctx: &'c RequestContext<'a>) -> Self {
        let url = ctx.url;
        let (scheme, host, path) = (url.scheme(), url.host_str(), url.path());
        let query = url.query();
        // 6 = ":65535"; 1 = '?'.
        let mut url_text = String::with_capacity(
            scheme.as_str().len() + 3 + host.len() + 6 + path.len() + 1 + query.map_or(0, str::len),
        );
        url_text.push_str(scheme.as_str());
        url_text.push_str("://");
        let host_at = url_text.len();
        url_text.push_str(host);
        if url.port() != scheme.default_port() {
            let _ = write!(url_text, ":{}", url.port());
        }
        url_text.push_str(path);
        if let Some(query) = query {
            url_text.push('?');
            url_text.push_str(query);
        }
        url_text.make_ascii_lowercase();
        Request {
            ctx,
            url_text,
            host_at,
            third_party: None,
        }
    }

    /// Checks the rule's option constraints against the request.
    fn applies(&mut self, rule: &Rule) -> bool {
        if let Some(types) = &rule.types {
            if !types.contains(&self.ctx.resource_type) {
                return false;
            }
        }
        if let Some(third) = rule.third_party {
            let ctx = self.ctx;
            if *self.third_party.get_or_insert_with(|| ctx.is_third_party()) != third {
                return false;
            }
        }
        if !rule.include_domains.is_empty() || !rule.exclude_domains.is_empty() {
            let page_sld = self.ctx.page.second_level_domain().unwrap_or_default();
            let page_host = self.ctx.page.host_str();
            let hits = |d: &String| {
                d == page_sld
                    || d == page_host
                    || page_host
                        .strip_suffix(d.as_str())
                        .is_some_and(|sub| sub.ends_with('.'))
            };
            if !rule.include_domains.is_empty() && !rule.include_domains.iter().any(hits) {
                return false;
            }
            if rule.exclude_domains.iter().any(hits) {
                return false;
            }
        }
        true
    }

    /// Full pattern match of `rule` against the lowercased URL text.
    fn matches(&self, rule: &Rule) -> bool {
        let text = self.url_text.as_str();
        match rule.anchor {
            Anchor::Domain => {
                // `||pattern` matches starting at the host or any subdomain
                // boundary within the host.
                let host =
                    &text.as_bytes()[self.host_at..self.host_at + self.ctx.url.host_str().len()];
                std::iter::once(self.host_at)
                    .chain(
                        host.iter()
                            .enumerate()
                            .filter(|&(_, &b)| b == b'.')
                            .map(|(i, _)| self.host_at + i + 1),
                    )
                    .any(|off| match_parts_from(rule, text, off, true))
            }
            Anchor::Start => match_parts_from(rule, text, 0, true),
            Anchor::None => match_parts_from(rule, text, 0, false),
        }
    }
}

/// ABP separator: anything that is not alphanumeric, `_`, `-`, `.`, `%`;
/// also matches the end of the URL.
fn is_separator(c: char) -> bool {
    !(c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.' || c == '%')
}

/// Matches one literal part (which may contain `^` separators) against
/// `text` starting exactly at `pos`. Returns the end position.
///
/// Literal bytes compare bytewise: both sides are valid UTF-8 and `pos`
/// sits on a char boundary, so equal bytes mean equal chars.
fn match_part_at(part: &str, text: &str, pos: usize) -> Option<usize> {
    let (pattern, bytes) = (part.as_bytes(), text.as_bytes());
    let mut t = pos;
    for (j, &pc) in pattern.iter().enumerate() {
        if pc == b'^' {
            if t == bytes.len() {
                // '^' may match the end of the URL, but only as the final
                // pattern character.
                return (j + 1 == pattern.len()).then_some(t);
            }
            let c = text[t..].chars().next()?;
            if !is_separator(c) {
                return None;
            }
            t += c.len_utf8();
        } else {
            if bytes.get(t) != Some(&pc) {
                return None;
            }
            t += 1;
        }
    }
    Some(t)
}

/// Finds the first position ≥ `from` where `part` matches; returns the
/// end of that match.
fn find_part(part: &str, text: &str, from: usize) -> Option<usize> {
    let Some(caret) = part.find('^') else {
        // No separators: a plain substring search.
        return Some(from + text[from..].find(part)? + part.len());
    };
    // Every match starts with the literal before the first '^', so only
    // its occurrences are tried (every position when it is empty).
    let prefix = &part[..caret];
    let mut start = from;
    loop {
        start += text[start..].find(prefix)?;
        if let Some(end) = match_part_at(part, text, start) {
            return Some(end);
        }
        start += text[start..].chars().next()?.len_utf8();
    }
}

/// Matches the rule's wildcard-separated parts starting at `from`; if
/// `anchored`, the first part must match exactly at `from`.
fn match_parts_from(rule: &Rule, text: &str, from: usize, anchored: bool) -> bool {
    let mut pos = from;
    for (i, part) in rule.parts.iter().enumerate() {
        let result = if i == 0 && anchored {
            match_part_at(part, text, pos)
        } else {
            find_part(part, text, pos)
        };
        match result {
            Some(end) => pos = end,
            None => return false,
        }
    }
    if rule.end_anchor {
        // Last part must reach the end of the text (a trailing '^' that
        // consumed the virtual end also qualifies).
        pos == text.len()
    } else {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn ctx<'a>(u: &'a Url, p: &'a Url, t: ResourceType) -> RequestContext<'a> {
        RequestContext {
            url: u,
            page: p,
            resource_type: t,
        }
    }

    fn engine(rules: &str) -> Engine {
        let (e, errs) = Engine::parse(rules);
        assert!(errs.is_empty(), "parse errors: {errs:?}");
        e
    }

    #[test]
    fn domain_anchor_matches_subdomains() {
        let e = engine("||doubleclick.net^");
        let page = url("http://news.example/");
        for u in [
            "http://doubleclick.net/ads",
            "https://x.doubleclick.net/pixel?id=1",
            "wss://ws.doubleclick.net/stream",
        ] {
            let u = url(u);
            assert!(e.blocks(&ctx(&u, &page, ResourceType::Script)), "{u}");
        }
        // Similar but different domain must NOT match.
        let u = url("http://notdoubleclick.net/ads");
        assert!(!e.blocks(&ctx(&u, &page, ResourceType::Script)));
        let u = url("http://doubleclick.net.evil.example/");
        assert!(!e.blocks(&ctx(&u, &page, ResourceType::Script)));
    }

    #[test]
    fn separator_semantics() {
        let e = engine("||ads.example^");
        let page = url("http://pub.example/");
        let hit = url("http://ads.example/x");
        assert!(e.blocks(&ctx(&hit, &page, ResourceType::Image)));
        let fq = url("http://ads.example:8080/x");
        assert!(e.blocks(&ctx(&fq, &page, ResourceType::Image)));
        // '^' must not match an alphanumeric continuation.
        let miss = url("http://ads.examples/x");
        assert!(!e.blocks(&ctx(&miss, &page, ResourceType::Image)));
    }

    #[test]
    fn plain_substring_and_wildcards() {
        let e = engine("/banner/*/ad_");
        let page = url("http://pub.example/");
        let hit = url("http://cdn.example/banner/728x90/ad_top.png");
        assert!(e.blocks(&ctx(&hit, &page, ResourceType::Image)));
        let miss = url("http://cdn.example/banner/728x90/spot.png");
        assert!(!e.blocks(&ctx(&miss, &page, ResourceType::Image)));
    }

    #[test]
    fn start_and_end_anchors() {
        let e = engine("|http://ads.example/track|");
        let page = url("http://pub.example/");
        assert!(e.blocks(&ctx(
            &url("http://ads.example/track"),
            &page,
            ResourceType::Xhr
        )));
        assert!(!e.blocks(&ctx(
            &url("http://ads.example/track2"),
            &page,
            ResourceType::Xhr
        )));
        assert!(!e.blocks(&ctx(
            &url("https://ads.example/track"),
            &page,
            ResourceType::Xhr
        )));
    }

    #[test]
    fn type_options() {
        let e = engine("||tracker.example^$script");
        let page = url("http://pub.example/");
        let u = url("http://tracker.example/t.js");
        assert!(e.blocks(&ctx(&u, &page, ResourceType::Script)));
        assert!(!e.blocks(&ctx(&u, &page, ResourceType::Image)));
        // The WRB in list form: an http/https-minded rule never written for
        // websockets will still match here because ABP patterns are
        // scheme-agnostic — the bug was in the extension API, not the lists.
        let ws = url("ws://tracker.example/t");
        assert!(!e.blocks(&ctx(&ws, &page, ResourceType::WebSocket)));
        let e2 = engine("||tracker.example^$websocket");
        assert!(e2.blocks(&ctx(&ws, &page, ResourceType::WebSocket)));
    }

    #[test]
    fn third_party_option() {
        let e = engine("||widget.example^$third-party");
        let third_page = url("http://pub.example/");
        let own_page = url("http://widget.example/home");
        let u = url("http://cdn.widget.example/w.js");
        assert!(e.blocks(&ctx(&u, &third_page, ResourceType::Script)));
        assert!(!e.blocks(&ctx(&u, &own_page, ResourceType::Script)));
    }

    #[test]
    fn domain_option() {
        let e = engine("||cdn.example/ads/$domain=news.example|sports.example");
        let u = url("http://cdn.example/ads/a.js");
        let news = url("http://www.news.example/story");
        let blog = url("http://blog.example/");
        assert!(e.blocks(&ctx(&u, &news, ResourceType::Script)));
        assert!(!e.blocks(&ctx(&u, &blog, ResourceType::Script)));
    }

    #[test]
    fn exception_overrides_block() {
        let e = engine("||adnet.example^\n@@||adnet.example/allowed/$script");
        let page = url("http://pub.example/");
        let blocked = url("http://adnet.example/banner.js");
        let allowed = url("http://adnet.example/allowed/lib.js");
        assert_eq!(
            e.evaluate(&ctx(&blocked, &page, ResourceType::Script)),
            Decision::Block(0)
        );
        assert_eq!(
            e.evaluate(&ctx(&allowed, &page, ResourceType::Script)),
            Decision::Allow(1)
        );
    }

    #[test]
    fn whitelisting_mirrors_paper_footnote() {
        // Footnote 2: "these rule lists whitelist some URL patterns to avoid
        // site breakage" — exceptions must beat blocks even across lists.
        let (e, _) = Engine::parse_many(&[
            "||tracker.example^$script",
            "@@||tracker.example/jquery.js$script",
        ]);
        let page = url("http://pub.example/");
        let u = url("http://tracker.example/jquery.js");
        assert!(!e.blocks(&ctx(&u, &page, ResourceType::Script)));
    }

    #[test]
    fn case_insensitive_urls() {
        let e = engine("/AdServer/");
        let page = url("http://pub.example/");
        let u = url("http://cdn.example/adserver/x.gif");
        assert!(e.blocks(&ctx(&u, &page, ResourceType::Image)));
    }

    #[test]
    fn empty_engine_blocks_nothing() {
        let e = Engine::default();
        let page = url("http://pub.example/");
        let u = url("http://anything.example/x");
        assert_eq!(
            e.evaluate(&ctx(&u, &page, ResourceType::Script)),
            Decision::None
        );
    }

    /// The token index must never change a decision — not even the
    /// winning rule index — relative to the linear reference scan.
    #[test]
    fn token_index_is_a_pure_accelerator() {
        let list = "\
||doubleclick.net^
/banner/*/ad_
@@||adnet.example/allowed/$script
||adnet.example^
/AdServer/
-advert-
track.gif?
_300x250.
$websocket,domain=pub.example
|http://ads.example/track|
||cdn.example/ads/$domain=news.example|sports.example
@@/banner/*/ad_allowed
^pixel^
*tail_anchor|
";
        let e = engine(list);
        let pages = [
            url("http://pub.example/"),
            url("http://news.example/story"),
            url("http://adnet.example/home"),
        ];
        let urls = [
            "http://doubleclick.net/ads",
            "https://x.doubleclick.net/pixel?id=1",
            "http://cdn.example/banner/728x90/ad_top.png",
            "http://cdn.example/banner/728x90/ad_allowed",
            "http://adnet.example/allowed/lib.js",
            "http://adnet.example/banner.js",
            "http://cdn.example/adserver/x.gif",
            "http://x.example/-advert-/a",
            "http://x.example/track.gif?uid=1",
            "http://x.example/img_300x250.png",
            "ws://collector.example/s",
            "http://ads.example/track",
            "http://cdn.example/ads/a.js",
            "http://x.example/a/pixel/b",
            "http://x.example/some/tail_anchor",
            "http://clean.example/index.html",
        ];
        let types = [
            ResourceType::Script,
            ResourceType::Image,
            ResourceType::WebSocket,
        ];
        for page in &pages {
            for u in urls {
                let u = url(u);
                for t in types {
                    let c = ctx(&u, page, t);
                    assert_eq!(
                        e.evaluate(&c),
                        e.evaluate_reference(&c),
                        "diverged on {u} ({t:?}) from {page}"
                    );
                }
            }
        }
        let stats = e.index_stats();
        assert!(stats.tokenized > 0, "{stats:?}");
        assert_eq!(
            stats.rules,
            stats.domain_indexed + stats.tokenized + stats.untokenized,
            "{stats:?}"
        );
    }

    #[test]
    fn wildcard_adjacent_runs_are_not_tokens() {
        // "/banner/*/ad_": "banner" is bounded by slashes (usable), but
        // "ad_"'s run "ad" is left-bounded by '/' and right-bounded by
        // '_' — while "*tail" style runs must stay out of the index.
        let e = engine("*banner_tail");
        let stats = e.index_stats();
        assert_eq!(stats.tokenized, 0, "{stats:?}");
        assert_eq!(stats.untokenized, 1, "{stats:?}");
    }

    /// `||` rules whose pattern does not start with a complete host (or
    /// whose host has no second-level domain to index under) still match
    /// at a host boundary, through the generic path.
    #[test]
    fn partial_domain_anchors_match() {
        let page = url("http://pub.example/");
        for (rule, hit, miss) in [
            (
                "||adserver",
                "http://adserver.example/x",
                "http://myadserver.example/x",
            ),
            (
                "||ads*.example^",
                "http://ads1.example/x",
                "http://ads1.examples/x",
            ),
            (
                "||pixel.",
                "http://pixel.tracker.example/p",
                "http://apixel.tracker.example/p",
            ),
            ("||10.1.2.3^", "http://10.1.2.3/x", "http://110.1.2.3/x"),
            ("||2.3.4^", "http://1.2.3.4/x", "http://1.2.3.45/x"),
            (
                "||localhost^",
                "http://a.localhost/x",
                "http://alocalhost/x",
            ),
            (
                "||co.uk^",
                "http://shop.example.co.uk/x",
                "http://example.com/co.uk/",
            ),
            (
                "||amazonaws.com^",
                "http://b.s3.amazonaws.com/x",
                "http://amazonaws.co/x",
            ),
        ] {
            let e = engine(rule);
            assert_eq!(e.index_stats().domain_indexed, 0, "{rule}");
            for (u, blocked) in [(hit, true), (miss, false)] {
                let u = url(u);
                let c = ctx(&u, &page, ResourceType::Image);
                assert_eq!(e.evaluate(&c), e.evaluate_reference(&c), "{rule} on {u}");
                assert_eq!(e.blocks(&c), blocked, "{rule} on {u}");
            }
        }
        // Complete hosts keep the domain index.
        for rule in [
            "||ads.example^",
            "||ads.example/x",
            "||ads.example:8080",
            "||a.b.example.co.uk^",
        ] {
            assert_eq!(engine(rule).index_stats().domain_indexed, 1, "{rule}");
        }
    }

    #[test]
    fn separator_and_literal_scans() {
        let e = engine("^ad^\n/x^y^\nzz^\n|http://a.example:81/p?Q=é^");
        let page = url("http://pub.example/");
        for (u, blocked) in [
            ("http://x.example/ad/1", true),
            ("http://x.example/bad/1", false),
            ("http://x.example/ad", true),
            ("http://x.example/px/x/y/", true),
            ("http://x.example/x.y/", false),
            ("http://x.example/?zz", true),
            ("http://x.example/?zza", false),
            ("http://a.example:81/p?q=é", true),
            ("http://a.example:81/p?q=éx", false),
        ] {
            let u = url(u);
            let c = ctx(&u, &page, ResourceType::Other);
            assert_eq!(e.evaluate(&c), e.evaluate_reference(&c), "{u}");
            assert_eq!(e.blocks(&c), blocked, "{u}");
        }
    }

    #[test]
    fn websocket_only_rule_via_bare_options() {
        // uBlock-era mitigation rules looked like `*$websocket,domain=…`.
        let e = engine("$websocket,domain=pub.example");
        let page = url("http://pub.example/");
        let ws = url("ws://collector.example/s");
        assert!(e.blocks(&ctx(&ws, &page, ResourceType::WebSocket)));
        let other_page = url("http://other.example/");
        assert!(!e.blocks(&ctx(&ws, &other_page, ResourceType::WebSocket)));
    }
}
