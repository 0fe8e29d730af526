//! Seeded fuzz harness for the `sockscope-filterlist` rule parser and
//! evaluator, and the `urlkit` second-level-domain walk they lean on.
//!
//! The filter lists are re-parsed every era under churn, and every script,
//! image and XHR request of every page goes through `Engine::evaluate`.
//! These targets pin four properties:
//!
//! * `parse_line` and `Engine::parse_many` never panic on arbitrary lines,
//!   and the engines they build evaluate arbitrary URLs without panicking;
//! * the candidate-narrowing `evaluate` agrees with the linear
//!   `evaluate_reference` on random rules × URLs × pages × types, winning
//!   rule index included;
//! * a one-rule engine blocks or allows exactly when a local copy of the
//!   original char-by-char matcher says the rule applies and matches — so
//!   neither index drops a matching rule and the byte-level matcher keeps
//!   the original semantics;
//! * `second_level_domain` returns whole trailing labels of its input and
//!   agrees with a local copy of the original left-to-right label walk;
//! * every name under a domain that `shares_second_level_domain` accepts
//!   has that domain's second-level domain (the domain index relies on it).
//!
//! Every case derives from the vendored proptest [`TestRng`], so a failing
//! case number reproduces exactly; the per-target case count honors
//! `FUZZ_CASES` (default 2500).

use proptest::test_runner::TestRng;
use sockscope_filterlist::rule::{parse_line, Anchor};
use sockscope_filterlist::{Decision, Engine, ParsedLine, RequestContext, ResourceType, Rule};
use sockscope_urlkit::psl::shares_second_level_domain;
use sockscope_urlkit::{is_public_suffix, second_level_domain, Url};

/// Per-target case count: `FUZZ_CASES` env or 2500.
fn fuzz_cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2500)
}

fn pick<'a>(rng: &mut TestRng, pool: &[&'a str]) -> &'a str {
    pool[rng.below(pool.len() as u64) as usize]
}

fn chance(rng: &mut TestRng, per_cent: u64) -> bool {
    rng.below(100) < per_cent
}

/// Randomly upper-cases ASCII letters (URLs and rules are case-folded).
fn mixed_case(rng: &mut TestRng, s: &str) -> String {
    s.chars()
        .map(|c| {
            if chance(rng, 20) {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

/// Host labels: public suffixes, tracker-ish names, digits, hyphens and
/// underscores, so rule hosts and URL hosts collide often.
const LABELS: &[&str] = &[
    "ads",
    "cdn",
    "x",
    "pixel",
    "tracker",
    "pub",
    "news",
    "example",
    "co",
    "uk",
    "com",
    "net",
    "io",
    "github",
    "s3",
    "amazonaws",
    "localhost",
    "a-b",
    "t_1",
    "1",
    "2",
    "10",
    "adserver",
];

/// Path and query words, including non-ASCII ones.
const WORDS: &[&str] = &[
    "ads", "ad", "banner", "pixel", "track", "gif", "js", "collect", "x", "id", "uid", "é", "日本",
    "300x250", "a", "q", "tail",
];

/// Separator characters that appear between path/query words.
const SEPS: &[&str] = &["/", ".", "-", "_", "%", "?", "&", "=", ";", ":", ",", "~"];

fn random_ipv4(rng: &mut TestRng) -> String {
    // Small octets so rule literals such as `1.2.3` hit often.
    let octet = |rng: &mut TestRng| {
        if chance(rng, 70) {
            rng.below(4)
        } else {
            rng.below(256)
        }
    };
    format!(
        "{}.{}.{}.{}",
        octet(rng),
        octet(rng),
        octet(rng),
        octet(rng)
    )
}

fn random_domain(rng: &mut TestRng) -> String {
    let labels = 1 + rng.below(4);
    (0..labels)
        .map(|_| pick(rng, LABELS))
        .collect::<Vec<_>>()
        .join(".")
}

fn random_host(rng: &mut TestRng) -> String {
    if chance(rng, 10) {
        random_ipv4(rng)
    } else {
        random_domain(rng)
    }
}

fn random_words(rng: &mut TestRng, max: u64) -> String {
    let mut out = String::new();
    for _ in 0..rng.below(max + 1) {
        out.push_str(pick(rng, SEPS));
        out.push_str(pick(rng, WORDS));
    }
    out
}

/// A random absolute URL on `host`: mixed-case scheme and host, optional
/// port (sometimes the scheme default, which `Display` drops), non-ASCII
/// path and query words, an optional fragment.
fn random_url(rng: &mut TestRng, host: &str) -> Option<Url> {
    let scheme = pick(rng, &["http", "https", "ws", "wss"]);
    let mut s = format!("{}://{host}", mixed_case(rng, scheme));
    s = mixed_case(rng, &s);
    if chance(rng, 20) {
        let port = pick(rng, &["80", "443", "8080", "1", "65535"]);
        s.push(':');
        s.push_str(port);
    }
    let path = random_words(rng, 4).replace('?', "/");
    s.push('/');
    s.push_str(&mixed_case(rng, &path));
    if chance(rng, 40) {
        s.push('?');
        let query = random_words(rng, 3);
        s.push_str(&mixed_case(rng, &query));
    }
    if chance(rng, 10) {
        s.push_str("#frag");
    }
    Url::parse(&s).ok()
}

const TYPES: &[ResourceType] = &[
    ResourceType::Script,
    ResourceType::Image,
    ResourceType::Stylesheet,
    ResourceType::Xhr,
    ResourceType::Subdocument,
    ResourceType::WebSocket,
    ResourceType::Document,
    ResourceType::Other,
];

const OPTIONS: &[&str] = &[
    "third-party",
    "~third-party",
    "script",
    "image",
    "~image",
    "websocket",
    "xmlhttprequest",
    "~script",
];

/// A random rule in the supported grammar: `@@`, `|`/`||` anchors, end
/// anchors, literal host and path pieces, `^`, `*`, ports, and
/// `$third-party`/type/`domain=a|~b` options. Anchored rules start with
/// `host`, or with a cut of it for `||` rules.
fn random_rule(rng: &mut TestRng, host: &str) -> String {
    let mut rule = String::new();
    if chance(rng, 15) {
        rule.push_str("@@");
    }
    match rng.below(3) {
        0 => {
            rule.push_str("||");
            // Complete hosts, partial hosts, IPv4 literals and fragments.
            let cut = rng.below(host.len() as u64 + 1) as usize;
            rule.push_str(if chance(rng, 60) { host } else { &host[..cut] });
        }
        1 => {
            rule.push('|');
            rule.push_str(pick(rng, &["http://", "https://", "ws", "wss://", "h"]));
            rule.push_str(host);
        }
        _ => {}
    }
    for _ in 0..rng.below(4) {
        let piece = match rng.below(8) {
            0 => "^".to_string(),
            1 => "*".to_string(),
            2 => format!(":{}", pick(rng, &["80", "8080", "443"])),
            3 => random_host(rng),
            _ => format!("{}{}", pick(rng, SEPS), pick(rng, WORDS)),
        };
        rule.push_str(&piece);
    }
    if chance(rng, 15) {
        rule.push('|');
    }
    // Patterns are case-folded; option names are not.
    let mut rule = mixed_case(rng, &rule);
    let mut options: Vec<String> = Vec::new();
    for _ in 0..rng.below(3) {
        options.push(pick(rng, OPTIONS).to_string());
    }
    if chance(rng, 20) {
        let mut domains: Vec<String> = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let tilde = if chance(rng, 30) { "~" } else { "" };
            domains.push(format!("{tilde}{}", random_host(rng)));
        }
        options.push(format!("domain={}", domains.join("|")));
    }
    if !options.is_empty() {
        rule.push('$');
        rule.push_str(&options.join(","));
    }
    rule
}

/// Characters for arbitrary lines: every piece of rule syntax plus
/// control, non-ASCII and whitespace characters.
const LINE_CHARS: &[char] = &[
    '|', '|', '@', '$', '^', '*', '~', ',', '=', '#', '!', '[', ']', '?', '/', '.', ':', '-', '_',
    '%', 'a', 'd', 'o', 'm', 'i', 'n', 's', '1', ' ', '\t', '\u{0}', '\u{7f}', 'é', '日',
    '\u{200b}',
];

fn arbitrary_line(rng: &mut TestRng) -> String {
    let mut line = String::new();
    for _ in 0..rng.below(40) {
        match rng.below(10) {
            0 => line.push_str(pick(
                rng,
                &["domain=", "third-party", "@@||", "##", "websocket"],
            )),
            1 => line.push_str(&random_host(rng)),
            _ => line.push(LINE_CHARS[rng.below(LINE_CHARS.len() as u64) as usize]),
        }
    }
    line
}

#[test]
fn fuzz_parse_line_never_panics() {
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("filterlist_parse", case);
        let lines: Vec<String> = (0..1 + rng.below(6))
            .map(|_| {
                if chance(&mut rng, 50) {
                    arbitrary_line(&mut rng)
                } else {
                    let host = random_host(&mut rng);
                    random_rule(&mut rng, &host)
                }
            })
            .collect();
        for line in &lines {
            let _ = parse_line(line);
        }
        let text = lines.join("\n");
        let (engine, errors) = Engine::parse_many(&[&text, &lines[0]]);
        for &(lineno, _) in &errors {
            assert!(lineno >= 1, "case {case}: line numbers are 1-based");
        }
        // Whatever compiled must evaluate without panicking.
        let page = Url::parse("http://pub.example/").unwrap();
        for _ in 0..4 {
            let host = random_host(&mut rng);
            if let Some(url) = random_url(&mut rng, &host) {
                let ctx = RequestContext {
                    url: &url,
                    page: &page,
                    resource_type: TYPES[rng.below(TYPES.len() as u64) as usize],
                };
                assert_eq!(
                    engine.evaluate(&ctx),
                    engine.evaluate_reference(&ctx),
                    "case {case}: {url} against {text:?}"
                );
            }
        }
    }
}

#[test]
fn fuzz_evaluate_matches_reference() {
    let mut decided = [0u64; 3];
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("filterlist_evaluate", case);
        let rules: Vec<String> = (0..1 + rng.below(12))
            .map(|_| {
                let host = random_host(&mut rng);
                random_rule(&mut rng, &host)
            })
            .collect();
        let text = rules.join("\n");
        let split = rng.below(rules.len() as u64 + 1) as usize;
        let (first, second) = (rules[..split].join("\n"), rules[split..].join("\n"));
        let (engine, _) = Engine::parse_many(&[&first, &second]);
        let pages: Vec<Url> = (0..3)
            .filter_map(|_| {
                let host = random_host(&mut rng);
                Url::parse(&format!("http://{host}/")).ok()
            })
            .collect();
        for _ in 0..6 {
            let host = random_host(&mut rng);
            let Some(url) = random_url(&mut rng, &host) else {
                continue;
            };
            for page in &pages {
                let resource_type = TYPES[rng.below(TYPES.len() as u64) as usize];
                let ctx = RequestContext {
                    url: &url,
                    page,
                    resource_type,
                };
                let fast = engine.evaluate(&ctx);
                assert_eq!(
                    fast,
                    engine.evaluate_reference(&ctx),
                    "case {case}: {url} on {page} ({resource_type:?}) against {text:?}"
                );
                assert_eq!(engine.blocks(&ctx), fast.is_blocked(), "case {case}");
                decided[match fast {
                    Decision::Block(_) => 0,
                    Decision::Allow(_) => 1,
                    Decision::None => 2,
                }] += 1;
            }
        }
    }
    // The generators must exercise every verdict, or the agreement above
    // is vacuous.
    if fuzz_cases() >= 500 {
        assert!(decided.iter().all(|&n| n > 0), "verdict mix {decided:?}");
    }
}

/// The original option check, allocation and all.
fn linear_applies(rule: &Rule, ctx: &RequestContext<'_>) -> bool {
    if let Some(types) = &rule.types {
        if !types.contains(&ctx.resource_type) {
            return false;
        }
    }
    if let Some(third) = rule.third_party {
        if ctx.is_third_party() != third {
            return false;
        }
    }
    if !rule.include_domains.is_empty() || !rule.exclude_domains.is_empty() {
        let page_sld = ctx
            .page
            .second_level_domain()
            .unwrap_or_default()
            .to_string();
        let page_host = ctx.page.host_str();
        let hits =
            |d: &String| *d == page_sld || *d == page_host || page_host.ends_with(&format!(".{d}"));
        if !rule.include_domains.is_empty() && !rule.include_domains.iter().any(hits) {
            return false;
        }
        if rule.exclude_domains.iter().any(hits) {
            return false;
        }
    }
    true
}

fn linear_is_separator(c: char) -> bool {
    !(c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.' || c == '%')
}

/// The original char-by-char part matcher.
fn linear_match_part_at(part: &str, text: &str, pos: usize) -> Option<usize> {
    let mut t = pos;
    let mut chars = part.chars().peekable();
    while let Some(pc) = chars.next() {
        if pc == '^' {
            if t == text.len() {
                return if chars.peek().is_none() {
                    Some(t)
                } else {
                    None
                };
            }
            let c = text[t..].chars().next()?;
            if !linear_is_separator(c) {
                return None;
            }
            t += c.len_utf8();
        } else {
            let c = text[t..].chars().next()?;
            if c != pc {
                return None;
            }
            t += c.len_utf8();
        }
    }
    Some(t)
}

/// The original one-position-at-a-time part search.
fn linear_find_part(part: &str, text: &str, from: usize) -> Option<usize> {
    let mut start = from;
    while start <= text.len() {
        if let Some(end) = linear_match_part_at(part, text, start) {
            return Some(end);
        }
        start += text[start..].chars().next()?.len_utf8();
    }
    None
}

fn linear_match_parts_from(rule: &Rule, text: &str, from: usize, anchored: bool) -> bool {
    let mut pos = from;
    for (i, part) in rule.parts.iter().enumerate() {
        let end = if i == 0 && anchored {
            linear_match_part_at(part, text, pos)
        } else {
            linear_find_part(part, text, pos)
        };
        match end {
            Some(end) => pos = end,
            None => return false,
        }
    }
    !rule.end_anchor || pos == text.len()
}

/// The original pattern match: `Display`, lowercase, and for `||` rules a
/// `Vec` of host-label offsets.
fn linear_pattern_matches(rule: &Rule, url: &Url) -> bool {
    let text = url.to_string().to_ascii_lowercase();
    match rule.anchor {
        Anchor::Domain => {
            let host = url.host_str().to_ascii_lowercase();
            let scheme_len = text.find("://").map(|i| i + 3).unwrap_or(0);
            let mut offsets = vec![scheme_len];
            for (i, b) in host.bytes().enumerate() {
                if b == b'.' {
                    offsets.push(scheme_len + i + 1);
                }
            }
            offsets
                .into_iter()
                .any(|off| linear_match_parts_from(rule, &text, off, true))
        }
        Anchor::Start => linear_match_parts_from(rule, &text, 0, true),
        Anchor::None => linear_match_parts_from(rule, &text, 0, false),
    }
}

#[test]
fn fuzz_single_rule_matches_the_linear_matcher() {
    let mut matched = 0u64;
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("filterlist_single_rule", case);
        let rule_host = random_host(&mut rng);
        let line = random_rule(&mut rng, &rule_host);
        let Ok(ParsedLine::Rule(rule)) = parse_line(&line) else {
            continue;
        };
        let (engine, _) = Engine::parse(&line);
        let page_host = random_host(&mut rng);
        let Ok(page) = Url::parse(&format!("https://{page_host}/")) else {
            continue;
        };
        for _ in 0..8 {
            // Mostly the rule's own host or a name under it, so anchored
            // rules get a chance to match.
            let host = match rng.below(3) {
                0 => rule_host.clone(),
                1 => format!("{}.{rule_host}", random_domain(&mut rng)),
                _ => random_host(&mut rng),
            };
            let Some(url) = random_url(&mut rng, &host) else {
                continue;
            };
            let ctx = RequestContext {
                url: &url,
                page: &page,
                resource_type: TYPES[rng.below(TYPES.len() as u64) as usize],
            };
            let hit = linear_applies(&rule, &ctx) && linear_pattern_matches(&rule, &url);
            let expected = match (hit, rule.exception) {
                (false, _) => Decision::None,
                (true, false) => Decision::Block(0),
                (true, true) => Decision::Allow(0),
            };
            matched += hit as u64;
            assert_eq!(
                engine.evaluate(&ctx),
                expected,
                "case {case}: {line:?} on {url} from {page}"
            );
            assert_eq!(engine.evaluate_reference(&ctx), expected, "case {case}");
        }
    }
    if fuzz_cases() >= 500 {
        assert!(matched >= fuzz_cases() / 10, "only {matched} matches");
    }
}

/// The label walk `second_level_domain` used before it walked from the
/// right: every label start, then suffixes from longest to shortest.
fn second_level_domain_by_full_walk(host: &str) -> &str {
    let host = host.strip_suffix('.').unwrap_or(host);
    let mut starts: Vec<usize> = vec![0];
    for (i, b) in host.bytes().enumerate() {
        if b == b'.' {
            starts.push(i + 1);
        }
    }
    for (pos, &start) in starts.iter().enumerate() {
        if is_public_suffix(&host[start..]) {
            return if pos == 0 {
                host
            } else {
                &host[starts[pos - 1]..]
            };
        }
    }
    if starts.len() >= 2 {
        &host[starts[starts.len() - 2]..]
    } else {
        host
    }
}

#[test]
fn fuzz_second_level_domain_label_walk() {
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("filterlist_sld", case);
        // Arbitrary label sequences: empty labels, leading/trailing dots,
        // deep names and non-ASCII labels included.
        let mut host = String::new();
        for i in 0..rng.below(9) {
            if i > 0 || chance(&mut rng, 10) {
                host.push('.');
            }
            match rng.below(10) {
                0 => {}
                1 => host.push('ü'),
                _ => host.push_str(pick(&mut rng, LABELS)),
            }
        }
        if chance(&mut rng, 10) {
            host.push('.');
        }
        let sld = second_level_domain(&host);
        assert_eq!(
            sld,
            second_level_domain_by_full_walk(&host),
            "case {case}: {host:?}"
        );
        let trimmed = host.strip_suffix('.').unwrap_or(&host);
        assert!(trimmed.ends_with(sld), "case {case}: {host:?} -> {sld:?}");
        let rest = &trimmed[..trimmed.len() - sld.len()];
        assert!(
            rest.is_empty() || rest.ends_with('.'),
            "case {case}: {sld:?} is not whole trailing labels of {host:?}"
        );
    }
}

#[test]
fn fuzz_shared_second_level_domains_cover_every_subdomain() {
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("filterlist_shared_sld", case);
        let domain = random_domain(&mut rng);
        if !shares_second_level_domain(&domain) {
            continue;
        }
        let sld = second_level_domain(&domain);
        for _ in 0..4 {
            let sub = format!("{}.{domain}", random_domain(&mut rng));
            assert_eq!(
                second_level_domain(&sub),
                sld,
                "case {case}: {sub} leaves the second-level domain of {domain}"
            );
        }
    }
}
