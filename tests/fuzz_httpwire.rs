//! Seeded fuzz harness for the `sockscope-httpwire` parsers.
//!
//! Every HTTP body in the study crosses [`Response::parse`] (the browser's
//! wire round-trip), so the parser is a trust boundary: **malformed wire
//! input must surface as a typed [`HttpError`] or an incomplete
//! `Ok(None)`, never as a panic** — including hostile chunk sizes near
//! `usize::MAX`. The two round-trip targets are differentials against the
//! encoders: [`Request::to_bytes`], [`Response::to_bytes`] and
//! [`Response::to_chunked_bytes`] must parse back to the message they
//! came from, whichever way the wire is split across feeds.
//!
//! Mirrors `tests/fuzz_wsproto.rs`: every case derives from the vendored
//! proptest [`TestRng`] so a failing case number reproduces exactly, and
//! the per-target case count honors `FUZZ_CASES` (default 2500; CI's
//! chaos job raises it).

use proptest::test_runner::TestRng;
use sockscope_httpwire::{HttpError, Method, Request, Response, ResponseParser};

/// Per-target case count: `FUZZ_CASES` env or 2500.
fn fuzz_cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2500)
}

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

fn ascii_from(rng: &mut TestRng, alphabet: &[u8], len: usize) -> String {
    (0..len)
        .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize] as char)
        .collect()
}

fn bytes(rng: &mut TestRng, max: usize) -> Vec<u8> {
    let len = rng.usize_in(0, max);
    (0..len).map(|_| rng.below(256) as u8).collect()
}

/// A header name that never collides with the framing headers.
fn header_name(rng: &mut TestRng) -> String {
    if rng.below(3) == 0 {
        return pick(
            rng,
            &["Cookie", "User-Agent", "Accept", "Origin", "Referer"],
        )
        .to_string();
    }
    let len = rng.usize_in(1, 16);
    format!(
        "X-{}",
        ascii_from(rng, b"abcdefghijklmnopqrstuvwxyz0123456789-_", len)
    )
}

/// A printable header value with no leading or trailing whitespace (the
/// parser trims it, so only such values round-trip).
fn header_value(rng: &mut TestRng) -> String {
    let len = rng.usize_in(0, 40);
    let printable: Vec<u8> = (0x21u8..0x7F).collect();
    let mut v = ascii_from(rng, &printable, len);
    if v.len() > 2 && rng.below(2) == 0 {
        let at = rng.usize_in(1, v.len() - 1);
        v.replace_range(at..at + 1, " ");
    }
    v
}

fn arbitrary_request(rng: &mut TestRng) -> Request {
    let host = format!("{}.example", ascii_from(rng, b"abcdefghij", 6));
    let target_len = rng.usize_in(0, 60);
    let target = format!("/{}", ascii_from(rng, b"abcxyz0189/?=&%._-;", target_len));
    let mut req = match rng.below(3) {
        0 => Request::get(&host, &target),
        1 => Request::post(&host, &target, bytes(rng, 600)),
        _ => Request {
            method: Method::Head,
            ..Request::get(&host, &target)
        },
    };
    for _ in 0..rng.usize_in(0, 6) {
        req.headers.push(header_name(rng), header_value(rng));
    }
    req
}

fn arbitrary_response(rng: &mut TestRng) -> Response {
    let mime = pick(
        rng,
        &[
            "text/html",
            "application/json",
            "application/javascript",
            "image/png",
        ],
    );
    let mut resp = Response::ok(mime, bytes(rng, 700));
    resp.status = rng.usize_in(100, 1000) as u16;
    let reason_len = rng.usize_in(0, 24);
    resp.reason = ascii_from(rng, b"abcdefghijklmnopqrstuvwxyz ", reason_len);
    for _ in 0..rng.usize_in(0, 6) {
        resp.headers.push(header_name(rng), header_value(rng));
    }
    resp
}

/// Encodes `resp` with a random framing; `true` when chunked.
fn encode(rng: &mut TestRng, resp: &Response) -> (Vec<u8>, bool) {
    if rng.below(2) == 0 {
        (resp.to_bytes(), false)
    } else {
        (resp.to_chunked_bytes(rng.usize_in(0, 800)), true)
    }
}

/// Feeds `wire` to a fresh parser in random-sized pieces, polling after
/// every piece. Returns the first completed response or error.
fn feed_in_splits(rng: &mut TestRng, wire: &[u8]) -> (Result<Option<Response>, HttpError>, usize) {
    let mut parser = ResponseParser::new();
    let mut off = 0;
    while off < wire.len() {
        let piece = rng.usize_in(1, 96).min(wire.len() - off);
        parser.feed(&wire[off..off + piece]);
        off += piece;
        match parser.finish() {
            Ok(None) => {}
            done => return (done, off),
        }
    }
    (parser.finish(), off)
}

/// Flips bits, truncates, or splices a hostile chunk-size line in after
/// a CRLF of the body — in chunked framing, at a chunk boundary once some
/// body has already been decoded.
fn mutate(rng: &mut TestRng, wire: &mut Vec<u8>) {
    match rng.below(3) {
        0 => {
            for _ in 0..rng.usize_in(1, 8) {
                let at = rng.usize_in(0, wire.len());
                wire[at] ^= 1 << rng.below(8);
            }
        }
        1 => wire.truncate(rng.usize_in(0, wire.len())),
        _ => {
            let body_from = wire
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map_or(0, |h| h + 2);
            let line_starts: Vec<usize> = wire
                .windows(2)
                .enumerate()
                .filter(|&(p, w)| w == b"\r\n" && p >= body_from)
                .map(|(p, _)| p + 2)
                .collect();
            let at = if line_starts.is_empty() {
                0
            } else {
                line_starts[rng.below(line_starts.len() as u64) as usize]
            };
            // Sizes at the edge of `usize`, anywhere in range, or small.
            let size = match rng.below(3) {
                0 => u64::MAX - rng.below(1024),
                1 => rng.next_u64() >> rng.below(64),
                _ => rng.below(1 << 12),
            };
            let line = format!("{size:x}\r\n");
            wire.splice(at..at, line.bytes());
        }
    }
}

fn without_framing(headers: &sockscope_httpwire::Headers) -> Vec<(String, String)> {
    headers
        .iter()
        .filter(|(n, _)| {
            !n.eq_ignore_ascii_case("content-length")
                && !n.eq_ignore_ascii_case("transfer-encoding")
        })
        .map(|(n, v)| (n.to_string(), v.to_string()))
        .collect()
}

#[test]
fn fuzz_request_parse_never_panics() {
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("httpwire_request_parse", case);
        let wire = if rng.below(2) == 0 {
            bytes(&mut rng, 512)
        } else {
            let mut wire = arbitrary_request(&mut rng).to_bytes();
            if rng.below(3) == 0 {
                // A hostile Content-Length ahead of any real one.
                let digits = rng.usize_in(1, 30);
                let cl = format!(
                    "Content-Length: {}\r\n",
                    ascii_from(&mut rng, b"0123456789", digits)
                );
                let at = wire
                    .windows(2)
                    .position(|w| w == b"\r\n")
                    .map_or(0, |p| p + 2);
                wire.splice(at..at, cl.bytes());
            }
            mutate(&mut rng, &mut wire);
            wire
        };
        let _ = Request::parse(&wire);
    }
}

#[test]
fn fuzz_response_parse_never_panics() {
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("httpwire_response_parse", case);
        let wire = match rng.below(3) {
            0 => bytes(&mut rng, 512),
            1 => {
                // Byte soup behind a valid chunked head reaches the
                // chunk decoder instead of dying at the start line.
                let mut wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
                wire.extend(bytes(&mut rng, 256));
                wire
            }
            _ => {
                let resp = arbitrary_response(&mut rng);
                let (mut wire, _) = encode(&mut rng, &resp);
                mutate(&mut rng, &mut wire);
                wire
            }
        };
        let _ = Response::parse(&wire);
        let _ = feed_in_splits(&mut rng, &wire);
    }
}

#[test]
fn fuzz_request_round_trip() {
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("httpwire_request_round_trip", case);
        let req = arbitrary_request(&mut rng);
        let wire = req.to_bytes();
        assert_eq!(Request::parse(&wire).as_ref(), Ok(&req), "case {case}");
        // Every proper prefix is incomplete: the head lacks its blank
        // line, or the body falls short of its Content-Length.
        for _ in 0..4 {
            let cut = rng.usize_in(0, wire.len());
            assert_eq!(
                Request::parse(&wire[..cut]),
                Err(HttpError::Truncated),
                "case {case} cut {cut}"
            );
        }
    }
}

#[test]
fn fuzz_response_round_trip_under_feed_splits() {
    for case in 0..fuzz_cases() {
        let mut rng = TestRng::for_case("httpwire_response_round_trip", case);
        let resp = arbitrary_response(&mut rng);
        let (wire, chunked) = encode(&mut rng, &resp);
        let whole = Response::parse(&wire).expect("encoder output parses");
        let (split, consumed) = feed_in_splits(&mut rng, &wire);
        let split = split
            .expect("encoder output parses in pieces")
            .expect("the whole wire completes the response");
        assert_eq!(consumed, wire.len(), "case {case}: completed early");
        assert_eq!(split, whole, "case {case}: feed splits changed the parse");
        assert_eq!(whole.status, resp.status, "case {case}");
        assert_eq!(whole.reason, resp.reason, "case {case}");
        assert_eq!(whole.body, resp.body, "case {case}");
        if chunked {
            assert_eq!(
                without_framing(&whole.headers),
                without_framing(&resp.headers),
                "case {case}"
            );
            assert_eq!(whole.headers.get("transfer-encoding"), Some("chunked"));
        } else {
            assert_eq!(whole.headers, resp.headers, "case {case}");
        }
    }
}
