//! HTTP/1.1 response serialization and (incremental) parsing, including
//! chunked transfer encoding.

use crate::request::find_head_end;
use crate::{Headers, HttpError};

/// Default body cap (16 MiB), matching the WebSocket side.
pub const DEFAULT_MAX_BODY: usize = 16 * 1024 * 1024;

/// An HTTP/1.1 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Headers in wire order.
    pub headers: Headers,
    /// Decoded body (after de-chunking).
    pub body: Vec<u8>,
}

impl Response {
    /// A 200 response with a typed body.
    pub fn ok(content_type: &str, body: Vec<u8>) -> Response {
        let mut headers = Headers::new();
        headers.push("Content-Type", content_type);
        headers.push("Content-Length", body.len().to_string());
        Response {
            status: 200,
            reason: "OK".to_string(),
            headers,
            body,
        }
    }

    /// A bodyless response with the given status.
    pub fn status_only(status: u16, reason: &str) -> Response {
        let mut headers = Headers::new();
        headers.push("Content-Length", "0");
        Response {
            status,
            reason: reason.to_string(),
            headers,
            body: Vec::new(),
        }
    }

    /// Builder: adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push(name, value);
        self
    }

    /// Serializes with a `Content-Length` body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        out.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", self.status, self.reason).as_bytes());
        self.headers.write_to(&mut out);
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// Serializes using chunked transfer encoding with the given chunk
    /// size (tracker CDNs in 2017 loved chunked responses; the parser has
    /// to handle them to classify bodies).
    pub fn to_chunked_bytes(&self, chunk_size: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(160 + self.body.len());
        out.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", self.status, self.reason).as_bytes());
        for (n, v) in self.headers.iter() {
            if n.eq_ignore_ascii_case("content-length") {
                continue;
            }
            out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
        }
        out.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
        let size = chunk_size.max(1);
        for chunk in self.body.chunks(size) {
            out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
            out.extend_from_slice(chunk);
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"0\r\n\r\n");
        out
    }

    /// Parses a complete response (either framing).
    pub fn parse(bytes: &[u8]) -> Result<Response, HttpError> {
        let mut parser = ResponseParser::new();
        parser.feed(bytes);
        parser.finish()?.ok_or(HttpError::Truncated)
    }
}

/// Incremental response parser: feed arbitrary byte chunks, poll for the
/// completed response.
#[derive(Debug, Clone)]
pub struct ResponseParser {
    buf: Vec<u8>,
    max_body: usize,
}

impl Default for ResponseParser {
    fn default() -> Self {
        Self::new()
    }
}

impl ResponseParser {
    /// New parser with the default body cap.
    pub fn new() -> ResponseParser {
        ResponseParser {
            buf: Vec::new(),
            max_body: DEFAULT_MAX_BODY,
        }
    }

    /// Appends transport bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Attempts to finish: `Ok(None)` = need more bytes.
    pub fn finish(&self) -> Result<Option<Response>, HttpError> {
        let bytes = &self.buf;
        let Some(head_end) = find_head_end(bytes) else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&bytes[..head_end]).map_err(|_| HttpError::BadEncoding)?;
        let mut lines = head.splitn(2, "\r\n");
        let start = lines.next().ok_or(HttpError::BadStartLine)?;
        let rest = lines.next().unwrap_or("");
        let mut parts = start.splitn(3, ' ');
        let version = parts.next().ok_or(HttpError::BadStartLine)?;
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(HttpError::BadStartLine);
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(HttpError::BadStartLine)?;
        let reason = parts.next().unwrap_or("").to_string();
        let headers = Headers::parse_block(rest)?;
        let body_start = head_end + 4;

        let chunked = headers
            .get("transfer-encoding")
            .map(|v| v.to_ascii_lowercase().contains("chunked"))
            .unwrap_or(false);
        let body = if chunked {
            match decode_chunked(&bytes[body_start..], self.max_body)? {
                Some(b) => b,
                None => return Ok(None),
            }
        } else {
            match headers.get("content-length") {
                Some(cl) => {
                    let len: usize = cl.trim().parse().map_err(|_| HttpError::BadContentLength)?;
                    if len > self.max_body {
                        return Err(HttpError::TooLarge);
                    }
                    if bytes.len() < body_start + len {
                        return Ok(None);
                    }
                    bytes[body_start..body_start + len].to_vec()
                }
                // No length framing: everything fed so far is the body
                // (connection-close framing). finish() is the EOF signal.
                None => bytes.get(body_start..).unwrap_or_default().to_vec(),
            }
        };
        Ok(Some(Response {
            status,
            reason,
            headers,
            body,
        }))
    }
}

/// Decodes a chunked body; `Ok(None)` = incomplete.
fn decode_chunked(mut bytes: &[u8], max_body: usize) -> Result<Option<Vec<u8>>, HttpError> {
    let mut out = Vec::new();
    loop {
        let Some(line_end) = bytes.windows(2).position(|w| w == b"\r\n") else {
            return Ok(None);
        };
        let size_line =
            std::str::from_utf8(&bytes[..line_end]).map_err(|_| HttpError::BadEncoding)?;
        let size_hex = size_line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_hex, 16).map_err(|_| HttpError::BadChunkSize)?;
        // `out` never exceeds the cap, so the subtraction cannot wrap; a
        // hostile size near `usize::MAX` is rejected before any addition.
        if size > max_body - out.len() {
            return Err(HttpError::TooLarge);
        }
        let data_start = line_end + 2;
        if size == 0 {
            // Trailer: expect final CRLF (we ignore trailer headers).
            return if bytes.len() >= data_start + 2 {
                Ok(Some(out))
            } else {
                Ok(None)
            };
        }
        let chunk_end = data_start
            .checked_add(size)
            .and_then(|end| end.checked_add(2))
            .ok_or(HttpError::BadChunkSize)?;
        let data_end = chunk_end - 2;
        if bytes.len() < chunk_end {
            return Ok(None);
        }
        out.extend_from_slice(&bytes[data_start..data_end]);
        if &bytes[data_end..chunk_end] != b"\r\n" {
            return Err(HttpError::BadChunkSize);
        }
        bytes = &bytes[chunk_end..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_length_roundtrip() {
        let resp = Response::ok("application/javascript", b"(function(){})();".to_vec());
        let back = Response::parse(&resp.to_bytes()).unwrap();
        assert_eq!(back.status, 200);
        assert_eq!(back.body, b"(function(){})();");
        assert_eq!(
            back.headers.get("content-type"),
            Some("application/javascript")
        );
    }

    #[test]
    fn chunked_roundtrip_various_chunk_sizes() {
        let body: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        let resp = Response::ok("application/octet-stream", body.clone());
        for chunk in [1usize, 7, 64, 499, 500, 1000] {
            let wire = resp.to_chunked_bytes(chunk);
            let back = Response::parse(&wire).unwrap();
            assert_eq!(back.body, body, "chunk size {chunk}");
            assert!(back
                .headers
                .get("transfer-encoding")
                .unwrap()
                .contains("chunked"));
        }
    }

    #[test]
    fn incremental_parsing_waits_for_body() {
        let resp = Response::ok("text/html", b"<html>hello</html>".to_vec());
        let wire = resp.to_bytes();
        let mut parser = ResponseParser::new();
        for (i, b) in wire.iter().enumerate() {
            parser.feed(std::slice::from_ref(b));
            let done = parser.finish().unwrap();
            if i + 1 < wire.len() {
                assert!(done.is_none(), "completed early at {i}");
            } else {
                assert_eq!(done.unwrap().body, b"<html>hello</html>");
            }
        }
    }

    #[test]
    fn status_only_and_404() {
        let resp = Response::status_only(404, "Not Found");
        let back = Response::parse(&resp.to_bytes()).unwrap();
        assert_eq!(back.status, 404);
        assert!(back.body.is_empty());
    }

    #[test]
    fn rejects_malformed() {
        assert_eq!(
            Response::parse(b"SPDY/3 200 OK\r\n\r\n"),
            Err(HttpError::BadStartLine)
        );
        assert_eq!(
            Response::parse(b"HTTP/1.1 2xx Nope\r\n\r\n"),
            Err(HttpError::BadStartLine)
        );
        assert_eq!(
            Response::parse(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nZZ\r\nbody\r\n0\r\n\r\n"
            ),
            Err(HttpError::BadChunkSize)
        );
    }

    #[test]
    fn body_cap_enforced() {
        let mut parser = ResponseParser::new();
        parser.max_body = 10;
        parser.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\nhello world");
        assert_eq!(parser.finish(), Err(HttpError::TooLarge));
    }

    #[test]
    fn hostile_chunk_size_is_an_error_not_a_panic() {
        // A chunk size of `usize::MAX` after one byte of body used to
        // overflow the cap check and then slice out of bounds.
        let wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\na\r\nffffffffffffffff\r\nxyz\r\n0\r\n\r\n";
        assert_eq!(Response::parse(wire), Err(HttpError::TooLarge));
        // Under an unbounded cap the chunk's end offset itself overflows.
        let mut parser = ResponseParser::new();
        parser.max_body = usize::MAX;
        parser.feed(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nfffffffffffffffe\r\nxyz\r\n0\r\n\r\n");
        assert_eq!(parser.finish(), Err(HttpError::BadChunkSize));
    }

    #[test]
    fn http10_responses_accepted() {
        // Some 2017 tracker CDNs still spoke 1.0 on pixel paths.
        let back = Response::parse(b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok").unwrap();
        assert_eq!(back.body, b"ok");
    }
}
