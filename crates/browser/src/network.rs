//! The simulated network layer for WebSockets.
//!
//! Every scripted WebSocket exchange is executed end-to-end through the
//! RFC 6455 implementation in `sockscope-wsproto`: a real opening handshake
//! (request and response bytes, key/accept validation) and real frame
//! encoding/decoding for both endpoints. The transcript the browser turns
//! into CDP events is recovered from the *decoded* frames, so any framing
//! bug would corrupt the study's data — and is caught by the roundtrip
//! tests instead.
//!
//! There is one session runner, [`run_session`]. A fault-free socket is a
//! faulted socket whose decision is [`FaultDecision::None`]: the same
//! handshake, data phase and close, with no byte sabotaged.

use sockscope_faults::FaultDecision;
use sockscope_urlkit::Url;
use sockscope_webmodel::{payload::Payload, ValueContext, WsExchange};
use sockscope_wsproto::{
    connection::pump, ClientHandshake, CloseCode, Connection, Event, Message, ProtocolError, Role,
    ServerHandshake, WsError,
};

/// Direction of a recorded frame, from the browser's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → server.
    Sent,
    /// Server → client.
    Received,
}

/// One data frame in a session transcript.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranscriptFrame {
    /// Who sent it.
    pub direction: Direction,
    /// `true` for text frames.
    pub text: bool,
    /// Decoded payload bytes.
    pub payload: Vec<u8>,
}

/// Session-level failures: the unified `wsproto` error covers handshake
/// failures, framing violations, and the transport-level outcomes the fault
/// injector produces (refused connects, drops, timeouts).
pub type SessionError = WsError;

/// How far a session got before (or whether) it failed.
///
/// A session returns everything observed up to the failure point: the
/// browser turns this into CDP events, ending in a `webSocketFrameError`
/// when `error` is set, mirroring how a real crawl records partially
/// completed sockets. A session that ran to its close handshake has
/// `error == None` and `clean_close`.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Raw handshake request bytes (empty if the connect was refused).
    pub handshake_request: Vec<u8>,
    /// Raw handshake response bytes (empty if none arrived).
    pub handshake_response: Vec<u8>,
    /// HTTP status of the upgrade response; 0 if none arrived.
    pub status: u16,
    /// Data frames observed before the failure, in wire order.
    pub frames: Vec<TranscriptFrame>,
    /// The typed failure, if the session did not complete cleanly.
    pub error: Option<SessionError>,
    /// `true` only when the close handshake completed on both sides.
    pub clean_close: bool,
    /// Virtual-clock ticks consumed by injected stalls.
    pub ticks: u64,
}

impl SessionOutcome {
    fn empty() -> SessionOutcome {
        SessionOutcome {
            handshake_request: Vec::new(),
            handshake_response: Vec::new(),
            status: 0,
            frames: Vec::new(),
            error: None,
            clean_close: false,
            ticks: 0,
        }
    }
}

/// Corrupts the `Sec-WebSocket-Accept` value in a 101 response in place.
fn corrupt_accept(response: &mut [u8]) {
    let needle = b"Sec-WebSocket-Accept: ";
    if let Some(pos) = response
        .windows(needle.len())
        .position(|w| w.eq_ignore_ascii_case(needle))
    {
        let v = pos + needle.len();
        if v < response.len() {
            response[v] = if response[v] == b'A' { b'B' } else { b'A' };
        }
    }
}

/// Drains all pending client events, recording data messages as frames.
fn drain_received(
    client: &mut Connection,
    frames: &mut Vec<TranscriptFrame>,
) -> Result<(), ProtocolError> {
    while let Some(ev) = client.poll()? {
        if let Event::Message(msg) = ev {
            frames.push(TranscriptFrame {
                direction: Direction::Received,
                text: matches!(msg, Message::Text(_)),
                payload: msg.as_bytes().to_vec(),
            });
        }
    }
    Ok(())
}

/// Runs a complete scripted session against an in-memory server, with at
/// most one injected fault, returning whatever the client observed before
/// any failure.
///
/// `seed` drives the client nonce and mask keys, keeping the whole byte
/// stream reproducible. [`FaultDecision::None`] runs the session
/// untouched; `stall_ticks` and `stall_timeout` are read only for
/// [`FaultDecision::StalledRead`].
///
/// Fault semantics, all on the client's receive path (the send path is the
/// browser's own and never faulted):
/// * `ConnectRefused` — no bytes flow at all.
/// * `HandshakeReject` — a deterministic non-101 response; validation
///   really fails with [`sockscope_wsproto::HandshakeError::BadStatus`].
/// * `BadAccept` — a genuine 101 whose accept key is corrupted in flight.
/// * `TruncatedFrame` — the final server burst loses its last byte and the
///   socket EOFs mid-frame.
/// * `MalformedFrame` — the final server burst's first frame header gets
///   its reserved bits set; the codec rejects it.
/// * `MidMessageDrop` — the final server burst vanishes and the transport
///   drops with no close handshake.
/// * `StalledRead` — the final server burst arrives `stall_ticks` late on
///   the virtual clock; at or past `stall_timeout` the read is abandoned.
#[allow(clippy::too_many_arguments)]
pub fn run_session(
    url: &Url,
    page_origin: &str,
    user_agent: &str,
    cookie: Option<&str>,
    exchanges: &[WsExchange],
    ctx: &ValueContext,
    seed: u64,
    decision: FaultDecision,
    stall_ticks: u64,
    stall_timeout: u64,
) -> SessionOutcome {
    let mut out = SessionOutcome::empty();
    if decision == FaultDecision::ConnectRefused {
        out.error = Some(SessionError::ConnectionRefused);
        return out;
    }

    // ---- Opening handshake, possibly sabotaged. ----
    let mut hs = ClientHandshake::new(url.host_str(), url.path(), seed)
        .origin(page_origin)
        .user_agent(user_agent);
    if let Some(c) = cookie {
        hs = hs.cookies(c);
    }
    out.handshake_request = hs.request_bytes();

    if let FaultDecision::HandshakeReject { status } = decision {
        let reason = match status {
            403 => "Forbidden",
            404 => "Not Found",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Error",
        };
        let response = format!("HTTP/1.1 {status} {reason}\r\nConnection: close\r\n\r\n");
        let err = match hs.validate_response(response.as_bytes()) {
            Err(e) => e,
            Ok(_) => unreachable!("non-101 response cannot validate"),
        };
        out.handshake_response = response.into_bytes();
        out.status = status;
        out.error = Some(SessionError::Handshake(err));
        return out;
    }

    let server_hs = match ServerHandshake::accept_request(&out.handshake_request) {
        Ok(s) => s,
        Err(e) => {
            out.error = Some(SessionError::Handshake(e));
            return out;
        }
    };
    let mut response = server_hs.response_bytes(None);
    if decision == FaultDecision::BadAccept {
        corrupt_accept(&mut response);
    }
    out.status = 101;
    match hs.validate_response(&response) {
        Ok(_) => {}
        Err(e) => {
            out.handshake_response = response;
            out.error = Some(SessionError::Handshake(e));
            return out;
        }
    }
    out.handshake_response = response;

    // ---- Data phase; the fault strikes the final server burst. ----
    let mut client = Connection::new(Role::Client, seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
    let mut server = Connection::new(Role::Server, seed.rotate_left(17) | 1);
    let host = url.host_str();
    let last_receive = exchanges.iter().rposition(|e| !e.receive.is_empty());

    for (i, exchange) in exchanges.iter().enumerate() {
        if !exchange.send.is_empty() {
            let sent = match ctx.render_sent(&exchange.send) {
                Payload::Text(t) => client.send_text(&t),
                Payload::Binary(b) => client.send_binary(&b),
            };
            if let Err(e) = sent {
                out.error = Some(e.into());
                return out;
            }
            match pump(&mut client, &mut server) {
                Ok((_, server_events)) => {
                    for ev in server_events {
                        if let Event::Message(msg) = ev {
                            out.frames.push(TranscriptFrame {
                                direction: Direction::Sent,
                                text: matches!(msg, Message::Text(_)),
                                payload: msg.as_bytes().to_vec(),
                            });
                        }
                    }
                }
                Err(e) => {
                    out.error = Some(e.into());
                    return out;
                }
            }
        }
        if exchange.receive.is_empty() {
            continue;
        }
        let sent = match ctx.render_received(&exchange.receive, host) {
            Payload::Text(t) => server.send_text(&t),
            Payload::Binary(b) => server.send_binary(&b),
        };
        if let Err(e) = sent {
            out.error = Some(e.into());
            return out;
        }
        let mut s2c = server.take_outgoing();
        if Some(i) == last_receive {
            match decision {
                FaultDecision::TruncatedFrame => {
                    // The transport EOFs one byte short of a whole frame.
                    client.feed(&s2c[..s2c.len() - 1]);
                    if let Err(e) = drain_received(&mut client, &mut out.frames) {
                        out.error = Some(e.into());
                        return out;
                    }
                    debug_assert!(client.has_partial_frame());
                    out.error = Some(SessionError::Dropped);
                    return out;
                }
                FaultDecision::MalformedFrame => {
                    // Reserved bits flip on the wire; the codec must object.
                    s2c[0] |= 0x70;
                    client.feed(&s2c);
                    match drain_received(&mut client, &mut out.frames) {
                        Err(e) => out.error = Some(e.into()),
                        Ok(()) => out.error = Some(SessionError::Dropped),
                    }
                    return out;
                }
                FaultDecision::MidMessageDrop => {
                    // The burst never arrives; the peer is simply gone.
                    out.error = Some(SessionError::Dropped);
                    return out;
                }
                FaultDecision::StalledRead => {
                    out.ticks += stall_ticks;
                    if stall_ticks >= stall_timeout {
                        out.error = Some(SessionError::TimedOut);
                        return out;
                    }
                    client.feed(&s2c);
                    if let Err(e) = drain_received(&mut client, &mut out.frames) {
                        out.error = Some(e.into());
                        return out;
                    }
                }
                _ => {
                    client.feed(&s2c);
                    if let Err(e) = drain_received(&mut client, &mut out.frames) {
                        out.error = Some(e.into());
                        return out;
                    }
                }
            }
        } else {
            client.feed(&s2c);
            if let Err(e) = drain_received(&mut client, &mut out.frames) {
                out.error = Some(e.into());
                return out;
            }
        }
    }

    // A frame-level fault with no server burst to strike still tears the
    // transport down before the close handshake.
    if last_receive.is_none() {
        match decision {
            FaultDecision::TruncatedFrame
            | FaultDecision::MalformedFrame
            | FaultDecision::MidMessageDrop => {
                out.error = Some(SessionError::Dropped);
                return out;
            }
            FaultDecision::StalledRead => {
                out.ticks += stall_ticks;
                if stall_ticks >= stall_timeout {
                    out.error = Some(SessionError::TimedOut);
                    return out;
                }
            }
            _ => {}
        }
    }

    // ---- Close handshake. ----
    client.close(CloseCode::Normal, "done");
    match pump(&mut client, &mut server) {
        Ok(_) => out.clean_close = true,
        Err(e) => out.error = Some(e.into()),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sockscope_webmodel::{ReceivedItem, SentItem};

    fn ctx() -> ValueContext {
        ValueContext::deterministic(1234)
    }

    /// Runs a session with [`FaultDecision::None`] and checks it completed:
    /// no error, a clean close, and no virtual time spent.
    fn clean(
        url: &Url,
        user_agent: &str,
        cookie: Option<&str>,
        exchanges: &[WsExchange],
        seed: u64,
    ) -> SessionOutcome {
        let out = run_session(
            url,
            "http://pub.example",
            user_agent,
            cookie,
            exchanges,
            &ctx(),
            seed,
            FaultDecision::None,
            0,
            0,
        );
        assert_eq!(out.error, None);
        assert!(out.clean_close);
        assert_eq!(out.ticks, 0);
        out
    }

    #[test]
    fn scripted_session_produces_ordered_transcript() {
        let url = Url::parse("ws://adnet.example/data.ws").unwrap();
        let exchanges = vec![
            WsExchange {
                send: vec![SentItem::Cookie, SentItem::Screen],
                receive: vec![ReceivedItem::Json],
            },
            WsExchange::send_only(vec![SentItem::ScrollPosition]),
        ];
        let s = clean(&url, "TestUA/1.0", Some("uid=42"), &exchanges, 7);
        assert_eq!(s.status, 101);
        assert_eq!(s.frames.len(), 3);
        assert_eq!(s.frames[0].direction, Direction::Sent);
        assert!(String::from_utf8_lossy(&s.frames[0].payload).contains("cookie=uid="));
        assert_eq!(s.frames[1].direction, Direction::Received);
        assert!(s.frames[1].text);
        assert_eq!(s.frames[2].direction, Direction::Sent);
        // Handshake bytes really carry the headers.
        let req = String::from_utf8(s.handshake_request.clone()).unwrap();
        assert!(req.contains("Cookie: uid=42"));
        assert!(req.contains("User-Agent: TestUA/1.0"));
        assert!(req.contains("Origin: http://pub.example"));
        assert!(req.starts_with("GET /data.ws HTTP/1.1"));
    }

    #[test]
    fn binary_exchange_survives_codec() {
        let url = Url::parse("wss://collector.example/b").unwrap();
        let exchanges = vec![WsExchange {
            send: vec![SentItem::Binary],
            receive: vec![ReceivedItem::Binary],
        }];
        let s = clean(&url, "UA", None, &exchanges, 9);
        assert_eq!(s.frames.len(), 2);
        assert!(!s.frames[0].text);
        assert!(!s.frames[1].text);
        assert!(std::str::from_utf8(&s.frames[0].payload).is_err());
    }

    #[test]
    fn empty_exchanges_yield_no_frames() {
        let url = Url::parse("ws://quiet.example/s").unwrap();
        let s = clean(&url, "UA", None, &[WsExchange::default()], 3);
        assert!(s.frames.is_empty());
        assert_eq!(s.status, 101);
    }

    fn faulted(decision: FaultDecision) -> SessionOutcome {
        let url = Url::parse("ws://adnet.example/data.ws").unwrap();
        let exchanges = vec![WsExchange {
            send: vec![SentItem::Cookie],
            receive: vec![ReceivedItem::Json],
        }];
        run_session(
            &url,
            "http://pub.example",
            "UA",
            None,
            &exchanges,
            &ctx(),
            7,
            decision,
            40,
            100,
        )
    }

    #[test]
    fn refused_connect_exchanges_no_bytes() {
        let out = faulted(FaultDecision::ConnectRefused);
        assert_eq!(out.error, Some(SessionError::ConnectionRefused));
        assert!(out.handshake_request.is_empty());
        assert_eq!(out.status, 0);
        assert!(out.frames.is_empty());
    }

    #[test]
    fn handshake_reject_is_a_real_bad_status() {
        let out = faulted(FaultDecision::HandshakeReject { status: 403 });
        assert_eq!(
            out.error,
            Some(SessionError::Handshake(
                sockscope_wsproto::HandshakeError::BadStatus(403)
            ))
        );
        assert_eq!(out.status, 403);
        assert!(String::from_utf8_lossy(&out.handshake_response).starts_with("HTTP/1.1 403"));
        assert!(out.frames.is_empty());
    }

    #[test]
    fn bad_accept_fails_validation_on_a_real_101() {
        let out = faulted(FaultDecision::BadAccept);
        assert_eq!(
            out.error,
            Some(SessionError::Handshake(
                sockscope_wsproto::HandshakeError::BadAccept
            ))
        );
        assert_eq!(out.status, 101);
        assert!(String::from_utf8_lossy(&out.handshake_response).starts_with("HTTP/1.1 101"));
    }

    #[test]
    fn truncated_frame_surfaces_as_dropped_with_sent_frames_kept() {
        let out = faulted(FaultDecision::TruncatedFrame);
        assert_eq!(out.error, Some(SessionError::Dropped));
        assert_eq!(out.status, 101);
        // The client's own upload crossed the wire before the cut.
        assert!(out.frames.iter().any(|f| f.direction == Direction::Sent));
        assert!(!out
            .frames
            .iter()
            .any(|f| f.direction == Direction::Received));
        assert!(!out.clean_close);
    }

    #[test]
    fn malformed_frame_is_a_typed_protocol_error() {
        let out = faulted(FaultDecision::MalformedFrame);
        assert_eq!(
            out.error,
            Some(SessionError::Protocol(ProtocolError::ReservedBitsSet))
        );
        assert!(!out.clean_close);
    }

    #[test]
    fn mid_message_drop_has_no_close_handshake() {
        let out = faulted(FaultDecision::MidMessageDrop);
        assert_eq!(out.error, Some(SessionError::Dropped));
        assert!(!out.clean_close);
    }

    #[test]
    fn stall_below_timeout_completes_with_ticks() {
        let url = Url::parse("ws://adnet.example/data.ws").unwrap();
        let exchanges = vec![WsExchange {
            send: vec![SentItem::Cookie],
            receive: vec![ReceivedItem::Json],
        }];
        let out = run_session(
            &url,
            "http://pub.example",
            "UA",
            None,
            &exchanges,
            &ctx(),
            7,
            FaultDecision::StalledRead,
            40,
            100,
        );
        assert_eq!(out.error, None);
        assert_eq!(out.ticks, 40);
        assert!(out.clean_close);
        assert!(out
            .frames
            .iter()
            .any(|f| f.direction == Direction::Received));
    }

    #[test]
    fn stall_at_timeout_aborts() {
        let url = Url::parse("ws://adnet.example/data.ws").unwrap();
        let exchanges = vec![WsExchange {
            send: vec![SentItem::Cookie],
            receive: vec![ReceivedItem::Json],
        }];
        let out = run_session(
            &url,
            "http://pub.example",
            "UA",
            None,
            &exchanges,
            &ctx(),
            7,
            FaultDecision::StalledRead,
            120,
            100,
        );
        assert_eq!(out.error, Some(SessionError::TimedOut));
        assert_eq!(out.ticks, 120);
        assert!(!out.clean_close);
    }

    #[test]
    fn faulted_outcomes_are_deterministic() {
        for decision in [
            FaultDecision::HandshakeReject { status: 503 },
            FaultDecision::BadAccept,
            FaultDecision::TruncatedFrame,
            FaultDecision::MalformedFrame,
        ] {
            let a = faulted(decision);
            let b = faulted(decision);
            assert_eq!(a.handshake_request, b.handshake_request);
            assert_eq!(a.handshake_response, b.handshake_response);
            assert_eq!(a.frames, b.frames);
            assert_eq!(a.error, b.error);
        }
    }

    #[test]
    fn sessions_are_deterministic() {
        let url = Url::parse("ws://a.example/s").unwrap();
        let ex = vec![WsExchange::send_only(vec![SentItem::UserId])];
        let a = clean(&url, "UA", None, &ex, 5);
        let b = clean(&url, "UA", None, &ex, 5);
        assert_eq!(a.handshake_request, b.handshake_request);
        assert_eq!(a.frames, b.frames);
    }
}
