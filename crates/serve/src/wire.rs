//! Protocol sniffing and incremental decoding over a byte stream.
//!
//! The reactor (and every client) receives bytes in arbitrary chunks — a
//! frame or line can arrive split at any byte boundary, or many can arrive
//! fused in one read. [`Decoder`] (server side, yields
//! [`Request`]s) and [`ResponseDecoder`] (client side, yields [`Response`]s)
//! absorb those chunks and emit complete messages, sniffing the protocol
//! from the first byte: [`frame::MAGIC`] opens the binary preamble, anything
//! else means JSON lines.
//!
//! Decoding distinguishes two failure severities. A malformed *message*
//! (bad JSON, bad frame body) is returned as `Step::Message(Err(_))` — the
//! stream is still in sync and decoding continues with the next message. A
//! broken *framing* layer (zero or oversized length prefix, an unterminated
//! line past [`frame::MAX_FRAME`]) is [`Step::Corrupt`]: there is no way to
//! find the next boundary, so the connection must close after an error
//! reply.

use crate::frame::{self, MAGIC, MAX_FRAME, SUPPORTED_VERSION};
use crate::protocol::{Request, Response};

/// The wire encoding one connection speaks, fixed at sniff time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Protocol {
    /// One JSON object per `\n`-terminated line (the PR 4 protocol; the
    /// compatibility fallback).
    #[default]
    Json,
    /// Length-prefixed binary frames after a `[0xB7, version]` preamble.
    Binary,
}

impl Protocol {
    /// The CLI spelling (`json` / `binary`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Json => "json",
            Protocol::Binary => "binary",
        }
    }

    /// Parses the CLI spelling.
    #[must_use]
    pub fn parse(s: &str) -> Option<Protocol> {
        match s {
            "json" => Some(Protocol::Json),
            "binary" => Some(Protocol::Binary),
            _ => None,
        }
    }
}

/// One decoding step: what the buffered bytes currently hold.
#[derive(Debug, PartialEq)]
pub enum Step<T> {
    /// Not enough bytes buffered for the next message; read more.
    NeedMore,
    /// The binary preamble arrived carrying the peer's proposed version.
    /// Emitted at most once, before any `Message`; the server answers with
    /// `[MAGIC, negotiated]`.
    Preamble(u8),
    /// One complete message: decoded, or a recoverable per-message error
    /// (the stream is still in sync).
    Message(Result<T, String>),
    /// Framing is lost; close the connection after the carried error text.
    Corrupt(String),
}

/// Internal framing state shared by both decoder directions.
#[derive(Debug)]
struct Framing {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` — compacted between `next()` calls so the
    /// hot path never memmoves per message.
    pos: usize,
    proto: Option<Protocol>,
    preamble_done: bool,
}

impl Framing {
    fn new() -> Self {
        Self {
            buf: Vec::new(),
            pos: 0,
            proto: None,
            preamble_done: false,
        }
    }

    /// Presets the protocol, skipping the sniff (client side: the caller
    /// chose what to speak and has already exchanged the preamble).
    fn preset(proto: Protocol) -> Self {
        Self {
            buf: Vec::new(),
            pos: 0,
            proto: Some(proto),
            preamble_done: true,
        }
    }

    fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `pos` is consumed.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Pulls the next framing unit out of the buffer: a line (JSON) or a
    /// frame payload (binary), or a preamble byte.
    fn next_unit(&mut self) -> Step<(usize, usize)> {
        let avail = self.buf.len() - self.pos;
        if avail == 0 {
            return Step::NeedMore;
        }
        let proto = match self.proto {
            Some(p) => p,
            None => {
                let p = if self.buf[self.pos] == MAGIC {
                    Protocol::Binary
                } else {
                    Protocol::Json
                };
                self.proto = Some(p);
                p
            }
        };
        match proto {
            Protocol::Json => {
                let pending = &self.buf[self.pos..];
                match pending.iter().position(|&b| b == b'\n') {
                    Some(nl) => {
                        let start = self.pos;
                        self.pos += nl + 1;
                        Step::Message(Ok((start, start + nl)))
                    }
                    None if pending.len() > MAX_FRAME => {
                        Step::Corrupt(format!("unterminated line exceeds {MAX_FRAME} bytes"))
                    }
                    None => Step::NeedMore,
                }
            }
            Protocol::Binary => {
                if !self.preamble_done {
                    if avail < 2 {
                        return Step::NeedMore;
                    }
                    // buf[pos] == MAGIC (that's what selected binary).
                    let version = self.buf[self.pos + 1];
                    self.pos += 2;
                    self.preamble_done = true;
                    return Step::Preamble(version);
                }
                if avail < 4 {
                    return Step::NeedMore;
                }
                let len = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap())
                    as usize;
                if len == 0 || len > MAX_FRAME {
                    return Step::Corrupt(format!("frame length {len} outside 1..={MAX_FRAME}"));
                }
                if avail < 4 + len {
                    return Step::NeedMore;
                }
                let start = self.pos + 4;
                self.pos = start + len;
                Step::Message(Ok((start, start + len)))
            }
        }
    }
}

/// Server-side incremental decoder: bytes in, [`Request`]s out.
#[derive(Debug)]
pub struct Decoder {
    framing: Framing,
}

impl Default for Decoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Decoder {
    /// A decoder that sniffs the protocol from the first byte.
    #[must_use]
    pub fn new() -> Self {
        Self {
            framing: Framing::new(),
        }
    }

    /// Appends raw bytes read from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.framing.feed(bytes);
    }

    /// The protocol this connection sniffed to (`None` before any byte).
    #[must_use]
    pub fn protocol(&self) -> Option<Protocol> {
        self.framing.proto
    }

    /// The version the server accepts for a client proposing `proposed`.
    #[must_use]
    pub fn negotiate(proposed: u8) -> u8 {
        proposed.min(SUPPORTED_VERSION)
    }

    /// Decodes the next request out of the buffered bytes.
    // Not an `Iterator`: yields a 4-way `Step`, not `Option<Item>`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Step<Request> {
        loop {
            match self.framing.next_unit() {
                Step::NeedMore => return Step::NeedMore,
                Step::Preamble(v) => return Step::Preamble(v),
                Step::Corrupt(msg) => return Step::Corrupt(msg),
                Step::Message(Ok((start, end))) => {
                    let proto = self.framing.proto.unwrap_or_default();
                    let bytes = &self.framing.buf[start..end];
                    match proto {
                        Protocol::Json => {
                            let text = String::from_utf8_lossy(bytes);
                            let text = text.trim();
                            if text.is_empty() {
                                continue; // blank line: keep-alive, not a request
                            }
                            return Step::Message(Request::parse(text));
                        }
                        Protocol::Binary => {
                            return Step::Message(frame::decode_request(bytes));
                        }
                    }
                }
                Step::Message(Err(_)) => unreachable!("framing never errs per-unit"),
            }
        }
    }
}

/// Client-side incremental decoder: bytes in, [`Response`]s out. The
/// protocol is preset (the client chose it), so no sniffing and no
/// preamble step — the caller consumes the 2-byte server preamble before
/// feeding this.
#[derive(Debug)]
pub struct ResponseDecoder {
    framing: Framing,
}

impl ResponseDecoder {
    /// A decoder for a connection known to speak `proto`.
    #[must_use]
    pub fn new(proto: Protocol) -> Self {
        Self {
            framing: Framing::preset(proto),
        }
    }

    /// Appends raw bytes read from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.framing.feed(bytes);
    }

    /// Decodes the next response out of the buffered bytes.
    // Not an `Iterator`: yields a 4-way `Step`, not `Option<Item>`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Step<Response> {
        loop {
            match self.framing.next_unit() {
                Step::NeedMore => return Step::NeedMore,
                Step::Preamble(v) => return Step::Preamble(v),
                Step::Corrupt(msg) => return Step::Corrupt(msg),
                Step::Message(Ok((start, end))) => {
                    let proto = self.framing.proto.unwrap_or_default();
                    let bytes = &self.framing.buf[start..end];
                    match proto {
                        Protocol::Json => {
                            let text = String::from_utf8_lossy(bytes);
                            let text = text.trim();
                            if text.is_empty() {
                                continue;
                            }
                            return Step::Message(Response::parse(text));
                        }
                        Protocol::Binary => {
                            return Step::Message(frame::decode_response(bytes));
                        }
                    }
                }
                Step::Message(Err(_)) => unreachable!("framing never errs per-unit"),
            }
        }
    }

    /// Unconsumed buffered bytes (diagnostics / tests).
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.framing.pending().len()
    }
}

/// Serializes `resp` for a connection speaking `proto`: one JSON line with
/// trailing newline, or one binary frame.
#[must_use]
pub fn encode_response(proto: Protocol, resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(proto, resp, &mut out);
    out
}

/// [`encode_response`] appending into a caller-owned buffer — the arena
/// path: workers encode into a pooled buffer whose capacity survives from
/// reply to reply instead of allocating a fresh `Vec` per response. Output
/// bytes are identical to [`encode_response`].
pub fn encode_response_into(proto: Protocol, resp: &Response, out: &mut Vec<u8>) {
    match proto {
        Protocol::Json => {
            out.extend_from_slice(resp.to_line().as_bytes());
            out.push(b'\n');
        }
        Protocol::Binary => frame::encode_response_into(resp, out),
    }
}

/// Serializes `req` for a connection speaking `proto`.
#[must_use]
pub fn encode_request(proto: Protocol, req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    encode_request_into(proto, req, &mut out);
    out
}

/// [`encode_request`] appending into a caller-owned buffer — the load
/// generator's staging path. Output bytes are identical to
/// [`encode_request`].
pub fn encode_request_into(proto: Protocol, req: &Request, out: &mut Vec<u8>) {
    match proto {
        Protocol::Json => match req {
            Request::Run {
                id,
                spec,
                deadline_ms,
                client,
            } => {
                out.extend_from_slice(
                    Request::run_line_as(*id, spec, *deadline_ms, client.as_deref()).as_bytes(),
                );
                out.push(b'\n');
            }
            Request::Ping => out.extend_from_slice(b"{\"cmd\":\"ping\"}\n"),
            Request::Health => out.extend_from_slice(b"{\"cmd\":\"health\"}\n"),
            Request::Metrics => out.extend_from_slice(b"{\"cmd\":\"metrics\"}\n"),
            Request::Shutdown => out.extend_from_slice(b"{\"cmd\":\"shutdown\"}\n"),
        },
        Protocol::Binary => frame::encode_request_into(req, out),
    }
}

/// The two-byte client preamble proposing `version`.
#[must_use]
pub fn client_preamble(version: u8) -> [u8; 2] {
    [MAGIC, version]
}

/// The two-byte server preamble reply accepting `version`.
#[must_use]
pub fn server_preamble(version: u8) -> [u8; 2] {
    [MAGIC, version]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpm_core::{JobSpec, KernelVariant, Model};

    fn run_req(id: u64) -> Request {
        Request::Run {
            id,
            spec: JobSpec {
                kernel: "sum".to_string(),
                model: Model::CilkFor,
                variant: KernelVariant::Reference,
                size: 4096,
                threads: 2,
            },
            deadline_ms: Some(100),
            client: None,
        }
    }

    #[test]
    fn sniffs_json_and_decodes_lines() {
        let mut d = Decoder::new();
        d.feed(b"{\"cmd\":\"ping\"}\n{\"cmd\":\"health\"}\n");
        assert_eq!(d.protocol(), None, "sniff happens on next(), not feed()");
        assert_eq!(d.next(), Step::Message(Ok(Request::Ping)));
        assert_eq!(d.protocol(), Some(Protocol::Json));
        assert_eq!(d.next(), Step::Message(Ok(Request::Health)));
        assert_eq!(d.next(), Step::NeedMore);
    }

    #[test]
    fn sniffs_binary_yields_preamble_then_requests() {
        let mut d = Decoder::new();
        let mut bytes = client_preamble(1).to_vec();
        bytes.extend_from_slice(&encode_request(Protocol::Binary, &run_req(5)));
        bytes.extend_from_slice(&encode_request(Protocol::Binary, &Request::Ping));
        d.feed(&bytes);
        assert_eq!(d.next(), Step::Preamble(1));
        assert_eq!(d.protocol(), Some(Protocol::Binary));
        assert_eq!(d.next(), Step::Message(Ok(run_req(5))));
        assert_eq!(d.next(), Step::Message(Ok(Request::Ping)));
        assert_eq!(d.next(), Step::NeedMore);
    }

    #[test]
    fn byte_at_a_time_feeding_reassembles_messages() {
        let mut bytes = client_preamble(1).to_vec();
        bytes.extend_from_slice(&encode_request(Protocol::Binary, &run_req(1)));
        bytes.extend_from_slice(&encode_request(Protocol::Binary, &run_req(2)));
        let mut d = Decoder::new();
        let mut got = Vec::new();
        for &b in &bytes {
            d.feed(&[b]);
            loop {
                match d.next() {
                    Step::NeedMore => break,
                    Step::Preamble(v) => got.push(format!("preamble {v}")),
                    Step::Message(Ok(r)) => got.push(format!("{r:?}")),
                    other => panic!("{other:?}"),
                }
            }
        }
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], "preamble 1");
        assert!(got[1].contains("id: 1"));
        assert!(got[2].contains("id: 2"));
    }

    #[test]
    fn bad_frame_body_is_recoverable_bad_length_is_corrupt() {
        let mut d = Decoder::new();
        let mut bytes = client_preamble(1).to_vec();
        // Well-framed garbage: length 3, unknown type 0x55.
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&[0x55, 0xAA, 0xBB]);
        // Then a valid request — decoding must reach it.
        bytes.extend_from_slice(&encode_request(Protocol::Binary, &Request::Ping));
        d.feed(&bytes);
        assert_eq!(d.next(), Step::Preamble(1));
        match d.next() {
            Step::Message(Err(e)) => assert!(e.contains("unknown request"), "{e}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(d.next(), Step::Message(Ok(Request::Ping)));

        // A zero length prefix is unrecoverable.
        d.feed(&0u32.to_le_bytes());
        match d.next() {
            Step::Corrupt(e) => assert!(e.contains("frame length"), "{e}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_json_line_is_corrupt() {
        let mut d = Decoder::new();
        d.feed(b"{"); // sniffed as JSON
        d.feed(&vec![b'x'; MAX_FRAME + 1]);
        match d.next() {
            Step::Corrupt(e) => assert!(e.contains("unterminated"), "{e}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn version_negotiation_caps_at_supported() {
        assert_eq!(Decoder::negotiate(0), 0);
        assert_eq!(Decoder::negotiate(1), 1);
        assert_eq!(Decoder::negotiate(200), SUPPORTED_VERSION);
    }

    #[test]
    fn response_decoder_handles_both_protocols() {
        let resp = Response::Ok {
            id: 3,
            value: 9.0,
            elapsed_ms: 1.5,
            queue_ms: 0.25,
        };
        for proto in [Protocol::Json, Protocol::Binary] {
            let mut d = ResponseDecoder::new(proto);
            d.feed(&encode_response(proto, &resp));
            assert_eq!(d.next(), Step::Message(Ok(resp.clone())), "{proto:?}");
            assert_eq!(d.next(), Step::NeedMore);
            assert_eq!(d.pending_len(), 0);
        }
    }

    #[test]
    fn encode_response_into_is_byte_identical_for_every_shape() {
        let resps = [
            Response::Pong,
            Response::ShuttingDown,
            Response::Ok {
                id: 17,
                value: -2.75,
                elapsed_ms: 3.5,
                queue_ms: 0.125,
            },
            Response::Error {
                id: Some(9),
                code: "deadline",
                message: "budget expired".to_string(),
            },
            Response::Error {
                id: None,
                code: "parse",
                message: String::new(),
            },
            Response::Health {
                live_workers: 1,
                dead_workers: 2,
                queue_depth: 3,
                inflight: 4,
                admitted: 5,
                completed: 6,
                shed: 7,
                distinct_clients: 8,
            },
            Response::Metrics {
                exposition: "# TYPE a counter\na 1\n".to_string(),
            },
        ];
        for proto in [Protocol::Json, Protocol::Binary] {
            // Pipelined replies append into one buffer; each appended frame
            // must match its standalone encoding regardless of what precedes
            // it.
            let mut appended = b"prefix".to_vec();
            let mut expected = b"prefix".to_vec();
            for resp in &resps {
                encode_response_into(proto, resp, &mut appended);
                expected.extend_from_slice(&encode_response(proto, resp));
            }
            assert_eq!(appended, expected, "{proto:?}");
        }
    }

    #[test]
    fn encode_request_into_is_byte_identical_for_every_shape() {
        let reqs = [
            Request::Ping,
            Request::Health,
            Request::Metrics,
            Request::Shutdown,
            run_req(7),
        ];
        for proto in [Protocol::Json, Protocol::Binary] {
            let mut appended = b"preamble".to_vec();
            let mut expected = b"preamble".to_vec();
            for req in &reqs {
                encode_request_into(proto, req, &mut appended);
                expected.extend_from_slice(&encode_request(proto, req));
            }
            assert_eq!(appended, expected, "{proto:?}");
        }
    }

    #[test]
    fn protocol_names_parse() {
        assert_eq!(Protocol::parse("json"), Some(Protocol::Json));
        assert_eq!(Protocol::parse("binary"), Some(Protocol::Binary));
        assert_eq!(Protocol::parse("grpc"), None);
        assert_eq!(Protocol::Binary.name(), "binary");
    }
}
