//! HTTP/2 flow-control ledgers, stream-state legality and HPACK sync.
//!
//! One checker attaches to each endpoint and watches both plaintext frame
//! streams from that endpoint's vantage: the bytes it seals (outbound,
//! observed before TLS) and the bytes it decrypts (inbound, observed after
//! TLS). From those two streams alone — no access to `H2Connection`
//! internals — the checker maintains an independent double-entry ledger of
//! every flow-control window and replays the stream state machine:
//!
//! * a `DATA` frame the endpoint *sends* must fit in both the connection
//!   and the stream send window as advertised by the peer (windows may go
//!   negative only through a `SETTINGS` shrink, and then the sender must
//!   stop — so sending past the window is always a violation, RFC 7540
//!   §6.9.2);
//! * a `DATA` frame the endpoint *receives* must fit in the windows this
//!   endpoint advertised, **including** frames for streams it has already
//!   reset — their connection-window debit happens exactly once, which is
//!   what keeps the §IV-D `RST_STREAM` flush from corrupting the ledger;
//! * `WINDOW_UPDATE` increments must be nonzero and never lift a window
//!   past 2^31−1;
//! * frames must be legal for the stream's state (no `DATA` before
//!   `HEADERS`, none after `END_STREAM` from the same sender, no
//!   `WINDOW_UPDATE` for idle streams);
//! * every `HEADERS` block must HPACK-decode against a shadow decoder, and
//!   declared dynamic-table sizes must respect the receiving side's
//!   advertised `SETTINGS_HEADER_TABLE_SIZE` (table-size sync, RFC 7541
//!   §4.2).

use crate::{Layer, ViolationSink};
use h2priv_http2::{
    hpack, pad_overhead, Frame, FrameDecoder, SettingId, StreamId, DEFAULT_WINDOW, MAX_WINDOW,
};
use h2priv_netsim::SimTime;
use std::collections::HashMap;

/// Per-stream ledger entry.
struct LedgerStream {
    /// Bytes we may still send on this stream (peer's advertised window).
    send: i64,
    /// Bytes the peer may still send to us (our advertised window).
    recv: i64,
    /// We sent END_STREAM.
    local_done: bool,
    /// Peer sent END_STREAM.
    remote_done: bool,
    /// Either side sent RST_STREAM: frames still in flight are tolerated
    /// (and connection-accounted), but nothing new may originate here.
    reset: bool,
}

/// One endpoint's conformance ledger.
pub struct H2LedgerChecker {
    label: &'static str,
    sink: ViolationSink,
    sent: FrameDecoder,
    recv: FrameDecoder,
    /// Connection-level send window (peer's view of what we may send).
    conn_send: i64,
    /// Connection-level receive window (what we advertised).
    conn_recv: i64,
    streams: HashMap<StreamId, LedgerStream>,
    /// initial_window_size the peer advertised (initializes `send`).
    peer_initial: i64,
    /// initial_window_size we advertised (initializes `recv`).
    local_initial: i64,
    /// SETTINGS_HEADER_TABLE_SIZE the peer advertised: caps what *our*
    /// encoder may declare.
    peer_table_cap: usize,
    /// SETTINGS_HEADER_TABLE_SIZE we advertised: caps the peer's encoder.
    local_table_cap: usize,
    /// SETTINGS_MAX_FRAME_SIZE the peer advertised: bounds what we emit
    /// (padding included).
    peer_max_frame: usize,
    /// SETTINGS_MAX_FRAME_SIZE we advertised: bounds what the peer emits.
    local_max_frame: usize,
    /// Shadow decoder for header blocks we send.
    hpack_tx: hpack::Decoder,
    /// Shadow decoder for header blocks we receive.
    hpack_rx: hpack::Decoder,
}

/// A frame decoder for one direction. The ledger reads only each DATA
/// frame's length, so bodies are not copied.
fn opaque_decoder(expect_preface: bool) -> FrameDecoder {
    let mut decoder = FrameDecoder::new(expect_preface);
    decoder.set_opaque_data(true);
    decoder
}

impl H2LedgerChecker {
    /// Creates a checker for one endpoint. `is_client` selects which of
    /// the two byte streams carries the connection preface.
    pub fn new(label: &'static str, is_client: bool, sink: ViolationSink) -> Self {
        H2LedgerChecker {
            label,
            sink,
            sent: opaque_decoder(is_client),
            recv: opaque_decoder(!is_client),
            conn_send: DEFAULT_WINDOW as i64,
            conn_recv: DEFAULT_WINDOW as i64,
            streams: HashMap::new(),
            peer_initial: DEFAULT_WINDOW as i64,
            local_initial: DEFAULT_WINDOW as i64,
            peer_table_cap: 4_096,
            local_table_cap: 4_096,
            peer_max_frame: h2priv_http2::DEFAULT_MAX_FRAME_SIZE,
            local_max_frame: h2priv_http2::DEFAULT_MAX_FRAME_SIZE,
            hpack_tx: hpack::Decoder::new(),
            hpack_rx: hpack::Decoder::new(),
        }
    }

    /// RFC-legality of an emitted/observed pad schedule: the padded payload
    /// (content + pad-length byte + padding) must fit the receiving side's
    /// advertised `SETTINGS_MAX_FRAME_SIZE`. Pad lengths >= payload length
    /// and non-zero pad octets never reach this check — the decoders above
    /// reject those frames outright (PROTOCOL_ERROR), surfacing as
    /// `frame-decode-*` violations.
    fn check_pad_legal(
        &self,
        dir: &str,
        stream_id: StreamId,
        content_len: usize,
        pad: u8,
        max_frame: usize,
        now: SimTime,
    ) {
        let total = content_len + 1 + pad as usize;
        if total > max_frame {
            self.sink.report(
                Layer::Http2,
                "pad-exceeds-max-frame",
                now,
                format!(
                    "{}: {dir} padded payload {total}B on {stream_id} > SETTINGS_MAX_FRAME_SIZE {max_frame}",
                    self.label
                ),
            );
        }
    }

    /// Feeds plaintext bytes this endpoint just sealed for the peer.
    pub fn on_sent(&mut self, bytes: &[u8], now: SimTime) {
        self.sent.push(bytes);
        loop {
            match self.sent.next_frame() {
                Ok(Some(frame)) => self.handle_sent(frame, now),
                Ok(None) => break,
                Err(e) => {
                    self.sink.report(
                        Layer::Http2,
                        "frame-decode-sent",
                        now,
                        format!("{}: {e:?}", self.label),
                    );
                    return;
                }
            }
        }
    }

    /// Feeds plaintext bytes this endpoint just decrypted from the peer.
    pub fn on_received(&mut self, bytes: &[u8], now: SimTime) {
        self.recv.push(bytes);
        loop {
            match self.recv.next_frame() {
                Ok(Some(frame)) => self.handle_received(frame, now),
                Ok(None) => break,
                Err(e) => {
                    self.sink.report(
                        Layer::Http2,
                        "frame-decode-recv",
                        now,
                        format!("{}: {e:?}", self.label),
                    );
                    return;
                }
            }
        }
    }

    fn entry(
        streams: &mut HashMap<StreamId, LedgerStream>,
        id: StreamId,
        send_init: i64,
        recv_init: i64,
    ) -> &mut LedgerStream {
        streams.entry(id).or_insert(LedgerStream {
            send: send_init,
            recv: recv_init,
            local_done: false,
            remote_done: false,
            reset: false,
        })
    }

    // ---- outbound -------------------------------------------------------

    fn handle_sent(&mut self, frame: Frame, now: SimTime) {
        let sink = self.sink.clone();
        let label = self.label;
        let report = |rule: &'static str, detail: String| {
            sink.report(Layer::Http2, rule, now, format!("{label}: {detail}"));
        };
        match frame {
            Frame::Headers {
                stream_id,
                end_stream,
                header_block,
                pad,
            } => {
                if let Some(p) = pad {
                    self.check_pad_legal(
                        "sent",
                        stream_id,
                        header_block.len(),
                        p,
                        self.peer_max_frame,
                        now,
                    );
                }
                if let Err(e) = self.hpack_tx.decode(&header_block) {
                    report("hpack-desync-sent", format!("stream {stream_id}: {e}"));
                }
                if let Some(update) = self.hpack_tx.max_size_update() {
                    if update > self.peer_table_cap {
                        report(
                            "hpack-table-size",
                            format!(
                                "declared table {update}B > peer cap {}B",
                                self.peer_table_cap
                            ),
                        );
                    }
                }
                let known = self.streams.contains_key(&stream_id);
                let entry = Self::entry(
                    &mut self.streams,
                    stream_id,
                    self.peer_initial,
                    self.local_initial,
                );
                // HEADERS on a stream the *peer* reset is the inherent
                // HPACK race, not a breach: a block encoded before the
                // RST_STREAM was processed cannot be dropped from the send
                // queue without desynchronizing the connection-wide
                // compression context (RFC 7541 (4.3)), so it legitimately
                // reaches the wire and the peer decodes-then-discards it.
                // HEADERS after our own END_STREAM has no such excuse.
                if known && entry.local_done && !entry.reset {
                    report(
                        "headers-after-close",
                        format!("HEADERS sent on ended stream {stream_id}"),
                    );
                } else if end_stream {
                    entry.local_done = true;
                }
            }
            Frame::Data {
                stream_id,
                end_stream,
                data,
                pad,
            } => {
                if let Some(p) = pad {
                    self.check_pad_legal(
                        "sent",
                        stream_id,
                        data.len(),
                        p,
                        self.peer_max_frame,
                        now,
                    );
                }
                // RFC 7540 §6.9.1: the whole payload — pad-length byte and
                // padding included — debits flow-control windows on both
                // ledgers, or padded senders would double-credit.
                let len = (data.len() + pad_overhead(pad)) as i64;
                if self.conn_send < len {
                    report(
                        "conn-send-window",
                        format!(
                            "DATA {len}B on {stream_id} exceeds connection send window {}",
                            self.conn_send
                        ),
                    );
                }
                self.conn_send -= len;
                match self.streams.get_mut(&stream_id) {
                    None => report(
                        "data-before-headers",
                        format!("DATA sent on idle stream {stream_id}"),
                    ),
                    Some(entry) => {
                        if entry.local_done || entry.reset {
                            let state = if entry.reset { "reset" } else { "ended" };
                            report(
                                "data-after-close",
                                format!("DATA sent on {state} stream {stream_id}"),
                            );
                        }
                        if entry.send < len {
                            report(
                                "stream-send-window",
                                format!(
                                    "DATA {len}B exceeds stream {stream_id} send window {}",
                                    entry.send
                                ),
                            );
                        }
                        entry.send -= len;
                        if end_stream {
                            entry.local_done = true;
                        }
                    }
                }
            }
            Frame::WindowUpdate {
                stream_id,
                increment,
            } => {
                // A WINDOW_UPDATE we send raises what the peer may send us.
                if increment == 0 {
                    report(
                        "window-update-zero",
                        format!("zero increment sent for {stream_id}"),
                    );
                    return;
                }
                if stream_id == StreamId::CONNECTION {
                    self.conn_recv += increment as i64;
                    if self.conn_recv > MAX_WINDOW {
                        report(
                            "window-overflow",
                            format!("connection recv window grew to {}", self.conn_recv),
                        );
                    }
                } else if let Some(entry) = self.streams.get_mut(&stream_id) {
                    entry.recv += increment as i64;
                    if entry.recv > MAX_WINDOW {
                        let grown = entry.recv;
                        report(
                            "window-overflow",
                            format!("stream {stream_id} recv window grew to {grown}"),
                        );
                    }
                } else {
                    report(
                        "window-update-idle",
                        format!("WINDOW_UPDATE sent for idle stream {stream_id}"),
                    );
                }
            }
            Frame::RstStream { stream_id, .. } => {
                Self::entry(
                    &mut self.streams,
                    stream_id,
                    self.peer_initial,
                    self.local_initial,
                )
                .reset = true;
            }
            Frame::Settings { ack, settings } => {
                if !ack {
                    self.apply_settings(&settings, true);
                }
            }
            Frame::Ping { .. } | Frame::GoAway { .. } | Frame::Priority { .. } => {}
        }
    }

    // ---- inbound --------------------------------------------------------

    fn handle_received(&mut self, frame: Frame, now: SimTime) {
        let sink = self.sink.clone();
        let label = self.label;
        let report = |rule: &'static str, detail: String| {
            sink.report(Layer::Http2, rule, now, format!("{label}: {detail}"));
        };
        match frame {
            Frame::Headers {
                stream_id,
                end_stream,
                header_block,
                pad,
            } => {
                if let Some(p) = pad {
                    self.check_pad_legal(
                        "recv",
                        stream_id,
                        header_block.len(),
                        p,
                        self.local_max_frame,
                        now,
                    );
                }
                // Shadow-decode every block — including blocks for streams
                // we reset. The compression context is connection-wide;
                // skipping one block desynchronizes everything after it.
                if let Err(e) = self.hpack_rx.decode(&header_block) {
                    report("hpack-desync-recv", format!("stream {stream_id}: {e}"));
                }
                if self.hpack_rx.dynamic_size() > self.local_table_cap {
                    report(
                        "hpack-table-size",
                        format!(
                            "peer table {}B > our cap {}B",
                            self.hpack_rx.dynamic_size(),
                            self.local_table_cap
                        ),
                    );
                }
                let known = self.streams.contains_key(&stream_id);
                let entry = Self::entry(
                    &mut self.streams,
                    stream_id,
                    self.peer_initial,
                    self.local_initial,
                );
                if known && entry.remote_done && !entry.reset {
                    report(
                        "headers-after-end-stream",
                        format!("HEADERS received on ended stream {stream_id}"),
                    );
                } else if end_stream {
                    entry.remote_done = true;
                }
            }
            Frame::Data {
                stream_id,
                end_stream,
                data,
                pad,
            } => {
                if let Some(p) = pad {
                    self.check_pad_legal(
                        "recv",
                        stream_id,
                        data.len(),
                        p,
                        self.local_max_frame,
                        now,
                    );
                }
                // The padded total debits the windows (RFC 7540 §6.9.1),
                // exactly as on the send side.
                let len = (data.len() + pad_overhead(pad)) as i64;
                // Connection-level debit is unconditional: DATA for a
                // stream we reset was still in flight against the
                // connection window and must be accounted exactly once.
                if self.conn_recv < len {
                    report(
                        "conn-recv-window",
                        format!(
                            "peer DATA {len}B on {stream_id} overran connection window {}",
                            self.conn_recv
                        ),
                    );
                }
                self.conn_recv -= len;
                match self.streams.get_mut(&stream_id) {
                    None => report(
                        "data-on-idle",
                        format!("DATA received on idle stream {stream_id}"),
                    ),
                    Some(entry) => {
                        if entry.remote_done && !entry.reset {
                            report(
                                "data-after-end-stream",
                                format!("DATA received on ended stream {stream_id}"),
                            );
                        }
                        if entry.recv < len {
                            report(
                                "stream-recv-window",
                                format!(
                                    "peer DATA {len}B overran stream {stream_id} window {}",
                                    entry.recv
                                ),
                            );
                        }
                        entry.recv -= len;
                        if end_stream {
                            entry.remote_done = true;
                        }
                    }
                }
            }
            Frame::WindowUpdate {
                stream_id,
                increment,
            } => {
                if increment == 0 {
                    report(
                        "window-update-zero",
                        format!("zero increment received for {stream_id}"),
                    );
                    return;
                }
                if stream_id == StreamId::CONNECTION {
                    self.conn_send += increment as i64;
                    if self.conn_send > MAX_WINDOW {
                        report(
                            "window-overflow",
                            format!("connection send window grew to {}", self.conn_send),
                        );
                    }
                } else if let Some(entry) = self.streams.get_mut(&stream_id) {
                    entry.send += increment as i64;
                    if entry.send > MAX_WINDOW {
                        let grown = entry.send;
                        report(
                            "window-overflow",
                            format!("stream {stream_id} send window grew to {grown}"),
                        );
                    }
                }
                // WINDOW_UPDATE for a stream we have no record of can race
                // our own RST teardown; unlike DATA it carries no payload
                // to account, so it is tolerated.
            }
            Frame::RstStream { stream_id, .. } => {
                Self::entry(
                    &mut self.streams,
                    stream_id,
                    self.peer_initial,
                    self.local_initial,
                )
                .reset = true;
            }
            Frame::Settings { ack, settings } => {
                if !ack {
                    self.apply_settings(&settings, false);
                }
            }
            Frame::Ping { .. } | Frame::GoAway { .. } | Frame::Priority { .. } => {}
        }
    }

    /// Applies a SETTINGS frame to the ledger. `sent_by_us` selects which
    /// side's windows it governs: settings we send size our *receive*
    /// windows; settings the peer sends size our *send* windows
    /// (RFC 7540 §6.9.2: changed initial windows adjust open streams).
    fn apply_settings(&mut self, settings: &[(SettingId, u32)], sent_by_us: bool) {
        for &(id, value) in settings {
            match id {
                SettingId::InitialWindowSize => {
                    if sent_by_us {
                        let delta = value as i64 - self.local_initial;
                        self.local_initial = value as i64;
                        for entry in self.streams.values_mut() {
                            entry.recv += delta;
                        }
                    } else {
                        let delta = value as i64 - self.peer_initial;
                        self.peer_initial = value as i64;
                        for entry in self.streams.values_mut() {
                            entry.send += delta;
                        }
                    }
                }
                SettingId::HeaderTableSize => {
                    if sent_by_us {
                        self.local_table_cap = value as usize;
                    } else {
                        self.peer_table_cap = value as usize;
                    }
                }
                SettingId::MaxFrameSize => {
                    // Our advertised limit bounds inbound frames; the
                    // peer's bounds what we send. Teach the shadow
                    // decoders so oversized (incl. over-padded) frames
                    // surface as decode violations.
                    if sent_by_us {
                        self.local_max_frame = value as usize;
                        self.recv.set_max_frame_size(value as usize);
                    } else {
                        self.peer_max_frame = value as usize;
                        self.sent.set_max_frame_size(value as usize);
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_http2::{encode_frame, ErrorCode, CLIENT_PREFACE};

    fn data(stream: u32, len: usize, end: bool) -> Vec<u8> {
        data_padded(stream, len, end, None)
    }

    fn data_padded(stream: u32, len: usize, end: bool, pad: Option<u8>) -> Vec<u8> {
        encode_frame(&Frame::Data {
            stream_id: StreamId(stream),
            end_stream: end,
            data: h2priv_bytes::SharedBytes::from_vec(vec![0u8; len]),
            pad,
        })
    }

    fn headers(stream: u32, end: bool) -> Vec<u8> {
        let block = hpack::Encoder::new().encode(&[hpack::HeaderField::new(":method", "GET")]);
        encode_frame(&Frame::Headers {
            stream_id: StreamId(stream),
            end_stream: end,
            header_block: block,
            pad: None,
        })
    }

    fn checker() -> (H2LedgerChecker, ViolationSink) {
        let sink = ViolationSink::new();
        let mut c = H2LedgerChecker::new("server", false, sink.clone());
        // The server's inbound stream starts with the client preface.
        c.on_received(CLIENT_PREFACE, SimTime::ZERO);
        (c, sink)
    }

    #[test]
    fn clean_request_response_is_silent() {
        let (mut c, sink) = checker();
        c.on_received(&headers(1, true), SimTime::ZERO);
        c.on_sent(&headers(1, false), SimTime::ZERO);
        c.on_sent(&data(1, 1000, true), SimTime::ZERO);
        assert!(sink.is_empty(), "violations: {:?}", sink.take().0);
    }

    #[test]
    fn sending_past_connection_window_is_flagged() {
        let (mut c, sink) = checker();
        c.on_received(&headers(1, true), SimTime::ZERO);
        c.on_sent(&headers(1, false), SimTime::ZERO);
        // Default window is 65 535: five 16 000-byte frames overrun it.
        for _ in 0..5 {
            c.on_sent(&data(1, 16_000, false), SimTime::ZERO);
        }
        let violations = sink.take().0;
        assert!(
            violations
                .iter()
                .any(|v| v.rule == "conn-send-window" || v.rule == "stream-send-window"),
            "violations: {violations:?}"
        );
    }

    #[test]
    fn data_after_end_stream_is_flagged() {
        let (mut c, sink) = checker();
        c.on_received(&headers(1, true), SimTime::ZERO);
        c.on_received(&data(1, 10, false), SimTime::ZERO);
        let violations = sink.take().0;
        assert!(
            violations.iter().any(|v| v.rule == "data-after-end-stream"),
            "violations: {violations:?}"
        );
    }

    #[test]
    fn reset_stream_data_still_debits_connection_window_once() {
        let (mut c, sink) = checker();
        c.on_received(&headers(1, true), SimTime::ZERO);
        c.on_sent(&headers(1, false), SimTime::ZERO);
        // We reset the stream; a DATA frame racing the reset arrives after.
        c.on_sent(
            &encode_frame(&Frame::RstStream {
                stream_id: StreamId(1),
                error_code: ErrorCode::Cancel,
            }),
            SimTime::ZERO,
        );
        let before = c.conn_recv;
        c.on_received(&data(1, 500, false), SimTime::ZERO);
        assert_eq!(c.conn_recv, before - 500, "debited exactly once");
        assert!(sink.is_empty(), "in-flight DATA after our RST is legal");
    }

    #[test]
    fn headers_after_peer_reset_is_tolerated() {
        let (mut c, sink) = checker();
        c.on_received(&headers(1, false), SimTime::ZERO);
        // Peer resets the stream while our response HEADERS block is
        // already encoded and queued: it must still go out (dropping it
        // would desync the shared HPACK context), and that is not a
        // violation.
        c.on_received(
            &encode_frame(&Frame::RstStream {
                stream_id: StreamId(1),
                error_code: ErrorCode::Cancel,
            }),
            SimTime::ZERO,
        );
        c.on_sent(&headers(1, true), SimTime::ZERO);
        assert!(sink.is_empty(), "violations: {:?}", sink.take().0);
    }

    #[test]
    fn headers_after_own_end_stream_is_flagged() {
        let (mut c, sink) = checker();
        c.on_received(&headers(1, true), SimTime::ZERO);
        c.on_sent(&headers(1, true), SimTime::ZERO);
        c.on_sent(&headers(1, true), SimTime::ZERO);
        assert!(
            sink.take()
                .0
                .iter()
                .any(|v| v.rule == "headers-after-close"),
            "second HEADERS after our END_STREAM must be flagged"
        );
    }

    #[test]
    fn zero_window_update_is_flagged() {
        let (mut c, sink) = checker();
        c.on_received(&headers(1, true), SimTime::ZERO);
        c.on_received(
            &encode_frame(&Frame::WindowUpdate {
                stream_id: StreamId(1),
                increment: 0,
            }),
            SimTime::ZERO,
        );
        assert!(sink.take().0.iter().any(|v| v.rule == "window-update-zero"));
    }

    #[test]
    fn padded_data_debits_full_payload_both_directions() {
        let (mut c, sink) = checker();
        c.on_received(&headers(1, false), SimTime::ZERO);
        c.on_sent(&headers(1, false), SimTime::ZERO);
        let send_before = c.conn_send;
        // 100 content bytes + 1 pad-length byte + 29 pad = 130 flow bytes.
        c.on_sent(&data_padded(1, 100, false, Some(29)), SimTime::ZERO);
        assert_eq!(c.conn_send, send_before - 130, "padding debits the ledger");
        let recv_before = c.conn_recv;
        c.on_received(&data_padded(1, 40, false, Some(9)), SimTime::ZERO);
        assert_eq!(c.conn_recv, recv_before - 50);
        assert!(sink.is_empty(), "violations: {:?}", sink.take().0);
    }

    #[test]
    fn padded_overrun_hidden_by_stripping_is_caught() {
        // A padded sender that only accounted the content bytes would
        // overrun the window by the padding overhead: five frames of
        // 13 000 content + 255 pad (13 256 flow bytes each) blow the
        // 65 535-byte window even though 5 × 13 000 alone would fit.
        let (mut c, sink) = checker();
        c.on_received(&headers(1, true), SimTime::ZERO);
        c.on_sent(&headers(1, false), SimTime::ZERO);
        for _ in 0..5 {
            c.on_sent(&data_padded(1, 13_000, false, Some(255)), SimTime::ZERO);
        }
        let violations = sink.take().0;
        assert!(
            violations
                .iter()
                .any(|v| v.rule == "conn-send-window" || v.rule == "stream-send-window"),
            "violations: {violations:?}"
        );
    }

    #[test]
    fn illegal_pad_length_is_a_decode_violation() {
        let (mut c, sink) = checker();
        c.on_received(&headers(1, true), SimTime::ZERO);
        // Hand-built PADDED DATA with pad_len == payload length (RFC 7540
        // §6.1 PROTOCOL_ERROR): [len=3][DATA][PADDED][stream 1] 3,0,0.
        let raw = [0, 0, 3, 0x0, 0x8, 0, 0, 0, 1, 3, 0, 0];
        c.on_received(&raw, SimTime::ZERO);
        assert!(
            sink.take().0.iter().any(|v| v.rule == "frame-decode-recv"),
            "illegal pad length must surface as a decode violation"
        );
    }

    #[test]
    fn non_zero_padding_is_a_decode_violation() {
        let (mut c, sink) = checker();
        c.on_received(&headers(1, true), SimTime::ZERO);
        let raw = [0, 0, 4, 0x0, 0x8, 0, 0, 0, 1, 2, 9, 0xAB, 0xCD];
        c.on_received(&raw, SimTime::ZERO);
        assert!(
            sink.take().0.iter().any(|v| v.rule == "frame-decode-recv"),
            "non-zero pad octets must surface as a decode violation"
        );
    }

    #[test]
    fn preface_is_consumed_for_client_streams() {
        let sink = ViolationSink::new();
        let mut c = H2LedgerChecker::new("client", true, sink.clone());
        let mut bytes = CLIENT_PREFACE.to_vec();
        bytes.extend_from_slice(&headers(1, true));
        c.on_sent(&bytes, SimTime::ZERO);
        assert!(sink.is_empty(), "violations: {:?}", sink.take().0);
    }
}
