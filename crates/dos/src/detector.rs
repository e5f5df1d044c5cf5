//! Online event-sequence detector for slow-rate HTTP/2 DoS.
//!
//! [`DosDetector`] is the online counterpart of the offline conformance
//! tap: a frame-header scanner sitting on the server's TLS-terminating
//! edge (the first point where client plaintext exists — a mid-path
//! gateway sees only ciphertext), fed the client→server byte stream as it
//! arrives. It keeps O(1) state per connection and parses only frame
//! headers plus two cheap payloads (SETTINGS and WINDOW_UPDATE), so it
//! can run inline at gateway rates.
//!
//! Each slow-rate workload has an *event-sequence* signature no honest
//! client produces under the calibrated model:
//!
//! * **slow-headers** — a HEADERS/CONTINUATION sequence still open after
//!   several fragments and a time span; honest stacks emit END_HEADERS in
//!   the first frame (this repo's codec never emits CONTINUATION at all).
//! * **slow-read** — a run of tiny WINDOW_UPDATE increments; the honest
//!   browser re-credits in half-window (≈1 MiB) steps.
//! * **settings-flood** — non-ACK SETTINGS above a rate; a handshake
//!   contributes exactly one.
//! * **zero-window-hoard** — `SETTINGS_INITIAL_WINDOW_SIZE = 0` plus many
//!   opened streams and a silence window; the honest client advertises a
//!   2 MiB stream window.
//!
//! The signatures are *structural*: benign traffic cannot fire them even
//! in the tail (pinned by the false-positive suite in `tests/`), which is
//! what makes zero-FP detection honest rather than tuned.

use h2priv_http2::{FrameHeader, FrameType, StreamId, CLIENT_PREFACE, FRAME_HEADER_LEN};
use h2priv_netsim::{SimDuration, SimTime};

/// Detection thresholds. Defaults sit an order of magnitude outside
/// anything the calibrated honest client does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Fragments before an open header sequence is suspect.
    pub header_fragments: u64,
    /// Age before an open header sequence is suspect.
    pub header_span: SimDuration,
    /// WINDOW_UPDATE increments at or below this are "tiny".
    pub tiny_update_max: u32,
    /// Tiny updates that trigger the slow-read alert.
    pub tiny_updates: u64,
    /// Window for the SETTINGS rate signature.
    pub settings_window: SimDuration,
    /// Non-ACK SETTINGS allowed per window.
    pub settings_limit: u64,
    /// Zero-window streams held before the hoard alert.
    pub hoard_streams: u64,
    /// Silence after the last open before the hoard alert fires.
    pub hoard_hold: SimDuration,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            header_fragments: 4,
            header_span: SimDuration::from_millis(1500),
            tiny_update_max: 64,
            tiny_updates: 8,
            settings_window: SimDuration::from_secs(1),
            settings_limit: 15,
            hoard_streams: 16,
            hoard_hold: SimDuration::from_secs(2),
        }
    }
}

/// Which signature fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlertKind {
    /// Trickled HEADERS/CONTINUATION sequence.
    SlowHeaders,
    /// Tiny WINDOW_UPDATE drip.
    SlowRead,
    /// Non-ACK SETTINGS above rate.
    SettingsFlood,
    /// Zero-window stream hoarding.
    ZeroWindowHoard,
}

impl AlertKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::SlowHeaders => "slow-headers",
            AlertKind::SlowRead => "slow-read",
            AlertKind::SettingsFlood => "settings-flood",
            AlertKind::ZeroWindowHoard => "zero-window-hoard",
        }
    }
}

/// One detector alert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// Signature that fired.
    pub kind: AlertKind,
    /// Offending stream, when the signature is per-stream.
    pub stream: Option<StreamId>,
    /// When it fired.
    pub at: SimTime,
    /// Human-readable evidence.
    pub detail: String,
}

/// Open header-sequence tracking.
#[derive(Debug, Clone, Copy)]
struct OpenSequence {
    stream: StreamId,
    fragments: u64,
    first_at: SimTime,
}

/// Per-connection online detector. Feed it client→server plaintext via
/// [`on_bytes`](Self::on_bytes); poll [`next_wakeup`](Self::next_wakeup)
/// and call [`on_wakeup`](Self::on_wakeup) so time-triggered signatures
/// (sequence age, hoard silence) fire without inbound traffic.
#[derive(Debug)]
pub struct DosDetector {
    config: DetectorConfig,
    /// Partial frame bytes awaiting a complete header (+ needed payload).
    buf: Vec<u8>,
    preface_remaining: usize,
    seq: Option<OpenSequence>,
    tiny_updates: u64,
    settings_mark: (u64, SimTime),
    settings_seen: u64,
    /// Client's advertised SETTINGS_INITIAL_WINDOW_SIZE, once seen.
    client_window: Option<u32>,
    streams_opened: u64,
    last_open_at: SimTime,
    /// WINDOW_UPDATE seen since the last stream open (clears the hoard's
    /// "silence" precondition).
    credit_since_open: bool,
    alerts: Vec<Alert>,
    fired: [bool; 4],
}

impl DosDetector {
    /// Creates a detector with the given thresholds.
    pub fn new(config: DetectorConfig) -> Self {
        DosDetector {
            config,
            buf: Vec::new(),
            preface_remaining: CLIENT_PREFACE.len(),
            seq: None,
            tiny_updates: 0,
            settings_mark: (0, SimTime::ZERO),
            settings_seen: 0,
            client_window: None,
            streams_opened: 0,
            last_open_at: SimTime::ZERO,
            credit_since_open: false,
            alerts: Vec::new(),
            fired: [false; 4],
        }
    }

    /// Alerts raised so far (at most one per [`AlertKind`]).
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// True once any signature has fired.
    pub fn alerted(&self) -> bool {
        !self.alerts.is_empty()
    }

    fn fire(&mut self, kind: AlertKind, stream: Option<StreamId>, at: SimTime, detail: String) {
        let slot = match kind {
            AlertKind::SlowHeaders => 0,
            AlertKind::SlowRead => 1,
            AlertKind::SettingsFlood => 2,
            AlertKind::ZeroWindowHoard => 3,
        };
        if self.fired[slot] {
            return;
        }
        self.fired[slot] = true;
        self.alerts.push(Alert {
            kind,
            stream,
            at,
            detail,
        });
    }

    /// Scans newly arrived client→server plaintext.
    pub fn on_bytes(&mut self, bytes: &[u8], now: SimTime) {
        let mut bytes = bytes;
        if self.preface_remaining > 0 {
            let n = self.preface_remaining.min(bytes.len());
            self.preface_remaining -= n;
            bytes = &bytes[n..];
            if bytes.is_empty() {
                return;
            }
        }
        self.buf.extend_from_slice(bytes);
        while let Some(h) = FrameHeader::decode(&self.buf) {
            let payload_end = FRAME_HEADER_LEN + h.len;
            if self.buf.len() < payload_end {
                break;
            }
            self.inspect(
                h.kind,
                h.flags,
                h.stream_id,
                FRAME_HEADER_LEN,
                payload_end,
                now,
            );
            self.buf.drain(..payload_end);
        }
        self.on_wakeup(now);
    }

    /// One frame, header already parsed; payload at `buf[start..end]`.
    fn inspect(
        &mut self,
        ty: Option<FrameType>,
        fl: u8,
        stream: StreamId,
        start: usize,
        end: usize,
        now: SimTime,
    ) {
        use h2priv_http2::flags;
        match ty {
            Some(FrameType::Headers) => {
                self.streams_opened += 1;
                self.last_open_at = now;
                self.credit_since_open = false;
                if fl & flags::END_HEADERS == 0 {
                    self.seq = Some(OpenSequence {
                        stream,
                        fragments: 1,
                        first_at: now,
                    });
                }
            }
            Some(FrameType::Continuation) => {
                if let Some(seq) = &mut self.seq {
                    if seq.stream == stream {
                        seq.fragments += 1;
                    }
                }
                if fl & flags::END_HEADERS != 0 {
                    self.seq = None;
                }
            }
            Some(FrameType::Settings) => {
                if fl & flags::ACK != 0 {
                    return;
                }
                self.settings_seen += 1;
                // Walk the (id, value) pairs for INITIAL_WINDOW_SIZE (0x4).
                let mut at = start;
                while at + 6 <= end {
                    let id = u16::from_be_bytes([self.buf[at], self.buf[at + 1]]);
                    let value = u32::from_be_bytes([
                        self.buf[at + 2],
                        self.buf[at + 3],
                        self.buf[at + 4],
                        self.buf[at + 5],
                    ]);
                    if id == 0x4 {
                        self.client_window = Some(value);
                    }
                    at += 6;
                }
                let (mark_count, mark_at) = self.settings_mark;
                if now.saturating_since(mark_at) >= self.config.settings_window {
                    self.settings_mark = (self.settings_seen, now);
                } else if self.settings_seen - mark_count > self.config.settings_limit {
                    let n = self.settings_seen - mark_count;
                    self.fire(
                        AlertKind::SettingsFlood,
                        None,
                        now,
                        format!("{n} SETTINGS in one rate window"),
                    );
                }
            }
            Some(FrameType::WindowUpdate) => {
                self.credit_since_open = true;
                if end - start >= 4 {
                    let increment = u32::from_be_bytes([
                        self.buf[start],
                        self.buf[start + 1],
                        self.buf[start + 2],
                        self.buf[start + 3],
                    ]) & 0x7fff_ffff;
                    if increment <= self.config.tiny_update_max {
                        self.tiny_updates += 1;
                        if self.tiny_updates >= self.config.tiny_updates {
                            self.fire(
                                AlertKind::SlowRead,
                                Some(stream),
                                now,
                                format!(
                                    "{} WINDOW_UPDATEs of <= {} bytes",
                                    self.tiny_updates, self.config.tiny_update_max
                                ),
                            );
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// Evaluates the time-triggered signatures. The host calls this at
    /// every [`next_wakeup`](Self::next_wakeup) deadline; `on_bytes` also
    /// calls it after each scan.
    pub fn on_wakeup(&mut self, now: SimTime) {
        if let Some(seq) = self.seq {
            if seq.fragments >= self.config.header_fragments
                && now.saturating_since(seq.first_at) >= self.config.header_span
            {
                self.fire(
                    AlertKind::SlowHeaders,
                    Some(seq.stream),
                    now,
                    format!("header sequence open across {} fragments", seq.fragments),
                );
            }
        }
        if self.client_window == Some(0)
            && self.streams_opened >= self.config.hoard_streams
            && !self.credit_since_open
            && now.saturating_since(self.last_open_at) >= self.config.hoard_hold
        {
            self.fire(
                AlertKind::ZeroWindowHoard,
                None,
                now,
                format!("{} streams held on a zero-byte window", self.streams_opened),
            );
        }
    }

    /// Earliest time a time-triggered signature could fire, or `None`
    /// while nothing is pending. Quiet benign connections never schedule a
    /// wakeup, so the detector is schedule-invisible on clean traffic.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            next = Some(next.map_or(t, |n: SimTime| n.min(t)));
        };
        if !self.fired[0] {
            if let Some(seq) = self.seq {
                if seq.fragments >= self.config.header_fragments {
                    consider(seq.first_at + self.config.header_span);
                }
            }
        }
        if !self.fired[3]
            && self.client_window == Some(0)
            && self.streams_opened >= self.config.hoard_streams
            && !self.credit_since_open
        {
            consider(self.last_open_at + self.config.hoard_hold);
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{DosAttack, DosClient, DosConfig};
    use h2priv_http2::{encode_frame, Frame, Settings};

    /// Runs the attacker's own wire output through the detector until an
    /// alert fires or `deadline` passes; returns the first alert time.
    fn detect(attack: DosAttack, deadline: SimTime) -> Option<(AlertKind, SimTime)> {
        let mut client = DosClient::new(DosConfig::for_attack(attack));
        let mut det = DosDetector::new(DetectorConfig::default());
        let t0 = SimTime::ZERO;
        client.start(t0);
        client.on_plaintext(
            &encode_frame(&Frame::Settings {
                ack: false,
                settings: Settings::default().to_wire(),
            }),
            t0,
        );
        let mut now = t0;
        while now <= deadline {
            let bytes = client.poll_wire(now);
            if !bytes.is_empty() {
                det.on_bytes(&bytes, now);
            }
            if let Some(alert) = det.alerts().first() {
                return Some((alert.kind, alert.at));
            }
            // Advance to the next interesting instant.
            let step = [client.next_wakeup(), det.next_wakeup()]
                .into_iter()
                .flatten()
                .min()
                .unwrap_or(deadline + SimDuration::from_millis(1));
            if step <= now {
                now += SimDuration::from_millis(1);
            } else {
                now = step;
            }
            det.on_wakeup(now);
        }
        None
    }

    #[test]
    fn every_attack_variant_is_detected() {
        let deadline = SimTime::from_secs(30);
        let expect = [
            (DosAttack::SlowHeaders, AlertKind::SlowHeaders),
            (DosAttack::SlowRead, AlertKind::SlowRead),
            (DosAttack::SettingsFlood, AlertKind::SettingsFlood),
            (DosAttack::ZeroWindowHoard, AlertKind::ZeroWindowHoard),
        ];
        for (attack, kind) in expect {
            let hit = detect(attack, deadline);
            assert_eq!(
                hit.map(|(k, _)| k),
                Some(kind),
                "{} must trip its signature",
                attack.name()
            );
        }
    }

    #[test]
    fn benign_style_traffic_raises_nothing() {
        let mut det = DosDetector::new(DetectorConfig::default());
        let t0 = SimTime::ZERO;
        let mut bytes = h2priv_http2::CLIENT_PREFACE.to_vec();
        // Honest handshake: one SETTINGS with a 2 MiB stream window.
        bytes.extend_from_slice(&encode_frame(&Frame::Settings {
            ack: false,
            settings: Settings {
                initial_window_size: 2 * 1024 * 1024,
                ..Settings::default()
            }
            .to_wire(),
        }));
        // A burst of complete GETs...
        let mut enc = h2priv_http2::hpack::Encoder::new();
        for i in 0..40u32 {
            let block = enc.encode(&[
                h2priv_http2::HeaderField::new(":method", "GET"),
                h2priv_http2::HeaderField::new(":path", format!("/obj{i}")),
            ]);
            bytes.extend_from_slice(&h2priv_http2::encode_headers_split(
                StreamId(1 + 2 * i),
                true,
                &block,
                16384,
            ));
        }
        // ...and honest half-window re-credits.
        for i in 0..40u32 {
            bytes.extend_from_slice(&encode_frame(&Frame::WindowUpdate {
                stream_id: StreamId(1 + 2 * i),
                increment: 1024 * 1024,
            }));
        }
        det.on_bytes(&bytes, t0);
        det.on_wakeup(t0 + SimDuration::from_secs(60));
        assert!(det.alerts().is_empty(), "{:?}", det.alerts());
        assert_eq!(det.next_wakeup(), None);
    }

    #[test]
    fn split_frame_delivery_reassembles() {
        // One-byte-at-a-time delivery of a SETTINGS flood still counts.
        let mut det = DosDetector::new(DetectorConfig::default());
        let mut bytes = h2priv_http2::CLIENT_PREFACE.to_vec();
        for _ in 0..20 {
            bytes.extend_from_slice(&encode_frame(&Frame::Settings {
                ack: false,
                settings: vec![],
            }));
        }
        for b in bytes {
            det.on_bytes(&[b], SimTime::from_millis(10));
        }
        assert_eq!(det.alerts().len(), 1);
        assert_eq!(det.alerts()[0].kind, AlertKind::SettingsFlood);
    }
}
