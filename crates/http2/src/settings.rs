//! Connection settings (RFC 7540 §6.5) and scheduler configuration.

use crate::flow::DEFAULT_WINDOW;
use crate::frame::{SettingId, DEFAULT_MAX_FRAME_SIZE};

/// The SETTINGS parameters an endpoint advertises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Settings {
    /// HPACK dynamic table capacity.
    pub header_table_size: u32,
    /// Whether the peer may push (always false in the model; the paper
    /// discusses push only as a possible *defense*, §VII).
    pub enable_push: bool,
    /// Concurrent stream limit.
    pub max_concurrent_streams: u32,
    /// Per-stream initial flow-control window.
    pub initial_window_size: u32,
    /// Largest frame payload the sender will accept.
    pub max_frame_size: u32,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            header_table_size: 4_096,
            enable_push: false,
            max_concurrent_streams: 128,
            initial_window_size: DEFAULT_WINDOW,
            max_frame_size: DEFAULT_MAX_FRAME_SIZE as u32,
        }
    }
}

impl Settings {
    /// Serializes to the SETTINGS frame parameter list.
    pub fn to_wire(&self) -> Vec<(SettingId, u32)> {
        vec![
            (SettingId::HeaderTableSize, self.header_table_size),
            (SettingId::EnablePush, self.enable_push as u32),
            (SettingId::MaxConcurrentStreams, self.max_concurrent_streams),
            (SettingId::InitialWindowSize, self.initial_window_size),
            (SettingId::MaxFrameSize, self.max_frame_size),
        ]
    }

    /// Applies received parameters on top of the current values.
    pub fn apply(&mut self, params: &[(SettingId, u32)]) {
        for &(id, value) in params {
            match id {
                SettingId::HeaderTableSize => self.header_table_size = value,
                SettingId::EnablePush => self.enable_push = value != 0,
                SettingId::MaxConcurrentStreams => self.max_concurrent_streams = value,
                SettingId::InitialWindowSize => self.initial_window_size = value,
                SettingId::MaxFrameSize => self.max_frame_size = value,
                SettingId::MaxHeaderListSize => {}
            }
        }
    }
}

/// How the connection's mux picks which stream's DATA to send next —
/// the source of multiplexing (or its absence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendPolicy {
    /// Rotate across streams with pending data: the paper's multi-threaded
    /// HTTP/2 server, whose "concurrent server threads serve multiple
    /// objects on the same TCP connection, effectively multiplexing them"
    /// (§II).
    RoundRobin,
    /// Finish one stream before starting the next: HTTP/1.1-style
    /// sequential service (the paper's Fig. 1 "Case 1" baseline, and what
    /// the adversary *forces* the server into).
    Sequential,
    /// Pick a pseudo-random pending stream per frame: the §VII defense
    /// sketch ("the client can opt for a different priority/order of object
    /// delivery every time").
    RandomOrder {
        /// Seed for the scheduler's private generator.
        seed: u64,
    },
    /// Deficit-weighted round-robin honoring RFC 7540 PRIORITY weights:
    /// streams share the mux in proportion to their weight (1–256,
    /// default 16). The §VII discussion notes prioritization as another
    /// lever a client could vary for privacy.
    WeightedFair,
}

/// Full connection configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct H2Config {
    /// Our advertised settings.
    pub settings: Settings,
    /// DATA scheduling policy.
    pub send_policy: SendPolicy,
    /// Write granularity of the mux: at most this many bytes of one
    /// stream's data per DATA frame. Models the server worker's buffer
    /// size; must be ≤ the peer's `max_frame_size`. Smaller values give
    /// finer-grained interleaving.
    pub data_chunk_size: usize,
    /// Extra connection-level window credit announced immediately after the
    /// preface (browsers send a large connection WINDOW_UPDATE at startup;
    /// 0 keeps the strict RFC default of 65 535 bytes).
    pub connection_window_bonus: u32,
    /// Frame-size quantization for DATA (a padding defense): when > 1,
    /// DATA frames carry RFC 7540 §6.1 padding so the total payload
    /// (pad-length byte + data + padding) rounds up to a multiple of this
    /// quantum — a deterministic pad schedule that hides exact chunk
    /// sizes. Padding is best-effort: it is drawn from flow-control window
    /// *slack* (never displacing data bytes) and capped by the 255-octet
    /// pad field and the peer's max frame size. 0 disables padding.
    pub data_pad_quantum: usize,
    /// Frame-size quantization for HEADERS: when > 1, single-frame HEADERS
    /// payloads are padded up to a multiple of this quantum (capped at 255
    /// pad octets). Header blocks large enough to split into CONTINUATION
    /// sequences are never padded. 0 disables padding.
    pub headers_pad_quantum: usize,
    /// Deliver received DATA payloads as opaque length-only views (backed
    /// by a shared zero page) instead of copying the bytes out of the
    /// receive buffer. Padding is still validated against the real wire
    /// bytes and flow control is unchanged — only the payload *contents*
    /// of [`H2Event::Data`] are replaced by zeros. For harness hosts whose
    /// applications consume lengths, never bodies (the simulated browser
    /// records sizes and timing), this removes a per-frame allocation and
    /// copy of every received body byte.
    ///
    /// [`H2Event::Data`]: crate::connection::H2Event::Data
    pub opaque_data_payloads: bool,
}

impl Default for H2Config {
    fn default() -> Self {
        H2Config {
            settings: Settings::default(),
            send_policy: SendPolicy::RoundRobin,
            data_chunk_size: 2_048,
            connection_window_bonus: 0,
            data_pad_quantum: 0,
            headers_pad_quantum: 0,
            opaque_data_payloads: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_rfc() {
        let s = Settings::default();
        assert_eq!(s.initial_window_size, 65_535);
        assert_eq!(s.max_frame_size, 16_384);
        assert_eq!(s.header_table_size, 4_096);
        assert!(!s.enable_push);
    }

    #[test]
    fn wire_roundtrip() {
        let s = Settings {
            initial_window_size: 262_144,
            max_concurrent_streams: 42,
            ..Default::default()
        };
        let mut applied = Settings::default();
        applied.apply(&s.to_wire());
        assert_eq!(applied, s);
    }

    #[test]
    fn apply_is_partial() {
        let mut s = Settings::default();
        s.apply(&[(SettingId::InitialWindowSize, 1_000)]);
        assert_eq!(s.initial_window_size, 1_000);
        assert_eq!(s.max_frame_size, 16_384); // untouched
    }

    #[test]
    fn config_default_is_multiplexing() {
        assert_eq!(H2Config::default().send_policy, SendPolicy::RoundRobin);
    }
}
