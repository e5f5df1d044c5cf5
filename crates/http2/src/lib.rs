//! # h2priv-http2 — the HTTP/2 protocol substrate
//!
//! Part of the `h2priv` reproduction of *"Depending on HTTP/2 for Privacy?
//! Good Luck!"* (DSN 2020). The paper investigates whether HTTP/2
//! *multiplexing* — interleaved DATA frames of concurrently-served objects
//! — hides encrypted object sizes from an on-path observer. This crate
//! implements the protocol machinery that produces (or withholds) that
//! interleaving:
//!
//! * [`Frame`]/[`FrameDecoder`] — RFC 7540 framing, including
//!   `RST_STREAM` (the signal the adversary forces in §IV-D) and `GOAWAY`.
//! * [`hpack`] — RFC 7541 header compression with static + dynamic tables,
//!   which is why GET requests fit in single TCP segments and can be
//!   counted by the paper's gateway monitor.
//! * [`FlowWindow`] — stream and connection flow control, the mechanism
//!   that keeps large responses in flight long enough to interleave.
//! * [`H2Connection`] — the sans-IO connection with a pluggable DATA mux
//!   ([`SendPolicy`]): `RoundRobin` reproduces the paper's multi-threaded
//!   server, `Sequential` the serialized behaviour the attack forces, and
//!   `RandomOrder` the §VII defense sketch.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod codec;
mod connection;
mod error;
mod flow;
mod frame;
pub mod hpack;
mod settings;
mod stream;

pub use codec::{
    encode_frame, encode_headers_split, FrameDecodeError, FrameDecoder, FrameHeader, CLIENT_PREFACE,
};
pub use connection::{H2Connection, H2Event, H2Stats, Outgoing, OutgoingMeta, Peer};
pub use error::{ErrorCode, H2Error};
pub use flow::{FlowWindow, WindowOverflow, DEFAULT_WINDOW, MAX_WINDOW};
pub use frame::{
    flags, pad_overhead, Frame, FrameType, SettingId, DEFAULT_MAX_FRAME_SIZE, FRAME_HEADER_LEN,
};
pub use hpack::HeaderField;
pub use settings::{H2Config, SendPolicy, Settings};
pub use stream::{StreamId, StreamState};

#[cfg(test)]
mod conn_tests;
