//! # h2priv-tls — the TLS record-layer model
//!
//! Part of the `h2priv` reproduction of *"Depending on HTTP/2 for Privacy?
//! Good Luck!"* (DSN 2020). The paper's adversary is bound by exactly one
//! cryptographic assumption: it "does not have the capability to decrypt"
//! (§III, assumption 2) and therefore sees only what the TLS record layer
//! leaves in plaintext — record headers (content type + length) and the
//! resulting packet sizes. This crate models that boundary precisely:
//!
//! * [`RecordHeader`]/[`ContentType`] — RFC 5246 framing, including the
//!   `application_data(23)` type the paper's monitor filters on.
//! * [`RecordCipher`] — a *modeled* AEAD: scrambles fragments (so nothing in
//!   the workspace can cheat by parsing ciphertext), detects corruption and
//!   reordering, and adds the exact TLS 1.2 AES-GCM length expansion.
//! * [`RecordWriter`]/[`RecordReader`] — endpoint-side serialization over a
//!   byte stream, with fragmentation at 16 KiB.
//! * [`RecordScanner`] — the eavesdropper's keyless header parser.
//! * [`TlsSession`] — role-aware session with a realistically-sized
//!   handshake transcript preceding application data.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cipher;
mod codec;
mod record;
mod session;

pub use cipher::RecordCipher;
pub use codec::{
    ReadRecordError, RecordReader, RecordScanner, RecordWriter, ScannedRecord, TlsMessage,
};
pub use record::{
    ContentType, RecordHeader, AEAD_OVERHEAD, HEADER_LEN, MAX_CIPHERTEXT, MAX_PLAINTEXT, VERSION,
};
pub use session::{Role, SessionError, SessionOutput, TlsSession};
