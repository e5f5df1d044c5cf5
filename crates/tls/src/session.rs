//! A modeled TLS session: handshake transcript plus record protection for
//! both directions.
//!
//! The handshake does no real key agreement — both sides are constructed
//! with the same session key — but it *does* put realistically-sized
//! `handshake(22)` records on the wire before any `application_data(23)`
//! flows. That matters for the reproduction: the paper's traffic monitor
//! distinguishes GET requests from handshake noise purely via the
//! `content_type == 23` filter, so our traces must contain both kinds.

use h2priv_bytes::SharedBytes;

use crate::cipher::RecordCipher;
use crate::codec::{ReadRecordError, RecordReader, RecordWriter};
use crate::record::ContentType;

/// Which side of the connection a session is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The connection initiator (browser).
    Client,
    /// The accepting side (web server).
    Server,
}

/// Modeled handshake message sizes (bytes of handshake plaintext), chosen to
/// match a typical TLS 1.2 RSA exchange as seen in packet captures.
mod flight_sizes {
    /// ClientHello with a normal extension set.
    pub const CLIENT_HELLO: usize = 512;
    /// ServerHello + Certificate chain + ServerHelloDone.
    pub const SERVER_FLIGHT: usize = 3400;
    /// ClientKeyExchange + ChangeCipherSpec + Finished.
    pub const CLIENT_FINISH: usize = 134;
    /// Server ChangeCipherSpec + Finished.
    pub const SERVER_FINISH: usize = 51;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HandshakeState {
    /// Client: nothing sent yet. Server: waiting for ClientHello.
    Start,
    /// Client: hello sent, waiting for the server flight.
    /// Server: flight sent, waiting for the client finish.
    FlightSent,
    /// Both finished; application data may flow.
    Established,
}

/// Errors from session processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// The record layer failed (bad header / decryption).
    Record(ReadRecordError),
    /// Application data arrived before the handshake completed.
    EarlyAppData,
    /// The peer sent an unexpected handshake message.
    UnexpectedHandshake,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Record(e) => write!(f, "record layer failure: {e}"),
            SessionError::EarlyAppData => write!(f, "application data before handshake completed"),
            SessionError::UnexpectedHandshake => write!(f, "unexpected handshake message"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ReadRecordError> for SessionError {
    fn from(e: ReadRecordError) -> Self {
        SessionError::Record(e)
    }
}

/// Output of feeding received bytes into a session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionOutput {
    /// Bytes to transmit to the peer (handshake replies).
    pub reply: Vec<u8>,
    /// Decrypted application-data payloads, in order.
    pub app_data: Vec<Vec<u8>>,
    /// True exactly once: on the call during which the handshake completed.
    pub established_now: bool,
}

/// One endpoint's TLS session.
///
/// # Examples
///
/// ```
/// use h2priv_tls::{Role, TlsSession};
///
/// let mut client = TlsSession::new(Role::Client, 0xBEEF);
/// let mut server = TlsSession::new(Role::Server, 0xBEEF);
///
/// // Client → Server: ClientHello.
/// let hello = client.initial_flight().expect("client starts");
/// let out = server.receive(&hello).unwrap();
/// // Server → Client: server flight; the client establishes on sending
/// // its finish (false start).
/// let out = client.receive(&out.reply).unwrap();
/// assert!(out.established_now);
/// let out = server.receive(&out.reply).unwrap();
/// assert!(out.established_now);
/// client.receive(&out.reply).unwrap(); // server finish: no-op for client
///
/// // Application data now flows.
/// let wire = client.seal_app_data(b"GET /").unwrap();
/// let got = server.receive(&wire).unwrap();
/// assert_eq!(got.app_data, vec![b"GET /".to_vec()]);
/// ```
#[derive(Debug, Clone)]
pub struct TlsSession {
    role: Role,
    state: HandshakeState,
    writer: RecordWriter,
    reader: RecordReader,
}

impl TlsSession {
    /// Creates a session. Both endpoints of a connection must use the same
    /// `session_key` (the modeled out-of-band key agreement).
    pub fn new(role: Role, session_key: u64) -> Self {
        let (seal_label, open_label) = match role {
            Role::Client => (1, 2),
            Role::Server => (2, 1),
        };
        TlsSession {
            role,
            state: HandshakeState::Start,
            writer: RecordWriter::new(RecordCipher::new(session_key, seal_label)),
            reader: RecordReader::new(RecordCipher::new(session_key, open_label)),
        }
    }

    /// The session's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Surrenders the record reader's idle stash buffer to `sink` (for a
    /// buffer pool), if it is empty. See [`RecordReader::take_buf_spare`].
    pub fn shed_spare_capacity(&mut self, sink: &mut dyn FnMut(Vec<u8>)) {
        if let Some(buf) = self.reader.take_buf_spare() {
            sink(buf);
        }
    }

    /// Warms the record reader's stash from recycled capacity. See
    /// [`RecordReader::give_buf_spare`].
    pub fn adopt_spare_capacity(&mut self, supply: &mut dyn FnMut() -> Option<Vec<u8>>) {
        if let Some(buf) = supply() {
            self.reader.give_buf_spare(buf);
        }
    }

    /// True once the handshake has completed.
    pub fn is_established(&self) -> bool {
        self.state == HandshakeState::Established
    }

    /// The client's opening flight (ClientHello). Returns `None` for
    /// servers or if already sent.
    pub fn initial_flight(&mut self) -> Option<Vec<u8>> {
        if self.role != Role::Client || self.state != HandshakeState::Start {
            return None;
        }
        self.state = HandshakeState::FlightSent;
        Some(self.writer.seal_message(
            ContentType::Handshake,
            &vec![0x01; flight_sizes::CLIENT_HELLO],
        ))
    }

    /// Feeds received wire bytes into the session.
    ///
    /// # Errors
    ///
    /// Fails on record-layer corruption, application data before
    /// establishment, or out-of-place handshake messages. A failed session
    /// should be torn down, as a real stack would after a fatal alert.
    pub fn receive(&mut self, bytes: &[u8]) -> Result<SessionOutput, SessionError> {
        self.read_records(bytes, &mut Vec::new(), true)
    }

    /// Feeds received wire bytes into the session, appending application
    /// plaintext to `app` instead of returning per-record chunks — the
    /// sink variant the host's pump uses so that steady-state receive
    /// decrypts straight into one reusable stream buffer (no per-record
    /// allocation). `SessionOutput::app_data` is left empty.
    ///
    /// # Errors
    ///
    /// As for [`receive`](Self::receive).
    pub fn receive_into(
        &mut self,
        bytes: &[u8],
        app: &mut Vec<u8>,
    ) -> Result<SessionOutput, SessionError> {
        self.read_records(bytes, app, false)
    }

    /// The record loop behind both receive paths: opens every record the
    /// stash plus `bytes` completes, appending application plaintext to
    /// `app`. With `per_record`, each application record's plaintext moves
    /// on into [`SessionOutput::app_data`].
    fn read_records(
        &mut self,
        bytes: &[u8],
        app: &mut Vec<u8>,
        per_record: bool,
    ) -> Result<SessionOutput, SessionError> {
        let mut input = bytes;
        let mut out = SessionOutput::default();
        loop {
            let before = app.len();
            let Some(content_type) = self.reader.next_record_borrowed(&mut input, app)? else {
                break;
            };
            match content_type {
                ContentType::ApplicationData => {
                    if self.state != HandshakeState::Established {
                        return Err(SessionError::EarlyAppData);
                    }
                    if per_record {
                        out.app_data.push(app.split_off(before));
                    }
                }
                ContentType::Handshake | ContentType::ChangeCipherSpec => {
                    // Handshake plaintext drives the state machine but is
                    // not application data.
                    app.truncate(before);
                    self.advance_handshake(&mut out)?;
                }
                // Modeled alerts are informational.
                ContentType::Alert => app.truncate(before),
            }
        }
        Ok(out)
    }

    fn advance_handshake(&mut self, out: &mut SessionOutput) -> Result<(), SessionError> {
        match (self.role, self.state) {
            // Server got ClientHello: send the server flight.
            (Role::Server, HandshakeState::Start) => {
                out.reply.extend(self.writer.seal_message(
                    ContentType::Handshake,
                    &vec![0x02; flight_sizes::SERVER_FLIGHT],
                ));
                self.state = HandshakeState::FlightSent;
                Ok(())
            }
            // Client got the server flight: send finish, consider
            // ourselves established (TLS false start — the client may
            // send application data along with its Finished).
            (Role::Client, HandshakeState::FlightSent) => {
                out.reply.extend(
                    self.writer
                        .seal_message(ContentType::Handshake, &[0x03; flight_sizes::CLIENT_FINISH]),
                );
                self.state = HandshakeState::Established;
                out.established_now = true;
                Ok(())
            }
            // Server got the client finish: send our finish, established.
            (Role::Server, HandshakeState::FlightSent) => {
                out.reply.extend(
                    self.writer
                        .seal_message(ContentType::Handshake, &[0x04; flight_sizes::SERVER_FINISH]),
                );
                self.state = HandshakeState::Established;
                out.established_now = true;
                Ok(())
            }
            // Client receiving the server's Finished after false start:
            // nothing to do.
            (Role::Client, HandshakeState::Established) => Ok(()),
            _ => Err(SessionError::UnexpectedHandshake),
        }
    }

    /// Seals application bytes for transmission. The sealed record is
    /// returned as a [`SharedBytes`] so callers can queue it on a TCP
    /// connection (or clone it into taps) without copying it again.
    ///
    /// # Errors
    ///
    /// Fails with [`SessionError::EarlyAppData`] before establishment.
    pub fn seal_app_data(&mut self, payload: &[u8]) -> Result<SharedBytes, SessionError> {
        if self.state != HandshakeState::Established {
            return Err(SessionError::EarlyAppData);
        }
        Ok(SharedBytes::from_vec(
            self.writer
                .seal_message(ContentType::ApplicationData, payload),
        ))
    }

    /// Seals application bytes, appending the wire record(s) to `out` —
    /// the sink variant of [`seal_app_data`](Self::seal_app_data),
    /// producing byte-identical wire output. The batched host pump seals a
    /// whole run of queued messages into one reused buffer with this, so
    /// sealing N records costs a single keystream pass over the coalesced
    /// run and zero steady-state allocations.
    ///
    /// # Errors
    ///
    /// Fails with [`SessionError::EarlyAppData`] before establishment
    /// (leaving `out` untouched).
    pub fn seal_app_data_into(
        &mut self,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), SessionError> {
        if self.state != HandshakeState::Established {
            return Err(SessionError::EarlyAppData);
        }
        self.writer
            .seal_message_into(ContentType::ApplicationData, payload, out);
        Ok(())
    }

    /// Seals application bytes given as separate `parts` (their logical
    /// concatenation is the message), appending the wire record(s) to
    /// `out` — byte-identical to [`seal_app_data_into`] over the
    /// concatenated bytes, without materializing them. The host pump's
    /// split DATA path seals `[frame header, shared body, pad]` directly.
    ///
    /// [`seal_app_data_into`]: Self::seal_app_data_into
    ///
    /// # Errors
    ///
    /// Fails with [`SessionError::EarlyAppData`] before establishment
    /// (leaving `out` untouched).
    pub fn seal_app_data_parts_into<const N: usize>(
        &mut self,
        parts: &[&[u8]; N],
        out: &mut Vec<u8>,
    ) -> Result<(), SessionError> {
        if self.state != HandshakeState::Established {
            return Err(SessionError::EarlyAppData);
        }
        self.writer
            .seal_message_parts_into(ContentType::ApplicationData, parts, out);
        Ok(())
    }

    /// Total records sealed by this endpoint (handshake + data).
    pub fn records_sealed(&self) -> u64 {
        self.writer.records_sealed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn establish() -> (TlsSession, TlsSession) {
        let mut client = TlsSession::new(Role::Client, 7);
        let mut server = TlsSession::new(Role::Server, 7);
        let hello = client.initial_flight().unwrap();
        let s1 = server.receive(&hello).unwrap();
        let c1 = client.receive(&s1.reply).unwrap();
        assert!(c1.established_now);
        let s2 = server.receive(&c1.reply).unwrap();
        assert!(s2.established_now);
        let c2 = client.receive(&s2.reply).unwrap();
        assert!(c2.reply.is_empty());
        (client, server)
    }

    #[test]
    fn full_handshake_establishes_both_sides() {
        let (client, server) = establish();
        assert!(client.is_established());
        assert!(server.is_established());
    }

    #[test]
    fn app_data_flows_both_ways() {
        let (mut client, mut server) = establish();
        let wire = client.seal_app_data(b"request").unwrap();
        let got = server.receive(&wire).unwrap();
        assert_eq!(got.app_data, vec![b"request".to_vec()]);
        let wire = server.seal_app_data(b"response").unwrap();
        let got = client.receive(&wire).unwrap();
        assert_eq!(got.app_data, vec![b"response".to_vec()]);
    }

    #[test]
    fn false_start_app_data_with_finish() {
        let mut client = TlsSession::new(Role::Client, 7);
        let mut server = TlsSession::new(Role::Server, 7);
        let hello = client.initial_flight().unwrap();
        let s1 = server.receive(&hello).unwrap();
        let mut c1 = client.receive(&s1.reply).unwrap();
        // Client piggybacks a request onto its finish flight.
        c1.reply
            .extend_from_slice(&client.seal_app_data(b"early").unwrap());
        let s2 = server.receive(&c1.reply).unwrap();
        assert!(s2.established_now);
        assert_eq!(s2.app_data, vec![b"early".to_vec()]);
    }

    #[test]
    fn early_app_data_is_rejected() {
        let mut client = TlsSession::new(Role::Client, 7);
        assert_eq!(client.seal_app_data(b"x"), Err(SessionError::EarlyAppData));
    }

    #[test]
    fn server_has_no_initial_flight() {
        let mut server = TlsSession::new(Role::Server, 7);
        assert_eq!(server.initial_flight(), None);
    }

    #[test]
    fn client_initial_flight_only_once() {
        let mut client = TlsSession::new(Role::Client, 7);
        assert!(client.initial_flight().is_some());
        assert_eq!(client.initial_flight(), None);
    }

    #[test]
    fn mismatched_keys_fail() {
        let mut client = TlsSession::new(Role::Client, 7);
        let mut server = TlsSession::new(Role::Server, 8);
        let hello = client.initial_flight().unwrap();
        assert!(server.receive(&hello).is_err());
    }

    #[test]
    fn fragmented_delivery() {
        let (mut client, mut server) = establish();
        let wire = client.seal_app_data(&vec![9u8; 40_000]).unwrap();
        // Deliver in uneven chunks.
        let mut collected = Vec::new();
        for chunk in wire.chunks(1461) {
            let got = server.receive(chunk).unwrap();
            collected.extend(got.app_data);
        }
        let total: Vec<u8> = collected.into_iter().flatten().collect();
        assert_eq!(total, vec![9u8; 40_000]);
    }

    #[test]
    fn handshake_record_count_and_types() {
        // A fresh transcript contains exactly 4 handshake records before
        // any application data — the monitor must be able to skip them.
        let (client, server) = establish();
        assert_eq!(client.records_sealed(), 2); // hello + finish
        assert_eq!(server.records_sealed(), 2); // flight + finish
    }
}
