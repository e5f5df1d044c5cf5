//! TLS record-layer invariants, checked from the wire.
//!
//! Each direction of the connection is one ordered byte stream of sealed
//! records. The checker reassembles that stream from the (possibly
//! reordered, possibly retransmitted) TCP segments the tap observes and
//! verifies that:
//!
//! * record headers tile the stream exactly — every record starts where
//!   the previous one ended, with a known content type and a fragment no
//!   larger than `MAX_CIPHERTEXT` ("length sanity");
//! * every fragment is large enough to hold the AEAD nonce and tag;
//! * the explicit 8-byte nonce (the record sequence number, as in TLS 1.2
//!   GCM) increments by exactly one per record ("sequence continuity").
//!
//! The paper's passive monitor counts `application_data` records to count
//! GETs (§V); these invariants are what make that count well-defined.
//!
//! # Padded and dummy records
//!
//! Shaping defenses (constant-rate and adaptive-padding senders) pad
//! record plaintexts and inject *dummy* `application_data` records that
//! carry no real traffic. The checker accepts both deliberately: a padded
//! or dummy record is a perfectly ordinary record as long as it is sealed
//! **in-stream** by the sending endpoint's own record writer, so its
//! explicit nonce continues the per-direction sequence. That is exactly
//! what `record-seq` enforces — a middlebox splicing pre-canned dummy
//! records into the stream out-of-band would break continuity and be
//! flagged, while an endpoint-cooperating shaper passes. The only extra
//! obligation padding adds is the tiling upper bound: a padded fragment
//! must still fit `MAX_CIPHERTEXT`, reported as `record-too-long`.

use crate::{Layer, ViolationSink};
use h2priv_netsim::SimTime;
use h2priv_tls::{ContentType, RecordHeader, AEAD_OVERHEAD, HEADER_LEN, MAX_CIPHERTEXT};
use std::collections::BTreeMap;

/// Reassembles and validates one direction's record stream.
pub struct TlsDirChecker {
    label: &'static str,
    /// Next in-order stream offset expected.
    next_offset: u64,
    /// Out-of-order chunks not yet contiguous with `next_offset`.
    pending: BTreeMap<u64, Vec<u8>>,
    /// Bytes of the record currently being assembled.
    rec: Vec<u8>,
    /// Per-direction record index; must match each record's explicit nonce.
    records: u64,
    /// Set after the first structural violation: once framing is lost every
    /// subsequent byte would "violate", so the checker reports once and
    /// stops for this direction.
    poisoned: bool,
}

impl TlsDirChecker {
    /// Creates a checker for one direction (`label` names it in reports).
    pub fn new(label: &'static str) -> Self {
        TlsDirChecker {
            label,
            next_offset: 0,
            pending: BTreeMap::new(),
            rec: Vec::new(),
            records: 0,
            poisoned: false,
        }
    }

    /// Records validated so far in this direction.
    pub fn records_seen(&self) -> u64 {
        self.records
    }

    /// Feeds the payload of one TCP segment at relative stream offset
    /// `offset` (0 = first payload byte after the SYN).
    pub fn on_payload(&mut self, offset: u64, bytes: &[u8], now: SimTime, sink: &ViolationSink) {
        if self.poisoned || bytes.is_empty() {
            return;
        }
        let end = offset + bytes.len() as u64;
        if end <= self.next_offset {
            return; // pure retransmission of delivered data
        }
        if offset > self.next_offset {
            // A hole precedes this chunk: park it (first copy wins; a
            // retransmission of the same range is byte-identical by the
            // send-buffer construction).
            self.pending.entry(offset).or_insert_with(|| bytes.to_vec());
            return;
        }
        let skip = (self.next_offset - offset) as usize;
        self.ingest(&bytes[skip..], now, sink);
        // Drain any parked chunks the new data made contiguous.
        while let Some((&start, _)) = self.pending.range(..=self.next_offset).next() {
            let chunk = self.pending.remove(&start).expect("key just seen");
            let chunk_end = start + chunk.len() as u64;
            if chunk_end > self.next_offset {
                let skip = (self.next_offset - start) as usize;
                self.ingest(&chunk[skip..], now, sink);
            }
            if self.poisoned {
                return;
            }
        }
    }

    fn ingest(&mut self, bytes: &[u8], now: SimTime, sink: &ViolationSink) {
        self.next_offset += bytes.len() as u64;
        self.rec.extend_from_slice(bytes);
        while self.rec.len() >= HEADER_LEN {
            let Some(header) = RecordHeader::decode(&self.rec) else {
                // A known content type with an over-limit length is a
                // tiling violation in its own right (padding overshot the
                // fragment bound), distinct from outright corruption.
                let fragment_len = u16::from_be_bytes([self.rec[3], self.rec[4]]) as usize;
                if ContentType::from_u8(self.rec[0]).is_some() && fragment_len > MAX_CIPHERTEXT {
                    sink.report(
                        Layer::Tls,
                        "record-too-long",
                        now,
                        format!(
                            "{}: record #{} fragment {fragment_len}B exceeds \
                             MAX_CIPHERTEXT ({MAX_CIPHERTEXT}B)",
                            self.label, self.records
                        ),
                    );
                } else {
                    sink.report(
                        Layer::Tls,
                        "record-header",
                        now,
                        format!(
                            "{}: invalid record header at stream offset {} (first byte {:#04x})",
                            self.label,
                            self.next_offset - self.rec.len() as u64,
                            self.rec[0]
                        ),
                    );
                }
                self.poisoned = true;
                return;
            };
            if (header.fragment_len as usize) < AEAD_OVERHEAD {
                sink.report(
                    Layer::Tls,
                    "record-length",
                    now,
                    format!(
                        "{}: record #{} fragment {}B cannot hold nonce+tag ({AEAD_OVERHEAD}B)",
                        self.label, self.records, header.fragment_len
                    ),
                );
                self.poisoned = true;
                return;
            }
            if self.rec.len() < header.wire_len() {
                break; // record still arriving
            }
            let nonce = u64::from_be_bytes(
                self.rec[HEADER_LEN..HEADER_LEN + 8]
                    .try_into()
                    .expect("8 bytes"),
            );
            if nonce != self.records {
                sink.report(
                    Layer::Tls,
                    "record-seq",
                    now,
                    format!(
                        "{}: record #{} carries nonce {nonce} (gap or replay)",
                        self.label, self.records
                    ),
                );
                self.poisoned = true;
                return;
            }
            self.records += 1;
            self.rec.drain(..header.wire_len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_tls::{Role, TlsSession};

    fn sealed_stream() -> Vec<u8> {
        let mut client = TlsSession::new(Role::Client, 42);
        let mut server = TlsSession::new(Role::Server, 42);
        // Client->server stream only: hello, then (after the server's
        // flight) the client finish, then sealed app data.
        let mut wire = client.initial_flight().expect("client hello");
        let out = server.receive(&wire).expect("server side");
        let out2 = client.receive(&out.reply).expect("client side");
        wire.extend_from_slice(&out2.reply);
        let fin = client.seal_app_data(&[9u8; 5000]).expect("established");
        wire.extend_from_slice(&fin);
        wire
    }

    #[test]
    fn in_order_stream_is_clean() {
        let wire = sealed_stream();
        let sink = ViolationSink::new();
        let mut c = TlsDirChecker::new("l2r");
        // Feed in awkward chunk sizes to exercise partial-record paths.
        let mut off = 0u64;
        for chunk in wire.chunks(37) {
            c.on_payload(off, chunk, SimTime::ZERO, &sink);
            off += chunk.len() as u64;
        }
        assert!(sink.is_empty(), "violations: {:?}", sink.take().0);
        assert!(c.records_seen() >= 2);
    }

    #[test]
    fn reordered_and_retransmitted_segments_reassemble() {
        let wire = sealed_stream();
        let sink = ViolationSink::new();
        let mut c = TlsDirChecker::new("l2r");
        let cut = wire.len() / 2;
        // Second half first (parked), duplicate of it, then the first half.
        c.on_payload(cut as u64, &wire[cut..], SimTime::ZERO, &sink);
        c.on_payload(cut as u64, &wire[cut..], SimTime::ZERO, &sink);
        c.on_payload(0, &wire[..cut], SimTime::ZERO, &sink);
        assert!(sink.is_empty(), "violations: {:?}", sink.take().0);
        assert_eq!(c.records_seen(), {
            let mut probe = TlsDirChecker::new("probe");
            probe.on_payload(0, &wire, SimTime::ZERO, &sink);
            probe.records_seen()
        });
    }

    #[test]
    fn corrupt_header_is_flagged_once() {
        let mut wire = sealed_stream();
        wire[0] = 0xff; // unknown content type
        let sink = ViolationSink::new();
        let mut c = TlsDirChecker::new("l2r");
        c.on_payload(0, &wire, SimTime::ZERO, &sink);
        assert_eq!(sink.total(), 1);
        // Further bytes are ignored after poisoning.
        c.on_payload(wire.len() as u64, &[1, 2, 3], SimTime::ZERO, &sink);
        assert_eq!(sink.total(), 1);
    }

    #[test]
    fn oversized_record_is_flagged_as_too_long() {
        // Hand-build an application_data header whose length field
        // overshoots the tiling bound (RecordHeader::decode refuses it).
        let too_big = (MAX_CIPHERTEXT + 1) as u16;
        let mut wire = vec![23, 3, 3];
        wire.extend_from_slice(&too_big.to_be_bytes());
        wire.extend_from_slice(&[0u8; 64]);
        let sink = ViolationSink::new();
        let mut c = TlsDirChecker::new("l2r");
        c.on_payload(0, &wire, SimTime::ZERO, &sink);
        let v = sink.take().0;
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "record-too-long");
    }

    #[test]
    fn in_stream_dummy_records_are_clean() {
        // A shaping defense injects dummy app-data records sealed by the
        // sender's own writer: nonce continuity holds, so the checker
        // accepts the stream exactly as it would undefended traffic.
        let mut client = TlsSession::new(Role::Client, 42);
        let mut server = TlsSession::new(Role::Server, 42);
        let mut wire = client.initial_flight().expect("client hello");
        let out = server.receive(&wire).expect("server side");
        let out2 = client.receive(&out.reply).expect("client side");
        wire.extend_from_slice(&out2.reply);
        let base = {
            let probe_sink = ViolationSink::new();
            let mut probe = TlsDirChecker::new("probe");
            probe.on_payload(0, &wire, SimTime::ZERO, &probe_sink);
            probe.records_seen()
        };
        // Real data, two dummies (a padded-to-17B PING-shaped record and a
        // max-size pad blob), more real data.
        wire.extend_from_slice(&client.seal_app_data(&[9u8; 1200]).unwrap());
        wire.extend_from_slice(&client.seal_app_data(&[0u8; 17]).unwrap());
        wire.extend_from_slice(&client.seal_app_data(&vec![0u8; 16_384]).unwrap());
        wire.extend_from_slice(&client.seal_app_data(&[9u8; 800]).unwrap());
        let sink = ViolationSink::new();
        let mut c = TlsDirChecker::new("l2r");
        for chunk in wire.chunks(1460) {
            c.on_payload(c.next_offset, chunk, SimTime::ZERO, &sink);
        }
        assert!(sink.is_empty(), "violations: {:?}", sink.take().0);
        assert_eq!(c.records_seen(), base + 4);
    }

    #[test]
    fn out_of_band_dummy_record_breaks_sequence() {
        // The converse: a dummy record sealed by a *different* writer (a
        // middlebox with its own cipher state) restarts the nonce at 0 and
        // must trip sequence continuity when spliced into the stream.
        let wire = sealed_stream();
        let mut rogue = TlsSession::new(Role::Client, 42);
        let mut peer = TlsSession::new(Role::Server, 42);
        let hello = rogue.initial_flight().unwrap();
        let out = peer.receive(&hello).unwrap();
        rogue.receive(&out.reply).unwrap();
        let dummy = rogue.seal_app_data(&[0u8; 32]).unwrap();
        let mut spliced = wire.clone();
        spliced.extend_from_slice(&dummy);
        let sink = ViolationSink::new();
        let mut c = TlsDirChecker::new("l2r");
        c.on_payload(0, &spliced, SimTime::ZERO, &sink);
        let v = sink.take().0;
        assert_eq!(v.len(), 1, "violations: {v:?}");
        assert_eq!(v[0].rule, "record-seq");
    }

    #[test]
    fn nonce_gap_is_flagged() {
        let wire = sealed_stream();
        // Find the second record boundary and splice it out, shifting the
        // third record into its place: continuity must break.
        let h0 = RecordHeader::decode(&wire).unwrap();
        let r1 = h0.wire_len();
        let h1 = RecordHeader::decode(&wire[r1..]).unwrap();
        let r2 = r1 + h1.wire_len();
        let mut spliced = wire[..r1].to_vec();
        spliced.extend_from_slice(&wire[r2..]);
        let sink = ViolationSink::new();
        let mut c = TlsDirChecker::new("l2r");
        c.on_payload(0, &spliced, SimTime::ZERO, &sink);
        assert_eq!(sink.total(), 1, "violations: {:?}", sink.take().0);
    }
}
