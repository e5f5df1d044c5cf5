//! TLS record extraction from captured packets.
//!
//! Combines [`StreamFollower`] reassembly with the keyless
//! [`RecordScanner`] to recover, for each direction, the sequence of record
//! headers with arrival timestamps. The result is the paper's working
//! dataset: its monitor counts GET requests with the filter
//! `ssl.record.content_type == 23` over exactly this view (§IV-D, §V).
//!
//! Extraction runs online, over packets in transit: the gateway capture
//! ([`WireTrace::push`]) and the adversary's monitor each feed an
//! extractor the live segment. Record headers are read over borrowed
//! views of the segment's bytes: the follower hands each newly in-order
//! range straight to the scanner, which skips encrypted fragments by
//! their length. Nothing is allocated per packet.

use h2priv_netsim::{Dir, SimTime};
use h2priv_tcp::TcpSegment;
use h2priv_tls::{ContentType, RecordScanner};

use crate::follower::StreamFollower;
use crate::observed::WireTrace;

/// One record as seen by the observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordEvent {
    /// Arrival time of the packet that completed the record.
    pub time: SimTime,
    /// Direction of travel.
    pub dir: Dir,
    /// Content type from the plaintext record header.
    pub content_type: ContentType,
    /// Full record size on the wire (header + encrypted fragment).
    pub wire_len: usize,
    /// Offset of the record within its direction's TLS byte stream.
    pub stream_offset: u64,
}

impl RecordEvent {
    /// The encrypted fragment's plaintext length (the observer knows the
    /// record-layer constants, so this is computable without keys).
    pub fn plaintext_len(&self) -> usize {
        self.wire_len
            .saturating_sub(h2priv_tls::HEADER_LEN + h2priv_tls::AEAD_OVERHEAD)
    }
}

/// Incremental record extractor for one direction.
#[derive(Debug, Clone, Default)]
pub struct RecordExtractor {
    follower: StreamFollower,
    scanner: RecordScanner,
}

impl RecordExtractor {
    /// Creates an extractor.
    pub fn new() -> Self {
        RecordExtractor::default()
    }

    /// Feeds one segment of the followed direction, seen at `time`
    /// travelling in `dir`, and hands `emit` each record it completes, in
    /// stream order.
    pub fn push(
        &mut self,
        time: SimTime,
        dir: Dir,
        segment: &TcpSegment,
        mut emit: impl FnMut(RecordEvent),
    ) {
        let scanner = &mut self.scanner;
        self.follower.push(segment, |bytes| {
            scanner.scan(bytes, |r| {
                emit(RecordEvent {
                    time,
                    dir,
                    content_type: r.content_type,
                    wire_len: r.wire_len,
                    stream_offset: r.stream_offset,
                })
            })
        });
    }
}

/// The records a capture extracted, both directions, in arrival order: an
/// owned copy of [`WireTrace::records`].
pub fn extract_records(trace: &WireTrace) -> Vec<RecordEvent> {
    trace.records().to_vec()
}

/// Convenience filter: application-data records in one direction — the
/// paper's `content_type == 23` view.
pub fn app_data_records(records: &[RecordEvent], dir: Dir) -> Vec<RecordEvent> {
    records
        .iter()
        .filter(|r| r.dir == dir && r.content_type == ContentType::ApplicationData)
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_tcp::{Seq, TcpFlags};
    use h2priv_tls::{RecordCipher, RecordWriter};

    /// One direction's segments carrying `messages` as records: a SYN,
    /// then MSS-sized data packets one millisecond apart.
    fn segments(messages: &[(ContentType, usize)]) -> Vec<(SimTime, TcpSegment)> {
        let mut writer = RecordWriter::new(RecordCipher::new(5, 2));
        let mut stream = Vec::new();
        for &(ct, len) in messages {
            stream.extend(writer.seal_message(ct, &vec![0xAB; len]));
        }
        let syn = TcpSegment {
            seq: Seq(500),
            ack: Seq(0),
            flags: TcpFlags::SYN,
            window: 0,
            payload: h2priv_bytes::SharedBytes::new(),
        };
        let data = stream.chunks(1460).enumerate().map(|(i, chunk)| {
            let segment = TcpSegment {
                seq: Seq(501 + (i * 1460) as u32),
                ack: Seq(0),
                flags: TcpFlags::ACK,
                window: 0,
                payload: chunk.into(),
            };
            (SimTime::from_millis(1 + i as u64), segment)
        });
        std::iter::once((SimTime::ZERO, syn)).chain(data).collect()
    }

    /// Captures `segments` in the order given, travelling server→client.
    fn capture_of(segments: &[(SimTime, TcpSegment)]) -> WireTrace {
        let mut trace = WireTrace::new();
        for (time, segment) in segments {
            trace.push(*time, Dir::RightToLeft, segment);
        }
        trace
    }

    fn capture(messages: &[(ContentType, usize)]) -> WireTrace {
        capture_of(&segments(messages))
    }

    #[test]
    fn extracts_records_with_sizes() {
        let trace = capture(&[
            (ContentType::Handshake, 512),
            (ContentType::ApplicationData, 2_000),
            (ContentType::ApplicationData, 100),
        ]);
        let records = extract_records(&trace);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].content_type, ContentType::Handshake);
        assert_eq!(records[0].plaintext_len(), 512);
        assert_eq!(records[1].plaintext_len(), 2_000);
        assert_eq!(records[2].plaintext_len(), 100);
        // Offsets are cumulative.
        assert_eq!(records[1].stream_offset, records[0].wire_len as u64);
    }

    #[test]
    fn app_data_filter_matches_paper() {
        let trace = capture(&[
            (ContentType::Handshake, 512),
            (ContentType::ApplicationData, 64),
        ]);
        let records = extract_records(&trace);
        let app = app_data_records(&records, Dir::RightToLeft);
        assert_eq!(app.len(), 1);
        assert_eq!(app[0].plaintext_len(), 64);
        assert!(app_data_records(&records, Dir::LeftToRight).is_empty());
    }

    #[test]
    fn records_spanning_packets_stamp_completion_time() {
        // One 2000-byte record spans two 1460-byte packets: completion time
        // is the second packet's.
        let trace = capture(&[(ContentType::ApplicationData, 2_000)]);
        let records = extract_records(&trace);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].time, SimTime::from_millis(2));
    }

    #[test]
    fn out_of_order_capture_still_extracts() {
        let mut segments = segments(&[(ContentType::ApplicationData, 4_000)]);
        assert!(segments.len() >= 4, "a SYN and three data packets");
        // The second data packet reaches the tap before the first.
        segments.swap(1, 2);
        let trace = capture_of(&segments);
        assert!(trace.packets()[1].seq.0 > trace.packets()[2].seq.0);
        let records = extract_records(&trace);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].plaintext_len(), 4_000);
        assert_eq!(records[0].time, segments.last().unwrap().0);
    }
}
