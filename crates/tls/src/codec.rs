//! Record serialization: sealing messages into wire bytes and recovering
//! them from a (possibly fragmented) byte stream.
//!
//! [`RecordWriter`] turns application messages into one or more records —
//! fragmenting at [`MAX_PLAINTEXT`] — and [`RecordReader`] incrementally
//! parses and opens records from arbitrarily-chunked input, exactly as a
//! TLS implementation reading from a TCP socket must.
//!
//! [`RecordScanner`] is the *eavesdropper's* parser: it walks the same byte
//! stream using only the plaintext headers, yielding content types and
//! lengths without any key material. It reads each 5-byte header and skips
//! the encrypted fragment by its length, so it holds no stream bytes beyond
//! a header split across two segments, and can walk borrowed views of the
//! segments as they pass the observer. The analysis crate builds the
//! paper's `content_type == 23` filter on top of it.

use crate::cipher::RecordCipher;
use crate::record::{ContentType, RecordHeader, AEAD_OVERHEAD, HEADER_LEN, MAX_PLAINTEXT};

/// Seals application messages into record wire bytes.
#[derive(Debug, Clone)]
pub struct RecordWriter {
    cipher: RecordCipher,
}

impl RecordWriter {
    /// Creates a writer sealing with the given cipher.
    pub fn new(cipher: RecordCipher) -> Self {
        RecordWriter { cipher }
    }

    /// Seals one message, producing the wire bytes of one or more records.
    ///
    /// Messages longer than [`MAX_PLAINTEXT`] are fragmented; empty messages
    /// produce a single empty record (TLS permits these).
    pub fn seal_message(&mut self, content_type: ContentType, plaintext: &[u8]) -> Vec<u8> {
        let records = plaintext.len().div_ceil(MAX_PLAINTEXT).max(1);
        let mut out = Vec::with_capacity(plaintext.len() + records * (HEADER_LEN + AEAD_OVERHEAD));
        self.seal_message_into(content_type, plaintext, &mut out);
        out
    }

    /// Seals one message, appending its wire bytes to `out` — the sink
    /// variant of [`seal_message`](Self::seal_message), producing
    /// byte-identical output. Callers sealing a *run* of queued messages
    /// (the batched host pump) call this repeatedly against one reused
    /// buffer, so the whole run is a single keystream pass with no
    /// per-message wire allocation.
    pub fn seal_message_into(
        &mut self,
        content_type: ContentType,
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) {
        // An empty message still seals one (empty) record; otherwise the
        // chunks are iterated directly — materializing them would cost an
        // allocation per message on the pump's hottest path.
        let mut chunks = plaintext.chunks(MAX_PLAINTEXT);
        let mut chunk = chunks.next().unwrap_or(&[]);
        loop {
            let header = RecordHeader {
                content_type,
                fragment_len: (chunk.len() + AEAD_OVERHEAD) as u16,
            };
            out.extend_from_slice(&header.encode());
            // Seal straight into the wire buffer: no per-record fragment
            // allocation or copy.
            self.cipher.seal_into(chunk, out);
            match chunks.next() {
                Some(next) => chunk = next,
                None => break,
            }
        }
    }

    /// Seals one message whose plaintext is the concatenation of `parts`,
    /// appending its wire bytes to `out` — the scatter-gather variant of
    /// [`seal_message_into`](Self::seal_message_into), producing
    /// byte-identical records (same [`MAX_PLAINTEXT`] fragmentation over
    /// the logical concatenation) without the caller assembling a
    /// contiguous message. The HTTP/2 host pump passes a frame header and
    /// the stream's shared body chunk as separate parts, so body bytes are
    /// never copied into a frame buffer before sealing.
    pub fn seal_message_parts_into<const N: usize>(
        &mut self,
        content_type: ContentType,
        parts: &[&[u8]; N],
        out: &mut Vec<u8>,
    ) {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        // Record cursor into the logical concatenation: part index + byte
        // offset within it. Each record gathers at most MAX_PLAINTEXT
        // bytes as sub-slices into a stack array — no copies and no heap.
        let mut part_idx = 0usize;
        let mut part_off = 0usize;
        let mut remaining = total;
        loop {
            let n = remaining.min(MAX_PLAINTEXT);
            let mut record_parts: [&[u8]; N] = [&[]; N];
            let mut count = 0;
            let mut need = n;
            while need > 0 {
                let part = parts[part_idx];
                let avail = part.len() - part_off;
                if avail == 0 {
                    part_idx += 1;
                    part_off = 0;
                    continue;
                }
                let take = avail.min(need);
                record_parts[count] = &part[part_off..part_off + take];
                count += 1;
                part_off += take;
                need -= take;
            }
            let header = RecordHeader {
                content_type,
                fragment_len: (n + AEAD_OVERHEAD) as u16,
            };
            out.extend_from_slice(&header.encode());
            self.cipher.seal_parts_into(&record_parts[..count], out);
            remaining -= n;
            if remaining == 0 {
                break;
            }
        }
    }

    /// Records sealed so far.
    pub fn records_sealed(&self) -> u64 {
        self.cipher.seq()
    }
}

/// A message recovered by [`RecordReader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlsMessage {
    /// The record's content type.
    pub content_type: ContentType,
    /// The decrypted fragment.
    pub plaintext: Vec<u8>,
}

/// Errors surfaced while reading records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadRecordError {
    /// The stream contained bytes that do not parse as a record header.
    BadHeader,
    /// A record failed to open (bad tag / wrong sequence): the connection
    /// must be torn down, as real TLS does on a `bad_record_mac` alert.
    DecryptFailed,
}

impl std::fmt::Display for ReadRecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadRecordError::BadHeader => write!(f, "invalid record header"),
            ReadRecordError::DecryptFailed => write!(f, "record failed to decrypt"),
        }
    }
}

impl std::error::Error for ReadRecordError {}

/// Incrementally parses and opens records from a byte stream.
///
/// Records that lie entirely within the bytes handed to
/// [`next_record_borrowed`](Self::next_record_borrowed) are opened in
/// place; only a trailing partial record is stashed for the next feed.
/// Consumed stash bytes advance a cursor instead of draining the front of
/// the buffer (the `memmove` a `Vec::drain` would do on every record); the
/// consumed prefix is reclaimed at the quiescent points (buffer fully
/// drained, or waiting for more bytes).
#[derive(Debug, Clone)]
pub struct RecordReader {
    cipher: RecordCipher,
    buf: Vec<u8>,
    /// Start of unconsumed bytes in `buf`.
    pos: usize,
    poisoned: bool,
}

impl RecordReader {
    /// Creates a reader opening with the given cipher.
    pub fn new(cipher: RecordCipher) -> Self {
        RecordReader {
            cipher,
            buf: Vec::new(),
            pos: 0,
            poisoned: false,
        }
    }

    /// Appends newly received stream bytes for
    /// [`next_message`](Self::next_message).
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Surrenders the stash buffer's capacity (for a buffer pool) when no
    /// partial record is pending. Streams that are done free their stash;
    /// a reader that receives again simply reallocates.
    pub fn take_buf_spare(&mut self) -> Option<Vec<u8>> {
        if self.pos == 0 && self.buf.is_empty() && self.buf.capacity() > 0 {
            Some(std::mem::take(&mut self.buf))
        } else {
            None
        }
    }

    /// Seeds the stash buffer with recycled capacity; kept only when the
    /// current buffer is empty with none. `buf` is cleared.
    pub fn give_buf_spare(&mut self, mut buf: Vec<u8>) {
        if self.pos == 0 && self.buf.is_empty() && self.buf.capacity() == 0 && buf.capacity() > 0 {
            buf.clear();
            self.buf = buf;
        }
    }

    /// Reclaims the consumed prefix. Called only when parsing pauses, so
    /// the cost is once per burst of records, not once per record.
    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Attempts to read the next complete message from the bytes
    /// [`push`](Self::push)ed so far.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed headers or decryption failure; after an
    /// error the reader is poisoned and every subsequent call fails, because
    /// record boundaries can no longer be trusted.
    pub fn next_message(&mut self) -> Result<Option<TlsMessage>, ReadRecordError> {
        let mut plaintext = Vec::new();
        Ok(self
            .next_record_borrowed(&mut &[][..], &mut plaintext)?
            .map(|content_type| TlsMessage {
                content_type,
                plaintext,
            }))
    }

    /// Attempts to read the next complete record from the stash plus
    /// `input`, consuming from `input` and appending plaintext to `out`:
    /// records that lie entirely within `input` are opened *borrowed* —
    /// never copied into the stash — and only a trailing partial record is
    /// stashed for the next feed. Returns the record's content type, or
    /// `Ok(None)` when more bytes are needed (`input` is then empty). On
    /// `Ok(None)` and on errors `out` is untouched.
    ///
    /// # Errors
    ///
    /// As for [`next_message`](Self::next_message).
    pub fn next_record_borrowed(
        &mut self,
        input: &mut &[u8],
        out: &mut Vec<u8>,
    ) -> Result<Option<ContentType>, ReadRecordError> {
        if self.poisoned {
            return Err(ReadRecordError::DecryptFailed);
        }
        let read = self.read_record(input, out);
        self.poisoned = read.is_err();
        read
    }

    fn read_record(
        &mut self,
        input: &mut &[u8],
        out: &mut Vec<u8>,
    ) -> Result<Option<ContentType>, ReadRecordError> {
        loop {
            if self.buffered_len() == 0 {
                // Nothing stashed: open straight from the borrowed input.
                return Ok(match open_front(&mut self.cipher, input, out)? {
                    Step::Need(_) => {
                        self.buf.extend_from_slice(input);
                        *input = &[];
                        None
                    }
                    Step::Opened(content_type, n) => {
                        *input = &input[n..];
                        Some(content_type)
                    }
                });
            }
            // Finish the stashed record, topping it up with only the bytes
            // it needs.
            match open_front(&mut self.cipher, &self.buf[self.pos..], out)? {
                Step::Need(n) => {
                    let take = (n - self.buffered_len()).min(input.len());
                    if take == 0 {
                        self.compact();
                        return Ok(None);
                    }
                    self.buf.extend_from_slice(&input[..take]);
                    *input = &input[take..];
                }
                Step::Opened(content_type, n) => {
                    self.pos += n;
                    if self.pos == self.buf.len() {
                        self.buf.clear();
                        self.pos = 0;
                    }
                    return Ok(Some(content_type));
                }
            }
        }
    }

    /// Drains all complete messages currently buffered.
    ///
    /// # Errors
    ///
    /// As for [`RecordReader::next_message`].
    pub fn drain_messages(&mut self) -> Result<Vec<TlsMessage>, ReadRecordError> {
        let mut out = Vec::new();
        while let Some(msg) = self.next_message()? {
            out.push(msg);
        }
        Ok(out)
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered_len(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// What [`open_front`] made of the bytes at the front of a contiguous
/// slice.
enum Step {
    /// The record there is incomplete: it needs this many bytes in all.
    Need(usize),
    /// A record of this many wire bytes opened; its plaintext was appended.
    Opened(ContentType, usize),
}

/// The one record parser behind [`RecordReader`]'s entry points: decodes
/// the header at the front of `avail` and, once the whole record is there,
/// opens it into `out`.
fn open_front(
    cipher: &mut RecordCipher,
    avail: &[u8],
    out: &mut Vec<u8>,
) -> Result<Step, ReadRecordError> {
    if avail.len() < HEADER_LEN {
        return Ok(Step::Need(HEADER_LEN));
    }
    let header = RecordHeader::decode(avail).ok_or(ReadRecordError::BadHeader)?;
    let Some(fragment) = avail.get(HEADER_LEN..header.wire_len()) else {
        return Ok(Step::Need(header.wire_len()));
    };
    if !cipher.open_into(fragment, out) {
        return Err(ReadRecordError::DecryptFailed);
    }
    Ok(Step::Opened(header.content_type, header.wire_len()))
}

/// Header-level view of one record, as visible to an eavesdropper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScannedRecord {
    /// Content type from the plaintext header.
    pub content_type: ContentType,
    /// Total record size on the wire (header + encrypted fragment).
    pub wire_len: usize,
    /// Offset of the record's first byte within the scanned stream.
    pub stream_offset: u64,
}

/// Parses record *headers* from a byte stream without any key material —
/// the passive observer's view.
///
/// The scanner never buffers the stream: it reads each 5-byte header and
/// skips the encrypted fragment by its length. The only bytes it keeps
/// are the part of a header that straddles two calls to
/// [`scan`](Self::scan).
#[derive(Debug, Clone, Default)]
pub struct RecordScanner {
    /// The part of the next header seen so far: `header[..header_len]`.
    header: [u8; HEADER_LEN],
    header_len: usize,
    /// The record whose header has been read, while its fragment is
    /// being skipped.
    current: Option<ScannedRecord>,
    /// Fragment bytes of `current` still to skip.
    fragment_left: usize,
    /// Stream offset of the next header's first byte.
    offset: u64,
    desynced: bool,
}

impl RecordScanner {
    /// Creates an empty scanner.
    pub fn new() -> Self {
        RecordScanner::default()
    }

    /// True if the scanner hit an unparseable header and gave up; real
    /// monitors resynchronize heuristically, ours reports the condition.
    pub fn is_desynced(&self) -> bool {
        self.desynced
    }

    /// Walks the next observed stream bytes, handing `emit` each record
    /// they complete, in stream order. A record counts as complete once
    /// its last fragment byte has been seen. An undecodable header stops
    /// the walk for good.
    pub fn scan(&mut self, mut bytes: &[u8], mut emit: impl FnMut(ScannedRecord)) {
        while !self.desynced {
            if let Some(record) = self.current {
                let skip = self.fragment_left.min(bytes.len());
                self.fragment_left -= skip;
                bytes = &bytes[skip..];
                if self.fragment_left > 0 {
                    return;
                }
                self.current = None;
                self.offset += record.wire_len as u64;
                emit(record);
            }
            let header = if self.header_len == 0 && bytes.len() >= HEADER_LEN {
                let (header, rest) = bytes.split_at(HEADER_LEN);
                bytes = rest;
                header
            } else {
                let take = (HEADER_LEN - self.header_len).min(bytes.len());
                self.header[self.header_len..self.header_len + take]
                    .copy_from_slice(&bytes[..take]);
                self.header_len += take;
                bytes = &bytes[take..];
                if self.header_len < HEADER_LEN {
                    return;
                }
                self.header_len = 0;
                &self.header[..]
            };
            let Some(header) = RecordHeader::decode(header) else {
                self.desynced = true;
                return;
            };
            self.current = Some(ScannedRecord {
                content_type: header.content_type,
                wire_len: header.wire_len(),
                stream_offset: self.offset,
            });
            self.fragment_left = header.fragment_len as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::AEAD_OVERHEAD;

    fn pair() -> (RecordWriter, RecordReader) {
        (
            RecordWriter::new(RecordCipher::new(9, 1)),
            RecordReader::new(RecordCipher::new(9, 1)),
        )
    }

    #[test]
    fn parts_seal_matches_contiguous_seal() {
        // Gather sealing must fragment and seal exactly as the contiguous
        // path does, for messages below, at, and spanning MAX_PLAINTEXT —
        // including record boundaries that fall inside a part.
        for (label, sizes) in [
            ("sub-record", [10usize, 100, 7]),
            ("exact record", [9, MAX_PLAINTEXT - 9, 0]),
            ("multi-record", [10, 2 * MAX_PLAINTEXT + 100, 4990]),
            ("empty parts", [0, 25, 0]),
            ("all empty", [0, 0, 0]),
        ] {
            let total: usize = sizes.iter().sum();
            let msg: Vec<u8> = (0..total).map(|i| (i % 249) as u8).collect();
            let mut contiguous = Vec::new();
            RecordWriter::new(RecordCipher::new(9, 1)).seal_message_into(
                ContentType::ApplicationData,
                &msg,
                &mut contiguous,
            );
            let mut pos = 0;
            let parts = sizes.map(|n| {
                pos += n;
                &msg[pos - n..pos]
            });
            let mut gathered = Vec::new();
            RecordWriter::new(RecordCipher::new(9, 1)).seal_message_parts_into(
                ContentType::ApplicationData,
                &parts,
                &mut gathered,
            );
            assert_eq!(gathered, contiguous, "{label}");
        }
    }

    #[test]
    fn single_message_roundtrip() {
        let (mut w, mut r) = pair();
        let wire = w.seal_message(ContentType::ApplicationData, b"GET /index");
        r.push(&wire);
        let msg = r.next_message().unwrap().unwrap();
        assert_eq!(msg.content_type, ContentType::ApplicationData);
        assert_eq!(msg.plaintext, b"GET /index");
        assert_eq!(r.next_message().unwrap(), None);
        assert_eq!(r.buffered_len(), 0);
    }

    #[test]
    fn large_message_fragments() {
        let (mut w, mut r) = pair();
        let big = vec![7u8; MAX_PLAINTEXT * 2 + 100];
        let wire = w.seal_message(ContentType::ApplicationData, &big);
        assert_eq!(w.records_sealed(), 3);
        r.push(&wire);
        let msgs = r.drain_messages().unwrap();
        assert_eq!(msgs.len(), 3);
        let total: Vec<u8> = msgs.into_iter().flat_map(|m| m.plaintext).collect();
        assert_eq!(total, big);
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let (mut w, mut r) = pair();
        let wire = w.seal_message(ContentType::Handshake, b"hello");
        let mut got = None;
        for &b in &wire {
            r.push(&[b]);
            if let Some(msg) = r.next_message().unwrap() {
                assert!(got.is_none());
                got = Some(msg);
            }
        }
        assert_eq!(got.unwrap().plaintext, b"hello");
    }

    #[test]
    fn interleaved_content_types() {
        let (mut w, mut r) = pair();
        let mut wire = w.seal_message(ContentType::Handshake, b"finished");
        wire.extend(w.seal_message(ContentType::ApplicationData, b"data"));
        r.push(&wire);
        let msgs = r.drain_messages().unwrap();
        assert_eq!(msgs[0].content_type, ContentType::Handshake);
        assert_eq!(msgs[1].content_type, ContentType::ApplicationData);
    }

    #[test]
    fn empty_message_roundtrips() {
        let (mut w, mut r) = pair();
        let wire = w.seal_message(ContentType::Alert, b"");
        assert_eq!(wire.len(), HEADER_LEN + AEAD_OVERHEAD);
        r.push(&wire);
        let msg = r.next_message().unwrap().unwrap();
        assert!(msg.plaintext.is_empty());
    }

    #[test]
    fn corrupted_stream_poisons_reader() {
        let (mut w, mut r) = pair();
        let mut wire = w.seal_message(ContentType::ApplicationData, b"secret");
        wire[HEADER_LEN + 9] ^= 0xFF;
        r.push(&wire);
        assert_eq!(r.next_message(), Err(ReadRecordError::DecryptFailed));
        assert_eq!(r.next_message(), Err(ReadRecordError::DecryptFailed));
    }

    #[test]
    fn garbage_header_is_bad_header() {
        let (_, mut r) = pair();
        r.push(&[0xFFu8; 16]);
        assert_eq!(r.next_message(), Err(ReadRecordError::BadHeader));
    }

    fn scan(scanner: &mut RecordScanner, bytes: &[u8]) -> Vec<ScannedRecord> {
        let mut out = Vec::new();
        scanner.scan(bytes, |record| out.push(record));
        out
    }

    #[test]
    fn scanner_sees_types_and_lengths_only() {
        let mut w = RecordWriter::new(RecordCipher::new(123, 2));
        let mut scanner = RecordScanner::new();
        let mut wire = w.seal_message(ContentType::Handshake, &[0u8; 300]);
        wire.extend(w.seal_message(ContentType::ApplicationData, &[1u8; 1000]));
        let records = scan(&mut scanner, &wire);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].content_type, ContentType::Handshake);
        assert_eq!(records[0].wire_len, HEADER_LEN + 300 + AEAD_OVERHEAD);
        assert_eq!(records[0].stream_offset, 0);
        assert_eq!(records[1].content_type, ContentType::ApplicationData);
        assert_eq!(records[1].wire_len, HEADER_LEN + 1000 + AEAD_OVERHEAD);
        assert_eq!(records[1].stream_offset, records[0].wire_len as u64);
    }

    #[test]
    fn scanner_handles_partial_chunks() {
        let mut w = RecordWriter::new(RecordCipher::new(123, 2));
        let wire = w.seal_message(ContentType::ApplicationData, &[1u8; 500]);
        let mut scanner = RecordScanner::new();
        let mid = wire.len() / 2;
        assert!(scan(&mut scanner, &wire[..mid]).is_empty());
        let records = scan(&mut scanner, &wire[mid..]);
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn scanner_desyncs_on_garbage() {
        let mut scanner = RecordScanner::new();
        assert!(scan(&mut scanner, &[0u8; 32]).is_empty());
        assert!(scanner.is_desynced());
    }
}
