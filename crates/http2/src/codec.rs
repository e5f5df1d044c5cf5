//! Frame serialization (RFC 7540 §4.1) and the connection preface.

use crate::error::ErrorCode;
use crate::frame::{flags, Frame, FrameType, SettingId, DEFAULT_MAX_FRAME_SIZE, FRAME_HEADER_LEN};
use crate::stream::StreamId;

/// The 24-byte client connection preface (RFC 7540 §3.5).
pub const CLIENT_PREFACE: &[u8] = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";

/// Errors from decoding the frame layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDecodeError {
    /// Frame length exceeds the negotiated maximum.
    FrameTooLarge,
    /// A fixed-layout frame had the wrong payload size.
    BadLength(FrameType),
    /// PUSH_PROMISE arrived although push is disabled in the model.
    PushUnsupported,
    /// CONTINUATION arrived outside a header sequence, or a non-
    /// CONTINUATION frame interrupted one (RFC 7540 §6.10).
    UnexpectedContinuation,
    /// A PADDED frame declared a pad length of the payload length or more
    /// — a connection error of type PROTOCOL_ERROR (RFC 7540 §6.1).
    BadPadding(FrameType),
    /// A PADDED frame carried non-zero padding octets. RFC 7540 §6.1 says
    /// padding MUST be zero and a receiver MAY treat violations as
    /// PROTOCOL_ERROR; this model always does, so covert channels in pad
    /// bytes surface as conformance violations.
    NonZeroPadding(FrameType),
    /// The client preface bytes were wrong.
    BadPreface,
}

impl std::fmt::Display for FrameDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameDecodeError::FrameTooLarge => write!(f, "frame exceeds max frame size"),
            FrameDecodeError::BadLength(t) => write!(f, "bad payload length for {t:?}"),
            FrameDecodeError::PushUnsupported => write!(f, "push promise not supported"),
            FrameDecodeError::UnexpectedContinuation => write!(f, "unexpected continuation"),
            FrameDecodeError::BadPadding(t) => {
                write!(f, "pad length >= payload length for {t:?} (PROTOCOL_ERROR)")
            }
            FrameDecodeError::NonZeroPadding(t) => {
                write!(f, "non-zero padding octets in {t:?} (PROTOCOL_ERROR)")
            }
            FrameDecodeError::BadPreface => write!(f, "invalid client preface"),
        }
    }
}

impl std::error::Error for FrameDecodeError {}

fn put_u24(out: &mut Vec<u8>, v: usize) {
    debug_assert!(v < 1 << 24);
    out.extend_from_slice(&[(v >> 16) as u8, (v >> 8) as u8, v as u8]);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn header(out: &mut Vec<u8>, len: usize, ftype: FrameType, fl: u8, stream: StreamId) {
    put_u24(out, len);
    out.push(ftype.as_u8());
    out.push(fl);
    put_u32(out, stream.0 & 0x7FFF_FFFF);
}

/// Appends the wire bytes that precede a DATA frame's body: the 9-byte
/// header plus the pad-length octet when padded. The send path encodes
/// only this much and hands the body through as a shared chunk.
pub(crate) fn encode_data_head_into(
    out: &mut Vec<u8>,
    stream_id: StreamId,
    end_stream: bool,
    body_len: usize,
    pad: Option<u8>,
) {
    let mut fl = if end_stream { flags::END_STREAM } else { 0 };
    if pad.is_some() {
        fl |= flags::PADDED;
    }
    let len = body_len + crate::frame::pad_overhead(pad);
    header(out, len, FrameType::Data, fl, stream_id);
    out.extend(pad);
}

/// Encodes a header block as a HEADERS frame followed by CONTINUATION
/// frames when the block exceeds `max_frame_size` (RFC 7540 §6.10).
pub fn encode_headers_split(
    stream_id: StreamId,
    end_stream: bool,
    block: &[u8],
    max_frame_size: usize,
) -> Vec<u8> {
    let max = max_frame_size.max(1);
    if block.len() <= max {
        return encode_frame(&Frame::Headers {
            stream_id,
            end_stream,
            header_block: block.to_vec(),
            pad: None,
        });
    }
    let mut out = Vec::with_capacity(block.len() + 64);
    let chunks: Vec<&[u8]> = block.chunks(max).collect();
    let last = chunks.len() - 1;
    for (i, chunk) in chunks.into_iter().enumerate() {
        if i == 0 {
            // HEADERS without END_HEADERS.
            let fl = if end_stream { flags::END_STREAM } else { 0 };
            header(&mut out, chunk.len(), FrameType::Headers, fl, stream_id);
        } else {
            let fl = if i == last { flags::END_HEADERS } else { 0 };
            header(
                &mut out,
                chunk.len(),
                FrameType::Continuation,
                fl,
                stream_id,
            );
        }
        out.extend_from_slice(chunk);
    }
    out
}

/// Encodes one frame to wire bytes.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(&mut out, frame);
    out
}

/// Encodes one frame, appending its wire bytes to `out` (a recycled frame
/// buffer on the send path).
pub fn encode_frame_into(out: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Data {
            stream_id,
            end_stream,
            data,
            pad,
        } => {
            encode_data_head_into(out, *stream_id, *end_stream, data.len(), *pad);
            out.extend_from_slice(data);
            out.resize(out.len() + pad.map_or(0, usize::from), 0);
        }
        Frame::Headers {
            stream_id,
            end_stream,
            header_block,
            pad,
        } => {
            let mut fl = flags::END_HEADERS;
            if *end_stream {
                fl |= flags::END_STREAM;
            }
            if pad.is_some() {
                fl |= flags::PADDED;
            }
            let len = header_block.len() + crate::frame::pad_overhead(*pad);
            header(out, len, FrameType::Headers, fl, *stream_id);
            if let Some(p) = pad {
                out.push(*p);
            }
            out.extend_from_slice(header_block);
            if let Some(p) = pad {
                out.resize(out.len() + *p as usize, 0);
            }
        }
        Frame::Priority {
            stream_id,
            depends_on,
            exclusive,
            weight,
        } => {
            header(out, 5, FrameType::Priority, 0, *stream_id);
            let dep = (depends_on.0 & 0x7FFF_FFFF) | if *exclusive { 0x8000_0000 } else { 0 };
            put_u32(out, dep);
            out.push(*weight);
        }
        Frame::RstStream {
            stream_id,
            error_code,
        } => {
            header(out, 4, FrameType::RstStream, 0, *stream_id);
            put_u32(out, error_code.as_u32());
        }
        Frame::Settings { ack, settings } => {
            let fl = if *ack { flags::ACK } else { 0 };
            header(
                out,
                settings.len() * 6,
                FrameType::Settings,
                fl,
                StreamId::CONNECTION,
            );
            for &(id, value) in settings {
                out.extend_from_slice(&id.as_u16().to_be_bytes());
                put_u32(out, value);
            }
        }
        Frame::Ping { ack, data } => {
            let fl = if *ack { flags::ACK } else { 0 };
            header(out, 8, FrameType::Ping, fl, StreamId::CONNECTION);
            out.extend_from_slice(data);
        }
        Frame::GoAway {
            last_stream_id,
            error_code,
        } => {
            header(out, 8, FrameType::GoAway, 0, StreamId::CONNECTION);
            put_u32(out, last_stream_id.0 & 0x7FFF_FFFF);
            put_u32(out, error_code.as_u32());
        }
        Frame::WindowUpdate {
            stream_id,
            increment,
        } => {
            header(out, 4, FrameType::WindowUpdate, 0, *stream_id);
            put_u32(out, increment & 0x7FFF_FFFF);
        }
    }
}

/// The fixed 9-byte header that starts every frame (RFC 7540 §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload length from the 24-bit field, not yet checked against
    /// `SETTINGS_MAX_FRAME_SIZE`.
    pub len: usize,
    /// The frame type; `None` for a type this model does not know, which
    /// a receiver must ignore (RFC 7540 §4.1).
    pub kind: Option<FrameType>,
    /// The flags octet.
    pub flags: u8,
    /// The stream, with the reserved bit cleared.
    pub stream_id: StreamId,
}

impl FrameHeader {
    /// Decodes the header at the front of `bytes`: the one place frame
    /// headers are read from the wire. `None` when fewer than
    /// [`FRAME_HEADER_LEN`] bytes are there.
    pub fn decode(bytes: &[u8]) -> Option<FrameHeader> {
        let h = bytes.get(..FRAME_HEADER_LEN)?;
        Some(FrameHeader {
            len: u32::from_be_bytes([0, h[0], h[1], h[2]]) as usize,
            kind: FrameType::from_u8(h[3]),
            flags: h[4],
            stream_id: StreamId(u32::from_be_bytes([h[5], h[6], h[7], h[8]]) & 0x7FFF_FFFF),
        })
    }
}

/// What [`FrameDecoder::parse_front`] made of the bytes at the front of a
/// contiguous slice.
enum Step {
    /// The frame there is incomplete: it needs this many bytes in all.
    Need(usize),
    /// Consume this many bytes, then take the result: a frame, `None` for
    /// a frame consumed without yielding one (an unknown type, or a header
    /// fragment awaiting CONTINUATION), or a protocol error.
    Done(usize, Result<Option<Frame>, FrameDecodeError>),
}

/// Incremental frame parser over a byte stream.
///
/// Frames that lie entirely within the bytes handed to
/// [`next_frame_borrowed`](Self::next_frame_borrowed) are parsed in place;
/// only a trailing partial frame is stashed for the next feed. Consumed
/// stash bytes advance a cursor rather than draining the front of the
/// buffer, and the consumed prefix is reclaimed when parsing pauses.
#[derive(Debug, Clone)]
pub struct FrameDecoder {
    /// Stashed bytes: a partial frame, or whatever [`push`](Self::push)
    /// buffered.
    buf: Vec<u8>,
    /// Start of unconsumed bytes in `buf`.
    pos: usize,
    max_frame_size: usize,
    /// Client preface bytes still expected (server side only).
    preface_remaining: usize,
    /// An in-progress header sequence: (stream, end_stream, accumulated
    /// block). While set, only CONTINUATION frames for that stream are
    /// legal (RFC 7540 §6.10).
    header_sequence: Option<(StreamId, bool, Vec<u8>)>,
    /// When set, decoded DATA payloads are length-only zero-page views
    /// (see [`set_opaque_data`](Self::set_opaque_data)); padding is still
    /// validated against the real bytes.
    opaque_data: bool,
}

impl FrameDecoder {
    /// Creates a decoder. `expect_preface` is true on the server, which
    /// must first consume the 24-byte client preface.
    pub fn new(expect_preface: bool) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            max_frame_size: DEFAULT_MAX_FRAME_SIZE,
            preface_remaining: if expect_preface {
                CLIENT_PREFACE.len()
            } else {
                0
            },
            header_sequence: None,
            opaque_data: false,
        }
    }

    /// Updates the advertised `SETTINGS_MAX_FRAME_SIZE`.
    pub fn set_max_frame_size(&mut self, size: usize) {
        self.max_frame_size = size;
    }

    /// Switches DATA payload delivery to opaque length-only views, backed
    /// by a shared zero page instead of a copy of the received bytes.
    /// Every reader in the workspace decodes this way, since each reads
    /// only a DATA frame's length: [`H2Connection`](crate::H2Connection),
    /// the conformance oracle and the DoS attacker. Only the codec's
    /// round-trip tests keep the default and get copies of the bytes.
    pub fn set_opaque_data(&mut self, opaque: bool) {
        self.opaque_data = opaque;
    }

    /// Stream of the HEADERS/CONTINUATION sequence currently being
    /// reassembled, if one is open. While it is, RFC 7540 §4.3 forbids the
    /// peer from interleaving any other frame — which is exactly why a
    /// slow-trickled sequence pins receiver state (the slow-HEADERS DoS).
    pub fn in_progress_header_stream(&self) -> Option<StreamId> {
        self.header_sequence.as_ref().map(|(id, _, _)| *id)
    }

    /// Appends received bytes for [`next_frame`](Self::next_frame).
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed.
    fn buffered_len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reclaims the consumed prefix. Called only when parsing pauses, so
    /// the cost is once per burst of frames, not once per frame.
    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Attempts to parse the next frame from the bytes
    /// [`push`](Self::push)ed so far; `Ok(None)` means more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Fails on protocol violations; the connection must then GOAWAY.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameDecodeError> {
        self.next_frame_borrowed(&mut &[][..])
    }

    /// Attempts to parse the next frame from the stash plus `input`,
    /// consuming from `input`: frames that lie entirely within `input` are
    /// parsed borrowed — only their payload is copied out, never the whole
    /// stream — and a trailing partial frame is stashed for the next feed.
    /// `Ok(None)` means more bytes are needed; `input` is then empty.
    ///
    /// # Errors
    ///
    /// As for [`next_frame`](Self::next_frame).
    pub fn next_frame_borrowed(
        &mut self,
        input: &mut &[u8],
    ) -> Result<Option<Frame>, FrameDecodeError> {
        if self.preface_remaining > 0 {
            // Startup (once per connection): check the preface in the stash.
            self.push(input);
            *input = &[];
            let take = self.preface_remaining.min(self.buffered_len());
            let expected = &CLIENT_PREFACE[CLIENT_PREFACE.len() - self.preface_remaining..][..take];
            if &self.buf[self.pos..self.pos + take] != expected {
                return Err(FrameDecodeError::BadPreface);
            }
            self.pos += take;
            self.preface_remaining -= take;
            self.compact();
        }
        loop {
            if self.buffered_len() == 0 {
                // Nothing stashed: parse straight from the borrowed input.
                match self.parse_front(input) {
                    Step::Need(_) => {
                        self.buf.extend_from_slice(input);
                        *input = &[];
                        return Ok(None);
                    }
                    Step::Done(n, frame) => {
                        *input = &input[n..];
                        if let Some(frame) = frame? {
                            return Ok(Some(frame));
                        }
                    }
                }
                continue;
            }
            // Finish the stashed frame, topping it up with only the bytes
            // it needs.
            let buf = std::mem::take(&mut self.buf);
            let step = self.parse_front(&buf[self.pos..]);
            self.buf = buf;
            match step {
                Step::Need(n) => {
                    let take = (n - self.buffered_len()).min(input.len());
                    if take == 0 {
                        self.compact();
                        return Ok(None);
                    }
                    self.buf.extend_from_slice(&input[..take]);
                    *input = &input[take..];
                }
                Step::Done(n, frame) => {
                    self.pos += n;
                    if self.pos == self.buf.len() {
                        self.buf.clear();
                        self.pos = 0;
                    }
                    if let Some(frame) = frame? {
                        return Ok(Some(frame));
                    }
                }
            }
        }
    }

    /// The one frame parser behind both entry points: reads the frame at
    /// the front of `avail` — header, size limit, unknown-type skip,
    /// CONTINUATION rule, payload.
    fn parse_front(&mut self, avail: &[u8]) -> Step {
        let Some(h) = FrameHeader::decode(avail) else {
            return Step::Need(FRAME_HEADER_LEN);
        };
        if h.len > self.max_frame_size {
            return Step::Done(0, Err(FrameDecodeError::FrameTooLarge));
        }
        let wire_len = FRAME_HEADER_LEN + h.len;
        let Some(payload) = avail.get(FRAME_HEADER_LEN..wire_len) else {
            return Step::Need(wire_len);
        };
        let frame = match h.kind {
            // RFC 7540 §4.1: unknown types are ignored.
            None => Ok(None),
            // A header sequence admits only its own CONTINUATIONs.
            Some(kind)
                if self.header_sequence.as_ref().is_some_and(|(stream, _, _)| {
                    kind != FrameType::Continuation || h.stream_id != *stream
                }) =>
            {
                Err(FrameDecodeError::UnexpectedContinuation)
            }
            Some(kind) => self.parse(kind, h.flags, h.stream_id, payload),
        };
        Step::Done(wire_len, frame)
    }

    fn parse(
        &mut self,
        ftype: FrameType,
        fl: u8,
        stream_id: StreamId,
        payload: &[u8],
    ) -> Result<Option<Frame>, FrameDecodeError> {
        match ftype {
            FrameType::Data => {
                // The content is copied out of the wire bytes once, or in
                // opaque mode replaced by a zero-page view of the same
                // length with no allocation at all.
                let (content, pad) = strip_padding(FrameType::Data, fl, payload)?;
                let data = if self.opaque_data {
                    h2priv_bytes::SharedBytes::zeros(content.len())
                } else {
                    h2priv_bytes::SharedBytes::copy_from_slice(content)
                };
                Ok(Some(Frame::Data {
                    stream_id,
                    end_stream: fl & flags::END_STREAM != 0,
                    data,
                    pad,
                }))
            }
            FrameType::Headers => {
                let (mut block, pad) = strip_padding(FrameType::Headers, fl, payload)?;
                if fl & flags::PRIORITY != 0 {
                    // Dependency + weight, advisory only.
                    block = block
                        .get(5..)
                        .ok_or(FrameDecodeError::BadLength(FrameType::Headers))?;
                }
                if fl & flags::END_HEADERS == 0 {
                    // Begin a header sequence awaiting CONTINUATION. The
                    // opening frame's padding is already accounted on the
                    // wire; the reassembled block reports no pad.
                    self.header_sequence =
                        Some((stream_id, fl & flags::END_STREAM != 0, block.to_vec()));
                    return Ok(None);
                }
                Ok(Some(Frame::Headers {
                    stream_id,
                    end_stream: fl & flags::END_STREAM != 0,
                    header_block: block.to_vec(),
                    pad,
                }))
            }
            FrameType::Priority => {
                if payload.len() != 5 {
                    return Err(FrameDecodeError::BadLength(FrameType::Priority));
                }
                let dep = u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]]);
                Ok(Some(Frame::Priority {
                    stream_id,
                    depends_on: StreamId(dep & 0x7FFF_FFFF),
                    exclusive: dep & 0x8000_0000 != 0,
                    weight: payload[4],
                }))
            }
            FrameType::RstStream => {
                if payload.len() != 4 {
                    return Err(FrameDecodeError::BadLength(FrameType::RstStream));
                }
                Ok(Some(Frame::RstStream {
                    stream_id,
                    error_code: ErrorCode::from_u32(u32::from_be_bytes(
                        payload[..4].try_into().expect("4 bytes"),
                    )),
                }))
            }
            FrameType::Settings => {
                if !payload.len().is_multiple_of(6) {
                    return Err(FrameDecodeError::BadLength(FrameType::Settings));
                }
                let mut settings = Vec::new();
                for chunk in payload.chunks_exact(6) {
                    let id = u16::from_be_bytes([chunk[0], chunk[1]]);
                    let value = u32::from_be_bytes([chunk[2], chunk[3], chunk[4], chunk[5]]);
                    if let Some(id) = SettingId::from_u16(id) {
                        settings.push((id, value));
                    }
                    // Unknown settings are ignored (RFC 7540 §6.5.2).
                }
                Ok(Some(Frame::Settings {
                    ack: fl & flags::ACK != 0,
                    settings,
                }))
            }
            FrameType::Ping => {
                if payload.len() != 8 {
                    return Err(FrameDecodeError::BadLength(FrameType::Ping));
                }
                Ok(Some(Frame::Ping {
                    ack: fl & flags::ACK != 0,
                    data: payload[..8].try_into().expect("8 bytes"),
                }))
            }
            FrameType::GoAway => {
                if payload.len() < 8 {
                    return Err(FrameDecodeError::BadLength(FrameType::GoAway));
                }
                Ok(Some(Frame::GoAway {
                    last_stream_id: StreamId(
                        u32::from_be_bytes(payload[..4].try_into().expect("4 bytes")) & 0x7FFF_FFFF,
                    ),
                    error_code: ErrorCode::from_u32(u32::from_be_bytes(
                        payload[4..8].try_into().expect("4 bytes"),
                    )),
                }))
            }
            FrameType::WindowUpdate => {
                if payload.len() != 4 {
                    return Err(FrameDecodeError::BadLength(FrameType::WindowUpdate));
                }
                Ok(Some(Frame::WindowUpdate {
                    stream_id,
                    increment: u32::from_be_bytes(payload[..4].try_into().expect("4 bytes"))
                        & 0x7FFF_FFFF,
                }))
            }
            FrameType::PushPromise => Err(FrameDecodeError::PushUnsupported),
            FrameType::Continuation => {
                let Some((seq_stream, end_stream, mut block)) = self.header_sequence.take() else {
                    return Err(FrameDecodeError::UnexpectedContinuation);
                };
                debug_assert_eq!(seq_stream, stream_id); // checked upstream
                block.extend_from_slice(payload);
                if fl & flags::END_HEADERS == 0 {
                    self.header_sequence = Some((seq_stream, end_stream, block));
                    return Ok(None);
                }
                Ok(Some(Frame::Headers {
                    stream_id: seq_stream,
                    end_stream,
                    header_block: block,
                    pad: None,
                }))
            }
        }
    }
}

/// Strips DATA/HEADERS padding, returning the content as a sub-slice of
/// `payload` and the pad length (`None` when the PADDED flag is unset).
///
/// # Errors
///
/// `BadPadding` when `pad_len >= payload length` — RFC 7540 §6.1 makes
/// this a connection error of type PROTOCOL_ERROR, not a droppable frame —
/// and `NonZeroPadding` when any pad octet is non-zero (padding MUST be
/// zero; this model enforces the RFC's MAY-check unconditionally so the
/// conformance oracle sees covert pad contents).
fn strip_padding(
    ftype: FrameType,
    fl: u8,
    payload: &[u8],
) -> Result<(&[u8], Option<u8>), FrameDecodeError> {
    if fl & flags::PADDED == 0 {
        return Ok((payload, None));
    }
    let Some((&pad_len, rest)) = payload.split_first() else {
        return Err(FrameDecodeError::BadPadding(ftype));
    };
    let Some(rest_len) = rest.len().checked_sub(pad_len as usize) else {
        return Err(FrameDecodeError::BadPadding(ftype));
    };
    if rest[rest_len..].iter().any(|&b| b != 0) {
        return Err(FrameDecodeError::NonZeroPadding(ftype));
    }
    Ok((&rest[..rest_len], Some(pad_len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = encode_frame(&frame);
        let mut dec = FrameDecoder::new(false);
        dec.push(&bytes);
        assert_eq!(dec.next_frame().unwrap(), Some(frame));
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn roundtrip_all_frame_kinds() {
        roundtrip(Frame::Data {
            stream_id: StreamId(5),
            end_stream: true,
            data: vec![1, 2, 3].into(),
            pad: None,
        });
        roundtrip(Frame::Headers {
            stream_id: StreamId(1),
            end_stream: false,
            header_block: vec![0x82, 0x87],
            pad: None,
        });
        roundtrip(Frame::Priority {
            stream_id: StreamId(3),
            depends_on: StreamId(1),
            exclusive: true,
            weight: 200,
        });
        roundtrip(Frame::RstStream {
            stream_id: StreamId(7),
            error_code: ErrorCode::Cancel,
        });
        roundtrip(Frame::Settings {
            ack: false,
            settings: vec![
                (SettingId::InitialWindowSize, 65_535),
                (SettingId::MaxFrameSize, 16_384),
            ],
        });
        roundtrip(Frame::Settings {
            ack: true,
            settings: vec![],
        });
        roundtrip(Frame::Ping {
            ack: true,
            data: [9; 8],
        });
        roundtrip(Frame::GoAway {
            last_stream_id: StreamId(13),
            error_code: ErrorCode::NoError,
        });
        roundtrip(Frame::WindowUpdate {
            stream_id: StreamId(0),
            increment: 32_768,
        });
    }

    #[test]
    fn padded_roundtrip_across_pad_schedules() {
        // Encode→decode identity for PADDED DATA/HEADERS across pad
        // lengths, including the zero-pad (length-byte-only) edge and the
        // maximum 255.
        for pad in [0u8, 1, 7, 32, 255] {
            roundtrip(Frame::Data {
                stream_id: StreamId(5),
                end_stream: pad % 2 == 0,
                data: vec![0xA5; 100].into(),
                pad: Some(pad),
            });
            roundtrip(Frame::Headers {
                stream_id: StreamId(3),
                end_stream: false,
                header_block: vec![0x82, 0x87, 0x84],
                pad: Some(pad),
            });
        }
        // All-padding DATA: zero content bytes is legal (pad_len == rest).
        roundtrip(Frame::Data {
            stream_id: StreamId(9),
            end_stream: false,
            data: vec![].into(),
            pad: Some(16),
        });
    }

    #[test]
    fn padded_wire_layout_matches_rfc() {
        let bytes = encode_frame(&Frame::Data {
            stream_id: StreamId(1),
            end_stream: false,
            data: vec![7, 8].into(),
            pad: Some(3),
        });
        // length = 1 pad-length byte + 2 data + 3 padding = 6.
        assert_eq!(&bytes[..3], &[0, 0, 6]);
        assert_eq!(bytes[3], 0x0); // DATA
        assert_eq!(bytes[4], 0x8); // PADDED
        assert_eq!(&bytes[9..], &[3, 7, 8, 0, 0, 0]);
    }

    #[test]
    fn header_layout_matches_rfc() {
        let bytes = encode_frame(&Frame::Data {
            stream_id: StreamId(5),
            end_stream: true,
            data: vec![0xAA; 300].into(),
            pad: None,
        });
        assert_eq!(bytes.len(), 9 + 300);
        assert_eq!(&bytes[..3], &[0, 1, 44]); // length 300
        assert_eq!(bytes[3], 0x0); // DATA
        assert_eq!(bytes[4], 0x1); // END_STREAM
        assert_eq!(&bytes[5..9], &[0, 0, 0, 5]);
    }

    #[test]
    fn incremental_parsing() {
        let bytes = encode_frame(&Frame::Ping {
            ack: false,
            data: [1; 8],
        });
        let mut dec = FrameDecoder::new(false);
        for &b in &bytes[..bytes.len() - 1] {
            dec.push(&[b]);
            assert_eq!(dec.next_frame().unwrap(), None);
        }
        dec.push(&bytes[bytes.len() - 1..]);
        assert!(matches!(
            dec.next_frame().unwrap(),
            Some(Frame::Ping { .. })
        ));
    }

    #[test]
    fn preface_consumed_before_frames() {
        let mut dec = FrameDecoder::new(true);
        dec.push(&CLIENT_PREFACE[..10]);
        assert_eq!(dec.next_frame().unwrap(), None);
        dec.push(&CLIENT_PREFACE[10..]);
        let frame = Frame::Settings {
            ack: false,
            settings: vec![],
        };
        dec.push(&encode_frame(&frame));
        assert_eq!(dec.next_frame().unwrap(), Some(frame));
    }

    #[test]
    fn bad_preface_rejected() {
        let mut dec = FrameDecoder::new(true);
        dec.push(b"GET / HTTP/1.1\r\n");
        assert_eq!(dec.next_frame(), Err(FrameDecodeError::BadPreface));
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut dec = FrameDecoder::new(false);
        dec.set_max_frame_size(16);
        let bytes = encode_frame(&Frame::Data {
            stream_id: StreamId(1),
            end_stream: false,
            data: vec![0; 17].into(),
            pad: None,
        });
        dec.push(&bytes);
        assert_eq!(dec.next_frame(), Err(FrameDecodeError::FrameTooLarge));
    }

    #[test]
    fn unknown_frame_type_skipped() {
        let mut raw = Vec::new();
        // Unknown type 0xEE, 3-byte payload.
        raw.extend_from_slice(&[0, 0, 3, 0xEE, 0, 0, 0, 0, 1, 9, 9, 9]);
        raw.extend(encode_frame(&Frame::Ping {
            ack: false,
            data: [2; 8],
        }));
        let mut dec = FrameDecoder::new(false);
        dec.push(&raw);
        assert!(matches!(
            dec.next_frame().unwrap(),
            Some(Frame::Ping { .. })
        ));
    }

    #[test]
    fn unknown_settings_ignored() {
        let mut raw = Vec::new();
        // SETTINGS with one unknown id (0x99) and one known.
        raw.extend_from_slice(&[0, 0, 12, 0x4, 0, 0, 0, 0, 0]);
        raw.extend_from_slice(&0x99u16.to_be_bytes());
        raw.extend_from_slice(&7u32.to_be_bytes());
        raw.extend_from_slice(&0x4u16.to_be_bytes());
        raw.extend_from_slice(&1000u32.to_be_bytes());
        let mut dec = FrameDecoder::new(false);
        dec.push(&raw);
        match dec.next_frame().unwrap().unwrap() {
            Frame::Settings { settings, .. } => {
                assert_eq!(settings, vec![(SettingId::InitialWindowSize, 1000)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_length_detected() {
        let mut raw = Vec::new();
        raw.extend_from_slice(&[0, 0, 3, 0x3, 0, 0, 0, 0, 5, 1, 2, 3]); // RST needs 4
        let mut dec = FrameDecoder::new(false);
        dec.push(&raw);
        assert_eq!(
            dec.next_frame(),
            Err(FrameDecodeError::BadLength(FrameType::RstStream))
        );
    }

    #[test]
    fn padded_data_stripped() {
        // Hand-built DATA frame with PADDED flag: pad_len=2, data = [7,8].
        let mut raw = Vec::new();
        raw.extend_from_slice(&[0, 0, 5, 0x0, 0x8, 0, 0, 0, 1]);
        raw.extend_from_slice(&[2, 7, 8, 0, 0]);
        let mut dec = FrameDecoder::new(false);
        dec.push(&raw);
        match dec.next_frame().unwrap().unwrap() {
            Frame::Data { data, pad, .. } => {
                assert_eq!(data, vec![7, 8]);
                assert_eq!(pad, Some(2), "pad length survives decoding");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pad_length_equal_to_payload_is_protocol_error() {
        // RFC 7540 §6.1: pad_len >= payload length is a connection error.
        // payload = [pad_len] ++ 2 trailing bytes; pad_len 3 >= 3.
        let mut raw = Vec::new();
        raw.extend_from_slice(&[0, 0, 3, 0x0, 0x8, 0, 0, 0, 1]);
        raw.extend_from_slice(&[3, 0, 0]);
        let mut dec = FrameDecoder::new(false);
        dec.push(&raw);
        assert_eq!(
            dec.next_frame(),
            Err(FrameDecodeError::BadPadding(FrameType::Data))
        );
    }

    #[test]
    fn pad_length_exceeding_payload_is_protocol_error() {
        let mut raw = Vec::new();
        raw.extend_from_slice(&[0, 0, 4, 0x0, 0x8, 0, 0, 0, 1]);
        raw.extend_from_slice(&[200, 1, 2, 3]);
        let mut dec = FrameDecoder::new(false);
        dec.push(&raw);
        assert_eq!(
            dec.next_frame(),
            Err(FrameDecodeError::BadPadding(FrameType::Data))
        );
    }

    #[test]
    fn empty_padded_payload_is_protocol_error() {
        // PADDED flag with a zero-length payload: no room for the
        // pad-length byte itself.
        let mut raw = Vec::new();
        raw.extend_from_slice(&[0, 0, 0, 0x0, 0x8, 0, 0, 0, 1]);
        let mut dec = FrameDecoder::new(false);
        dec.push(&raw);
        assert_eq!(
            dec.next_frame(),
            Err(FrameDecodeError::BadPadding(FrameType::Data))
        );
    }

    #[test]
    fn padded_headers_bad_pad_is_protocol_error() {
        let mut raw = Vec::new();
        raw.extend_from_slice(&[0, 0, 2, 0x1, 0x8 | 0x4, 0, 0, 0, 5]);
        raw.extend_from_slice(&[9, 0]);
        let mut dec = FrameDecoder::new(false);
        dec.push(&raw);
        assert_eq!(
            dec.next_frame(),
            Err(FrameDecodeError::BadPadding(FrameType::Headers))
        );
    }

    #[test]
    fn non_zero_padding_is_rejected() {
        // pad_len=2 but the pad octets are 0xFF — RFC 7540 §6.1 padding
        // MUST be zero; this decoder enforces the MAY-check.
        let mut raw = Vec::new();
        raw.extend_from_slice(&[0, 0, 5, 0x0, 0x8, 0, 0, 0, 1]);
        raw.extend_from_slice(&[2, 7, 8, 0xFF, 0xFF]);
        let mut dec = FrameDecoder::new(false);
        dec.push(&raw);
        assert_eq!(
            dec.next_frame(),
            Err(FrameDecodeError::NonZeroPadding(FrameType::Data))
        );
    }

    #[test]
    fn push_promise_unsupported() {
        let mut raw = Vec::new();
        raw.extend_from_slice(&[0, 0, 4, 0x5, 0, 0, 0, 0, 1, 0, 0, 0, 2]);
        let mut dec = FrameDecoder::new(false);
        dec.push(&raw);
        assert_eq!(dec.next_frame(), Err(FrameDecodeError::PushUnsupported));
    }
}

#[cfg(test)]
mod continuation_tests {
    use super::*;

    #[test]
    fn small_blocks_stay_single_headers() {
        let wire = encode_headers_split(StreamId(1), true, &[1, 2, 3], 16_384);
        let mut dec = FrameDecoder::new(false);
        dec.push(&wire);
        assert_eq!(
            dec.next_frame().unwrap(),
            Some(Frame::Headers {
                stream_id: StreamId(1),
                end_stream: true,
                header_block: vec![1, 2, 3],
                pad: None,
            })
        );
    }

    #[test]
    fn oversized_block_splits_and_reassembles() {
        let block: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        let wire = encode_headers_split(StreamId(7), true, &block, 4_096);
        // 3 frames: HEADERS + CONTINUATION + CONTINUATION(END_HEADERS).
        let mut dec = FrameDecoder::new(false);
        dec.push(&wire);
        let frame = dec.next_frame().unwrap().expect("reassembled");
        assert_eq!(
            frame,
            Frame::Headers {
                stream_id: StreamId(7),
                end_stream: true,
                header_block: block,
                pad: None,
            }
        );
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn sequence_survives_chunked_delivery() {
        let block: Vec<u8> = vec![0xAB; 9_000];
        let wire = encode_headers_split(StreamId(3), false, &block, 4_000);
        let mut dec = FrameDecoder::new(false);
        let mut got = None;
        for chunk in wire.chunks(777) {
            dec.push(chunk);
            while let Some(f) = dec.next_frame().unwrap() {
                assert!(got.is_none());
                got = Some(f);
            }
        }
        match got.expect("frame") {
            Frame::Headers {
                header_block,
                end_stream,
                ..
            } => {
                assert_eq!(header_block.len(), 9_000);
                assert!(!end_stream);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn interrupting_a_sequence_is_a_protocol_error() {
        let block: Vec<u8> = vec![0xCD; 9_000];
        let mut wire = Vec::new();
        // HEADERS without END_HEADERS…
        let split = encode_headers_split(StreamId(3), false, &block, 4_000);
        wire.extend_from_slice(&split[..FRAME_HEADER_LEN + 4_000]);
        // …then an unrelated PING.
        wire.extend(encode_frame(&Frame::Ping {
            ack: false,
            data: [0; 8],
        }));
        let mut dec = FrameDecoder::new(false);
        dec.push(&wire);
        assert_eq!(
            dec.next_frame(),
            Err(FrameDecodeError::UnexpectedContinuation)
        );
    }

    #[test]
    fn bare_continuation_is_a_protocol_error() {
        let mut raw = Vec::new();
        raw.extend_from_slice(&[0, 0, 2, 0x9, 0x4, 0, 0, 0, 3, 1, 2]);
        let mut dec = FrameDecoder::new(false);
        dec.push(&raw);
        assert_eq!(
            dec.next_frame(),
            Err(FrameDecodeError::UnexpectedContinuation)
        );
    }

    #[test]
    fn continuation_for_wrong_stream_is_rejected() {
        let block: Vec<u8> = vec![0xEF; 5_000];
        let split = encode_headers_split(StreamId(3), false, &block, 4_000);
        let mut wire = Vec::new();
        wire.extend_from_slice(&split[..FRAME_HEADER_LEN + 4_000]);
        // CONTINUATION for a different stream.
        wire.extend_from_slice(&[0, 0, 1, 0x9, 0x4, 0, 0, 0, 9, 0xAA]);
        let mut dec = FrameDecoder::new(false);
        dec.push(&wire);
        assert_eq!(
            dec.next_frame(),
            Err(FrameDecodeError::UnexpectedContinuation)
        );
    }
}
