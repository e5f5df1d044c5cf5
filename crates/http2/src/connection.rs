//! The HTTP/2 connection: stream table, flow control, HPACK contexts, and
//! the DATA mux whose scheduling policy *is* the multiplexing behaviour the
//! paper investigates.
//!
//! Sans-IO: bytes in via [`H2Connection::recv`], wire bytes out via
//! [`H2Connection::poll_send`] (one preface or frame at a time, with
//! metadata so the host can build ground-truth annotations), application
//! events out via [`H2Connection::poll_event`].

use std::collections::VecDeque;

use h2priv_bytes::FxHashMap;

use h2priv_bytes::SharedBytes;

use crate::codec::{
    encode_data_head_into, encode_frame_into, encode_headers_split, FrameDecoder, CLIENT_PREFACE,
};
use crate::error::{ErrorCode, H2Error};
use crate::flow::FlowWindow;
use crate::frame::{Frame, FrameType};
use crate::hpack::{Decoder as HpackDecoder, Encoder as HpackEncoder, HeaderField};
use crate::settings::{H2Config, SendPolicy, Settings};
use crate::stream::{StreamId, StreamState};

/// Pad schedule for frame-size quantization: the padding that rounds
/// `len + 1` (content plus the pad-length byte) up to the next multiple of
/// `quantum`, capped by the 255-octet pad field and the `max_total` payload
/// bound. `None` when quantization is off or even the pad-length byte does
/// not fit; `Some(0)` still sets the PADDED flag (the schedule stays
/// deterministic — every frame in a quantized stream carries the flag).
fn quantize_pad(len: usize, quantum: usize, max_total: usize) -> Option<u8> {
    if quantum <= 1 || len + 1 > max_total {
        return None;
    }
    let total = len + 1;
    let target = total.div_ceil(quantum) * quantum;
    let pad = (target - total).min(255).min(max_total - total);
    Some(pad as u8)
}

/// Which side of the connection this endpoint is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// Request initiator.
    Client,
    /// Responder.
    Server,
}

/// Application-visible events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum H2Event {
    /// The peer's SETTINGS arrived (connection usable).
    PeerSettings(Settings),
    /// A header block arrived (request on the server, response on the
    /// client).
    Headers {
        /// Stream the block arrived on.
        stream_id: StreamId,
        /// Decoded header list.
        headers: Vec<HeaderField>,
        /// Peer will send no more frames on this stream.
        end_stream: bool,
    },
    /// Body bytes arrived. Only their count is delivered: the frame
    /// decoder never copies DATA payloads out of the receive buffer (see
    /// [`FrameDecoder::set_opaque_data`]), because every application in
    /// the model records body sizes and timing, never contents.
    Data {
        /// Stream the data arrived on.
        stream_id: StreamId,
        /// Body bytes in the frame (padding excluded).
        len: usize,
        /// Peer will send no more frames on this stream.
        end_stream: bool,
    },
    /// The peer reset a stream.
    Reset {
        /// Stream that was reset.
        stream_id: StreamId,
        /// Why.
        error_code: ErrorCode,
    },
    /// The peer is shutting the connection down.
    GoAway {
        /// Highest stream id the peer may have processed.
        last_stream_id: StreamId,
        /// Why.
        error_code: ErrorCode,
    },
    /// A PING we sent was acknowledged.
    PingAcked,
}

/// Metadata describing one [`Outgoing`] chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutgoingMeta {
    /// The 24-byte client preface.
    Preface,
    /// One encoded frame.
    Frame {
        /// The frame's type.
        frame_type: FrameType,
        /// The frame's stream.
        stream_id: StreamId,
        /// Payload length (DATA: body bytes carried).
        payload_len: usize,
        /// END_STREAM was set.
        end_stream: bool,
    },
}

/// One chunk of wire output: exact bytes plus what they are. The host uses
/// the metadata to annotate which TCP byte ranges carry which stream's DATA
/// — the simulation's ground truth for the degree-of-multiplexing metric.
///
/// DATA leaves split: `bytes` holds only the frame header (plus pad-length
/// octet), and the body is the stream's shared chunk, handed through
/// untouched so the transport's gather seal reads it exactly once. Every
/// other frame is whole in `bytes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing {
    /// The encoded frame: all of it, or a DATA frame's header only.
    pub bytes: Vec<u8>,
    /// DATA body bytes, which follow `bytes` on the wire but are not
    /// encoded into it. Empty for every other frame.
    pub body: SharedBytes,
    /// Count of zero padding octets that follow `body` on the wire (the
    /// pad-length byte itself is in `bytes`). 0 for every other frame.
    pub tail_pad: usize,
    /// What the bytes are.
    pub meta: OutgoingMeta,
}

/// Zero padding octets for split DATA sends, shared so a gather path can
/// borrow the tail pad without allocating (the pad field caps at 255).
static PAD_ZEROS: [u8; 255] = [0; 255];

impl Outgoing {
    /// The frame's wire bytes as gather parts, in wire order:
    /// `[bytes, body, tail padding]`. For frames other than DATA the last
    /// two parts are empty.
    pub fn wire_parts(&self) -> [&[u8]; 3] {
        [
            &self.bytes,
            self.body.as_slice(),
            &PAD_ZEROS[..self.tail_pad],
        ]
    }

    /// Appends the frame's complete wire bytes to `out` — the
    /// materializing fallback for consumers that need the frame
    /// contiguous (conformance taps, tests).
    pub fn write_wire_into(&self, out: &mut Vec<u8>) {
        for part in self.wire_parts() {
            out.extend_from_slice(part);
        }
    }
}

/// Counters for one connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct H2Stats {
    /// DATA frames sent.
    pub data_frames_sent: u64,
    /// Body bytes sent in DATA frames.
    pub data_bytes_sent: u64,
    /// DATA frames received.
    pub data_frames_received: u64,
    /// Body bytes received.
    pub data_bytes_received: u64,
    /// HEADERS frames sent.
    pub headers_sent: u64,
    /// HEADERS frames received.
    pub headers_received: u64,
    /// RST_STREAM frames sent.
    pub resets_sent: u64,
    /// RST_STREAM frames received.
    pub resets_received: u64,
    /// Times the mux stalled on the connection-level window.
    pub conn_window_stalls: u64,
    /// Non-ACK SETTINGS frames received. A handshake contributes exactly
    /// one; a climbing count is the SETTINGS-flood signature the server
    /// guard rate-limits.
    pub settings_received: u64,
    /// Padding overhead sent (pad-length bytes + pad octets) across DATA
    /// and HEADERS frames — the wire cost of a frame-padding defense.
    pub pad_bytes_sent: u64,
}

/// Body bytes queued on one stream, as a FIFO of shared chunks. The mux
/// takes frame-sized prefixes: a take within the front chunk is an O(1)
/// sub-slice (the common case — a response body is queued as one chunk),
/// so scheduling bodies into DATA frames does not copy them.
#[derive(Debug, Default)]
struct PendingData {
    chunks: VecDeque<SharedBytes>,
    len: usize,
}

impl PendingData {
    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a chunk (empty chunks are ignored).
    fn push(&mut self, chunk: SharedBytes) {
        if chunk.is_empty() {
            return;
        }
        self.len += chunk.len();
        self.chunks.push_back(chunk);
    }

    /// Removes and returns the first `n` queued bytes. Zero-copy when they
    /// lie within the front chunk; a take spanning chunks merges them with
    /// one copy.
    fn take(&mut self, n: usize) -> SharedBytes {
        debug_assert!(n <= self.len);
        if n == 0 {
            return SharedBytes::new();
        }
        self.len -= n;
        let front = self.chunks.front_mut().expect("pending bytes exist");
        if n < front.len() {
            return front.split_to(n);
        }
        if n == front.len() {
            return self.chunks.pop_front().expect("front chunk exists");
        }
        let mut out = Vec::with_capacity(n);
        let mut remaining = n;
        while remaining > 0 {
            let front = self.chunks.front_mut().expect("pending bytes exist");
            if front.len() > remaining {
                out.extend_from_slice(&front.split_to(remaining));
                remaining = 0;
            } else {
                remaining -= front.len();
                out.extend_from_slice(&self.chunks.pop_front().expect("front chunk exists"));
            }
        }
        SharedBytes::from_vec(out)
    }

    fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }
}

#[derive(Debug)]
struct StreamEntry {
    state: StreamState,
    send_window: FlowWindow,
    recv_window: FlowWindow,
    /// Bytes consumed from the recv window since the last WINDOW_UPDATE.
    recv_consumed: u32,
    /// Body bytes the application queued, awaiting mux scheduling.
    pending: PendingData,
    /// Send END_STREAM once `pending` drains.
    pending_end: bool,
}

impl StreamEntry {
    fn new(state: StreamState, send_window: u32, recv_window: u32) -> Self {
        StreamEntry {
            state,
            send_window: FlowWindow::new(send_window),
            recv_window: FlowWindow::new(recv_window),
            recv_consumed: 0,
            pending: PendingData::default(),
            pending_end: false,
        }
    }

    fn sendable(&self) -> usize {
        if !self.state.can_send() {
            return 0;
        }
        self.pending.len().min(self.send_window.available())
    }
}

/// One endpoint of an HTTP/2 connection.
///
/// # Examples
///
/// ```
/// use h2priv_http2::{H2Config, H2Connection, H2Event, HeaderField};
///
/// let mut client = H2Connection::new_client(H2Config::default());
/// let mut server = H2Connection::new_server(H2Config::default());
///
/// let stream = client
///     .open_stream(&[HeaderField::new(":method", "GET"),
///                    HeaderField::new(":path", "/")], true)
///     .unwrap();
///
/// // Shuttle bytes until quiescent; DATA leaves split, so flatten each
/// // frame's parts into its wire bytes.
/// loop {
///     let mut moved = false;
///     while let Some(out) = client.poll_send() {
///         let mut wire = Vec::new();
///         out.write_wire_into(&mut wire);
///         server.recv(&wire).unwrap();
///         moved = true;
///     }
///     while let Some(out) = server.poll_send() {
///         let mut wire = Vec::new();
///         out.write_wire_into(&mut wire);
///         client.recv(&wire).unwrap();
///         moved = true;
///     }
///     if !moved { break; }
/// }
/// let saw_request = std::iter::from_fn(|| server.poll_event()).any(|ev| {
///     matches!(ev, H2Event::Headers { stream_id, .. } if stream_id == stream)
/// });
/// assert!(saw_request);
/// ```
#[derive(Debug)]
pub struct H2Connection {
    peer: Peer,
    config: H2Config,
    peer_settings: Settings,
    peer_settings_received: bool,

    hpack_encoder: HpackEncoder,
    hpack_decoder: HpackDecoder,
    frame_decoder: FrameDecoder,

    next_stream_id: StreamId,
    /// Highest peer-initiated stream accepted so far: the id a GOAWAY
    /// names (RFC 7540 §6.8).
    last_peer_stream: StreamId,
    streams: FxHashMap<StreamId, StreamEntry>,
    /// Insertion-ordered ids of streams that may have pending data.
    data_order: Vec<StreamId>,

    conn_send_window: FlowWindow,
    conn_recv_window: FlowWindow,
    conn_recv_consumed: u32,

    preface_sent: bool,
    initial_settings_sent: bool,
    window_bonus_sent: bool,
    goaway_received: bool,
    dead: bool,

    control_queue: VecDeque<Frame>,
    headers_queue: VecDeque<Frame>,
    events: VecDeque<H2Event>,

    /// Round-robin cursor into `data_order`.
    rr_cursor: usize,
    /// Set when a full [`H2Connection::poll_send`] pass came up empty and
    /// nothing has changed since: the next poll can answer `None` without
    /// re-walking the schedule. Cleared by every mutation that could make
    /// output available (queueing frames or data, and `recv`, which covers
    /// window updates and settings from the peer).
    output_idle: bool,
    /// Private xorshift state for [`SendPolicy::RandomOrder`].
    rand_state: u64,
    /// Frame buffers handed back by [`H2Connection::recycle_outgoing`],
    /// reused by [`emit`](Self::emit) so a pump loop that drains its
    /// [`Outgoing`]s promptly sends without per-frame allocation.
    spare_bufs: Vec<Vec<u8>>,

    stats: H2Stats,
}

impl H2Connection {
    /// Creates the client endpoint.
    pub fn new_client(config: H2Config) -> Self {
        Self::new(Peer::Client, config)
    }

    /// Creates the server endpoint.
    pub fn new_server(config: H2Config) -> Self {
        Self::new(Peer::Server, config)
    }

    fn new(peer: Peer, config: H2Config) -> Self {
        let rand_state = match config.send_policy {
            SendPolicy::RandomOrder { seed } => seed | 1,
            _ => 1,
        };
        H2Connection {
            peer,
            peer_settings: Settings::default(),
            peer_settings_received: false,
            hpack_encoder: HpackEncoder::with_table_size(
                config.settings.header_table_size as usize,
            ),
            hpack_decoder: HpackDecoder::with_table_size(
                config.settings.header_table_size as usize,
            ),
            frame_decoder: {
                let mut d = FrameDecoder::new(peer == Peer::Server);
                d.set_opaque_data(true);
                d
            },
            next_stream_id: match peer {
                Peer::Client => StreamId(1),
                Peer::Server => StreamId(2),
            },
            last_peer_stream: StreamId(0),
            streams: FxHashMap::default(),
            data_order: Vec::new(),
            conn_send_window: FlowWindow::default(),
            conn_recv_window: FlowWindow::new(
                crate::flow::DEFAULT_WINDOW + config.connection_window_bonus,
            ),
            conn_recv_consumed: 0,
            preface_sent: peer == Peer::Server, // only clients send it
            initial_settings_sent: false,
            window_bonus_sent: config.connection_window_bonus == 0,
            goaway_received: false,
            dead: false,
            control_queue: VecDeque::new(),
            headers_queue: VecDeque::new(),
            events: VecDeque::new(),
            rr_cursor: 0,
            output_idle: false,
            rand_state,
            spare_bufs: Vec::new(),
            stats: H2Stats::default(),
            config,
        }
    }

    /// Returns an [`Outgoing`]'s frame buffer for reuse once the caller is
    /// finished with it (sealed elsewhere, or copied onto the wire). The
    /// next [`poll_send`](Self::poll_send) emits into a recycled buffer
    /// instead of allocating; a small pool is kept so batched pump loops
    /// that drain several frames before recycling still hit it.
    pub fn recycle_outgoing(&mut self, mut buf: Vec<u8>) {
        if self.spare_bufs.len() < Self::MAX_SPARE_BUFS && buf.capacity() > 0 {
            buf.clear();
            self.spare_bufs.push(buf);
        }
    }

    /// Cap on pooled frame buffers: enough to cover a drained pump burst,
    /// small enough that an idle connection pins almost nothing.
    const MAX_SPARE_BUFS: usize = 8;

    /// Surrenders every pooled frame buffer to `sink` (for an external
    /// buffer pool). For connections whose work is done: frees the frame
    /// pool back to the shard instead of pinning it until teardown.
    pub fn shed_spare_capacity(&mut self, sink: &mut dyn FnMut(Vec<u8>)) {
        for buf in self.spare_bufs.drain(..) {
            sink(buf);
        }
    }

    /// Seeds the frame-buffer pool from recycled capacity, up to the pool
    /// cap. `supply` is polled per slot; return `None` to stop early.
    pub fn adopt_spare_capacity(&mut self, supply: &mut dyn FnMut() -> Option<Vec<u8>>) {
        while self.spare_bufs.len() < Self::MAX_SPARE_BUFS {
            let Some(mut buf) = supply() else { return };
            buf.clear();
            self.spare_bufs.push(buf);
        }
    }

    // ---- inspectors -------------------------------------------------------

    /// Which side this endpoint is.
    pub fn peer(&self) -> Peer {
        self.peer
    }

    /// Counters.
    pub fn stats(&self) -> H2Stats {
        self.stats
    }

    /// The peer's settings, once received.
    pub fn peer_settings(&self) -> &Settings {
        &self.peer_settings
    }

    /// True once the peer's SETTINGS frame has arrived.
    pub fn is_ready(&self) -> bool {
        self.peer_settings_received
    }

    /// True if the connection has failed or received GOAWAY.
    pub fn is_closed(&self) -> bool {
        self.dead || self.goaway_received
    }

    /// A stream's state, if known.
    pub fn stream_state(&self, id: StreamId) -> Option<StreamState> {
        self.streams.get(&id).map(|s| s.state)
    }

    /// Body bytes queued but not yet sent on a stream.
    pub fn pending_data(&self, id: StreamId) -> usize {
        self.streams.get(&id).map_or(0, |s| s.pending.len())
    }

    /// Connection-level send window currently available (peer credit).
    pub fn conn_send_available(&self) -> usize {
        self.conn_send_window.available()
    }

    /// Ids of streams that still have body bytes queued.
    pub fn streams_with_pending_data(&self) -> Vec<StreamId> {
        let mut ids: Vec<StreamId> = self
            .streams
            .iter()
            .filter(|(_, e)| !e.pending.is_empty())
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Stream whose HEADERS/CONTINUATION sequence is mid-flight in the
    /// receive decoder (RFC 7540 §4.3 blocks every other frame until it
    /// completes) — the handle the server guard's header timeout watches.
    pub fn in_progress_header_stream(&self) -> Option<StreamId> {
        self.frame_decoder.in_progress_header_stream()
    }

    /// Send-window credit currently available on a stream (peer credit
    /// capped by what the peer granted; 0 for unknown streams). A stream
    /// with pending data and zero credit is stalled on the *peer* — the
    /// zero-window / slow-read signature.
    pub fn stream_send_available(&self, id: StreamId) -> usize {
        self.streams.get(&id).map_or(0, |e| {
            if e.state.can_send() {
                e.send_window.available()
            } else {
                0
            }
        })
    }

    /// Count of remotely-initiated streams not yet fully closed — the
    /// population bounded by our advertised `SETTINGS_MAX_CONCURRENT_STREAMS`.
    pub fn open_remote_streams(&self) -> usize {
        let local_is_client = matches!(self.peer, Peer::Client);
        self.streams
            .iter()
            .filter(|(id, e)| {
                id.is_client_initiated() != local_is_client && e.state != StreamState::Closed
            })
            .count()
    }

    // ---- application surface ----------------------------------------------

    /// Opens a new stream with a header block (a request, on the client).
    ///
    /// # Errors
    ///
    /// Fails if the connection is dead or the peer's
    /// `SETTINGS_MAX_CONCURRENT_STREAMS` limit is reached (RFC 7540
    /// §5.1.2) — callers should retry after streams close.
    pub fn open_stream(
        &mut self,
        headers: &[HeaderField],
        end_stream: bool,
    ) -> Result<StreamId, H2Error> {
        self.output_idle = false;
        if self.is_closed() {
            return Err(H2Error::new(ErrorCode::Cancel, "connection closed"));
        }
        let open_locally_initiated = self
            .streams
            .iter()
            .filter(|(id, e)| {
                id.is_client_initiated() == matches!(self.peer, Peer::Client)
                    && e.state != StreamState::Closed
            })
            .count();
        if open_locally_initiated >= self.peer_settings.max_concurrent_streams as usize {
            return Err(H2Error::new(
                ErrorCode::RefusedStream,
                "peer's concurrent stream limit reached",
            ));
        }
        let id = self.next_stream_id;
        self.next_stream_id = id.next_for_initiator();
        let state = if end_stream {
            StreamState::Open.on_local_end()
        } else {
            StreamState::Open
        };
        self.streams.insert(
            id,
            StreamEntry::new(
                state,
                self.peer_settings.initial_window_size,
                self.config.settings.initial_window_size,
            ),
        );
        self.data_order.push(id);
        let block = self.hpack_encoder.encode(headers);
        let pad = self.headers_pad(block.len());
        self.headers_queue.push_back(Frame::Headers {
            stream_id: id,
            end_stream,
            header_block: block,
            pad,
        });
        Ok(id)
    }

    /// Sends a header block on an existing (peer-initiated) stream — a
    /// response, on the server.
    ///
    /// # Errors
    ///
    /// Fails if the stream is unknown or cannot send.
    pub fn send_headers(
        &mut self,
        stream_id: StreamId,
        headers: &[HeaderField],
        end_stream: bool,
    ) -> Result<(), H2Error> {
        self.output_idle = false;
        let entry = self
            .streams
            .get_mut(&stream_id)
            .ok_or_else(|| H2Error::new(ErrorCode::StreamClosed, "unknown stream"))?;
        if !entry.state.can_send() {
            return Err(H2Error::new(ErrorCode::StreamClosed, "stream cannot send"));
        }
        if end_stream {
            entry.state = entry.state.on_local_end();
        }
        let block = self.hpack_encoder.encode(headers);
        let pad = self.headers_pad(block.len());
        self.headers_queue.push_back(Frame::Headers {
            stream_id,
            end_stream,
            header_block: block,
            pad,
        });
        Ok(())
    }

    /// Pad schedule for a HEADERS payload of `len` bytes under the
    /// configured quantization, or `None` when padding is off or the block
    /// will split into a CONTINUATION sequence (which is never padded).
    fn headers_pad(&self, len: usize) -> Option<u8> {
        let max = self.peer_settings.max_frame_size as usize;
        if len > max {
            return None;
        }
        quantize_pad(len, self.config.headers_pad_quantum, max)
    }

    /// Queues body bytes on a stream, copying them once into a shared
    /// chunk; the mux schedules them under flow control. `end_stream`
    /// marks the stream finished once these bytes drain. Callers that
    /// already hold a [`SharedBytes`] should use
    /// [`send_data_shared`](Self::send_data_shared) and skip the copy.
    ///
    /// # Errors
    ///
    /// Fails if the stream is unknown or cannot send.
    pub fn send_data(
        &mut self,
        stream_id: StreamId,
        data: &[u8],
        end_stream: bool,
    ) -> Result<(), H2Error> {
        self.output_idle = false;
        self.send_data_shared(stream_id, SharedBytes::copy_from_slice(data), end_stream)
    }

    /// Queues an already-shared body chunk on a stream without copying it:
    /// the mux slices DATA frames straight out of this buffer.
    ///
    /// # Errors
    ///
    /// Fails if the stream is unknown or cannot send.
    pub fn send_data_shared(
        &mut self,
        stream_id: StreamId,
        data: SharedBytes,
        end_stream: bool,
    ) -> Result<(), H2Error> {
        self.output_idle = false;
        let entry = self
            .streams
            .get_mut(&stream_id)
            .ok_or_else(|| H2Error::new(ErrorCode::StreamClosed, "unknown stream"))?;
        if !entry.state.can_send() {
            return Err(H2Error::new(ErrorCode::StreamClosed, "stream cannot send"));
        }
        entry.pending.push(data);
        if end_stream {
            entry.pending_end = true;
        }
        // The mux's schedule drops idle streams lazily; re-register.
        if !self.data_order.contains(&stream_id) {
            self.data_order.push(stream_id);
        }
        Ok(())
    }

    /// Resets a stream: queues RST_STREAM and drops its pending data.
    pub fn send_rst(&mut self, stream_id: StreamId, error_code: ErrorCode) {
        self.output_idle = false;
        if let Some(entry) = self.streams.get_mut(&stream_id) {
            entry.state = StreamState::Closed;
            entry.pending.clear();
            entry.pending_end = false;
        }
        self.stats.resets_sent += 1;
        self.control_queue.push_back(Frame::RstStream {
            stream_id,
            error_code,
        });
    }

    /// Queues a GOAWAY naming the highest peer-initiated stream this end
    /// accepted: the peer may retry any stream above it.
    pub fn send_goaway(&mut self, error_code: ErrorCode) {
        self.output_idle = false;
        self.control_queue.push_back(Frame::GoAway {
            last_stream_id: self.last_peer_stream,
            error_code,
        });
    }

    /// Pops the next application event.
    pub fn poll_event(&mut self) -> Option<H2Event> {
        self.events.pop_front()
    }

    // ---- output ------------------------------------------------------------

    /// Produces the next chunk of wire output, or `None` when idle. After
    /// a connection error only the GOAWAY it queued is sent.
    pub fn poll_send(&mut self) -> Option<Outgoing> {
        if self.dead {
            let goaway = self.control_queue.pop_front()?;
            return Some(self.emit(goaway));
        }
        if self.output_idle {
            return None;
        }
        if !self.preface_sent {
            self.preface_sent = true;
            return Some(Outgoing {
                bytes: CLIENT_PREFACE.to_vec(),
                body: SharedBytes::new(),
                tail_pad: 0,
                meta: OutgoingMeta::Preface,
            });
        }
        if !self.initial_settings_sent {
            self.initial_settings_sent = true;
            let frame = Frame::Settings {
                ack: false,
                settings: self.config.settings.to_wire(),
            };
            return Some(self.emit(frame));
        }
        if !self.window_bonus_sent {
            self.window_bonus_sent = true;
            let frame = Frame::WindowUpdate {
                stream_id: StreamId::CONNECTION,
                increment: self.config.connection_window_bonus,
            };
            return Some(self.emit(frame));
        }
        if let Some(frame) = self.control_queue.pop_front() {
            return Some(self.emit(frame));
        }
        if let Some(frame) = self.headers_queue.pop_front() {
            self.stats.headers_sent += 1;
            return Some(self.emit(frame));
        }
        let out = self.poll_send_data();
        self.output_idle = out.is_none();
        out
    }

    fn poll_send_data(&mut self) -> Option<Outgoing> {
        // Drop closed/empty streams from the schedule lazily.
        self.data_order.retain(|id| {
            self.streams
                .get(id)
                .is_some_and(|e| !e.pending.is_empty() || e.pending_end)
        });
        if self.data_order.is_empty() {
            return None;
        }
        let conn_avail = self.conn_send_window.available();
        // Candidate test: a stream that can make progress right now. The
        // common policies pick with one pass over `data_order` instead of
        // materializing the candidate list (this probe runs on every pump
        // round, so it must not allocate).
        let is_ready = |e: &StreamEntry| {
            (e.sendable() > 0 && conn_avail > 0)
                || (e.pending.is_empty() && e.pending_end && e.state.can_send())
        };
        let pick = match self.config.send_policy {
            SendPolicy::Sequential => {
                let first = self
                    .data_order
                    .iter()
                    .position(|id| is_ready(&self.streams[id]));
                let Some(i) = first else {
                    return self.note_send_stall(conn_avail);
                };
                i
            }
            SendPolicy::RoundRobin => {
                // First ready index at or after the cursor, wrapping to the
                // first ready index overall.
                let mut first = None;
                let mut at_or_after = None;
                for (i, id) in self.data_order.iter().enumerate() {
                    if !is_ready(&self.streams[id]) {
                        continue;
                    }
                    if first.is_none() {
                        first = Some(i);
                    }
                    if i >= self.rr_cursor {
                        at_or_after = Some(i);
                        break;
                    }
                }
                let Some(i) = at_or_after.or(first) else {
                    return self.note_send_stall(conn_avail);
                };
                self.rr_cursor = i + 1;
                if self.rr_cursor >= self.data_order.len() {
                    self.rr_cursor = 0;
                }
                i
            }
            SendPolicy::RandomOrder { .. } => {
                // A uniform draw needs the whole candidate set.
                let ready: Vec<usize> = (0..self.data_order.len())
                    .filter(|&i| is_ready(&self.streams[&self.data_order[i]]))
                    .collect();
                if ready.is_empty() {
                    return self.note_send_stall(conn_avail);
                }
                // xorshift64* pick.
                let mut x = self.rand_state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.rand_state = x;
                let r = (x.wrapping_mul(0x2545F4914F6CDD1D) >> 32) as usize;
                ready[r % ready.len()]
            }
        };
        self.send_data_at(pick, conn_avail)
    }

    /// Records a connection-window stall when data is pending but the
    /// connection window is exhausted; the shared no-candidate exit.
    fn note_send_stall(&mut self, conn_avail: usize) -> Option<Outgoing> {
        if conn_avail == 0
            && self
                .data_order
                .iter()
                .any(|id| self.streams[id].sendable() > 0)
        {
            self.stats.conn_window_stalls += 1;
        }
        None
    }

    /// Emits the next DATA chunk of the stream at `data_order[pick]`.
    fn send_data_at(&mut self, pick: usize, conn_avail: usize) -> Option<Outgoing> {
        let id = self.data_order[pick];
        let max_frame = self.peer_settings.max_frame_size as usize;
        let quantum = self.config.data_pad_quantum;
        let entry = self.streams.get_mut(&id).expect("scheduled stream exists");
        let chunk_cap = self.config.data_chunk_size.min(max_frame);
        let n = entry.sendable().min(chunk_cap).min(conn_avail);
        // Padding is drawn from flow-control window *slack* only: RFC 7540
        // §6.9.1 debits the whole padded payload, and a defense must never
        // displace data bytes or deadlock the mux when windows run tight.
        let window_slack = entry
            .send_window
            .available()
            .min(conn_avail)
            .saturating_sub(n);
        let pad = quantize_pad(n, quantum, n + window_slack.min(max_frame - n));
        let data = entry.pending.take(n);
        let end_stream = entry.pending.is_empty() && entry.pending_end;
        if end_stream {
            entry.pending_end = false;
            entry.state = entry.state.on_local_end();
        }
        let cost = n + crate::frame::pad_overhead(pad);
        entry.send_window.consume(cost);
        self.conn_send_window.consume(cost);
        self.stats.data_frames_sent += 1;
        self.stats.data_bytes_sent += n as u64;
        let frame = Frame::Data {
            stream_id: id,
            end_stream,
            data,
            pad,
        };
        Some(self.emit(frame))
    }

    fn emit(&mut self, frame: Frame) -> Outgoing {
        if let Frame::Data { pad, .. } | Frame::Headers { pad, .. } = &frame {
            self.stats.pad_bytes_sent += crate::frame::pad_overhead(*pad) as u64;
        }
        // Header blocks larger than the peer's max frame size leave as a
        // HEADERS + CONTINUATION sequence (RFC 7540 §6.10).
        if let Frame::Headers {
            stream_id,
            end_stream,
            header_block,
            ..
        } = &frame
        {
            let max = self.peer_settings.max_frame_size as usize;
            if header_block.len() > max {
                let bytes = encode_headers_split(*stream_id, *end_stream, header_block, max);
                return Outgoing {
                    meta: OutgoingMeta::Frame {
                        frame_type: FrameType::Headers,
                        stream_id: *stream_id,
                        payload_len: header_block.len(),
                        end_stream: *end_stream,
                    },
                    body: SharedBytes::new(),
                    tail_pad: 0,
                    bytes,
                };
            }
        }
        let mut bytes = self
            .spare_bufs
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(crate::frame::FRAME_HEADER_LEN + 64));
        // DATA leaves split: encode only the 9-byte header (plus pad-length
        // byte) and pass the shared body chunk through untouched. The body
        // is the overwhelming majority of the frame's bytes, and the
        // transport's gather seal reads it exactly once — straight from the
        // stream's response buffer to the wire.
        if let Frame::Data {
            stream_id,
            end_stream,
            data,
            pad,
        } = frame
        {
            encode_data_head_into(&mut bytes, stream_id, end_stream, data.len(), pad);
            return Outgoing {
                meta: OutgoingMeta::Frame {
                    frame_type: FrameType::Data,
                    stream_id,
                    payload_len: data.len() + crate::frame::pad_overhead(pad),
                    end_stream,
                },
                bytes,
                body: data,
                tail_pad: pad.map_or(0, usize::from),
            };
        }
        encode_frame_into(&mut bytes, &frame);
        let meta = OutgoingMeta::Frame {
            frame_type: frame.frame_type(),
            stream_id: frame.stream_id(),
            payload_len: bytes.len() - crate::frame::FRAME_HEADER_LEN,
            end_stream: matches!(
                frame,
                Frame::Headers {
                    end_stream: true,
                    ..
                }
            ),
        };
        Outgoing {
            bytes,
            body: SharedBytes::new(),
            tail_pad: 0,
            meta,
        }
    }

    // ---- input ---------------------------------------------------------------

    /// Feeds received transport bytes into the connection.
    ///
    /// # Errors
    ///
    /// A returned error is fatal: the connection queues a GOAWAY (drain it
    /// with [`poll_send`](Self::poll_send)) and refuses further work.
    pub fn recv(&mut self, bytes: &[u8]) -> Result<(), H2Error> {
        self.output_idle = false;
        if self.dead {
            return Err(H2Error::new(ErrorCode::InternalError, "connection dead"));
        }
        let mut input = bytes;
        loop {
            match self.frame_decoder.next_frame_borrowed(&mut input) {
                Ok(None) => return Ok(()),
                Ok(Some(frame)) => self.handle_frame(frame)?,
                Err(_) => {
                    let err = H2Error::new(ErrorCode::ProtocolError, "frame decode failed");
                    self.fail(err.code);
                    return Err(err);
                }
            }
        }
    }

    /// Connection error (RFC 7540 §5.4.1): drops the queued control
    /// frames, so that the GOAWAY queued here is the only frame left to
    /// send.
    fn fail(&mut self, code: ErrorCode) {
        self.control_queue.clear();
        self.send_goaway(code);
        self.dead = true;
    }

    fn handle_frame(&mut self, frame: Frame) -> Result<(), H2Error> {
        match frame {
            Frame::Settings { ack, settings } => {
                if ack {
                    return Ok(());
                }
                self.stats.settings_received += 1;
                let old_initial = self.peer_settings.initial_window_size;
                self.peer_settings.apply(&settings);
                self.frame_decoder
                    .set_max_frame_size(self.config.settings.max_frame_size as usize);
                let delta = self.peer_settings.initial_window_size as i64 - old_initial as i64;
                if delta != 0 {
                    for entry in self.streams.values_mut() {
                        entry.send_window.adjust(delta);
                    }
                }
                self.peer_settings_received = true;
                self.control_queue.push_back(Frame::Settings {
                    ack: true,
                    settings: vec![],
                });
                self.events
                    .push_back(H2Event::PeerSettings(self.peer_settings.clone()));
                Ok(())
            }
            Frame::Ping { ack, data } => {
                if ack {
                    self.events.push_back(H2Event::PingAcked);
                } else {
                    self.control_queue
                        .push_back(Frame::Ping { ack: true, data });
                }
                Ok(())
            }
            Frame::WindowUpdate {
                stream_id,
                increment,
            } => {
                if stream_id == StreamId::CONNECTION {
                    self.conn_send_window.expand(increment).map_err(|_| {
                        let err =
                            H2Error::new(ErrorCode::FlowControlError, "connection window overflow");
                        self.fail(err.code);
                        err
                    })?;
                } else if let Some(entry) = self.streams.get_mut(&stream_id) {
                    entry.send_window.expand(increment).map_err(|_| {
                        let err =
                            H2Error::new(ErrorCode::FlowControlError, "stream window overflow");
                        self.fail(err.code);
                        err
                    })?;
                }
                Ok(())
            }
            Frame::Headers {
                stream_id,
                end_stream,
                header_block,
                ..
            } => {
                let headers = self.hpack_decoder.decode(&header_block).map_err(|_| {
                    let err = H2Error::new(ErrorCode::CompressionError, "hpack decode failed");
                    self.fail(err.code);
                    err
                })?;
                self.stats.headers_received += 1;
                // RFC 7540 §5.1.2: our advertised MAX_CONCURRENT_STREAMS
                // binds the *peer's* opens too. A HEADERS opening a new
                // remotely-initiated stream beyond the limit is refused
                // with RST_STREAM(REFUSED_STREAM); the block was already
                // HPACK-decoded above, so the connection-wide compression
                // context stays synchronized (§4.3), but no stream state is
                // created and nothing is delivered.
                let remote_open = stream_id.is_client_initiated()
                    != matches!(self.peer, Peer::Client)
                    && !self.streams.contains_key(&stream_id);
                if remote_open
                    && self.open_remote_streams()
                        >= self.config.settings.max_concurrent_streams as usize
                {
                    self.send_rst(stream_id, ErrorCode::RefusedStream);
                    return Ok(());
                }
                if remote_open {
                    self.last_peer_stream = self.last_peer_stream.max(stream_id);
                }
                let entry = self.streams.entry(stream_id).or_insert_with(|| {
                    StreamEntry::new(
                        StreamState::Open,
                        self.peer_settings.initial_window_size,
                        self.config.settings.initial_window_size,
                    )
                });
                if entry.state == StreamState::Closed {
                    // HEADERS racing our RST_STREAM: the block was HPACK-
                    // decoded above — the compression context is connection-
                    // wide and skipping a block would desynchronize it
                    // (RFC 7540 §4.3) — but the stream is dead, so nothing
                    // is delivered and no state transition happens.
                    return Ok(());
                }
                if end_stream {
                    entry.state = entry.state.on_remote_end();
                }
                if !self.data_order.contains(&stream_id) {
                    self.data_order.push(stream_id);
                }
                self.events.push_back(H2Event::Headers {
                    stream_id,
                    headers,
                    end_stream,
                });
                Ok(())
            }
            Frame::Data {
                stream_id,
                end_stream,
                data,
                pad,
            } => {
                self.stats.data_frames_received += 1;
                self.stats.data_bytes_received += data.len() as u64;
                // Connection-level accounting. RFC 7540 §6.9.1: the whole
                // payload — pad-length byte and padding included — debits
                // the windows, so padded senders and unpadded ledgers stay
                // in sync (and the WINDOW_UPDATEs below re-credit the same
                // padded totals).
                let len = data.len() + crate::frame::pad_overhead(pad);
                if len > self.conn_recv_window.available() {
                    let err = H2Error::new(
                        ErrorCode::FlowControlError,
                        "peer overran connection window",
                    );
                    self.fail(err.code);
                    return Err(err);
                }
                self.conn_recv_window.consume(len);
                self.conn_recv_consumed += len as u32;
                let initial = crate::flow::DEFAULT_WINDOW + self.config.connection_window_bonus;
                if self.conn_recv_consumed >= initial / 2 {
                    let inc = self.conn_recv_consumed;
                    self.conn_recv_consumed = 0;
                    self.conn_recv_window.expand(inc).expect("restoring credit");
                    self.control_queue.push_back(Frame::WindowUpdate {
                        stream_id: StreamId::CONNECTION,
                        increment: inc,
                    });
                }
                // Stream-level accounting. DATA for a stream we already
                // reset (or never opened) may still arrive — it was in
                // flight when the RST_STREAM crossed it. Its connection-
                // window debit above has already happened, exactly once
                // (RFC 7540 §5.1, §6.9: flow control is not reclaimed by
                // resets); the payload itself is discarded, not delivered.
                let deliver = match self.streams.get_mut(&stream_id) {
                    Some(entry) if entry.state == StreamState::Closed => false,
                    Some(entry) => {
                        if len > entry.recv_window.available() {
                            let err = H2Error::new(
                                ErrorCode::FlowControlError,
                                "peer overran stream window",
                            );
                            self.fail(err.code);
                            return Err(err);
                        }
                        entry.recv_window.consume(len);
                        entry.recv_consumed += len as u32;
                        if entry.recv_consumed >= self.config.settings.initial_window_size / 2 {
                            let inc = entry.recv_consumed;
                            entry.recv_consumed = 0;
                            entry.recv_window.expand(inc).expect("restoring credit");
                            self.control_queue.push_back(Frame::WindowUpdate {
                                stream_id,
                                increment: inc,
                            });
                        }
                        if end_stream {
                            entry.state = entry.state.on_remote_end();
                        }
                        true
                    }
                    None => false,
                };
                if deliver {
                    self.events.push_back(H2Event::Data {
                        stream_id,
                        len: data.len(),
                        end_stream,
                    });
                }
                Ok(())
            }
            Frame::RstStream {
                stream_id,
                error_code,
            } => {
                self.stats.resets_received += 1;
                if let Some(entry) = self.streams.get_mut(&stream_id) {
                    entry.state = StreamState::Closed;
                    entry.pending.clear();
                    entry.pending_end = false;
                }
                self.events.push_back(H2Event::Reset {
                    stream_id,
                    error_code,
                });
                Ok(())
            }
            Frame::GoAway {
                last_stream_id,
                error_code,
            } => {
                self.goaway_received = true;
                self.events.push_back(H2Event::GoAway {
                    last_stream_id,
                    error_code,
                });
                // RFC 7540 §6.8: locally-initiated streams above
                // `last_stream_id` were not and will never be processed by
                // the peer. Cancel them now — clearing pending output and
                // surfacing a REFUSED_STREAM reset per stream — so requests
                // in flight at GOAWAY error out instead of hanging until
                // the trial deadline.
                let local_is_client = matches!(self.peer, Peer::Client);
                let mut orphaned: Vec<StreamId> = self
                    .streams
                    .iter()
                    .filter(|(id, e)| {
                        id.is_client_initiated() == local_is_client
                            && id.0 > last_stream_id.0
                            && e.state != StreamState::Closed
                    })
                    .map(|(&id, _)| id)
                    .collect();
                orphaned.sort_unstable();
                for id in orphaned {
                    let entry = self.streams.get_mut(&id).expect("stream just listed");
                    entry.state = StreamState::Closed;
                    entry.pending.clear();
                    entry.pending_end = false;
                    self.events.push_back(H2Event::Reset {
                        stream_id: id,
                        error_code: ErrorCode::RefusedStream,
                    });
                }
                Ok(())
            }
            // Priority is advisory (RFC 7540 §5.3): no send policy here
            // reads it.
            Frame::Priority { .. } => Ok(()),
        }
    }
}
