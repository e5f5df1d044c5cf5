//! The TCP connection state machine (sans-IO).
//!
//! One [`TcpConnection`] is one endpoint of a connection. It is driven by
//! its host: incoming segments go in through [`TcpConnection::on_segment`],
//! outgoing segments come out of [`TcpConnection::poll_transmit`], and the
//! retransmission clock is polled via [`TcpConnection::poll_timeout`] /
//! fired via [`TcpConnection::on_tick`]. This sans-IO shape keeps the whole
//! protocol unit-testable without a simulator.
//!
//! The implementation is deliberately classic — immediate ACKs, duplicate
//! ACKs on gaps, NewReno fast retransmit/recovery, go-back-N on RTO,
//! exponential backoff, connection abort after too many consecutive
//! timeouts — because those are the exact behaviours the paper's adversary
//! provokes and exploits (§IV).

use h2priv_bytes::SharedBytes;
use h2priv_netsim::{SimDuration, SimTime};

use crate::congestion::{CcPhase, NewReno};
use crate::reassembly::Reassembler;
use crate::rope::SendRope;
use crate::rtt::RttEstimator;
use crate::segment::{TcpFlags, TcpSegment, DEFAULT_MSS};
use crate::seq::Seq;
use crate::stats::TcpStats;

/// Why a connection died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The peer sent RST.
    PeerReset,
    /// Too many consecutive retransmission timeouts — the paper's "broken
    /// connection" outcome (§IV-C, §V).
    TooManyTimeouts,
    /// The local application aborted.
    LocalAbort,
    /// A protocol violation (unexpected segment for the state).
    ProtocolError,
}

/// Connection lifecycle states (condensed RFC 793 diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// No connection yet.
    Closed,
    /// Client sent SYN.
    SynSent,
    /// Server got SYN, sent SYN-ACK.
    SynRcvd,
    /// Data may flow.
    Established,
    /// We sent FIN, awaiting its ACK (and possibly the peer's FIN).
    FinWait,
    /// Peer sent FIN; we may still send.
    CloseWait,
    /// Both FINs exchanged, ours not yet acknowledged.
    LastAck,
    /// Fully closed.
    Done,
    /// Aborted; see [`TcpConnection::abort_reason`].
    Aborted,
}

/// Tuning knobs for a connection.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per segment).
    pub mss: usize,
    /// Initial congestion window, in segments (RFC 6928: 10).
    pub initial_window_segments: usize,
    /// Receive window advertised to the peer, in bytes.
    pub receive_window: u32,
    /// RTO before any RTT sample exists.
    pub initial_rto: SimDuration,
    /// Lower clamp for the RTO.
    pub min_rto: SimDuration,
    /// Upper clamp for the RTO.
    pub max_rto: SimDuration,
    /// Duplicate ACKs required to trigger fast retransmit.
    pub dup_ack_threshold: u32,
    /// Consecutive RTOs after which the connection is declared broken.
    pub max_consecutive_timeouts: u32,
    /// Delayed-ACK timeout (RFC 1122 §4.2.3.2): a lone in-order segment's
    /// ACK is deferred up to this long or until a second segment arrives.
    /// `None` (the default, and the calibration's choice) acknowledges
    /// every segment immediately — dup-ACK generation under loss is what
    /// the reproduction's attack dynamics lean on.
    pub delayed_ack: Option<SimDuration>,
    /// Initial send sequence number.
    pub iss: Seq,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: DEFAULT_MSS,
            initial_window_segments: 10,
            receive_window: 1 << 20,
            initial_rto: SimDuration::from_secs(1),
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
            dup_ack_threshold: 3,
            max_consecutive_timeouts: 6,
            delayed_ack: None,
            iss: Seq(1_000),
        }
    }
}

/// One endpoint of a TCP connection.
///
/// # Examples
///
/// Two connections wired back-to-back in a test harness:
///
/// ```
/// use h2priv_netsim::SimTime;
/// use h2priv_tcp::{TcpConfig, TcpConnection};
///
/// let mut client = TcpConnection::client(TcpConfig::default());
/// let mut server = TcpConnection::server(TcpConfig::default());
/// client.write(b"GET /");
///
/// // Exchange segments until quiescent.
/// let now = SimTime::ZERO;
/// for _ in 0..16 {
///     let mut moved = false;
///     while let Some(seg) = client.poll_transmit(now) {
///         server.on_segment(seg, now);
///         moved = true;
///     }
///     while let Some(seg) = server.poll_transmit(now) {
///         client.on_segment(seg, now);
///         moved = true;
///     }
///     if !moved { break; }
/// }
/// assert!(client.is_established() && server.is_established());
/// assert_eq!(server.read(), b"GET /");
/// ```
#[derive(Debug)]
pub struct TcpConnection {
    config: TcpConfig,
    state: TcpState,
    abort_reason: Option<AbortReason>,

    // ---- send side ----
    /// Unacknowledged (and unsent) bytes, as a rope of shared chunks
    /// indexed by absolute stream offset. The fully-acked prefix is
    /// released as acknowledgments arrive.
    send_buf: SendRope,
    /// First unacknowledged stream offset.
    snd_una: u64,
    /// Next offset to transmit.
    snd_nxt: u64,
    /// Highest offset ever transmitted (for retransmission detection).
    snd_max: u64,
    /// Offset of our FIN, once `close()` is called.
    fin_offset: Option<u64>,
    fin_sent: bool,
    fin_acked: bool,
    /// Peer's advertised receive window.
    peer_window: u32,
    /// Fast-retransmit request: retransmit one segment at `snd_una` now.
    fast_rexmit: bool,
    /// NewReno recovery point (offset); dup-ACK logic is disabled below it.
    recovery: Option<u64>,
    dup_acks: u32,
    cc: NewReno,
    rtt: RttEstimator,
    /// Outstanding RTT probe: (offset that must be acked, send time).
    rtt_probe: Option<(u64, SimTime)>,
    /// Absolute deadline of the retransmission timer.
    rto_deadline: Option<SimTime>,
    consecutive_timeouts: u32,
    /// Highest offset outstanding when the last RTO fired. The backed-off
    /// RTO persists until an ACK *beyond* this point — an ACK of data first
    /// sent after the timeout — arrives (RFC 6298, 5.7); ACKs that only
    /// cover retransmitted ranges are ambiguous under Karn's algorithm and
    /// leave the backoff alone.
    backoff_point: Option<u64>,
    /// When a data segment was last transmitted (idle detection, RFC 7661).
    last_data_sent: Option<SimTime>,

    // ---- receive side ----
    reassembler: Reassembler,
    /// Peer's initial sequence number, learned from its SYN.
    peer_iss: Option<Seq>,
    /// Stream offset of the peer's FIN, if received.
    peer_fin_offset: Option<u64>,
    /// Pure ACKs queued for emission, with their ack values captured at
    /// segment-processing time (one immediate ACK per received data
    /// segment, even if the driver batches deliveries).
    pending_acks: std::collections::VecDeque<Seq>,
    /// Deferred-ACK deadline when delayed ACKs are enabled and exactly one
    /// unacknowledged in-order segment has arrived.
    delayed_ack_deadline: Option<SimTime>,

    /// A RST should be emitted.
    rst_pending: bool,
    /// Cleared when a full [`poll_transmit`](Self::poll_transmit) pass
    /// returned `None` and no state has changed since: the next poll can
    /// answer `None` without re-walking the send machinery. Every mutator
    /// that could make a segment sendable (`write`, `close`, `abort`,
    /// `on_segment`, `on_tick`) sets it again. Purely an idle-path
    /// short-circuit — segment content and ordering are unchanged.
    output_pending: bool,
    /// SYN (or SYN-ACK) is in flight, awaiting its ACK or timeout.
    syn_in_flight: bool,

    stats: TcpStats,
}

impl TcpConnection {
    /// Creates the initiating endpoint; the first
    /// [`poll_transmit`](Self::poll_transmit) emits the SYN.
    pub fn client(config: TcpConfig) -> Self {
        Self::new(config, true)
    }

    /// Creates the accepting endpoint; it waits for a SYN.
    pub fn server(config: TcpConfig) -> Self {
        Self::new(config, false)
    }

    fn new(config: TcpConfig, is_client: bool) -> Self {
        let cc = NewReno::new(config.mss, config.initial_window_segments);
        let rtt = RttEstimator::new(config.initial_rto, config.min_rto, config.max_rto);
        TcpConnection {
            state: if is_client {
                TcpState::SynSent
            } else {
                TcpState::Closed
            },
            abort_reason: None,
            send_buf: SendRope::new(),
            snd_una: 0,
            snd_nxt: 0,
            snd_max: 0,
            fin_offset: None,
            fin_sent: false,
            fin_acked: false,
            peer_window: config.receive_window,
            fast_rexmit: false,
            recovery: None,
            dup_acks: 0,
            cc,
            rtt,
            rtt_probe: None,
            rto_deadline: None,
            consecutive_timeouts: 0,
            backoff_point: None,
            last_data_sent: None,
            reassembler: Reassembler::new(),
            peer_iss: None,
            peer_fin_offset: None,
            pending_acks: std::collections::VecDeque::new(),
            delayed_ack_deadline: None,
            rst_pending: false,
            output_pending: true,
            syn_in_flight: false,
            stats: TcpStats::default(),
            config,
        }
    }

    // ---- inspectors -----------------------------------------------------

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// True once the handshake has completed.
    pub fn is_established(&self) -> bool {
        matches!(
            self.state,
            TcpState::Established | TcpState::FinWait | TcpState::CloseWait | TcpState::LastAck
        )
    }

    /// True if the connection died; see [`abort_reason`](Self::abort_reason).
    pub fn is_aborted(&self) -> bool {
        self.state == TcpState::Aborted
    }

    /// Why the connection aborted, if it did.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        self.abort_reason
    }

    /// Counters.
    pub fn stats(&self) -> &TcpStats {
        &self.stats
    }

    /// Bytes in flight (sent, unacknowledged).
    pub fn flight(&self) -> usize {
        (self.snd_nxt - self.snd_una) as usize
    }

    /// Current congestion window (bytes).
    pub fn cwnd(&self) -> usize {
        self.cc.cwnd()
    }

    /// Current slow-start threshold (bytes).
    pub fn ssthresh(&self) -> usize {
        self.cc.ssthresh()
    }

    /// Current congestion phase.
    pub fn cc_phase(&self) -> CcPhase {
        self.cc.phase()
    }

    /// Smoothed RTT, once measured.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.rtt.srtt()
    }

    /// Configured maximum segment size (bytes).
    pub fn mss(&self) -> usize {
        self.config.mss
    }

    /// First unacknowledged send-stream offset.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Highest send-stream offset ever transmitted.
    pub fn snd_max(&self) -> u64 {
        self.snd_max
    }

    /// Current RTO backoff exponent (0 when no timeout is outstanding).
    pub fn rto_backoff_exp(&self) -> u32 {
        self.rtt.backoff_exp()
    }

    /// End offset of the outstanding Karn RTT probe, if any. The probe must
    /// be invalidated whenever a retransmission overlaps it (no samples
    /// from retransmitted segments); the conformance oracle checks this.
    pub fn rtt_probe_end(&self) -> Option<u64> {
        self.rtt_probe.map(|(end, _)| end)
    }

    /// Total bytes ever written to the send stream (the current stream
    /// length); the next written byte gets this offset.
    pub fn total_written(&self) -> u64 {
        self.send_buf.total()
    }

    /// Bytes written but not yet acknowledged by the peer (what a kernel
    /// would hold in the socket send buffer). Hosts use this for
    /// application-layer backpressure.
    pub fn buffered(&self) -> usize {
        (self.send_buf.total() - self.snd_una) as usize
    }

    /// Bytes written but not yet sent.
    pub fn unsent(&self) -> usize {
        (self.send_buf.total() - self.snd_nxt) as usize
    }

    /// Bytes *resident* in the send buffer right now — queued chunks not
    /// yet released by acknowledgments. Unlike
    /// [`total_written`](Self::total_written) this is a gauge, not a
    /// cumulative counter: on a healthy connection it stays bounded by
    /// the send window however much data the stream carries. Also
    /// surfaced as [`TcpStats::send_buf_bytes`](crate::TcpStats).
    pub fn send_buf_bytes(&self) -> usize {
        self.send_buf.resident()
    }

    /// True when all written data (and FIN if closed) has been acknowledged.
    pub fn send_drained(&self) -> bool {
        self.snd_una == self.send_buf.total() && (self.fin_offset.is_none() || self.fin_acked)
    }

    // ---- application surface --------------------------------------------

    /// Queues application bytes for transmission, copying them once into
    /// a fresh shared chunk. Returns the number of bytes accepted (0
    /// after `close()` or on a dead connection). Callers that already
    /// hold a [`SharedBytes`] should use
    /// [`write_shared`](Self::write_shared) and skip the copy.
    pub fn write(&mut self, data: &[u8]) -> usize {
        self.output_pending = true;
        if self.fin_offset.is_some() || self.state == TcpState::Aborted {
            return 0;
        }
        self.send_buf.push(SharedBytes::copy_from_slice(data));
        self.stats.send_buf_bytes = self.send_buf.resident() as u64;
        data.len()
    }

    /// Queues an already-shared chunk for transmission without copying
    /// it: segmentation (and any retransmission) will hand out sub-slices
    /// of this very buffer. Returns the number of bytes accepted.
    pub fn write_shared(&mut self, data: SharedBytes) -> usize {
        self.output_pending = true;
        if self.fin_offset.is_some() || self.state == TcpState::Aborted {
            return 0;
        }
        let len = data.len();
        self.send_buf.push(data);
        self.stats.send_buf_bytes = self.send_buf.resident() as u64;
        len
    }

    /// Drains bytes received in order.
    pub fn read(&mut self) -> Vec<u8> {
        self.reassembler.read()
    }

    /// Drains bytes received in order into `out` (appending), reusing the
    /// caller's buffer. See [`Reassembler::read_into`].
    pub fn read_into(&mut self, out: &mut Vec<u8>) {
        self.reassembler.read_into(out);
    }

    /// Takes the send buffer's recycled chunk backing buffer, if one was
    /// recovered when an acknowledgment released it (empty, capacity
    /// intact). Senders that queue one coalesced buffer per pump pass get
    /// their previous buffer back here and reuse it for the next pass.
    pub fn take_send_spare(&mut self) -> Option<Vec<u8>> {
        self.send_buf.take_spare()
    }

    /// Surrenders every idle buffer this connection is holding for reuse
    /// — the send rope's recycled chunk and the reassembler's drained
    /// `ready` buffer — to `sink`. For connections whose work is done
    /// (completed page loads in a fleet): the freed capacity goes back to
    /// a pool instead of sitting on the connection until teardown. Live
    /// data is never shed; a connection that springs back to life simply
    /// reallocates.
    pub fn shed_spare_capacity(&mut self, sink: &mut dyn FnMut(Vec<u8>)) {
        if let Some(buf) = self.send_buf.take_spare() {
            sink(buf);
        }
        if let Some(buf) = self.reassembler.take_ready_spare() {
            sink(buf);
        }
    }

    /// Warms this connection's buffers from recycled capacity: the send
    /// rope's spare slot and the reassembler's `ready` buffer. `supply` is
    /// polled per slot; return `None` to stop early.
    pub fn adopt_spare_capacity(&mut self, supply: &mut dyn FnMut() -> Option<Vec<u8>>) {
        if let Some(buf) = supply() {
            self.send_buf.give_spare(buf);
        }
        if let Some(buf) = supply() {
            self.reassembler.give_ready_spare(buf);
        }
    }

    /// Bytes received in order and not yet drained by [`read`](Self::read).
    pub fn available(&self) -> usize {
        self.reassembler.ready_len()
    }

    /// Begins a graceful close: a FIN is sent once all queued data has been
    /// transmitted. Further writes are rejected.
    pub fn close(&mut self) {
        self.output_pending = true;
        if self.fin_offset.is_none() {
            self.fin_offset = Some(self.send_buf.total());
        }
    }

    /// Aborts immediately; the next [`poll_transmit`](Self::poll_transmit)
    /// emits a RST.
    pub fn abort(&mut self) {
        self.output_pending = true;
        if self.state != TcpState::Aborted {
            self.state = TcpState::Aborted;
            self.abort_reason = Some(AbortReason::LocalAbort);
            self.rst_pending = true;
        }
    }

    // ---- wire <-> offset conversions ------------------------------------

    fn wire_seq(&self, offset: u64) -> Seq {
        self.config.iss + 1 + (offset as u32)
    }

    fn offset_of_ack(&self, ack: Seq) -> Option<u64> {
        // ack acknowledges our stream: offset = ack - (iss + 1).
        let base = self.config.iss + 1;
        if ack.geq(base) {
            Some((ack - base) as u64)
        } else {
            None
        }
    }

    fn rcv_ack_field(&self) -> Seq {
        match self.peer_iss {
            None => Seq(0),
            Some(peer_iss) => {
                let mut n = self.reassembler.ack_point();
                // Consume the peer's FIN once all its data has arrived.
                if let Some(fin) = self.peer_fin_offset {
                    if self.reassembler.ack_point() >= fin {
                        n = fin + 1;
                    }
                }
                peer_iss + 1 + (n as u32)
            }
        }
    }

    // ---- segment construction -------------------------------------------

    fn base_segment(&self, flags: TcpFlags, seq: Seq, payload: SharedBytes) -> TcpSegment {
        TcpSegment {
            seq,
            ack: if flags.ack {
                self.rcv_ack_field()
            } else {
                Seq(0)
            },
            flags,
            window: self.config.receive_window,
            payload,
        }
    }

    // ---- output ----------------------------------------------------------

    /// Produces the next segment this endpoint wants to transmit, or `None`
    /// when idle. Call in a loop until `None`.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<TcpSegment> {
        if !self.output_pending {
            return None;
        }
        // RST has absolute priority.
        if self.rst_pending {
            self.rst_pending = false;
            self.stats.segments_sent += 1;
            return Some(self.base_segment(
                TcpFlags::RST,
                self.wire_seq(self.snd_nxt),
                SharedBytes::new(),
            ));
        }
        let seg = match self.state {
            TcpState::Closed | TcpState::Aborted => None,
            TcpState::Done => self.poll_pure_ack(),
            TcpState::SynSent => self.poll_syn(now),
            TcpState::SynRcvd => self.poll_syn_ack(now),
            _ => self.poll_established(now),
        };
        self.output_pending = seg.is_some();
        seg
    }

    /// Emits one queued pure ACK, if any.
    fn poll_pure_ack(&mut self) -> Option<TcpSegment> {
        let ack = self.pending_acks.pop_front()?;
        self.stats.segments_sent += 1;
        let mut seg = self.base_segment(
            TcpFlags::ACK,
            self.wire_seq(self.snd_nxt),
            SharedBytes::new(),
        );
        seg.ack = ack;
        Some(seg)
    }

    fn poll_syn(&mut self, now: SimTime) -> Option<TcpSegment> {
        if self.syn_in_flight {
            return None;
        }
        self.syn_in_flight = true;
        self.arm_rto(now);
        self.stats.segments_sent += 1;
        Some(self.base_segment(TcpFlags::SYN, self.config.iss, SharedBytes::new()))
    }

    fn poll_syn_ack(&mut self, now: SimTime) -> Option<TcpSegment> {
        if self.syn_in_flight {
            return None;
        }
        self.syn_in_flight = true;
        self.arm_rto(now);
        self.stats.segments_sent += 1;
        Some(self.base_segment(TcpFlags::SYN_ACK, self.config.iss, SharedBytes::new()))
    }

    fn poll_established(&mut self, now: SimTime) -> Option<TcpSegment> {
        // RFC 7661: after an idle period of at least one RTO with nothing
        // in flight, restart from the initial congestion window.
        if self.flight() == 0 {
            if let Some(last) = self.last_data_sent {
                if now.saturating_since(last) >= self.rtt.rto() {
                    self.cc.on_idle_restart(self.config.initial_window_segments);
                    self.last_data_sent = None;
                }
            }
        }
        // 1. Fast retransmit of the first unacknowledged segment.
        if self.fast_rexmit {
            self.fast_rexmit = false;
            if self.snd_una < self.send_buf.total() {
                return Some(self.make_data_segment(self.snd_una, now, true));
            }
            if self.fin_needs_rexmit() {
                return Some(self.make_fin_segment(now, true));
            }
        }
        // 2. New (or go-back-N re-sent) data within both windows.
        let window = self.cc.cwnd().min(self.peer_window as usize);
        let limit = self.snd_una + window as u64;
        if self.snd_nxt < self.send_buf.total() && self.snd_nxt < limit {
            let offset = self.snd_nxt;
            let seg = self.make_data_segment(offset, now, offset < self.snd_max);
            self.snd_nxt = offset + seg.payload.len() as u64;
            return Some(seg);
        }
        // 3. FIN once all data is out.
        if let Some(fin_offset) = self.fin_offset {
            if !self.fin_sent && self.snd_nxt >= fin_offset && self.snd_nxt >= self.send_buf.total()
            {
                self.fin_sent = true;
                if self.state == TcpState::Established {
                    self.state = TcpState::FinWait;
                } else if self.state == TcpState::CloseWait {
                    self.state = TcpState::LastAck;
                }
                return Some(self.make_fin_segment(now, false));
            }
        }
        // 4. Pure ACK.
        self.poll_pure_ack()
    }

    fn fin_needs_rexmit(&self) -> bool {
        self.fin_sent && !self.fin_acked
    }

    fn make_data_segment(&mut self, offset: u64, now: SimTime, is_rexmit: bool) -> TcpSegment {
        let end = (offset + self.config.mss as u64).min(self.send_buf.total());
        let payload = self.send_buf.slice(offset, end);
        debug_assert!(!payload.is_empty());
        // A retransmission re-cut from `snd_una` after the send buffer grew
        // carries bytes past `snd_max`; they are on the wire all the same,
        // so a later segment re-sending them must count as a retransmission.
        self.snd_max = self.snd_max.max(end);
        if is_rexmit {
            self.stats.retransmissions += 1;
            self.stats.retransmitted_bytes += payload.len() as u64;
            // Karn: invalidate any probe the retransmission could satisfy.
            if let Some((probe_end, _)) = self.rtt_probe {
                if offset < probe_end {
                    self.rtt_probe = None;
                }
            }
        } else if self.rtt_probe.is_none() {
            self.rtt_probe = Some((end, now));
        }
        self.arm_rto(now);
        self.last_data_sent = Some(now);
        self.stats.segments_sent += 1;
        self.stats.bytes_sent += payload.len() as u64;
        // The cumulative ack on this data segment subsumes queued pure ACKs.
        self.pending_acks.clear();
        self.base_segment(TcpFlags::ACK, self.wire_seq(offset), payload)
    }

    fn make_fin_segment(&mut self, now: SimTime, is_rexmit: bool) -> TcpSegment {
        if is_rexmit {
            self.stats.retransmissions += 1;
        }
        self.arm_rto(now);
        self.stats.segments_sent += 1;
        self.pending_acks.clear();
        let fin_offset = self.fin_offset.expect("fin requested");
        self.base_segment(
            TcpFlags::FIN_ACK,
            self.wire_seq(fin_offset),
            SharedBytes::new(),
        )
    }

    // ---- timers ----------------------------------------------------------

    /// The absolute time of the next timer deadline (retransmission or
    /// delayed ACK), if any.
    pub fn poll_timeout(&self) -> Option<SimTime> {
        match (self.rto_deadline, self.delayed_ack_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advances the clock: if the retransmission deadline has passed, the
    /// timeout reaction runs (go-back-N, window collapse, backoff); a due
    /// delayed ACK is flushed.
    pub fn on_tick(&mut self, now: SimTime) {
        self.output_pending = true;
        self.flush_delayed_ack(now);
        let Some(deadline) = self.rto_deadline else {
            return;
        };
        if now < deadline {
            return;
        }
        self.rto_deadline = None;
        match self.state {
            TcpState::SynSent | TcpState::SynRcvd => {
                self.stats.timeouts += 1;
                self.consecutive_timeouts += 1;
                if self.consecutive_timeouts > self.config.max_consecutive_timeouts {
                    self.die(AbortReason::TooManyTimeouts);
                    return;
                }
                self.stats.syn_retransmissions += 1;
                self.rtt.on_timeout();
                self.backoff_point = Some(self.backoff_point.unwrap_or(0).max(self.snd_max));
                self.syn_in_flight = false; // re-emit SYN / SYN-ACK
            }
            TcpState::Established | TcpState::FinWait | TcpState::CloseWait | TcpState::LastAck => {
                if self.flight() == 0 && !self.fin_needs_rexmit() {
                    return; // spurious
                }
                if std::env::var_os("H2PRIV_TCP_DEBUG").is_some() {
                    eprintln!(
                        "RTO at {now}: rto={} srtt={:?} flight={} una={} nxt={} max={} backoff={}",
                        self.rtt.rto(),
                        self.rtt.srtt(),
                        self.flight(),
                        self.snd_una,
                        self.snd_nxt,
                        self.snd_max,
                        self.rtt.backoff_exp(),
                    );
                }
                self.stats.timeouts += 1;
                self.consecutive_timeouts += 1;
                if self.consecutive_timeouts > self.config.max_consecutive_timeouts {
                    self.die(AbortReason::TooManyTimeouts);
                    return;
                }
                self.rtt.on_timeout();
                self.backoff_point = Some(self.backoff_point.unwrap_or(0).max(self.snd_max));
                self.cc
                    .on_timeout(self.flight(), self.consecutive_timeouts == 1);
                // Go-back-N: rewind the send cursor.
                self.snd_nxt = self.snd_una;
                self.recovery = None;
                self.dup_acks = 0;
                self.fast_rexmit = false;
                if self.fin_needs_rexmit() && self.snd_una >= self.send_buf.total() {
                    self.fast_rexmit = true; // re-send the FIN
                }
                self.arm_rto(now);
            }
            _ => {}
        }
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = Some(now + self.rtt.rto());
    }

    fn die(&mut self, reason: AbortReason) {
        self.state = TcpState::Aborted;
        self.abort_reason = Some(reason);
        self.rto_deadline = None;
    }

    // ---- input -----------------------------------------------------------

    /// Processes one received segment.
    pub fn on_segment(&mut self, seg: TcpSegment, now: SimTime) {
        self.output_pending = true;
        if self.state == TcpState::Aborted || self.state == TcpState::Done {
            return;
        }
        self.stats.segments_received += 1;
        if seg.flags.rst {
            self.die(AbortReason::PeerReset);
            return;
        }
        match self.state {
            TcpState::Closed => self.on_segment_listen(seg),
            TcpState::SynSent => self.on_segment_syn_sent(seg, now),
            TcpState::SynRcvd => self.on_segment_syn_rcvd(seg, now),
            _ => self.on_segment_established(seg, now),
        }
    }

    fn on_segment_listen(&mut self, seg: TcpSegment) {
        if seg.flags.syn && !seg.flags.ack {
            self.peer_iss = Some(seg.seq);
            self.peer_window = seg.window;
            self.state = TcpState::SynRcvd;
        }
        // Anything else in LISTEN is ignored (real stacks RST; our model
        // only ever connects matched pairs).
    }

    fn on_segment_syn_sent(&mut self, seg: TcpSegment, _now: SimTime) {
        if seg.flags.syn && seg.flags.ack {
            // Our SYN is acknowledged iff ack == iss + 1.
            if seg.ack == self.config.iss + 1 {
                self.peer_iss = Some(seg.seq);
                self.peer_window = seg.window;
                self.consecutive_timeouts = 0;
                self.rto_deadline = None;
                self.state = TcpState::Established;
                self.queue_ack();
            }
        }
    }

    fn on_segment_syn_rcvd(&mut self, seg: TcpSegment, now: SimTime) {
        if seg.flags.ack && seg.ack == self.config.iss + 1 {
            self.consecutive_timeouts = 0;
            self.rto_deadline = None;
            self.state = TcpState::Established;
            // The handshake ACK may carry data (TLS false start does this).
            self.on_segment_established(seg, now);
        } else if seg.flags.syn && !seg.flags.ack {
            // Duplicate SYN: let the SYN-ACK retransmit machinery answer.
            self.syn_in_flight = false;
        }
    }

    fn on_segment_established(&mut self, seg: TcpSegment, now: SimTime) {
        if seg.flags.ack {
            self.process_ack(&seg, now);
        }
        let Some(peer_iss) = self.peer_iss else {
            return;
        };
        if !seg.payload.is_empty() {
            let offset = (seg.seq - (peer_iss + 1)) as u64;
            let before = self.reassembler.ack_point();
            self.reassembler.insert(offset, &seg.payload);
            let after = self.reassembler.ack_point();
            self.stats.bytes_received += (after - before).min(seg.payload.len() as u64);
            if self.reassembler.has_gap() || after == before {
                // Out-of-order or duplicate data: RFC 5681 mandates an
                // immediate (duplicate) ACK regardless of delayed ACKs.
                self.stats.dup_acks_sent += 1;
                self.queue_ack();
            } else {
                self.queue_data_ack(now);
            }
        }
        if seg.flags.fin {
            let fin_offset = (seg.seq_end() - (peer_iss + 1)) as u64 - 1;
            self.peer_fin_offset = Some(fin_offset);
            self.queue_ack();
            match self.state {
                TcpState::Established => self.state = TcpState::CloseWait,
                TcpState::FinWait if self.fin_acked => self.state = TcpState::Done,
                _ => {}
            }
        }
        self.maybe_finish_close();
    }

    fn maybe_finish_close(&mut self) {
        match self.state {
            TcpState::FinWait if self.fin_acked && self.peer_fin_offset.is_some() => {
                self.state = TcpState::Done;
            }
            TcpState::LastAck if self.fin_acked => {
                self.state = TcpState::Done;
            }
            _ => {}
        }
    }

    /// Queues one immediate pure ACK carrying the current ack point.
    fn queue_ack(&mut self) {
        let ack = self.rcv_ack_field();
        self.pending_acks.push_back(ack);
        self.delayed_ack_deadline = None;
    }

    /// Queues an ACK for an in-order data segment, possibly deferring it
    /// (RFC 1122 delayed ACK: at most one segment unacknowledged, and a
    /// second arrival or the timer flushes immediately).
    fn queue_data_ack(&mut self, now: SimTime) {
        match self.config.delayed_ack {
            None => self.queue_ack(),
            Some(delay) => {
                if self.delayed_ack_deadline.take().is_some() {
                    // Second segment: acknowledge both at once.
                    self.queue_ack();
                } else {
                    self.delayed_ack_deadline = Some(now + delay);
                }
            }
        }
    }

    /// Flushes a due delayed ACK.
    fn flush_delayed_ack(&mut self, now: SimTime) {
        if let Some(deadline) = self.delayed_ack_deadline {
            if now >= deadline {
                self.queue_ack();
            }
        }
    }

    fn process_ack(&mut self, seg: &TcpSegment, now: SimTime) {
        let Some(mut ack_offset) = self.offset_of_ack(seg.ack) else {
            return;
        };
        self.peer_window = seg.window;
        // The ACK may cover our FIN.
        if let Some(fin_offset) = self.fin_offset {
            if self.fin_sent && ack_offset > fin_offset {
                self.fin_acked = true;
                ack_offset = fin_offset;
                self.rto_deadline = None;
                self.maybe_finish_close();
            }
        }
        let data_len = self.send_buf.total();
        let ack_offset = ack_offset.min(data_len);
        if ack_offset > self.snd_una {
            let newly = (ack_offset - self.snd_una) as usize;
            self.snd_una = ack_offset;
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            // Reclaim the fully-acknowledged prefix of the send buffer.
            self.send_buf.release_until(self.snd_una);
            self.stats.send_buf_bytes = self.send_buf.resident() as u64;
            self.dup_acks = 0;
            self.consecutive_timeouts = 0;
            // A backed-off RTO persists until new data — data beyond what
            // was outstanding at the timeout — is cumulatively acked.
            match self.backoff_point {
                Some(point) if ack_offset <= point => {}
                _ => {
                    self.backoff_point = None;
                    self.rtt.on_progress();
                }
            }
            // RTT sample (Karn-safe: probe is invalidated on retransmit).
            if let Some((probe_end, sent_at)) = self.rtt_probe {
                if ack_offset >= probe_end {
                    self.rtt.on_sample(now - sent_at);
                    self.rtt_probe = None;
                }
            }
            // NewReno partial-ACK handling.
            if let Some(recover) = self.recovery {
                if ack_offset < recover {
                    self.fast_rexmit = true; // retransmit the next hole
                } else {
                    self.recovery = None;
                }
            }
            self.cc.on_ack(newly, ack_offset, self.flight());
            if self.flight() == 0 && !self.fin_needs_rexmit() {
                self.rto_deadline = None;
            } else {
                self.arm_rto(now);
            }
        } else if ack_offset == self.snd_una && seg.is_pure_ack() && self.flight() > 0 {
            self.dup_acks += 1;
            self.stats.dup_acks_received += 1;
            if self.dup_acks == self.config.dup_ack_threshold {
                if self.cc.on_dup_ack_threshold(self.flight(), self.snd_max) {
                    self.recovery = Some(self.snd_max);
                    self.fast_rexmit = true;
                    self.stats.fast_retransmits += 1;
                }
            } else if self.dup_acks > self.config.dup_ack_threshold {
                self.cc.on_extra_dup_ack();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn pump(a: &mut TcpConnection, b: &mut TcpConnection, now: SimTime) {
        // Exchange until quiescent at a single instant.
        loop {
            let mut moved = false;
            while let Some(seg) = a.poll_transmit(now) {
                b.on_segment(seg, now);
                moved = true;
            }
            while let Some(seg) = b.poll_transmit(now) {
                a.on_segment(seg, now);
                moved = true;
            }
            if !moved {
                break;
            }
        }
    }

    pub(super) fn established_pair() -> (TcpConnection, TcpConnection) {
        let mut c = TcpConnection::client(TcpConfig::default());
        let mut s = TcpConnection::server(TcpConfig::default());
        pump(&mut c, &mut s, SimTime::ZERO);
        assert!(c.is_established() && s.is_established());
        (c, s)
    }

    #[test]
    fn handshake_completes() {
        let (c, s) = established_pair();
        assert_eq!(c.state(), TcpState::Established);
        assert_eq!(s.state(), TcpState::Established);
    }

    #[test]
    fn data_flows_both_ways() {
        let (mut c, mut s) = established_pair();
        c.write(b"request bytes");
        s.write(b"response bytes");
        pump(&mut c, &mut s, SimTime::from_millis(1));
        assert_eq!(s.read(), b"request bytes");
        assert_eq!(c.read(), b"response bytes");
    }

    #[test]
    fn large_transfer_segments_at_mss() {
        let (mut c, mut s) = established_pair();
        let data = vec![0xAB; 100_000];
        c.write(&data);
        // Drive with advancing time so cwnd growth applies.
        for ms in 1..200 {
            pump(&mut c, &mut s, SimTime::from_millis(ms));
            if s.available() >= data.len() {
                break;
            }
        }
        let got = s.read();
        assert_eq!(got.len(), data.len());
        assert_eq!(got, data);
        assert_eq!(c.stats().retransmissions, 0);
    }

    #[test]
    fn graceful_close_both_sides() {
        let (mut c, mut s) = established_pair();
        c.write(b"bye");
        c.close();
        pump(&mut c, &mut s, SimTime::from_millis(1));
        assert_eq!(s.read(), b"bye");
        assert_eq!(s.state(), TcpState::CloseWait);
        s.close();
        pump(&mut c, &mut s, SimTime::from_millis(2));
        assert_eq!(c.state(), TcpState::Done);
        assert_eq!(s.state(), TcpState::Done);
    }

    #[test]
    fn write_after_close_rejected() {
        let (mut c, _s) = established_pair();
        c.close();
        assert_eq!(c.write(b"more"), 0);
    }

    #[test]
    fn rst_aborts_peer() {
        let (mut c, mut s) = established_pair();
        c.abort();
        pump(&mut c, &mut s, SimTime::from_millis(1));
        assert!(s.is_aborted());
        assert_eq!(s.abort_reason(), Some(AbortReason::PeerReset));
        assert_eq!(c.abort_reason(), Some(AbortReason::LocalAbort));
    }

    #[test]
    fn lost_segment_triggers_fast_retransmit() {
        let (mut c, mut s) = established_pair();
        let data = vec![1u8; 20 * 1460];
        c.write(&data);
        let now = SimTime::from_millis(1);
        // Collect the first window of segments; drop the first data segment.
        let mut segs = Vec::new();
        while let Some(seg) = c.poll_transmit(now) {
            segs.push(seg);
        }
        assert!(segs.len() >= 4, "need several segments, got {}", segs.len());
        for seg in segs.drain(..).skip(1) {
            s.on_segment(seg, now);
        }
        // Server sends dup ACKs for the hole.
        let now = SimTime::from_millis(2);
        while let Some(seg) = s.poll_transmit(now) {
            c.on_segment(seg, now);
        }
        assert!(c.stats().fast_retransmits >= 1, "fast retransmit expected");
        // Continue normally; everything arrives.
        for ms in 3..300 {
            pump(&mut c, &mut s, SimTime::from_millis(ms));
        }
        assert_eq!(s.read(), data);
    }

    #[test]
    fn straddling_retransmission_advances_snd_max() {
        // Four 100-byte segments go out and the first is lost. The send
        // buffer grows before the dup ACKs arrive, so the fast
        // retransmission re-cut from snd_una runs past snd_max and puts
        // [400, 1460) on the wire. Re-sending those bytes afterwards is a
        // retransmission: it must not arm a Karn RTT probe.
        let (mut c, mut s) = established_pair();
        let now = SimTime::from_millis(1);
        let mut segs = Vec::new();
        for _ in 0..4 {
            c.write(&[7u8; 100]);
            segs.push(c.poll_transmit(now).expect("small segment"));
        }
        assert_eq!(c.snd_max(), 400);
        for seg in segs.into_iter().skip(1) {
            s.on_segment(seg, now);
        }
        c.write(&[8u8; 2000]);
        let now = SimTime::from_millis(2);
        while let Some(dup_ack) = s.poll_transmit(now) {
            c.on_segment(dup_ack, now);
        }
        assert_eq!(c.stats().fast_retransmits, 1);
        let rexmit = c.poll_transmit(now).expect("fast retransmission");
        assert_eq!(rexmit.payload.len(), 1460, "re-cut from snd_una");
        assert_eq!(c.snd_max(), 1460, "bytes on the wire advance snd_max");
        let resent = c.poll_transmit(now).expect("segment from snd_nxt");
        assert_eq!(resent.payload.len(), 1460);
        assert_eq!(c.stats().retransmissions, 2, "[400, 1860) re-sends bytes");
        assert_eq!(c.rtt_probe_end(), None, "no probe on retransmitted bytes");
        // The tail past the retransmissions is new data and may probe.
        let fresh = c.poll_transmit(now).expect("new data");
        assert_eq!(fresh.payload.len(), 2400 - 1860);
        assert_eq!(c.rtt_probe_end(), Some(2400));
        s.on_segment(rexmit, now);
        s.on_segment(resent, now);
        s.on_segment(fresh, now);
        assert_eq!(s.read(), [[7u8; 400].as_slice(), &[8u8; 2000]].concat());
    }

    #[test]
    fn timeout_retransmits_and_collapses_window() {
        let (mut c, mut s) = established_pair();
        c.write(&vec![2u8; 5 * 1460]);
        let now = SimTime::from_millis(1);
        // All segments vanish.
        while c.poll_transmit(now).is_some() {}
        let cwnd_before = c.cwnd();
        let deadline = c.poll_timeout().expect("rto armed");
        c.on_tick(deadline);
        assert_eq!(c.stats().timeouts, 1);
        assert!(c.cwnd() < cwnd_before);
        assert_eq!(c.cc_phase(), CcPhase::SlowStart);
        // Go-back-N: data is re-sent and the transfer completes.
        for ms in (deadline.as_millis() + 1)..(deadline.as_millis() + 2000) {
            pump(&mut c, &mut s, SimTime::from_millis(ms));
            c.on_tick(SimTime::from_millis(ms));
        }
        assert_eq!(s.read(), vec![2u8; 5 * 1460]);
        assert!(c.stats().retransmissions >= 1);
    }

    #[test]
    fn repeated_timeouts_break_connection() {
        let cfg = TcpConfig {
            max_consecutive_timeouts: 3,
            ..Default::default()
        };
        let mut c = TcpConnection::client(cfg);
        let mut s = TcpConnection::server(TcpConfig::default());
        pump(&mut c, &mut s, SimTime::ZERO);
        c.write(b"doomed");
        let mut now = SimTime::from_millis(1);
        // The network black-holes everything from now on.
        for _ in 0..10 {
            while c.poll_transmit(now).is_some() {}
            match c.poll_timeout() {
                Some(d) => {
                    now = d;
                    c.on_tick(now);
                }
                None => break,
            }
            if c.is_aborted() {
                break;
            }
        }
        assert!(c.is_aborted());
        assert_eq!(c.abort_reason(), Some(AbortReason::TooManyTimeouts));
    }

    #[test]
    fn rto_backs_off_exponentially() {
        let (mut c, mut s) = established_pair();
        // Prime the RTT estimator with a 10 ms round trip.
        c.write(b"x");
        let t0 = SimTime::from_millis(10);
        while let Some(seg) = c.poll_transmit(t0) {
            s.on_segment(seg, t0);
        }
        let t1 = SimTime::from_millis(20);
        while let Some(seg) = s.poll_transmit(t1) {
            c.on_segment(seg, t1);
        }
        c.write(&vec![3u8; 1460]);
        let mut now = SimTime::from_millis(30);
        while c.poll_transmit(now).is_some() {}
        let d1 = c.poll_timeout().unwrap() - now;
        c.on_tick(c.poll_timeout().unwrap());
        now += d1;
        while c.poll_transmit(now).is_some() {}
        let d2 = c.poll_timeout().unwrap() - now;
        assert!(
            d2 >= d1 * 2 - SimDuration::from_millis(1),
            "d1={d1} d2={d2}"
        );
    }

    #[test]
    fn receiver_sends_dup_acks_on_gap() {
        let (mut c, mut s) = established_pair();
        c.write(&vec![4u8; 6 * 1460]);
        let now = SimTime::from_millis(1);
        let mut segs = Vec::new();
        while let Some(seg) = c.poll_transmit(now) {
            segs.push(seg);
        }
        // Deliver all but the first.
        let n = segs.len();
        for seg in segs.into_iter().skip(1) {
            s.on_segment(seg, now);
        }
        assert_eq!(s.stats().dup_acks_sent as usize, n - 1);
    }

    #[test]
    fn peer_window_limits_sending() {
        let cfg = TcpConfig {
            receive_window: 2 * 1460, // tiny receiver
            ..Default::default()
        };
        let mut c = TcpConnection::client(TcpConfig::default());
        let mut s = TcpConnection::server(cfg);
        pump(&mut c, &mut s, SimTime::ZERO);
        c.write(&vec![5u8; 100 * 1460]);
        let now = SimTime::from_millis(1);
        let mut sent = 0usize;
        while let Some(seg) = c.poll_transmit(now) {
            sent += seg.payload.len();
        }
        assert!(sent <= 2 * 1460, "sent {sent} beyond peer window");
    }

    #[test]
    fn stats_count_segments() {
        let (mut c, mut s) = established_pair();
        c.write(b"hello");
        pump(&mut c, &mut s, SimTime::from_millis(1));
        assert!(c.stats().segments_sent >= 2); // SYN + data
        assert!(s.stats().segments_received >= 2);
        assert_eq!(s.stats().bytes_received, 5);
    }

    #[test]
    fn srtt_is_measured() {
        let (mut c, mut s) = established_pair();
        c.write(b"probe");
        let t0 = SimTime::from_millis(100);
        while let Some(seg) = c.poll_transmit(t0) {
            s.on_segment(seg, t0);
        }
        let t1 = SimTime::from_millis(150);
        while let Some(seg) = s.poll_transmit(t1) {
            c.on_segment(seg, t1);
        }
        assert_eq!(c.srtt(), Some(SimDuration::from_millis(50)));
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    fn syn_retransmits_until_budget_exhausted() {
        let cfg = TcpConfig {
            max_consecutive_timeouts: 2,
            ..Default::default()
        };
        let mut c = TcpConnection::client(cfg);
        let mut now = SimTime::ZERO;
        let mut syns = 0;
        loop {
            while let Some(seg) = c.poll_transmit(now) {
                assert!(seg.flags.syn);
                syns += 1;
            }
            match c.poll_timeout() {
                Some(d) => {
                    now = d;
                    c.on_tick(now);
                }
                None => break,
            }
            if c.is_aborted() {
                break;
            }
        }
        assert!(c.is_aborted());
        assert_eq!(c.abort_reason(), Some(AbortReason::TooManyTimeouts));
        assert_eq!(syns, 3); // initial + 2 retries
        assert_eq!(c.stats().syn_retransmissions, 2);
    }

    #[test]
    fn spurious_tick_is_harmless() {
        let mut c = TcpConnection::client(TcpConfig::default());
        // No deadline armed yet: ticking does nothing.
        c.on_tick(SimTime::from_secs(5));
        assert_eq!(c.stats().timeouts, 0);
        assert!(!c.is_aborted());
    }

    #[test]
    fn write_after_abort_rejected() {
        let mut c = TcpConnection::client(TcpConfig::default());
        c.abort();
        assert_eq!(c.write(b"too late"), 0);
        // The RST is emitted exactly once.
        let rst = c.poll_transmit(SimTime::ZERO).expect("rst");
        assert!(rst.flags.rst);
        assert!(c.poll_transmit(SimTime::ZERO).is_none());
    }

    #[test]
    fn segments_to_dead_connection_ignored() {
        let mut c = TcpConnection::client(TcpConfig::default());
        c.abort();
        let before = c.stats().segments_received;
        c.on_segment(
            TcpSegment {
                seq: Seq(1),
                ack: Seq(1),
                flags: TcpFlags::ACK,
                window: 100,
                payload: vec![1, 2, 3].into(),
            },
            SimTime::ZERO,
        );
        assert_eq!(c.stats().segments_received, before);
        assert!(c.read().is_empty());
    }

    #[test]
    fn idle_restart_fires_between_spaced_objects() {
        // Establish, prime RTT, transfer, go idle past the RTO, transfer
        // again: the second transfer starts from the initial window.
        let mut c = TcpConnection::client(TcpConfig::default());
        let mut s = TcpConnection::server(TcpConfig {
            iss: Seq(77),
            ..TcpConfig::default()
        });
        let mut now = SimTime::ZERO;
        let pump = |c: &mut TcpConnection, s: &mut TcpConnection, now: SimTime| loop {
            let mut moved = false;
            while let Some(seg) = c.poll_transmit(now) {
                s.on_segment(seg, now);
                moved = true;
            }
            while let Some(seg) = s.poll_transmit(now) {
                c.on_segment(seg, now);
                moved = true;
            }
            if !moved {
                break;
            }
        };
        pump(&mut c, &mut s, now);
        // Grow cwnd with a large transfer; the back-to-back harness acks
        // instantly, so the window grows within a handful of pumps.
        c.write(&vec![1u8; 200_000]);
        for ms in 0..50 {
            now = SimTime::from_millis(ms);
            pump(&mut c, &mut s, now);
            if c.send_drained() {
                break;
            }
        }
        assert_eq!(s.read().len(), 200_000);
        let grown = c.cwnd();
        assert!(grown > 10 * 1460, "cwnd grew to {grown}");
        // Idle far longer than the RTO, then send again: the next poll
        // restarts from the initial window.
        now += SimDuration::from_secs(30);
        c.write(b"after idle");
        let _ = c.poll_transmit(now);
        assert_eq!(c.cwnd(), 10 * 1460, "idle restart should reset cwnd");
    }
}

#[cfg(test)]
mod delayed_ack_tests {
    use super::*;

    fn pair_with_delack() -> (TcpConnection, TcpConnection) {
        let cfg = TcpConfig {
            delayed_ack: Some(SimDuration::from_millis(40)),
            ..Default::default()
        };
        let mut c = TcpConnection::client(TcpConfig::default());
        let mut s = TcpConnection::server(cfg);
        let now = SimTime::ZERO;
        for _ in 0..8 {
            let mut moved = false;
            while let Some(seg) = c.poll_transmit(now) {
                s.on_segment(seg, now);
                moved = true;
            }
            while let Some(seg) = s.poll_transmit(now) {
                c.on_segment(seg, now);
                moved = true;
            }
            if !moved {
                break;
            }
        }
        (c, s)
    }

    #[test]
    fn single_segment_ack_is_deferred_until_timer() {
        let (mut c, mut s) = pair_with_delack();
        c.write(b"lonely segment");
        let t = SimTime::from_millis(10);
        while let Some(seg) = c.poll_transmit(t) {
            s.on_segment(seg, t);
        }
        // No immediate ACK.
        assert!(s.poll_transmit(t).is_none());
        let deadline = s.poll_timeout().expect("delayed-ack timer armed");
        assert_eq!(deadline, t + SimDuration::from_millis(40));
        s.on_tick(deadline);
        let ack = s.poll_transmit(deadline).expect("flushed ack");
        assert!(ack.is_pure_ack());
    }

    #[test]
    fn second_segment_flushes_immediately() {
        let (mut c, mut s) = pair_with_delack();
        c.write(&vec![1u8; 1460]);
        let t = SimTime::from_millis(10);
        let seg1 = c.poll_transmit(t).unwrap();
        s.on_segment(seg1, t);
        assert!(s.poll_transmit(t).is_none());
        c.write(&vec![2u8; 1460]);
        let seg2 = c.poll_transmit(t).unwrap();
        s.on_segment(seg2, t);
        let ack = s.poll_transmit(t).expect("ack for two segments");
        assert!(ack.is_pure_ack());
        // One cumulative ACK covers both segments.
        assert!(s.poll_transmit(t).is_none());
    }

    #[test]
    fn out_of_order_data_acks_immediately_despite_delack() {
        let (mut c, mut s) = pair_with_delack();
        c.write(&vec![3u8; 4 * 1460]);
        let t = SimTime::from_millis(10);
        let mut segs = Vec::new();
        while let Some(seg) = c.poll_transmit(t) {
            segs.push(seg);
        }
        // Drop the first segment; deliver the rest: every delivery is a
        // dup ACK, sent immediately.
        let delivered = segs.len() - 1;
        for seg in segs.into_iter().skip(1) {
            s.on_segment(seg, t);
        }
        let mut acks = 0;
        while let Some(seg) = s.poll_transmit(t) {
            assert!(seg.is_pure_ack());
            acks += 1;
        }
        assert_eq!(acks, delivered);
    }
}

#[cfg(test)]
mod rto_backoff_tests {
    use super::tests::{established_pair, pump};
    use super::*;

    #[test]
    fn rto_backoff_persists_until_new_data_acked() {
        // RFC 6298 (5.7): after a timeout the backed-off RTO must survive
        // dup ACKs and ACKs of the data that was outstanding at the
        // timeout; only an ACK covering data sent afterwards resets it.
        let (mut c, mut s) = established_pair();
        let t1 = SimTime::from_millis(10);
        c.write(&vec![5u8; 5 * 1460]);
        let mut segs = Vec::new();
        while let Some(seg) = c.poll_transmit(t1) {
            segs.push(seg);
        }
        assert_eq!(segs.len(), 5);
        // Lose the first segment; the rest arrive and draw dup ACKs.
        for seg in segs.into_iter().skip(1) {
            s.on_segment(seg, t1);
        }
        let mut dup_acks = Vec::new();
        while let Some(seg) = s.poll_transmit(t1) {
            dup_acks.push(seg);
        }
        assert!(dup_acks.len() >= 2);

        let t2 = SimTime::from_millis(2_000); // past the armed RTO
        c.on_tick(t2);
        assert_eq!(c.rto_backoff_exp(), 1, "timeout should back off the RTO");
        let rexmit = c.poll_transmit(t2).expect("RTO retransmission");
        assert!(!rexmit.payload.is_empty());

        // Two dup ACKs (below the fast-retransmit threshold): no progress,
        // backoff stays.
        for seg in dup_acks.into_iter().take(2) {
            c.on_segment(seg, t2);
        }
        assert_eq!(c.rto_backoff_exp(), 1, "dup ACKs must not clear backoff");

        // The retransmission fills the hole; the cumulative ACK covers all
        // five segments — still only data outstanding at the timeout.
        s.on_segment(rexmit, t2);
        while let Some(seg) = s.poll_transmit(t2) {
            c.on_segment(seg, t2);
        }
        assert_eq!(c.snd_una(), 5 * 1460);
        assert_eq!(
            c.rto_backoff_exp(),
            1,
            "ACK of retransmitted-era data must not clear backoff"
        );

        // New data sent after the timeout, once acked, resets the timer.
        c.write(&[6u8; 100]);
        let t3 = SimTime::from_millis(2_100);
        pump(&mut c, &mut s, t3);
        assert_eq!(c.snd_una(), 5 * 1460 + 100);
        assert_eq!(c.rto_backoff_exp(), 0, "ACK of new data clears backoff");
    }
}
