//! Endpoint-side TCP invariants.
//!
//! These checks need the sender's own state (`snd_una`, cwnd, the Karn
//! probe), so they run at the host where [`TcpConnection::poll_transmit`]
//! is called rather than at the mid-path tap: an ACK observed at the
//! gateway may still be in flight toward the sender, which makes
//! "retransmit-only-unacked" undecidable from the wire alone.

use crate::{Layer, ViolationSink};
use h2priv_netsim::SimTime;
use h2priv_tcp::{Seq, TcpConnection, TcpSegment};

/// Watches one endpoint's transmitted segments against its own connection
/// state.
pub struct TcpEndpointChecker {
    label: &'static str,
    sink: ViolationSink,
    /// Our initial sequence number, learned from our SYN.
    iss: Option<Seq>,
    /// Highest stream offset (one past) this checker has seen transmitted.
    snd_max_seen: u64,
    /// Last observed `snd_una`, for monotonicity.
    last_una: u64,
}

impl TcpEndpointChecker {
    /// Creates a checker for the endpoint named `label` ("client"/"server").
    pub fn new(label: &'static str, sink: ViolationSink) -> Self {
        TcpEndpointChecker {
            label,
            sink,
            iss: None,
            snd_max_seen: 0,
            last_una: 0,
        }
    }

    fn report(&self, rule: &'static str, time: SimTime, detail: String) {
        self.sink
            .report(Layer::Tcp, rule, time, format!("{}: {detail}", self.label));
    }

    /// Observes one segment the endpoint just emitted, together with the
    /// connection that produced it. Call immediately after `poll_transmit`.
    pub fn on_transmit(&mut self, conn: &TcpConnection, seg: &TcpSegment, now: SimTime) {
        if seg.flags.syn {
            self.iss = Some(seg.seq);
            return;
        }
        let mss = conn.mss();
        // RFC 5681: the loss window is one segment — cwnd never collapses
        // below one MSS — and ssthresh is floored at two MSS (eq. 4).
        if conn.cwnd() < mss {
            self.report(
                "cwnd-floor",
                now,
                format!("cwnd {} < mss {mss}", conn.cwnd()),
            );
        }
        if conn.ssthresh() < 2 * mss {
            self.report(
                "ssthresh-floor",
                now,
                format!("ssthresh {} < 2*mss {}", conn.ssthresh(), 2 * mss),
            );
        }
        // Cumulative-ACK point only ever advances.
        let una = conn.snd_una();
        if una < self.last_una {
            self.report(
                "snd-una-monotonic",
                now,
                format!("snd_una regressed {} -> {una}", self.last_una),
            );
        }
        self.last_una = una;

        if seg.payload.is_empty() {
            return; // pure ACK / FIN: no data-range invariants
        }
        let Some(iss) = self.iss else {
            return; // data before SYN would be caught by the wire tap
        };
        // Relative stream offsets (transfers stay far below 4 GiB, so the
        // 32-bit wire distance extends to u64 directly).
        let start = (seg.seq - (iss + 1)) as u64;
        let end = start + seg.payload.len() as u64;
        let is_rexmit = start < self.snd_max_seen;
        if is_rexmit {
            // Retransmissions must cover at least one unacknowledged byte.
            if end <= una {
                self.report(
                    "rexmit-only-unacked",
                    now,
                    format!("retransmitted [{start},{end}) entirely below snd_una {una}"),
                );
            }
            // Karn: an RTT probe satisfiable by this retransmission must
            // have been invalidated (no samples from retransmitted data).
            if let Some(probe_end) = conn.rtt_probe_end() {
                if probe_end > start {
                    self.report(
                        "karn-probe",
                        now,
                        format!("probe end {probe_end} survives retransmission of [{start},{end})"),
                    );
                }
            }
        } else {
            // New data respects the congestion window (the sender may
            // overshoot by at most one segment, by design: the window test
            // happens before a full-MSS segment is cut).
            let limit = una + (conn.cwnd() + mss) as u64;
            if end > limit {
                self.report(
                    "cwnd-respected",
                    now,
                    format!(
                        "new data to {end} exceeds snd_una {una} + cwnd {} + mss {mss}",
                        conn.cwnd()
                    ),
                );
            }
        }
        self.snd_max_seen = self.snd_max_seen.max(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_netsim::SimDuration;
    use h2priv_tcp::{TcpConfig, TcpConnection};

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn clean_handshake_and_transfer_is_silent() {
        let sink = ViolationSink::new();
        let mut client = TcpConnection::client(TcpConfig::default());
        let mut server = TcpConnection::server(TcpConfig::default());
        let mut check_c = TcpEndpointChecker::new("client", sink.clone());
        let mut check_s = TcpEndpointChecker::new("server", sink.clone());
        client.write(&[7u8; 4000]);
        for step in 0..40u64 {
            let now = t(step);
            while let Some(seg) = client.poll_transmit(now) {
                check_c.on_transmit(&client, &seg, now);
                server.on_segment(seg, now);
            }
            while let Some(seg) = server.poll_transmit(now) {
                check_s.on_transmit(&server, &seg, now);
                client.on_segment(seg, now);
            }
        }
        assert_eq!(server.read().len(), 4000, "transfer did not complete");
        assert!(sink.is_empty(), "violations: {:?}", sink.take().0);
    }

    #[test]
    fn loss_and_retransmission_stay_conformant() {
        let sink = ViolationSink::new();
        let mut client = TcpConnection::client(TcpConfig::default());
        let mut server = TcpConnection::server(TcpConfig::default());
        let mut check_c = TcpEndpointChecker::new("client", sink.clone());
        client.write(&[3u8; 20_000]);
        let mut dropped = false;
        for step in 0..4000u64 {
            let now = t(step);
            while let Some(seg) = client.poll_transmit(now) {
                check_c.on_transmit(&client, &seg, now);
                // Drop one mid-transfer data segment to force an RTO.
                if !dropped && !seg.payload.is_empty() && client.snd_max() > 5_000 {
                    dropped = true;
                    continue;
                }
                server.on_segment(seg, now);
            }
            while let Some(seg) = server.poll_transmit(now) {
                client.on_segment(seg, now);
            }
            client.on_tick(now);
        }
        assert!(dropped);
        assert!(client.stats().retransmissions > 0, "loss never recovered");
        assert!(sink.is_empty(), "violations: {:?}", sink.take().0);
    }
}
