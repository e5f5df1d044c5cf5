//! Reno/NewReno congestion control.
//!
//! The paper's bandwidth-throttling phase (§IV-C) works because shrinking
//! the bandwidth-delay product makes TCP "respond to this change by
//! decreasing the size of the TCP sender window". That response is this
//! module: queueing delay inflates RTT and drops trigger
//! multiplicative decrease, so the sender's window — and with it the burst
//! of outstanding fast-retransmits — contracts.

/// Congestion-control phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcPhase {
    /// Exponential window growth until `ssthresh`.
    SlowStart,
    /// Additive increase.
    CongestionAvoidance,
    /// NewReno fast recovery (entered on 3 dup-ACKs).
    FastRecovery,
}

/// NewReno congestion controller.
///
/// All quantities are in bytes. The controller is sans-IO: the connection
/// feeds it ACK/dup-ACK/timeout events and reads back `cwnd`.
#[derive(Debug, Clone)]
pub struct NewReno {
    mss: usize,
    cwnd: usize,
    ssthresh: usize,
    phase: CcPhase,
    /// Bytes acked since the last cwnd bump (congestion avoidance).
    acked_accum: usize,
    /// `recover`: highest sequence outstanding when loss was detected,
    /// expressed as a stream offset; ACKs below it are partial.
    recover_offset: u64,
}

impl NewReno {
    /// Creates a controller with the given MSS and initial window
    /// (RFC 6928 recommends 10 MSS).
    pub fn new(mss: usize, initial_window_segments: usize) -> Self {
        NewReno {
            mss,
            cwnd: mss * initial_window_segments,
            ssthresh: usize::MAX / 2,
            phase: CcPhase::SlowStart,
            acked_accum: 0,
            recover_offset: 0,
        }
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> usize {
        self.cwnd
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> usize {
        self.ssthresh
    }

    /// Current phase.
    pub fn phase(&self) -> CcPhase {
        self.phase
    }

    /// A new cumulative ACK advanced the window by `newly_acked` bytes.
    /// `ack_offset` is the new send-unacknowledged stream offset;
    /// `flight` is bytes still outstanding after this ACK.
    pub fn on_ack(&mut self, newly_acked: usize, ack_offset: u64, _flight: usize) {
        match self.phase {
            CcPhase::SlowStart => {
                // RFC 5681 (3.1) / RFC 3465 ABC with L=1: grow by at most
                // one MSS per ACK, so a stretch ACK (one ACK covering many
                // segments, common behind delayed-ACK receivers and ACK
                // thinning middleboxes) cannot inflate cwnd by the whole
                // acked amount in one step.
                self.cwnd = self.cwnd.saturating_add(newly_acked.min(self.mss));
                if self.cwnd >= self.ssthresh {
                    self.cwnd = self.ssthresh;
                    self.phase = CcPhase::CongestionAvoidance;
                }
            }
            CcPhase::CongestionAvoidance => {
                // cwnd += MSS per cwnd bytes acked.
                self.acked_accum += newly_acked;
                while self.acked_accum >= self.cwnd {
                    self.acked_accum -= self.cwnd;
                    self.cwnd += self.mss;
                }
            }
            CcPhase::FastRecovery => {
                if ack_offset >= self.recover_offset {
                    // Full ACK: leave recovery, deflate to ssthresh.
                    self.cwnd = self.ssthresh;
                    self.phase = CcPhase::CongestionAvoidance;
                    self.acked_accum = 0;
                } else {
                    // Partial ACK: stay in recovery (the connection
                    // retransmits the next hole); deflate by the amount
                    // acked, then inflate by one MSS.
                    self.cwnd = self
                        .cwnd
                        .saturating_sub(newly_acked)
                        .saturating_add(self.mss)
                        .max(self.mss);
                }
            }
        }
    }

    /// Third duplicate ACK: enter fast recovery.
    ///
    /// `flight` is the bytes outstanding; `highest_offset` is the stream
    /// offset one past the highest byte sent (the NewReno `recover` point).
    /// Returns true if recovery was (re-)entered — the caller should fast-
    /// retransmit the first unacknowledged segment.
    pub fn on_dup_ack_threshold(&mut self, flight: usize, highest_offset: u64) -> bool {
        if self.phase == CcPhase::FastRecovery {
            return false;
        }
        self.ssthresh = (flight / 2).max(2 * self.mss);
        self.cwnd = self.ssthresh + 3 * self.mss;
        self.phase = CcPhase::FastRecovery;
        self.recover_offset = highest_offset;
        true
    }

    /// Additional duplicate ACK while in fast recovery: inflate.
    pub fn on_extra_dup_ack(&mut self) {
        if self.phase == CcPhase::FastRecovery {
            self.cwnd = self.cwnd.saturating_add(self.mss);
        }
    }

    /// Connection went idle for at least one RTO (RFC 7661): restart from
    /// the initial window rather than blasting a stale cwnd into the
    /// network. The slow-start threshold is *raised* toward the proven
    /// window so the restart regrows exponentially.
    pub fn on_idle_restart(&mut self, initial_window_segments: usize) {
        let initial = self.mss * initial_window_segments;
        if self.cwnd > initial {
            self.ssthresh = self.ssthresh.max(self.cwnd * 3 / 4);
            self.cwnd = initial;
            self.phase = CcPhase::SlowStart;
            self.acked_accum = 0;
        }
    }

    /// Retransmission timeout: collapse to one segment and restart
    /// slow start.
    ///
    /// `first_of_burst` distinguishes a fresh loss event from the
    /// exponential-backoff repeats of the same stall: only the first
    /// timeout halves `ssthresh` (during backoff the flight is a single
    /// segment, and halving *that* would pin the threshold at its floor —
    /// real stacks remember the pre-loss ssthresh).
    pub fn on_timeout(&mut self, flight: usize, first_of_burst: bool) {
        if first_of_burst {
            self.ssthresh = (flight / 2).max(2 * self.mss);
        }
        self.cwnd = self.mss;
        self.phase = CcPhase::SlowStart;
        self.acked_accum = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: usize = 1460;

    fn cc() -> NewReno {
        NewReno::new(MSS, 10)
    }

    #[test]
    fn initial_window_is_ten_segments() {
        assert_eq!(cc().cwnd(), 10 * MSS);
        assert_eq!(cc().phase(), CcPhase::SlowStart);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut c = cc();
        let start = c.cwnd();
        // ACK a full window's worth of data.
        let mut acked = 0;
        while acked < start {
            c.on_ack(MSS, (acked + MSS) as u64, start);
            acked += MSS;
        }
        assert_eq!(c.cwnd(), 2 * start);
    }

    #[test]
    fn slow_start_stretch_ack_growth_is_capped() {
        // RFC 3465 (L=1): a stretch ACK covering four segments still grows
        // cwnd by at most one MSS.
        let mut c = cc();
        let start = c.cwnd();
        c.on_ack(4 * MSS, (4 * MSS) as u64, start);
        assert_eq!(c.cwnd(), start + MSS);
    }

    #[test]
    fn slow_start_exits_at_ssthresh() {
        let mut c = cc();
        c.on_dup_ack_threshold(20 * MSS, 1000);
        // ssthresh = 10 MSS; timeout then grow back.
        c.on_timeout(20 * MSS, true);
        assert_eq!(c.cwnd(), MSS);
        assert_eq!(c.phase(), CcPhase::SlowStart);
        for i in 0..40 {
            c.on_ack(MSS, (i * MSS) as u64, 10 * MSS);
            if c.phase() == CcPhase::CongestionAvoidance {
                break;
            }
        }
        assert_eq!(c.phase(), CcPhase::CongestionAvoidance);
        assert_eq!(c.cwnd(), c.ssthresh());
    }

    #[test]
    fn congestion_avoidance_linear_growth() {
        let mut c = cc();
        c.on_dup_ack_threshold(20 * MSS, 1000);
        c.on_ack(MSS, 2000, 0); // full ACK exits recovery
        assert_eq!(c.phase(), CcPhase::CongestionAvoidance);
        let w = c.cwnd();
        // ACK one full window: cwnd should grow by about one MSS.
        let mut acked = 0;
        while acked < w {
            c.on_ack(MSS, 0, w);
            acked += MSS;
        }
        assert!(
            c.cwnd() >= w + MSS && c.cwnd() < w + 3 * MSS,
            "cwnd={}",
            c.cwnd()
        );
    }

    #[test]
    fn fast_recovery_halves_window() {
        let mut c = cc();
        let flight = 10 * MSS;
        assert!(c.on_dup_ack_threshold(flight, 99));
        assert_eq!(c.ssthresh(), 5 * MSS);
        assert_eq!(c.cwnd(), 5 * MSS + 3 * MSS);
        assert_eq!(c.phase(), CcPhase::FastRecovery);
    }

    #[test]
    fn dup_ack_threshold_idempotent_in_recovery() {
        let mut c = cc();
        assert!(c.on_dup_ack_threshold(10 * MSS, 99));
        assert!(!c.on_dup_ack_threshold(10 * MSS, 99));
    }

    #[test]
    fn extra_dup_acks_inflate() {
        let mut c = cc();
        c.on_dup_ack_threshold(10 * MSS, 99);
        let w = c.cwnd();
        c.on_extra_dup_ack();
        assert_eq!(c.cwnd(), w + MSS);
    }

    #[test]
    fn extra_dup_acks_outside_recovery_ignored() {
        let mut c = cc();
        let w = c.cwnd();
        c.on_extra_dup_ack();
        assert_eq!(c.cwnd(), w);
    }

    #[test]
    fn partial_ack_keeps_recovery() {
        let mut c = cc();
        c.on_dup_ack_threshold(10 * MSS, 10_000);
        c.on_ack(MSS, 5_000, 5 * MSS); // below recover point
        assert_eq!(c.phase(), CcPhase::FastRecovery);
        c.on_ack(MSS, 10_000, 0); // reaches recover point
        assert_eq!(c.phase(), CcPhase::CongestionAvoidance);
        assert_eq!(c.cwnd(), c.ssthresh());
    }

    #[test]
    fn timeout_collapses_window() {
        let mut c = cc();
        c.on_timeout(10 * MSS, true);
        assert_eq!(c.cwnd(), MSS);
        assert_eq!(c.ssthresh(), 5 * MSS);
        assert_eq!(c.phase(), CcPhase::SlowStart);
    }

    #[test]
    fn idle_restart_collapses_large_window() {
        let mut c = cc();
        // Grow well past the initial window.
        for i in 0..100 {
            c.on_ack(MSS, (i * MSS) as u64, 10 * MSS);
        }
        let grown = c.cwnd();
        assert!(grown > 10 * MSS);
        c.on_idle_restart(10);
        assert_eq!(c.cwnd(), 10 * MSS);
        assert_eq!(c.phase(), CcPhase::SlowStart);
        // The threshold remembers the proven window: regrowth is fast.
        assert!(c.ssthresh() >= grown * 3 / 4);
        // Idle restart never grows the window.
        c.on_timeout(10 * MSS, true);
        let small = c.cwnd();
        c.on_idle_restart(10);
        assert_eq!(c.cwnd(), small);
    }

    #[test]
    fn backoff_timeouts_do_not_recollapse_ssthresh() {
        let mut c = cc();
        c.on_timeout(100 * MSS, true);
        let after_first = c.ssthresh();
        assert_eq!(after_first, 50 * MSS);
        // Backed-off repeats with a 1-segment flight keep the threshold.
        c.on_timeout(MSS, false);
        c.on_timeout(MSS, false);
        assert_eq!(c.ssthresh(), after_first);
        // A fresh loss event does halve again.
        c.on_timeout(MSS, true);
        assert_eq!(c.ssthresh(), 2 * MSS);
    }

    #[test]
    fn ssthresh_floor_is_two_mss() {
        let mut c = cc();
        c.on_timeout(MSS, true);
        assert_eq!(c.ssthresh(), 2 * MSS);
    }
}
