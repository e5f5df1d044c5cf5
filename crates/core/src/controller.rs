//! The network controller — the paper's `tc`/bash component (§V: "the
//! network controller, which was implemented using bash scripts").
//!
//! Executes the three shaping primitives of §IV on behalf of the adversary:
//!
//! * **request spacing** (§IV-B): hold client→server GET-carrying packets
//!   so consecutive GETs reach the server at least `spacing` apart
//!   ("the first request can be delayed by 0 ms, second by *d* ms, the
//!   third by 2*d* ms, and so on, to achieve an inter-arrival spacing of
//!   *d* ms");
//! * **bandwidth throttling** (§IV-C): cap the gateway's egress rate in
//!   both directions;
//! * **targeted drops** (§IV-D): discard a fraction of server→client
//!   packets that carry application data, for a bounded window.
//!
//! Only GET-carrying packets (and their own TCP retransmissions, which
//! must not overtake the held original) are delayed; acknowledgments and
//! WINDOW_UPDATE carriers pass untouched, as netem-style per-packet delay
//! of request traffic would leave them.

use h2priv_netsim::{BitsPerSec, SimDuration, SimRng, SimTime};
use h2priv_tcp::Seq;

/// An active drop window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropWindow {
    /// Drops stop at this instant.
    pub until: SimTime,
    /// Probability of dropping an eligible packet, in per-mille
    /// (800 = 80 %).
    pub rate_per_mille: u16,
}

/// Counters kept by the controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// GET-carrying packets held for spacing.
    pub gets_spaced: u64,
    /// Total hold time applied, nanoseconds.
    pub hold_nanos: u64,
    /// Packets dropped in drop windows.
    pub dropped: u64,
    /// GET packets gated (dropped pending server→client quiescence).
    pub gated: u64,
}

/// What to do with a client→server data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum C2sDecision {
    /// Pass immediately.
    Forward,
    /// Delay by the given amount.
    Hold(SimDuration),
    /// Drop; the client's TCP retransmission will re-offer it later.
    Gate,
}

/// The shaping engine.
#[derive(Debug, Default)]
pub struct NetworkController {
    /// Per-GET jitter increment *d* (None = off): the *k*-th GET of the
    /// current schedule is held an extra `k·d` beyond its arrival
    /// ("the first request can be delayed by 0 ms, second by d ms, the
    /// third by 2d ms, and so on", §IV-B).
    jitter: Option<SimDuration>,
    /// Index of the next GET within the current jitter schedule.
    jitter_k: u64,
    /// Earliest release instant of the current schedule (the adversary's
    /// recovery allowance after the forced reset).
    jitter_anchor: SimTime,
    /// Requested symmetric bandwidth cap (None = wire speed).
    bandwidth: Option<BitsPerSec>,
    /// Whether the bandwidth setting has been pushed to the gateway.
    bandwidth_dirty: bool,
    /// Active drop window on the server→client direction.
    drop: Option<DropWindow>,
    /// Sequence ranges of held GET packets and their release times, so a
    /// TCP retransmission cannot overtake its held original.
    held_ranges: Vec<(Seq, Seq, SimTime)>,
    /// While true, GET packets are *gated*: dropped until the
    /// server→client direction is quiet, deferring them via the client's
    /// own TCP retransmission. Cleared after the first successful release.
    gating: bool,
    /// When the gate released (the serialized window's true start).
    gate_released_at: Option<SimTime>,
    /// Sequence ranges (and their GET counts) currently gated.
    gated: Vec<(Seq, Seq, usize)>,
    stats: ControllerStats,
}

impl NetworkController {
    /// Creates an idle controller (everything off).
    pub fn new() -> Self {
        NetworkController::default()
    }

    /// Counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Sets (or clears) the per-GET jitter increment and restarts the
    /// schedule (the next GET is request 0 of the new schedule).
    pub fn set_jitter(&mut self, jitter: Option<SimDuration>) {
        self.set_jitter_anchored(jitter, SimTime::ZERO);
    }

    /// As [`set_jitter`](Self::set_jitter), additionally floor-releasing
    /// every GET of the new schedule at `anchor`: §IV-D's recovery
    /// allowance, giving the post-reset TCP loss recovery time to drain
    /// before the first serialized object is requested.
    pub fn set_jitter_anchored(&mut self, jitter: Option<SimDuration>, anchor: SimTime) {
        self.jitter = jitter;
        self.jitter_k = 0;
        self.jitter_anchor = anchor;
    }

    /// Starts gating: GET packets are dropped (deferred to their TCP
    /// retransmissions) until the server→client direction is quiet, at
    /// which point the first release re-anchors the jitter schedule.
    /// §IV-D: the re-requested object must start on a drained channel.
    pub fn start_gating(&mut self) {
        self.gating = true;
    }

    /// True while gating is active.
    pub fn is_gating(&self) -> bool {
        self.gating
    }

    /// When the gate released, if it has.
    pub fn gate_released_at(&self) -> Option<SimTime> {
        self.gate_released_at
    }

    /// Sets (or clears) the symmetric bandwidth cap. Takes effect on the
    /// next transiting packet.
    pub fn set_bandwidth(&mut self, rate: Option<BitsPerSec>) {
        self.bandwidth = rate;
        self.bandwidth_dirty = true;
    }

    /// Starts dropping `rate_per_mille`/1000 of server→client data packets
    /// until `until`.
    pub fn start_drops(&mut self, until: SimTime, rate_per_mille: u16) {
        self.drop = Some(DropWindow {
            until,
            rate_per_mille: rate_per_mille.min(1000),
        });
    }

    /// Cancels any active drop window.
    pub fn stop_drops(&mut self) {
        self.drop = None;
    }

    /// True while a drop window is active at `now`.
    pub fn dropping_at(&self, now: SimTime) -> bool {
        self.drop.is_some_and(|d| now < d.until)
    }

    /// The pending bandwidth cap, if it changed since last applied.
    /// The adversary pushes it into the gateway's shaping state.
    pub fn take_bandwidth_change(&mut self) -> Option<Option<BitsPerSec>> {
        if self.bandwidth_dirty {
            self.bandwidth_dirty = false;
            Some(self.bandwidth)
        } else {
            None
        }
    }

    /// Decides the fate of a server→client packet carrying application
    /// data. Returns `true` to drop it.
    pub fn should_drop_s2c(&mut self, now: SimTime, rng: &mut SimRng) -> bool {
        let Some(window) = self.drop else {
            return false;
        };
        if now >= window.until {
            self.drop = None;
            return false;
        }
        if rng.chance(window.rate_per_mille as f64 / 1000.0) {
            self.stats.dropped += 1;
            true
        } else {
            false
        }
    }

    /// Decides the fate of a client→server data-carrying packet covering
    /// the sequence range `[seq_start, seq_end)`. `new_gets` is the number
    /// of newly seen GETs the packet carries (0 for retransmissions and
    /// control carriers); `s2c_quiet` reports whether the server→client
    /// direction has been free of application data recently (the gating
    /// condition).
    ///
    /// Non-GET packets pass untouched unless they overlap the byte range
    /// of a still-held (or gated) GET — a TCP retransmission — in which
    /// case they share the original's fate.
    pub fn decide_c2s(
        &mut self,
        now: SimTime,
        new_gets: usize,
        seq_start: Seq,
        seq_end: Seq,
        s2c_quiet: bool,
    ) -> C2sDecision {
        self.held_ranges.retain(|&(_, _, release)| release > now);
        let overlaps = |hs: Seq, he: Seq| seq_start.lt(he) && hs.lt(seq_end);
        // Retransmission of a gated GET re-offers its request count.
        let gated_idx = self.gated.iter().position(|&(gs, ge, _)| overlaps(gs, ge));
        let gets = if new_gets > 0 {
            new_gets
        } else if let Some(i) = gated_idx {
            self.gated[i].2
        } else {
            // Retransmission of a held GET?
            let mut release = now;
            for &(hs, he, hrel) in &self.held_ranges {
                if overlaps(hs, he) {
                    release = release.max(hrel);
                }
            }
            let hold = release - now;
            self.stats.hold_nanos += hold.as_nanos();
            return if hold.is_zero() {
                C2sDecision::Forward
            } else {
                C2sDecision::Hold(hold)
            };
        };
        if self.gating {
            if !s2c_quiet {
                if let Some(i) = gated_idx {
                    self.gated[i].0 = seq_start;
                    self.gated[i].1 = seq_end;
                } else {
                    self.gated.push((seq_start, seq_end, gets));
                }
                self.stats.gated += 1;
                return C2sDecision::Gate;
            }
            // Quiet: release, re-anchor the schedule here, stop gating.
            self.gating = false;
            self.gated.clear();
            self.jitter_anchor = now;
            self.gate_released_at = Some(now);
        }
        let mut release = now;
        if let Some(d) = self.jitter {
            release = release.max(self.jitter_anchor.max(now) + d * self.jitter_k);
            self.jitter_k += gets as u64;
            if release > now {
                self.stats.gets_spaced += 1;
                self.held_ranges.push((seq_start, seq_end, release));
            }
        }
        let hold = release - now;
        self.stats.hold_nanos += hold.as_nanos();
        if hold.is_zero() {
            C2sDecision::Forward
        } else {
            C2sDecision::Hold(hold)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn fwd(c: &mut NetworkController, now: SimTime, gets: usize, a: u32, b: u32) -> C2sDecision {
        c.decide_c2s(now, gets, Seq(a), Seq(b), true)
    }

    fn hold_ms(d: C2sDecision) -> u64 {
        match d {
            C2sDecision::Forward => 0,
            C2sDecision::Hold(h) => h.as_millis(),
            C2sDecision::Gate => panic!("unexpected gate"),
        }
    }

    #[test]
    fn no_jitter_means_no_hold() {
        let mut c = NetworkController::new();
        assert_eq!(fwd(&mut c, ms(5), 1, 0, 70), C2sDecision::Forward);
    }

    #[test]
    fn jitter_is_cumulative_per_get() {
        let mut c = NetworkController::new();
        c.set_jitter(Some(SimDuration::from_millis(50)));
        // §IV-B: first delayed 0, second by d, third by 2d.
        assert_eq!(hold_ms(fwd(&mut c, ms(0), 1, 0, 70)), 0);
        assert_eq!(hold_ms(fwd(&mut c, ms(1), 1, 70, 140)), 50);
        assert_eq!(hold_ms(fwd(&mut c, ms(2), 1, 140, 210)), 100);
        assert_eq!(c.stats().gets_spaced, 2);
    }

    #[test]
    fn bunched_gets_achieve_spacing_d() {
        // Requests arriving together leave with ~d inter-release gaps.
        let mut c = NetworkController::new();
        c.set_jitter(Some(SimDuration::from_millis(80)));
        let releases: Vec<u64> = (0..4)
            .map(|i| hold_ms(fwd(&mut c, ms(0), 1, i * 70, (i + 1) * 70)))
            .collect();
        assert_eq!(releases, vec![0, 80, 160, 240]);
    }

    #[test]
    fn schedule_restarts_on_set_jitter() {
        let mut c = NetworkController::new();
        c.set_jitter(Some(SimDuration::from_millis(50)));
        fwd(&mut c, ms(0), 1, 0, 70);
        fwd(&mut c, ms(1), 1, 70, 140);
        c.set_jitter(Some(SimDuration::from_millis(80)));
        // New schedule: the next GET is request 0 again → no hold.
        assert_eq!(fwd(&mut c, ms(200), 1, 140, 210), C2sDecision::Forward);
    }

    #[test]
    fn anchored_schedule_floors_releases() {
        let mut c = NetworkController::new();
        c.set_jitter_anchored(Some(SimDuration::from_millis(80)), ms(500));
        // First GET at 100 ms is floored to the 500 ms anchor.
        assert_eq!(hold_ms(fwd(&mut c, ms(100), 1, 0, 70)), 400);
        // Second: anchor + 80.
        assert_eq!(hold_ms(fwd(&mut c, ms(101), 1, 70, 140)), 479);
    }

    #[test]
    fn coalesced_gets_advance_the_schedule() {
        let mut c = NetworkController::new();
        c.set_jitter(Some(SimDuration::from_millis(50)));
        // One packet carrying 3 GETs: held as request 0, advances k by 3.
        assert_eq!(hold_ms(fwd(&mut c, ms(0), 3, 0, 210)), 0);
        assert_eq!(hold_ms(fwd(&mut c, ms(0), 1, 210, 280)), 150);
    }

    #[test]
    fn non_gets_pass_untouched() {
        let mut c = NetworkController::new();
        c.set_jitter(Some(SimDuration::from_millis(50)));
        fwd(&mut c, ms(0), 1, 0, 70);
        fwd(&mut c, ms(1), 1, 70, 140); // released at 51
                                        // A WINDOW_UPDATE packet (different bytes) is not delayed.
        assert_eq!(fwd(&mut c, ms(2), 0, 140, 160), C2sDecision::Forward);
    }

    #[test]
    fn retransmission_cannot_overtake_held_original() {
        let mut c = NetworkController::new();
        c.set_jitter(Some(SimDuration::from_millis(50)));
        fwd(&mut c, ms(0), 1, 0, 70);
        fwd(&mut c, ms(1), 1, 70, 140); // released at 51
                                        // TCP retransmits the held GET's bytes: held to the same release.
        assert_eq!(hold_ms(fwd(&mut c, ms(10), 0, 70, 140)), 41);
        // After the release passes, the range is pruned.
        assert_eq!(fwd(&mut c, ms(60), 0, 70, 140), C2sDecision::Forward);
    }

    #[test]
    fn gating_defers_gets_until_quiet() {
        let mut c = NetworkController::new();
        c.set_jitter(Some(SimDuration::from_millis(80)));
        c.start_gating();
        assert!(c.is_gating());
        // Busy server→client direction: the GET is gated (dropped).
        assert_eq!(
            c.decide_c2s(ms(0), 1, Seq(0), Seq(70), false),
            C2sDecision::Gate
        );
        // Its TCP retransmission while still busy: gated again.
        assert_eq!(
            c.decide_c2s(ms(300), 0, Seq(0), Seq(70), false),
            C2sDecision::Gate
        );
        assert_eq!(c.stats().gated, 2);
        // Quiet: released immediately, schedule re-anchored here.
        assert_eq!(
            c.decide_c2s(ms(900), 0, Seq(0), Seq(70), true),
            C2sDecision::Forward
        );
        assert!(!c.is_gating());
        // The next GET is k=1 on the re-anchored schedule.
        let d = c.decide_c2s(ms(901), 1, Seq(70), Seq(140), false);
        assert_eq!(hold_ms(d), 80);
    }

    #[test]
    fn drop_window_drops_then_expires() {
        let mut c = NetworkController::new();
        let mut rng = SimRng::seed_from(5);
        c.start_drops(ms(100), 1000); // 100 %
        assert!(c.dropping_at(ms(50)));
        assert!(c.should_drop_s2c(ms(50), &mut rng));
        assert!(!c.should_drop_s2c(ms(100), &mut rng)); // expired
        assert!(!c.dropping_at(ms(150)));
        assert_eq!(c.stats().dropped, 1);
    }

    #[test]
    fn drop_rate_is_statistical() {
        let mut c = NetworkController::new();
        let mut rng = SimRng::seed_from(6);
        c.start_drops(SimTime::from_secs(1000), 800);
        let n = 10_000;
        let dropped = (0..n)
            .filter(|_| c.should_drop_s2c(ms(1), &mut rng))
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.8).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn bandwidth_change_is_edge_triggered() {
        let mut c = NetworkController::new();
        assert_eq!(c.take_bandwidth_change(), None);
        c.set_bandwidth(Some(800_000_000));
        assert_eq!(c.take_bandwidth_change(), Some(Some(800_000_000)));
        assert_eq!(c.take_bandwidth_change(), None);
        c.set_bandwidth(None);
        assert_eq!(c.take_bandwidth_change(), Some(None));
    }

    #[test]
    fn stop_drops_cancels() {
        let mut c = NetworkController::new();
        let mut rng = SimRng::seed_from(7);
        c.start_drops(SimTime::from_secs(10), 1000);
        c.stop_drops();
        assert!(!c.should_drop_s2c(ms(1), &mut rng));
    }
}
