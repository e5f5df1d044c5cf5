//! Endpoint-side dummy-record injection.
//!
//! The paper's monitor counts `application_data` TLS records and measures
//! their burst sizes (§V). A cooperating endpoint can pollute both signals
//! by sealing *dummy* records — records carrying protocol chaff instead of
//! response bytes — interleaved with real traffic. Three design points
//! matter:
//!
//! * **Plaintext**: each dummy is an unsolicited HTTP/2 PING-ACK frame.
//!   RFC 7540 §6.7 requires a receiver to ignore unexpected PING ACKs, so
//!   the peer's stack absorbs them silently — no app-visible effect, no
//!   reply traffic.
//! * **Sealing**: dummies MUST be sealed by the sender's own record
//!   writer, in stream order. The ciphertext is then indistinguishable
//!   from real data (`content_type == 23`, nonce continuity holds) — an
//!   out-of-band injector would be both filterable and a TLS violation
//!   (see `h2priv-conformance`'s `record-seq` rule).
//! * **Schedule**: [`TlsShaper`] decides *when* dummies go out. Constant
//!   rate keeps the wire ticking at a fixed cadence whether or not real
//!   data flows; adaptive padding (after WTF-PAD's intra-burst sampling)
//!   arms a randomized timer after each real send and fires a dummy only
//!   if the stream goes quiet first — filling exactly the inter-burst
//!   gaps the attack's segmentation keys on.

use h2priv_http2::{encode_frame, Frame};
use h2priv_netsim::{SimDuration, SimRng, SimTime};

/// Plaintext length of one dummy record: a 9-byte frame header plus the
/// 8-byte PING payload.
pub const DUMMY_RECORD_LEN: usize = 17;

/// The dummy record's plaintext: an unsolicited PING-ACK with a zero
/// opaque payload, absorbed silently by any conformant peer.
pub fn dummy_record_plaintext() -> Vec<u8> {
    encode_frame(&Frame::Ping {
        ack: true,
        data: [0; 8],
    })
}

#[derive(Debug, Clone)]
enum Policy {
    /// One record per `interval`, real or dummy.
    ConstantRate { interval: SimDuration },
    /// After each real send, arm a timer at `min_gap + U[0, spread]`; if
    /// it fires before the next real send, emit a dummy and re-arm.
    Adaptive {
        min_gap: SimDuration,
        spread: SimDuration,
    },
}

/// Decides when a host should seal dummy records into its outbound
/// stream. The host pump calls [`on_real_send`](TlsShaper::on_real_send)
/// whenever it seals real traffic, polls
/// [`dummies_due`](TlsShaper::dummies_due) on every pass, and merges
/// [`next_wakeup`](TlsShaper::next_wakeup) into its timer schedule so an
/// otherwise-idle host still wakes to pad.
#[derive(Debug, Clone)]
pub struct TlsShaper {
    policy: Policy,
    /// Next scheduled dummy, if armed. Once armed the schedule runs for
    /// as long as its host keeps it: a single-pair run halts when its
    /// browser is done, and a fleet server drops its shaper when its
    /// client's page load is over, so it can go quiet and free its pair.
    due: Option<SimTime>,
    /// Dummy records emitted so far (the overhead numerator).
    pub dummies_sent: u64,
}

/// At most this many dummies are released per poll: a host that slept
/// through many constant-rate slots (e.g. while TCP-blocked) emits a
/// bounded catch-up burst instead of one dummy per elapsed slot.
const MAX_DUMMIES_PER_POLL: u32 = 8;

impl TlsShaper {
    /// Constant-rate schedule: one record per `interval`.
    pub fn constant_rate(interval: SimDuration) -> Self {
        TlsShaper {
            policy: Policy::ConstantRate {
                interval: interval.max(SimDuration::from_micros(100)),
            },
            due: None,
            dummies_sent: 0,
        }
    }

    /// Adaptive-padding schedule: dummies fill gaps longer than
    /// `min_gap + U[0, spread]`.
    pub fn adaptive(min_gap: SimDuration, spread: SimDuration) -> Self {
        TlsShaper {
            policy: Policy::Adaptive { min_gap, spread },
            due: None,
            dummies_sent: 0,
        }
    }

    /// Notes that real traffic was sealed at `now`: the wire is busy, so
    /// the gap timer re-arms from here.
    pub fn on_real_send(&mut self, now: SimTime, rng: &mut SimRng) {
        self.arm(now, rng);
    }

    /// How many dummy records to seal at `now`. Advances the schedule;
    /// bounded by the shaper's `MAX_DUMMIES_PER_POLL` per call.
    pub fn dummies_due(&mut self, now: SimTime, rng: &mut SimRng) -> u32 {
        // First poll: start the clock without emitting.
        if self.due.is_none() {
            self.arm(now, rng);
            return 0;
        }
        let mut count = 0;
        while count < MAX_DUMMIES_PER_POLL && self.due.is_some_and(|t| t <= now) {
            count += 1;
            match &self.policy {
                // Constant rate ticks on a grid: the next slot follows the
                // previous one, so a late poll still emits per elapsed slot.
                Policy::ConstantRate { interval } => {
                    self.due = Some(self.due.expect("checked above") + *interval);
                }
                Policy::Adaptive { .. } => self.arm(now, rng),
            }
        }
        // A long sleep leaves the grid far behind even after the capped
        // catch-up: snap forward rather than burn future polls on stale
        // slots.
        if self.due.is_some_and(|t| t <= now) {
            self.arm(now, rng);
        }
        self.dummies_sent += count as u64;
        count
    }

    /// When the host should next wake to pad, if the schedule is armed.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.due
    }

    fn arm(&mut self, now: SimTime, rng: &mut SimRng) {
        let gap = match &self.policy {
            Policy::ConstantRate { interval } => *interval,
            Policy::Adaptive { min_gap, spread } => {
                let extra = match spread.as_nanos() {
                    0 => SimDuration::ZERO,
                    n => SimDuration::from_nanos(rng.gen_range_u64(0..n + 1)),
                };
                *min_gap + extra
            }
        };
        self.due = Some(now + gap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dummy_plaintext_is_a_ping_ack() {
        let bytes = dummy_record_plaintext();
        assert_eq!(bytes.len(), DUMMY_RECORD_LEN);
        // Frame header: length 8, type PING (0x6), flags ACK (0x1).
        assert_eq!(&bytes[..5], &[0, 0, 8, 0x6, 0x1]);
    }

    #[test]
    fn constant_rate_ticks_when_idle() {
        let mut rng = SimRng::seed_from(3);
        let mut shaper = TlsShaper::constant_rate(SimDuration::from_millis(2));
        // First poll arms without emitting.
        assert_eq!(shaper.dummies_due(SimTime::ZERO, &mut rng), 0);
        assert_eq!(shaper.next_wakeup(), Some(SimTime::from_millis(2)));
        // Nothing due before the tick.
        assert_eq!(shaper.dummies_due(SimTime::from_millis(1), &mut rng), 0);
        // One dummy per elapsed tick.
        assert_eq!(shaper.dummies_due(SimTime::from_millis(2), &mut rng), 1);
        assert_eq!(shaper.dummies_due(SimTime::from_millis(4), &mut rng), 1);
        assert_eq!(shaper.dummies_sent, 2);
    }

    #[test]
    fn real_traffic_resets_constant_rate_clock() {
        let mut rng = SimRng::seed_from(3);
        let mut shaper = TlsShaper::constant_rate(SimDuration::from_millis(2));
        shaper.dummies_due(SimTime::ZERO, &mut rng);
        shaper.on_real_send(SimTime::from_millis(1), &mut rng);
        // The slot moved to 3 ms: nothing due at 2 ms.
        assert_eq!(shaper.dummies_due(SimTime::from_millis(2), &mut rng), 0);
        assert_eq!(shaper.dummies_due(SimTime::from_millis(3), &mut rng), 1);
    }

    #[test]
    fn catch_up_burst_is_bounded() {
        let mut rng = SimRng::seed_from(3);
        let mut shaper = TlsShaper::constant_rate(SimDuration::from_millis(1));
        shaper.dummies_due(SimTime::ZERO, &mut rng);
        // Slept 100 slots: the catch-up is capped at the per-poll bound
        // and the schedule snaps forward (not one dummy per missed slot).
        let n = shaper.dummies_due(SimTime::from_millis(100), &mut rng);
        assert_eq!(n, 8);
        assert_eq!(shaper.next_wakeup(), Some(SimTime::from_millis(101)));
    }

    #[test]
    fn adaptive_fills_quiet_gaps_only() {
        let mut rng = SimRng::seed_from(9);
        let mut shaper =
            TlsShaper::adaptive(SimDuration::from_millis(5), SimDuration::from_millis(3));
        shaper.on_real_send(SimTime::ZERO, &mut rng);
        let armed = shaper.next_wakeup().expect("armed after real send");
        assert!(armed >= SimTime::from_millis(5) && armed <= SimTime::from_millis(8));
        // Real sends keep arriving faster than the gap: never fires.
        for i in 1..10u64 {
            let t = SimTime::from_millis(i);
            assert_eq!(shaper.dummies_due(t, &mut rng), 0);
            shaper.on_real_send(t, &mut rng);
        }
        // Then the stream goes quiet past the armed gap: one dummy.
        assert_eq!(shaper.dummies_due(SimTime::from_millis(20), &mut rng), 1);
    }
}
