//! Point-to-point link model.
//!
//! A link is unidirectional (the simulator installs one per direction) and
//! models the four network parameters the paper manipulates (§II):
//!
//! * **Delay** — fixed propagation latency.
//! * **Jitter** — a per-packet random extra delay drawn from a
//!   [`DurationDist`]; jitter can stretch inter-arrival gaps but never
//!   reorder packets, matching FIFO queueing on real paths.
//! * **Bandwidth** — serialization delay `bytes / rate`, with a busy-until
//!   cursor so back-to-back packets queue behind one another.
//! * **Loss** — i.i.d. random drops, plus drop-tail queue overflow when more
//!   than `queue_limit` bytes are waiting for transmission.

use crate::rng::{DurationDist, SimRng};
use crate::time::{SimDuration, SimTime};

/// Bits per second. A plain alias: rates appear in user-facing configs, so we
/// keep them ergonomic rather than newtyped.
pub type BitsPerSec = u64;

/// Helper: megabits per second to [`BitsPerSec`].
pub const fn mbps(m: u64) -> BitsPerSec {
    m * 1_000_000
}

/// Configuration of one unidirectional link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Fixed propagation delay.
    pub delay: SimDuration,
    /// Random per-packet extra delay.
    pub jitter: DurationDist,
    /// Transmission rate. `None` models an effectively infinite-speed link
    /// (zero serialization delay).
    pub bandwidth: Option<BitsPerSec>,
    /// Independent per-packet loss probability in `[0, 1]`.
    pub loss: f64,
    /// Maximum bytes that may be queued awaiting serialization before
    /// drop-tail discards kick in. `None` means unbounded.
    pub queue_limit: Option<u64>,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            delay: SimDuration::ZERO,
            jitter: DurationDist::None,
            bandwidth: None,
            loss: 0.0,
            queue_limit: None,
        }
    }
}

impl LinkConfig {
    /// A link with only a fixed propagation delay.
    pub fn with_delay(delay: SimDuration) -> Self {
        LinkConfig {
            delay,
            ..LinkConfig::default()
        }
    }

    /// Sets the bandwidth (builder style).
    pub fn bandwidth(mut self, rate: BitsPerSec) -> Self {
        self.bandwidth = Some(rate);
        self
    }

    /// Sets the jitter distribution (builder style).
    pub fn jitter(mut self, jitter: DurationDist) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the loss probability (builder style).
    pub fn loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the queue limit in bytes (builder style).
    pub fn queue_limit(mut self, bytes: u64) -> Self {
        self.queue_limit = Some(bytes);
        self
    }

    /// Serialization time of `bytes` at the configured bandwidth.
    pub fn serialization_time(&self, bytes: u32) -> SimDuration {
        match self.bandwidth {
            None => SimDuration::ZERO,
            Some(rate) => {
                debug_assert!(rate > 0, "bandwidth must be positive");
                let bits = bytes as u64 * 8;
                // Any frame under ~2 GB keeps `bits * 1e9` inside u64, so
                // the division stays 64-bit (the 128-bit fallback compiles
                // to a libcall several times slower, and this runs once per
                // transmitted packet). Identical floor-division result.
                if let Some(scaled) = bits.checked_mul(1_000_000_000) {
                    return SimDuration::from_nanos(scaled / rate.max(1));
                }
                let nanos = bits as u128 * 1_000_000_000 / rate.max(1) as u128;
                SimDuration::from_nanos(nanos.min(u64::MAX as u128) as u64)
            }
        }
    }
}

/// Why a link discarded a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDrop {
    /// Random loss fired.
    RandomLoss,
    /// The transmit queue was full.
    QueueOverflow,
}

/// Counters for one link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets accepted and delivered (scheduled for arrival).
    pub delivered: u64,
    /// Bytes accepted and delivered.
    pub delivered_bytes: u64,
    /// Packets dropped by random loss.
    pub lost: u64,
    /// Packets dropped due to queue overflow.
    pub overflowed: u64,
}

/// Runtime state of one unidirectional link.
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    /// Time at which the transmitter becomes idle.
    busy_until: SimTime,
    /// Latest scheduled arrival, for order preservation.
    last_arrival: SimTime,
    stats: LinkStats,
}

impl Link {
    /// Creates a link from its configuration.
    pub fn new(config: LinkConfig) -> Self {
        Link {
            config,
            busy_until: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            stats: LinkStats::default(),
        }
    }

    /// The link's configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Accumulated counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Offers a packet of `bytes` to the link at time `now`.
    ///
    /// Returns the scheduled arrival time at the far end, or the reason the
    /// packet was dropped. The returned arrivals are non-decreasing across
    /// calls (enforced by clamping to the latest scheduled arrival), which
    /// is what lets the simulator queue this link's in-flight packets as a
    /// FIFO.
    pub fn transmit(
        &mut self,
        now: SimTime,
        bytes: u32,
        rng: &mut SimRng,
    ) -> Result<SimTime, LinkDrop> {
        if rng.chance(self.config.loss) {
            self.stats.lost += 1;
            return Err(LinkDrop::RandomLoss);
        }
        // Bytes currently waiting = what the transmitter still has to clock
        // out. With rate r, backlog ≈ (busy_until - now) * r.
        if let (Some(limit), Some(rate)) = (self.config.queue_limit, self.config.bandwidth) {
            let backlog_ns = self.busy_until.saturating_since(now).as_nanos() as u128;
            let backlog_bytes = backlog_ns * rate as u128 / 8 / 1_000_000_000;
            if backlog_bytes + bytes as u128 > limit as u128 {
                self.stats.overflowed += 1;
                return Err(LinkDrop::QueueOverflow);
            }
        }
        let start = now.max(self.busy_until);
        let departure = start + self.config.serialization_time(bytes);
        self.busy_until = departure;
        let arrival = (departure + self.config.delay + rng.sample_duration(&self.config.jitter))
            .max(self.last_arrival);
        self.last_arrival = arrival;
        self.stats.delivered += 1;
        self.stats.delivered_bytes += bytes as u64;
        Ok(arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(1)
    }

    #[test]
    fn zero_config_is_instant() {
        let mut link = Link::new(LinkConfig::default());
        let t = link
            .transmit(SimTime::from_millis(5), 1500, &mut rng())
            .unwrap();
        assert_eq!(t, SimTime::from_millis(5));
    }

    #[test]
    fn propagation_delay_applies() {
        let mut link = Link::new(LinkConfig::with_delay(SimDuration::from_millis(10)));
        let t = link.transmit(SimTime::ZERO, 100, &mut rng()).unwrap();
        assert_eq!(t, SimTime::from_millis(10));
    }

    #[test]
    fn serialization_time_math() {
        // 1500 bytes at 1 Gbps = 12 µs.
        let cfg = LinkConfig::default().bandwidth(mbps(1000));
        assert_eq!(cfg.serialization_time(1500), SimDuration::from_micros(12));
        // 1500 bytes at 1 Mbps = 12 ms.
        let cfg = LinkConfig::default().bandwidth(mbps(1));
        assert_eq!(cfg.serialization_time(1500), SimDuration::from_millis(12));
        // Infinite bandwidth.
        assert_eq!(
            LinkConfig::default().serialization_time(u32::MAX),
            SimDuration::ZERO
        );
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut link = Link::new(LinkConfig::default().bandwidth(mbps(1000)));
        let mut r = rng();
        let a = link.transmit(SimTime::ZERO, 1500, &mut r).unwrap();
        let b = link.transmit(SimTime::ZERO, 1500, &mut r).unwrap();
        assert_eq!(a, SimTime::from_micros(12));
        assert_eq!(b, SimTime::from_micros(24));
    }

    #[test]
    fn transmitter_idles_between_sends() {
        let mut link = Link::new(LinkConfig::default().bandwidth(mbps(1000)));
        let mut r = rng();
        let _ = link.transmit(SimTime::ZERO, 1500, &mut r).unwrap();
        // Much later, the link is idle again: no queueing delay.
        let b = link
            .transmit(SimTime::from_millis(100), 1500, &mut r)
            .unwrap();
        assert_eq!(b, SimTime::from_millis(100) + SimDuration::from_micros(12));
    }

    #[test]
    fn loss_drops_packets() {
        let mut link = Link::new(LinkConfig::default().loss(1.0));
        let res = link.transmit(SimTime::ZERO, 100, &mut rng());
        assert_eq!(res, Err(LinkDrop::RandomLoss));
        assert_eq!(link.stats().lost, 1);
        assert_eq!(link.stats().delivered, 0);
    }

    #[test]
    fn loss_rate_statistical() {
        let mut link = Link::new(LinkConfig::default().loss(0.25));
        let mut r = rng();
        let n = 10_000;
        let mut dropped = 0;
        for _ in 0..n {
            if link.transmit(SimTime::ZERO, 100, &mut r).is_err() {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn queue_overflow_drops() {
        // 1 Mbps with a 3000-byte queue: the third back-to-back 1500 B packet
        // sees a 3000-byte backlog and is dropped.
        let mut link = Link::new(LinkConfig::default().bandwidth(mbps(1)).queue_limit(3000));
        let mut r = rng();
        assert!(link.transmit(SimTime::ZERO, 1500, &mut r).is_ok());
        assert!(link.transmit(SimTime::ZERO, 1500, &mut r).is_ok());
        let res = link.transmit(SimTime::ZERO, 1500, &mut r);
        assert_eq!(res, Err(LinkDrop::QueueOverflow));
        assert_eq!(link.stats().overflowed, 1);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut link = Link::new(LinkConfig::default().bandwidth(mbps(1)).queue_limit(3000));
        let mut r = rng();
        assert!(link.transmit(SimTime::ZERO, 1500, &mut r).is_ok());
        assert!(link.transmit(SimTime::ZERO, 1500, &mut r).is_ok());
        // 12 ms later the first packet has fully serialized; room again.
        assert!(link
            .transmit(SimTime::from_millis(13), 1500, &mut r)
            .is_ok());
    }

    #[test]
    fn jitter_preserves_order_by_default() {
        let cfg =
            LinkConfig::with_delay(SimDuration::from_millis(1)).jitter(DurationDist::Uniform {
                lo: SimDuration::ZERO,
                hi: SimDuration::from_millis(50),
            });
        let mut link = Link::new(cfg);
        let mut r = rng();
        let mut last = SimTime::ZERO;
        for i in 0..200 {
            let t = link
                .transmit(SimTime::from_micros(i * 10), 100, &mut r)
                .unwrap();
            assert!(t >= last, "reordered: {t} < {last}");
            last = t;
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut link = Link::new(LinkConfig::default());
        let mut r = rng();
        for _ in 0..5 {
            let _ = link.transmit(SimTime::ZERO, 100, &mut r);
        }
        assert_eq!(link.stats().delivered, 5);
        assert_eq!(link.stats().delivered_bytes, 500);
    }
}
