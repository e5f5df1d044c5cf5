//! # h2priv-netsim — deterministic discrete-event network simulator
//!
//! The substrate under every experiment in the `h2priv` workspace, the
//! reproduction of *"Depending on HTTP/2 for Privacy? Good Luck!"*
//! (DSN 2020). The paper's adversary manipulates four network parameters —
//! delay, jitter, bandwidth and packet drops (§II "Network Parameters") —
//! from a compromised gateway; this crate models exactly those degrees of
//! freedom:
//!
//! * [`Simulator`] — the event engine: nodes, links, timers, deterministic
//!   `(time, sequence)` event ordering, seeded randomness ([`SimRng`]).
//! * [`Link`]/[`LinkConfig`] — propagation delay, per-packet jitter
//!   ([`DurationDist`]), bandwidth serialization, drop-tail queueing and
//!   random loss.
//! * [`GatewayNode`] + [`Middlebox`] — the compromised on-path device: an
//!   ordered chain of packet processors that can observe, hold, drop, and
//!   throttle ([`ShapingState`]) transiting traffic.
//! * [`prop`] — the seeded property-test harness the workspace's
//!   `tests/properties.rs` suites run on.
//!
//! The crate is generic over the packet payload type; `h2priv-tcp`
//! instantiates it with TCP segments.
//!
//! # Examples
//!
//! ```
//! use h2priv_netsim::{
//!     Context, LinkConfig, Node, NodeId, Packet, SimDuration, Simulator,
//! };
//!
//! struct Sink(u32);
//! impl Node<u32> for Sink {
//!     fn on_packet(&mut self, p: Packet<u32>, _ctx: &mut Context<'_, u32>) {
//!         self.0 += p.payload;
//!     }
//! }
//! struct Source(NodeId);
//! impl Node<u32> for Source {
//!     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
//!         ctx.send(Packet::new(ctx.node_id(), self.0, 64, 41));
//!     }
//!     fn on_packet(&mut self, _p: Packet<u32>, _ctx: &mut Context<'_, u32>) {}
//! }
//!
//! let mut sim = Simulator::new(7);
//! let src = sim.reserve_node_id();
//! let dst = sim.reserve_node_id();
//! sim.install_node(dst, Box::new(Sink(0)));
//! sim.install_node(src, Box::new(Source(dst)));
//! sim.add_link(src, dst, LinkConfig::with_delay(SimDuration::from_millis(1)));
//! let summary = sim.run();
//! assert_eq!(summary.end_time, h2priv_netsim::SimTime::from_millis(1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod heap;
mod link;
mod middlebox;
mod node;
mod packet;
pub mod prop;
mod rng;
mod sim;
mod time;
mod wheel;

pub use link::{mbps, BitsPerSec, Link, LinkConfig, LinkDrop, LinkStats};
pub use middlebox::{
    GatewayNode, GatewayStats, MbContext, Middlebox, MiddleboxChain, Passthrough, ShapingState,
    Verdict,
};
pub use node::{Context, Node, TimerId};
pub use packet::{Dir, NodeId, Packet};
pub use rng::{DurationDist, SimRng};
pub use sim::{EngineStats, RunSummary, Simulator, StopReason};
pub use time::{SimDuration, SimTime};
pub use wheel::{SchedStats, BUCKET_COUNT, BUCKET_NANOS_SHIFT};

/// Scheduler internals re-exported for the crate's differential tests and
/// the fleet arena's deadline queue. Not a stable API.
#[doc(hidden)]
pub mod internals {
    pub use crate::heap::MinHeap4;
    pub use crate::wheel::CalendarQueue;
}
