//! The passive wire tap installed on the gateway.

use std::cell::RefCell;
use std::rc::Rc;

use h2priv_analysis::{ObservedPacket, WireTrace};
use h2priv_netsim::{MbContext, Middlebox, Packet, Verdict};
use h2priv_tcp::TcpSegment;

/// Records every transiting packet into a shared [`WireTrace`] and forwards
/// it untouched. Install it *after* any active middlebox to capture egress
/// traffic (what actually reaches the endpoints), or before for ingress.
#[derive(Debug, Clone)]
pub(crate) struct WireTap {
    trace: Rc<RefCell<WireTrace>>,
}

impl WireTap {
    /// Creates a tap writing into `trace`.
    pub(crate) fn new(trace: Rc<RefCell<WireTrace>>) -> Self {
        WireTap { trace }
    }
}

impl Middlebox<TcpSegment> for WireTap {
    fn process(&mut self, packet: &Packet<TcpSegment>, ctx: &mut MbContext<'_>) -> Verdict {
        self.trace
            .borrow_mut()
            .push(ObservedPacket::capture(ctx.now, ctx.dir, &packet.payload));
        Verdict::Forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_netsim::{Dir, NodeId, ShapingState, SimRng, SimTime};
    use h2priv_tcp::{Seq, TcpFlags};

    #[test]
    fn tap_records_and_forwards() {
        let trace = Rc::new(RefCell::new(WireTrace::new()));
        let mut tap = WireTap::new(trace.clone());
        let seg = TcpSegment {
            seq: Seq(1),
            ack: Seq(0),
            flags: TcpFlags::ACK,
            window: 100,
            payload: vec![1, 2, 3].into(),
        };
        let packet = Packet::new(NodeId(0), NodeId(2), seg.wire_bytes(), seg);
        let mut rng = SimRng::seed_from(0);
        let mut shaping = ShapingState::default();
        let mut ctx = MbContext {
            now: SimTime::from_millis(9),
            dir: Dir::LeftToRight,
            rng: &mut rng,
            shaping: &mut shaping,
        };
        assert_eq!(tap.process(&packet, &mut ctx), Verdict::Forward);
        let trace = trace.borrow();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.packets[0].time, SimTime::from_millis(9));
        assert_eq!(trace.packets[0].payload, vec![1, 2, 3]);
    }
}
