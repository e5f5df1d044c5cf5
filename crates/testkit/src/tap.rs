//! The passive wire tap installed on the gateway.

use std::cell::RefCell;
use std::rc::Rc;

use h2priv_analysis::WireTrace;
use h2priv_netsim::{MbContext, Middlebox, Packet, Verdict};
use h2priv_tcp::TcpSegment;

/// Records every transiting packet into a shared [`WireTrace`] and forwards
/// it untouched. The trace reads the packet's record headers while it
/// passes and keeps its header fields and payload length, not its bytes.
/// Install it *after* any active middlebox to capture egress traffic (what
/// actually reaches the endpoints), or before for ingress.
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
            .push(ctx.now, ctx.dir, &packet.payload);
        Verdict::Forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_netsim::{Dir, NodeId, ShapingState, SimRng, SimTime};
    use h2priv_tcp::{Seq, TcpFlags};
    use h2priv_tls::{ContentType, RecordCipher, RecordWriter};

    #[test]
    fn tap_records_and_forwards() {
        let trace = Rc::new(RefCell::new(WireTrace::new()));
        let mut tap = WireTap::new(trace.clone());
        let record = RecordWriter::new(RecordCipher::new(3, 1))
            .seal_message(ContentType::ApplicationData, &[7; 100]);
        let syn = TcpSegment {
            seq: Seq(0),
            ack: Seq(0),
            flags: TcpFlags::SYN,
            window: 100,
            payload: Default::default(),
        };
        let data = TcpSegment {
            seq: Seq(1),
            flags: TcpFlags::ACK,
            payload: record.clone().into(),
            ..syn.clone()
        };
        let mut rng = SimRng::seed_from(0);
        let mut shaping = ShapingState::default();
        for (ms, seg) in [(8, syn), (9, data)] {
            let packet = Packet::new(NodeId(0), NodeId(2), seg.wire_bytes(), seg);
            let mut ctx = MbContext {
                now: SimTime::from_millis(ms),
                dir: Dir::LeftToRight,
                rng: &mut rng,
                shaping: &mut shaping,
            };
            assert_eq!(tap.process(&packet, &mut ctx), Verdict::Forward);
        }
        let trace = trace.borrow();
        assert_eq!(trace.len(), 2);
        let captured = trace.packets()[1];
        assert_eq!(captured.time, SimTime::from_millis(9));
        assert_eq!(captured.payload.len(), record.len());
        let records = trace.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].content_type, ContentType::ApplicationData);
        assert_eq!(records[0].wire_len, record.len());
        assert_eq!(records[0].plaintext_len(), 100);
        assert_eq!(records[0].time, SimTime::from_millis(9));
    }
}
