//! Allocation pins for the eavesdropper.
//!
//! This binary installs the allocation-counting global allocator from
//! `h2priv-bytes` (the `count-allocs` dev feature) and proves that the
//! eavesdropper reads record headers from the packets in transit, with no
//! per-packet allocation: neither the gateway capture (`WireTrace::push`)
//! nor the adversary's online monitor copies a payload byte or collects a
//! packet's records. The input is one paper page load (trial seed
//! `1 << 32`, no attack), collected live by a middlebox on the gateway:
//! about 5,200 packets, 2,600 of them carrying data, and 1,500 records.
//! Copying each data packet's bytes costs one allocation per packet, so
//! both bounds sit far below the packet count.

use std::cell::RefCell;
use std::rc::Rc;

use h2priv_analysis::WireTrace;
use h2priv_bytes::count_alloc::{measure, CountingAlloc};
use h2priv_core::experiment::paper_scenario;
use h2priv_core::{MonitorConfig, TrafficMonitor};
use h2priv_netsim::{Dir, MbContext, Middlebox, Packet, SimTime, Verdict};
use h2priv_tcp::TcpSegment;
use h2priv_testkit::{build_scenario, run_scenario};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations either pass may make: its output's growth and a few
/// reassembly nodes, never one per packet.
const MAX_ALLOCS: u64 = 100;

/// Keeps every packet that passes the gateway, as the observer saw it.
struct Collect(Rc<RefCell<Vec<(SimTime, Dir, TcpSegment)>>>);

impl Middlebox<TcpSegment> for Collect {
    fn process(&mut self, packet: &Packet<TcpSegment>, ctx: &mut MbContext<'_>) -> Verdict {
        let seen = (ctx.now, ctx.dir, packet.payload.clone());
        self.0.borrow_mut().push(seen);
        Verdict::Forward
    }
}

#[test]
fn eavesdropper_does_not_allocate_per_packet() {
    let (iw, cfg) = paper_scenario(1 << 32);
    let live = Rc::new(RefCell::new(Vec::new()));
    let collect = Box::new(Collect(live.clone()));
    let result = run_scenario(build_scenario(&iw.site, &iw.plan, &cfg, Some(collect)));
    let live = live.borrow();
    let data_packets = live
        .iter()
        .filter(|(_, _, s)| !s.payload.is_empty())
        .count();
    assert!(data_packets > 2_000, "{data_packets} data packets");

    let mut trace = WireTrace::new();
    let ((), push_allocs) = measure(|| {
        for (time, dir, segment) in live.iter() {
            trace.push(*time, *dir, segment);
        }
    });
    assert!(
        trace.records().len() > 1_000,
        "{} records",
        trace.records().len()
    );
    assert_eq!(trace.records(), result.trace.records());
    assert!(
        push_allocs < MAX_ALLOCS,
        "WireTrace::push made {push_allocs} allocations over {data_packets} data packets"
    );

    let mut monitor = TrafficMonitor::new(MonitorConfig::default());
    let ((), observe_allocs) = measure(|| {
        for (time, dir, segment) in live.iter() {
            monitor.observe(*time, *dir, segment);
        }
    });
    assert!(monitor.gets_seen() > 0, "the monitor counted no GET");
    assert!(
        observe_allocs < MAX_ALLOCS,
        "TrafficMonitor::observe made {observe_allocs} allocations over {} packets",
        live.len()
    );
}
