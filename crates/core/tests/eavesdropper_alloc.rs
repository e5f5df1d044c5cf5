//! Allocation pins for the eavesdropper.
//!
//! This binary installs the allocation-counting global allocator from
//! `h2priv-bytes` (the `count-allocs` dev feature) and proves that the
//! eavesdropper reads record headers over shared views of the captured
//! segments, with no per-packet allocation: neither offline record
//! extraction nor the adversary's online monitor copies a payload byte or
//! collects a packet's records. The input is one paper page load (trial
//! seed `1 << 32`, no attack): about 5,200 packets, 2,600 of them carrying
//! data, and 1,500 records. Copying each data packet's bytes costs one
//! allocation per packet, so both bounds sit far below the packet count.

use h2priv_bytes::count_alloc::{measure, CountingAlloc};
use h2priv_core::experiment::run_paper_trial;
use h2priv_core::{MonitorConfig, TrafficMonitor};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations either pass may make: its output's growth and a few
/// reassembly nodes, never one per packet.
const MAX_ALLOCS: u64 = 100;

#[test]
fn eavesdropper_does_not_allocate_per_packet() {
    let trial = run_paper_trial(1 << 32, None, |_| {});
    let trace = &trial.result.trace;
    let data_packets = trace
        .packets
        .iter()
        .filter(|p| !p.payload.is_empty())
        .count();
    assert!(data_packets > 2_000, "{data_packets} data packets");

    let (records, extract_allocs) = measure(|| h2priv_analysis::extract_records(trace));
    assert!(records.len() > 1_000, "{} records", records.len());
    assert!(
        extract_allocs < MAX_ALLOCS,
        "extract_records made {extract_allocs} allocations over {data_packets} data packets"
    );

    let mut monitor = TrafficMonitor::new(MonitorConfig::default());
    let ((), observe_allocs) = measure(|| {
        for packet in &trace.packets {
            monitor.observe(packet);
        }
    });
    assert!(monitor.gets_seen() > 0, "the monitor counted no GET");
    assert!(
        observe_allocs < MAX_ALLOCS,
        "TrafficMonitor::observe made {observe_allocs} allocations over {} packets",
        trace.packets.len()
    );
}
