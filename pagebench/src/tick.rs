//! The reference tick: a fixed piece of simulation-like work that lives in
//! the benchmark, never changes with the program under test, and so times
//! how fast the host runs this kind of code at the moment.
//!
//! On a shared host the processor a run gets can slow by half or more for
//! minutes, when another tenant's work lands on the same physical core,
//! and that moves every wall-clock figure of the run with it. The loop
//! runs ticks between units, and the end-to-end times are reported at
//! [`NOMINAL_NS`] per tick: a time measured while a tick took `t` ns
//! counts as `time × NOMINAL_NS / t`. A change to the program moves its
//! loads and not the tick, so it still shows in full.
//!
//! The tick mixes the two kinds of work a page load is made of: an event
//! loop (a heap of timed events over per-flow queues of byte buffers that
//! are filled, copied and summed) and a record layer (framing and a
//! keystream over buffers of a few KiB). Throughput-bound code like the
//! record layer slows most when a core is shared and latency-bound code
//! least; a page load sits in between, and so does the tick. Its state is
//! allocated once and reused, and each tick runs its work once untimed
//! first, so neither the heap nor the caches the program left behind move
//! its time.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// About the time of one tick on an unhindered vCPU of the host the
/// benchmark was written on (a 2-vCPU Xeon guest), in ns. It only sets the
/// scale of the reported figures; both sides of a comparison use it.
pub const NOMINAL_NS: f64 = 175_000.0;

const FLOWS: u64 = 64;
const EVENTS: u64 = 1_000;
const RECORDS: u64 = 32;

/// The factor that brings a time measured while ticks took `tick_ns` to
/// the nominal host speed.
pub fn scale(tick_ns: f64) -> f64 {
    NOMINAL_NS / tick_ns
}

/// The tick's reusable state.
#[derive(Default)]
pub struct Ticker {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// A fixed hasher, so every process lays the table out alike.
    flows: HashMap<u64, VecDeque<Vec<u8>>, BuildHasherDefault<DefaultHasher>>,
    spare: Vec<Vec<u8>>,
    record: Vec<u8>,
}

impl Ticker {
    /// Runs one tick and returns the wall time of its timed run in ns.
    pub fn tick(&mut self) -> u64 {
        black_box(self.work());
        let start = Instant::now();
        black_box(self.work());
        start.elapsed().as_nanos() as u64
    }

    fn work(&mut self) -> u64 {
        self.event_loop(black_box(EVENTS)) ^ self.record_layer(black_box(RECORDS))
    }

    /// `events` timed events over [`FLOWS`] flows: each queues a buffer or
    /// copies and sums the oldest queued one, then schedules its flow again.
    fn event_loop(&mut self, events: u64) -> u64 {
        for queue in self.flows.values_mut() {
            self.spare.extend(queue.drain(..));
        }
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        self.heap.clear();
        self.heap
            .extend((0..FLOWS).map(|flow| Reverse((xorshift(&mut x) % 1000, flow))));
        let mut acc = 0u64;
        for _ in 0..events {
            let Reverse((at, flow)) = self.heap.pop().expect("the heap never empties");
            let r = xorshift(&mut x);
            let queue = self.flows.entry(flow).or_default();
            if r.is_multiple_of(3) {
                let mut buf = self.spare.pop().unwrap_or_default();
                buf.clear();
                buf.resize(64 + (r >> 8) as usize % 1400, r as u8);
                queue.push_back(buf);
            } else if let Some(buf) = queue.pop_front() {
                let mut copy = self.spare.pop().unwrap_or_default();
                copy.clear();
                copy.extend_from_slice(&buf);
                acc = acc.wrapping_add(copy.iter().map(|&b| b as u64).sum::<u64>());
                self.spare.push(buf);
                self.spare.push(copy);
            }
            self.heap.push(Reverse((at + 1 + r % 50, flow)));
        }
        acc
    }

    /// `records` records of 200 to 4 200 bytes: a 5-byte header, then the
    /// payload under a keystream drawn 8 bytes at a time.
    fn record_layer(&mut self, records: u64) -> u64 {
        let mut x = 99u64;
        let mut acc = 0u64;
        for _ in 0..records {
            let len = 200 + (xorshift(&mut x) % 4000) as usize;
            let out = &mut self.record;
            out.clear();
            out.extend_from_slice(&[23, 3, 3, (len >> 8) as u8, len as u8]);
            let mut key = x;
            for i in 0..len {
                if i % 8 == 0 {
                    xorshift(&mut key);
                }
                out.push(i as u8 ^ (key >> ((i % 8) * 8)) as u8);
            }
            acc = acc.wrapping_add(out.iter().step_by(7).map(|&b| b as u64).sum::<u64>());
        }
        acc
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tick_does_the_same_work() {
        let mut t = Ticker::default();
        let first = t.work();
        assert_eq!(t.work(), first);
        assert_eq!(Ticker::default().work(), first);
        assert_ne!(t.event_loop(EVENTS - 1), t.event_loop(EVENTS));
        assert!(t.tick() > 0);
    }

    #[test]
    fn a_slower_host_scales_times_down() {
        assert_eq!(scale(NOMINAL_NS), 1.0);
        assert_eq!(scale(2.0 * NOMINAL_NS), 0.5);
    }
}
