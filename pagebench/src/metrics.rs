//! The metric catalog and how each metric is computed from a pass.
//! `BENCHMARK.json` lists the same names, units, directions and bounds; a
//! test keeps the two in step.

use crate::stats;
use crate::tick;
use crate::workload::{OracleReport, Pass, Workload};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// True when `b` is better than `a`.
    pub fn improves(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => b < a,
            Better::Higher => b > a,
        }
    }
}

/// One metric of the catalog.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// How far (as a share of the parent's median) an end-to-end metric
    /// may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the reproduction sees: what a batch of simulated
/// page loads costs in wall time, set-up and heap.
pub const END_TO_END: [Def; 4] = [
    e2e("loads_per_s", "1/s", Higher, 0.25),
    e2e("load_ms_p50", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("heap_mib_p50", "MiB", Lower, 0.10),
];

/// Per-layer metrics, one group per crate. README.md says which
/// end-to-end metric each should move, and on which workload.
pub const PER_LAYER: [Def; 37] = [
    layer("netsim.events_per_load", "count", Lower),
    layer("netsim.far_insert_share", "share", Lower),
    layer("netsim.run_us_per_load", "us", Lower),
    layer("netsim.run_ns_per_event", "ns", Lower),
    layer("netsim.run_unattributed_share", "share", Lower),
    layer("tcp.segments_per_load", "count", Lower),
    layer("tcp.retransmit_share", "share", Lower),
    layer("tcp.timeouts_per_load", "count", Lower),
    layer("tcp.ns_per_segment", "ns", Lower),
    layer("tls.records_per_load", "count", Lower),
    layer("tls.wire_bytes_per_load", "bytes", Lower),
    layer("tls.seal_ns_per_record", "ns", Lower),
    layer("tls.open_ns_per_record", "ns", Lower),
    layer("tls.seal_ns_per_kib", "ns", Lower),
    layer("http2.frames_per_load", "count", Lower),
    layer("http2.encode_ns_per_frame", "ns", Lower),
    layer("http2.decode_ns_per_frame", "ns", Lower),
    layer("http2.hpack_encode_ns_per_block", "ns", Lower),
    layer("http2.hpack_decode_ns_per_block", "ns", Lower),
    layer("web.site_build_us_per_call", "us", Lower),
    layer("web.requests_per_load", "count", Lower),
    layer("web.reissue_share", "share", Lower),
    layer("core.adversary_calls_per_load", "count", Lower),
    layer("core.adversary_share", "share", Lower),
    layer("core.identify_us_per_load", "us", Lower),
    layer("analysis.score_us_per_load", "us", Lower),
    layer("analysis.extract_us_per_load", "us", Lower),
    layer("defense.dummies_per_load", "count", Lower),
    layer("dos.detect_sim_ms_mean", "sim_ms", Lower),
    layer("testkit.build_share", "share", Lower),
    layer("testkit.peak_resident_pairs", "count", Lower),
    layer("loop.unit_ms_max", "ms", Lower),
    layer("loop.unit_ns_per_event", "ns", Lower),
    layer("loop.load_ms_p99", "ms", Lower),
    layer("conformance.overhead_share", "share", Lower),
    layer("conformance.violations", "count", Lower),
    layer("trace_overhead", "share", Lower),
];

/// Looks a metric up by name in either table.
#[cfg(test)]
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-load wall time of each unit, ms (a fleet shard's wall time is
/// spread over its pairs).
fn load_ms(pass: &Pass) -> Vec<f64> {
    pass.units
        .iter()
        .filter(|u| u.ok)
        .map(|u| u.wall_ns as f64 / 1e6 / u.loads.max(1) as f64)
        .collect()
}

/// Time a window spans at least, in seconds.
pub const WINDOW_S: f64 = 1.0;

/// A run of consecutive units of a pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub units: std::ops::Range<usize>,
    pub loads: u64,
    /// From the end of the previous window (or the start of the pass) to
    /// the end of this one's last unit, reference ticks left out, so the
    /// loop's own gaps between units count.
    pub span_ns: u64,
    /// Median of its units' reference tick times.
    pub tick_ns: f64,
}

impl Window {
    /// Loads per second at the host's speed during the window.
    pub fn raw_rate(&self) -> f64 {
        self.loads as f64 / (self.span_ns as f64 / 1e9)
    }

    /// Loads per second at the nominal host speed.
    pub fn rate(&self) -> f64 {
        self.raw_rate() / tick::scale(self.tick_ns)
    }
}

/// Splits a pass into windows: each is the run of consecutive units that
/// first spans [`WINDOW_S`]. The last, shorter window is dropped unless
/// it is the only one.
pub fn windows(pass: &Pass) -> Vec<Window> {
    let mut out = Vec::new();
    let (mut first, mut from_ns, mut loads) = (0, 0, 0);
    let close = |units: std::ops::Range<usize>, loads, span_ns| {
        let ticks: Vec<f64> = pass.units[units.clone()]
            .iter()
            .map(|u| u.tick_ns)
            .collect();
        Window {
            units,
            loads,
            span_ns,
            tick_ns: stats::median(&ticks),
        }
    };
    for (i, u) in pass.units.iter().enumerate() {
        loads += u.loads;
        if (u.end_ns - from_ns) as f64 >= WINDOW_S * 1e9 {
            out.push(close(first..i + 1, loads, u.end_ns - from_ns));
            (first, from_ns, loads) = (i + 1, u.end_ns, 0);
        }
    }
    if let Some(last) = pass.units.last().filter(|_| out.is_empty()) {
        out.push(close(first..pass.units.len(), loads, last.end_ns));
    }
    out
}

/// Median wall time of one load at the nominal host speed, ms, each unit
/// scaled by its window's reference tick. Unit `i` is of kind
/// `i % kinds` (the defense on `defended`); the median is taken per kind
/// and averaged over the kinds, since kinds that cost very different
/// amounts would put a median of all loads on the edge between two of them.
pub fn load_ms_p50(pass: &Pass, kinds: usize) -> f64 {
    let mut by_kind = vec![Vec::new(); kinds];
    for w in windows(pass) {
        let scale = tick::scale(w.tick_ns);
        for i in w.units {
            let u = &pass.units[i];
            if u.ok {
                by_kind[i % kinds].push(u.wall_ns as f64 / 1e6 / u.loads.max(1) as f64 * scale);
            }
        }
    }
    by_kind.iter().map(|v| stats::median(v)).sum::<f64>() / kinds as f64
}

/// Median over units of the live heap's rise while the unit ran, MiB.
pub fn heap_mib_p50(pass: &Pass) -> f64 {
    let mib: Vec<f64> = pass
        .units
        .iter()
        .filter(|u| u.ok)
        .map(|u| u.heap_bytes as f64 / (1 << 20) as f64)
        .collect();
    stats::median(&mib)
}

/// The end-to-end metrics of an untraced pass, in catalog order.
pub fn end_to_end(workload: Workload, pass: &Pass, setup_s: f64) -> Vec<(&'static Def, f64)> {
    let rates: Vec<f64> = windows(pass).iter().map(Window::rate).collect();
    let values = [
        stats::median(&rates),
        load_ms_p50(pass, workload.kinds()),
        setup_s,
        heap_mib_p50(pass),
    ];
    END_TO_END.iter().zip(values).collect()
}

/// The per-layer metrics of a traced pass, in catalog order. `untraced`
/// is the same workload timed without spans; `oracle` is its oracle
/// sample.
pub fn per_layer(
    workload: Workload,
    traced: &Pass,
    untraced: &Pass,
    oracle: &OracleReport,
) -> Vec<(&'static Def, f64)> {
    let c = traced.counts;
    let r = traced.replay;
    let totals = traced.totals();
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    let loads = traced.loads() as f64;
    let captures = c.captures as f64;
    let replays = r.loads as f64;
    // The call that runs the simulation: one load's scenario, or a whole
    // fleet shard (pair building included).
    let run = span(match workload {
        Workload::Fleet => "testkit.run_fleet_shard",
        _ => "netsim.run_scenario",
    });
    let adversary = span("core.adversary");
    let site = span("web.site_build");
    let score = span("analysis.analyze_capture");
    let unit_wall: Vec<f64> = traced.units.iter().map(|u| u.wall_ns as f64).collect();
    let busy_ns: f64 = unit_wall.iter().sum();
    let values = [
        ratio(c.events as f64, loads),
        ratio(
            c.far_inserts as f64,
            (c.near_inserts + c.far_inserts) as f64,
        ),
        ratio(run.self_ns as f64 / 1e3, loads),
        ratio(run.self_ns as f64, c.events as f64),
        1.0 - ratio(r.host_stack_ns() as f64, r.run_self_ns as f64),
        ratio(c.tap_segments as f64, captures),
        ratio(c.retransmissions as f64, c.segments_sent as f64),
        ratio(c.timeouts as f64, loads),
        ratio(r.tcp_ns as f64, r.tcp_segments as f64),
        ratio(r.records as f64, replays),
        ratio(c.wire_bytes as f64, captures),
        ratio(r.seal_ns as f64, r.records as f64),
        ratio(r.open_ns as f64, r.records as f64),
        ratio(r.seal_ns as f64, r.record_bytes as f64 / 1024.0),
        ratio(r.frames as f64, replays),
        ratio(r.encode_ns as f64, r.frames as f64),
        ratio(r.decode_ns as f64, r.frames as f64),
        ratio(r.hpack_encode_ns as f64, r.blocks as f64),
        ratio(r.hpack_decode_ns as f64, r.blocks as f64),
        ratio(site.dur_ns as f64 / 1e3, site.count as f64),
        ratio(c.requests as f64, captures),
        ratio(c.reissues as f64, c.requests as f64),
        ratio(adversary.count as f64, captures),
        ratio(adversary.dur_ns as f64, run.dur_ns as f64),
        ratio(r.identify_ns as f64 / 1e3, replays),
        ratio(score.dur_ns as f64 / 1e3, score.count as f64),
        ratio(r.extract_ns as f64 / 1e3, replays),
        ratio(c.dummies as f64, loads),
        ratio(c.detection_latency_us as f64 / 1e3, c.detected as f64),
        ratio(
            span("testkit.build_scenario").dur_ns as f64,
            span("load").dur_ns as f64,
        ),
        c.peak_resident as f64,
        unit_wall.iter().copied().fold(0.0, f64::max) / 1e6,
        ratio(busy_ns, c.events as f64),
        stats::percentile(&load_ms(traced), 99.0),
        ratio(oracle.oracle_ns as f64, oracle.plain_ns as f64) - 1.0,
        oracle.violations as f64,
        ratio(
            load_ms_p50(traced, workload.kinds()),
            load_ms_p50(untraced, workload.kinds()),
        ) - 1.0,
    ];
    PER_LAYER.iter().zip(values).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workload::UnitTime;

    /// BENCHMARK.json must describe exactly this catalog.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let list = |key: &str| match json::get(&doc, key) {
            Some(json::Json::Array(items)) => items.clone(),
            _ => panic!("{key} is a list"),
        };
        fn text<'a>(item: &'a json::Json, key: &str) -> Option<&'a str> {
            json::get(item, key).and_then(json::as_str)
        }
        let check = |key: &str, table: &[Def], bounded: bool| {
            let items = list(key);
            assert_eq!(items.len(), table.len(), "{key} length");
            for (item, d) in items.iter().zip(table) {
                assert_eq!(text(item, "name"), Some(d.name));
                assert_eq!(text(item, "unit"), Some(d.unit));
                assert_eq!(text(item, "better"), Some(d.better.name()));
                if bounded {
                    let bound = json::get(item, "bound").and_then(json::as_f64);
                    assert_eq!(bound, Some(d.bound));
                }
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
        let workloads = list("workloads");
        let names: Vec<&str> = workloads.iter().filter_map(|w| text(w, "name")).collect();
        let expect: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, expect);
    }

    fn unit(end_ms: u64, wall_ms: u64, tick_ns: f64) -> UnitTime {
        UnitTime {
            wall_ns: wall_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
            tick_ns,
            heap_bytes: wall_ms << 20,
            loads: 1,
            ok: true,
        }
    }

    #[test]
    fn windows_span_a_second_and_scale_by_their_ticks() {
        let nominal = tick::NOMINAL_NS;
        let slow = 2.0 * nominal;
        let pass = Pass {
            units: vec![
                // Three 400 ms loads with 10 ms gaps close the first window.
                unit(400, 400, nominal),
                unit(810, 400, nominal),
                unit(1220, 400, nominal),
                // On a host at half speed, two 800 ms loads close the next.
                unit(2020, 800, slow),
                unit(2820, 800, slow),
                // A partial window is dropped.
                unit(3000, 180, nominal),
            ],
            ..Pass::default()
        };
        let w = windows(&pass);
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].units.clone(), w[0].loads), (0..3, 3));
        assert_eq!((w[1].units.clone(), w[1].span_ns), (3..5, 1_600_000_000));
        assert!((w[0].raw_rate() - 3.0 / 1.22).abs() < 1e-9);
        assert!((w[1].raw_rate() - 1.25).abs() < 1e-9);
        // At the nominal speed the second window ran 2.5 loads per second.
        assert_eq!(w[0].rate(), w[0].raw_rate());
        assert!((w[1].rate() - 2.5).abs() < 1e-9);
        // Every load in a complete window took 400 ms at the nominal speed.
        assert!((load_ms_p50(&pass, 1) - 400.0).abs() < 1e-9);
        // Heap rises of 400, 400, 400, 800, 800 and 180 MiB.
        assert_eq!(heap_mib_p50(&pass), 400.0);

        // Two kinds of load alternating: the mean of their medians.
        let kinds = Pass {
            units: [10, 50, 11, 52, 9, 48]
                .iter()
                .scan(0, |end, &ms| {
                    *end += ms;
                    Some(unit(*end, ms, nominal))
                })
                .collect(),
            ..Pass::default()
        };
        assert!((load_ms_p50(&kinds, 2) - 30.0).abs() < 1e-9);

        // A pass shorter than a window is one window.
        let short = Pass {
            units: vec![unit(300, 300, nominal), unit(600, 300, nominal)],
            ..Pass::default()
        };
        let w = windows(&short);
        assert_eq!((w.len(), w[0].loads), (1, 2));
        assert!(windows(&Pass::default()).is_empty());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }
}
