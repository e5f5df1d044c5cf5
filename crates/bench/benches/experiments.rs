//! Whole-experiment benchmarks: one bench target per paper exhibit,
//! measuring the cost of a single trial under that exhibit's condition.
//! (The `repro` binary aggregates 100-trial batches; these benches keep
//! `cargo bench` bounded while still executing every exhibit's code path.)

use std::time::Duration;

use h2priv_bench::harness::{black_box, Harness};
use h2priv_core::experiment::{
    analyze_trial, calibrate_size_map, objects_of_interest, paper_scenario, run_paper_trial,
};
use h2priv_core::{AttackConfig, MonitorConfig, TrafficMonitor};
use h2priv_netsim::{mbps, SimDuration};

fn bench_fig1(h: &mut Harness) {
    h.bench("fig1_boundaries/both_cases", || {
        black_box(h2priv_bench::fig1::run());
    });
}

fn bench_table1(h: &mut Harness) {
    h.bench("table1_jitter/baseline_trial", || {
        black_box(run_paper_trial(1, None, |_| {}));
    });
    let attack = AttackConfig::jitter_only(SimDuration::from_millis(50));
    h.bench("table1_jitter/jitter50_trial", move || {
        black_box(run_paper_trial(1, Some(&attack), |_| {}));
    });
}

fn bench_fig5(h: &mut Harness) {
    let attack = AttackConfig::jitter_and_throttle(SimDuration::from_millis(50), mbps(14));
    h.bench("fig5_bandwidth/jitter50_throttle14_trial", move || {
        black_box(run_paper_trial(1, Some(&attack), |_| {}));
    });
}

fn bench_ivd(h: &mut Harness) {
    let attack = AttackConfig::paper_attack();
    h.bench("ivd_stream_reset/drop80_trial", move || {
        black_box(run_paper_trial(1, Some(&attack), |_| {}));
    });
}

fn bench_table2(h: &mut Harness) {
    let (iw, _) = paper_scenario(0);
    let objects = objects_of_interest(&iw);
    let map = calibrate_size_map(&objects);
    let attack = AttackConfig::paper_attack();
    h.bench("table2_attack/full_attack_trial_with_analysis", move || {
        let trial = run_paper_trial(1, Some(&attack), |_| {});
        let start = trial
            .adversary
            .as_ref()
            .and_then(|a| a.analysis_start(&attack));
        let objects = objects_of_interest(&trial.iw);
        black_box(analyze_trial(&trial, &map, &objects, start));
    });
    h.bench("table2_attack/calibrate_size_map", move || {
        black_box(calibrate_size_map(&objects));
    });
}

fn bench_analysis(h: &mut Harness) {
    let trial = run_paper_trial(1, None, |_| {});
    {
        let trace = trial.result.trace.clone();
        h.bench("analysis_pipeline/extract_records_full_trace", move || {
            black_box(h2priv_analysis::extract_records(&trace));
        });
    }
    {
        let attacked = run_paper_trial(1, Some(&AttackConfig::paper_attack()), |_| {});
        let trace = attacked.result.trace;
        h.bench("analysis_pipeline/monitor_observe_full_trace", move || {
            let mut monitor = TrafficMonitor::new(MonitorConfig::default());
            for packet in &trace.packets {
                black_box(monitor.observe(packet));
            }
            black_box(monitor.gets_seen());
        });
    }
    let records = h2priv_analysis::extract_records(&trial.result.trace);
    let data = h2priv_analysis::app_data_records(&records, h2priv_netsim::Dir::RightToLeft);
    h.bench("analysis_pipeline/segment_bursts", move || {
        black_box(h2priv_analysis::segment_bursts(
            &data,
            h2priv_core::experiment::BURST_GAP,
        ));
    });
    h.bench(
        "analysis_pipeline/degree_of_multiplexing_all_objects",
        || {
            for object in trial.iw.site.objects() {
                black_box(trial.result.truth.min_degree_for(object.id));
            }
        },
    );
}

fn main() {
    let mut h = Harness::default();
    // Whole-trial bodies are expensive; keep the measurement budget small.
    h.measurement_time(Duration::from_millis(150));
    bench_fig1(&mut h);
    bench_table1(&mut h);
    bench_fig5(&mut h);
    bench_ivd(&mut h);
    bench_table2(&mut h);
    bench_analysis(&mut h);
    h.finish();
}
