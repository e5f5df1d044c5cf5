//! Reading result records back: the A/B verdicts of `--compare` and the
//! baseline summary of `--summarize`.
//!
//! A record is one JSON line a run appends with `--jsonl`. Only untraced
//! records carry end-to-end timings worth comparing; traced records carry
//! the layer table.

use std::collections::BTreeMap;

use crate::host::Fingerprint;
use crate::json::{self, object, Json, ToJson};
use crate::metrics::{Def, END_TO_END};
use crate::stats;
use crate::workload::Workload;

/// One parsed result record.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: String,
    pub traced: bool,
    pub host: Fingerprint,
    pub attempted: f64,
    pub failed: f64,
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl Record {
    pub fn parse(line: &str) -> Result<Record, String> {
        let v = json::parse(line)?;
        let field = |k: &str| json::get(&v, k).ok_or_else(|| format!("record lacks {k:?}"));
        let number = |k: &str| json::as_f64(field(k)?).ok_or(format!("{k} is a number"));
        let Json::Object(fields) = field("metrics")? else {
            return Err("metrics is an object".to_owned());
        };
        let metrics = fields
            .iter()
            .filter_map(|(name, m)| {
                let value = json::as_f64(json::get(m, "value")?)?;
                let unit = json::as_str(json::get(m, "unit")?)?.to_owned();
                Some((name.clone(), (value, unit)))
            })
            .collect();
        Ok(Record {
            workload: json::as_str(field("workload")?)
                .ok_or("workload is a string")?
                .to_owned(),
            traced: json::as_bool(field("traced")?).ok_or("traced is a bool")?,
            host: Fingerprint::from_json(field("host")?).ok_or("malformed host fingerprint")?,
            attempted: number("attempted")?,
            failed: number("failed")?,
            metrics,
        })
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|(v, _)| *v)
    }
}

/// Parses every non-empty line of a JSON-lines file.
pub fn parse_lines(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| Record::parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of interleaved pairs `(a[i], b[i])` in which B reads better; ties
/// count for neither side.
pub fn win_share(def: &Def, a: &[f64], b: &[f64]) -> f64 {
    let pairs = a.len().min(b.len());
    if pairs == 0 {
        return 0.0;
    }
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| def.better.improves(**x, **y))
        .count();
    wins as f64 / pairs as f64
}

/// The rule of the choosing-metrics guide, parent A against change B:
/// - regressed: B's median is worse than A's by more than the bound;
/// - unresolved: otherwise, either side's spread (interquartile range
///   over median) exceeds the bound, unless every B run beats every A run;
/// - improved: B wins at least 9 of 10 pairs and the medians differ by
///   more than A's interquartile range;
/// - unchanged: anything else.
pub fn verdict(def: &Def, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match def.better {
        crate::metrics::Better::Lower => mb - ma,
        crate::metrics::Better::Higher => ma - mb,
    } / ma.abs().max(f64::MIN_POSITIVE);
    if worse_by > def.bound {
        return Verdict::Regressed;
    }
    let spread = stats::relative_spread(a).max(stats::relative_spread(b));
    let every_run_better = a
        .iter()
        .all(|x| b.iter().all(|y| def.better.improves(*x, *y)));
    if spread > def.bound && !every_run_better {
        return Verdict::Unresolved;
    }
    let (q1, q3) = stats::quartiles(a);
    if win_share(def, a, b) >= 0.9 && def.better.improves(ma, mb) && (mb - ma).abs() > q3 - q1 {
        return Verdict::Improved;
    }
    Verdict::Unchanged
}

fn untraced_by_workload(records: &[Record]) -> BTreeMap<&str, Vec<&Record>> {
    let mut out: BTreeMap<&str, Vec<&Record>> = BTreeMap::new();
    for r in records.iter().filter(|r| !r.traced) {
        out.entry(r.workload.as_str()).or_default().push(r);
    }
    out
}

fn single_host<'a>(
    records: impl IntoIterator<Item = &'a Record>,
) -> Result<&'a Fingerprint, String> {
    let mut records = records.into_iter();
    let first = &records.next().ok_or("no records")?.host;
    match records.find(|r| &r.host != first) {
        Some(other) => Err(format!(
            "refusing to compare results from different hosts: {first:?} vs {:?}",
            other.host
        )),
        None => Ok(first),
    }
}

/// Compares parent runs `a` with change runs `b`, pairing them in file
/// order. Returns the report and whether any metric regressed.
pub fn compare(a: &[Record], b: &[Record]) -> Result<(String, bool), String> {
    let host = single_host(a.iter().chain(b))?;
    let (ga, gb) = (untraced_by_workload(a), untraced_by_workload(b));
    let mut out = format!(
        "host: {} cpus, {}, kernel {}\n\
         | workload | metric | A median [q1, q3] | B median [q1, q3] | B wins | verdict |\n\
         |---|---|---|---|---|---|\n",
        host.cpus, host.model, host.kernel
    );
    let mut regressed = false;
    for w in Workload::ALL.iter().map(|w| w.name()) {
        let (Some(ra), Some(rb)) = (ga.get(w), gb.get(w)) else {
            continue;
        };
        for def in &END_TO_END {
            let a: Vec<f64> = ra.iter().filter_map(|r| r.value(def.name)).collect();
            let b: Vec<f64> = rb.iter().filter_map(|r| r.value(def.name)).collect();
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let v = verdict(def, &a, &b);
            regressed |= v == Verdict::Regressed;
            let side = |x: &[f64]| {
                let (q1, q3) = stats::quartiles(x);
                format!("{:.4} [{:.4}, {:.4}]", stats::median(x), q1, q3)
            };
            out.push_str(&format!(
                "| {w} | {} ({}) | {} | {} | {}/{} | {} |\n",
                def.name,
                def.unit,
                side(&a),
                side(&b),
                (win_share(def, &a, &b) * a.len().min(b.len()) as f64).round(),
                a.len().min(b.len()),
                v.name()
            ));
        }
        let failed_share = |rs: &[&Record]| {
            let attempted: f64 = rs.iter().map(|r| r.attempted).sum();
            rs.iter().map(|r| r.failed).sum::<f64>() / attempted.max(1.0)
        };
        let (fa, fb) = (failed_share(ra), failed_share(rb));
        let v = if fb > fa {
            Verdict::Regressed
        } else if fb < fa {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
        regressed |= v == Verdict::Regressed;
        out.push_str(&format!(
            "| {w} | failed_share (fraction) | {fa} | {fb} | - | {} |\n",
            v.name()
        ));
    }
    Ok((out, regressed))
}

/// The baseline of a set of runs: the host, and per workload the median
/// and quartiles of each end-to-end metric over the untraced runs plus
/// the layer table of the first traced run.
pub fn summarize(records: &[Record]) -> Result<Json, String> {
    let host = single_host(records)?;
    let untraced = untraced_by_workload(records);
    let mut workloads = Vec::new();
    for w in Workload::ALL.iter().map(|w| w.name()) {
        let runs = untraced.get(w).cloned().unwrap_or_default();
        let e2e = END_TO_END.iter().filter_map(|def| {
            let x: Vec<f64> = runs.iter().filter_map(|r| r.value(def.name)).collect();
            (!x.is_empty()).then(|| {
                let (q1, q3) = stats::quartiles(&x);
                (
                    def.name,
                    object([
                        ("median", stats::median(&x).to_json()),
                        ("q1", q1.to_json()),
                        ("q3", q3.to_json()),
                        ("unit", def.unit.to_json()),
                    ]),
                )
            })
        });
        let layers = records
            .iter()
            .find(|r| r.traced && r.workload == w)
            .map(|r| {
                json::object_of(
                    r.metrics
                        .iter()
                        .filter(|(name, _)| {
                            crate::metrics::PER_LAYER.iter().any(|d| d.name == *name)
                        })
                        .map(|(name, (v, unit))| {
                            (
                                name.as_str(),
                                object([("value", v.to_json()), ("unit", unit.to_json())]),
                            )
                        }),
                )
            })
            .unwrap_or(Json::Null);
        workloads.push((
            w,
            object([
                ("untraced_runs", runs.len().to_json()),
                ("end_to_end", json::object_of(e2e)),
                ("per_layer", layers),
            ]),
        ));
    }
    Ok(object([
        ("host", host.to_json()),
        ("workloads", json::object_of(workloads)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::def;

    fn record(host: &str, workload: &str, metrics: &[(&str, f64)]) -> Record {
        Record {
            workload: workload.to_owned(),
            traced: false,
            host: Fingerprint {
                cpus: 2,
                model: host.to_owned(),
                kernel: "6.1".to_owned(),
            },
            attempted: 100.0,
            failed: 0.0,
            metrics: metrics
                .iter()
                .map(|(n, v)| (n.to_string(), (*v, "x".to_owned())))
                .collect(),
        }
    }

    #[test]
    fn nine_of_ten_wins_beyond_the_parent_spread_is_improved() {
        let d = def("load_ms_p50").unwrap();
        let a = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        // B is 8% faster in 9 pairs and loses the last one.
        let mut b: Vec<f64> = a.iter().map(|x| x * 0.92).collect();
        b[9] = 10.5;
        assert!((win_share(d, &a, &b) - 0.9).abs() < 1e-12);
        assert_eq!(verdict(d, &a, &b), Verdict::Improved);
        // Eight wins of ten are not enough.
        b[8] = 10.5;
        assert_eq!(verdict(d, &a, &b), Verdict::Unchanged);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let d = def("loads_per_s").unwrap();
        let a = [100.0, 70.0, 130.0, 90.0, 110.0];
        let b = [101.0, 69.0, 131.0, 92.0, 108.0];
        assert_eq!(verdict(d, &a, &b), Verdict::Unresolved);
        let better = [140.0, 141.0, 150.0, 145.0, 200.0];
        assert_eq!(verdict(d, &a, &better), Verdict::Improved);
        // A worse median beyond the bound is a regression whatever the spread.
        let worse = [60.0, 50.0, 80.0, 70.0, 75.0];
        assert_eq!(verdict(d, &a, &worse), Verdict::Regressed);
    }

    #[test]
    fn small_moves_within_the_bound_are_unchanged() {
        let d = def("load_ms_p50").unwrap();
        let a = [4.0, 4.1, 3.9, 4.0, 4.05];
        let b = [4.1, 4.15, 4.0, 4.12, 4.2];
        assert_eq!(verdict(d, &a, &b), Verdict::Unchanged);
    }

    #[test]
    fn different_hosts_are_refused() {
        let a = vec![record("Xeon", "pageload", &[("loads_per_s", 100.0)])];
        let b = vec![record("EPYC", "pageload", &[("loads_per_s", 100.0)])];
        assert!(compare(&a, &b).unwrap_err().contains("different hosts"));
        let (report, regressed) = compare(&a, &a).unwrap();
        assert!(!regressed);
        assert!(report.contains("| pageload | loads_per_s (1/s) |"));
    }

    #[test]
    fn records_round_trip_and_summarize() {
        let r = record("Xeon", "attack", &[("load_ms_p50", 5.0)]);
        let line = format!(
            "{{\"workload\": \"attack\", \"traced\": false, \"host\": {}, \"attempted\": 100, \
             \"failed\": 0, \"metrics\": {{\"load_ms_p50\": {{\"value\": 5, \"unit\": \"ms\"}}}}}}",
            json::to_line(&r.host.to_json())
        );
        let parsed = parse_lines(&format!("{line}\n\n{line}\n")).unwrap();
        assert_eq!(parsed.len(), 2);
        let summary = json::to_line(&summarize(&parsed).unwrap());
        assert!(summary.contains("\"load_ms_p50\": {\"median\": 5.0,\"q1\": 5.0,\"q3\": 5.0"));
    }
}
