//! The suite's report: schema, validator, and the noise-aware comparison
//! of two reports against the bounds in `BENCHMARK.json`.

use serde_json::{json, Map, Value};

use crate::json::{as_f64, as_str, get};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median};

/// Version tag every report carries; bump on any layout change.
pub const SCHEMA: &str = "betty-benchmark/1";

/// Both runs of one workload at one seed, each as `RunRecord::to_json`
/// wrote it (the suite reads them back from its child processes).
#[derive(Debug, Clone, PartialEq)]
pub struct SeedRuns {
    /// The untraced run (end-to-end metrics).
    pub e2e: Value,
    /// The traced run (per-layer metrics).
    pub layers: Value,
}

fn run_json(runs: &SeedRuns) -> Value {
    let both = [&runs.e2e, &runs.layers];
    let sum = |key: &str| -> f64 {
        both.iter()
            .filter_map(|r| get(r, key).and_then(as_f64))
            .sum()
    };
    let mut checks = Map::new();
    for record in both {
        if let Some(Value::Object(map)) = get(record, "checks") {
            for (name, check) in map {
                let ok = matches!(get(check, "ok"), Some(Value::Bool(true)));
                checks.insert(name.clone(), Value::Bool(ok));
            }
        }
    }
    json!({
        "seed": get(&runs.e2e, "seed").cloned().unwrap_or(Value::Null),
        "correct": both.iter().all(|r| matches!(get(r, "correct"), Some(Value::Bool(true)))),
        "attempted_epochs": sum("attempted"),
        "failed_epochs": sum("failed"),
        "e2e": get(&runs.e2e, "metrics").cloned().unwrap_or(Value::Null),
        "layers": get(&runs.layers, "metrics").cloned().unwrap_or(Value::Null),
        "checks": Value::Object(checks),
    })
}

/// Assembles the report from each workload's runs.
pub fn build_report(
    machine: Value,
    seconds: f64,
    workloads: &[(&str, &str, Vec<SeedRuns>)],
) -> Value {
    let units: Map<String, Value> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|d| (d.name.to_owned(), Value::String(d.unit.to_owned())))
        .collect();
    let body: Map<String, Value> = workloads
        .iter()
        .map(|(name, why, runs)| {
            let runs: Vec<Value> = runs.iter().map(run_json).collect();
            ((*name).to_owned(), json!({ "why": *why, "runs": runs }))
        })
        .collect();
    json!({
        "schema": SCHEMA,
        "machine": machine,
        "seconds": seconds,
        "units": Value::Object(units),
        "workloads": Value::Object(body),
    })
}

fn check_metric_object(
    path: &str,
    value: Option<&Value>,
    table: &[MetricDef],
    problems: &mut Vec<String>,
) {
    let Some(Value::Object(map)) = value else {
        problems.push(format!("{path} is not an object"));
        return;
    };
    for def in table {
        match map.get(def.name) {
            Some(Value::Number(_)) => {}
            Some(_) => problems.push(format!("{path}.{} is not a number", def.name)),
            None => problems.push(format!("{path}.{} is missing", def.name)),
        }
    }
    for key in map.keys() {
        if !table.iter().any(|d| d.name == key) {
            problems.push(format!("{path}.{key} is not a known metric"));
        }
    }
}

/// Checks a parsed report against the schema: version, machine block,
/// units for every metric, and per run every metric as a number and every
/// check as a boolean. Returns every problem found.
///
/// # Errors
///
/// The list of violations, one line each.
pub fn validate_report(report: &Value) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    match get(report, "schema").and_then(as_str) {
        Some(SCHEMA) => {}
        other => problems.push(format!("schema is {other:?}, expected {SCHEMA:?}")),
    }
    for key in [
        "nproc",
        "threads",
        "simd_level",
        "backend",
        "precision",
        "rustc",
        "git_rev",
    ] {
        if get(report, "machine").and_then(|m| get(m, key)).is_none() {
            problems.push(format!("machine.{key} is missing"));
        }
    }
    if get(report, "seconds").and_then(as_f64).is_none() {
        problems.push("seconds is not a number".into());
    }
    for def in END_TO_END.iter().chain(PER_LAYER) {
        if get(report, "units")
            .and_then(|u| get(u, def.name))
            .and_then(as_str)
            != Some(def.unit)
        {
            problems.push(format!("units.{} is not {:?}", def.name, def.unit));
        }
    }
    match get(report, "workloads") {
        Some(Value::Object(workloads)) if !workloads.is_empty() => {
            for (name, body) in workloads {
                if get(body, "why").and_then(as_str).is_none() {
                    problems.push(format!("workloads.{name}.why is missing"));
                }
                let Some(Value::Array(runs)) = get(body, "runs") else {
                    problems.push(format!("workloads.{name}.runs is not an array"));
                    continue;
                };
                if runs.is_empty() {
                    problems.push(format!("workloads.{name}.runs is empty"));
                }
                for (i, run) in runs.iter().enumerate() {
                    let path = format!("workloads.{name}.runs[{i}]");
                    for key in ["seed", "attempted_epochs", "failed_epochs"] {
                        if get(run, key).and_then(as_f64).is_none() {
                            problems.push(format!("{path}.{key} is not a number"));
                        }
                    }
                    if !matches!(get(run, "correct"), Some(Value::Bool(_))) {
                        problems.push(format!("{path}.correct is not a boolean"));
                    }
                    check_metric_object(
                        &format!("{path}.e2e"),
                        get(run, "e2e"),
                        END_TO_END,
                        &mut problems,
                    );
                    check_metric_object(
                        &format!("{path}.layers"),
                        get(run, "layers"),
                        PER_LAYER,
                        &mut problems,
                    );
                    match get(run, "checks") {
                        Some(Value::Object(checks))
                            if checks.values().all(|v| matches!(v, Value::Bool(_))) => {}
                        _ => problems.push(format!("{path}.checks is not an object of booleans")),
                    }
                }
            }
        }
        _ => problems.push("workloads is not a non-empty object".into()),
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

/// Direction and regression bound of one end-to-end metric, as
/// `BENCHMARK.json` fixes them.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the base's median the metric may worsen by.
    pub bound: f64,
}

/// Reads the end-to-end bounds out of a parsed `BENCHMARK.json`.
///
/// # Errors
///
/// A message naming the malformed entry.
pub fn bounds_from_benchmark_json(doc: &Value) -> Result<Vec<Bound>, String> {
    let Some(Value::Array(items)) = get(doc, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    items
        .iter()
        .map(|item| {
            let name = get(item, "name")
                .and_then(as_str)
                .ok_or("end_to_end entry without a name")?;
            let higher_is_better = match get(item, "better").and_then(as_str) {
                Some("higher") => true,
                Some("lower") => false,
                other => return Err(format!("{name}: better is {other:?}")),
            };
            let bound = get(item, "bound")
                .and_then(as_f64)
                .filter(|b| (0.0..=0.25).contains(b))
                .ok_or(format!("{name}: bound is missing or outside 0..0.25"))?;
            Ok(Bound {
                name: name.to_owned(),
                higher_is_better,
                bound,
            })
        })
        .collect()
}

/// What `compare` concludes about one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// One side's inter-quartile spread exceeds the bound: the runs cannot
    /// tell a change of that size from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case name as printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of `compare`'s table.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Workload name.
    pub workload: String,
    /// End-to-end metric name.
    pub metric: String,
    /// Median over A's runs (the base of the ratio).
    pub a_median: f64,
    /// Median over B's runs.
    pub b_median: f64,
    /// Inter-quartile spread of A's runs as a share of its median.
    pub a_spread: f64,
    /// Inter-quartile spread of B's runs as a share of its median.
    pub b_spread: f64,
    /// Runs on each side.
    pub runs: (usize, usize),
    /// `b_median / a_median`.
    pub ratio: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

fn metric_values(report: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let runs = get(report, "workloads")
        .and_then(|w| get(w, workload))
        .and_then(|w| get(w, "runs"));
    match runs {
        Some(Value::Array(runs)) => runs
            .iter()
            .filter_map(|r| get(r, "e2e").and_then(|m| get(m, metric)).and_then(as_f64))
            .collect(),
        _ => Vec::new(),
    }
}

/// Judges B's values against A's for one metric.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> (f64, Verdict) {
    let (am, bm) = (median(a), median(b));
    let ratio = bm / am;
    let worse_by = if bound.higher_is_better {
        1.0 - ratio
    } else {
        ratio - 1.0
    };
    let verdict = if iqr_share(a) > bound.bound || iqr_share(b) > bound.bound {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (ratio, verdict)
}

/// One row per (workload, end-to-end metric) present in both reports,
/// workloads by name and metrics in `BENCHMARK.json`'s order.
///
/// # Errors
///
/// A message when the reports share no workload or a shared workload
/// lacks a metric on one side.
pub fn compare_reports(a: &Value, b: &Value, bounds: &[Bound]) -> Result<Vec<CompareRow>, String> {
    let Some(Value::Object(a_workloads)) = get(a, "workloads") else {
        return Err("report A has no workloads".into());
    };
    let mut rows = Vec::new();
    for workload in a_workloads.keys() {
        if get(b, "workloads").and_then(|w| get(w, workload)).is_none() {
            continue;
        }
        for bound in bounds {
            let av = metric_values(a, workload, &bound.name);
            let bv = metric_values(b, workload, &bound.name);
            if av.is_empty() || bv.is_empty() {
                return Err(format!(
                    "{workload}.{} is missing from one report",
                    bound.name
                ));
            }
            let (ratio, verdict) = judge(&av, &bv, bound);
            rows.push(CompareRow {
                workload: workload.clone(),
                metric: bound.name.clone(),
                a_median: median(&av),
                b_median: median(&bv),
                a_spread: iqr_share(&av),
                b_spread: iqr_share(&bv),
                runs: (av.len(), bv.len()),
                ratio,
                bound: bound.bound,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the reports share no workload".into());
    }
    Ok(rows)
}

/// The table `compare` prints: both medians, the ratio with its base, the
/// bound, and the verdict.
pub fn render_rows(rows: &[CompareRow]) -> String {
    let mut out = format!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>8} {:>8} {:>6} {:>7}  {}\n",
        "workload",
        "metric",
        "A median",
        "B median",
        "B/A",
        "A iqr",
        "B iqr",
        "bound",
        "runs",
        "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<24} {:>14.6} {:>14.6} {:>9.4} {:>7.2}% {:>7.2}% {:>5.0}% {:>3}/{:<3}  {}\n",
            r.workload,
            r.metric,
            r.a_median,
            r.b_median,
            r.ratio,
            100.0 * r.a_spread,
            100.0 * r.b_spread,
            100.0 * r.bound,
            r.runs.0,
            r.runs.1,
            r.verdict.name(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::metrics::{Check, RunRecord};

    fn record(traced: bool, scale: f64) -> RunRecord {
        let table = if traced { PER_LAYER } else { END_TO_END };
        RunRecord {
            workload: "mean2_k8".into(),
            seed: 1,
            traced,
            attempted: 7,
            failed: 0,
            metrics: table
                .iter()
                .enumerate()
                .map(|(i, d)| (d.name, scale * (1.0 + i as f64)))
                .collect(),
            checks: vec![Check::new(if traced { "t" } else { "u" }, true, "")],
        }
    }

    fn machine() -> Value {
        json!({
            "nproc": 2usize, "threads": 2usize, "simd_level": "avx2", "backend": "simd",
            "precision": "f32", "rustc": "rustc 1.0", "git_rev": "unknown",
        })
    }

    fn report(scales: &[f64]) -> Value {
        let runs: Vec<SeedRuns> = scales
            .iter()
            .map(|&s| SeedRuns {
                e2e: record(false, s).to_json(),
                layers: record(true, s).to_json(),
            })
            .collect();
        build_report(machine(), 10.0, &[("mean2_k8", "why", runs)])
    }

    #[test]
    fn report_round_trips_through_the_validator() {
        let doc = report(&[1.0, 1.01]);
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, doc);
        validate_report(&parsed).unwrap();
        // No string-formatted numbers: every metric cell is a Number.
        let run = &get(
            get(get(&parsed, "workloads").unwrap(), "mean2_k8").unwrap(),
            "runs",
        )
        .unwrap();
        let Value::Array(runs) = run else { panic!() };
        assert!(matches!(
            get(get(&runs[0], "e2e").unwrap(), "epoch_wall_s"),
            Some(Value::Number(_))
        ));
    }

    #[test]
    fn validator_names_what_is_wrong() {
        let mut doc = report(&[1.0]);
        let Value::Object(map) = &mut doc else {
            panic!()
        };
        map.insert("schema".into(), Value::String("other/9".into()));
        map.remove("seconds");
        let Some(Value::Object(workloads)) = map.get_mut("workloads") else {
            panic!()
        };
        let Some(Value::Object(body)) = workloads.get_mut("mean2_k8") else {
            panic!()
        };
        let Some(Value::Array(runs)) = body.get_mut("runs") else {
            panic!()
        };
        let Value::Object(run) = &mut runs[0] else {
            panic!()
        };
        let Some(Value::Object(e2e)) = run.get_mut("e2e") else {
            panic!()
        };
        e2e.insert("epoch_wall_s".into(), Value::String("1.73x".into()));
        e2e.remove("setup_s");
        e2e.insert("made_up".into(), Value::Number(1.0));
        let problems = validate_report(&doc).unwrap_err().join("\n");
        for needle in [
            "schema is",
            "seconds is not a number",
            "e2e.epoch_wall_s is not a number",
            "e2e.setup_s is missing",
            "e2e.made_up is not a known metric",
        ] {
            assert!(
                problems.contains(needle),
                "missing {needle:?} in:\n{problems}"
            );
        }
        assert!(validate_report(&Value::Null).is_err());
    }

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "epoch_wall_s".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let tight = [1.00, 1.01, 0.99, 1.00, 1.005, 0.995, 1.0, 1.0, 1.01, 0.99];
        let slower: Vec<f64> = tight.iter().map(|v| v * 1.2).collect();
        let faster: Vec<f64> = tight.iter().map(|v| v * 0.7).collect();
        let within: Vec<f64> = tight.iter().map(|v| v * 1.08).collect();
        let noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0];
        assert_eq!(judge(&tight, &slower, &lower(0.1)).1, Verdict::Regressed);
        assert_eq!(judge(&tight, &faster, &lower(0.1)).1, Verdict::Ok);
        assert_eq!(judge(&tight, &within, &lower(0.1)).1, Verdict::Ok);
        assert_eq!(judge(&tight, &noisy, &lower(0.1)).1, Verdict::Unresolved);
        assert_eq!(judge(&noisy, &tight, &lower(0.1)).1, Verdict::Unresolved);
        // Direction: for a throughput, lower is the regression.
        let higher = Bound {
            name: "throughput".into(),
            higher_is_better: true,
            bound: 0.1,
        };
        assert_eq!(judge(&tight, &faster, &higher).1, Verdict::Regressed);
        assert_eq!(judge(&tight, &slower, &higher).1, Verdict::Ok);
        // The ratio's base is A.
        assert!((judge(&tight, &slower, &lower(0.1)).0 - 1.2).abs() < 1e-9);
        // A single run per side has no spread to be unresolved about.
        assert_eq!(judge(&[1.0], &[1.05], &lower(0.1)).1, Verdict::Ok);
        assert_eq!(judge(&[1.0], &[1.2], &lower(0.1)).1, Verdict::Regressed);
    }

    #[test]
    fn compare_walks_every_metric_of_every_shared_workload() {
        let bounds_doc = parse(
            r#"{"end_to_end": [
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.15},
                {"name": "epoch_wall_s", "unit": "s", "better": "lower", "bound": 0.25}
            ]}"#,
        )
        .unwrap();
        let bounds = bounds_from_benchmark_json(&bounds_doc).unwrap();
        assert_eq!(bounds.len(), 2);
        assert!(!bounds[1].higher_is_better);
        let a = report(&[1.0, 1.0, 1.0]);
        let b = report(&[1.2, 1.2, 1.2]);
        let rows = compare_reports(&a, &b, &bounds).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, Verdict::Regressed); // set-up 20 % slower, bound 15 %
        assert_eq!(rows[1].verdict, Verdict::Ok); // epochs 20 % slower, bound 25 %
        assert_eq!(rows[0].runs, (3, 3));
        let table = render_rows(&rows);
        assert!(table.contains("regressed") && table.contains("epoch_wall_s"));
        let same = compare_reports(&a, &a, &bounds).unwrap();
        assert!(same
            .iter()
            .all(|r| r.verdict == Verdict::Ok && r.ratio == 1.0));
        assert!(bounds_from_benchmark_json(
            &parse(r#"{"end_to_end": [{"name": "x", "better": "sideways", "bound": 0.1}]}"#)
                .unwrap()
        )
        .is_err());
        assert!(bounds_from_benchmark_json(
            &parse(r#"{"end_to_end": [{"name": "x", "better": "lower", "bound": 0.9}]}"#).unwrap()
        )
        .is_err());
    }
}
