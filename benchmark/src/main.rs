//! The repo benchmark: one command that runs a workload, checks the
//! program's outputs and prints every metric by name with its unit.
//!
//! ```text
//! betty-benchmark run --workload NAME --seed N --seconds S --trace 0|1 [--out FILE] [--smoke]
//! betty-benchmark run [--workload NAME] [--seed N] [--reps R] [--seconds S] [--out FILE] [--smoke]
//! betty-benchmark compare A.json B.json
//! betty-benchmark selfcheck [--seed N] [--reps R] [--seconds S] [--smoke]
//! ```
//!
//! The first form is what the driver calls (`BENCHMARK.json`'s `command`
//! ends in `run`): one workload, one process, the result as the last line
//! of standard output. Without `--trace` the same binary runs as a suite:
//! every workload, traced and untraced, each in a child process of its
//! own so `runtime.host_peak_rss_bytes` is that workload's alone, merged into one
//! schema-versioned report.
//!
//! It only calls the public API of the layers; see `README.md` for what
//! each metric means and which layer should move which number.

mod e2e;
mod json;
mod layers;
mod machine;
mod metrics;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use crate::metrics::RunRecord;
use crate::report::{SeedRuns, Verdict};
use crate::workloads::{results_dir, Workload};

/// `run_seconds` of `BENCHMARK.json`, for invocations that omit
/// `--seconds` (a unit test keeps the two equal).
const DEFAULT_SECONDS: f64 = 22.0;

const USAGE: &str = "usage:
  betty-benchmark run --workload NAME --seed N --seconds S --trace 0|1 [--out FILE] [--smoke]
  betty-benchmark run [--workload NAME] [--seed N] [--reps R] [--seconds S] [--out FILE] [--smoke]
  betty-benchmark compare A.json B.json
  betty-benchmark selfcheck [--seed N] [--reps R] [--seconds S] [--smoke]";

/// Options of `run` and `selfcheck`.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    reps: usize,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        reps: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use {value:?}");
        match flag.as_str() {
            "--workload" => {
                workloads::find(value).ok_or_else(|| {
                    let names: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?;
                parsed.workload = Some(value.clone());
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--reps" => parsed.reps = value.parse().ok().filter(|&r| r >= 1).ok_or_else(bad)?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(parsed)
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn profile(workload: Workload, smoke: bool) -> Workload {
    if smoke {
        workload.smoke()
    } else {
        workload
    }
}

/// One workload, traced or not, in this process.
fn run_one(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<RunRecord, String> {
    workloads::pin_process_settings();
    let record = if traced {
        let (record, trace) = layers::run_traced(w, seed, seconds)?;
        let path = results_dir().join(format!("trace-{}.jsonl", w.name));
        write_file(&path, &trace.to_jsonl())?;
        record
    } else {
        e2e::run_e2e(w, seed, seconds)?
    };
    let mismatches = record.table_mismatches();
    if !mismatches.is_empty() {
        return Err(format!("{}: {}", w.name, mismatches.join("; ")));
    }
    Ok(record)
}

/// The driver's form: print every metric and check, then the result line.
fn single_run(args: &RunArgs, name: &str, traced: bool) -> Result<ExitCode, String> {
    let w = profile(
        workloads::find(name).expect("validated while parsing"),
        args.smoke,
    );
    let record = run_one(&w, args.seed, args.seconds, traced)?;
    if let Some(out) = &args.out {
        let text = serde_json::to_string_pretty(&record.to_json()).expect("record serializes");
        write_file(out, &text)?;
    }
    print!("{}", record.human_lines());
    println!("{}", record.result_line());
    Ok(if record.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Runs one (workload, seed, trace) in a child process and reads its
/// record back. The child's own output is shown as it arrives.
fn child_run(
    args: &RunArgs,
    name: &str,
    seed: u64,
    traced: bool,
    tmp: &Path,
) -> Result<Value, String> {
    let out = tmp.join(format!("{name}-{seed}-{}.json", u8::from(traced)));
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .stdin(Stdio::null());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `status` waits for the child to end.
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    if !out.exists() {
        return Err(format!(
            "{name} seed {seed} trace {}: child ended with {status} and no record",
            u8::from(traced)
        ));
    }
    read_json(&out)
}

/// Every selected workload × seed, traced and untraced, as one report.
fn suite(args: &RunArgs, out: &Path) -> Result<bool, String> {
    let tmp = results_dir().join(format!("tmp-{}-suite", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let selected: Vec<Workload> = workloads::all()
        .into_iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    let mut body = Vec::new();
    let mut all_correct = true;
    for w in &selected {
        let mut runs = Vec::new();
        for seed in args.seed..args.seed + args.reps as u64 {
            let e2e = child_run(args, w.name, seed, false, &tmp)?;
            let layers = child_run(args, w.name, seed, true, &tmp)?;
            for record in [&e2e, &layers] {
                all_correct &= matches!(json::get(record, "correct"), Some(Value::Bool(true)));
            }
            runs.push(SeedRuns { e2e, layers });
        }
        body.push((w.name, w.why, runs));
    }
    let report = report::build_report(machine::machine_block(), args.seconds, &body);
    report::validate_report(&report)
        .map_err(|p| format!("report fails its own schema:\n{}", p.join("\n")))?;
    write_file(
        out,
        &serde_json::to_string_pretty(&report).expect("report serializes"),
    )?;
    let _ = std::fs::remove_dir_all(&tmp);
    println!("report written to {}", out.display());
    Ok(all_correct)
}

fn load_bounds() -> Result<Vec<report::Bound>, String> {
    let path = workloads::benchmark_dir().join("../BENCHMARK.json");
    report::bounds_from_benchmark_json(&read_json(&path)?)
}

/// Prints the comparison table; true when every row is `ok`.
fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (read_json(a)?, read_json(b)?);
    for (side, doc) in [("A", &a), ("B", &b)] {
        report::validate_report(doc)
            .map_err(|p| format!("report {side} fails the schema:\n{}", p.join("\n")))?;
    }
    let rows = report::compare_reports(&a, &b, &load_bounds()?)?;
    print!("{}", report::render_rows(&rows));
    Ok(rows.iter().all(|r| r.verdict == Verdict::Ok))
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let verdict = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    };
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            let parsed = parse_run_args(rest)?;
            match (&parsed.workload, parsed.trace) {
                (Some(name), Some(traced)) => single_run(&parsed, name, traced),
                (None, Some(_)) => Err("--trace needs --workload".into()),
                (_, None) => {
                    let out = parsed
                        .out
                        .clone()
                        .unwrap_or_else(|| results_dir().join("report.json"));
                    suite(&parsed, &out).map(verdict)
                }
            }
        }
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [a, b] => compare(Path::new(a), Path::new(b)).map(verdict),
            _ => Err("compare takes two report files".into()),
        },
        Some((cmd, rest)) if cmd == "selfcheck" => {
            let parsed = parse_run_args(rest)?;
            if parsed.trace.is_some() || parsed.out.is_some() {
                return Err("selfcheck takes no --trace or --out".into());
            }
            let (a, b) = (
                results_dir().join("selfcheck-a.json"),
                results_dir().join("selfcheck-b.json"),
            );
            let correct = suite(&parsed, &a)? & suite(&parsed, &b)?;
            Ok(verdict(compare(&a, &b)? && correct))
        }
        _ => Err("expected run, compare or selfcheck".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("betty-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_drivers_invocation() {
        let parsed = parse_run_args(&strings(&[
            "--workload",
            "lstm2_k8",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("lstm2_k8"));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (42, 10.0, Some(true))
        );
        assert!(!parsed.smoke && parsed.out.is_none() && parsed.reps == 1);
    }

    #[test]
    fn rejects_what_it_cannot_use() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "-1"],
            &["--seed"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--reps", "0"],
            &["--frobnicate", "1"],
        ] {
            assert!(parse_run_args(&strings(bad)).is_err(), "accepted {bad:?}");
        }
        assert!(dispatch(&strings(&["run", "--trace", "0"])).is_err());
        assert!(dispatch(&strings(&["compare", "only-one.json"])).is_err());
        assert!(dispatch(&strings(&["selfcheck", "--trace", "0"])).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn default_seconds_is_benchmark_jsons_run_seconds() {
        let doc = read_json(&workloads::benchmark_dir().join("../BENCHMARK.json")).unwrap();
        assert_eq!(
            json::get(&doc, "run_seconds").and_then(json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        // And the bounds parse, so `compare` can run against it.
        assert_eq!(load_bounds().unwrap().len(), metrics::END_TO_END.len());
    }

    /// The `--smoke` profile: all four workloads, untraced and traced, on
    /// graphs of a few thousand nodes — every code path of a real run,
    /// every output check included.
    #[test]
    fn smoke_profile_passes_every_check_on_every_workload() {
        let mut runs = Vec::new();
        for w in workloads::all() {
            let w = w.smoke();
            let e2e = run_one(&w, 7, 0.2, false).unwrap();
            let layers = run_one(&w, 7, 0.2, true).unwrap();
            for record in [&e2e, &layers] {
                let failed: Vec<_> = record.checks.iter().filter(|c| !c.ok).collect();
                assert!(
                    record.correct(),
                    "{} traced={}: {failed:?}",
                    w.name,
                    record.traced
                );
                assert!(record.attempted >= 3 && record.failed == 0);
                assert!(json::parse(&record.result_line()).is_ok());
            }
            assert!(
                e2e.checks
                    .iter()
                    .any(|c| c.name == "paged_losses_equal_dense")
                    == (w.store != workloads::Store::Dense)
            );
            // Dense stores never page; the paged one must.
            let pages_in = layers
                .metrics
                .iter()
                .find(|(n, _)| *n == "data.pages_in")
                .unwrap()
                .1;
            assert_eq!(
                pages_in > 0.0,
                w.store != workloads::Store::Dense,
                "{}: pages_in {pages_in}",
                w.name
            );
            let trace =
                std::fs::read_to_string(results_dir().join(format!("trace-{}.jsonl", w.name)))
                    .unwrap();
            assert!(
                trace.lines().all(|l| json::parse(l).is_ok()) && trace.contains("graph.reg_build")
            );
            runs.push((
                w.name,
                w.why,
                vec![SeedRuns {
                    e2e: e2e.to_json(),
                    layers: layers.to_json(),
                }],
            ));
        }
        // The merged report passes its own schema and compares clean
        // against itself under the real bounds.
        let report = report::build_report(machine::machine_block(), 0.2, &runs);
        report::validate_report(&report).unwrap();
        let reparsed = json::parse(&serde_json::to_string_pretty(&report).unwrap()).unwrap();
        let rows = report::compare_reports(&reparsed, &report, &load_bounds().unwrap()).unwrap();
        assert_eq!(rows.len(), 4 * metrics::END_TO_END.len());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
    }
}
