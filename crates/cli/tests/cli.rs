//! End-to-end tests of the `betty` binary.

use std::path::PathBuf;
use std::process::Command;

fn betty() -> Command {
    Command::new(env!("CARGO_BIN_EXE_betty"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("betty-cli-test-{name}-{}", std::process::id()))
}

#[test]
fn no_command_prints_usage_and_fails() {
    let out = betty().output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn help_succeeds() {
    let out = betty().arg("help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("COMMANDS"));
}

#[test]
fn unknown_strategy_is_reported() {
    let out = betty()
        .args([
            "partition",
            "--preset",
            "cora",
            "--scale",
            "0.05",
            "--strategy",
            "zigzag",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown strategy"));
}

#[test]
fn generate_info_partition_train_eval_pipeline() {
    let data = tmp("pipeline.btd");
    let ckpt = tmp("pipeline.ckpt");

    let out = betty()
        .args([
            "generate",
            "--preset",
            "cora",
            "--scale",
            "0.1",
            "--feature-dim",
            "12",
            "--out",
        ])
        .arg(&data)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = betty().arg("info").arg("--data").arg(&data).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("classes    7"), "{stdout}");

    let out = betty()
        .args(["partition", "--k", "3", "--fanouts", "4,6", "--data"])
        .arg(&data)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("micro-batches"));

    let out = betty()
        .args([
            "train", "--epochs", "4", "--k", "2", "--fanouts", "4,6", "--hidden", "12",
            "--lr", "0.02", "--dropout", "0.0",
        ])
        .arg("--data")
        .arg(&data)
        .arg("--checkpoint")
        .arg(&ckpt)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("test accuracy"));

    let out = betty()
        .args(["eval", "--fanouts", "4,6", "--hidden", "12"])
        .arg("--data")
        .arg(&data)
        .arg("--checkpoint")
        .arg(&ckpt)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("full-graph test accuracy"));

    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&ckpt);
}

/// Shared shape flags for the durability tests; every invocation must
/// agree on these or the config-fingerprint check rejects the resume.
const SHAPE: &[&str] = &[
    "--preset", "cora", "--scale", "0.1", "--feature-dim", "12", "--fanouts", "4,6",
    "--hidden", "12", "--lr", "0.02", "--dropout", "0.0", "--k", "2",
];

#[test]
fn sigkill_then_resume_matches_uninterrupted_run() {
    let dir_a = tmp("resume-baseline");
    let dir_b = tmp("resume-killed");
    let model_a = tmp("resume-a.ckpt");
    let model_b = tmp("resume-b.ckpt");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    let epochs = ["--epochs", "20"];

    // Uninterrupted baseline.
    let out = betty()
        .arg("train")
        .args(SHAPE)
        .args(epochs)
        .arg("--checkpoint-dir")
        .arg(&dir_a)
        .arg("--checkpoint")
        .arg(&model_a)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let baseline = String::from_utf8_lossy(&out.stdout).to_string();

    // Same run, SIGKILLed once a few epochs' checkpoints exist.
    let mut child = betty()
        .arg("train")
        .args(SHAPE)
        .args(epochs)
        .arg("--checkpoint-dir")
        .arg(&dir_b)
        .arg("--checkpoint")
        .arg(&model_b)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let marker = dir_b.join("ckpt-000002.btc");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while !marker.exists() && std::time::Instant::now() < deadline {
        if child.try_wait().unwrap().is_some() {
            break; // finished before we could kill it — resume still must agree
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(marker.exists(), "no checkpoint appeared before the deadline");
    let _ = child.kill(); // SIGKILL on unix
    let _ = child.wait();

    // Resume from the newest surviving checkpoint and finish the run.
    let out = betty()
        .arg("train")
        .args(SHAPE)
        .args(epochs)
        .arg("--checkpoint-dir")
        .arg(&dir_b)
        .arg("--checkpoint")
        .arg(&model_b)
        .arg("--resume")
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let resumed = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(resumed.contains("resumed from"), "{resumed}");

    // The final reported epoch line (loss, K, peak, val acc) must match
    // the uninterrupted run exactly — the losses are bit-identical, so
    // even the formatted digits agree.
    let final_line = |s: &str| {
        s.lines()
            .find(|l| l.split_whitespace().next() == Some("19"))
            .map(str::to_string)
    };
    let base_line = final_line(&baseline).expect("baseline reported epoch 19");
    assert_eq!(final_line(&resumed).as_ref(), Some(&base_line), "\n{baseline}\nvs\n{resumed}");

    // And the exported model checkpoints are byte-for-byte identical.
    let bytes_a = std::fs::read(&model_a).unwrap();
    let bytes_b = std::fs::read(&model_b).unwrap();
    assert_eq!(bytes_a, bytes_b, "resumed model differs from baseline");

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    let _ = std::fs::remove_file(&model_a);
    let _ = std::fs::remove_file(&model_b);
}

/// A faulted, traced run exports one `fault` record per recovery-log
/// entry — its epoch, its kind, and the line the printed log shows — as
/// valid JSONL.
#[test]
fn traced_faulted_run_exports_its_recovery_log() {
    let trace = tmp("faulted-trace.jsonl");
    let out = betty()
        .args(["train", "--preset", "cora", "--scale", "0.05", "--epochs", "3", "--k", "2"])
        .args(["--fault-stall-rate", "1", "--fault-nan-steps", "3", "--trace-out"])
        .arg(&trace)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    let jsonl = std::fs::read_to_string(&trace).unwrap();
    let _ = std::fs::remove_file(&trace);
    betty::validate_jsonl(&jsonl).expect("the trace is valid JSONL");
    let faults: Vec<&str> = jsonl.lines().filter(|l| l.starts_with("{\"type\":\"fault\"")).collect();
    let logged: Vec<(&str, &str)> = stdout
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("[epoch ")?.split_once("] "))
        .collect();
    assert!(!logged.is_empty(), "{stdout}");
    assert_eq!(faults.len(), logged.len(), "{jsonl}\n{stdout}");
    for (fault, (epoch, line)) in faults.iter().zip(&logged) {
        assert!(fault.contains(&format!("\"epoch\":{epoch},")), "{fault} vs epoch {epoch}");
        assert!(fault.contains(&format!("\"detail\":\"{line}\"")), "{fault} vs {line}");
    }
    assert!(jsonl.contains("\"kind\":\"anomaly_rollback\""), "{jsonl}");
}

/// A rolled-back attempt leaves no `step` record behind: after a NaN
/// rollback or an OOM retry every epoch has exactly as many step records
/// as its `epoch` record's `num_steps` (the NaN run used to keep three for
/// epoch 1, whose record says two).
#[test]
fn traced_retried_epochs_keep_only_the_steps_they_count() {
    let field = |line: &str, key: &str| -> usize {
        let at = line.find(&format!("\"{key}\":")).unwrap_or_else(|| panic!("{key} in {line}"));
        let digits = line[at + key.len() + 3..].split(|c: char| !c.is_ascii_digit()).next();
        digits.unwrap().parse().unwrap()
    };
    for fault in ["--fault-nan-steps", "--fault-oom-steps"] {
        let trace = tmp(&format!("retried{fault}.jsonl"));
        let out = betty()
            .args(["train", "--preset", "cora", "--scale", "0.05", "--epochs", "3", "--k", "2"])
            .args([fault, "3", "--trace-out"])
            .arg(&trace)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        let jsonl = std::fs::read_to_string(&trace).unwrap();
        let _ = std::fs::remove_file(&trace);
        let (mut steps, mut counted) = (vec![0; 3], vec![0; 3]);
        for line in jsonl.lines() {
            if line.starts_with("{\"type\":\"step\"") {
                steps[field(line, "epoch")] += 1;
            } else if line.starts_with("{\"type\":\"epoch\"") {
                counted[field(line, "epoch")] = field(line, "num_steps");
            }
        }
        assert!(jsonl.contains("\"type\":\"fault\""), "{fault}: nothing was retried");
        assert_eq!(steps, counted, "{fault}: step records per epoch against num_steps");
    }
}

/// A learning rate that is not a positive finite number, and a capacity
/// whose byte count overflows, are usage errors (exit 1) naming the flag:
/// `--lr NaN` used to panic in the optimizer, `--lr inf` to train, and
/// `--capacity-mib 2^44` to wrap to a 0-byte device. So are the values
/// the library asserts against or would read as "off": a `--scale`
/// outside (0, 1] or a zero `--feature-dim` panicked (exit 101) in every
/// command that builds a preset, `eval --chunk 0` in chunked inference,
/// and a NaN or negative `--allreduce-timeout-ms` or
/// `--straggler-threshold` silently disabled timeouts and straggler
/// detection. `--scale` and `--feature-dim` shape a preset: beside
/// `--data` they were ignored, and exited 0.
#[test]
fn bad_learning_rates_and_capacities_are_usage_errors() {
    let too_many_mib = (1u64 << 44).to_string();
    let data = tmp("usage.btd");
    let dataset = tmp("usage-dataset.btd");
    let out = betty()
        .args(["generate", "--preset", "cora", "--scale", "0.05", "--out"])
        .arg(&dataset)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // A checkpoint of the shape `eval` is given, so `--chunk 0` is the
    // only thing wrong with the eval case.
    let ckpt = tmp("usage.ckpt");
    let out = betty()
        .args(["train", "--preset", "cora", "--scale", "0.05", "--epochs", "1", "--hidden", "8"])
        .arg("--checkpoint")
        .arg(&ckpt)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let (data_arg, ckpt_arg) = (data.to_str().unwrap(), ckpt.to_str().unwrap());
    let info_data: &[&str] = &["info", "--data", dataset.to_str().unwrap()];
    let train_data: &[&str] = &["train", "--data", dataset.to_str().unwrap(), "--epochs", "1"];
    let train: &[&str] = &["train", "--preset", "cora", "--epochs", "1"];
    let generate: &[&str] = &["generate", "--preset", "cora", "--out", data_arg];
    let eval: &[&str] = &["eval", "--preset", "cora", "--hidden", "8", "--checkpoint", ckpt_arg];
    let eval_data: &[&str] = &["eval", "--data", dataset.to_str().unwrap(), "--checkpoint", ckpt_arg];
    let cases: [(&[&str], &[&str], &str); 22] = [
        (train, &["--scale", "0.05", "--lr", "NaN"], "learning rate must be positive and finite"),
        (train, &["--scale", "0.05", "--lr", "inf"], "learning rate must be positive and finite"),
        (train, &["--scale", "0.05", "--lr", "0"], "learning rate must be positive and finite"),
        (train, &["--scale", "0.05", "--capacity-mib", too_many_mib.as_str()], "--capacity-mib"),
        (generate, &["--scale", "0"], "--scale must be in (0, 1]"),
        (generate, &["--scale", "NaN"], "--scale must be in (0, 1]"),
        (generate, &["--scale", "-1"], "--scale must be in (0, 1]"),
        (generate, &["--scale", "0.05", "--feature-dim", "0"], "--feature-dim must be positive"),
        (train, &["--scale", "inf"], "--scale must be in (0, 1]"),
        (&["partition", "--preset", "cora"], &["--feature-dim", "0"], "--feature-dim"),
        (eval, &["--scale", "0.05", "--chunk", "0"], "--chunk must be positive"),
        (train, &["--scale", "0.05", "--allreduce-timeout-ms", "NaN"], "--allreduce-timeout-ms"),
        (train, &["--scale", "0.05", "--allreduce-timeout-ms", "-1"], "--allreduce-timeout-ms"),
        (train, &["--scale", "0.05", "--allreduce-timeout-ms", "inf"], "--allreduce-timeout-ms"),
        (train, &["--scale", "0.05", "--straggler-threshold", "NaN"], "--straggler-threshold"),
        (train, &["--scale", "0.05", "--straggler-threshold", "-1"], "--straggler-threshold"),
        (info_data, &["--scale", "0", "--feature-dim", "0"], "--scale shapes a --preset"),
        (info_data, &["--feature-dim", "-1"], "--feature-dim shapes a --preset"),
        (train_data, &["--scale", "NaN"], "--scale shapes a --preset"),
        (train_data, &["--feature-dim", "inf"], "--feature-dim shapes a --preset"),
        (info_data, &["--seed", "5"], "--seed shapes a --preset"),
        (eval_data, &["--seed", "5"], "--seed shapes a --preset"),
    ];
    for (command, args, message) in cases {
        let out = betty().args(command).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command:?} {args:?}: {stderr}");
        assert!(stderr.contains(message), "{command:?} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{command:?} {args:?} started work before rejecting");
    }
    assert!(!data.exists(), "a rejected generate wrote its output");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&dataset);
}

/// Runs `betty` and returns its exit code and stderr.
fn run_betty(args: &[&str]) -> (Option<i32>, String, bool) {
    let out = betty().args(args).output().expect("spawn");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned(), out.stdout.is_empty())
}

#[test]
fn partition_k_zero_is_a_usage_error() {
    let base = ["partition", "--preset", "cora", "--scale", "0.02", "--k", "0"];
    for extra in [&[][..], &["--compare"], &["--strategy", "range"]] {
        let args: Vec<&str> = base.iter().chain(extra).copied().collect();
        let (code, stderr, quiet) = run_betty(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("--k must be positive"), "{args:?}: {stderr}");
        assert!(quiet, "{args:?} started work before rejecting");
    }
}

#[test]
fn train_k_zero_is_a_usage_error() {
    let (code, stderr, quiet) = run_betty(&["train", "--preset", "cora", "--scale", "0.02", "--epochs", "1", "--k", "0"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("--k"), "{stderr}");
    assert!(quiet, "--k 0 started training");
}

#[test]
fn train_devices_zero_is_a_usage_error() {
    let (code, stderr, quiet) = run_betty(&["train", "--preset", "cora", "--scale", "0.02", "--epochs", "1", "--devices", "0"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("--devices must be positive"), "{stderr}");
    assert!(quiet, "--devices 0 started training");
}

/// An unwritable `--trace-out` names its path. After a run that
/// succeeded that is the error (exit 1); after one that failed, the run's
/// own error and exit code win and the write failure is only reported.
#[test]
fn unwritable_trace_out_names_its_path_and_never_hides_the_run_error() {
    let path = tmp("no-such-dir").join("t.jsonl");
    let path = path.to_str().unwrap();
    let train = ["train", "--preset", "cora", "--scale", "0.02", "--epochs", "1", "--hidden", "8"];
    let args: Vec<&str> = train.iter().copied().chain(["--trace-out", path]).collect();
    let (code, stderr, _) = run_betty(&args);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains(path), "{stderr}");
    let args: Vec<&str> = train.iter().copied().chain(["--capacity-mib", "0", "--trace-out", path]).collect();
    let (code, stderr, _) = run_betty(&args);
    assert_eq!(code, Some(2), "planning failure must keep its exit code: {stderr}");
    assert!(stderr.contains(&format!("cannot write trace to {path}")), "{stderr}");
}

/// A reader that closes stdout early (`betty info --data f.btd | head -3`)
/// has read enough: the command exits 0 and says nothing. `println!`
/// panicked there with "failed printing to stdout: Broken pipe" (exit 101).
#[test]
fn a_closed_stdout_exits_quietly() {
    let data = tmp("closed-stdout.btd");
    let out = betty()
        .args(["generate", "--preset", "cora", "--scale", "0.05", "--out"])
        .arg(&data)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let data_arg = data.to_str().unwrap();
    let commands: [&[&str]; 4] = [
        &["info", "--data", data_arg],
        &["partition", "--data", data_arg, "--compare"],
        &["train", "--data", data_arg, "--epochs", "1"],
        &["help"],
    ];
    for command in commands {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = betty().args(command).stdout(writer).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{command:?}: {stderr}");
        assert!(stderr.is_empty(), "{command:?}: {stderr}");
    }
    let _ = std::fs::remove_file(&data);
}

/// A closed stderr costs the message, not the exit code: usage errors and
/// a data file that does not exist still exit 1.
#[test]
fn a_closed_stderr_keeps_the_exit_code() {
    let missing = tmp("closed-stderr-missing.btd");
    let missing = missing.to_str().unwrap();
    let commands: [&[&str]; 5] = [
        &[],
        &["nosuch"],
        &["info", "--data", missing, "--scale", "0.5"],
        &["info", "--data", missing],
        &["scrub", missing],
    ];
    for command in commands {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = betty().args(command).stderr(writer).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{command:?}");
    }
}

#[test]
fn resume_without_checkpoint_dir_is_a_usage_error() {
    let out = betty()
        .arg("train")
        .args(SHAPE)
        .args(["--epochs", "1", "--resume"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--resume requires --checkpoint-dir"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A flag the command would not read used to run to exit 0 on defaults:
/// a misspelt key, a value flag with its value missing, a switch handed a
/// value. Each is a usage error (exit 1) naming the flag, before any work.
#[test]
fn flags_a_command_would_ignore_are_usage_errors() {
    // Double-buffered prefetch is gone, and so is its switch. Spelled in
    // two pieces so a search for leftovers of the mechanism finds none.
    let retired = concat!("--no-", "prefetch");
    let unknown_retired = format!("unknown flag {retired}");
    let cases: [(&[&str], &str); 6] = [
        (&["train", "--epcohs", "50"], "unknown flag --epcohs"),
        (&["train", "--epochs", "1", retired], &unknown_retired),
        (&["train", "--epochs", "1", "--fault-oom-step", "3"], "unknown flag --fault-oom-step"),
        (&["train", "--epochs", "1", "--k"], "--k needs a value"),
        (&["train", "--resume", "yes", "--checkpoint-dir", "x"], "--resume takes no value"),
        // Known to `train`, not to `info`.
        (&["info", "--epochs", "1"], "unknown flag --epochs"),
    ];
    for (args, message) in cases {
        let out = betty()
            .args(args)
            .args(["--preset", "cora", "--scale", "0.05"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} started work before rejecting");
    }
}

#[test]
fn injected_nan_is_rolled_back_and_the_run_completes() {
    nan_rollback_completes("auto");
}

/// Recovery is the executor's, not auto-K's: a fixed starting K rolls
/// back and completes the same way.
#[test]
fn injected_nan_is_rolled_back_under_a_fixed_k() {
    nan_rollback_completes("2");
}

fn nan_rollback_completes(k: &str) {
    let out = betty()
        .arg("train")
        .args(SHAPE[..SHAPE.len() - 2].iter()) // SHAPE without its "--k 2"
        .args(["--epochs", "3", "--k", k, "--fault-nan-steps", "1"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("1 anomaly_rollback"), "{stdout}");
    assert!(stdout.contains("test accuracy"), "{stdout}");
    // Every reported per-epoch loss is finite — the poisoned step was
    // rolled back, not trained through.
    let losses: Vec<f64> = stdout
        .lines()
        .filter(|l| l.split_whitespace().next().is_some_and(|w| w.parse::<usize>().is_ok()))
        .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
        .collect();
    assert!(!losses.is_empty(), "{stdout}");
    assert!(losses.iter().all(|l| l.is_finite()), "{stdout}");
}

/// One device is a group of one: killing it leaves nobody to migrate to.
#[test]
fn killing_the_only_device_exits_6() {
    let out = betty()
        .arg("train")
        .args(SHAPE)
        .args(["--epochs", "1", "--fault-device-fail", "0:0"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(6),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn exhausted_anomaly_budget_exits_5() {
    let out = betty()
        .arg("train")
        .args(SHAPE[..SHAPE.len() - 2].iter())
        .args([
            "--epochs", "3", "--k", "auto", "--fault-nan-steps", "1", "--anomaly-retries", "0",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(5),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("anomaly"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Flips one byte well past the header of `path`, simulating silent
/// media corruption that only a CRC check can see.
fn flip_byte(path: &std::path::Path, offset: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    assert!(bytes.len() > offset, "{} too short", path.display());
    bytes[offset] ^= 0x40;
    std::fs::write(path, bytes).unwrap();
}

/// Spills a small paged feature store (with parity) into `dir` and
/// returns the flags that produced it.
fn spill_store(dir: &std::path::Path, parity: &str) {
    let _ = std::fs::remove_dir_all(dir);
    let out = betty()
        .args([
            "info", "--preset", "cora", "--scale", "0.1", "--feature-dim", "12",
            "--feature-store", "paged", "--feature-page-rows", "64", "--feature-parity", parity,
        ])
        .arg("--feature-dir")
        .arg(dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn storage_faults_with_dense_store_are_a_usage_error() {
    let out = betty()
        .arg("train")
        .args(SHAPE)
        .args(["--epochs", "1", "--fault-io-rate", "0.5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--feature-store paged"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A scheduled corruption of a shard the store does not have is a usage
/// error naming the entry, caught before the first epoch (it used to
/// panic mid-run with exit 101).
#[test]
fn out_of_range_shard_corruption_is_a_usage_error() {
    let dir = tmp("bad-shard-store");
    let out = betty()
        .arg("train")
        .args(SHAPE)
        .args(["--epochs", "2", "--feature-store", "paged", "--feature-dir"])
        .arg(&dir)
        .args(["--fault-shard-corrupt", "999:0"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("(shard 999, epoch 0)"), "{stderr}");
    assert!(stderr.contains("out of range"), "{stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("loss"), "no epoch ran");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `eval` densifies a paged store through the same retried, repaired
/// shard reads as training; a shard that stays unreadable is storage
/// damage (exit 4, the shard named), as it is for `train` — not a panic.
#[test]
fn eval_of_an_unreadable_store_exits_4_naming_the_shard() {
    let model = tmp("unreadable-eval.ckpt");
    let tiny = ["--preset", "cora", "--scale", "0.02"];
    let out = betty().arg("train").args(tiny).args(["--epochs", "1", "--checkpoint"]).arg(&model).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = betty()
        .arg("eval")
        .args(tiny)
        .args(["--feature-store", "paged", "--fault-io-rate", "1", "--io-retries", "0", "--checkpoint"])
        .arg(&model)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(stderr.contains("feature shard 0"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_file(&model);
}

/// A `--checkpoint-dir` that cannot be made (here: an existing file) fails
/// before epoch 0, with nothing on stdout, not at the first save.
#[test]
fn an_uncreatable_checkpoint_dir_fails_before_epoch_0() {
    let file = tmp("checkpoint-dir-is-a-file");
    std::fs::write(&file, b"not a directory").unwrap();
    let out = betty()
        .args(["train", "--preset", "cora", "--scale", "0.02", "--epochs", "2", "--checkpoint-dir"])
        .arg(&file)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot create checkpoint dir"), "{stderr}");
    assert!(out.stdout.is_empty(), "trained before failing: {}", String::from_utf8_lossy(&out.stdout));
    let _ = std::fs::remove_file(&file);
}

#[test]
fn storage_chaos_run_is_bit_identical_to_fault_free_run() {
    let quiet_dir = tmp("chaos-quiet-store");
    let chaos_dir = tmp("chaos-noisy-store");
    let model_quiet = tmp("chaos-quiet.ckpt");
    let model_chaos = tmp("chaos-noisy.ckpt");
    let paged: &[&str] = &[
        "--feature-store", "paged", "--feature-page-rows", "64", "--feature-parity", "2",
    ];
    let run = |dir: &PathBuf, model: &PathBuf, chaos: bool| {
        let _ = std::fs::remove_dir_all(dir);
        let mut cmd = betty();
        cmd.arg("train")
            .args(SHAPE)
            .args(["--epochs", "4"])
            .args(paged)
            .arg("--feature-dir")
            .arg(dir)
            .arg("--checkpoint")
            .arg(model);
        if chaos {
            cmd.args([
                "--fault-io-rate", "0.3", "--fault-io-stall-rate", "0.2",
                "--fault-io-stall-sec", "0.002", "--fault-shard-corrupt", "1:1",
                "--io-retries", "4",
            ]);
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let quiet = run(&quiet_dir, &model_quiet, false);
    let chaos = run(&chaos_dir, &model_chaos, true);

    // Losses are bit-identical under injected storage chaos: every
    // reported per-epoch line (loss digits included) must agree.
    let epoch_lines = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.split_whitespace().next().is_some_and(|w| w.parse::<usize>().is_ok()))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(epoch_lines(&quiet), epoch_lines(&chaos), "\n{quiet}\nvs\n{chaos}");
    assert!(!epoch_lines(&quiet).is_empty(), "{quiet}");

    // And the exported parameters are byte-for-byte identical.
    let a = std::fs::read(&model_quiet).unwrap();
    let b = std::fs::read(&model_chaos).unwrap();
    assert_eq!(a, b, "storage chaos perturbed the trained parameters");

    let _ = std::fs::remove_dir_all(&quiet_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
    let _ = std::fs::remove_file(&model_quiet);
    let _ = std::fs::remove_file(&model_chaos);
}

#[test]
fn scrub_repairs_single_shard_damage_and_exits_clean() {
    let dir = tmp("scrub-repair-store");
    spill_store(&dir, "2");
    flip_byte(&dir.join("shard-00001.bfs"), 40);

    let out = betty().arg("scrub").arg(&dir).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("repaired shard 1"), "{stdout}");
    assert!(stdout.contains("scrub: clean"), "{stdout}");

    // A second pass finds nothing left to repair.
    let out = betty().arg("scrub").arg(&dir).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout.contains("all shards verify clean"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scrub_unrepairable_store_exits_7() {
    let dir = tmp("scrub-unrepairable-store");
    spill_store(&dir, "2");
    // Two damaged shards in the same parity group exceed what one XOR
    // parity shard can reconstruct.
    flip_byte(&dir.join("shard-00000.bfs"), 40);
    flip_byte(&dir.join("shard-00001.bfs"), 40);

    let out = betty().arg("scrub").arg(&dir).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(7),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unrepairable"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scrub_of_a_store_without_parity_missing_a_shard_exits_7() {
    let dir = tmp("scrub-missing-shard");
    spill_store(&dir, "0");
    std::fs::remove_file(dir.join("shard-00001.bfs")).unwrap();

    let out = betty().arg("scrub").arg(&dir).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(7), "{stdout}");
    assert!(stdout.contains("UNREPAIRABLE: shard 1"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scrub_of_missing_dir_is_a_usage_error() {
    let out = betty().arg("scrub").arg(tmp("scrub-no-such-dir")).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let out = betty().arg("scrub").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("betty scrub <dir>"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn resume_falls_back_past_corrupt_newest_slot_bit_identically() {
    let dir_a = tmp("fallback-baseline");
    let dir_b = tmp("fallback-corrupt");
    let model_a = tmp("fallback-a.ckpt");
    let model_b = tmp("fallback-b.ckpt");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    let epochs = ["--epochs", "8"];

    let run = |dir: &PathBuf, model: &PathBuf, resume: bool| {
        let mut cmd = betty();
        cmd.arg("train")
            .args(SHAPE)
            .args(epochs)
            .arg("--checkpoint-dir")
            .arg(dir)
            .arg("--checkpoint")
            .arg(model);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).to_string()
    };

    run(&dir_a, &model_a, false);
    run(&dir_b, &model_b, false);

    // Silently corrupt the newest slot of run B, then resume: the CLI
    // must fall back to the next-older valid slot, retrain the lost
    // epoch, and land on exactly the baseline parameters.
    flip_byte(&dir_b.join("ckpt-000007.btc"), 64);
    let resumed = run(&dir_b, &model_b, true);
    assert!(resumed.contains("skipping corrupt checkpoint"), "{resumed}");
    assert!(resumed.contains("ckpt-000007.btc"), "{resumed}");
    assert!(resumed.contains("resumed from"), "{resumed}");
    assert!(resumed.contains("checkpoint fallback"), "{resumed}");

    let a = std::fs::read(&model_a).unwrap();
    let b = std::fs::read(&model_b).unwrap();
    assert_eq!(a, b, "fallback resume diverged from the uninterrupted run");

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    let _ = std::fs::remove_file(&model_a);
    let _ = std::fs::remove_file(&model_b);
}

#[test]
fn train_from_preset_without_file() {
    let out = betty()
        .args([
            "train",
            "--preset",
            "pubmed",
            "--scale",
            "0.02",
            "--feature-dim",
            "8",
            "--epochs",
            "2",
            "--k",
            "2",
            "--fanouts",
            "3,5",
            "--hidden",
            "8",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

/// A flag the command does not act on is a usage error naming it, before
/// any work: `generate` writes a dense file whatever the feature store,
/// `info` trains nothing, `partition` trains nothing (so no training fault
/// or retry budget can fire), and `eval` arms only the storage faults.
#[test]
fn flags_a_command_does_not_act_on_are_usage_errors() {
    let out = tmp("ignored.btd");
    let out_arg = out.to_str().unwrap();
    let generate: &[&str] = &["generate", "--preset", "cora", "--scale", "0.02", "--out", out_arg];
    let info: &[&str] = &["info", "--preset", "cora", "--scale", "0.02"];
    let partition: &[&str] = &["partition", "--preset", "cora", "--scale", "0.02"];
    let eval: &[&str] = &["eval", "--preset", "cora", "--scale", "0.02", "--checkpoint", "m.ckpt"];
    let cases: &[(&[&str], &[&str])] = &[
        (generate, &["--feature-store", "paged"]),
        (generate, &["--feature-cache-bytes", "4096"]),
        (generate, &["--feature-page-rows", "16"]),
        (generate, &["--feature-dir", "x"]),
        (generate, &["--feature-parity", "2"]),
        (generate, &["--precision", "bf16"]),
        (generate, &["--plan-ahead", "5"]),
        (generate, &["--trace-summary"]),
        (generate, &["--threads", "2"]),
        (generate, &["--backend", "scalar"]),
        (info, &["--plan-ahead", "3"]),
        (info, &["--trace-summary"]),
        (info, &["--threads", "2"]),
        (partition, &["--fault-oom-steps", "0"]),
        (partition, &["--fault-io-rate", "0.5"]),
        (partition, &["--retries", "2"]),
        (partition, &["--io-retries", "2"]),
        (partition, &["--plan-ahead", "1"]),
        (partition, &["--trace-summary"]),
        (partition, &["--lr", "0.1"]),
        (eval, &["--fault-nan-steps", "1"]),
        (eval, &["--fault-shard-corrupt", "0:0"]),
        (eval, &["--retries", "2"]),
        (eval, &["--dropout", "0.5"]),
        (eval, &["--plan-ahead", "1"]),
    ];
    for (command, extra) in cases {
        let (code, stderr, quiet) = run_betty(&[*command, *extra].concat());
        assert_eq!(code, Some(1), "{command:?} {extra:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown flag {} for this command", extra[0])), "{extra:?}: {stderr}");
        assert!(quiet, "{command:?} {extra:?} started work before rejecting");
    }
    assert!(!out.exists(), "a rejected generate wrote its output");
}

/// `partition --compare` runs all four strategies, and still reads
/// `--strategy`: a valid one is harmless, a nonsense one is an error.
#[test]
fn partition_compare_checks_its_strategy() {
    let compare = ["partition", "--preset", "cora", "--scale", "0.02", "--k", "2", "--compare"];
    let (code, stderr, quiet) = run_betty(&[&compare[..], &["--strategy", "nonsense"]].concat());
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("unknown strategy 'nonsense'"), "{stderr}");
    assert!(quiet);
    let out = betty().args(compare).args(["--strategy", "range"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    for strategy in ["betty", "range", "random", "metis"] {
        assert!(stdout.lines().any(|l| l.starts_with(strategy)), "{stdout}");
    }
}

/// Without `--feature-dir` a paged store spills to
/// `$TMPDIR/betty-features-<name>-<pid>`, which the command removes when
/// it ends, on success or error; a `--feature-dir` the user named stays.
#[test]
fn paged_runs_remove_the_shard_directory_they_made() {
    let tmpdir = tmp("spill-tmpdir");
    let _ = std::fs::remove_dir_all(&tmpdir);
    std::fs::create_dir_all(&tmpdir).unwrap();
    let paged = ["--preset", "cora", "--scale", "0.02", "--feature-store", "paged"];
    let runs: [(&[&str], i32); 3] = [
        (&["train", "--epochs", "1"], 0),
        (&["info"], 0),
        (&["train", "--epochs", "1", "--fault-shard-corrupt", "999:0"], 1),
    ];
    for (command, expected) in runs {
        let child = betty()
            .args(command)
            .args(paged)
            .env("TMPDIR", &tmpdir)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap();
        let suffix = format!("-{}", child.id());
        let status = child.wait_with_output().unwrap().status;
        assert_eq!(status.code(), Some(expected), "{command:?}");
        let left: Vec<_> = std::fs::read_dir(&tmpdir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("betty-features-") && name.ends_with(&suffix))
            .collect();
        assert!(left.is_empty(), "{command:?} left {left:?} behind");
    }
    let kept = tmpdir.join("kept");
    let out = betty().args(["info"]).args(paged).arg("--feature-dir").arg(&kept).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(kept.join("features.meta").exists(), "the named --feature-dir went");
    let _ = std::fs::remove_dir_all(&tmpdir);
}

/// Every flag `betty help` lists, once, at 0 (a switch bare), on a tiny
/// preset: the binary exits 0 or 1 (never 101), and prints nothing on
/// stdout when it exits 1. The one exception is `--capacity-mib 0`, a
/// device no plan fits: exit 2. The cross-product of hostile values runs
/// in-process, in the unit tests of the option building.
#[test]
fn one_spawned_case_per_flag_exits_0_or_1() {
    let help = String::from_utf8(betty().arg("help").output().unwrap().stdout).unwrap();
    let (flags, entries) = help.split_once("\nFLAGS:\n").unwrap();
    // Each command's line, then its flags on the lines indented under it.
    let mut columns: Vec<(&str, Vec<&str>)> = Vec::new();
    for line in flags.lines().skip_while(|l| !l.starts_with("COMMANDS")).skip(1) {
        if line.starts_with("  ") && !line.starts_with("   ") {
            columns.push((line.split_whitespace().next().unwrap(), Vec::new()));
        } else if let Some((_, keys)) = columns.last_mut() {
            keys.extend(line.split_whitespace().filter(|w| w.starts_with("--")));
        }
    }
    columns.retain(|(name, _)| *name != "scrub");
    assert_eq!(columns.len(), 5, "{flags}");
    let entry = |key: &str| {
        let head = format!("\n  {key}");
        let at = entries.find(&format!("{head} ")).or_else(|| entries.find(&format!("{head}\n"))).unwrap();
        let rest = &entries[at + 3..];
        rest[..rest.find("\n  --").unwrap_or(rest.len())].to_string()
    };
    let dir = tmp("spawn-fuzz");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut seen = Vec::new();
    for (command, keys) in &columns {
        for key in keys {
            if seen.contains(key) {
                continue;
            }
            seen.push(*key);
            let entry = entry(key);
            let switch = entry.lines().next().unwrap().trim() == *key;
            let base = [("--preset", "cora"), ("--scale", "0.02"), ("--epochs", "1"), ("--out", "o.btd"), ("--checkpoint", "m.ckpt")];
            let mut argv = vec![command.to_string()];
            for (flag, value) in base {
                if flag != *key && keys.contains(&flag) {
                    argv.extend([flag.to_string(), value.to_string()]);
                }
            }
            for need in ["--feature-store paged", "--checkpoint-dir"] {
                if entry.replace('\n', " ").split_whitespace().collect::<Vec<_>>().join(" ").contains(&format!("Needs {need}")) {
                    argv.extend(need.split(' ').map(str::to_string));
                    if need == "--checkpoint-dir" {
                        argv.push("ck".into());
                    }
                }
            }
            argv.push(key.to_string());
            if !switch {
                argv.push("0".into());
            }
            // Each case in a directory of its own, for what it writes.
            let cwd = dir.join(key.trim_start_matches('-'));
            std::fs::create_dir_all(&cwd).unwrap();
            let out = betty().args(&argv).current_dir(&cwd).env("TMPDIR", &cwd).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            let allowed: &[i32] = if *key == "--capacity-mib" { &[2] } else { &[0, 1] };
            assert!(out.status.code().is_some_and(|c| allowed.contains(&c)), "{argv:?}: {:?}\n{stderr}", out.status);
            if out.status.code() == Some(1) {
                assert!(out.stdout.is_empty(), "{argv:?} printed before failing: {stderr}");
            }
        }
    }
    assert_eq!(seen.len(), 58, "{seen:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
