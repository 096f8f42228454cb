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
    let cases: [(&[&str], &str); 5] = [
        (&["train", "--epcohs", "50"], "unknown flag --epcohs"),
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
    assert!(stdout.contains("anomaly rollbacks"), "{stdout}");
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
