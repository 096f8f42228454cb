//! What the numbers were measured on, and the process counters read from
//! `/proc`.

use std::process::Command;

use serde_json::{json, Value};

use crate::workloads::BENCH_THREADS;

/// Widest vector extension the simd backend's dispatch will find here.
fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "baseline"
}

/// The commit the checkout is at; `unknown` where there is no git (the
/// driver's checkouts are plain directories).
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(crate::workloads::benchmark_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The report's `machine` block.
pub fn machine_block() -> Value {
    json!({
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "threads": BENCH_THREADS,
        "simd_level": simd_level(),
        "backend": betty_tensor::Backend::current().name(),
        "precision": "f32",
        "rustc": env!("BENCH_RUSTC_VERSION"),
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
        "git_rev": git_rev(),
    })
}

/// Peak resident set of this process so far (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    kib.checked_mul(1024)
}

/// Linux reports process CPU time in ticks of 1/100 s on every platform
/// this runs on (`sysconf(_SC_CLK_TCK)`; reading it needs libc).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// `(user, system)` CPU seconds this process has consumed, all threads.
pub fn cpu_times_s() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_times(&stat)
}

fn parse_cpu_times(stat: &str) -> Option<(f64, f64)> {
    // The command name (field 2) may hold spaces; fields resume after
    // the closing parenthesis, starting with field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11); // → field 14, utime
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / CLOCK_TICKS_PER_S, stime / CLOCK_TICKS_PER_S))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(12345 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn parses_cpu_ticks_after_a_spacey_command_name() {
        let stat = "4242 (betty bench) R) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 2 0";
        assert_eq!(parse_cpu_times(stat), Some((2.5, 0.5)));
        assert_eq!(parse_cpu_times("4242 (x) S 1 2"), None);
        assert_eq!(parse_cpu_times("garbage"), None);
    }

    #[test]
    fn proc_counters_are_readable_here() {
        assert!(peak_rss_bytes().unwrap() > 0);
        let (user, sys) = cpu_times_s().unwrap();
        assert!(user >= 0.0 && sys >= 0.0);
    }

    #[test]
    fn machine_block_names_the_box() {
        let m = machine_block();
        for key in [
            "nproc",
            "threads",
            "simd_level",
            "backend",
            "precision",
            "rustc",
            "git_rev",
        ] {
            assert!(crate::json::get(&m, key).is_some(), "missing {key}");
        }
    }
}
