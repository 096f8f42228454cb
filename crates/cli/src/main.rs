//! `betty` — command-line interface for the Betty GNN training system.
//!
//! ```text
//! betty generate  --preset ogbn-arxiv --scale 0.01 --out data.btd
//! betty info      --data data.btd
//! betty partition --data data.btd --k 8 --strategy betty
//! betty train     --data data.btd --epochs 20 --k auto --capacity-mib 64
//! betty eval      --data data.btd --checkpoint model.ckpt
//! ```

/// `println!`, or `eprintln!` as `say!(to stderr, …)`, returning the write's
/// `io::Result` instead of panicking: a closed stdout pipe ends the command
/// quietly, and a closed stderr costs the message, never the exit code.
macro_rules! say {
    (to $stream:ident, $($arg:tt)*) => {
        std::io::Write::write_fmt(&mut std::io::$stream(), format_args!("{}\n", format_args!($($arg)*)))
    };
    ($($arg:tt)*) => { say!(to stdout, $($arg)*) };
}

mod args;
mod commands;
#[rustfmt::skip]
mod flags;

use std::io::ErrorKind;
use std::process::ExitCode;

use flags::Command;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(name) = argv.next() else {
        let _ = say!(to stderr, "{}", flags::help().trim_end());
        return ExitCode::FAILURE;
    };
    // `scrub` takes a positional directory, which the flag parser
    // (correctly) rejects — peel it off before parsing the rest.
    if name == "scrub" {
        let rest: Vec<String> = argv.collect();
        let (Some(dir), true) = (rest.first(), rest.len() == 1) else {
            return usage_error("usage: betty scrub <dir>");
        };
        return finish(commands::scrub(dir));
    }
    if ["help", "--help", "-h"].contains(&name.as_str()) {
        let help = flags::help();
        return finish(say!("{}", help.trim_end()).map_err(Into::into));
    }
    let Some(command) = Command::ALL.into_iter().find(|c| c.name() == name) else {
        return usage_error(&format!("unknown command '{name}'"));
    };
    // A flag the command does not read is an error, not a default, and
    // every value is read and checked before the command does any work.
    let args = args::Args::parse(argv);
    match args.and_then(|args| args.reject_unread(command).and_then(|()| commands::prepare(command, &args))) {
        Ok(work) => finish(work()),
        Err(e) => usage_error(&e.to_string()),
    }
}

/// Names a usage error on stderr, then the help; exit 1.
fn usage_error(message: &str) -> ExitCode {
    let _ = say!(to stderr, "error: {message}\n");
    let _ = say!(to stderr, "{}", flags::help().trim_end());
    ExitCode::FAILURE
}

/// Reports a command's outcome: success, or the error on stderr and its
/// exit code. A closed stdout is a reader that has read enough, not a
/// failure: exit 0 and print nothing.
fn finish(result: commands::CmdResult) -> ExitCode {
    let Err(e) = result else {
        return ExitCode::SUCCESS;
    };
    let io = e.downcast_ref::<std::io::Error>();
    if io.is_some_and(|io| io.kind() == ErrorKind::BrokenPipe) {
        return ExitCode::SUCCESS;
    }
    let _ = say!(to stderr, "error: {e}");
    exit_code_for(e.as_ref())
}

/// Maps failures onto distinct exit codes so scripts can tell apart:
/// 1 usage/IO errors (including unreadable/corrupt checkpoints),
/// 2 planning failure (no K fits), 3 recovery attempted but the retry
/// budget ran out, 4 unrecoverable OOM or storage damage (no retry was
/// possible), 5 a numeric anomaly survived its rollback budget, 6 the
/// elastic device group ran out of survivors, 7 `scrub` left
/// unrepairable damage behind.
fn exit_code_for(top: &(dyn std::error::Error + 'static)) -> ExitCode {
    let mut cursor = Some(top);
    while let Some(err) = cursor {
        if err.downcast_ref::<commands::ScrubFailed>().is_some() {
            return ExitCode::from(7);
        }
        if let Some(run) = err.downcast_ref::<betty::RunError>() {
            return match run {
                betty::RunError::Plan(_) => ExitCode::from(2),
                betty::RunError::RetryExhausted { .. } => ExitCode::from(3),
                betty::RunError::Train(_) => ExitCode::from(4),
                betty::RunError::Anomaly { .. } => ExitCode::from(5),
                betty::RunError::Checkpoint(_) => ExitCode::FAILURE,
                betty::RunError::DevicesExhausted(_) => ExitCode::from(6),
            };
        }
        if err.is::<betty::TrainError>() || err.is::<betty_data::FeatureStoreError>() {
            return ExitCode::from(4);
        }
        cursor = err.source();
    }
    ExitCode::FAILURE
}
