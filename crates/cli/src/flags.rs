//! The one flag table. Each flag the commands read is one row: its key,
//! value, default, check, help and the commands that read it. The argv
//! check, the typed reads and `betty help` are all built from the rows,
//! which are laid out by hand, a line or two each (rustfmt skips the file).

use std::fmt::Write;

use Command::{Eval, Generate, Info, Partition, Train};

/// A command that takes flags (`scrub` takes one directory instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Command {
    Generate,
    Info,
    Partition,
    Train,
    Eval,
}

impl Command {
    pub(crate) const ALL: [Command; 5] = [Generate, Info, Partition, Train, Eval];
    /// Each command's name and what it does, in [`Command::ALL`]'s order.
    const ABOUT: [(&'static str, &'static str); 5] = [
        ("generate", "synthesize a dataset"),
        ("info", "describe a dataset"),
        ("partition", "split one batch, report quality"),
        ("train", "train a GNN with Betty"),
        ("eval", "exact full-graph accuracy"),
    ];

    pub(crate) fn name(self) -> &'static str {
        Self::ABOUT[self as usize].0
    }
}

/// What a flag's value must be, beyond parsing as the type its command reads.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Check {
    Any,
    /// A count above zero.
    Positive,
    /// A finite number ≥ 0.
    NonNegative,
    /// A number in (0, 1].
    Unit,
    OneOf(&'static [&'static str]),
    /// Takes no value.
    Switch,
}

/// What else a flag needs beside it to mean anything.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Needs {
    Nothing,
    Flag(&'static Flag),
    /// Another flag at this value (its default counts).
    Value(&'static Flag, &'static str),
    /// A `--preset` to shape on these commands: refused beside `--data`.
    Preset(&'static [Command]),
}

/// One row of the table.
#[derive(Debug)]
pub(crate) struct Flag {
    pub(crate) key: &'static str,
    /// The value's look in `betty help` (a choice shows its words instead).
    value: &'static str,
    /// What the command reads when the flag is absent.
    pub(crate) default: Option<&'static str>,
    pub(crate) check: Check,
    pub(crate) needs: Needs,
    help: &'static str,
    on: &'static [Command],
}

impl Flag {
    const fn new(key: &'static str, value: &'static str, on: &'static [Command]) -> Flag {
        Flag { key, value, default: None, check: Check::Any, needs: Needs::Nothing, help: "", on }
    }

    const fn switch(key: &'static str, on: &'static [Command]) -> Flag {
        Flag::new(key, "", on).check(Check::Switch)
    }

    const fn default(self, default: &'static str) -> Flag {
        Flag { default: Some(default), ..self }
    }

    const fn check(self, check: Check) -> Flag {
        Flag { check, ..self }
    }

    const fn needs(self, needs: Needs) -> Flag {
        Flag { needs, ..self }
    }

    const fn help(self, help: &'static str) -> Flag {
        Flag { help, ..self }
    }

    /// Whether `command` reads this flag (its column in the table).
    pub(crate) fn reads(&self, command: Command) -> bool {
        self.on.contains(&command)
    }

    /// `raw` as this flag's value, or the usage error naming the flag.
    pub(crate) fn verify(&self, raw: &str) -> Result<(), String> {
        let key = self.key;
        let problem = match (self.check, raw.parse::<f64>()) {
            (Check::Positive, _) if raw.parse::<usize>() == Ok(0) => "must be positive",
            (Check::NonNegative, Ok(v)) if !(v.is_finite() && v >= 0.0) => "must be finite and non-negative",
            (Check::Unit, Ok(v)) if !(v > 0.0 && v <= 1.0) => "must be in (0, 1]",
            (Check::OneOf(words), _) if !words.contains(&raw) => {
                return Err(format!("unknown {key} '{raw}' (try: {})", words.join(", ")));
            }
            _ => return Ok(()),
        };
        Err(format!("--{key} {problem}, got {raw}"))
    }

    /// The head of the flag's help entry: key, value and default.
    fn synopsis(&self) -> String {
        let value = match self.check {
            Check::OneOf(words) => words.join("|"),
            _ => self.value.to_string(),
        };
        let default = self.default.map(|d| format!(" (default {d})")).unwrap_or_default();
        format!("--{} {value}", self.key).trim_end().to_string() + &default
    }
}

const PAGED: Needs = Needs::Value(&FEATURE_STORE, "paged");
const EVERYWHERE: &[Command] = &Command::ALL;
const LOADS: &[Command] = &[Info, Partition, Train, Eval];
const MODELS: &[Command] = &[Partition, Train, Eval];

pub(crate) const DATA: Flag = Flag::new("data", "<file>", LOADS).help("a dataset file written by generate");
pub(crate) const PRESET: Flag = Flag::new("preset", "", EVERYWHERE).check(Check::OneOf(&["cora", "pubmed", "reddit", "ogbn-arxiv", "ogbn-products"]))
    .help("synthesize this dataset instead of loading --data (generate needs it)");
pub(crate) const SCALE: Flag = Flag::new("scale", "F", EVERYWHERE).default("0.01").check(Check::Unit).needs(Needs::Preset(EVERYWHERE))
    .help("the preset's node count, as a fraction of the real graph's");
pub(crate) const FEATURE_DIM: Flag = Flag::new("feature-dim", "D", EVERYWHERE).default("32").check(Check::Positive).needs(Needs::Preset(EVERYWHERE))
    .help("the preset's feature width");
pub(crate) const SEED: Flag = Flag::new("seed", "N", EVERYWHERE).default("0").needs(Needs::Preset(&[Info, Eval]))
    .help("seeds a preset's graph and features, and a run's sampling and weights");
pub(crate) const OUT: Flag = Flag::new("out", "<file>", &[Generate]).help("where generate writes the dataset (required)");

pub(crate) const FEATURE_STORE: Flag = Flag::new("feature-store", "", LOADS).default("dense").check(Check::OneOf(&["dense", "paged"]))
    .help("where node features live. 'paged' spills the feature matrix into row-range shards on disk and serves gathers through a pinned hot-set cache, so graphs whose features exceed host memory still train. Losses and parameters are bit-identical to dense; only the timing and the paging counters differ.");
pub(crate) const FEATURE_CACHE_BYTES: Flag = Flag::new("feature-cache-bytes", "N", LOADS).needs(PAGED)
    .help("hot-set cache budget (default unbounded). The device ledger charges min(N, total feature bytes) under its 'feature cache' category, and the planner charges the same, so estimator drift stays exact.");
pub(crate) const FEATURE_PAGE_ROWS: Flag = Flag::new("feature-page-rows", "N", LOADS).default("1024").check(Check::Positive).needs(PAGED)
    .help("rows per on-disk shard: the paging granularity and the unit of eviction");
pub(crate) const FEATURE_DIR: Flag = Flag::new("feature-dir", "<dir>", LOADS).needs(PAGED)
    .help("where the shards are written, and kept. Without it they go to a per-process directory under the system temp dir, removed when the command ends.");
pub(crate) const FEATURE_PARITY: Flag = Flag::new("feature-parity", "N", LOADS).default("0").needs(PAGED)
    .help("interleave one XOR parity shard per N data shards (0 = none). A mid-run CRC mismatch on one shard of a group is then rebuilt bit-identically in place and re-persisted; two bad shards in one group are a storage error.");
pub(crate) const PRECISION: Flag = Flag::new("precision", "", LOADS).default("f32").check(Check::OneOf(&["f32", "bf16", "f16"]))
    .help("storage dtype of node features and forward activations. 16-bit storage halves the bytes the memory estimator sees, so auto-planning picks fewer partitions on the same budget; compute still accumulates in f32. It changes the trained function, so --resume rejects a checkpoint of another precision.");

pub(crate) const FANOUTS: Flag = Flag::new("fanouts", "N,N,..", MODELS).default("10,25").help("neighbours sampled per layer, input layer first");
pub(crate) const MODEL: Flag = Flag::new("model", "", MODELS).default("sage").check(Check::OneOf(&["sage", "gat", "gcn", "gin"]))
    .help("the GNN; eval must be given the shape flags the model was trained with");
pub(crate) const AGGREGATOR: Flag = Flag::new("aggregator", "", MODELS).default("mean").check(Check::OneOf(&["mean", "sum", "pool", "lstm"]))
    .help("sage's neighbour aggregator");
pub(crate) const HIDDEN: Flag = Flag::new("hidden", "H", MODELS).default("64").help("hidden width");
pub(crate) const HEADS: Flag = Flag::new("heads", "N", MODELS).default("4").help("gat's attention heads; they must divide --hidden");
pub(crate) const DROPOUT: Flag = Flag::new("dropout", "F", &[Partition, Train]).default("0.1").help("dropout between layers, in [0, 1)");
pub(crate) const CHECKPOINT: Flag = Flag::new("checkpoint", "<file>", &[Train, Eval]).help("train saves the model here; eval scores it (required)");
pub(crate) const CHUNK: Flag = Flag::new("chunk", "N", &[Eval]).default("1024").check(Check::Positive).help("nodes per block of eval's full-graph inference");

pub(crate) const K: Flag = Flag::new("k", "auto|N", &[Partition, Train]).default("auto").check(Check::Positive)
    .help("micro-batches per batch. train: the K every epoch starts from (auto = 1), grown when a plan does not fit; partition: the K to split into (auto = 8)");
pub(crate) const STRATEGY: Flag = Flag::new("strategy", "", &[Partition, Train]).default("betty")
    .check(Check::OneOf(&["betty", "range", "random", "metis"])).help("how the output nodes are split into micro-batches");
pub(crate) const COMPARE: Flag = Flag::switch("compare", &[Partition]).help("run all four strategies side by side");
pub(crate) const EPOCHS: Flag = Flag::new("epochs", "N", &[Train]).default("20").help("epochs to train");
pub(crate) const LR: Flag = Flag::new("lr", "F", &[Train]).default("0.003").help("Adam's learning rate, fixed for the run");
pub(crate) const CAPACITY_MIB: Flag = Flag::new("capacity-mib", "M", &[Train]).default("24576").help("the simulated device's memory in MiB");
pub(crate) const PLAN_AHEAD: Flag = Flag::new("plan-ahead", "N", &[Train]).default("0")
    .help("stage up to N future epochs' sampling and REG partitioning on one planner thread while the current epoch trains (0: each epoch plans its own batch inline). Staged plans search K from the last plan's K, as inline ones do. Losses, parameters and every deterministic stat are bit-identical at any depth; under --threads 1 every depth is 0.");
pub(crate) const NO_POOL: Flag = Flag::switch("no-pool", &[Train])
    .help("rebuild every micro-batch's autograd tape from fresh heap allocations instead of the pooled workspace; bit-identical either way (an escape hatch for allocator debugging)");
pub(crate) const THREADS: Flag = Flag::new("threads", "N", MODELS).default("0")
    .help("worker threads. The REG build and micro-batch extraction are always sharded across them, a dense product or fused aggregation only when a call carries 2^26 multiply-adds per shard. 1 is exactly serial; 0 is the BETTY_THREADS env var, then the core count (capped at 8). Every count gives bit-identical results.");
pub(crate) const BACKEND: Flag = Flag::new("backend", "", &[Train, Eval]).check(Check::OneOf(&["scalar", "simd"]))
    .help("compute backend of the tensor kernels (default: the BETTY_BACKEND env var, then simd). 'scalar' is the portable reference; 'simd' picks AVX-512/AVX2 kernels at runtime. Results are bit-identical either way.");

pub(crate) const DEVICES: Flag = Flag::new("devices", "D", &[Train]).default("1").check(Check::Positive)
    .help("devices of the elastic group; a lost device's queue moves to the survivors");
pub(crate) const ALLREDUCE_TIMEOUT_MS: Flag = Flag::new("allreduce-timeout-ms", "M", &[Train]).default("100").check(Check::NonNegative)
    .help("sync round timeout");
pub(crate) const MAX_DEVICE_RETRIES: Flag = Flag::new("max-device-retries", "N", &[Train]).default("3").help("timed-out rounds retried before a rank is lost");
pub(crate) const STRAGGLER_THRESHOLD: Flag = Flag::new("straggler-threshold", "F", &[Train]).default("1.5").check(Check::NonNegative)
    .help("multiple of the median time per unit of work that flags a device");

pub(crate) const CHECKPOINT_DIR: Flag = Flag::new("checkpoint-dir", "<dir>", &[Train])
    .help("write a durable, CRC-checked session checkpoint here after each epoch (atomic, kill-safe)");
pub(crate) const CHECKPOINT_EVERY: Flag = Flag::new("checkpoint-every", "N", &[Train]).default("1").needs(Needs::Flag(&CHECKPOINT_DIR))
    .help("checkpoint cadence in epochs; the final epoch is always saved");
pub(crate) const RESUME: Flag = Flag::switch("resume", &[Train]).needs(Needs::Flag(&CHECKPOINT_DIR))
    .help("continue from the newest valid checkpoint; losses are bit-identical to a run that was never interrupted");

pub(crate) const RETRIES: Flag = Flag::new("retries", "N", &[Train]).default("3")
    .help("OOM recoveries per epoch, each at a larger K (0: the first OOM is fatal)");
pub(crate) const RETRY_GROWTH: Flag = Flag::new("retry-growth", "F", &[Train]).default("2").help("an OOM at K retries from max(K + 1, ceil(K · F))");
pub(crate) const RETRY_HEADROOM: Flag = Flag::new("retry-headroom", "F", &[Train]).default("0.1")
    .help("fraction of the capacity withheld from the planner per retry, compounding");
pub(crate) const ANOMALY_RETRIES: Flag = Flag::new("anomaly-retries", "N", &[Train]).default("1")
    .help("epoch rollbacks allowed on a NaN/Inf loss or gradient before aborting");
pub(crate) const IO_RETRIES: Flag = Flag::new("io-retries", "N", &[Train, Eval]).default("3")
    .help("retries of a failed shard read; exhaustion is a storage error");

pub(crate) const FAULT_SEED: Flag = Flag::new("fault-seed", "N", &[Train, Eval]).default("0").help("seeds every injected fault");
pub(crate) const FAULT_ALLOC_RATE: Flag = Flag::new("fault-alloc-rate", "F", &[Train]).default("0").help("probability that a device allocation fails");
pub(crate) const FAULT_OOM_STEPS: Flag = Flag::new("fault-oom-steps", "N,N,..", &[Train]).help("fail an allocation at these steps");
pub(crate) const FAULT_NAN_STEPS: Flag = Flag::new("fault-nan-steps", "N,N,..", &[Train])
    .help("poison the loss at these steps, for the numeric-anomaly sentinel to roll back");
pub(crate) const FAULT_JITTER: Flag = Flag::new("fault-jitter", "F", &[Train]).default("0").help("fraction of the capacity a step may find withheld");
pub(crate) const FAULT_STALL_RATE: Flag = Flag::new("fault-stall-rate", "F", &[Train]).default("0").help("probability that a host-to-device transfer stalls");
pub(crate) const FAULT_STALL_SEC: Flag = Flag::new("fault-stall-sec", "F", &[Train]).default("0").help("length of a transfer stall");
pub(crate) const FAULT_DEVICE_FAIL: Flag = Flag::new("fault-device-fail", "d:s,..", &[Train])
    .help("kill device d after it completes s micro-batches; the survivors absorb its queue (indices are checked against --devices)");
pub(crate) const FAULT_STRAGGLER: Flag = Flag::new("fault-straggler", "d:f,..", &[Train])
    .help("slow device d by a factor f ≥ 1; flagged when it exceeds --straggler-threshold");
pub(crate) const FAULT_LINK_RATE: Flag = Flag::new("fault-link-rate", "F", &[Train]).default("0")
    .help("probability of a transient all-reduce stall; at or above the timeout it is retried with seeded exponential backoff");
pub(crate) const FAULT_LINK_STALL_SEC: Flag = Flag::new("fault-link-stall-sec", "F", &[Train]).default("0").help("length of an all-reduce stall");
pub(crate) const FAULT_IO_RATE: Flag = Flag::new("fault-io-rate", "F", &[Train, Eval]).default("0").needs(PAGED)
    .help("probability that a shard read fails transiently; retried with seeded, jittered backoff. Losses and parameters stay bit-identical; only the I/O counters differ.");
pub(crate) const FAULT_IO_STALL_RATE: Flag = Flag::new("fault-io-stall-rate", "F", &[Train, Eval]).default("0").needs(PAGED)
    .help("probability that a shard read stalls (accounted, never slept)");
pub(crate) const FAULT_IO_STALL_SEC: Flag = Flag::new("fault-io-stall-sec", "F", &[Train, Eval]).default("0").needs(PAGED).help("length of a shard-read stall");
pub(crate) const FAULT_SHARD_CORRUPT: Flag = Flag::new("fault-shard-corrupt", "s:e,..", &[Train]).needs(PAGED)
    .help("flip one payload byte of shard s before epoch e; repaired bit-identically from parity when --feature-parity is on");

pub(crate) const TRACE_OUT: Flag = Flag::new("trace-out", "<file>", &[Train]).help("write spans, memory timeline, steps, epochs and faults as JSON lines");
pub(crate) const TRACE_SUMMARY: Flag = Flag::switch("trace-summary", &[Train])
    .help("print per-phase totals, the worst peak's category breakdown and the estimator-drift envelope");

/// Every row, under its heading in `betty help`. Needs are checked in
/// this order too: of two flags missing what they need, the earlier is named.
const TABLE: &[(&str, &[&Flag])] = &[
    ("dataset", &[&DATA, &PRESET, &SCALE, &FEATURE_DIM, &SEED, &OUT]),
    ("feature store", &[&FEATURE_STORE, &FEATURE_CACHE_BYTES, &FEATURE_PAGE_ROWS, &FEATURE_DIR, &FEATURE_PARITY, &PRECISION]),
    ("the model", &[&FANOUTS, &MODEL, &AGGREGATOR, &HIDDEN, &HEADS, &DROPOUT, &CHECKPOINT, &CHUNK]),
    ("planning and training", &[&K, &STRATEGY, &COMPARE, &EPOCHS, &LR, &CAPACITY_MIB, &PLAN_AHEAD, &NO_POOL, &THREADS, &BACKEND]),
    ("the device group", &[&DEVICES, &ALLREDUCE_TIMEOUT_MS, &MAX_DEVICE_RETRIES, &STRAGGLER_THRESHOLD]),
    ("durability", &[&CHECKPOINT_DIR, &CHECKPOINT_EVERY, &RESUME]),
    ("recovery", &[&RETRIES, &RETRY_GROWTH, &RETRY_HEADROOM, &ANOMALY_RETRIES, &IO_RETRIES]),
    ("fault injection", &[
        &FAULT_SEED, &FAULT_ALLOC_RATE, &FAULT_OOM_STEPS, &FAULT_NAN_STEPS, &FAULT_JITTER, &FAULT_STALL_RATE,
        &FAULT_STALL_SEC, &FAULT_DEVICE_FAIL, &FAULT_STRAGGLER, &FAULT_LINK_RATE, &FAULT_LINK_STALL_SEC,
        &FAULT_IO_RATE, &FAULT_IO_STALL_RATE, &FAULT_IO_STALL_SEC, &FAULT_SHARD_CORRUPT,
    ]),
    ("observability", &[&TRACE_OUT, &TRACE_SUMMARY]),
];

/// Every row, in the table's order.
pub(crate) fn rows() -> impl Iterator<Item = &'static Flag> {
    TABLE.iter().flat_map(|(_, rows)| rows.iter().copied())
}

const INTRO: &str = "betty — batch-level graph partitioning for GNN training (ASPLOS'23 reproduction)\n\n\
USAGE: betty <command> [flags]\n\nCOMMANDS (each with the flags it reads):\n";
const SCRUB: &str = "verifies every feature shard, parity shard, and checkpoint slot CRC in <dir>; repairs single-shard damage from the XOR parity sidecar (bit-identical, re-persisted) and rebuilds damaged parity shards. Exits 7 when unrepairable damage remains (two bad shards in one parity group, no parity sidecar, or every checkpoint slot corrupt).";
const RULE: &str = "A flag the command does not read — a misspelt key, a flag of another command, a value flag with no value, a switch given one — is a usage error naming it (exit 1).";
const EXIT_CODES: &str = "EXIT CODES: 0 success, 1 usage/IO error, 2 no partitioning fits the device, 3 OOM recovery retries exhausted, 4 unrecoverable OOM or storage damage beyond what parity can repair, 5 numeric anomaly persisted past the rollback budget, 6 every device of the elastic group was lost with work outstanding, 7 scrub found unrepairable damage in the store.";

/// `betty help`: each command's synopsis and each row, amid the prose no row owns.
pub(crate) fn help() -> String {
    let mut out = INTRO.to_string();
    for command in Command::ALL {
        let _ = writeln!(out, "  {:<10} {}", command.name(), Command::ABOUT[command as usize].1);
        let flags: Vec<String> = rows().filter(|f| f.reads(command)).map(|f| format!("--{}", f.key)).collect();
        wrap(&mut out, 13, &flags.join(" "));
    }
    out += "  scrub      offline integrity pass: betty scrub <dir>\n";
    wrap(&mut out, 13, SCRUB);
    out.push('\n');
    wrap(&mut out, 0, RULE);
    out += "\nFLAGS:\n";
    for (heading, rows) in TABLE {
        let _ = writeln!(out, " {heading}");
        for flag in *rows {
            let needs = match flag.needs {
                Needs::Nothing => String::new(),
                Needs::Flag(other) => format!(" Needs --{}.", other.key),
                Needs::Value(other, value) => format!(" Needs --{} {value}.", other.key),
                Needs::Preset(EVERYWHERE) => " Shapes a --preset; not with --data.".into(),
                Needs::Preset(on) => format!(" On {}, shapes a --preset; not with --data.", on.iter().map(|c| c.name()).collect::<Vec<_>>().join(" and ")),
            };
            let _ = writeln!(out, "  {}", flag.synopsis());
            wrap(&mut out, 6, &format!("{}.{needs}", flag.help.trim_end_matches('.')));
        }
    }
    out.push('\n');
    wrap(&mut out, 0, EXIT_CODES);
    out
}

/// Appends `text` word-wrapped at 78 columns, each line indented `indent`.
fn wrap(out: &mut String, indent: usize, text: &str) {
    let mut line = String::new();
    for word in text.split_whitespace() {
        if !line.is_empty() && indent + line.chars().count() + 1 + word.chars().count() > 78 {
            let _ = writeln!(out, "{:indent$}{line}", "");
            line.clear();
        }
        if !line.is_empty() {
            line.push(' ');
        }
        line += word;
    }
    let _ = writeln!(out, "{:indent$}{line}", "");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_and_table_agree() {
        let help = help();
        let keys: Vec<&str> = rows().map(|f| f.key).collect();
        for flag in rows() {
            let head = format!("\n  {}\n", flag.synopsis());
            assert!(help.contains(&head), "no entry {head:?} in the help");
            if let Some(default) = flag.default {
                assert!(head.contains(&format!("(default {default})")), "{head}");
            }
        }
        for token in help.split(|c: char| c.is_whitespace() || "(),.;".contains(c)) {
            if let Some(key) = token.strip_prefix("--") {
                assert!(keys.contains(&key), "the help names --{key}, which is no row");
            }
        }
        for key in ["heads", "dropout", "chunk"] {
            assert!(help.contains(&format!("\n  --{key} ")), "--{key} is missing from the help");
        }
        for command in Command::ALL {
            assert!(help.contains(&format!("\n  {:<10} ", command.name())), "{command:?}");
        }
    }

    #[test]
    fn every_key_is_one_row_and_read_by_a_command() {
        let mut keys: Vec<&str> = rows().map(|f| f.key).collect();
        assert_eq!(keys.len(), 59);
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 59, "a key has two rows");
        for flag in rows() {
            assert!(Command::ALL.into_iter().any(|c| flag.reads(c)), "--{} is read by no command", flag.key);
            if let Some(default) = flag.default {
                assert_eq!(flag.verify(default), Ok(()), "--{}'s default fails its own check", flag.key);
            }
            if let Needs::Flag(other) | Needs::Value(other, _) = flag.needs {
                let table = rows().position(|f| f.key == other.key);
                assert!(table < rows().position(|f| f.key == flag.key), "--{} precedes what it needs", flag.key);
                assert!(Command::ALL.into_iter().all(|c| !flag.reads(c) || other.reads(c)), "--{}", flag.key);
            }
        }
    }
}
