//! Subcommand implementations. [`prepare`] reads a command's options
//! from its flags before any work and returns the work.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

use betty::{
    latest_valid_checkpoint, load_checkpoint_state, CheckpointPlan, DeviceGroup, ExperimentConfig,
    ModelKind, RetryPolicy, Runner, StrategyKind,
};
use betty_data::{load_dataset, save_dataset, Dataset, DatasetSpec};
use betty_device::FaultPlan;
use betty_graph::degree;
use betty_nn::AggregatorSpec;
use betty_partition::input_redundancy;
use betty_tensor::{Backend, DType};

use crate::args::{ArgError, Args};
use crate::flags::*;

/// What a subcommand returns.
pub(crate) type CmdResult = Result<(), Box<dyn Error>>;

/// A command's work, its options already read.
pub(crate) type Work = Box<dyn FnOnce() -> CmdResult>;

/// Reads `command`'s options, every flag of its column and no other, before
/// any work (no file is touched), and returns the work they describe.
pub(crate) fn prepare(command: Command, args: &Args) -> Result<Work, ArgError> {
    Ok(match command {
        Command::Generate => {
            let spec = preset(args)?.ok_or_else(|| ArgError(format!("missing required flag --{}", PRESET.key)))?;
            let (out, seed): (String, u64) = (args.value(&OUT)?, args.value(&SEED)?);
            Box::new(move || generate(&spec.generate(seed), &out))
        }
        Command::Info => {
            let source = Source::read(args)?;
            Box::new(move || info(&source))
        }
        Command::Partition => {
            let source = Source::read(args)?;
            let config = ExperimentConfig { dropout: args.value(&DROPOUT)?, ..model(args, source.precision)? };
            config.validate().map_err(ArgError)?;
            let k = args.count_or_auto(&K)?.unwrap_or(8);
            let (strategy, compare) = (strategy(args)?, args.switch(&COMPARE));
            let compute = Compute { threads: args.value(&THREADS)?, backend: None };
            Box::new(move || partition(&source, &config, &compute, k, (!compare).then_some(strategy)))
        }
        Command::Train => train(args)?,
        Command::Eval => {
            let chunk = args.value(&CHUNK)?;
            let source = Source::read(args)?;
            let config = ExperimentConfig {
                fault_plan: storage_faults(args)?,
                retry: RetryPolicy { max_io_retries: args.value(&IO_RETRIES)?, ..RetryPolicy::default() },
                ..model(args, source.precision)?
            };
            config.validate().map_err(ArgError)?;
            let (checkpoint, compute): (String, _) = (args.value(&CHECKPOINT)?, Compute::read(args)?);
            Box::new(move || eval(&source, &config, &compute, &checkpoint, chunk))
        }
    })
}

/// The spec `--preset` names, shaped by `--scale` and `--feature-dim` (their
/// rows keep out what `scaled` and `with_feature_dim` would panic on).
fn preset(args: &Args) -> Result<Option<DatasetSpec>, ArgError> {
    let (scale, feature_dim) = (args.value(&SCALE)?, args.value(&FEATURE_DIM)?);
    let name: Option<String> = args.opt(&PRESET)?;
    let spec = name.and_then(|name| DatasetSpec::all().into_iter().find(|s| s.name == name));
    Ok(spec.map(|s| s.scaled(scale).with_feature_dim(feature_dim)))
}

/// Where a command's dataset comes from, and where its features live.
struct Source {
    data: Option<String>,
    preset: Option<DatasetSpec>,
    seed: u64,
    precision: DType,
    /// `--feature-store paged`'s shard rows, cache, parity and directory.
    paged: Option<(usize, usize, usize, Option<PathBuf>)>,
}

impl Source {
    fn read(args: &Args) -> Result<Self, ArgError> {
        let (data, preset, seed) = (args.opt(&DATA)?, preset(args)?, args.value(&SEED)?);
        let precision = args.pick(&PRECISION, &[DType::F32, DType::Bf16, DType::F16])?;
        let paged = args.pick(&FEATURE_STORE, &[false, true])?;
        // An unbounded cache is still charged honestly: the reservation is
        // min(budget, total feature bytes).
        let cache = args.opt(&FEATURE_CACHE_BYTES)?.unwrap_or(usize::MAX);
        let store = (args.value(&FEATURE_PAGE_ROWS)?, cache, args.value(&FEATURE_PARITY)?, args.opt(&FEATURE_DIR)?);
        Ok(Source { data, preset, seed, precision, paged: paged.then_some(store) })
    }

    /// Loads `--data` or synthesizes `--preset`, and stores its features as
    /// asked; the guard removes a spill directory `--feature-dir` did not name.
    fn load(&self) -> Result<(Dataset, Option<SpillDir>), Box<dyn Error>> {
        let mut ds = match (&self.data, &self.preset) {
            (Some(path), None) => load_dataset(path)?,
            (None, Some(spec)) => spec.generate(self.seed),
            (Some(_), Some(_)) => return Err(ArgError("give --data <file> or --preset <name>, not both".into()).into()),
            (None, None) => return Err(ArgError("provide --data <file> or --preset <name>".into()).into()),
        };
        // Re-encode at the storage width *before* any spill, so shards
        // carry 16-bit payloads and the cache holds half the bytes (a paged
        // store cannot be re-encoded).
        if self.precision != DType::F32 {
            ds.features = ds.features.with_dtype(self.precision);
        }
        let Some((page_rows, cache, parity, dir)) = &self.paged else {
            return Ok((ds, None));
        };
        let spill = dir.is_none().then(|| {
            let name = format!("betty-features-{}-{}", ds.name, std::process::id());
            SpillDir(std::env::temp_dir().join(name))
        });
        let dir = dir.as_ref().or(spill.as_ref().map(|s| &s.0)).expect("a directory either way");
        ds.features = ds.features.to_paged_with_parity(dir, *page_rows, *cache, *parity)?;
        Ok((ds, spill))
    }
}

/// The per-process directory a paged store spills to when `--feature-dir`
/// names none, removed when the command ends, on success or error.
struct SpillDir(PathBuf);

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `--threads` and `--backend`, pinned before the command's work.
struct Compute {
    /// 0 keeps the `BETTY_THREADS` / core-count resolution.
    threads: usize,
    /// `None` keeps the `BETTY_BACKEND` / simd resolution.
    backend: Option<Backend>,
}

impl Compute {
    fn read(args: &Args) -> Result<Self, ArgError> {
        let backend = args.opt::<String>(&BACKEND)?;
        Ok(Compute { threads: args.value(&THREADS)?, backend: backend.as_deref().and_then(Backend::parse) })
    }

    fn pin(&self) {
        if self.threads > 0 {
            betty_runtime::set_thread_override(Some(self.threads));
        }
        if self.backend.is_some() {
            betty_tensor::set_backend_override(self.backend);
        }
    }
}

fn strategy(args: &Args) -> Result<StrategyKind, ArgError> {
    use StrategyKind::{Betty, Metis, Random, Range};
    args.pick(&STRATEGY, &[Betty, Range, Random, Metis])
}

/// The model shape `partition`, `train` and `eval` build, at `precision`.
fn model(args: &Args, precision: DType) -> Result<ExperimentConfig, ArgError> {
    use AggregatorSpec::{Lstm, Mean, Pool, Sum};
    Ok(ExperimentConfig {
        fanouts: args.list(&FANOUTS)?,
        hidden_dim: args.value(&HIDDEN)?,
        aggregator: args.pick(&AGGREGATOR, &[Mean, Sum, Pool, Lstm])?,
        model: args.pick(&MODEL, &[ModelKind::GraphSage, ModelKind::Gat, ModelKind::Gcn, ModelKind::Gin])?,
        num_heads: args.value(&HEADS)?,
        precision,
        ..ExperimentConfig::default()
    })
}

/// The storage faults: they fire in `train`'s and a paged `eval`'s reads.
fn storage_faults(args: &Args) -> Result<FaultPlan, ArgError> {
    Ok(FaultPlan {
        seed: args.value(&FAULT_SEED)?,
        io_failure_rate: args.value(&FAULT_IO_RATE)?,
        io_stall_rate: args.value(&FAULT_IO_STALL_RATE)?,
        io_stall_sec: args.value(&FAULT_IO_STALL_SEC)?,
        ..FaultPlan::default()
    })
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// `betty generate`.
fn generate(ds: &Dataset, out: &str) -> CmdResult {
    save_dataset(ds, out)?;
    say!(
        "wrote {} ({} nodes, {} edges, {} classes) to {out}",
        ds.name,
        ds.graph.num_nodes(),
        ds.graph.num_edges(),
        ds.num_classes
    )?;
    Ok(())
}

/// `betty info`.
fn info(source: &Source) -> CmdResult {
    let (ds, _spill) = source.load()?;
    let in_degs = ds.graph.in_degrees();
    let stats = degree::stats(&in_degs);
    say!("dataset    {}", ds.name)?;
    say!("nodes      {}", ds.graph.num_nodes())?;
    say!("edges      {}", ds.graph.num_edges())?;
    say!(
        "features   {} ({} store)",
        ds.feature_dim(),
        ds.features.backend_name()
    )?;
    say!("classes    {}", ds.num_classes)?;
    say!(
        "splits     train {} / val {} / test {}",
        ds.train_idx.len(),
        ds.val_idx.len(),
        ds.test_idx.len()
    )?;
    say!(
        "in-degree  min {} / median {} / mean {:.1} / max {}",
        stats.min, stats.median, stats.mean, stats.max
    )?;
    if let Some(slope) = degree::log_log_slope(&degree::histogram(&in_degs)) {
        say!("power law  log-log slope {slope:.2}")?;
    }
    let cc = betty_graph::weakly_connected_components(&ds.graph);
    say!(
        "components {} (largest covers {:.1}% of nodes)",
        cc.count(),
        100.0 * cc.largest() as f64 / ds.graph.num_nodes().max(1) as f64
    )?;
    Ok(())
}

/// `betty partition`: one strategy's split, or all four (`None`, `--compare`).
fn partition(source: &Source, config: &ExperimentConfig, compute: &Compute, k: usize, strategy: Option<StrategyKind>) -> CmdResult {
    compute.pin();
    let (ds, _spill) = source.load()?;
    let mut runner = Runner::new(&ds, config, source.seed);
    let batch = runner.sample_full_batch(&ds);
    let Some(kind) = strategy else {
        say!(
            "strategy {:>12} {:>12} {:>14} {:>14}",
            "inputs", "redundancy", "est peak MiB", "partition ms"
        )?;
        for kind in StrategyKind::ALL {
            let plan = runner.plan_fixed(&batch, kind, k);
            let report = input_redundancy(&plan.micro_batches);
            say!(
                "{:<8} {:>12} {:>11.3}x {:>14.2} {:>14.1}",
                kind.name(),
                report.total_input_nodes,
                report.redundancy_ratio(),
                mib(plan.max_estimated_peak()),
                plan.partition_sec * 1e3,
            )?;
        }
        return Ok(());
    };
    let plan = runner.plan_fixed(&batch, kind, k);
    let report = input_redundancy(&plan.micro_batches);
    say!(
        "strategy {} split {} outputs into {} micro-batches ({:.1} ms partition, {:.1} ms extraction)",
        kind,
        batch.output_nodes().len(),
        plan.micro_batches.len(),
        plan.partition_sec * 1e3,
        plan.extraction_sec * 1e3,
    )?;
    say!(
        "input nodes {} (unique {}, redundancy {:.3}x)",
        report.total_input_nodes,
        report.unique_input_nodes,
        report.redundancy_ratio()
    )?;
    say!("{:>4} {:>10} {:>12} {:>14}", "id", "outputs", "inputs", "est peak MiB")?;
    for (i, (mb, est)) in plan.micro_batches.iter().zip(&plan.estimates).enumerate() {
        say!(
            "{i:>4} {:>10} {:>12} {:>14.2}",
            mb.output_nodes().len(),
            mb.input_nodes().len(),
            mib(est.peak_bytes())
        )?;
    }
    Ok(())
}

/// `betty train`: its options, then the work.
fn train(args: &Args) -> Result<Work, ArgError> {
    let source = Source::read(args)?;
    let capacity_mib: usize = args.value(&CAPACITY_MIB)?;
    let capacity_bytes = capacity_mib.checked_mul(1 << 20).ok_or_else(|| {
        ArgError(format!("--capacity-mib {capacity_mib}: more bytes than this machine can address"))
    })?;
    let config = ExperimentConfig {
        dropout: args.value(&DROPOUT)?,
        learning_rate: args.value(&LR)?,
        capacity_bytes,
        fault_plan: FaultPlan {
            alloc_failure_rate: args.value(&FAULT_ALLOC_RATE)?,
            oom_steps: args.list(&FAULT_OOM_STEPS)?,
            capacity_jitter: args.value(&FAULT_JITTER)?,
            transfer_stall_rate: args.value(&FAULT_STALL_RATE)?,
            transfer_stall_sec: args.value(&FAULT_STALL_SEC)?,
            nan_loss_steps: args.list(&FAULT_NAN_STEPS)?,
            device_fail_steps: args.pairs(&FAULT_DEVICE_FAIL)?,
            straggler_factors: args.pairs(&FAULT_STRAGGLER)?,
            link_stall_rate: args.value(&FAULT_LINK_RATE)?,
            link_stall_sec: args.value(&FAULT_LINK_STALL_SEC)?,
            shard_corrupt: args.pairs(&FAULT_SHARD_CORRUPT)?,
            ..storage_faults(args)?
        },
        retry: RetryPolicy {
            max_retries: args.value(&RETRIES)?,
            growth: args.value(&RETRY_GROWTH)?,
            headroom: args.value(&RETRY_HEADROOM)?,
            max_anomaly_retries: args.value(&ANOMALY_RETRIES)?,
            max_io_retries: args.value(&IO_RETRIES)?,
        },
        plan_ahead: args.value(&PLAN_AHEAD)?,
        ..model(args, source.precision)?
    };
    config.validate().map_err(ArgError)?;
    // The elastic group, with device-level fault specs checked against
    // its size so a malformed one is a usage error, not a panic mid-run.
    let devices = args.value(&DEVICES)?;
    let mut group = DeviceGroup::new(devices);
    group.allreduce_timeout_sec = args.value::<f64>(&ALLREDUCE_TIMEOUT_MS)? / 1e3;
    group.max_device_retries = args.value(&MAX_DEVICE_RETRIES)?;
    group.straggler_threshold = args.value(&STRAGGLER_THRESHOLD)?;
    config.fault_plan.validate_for_devices(devices).map_err(ArgError)?;
    let every = args.value(&CHECKPOINT_EVERY)?;
    let checkpoints = args.opt::<String>(&CHECKPOINT_DIR)?.map(|dir| CheckpointPlan::new(dir, every));
    checkpoints.as_ref().map_or(Ok(()), CheckpointPlan::validate).map_err(ArgError)?;
    let (model, kind, epochs): (String, _, usize) = (args.value(&MODEL)?, strategy(args)?, args.value(&EPOCHS)?);
    // The K every epoch starts from; recovery escalates it on a failure.
    let k0 = args.count_or_auto(&K)?.unwrap_or(1);
    let (checkpoint, resume): (Option<String>, _) = (args.opt(&CHECKPOINT)?, args.switch(&RESUME));
    let (trace_out, trace_summary): (Option<String>, _) = (args.opt(&TRACE_OUT)?, args.switch(&TRACE_SUMMARY));
    let compute = Compute::read(args)?;
    Ok(Box::new(move || {
        checkpoints.as_ref().map_or(Ok(()), CheckpointPlan::ensure_dir)?;
        compute.pin();
        let (ds, _spill) = source.load()?;
        let shards = ds.features.num_shards();
        if let Some(&(shard, epoch)) = config.fault_plan.shard_corrupt.iter().find(|&&(s, _)| s >= shards) {
            return Err(Box::new(ArgError(format!(
                "--{} entry (shard {shard}, epoch {epoch}): \
                 shard index out of range for {shards} shards",
                FAULT_SHARD_CORRUPT.key
            ))));
        }
        let mut runner = Runner::new(&ds, &config, source.seed);
        if trace_out.is_some() || trace_summary {
            runner.enable_tracing();
        }
        // Resume replaces every piece of the freshly built session — params,
        // Adam moments, both RNG streams, counters, even the base seed — so
        // the continued run is bit-identical to one that was never killed.
        // A checkpoint-slot fallback (newest slot fails CRC, an older one
        // loads) lands in the runner's recovery log.
        let mut start_epoch = 0usize;
        if resume {
            let plan = checkpoints.as_ref().expect("--resume needs --checkpoint-dir");
            let Some(found) = latest_valid_checkpoint(&plan.dir)? else {
                return Err(Box::new(ArgError(format!(
                    "--resume: no checkpoint found in {}",
                    plan.dir.display()
                ))));
            };
            for skipped in &found.skipped {
                say!(
                    "skipping corrupt checkpoint {} (failed CRC/format validation)",
                    skipped.display()
                )?;
            }
            runner.resume(&found)?;
            let path = found.path;
            start_epoch = runner.epochs_run();
            if start_epoch >= epochs {
                say!(
                    "resumed from {} — all {epochs} epochs already trained",
                    path.display()
                )?;
            } else {
                say!(
                    "resumed from {} ({start_epoch} epochs done, continuing at epoch {start_epoch})",
                    path.display()
                )?;
            }
        }
        say!(
            "training {} on {} ({} train nodes), strategy {kind}, capacity {:.0} MiB",
            model,
            ds.name,
            ds.train_idx.len(),
            mib(config.capacity_bytes)
        )?;
        if ds.features.is_paged() {
            say!(
                "feature store: paged ({:.1} MiB of features on disk, {:.1} MiB pinned cache)",
                mib(ds.features.size_bytes()),
                mib(ds.features.cache_reservation_bytes())
            )?;
        }
        if !config.fault_plan.is_noop() {
            say!(
                "fault injection armed (seed {}), recovery budget {} retries",
                config.fault_plan.seed, config.retry.max_retries
            )?;
        }
        say!(
            "{:>6} {:>10} {:>5} {:>12} {:>10}",
            "epoch", "loss", "K", "peak MiB", "val acc"
        )?;
        let run = |runner: &mut Runner| -> CmdResult {
            for epoch in start_epoch..epochs {
                let multi = runner.train_epoch_elastic(&ds, kind, k0, &group)?;
                if multi.live_ranks < devices {
                    say!(
                        "epoch {epoch}: {} of {devices} ranks survived \
                         (+{:.3}s failover overhead)",
                        multi.live_ranks,
                        multi.failover_overhead_sec()
                    )?;
                }
                let (stats, k) = (multi.combined, multi.assignment.len());
                let report = epoch == epochs - 1 || epoch % 5 == 0;
                if report {
                    let val = runner.evaluate(&ds, &ds.val_idx);
                    say!(
                        "{epoch:>6} {:>10.4} {k:>5} {:>12.1} {:>9.1}%",
                        stats.loss,
                        mib(stats.max_peak_bytes),
                        val * 100.0
                    )?;
                }
                // Saved after the (optional) evaluation so the sampler RNG
                // in the checkpoint already reflects what evaluation drew;
                // resuming then replays the uninterrupted stream exactly.
                if let Some(plan) = &checkpoints {
                    if plan.due_after(epoch, epochs) {
                        plan.save(&runner.export_session(), epoch)?;
                    }
                }
            }
            Ok(())
        };
        let result = run(&mut runner);
        // The trace is written even when training failed: a trace of the run
        // that OOMed is exactly what the flags exist to capture.
        // A trace that cannot be written names its path; when the run failed
        // too, the run's error and exit code win and this goes to stderr.
        if let Some(trace) = runner.take_trace() {
            if let Some(path) = &trace_out {
                match trace.write_jsonl(path) {
                    Ok(()) => say!("trace written to {path} ({} events)", trace.len())?,
                    Err(e) if result.is_err() => drop(say!(to stderr, "cannot write trace to {path}: {e}")),
                    Err(e) => return Err(format!("cannot write trace to {path}: {e}").into()),
                }
            }
            if trace_summary {
                say!("{}", trace.summary())?;
            }
        }
        let recovery = runner.recovery_log();
        if let Err(e) = result {
            if !recovery.is_empty() {
                let _ = say!(to stderr, "{}", recovery.summary());
            }
            return Err(e);
        }
        if !recovery.is_empty() {
            say!("{}", recovery.summary())?;
        }
        let test = runner.evaluate(&ds, &ds.test_idx);
        say!("test accuracy: {:.2}%", test * 100.0)?;
        if let Some(path) = &checkpoint {
            betty_nn::save_checkpoint(runner.trainer().model(), path)?;
            say!("checkpoint written to {path}")?;
        }
        Ok(())
    }))
}

/// Damage survived a [`scrub`] pass: `main` maps this marker error onto
/// its own distinct exit code (7) so scripts can tell "the store needs
/// to be re-generated" apart from usage errors and training failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ScrubFailed {
    /// What is still damaged, one clause per item.
    pub detail: String,
}

impl fmt::Display for ScrubFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scrub: unrepairable damage remains: {}", self.detail)
    }
}

impl Error for ScrubFailed {}

/// `betty scrub <dir>` — offline integrity pass over a store directory.
///
/// Verifies every feature shard and parity shard CRC (repairing what the
/// XOR parity sidecar allows, exactly like the mid-run repair path:
/// single damaged data shard per group reconstructed bit-identically and
/// re-persisted, damaged parity shard rebuilt from intact data) and every
/// `ckpt-NNNNNN.btc` checkpoint slot in the directory. Corrupt checkpoint
/// slots with a valid older sibling are reported but non-fatal — resume
/// falls back past them. Unrepairable damage (a feature-shard group with
/// two bad members, no parity sidecar, or *every* checkpoint slot
/// corrupt) returns [`ScrubFailed`], which exits with code 7.
pub(crate) fn scrub(dir: &str) -> CmdResult {
    let root = std::path::Path::new(dir);
    if !root.is_dir() {
        return Err(Box::new(ArgError(format!(
            "scrub: '{dir}' is not a directory"
        ))));
    }
    let mut fatal: Vec<String> = Vec::new();
    let mut scrubbed_anything = false;

    if root.join(betty_data::META_FILE).exists() {
        scrubbed_anything = true;
        let report = betty_data::scrub(root)?;
        say!(
            "feature store: {} data shards, {} parity groups (width {})",
            report.shards_checked, report.parity_checked, report.parity_width
        )?;
        for shard in &report.shards_repaired {
            say!("  repaired shard {shard} from parity (bit-identical, re-persisted)")?;
        }
        for group in &report.parity_rebuilt {
            say!("  rebuilt parity shard of group {group} from its intact data shards")?;
        }
        for shard in &report.unrepairable {
            say!("  UNREPAIRABLE: shard {shard}")?;
            fatal.push(format!("feature shard {shard}"));
        }
        if report.is_clean() && report.shards_repaired.is_empty() && report.parity_rebuilt.is_empty()
        {
            say!("  all shards verify clean")?;
        }
    }

    let mut slots: Vec<std::path::PathBuf> = std::fs::read_dir(root)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".btc"))
        })
        .collect();
    if !slots.is_empty() {
        scrubbed_anything = true;
        slots.sort();
        let mut valid = 0usize;
        let mut corrupt = 0usize;
        for path in &slots {
            match load_checkpoint_state(path) {
                Ok(_) => valid += 1,
                Err(err) => {
                    corrupt += 1;
                    say!("  corrupt checkpoint {}: {err}", path.display())?;
                }
            }
        }
        say!(
            "checkpoints: {} slots, {valid} valid, {corrupt} corrupt",
            slots.len()
        )?;
        if valid == 0 {
            fatal.push(format!("every checkpoint slot ({corrupt}) is corrupt"));
        } else if corrupt > 0 {
            say!("  --resume will fall back past the corrupt slot(s) to a valid one")?;
        }
    }

    if !scrubbed_anything {
        return Err(Box::new(ArgError(format!(
            "scrub: '{dir}' holds neither a paged feature store nor checkpoints"
        ))));
    }
    if fatal.is_empty() {
        say!("scrub: clean")?;
        Ok(())
    } else {
        Err(Box::new(ScrubFailed {
            detail: fatal.join("; "),
        }))
    }
}

/// `betty eval`.
fn eval(source: &Source, config: &ExperimentConfig, compute: &Compute, checkpoint: &str, chunk: usize) -> CmdResult {
    compute.pin();
    let (ds, _spill) = source.load()?;
    let mut runner = Runner::new(&ds, config, source.seed);
    betty_nn::load_checkpoint(runner.trainer_mut().model_mut(), checkpoint)?;
    let acc = betty::accuracy_full_graph(runner.trainer().model(), &ds, &ds.test_idx, chunk)?;
    say!("exact full-graph test accuracy: {:.2}% ({} nodes)", acc * 100.0, ds.test_idx.len())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn args(argv: &[&str]) -> Args {
        Args::parse(argv.iter().map(|s| s.to_string())).unwrap()
    }

    /// A value every row accepts: its default, its first choice, or one of
    /// the shape its placeholder shows.
    fn sample(flag: &Flag) -> &'static str {
        match (flag.default, flag.check, flag.key) {
            (Some(default), ..) => default,
            (None, Check::OneOf(words), _) => words[0],
            (None, _, "feature-cache-bytes") => "4096",
            (None, _, "fault-oom-steps" | "fault-nan-steps") => "1",
            (None, _, "fault-device-fail" | "fault-shard-corrupt") => "0:1",
            (None, _, "fault-straggler") => "0:2.5",
            (None, ..) => "some-path",
        }
    }

    /// Each column lists exactly what its command reads: built from an argv
    /// that sets every flag of the column, the options look up each of those
    /// keys and no other, and succeed before any work.
    #[test]
    fn each_column_is_what_its_command_reads() {
        for command in Command::ALL {
            let column: BTreeSet<&str> = rows().filter(|f| f.reads(command)).map(|f| f.key).collect();
            let mut argv = Vec::new();
            for flag in rows().filter(|f| f.reads(command)) {
                argv.push(format!("--{}", flag.key));
                if !matches!(flag.check, Check::Switch) {
                    argv.push(sample(flag).to_string());
                }
            }
            let parsed = Args::parse(argv.clone()).unwrap();
            assert!(prepare(command, &parsed).is_ok(), "{command:?} {argv:?}");
            assert_eq!(*parsed.read.borrow(), column, "{command:?} reads other keys than its column");
            // No flag given: the defaults are read, and only the column.
            let bare = args(&[]);
            let _ = prepare(command, &bare);
            assert!(bare.read.borrow().is_subset(&column), "{command:?}");
        }
    }

    /// Argv built from the table's own keys, with values that are zero,
    /// negative, NaN, infinite, empty, repeated or unknown, through the
    /// checks and the option building the commands use: each is a usage
    /// error or options, never a panic.
    #[test]
    fn hostile_values_are_usage_errors_or_options_never_panics() {
        let (mut cases, mut accepted) = (0, 0);
        for command in Command::ALL {
            for flag in rows().filter(|f| f.reads(command)) {
                // A tiny preset, and what the command needs to get past its
                // required flags; the flag under test is given only once.
                let base = [("preset", "cora"), ("scale", "0.02"), ("epochs", "1"), ("out", "o"), ("checkpoint", "c")];
                let mut needs: Vec<String> = match flag.needs {
                    Needs::Value(other, value) => vec![format!("--{}", other.key), value.to_string()],
                    Needs::Flag(other) => vec![format!("--{}", other.key), "d".into()],
                    Needs::Nothing | Needs::Preset(_) => Vec::new(),
                };
                for (key, value) in base {
                    if key != flag.key && rows().any(|f| f.key == key && f.reads(command)) {
                        needs.extend([format!("--{key}"), value.to_string()]);
                    }
                }
                let key = format!("--{}", flag.key);
                let mut argvs: Vec<Vec<String>> = ["0", "-1", "NaN", "inf", ""]
                    .iter()
                    .map(|value| [key.clone(), value.to_string()].to_vec())
                    .collect();
                argvs.push(vec![key.clone(), "0".into(), key.clone(), "0".into()]);
                argvs.push(vec![key.clone(), key.clone()]);
                argvs.push(vec![key.clone()]);
                argvs.push(vec!["--no-such-flag".into(), "1".into()]);
                for argv in argvs {
                    let argv: Vec<String> = needs.iter().cloned().chain(argv).collect();
                    let outcome = Args::parse(argv.clone()).and_then(|a| {
                        a.reject_unread(command)?;
                        prepare(command, &a).map(drop)
                    });
                    match outcome {
                        Ok(()) => accepted += 1,
                        Err(e) => assert!(!e.0.starts_with("unexpected positional"), "{command:?} {argv:?}: {e}"),
                    }
                    cases += 1;
                }
            }
        }
        assert!(cases > 1000 && accepted > 50, "{accepted} of {cases} cases accepted");
    }

    /// The table's defaults are the library's: a run given no flag gets the
    /// configuration the library builds by default.
    #[test]
    fn the_tables_defaults_are_the_librarys() {
        let none = args(&[]);
        let config = ExperimentConfig::default();
        assert_eq!(model(&none, DType::F32).unwrap(), config);
        assert_eq!(storage_faults(&none).unwrap(), FaultPlan::default());
        let value = |flag: &Flag| flag.default.unwrap().to_string();
        let retry = RetryPolicy::default();
        assert_eq!(value(&DROPOUT).parse::<f32>().unwrap(), config.dropout);
        assert_eq!(value(&LR).parse::<f32>().unwrap(), config.learning_rate);
        assert_eq!(value(&CAPACITY_MIB).parse::<usize>().unwrap() << 20, config.capacity_bytes);
        assert_eq!(value(&PLAN_AHEAD).parse::<usize>().unwrap(), config.plan_ahead);
        assert_eq!(value(&RETRIES).parse::<usize>().unwrap(), retry.max_retries);
        assert_eq!(value(&RETRY_GROWTH).parse::<f64>().unwrap(), retry.growth);
        assert_eq!(value(&RETRY_HEADROOM).parse::<f64>().unwrap(), retry.headroom);
        assert_eq!(value(&ANOMALY_RETRIES).parse::<usize>().unwrap(), retry.max_anomaly_retries);
        assert_eq!(value(&IO_RETRIES).parse::<usize>().unwrap(), retry.max_io_retries);
        let faults = FaultPlan::default();
        for (flag, rate) in [
            (&FAULT_ALLOC_RATE, faults.alloc_failure_rate),
            (&FAULT_JITTER, faults.capacity_jitter),
            (&FAULT_STALL_RATE, faults.transfer_stall_rate),
            (&FAULT_STALL_SEC, faults.transfer_stall_sec),
            (&FAULT_LINK_RATE, faults.link_stall_rate),
            (&FAULT_LINK_STALL_SEC, faults.link_stall_sec),
        ] {
            assert_eq!(value(flag).parse::<f64>().unwrap(), rate, "--{}", flag.key);
        }
        let group = DeviceGroup::new(1);
        assert_eq!(value(&ALLREDUCE_TIMEOUT_MS).parse::<f64>().unwrap() / 1e3, group.allreduce_timeout_sec);
        assert_eq!(value(&MAX_DEVICE_RETRIES).parse::<usize>().unwrap(), group.max_device_retries);
        assert_eq!(value(&STRAGGLER_THRESHOLD).parse::<f64>().unwrap(), group.straggler_threshold);
    }

    /// Each choice of a row reads as the library value of that name.
    #[test]
    fn choices_read_as_the_library_values_they_name() {
        let words = |flag: &Flag| match flag.check {
            Check::OneOf(words) => words,
            _ => panic!("--{} has no choices", flag.key),
        };
        let presets: Vec<&str> = DatasetSpec::all().into_iter().map(|s| s.name).collect();
        assert_eq!(words(&PRESET), presets);
        for word in words(&PRECISION) {
            let source = Source::read(&args(&["--precision", word])).unwrap();
            assert_eq!(source.precision.name(), *word);
        }
        for word in words(&STRATEGY) {
            assert_eq!(strategy(&args(&["--strategy", word])).unwrap().name(), *word);
        }
        for word in words(&BACKEND) {
            let compute = Compute::read(&args(&["--backend", word])).unwrap();
            assert_eq!(compute.backend, Backend::parse(word));
            assert!(compute.backend.is_some());
        }
        for word in words(&MODEL) {
            let kind = model(&args(&["--model", word]), DType::F32).unwrap().model;
            assert!(format!("{kind:?}").to_lowercase().ends_with(word), "{word} reads as {kind:?}");
        }
        for word in words(&AGGREGATOR) {
            let spec = model(&args(&["--aggregator", word]), DType::F32).unwrap().aggregator;
            assert_eq!(format!("{spec:?}").to_lowercase(), *word);
        }
    }
}
