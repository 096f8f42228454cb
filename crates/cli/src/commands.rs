//! Subcommand implementations.

use std::error::Error;

use std::fmt;

use betty::{
    latest_valid_checkpoint, load_checkpoint_state, CheckpointPlan, DeviceGroup, ExperimentConfig,
    ModelKind, RetryPolicy, Runner, StrategyKind,
};
use betty_data::{load_dataset, save_dataset, Dataset, DatasetSpec};
use betty_device::FaultPlan;
use betty_graph::degree;
use betty_nn::AggregatorSpec;
use betty_partition::input_redundancy;
use betty_tensor::DType;

use crate::args::{Accepts, ArgError, Args};

/// What a subcommand returns.
pub(crate) type CmdResult = Result<(), Box<dyn Error>>;

/// Flags every command takes (USAGE "GLOBAL FLAGS"), then [`PAGED_STORE`].
const GLOBAL: &[&str] = &["feature-store", "threads", "backend", "precision", "plan-ahead"];
const GLOBAL_SWITCHES: &[&str] = &["no-pool"];
/// The flags that mean something only under `--feature-store paged`.
const PAGED_STORE: &[&str] = &[
    "feature-cache-bytes",
    "feature-page-rows",
    "feature-dir",
    "feature-parity",
];
/// What [`load`] reads to find or synthesize the dataset.
const DATASET: &[&str] = &["data", "preset", "scale", "feature-dim", "seed"];
/// What [`experiment_config`] reads besides the globals and [`FAULTS`].
const MODEL: &[&str] = &[
    "fanouts",
    "hidden",
    "aggregator",
    "model",
    "heads",
    "dropout",
    "lr",
    "capacity-mib",
    "retries",
    "retry-growth",
    "retry-headroom",
    "anomaly-retries",
    "io-retries",
];
/// The fault-injection flags [`fault_plan`] reads.
const FAULTS: &[&str] = &[
    "fault-seed",
    "fault-alloc-rate",
    "fault-oom-steps",
    "fault-jitter",
    "fault-stall-rate",
    "fault-stall-sec",
    "fault-nan-steps",
    "fault-device-fail",
    "fault-straggler",
    "fault-link-rate",
    "fault-link-stall-sec",
    "fault-io-rate",
    "fault-io-stall-rate",
    "fault-io-stall-sec",
    "fault-shard-corrupt",
];

/// What `betty generate` reads.
pub(crate) const GENERATE: Accepts = Accepts {
    values: &[GLOBAL, PAGED_STORE, &["preset", "out", "scale", "feature-dim", "seed"]],
    switches: &[GLOBAL_SWITCHES],
};
/// What `betty info` reads.
pub(crate) const INFO: Accepts = Accepts {
    values: &[GLOBAL, PAGED_STORE, DATASET],
    switches: &[GLOBAL_SWITCHES],
};
/// What `betty partition` reads.
pub(crate) const PARTITION: Accepts = Accepts {
    values: &[GLOBAL, PAGED_STORE, DATASET, MODEL, FAULTS, &["k", "strategy"]],
    switches: &[GLOBAL_SWITCHES, &["compare"]],
};
/// What `betty train` reads.
pub(crate) const TRAIN: Accepts = Accepts {
    values: &[
        GLOBAL,
        PAGED_STORE,
        DATASET,
        MODEL,
        FAULTS,
        &[
            "k",
            "strategy",
            "epochs",
            "devices",
            "allreduce-timeout-ms",
            "max-device-retries",
            "straggler-threshold",
            "checkpoint",
            "checkpoint-dir",
            "checkpoint-every",
            "trace-out",
        ],
    ],
    switches: &[GLOBAL_SWITCHES, &["resume", "trace-summary"]],
};
/// What `betty eval` reads.
pub(crate) const EVAL: Accepts = Accepts {
    values: &[GLOBAL, PAGED_STORE, DATASET, MODEL, FAULTS, &["checkpoint", "chunk"]],
    switches: &[GLOBAL_SWITCHES],
};

/// Parses the `--precision` storage dtype (default f32).
fn precision(args: &Args) -> Result<DType, ArgError> {
    let raw = args.get("precision").unwrap_or("f32");
    DType::parse(raw)
        .ok_or_else(|| ArgError(format!("--precision: unknown dtype '{raw}' (try: f32, bf16, f16)")))
}

fn preset_by_name(name: &str) -> Result<DatasetSpec, ArgError> {
    DatasetSpec::all()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| ArgError(format!("unknown preset '{name}' (try: cora, pubmed, reddit, ogbn-arxiv, ogbn-products)")))
}

/// The spec `--preset`, `--scale` and `--feature-dim` name, with the
/// values [`DatasetSpec::scaled`] and [`DatasetSpec::with_feature_dim`]
/// would panic on turned into usage errors.
fn preset_spec(args: &Args, preset: &str) -> Result<DatasetSpec, ArgError> {
    let scale = args.get_or("scale", 0.01f64)?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(ArgError(format!("--scale must be in (0, 1], got {scale}")));
    }
    let feature_dim = positive(args, "feature-dim", 32)?;
    Ok(preset_by_name(preset)?.scaled(scale).with_feature_dim(feature_dim))
}

fn load(args: &Args) -> Result<Dataset, Box<dyn Error>> {
    let ds = if let Some(path) = args.get("data") {
        // A dataset file has its own size and width; these shape a preset.
        if let Some(flag) = ["scale", "feature-dim"].into_iter().find(|f| args.get(f).is_some()) {
            return Err(Box::new(ArgError(format!(
                "--{flag} shapes a --preset and cannot apply to --data {path}"
            ))));
        }
        load_dataset(path)?
    } else if let Some(preset) = args.get("preset") {
        // Allow generating on the fly: --preset without --data.
        preset_spec(args, preset)?.generate(args.get_or("seed", 0u64)?)
    } else {
        return Err(ArgError("provide --data <file> or --preset <name>".into()).into());
    };
    apply_feature_store(ds, args)
}

/// Applies the `--feature-store` flag family to a freshly loaded dataset.
///
/// `--feature-store paged` spills the feature matrix into row-range
/// shards on disk and serves every gather through a pinned hot-set cache
/// bounded by `--feature-cache-bytes`; training losses are bit-identical
/// to the dense in-memory default, only where the features live (and the
/// paging counters in `--trace-out`) change.
fn apply_feature_store(mut ds: Dataset, args: &Args) -> Result<Dataset, Box<dyn Error>> {
    // Re-encode features at the requested storage width *before* any
    // paged spill, so on-disk shards carry 16-bit payloads and the hot-set
    // cache holds half the bytes (a paged store cannot be re-encoded).
    let dtype = precision(args)?;
    if dtype != DType::F32 {
        ds.features = ds.features.with_dtype(dtype);
    }
    let backend = args.get("feature-store").unwrap_or("dense");
    match backend {
        "dense" => {
            for flag in PAGED_STORE {
                if args.get(flag).is_some() {
                    return Err(ArgError(format!("--{flag} requires --feature-store paged")).into());
                }
            }
            Ok(ds)
        }
        "paged" => {
            // An unbounded cache is still charged honestly: the
            // reservation is min(budget, total feature bytes).
            let cache = args.get_or("feature-cache-bytes", usize::MAX)?;
            let page_rows = positive(args, "feature-page-rows", 1024)?;
            let dir = match args.get("feature-dir") {
                Some(d) => std::path::PathBuf::from(d),
                None => std::env::temp_dir().join(format!(
                    "betty-features-{}-{}",
                    ds.name,
                    std::process::id()
                )),
            };
            // --feature-parity P interleaves one XOR parity shard per P
            // data shards, so a single corrupt shard per group can be
            // reconstructed bit-identically mid-run (0 = no parity; the
            // store bytes are then identical to a parity-free spill).
            let parity = args.get_or("feature-parity", 0usize)?;
            ds.features = ds.features.to_paged_with_parity(&dir, page_rows, cache, parity)?;
            Ok(ds)
        }
        other => Err(ArgError(format!("unknown feature store '{other}' (try: dense, paged)")).into()),
    }
}

/// `--{key}` as a count that must be positive (`default` when absent).
fn positive(args: &Args, key: &str, default: usize) -> Result<usize, ArgError> {
    match args.get_or(key, default)? {
        0 => Err(ArgError(format!("--{key} must be positive, got 0"))),
        n => Ok(n),
    }
}

fn strategy(args: &Args) -> Result<StrategyKind, ArgError> {
    match args.get("strategy").unwrap_or("betty") {
        "betty" => Ok(StrategyKind::Betty),
        "range" => Ok(StrategyKind::Range),
        "random" => Ok(StrategyKind::Random),
        "metis" => Ok(StrategyKind::Metis),
        other => Err(ArgError(format!("unknown strategy '{other}'"))),
    }
}

fn experiment_config(args: &Args) -> Result<ExperimentConfig, Box<dyn Error>> {
    let aggregator = match args.get("aggregator").unwrap_or("mean") {
        "mean" => AggregatorSpec::Mean,
        "sum" => AggregatorSpec::Sum,
        "pool" => AggregatorSpec::Pool,
        "lstm" => AggregatorSpec::Lstm,
        other => return Err(Box::new(ArgError(format!("unknown aggregator '{other}'")))),
    };
    let model = match args.get("model").unwrap_or("sage") {
        "sage" => ModelKind::GraphSage,
        "gat" => ModelKind::Gat,
        "gcn" => ModelKind::Gcn,
        "gin" => ModelKind::Gin,
        other => return Err(Box::new(ArgError(format!("unknown model '{other}'")))),
    };
    let capacity_mib: usize = args.get_or("capacity-mib", 24 * 1024)?;
    let capacity_bytes = capacity_mib.checked_mul(1 << 20).ok_or_else(|| {
        ArgError(format!("--capacity-mib {capacity_mib}: more bytes than this machine can address"))
    })?;
    let config = ExperimentConfig {
        fanouts: args.get_usize_list("fanouts")?.unwrap_or(vec![10, 25]),
        hidden_dim: args.get_or("hidden", 64usize)?,
        aggregator,
        model,
        num_heads: args.get_or("heads", 4usize)?,
        dropout: args.get_or("dropout", 0.1f32)?,
        learning_rate: args.get_or("lr", 3e-3f32)?,
        capacity_bytes,
        fault_plan: fault_plan(args)?,
        retry: RetryPolicy {
            max_retries: args.get_or("retries", RetryPolicy::default().max_retries)?,
            growth: args.get_or("retry-growth", RetryPolicy::default().growth)?,
            headroom: args.get_or("retry-headroom", RetryPolicy::default().headroom)?,
            max_anomaly_retries: args
                .get_or("anomaly-retries", RetryPolicy::default().max_anomaly_retries)?,
            max_io_retries: args.get_or("io-retries", RetryPolicy::default().max_io_retries)?,
        },
        pool: !args.has_flag("no-pool"),
        plan_ahead: args.get_or("plan-ahead", 0usize)?,
        precision: precision(args)?,
        ..ExperimentConfig::default()
    };
    config.validate().map_err(ArgError)?;
    Ok(config)
}

/// Builds the fault-injection plan from `--fault-*` flags: the empty plan
/// when none was given.
fn fault_plan(args: &Args) -> Result<FaultPlan, Box<dyn Error>> {
    let defaults = FaultPlan::default();
    Ok(FaultPlan {
        seed: args.get_or("fault-seed", defaults.seed)?,
        alloc_failure_rate: args.get_or("fault-alloc-rate", defaults.alloc_failure_rate)?,
        oom_steps: args.get_usize_list("fault-oom-steps")?.unwrap_or_default(),
        capacity_jitter: args.get_or("fault-jitter", defaults.capacity_jitter)?,
        transfer_stall_rate: args.get_or("fault-stall-rate", defaults.transfer_stall_rate)?,
        transfer_stall_sec: args.get_or("fault-stall-sec", defaults.transfer_stall_sec)?,
        nan_loss_steps: args.get_usize_list("fault-nan-steps")?.unwrap_or_default(),
        device_fail_steps: args
            .get_pair_list::<usize>("fault-device-fail")?
            .unwrap_or_default(),
        straggler_factors: args
            .get_pair_list::<f64>("fault-straggler")?
            .unwrap_or_default(),
        link_stall_rate: args.get_or("fault-link-rate", defaults.link_stall_rate)?,
        link_stall_sec: args.get_or("fault-link-stall-sec", defaults.link_stall_sec)?,
        io_failure_rate: args.get_or("fault-io-rate", defaults.io_failure_rate)?,
        io_stall_rate: args.get_or("fault-io-stall-rate", defaults.io_stall_rate)?,
        io_stall_sec: args.get_or("fault-io-stall-sec", defaults.io_stall_sec)?,
        shard_corrupt: args
            .get_pair_list::<usize>("fault-shard-corrupt")?
            .unwrap_or_default(),
    })
}

/// Builds the elastic device group from `--devices` and its tuning
/// flags, validating any device-level fault specs against the group
/// size so a malformed spec is a usage error, not a panic mid-run.
fn device_group(args: &Args, devices: usize, config: &ExperimentConfig) -> Result<DeviceGroup, Box<dyn Error>> {
    // NaN or a negative value would silently turn timeouts and straggler
    // detection off; 0 is a legal (always-firing) setting.
    let non_negative = |key: &str, default: f64| -> Result<f64, ArgError> {
        let value = args.get_or(key, default)?;
        if value.is_finite() && value >= 0.0 {
            Ok(value)
        } else {
            Err(ArgError(format!("--{key} must be finite and non-negative, got {value}")))
        }
    };
    let mut group = DeviceGroup::new(devices);
    group.allreduce_timeout_sec =
        non_negative("allreduce-timeout-ms", group.allreduce_timeout_sec * 1e3)? / 1e3;
    group.max_device_retries = args.get_or("max-device-retries", group.max_device_retries)?;
    group.straggler_threshold = non_negative("straggler-threshold", group.straggler_threshold)?;
    config
        .fault_plan
        .validate_for_devices(devices)
        .map_err(ArgError)?;
    Ok(group)
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// `betty generate`.
pub(crate) fn generate(args: &Args) -> CmdResult {
    let spec = preset_spec(args, args.require("preset")?)?;
    let out = args.require("out")?.to_string();
    let ds = spec.generate(args.get_or("seed", 0u64)?);
    save_dataset(&ds, &out)?;
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
pub(crate) fn info(args: &Args) -> CmdResult {
    let ds = load(args)?;
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

/// `betty partition`.
pub(crate) fn partition(args: &Args) -> CmdResult {
    let k = positive(args, "k", 8)?;
    let ds = load(args)?;
    let config = experiment_config(args)?;
    let mut runner = Runner::new(&ds, &config, args.get_or("seed", 0u64)?);
    let batch = runner.sample_full_batch(&ds);
    if args.has_flag("compare") {
        say!(
            "{:<8} {:>12} {:>12} {:>14} {:>14}",
            "strategy", "inputs", "redundancy", "est peak MiB", "partition ms"
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
    }
    let kind = strategy(args)?;
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

/// `betty train`.
pub(crate) fn train(args: &Args) -> CmdResult {
    let ds = load(args)?;
    let config = experiment_config(args)?;
    let plan = &config.fault_plan;
    if plan.has_storage_faults() && !ds.features.is_paged() {
        return Err(Box::new(ArgError(
            "--fault-io-rate / --fault-io-stall-rate / --fault-shard-corrupt \
             target the paged feature store; add --feature-store paged"
                .into(),
        )));
    }
    let shards = ds.features.num_shards();
    if let Some(&(shard, epoch)) = plan.shard_corrupt.iter().find(|&&(s, _)| s >= shards) {
        return Err(Box::new(ArgError(format!(
            "--fault-shard-corrupt entry (shard {shard}, epoch {epoch}): \
             shard index out of range for {shards} shards"
        ))));
    }
    let kind = strategy(args)?;
    let epochs = args.get_or("epochs", 20usize)?;
    let devices = positive(args, "devices", 1)?;
    let seed = args.get_or("seed", 0u64)?;
    // The K every epoch starts from; recovery escalates it on a failure.
    let k0: usize = match args.get("k").unwrap_or("auto") {
        "auto" => 1,
        given => match given.parse() {
            Ok(k) if k > 0 => k,
            _ => return Err(Box::new(ArgError(format!("--k: expected 'auto' or a positive number, got '{given}'")))),
        },
    };
    let group = device_group(args, devices, &config)?;
    let trace_out = args.get("trace-out").map(str::to_string);
    let trace_summary = args.has_flag("trace-summary");
    let ckpt_plan = match args.get("checkpoint-dir") {
        Some(dir) => {
            let plan = CheckpointPlan::new(dir, args.get_or("checkpoint-every", 1usize)?);
            plan.validate().map_err(ArgError)?;
            Some(plan)
        }
        None if args.get("checkpoint-every").is_some() => {
            return Err(Box::new(ArgError(
                "--checkpoint-every requires --checkpoint-dir".into(),
            )));
        }
        None if args.has_flag("resume") => {
            return Err(Box::new(ArgError("--resume requires --checkpoint-dir".into())));
        }
        None => None,
    };
    let mut runner = Runner::new(&ds, &config, seed);
    if trace_out.is_some() || trace_summary {
        runner.enable_tracing();
    }
    // Resume replaces every piece of the freshly built session — params,
    // Adam moments, both RNG streams, counters, even the base seed — so
    // the continued run is bit-identical to one that was never killed.
    // A checkpoint-slot fallback (newest slot fails CRC, an older one
    // loads) lands in the runner's recovery log.
    let mut start_epoch = 0usize;
    if args.has_flag("resume") {
        let plan = ckpt_plan.as_ref().expect("checked above");
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
        args.get("model").unwrap_or("sage"),
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
            if let Some(plan) = &ckpt_plan {
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
                Err(e) if result.is_err() => eprintln!("cannot write trace to {path}: {e}"),
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
            eprintln!("{}", recovery.summary());
        }
        return Err(e);
    }
    if !recovery.is_empty() {
        say!("{}", recovery.summary())?;
    }
    let test = runner.evaluate(&ds, &ds.test_idx);
    say!("test accuracy: {:.2}%", test * 100.0)?;
    if let Some(path) = args.get("checkpoint") {
        betty_nn::save_checkpoint(runner.trainer().model(), path)?;
        say!("checkpoint written to {path}")?;
    }
    Ok(())
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
pub(crate) fn eval(args: &Args) -> CmdResult {
    let chunk = positive(args, "chunk", 1024)?;
    let ds = load(args)?;
    let config = experiment_config(args)?;
    let ckpt = args.require("checkpoint")?.to_string();
    let mut runner = Runner::new(&ds, &config, args.get_or("seed", 0u64)?);
    betty_nn::load_checkpoint(runner.trainer_mut().model_mut(), &ckpt)?;
    let acc = betty::accuracy_full_graph(
        runner.trainer().model(),
        &ds,
        &ds.test_idx,
        chunk,
    );
    say!(
        "exact full-graph test accuracy: {:.2}% ({} nodes)",
        acc * 100.0,
        ds.test_idx.len()
    )?;
    Ok(())
}
