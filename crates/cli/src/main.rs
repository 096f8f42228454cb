//! `betty` — command-line interface for the Betty GNN training system.
//!
//! ```text
//! betty generate  --preset ogbn-arxiv --scale 0.01 --out data.btd
//! betty info      --data data.btd
//! betty partition --data data.btd --k 8 --strategy betty
//! betty train     --data data.btd --epochs 20 --k auto --capacity-mib 64
//! betty eval      --data data.btd --checkpoint model.ckpt
//! ```

mod args;
mod commands;

use std::process::ExitCode;

const USAGE: &str = "\
betty — batch-level graph partitioning for GNN training (ASPLOS'23 reproduction)

USAGE: betty <command> [--flag value]...

COMMANDS:
  generate   synthesize a dataset            --preset <name> [--scale F]
             [--feature-dim D] [--seed N] --out <file>
  info       describe a dataset              --data <file>
  partition  split one batch, report quality --data <file> [--k N]
             [--strategy betty|range|random|metis] [--fanouts 10,25]
             [--compare  (run all four strategies side by side)]
  train      train a GNN with Betty          --data <file> [--epochs N]
             [--k auto|N  (the K every epoch starts from; auto = 1)]
             [--strategy S] [--model sage|gat|gcn|gin]
             [--aggregator mean|sum|pool|lstm] [--fanouts 10,25]
             [--hidden H] [--lr F] [--capacity-mib M] [--devices D]
             [--checkpoint <out.ckpt>] [--seed N]
             durability / resume:
             [--checkpoint-dir <dir>  (write a durable, CRC-checksummed
              session checkpoint after each epoch; atomic, kill-safe)]
             [--checkpoint-every N  (checkpoint cadence in epochs; the
              final epoch is always saved)]
             [--resume  (continue from the newest checkpoint in
              --checkpoint-dir; losses are bit-identical to a run that
              was never interrupted)]
             fault injection / recovery (at any --k and --devices):
             [--fault-seed N] [--fault-alloc-rate F] [--fault-oom-steps 3,17]
             [--fault-nan-steps 4,9  (poison the loss at these steps to
              exercise the numeric-anomaly sentinel)]
             [--retries N] [--retry-growth F] [--retry-headroom F]
             [--fault-jitter F] [--fault-stall-rate F] [--fault-stall-sec F]
             device-level faults (indices checked against --devices):
             [--fault-device-fail d:s,...  (kill device d after it
              completes s micro-batches; survivors absorb its queue)]
             [--fault-straggler d:f,...  (slow device d by factor f ≥ 1;
              flagged when it exceeds the straggler threshold)]
             [--fault-link-rate F] [--fault-link-stall-sec F  (transient
              all-reduce stalls; at/above the timeout they are retried
              with seeded exponential backoff)]
             storage chaos (with --feature-store paged):
             [--fault-io-rate F  (probability a shard read fails with a
              transient I/O error; retried with seeded jittered backoff)]
             [--fault-io-stall-rate F] [--fault-io-stall-sec F  (seeded
              NVMe-style read-stall jitter, accounted — never slept)]
             [--fault-shard-corrupt s:e,...  (flip one payload byte of
              shard s before epoch e; repaired bit-identically from the
              XOR parity sidecar when --feature-parity is on)]
             [--io-retries N  (transient-read retry budget per shard
              read; default 3. Exhaustion is a structured storage error)]
             Losses and parameters are bit-identical with and without
             injected storage faults; only the I/O counters differ.
             [--allreduce-timeout-ms M  (sync round timeout; default 100)]
             [--max-device-retries N  (timed-out rounds retried before a
              rank is declared lost; default 3)]
             [--straggler-threshold F  (multiple of the median time per
              unit work that flags a device; default 1.5)]
             [--anomaly-retries N  (epoch rollbacks allowed on NaN/Inf
              loss or gradients before aborting; default 1)]
             [--no-sentinel  (disable NaN/Inf detection and rollback)]
             observability:
             [--trace-out <trace.jsonl>  (step spans, memory timeline,
              estimator-drift records as JSON-lines)]
             [--trace-summary  (print per-phase totals, the worst peak's
              category breakdown, and the estimator-drift envelope)]
  eval       exact full-graph accuracy       --data <file> --checkpoint
             <file> [--model ...same shape flags as train]
  scrub      offline integrity pass          betty scrub <dir>
             verifies every feature shard, parity shard, and checkpoint
             slot CRC in <dir>; repairs single-shard damage from the XOR
             parity sidecar (bit-identical, re-persisted) and rebuilds
             damaged parity shards. Exits 7 when unrepairable damage
             remains (two bad shards in one parity group, no parity
             sidecar, or every checkpoint slot corrupt).

A flag the command does not read — a misspelt key, a value flag with no
value, a switch given one — is a usage error naming it (exit 1).

GLOBAL FLAGS (accepted by every command, after the command name):
  --feature-store dense|paged
                 where node features live (default dense, fully in memory).
                 'paged' spills the feature matrix into row-range shards on
                 disk and serves gathers through a pinned hot-set cache, so
                 graphs whose features exceed host memory still train.
                 Losses and parameters are bit-identical to dense; only the
                 timing and the paging counters differ.
  --feature-cache-bytes N
                 hot-set cache budget for --feature-store paged (default
                 unbounded). The reservation actually charged to the device
                 ledger is min(N, total feature bytes) under the dedicated
                 'feature cache' category, and the planner charges exactly
                 the same constant, so estimator drift stays exact.
  --feature-page-rows N
                 rows per on-disk shard for --feature-store paged (default
                 1024) — the paging granularity and the unit of eviction.
  --feature-dir <dir>
                 where --feature-store paged writes its shards (default: a
                 per-process directory under the system temp dir)
  --feature-parity N
                 interleave one XOR parity shard per N data shards of the
                 paged store (default 0 = none). A mid-run CRC mismatch on
                 one shard of a group is then reconstructed bit-identically
                 in place and re-persisted; two bad shards in one group are
                 a structured storage error. Parity shards ride the same
                 CRC-checksummed atomic-write container as data shards.
  --threads N    worker threads: the REG build and micro-batch extraction
                 are always sharded across them, a dense product or fused
                 aggregation only when the call carries 2^26 multiply-adds
                 per shard (smaller calls run inline — a second thread
                 there loses), and --plan-ahead stages future epochs on
                 them. 1 is exactly serial. Defaults to the BETTY_THREADS
                 env var, then the core count (capped at 8). Every thread
                 count produces bit-identical results.
  --backend scalar|simd
                 compute backend for the tensor kernels (default simd, or
                 the BETTY_BACKEND env var). 'scalar' is the portable
                 reference; 'simd' dispatches AVX-512/AVX2 kernels at
                 runtime. f32 results are bit-identical across backends
                 and thread counts — this is a speed knob, not a numerics
                 knob.
  --precision f32|bf16|f16
                 storage dtype for node features and forward activations
                 (default f32, the paper's configuration). 16-bit storage
                 halves the feature and activation byte terms the memory
                 estimator sees, so auto-planning picks fewer partitions
                 on the same budget; compute still accumulates in f32.
                 Changes the trained function (values round through a
                 16-bit grid), so checkpoints are precision-specific and
                 --resume rejects a checkpoint from another precision.
  --no-prefetch  disable double-buffered transfer prefetch during training
                 (prefetch is on by default; losses are identical either
                 way, only timing and the device-memory schedule change)
  --no-pool      disable the pooled tensor workspace: every micro-batch
                 rebuilds its autograd tape from fresh heap allocations
                 (pooling is on by default; losses and parameters are
                 bit-identical either way — this is an escape hatch for
                 allocator-level debugging and the alloc benchmarks)
  --plan-ahead N stage up to N future epochs' sampling + REG partitioning
                 on spare worker threads while the current epoch trains
                 (default 0 = synchronous). Losses, parameters, and every
                 deterministic stat are bit-identical at any depth; only
                 where the planning time is spent changes. Degrades to
                 the synchronous path under --threads 1, and composes
                 with --no-prefetch (prefetch overlaps transfers *within*
                 an epoch; plan-ahead overlaps planning *across* epochs —
                 they hide different costs and can be toggled freely)

Presets: cora, pubmed, reddit, ogbn-arxiv, ogbn-products.

EXIT CODES: 0 success, 1 usage/IO error, 2 no partitioning fits the
device, 3 OOM recovery retries exhausted, 4 unrecoverable OOM or
storage damage beyond what parity can repair, 5 numeric anomaly
persisted past the rollback budget, 6 every device of the elastic
group was lost with work outstanding, 7 scrub found unrepairable
damage in the store.
";

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `scrub` takes a positional directory, which the flag parser
    // (correctly) rejects — peel it off before parsing the rest.
    if command == "scrub" {
        let rest: Vec<String> = argv.collect();
        let (Some(dir), true) = (rest.first(), rest.len() == 1) else {
            eprintln!("error: usage: betty scrub <dir>\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        };
        return match commands::scrub(dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                exit_code_for(e.as_ref())
            }
        };
    }
    let (run, accepts): (fn(&args::Args) -> commands::CmdResult, _) = match command.as_str() {
        "generate" => (commands::generate, commands::GENERATE),
        "info" => (commands::info, commands::INFO),
        "partition" => (commands::partition, commands::PARTITION),
        "train" => (commands::train, commands::TRAIN),
        "eval" => (commands::eval, commands::EVAL),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command '{other}'\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // A flag the command does not read is an error, not a default.
    let parsed = match args::Args::parse(argv).and_then(|p| p.reject_unread(&accepts).map(|()| p)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // --threads pins the worker-thread count for every parallel stage
    // before any command runs; 0 (the default) keeps the BETTY_THREADS /
    // core-count resolution.
    match parsed.get_or("threads", 0usize) {
        Ok(0) => {}
        Ok(n) => betty_runtime::set_thread_override(Some(n)),
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    // --backend pins the compute backend for every kernel before any
    // command runs; the default resolution (BETTY_BACKEND env, then simd)
    // applies when the flag is absent.
    if let Some(raw) = parsed.get("backend") {
        match betty_tensor::Backend::parse(raw) {
            Some(b) => betty_tensor::set_backend_override(Some(b)),
            None => {
                eprintln!("error: --backend: unknown backend '{raw}' (try: scalar, simd)\n");
                eprint!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    match run(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            exit_code_for(e.as_ref())
        }
    }
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
        if err.downcast_ref::<betty::TrainError>().is_some() {
            return ExitCode::from(4);
        }
        cursor = err.source();
    }
    ExitCode::FAILURE
}
