//! The traced run: the benchmark performs each epoch itself through the
//! layers' public API — sample, REG build, cut, plan, train — with a span
//! around every call, then probes the layers the epoch cannot expose
//! (restrict, estimate, gather, the model's phases, the kernels).
//!
//! An untraced reference run on a fresh `Runner` with the same seed comes
//! first: its losses must equal the traced ones bit for bit, and the
//! difference between the two medians is the tracing overhead.

use std::cell::RefCell;
use std::time::Instant;

use betty::{Plan, PlanError, StrategyKind};
use betty_graph::{dependency_reg, Batch, NodeId};
use betty_partition::{
    input_redundancy, MultilevelPartitioner, OutputPartitioner, Partitioner, RegPartitioner,
};

use crate::e2e::{
    common_checks, guarded, losses_identical, set_up, EpochLog, EpochRecord, Prepared, Scratch,
};
use crate::machine::{cpu_times_s, peak_rss_bytes};
use crate::metrics::{Check, RunRecord};
use crate::probes::{kernel_rates, nn_split, KernelRates, NnSplit};
use crate::stats::{median, tail_percentile};
use crate::trace::{Span, Trace, Tracer};
use crate::workloads::{
    comparison_threads, PlanMode, Workload, BENCH_THREADS, EVAL_NODES, EVAL_REPS, REG_HUB_CAP,
};

/// Fewest traced epochs after warm-up, whatever `--seconds` says.
const MIN_TRACED_EPOCHS: usize = 3;
/// Epoch id the probe spans carry, past any real epoch.
const PROBE_EPOCH: usize = usize::MAX;

/// Cut quality of one planner probe.
#[derive(Debug, Clone, Copy)]
struct Probe {
    k: usize,
    reg_nnz: usize,
    edge_cut: f64,
    balance: f64,
}

/// Betty's REG strategy, re-assembled from the `graph` and `partition`
/// layers' public pieces so each gets its own span. Must split exactly as
/// `RegPartitioner::new(seed)` does; a check holds it to that.
struct TracedReg<'t> {
    tracer: &'t Tracer,
    cutter: MultilevelPartitioner,
    probes: RefCell<Vec<Probe>>,
}

impl OutputPartitioner for TracedReg<'_> {
    fn name(&self) -> &'static str {
        "betty-reg (benchmark spans)"
    }

    fn split_outputs(&self, batch: &Batch, k: usize) -> Vec<Vec<NodeId>> {
        let reg = self.tracer.span("graph.reg_build", || {
            let reg = dependency_reg(batch, REG_HUB_CAP);
            let nnz = reg.num_edges() as f64;
            (reg, vec![("reg_nnz", nnz)])
        });
        let (parts, globals) = self.tracer.span("partition.cut", || {
            let parts = self.cutter.partition(&reg, k);
            let dst = batch
                .blocks()
                .last()
                .expect("batch is never empty")
                .dst_globals();
            let globals: Vec<Vec<NodeId>> = parts
                .parts()
                .into_iter()
                .map(|locals| locals.into_iter().map(|l| dst[l as usize]).collect())
                .collect();
            ((parts, globals), vec![("k", k as f64)])
        });
        // Benchmark work, kept apart so it is not billed to the planner.
        self.tracer.span("bench.cut_quality", || {
            let probe = Probe {
                k,
                reg_nnz: reg.num_edges(),
                edge_cut: parts.edge_cut(&reg),
                balance: parts.balance(&vec![1.0; reg.num_nodes()]),
            };
            self.probes.borrow_mut().push(probe);
            (
                (),
                vec![("edge_cut", probe.edge_cut), ("balance", probe.balance)],
            )
        });
        globals
    }
}

/// What one traced epoch left behind besides its spans.
struct TracedEpoch {
    record: EpochRecord,
    sample_edges: usize,
    input_nodes: usize,
    redundancy_ratio: f64,
    redundant_nodes: usize,
    transfer_bytes: u64,
    outputs_partition_train: bool,
    chosen: Probe,
}

fn plan_epoch(
    w: &Workload,
    p: &Prepared,
    batch: &Batch,
    reg: &TracedReg<'_>,
) -> Result<Plan, PlanError> {
    match w.plan {
        PlanMode::Fixed(k) => Ok(p.runner.planner().plan_fixed(batch, reg, k)),
        PlanMode::Auto => p.runner.planner().plan(batch, reg, 1),
    }
}

/// Whether the plan's output groups are disjoint and cover the training
/// split exactly.
fn partitions_train_split(plan: &Plan, train_idx: &[NodeId]) -> bool {
    let mut outputs: Vec<NodeId> = plan.parts.iter().flatten().copied().collect();
    outputs.sort_unstable();
    let mut train = train_idx.to_vec();
    train.sort_unstable();
    outputs == train
}

/// One benchmark-driven epoch. Returns the epoch's facts plus the batch
/// and plan (the probes reuse the last epoch's).
fn traced_epoch(
    w: &Workload,
    p: &mut Prepared,
    tracer: &Tracer,
    reg: &TracedReg<'_>,
    epoch: usize,
) -> Result<(TracedEpoch, Batch, Plan), String> {
    tracer.set_epoch(epoch);
    reg.probes.borrow_mut().clear();
    let link_before = p.runner.trainer().transfer().total_bytes();
    let started = Instant::now();
    let (batch, plan, stats) = guarded(|| {
        tracer.span("epoch", || {
            let batch = tracer.span("graph.sample", || {
                let batch = p.runner.sample_full_batch(&p.dataset);
                let counts = vec![
                    ("edges", batch.total_edges() as f64),
                    ("input_nodes", batch.input_nodes().len() as f64),
                ];
                (batch, counts)
            });
            let plan = tracer.span("core.plan", || {
                let plan = plan_epoch(w, p, &batch, reg);
                let k = plan.as_ref().map_or(0, |pl| pl.micro_batches.len());
                (plan, vec![("k", k as f64)])
            });
            let plan = match plan {
                Ok(plan) => plan,
                Err(e) => return (Err(e.to_string()), Vec::new()),
            };
            let stats = tracer.span("core.train", || {
                let stats = p
                    .runner
                    .train_micro_batches(&p.dataset, &plan.micro_batches);
                let steps = stats.as_ref().map_or(0, |s| s.num_steps);
                (stats, vec![("steps", steps as f64)])
            });
            match stats {
                Ok(stats) => (Ok((batch, plan, stats)), vec![("loss", stats.loss)]),
                Err(e) => (Err(e.to_string()), Vec::new()),
            }
        })
    })?;
    let wall_s = started.elapsed().as_secs_f64();

    let redundancy = input_redundancy(&plan.micro_batches);
    // The binary search may end on a failing probe and keep an earlier
    // plan: take the probe that produced the plan's K.
    let chosen = *reg
        .probes
        .borrow()
        .iter()
        .rev()
        .find(|pr| pr.k == plan.k)
        .ok_or("no planner probe matches the plan's K")?;
    let facts = TracedEpoch {
        record: EpochRecord {
            wall_s,
            stats,
            k: plan.micro_batches.len(),
        },
        sample_edges: batch.total_edges(),
        input_nodes: batch.input_nodes().len(),
        redundancy_ratio: redundancy.redundancy_ratio(),
        redundant_nodes: redundancy.redundant_nodes(),
        transfer_bytes: p.runner.trainer().transfer().total_bytes() - link_before,
        outputs_partition_train: partitions_train_split(&plan, &p.dataset.train_idx),
        chosen,
    };
    Ok((facts, batch, plan))
}

/// The probes' findings on the last traced epoch's batch and plan.
struct ProbeFindings {
    range_redundant_nodes: usize,
    wrapper_equals_reg_partitioner: bool,
    fullbatch_estimate_bytes: usize,
    nn: NnSplit,
    kernels: KernelRates,
}

fn run_probes(
    w: &Workload,
    p: &Prepared,
    tracer: &Tracer,
    batch: &Batch,
    plan: &Plan,
    seed: u64,
) -> Result<ProbeFindings, String> {
    tracer.set_epoch(PROBE_EPOCH);
    let estimator = p.runner.planner().estimator();
    tracer.span("probe.graph.restrict", || {
        for part in &plan.parts {
            std::hint::black_box(batch.restrict(part));
        }
        ((), vec![("parts", plan.parts.len() as f64)])
    });
    tracer.span("probe.device.estimate", || {
        for mb in &plan.micro_batches {
            std::hint::black_box(estimator.estimate(mb));
        }
        ((), Vec::new())
    });

    // The trainer's order: warm the next micro-batch's shards (prefetch is
    // on), then gather this one's rows.
    let indices: Vec<Vec<usize>> = plan
        .micro_batches
        .iter()
        .map(|mb| mb.input_nodes().iter().map(|&v| v as usize).collect())
        .collect();
    let cols = p.dataset.features.cols();
    let mut out = vec![0.0f32; indices.iter().map(Vec::len).max().unwrap_or(0) * cols];
    tracer
        .span("probe.data.gather", || {
            let mut rows = 0usize;
            let result = (|| {
                for (i, idx) in indices.iter().enumerate() {
                    if let Some(next) = indices.get(i + 1) {
                        p.dataset.features.try_prewarm(next)?;
                    }
                    p.dataset
                        .features
                        .try_gather_into(idx, &mut out[..idx.len() * cols])?;
                    rows += idx.len();
                }
                Ok::<(), betty_data::FeatureStoreError>(())
            })();
            (result, vec![("rows", rows as f64)])
        })
        .map_err(|e| format!("gather probe failed: {e}"))?;

    let k = plan.k;
    let range = p.runner.plan_fixed(batch, StrategyKind::Range, k);
    let reference: Vec<Vec<NodeId>> = RegPartitioner::new(seed)
        .split_outputs(batch, k)
        .into_iter()
        .filter(|part| !part.is_empty())
        .collect();
    let nn = nn_split(w, &p.dataset, &plan.micro_batches, seed);
    let kernels = kernel_rates(&p.dataset, &plan.micro_batches[0], nn.param_count, seed);
    Ok(ProbeFindings {
        range_redundant_nodes: input_redundancy(&range.micro_batches).redundant_nodes(),
        wrapper_equals_reg_partitioner: reference == plan.parts,
        fullbatch_estimate_bytes: estimator.estimate(batch).peak_bytes(),
        nn,
        kernels,
    })
}

fn med<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The traced run of one workload, and its trace.
///
/// # Errors
///
/// A message when set-up, a reference epoch or a traced epoch fails:
/// per-layer numbers over a partial run would not be comparable.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64) -> Result<(RunRecord, Trace), String> {
    let mut scratch = Scratch::new(&format!("{}-traced", w.name));

    // Untraced reference: the real entry point, for about 30 % of the
    // window (probes take the rest).
    let mut reference = set_up(w, seed, &mut scratch)?;
    let mut ref_log = EpochLog::default();
    let cpu_before = cpu_times_s().ok_or("cannot read /proc/self/stat")?;
    let ref_started = Instant::now();
    let first_timed = ref_log.train_for(w, &mut reference, MIN_TRACED_EPOCHS, 0.3 * seconds);
    let ref_wall = ref_started.elapsed().as_secs_f64();
    let cpu_after = cpu_times_s().ok_or("cannot read /proc/self/stat")?;
    if ref_log.failed > 0 {
        return Err(format!(
            "{}: {} reference epochs failed",
            w.name, ref_log.failed
        ));
    }
    // Inference use of sample + gather + forward, on the trained model.
    let eval_nodes = &reference.dataset.val_idx[..reference.dataset.val_idx.len().min(EVAL_NODES)];
    let mut eval_s = Vec::with_capacity(EVAL_REPS);
    let mut accuracy = f64::NAN;
    for _ in 0..EVAL_REPS {
        let started = Instant::now();
        accuracy = reference.runner.evaluate(&reference.dataset, eval_nodes);
        eval_s.push(started.elapsed().as_secs_f64());
    }
    // Set-up, the real entry point's epochs and inference; the traced
    // epochs and the probes that follow are the benchmark's own footprint.
    let rss = peak_rss_bytes().ok_or("cannot read VmHWM from /proc/self/status")?;
    // What threads buy on this box: the same `Runner`'s next epochs at
    // `min(nproc, 4)` threads, against its one-thread median. Thread count
    // never changes a loss bit, and these epochs are compared with nothing.
    betty_runtime::set_thread_override(Some(comparison_threads()));
    let mut threaded_log = EpochLog::default();
    for _ in 0..MIN_TRACED_EPOCHS {
        threaded_log.train_one(w, &mut reference);
    }
    betty_runtime::set_thread_override(Some(BENCH_THREADS));
    if threaded_log.failed > 0 {
        return Err(format!(
            "{}: {} threaded epochs failed",
            w.name, threaded_log.failed
        ));
    }
    drop(reference);
    let n_epochs = ref_log.done.len();
    let ref_timed = &ref_log.done[first_timed..];

    // Traced: the same epochs, driven from here.
    let mut p = set_up(w, seed, &mut scratch)?;
    let tracer = Tracer::new();
    let reg = TracedReg {
        tracer: &tracer,
        cutter: MultilevelPartitioner::new(seed),
        probes: RefCell::new(Vec::new()),
    };
    let mut epochs = Vec::with_capacity(n_epochs);
    let mut last = None;
    for epoch in 0..n_epochs {
        let (facts, batch, plan) = traced_epoch(w, &mut p, &tracer, &reg, epoch)
            .map_err(|e| format!("{}: traced epoch {epoch} failed: {e}", w.name))?;
        epochs.push(facts);
        last = Some((batch, plan));
    }
    let (batch, plan) = last.expect("at least MIN_TRACED_EPOCHS epochs ran");
    let probes = run_probes(w, &p, &tracer, &batch, &plan, seed)?;
    drop(reg);
    let trace = tracer.finish();

    // Per-epoch figures over the timed epochs (warm-up excluded).
    let timed_ids: Vec<usize> = (first_timed..n_epochs).collect();
    let timed = &epochs[first_timed..];
    let span_med = |name: &str| {
        median(
            &timed_ids
                .iter()
                .map(|&e| trace.epoch_total_s(e, name))
                .collect::<Vec<_>>(),
        )
    };
    // The planner's own time: the cut-quality bookkeeping inside its span
    // is the benchmark's.
    let plan_s: Vec<f64> = timed_ids
        .iter()
        .map(|&e| trace.epoch_total_s(e, "core.plan") - trace.epoch_total_s(e, "bench.cut_quality"))
        .collect();
    let epoch_spans: Vec<&Span> = timed_ids
        .iter()
        .map(|&e| {
            trace
                .find(e, "epoch")
                .expect("every traced epoch has a root span")
        })
        .collect();
    let plan_share: Vec<f64> = plan_s
        .iter()
        .zip(&epoch_spans)
        .map(|(s, root)| s / root.duration_s())
        .collect();
    let unaccounted = epoch_spans
        .iter()
        .map(|root| trace.unaccounted_share(root.id))
        .fold(0.0, f64::max);
    let probe_s = |name: &str| trace.epoch_total_s(PROBE_EPOCH, name);

    let last_epoch = timed.last().expect("timed epochs exist");
    let last_id = n_epochs - 1;
    let partition_ms = 1e3
        * (trace.epoch_total_s(last_id, "graph.reg_build")
            + trace.epoch_total_s(last_id, "partition.cut"));
    let train_s = span_med("core.train");
    let compute_s = med(timed, |e| e.record.stats.compute_sec);
    let gather_s = probe_s("probe.data.gather");
    let traced_wall = med(timed, |e| e.record.wall_s);
    let ref_walls: Vec<f64> = ref_timed.iter().map(|e| e.wall_s).collect();
    let ref_wall_med = median(&ref_walls);
    let peak_bytes = timed
        .iter()
        .map(|e| e.record.stats.max_peak_bytes)
        .max()
        .unwrap_or(0);
    let missed_row_bytes = med(timed, |e| e.record.stats.feature_misses as f64)
        * p.dataset.features.cols() as f64
        * 4.0;
    let page_in_bytes = med(timed, |e| e.record.stats.feature_page_in_bytes as f64);
    let (cpu_user, cpu_sys) = (cpu_after.0 - cpu_before.0, cpu_after.1 - cpu_before.1);
    let tail = tail_percentile(&ref_walls)
        .map_or_else(|| ref_walls.iter().copied().fold(0.0, f64::max), |(_, v)| v);
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };

    let metrics = vec![
        ("graph.sample_s", span_med("graph.sample")),
        ("graph.sample_edges", med(timed, |e| e.sample_edges as f64)),
        (
            "graph.batch_input_nodes",
            med(timed, |e| e.input_nodes as f64),
        ),
        ("graph.reg_build_s", span_med("graph.reg_build")),
        ("graph.reg_nnz", last_epoch.chosen.reg_nnz as f64),
        ("graph.restrict_s", probe_s("probe.graph.restrict")),
        ("partition.cut_s", span_med("partition.cut")),
        ("partition.edge_cut_weight", last_epoch.chosen.edge_cut),
        ("partition.balance", last_epoch.chosen.balance),
        (
            "partition.input_redundancy_ratio",
            med(timed, |e| e.redundancy_ratio),
        ),
        (
            "partition.redundancy_saved_per_ms",
            (probes.range_redundant_nodes as f64 - last_epoch.redundant_nodes as f64)
                / partition_ms,
        ),
        ("core.plan_s", median(&plan_s)),
        (
            "core.plan_probes",
            median(
                &timed_ids
                    .iter()
                    .map(|&e| trace.epoch_count(e, "graph.reg_build") as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("core.k_chosen", med(timed, |e| e.record.k as f64)),
        ("core.plan_share", median(&plan_share)),
        ("core.train_s", train_s),
        (
            "core.steps",
            med(timed, |e| e.record.stats.num_steps as f64),
        ),
        ("core.step_overhead_s", train_s - compute_s - gather_s),
        (
            "core.fullbatch_peak_ratio",
            probes.fullbatch_estimate_bytes as f64 / peak_bytes as f64,
        ),
        ("core.epoch_wall_tail_s", tail),
        ("core.epoch_wall_samples", ref_walls.len() as f64),
        ("core.unaccounted_share", unaccounted),
        (
            "core.trace_overhead_share",
            traced_wall / ref_wall_med - 1.0,
        ),
        ("core.eval_wall_s", median(&eval_s)),
        // Mean-based, so the slow epochs the median forgives count.
        (
            "core.train_nodes_per_s",
            (p.dataset.train_idx.len() * ref_walls.len()) as f64 / ref_walls.iter().sum::<f64>(),
        ),
        ("device.estimate_s", probe_s("probe.device.estimate")),
        (
            "device.estimated_peak_bytes",
            ref_timed
                .iter()
                .map(|e| e.stats.estimated_peak_bytes)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "device.estimator_drift",
            ref_timed
                .iter()
                .map(|e| e.stats.estimator_drift)
                .fold(0.0, f64::max),
        ),
        (
            "device.transfer_bytes",
            med(timed, |e| e.transfer_bytes as f64),
        ),
        (
            "device.sim_transfer_hidden_share",
            med(timed, |e| {
                let s = &e.record.stats;
                share(
                    s.prefetch_overlap_sec,
                    s.prefetch_overlap_sec + s.transfer_sec,
                )
            }),
        ),
        ("data.gather_s", gather_s),
        (
            "data.gather_rows",
            med(timed, |e| e.record.stats.total_input_nodes as f64),
        ),
        (
            "data.feature_hit_rate",
            med(timed, |e| e.record.stats.feature_hit_rate()),
        ),
        (
            "data.pages_in",
            med(timed, |e| e.record.stats.feature_pages_in as f64),
        ),
        ("data.page_in_bytes", page_in_bytes),
        (
            "data.read_amplification",
            share(page_in_bytes, missed_row_bytes),
        ),
        ("nn.forward_s", probes.nn.forward_s),
        ("nn.backward_s", probes.nn.backward_s),
        ("nn.optimizer_s", probes.nn.optimizer_s),
        ("nn.layer0_forward_s", probes.nn.layer0_forward_s),
        ("nn.layer1_forward_s", probes.nn.layer1_forward_s),
        ("nn.layer_last_forward_s", probes.nn.layer_last_forward_s),
        (
            "nn.probe_vs_compute_ratio",
            share(
                probes.nn.forward_s + probes.nn.backward_s,
                last_epoch.record.stats.compute_sec,
            ),
        ),
        ("nn.param_count", probes.nn.param_count as f64),
        ("tensor.matmul_gflops", probes.kernels.matmul_gflops),
        (
            "tensor.segment_reduce_gbps",
            probes.kernels.segment_reduce_gbps,
        ),
        ("tensor.adam_step_gbps", probes.kernels.adam_step_gbps),
        (
            "tensor.pool_hit_rate",
            med(timed, |e| {
                let s = &e.record.stats;
                share(s.pool_hits as f64, (s.pool_hits + s.pool_misses) as f64)
            }),
        ),
        (
            "tensor.pool_bytes_recycled",
            med(timed, |e| e.record.stats.pool_bytes_recycled as f64),
        ),
        ("runtime.cpu_util", (cpu_user + cpu_sys) / ref_wall),
        ("runtime.sys_cpu_share", share(cpu_sys, cpu_user + cpu_sys)),
        (
            "runtime.cpu_s_per_epoch",
            (cpu_user + cpu_sys) / ref_log.done.len() as f64,
        ),
        (
            "runtime.threaded_epoch_ratio",
            med(&threaded_log.done, |e| e.wall_s) / ref_wall_med,
        ),
        ("runtime.host_peak_rss_bytes", rss as f64),
    ];

    let traced_losses: Vec<f64> = epochs.iter().map(|e| e.record.stats.loss).collect();
    // Drift and capacity are judged on the reference epochs: only the
    // real entry point fills in the estimator comparison.
    let mut checks = common_checks(w, &ref_log.done);
    checks.extend([
        Check::new(
            "traced_losses_equal_untraced",
            losses_identical(&traced_losses, &ref_log.losses()),
            format!("traced {traced_losses:?} untraced {:?}", ref_log.losses()),
        ),
        Check::new(
            "wrapper_parts_equal_reg_partitioner",
            probes.wrapper_equals_reg_partitioner,
            format!("K = {} on the last traced batch", plan.k),
        ),
        Check::new(
            "outputs_partition_train_split",
            epochs.iter().all(|e| e.outputs_partition_train),
            format!(
                "{} train nodes, {n_epochs} epochs",
                p.dataset.train_idx.len()
            ),
        ),
        Check::new(
            "traced_peak_within_capacity",
            peak_bytes <= w.capacity_bytes,
            format!("peak {peak_bytes} capacity {}", w.capacity_bytes),
        ),
        Check::new(
            "eval_accuracy_is_a_share",
            (0.0..=1.0).contains(&accuracy),
            format!("accuracy {accuracy} on the first {EVAL_NODES} validation nodes"),
        ),
        Check::new(
            "epoch_time_accounted",
            unaccounted <= 0.02,
            format!("worst share of an epoch span outside its children {unaccounted}"),
        ),
    ]);

    let record = RunRecord {
        workload: w.name.to_owned(),
        seed,
        traced: true,
        attempted: ref_log.attempted + threaded_log.attempted + n_epochs,
        failed: 0,
        metrics,
        checks,
    };
    if record.correct() {
        scratch.remove();
    }
    Ok((record, trace))
}
