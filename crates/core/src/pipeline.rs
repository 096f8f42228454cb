//! Partition-ahead pipeline: sample + REG-partition the coming epochs on
//! one background planner thread while the current epoch trains.
//!
//! Betty's planning overhead (neighbor sampling, REG construction + cut,
//! micro-batch extraction) sits on the critical path of every epoch in the
//! synchronous design. But planning for the *next* epoch needs nothing the
//! current epoch produces — only the sampler's RNG cursor, which advances
//! deterministically — so it can run on another thread, concurrently with
//! forward/backward compute.
//!
//! # Shape
//!
//! One planner thread samples and plans epochs in order and hands each
//! [`StagedBundle`] over a `sync_channel(depth − 1)`: the channel holds
//! `depth − 1` bundles and the thread one more, so at most `depth` are
//! staged or in progress. That also bounds the host memory staged plans
//! hold; nothing else governs it. At depth 1 the channel is a
//! rendezvous: the next bundle begins at the handoff.
//!
//! # Determinism
//!
//! The pipeline reproduces the synchronous path bit for bit:
//!
//! * **Sampling order.** The thread owns a clone of the runner's sampler
//!   RNG and draws every batch sequentially, exactly as the synchronous
//!   loop would. Each bundle records the RNG state after its draw, and the
//!   runner adopts that state at the handoff — so dropping the pipeline
//!   at any point lets the synchronous path resume from the very same
//!   cursor.
//! * **Warm `K`.** The thread carries its own warm-`K` chain, started
//!   from the runner's warm `K` at spawn: each `From` search starts at the
//!   `K` the previous staged plan found, so it takes exactly the path the
//!   synchronous search would at every depth.
//! * **Handoff order.** One producer and one FIFO channel: bundles arrive
//!   in epoch order.
//! * **Pure stages.** Partitioner strategies are stateless (`&self`), so
//!   a plan computed on the planner thread is identical to one computed
//!   inline.
//!
//! # Depth 0
//!
//! No plan-ahead is the same work done inline: the runner builds the
//! epoch's [`StagedBundle`] on the training thread through the
//! [`sample_next`] and [`plan_batch`] the planner thread calls, and
//! consumes it like a staged one.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use rand_pcg::Pcg64Mcg;

use betty_graph::{sample_batch_in, Batch, CsrGraph, NodeId};
use betty_partition::OutputPartitioner;

use crate::config::{fnv1a, FNV_OFFSET};
use crate::planner::{MemoryAwarePlanner, Plan, PlanError};
use crate::strategy::{build_strategy, StrategyKind};

/// How an epoch's batch is planned — by the planner thread or, with the
/// same result, synchronously on the training thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanMode {
    /// Exactly `k` micro-batches, whatever the capacity: planning is
    /// infallible.
    Fixed(usize),
    /// Memory-aware selection: the smallest fitting `K ≥ k`. Auto-K is
    /// `From(1)`; a user-given starting `K` is `From(k)`.
    From(usize),
}

/// Draws the next full batch from `rng`: the batch, when sampling began,
/// and its seconds.
pub(crate) fn sample_next(
    graph: &CsrGraph,
    seeds: &[NodeId],
    fanouts: &[usize],
    rng: &mut Pcg64Mcg,
) -> (Batch, Instant, f64) {
    let started = Instant::now();
    let batch = sample_batch_in(graph, seeds, fanouts, rng);
    (batch, started, started.elapsed().as_secs_f64())
}

/// Plans `batch` in `mode`; a `From` search against `capacity_bytes`
/// resumes at `start_k` (at or below the mode's `K`: the cold search).
///
/// # Errors
///
/// [`PlanError`] if no `K` of a `From` search fits.
pub(crate) fn plan_batch(
    planner: &MemoryAwarePlanner,
    batch: &Batch,
    strategy: &dyn OutputPartitioner,
    mode: PlanMode,
    start_k: usize,
    capacity_bytes: usize,
) -> Result<Plan, PlanError> {
    match mode {
        PlanMode::Fixed(k) => Ok(planner.plan_fixed(batch, strategy, k)),
        PlanMode::From(k) => planner.plan_warm(batch, strategy, k, start_k, capacity_bytes),
    }
}

/// One staged epoch: the sampled batch, its plan, and the bookkeeping the
/// consumer needs to take over as if it had done the work itself.
pub(crate) struct StagedBundle {
    /// The epoch's full training batch, drawn from the runner's
    /// sequential RNG cursor.
    pub batch: Batch,
    /// The plan for `batch` ([`PlanMode::Fixed`] plans never fail).
    pub plan: Result<Plan, PlanError>,
    /// Sampler RNG state *after* drawing `batch`; the consumer adopts it
    /// so later sampling continues the same stream.
    pub rng_after: u128,
    /// Wall-clock seconds spent sampling `batch`.
    pub sample_sec: f64,
    /// When sampling began.
    pub sample_started: Instant,
    /// When planning began.
    pub plan_started: Instant,
}

/// Everything the planner thread needs to reproduce the runner's
/// synchronous sampling + planning.
pub(crate) struct PipelineSpec {
    /// Reversed (in-edge) graph the sampler walks.
    pub graph: Arc<CsrGraph>,
    /// Seed nodes of every staged batch (the training split).
    pub seeds: Arc<Vec<NodeId>>,
    /// Per-layer sampling fanouts.
    pub fanouts: Vec<usize>,
    /// The runner's planner (cheap to clone: estimator + scalars).
    pub planner: MemoryAwarePlanner,
    /// Partitioning strategy, built once on the planner thread.
    pub strategy: StrategyKind,
    /// Strategy seed (the runner's experiment seed).
    pub seed: u64,
    /// Fixed-K or memory-aware planning.
    pub mode: PlanMode,
    /// Maximum bundles staged or in progress (≥ 1).
    pub depth: usize,
    /// Sampler RNG state to start the sequential cursor from.
    pub rng_state: u128,
    /// The runner's warm `K`: where the first `From` search starts.
    pub start_k: usize,
    /// Fingerprint of the dataset the seeds/graph came from, for
    /// [`PlanPipeline::matches`].
    pub dataset_key: u64,
}

/// A bounded-depth pipeline staging `(Batch, Plan)` bundles for future
/// epochs. See the [module docs](self) for its shape and the determinism
/// argument.
pub(crate) struct PlanPipeline {
    /// `None` only while dropping: hanging up stops the planner thread.
    handoff: Option<mpsc::Receiver<StagedBundle>>,
    thread: Option<JoinHandle<()>>,
    /// Bundles the planner thread has finished, consumed or not.
    finished: Arc<AtomicUsize>,
    consumed: usize,
    /// When each of the next `depth` bundles' slots opened, oldest first:
    /// at spawn for the first `depth`, then one at each handoff. The
    /// consumer's clock stamps these, before the overlapped epoch trains,
    /// so a span anchored here contains that epoch's compute spans.
    slots_opened: VecDeque<Instant>,
    depth: usize,
    strategy: StrategyKind,
    mode: PlanMode,
    dataset_key: u64,
}

impl std::fmt::Debug for PlanPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanPipeline")
            .field("depth", &self.depth)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl PlanPipeline {
    /// Starts the planner thread, which begins staging at once.
    pub(crate) fn spawn(spec: PipelineSpec) -> Self {
        let depth = spec.depth.max(1);
        let (tx, handoff) = mpsc::sync_channel(depth - 1);
        let finished = Arc::new(AtomicUsize::new(0));
        let (strategy, mode, dataset_key) = (spec.strategy, spec.mode, spec.dataset_key);
        let done = Arc::clone(&finished);
        let thread = std::thread::spawn(move || plan_ahead(spec, tx, done));
        Self {
            handoff: Some(handoff),
            thread: Some(thread),
            finished,
            consumed: 0,
            slots_opened: std::iter::repeat_n(Instant::now(), depth).collect(),
            depth,
            strategy,
            mode,
            dataset_key,
        }
    }

    /// Whether this pipeline was built for the same work its caller is
    /// about to consume. A mismatch (strategy, plan mode, dataset, or
    /// depth changed between epochs) means every staged bundle is wrong
    /// and the pipeline must be dropped.
    pub(crate) fn matches(
        &self,
        strategy: StrategyKind,
        mode: PlanMode,
        dataset_key: u64,
        depth: usize,
    ) -> bool {
        self.strategy == strategy
            && self.mode == mode
            && self.dataset_key == dataset_key
            && self.depth == depth.max(1)
    }

    /// Bundles finished but not yet consumed — what an invalidation
    /// throws away.
    pub(crate) fn in_flight(&self) -> usize {
        self.finished.load(Ordering::Relaxed) - self.consumed
    }

    /// Blocks until the next staged epoch (in strict epoch order) is
    /// ready and returns it with the seconds spent waiting and the
    /// instant its slot opened (the start of its staging window). `None`
    /// means the planner thread is gone (it panicked); the caller should
    /// fall back to synchronous planning.
    pub(crate) fn next_bundle(&mut self) -> Option<(StagedBundle, f64, Instant)> {
        let wait_started = Instant::now();
        let bundle = self.handoff.as_ref()?.recv().ok()?;
        let wait_sec = wait_started.elapsed().as_secs_f64();
        self.consumed += 1;
        // Taking this bundle opens the slot of the one `depth` epochs on.
        let opened = self.slots_opened.pop_front().expect("one slot per bundle");
        self.slots_opened.push_back(Instant::now());
        Some((bundle, wait_sec, opened))
    }
}

/// The planner thread (see the [module docs](self)); `done` counts the
/// bundles it has finished.
fn plan_ahead(spec: PipelineSpec, tx: SyncSender<StagedBundle>, done: Arc<AtomicUsize>) {
    let strategy = build_strategy(spec.strategy, spec.seed);
    let capacity = spec.planner.capacity_bytes();
    let (mut rng, mut start_k) = (Pcg64Mcg::new(spec.rng_state), spec.start_k);
    loop {
        let (batch, sample_started, sample_sec) =
            sample_next(&spec.graph, &spec.seeds, &spec.fanouts, &mut rng);
        let plan_started = Instant::now();
        let plan = plan_batch(&spec.planner, &batch, &*strategy, spec.mode, start_k, capacity);
        if let (PlanMode::From(_), Ok(plan)) = (spec.mode, &plan) {
            start_k = plan.k;
        }
        let bundle = StagedBundle {
            batch,
            plan,
            rng_after: rng.state(),
            sample_sec,
            sample_started,
            plan_started,
        };
        done.fetch_add(1, Ordering::Relaxed);
        if tx.send(bundle).is_err() {
            return; // the pipeline hung up
        }
    }
}

impl Drop for PlanPipeline {
    fn drop(&mut self) {
        // Hang up: the planner thread's next handoff fails and it exits.
        // Joining bounds its lifetime to the drop.
        drop(self.handoff.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Cheap FNV-1a fingerprint of the sampling inputs a pipeline bakes in,
/// used to detect a caller switching datasets between epochs.
pub(crate) fn dataset_key(dataset: &betty_data::Dataset) -> u64 {
    let train = &dataset.train_idx;
    [dataset.graph.num_nodes() as u64, train.len() as u64]
        .into_iter()
        .chain(train.iter().map(|&node| u64::from(node)))
        .fold(FNV_OFFSET, |h, v| fnv1a(h, &v.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use betty_data::DatasetSpec;
    use betty_device::{MemoryEstimator, ModelShape};

    fn dataset() -> betty_data::Dataset {
        DatasetSpec::cora().scaled(0.1).with_feature_dim(8).generate(3)
    }

    fn planner() -> MemoryAwarePlanner {
        let estimator = MemoryEstimator::new(ModelShape {
            in_dim: 8,
            hidden_dim: 8,
            num_classes: 4,
            num_layers: 2,
            aggregator: betty_device::AggregatorKind::Mean,
            params_gnn: 100,
            params_agg: 0,
            dropout: false,
        });
        MemoryAwarePlanner::new(estimator, usize::MAX, 64)
    }

    fn spec(ds: &betty_data::Dataset, depth: usize) -> PipelineSpec {
        PipelineSpec {
            graph: Arc::new(ds.graph.reverse()),
            seeds: Arc::new(ds.train_idx.clone()),
            fanouts: vec![3, 4],
            planner: planner(),
            strategy: StrategyKind::Betty,
            seed: 7,
            mode: PlanMode::Fixed(3),
            depth,
            rng_state: 0x1234_5678_9abc_def0,
            start_k: 1,
            dataset_key: dataset_key(ds),
        }
    }

    #[test]
    fn staged_bundles_match_the_synchronous_sequence() {
        let ds = dataset();
        let graph = ds.graph.reverse();
        // Reference: the synchronous sampler/planner sequence.
        let mut rng = Pcg64Mcg::new(0x1234_5678_9abc_def0);
        let planner = planner();
        let strategy = build_strategy(StrategyKind::Betty, 7);
        let mut expected = Vec::new();
        for _ in 0..4 {
            let batch = sample_batch_in(&graph, &ds.train_idx, &[3, 4], &mut rng);
            let plan = planner.plan_fixed(&batch, strategy.as_ref(), 3);
            expected.push((batch, plan.parts, rng.state()));
        }

        let mut pipeline = PlanPipeline::spawn(spec(&ds, 2));
        for (batch, parts, rng_after) in &expected {
            let (bundle, _wait, _opened) = pipeline.next_bundle().expect("planner alive");
            assert_eq!(&bundle.batch, batch, "staged batch must match sync sampling");
            assert_eq!(&bundle.plan.unwrap().parts, parts);
            assert_eq!(bundle.rng_after, *rng_after);
        }
    }

    #[test]
    fn staged_auto_plans_equal_the_synchronous_warm_plans() {
        // mean3_auto's model on a 16 MiB device, where K moves between 4
        // and 5: the planner thread starts each search at the K its
        // previous plan found, so at every depth each staged search takes
        // the synchronous warm search's path.
        let ds = DatasetSpec::ogbn_products().scaled(0.01).generate(1);
        let cfg = crate::ExperimentConfig {
            fanouts: vec![25, 35, 40],
            hidden_dim: 64,
            capacity_bytes: 16 << 20,
            dropout: 0.0,
            ..crate::ExperimentConfig::default()
        };
        let planner = crate::Runner::new(&ds, &cfg, 1).planner().clone();
        let graph = ds.graph.reverse();
        let strategy = build_strategy(StrategyKind::Betty, 1);
        let mut rng = Pcg64Mcg::new(0x1234_5678_9abc_def0);
        let (mut expected, mut start_k) = (Vec::new(), 1);
        for _ in 0..8 {
            let batch = sample_batch_in(&graph, &ds.train_idx, &cfg.fanouts, &mut rng);
            let capacity = planner.capacity_bytes();
            let plan = planner.plan_warm(&batch, strategy.as_ref(), 1, start_k, capacity);
            let plan = plan.expect("16 MiB fits some K");
            start_k = plan.k;
            expected.push(plan);
        }
        let ks: Vec<usize> = expected.iter().map(|p| p.k).collect();
        assert!(ks.windows(2).any(|w| w[0] != w[1]), "K never moved: {ks:?}");

        let graph = Arc::new(graph);
        for depth in 1..=3 {
            let mut pipeline = PlanPipeline::spawn(PipelineSpec {
                graph: Arc::clone(&graph),
                fanouts: cfg.fanouts.clone(),
                planner: planner.clone(),
                seed: 1,
                mode: PlanMode::From(1),
                ..spec(&ds, depth)
            });
            for (epoch, want) in expected.iter().enumerate() {
                let (bundle, _, _) = pipeline.next_bundle().expect("planner alive");
                let got = bundle.plan.expect("16 MiB fits some K");
                let what = format!("depth {depth}, epoch {epoch}");
                assert_eq!((got.k, got.probes), (want.k, want.probes), "{what}");
                assert!(got.parts == want.parts, "{what}: the parts differ");
            }
        }
    }

    #[test]
    fn matches_rejects_any_changed_knob() {
        let ds = dataset();
        let key = dataset_key(&ds);
        let pipeline = PlanPipeline::spawn(spec(&ds, 2));
        assert!(pipeline.matches(StrategyKind::Betty, PlanMode::Fixed(3), key, 2));
        assert!(!pipeline.matches(StrategyKind::Range, PlanMode::Fixed(3), key, 2));
        assert!(!pipeline.matches(StrategyKind::Betty, PlanMode::From(1), key, 2));
        assert!(!pipeline.matches(StrategyKind::Betty, PlanMode::Fixed(3), key ^ 1, 2));
        assert!(!pipeline.matches(StrategyKind::Betty, PlanMode::Fixed(3), key, 3));
    }

    #[test]
    fn dropping_mid_flight_joins_cleanly() {
        let ds = dataset();
        let depth = 3;
        let pipeline = PlanPipeline::spawn(spec(&ds, depth));
        let waiting = Instant::now();
        while pipeline.in_flight() < depth {
            assert!(waiting.elapsed().as_secs() < 60, "staging never reached depth");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Nothing is consumed, so the planner thread stays blocked at
        // `depth` staged bundles.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(pipeline.in_flight(), depth);
        drop(pipeline); // must not hang or leak panicking threads
    }

    #[test]
    fn dataset_key_tracks_the_training_split() {
        let a = dataset();
        let b = DatasetSpec::cora().scaled(0.2).with_feature_dim(8).generate(3);
        assert_eq!(dataset_key(&a), dataset_key(&a));
        assert_ne!(dataset_key(&a), dataset_key(&b));
    }

    #[test]
    fn rng_handoff_resumes_the_stream_exactly() {
        let ds = dataset();
        let mut pipeline = PlanPipeline::spawn(spec(&ds, 1));
        let (bundle, _, _) = pipeline.next_bundle().expect("planner alive");
        drop(pipeline);
        // A consumer adopting `rng_after` draws the same next batch the
        // pipeline would have staged.
        let mut adopted = Pcg64Mcg::new(bundle.rng_after);
        let graph = ds.graph.reverse();
        let next_sync = sample_batch_in(&graph, &ds.train_idx, &[3, 4], &mut adopted);
        let mut reference = Pcg64Mcg::new(0x1234_5678_9abc_def0);
        let _first = sample_batch_in(&graph, &ds.train_idx, &[3, 4], &mut reference);
        let second = sample_batch_in(&graph, &ds.train_idx, &[3, 4], &mut reference);
        assert_eq!(next_sync, second);
    }
}
