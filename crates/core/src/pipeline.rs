//! Partition-ahead pipeline: sample + REG-partition epoch `t + 1` on
//! background workers while epoch `t` trains.
//!
//! Betty's planning overhead (neighbor sampling, REG construction + cut,
//! micro-batch extraction) sits on the critical path of every epoch in the
//! synchronous design. But planning for the *next* epoch needs nothing the
//! current epoch produces — only the sampler's RNG cursor, which advances
//! deterministically — so it can run concurrently with forward/backward
//! compute on spare [`betty_runtime`] workers.
//!
//! # Determinism
//!
//! The pipeline reproduces the synchronous path bit for bit:
//!
//! * **Sampling order.** A dedicated driver thread owns a clone of the
//!   runner's sampler RNG and draws every batch *sequentially*, exactly as
//!   the synchronous loop would; only the (pure) partitioning work fans
//!   out to the worker pool. Each staged bundle records the RNG state
//!   after its draw, and the runner adopts that state at the handoff — so
//!   dropping the pipeline at any point lets the synchronous path resume
//!   from the very same cursor.
//! * **Handoff order.** Bundles return through an index-ordered queue
//!   ([`betty_runtime::OrderedQueue`], the same discipline as
//!   [`betty_runtime::map_ranges`]): epoch `t`'s consumer blocks until
//!   bundle `t` specifically is ready, regardless of completion order.
//! * **Pure stages.** Partitioner strategies are stateless (`&self`), so
//!   a plan computed on a worker is identical to one computed inline.
//!
//! # Depth 0
//!
//! No plan-ahead is the same work done inline: the runner builds the
//! epoch's [`StagedBundle`] on the training thread through the
//! [`sample_next`] and [`plan_batch`] the driver and workers call, and
//! consumes it like a staged one. Requests carry the runner's warm `K`,
//! so every search starts where an inline one would.
//!
//! # Memory
//!
//! Staged plans hold host memory only. The depth governor
//! ([`PlanPipeline::top_up`]) bounds it and changes no plan.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

use rand_pcg::Pcg64Mcg;

use betty_graph::{sample_batch_in, Batch, CsrGraph, NodeId};
use betty_partition::OutputPartitioner;
use betty_runtime::{OrderedQueue, WorkerPool};

use crate::planner::{MemoryAwarePlanner, Plan, PlanError};
use crate::strategy::{build_strategy, StrategyKind};

/// How an epoch's batch is planned — by the pipeline's workers or, with
/// the same result, synchronously on the training thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Exactly `k` micro-batches, whatever the capacity: planning is
    /// infallible.
    Fixed(usize),
    /// Memory-aware selection: the smallest fitting `K ≥ k`. Auto-K is
    /// `From(1)`; a user-given starting `K` is `From(k)`.
    From(usize),
}

/// Draws the next full batch from `rng`: the batch, when sampling began,
/// and its seconds.
pub fn sample_next(
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
pub fn plan_batch(
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
pub struct StagedBundle {
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
    /// When planning finished.
    pub plan_finished: Instant,
}

impl StagedBundle {
    /// Total transfer bytes (blocks + features + labels) over the plan's
    /// micro-batches — what the depth governor counts. 0 for failed
    /// plans.
    pub fn staged_bytes(&self) -> usize {
        self.plan
            .as_ref()
            .map_or(0, |p| p.estimates.iter().map(|e| e.transfer_bytes()).sum())
    }
}

/// Everything the pipeline needs to reproduce the runner's synchronous
/// sampling + planning on background threads.
pub struct PipelineSpec {
    /// Reversed (in-edge) graph the sampler walks.
    pub graph: Arc<CsrGraph>,
    /// Seed nodes of every staged batch (the training split).
    pub seeds: Arc<Vec<NodeId>>,
    /// Per-layer sampling fanouts.
    pub fanouts: Vec<usize>,
    /// The runner's planner (cheap to clone: estimator + scalars).
    pub planner: MemoryAwarePlanner,
    /// Partitioning strategy; rebuilt per job — strategies are stateless,
    /// so a fresh instance plans identically to a reused one.
    pub strategy: StrategyKind,
    /// Strategy seed (the runner's experiment seed).
    pub seed: u64,
    /// Fixed-K or memory-aware planning.
    pub mode: PlanMode,
    /// Maximum bundles in flight (≥ 1).
    pub depth: usize,
    /// Sampler RNG state to start the sequential cursor from.
    pub rng_state: u128,
    /// Fingerprint of the dataset the seeds/graph came from, for
    /// [`PlanPipeline::matches`].
    pub dataset_key: u64,
    /// Worker threads configured at spawn time.
    pub threads: usize,
}

/// A bounded-depth pipeline staging `(Batch, Plan)` bundles for future
/// epochs. See the [module docs](self) for the determinism argument.
pub struct PlanPipeline {
    /// One request per staged epoch, carrying the `K` its search starts
    /// from.
    req_tx: Option<mpsc::Sender<usize>>,
    driver: Option<JoinHandle<()>>,
    queue: Arc<OrderedQueue<StagedBundle>>,
    staged_bytes: Arc<AtomicUsize>,
    /// When each outstanding request was issued, oldest first — the
    /// consumer-side start of each bundle's staging window (issue
    /// happens *before* the overlapped epoch trains, so a span anchored
    /// here contains that epoch's compute spans by construction; the
    /// driver's own sampling start races with it).
    request_times: std::collections::VecDeque<Instant>,
    requested: usize,
    consumed: usize,
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
    /// Starts the driver thread and its worker pool. Nothing is staged
    /// until the first [`PlanPipeline::top_up`] /
    /// [`PlanPipeline::next_bundle`].
    pub fn spawn(spec: PipelineSpec) -> Self {
        let depth = spec.depth.max(1);
        // The consuming thread trains while workers plan; leave it one
        // core, and never park more workers than the depth can feed.
        let pool_threads = spec.threads.saturating_sub(1).min(depth).max(1);
        let queue = Arc::new(OrderedQueue::new());
        let staged_bytes = Arc::new(AtomicUsize::new(0));
        let (req_tx, req_rx) = mpsc::channel::<usize>();
        let driver = {
            let queue = Arc::clone(&queue);
            let staged_bytes = Arc::clone(&staged_bytes);
            let strategy = spec.strategy;
            let seed = spec.seed;
            let mode = spec.mode;
            let graph = spec.graph;
            let seeds = spec.seeds;
            let fanouts = spec.fanouts;
            let planner = spec.planner;
            let mut rng = Pcg64Mcg::new(spec.rng_state);
            std::thread::spawn(move || {
                let pool = WorkerPool::new(pool_threads);
                let mut issued = 0usize;
                // One request = one staged epoch. Sampling stays on this
                // thread so the RNG stream is drawn strictly in epoch
                // order; the (pure) planning fans out to the pool.
                while let Ok(start_k) = req_rx.recv() {
                    let index = issued;
                    issued += 1;
                    let (batch, sample_started, sample_sec) =
                        sample_next(&graph, &seeds, &fanouts, &mut rng);
                    let rng_after = rng.state();
                    let queue = Arc::clone(&queue);
                    let staged_bytes = Arc::clone(&staged_bytes);
                    let planner = planner.clone();
                    pool.submit(move || {
                        let strategy_impl = build_strategy(strategy, seed);
                        let plan = plan_batch(
                            &planner,
                            &batch,
                            strategy_impl.as_ref(),
                            mode,
                            start_k,
                            planner.capacity_bytes(),
                        );
                        let bundle = StagedBundle {
                            batch,
                            plan,
                            rng_after,
                            sample_sec,
                            sample_started,
                            plan_finished: Instant::now(),
                        };
                        staged_bytes.fetch_add(bundle.staged_bytes(), Ordering::Relaxed);
                        queue.push(index, bundle);
                    });
                }
                // Sender dropped: no more requests will ever arrive.
                // Close the queue at the issue horizon — pops below it
                // still block for in-flight jobs (the pool joins them on
                // drop, pushing every pending bundle first); pops at or
                // beyond it return `None` immediately.
                queue.close_at(issued);
                drop(pool);
            })
        };
        Self {
            req_tx: Some(req_tx),
            driver: Some(driver),
            queue,
            staged_bytes,
            request_times: std::collections::VecDeque::new(),
            requested: 0,
            consumed: 0,
            depth,
            strategy: spec.strategy,
            mode: spec.mode,
            dataset_key: spec.dataset_key,
        }
    }

    /// Whether this pipeline was built for the same work its caller is
    /// about to consume. A mismatch (strategy, plan mode, dataset, or
    /// depth changed between epochs) means every staged bundle is wrong
    /// and the pipeline must be dropped.
    pub fn matches(
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

    /// Bundles requested but not yet consumed — what an invalidation
    /// throws away.
    pub fn in_flight(&self) -> usize {
        self.requested - self.consumed
    }

    /// Asks the driver to stage one more epoch, searching from
    /// `start_k`. A send failure (driver died) is deliberately ignored:
    /// the next [`PlanPipeline::next_bundle`] will observe the closed
    /// queue and report it.
    fn request_one(&mut self, start_k: usize) {
        if let Some(tx) = &self.req_tx {
            let _ = tx.send(start_k);
        }
        self.request_times.push_back(Instant::now());
        self.requested += 1;
    }

    /// The staging governor: keep up to `depth` bundles in flight, each
    /// searching from `start_k`, but stop requesting while the staged
    /// transfer bytes already exceed `budget_bytes`. Purely advisory: it
    /// times when work is requested, never what any bundle contains, so
    /// results stay bit-identical at every budget.
    pub fn top_up(&mut self, budget_bytes: usize, start_k: usize) {
        while self.in_flight() < self.depth {
            if self.staged_bytes.load(Ordering::Relaxed) > budget_bytes {
                break;
            }
            self.request_one(start_k);
        }
    }

    /// Blocks until the next staged epoch (in strict issue order) is
    /// ready and returns it with the seconds spent waiting and the
    /// instant its request was issued (the start of its staging
    /// window). Requests one bundle, searching from `start_k`, first if
    /// none is outstanding. `None` means the driver is gone (panicked
    /// worker or closed queue); the caller should fall back to
    /// synchronous planning.
    pub fn next_bundle(&mut self, start_k: usize) -> Option<(StagedBundle, f64, Instant)> {
        if self.in_flight() == 0 {
            self.request_one(start_k);
        }
        let wait_started = Instant::now();
        let bundle = self.queue.pop(self.consumed)?;
        let wait_sec = wait_started.elapsed().as_secs_f64();
        self.consumed += 1;
        let requested_at = self
            .request_times
            .pop_front()
            .unwrap_or(bundle.sample_started);
        self.staged_bytes
            .fetch_sub(bundle.staged_bytes(), Ordering::Relaxed);
        Some((bundle, wait_sec, requested_at))
    }
}

impl Drop for PlanPipeline {
    fn drop(&mut self) {
        // Hang up the request channel; the driver drains, closes the
        // queue, joins its pool, and exits. Joining here bounds the
        // stragglers' lifetime to the drop.
        drop(self.req_tx.take());
        if let Some(driver) = self.driver.take() {
            let _ = driver.join();
        }
    }
}

/// Cheap FNV-1a fingerprint of the sampling inputs a pipeline bakes in,
/// used to detect a caller switching datasets between epochs.
pub fn dataset_key(dataset: &betty_data::Dataset) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(dataset.graph.num_nodes() as u64);
    eat(dataset.train_idx.len() as u64);
    for &node in &dataset.train_idx {
        eat(u64::from(node));
    }
    h
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
            dataset_key: dataset_key(ds),
            threads: 4,
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
        pipeline.top_up(usize::MAX, 1);
        for (batch, parts, rng_after) in &expected {
            let (bundle, _wait, _req) = pipeline.next_bundle(1).expect("driver alive");
            pipeline.top_up(usize::MAX, 1);
            assert_eq!(&bundle.batch, batch, "staged batch must match sync sampling");
            assert_eq!(&bundle.plan.unwrap().parts, parts);
            assert_eq!(bundle.rng_after, *rng_after);
        }
    }

    #[test]
    fn staged_auto_plans_equal_the_synchronous_warm_plans() {
        // mean3_auto's model on a 16 MiB device, where K moves between 4
        // and 5: each request carries the K the previous plan found, so
        // every staged search takes the synchronous warm search's path.
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

        let mut pipeline = PlanPipeline::spawn(PipelineSpec {
            graph: Arc::new(graph),
            fanouts: cfg.fanouts.clone(),
            planner,
            seed: 1,
            mode: PlanMode::From(1),
            ..spec(&ds, 1)
        });
        let mut start_k = 1;
        for (epoch, want) in expected.iter().enumerate() {
            let (bundle, _, _) = pipeline.next_bundle(start_k).expect("driver alive");
            let got = bundle.plan.expect("16 MiB fits some K");
            assert_eq!((got.k, got.probes), (want.k, want.probes), "epoch {epoch}");
            assert!(got.parts == want.parts, "epoch {epoch}: the parts differ");
            start_k = got.k;
            pipeline.top_up(usize::MAX, start_k);
        }
    }

    #[test]
    fn staged_byte_governor_caps_requests_not_results() {
        let ds = dataset();
        let mut pipeline = PlanPipeline::spawn(spec(&ds, 4));
        // A zero budget admits at most the one unconditional request.
        pipeline.top_up(0, 1);
        let first_wave = pipeline.in_flight();
        assert!(first_wave <= 4);
        let (bundle, _, _) = pipeline.next_bundle(1).expect("driver alive");
        assert!(bundle.staged_bytes() > 0, "plans stage real transfer bytes");
        // An unbounded budget fills the pipeline to depth.
        pipeline.top_up(usize::MAX, 1);
        assert_eq!(pipeline.in_flight(), 4);
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
        let mut pipeline = PlanPipeline::spawn(spec(&ds, 3));
        pipeline.top_up(usize::MAX, 1);
        assert_eq!(pipeline.in_flight(), 3);
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
        let (bundle, _, _) = pipeline.next_bundle(1).expect("driver alive");
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
