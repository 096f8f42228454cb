//! Memory-aware batch re-partitioning (paper §4.4.3).
//!
//! Planning a batch is a K-independent [`OutputPartitioner::prepare`] (for
//! Betty: the REG, and the coarsening levels its cuts share) followed by
//! one *probe* per candidate `K`: split, restrict, estimate. A fixed-`K`
//! plan is the one-probe case.

use std::fmt;
use std::time::Instant;

use betty_device::{MemoryEstimate, MemoryEstimator};
use betty_graph::{Batch, NodeId};
use betty_partition::{OutputPartitioner, PreparedSplit};

/// The outcome of planning: `K` micro-batches and their memory estimates.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The partition count asked of the strategy. `parts.len() ≤ k`:
    /// groups the strategy left empty are dropped.
    pub k: usize,
    /// Output-node groups, one per micro-batch (empty groups dropped).
    pub parts: Vec<Vec<NodeId>>,
    /// The materialized micro-batches, parallel to `parts`.
    pub micro_batches: Vec<Batch>,
    /// Per-micro-batch memory estimates, parallel to `parts`.
    pub estimates: Vec<MemoryEstimate>,
    /// Wall-clock seconds spent partitioning: the strategy's prepare (REG
    /// build) plus the cut of every probe, not only the winning one.
    pub partition_sec: f64,
    /// Wall-clock seconds spent extracting and estimating micro-batch
    /// block stacks, summed over every probe.
    pub extraction_sec: f64,
    /// Candidate `K`s probed to arrive at this plan (1 when `K` is fixed).
    pub probes: usize,
}

impl Plan {
    /// Peak estimated bytes over all micro-batches — what determines
    /// whether the plan fits the device.
    pub fn max_estimated_peak(&self) -> usize {
        self.estimates
            .iter()
            .map(MemoryEstimate::peak_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Total first-layer input nodes over all micro-batches (redundancy-
    /// inflated; Table 6's "total number of the first layer input").
    pub fn total_input_nodes(&self) -> usize {
        self.micro_batches
            .iter()
            .map(|b| b.input_nodes().len())
            .sum()
    }
}

/// Planning failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Even `max_partitions`-way splitting leaves a micro-batch that the
    /// estimator says exceeds capacity.
    CapacityUnreachable {
        /// The partition-count limit that was reached.
        max_partitions: usize,
        /// Smallest max-micro-batch peak seen, in bytes.
        best_peak: usize,
        /// Device capacity, in bytes.
        capacity: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::CapacityUnreachable {
                max_partitions,
                best_peak,
                capacity,
            } => write!(
                f,
                "no K ≤ {max_partitions} fits: best peak {best_peak} bytes > capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Chooses the micro-batch count by estimating memory instead of
/// trial-and-error training runs.
///
/// Starting from `initial_k`, the planner splits the batch, estimates every
/// micro-batch (§4.4.3's "partition memory estimation"), and accepts the
/// smallest `K` whose largest micro-batch fits the capacity: the paper's
/// `K + 1` loop, searched geometrically (warm across a runner's epochs).
#[derive(Debug, Clone)]
pub struct MemoryAwarePlanner {
    estimator: MemoryEstimator,
    capacity_bytes: usize,
    max_partitions: usize,
    prefetch_staging: bool,
    feature_cache_bytes: usize,
}

impl MemoryAwarePlanner {
    /// A planner for the given estimator and device capacity.
    pub fn new(estimator: MemoryEstimator, capacity_bytes: usize, max_partitions: usize) -> Self {
        assert!(max_partitions > 0, "max_partitions must be positive");
        Self {
            estimator,
            capacity_bytes,
            max_partitions,
            prefetch_staging: false,
            feature_cache_bytes: 0,
        }
    }

    /// Makes the planner account for double-buffered prefetch: every
    /// micro-batch except the last additionally holds its successor's
    /// transfer bytes (blocks + input features + labels) while it
    /// executes, so each estimate's
    /// [`prefetch_staging`](MemoryEstimate::prefetch_staging) term is
    /// filled in and the capacity loop sizes `K` for the overlap buffer
    /// too. Single-micro-batch plans never stage anything and are
    /// unaffected.
    pub fn with_prefetch_staging(mut self, enabled: bool) -> Self {
        self.prefetch_staging = enabled;
        self
    }

    /// Makes the planner charge the out-of-core feature store's pinned
    /// hot-set reservation against every micro-batch: each estimate's
    /// [`feature_cache`](MemoryEstimate::feature_cache) term is set to
    /// `bytes` (the trainer charges the same constant per step, so the
    /// estimator stays drift-free). Pass the store's
    /// `cache_reservation_bytes()`; zero (the dense backend) is a no-op.
    pub fn with_feature_cache(mut self, bytes: usize) -> Self {
        self.feature_cache_bytes = bytes;
        self
    }

    /// The estimator in use.
    pub fn estimator(&self) -> &MemoryEstimator {
        &self.estimator
    }

    /// The device capacity planning normally targets.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Splits `batch` into exactly `k` micro-batches without the capacity
    /// loop (used when an experiment fixes the batch count).
    pub fn plan_fixed(&self, batch: &Batch, strategy: &dyn OutputPartitioner, k: usize) -> Plan {
        Probing::start(self, batch, strategy).probe(k)
    }

    /// The memory-aware re-partitioning loop: smallest `K ≥ initial_k`
    /// whose largest estimated micro-batch fits capacity.
    ///
    /// The paper iterates `K → K + 1` (§4.4.3); since each probe costs a
    /// cut, `K` restrictions and `K` estimates, this implementation probes
    /// geometrically and then binary-searches the fitting boundary — the
    /// same minimal `K` whenever feasibility is monotone in `K` (which
    /// holding the strategy fixed it is, up to partitioner noise), in
    /// `O(log K)` probes, after one K-independent prepare.
    ///
    /// # Errors
    ///
    /// [`PlanError::CapacityUnreachable`] if no `K ≤ max_partitions` fits.
    pub fn plan(
        &self,
        batch: &Batch,
        strategy: &dyn OutputPartitioner,
        initial_k: usize,
    ) -> Result<Plan, PlanError> {
        self.plan_with_capacity(batch, strategy, initial_k, self.capacity_bytes)
    }

    /// Like [`MemoryAwarePlanner::plan`], but against an explicit
    /// capacity override instead of the planner's own budget.
    ///
    /// OOM recovery uses this for headroom backoff: after an estimator-
    /// underpredicted OOM, re-planning against the full capacity could
    /// reproduce the same failing plan, so each retry plans against a
    /// fraction of the real capacity (see
    /// [`RetryPolicy`](crate::RetryPolicy)).
    ///
    /// # Errors
    ///
    /// [`PlanError::CapacityUnreachable`] if no `K ≤ max_partitions`
    /// fits `capacity_bytes`.
    pub fn plan_with_capacity(
        &self,
        batch: &Batch,
        strategy: &dyn OutputPartitioner,
        initial_k: usize,
        capacity_bytes: usize,
    ) -> Result<Plan, PlanError> {
        self.plan_warm(batch, strategy, initial_k, initial_k, capacity_bytes)
    }

    /// [`MemoryAwarePlanner::plan_with_capacity`] resumed near `start_k`
    /// ([`search`]): the cold plan whenever the probes it skips would fail —
    /// always under monotone feasibility — in fewer probes.
    pub(crate) fn plan_warm(
        &self,
        batch: &Batch,
        strategy: &dyn OutputPartitioner,
        initial_k: usize,
        start_k: usize,
        capacity_bytes: usize,
    ) -> Result<Plan, PlanError> {
        let k_limit = self.max_partitions.min(batch.output_nodes().len().max(1));
        let mut best_peak = usize::MAX;
        let mut probing = Probing::start(self, batch, strategy);
        let found = search(initial_k, start_k, k_limit, |k| {
            let plan = probing.probe(k);
            let peak = plan.max_estimated_peak();
            best_peak = best_peak.min(peak);
            (peak <= capacity_bytes).then_some(plan)
        });
        let plan = found.ok_or(PlanError::CapacityUnreachable {
            max_partitions: self.max_partitions,
            best_peak,
            capacity: capacity_bytes,
        })?;
        // The plan is the winning probe's; its cost is every probe's.
        Ok(Plan {
            partition_sec: probing.partition_sec,
            extraction_sec: probing.extraction_sec,
            probes: probing.probes,
            ..plan
        })
    }
}

/// The cold search — the ascent `min_k, 2·min_k, 4·min_k, …, k_limit` to
/// the first fitting `K`, then bisection below it — resumed at the last
/// ascent point at or below `start_k` (`probe` returns what a fitting `K`
/// made). It takes the cold search's own probe path from there, so it finds
/// the cold `K` — also where feasibility is not monotone — whenever the
/// skipped ascent points fail, which a bracket that ends on its floor checks
/// by probing the point below. From `start_k ≤ min_k` it is the cold search.
fn search<T>(
    min_k: usize,
    start_k: usize,
    k_limit: usize,
    mut probe: impl FnMut(usize) -> Option<T>,
) -> Option<T> {
    let min_k = min_k.clamp(1, k_limit);
    let mut ascent = vec![min_k];
    while let Some(&a) = ascent.last().filter(|&&a| a < k_limit) {
        ascent.push((2 * a).min(k_limit));
    }
    let floor = |i: usize| if i == 0 { min_k } else { ascent[i - 1] + 1 };
    let resumed = ascent.iter().rposition(|&a| a <= start_k).unwrap_or(0);
    let mut i = resumed;
    let mut best = loop {
        if let Some(found) = probe(ascent[i]) {
            break found;
        }
        if i + 1 == ascent.len() {
            return None;
        }
        i += 1;
    };
    loop {
        let (mut lo, mut hi) = (floor(i), ascent[i]);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match probe(mid) {
                Some(found) => (best, hi) = (found, mid),
                None => lo = mid + 1,
            }
        }
        // The ascent point below the bracket failed if the ascent probed it.
        if i == 0 || i > resumed || hi > floor(i) {
            return Some(best);
        }
        let Some(found) = probe(ascent[i - 1]) else {
            return Some(best);
        };
        (best, i) = (found, i - 1);
    }
}

/// One planning call on one batch: the K-independent preparation and the
/// running cost of its probes.
struct Probing<'a> {
    planner: &'a MemoryAwarePlanner,
    batch: &'a Batch,
    prepared: Box<dyn PreparedSplit + 'a>,
    partition_sec: f64,
    extraction_sec: f64,
    probes: usize,
}

impl<'a> Probing<'a> {
    fn start(
        planner: &'a MemoryAwarePlanner,
        batch: &'a Batch,
        strategy: &'a dyn OutputPartitioner,
    ) -> Self {
        let started = Instant::now();
        let prepared = strategy.prepare(batch);
        Self {
            planner,
            batch,
            prepared,
            partition_sec: started.elapsed().as_secs_f64(),
            extraction_sec: 0.0,
            probes: 0,
        }
    }

    /// Splits into `k`, restricts, estimates. The returned plan carries
    /// the cost of this call's probes so far.
    fn probe(&mut self, k: usize) -> Plan {
        let started = Instant::now();
        let parts: Vec<Vec<NodeId>> = self
            .prepared
            .split(k)
            .into_iter()
            .filter(|p| !p.is_empty())
            .collect();
        self.partition_sec += started.elapsed().as_secs_f64();
        let extract_started = Instant::now();
        let micro_batches = self.batch.restrict_all(&parts);
        let planner = self.planner;
        let mut estimates: Vec<MemoryEstimate> = micro_batches
            .iter()
            .map(|mb| planner.estimator.estimate(mb))
            .collect();
        if planner.prefetch_staging {
            for i in 0..estimates.len().saturating_sub(1) {
                estimates[i].prefetch_staging = estimates[i + 1].transfer_bytes();
            }
        }
        if planner.feature_cache_bytes > 0 {
            for est in &mut estimates {
                est.feature_cache = planner.feature_cache_bytes;
            }
        }
        self.extraction_sec += extract_started.elapsed().as_secs_f64();
        self.probes += 1;
        Plan {
            k,
            parts,
            micro_batches,
            estimates,
            partition_sec: self.partition_sec,
            extraction_sec: self.extraction_sec,
            probes: self.probes,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};
    use std::time::Duration;

    use super::*;
    use betty_device::{AggregatorKind, ModelShape};
    use betty_graph::Block;
    use betty_partition::RegPartitioner;

    fn estimator() -> MemoryEstimator {
        MemoryEstimator::new(ModelShape {
            in_dim: 16,
            hidden_dim: 8,
            num_classes: 4,
            num_layers: 1,
            aggregator: AggregatorKind::Mean,
            params_gnn: 100,
            params_agg: 0,
            dropout: false,
        })
    }

    fn batch() -> Batch {
        // 8 outputs with chains of private + shared sources.
        let mut edges = Vec::new();
        for d in 0..8u32 {
            for s in 0..6u32 {
                edges.push((100 + (d / 2) * 10 + s, d)); // pairs share sources
            }
        }
        Batch::new(vec![Block::new((0..8).collect(), &edges)])
    }

    /// 48 outputs in 12 groups of four that share six sources each.
    fn wide_batch() -> Batch {
        let mut edges = Vec::new();
        for d in 0..48u32 {
            for s in 0..6u32 {
                edges.push((100 + (d / 4) * 10 + s, d));
            }
        }
        Batch::new(vec![Block::new((0..48).collect(), &edges)])
    }

    /// A planner whose capacity is the peak of `batch` split five ways.
    fn five_way_planner(batch: &Batch) -> MemoryAwarePlanner {
        let capacity = MemoryAwarePlanner::new(estimator(), usize::MAX, 64)
            .plan_fixed(batch, &RegPartitioner::new(0), 5)
            .max_estimated_peak();
        MemoryAwarePlanner::new(estimator(), capacity, 64)
    }

    /// An implementor of `split_outputs` alone — the benchmark harness's
    /// shape — recording the `K`s it is asked for, each after a `nap`.
    struct SplitOnly {
        inner: RegPartitioner,
        asked: RefCell<Vec<usize>>,
        nap: Duration,
    }

    impl OutputPartitioner for SplitOnly {
        fn name(&self) -> &'static str {
            "split-only"
        }

        fn split_outputs(&self, batch: &Batch, k: usize) -> Vec<Vec<NodeId>> {
            self.asked.borrow_mut().push(k);
            std::thread::sleep(self.nap);
            self.inner.split_outputs(batch, k)
        }
    }

    /// An implementor of `prepare`, counting its calls and recording the
    /// `K`s split through what it returns.
    struct CountingPrepare {
        inner: RegPartitioner,
        prepares: Cell<usize>,
        asked: RefCell<Vec<usize>>,
    }

    struct Recording<'a> {
        inner: Box<dyn PreparedSplit + 'a>,
        asked: &'a RefCell<Vec<usize>>,
    }

    impl PreparedSplit for Recording<'_> {
        fn split(&mut self, k: usize) -> Vec<Vec<NodeId>> {
            self.asked.borrow_mut().push(k);
            self.inner.split(k)
        }
    }

    impl OutputPartitioner for CountingPrepare {
        fn name(&self) -> &'static str {
            "counting-prepare"
        }

        fn split_outputs(&self, _: &Batch, _: usize) -> Vec<Vec<NodeId>> {
            unreachable!("the planner splits through prepare")
        }

        fn prepare<'a>(&'a self, batch: &'a Batch) -> Box<dyn PreparedSplit + 'a> {
            self.prepares.set(self.prepares.get() + 1);
            Box::new(Recording {
                inner: self.inner.prepare(batch),
                asked: &self.asked,
            })
        }
    }

    #[test]
    fn auto_plan_prepares_once_and_splits_once_per_probe() {
        let batch = wide_batch();
        let planner = five_way_planner(&batch);
        // Geometric ascent 1, 2, 4, 8, then bisection of [5, 8].
        let probes = [1usize, 2, 4, 8, 6, 5];

        let counting = CountingPrepare {
            inner: RegPartitioner::new(0),
            prepares: Cell::new(0),
            asked: RefCell::new(Vec::new()),
        };
        let prepared_plan = planner.plan(&batch, &counting, 1).unwrap();
        assert_eq!(counting.prepares.get(), 1, "one prepare per batch");
        assert_eq!(*counting.asked.borrow(), probes);
        assert_eq!(prepared_plan.probes, probes.len());
        assert_eq!(prepared_plan.k, 5);

        let split_only = SplitOnly {
            inner: RegPartitioner::new(0),
            asked: RefCell::new(Vec::new()),
            nap: Duration::ZERO,
        };
        let shim_plan = planner.plan(&batch, &split_only, 1).unwrap();
        assert_eq!(
            *split_only.asked.borrow(),
            probes,
            "one split_outputs per probe"
        );
        assert_eq!(shim_plan.parts, prepared_plan.parts);
        assert_eq!(shim_plan.micro_batches, prepared_plan.micro_batches);

        // A fixed-K plan is one prepare and one probe.
        let fixed = planner.plan_fixed(&batch, &counting, 3);
        assert_eq!(counting.prepares.get(), 2);
        assert_eq!(fixed.probes, 1);
    }

    /// The search before it took a start: a doubling ascent from `min_k`,
    /// then bisection. Returns its answer and the `K`s it probed.
    fn cold_loop(
        min_k: usize,
        k_limit: usize,
        fits: impl Fn(usize) -> bool,
    ) -> (Option<usize>, Vec<usize>) {
        let mut probed = Vec::new();
        let mut probe = |k| {
            probed.push(k);
            fits(k)
        };
        let mut lo = min_k.max(1).min(k_limit);
        let mut k = lo;
        while !probe(k) {
            if k >= k_limit {
                return (None, probed);
            }
            lo = k + 1;
            k = (k * 2).min(k_limit);
        }
        let mut hi = k;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if probe(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        (Some(hi), probed)
    }

    /// [`search`] over a predicate: its answer and the `K`s it probed.
    fn searched(
        min_k: usize,
        start_k: usize,
        k_limit: usize,
        fits: impl Fn(usize) -> bool,
    ) -> (Option<usize>, Vec<usize>) {
        let mut probed = Vec::new();
        let found = search(min_k, start_k, k_limit, |k| {
            probed.push(k);
            fits(k).then_some(k)
        });
        (found, probed)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Feasibility monotone in K — fitting from `threshold` up, which
        /// may lie past the limit — and starts anywhere, below `min_k` too.
        #[test]
        fn a_search_from_any_start_finds_the_cold_answer_under_monotone_feasibility(
            min_k in 1usize..20,
            span in 0usize..80,
            threshold in 1usize..120,
            start in 0usize..120,
        ) {
            let k_limit = min_k + span;
            let fits = |k: usize| k >= threshold;
            let (cold, cold_probes) = cold_loop(min_k, k_limit, fits);
            proptest::prop_assert_eq!(cold, Some(threshold.max(min_k)).filter(|&k| k <= k_limit));
            proptest::prop_assert_eq!(searched(min_k, min_k, k_limit, fits), (cold, cold_probes));
            let (warm, mut probed) = searched(min_k, start, k_limit, fits);
            proptest::prop_assert_eq!(warm, cold, "from {}", start);
            probed.sort_unstable();
            probed.dedup();
            proptest::prop_assert!(probed.iter().all(|k| (min_k..=k_limit).contains(k)));
        }

        /// Any feasibility at all: what is found fits and is `min_k` or has
        /// a failing predecessor, and nothing is found only when `k_limit`
        /// fails. Where the ascent points below the start's all fail, the
        /// search probes only what the cold one does and finds its `K`.
        #[test]
        fn a_search_follows_the_cold_path_from_where_it_resumes_whatever_the_feasibility(
            min_k in 1usize..20,
            span in 0usize..80,
            mask in 0u64..u64::MAX,
            start in 0usize..120,
        ) {
            let k_limit = min_k + span;
            let mut ascent = vec![min_k];
            while ascent[ascent.len() - 1] < k_limit {
                ascent.push((2 * ascent[ascent.len() - 1]).min(k_limit));
            }
            let resume = ascent.iter().copied().filter(|&a| a <= start).max().unwrap_or(min_k);
            let noisy = |k: usize| mask >> (k % 64) & 1 == 1;
            let skipped_fail = |k: usize| noisy(k) && !(k < resume && ascent.contains(&k));
            for fits in [&noisy as &dyn Fn(usize) -> bool, &skipped_fail] {
                match searched(min_k, start, k_limit, fits).0 {
                    Some(k) => proptest::prop_assert!(
                        (min_k..=k_limit).contains(&k) && fits(k) && (k == min_k || !fits(k - 1)),
                        "from {} found {}", start, k
                    ),
                    None => proptest::prop_assert!(!fits(k_limit), "from {}", start),
                }
            }
            let (cold, cold_probes) = cold_loop(min_k, k_limit, skipped_fail);
            let (warm, probed) = searched(min_k, start, k_limit, skipped_fail);
            proptest::prop_assert_eq!(warm, cold, "from {}", start);
            proptest::prop_assert!(
                probed.len() <= cold_probes.len() && probed.iter().all(|k| cold_probes.contains(k)),
                "from {}: {:?} against the cold {:?}", start, probed, cold_probes
            );
        }
    }

    #[test]
    fn a_warm_plan_is_the_cold_plan() {
        let batch = wide_batch();
        let planner = five_way_planner(&batch);
        let strategy = RegPartitioner::new(0);
        let cold = planner.plan(&batch, &strategy, 1).unwrap();
        for start in [0, 1, 4, 5, 6, 9, 48, 500] {
            let warm = planner
                .plan_warm(&batch, &strategy, 1, start, planner.capacity_bytes())
                .unwrap();
            assert_eq!((warm.k, &warm.parts), (cold.k, &cold.parts), "from {start}");
            assert_eq!(warm.micro_batches, cold.micro_batches);
        }
        // From 5 the cold path resumes at 4: 4, 8, 6, 5 — not 1, 2 first.
        let warm = planner
            .plan_warm(&batch, &strategy, 1, 5, planner.capacity_bytes())
            .unwrap();
        assert_eq!((warm.k, warm.probes), (5, 4));
        // Everything fits: each bracket ends on its floor, so the ascent
        // point below is checked, down to K = 1.
        let roomy = planner.plan_warm(&batch, &strategy, 1, 5, usize::MAX).unwrap();
        assert_eq!((roomy.k, roomy.probes), (1, 4));
    }

    #[test]
    fn auto_plan_reports_the_cost_of_every_probe() {
        let batch = wide_batch();
        let planner = five_way_planner(&batch);
        let slow = SplitOnly {
            inner: RegPartitioner::new(0),
            asked: RefCell::new(Vec::new()),
            nap: Duration::from_millis(3),
        };
        let started = Instant::now();
        let plan = planner.plan(&batch, &slow, 1).unwrap();
        let wall = started.elapsed().as_secs_f64();
        assert_eq!(plan.probes, 6);
        // Every probe's split is billed, not only the winning one's.
        assert!(plan.partition_sec >= 6.0 * 0.003, "{}", plan.partition_sec);
        assert!(plan.extraction_sec > 0.0);
        assert!(plan.partition_sec + plan.extraction_sec <= wall);
    }

    #[test]
    fn plan_fixed_covers_outputs() {
        let planner = MemoryAwarePlanner::new(estimator(), usize::MAX, 64);
        let plan = planner.plan_fixed(&batch(), &RegPartitioner::new(0), 4);
        let mut outputs: Vec<NodeId> = plan.parts.iter().flatten().copied().collect();
        outputs.sort_unstable();
        assert_eq!(outputs, (0..8).collect::<Vec<_>>());
        assert_eq!(plan.micro_batches.len(), plan.estimates.len());
    }

    #[test]
    fn plan_loop_grows_k_until_fit() {
        let planner_unbounded = MemoryAwarePlanner::new(estimator(), usize::MAX, 64);
        let full = planner_unbounded.plan_fixed(&batch(), &RegPartitioner::new(0), 1);
        let full_peak = full.max_estimated_peak();
        // Capacity below the full-batch peak forces K > 1.
        let planner = MemoryAwarePlanner::new(estimator(), full_peak - 1, 64);
        let plan = planner
            .plan(&batch(), &RegPartitioner::new(0), 1)
            .expect("a split must fit");
        assert!(plan.k > 1, "k = {}", plan.k);
        assert!(plan.max_estimated_peak() < full_peak);
    }

    #[test]
    fn impossible_capacity_errors() {
        // Parameters alone exceed one byte of capacity: no K can fit.
        let planner = MemoryAwarePlanner::new(estimator(), 1, 8);
        let err = planner
            .plan(&batch(), &RegPartitioner::new(0), 1)
            .unwrap_err();
        let PlanError::CapacityUnreachable {
            max_partitions,
            capacity,
            ..
        } = err;
        assert_eq!(max_partitions, 8);
        assert_eq!(capacity, 1);
    }

    #[test]
    fn more_parts_than_outputs_stops_at_output_count() {
        let planner = MemoryAwarePlanner::new(estimator(), 1, 1000);
        // 8 outputs: the loop must not run past K = 8.
        assert!(planner.plan(&batch(), &RegPartitioner::new(0), 1).is_err());
    }

    #[test]
    fn capacity_override_forces_bigger_k_than_own_budget() {
        let planner = MemoryAwarePlanner::new(estimator(), usize::MAX, 64);
        let relaxed = planner
            .plan(&batch(), &RegPartitioner::new(0), 1)
            .unwrap();
        assert_eq!(relaxed.k, 1, "unbounded budget keeps the batch whole");
        let full_peak = relaxed.max_estimated_peak();
        let tight = planner
            .plan_with_capacity(&batch(), &RegPartitioner::new(0), 1, full_peak - 1)
            .expect("a split must fit the override");
        assert!(tight.k > 1);
        assert!(tight.max_estimated_peak() < full_peak);
        // The error reports the *effective* capacity, not the planner's.
        let err = planner
            .plan_with_capacity(&batch(), &RegPartitioner::new(0), 1, 1)
            .unwrap_err();
        let PlanError::CapacityUnreachable { capacity, .. } = err;
        assert_eq!(capacity, 1);
    }

    #[test]
    fn initial_k_beyond_output_count_is_clamped() {
        let planner = MemoryAwarePlanner::new(estimator(), usize::MAX, 64);
        // 8 outputs; escalation may ask for more partitions than outputs.
        let plan = planner
            .plan(&batch(), &RegPartitioner::new(0), 500)
            .unwrap();
        assert!(plan.micro_batches.len() <= 8);
    }

    #[test]
    fn prefetch_staging_charges_each_successors_transfer() {
        let plain = MemoryAwarePlanner::new(estimator(), usize::MAX, 64);
        let staged = plain.clone().with_prefetch_staging(true);
        let strategy = RegPartitioner::new(0);
        let base = plain.plan_fixed(&batch(), &strategy, 4);
        let plan = staged.plan_fixed(&batch(), &strategy, 4);
        let k = plan.estimates.len();
        assert!(k >= 2);
        for i in 0..k - 1 {
            assert_eq!(
                plan.estimates[i].prefetch_staging,
                base.estimates[i + 1].transfer_bytes(),
                "micro-batch {i} must hold its successor's transfer"
            );
            assert_eq!(
                plan.estimates[i].peak_bytes(),
                base.estimates[i].peak_bytes() + plan.estimates[i].prefetch_staging
            );
        }
        // The last micro-batch stages nothing; K = 1 plans are untouched.
        assert_eq!(plan.estimates[k - 1].prefetch_staging, 0);
        let single = staged.plan_fixed(&batch(), &strategy, 1);
        assert_eq!(single.estimates[0].prefetch_staging, 0);
    }

    #[test]
    fn feature_cache_charges_every_micro_batch_constantly() {
        let plain = MemoryAwarePlanner::new(estimator(), usize::MAX, 64);
        let cached = plain.clone().with_feature_cache(4096);
        let strategy = RegPartitioner::new(0);
        let base = plain.plan_fixed(&batch(), &strategy, 4);
        let plan = cached.plan_fixed(&batch(), &strategy, 4);
        assert!(plan.estimates.len() >= 2);
        for (i, (est, b)) in plan.estimates.iter().zip(&base.estimates).enumerate() {
            assert_eq!(est.feature_cache, 4096, "micro-batch {i}");
            assert_eq!(
                est.peak_bytes(),
                b.peak_bytes() + 4096,
                "the reservation must raise micro-batch {i}'s peak by exactly the budget"
            );
        }
        // Zero budget (the dense backend) leaves estimates untouched.
        let zero = plain.clone().with_feature_cache(0).plan_fixed(&batch(), &strategy, 4);
        assert_eq!(zero.estimates, base.estimates);
    }

    #[test]
    fn parallel_restrict_matches_serial_exactly() {
        let planner = MemoryAwarePlanner::new(estimator(), usize::MAX, 64);
        let strategy = RegPartitioner::new(0);
        let plan_at = |threads| {
            betty_runtime::with_threads(threads, || planner.plan_fixed(&batch(), &strategy, 4))
        };
        let serial = plan_at(1);
        for threads in [2, 3, 8] {
            let parallel = plan_at(threads);
            assert_eq!(serial.parts, parallel.parts);
            assert_eq!(
                serial.micro_batches, parallel.micro_batches,
                "{threads} threads must materialize identical micro-batches"
            );
        }
    }

    #[test]
    fn total_input_nodes_counts_duplicates() {
        let planner = MemoryAwarePlanner::new(estimator(), usize::MAX, 64);
        let plan1 = planner.plan_fixed(&batch(), &RegPartitioner::new(0), 1);
        let plan8 = planner.plan_fixed(&batch(), &RegPartitioner::new(0), 8);
        assert!(plan8.total_input_nodes() >= plan1.total_input_nodes());
    }
}
