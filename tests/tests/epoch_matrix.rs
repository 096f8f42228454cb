//! One oracle, one matrix: every optional mechanism must leave losses,
//! parameters and the value-determined stats of training unchanged bit
//! for bit. Each cell of [`CELLS`] picks a value on every axis — entry
//! point, plan-ahead depth, threads, backend, feature store,
//! tracing, aggregator, `K`, injected faults — and is compared with the
//! oracle for its aggregator, `K` and scenario ([`Cell::oracle`]). The
//! table covers every valid pair of axis values; a test checks that.
//!
//! Only these may differ from the oracle: a paged store's peaks (by
//! exactly its cache reservation, measured and estimated), the paging
//! counters, plan-ahead overlap and invalidations, and the log entries of
//! the cell's own scenario.

use std::sync::Mutex;

use betty::{DeviceGroup, DeviceHealth, ExperimentConfig, Runner, StrategyKind};
use betty_data::Dataset;
use betty_device::FaultPlan;
use betty_integration_tests::{
    config, dataset, trajectory, Cell, LogCounts, Outcome, Row, Scenario, Store, PAGE_ROWS, SEED,
};
use betty_nn::AggregatorSpec::{self, Lstm, Mean, Pool};
use betty_tensor::Backend::{self, Scalar, Simd};
use Row::{Betty, Cached, Elastic, Given};
use Scenario::{Clean, Corrupt, Device, Io, Nan, Oom};
use Store::{Dense, Parity, Starved, Unbounded};

const ON: bool = true;
const OFF: bool = false;

#[allow(clippy::too_many_arguments)]
const fn cell(
    row: Row,
    plan_ahead: usize,
    threads: usize,
    backend: Backend,
    store: Store,
    traced: bool,
    aggregator: AggregatorSpec,
    k: usize,
    scenario: Scenario,
) -> Cell {
    Cell {
        row,
        plan_ahead,
        threads,
        backend,
        store,
        traced,
        aggregator,
        k,
        scenario,
    }
}

// Each scenario uses three (aggregator, K) keys, one row of a Latin
// square: the OOM cells one row, the NaN cells another and the rest a
// third, so nine oracles cover all nine pairs.
#[rustfmt::skip]
const CELLS: [Cell; 35] = [
    //   row         depth thr backend store      traced agg   K  scenario
    cell(Betty,      1,    4,  Simd,   Dense,     OFF,   Pool, 2, Clean),
    cell(Betty,      0,    1,  Simd,   Starved,   OFF,   Mean, 1, Clean),
    cell(Betty,      0,    1,  Scalar, Unbounded, ON,    Mean, 1, Clean),
    cell(Betty,      3,    4,  Simd,   Parity,    ON,    Lstm, 4, Clean),
    cell(Elastic(1), 0,    4,  Simd,   Dense,     ON,    Mean, 1, Clean),
    cell(Elastic(3), 0,    1,  Simd,   Dense,     ON,    Mean, 1, Clean),
    cell(Cached,     0,    1,  Simd,   Dense,     ON,    Mean, 1, Clean),
    cell(Cached,     0,    1,  Scalar, Starved,   ON,    Pool, 2, Clean),
    cell(Cached,     1,    4,  Simd,   Unbounded, OFF,   Lstm, 4, Clean),
    cell(Cached,     3,    4,  Simd,   Parity,    OFF,   Pool, 2, Clean),
    cell(Given,      0,    1,  Simd,   Dense,     OFF,   Mean, 1, Clean),
    cell(Given,      1,    4,  Scalar, Starved,   OFF,   Mean, 1, Clean),
    cell(Given,      3,    4,  Simd,   Unbounded, ON,    Pool, 2, Clean),
    cell(Given,      0,    1,  Simd,   Parity,    ON,    Lstm, 4, Clean),
    cell(Elastic(1), 0,    1,  Simd,   Dense,     OFF,   Mean, 2, Oom),
    cell(Elastic(1), 3,    4,  Simd,   Starved,   ON,    Pool, 4, Oom),
    cell(Elastic(1), 0,    1,  Simd,   Unbounded, ON,    Mean, 2, Oom),
    cell(Elastic(1), 3,    4,  Simd,   Parity,    ON,    Lstm, 1, Oom),
    cell(Elastic(3), 1,    4,  Scalar, Dense,     ON,    Mean, 2, Oom),
    cell(Elastic(1), 1,    4,  Simd,   Dense,     ON,    Mean, 4, Nan),
    cell(Elastic(1), 0,    1,  Simd,   Starved,   OFF,   Lstm, 2, Nan),
    cell(Elastic(1), 3,    4,  Scalar, Parity,    OFF,   Mean, 4, Nan),
    cell(Elastic(3), 3,    4,  Simd,   Unbounded, OFF,   Pool, 1, Nan),
    cell(Elastic(1), 3,    4,  Simd,   Unbounded, ON,    Mean, 1, Io),
    cell(Elastic(1), 0,    1,  Scalar, Unbounded, ON,    Lstm, 4, Io),
    cell(Elastic(1), 1,    4,  Simd,   Parity,    OFF,   Pool, 2, Io),
    cell(Elastic(3), 0,    1,  Simd,   Starved,   OFF,   Mean, 1, Io),
    cell(Elastic(1), 1,    4,  Scalar, Parity,    OFF,   Mean, 1, Corrupt),
    cell(Elastic(1), 3,    4,  Simd,   Parity,    ON,    Lstm, 4, Corrupt),
    cell(Elastic(3), 0,    1,  Simd,   Parity,    ON,    Pool, 2, Corrupt),
    cell(Elastic(3), 3,    4,  Simd,   Dense,     OFF,   Mean, 1, Device),
    cell(Elastic(3), 0,    1,  Simd,   Dense,     ON,    Lstm, 4, Device),
    cell(Elastic(3), 1,    4,  Simd,   Starved,   ON,    Pool, 2, Device),
    cell(Elastic(3), 0,    1,  Scalar, Unbounded, OFF,   Mean, 1, Device),
    cell(Elastic(3), 0,    1,  Simd,   Parity,    OFF,   Mean, 1, Device),
];

/// The oracle's outcome with what the cell may change taken from the
/// cell's own run.
fn expected(oracle: &Outcome, got: &Outcome, cell: &Cell) -> Outcome {
    let mut want = oracle.clone();
    let reserved = got.reserved;
    for (w, g) in want.epochs.iter_mut().zip(&got.epochs) {
        // The cache is charged to every step: both peaks shift by exactly
        // the reservation, and the drift (their ratio) follows them.
        (w[5], w[6]) = (w[5] + reserved, w[6] + reserved);
        if reserved > 0 {
            w[7] = g[7];
        }
        if cell.row == Given {
            // The caller planned: nothing priced the steps, and the epoch
            // stages only the micro-batches it was handed.
            (w[4], w[6], w[7]) = (g[4], 0, 0);
        }
    }
    want.reserved = reserved;
    want.paging = got.paging;
    // A scenario's own entries, which its oracle cannot have.
    let own = &got.log;
    want.log = match cell.scenario {
        Io => LogCounts {
            injected_faults: own.injected_faults,
            io_retries: own.io_retries,
            ..want.log
        },
        Nan => LogCounts {
            injected_faults: own.injected_faults,
            anomaly_rollbacks: own.anomaly_rollbacks,
            ..want.log
        },
        Corrupt => LogCounts {
            injected_faults: own.injected_faults,
            shards_repaired: own.shards_repaired,
            ..want.log
        },
        Device => LogCounts {
            injected_faults: own.injected_faults,
            devices_lost: own.devices_lost,
            work_migrations: own.work_migrations,
            migrated_steps: own.migrated_steps,
            ring_rebuilds: own.ring_rebuilds,
            link_retries: own.link_retries,
            ..want.log
        },
        Clean | Oom => want.log,
    };
    if matches!(cell.scenario, Io | Corrupt) {
        want.repair_sec = got.repair_sec;
    }
    want
}

/// What each mechanism must be seen doing, so that no cell passes by
/// never exercising it.
fn assert_exercised(ds: &Dataset, cell: &Cell, got: &Outcome) {
    let [hits, misses, pages_in, bytes_in, held] = got.paging;
    // An epoch counts every attempt's gathers: one that rolled back a
    // gathered step reports more rows than its committed steps read
    // (an injected OOM fires before its step gathers, so at K = 1 the
    // failed attempt read nothing).
    let committed: u64 = got.epochs.iter().map(|e| e[2]).sum();
    let discarded = hits + misses - committed;
    let rolled_back = cell.scenario == Nan || (cell.scenario == Oom && cell.k > 1);
    assert_eq!(discarded > 0, rolled_back, "{cell:?}: {discarded} rows");
    if matches!(cell.store, Unbounded | Parity) && cell.scenario != Corrupt {
        // A cache that never evicts holds every byte the epochs paged in,
        // and the epochs count every byte it holds.
        assert_eq!(bytes_in, held, "{cell:?}: page-in bytes against the cache");
    }
    if cell.store == Dense {
        let read = [misses, pages_in, bytes_in, held];
        assert_eq!(read, [0; 4], "{cell:?}: the dense store never misses");
    } else {
        assert!(held > 0, "{cell:?}: no shard was ever paged in");
    }
    if cell.store == Starved {
        // More page-ins than shards: the cache evicted and re-read.
        let shards = ds.features.rows().div_ceil(PAGE_ROWS) as u64;
        assert!(
            pages_in > shards,
            "{cell:?}: {pages_in} page-ins of {shards} shards"
        );
    }
    let log = &got.log;
    match cell.scenario {
        Clean => assert_eq!(*log, LogCounts::default(), "{cell:?}"),
        Oom => assert_eq!((log.oom_retries, log.recoveries), (1, 1), "{cell:?}"),
        Nan => assert_eq!(log.anomaly_rollbacks, 1, "{cell:?}"),
        Io => assert!(
            log.io_retries > 0 && got.repair_sec > 0.0,
            "{cell:?}: {log:?}"
        ),
        Corrupt => {
            assert_eq!(log.shards_repaired, 1, "{cell:?}: repaired exactly once");
            assert!(
                got.repair_sec > 0.0,
                "{cell:?}: reconstruction is accounted"
            );
        }
        Device => assert!(
            log.devices_lost > 0 && log.work_migrations > 0,
            "{cell:?}: {log:?}"
        ),
    }
}

/// The outcome of the oracle `key` on the base config, run once per test
/// binary: the scenarios' tests share the clean oracles.
fn oracle(ds: &Dataset, key: Cell) -> Outcome {
    static RUNS: Mutex<Vec<(Cell, Outcome)>> = Mutex::new(Vec::new());
    let mut runs = RUNS.lock().unwrap_or_else(|e| e.into_inner());
    if let Some((_, outcome)) = runs.iter().find(|(c, _)| *c == key) {
        return outcome.clone();
    }
    let outcome = trajectory(ds, &config(), &key);
    runs.push((key, outcome.clone()));
    outcome
}

/// Runs every cell of `scenario` against its oracle.
fn run_scenario(scenario: Scenario) {
    let ds = dataset();
    for cell in CELLS.iter().filter(|c| c.scenario == scenario) {
        let oracle = oracle(&ds, cell.oracle());
        let got = trajectory(&ds, &config(), cell);
        assert_eq!(got, expected(&oracle, &got, cell), "{cell:?}");
        assert_exercised(&ds, cell, &got);
    }
}

#[test]
fn every_constructor_matches_the_reference_at_every_setting() {
    run_scenario(Clean);
}

#[test]
fn injected_oom_recovers_bit_identically_at_every_setting() {
    run_scenario(Oom);
}

#[test]
fn injected_nan_replays_bit_identically_on_any_group() {
    run_scenario(Nan);
}

#[test]
fn transient_io_faults_leave_training_bit_identical() {
    run_scenario(Io);
}

#[test]
fn single_shard_corruption_is_repaired_bit_identically() {
    run_scenario(Corrupt);
}

#[test]
fn device_failover_leaves_training_bit_identical() {
    run_scenario(Device);
}

const ROWS: [Row; 5] = [Betty, Elastic(1), Elastic(3), Cached, Given];
const DEPTHS: [usize; 3] = [0, 1, 3];
const THREADS: [usize; 2] = [1, 4];
const SWITCH: [bool; 2] = [ON, OFF];
const BACKENDS: [Backend; 2] = [Simd, Scalar];
const STORES: [Store; 4] = [Dense, Starved, Unbounded, Parity];
const AGGREGATORS: [AggregatorSpec; 3] = [Mean, Pool, Lstm];
const KS: [usize; 3] = [1, 2, 4];
const SCENARIOS: [Scenario; 6] = [Clean, Oom, Nan, Io, Corrupt, Device];
const SIZES: [usize; 9] = [
    ROWS.len(),
    DEPTHS.len(),
    THREADS.len(),
    BACKENDS.len(),
    STORES.len(),
    SWITCH.len(),
    AGGREGATORS.len(),
    KS.len(),
    SCENARIOS.len(),
];

/// The cell at index `ix` of every axis.
fn cell_at(ix: [usize; 9]) -> Cell {
    cell(
        ROWS[ix[0]],
        DEPTHS[ix[1]],
        THREADS[ix[2]],
        BACKENDS[ix[3]],
        STORES[ix[4]],
        SWITCH[ix[5]],
        AGGREGATORS[ix[6]],
        KS[ix[7]],
        SCENARIOS[ix[8]],
    )
}

/// Flat index of the pair (axis `i` at `a`, axis `j` at `b`); six is the
/// length of the longest axis.
fn pair(i: usize, a: usize, j: usize, b: usize) -> usize {
    ((i * 9 + j) * 6 + a) * 6 + b
}

/// Every pair of axis values that some valid cell holds is held by a cell
/// of the table, and every cell of the table is a valid point of the axes.
#[test]
fn every_valid_pair_of_axis_values_has_a_cell() {
    let product: Vec<([usize; 9], Cell)> = (0..SIZES.iter().product())
        .map(|n: usize| {
            let mut ix = [0; 9];
            let mut rest = n;
            for (digit, size) in ix.iter_mut().zip(SIZES) {
                (*digit, rest) = (rest % size, rest / size);
            }
            (ix, cell_at(ix))
        })
        .collect();
    let pairs = |ix: [usize; 9]| {
        (0..9).flat_map(move |i| (i + 1..9).map(move |j| pair(i, ix[i], j, ix[j])))
    };
    let mut covered = vec![false; pair(8, 5, 8, 5) + 1];
    let listed: Vec<&Cell> = product
        .iter()
        .filter(|(_, c)| CELLS.contains(c))
        .map(|(ix, c)| {
            pairs(*ix).for_each(|p| covered[p] = true);
            c
        })
        .collect();
    assert_eq!(listed.len(), CELLS.len(), "each cell once, on the axes");
    assert!(listed.iter().all(|c| c.valid()), "{listed:#?}");
    let missing: Vec<Cell> = product
        .iter()
        .filter(|(ix, c)| c.valid() && pairs(*ix).any(|p| !covered[p]))
        .map(|(_, c)| *c)
        .collect();
    assert!(
        missing.is_empty(),
        "valid cells holding a pair no cell of the table holds: {missing:#?}"
    );
}

/// A scheduled OOM at global step 1 (epoch 0's second micro-batch) is
/// survived from a *fixed* starting K, on one device and on three — the
/// cells `--k N` and `--k N --devices D` used to die in.
#[test]
fn fixed_k_epoch_recovers_from_an_injected_oom_on_any_group() {
    const K: usize = 4;
    let ds = dataset();
    // No dropout: the recovered epoch trains at 2K, and only without
    // per-micro-batch masks is that the same loss up to accumulation order.
    let clean_cfg = ExperimentConfig {
        dropout: 0.0,
        ..config()
    };
    let faulty_cfg = ExperimentConfig {
        fault_plan: FaultPlan {
            oom_steps: vec![1],
            ..FaultPlan::default()
        },
        ..clean_cfg.clone()
    };
    let mut clean = Runner::new(&ds, &clean_cfg, SEED);
    let clean: Vec<f64> = (0..3)
        .map(|_| {
            clean
                .train_epoch_betty(&ds, StrategyKind::Betty, K)
                .unwrap()
                .loss
        })
        .collect();
    for devices in [1usize, 3] {
        let group = DeviceGroup::new(devices);
        let mut runner = Runner::new(&ds, &faulty_cfg, SEED);
        let mut ks = Vec::new();
        for want in &clean {
            let epoch = runner
                .train_epoch_elastic(&ds, StrategyKind::Betty, K, &group)
                .expect("the retry budget covers one injected OOM");
            ks.push(epoch.assignment.len());
            let got = epoch.combined.loss;
            assert!(
                (got - want).abs() < 1e-4,
                "{devices} devices: recovered loss {got} strays from clean loss {want}"
            );
        }
        let log = runner.recovery_log();
        let first = LogCounts::of(&runner, Some(0));
        assert_eq!(first.retries, 1, "{devices} devices");
        assert_eq!(first.injected_faults, 1, "{devices} devices");
        let all = LogCounts::of(&runner, None);
        assert_eq!(
            (all.oom_retries, all.recoveries),
            (1, 1),
            "{}",
            log.summary()
        );
        assert!(ks[0] > K, "epoch 0 escalated past K = {K}: {ks:?}");
        assert_eq!(ks[1..], [K; 2], "later epochs start from K again");
    }
}

/// Plan-ahead needs a second thread, so the table holds no depth at one
/// thread: there every depth is depth 0 — no pipeline, the oracle's bits.
#[test]
fn plan_ahead_does_nothing_at_one_thread() {
    let ds = dataset();
    let reference = cell(Betty, 0, 1, Simd, Dense, OFF, Mean, 1, Clean);
    let oracle = oracle(&ds, reference);
    for plan_ahead in [1, 3] {
        let single = Cell {
            plan_ahead,
            ..reference
        };
        assert_eq!(trajectory(&ds, &config(), &single), oracle, "{single:?}");
    }
}

/// Device-level faults belong to the group: the constructors that run on
/// a single implicit device never read them.
#[test]
fn device_faults_do_nothing_to_the_single_device_constructors() {
    let ds = dataset();
    let armed = ExperimentConfig {
        fault_plan: FaultPlan {
            device_fail_steps: vec![(0, 0)],
            straggler_factors: vec![(0, 3.0)],
            link_stall_rate: 1.0,
            ..FaultPlan::default()
        },
        ..config()
    };
    let reference = cell(Betty, 0, 1, Simd, Dense, OFF, Mean, 1, Clean);
    let oracle = oracle(&ds, reference);
    for row in [Betty, Cached, Given] {
        let single = Cell { row, ..reference };
        let got = trajectory(&ds, &armed, &single);
        assert_eq!(got, expected(&oracle, &got, &single), "{row:?}");
    }
    let mut runner = Runner::new(&ds, &armed, 0);
    let (_, k) = runner.train_epoch_auto(&ds, StrategyKind::Betty).unwrap();
    assert_eq!(k, 1, "8 GiB fits the batch whole");
    assert!(runner.recovery_log().is_empty());
}

/// A fault-free group is still a group: under the empty plan
/// `train_epoch_elastic` runs the executor's attribution stage, straggler
/// detector included. The detector reads wall clocks; a zero threshold
/// makes it deterministic — every device that worked is slower than 0×
/// the median.
#[test]
fn multi_device_epoch_runs_the_straggler_detector() {
    let ds = dataset();
    let mut group = DeviceGroup::new(3);
    group.straggler_threshold = 0.0;
    let mut runner = Runner::new(&ds, &config(), 0);
    let epoch = runner
        .train_epoch_elastic(&ds, StrategyKind::Betty, 4, &group)
        .unwrap();
    assert_eq!(LogCounts::of(&runner, None).stragglers_detected, 3);
    assert_eq!(epoch.health, [DeviceHealth::Degraded; 3]);
    assert_eq!(epoch.live_ranks, 3, "degraded devices keep serving");
}
