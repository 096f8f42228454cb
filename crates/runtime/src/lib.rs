//! The workspace's one fork-join seam and its one work gate.
//!
//! Every synchronous parallel path in the workspace — the sharded SpGEMM
//! behind REG construction, concurrent micro-batch restriction, the dense
//! products, the fused affine map and the fused gather+segment kernels —
//! forks and joins through this crate, so that thread-count policy lives
//! in exactly one place and every kernel obeys the same contract:
//!
//! **bit-identical output regardless of thread count.**
//!
//! The contract is enforced structurally, not by luck: work is split into
//! contiguous shards, each worker writes only to its own shard of the
//! output (or returns a shard-local value), and values are merged in shard
//! order on the calling thread. No atomics-ordered reductions, no
//! first-come-first-served queues — the split is a pure function of the
//! input size and the shard count, and per-element arithmetic inside a
//! shard is the same loop the serial path runs.
//!
//! Two entry points, one scoped fork-join:
//!
//! * [`map_ranges`] — "shard → value, merged in shard order", for callers
//!   that build their own ranges (cost-weighted SpGEMM rows, one range of
//!   parts per worker in `restrict_all`);
//! * [`Shards`], built on it — "split this output buffer into disjoint row
//!   shards and run a body on each", for the dense kernels.
//!   [`Shards::for_work`] is the only place that decides how many shards a
//!   kernel call gets: the caller states its work in one unit and the gate
//!   divides by [`MIN_SHARD_WORK`].
//!
//! One shard — one thread configured, one row, or too little work — is one
//! inline call on the calling thread: no spawn, no allocation, exactly the
//! serial execution. "Off" is the degenerate case of "on".
//!
//! Thread-count resolution (highest priority first):
//!
//! 1. a process-wide override installed via [`set_thread_override`] (the
//!    CLI's `--threads` flag) or, for a scope, [`with_threads`] (tests and
//!    exhibits comparing widths),
//! 2. the `BETTY_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`], capped at
//!    [`MAX_DEFAULT_THREADS`].
//!
//! 2 and 3 are read once per process; the override is an atomic that wins
//! whenever it is set.

#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};

/// Upper bound on the automatically detected thread count.
///
/// Betty's kernels operate on batches that rarely profit from more than a
/// handful of cores; past this point scoped-spawn overhead dominates.
/// Explicit overrides (`--threads` / `BETTY_THREADS`) are *not* capped.
pub const MAX_DEFAULT_THREADS: usize = 8;

/// Process-wide thread override; `0` means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs (or clears, with `None`) a process-wide thread-count override.
///
/// Takes precedence over `BETTY_THREADS` and auto-detection. `Some(0)` is
/// treated as `None`. This is the CLI's `--threads` flag: one call before
/// any work starts. Code that compares widths inside one process uses
/// [`with_threads`], which restores what it replaced.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// Serialises [`with_threads`] holders: the override is process-wide.
static WIDTH_HOLDER: Mutex<()> = Mutex::new(());

/// Runs `body` with the thread count pinned to `threads`, then restores
/// the override that was installed before — also when `body` panics.
///
/// The override is process-wide and a test binary runs its tests on
/// parallel threads, so holders are serialised: a second `with_threads`
/// waits until the first has restored its width. Do not nest calls on one
/// thread.
pub fn with_threads<T>(threads: usize, body: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    // A holder that panicked has already restored its width (`Restore`
    // runs during unwinding), so a poisoned lock guards nothing broken.
    let _held = WIDTH_HOLDER.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = Restore(THREAD_OVERRIDE.swap(threads, Ordering::Relaxed));
    body()
}

/// Resolves the number of worker threads parallel kernels should use.
///
/// See the crate docs for the resolution order. Always returns at least 1.
/// Every kernel call asks, so the answer costs one atomic load: the
/// environment and the core count (an allocation and, on Linux, a read of
/// the cgroup files — 11 µs a call) are resolved once.
pub fn configured_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    *DEFAULT.get_or_init(|| {
        let from_env = std::env::var("BETTY_THREADS")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        from_env.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(MAX_DEFAULT_THREADS)
        })
    })
}

/// Splits `0..n` into at most `shards` contiguous, near-equal ranges.
///
/// Deterministic in `(n, shards)`; empty ranges are never produced, so the
/// returned vector has `min(shards, n)` entries (zero when `n == 0`).
pub fn shard_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1).min(n);
    let mut out = Vec::with_capacity(shards);
    if n == 0 {
        return out;
    }
    let base = n / shards;
    let extra = n % shards;
    let mut start = 0usize;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Splits `0..costs.len()` into at most `shards` contiguous ranges whose
/// summed `costs` are as balanced as a greedy prefix walk can make them.
///
/// Used by kernels whose per-row work is skewed (e.g. power-law degree
/// distributions in the REG SpGEMM): equal-index shards would leave most
/// workers idle behind one hub-heavy shard. Deterministic in the inputs.
pub fn shard_ranges_weighted(costs: &[usize], shards: usize) -> Vec<Range<usize>> {
    let n = costs.len();
    let shards = shards.max(1).min(n);
    if n == 0 {
        return Vec::new();
    }
    if shards == 1 {
        // One shard covering every index (not an unrolled 0..n sequence).
        return std::iter::once(0..n).collect();
    }
    let total: usize = costs.iter().sum();
    let mut out = Vec::with_capacity(shards);
    let mut start = 0usize;
    let mut spent = 0usize;
    for s in 0..shards {
        if start == n {
            break;
        }
        let remaining_shards = shards - s;
        // Leave at least one row per remaining shard.
        let hard_end = n - (remaining_shards - 1);
        let target = (total - spent) / remaining_shards;
        let mut end = start;
        let mut acc = 0usize;
        while end < hard_end && (end == start || acc + costs[end] <= target) {
            acc += costs[end];
            end += 1;
        }
        out.push(start..end);
        spent += acc;
        start = end;
    }
    if start < n {
        // Fold any tail into the last range (can happen with zero costs).
        let last = out.len() - 1;
        out[last].end = n;
    }
    out
}

/// Runs `f(shard_index, shard)` for every shard — a row range, or a range
/// with the buffers it owns — and returns the results **in shard order**:
/// shard 0 on the calling thread, each further one on its own scoped
/// worker. A single shard is a plain call: no spawn, byte-for-byte the
/// serial execution.
///
/// The caller chooses the shards (typically [`shard_ranges`] or
/// [`shard_ranges_weighted`] over [`configured_threads`]). This is the
/// workspace's only fork-join: swapping the per-call spawns for long-lived
/// workers is a change to this function alone.
pub fn map_ranges<S, T, F>(shards: Vec<S>, f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(usize, S) -> T + Sync,
{
    if shards.len() <= 1 {
        return shards
            .into_iter()
            .enumerate()
            .map(|(s, shard)| f(s, shard))
            .collect();
    }
    let mut slots: Vec<Option<T>> = Vec::with_capacity(shards.len());
    slots.resize_with(shards.len(), || None);
    std::thread::scope(|scope| {
        let mut work = slots.iter_mut().zip(shards.into_iter().enumerate());
        let mine = work.next();
        for (slot, (s, shard)) in work {
            let f = &f;
            scope.spawn(move || *slot = Some(f(s, shard)));
        }
        if let Some((slot, (s, shard))) = mine {
            *slot = Some(f(s, shard));
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("shard worker completed"))
        .collect()
}

/// Least work a shard must carry before a kernel call is split, in
/// **multiply-adds**: one `fma` term of a dense product (`m·k·n` of a
/// GEMM). A caller whose step is dearer says how many it is worth (the
/// fused gather+segment kernels count a gathered element as four).
///
/// Calibrated once with the alternated-pair probe (`ext_pipeline`;
/// DESIGN.md "The fork-join seam and its gate" has every run), two threads
/// against one on a 2-vCPU AVX-512 box whose hardware threads share one
/// core's FMA units. A lone `a·b` (35–50 G multiply-adds/s) at two
/// threads took 1.56× the one-thread time at 2 M multiply-adds, 1.23× at
/// 8 M, 1.13× at 34 M, then 0.97× at 105 M, 1.06× at 134 M, 1.03× at
/// 419 M and 0.99× at 1.7 G: below ≈ 100 M the hand-off — a scoped spawn
/// and a cold second thread, 25–100 µs — costs more than halving saves;
/// above it the two are even. Whole epochs agree: gated at 2²² (the old
/// `PAR_FLOP_THRESHOLD`) two threads lost 9 of 10 pairs on both
/// `mean2_k8` (1.08×) and `lstm2_k8` (1.15×); at 2²⁵ `lstm2_k8` still lost
/// 26 of 30 (1.04×); at 2²⁶ — two shards from 134 M multiply-adds, 3 ms
/// of one thread — both sit inside the spread of one thread against
/// itself (0.97–1.01×, 10–18 of 30 "lost"). Two real cores would repay a
/// lower gate; so would a cheaper hand-off (ROADMAP 5(a)'s parked pool),
/// which is when to measure again.
pub const MIN_SHARD_WORK: usize = 1 << 26;

/// How many row shards one kernel call runs as — the workspace's one
/// answer to "is this worth a second thread".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shards(usize);

impl Shards {
    /// `min(threads, rows, work / MIN_SHARD_WORK)`, at least one: a shard
    /// per configured thread, as long as every shard owns a row and
    /// carries [`MIN_SHARD_WORK`] multiply-adds of the call's `work`.
    pub fn for_work(rows: usize, work: usize) -> Self {
        Self(
            configured_threads()
                .min(rows)
                .min(work / MIN_SHARD_WORK)
                .max(1),
        )
    }

    /// The shard count (a caller sizing per-shard scratch needs it).
    pub fn count(self) -> usize {
        self.0
    }

    /// Splits `out` — rows of `row_len` elements — into this many
    /// contiguous, disjoint, near-equal row shards and `scratch` into as
    /// many equal parts, then runs `body(rows, out_shard, scratch_part)`
    /// on each. One shard is one inline call on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not a whole number of rows.
    pub fn run<T, F>(self, out: &mut [T], row_len: usize, scratch: &mut [T], body: F)
    where
        T: Send,
        F: Fn(Range<usize>, &mut [T], &mut [T]) + Sync,
    {
        let rows = out.len().checked_div(row_len).unwrap_or(0);
        assert_eq!(out.len(), rows * row_len, "output is not whole rows");
        if self.0 == 1 {
            body(0..rows, out, scratch);
            return;
        }
        let part = scratch.len() / self.0;
        let (mut out_rest, mut scratch_rest) = (out, scratch);
        let items = shard_ranges(rows, self.0)
            .into_iter()
            .map(|range| {
                let (shard, tail) = std::mem::take(&mut out_rest).split_at_mut(range.len() * row_len);
                out_rest = tail;
                let (mine, tail) = std::mem::take(&mut scratch_rest).split_at_mut(part);
                scratch_rest = tail;
                (range, shard, mine)
            })
            .collect();
        map_ranges(items, |_, (range, shard, mine)| body(range, shard, mine));
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent pool of background worker threads executing boxed jobs.
///
/// Unlike the scoped helpers above — which exist for *synchronous* fan-out
/// with an in-order merge — the pool runs fire-and-forget work items that
/// outlive the submitting call (e.g. the partition-ahead pipeline staging
/// the next epoch's plan while the current one trains). Jobs are pulled
/// from a single queue in submission order, but nothing about *completion*
/// order is guaranteed; callers needing deterministic consumption pair the
/// pool with an [`OrderedQueue`].
///
/// Dropping the pool closes the job channel, lets every already-submitted
/// job finish, and joins the workers.
pub struct WorkerPool {
    tx: Option<mpsc::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `threads.max(1)` workers.
    pub fn new(threads: usize) -> Self {
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || loop {
                    // Holding the lock while blocked in `recv` is fine: the
                    // holder releases it the moment a job arrives, before
                    // running the job, so workers execute concurrently.
                    let job = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                    match job {
                        Ok(job) => job(),
                        Err(_) => break, // channel closed and drained
                    }
                })
            })
            .collect();
        Self {
            tx: Some(tx),
            workers,
        }
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job; it runs as soon as a worker is free. Jobs submitted
    /// before drop are always executed.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let _ = self
            .tx
            .as_ref()
            .expect("pool channel open until drop")
            .send(Box::new(job));
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.tx.take()); // close the channel; workers drain and exit
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

struct OrderedQueueState<T> {
    items: BTreeMap<usize, T>,
    /// Once set, no index at or past this limit will ever be pushed;
    /// indices below it are still in flight and worth blocking for.
    close_limit: Option<usize>,
}

/// A blocking index-ordered handoff queue.
///
/// Producers [`push`](OrderedQueue::push) values tagged with a monotone
/// index in *any* completion order; the consumer [`pop`](OrderedQueue::pop)s
/// them strictly in index order, blocking until the requested index arrives
/// — the same consume-in-index-order discipline [`map_ranges`] enforces
/// with its shard-order merge, extended to asynchronous producers.
pub struct OrderedQueue<T> {
    state: Mutex<OrderedQueueState<T>>,
    ready: Condvar,
}

impl<T> Default for OrderedQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for OrderedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedQueue").finish_non_exhaustive()
    }
}

impl<T> OrderedQueue<T> {
    /// An empty, open queue.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(OrderedQueueState {
                items: BTreeMap::new(),
                close_limit: None,
            }),
            ready: Condvar::new(),
        }
    }

    /// Delivers the value for `index`, waking a consumer blocked on it.
    pub fn push(&self, index: usize, value: T) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.items.insert(index, value);
        self.ready.notify_all();
    }

    /// Declares that no index at or past `limit` will ever be pushed.
    /// Indices below `limit` may still arrive (and consumers keep blocking
    /// for them); a `pop` at or past `limit` returns `None` immediately.
    pub fn close_at(&self, limit: usize) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.close_limit = Some(limit);
        self.ready.notify_all();
    }

    /// Blocks until the value for `index` is available and returns it, or
    /// returns `None` once the queue is closed below `index`.
    pub fn pop(&self, index: usize) -> Option<T> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(value) = state.items.remove(&index) {
                return Some(value);
            }
            if state.close_limit.is_some_and(|limit| index >= limit) {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Number of delivered-but-unconsumed values.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .items
            .len()
    }

    /// Whether no delivered value is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_exactly_once() {
        for n in [0usize, 1, 2, 7, 8, 9, 100] {
            for shards in [1usize, 2, 3, 8, 200] {
                let ranges = shard_ranges(n, shards);
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(r.end > r.start, "empty shard for n={n} shards={shards}");
                    next = r.end;
                }
                assert_eq!(next, n);
                assert!(ranges.len() <= shards.max(1));
            }
        }
    }

    #[test]
    fn weighted_shards_cover_exactly_once_and_balance_hubs() {
        let costs = vec![1usize, 1, 1, 1, 100, 1, 1, 1];
        let ranges = shard_ranges_weighted(&costs, 4);
        let mut next = 0usize;
        for r in &ranges {
            assert_eq!(r.start, next);
            assert!(r.end > r.start);
            next = r.end;
        }
        assert_eq!(next, costs.len());
        // The hub row (index 4) should sit alone-ish rather than dragging
        // every following row into its shard.
        let hub_shard = ranges.iter().find(|r| r.contains(&4)).unwrap();
        assert!(hub_shard.len() <= 2, "hub shard too fat: {hub_shard:?}");
    }

    #[test]
    fn weighted_shards_handle_all_zero_costs() {
        let costs = vec![0usize; 5];
        let ranges = shard_ranges_weighted(&costs, 3);
        let covered: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 5);
        assert_eq!(ranges.last().unwrap().end, 5);
    }

    #[test]
    fn map_ranges_is_index_ordered_for_any_shard_count() {
        let serial: Vec<usize> = (0..97).map(|i| i * i).collect();
        for shards in [1usize, 2, 3, 8, 64] {
            let par: Vec<usize> = map_ranges(shard_ranges(97, shards), |_, range| {
                range.map(|i| i * i).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
            assert_eq!(par, serial, "shards={shards}");
        }
    }

    #[test]
    fn map_ranges_preserves_shard_order() {
        for shards in [1usize, 2, 5] {
            let out = map_ranges(shard_ranges(10, shards), |s, r| (s, r.start, r.end));
            assert_eq!(out.len(), shards);
            for (i, (s, start, end)) in out.iter().enumerate() {
                assert_eq!(i, *s);
                assert!(start < end);
            }
        }
    }

    #[test]
    fn override_beats_env_and_detection() {
        // The first call may well be the one that resolves the default:
        // an override installed after it must still win.
        let unresolved = configured_threads();
        assert!(unresolved >= 1);
        for n in [3usize, 7] {
            assert_eq!(with_threads(n, configured_threads), n);
        }
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn with_threads_restores_the_prior_override_after_a_panic() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(9, || {
                assert_eq!(configured_threads(), 9);
                panic!("body failed");
            })
        });
        assert!(caught.is_err());
        // While this test holds the lock no holder is active, and nothing
        // in this binary installs a bare override: what is read here is
        // what the panicked holder left behind.
        let _held = WIDTH_HOLDER.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(THREAD_OVERRIDE.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn one_shard_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = |shards: Shards| {
            let mut out = vec![0u8; 12];
            let seen = Mutex::new(Vec::new());
            shards.run(&mut out, 3, &mut [], |_, _, _| {
                seen.lock().unwrap().push(std::thread::current().id());
            });
            let seen = seen.into_inner().unwrap();
            (seen.len(), seen.iter().filter(|&&id| id == caller).count())
        };
        // One thread, one row, or too little work: one inline call.
        assert_eq!(with_threads(1, || on_caller(Shards::for_work(4, usize::MAX))), (1, 1));
        assert_eq!(with_threads(4, || Shards::for_work(1, usize::MAX)), Shards(1));
        assert_eq!(with_threads(4, || Shards::for_work(4, 2 * MIN_SHARD_WORK - 1)), Shards(1));
        assert_eq!(on_caller(Shards(1)), (1, 1));
        // Several shards: shard 0 stays on the caller, the rest are spawned.
        assert_eq!(with_threads(4, || Shards::for_work(4, 2 * MIN_SHARD_WORK)), Shards(2));
        assert_eq!(on_caller(Shards(4)), (4, 1));
    }

    #[test]
    fn shards_tile_the_buffer_exactly_once_in_order() {
        for (rows, row_len) in [(0usize, 3usize), (1, 1), (5, 2), (8, 1), (37, 4)] {
            for threads in [1usize, 2, 3, 8, 50] {
                for work_shards in [0usize, 1, 2, 5, 64] {
                    let work = work_shards * MIN_SHARD_WORK;
                    let shards = with_threads(threads, || Shards::for_work(rows, work));
                    let want = threads.min(rows).min(work_shards).max(1);
                    assert_eq!(shards.count(), want, "{rows} rows x{threads}, {work_shards} shards of work");
                    let part = 2;
                    let mut out = vec![usize::MAX; rows * row_len];
                    let mut scratch = vec![usize::MAX; want * part];
                    let calls = AtomicUsize::new(0);
                    shards.run(&mut out, row_len, &mut scratch, |range, shard, mine| {
                        calls.fetch_add(1, Ordering::Relaxed);
                        assert_eq!(shard.len(), range.len() * row_len);
                        assert_eq!(mine.len(), part);
                        for (i, v) in shard.iter_mut().enumerate() {
                            assert_eq!(*v, usize::MAX, "element handed out twice");
                            *v = range.start * row_len + i;
                        }
                        mine.fill(range.start);
                    });
                    assert_eq!(calls.into_inner(), want);
                    // Every element written once, by the shard owning its
                    // row; scratch parts disjoint and in shard order.
                    assert!(out.iter().copied().eq(0..rows * row_len));
                    let starts: Vec<usize> = scratch.chunks(part).map(|c| c[0]).collect();
                    assert!(starts.windows(2).all(|w| w[0] < w[1]), "{starts:?}");
                }
            }
        }
    }

    #[test]
    fn ordered_queue_consumes_in_index_order_despite_push_order() {
        let queue = OrderedQueue::new();
        queue.push(2, "c");
        queue.push(0, "a");
        queue.push(1, "b");
        assert_eq!(queue.len(), 3);
        assert_eq!(queue.pop(0), Some("a"));
        assert_eq!(queue.pop(1), Some("b"));
        assert_eq!(queue.pop(2), Some("c"));
        assert!(queue.is_empty());
    }

    #[test]
    fn ordered_queue_pop_blocks_until_the_index_arrives() {
        let queue = Arc::new(OrderedQueue::new());
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                queue.push(0, 41);
                queue.push(1, 42);
            })
        };
        assert_eq!(queue.pop(0), Some(41));
        assert_eq!(queue.pop(1), Some(42));
        producer.join().unwrap();
    }

    #[test]
    fn ordered_queue_close_drains_pending_then_returns_none() {
        let queue = OrderedQueue::new();
        queue.push(0, 7);
        queue.close_at(1);
        assert_eq!(queue.pop(0), Some(7), "closing must not drop delivered values");
        assert_eq!(queue.pop(1), None);
        assert_eq!(queue.pop(99), None);
    }

    #[test]
    fn ordered_queue_close_still_blocks_for_in_flight_indices() {
        let queue = Arc::new(OrderedQueue::new());
        queue.close_at(1); // index 0 is promised but not yet delivered
        let late = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                queue.push(0, "late");
            })
        };
        assert_eq!(queue.pop(0), Some("late"));
        late.join().unwrap();
    }

    #[test]
    fn worker_pool_runs_every_submitted_job() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // joins workers after the queue drains
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn worker_pool_feeds_an_ordered_queue_deterministically() {
        let pool = WorkerPool::new(4);
        let queue = Arc::new(OrderedQueue::new());
        for i in 0..16usize {
            let queue = Arc::clone(&queue);
            pool.submit(move || queue.push(i, i * i));
        }
        queue.close_at(16);
        for i in 0..16usize {
            assert_eq!(queue.pop(i), Some(i * i));
        }
        assert_eq!(queue.pop(16), None);
    }
}
