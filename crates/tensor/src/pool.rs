//! Capacity-keyed buffer pool for the training hot path.
//!
//! Micro-batched training replays near-identical tensor shapes every step,
//! but neighbor sampling makes sizes fluctuate a little from epoch to
//! epoch. [`BufferPool`] therefore keeps free lists of whole [`Tensor`]s
//! keyed by the *capacity* of their backing `Vec<f32>` and serves a
//! request from the smallest cached buffer that fits, as long as it does
//! not overshoot the request by more than [`MAX_OVERSHOOT`]×. The buffer
//! is resized in place — always within capacity, so a steady-state take
//! performs zero heap allocations even when the exact element count drifts
//! between epochs.
//!
//! Correctness contract: a pooled buffer is handed out either fully filled
//! ([`BufferPool::zeros`] / [`BufferPool::full`]) or as dirty scratch the
//! caller promises to overwrite completely ([`BufferPool::scratch`]).
//! Either way no kernel ever reads bytes that depend on pool history, so a
//! warm pool trains bit-identically to a cold one, whose misses hand out
//! fresh zeroed buffers. Debug builds poison recycled scratch with NaN, so
//! a kernel that reads before it writes fails every bit-identity test.

use std::collections::BTreeMap;

use crate::Tensor;

/// Free-list length cap per capacity class. Ops that allocate without
/// drawing from the pool would otherwise grow their class by one buffer per
/// step forever; the cap bounds that to a fixed working set.
const MAX_FREE_PER_CLASS: usize = 64;

/// Largest allowed ratio of a served buffer's capacity to the requested
/// element count. Bounds the memory a small request can pin: a buffer more
/// than twice the request stays cached for a closer-sized consumer.
const MAX_OVERSHOOT: usize = 2;

/// Cap on the recycled index-buffer free list (see
/// [`BufferPool::take_indices`]).
const MAX_FREE_INDICES: usize = 64;

/// Cumulative counters describing how much allocator traffic the pool has
/// absorbed. Snapshots are `Copy`; per-epoch deltas come from
/// [`PoolStats::delta_since`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served by recycling a previously released buffer.
    pub hits: u64,
    /// Requests that fell through to a fresh heap allocation.
    pub misses: u64,
    /// Total payload bytes served from recycled buffers.
    pub bytes_recycled: u64,
}

impl PoolStats {
    /// Counter increase since an older snapshot `earlier`.
    pub fn delta_since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            bytes_recycled: self.bytes_recycled.saturating_sub(earlier.bytes_recycled),
        }
    }
}

/// Capacity-keyed free lists of reusable tensors.
#[derive(Debug)]
pub(crate) struct BufferPool {
    free: BTreeMap<usize, Vec<Tensor>>,
    free_indices: Vec<Vec<usize>>,
    stats: PoolStats,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// Creates an empty pool.
    pub(crate) fn new() -> Self {
        Self {
            free: BTreeMap::new(),
            free_indices: Vec::new(),
            stats: PoolStats::default(),
        }
    }

    /// Cumulative counters since construction.
    pub(crate) fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Takes an empty index buffer, recycling a released one when possible.
    ///
    /// Index buffers carry the tape's edge lists, segment ids, and targets;
    /// in steady state their grown capacities are reused verbatim, so
    /// filling one with `extend_from_slice` performs no allocation. A hit
    /// counts the recycled capacity toward `bytes_recycled`.
    pub(crate) fn take_indices(&mut self) -> Vec<usize> {
        if let Some(mut v) = self.free_indices.pop() {
            v.clear();
            self.stats.hits += 1;
            self.stats.bytes_recycled += (v.capacity() * std::mem::size_of::<usize>()) as u64;
            return v;
        }
        self.stats.misses += 1;
        Vec::new()
    }

    /// Releases an index buffer for reuse (dropped when the buffer never
    /// grew or the free list is full).
    pub(crate) fn give_indices(&mut self, v: Vec<usize>) {
        if v.capacity() > 0 && self.free_indices.len() < MAX_FREE_INDICES {
            self.free_indices.push(v);
        }
    }

    /// Pops the best-fitting recycled buffer for a `len`-element request
    /// and resizes it in place, if one is cached.
    ///
    /// Free lists are keyed by the backing buffer's true capacity at
    /// release time, so a class can never hand out a buffer too small for
    /// it; the assert re-checks the invariant on every hand-out anyway.
    fn take_hit(&mut self, len: usize) -> Option<Tensor> {
        if len == 0 {
            return None;
        }
        let class = self
            .free
            .range(len..=len.saturating_mul(MAX_OVERSHOOT))
            .find(|(_, list)| !list.is_empty())
            .map(|(&cap, _)| cap)?;
        let list = self.free.get_mut(&class).expect("class found above");
        let mut t = list.pop().expect("class found non-empty");
        // The class entry stays in the map even when emptied: its Vec keeps
        // its capacity, so the steady-state give/take cycle of a singleton
        // class touches the allocator zero times instead of twice.
        let buf = t
            .unique_buffer_mut()
            .expect("pooled buffers are uniquely owned");
        assert!(
            buf.capacity() >= len,
            "pool invariant violated: cached buffer capacity below its class"
        );
        // Within capacity by the range bound above: no reallocation.
        buf.resize(len, 0.0);
        self.stats.hits += 1;
        self.stats.bytes_recycled += (len * std::mem::size_of::<f32>()) as u64;
        Some(t)
    }

    /// Takes a buffer of the given shape with *unspecified contents*.
    ///
    /// The caller must overwrite every element before any are read. A
    /// miss hands out fresh zeros and a hit stale data, which debug builds
    /// replace with NaN: a consumer that breaks the promise then turns a
    /// warm tape's loss into NaN instead of matching a cold tape's bits.
    pub(crate) fn scratch(&mut self, shape: &[usize]) -> Tensor {
        assert!(!shape.is_empty(), "shape must have at least one dimension");
        let len: usize = shape.iter().product();
        if let Some(mut t) = self.take_hit(len) {
            t.set_shape_in_place(shape);
            if cfg!(debug_assertions) {
                t.fill(f32::NAN);
            }
            return t;
        }
        self.stats.misses += 1;
        Tensor::zeros(shape)
    }

    /// Takes a zero-filled buffer of the given shape.
    pub(crate) fn zeros(&mut self, shape: &[usize]) -> Tensor {
        self.full(shape, 0.0)
    }

    /// Takes a buffer of the given shape filled with `value`.
    pub(crate) fn full(&mut self, shape: &[usize], value: f32) -> Tensor {
        assert!(!shape.is_empty(), "shape must have at least one dimension");
        let len: usize = shape.iter().product();
        if let Some(mut t) = self.take_hit(len) {
            t.set_shape_in_place(shape);
            t.fill(value);
            return t;
        }
        self.stats.misses += 1;
        Tensor::full(shape, value)
    }

    /// Releases a tensor back to the pool.
    ///
    /// Tensors whose storage is still shared (another `Arc` clone is alive)
    /// are dropped instead of cached — recycling them would alias live
    /// data. Empty buffers are dropped too.
    pub(crate) fn give(&mut self, mut t: Tensor) {
        let Some(buf) = t.unique_buffer_mut() else {
            return;
        };
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        let list = self.free.entry(cap).or_default();
        if list.len() < MAX_FREE_PER_CLASS {
            list.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BufferPool {
        fn cached_buffers(&self) -> usize {
            self.free.values().map(Vec::len).sum()
        }
    }

    #[test]
    fn recycles_released_buffers() {
        let mut pool = BufferPool::new();
        let t = pool.scratch(&[2, 3]);
        assert_eq!(pool.stats().misses, 1);
        pool.give(t);
        assert_eq!(pool.cached_buffers(), 1);
        let t2 = pool.zeros(&[3, 2]);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().bytes_recycled, 24);
        assert_eq!(t2.shape(), &[3, 2]);
        assert!(t2.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn wrong_length_buffer_is_never_handed_out() {
        let mut pool = BufferPool::new();
        pool.give(Tensor::zeros(&[3]));
        // An [8] request needs 8 elements; the cached 3-element buffer
        // cannot satisfy it and must stay cached for a fitting request.
        let t = pool.scratch(&[8]);
        assert_eq!(t.len(), 8);
        assert_eq!(pool.stats().hits, 0);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.cached_buffers(), 1);
        // Every hand-out is exactly the requested length even when the
        // cached capacity differs (3 serves 2 within the overshoot bound).
        let t2 = pool.scratch(&[2]);
        assert_eq!(t2.len(), 2);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_class() {
        let mut pool = BufferPool::new();
        pool.give(Tensor::zeros(&[16]));
        pool.give(Tensor::zeros(&[10]));
        // 8 elements: both classes fit within 2x, the closer one (10) wins.
        let t = pool.scratch(&[8]);
        assert_eq!(t.len(), 8);
        assert_eq!(pool.cached_buffers(), 1);
        let remaining = pool.scratch(&[16]);
        assert_eq!(remaining.len(), 16);
        assert_eq!(pool.stats().hits, 2);
    }

    #[test]
    fn overshoot_is_bounded() {
        let mut pool = BufferPool::new();
        pool.give(Tensor::zeros(&[100]));
        // A 4-element request must not pin a 100-element buffer.
        let t = pool.scratch(&[4]);
        assert_eq!(t.len(), 4);
        assert_eq!(pool.stats().hits, 0);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.cached_buffers(), 1);
    }

    #[test]
    fn every_take_matches_requested_shape() {
        let mut pool = BufferPool::new();
        for len in [1usize, 4, 6, 9, 16] {
            pool.give(Tensor::zeros(&[len]));
        }
        for shape in [&[2usize, 2] as &[usize], &[3, 3], &[1], &[4, 4], &[2, 3]] {
            let t = pool.scratch(shape);
            assert_eq!(t.shape(), shape);
            assert_eq!(t.len(), shape.iter().product::<usize>());
        }
        assert_eq!(pool.stats().hits, 5);
    }

    #[test]
    fn shared_storage_is_not_cached() {
        let mut pool = BufferPool::new();
        let t = Tensor::zeros(&[4]);
        let _alias = t.clone();
        pool.give(t);
        assert_eq!(pool.cached_buffers(), 0);
    }

    #[test]
    fn full_overwrites_stale_contents() {
        let mut pool = BufferPool::new();
        let mut t = pool.scratch(&[3]);
        t.fill(7.0);
        pool.give(t);
        let ones = pool.full(&[3], 1.0);
        assert_eq!(ones.data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn recycled_scratch_is_poisoned_in_debug_builds() {
        let mut pool = BufferPool::new();
        let fresh = pool.scratch(&[3]);
        assert_eq!(fresh.data(), &[0.0; 3], "a miss hands out fresh zeros");
        pool.give(fresh);
        let recycled = pool.scratch(&[3]);
        assert_eq!(pool.stats().hits, 1);
        let poisoned = recycled.data().iter().all(|v| v.is_nan());
        assert_eq!(poisoned, cfg!(debug_assertions));
    }

    #[test]
    fn index_buffers_recycle_capacity() {
        let mut pool = BufferPool::new();
        let mut v = pool.take_indices();
        assert_eq!(pool.stats().misses, 1);
        v.extend_from_slice(&[1, 2, 3]);
        let cap = v.capacity();
        pool.give_indices(v);
        let v2 = pool.take_indices();
        assert!(v2.is_empty(), "recycled index buffers come back empty");
        assert_eq!(v2.capacity(), cap);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn free_list_is_capped() {
        let mut pool = BufferPool::new();
        for _ in 0..(MAX_FREE_PER_CLASS + 10) {
            pool.give(Tensor::zeros(&[8]));
        }
        assert_eq!(pool.cached_buffers(), MAX_FREE_PER_CLASS);
    }
}
