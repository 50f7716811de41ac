//! Recycling buffer pools for redistribution messages.
//!
//! Every redistribution block the pipeline ships — Doppler slabs to the
//! weight and beamforming tasks, beamformed bins to pulse compression,
//! power cubes to CFAR — used to be a freshly allocated `Vec` that died
//! on the receiving node after unpacking. At the paper's CPI rate that
//! is hundreds of allocations per CPI, all of sizes that repeat exactly
//! every cycle. A [`BufferPool`] keeps a freelist of retired buffers
//! keyed by power-of-two *size class*; senders draw packing buffers from
//! the pool and receivers return consumed message buffers, so after a
//! warmup CPI the steady state performs no heap allocation for packing.
//!
//! [`SharedBufferPool`] wraps the freelist in `Arc<Mutex<..>>` so the
//! threaded runtime's nodes (which exchange ownership of message buffers
//! across threads) recycle into one process-wide pool: the global
//! put/get balance holds exactly because every buffer sent by one node
//! is received — and retired — by another.

use crate::cube::Cube;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Default upper bound on free buffers retained per size class. Bounds
/// pool memory at `MAX_FREE_PER_CLASS * class_size` per class; the
/// pipeline's steady state needs far fewer (one per in-flight block).
/// A [`BufferPool::reserve`] call raises the bound for its class: a
/// demand-driven reservation *is* the steady-state population count
/// (e.g. `streams * queue_depth` admitted CPI cubes), so capping it at
/// the default would reintroduce the misses it exists to prevent.
const MAX_FREE_PER_CLASS: usize = 64;

/// Pool traffic counters (for benchmarks and tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `get` calls served from the freelist (no allocation).
    pub hits: u64,
    /// `get` calls that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned through `put`.
    pub returned: u64,
    /// Returned buffers dropped because their class was full.
    pub dropped: u64,
}

/// A freelist of retired `Vec<T>` buffers keyed by power-of-two size
/// class. `get(c)` pops from class `next_power_of_two(c)`; `put` files a
/// buffer under the largest class its capacity can serve, so any hit is
/// guaranteed to have enough capacity and reuse never reallocates.
#[derive(Default)]
pub struct BufferPool<T> {
    free: HashMap<usize, Vec<Vec<T>>>,
    /// Per-class retention overrides from [`BufferPool::reserve`].
    reserved: HashMap<usize, usize>,
    stats: PoolStats,
}

impl<T> BufferPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool {
            free: HashMap::new(),
            reserved: HashMap::new(),
            stats: PoolStats::default(),
        }
    }

    /// An empty buffer with capacity at least `capacity`, recycled from
    /// the freelist when the matching size class has one.
    pub fn get(&mut self, capacity: usize) -> Vec<T> {
        let mut buf = self.pop_or_alloc(capacity);
        buf.clear();
        buf
    }

    /// A buffer with capacity at least `capacity` and whatever length
    /// its last user left: recycled on a hit, fresh (and empty) on a miss.
    fn pop_or_alloc(&mut self, capacity: usize) -> Vec<T> {
        if capacity == 0 {
            return Vec::new();
        }
        let class = capacity.next_power_of_two();
        match self.free.get_mut(&class).and_then(Vec::pop) {
            Some(buf) => {
                self.stats.hits += 1;
                debug_assert!(buf.capacity() >= capacity);
                buf
            }
            None => {
                self.stats.misses += 1;
                Vec::with_capacity(class)
            }
        }
    }

    /// Returns a retired buffer to the pool for reuse. Only the
    /// allocation is recycled: [`BufferPool::get`] clears it, while
    /// [`SharedBufferPool::take_cube_for_overwrite`] keeps the stale
    /// elements as filler.
    pub fn put(&mut self, buf: Vec<T>) {
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        self.stats.returned += 1;
        // Largest class this buffer can serve: any get(c) with
        // next_power_of_two(c) == class needs capacity >= class <= cap.
        let class = 1usize << (usize::BITS - 1 - cap.leading_zeros());
        let bound = self.retention(class);
        let slot = self.free.entry(class).or_default();
        if slot.len() < bound {
            slot.push(buf);
        } else {
            self.stats.dropped += 1;
        }
    }

    /// Retention bound for a class: the default, unless a reservation
    /// declared a larger steady-state population.
    fn retention(&self, class: usize) -> usize {
        self.reserved
            .get(&class)
            .copied()
            .unwrap_or(0)
            .max(MAX_FREE_PER_CLASS)
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of buffers currently on the freelist.
    pub fn free_buffers(&self) -> usize {
        self.free.values().map(Vec::len).sum()
    }

    /// Pre-warms the size class serving `get(capacity)` so it holds at
    /// least `count` free buffers, and raises the class's retention
    /// bound to `count` when that exceeds the default. Demand-driven
    /// sizing hint for multi-stream runs: callers that know how many
    /// blocks of each size will be in flight reserve them up front, and
    /// the steady state then records zero misses instead of paying one
    /// allocating miss per class per warmup CPI. Reservation does not
    /// touch the hit/miss counters.
    pub fn reserve(&mut self, capacity: usize, count: usize) {
        if capacity == 0 || count == 0 {
            return;
        }
        let class = capacity.next_power_of_two();
        let cur = self.reserved.entry(class).or_default();
        *cur = (*cur).max(count);
        let slot = self.free.entry(class).or_default();
        while slot.len() < count {
            slot.push(Vec::with_capacity(class));
        }
    }
}

/// A cloneable, thread-safe handle to a [`BufferPool`] shared by every
/// node of the threaded pipeline runtime.
pub struct SharedBufferPool<T> {
    inner: Arc<Mutex<BufferPool<T>>>,
}

impl<T> Clone for SharedBufferPool<T> {
    fn clone(&self) -> Self {
        SharedBufferPool {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Default for SharedBufferPool<T> {
    fn default() -> Self {
        SharedBufferPool::new()
    }
}

impl<T> SharedBufferPool<T> {
    /// A fresh shared pool.
    pub fn new() -> Self {
        SharedBufferPool {
            inner: Arc::new(Mutex::new(BufferPool::new())),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BufferPool<T>> {
        // A node that panics mid-CPI (e.g. on a malformed cube) poisons
        // the mutex; peers only touch the freelist, which is always in a
        // consistent state, so recover rather than cascade a different
        // panic over the one under test.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// See [`BufferPool::get`].
    pub fn get(&self, capacity: usize) -> Vec<T> {
        self.lock().get(capacity)
    }

    /// See [`BufferPool::put`].
    pub fn put(&self, buf: Vec<T>) {
        self.lock().put(buf)
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> PoolStats {
        self.lock().stats()
    }

    /// See [`BufferPool::reserve`].
    pub fn reserve(&self, capacity: usize, count: usize) {
        self.lock().reserve(capacity, count)
    }
}

impl<T: Copy + Default> SharedBufferPool<T> {
    /// The pooled analogue of [`Cube::from_fn`]: builds the cube in a
    /// recycled buffer. Element order (and therefore message bytes) is
    /// identical to the allocating path.
    pub fn take_cube(&self, shape: [usize; 3], f: impl FnMut(usize, usize, usize) -> T) -> Cube<T> {
        let total = shape[0] * shape[1] * shape[2];
        Cube::from_fn_in(shape, self.get(total), f)
    }

    /// A pooled cube of `shape` with **unspecified contents**, for
    /// producers that overwrite every element before the cube is read
    /// or sent (the Doppler corner turn scatters into its blocks at
    /// random offsets, so it needs the length up front but not a fill).
    /// A recycled buffer keeps the length its last user left, so the
    /// `resize` truncates — or default-fills only the missing tail —
    /// instead of paying a whole-block memset per take. Every element is
    /// a stale value of an earlier user or `T::default()`: initialised
    /// memory, safe Rust.
    pub fn take_cube_for_overwrite(&self, shape: [usize; 3]) -> Cube<T> {
        let total = shape[0] * shape[1] * shape[2];
        // The (first-use) tail fill runs outside the pool lock.
        let mut buf = self.lock().pop_or_alloc(total);
        buf.resize(total, T::default());
        Cube::from_vec(shape, buf)
    }

    /// Retires a consumed message cube, returning its backing buffer to
    /// the pool.
    pub fn recycle(&self, cube: Cube<T>) {
        self.put(cube.into_vec())
    }

    /// The pooled analogue of `Cube::clone`: copies `src` into a
    /// recycled buffer in one slice copy instead of an element-wise
    /// rebuild. This is the ingestion fast path — a submitted CPI is
    /// one `memcpy` into the pool, not 16k closure calls.
    pub fn take_cube_from(&self, src: &Cube<T>) -> Cube<T> {
        let mut buf = self.get(src.len());
        buf.extend_from_slice(src.as_slice());
        Cube::from_vec(src.shape(), buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_allocation() {
        let mut pool: BufferPool<f64> = BufferPool::new();
        let mut a = pool.get(100);
        a.resize(100, 1.0);
        let ptr = a.as_ptr();
        pool.put(a);
        let b = pool.get(90); // same class (128)
        assert_eq!(b.as_ptr(), ptr, "must reuse the retired buffer");
        assert!(b.is_empty());
        assert!(b.capacity() >= 90);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.returned), (1, 1, 1));
    }

    #[test]
    fn different_classes_do_not_mix() {
        let mut pool: BufferPool<u8> = BufferPool::new();
        let small = pool.get(10);
        pool.put(small);
        // Class 16 cannot serve a request that needs 1024.
        let big = pool.get(1000);
        assert!(big.capacity() >= 1000);
        assert_eq!(pool.stats().misses, 2);
    }

    #[test]
    fn zero_capacity_requests_are_free() {
        let mut pool: BufferPool<u8> = BufferPool::new();
        let v = pool.get(0);
        assert_eq!(v.capacity(), 0);
        pool.put(v);
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn class_retention_is_bounded() {
        let mut pool: BufferPool<u8> = BufferPool::new();
        for _ in 0..(MAX_FREE_PER_CLASS + 5) {
            pool.put(Vec::with_capacity(64));
        }
        assert_eq!(pool.free_buffers(), MAX_FREE_PER_CLASS);
        assert_eq!(pool.stats().dropped, 5);
    }

    #[test]
    fn reserve_prewarms_class_without_touching_stats() {
        let mut pool: BufferPool<f64> = BufferPool::new();
        pool.reserve(100, 3);
        assert_eq!(pool.free_buffers(), 3);
        assert_eq!(pool.stats(), PoolStats::default(), "reserve is not traffic");
        // Re-reserving an already-warm class is a no-op.
        pool.reserve(100, 2);
        assert_eq!(pool.free_buffers(), 3);
        for _ in 0..3 {
            let b = pool.get(100);
            assert!(b.capacity() >= 100);
        }
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (3, 0), "reserved gets must all hit");
        // A reservation beyond the default bound raises the bound: the
        // caller declared the steady-state population, so both the
        // pre-warm and subsequent put() retention honor it.
        pool.reserve(8, MAX_FREE_PER_CLASS + 10);
        assert_eq!(pool.free_buffers(), MAX_FREE_PER_CLASS + 10);
        let b = pool.get(8);
        pool.put(b);
        assert_eq!(pool.stats().dropped, 0, "reserved class must retain");
    }

    /// Buffers circulate between `get` users (clear + refill to any
    /// length) and `take_cube_for_overwrite` users: whatever a buffer's
    /// history, the cube has exactly the asked length, reuses the
    /// allocation, and shows only values some earlier user wrote or the
    /// default fill — safe Rust never sees uninitialised memory.
    #[test]
    fn overwrite_cubes_are_exact_and_hold_only_written_or_default_values() {
        const MARK: u64 = 0xA5A5_5A5A_0F0F_F0F0;
        stap_util::check::check("pool take_cube_for_overwrite", 100, |g| {
            let pool: SharedBufferPool<u64> = SharedBufferPool::new();
            pool.reserve(256, 2);
            for _ in 0..24 {
                // All requests share the 256 class, so buffers of every
                // previous length come back.
                let len = g.int(129, 257);
                if g.bool(0.5) {
                    let mut cube = pool.take_cube_for_overwrite([1, len, 1]);
                    assert_eq!(cube.len(), len, "never shorter (or longer) than asked");
                    let seen = cube.as_slice().iter().all(|&v| v == 0 || v == MARK);
                    assert!(seen, "value nobody wrote");
                    cube.as_mut_slice().fill(MARK);
                    pool.recycle(cube);
                } else {
                    let mut buf = pool.get(len);
                    assert!(buf.is_empty());
                    buf.resize(g.int(0, len + 1), MARK);
                    pool.put(buf);
                }
            }
            assert_eq!(pool.stats().misses, 0, "reserved class never misses");
        });
        // A miss (fresh buffer) is default-filled to the asked length.
        let cold: SharedBufferPool<u64> = SharedBufferPool::new();
        assert_eq!(cold.take_cube_for_overwrite([1, 5, 1]).as_slice(), [0; 5]);
        assert!(cold.take_cube_for_overwrite([0, 5, 1]).is_empty());
    }

    #[test]
    fn take_cube_for_overwrite_reuses_a_recycled_cube_without_refilling() {
        let pool: SharedBufferPool<f64> = SharedBufferPool::new();
        pool.recycle(Cube::from_fn([2, 4, 4], |_, _, _| 7.0));
        let again = pool.take_cube_for_overwrite([3, 2, 3]);
        assert_eq!(again.shape(), [3, 2, 3]);
        assert!(
            again.as_slice().iter().all(|&v| v == 7.0),
            "stale, not refilled"
        );
        assert_eq!((pool.stats().hits, pool.stats().misses), (1, 0));
    }

    #[test]
    fn shared_pool_recycles_cubes_across_clones() {
        let pool: SharedBufferPool<f64> = SharedBufferPool::new();
        let sender = pool.clone();
        let cube = sender.take_cube([2, 3, 4], |i, j, k| (i + 10 * j + 100 * k) as f64);
        let want = Cube::from_fn([2, 3, 4], |i, j, k| (i + 10 * j + 100 * k) as f64);
        assert_eq!(cube, want, "pooled from_fn must match allocating from_fn");
        pool.recycle(cube);
        let again = sender.take_cube([2, 3, 3], |_, _, _| 0.0);
        assert_eq!(again.shape(), [2, 3, 3]);
        let s = pool.stats();
        assert_eq!(s.hits, 1, "second take must hit the freelist");
    }
}
