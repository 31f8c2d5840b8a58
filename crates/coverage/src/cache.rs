//! The LRU coordinate→cost cache (paper Fig. 13a).
//!
//! MIRAGE queries decomposition costs for the same handful of coordinate
//! classes over and over (every CNOT in a circuit shares one class), so the
//! paper adds a software lookup table in front of the polytope membership
//! scan. This is that table: keys are quantized Weyl coordinates, values are
//! costs; eviction is least-recently-used. Entries are pure functions of the
//! coordinate class and the coverage set, so they never go stale —
//! calibration-dependent terms are applied by the caller on top.

use mirage_weyl::coords::WeylCoord;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Cache key: a quantized coordinate class.
type Key = (u16, u16, u16);

/// A bounded least-recently-used cache from quantized coordinates to cost.
#[derive(Debug)]
pub struct CostCache {
    capacity: usize,
    /// value, LRU clock.
    map: HashMap<Key, (f64, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl CostCache {
    /// Create a cache holding at most `capacity` coordinate classes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> CostCache {
        assert!(capacity > 0, "cache capacity must be positive");
        CostCache {
            capacity,
            map: HashMap::with_capacity(capacity),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Look up a coordinate, or compute-and-insert through `f`.
    pub fn get_or_insert_with<F: FnOnce() -> f64>(&mut self, w: &WeylCoord, f: F) -> f64 {
        self.clock += 1;
        let key = w.quantized();
        if let Some(entry) = self.map.get_mut(&key) {
            entry.1 = self.clock;
            self.hits += 1;
            return entry.0;
        }
        self.misses += 1;
        let v = f();
        if self.map.len() >= self.capacity {
            self.evict_oldest();
        }
        self.map.insert(key, (v, self.clock));
        v
    }

    /// Look up without inserting.
    pub fn peek(&self, w: &WeylCoord) -> Option<f64> {
        self.map.get(&w.quantized()).map(|e| e.0)
    }

    fn evict_oldest(&mut self) {
        if let Some((&key, _)) = self.map.iter().min_by_key(|(_, (_, t))| *t) {
            self.map.remove(&key);
        }
    }

    /// Number of cached classes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// A thread-safe [`CostCache`] behind one mutex.
///
/// One instance is shared by every transpile call on a `Target` (and by
/// every worker of a serving process). Each trial-engine run prices its
/// circuit's coordinate classes here once, into a per-run table, so the
/// lock is taken O(classes) times per run rather than per routed gate;
/// cached costs are pure functions of the coordinate class, so sharing
/// never changes results.
#[derive(Debug)]
pub struct SharedCostCache {
    inner: Mutex<CostCache>,
    /// Lock acquisitions that found the lock already held (a `try_lock`
    /// failed and the caller had to block). Only touched on the contended
    /// path, which already pays for a futex wait.
    contended: AtomicU64,
}

impl SharedCostCache {
    /// Create a shared cache holding at most `capacity` coordinate classes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> SharedCostCache {
        SharedCostCache {
            inner: Mutex::new(CostCache::new(capacity)),
            contended: AtomicU64::new(0),
        }
    }

    /// Acquire the lock, counting the acquisition as contended when a
    /// `try_lock` probe finds it already held.
    fn lock(&self) -> MutexGuard<'_, CostCache> {
        match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.inner.lock().expect("cost cache poisoned")
            }
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("cost cache poisoned"),
        }
    }

    /// Lock acquisitions since construction that had to wait for another
    /// thread.
    pub fn contention(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Look up a coordinate, or compute-and-insert through `f`.
    ///
    /// `f` runs while the lock is held, so concurrent queries of one class
    /// compute at most once per residence.
    pub fn get_or_insert_with<F: FnOnce() -> f64>(&self, w: &WeylCoord, f: F) -> f64 {
        self.lock().get_or_insert_with(w, f)
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        self.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_math::PI_4;

    #[test]
    fn cache_hit_on_repeat() {
        let mut cache = CostCache::new(16);
        let w = WeylCoord::CNOT;
        let mut calls = 0;
        for _ in 0..5 {
            let v = cache.get_or_insert_with(&w, || {
                calls += 1;
                1.0
            });
            assert_eq!(v, 1.0);
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.stats(), (4, 1));
    }

    #[test]
    fn nearby_coordinates_share_an_entry() {
        let mut cache = CostCache::new(16);
        let w1 = WeylCoord::canonicalize(PI_4, 0.0, 0.0);
        let w2 = WeylCoord::canonicalize(PI_4 + 1e-9, 1e-10, 0.0);
        cache.get_or_insert_with(&w1, || 2.0);
        let v = cache.get_or_insert_with(&w2, || 99.0);
        assert_eq!(v, 2.0, "quantization should merge the keys");
    }

    #[test]
    fn eviction_keeps_capacity() {
        let mut cache = CostCache::new(4);
        for i in 0..20 {
            let w = WeylCoord::canonicalize(0.01 * i as f64, 0.0, 0.0);
            cache.get_or_insert_with(&w, || i as f64);
        }
        assert!(cache.len() <= 4);
    }

    #[test]
    fn lru_evicts_oldest_not_newest() {
        let mut cache = CostCache::new(2);
        let a = WeylCoord::canonicalize(0.1, 0.0, 0.0);
        let b = WeylCoord::canonicalize(0.2, 0.0, 0.0);
        let c = WeylCoord::canonicalize(0.3, 0.0, 0.0);
        cache.get_or_insert_with(&a, || 1.0);
        cache.get_or_insert_with(&b, || 2.0);
        cache.get_or_insert_with(&a, || 1.0); // refresh a
        cache.get_or_insert_with(&c, || 3.0); // evicts b
        assert!(cache.peek(&a).is_some());
        assert!(cache.peek(&b).is_none());
        assert!(cache.peek(&c).is_some());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        CostCache::new(0);
    }

    #[test]
    fn shared_cache_hits_across_threads() {
        let cache = SharedCostCache::new(64);
        let w = WeylCoord::CNOT;
        assert_eq!(cache.get_or_insert_with(&w, || 2.0), 2.0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    // Inserted once above: every thread must observe a hit.
                    assert_eq!(cache.get_or_insert_with(&w, || 99.0), 2.0);
                });
            }
        });
        assert_eq!(cache.stats(), (4, 1));
    }

    #[test]
    fn capacity_one_holds_a_single_class() {
        // Every new class evicts the previous one.
        let mut cache = CostCache::new(1);
        let a = WeylCoord::canonicalize(0.1, 0.0, 0.0);
        let b = WeylCoord::canonicalize(0.2, 0.0, 0.0);
        cache.get_or_insert_with(&a, || 1.0);
        cache.get_or_insert_with(&b, || 2.0);
        assert_eq!(cache.len(), 1);
        assert!(cache.peek(&a).is_none(), "a must have been evicted");
        assert_eq!(cache.peek(&b), Some(2.0));
        assert!(!cache.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn shared_zero_capacity_panics() {
        SharedCostCache::new(0);
    }

    #[test]
    fn contention_counter_records_blocked_acquisitions() {
        // Uncontended use never increments the counter.
        let cache = SharedCostCache::new(64);
        let w = WeylCoord::CNOT;
        for _ in 0..10 {
            cache.get_or_insert_with(&w, || 1.0);
        }
        assert_eq!(cache.contention(), 0, "uncontended path must stay free");
        // Forced contention: hold the lock while another thread queries —
        // its try_lock must fail and be counted.
        let guard = cache.lock();
        std::thread::scope(|s| {
            let t = s.spawn(|| cache.get_or_insert_with(&w, || 99.0));
            while cache.contention() == 0 {
                std::thread::yield_now();
            }
            drop(guard);
            assert_eq!(t.join().expect("query thread"), 1.0);
        });
        assert!(cache.contention() >= 1);
    }
}
