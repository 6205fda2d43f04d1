//! A small bounded map with insert-order (FIFO) eviction, backing the
//! app's prediction caches.
//!
//! The app recomputes nothing the user has already seen: status-series
//! predictions (insights view) and per-window localizations (playground
//! overlay) are cached per `(dataset, house, appliance, window length[,
//! window index])`, so Prev/Next navigation over visited windows is O(1)
//! instead of re-running ensemble inference. Every cached artifact is a
//! pure function of its key — datasets are generated deterministically and
//! models are trained once per key — so entries never go stale; the bound
//! exists only to cap memory on long browsing sessions.

use std::collections::{BTreeMap, VecDeque};

/// A bounded key→value cache that evicts the oldest-inserted entry when
/// full. Lookups never refresh an entry's age (FIFO, not LRU): the access
/// pattern is window navigation, where the cheapest predictable policy
/// beats recency tracking.
#[derive(Debug)]
pub struct BoundedCache<K: Ord + Clone, V> {
    map: BTreeMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
    counters: Option<CacheCounters>,
}

impl<K: Ord + Clone, V> BoundedCache<K, V> {
    /// An empty cache holding at most `capacity` entries (`capacity` is
    /// clamped to ≥ 1), with no observability counters attached.
    pub fn new(capacity: usize) -> BoundedCache<K, V> {
        BoundedCache {
            map: BTreeMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            counters: None,
        }
    }

    /// Like [`BoundedCache::new`], with ds-obs counters attached:
    /// evictions tick `counters.evictions` automatically, and
    /// [`BoundedCache::get_or_try_insert_with`] ticks hits/misses.
    pub fn with_counters(capacity: usize, counters: CacheCounters) -> BoundedCache<K, V> {
        BoundedCache {
            counters: Some(counters),
            ..BoundedCache::new(capacity)
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The eviction bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up `key` without affecting eviction order.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// Mutable lookup without affecting eviction order — used for values
    /// that are updated in place, like frozen inference plans whose
    /// arenas are written by every prediction.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.map.get_mut(key)
    }

    /// Insert (or replace) `key`, evicting the oldest entry if the cache
    /// is full. Replacing an existing key keeps its original age. Each
    /// eviction ticks the cache's `evictions` counter (if attached), so
    /// `DS_OBS=summary` exposes when a bound is too tight for the
    /// navigation pattern.
    pub fn insert(&mut self, key: K, value: V) {
        if self.map.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
            if self.order.len() > self.capacity {
                if let Some(oldest) = self.order.pop_front() {
                    self.map.remove(&oldest);
                    if let Some(counters) = self.counters {
                        ds_obs::counter_add(counters.evictions, 1);
                    }
                }
            }
        }
    }

    /// Drop every entry (the bound is unchanged) — used when a global
    /// setting the cached values depend on changes, e.g. the session
    /// backbone invalidating prediction overlays.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Cached value for `key`, computing and inserting it on a miss.
    /// `compute` may fail; errors pass through without touching the cache.
    /// Hits and misses tick the cache's ds-obs counters (if attached) so
    /// `DS_OBS=summary` shows navigation cache efficiency.
    pub fn get_or_try_insert_with<E>(
        &mut self,
        key: K,
        compute: impl FnOnce(&mut Self) -> Result<V, E>,
    ) -> Result<&V, E> {
        if self.map.contains_key(&key) {
            if let Some(counters) = self.counters {
                ds_obs::counter_add(counters.hits, 1);
            }
        } else {
            if let Some(counters) = self.counters {
                ds_obs::counter_add(counters.misses, 1);
            }
            let value = compute(self)?;
            self.insert(key.clone(), value);
        }
        Ok(self.map.get(&key).expect("present or just inserted"))
    }
}

/// The counter names of one cache, declared once as `'static` strings so
/// the hot lookup path never allocates a counter name.
#[derive(Debug, Clone, Copy)]
pub struct CacheCounters {
    /// Counter ticked on a cache hit, e.g. `"cache.status_series.hits"`.
    pub hits: &'static str,
    /// Counter ticked on a cache miss.
    pub misses: &'static str,
    /// Counter ticked when the bound forces out the oldest entry, e.g.
    /// `"cache.status_series.evictions"`.
    pub evictions: &'static str,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_up_to_capacity() {
        let mut c = BoundedCache::new(3);
        for i in 0..3 {
            c.insert(i, i * 10);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&0), Some(&0));
        assert_eq!(c.get(&2), Some(&20));
    }

    #[test]
    fn evicts_oldest_first() {
        let mut c = BoundedCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.get(&"b"), Some(&2));
        assert_eq!(c.get(&"c"), Some(&3));
    }

    #[test]
    fn replacing_a_key_does_not_grow_or_reage() {
        let mut c = BoundedCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10); // replace, "a" stays oldest
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"a"), Some(&10));
        c.insert("c", 3); // evicts "a"
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.get(&"b"), Some(&2));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut c = BoundedCache::new(0);
        assert_eq!(c.capacity(), 1);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&2), Some(&2));
    }

    #[test]
    fn clear_empties_but_keeps_the_bound() {
        let mut c = BoundedCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 2);
        c.insert("c", 3);
        c.insert("d", 4);
        c.insert("e", 5);
        assert_eq!(c.len(), 2);
    }

    const TEST_COUNTERS: CacheCounters = CacheCounters {
        hits: "cache.test.hits",
        misses: "cache.test.misses",
        evictions: "cache.test.evictions",
    };

    #[test]
    fn get_or_try_insert_computes_once() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::with_counters(4, TEST_COUNTERS);
        let mut calls = 0;
        for _ in 0..3 {
            let v = c
                .get_or_try_insert_with(7, |_| {
                    calls += 1;
                    Ok::<u32, ()>(42)
                })
                .unwrap();
            assert_eq!(*v, 42);
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn get_or_try_insert_works_without_clone_values() {
        // The value type here implements neither Clone nor Copy; the
        // cache must still serve references to it.
        struct Opaque(#[allow(dead_code)] u32);
        let mut c: BoundedCache<u32, Opaque> = BoundedCache::new(4);
        let v = c
            .get_or_try_insert_with(1, |_| Ok::<_, ()>(Opaque(9)))
            .unwrap();
        assert_eq!(v.0, 9);
    }

    #[test]
    fn get_or_try_insert_propagates_errors() {
        let mut c: BoundedCache<u32, u32> = BoundedCache::new(4);
        let err = c.get_or_try_insert_with(1, |_| Err::<u32, &str>("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        assert!(c.is_empty());
    }

    /// Eviction must tick the cache's `evictions` counter — the
    /// observable difference between a comfortably sized bound and one
    /// that is thrashing.
    #[test]
    fn eviction_ticks_the_evictions_counter() {
        const COUNTERS: CacheCounters = CacheCounters {
            hits: "cache.evict_test.hits",
            misses: "cache.evict_test.misses",
            evictions: "cache.evict_test.evictions",
        };
        // Counters only record when ds-obs is enabled; take the obs lock
        // shared by level-changing tests in this crate.
        let _guard = crate::obs_test_lock();
        ds_obs::set_level(ds_obs::Level::Summary);
        let before = ds_obs::global().counter_get(COUNTERS.evictions);
        let mut c: BoundedCache<u32, u32> = BoundedCache::with_counters(2, COUNTERS);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(ds_obs::global().counter_get(COUNTERS.evictions), before);
        c.insert(3, 3); // bound is 2: evicts key 1
        assert_eq!(ds_obs::global().counter_get(COUNTERS.evictions), before + 1);
        assert_eq!(c.get(&1), None);
        // Replacement is not an eviction.
        c.insert(3, 30);
        assert_eq!(ds_obs::global().counter_get(COUNTERS.evictions), before + 1);
        ds_obs::set_level(ds_obs::Level::Off);
    }
}
