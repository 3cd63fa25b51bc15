//! The node-local data cache.
//!
//! In addition to the metadata cache, each AFT node keeps a data cache that
//! stores payloads for a subset of the key versions it knows about (§3.1).
//! The cache avoids a storage round trip for frequently read versions; its
//! effect — modest over Redis, up to ~15-17% over DynamoDB, growing with
//! access skew — is evaluated in §6.2 (Figure 4).
//!
//! The cache is a byte-bounded LRU keyed by version storage key. Entries are
//! only ever inserted for *committed* versions (the commit path and the read
//! path both insert after the commit record is known), so a cache hit can
//! never leak dirty data.
//!
//! The cache is lock-striped: `hash(storage_key) → stripe`, each stripe an
//! independent LRU with `capacity / stripes` bytes. Concurrent readers of
//! different keys therefore never serialise on one cache mutex. Small caches
//! (below [`MIN_STRIPE_BYTES`] per stripe) collapse to a single stripe so
//! byte-exact eviction tests and tiny configurations behave like the classic
//! single-lock LRU.

use std::collections::HashMap;

use aft_storage::stripe_of;
use aft_types::Value;
use parking_lot::Mutex;

/// Maximum stripe count for a data cache.
pub const MAX_CACHE_STRIPES: usize = 16;

/// Minimum per-stripe capacity; caches smaller than `2 * MIN_STRIPE_BYTES`
/// use a single stripe.
pub const MIN_STRIPE_BYTES: usize = 1024 * 1024;

/// A byte-bounded LRU cache from version storage keys to payloads.
#[derive(Debug)]
pub struct DataCache {
    stripes: Box<[Mutex<Inner>]>,
    capacity_bytes: usize,
    stripe_capacity: usize,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<String, Entry>,
    /// Monotonic counter used as the LRU clock.
    tick: u64,
    total_bytes: usize,
    hits: u64,
    misses: u64,
}

#[derive(Debug)]
struct Entry {
    value: Value,
    last_used: u64,
}

impl DataCache {
    /// Creates a cache bounded to `capacity_bytes` of payload. A capacity of
    /// zero disables caching entirely (every lookup misses). The stripe
    /// count scales with capacity: one stripe per [`MIN_STRIPE_BYTES`], at
    /// most [`MAX_CACHE_STRIPES`].
    pub fn new(capacity_bytes: usize) -> Self {
        let stripes = (capacity_bytes / MIN_STRIPE_BYTES).clamp(1, MAX_CACHE_STRIPES);
        Self::with_stripes(capacity_bytes, stripes)
    }

    /// Creates a cache with an explicit stripe count (clamped to ≥ 1). Each
    /// stripe is an independent LRU over `capacity_bytes / stripes` bytes.
    pub fn with_stripes(capacity_bytes: usize, stripes: usize) -> Self {
        let stripes = stripes.max(1);
        DataCache {
            stripes: (0..stripes).map(|_| Mutex::new(Inner::default())).collect(),
            capacity_bytes,
            stripe_capacity: capacity_bytes / stripes,
        }
    }

    /// A disabled cache.
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// Returns true if the cache can never hold anything.
    pub fn is_disabled(&self) -> bool {
        self.capacity_bytes == 0
    }

    /// Number of lock stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    fn stripe(&self, storage_key: &str) -> &Mutex<Inner> {
        &self.stripes[stripe_of(storage_key, self.stripes.len())]
    }

    /// Looks up the payload cached for `storage_key`.
    pub fn get(&self, storage_key: &str) -> Option<Value> {
        if self.is_disabled() {
            return None;
        }
        let mut inner = self.stripe(storage_key).lock();
        inner.tick += 1;
        let tick = inner.tick;
        let value = inner.entries.get_mut(storage_key).map(|entry| {
            entry.last_used = tick;
            entry.value.clone()
        });
        if value.is_some() {
            inner.hits += 1;
        } else {
            inner.misses += 1;
        }
        value
    }

    /// Inserts a payload for `storage_key`, evicting least-recently-used
    /// entries of its stripe if needed. Values larger than a stripe are
    /// ignored. An owned `String` key is stored without another copy.
    pub fn insert(&self, storage_key: impl Into<String>, value: Value) {
        if self.is_disabled() || value.len() > self.stripe_capacity {
            return;
        }
        let storage_key = storage_key.into();
        let bytes = value.len();
        let mut inner = self.stripe(&storage_key).lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.entries.insert(
            storage_key,
            Entry {
                value,
                last_used: tick,
            },
        ) {
            inner.total_bytes -= old.value.len();
        }
        inner.total_bytes += bytes;
        // Evict until the stripe fits its share of the budget.
        while inner.total_bytes > self.stripe_capacity {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("cache over capacity implies at least one entry");
            if let Some(e) = inner.entries.remove(&victim) {
                inner.total_bytes -= e.value.len();
            }
        }
    }

    /// Removes the entry for `storage_key` (garbage collection evicts data
    /// for deleted transactions).
    pub fn evict(&self, storage_key: &str) {
        let mut inner = self.stripe(storage_key).lock();
        if let Some(e) = inner.entries.remove(storage_key) {
            inner.total_bytes -= e.value.len();
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// Returns true if the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.stripes.iter().all(|s| s.lock().entries.is_empty())
    }

    /// Total payload bytes currently cached.
    pub fn bytes(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().total_bytes).sum()
    }

    /// `(hits, misses)` counters since creation.
    pub fn hit_stats(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for stripe in &self.stripes {
            let inner = stripe.lock();
            hits += inner.hits;
            misses += inner.misses;
        }
        (hits, misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn val(n: usize) -> Value {
        Bytes::from(vec![7u8; n])
    }

    #[test]
    fn hit_and_miss() {
        let cache = DataCache::new(1024);
        assert!(cache.get("a").is_none());
        cache.insert("a", val(10));
        assert_eq!(cache.get("a").unwrap().len(), 10);
        assert_eq!(cache.hit_stats(), (1, 1));
        assert_eq!(cache.bytes(), 10);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_prefers_cold_entries() {
        let cache = DataCache::new(100);
        cache.insert("cold", val(40));
        cache.insert("hot", val(40));
        // Touch "cold" then "hot" so that "cold" is older.
        cache.get("cold");
        cache.get("hot");
        cache.get("hot");
        // Inserting 40 more bytes must evict exactly one entry: the LRU one
        // is "cold"? No: "cold" was touched before "hot", so "cold" is older.
        cache.insert("new", val(40));
        assert!(cache.get("hot").is_some(), "recently used entry survives");
        assert!(cache.get("cold").is_none(), "LRU entry is evicted");
        assert!(cache.bytes() <= 100);
    }

    #[test]
    fn oversized_values_are_not_cached() {
        let cache = DataCache::new(16);
        cache.insert("big", val(64));
        assert!(cache.is_empty());
    }

    #[test]
    fn disabled_cache_never_stores() {
        let cache = DataCache::disabled();
        assert!(cache.is_disabled());
        cache.insert("a", val(1));
        assert!(cache.get("a").is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn reinsert_replaces_and_accounts_bytes() {
        let cache = DataCache::new(100);
        cache.insert("a", val(30));
        cache.insert("a", val(50));
        assert_eq!(cache.bytes(), 50);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evict_removes_specific_entry() {
        let cache = DataCache::new(100);
        cache.insert("a", val(10));
        cache.insert("b", val(10));
        cache.evict("a");
        assert!(cache.get("a").is_none());
        assert!(cache.get("b").is_some());
        assert_eq!(cache.bytes(), 10);
    }

    #[test]
    fn many_inserts_respect_capacity() {
        let cache = DataCache::new(1000);
        for i in 0..200 {
            cache.insert(format!("k{i}"), val(17));
        }
        assert!(cache.bytes() <= 1000);
        assert!(cache.len() <= 1000 / 17 + 1);
    }

    #[test]
    fn stripe_count_scales_with_capacity() {
        // Tiny caches stay single-stripe so byte-exact LRU tests hold.
        assert_eq!(DataCache::new(1000).stripe_count(), 1);
        assert_eq!(DataCache::new(0).stripe_count(), 1);
        // Node-sized caches stripe up to the cap.
        assert_eq!(DataCache::new(4 * 1024 * 1024).stripe_count(), 4);
        assert_eq!(DataCache::new(256 * 1024 * 1024).stripe_count(), 16);
    }

    #[test]
    fn striped_cache_keeps_total_bytes_within_capacity() {
        let capacity = 8 * 1024 * 1024;
        let cache = DataCache::with_stripes(capacity, 8);
        assert_eq!(cache.stripe_count(), 8);
        for i in 0..1000 {
            cache.insert(format!("data/k/{i}"), val(64 * 1024));
        }
        assert!(cache.bytes() <= capacity);
        assert!(!cache.is_empty());
        let (hits, misses) = cache.hit_stats();
        assert_eq!(hits + misses, 0, "inserts alone record no lookups");
        // Values larger than one stripe's share are ignored, keeping the
        // per-stripe eviction loop well-defined.
        let before = cache.len();
        cache.insert("big", val(capacity / 8 + 1));
        assert_eq!(cache.len(), before);
    }
}
