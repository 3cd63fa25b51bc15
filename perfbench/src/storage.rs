//! A pass-through [`StorageEngine`] that counts and times every call.
//!
//! It forwards each trait method unchanged — `supports_batch_put`,
//! `supports_deferred_latency` and `stats` included — so the `IoEngine`
//! above it takes exactly the path it takes over the bare backend. Calls run
//! on `IoEngine` worker threads, where they cannot yet be linked to the
//! transaction that caused them, so the wrapper keeps per-operation
//! aggregates rather than spans.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use aft_storage::{SharedStorage, StorageEngine, StorageStats};
use aft_types::{AftResult, Value};

/// The operations the wrapper tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `get`.
    Get,
    /// `put`.
    Put,
    /// `put_batch`.
    PutBatch,
    /// `delete` and `delete_batch`.
    Delete,
    /// `list_prefix`.
    List,
}

impl Call {
    /// Every kind, in report order.
    pub const ALL: [Call; 5] = [
        Call::Get,
        Call::Put,
        Call::PutBatch,
        Call::Delete,
        Call::List,
    ];
}

/// Point-in-time wrapper counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageCounts {
    /// Calls per [`Call`] kind, indexed like [`Call::ALL`].
    pub calls: [u64; 5],
    /// Value bytes handed to writes.
    pub bytes_written: u64,
    /// Value bytes returned by reads.
    pub bytes_read: u64,
    /// Wall time spent inside backend calls.
    pub busy_ns: u64,
}

impl StorageCounts {
    /// Calls of one kind.
    pub fn calls(&self, call: Call) -> u64 {
        self.calls[call as usize]
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &StorageCounts) -> StorageCounts {
        let mut calls = [0; 5];
        for (i, c) in calls.iter_mut().enumerate() {
            *c = self.calls[i] - earlier.calls[i];
        }
        StorageCounts {
            calls,
            bytes_written: self.bytes_written - earlier.bytes_written,
            bytes_read: self.bytes_read - earlier.bytes_read,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

/// The counting wrapper. Counts only while enabled; forwards always.
pub struct CountingStorage {
    inner: SharedStorage,
    enabled: AtomicBool,
    calls: [AtomicU64; 5],
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    busy_ns: AtomicU64,
}

impl CountingStorage {
    /// Wraps `inner`, counting from the start.
    pub fn wrap(inner: SharedStorage) -> Arc<Self> {
        Arc::new(CountingStorage {
            inner,
            enabled: AtomicBool::new(true),
            calls: Default::default(),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        })
    }

    /// Turns counting on or off; calls are forwarded either way.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Current counters.
    pub fn counts(&self) -> StorageCounts {
        let mut calls = [0; 5];
        for (c, a) in calls.iter_mut().zip(&self.calls) {
            *c = a.load(Ordering::Relaxed);
        }
        StorageCounts {
            calls,
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    fn timed<T>(&self, call: Call, written: u64, f: impl FnOnce() -> AftResult<T>) -> AftResult<T> {
        if !self.enabled.load(Ordering::Relaxed) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let busy = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns.fetch_add(busy, Ordering::Relaxed);
        self.calls[call as usize].fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(written, Ordering::Relaxed);
        out
    }
}

impl StorageEngine for CountingStorage {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn get(&self, key: &str) -> AftResult<Option<Value>> {
        let out = self.timed(Call::Get, 0, || self.inner.get(key))?;
        if let (true, Some(value)) = (self.enabled.load(Ordering::Relaxed), &out) {
            self.bytes_read
                .fetch_add(value.len() as u64, Ordering::Relaxed);
        }
        Ok(out)
    }

    fn put(&self, key: &str, value: Value) -> AftResult<()> {
        let written = value.len() as u64;
        self.timed(Call::Put, written, || self.inner.put(key, value))
    }

    fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
        let written = items.iter().map(|(_, v)| v.len() as u64).sum();
        self.timed(Call::PutBatch, written, || self.inner.put_batch(items))
    }

    fn delete(&self, key: &str) -> AftResult<()> {
        self.timed(Call::Delete, 0, || self.inner.delete(key))
    }

    fn delete_batch(&self, keys: &[String]) -> AftResult<()> {
        self.timed(Call::Delete, 0, || self.inner.delete_batch(keys))
    }

    fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>> {
        self.timed(Call::List, 0, || self.inner.list_prefix(prefix))
    }

    fn supports_batch_put(&self) -> bool {
        self.inner.supports_batch_put()
    }

    fn supports_deferred_latency(&self) -> bool {
        self.inner.supports_deferred_latency()
    }

    fn stats(&self) -> Arc<StorageStats> {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_core::api::AftApi;
    use aft_core::{AftNode, NodeConfig};
    use aft_storage::{InMemoryStore, OpKind};
    use aft_workload::{WorkloadConfig, WorkloadGenerator};

    #[test]
    fn counts_the_same_calls_as_the_backend() {
        let backend: SharedStorage = InMemoryStore::shared();
        let wrapped = CountingStorage::wrap(Arc::clone(&backend));
        assert!(wrapped.supports_batch_put() && wrapped.supports_deferred_latency());
        // No data cache, so committed reads reach storage.
        let node = AftNode::new(NodeConfig::test_without_cache(), wrapped.clone()).unwrap();
        let api: Arc<dyn AftApi> = node;
        let mut plans = WorkloadGenerator::new(WorkloadConfig::standard().with_keys(50), 7);
        for _ in 0..200 {
            let plan = plans.next_plan();
            let txid = api.begin().unwrap();
            for f in &plan.functions {
                for key in &f.reads {
                    api.get_versioned(&txid, key).unwrap();
                }
                for key in &f.writes {
                    let value = crate::history::payload(txid.uuid.as_u128(), 4096);
                    api.put(&txid, key.clone(), value).unwrap();
                }
            }
            api.commit(&txid, &[]).unwrap();
        }
        let ours = wrapped.counts();
        let theirs = backend.stats().snapshot();
        assert!(ours.calls(Call::PutBatch) > 0 && ours.calls(Call::Get) > 0);
        assert_eq!(ours.calls(Call::Get), theirs.calls(OpKind::Get));
        assert_eq!(ours.calls(Call::Put), theirs.calls(OpKind::Put));
        assert_eq!(ours.calls(Call::PutBatch), theirs.calls(OpKind::BatchPut));
        assert_eq!(ours.calls(Call::List), theirs.calls(OpKind::List));
        assert_eq!(ours.bytes_written, theirs.bytes_written);
        assert_eq!(ours.bytes_read, theirs.bytes_read);
    }
}
