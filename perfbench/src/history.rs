//! The client-observed history and the independent check over it.
//!
//! The check uses only what clients saw: the operations they issued, the
//! writer id and payload each read returned, and the final id each commit
//! acknowledged. It never consults the node's metadata or the commit
//! outcome's own atomicity verdict, so a metadata bug cannot blind it.
//!
//! Every written payload embeds its writer's transaction UUID
//! ([`payload`]), so a read can be checked against the writer id the API
//! reported for it.

use std::collections::HashMap;
use std::sync::OnceLock;

use aft_types::{Key, TransactionId, Value};
use bytes::Bytes;

/// Length of the writer-UUID prefix of every payload.
const UUID_BYTES: usize = 16;

/// Largest payload the workloads write.
const MAX_PAYLOAD: usize = 4096;

/// A `size`-byte payload carrying the writer's transaction UUID.
pub fn payload(writer: u128, size: usize) -> Value {
    // Copying a prebuilt filler keeps payload construction to one memcpy,
    // since it runs inside every timed transaction.
    static FILLER: OnceLock<Vec<u8>> = OnceLock::new();
    let filler = FILLER.get_or_init(|| (0..MAX_PAYLOAD).map(|i| (i % 251) as u8).collect());
    let mut buf = filler[..size.clamp(UUID_BYTES, MAX_PAYLOAD)].to_vec();
    buf[..UUID_BYTES].copy_from_slice(&writer.to_le_bytes());
    Bytes::from(buf)
}

/// The writer UUID embedded in a payload, if it is long enough to carry one.
pub fn payload_writer(value: &Value) -> Option<u128> {
    let prefix: [u8; UUID_BYTES] = value.get(..UUID_BYTES)?.try_into().ok()?;
    Some(u128::from_le_bytes(prefix))
}

/// What one read returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Seen {
    /// The key had no visible version.
    Missing,
    /// The transaction's own buffered write (no committed writer).
    Own {
        /// UUID embedded in the payload.
        payload: Option<u128>,
    },
    /// A committed version.
    Committed {
        /// The writer id the API reported.
        writer: TransactionId,
        /// UUID embedded in the payload.
        payload: Option<u128>,
    },
}

impl Seen {
    /// Classifies a `get_versioned` result.
    pub fn of(result: Option<(Value, Option<TransactionId>)>) -> Seen {
        match result {
            None => Seen::Missing,
            Some((value, None)) => Seen::Own {
                payload: payload_writer(&value),
            },
            Some((value, Some(writer))) => Seen::Committed {
                writer,
                payload: payload_writer(&value),
            },
        }
    }
}

/// One operation of a transaction, in issue order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A read and what it returned.
    Read(Key, Seen),
    /// A buffered write.
    Write(Key),
}

/// One transaction as its client saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnObs {
    /// The UUID the transaction began with (embedded in its payloads).
    pub uuid: u128,
    /// Operations in issue order.
    pub ops: Vec<Op>,
    /// The acknowledged final id; `None` when the commit was never acked,
    /// in which case the writes may or may not have been applied.
    pub acked: Option<TransactionId>,
}

/// Violation counts; every field must be zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Violations {
    /// A read of `k2` from `W2` alongside a read from `W1`, where `W1` also
    /// wrote `k2` and `W2 < W1` (the Atomic Readset condition).
    pub fractured: u64,
    /// A read after the transaction's own write of the key that did not
    /// return that write.
    pub read_your_writes: u64,
    /// A payload whose embedded UUID differs from the reported writer.
    pub payload: u64,
    /// A committed version no client wrote, or whose id differs from the id
    /// its writer was acked with, or a key that lost every version.
    pub unknown_writer: u64,
    /// A key whose latest acked write is not what a recovered node serves.
    pub lost_acked: u64,
}

impl Violations {
    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: &Violations) {
        self.fractured += other.fractured;
        self.read_your_writes += other.read_your_writes;
        self.payload += other.payload;
        self.unknown_writer += other.unknown_writer;
        self.lost_acked += other.lost_acked;
    }

    /// Sum of every count.
    pub fn total(&self) -> u64 {
        self.fractured
            + self.read_your_writes
            + self.payload
            + self.unknown_writer
            + self.lost_acked
    }
}

/// Checks a complete history. Every key a read can reach must have been
/// written by a transaction in `history` (the set-up preload included).
pub fn check(history: &[TxnObs]) -> Violations {
    let writers = Writers::of(history);
    let mut v = Violations::default();
    for txn in history {
        let committed: Vec<(&Key, TransactionId)> = txn
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Read(key, Seen::Committed { writer, .. }) => Some((key, *writer)),
                _ => None,
            })
            .collect();
        // Fractured reads: some earlier-or-later read came from a writer W1
        // that also wrote this key at a newer id than the one returned.
        for &(k2, w2) in &committed {
            let fractured = committed.iter().any(|&(_, w1)| {
                w2 < w1
                    && writers
                        .keys(w1.uuid.as_u128())
                        .is_some_and(|keys| keys.contains(&k2))
            });
            v.fractured += u64::from(fractured);
        }
        let mut own_writes: Vec<&Key> = Vec::new();
        for op in &txn.ops {
            match op {
                Op::Write(key) => own_writes.push(key),
                Op::Read(key, seen) => {
                    let wrote = own_writes.contains(&key);
                    match seen {
                        Seen::Own { payload } => {
                            v.read_your_writes += u64::from(!wrote);
                            v.payload += u64::from(*payload != Some(txn.uuid));
                        }
                        Seen::Committed { writer, payload } => {
                            v.read_your_writes += u64::from(wrote);
                            v.payload += u64::from(*payload != Some(writer.uuid.as_u128()));
                            v.unknown_writer += u64::from(!writers.may_have_written(writer, key));
                        }
                        Seen::Missing => {
                            v.read_your_writes += u64::from(wrote);
                            v.unknown_writer += 1;
                        }
                    }
                }
            }
        }
    }
    v
}

/// Drops every read from `history` and every transaction left without
/// writes: what [`check`] still needs of transactions it has checked.
pub fn forget_reads(history: &mut Vec<TxnObs>) {
    history.retain_mut(|txn| {
        txn.ops.retain(|op| matches!(op, Op::Write(_)));
        !txn.ops.is_empty()
    });
}

/// Checks what a recovered node serves: `served[i]` is a read of one key in
/// a transaction of its own. Each must return the latest acked write.
pub fn check_recovered(history: &[TxnObs], served: &[(Key, Seen)]) -> Violations {
    let mut latest: HashMap<&Key, TransactionId> = HashMap::new();
    for txn in history {
        let Some(id) = txn.acked else { continue };
        for op in &txn.ops {
            if let Op::Write(key) = op {
                let entry = latest.entry(key).or_insert(id);
                *entry = (*entry).max(id);
            }
        }
    }
    let mut v = Violations::default();
    for (key, seen) in served {
        let expected = latest.get(key).copied();
        let got = match seen {
            Seen::Committed { writer, payload } => {
                v.payload += u64::from(*payload != Some(writer.uuid.as_u128()));
                Some(*writer)
            }
            _ => None,
        };
        v.lost_acked += u64::from(got != expected);
    }
    v
}

/// Who wrote what, from the history alone.
struct Writers<'h> {
    by_uuid: HashMap<u128, (&'h TxnObs, Vec<&'h Key>)>,
}

impl<'h> Writers<'h> {
    fn of(history: &'h [TxnObs]) -> Self {
        let by_uuid = history
            .iter()
            .map(|txn| {
                let keys = txn
                    .ops
                    .iter()
                    .filter_map(|op| match op {
                        Op::Write(key) => Some(key),
                        Op::Read(..) => None,
                    })
                    .collect();
                (txn.uuid, (txn, keys))
            })
            .collect();
        Writers { by_uuid }
    }

    fn keys(&self, uuid: u128) -> Option<&[&'h Key]> {
        self.by_uuid.get(&uuid).map(|(_, keys)| keys.as_slice())
    }

    /// A committed version of `key` may come from a transaction that wrote
    /// `key` and was acked with exactly `writer`, or whose commit outcome is
    /// unknown.
    fn may_have_written(&self, writer: &TransactionId, key: &Key) -> bool {
        match self.by_uuid.get(&writer.uuid.as_u128()) {
            Some((txn, keys)) => keys.contains(&key) && txn.acked.is_none_or(|id| id == *writer),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_types::Uuid;

    fn id(ts: u64, uuid: u128) -> TransactionId {
        TransactionId::new(ts, Uuid::from_u128(uuid))
    }

    fn key(name: &str) -> Key {
        Key::new(name)
    }

    fn read(name: &str, writer: TransactionId) -> Op {
        Op::Read(
            key(name),
            Seen::Committed {
                writer,
                payload: Some(writer.uuid.as_u128()),
            },
        )
    }

    fn writer(ts: u64, uuid: u128, keys: &[&str]) -> TxnObs {
        TxnObs {
            uuid,
            ops: keys.iter().map(|k| Op::Write(key(k))).collect(),
            acked: Some(id(ts, uuid)),
        }
    }

    /// W1 wrote {a, b} at ts 10; W2 wrote {a, b} at ts 20; W3 wrote b at 30.
    fn base() -> Vec<TxnObs> {
        vec![
            writer(10, 1, &["a", "b"]),
            writer(20, 2, &["a", "b"]),
            writer(30, 3, &["b"]),
        ]
    }

    fn reader(ops: Vec<Op>) -> TxnObs {
        TxnObs {
            uuid: 99,
            ops,
            acked: Some(id(40, 99)),
        }
    }

    #[test]
    fn a_clean_history_has_no_violations() {
        let mut h = base();
        h.push(reader(vec![read("a", id(20, 2)), read("b", id(30, 3))]));
        h.push(reader(vec![
            Op::Write(key("a")),
            Op::Read(key("a"), Seen::Own { payload: Some(99) }),
            read("b", id(20, 2)),
        ]));
        assert_eq!(check(&h), Violations::default());
    }

    #[test]
    fn flags_a_fractured_read() {
        let mut h = base();
        // Read a from W2 but b from the older W1, which W2 also wrote.
        h.push(reader(vec![read("a", id(20, 2)), read("b", id(10, 1))]));
        assert_eq!(check(&h).fractured, 1);
        // The order of the two reads does not matter.
        let mut h = base();
        h.push(reader(vec![read("b", id(10, 1)), read("a", id(20, 2))]));
        assert_eq!(check(&h).fractured, 1);
    }

    #[test]
    fn flags_read_your_writes_violations() {
        let mut h = base();
        h.push(reader(vec![Op::Write(key("a")), read("a", id(20, 2))]));
        assert_eq!(check(&h).read_your_writes, 1);
        // An own-write result for a key the transaction never wrote.
        let mut h = base();
        h.push(reader(vec![Op::Read(
            key("a"),
            Seen::Own { payload: Some(99) },
        )]));
        assert_eq!(check(&h).read_your_writes, 1);
    }

    #[test]
    fn checking_in_steps_finds_what_checking_at_once_does() {
        let fractured = reader(vec![read("a", id(20, 2)), read("b", id(10, 1))]);
        let mut whole = base();
        whole.push(fractured.clone());
        let mut steps = base();
        let mut found = check(&steps);
        forget_reads(&mut steps);
        steps.push(fractured);
        found.add(&check(&steps));
        assert_eq!(found, check(&whole));
        assert_eq!(found.fractured, 1);
    }

    #[test]
    fn flags_payload_mismatches() {
        let mut h = base();
        h.push(reader(vec![Op::Read(
            key("a"),
            Seen::Committed {
                writer: id(20, 2),
                payload: Some(1),
            },
        )]));
        assert_eq!(check(&h).payload, 1);
    }

    #[test]
    fn flags_versions_no_client_wrote() {
        let mut h = base();
        // Unknown UUID, a known writer with the wrong id, a writer that
        // never wrote the key, and a lost key.
        h.push(reader(vec![
            read("a", id(20, 7)),
            read("b", id(21, 2)),
            read("a", id(30, 3)),
            Op::Read(key("a"), Seen::Missing),
        ]));
        assert_eq!(check(&h).unknown_writer, 4);
    }

    #[test]
    fn flags_lost_acked_commits_after_recovery() {
        let h = base();
        let latest_a = Seen::Committed {
            writer: id(20, 2),
            payload: Some(2),
        };
        let stale_b = Seen::Committed {
            writer: id(20, 2),
            payload: Some(2),
        };
        let served = vec![(key("a"), latest_a), (key("b"), stale_b)];
        assert_eq!(check_recovered(&h, &served).lost_acked, 1);
        let served = vec![(key("b"), Seen::Missing)];
        assert_eq!(check_recovered(&h, &served).lost_acked, 1);
    }

    #[test]
    fn payloads_round_trip_the_writer() {
        let value = payload(0xABCD, 4096);
        assert_eq!(value.len(), 4096);
        assert_eq!(payload_writer(&value), Some(0xABCD));
    }
}
