//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Each generator thread owns one [`Trace`]; spans stay in memory and are
//! written out when the run ends. A `txn` span wraps each transaction and
//! every API call inside it is a child span carrying the transaction's id,
//! so a span's self time is its duration minus its same-thread children.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::Samples;

/// Parent index of a root span.
const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.get`.
    pub name: &'static str,
    /// Low 64 bits of the transaction UUID the span belongs to.
    pub txn: u64,
    /// Index of the parent span in the same trace, or `ROOT`.
    pub parent: u32,
    /// Start, in nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace origin.
    pub end_ns: u64,
}

/// The spans of one thread.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a root span and returns its index.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            txn: 0,
            parent: ROOT,
            start_ns,
            end_ns: start_ns,
        });
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans per thread")
    }

    /// Closes span `index`, tagging it with `txn`.
    pub fn close(&mut self, index: u32, txn: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[index as usize];
        span.end_ns = end_ns;
        span.txn = txn;
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        txn: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            txn,
            parent,
            start_ns,
            end_ns,
        });
        out
    }

    /// Duration samples per span name, plus `<name>.self` for spans with
    /// children: duration minus the time the children cover.
    pub fn durations(&self, into: &mut BTreeMap<String, Samples>) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != ROOT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            into.entry(span.name.to_owned())
                .or_default()
                .record(std::time::Duration::from_nanos(total));
            if children > 0 {
                into.entry(format!("{}.self", span.name))
                    .or_default()
                    .record(std::time::Duration::from_nanos(
                        total.saturating_sub(children),
                    ));
            }
        }
    }

    /// Appends the spans as tab-separated lines tagged with `thread`.
    pub fn write_tsv(&self, thread: usize, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{thread}\t{}\t{:016x}\t{parent}\t{}\t{}",
                s.name, s.txn, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_same_thread_children() {
        let mut t = Trace::new(Instant::now());
        let txn = t.open("txn");
        t.child("core.get", txn, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(txn, 7);
        let mut d = BTreeMap::new();
        t.durations(&mut d);
        let total = d["txn"].total();
        let child = d["core.get"].total();
        let own = d["txn.self"].total();
        assert!(child >= std::time::Duration::from_millis(2));
        assert_eq!(own + child, total);
    }
}
