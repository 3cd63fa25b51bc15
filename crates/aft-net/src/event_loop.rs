//! The readiness-driven I/O core of [`AftServer`](crate::AftServer).
//!
//! One event-loop thread owns *all* socket I/O and framing: the listener,
//! every accepted connection (nonblocking, registered with the vendored
//! [`polling`] poller under oneshot semantics), a slab of per-connection
//! state machines, and a pool of recycled frame buffers. Thread count is
//! O(workers), never O(connections).
//!
//! Per connection the machine cycles through four phases:
//!
//! * **read** — drain the socket into an incremental [`FrameDecoder`]
//!   (arbitrary byte splits are fine; a slow-loris peer just parks cheap
//!   buffered state here);
//! * **parse** — pull complete frames, decode them into requests;
//! * **dispatch** — enqueue jobs for the shared worker pool, tagging each
//!   with the connection's generation-checked [`ConnHandle`]. When the queue
//!   is full the connection *pauses*: decoded requests wait in a local
//!   pending deque and the socket stops being read (TCP backpressure), so a
//!   pipelining flood is bounded without ever blocking the loop;
//! * **write** — workers push completions into a wakeable completion queue
//!   ([`Poller::notify`] interrupts the wait); the loop frames each response
//!   into a pooled buffer and flushes with *vectored* writes, so one syscall
//!   carries up to [`WRITE_BATCH`] pipelined responses.
//!
//! Execution semantics (routing, affinity, commit dedup/single-flight, the
//! `ResponseFilter` chaos hook) stay in the worker pool — the loop never
//! runs request logic, so a slow commit cannot stall unrelated sockets.
//!
//! ## Lifecycle corners
//!
//! A clean-boundary EOF with responses still in flight is a *half-open*
//! connection: the read side is done but the write side lingers until every
//! pending job has flushed, then the slot is torn down. EOF mid-frame is a
//! truncation and tears down immediately. Connection close is accounted
//! exactly once via a guarded transition on the handle, no matter which side
//! (loop teardown, worker reset, server shutdown) gets there first.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use aft_types::wire::{decode_request, encode_response, WireRequest, WireResponse};
use aft_types::{AftError, AftResult};
use bytes::Bytes;
use polling::{Event, Events, Poller};

use crate::buffer::BufferPool;
use crate::frame::{frame_into, FrameDecoder};
use crate::server::{Job, ServerShared};
use crate::stats::ConnStats;

/// Poller key of the listening socket (`usize::MAX` is the poller's own
/// notifier); connection keys are their slab slots.
const LISTENER_KEY: usize = usize::MAX - 1;

/// Reads drained from one socket per readiness event before yielding to
/// other connections (fairness under a firehose peer).
const MAX_READS_PER_EVENT: usize = 16;

/// Bytes read per socket syscall.
const READ_CHUNK: usize = 16 * 1024;

/// Response frames coalesced into one vectored write syscall.
const WRITE_BATCH: usize = 64;

/// Unflushed response bytes a connection may buffer before the loop stops
/// reading more requests from it (per-connection write throttle).
const WRITE_BUFFER_CAP: usize = 4 * 1024 * 1024;

/// The worker-visible identity of one event-loop connection.
///
/// Slots are recycled, so completions carry the `(slot, generation)` pair;
/// a completion whose generation no longer matches the slab entry belongs to
/// a dead connection and is dropped (its work is durable — this is exactly
/// the §4.2 lost-ack window the commit ledger covers).
#[derive(Debug)]
pub(crate) struct ConnHandle {
    pub(crate) slot: usize,
    pub(crate) generation: u64,
    /// Server-wide connection id — the fair-queuing lane key.
    pub(crate) id: u64,
    pub(crate) stats: ConnStats,
    /// Guarded close transition: whoever swaps this to `false` does the
    /// `record_close`, so churn can never double-count.
    pub(crate) open: AtomicBool,
    /// Jobs enqueued but not yet completed back to the loop.
    pub(crate) inflight: AtomicUsize,
}

/// What a worker wants done with a finished request.
pub(crate) enum CompletionAction {
    /// Write this encoded response on the originating connection.
    Respond(Bytes),
    /// Reset the connection without responding (the `ResponseFilter` ate
    /// the acknowledgement).
    Reset,
}

/// A worker→loop completion, routed by the handle's slot + generation.
pub(crate) struct Completion {
    pub(crate) handle: Arc<ConnHandle>,
    pub(crate) action: CompletionAction,
}

/// Monotonic counters and gauges owned by the event loop.
#[derive(Debug, Default)]
pub(crate) struct EventStats {
    conns_open: AtomicU64,
    frames_read: AtomicU64,
    frames_written: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    writev_calls: AtomicU64,
    pauses: AtomicU64,
    buffered_bytes: AtomicU64,
}

/// Point-in-time view of the event loop's I/O counters, exposed through
/// [`AftServer::event_snapshot`](crate::AftServer::event_snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EventSnapshot {
    /// Connections currently registered with the loop.
    pub conns_open: u64,
    /// Complete request frames decoded.
    pub frames_read: u64,
    /// Response frames fully flushed.
    pub frames_written: u64,
    /// Raw bytes read off sockets.
    pub bytes_read: u64,
    /// Raw bytes written to sockets.
    pub bytes_written: u64,
    /// Vectored write syscalls issued (`frames_written / writev_calls` is
    /// the realized write-batching factor).
    pub writev_calls: u64,
    /// Times a connection paused on a full worker queue (backpressure).
    pub pauses: u64,
    /// Response bytes queued in the loop awaiting flush right now.
    pub buffered_bytes: u64,
    /// Frame buffers sitting warm in the pool.
    pub pooled_buffers: u64,
    /// Fresh frame-buffer allocations ever made.
    pub buffer_allocations: u64,
    /// Frame buffers served from the pool instead of the allocator.
    pub buffer_reuses: u64,
}

impl EventStats {
    pub(crate) fn snapshot(&self, pool: &BufferPool) -> EventSnapshot {
        let (buffer_allocations, buffer_reuses) = pool.counters();
        EventSnapshot {
            conns_open: self.conns_open.load(Ordering::Relaxed),
            frames_read: self.frames_read.load(Ordering::Relaxed),
            frames_written: self.frames_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            writev_calls: self.writev_calls.load(Ordering::Relaxed),
            pauses: self.pauses.load(Ordering::Relaxed),
            buffered_bytes: self.buffered_bytes.load(Ordering::Relaxed),
            pooled_buffers: pool.pooled() as u64,
            buffer_allocations,
            buffer_reuses,
        }
    }
}

/// Why a connection is being torn down (decides the socket's send-off).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Teardown {
    /// Flushed everything it owed; plain close.
    Finished,
    /// Protocol/I-O failure or chaos reset; both halves are shut down so the
    /// peer observes a reset rather than a lingering half-close.
    Reset,
}

/// One connection's state machine, owned exclusively by the loop thread.
struct ConnState {
    stream: TcpStream,
    handle: Arc<ConnHandle>,
    decoder: FrameDecoder,
    /// Requests decoded while the worker queue was full, waiting to submit.
    pending: VecDeque<(u64, WireRequest)>,
    /// Framed responses awaiting flush; front frame partially written up to
    /// `write_pos`.
    write_queue: VecDeque<Vec<u8>>,
    write_pos: usize,
    /// Total unflushed bytes across `write_queue` (minus `write_pos`).
    queued_bytes: usize,
    read_open: bool,
    /// Flush what is queued, then close (set by the garbage-frame path).
    close_after_flush: bool,
    /// Submission is suspended on a full worker queue; reads stay disarmed.
    paused: bool,
    /// Present in the loop's dirty list (re-arm needed this iteration).
    dirty: bool,
}

/// Slab of connection slots; vacant slots remember the next generation so
/// recycled slots can never satisfy a stale completion.
enum Slot {
    Vacant { next_generation: u64 },
    Occupied(Box<ConnState>),
}

struct Slab {
    slots: Vec<Slot>,
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    fn with_capacity(capacity: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Claims a slot, returning `(slot, generation)` for the handle.
    fn claim(&mut self) -> (usize, u64) {
        if let Some(slot) = self.free.pop() {
            let generation = match self.slots[slot] {
                Slot::Vacant { next_generation } => next_generation,
                Slot::Occupied(_) => unreachable!("free list held an occupied slot"),
            };
            (slot, generation)
        } else {
            self.slots.push(Slot::Vacant { next_generation: 0 });
            (self.slots.len() - 1, 0)
        }
    }

    fn occupy(&mut self, slot: usize, conn: Box<ConnState>) {
        self.slots[slot] = Slot::Occupied(conn);
        self.live += 1;
    }

    /// Releases a claimed-but-never-occupied slot (registration failed).
    fn release(&mut self, slot: usize, generation: u64) {
        self.slots[slot] = Slot::Vacant {
            next_generation: generation + 1,
        };
        self.free.push(slot);
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut ConnState> {
        match self.slots.get_mut(slot) {
            Some(Slot::Occupied(conn)) => Some(conn),
            _ => None,
        }
    }

    fn remove(&mut self, slot: usize) -> Option<Box<ConnState>> {
        match self.slots.get_mut(slot) {
            Some(entry @ Slot::Occupied(_)) => {
                let Slot::Occupied(conn) =
                    std::mem::replace(entry, Slot::Vacant { next_generation: 0 })
                else {
                    unreachable!()
                };
                self.slots[slot] = Slot::Vacant {
                    next_generation: conn.handle.generation + 1,
                };
                self.free.push(slot);
                self.live -= 1;
                Some(conn)
            }
            _ => None,
        }
    }

    fn occupied_slots(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s, Slot::Occupied(_)).then_some(i))
            .collect()
    }
}

/// The loop itself; constructed on the caller's thread (so bind/registration
/// errors surface from `serve`), then moved onto its own thread by `spawn`.
pub(crate) struct EventLoop {
    shared: Arc<ServerShared>,
    listener: TcpListener,
    poller: Arc<Poller>,
    stats: Arc<EventStats>,
    pool: Arc<BufferPool>,
    slab: Slab,
    /// Slots needing an interest re-arm at the end of the iteration.
    dirty: Vec<usize>,
    /// Slots paused on worker-queue backpressure.
    paused: Vec<usize>,
    /// Read scratch, recycled across every connection.
    scratch: Vec<u8>,
}

impl EventLoop {
    /// Registers `listener` with the server's poller. Errors here fail
    /// `serve` before any thread starts.
    pub(crate) fn new(shared: Arc<ServerShared>, listener: TcpListener) -> AftResult<EventLoop> {
        fn unavailable(what: &str, e: io::Error) -> AftError {
            AftError::Unavailable(format!("event loop: {what}: {e}"))
        }
        listener
            .set_nonblocking(true)
            .map_err(|e| unavailable("nonblocking listener", e))?;
        let poller = Arc::clone(&shared.poller);
        poller
            .add(&listener, Event::readable(LISTENER_KEY))
            .map_err(|e| unavailable("register listener", e))?;
        let slab_capacity = shared.config.slab_capacity;
        let stats = Arc::new(EventStats::default());
        let pool = Arc::new(BufferPool::new(READ_CHUNK * 4, slab_capacity.min(4096)));
        let scratch = vec![0u8; READ_CHUNK];
        let slab = Slab::with_capacity(slab_capacity);
        Ok(EventLoop {
            shared,
            listener,
            poller,
            stats,
            pool,
            slab,
            dirty: Vec::new(),
            paused: Vec::new(),
            scratch,
        })
    }

    pub(crate) fn stats(&self) -> Arc<EventStats> {
        Arc::clone(&self.stats)
    }

    pub(crate) fn pool(&self) -> Arc<BufferPool> {
        Arc::clone(&self.pool)
    }

    pub(crate) fn spawn(self) -> JoinHandle<()> {
        std::thread::Builder::new()
            .name("aft-net-io".to_owned())
            .spawn(move || self.run())
            .expect("spawn event loop thread")
    }

    fn run(mut self) {
        let mut events = Events::new();
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            self.drain_completions();
            self.resume_paused();
            self.rearm_dirty();
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            if self.poller.wait(&mut events, None).is_err() {
                break;
            }
            let mut accept_ready = false;
            for event in events.iter() {
                if event.key == LISTENER_KEY {
                    accept_ready = true;
                    continue;
                }
                self.on_conn_event(event);
            }
            if accept_ready {
                self.accept_ready();
            }
        }
        self.teardown_all();
    }

    // ---- accept ---------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.register(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        // Oneshot disarmed the listener when this event fired; re-arm it.
        let _ = self
            .poller
            .modify(&self.listener, Event::readable(LISTENER_KEY));
    }

    fn register(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let (slot, generation) = self.slab.claim();
        if self.poller.add(&stream, Event::readable(slot)).is_err() {
            self.slab.release(slot, generation);
            return;
        }
        let handle = Arc::new(ConnHandle {
            slot,
            generation,
            id: self.shared.next_conn_id.fetch_add(1, Ordering::Relaxed),
            stats: ConnStats::default(),
            open: AtomicBool::new(true),
            inflight: AtomicUsize::new(0),
        });
        self.slab.occupy(
            slot,
            Box::new(ConnState {
                stream,
                handle,
                decoder: FrameDecoder::new(),
                pending: VecDeque::new(),
                write_queue: VecDeque::new(),
                write_pos: 0,
                queued_bytes: 0,
                read_open: true,
                close_after_flush: false,
                paused: false,
                dirty: false,
            }),
        );
        self.shared.stats.record_accept();
        self.stats.conns_open.fetch_add(1, Ordering::Relaxed);
    }

    // ---- per-connection events ------------------------------------------

    fn on_conn_event(&mut self, event: Event) {
        let slot = event.key;
        if self.slab.get_mut(slot).is_none() {
            return;
        }
        self.mark_dirty(slot);
        if event.readable {
            self.do_read(slot);
        }
        if event.writable && self.slab.get_mut(slot).is_some() {
            self.do_write(slot);
        }
    }

    /// Drains the socket into the decoder, then parses + dispatches.
    fn do_read(&mut self, slot: usize) {
        let mut chunk = std::mem::take(&mut self.scratch);
        let mut saw_eof = false;
        let mut failed = false;
        for _ in 0..MAX_READS_PER_EVENT {
            let Some(conn) = self.slab.get_mut(slot) else {
                break;
            };
            if !conn.read_open {
                break;
            }
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    conn.read_open = false;
                    saw_eof = true;
                    break;
                }
                Ok(n) => {
                    self.stats.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
                    conn.decoder.push(&chunk[..n]);
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        self.scratch = chunk;
        if failed {
            self.teardown(slot, Teardown::Reset);
            return;
        }
        if !self.parse_and_dispatch(slot) {
            return;
        }
        if saw_eof {
            let Some(conn) = self.slab.get_mut(slot) else {
                return;
            };
            if conn.decoder.has_partial() {
                // EOF mid-frame: a message was cut in half; same verdict as
                // the blocking `read_frame` path.
                self.teardown(slot, Teardown::Reset);
                return;
            }
            self.maybe_finish(slot);
        }
    }

    /// Pulls complete frames out of the decoder and turns them into jobs.
    /// Returns `false` if the connection was torn down.
    fn parse_and_dispatch(&mut self, slot: usize) -> bool {
        loop {
            let Some(conn) = self.slab.get_mut(slot) else {
                return false;
            };
            if conn.close_after_flush {
                return true;
            }
            match conn.decoder.next_frame() {
                Ok(Some(payload)) => match decode_request(&payload) {
                    Ok((request_id, request)) => {
                        conn.handle.stats.requests.fetch_add(1, Ordering::Relaxed);
                        self.stats.frames_read.fetch_add(1, Ordering::Relaxed);
                        self.submit(slot, request_id, request);
                    }
                    Err(e) => {
                        // A peer speaking garbage gets one error frame and
                        // the door — but only after queued responses flush.
                        self.shared.stats.record_error();
                        let payload = encode_response(0, &WireResponse::Error(e));
                        self.queue_response(slot, &payload);
                        if let Some(conn) = self.slab.get_mut(slot) {
                            conn.close_after_flush = true;
                            conn.read_open = false;
                        }
                        self.do_write(slot);
                        return self.slab.get_mut(slot).is_some();
                    }
                },
                Ok(None) => break,
                Err(_) => {
                    // Framing itself is broken (oversized length prefix):
                    // nothing sensible can be written back.
                    self.shared.stats.record_error();
                    self.teardown(slot, Teardown::Reset);
                    return false;
                }
            }
        }
        if let Some(conn) = self.slab.get_mut(slot) {
            conn.decoder.shed(READ_CHUNK * 4);
        }
        true
    }

    /// Hands one decoded request to the worker pool, or parks it locally
    /// (pausing the connection) when the queue is full.
    fn submit(&mut self, slot: usize, request_id: u64, request: WireRequest) {
        let capacity = self.shared.config.queue_capacity.max(1);
        let admission = self.shared.config.admission_limit;
        let Some(conn) = self.slab.get_mut(slot) else {
            return;
        };
        if conn.paused {
            conn.pending.push_back((request_id, request));
            return;
        }
        let handle = Arc::clone(&conn.handle);
        let mut queue = self.shared.queue.lock();
        if admission > 0
            && queue.depth() >= admission
            && !matches!(request, WireRequest::Commit { .. })
        {
            // Admission control: answer `Overloaded` now, while the client
            // can still usefully back off, instead of parking the request
            // behind a queue that is already too deep. Commits are exempt —
            // the server already executed this transaction's reads, and
            // refusing the commit would convert that work into waste;
            // overload is shed at the pipeline entry (the reads) instead,
            // and commits stay bounded by `queue_capacity` backpressure.
            drop(queue);
            self.shared.stats.record_overload_rejection();
            let payload = encode_response(
                request_id,
                &WireResponse::Error(AftError::Overloaded(
                    "worker queue is full; retry with backoff".to_owned(),
                )),
            );
            self.queue_response(slot, &payload);
            self.do_write(slot);
            return;
        }
        if queue.depth() >= capacity {
            drop(queue);
            conn.paused = true;
            conn.pending.push_back((request_id, request));
            self.stats.pauses.fetch_add(1, Ordering::Relaxed);
            self.mark_dirty(slot);
            if !self.paused.contains(&slot) {
                self.paused.push(slot);
            }
            return;
        }
        handle.inflight.fetch_add(1, Ordering::AcqRel);
        queue.push(Job {
            handle,
            request_id,
            request,
            enqueued: Instant::now(),
        });
        drop(queue);
        self.shared.queue_cv.notify_one();
    }

    /// Moves pending requests of paused connections into freed queue space.
    fn resume_paused(&mut self) {
        if self.paused.is_empty() {
            return;
        }
        let capacity = self.shared.config.queue_capacity.max(1);
        let paused = std::mem::take(&mut self.paused);
        for slot in paused {
            let Some(conn) = self.slab.get_mut(slot) else {
                continue;
            };
            if !conn.paused {
                continue;
            }
            let handle = Arc::clone(&conn.handle);
            let mut submitted = 0usize;
            let mut full = false;
            {
                // Pending requests were already accepted (they pre-date the
                // pause), so resuming them bypasses admission control and
                // contends only with `queue_capacity`.
                let mut queue = self.shared.queue.lock();
                while let Some((request_id, request)) = conn.pending.pop_front() {
                    if queue.depth() >= capacity {
                        conn.pending.push_front((request_id, request));
                        full = true;
                        break;
                    }
                    handle.inflight.fetch_add(1, Ordering::AcqRel);
                    queue.push(Job {
                        handle: Arc::clone(&handle),
                        request_id,
                        request,
                        enqueued: Instant::now(),
                    });
                    submitted += 1;
                }
            }
            for _ in 0..submitted {
                self.shared.queue_cv.notify_one();
            }
            if full {
                self.paused.push(slot);
            } else {
                conn.paused = false;
                self.mark_dirty(slot);
                // Reads resume; anything still undecoded parses next event.
                self.maybe_finish(slot);
            }
        }
    }

    // ---- completions (workers → loop) -----------------------------------

    fn drain_completions(&mut self) {
        loop {
            let batch: VecDeque<Completion> = {
                let mut completions = self.shared.completions.lock();
                if completions.is_empty() {
                    return;
                }
                std::mem::take(&mut *completions)
            };
            for completion in batch {
                self.apply_completion(completion);
            }
        }
    }

    fn apply_completion(&mut self, completion: Completion) {
        let handle = completion.handle;
        handle.inflight.fetch_sub(1, Ordering::AcqRel);
        let slot = handle.slot;
        let live = self
            .slab
            .get_mut(slot)
            .is_some_and(|conn| conn.handle.generation == handle.generation);
        if !live {
            // The connection died first; the response is dropped exactly as
            // a dead TCP peer would drop it. Any commit it carried is in the
            // dedup ledger for the client's retry.
            return;
        }
        match completion.action {
            CompletionAction::Respond(payload) => {
                handle.stats.responses.fetch_add(1, Ordering::Relaxed);
                self.queue_response(slot, &payload);
                self.do_write(slot);
            }
            CompletionAction::Reset => self.teardown(slot, Teardown::Reset),
        }
    }

    // ---- write path ------------------------------------------------------

    /// Frames `payload` into a pooled buffer and queues it on `slot`.
    fn queue_response(&mut self, slot: usize, payload: &[u8]) {
        let mut frame = self.pool.take();
        if frame_into(&mut frame, payload).is_err() {
            // Responses are encoded server-side and never exceed the cap;
            // defensively reset rather than send an unframeable reply.
            self.pool.give(frame);
            self.teardown(slot, Teardown::Reset);
            return;
        }
        let Some(conn) = self.slab.get_mut(slot) else {
            return;
        };
        conn.queued_bytes += frame.len();
        self.stats
            .buffered_bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        conn.write_queue.push_back(frame);
        self.mark_dirty(slot);
    }

    /// Flushes as much of the write queue as the socket accepts, batching
    /// up to [`WRITE_BATCH`] frames per vectored syscall.
    fn do_write(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.slab.get_mut(slot) else {
                return;
            };
            if conn.write_queue.is_empty() {
                break;
            }
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(WRITE_BATCH);
            for (i, frame) in conn.write_queue.iter().take(WRITE_BATCH).enumerate() {
                let from = if i == 0 { conn.write_pos } else { 0 };
                slices.push(IoSlice::new(&frame[from..]));
            }
            match (&conn.stream).write_vectored(&slices) {
                Ok(0) => {
                    self.teardown(slot, Teardown::Reset);
                    return;
                }
                Ok(n) => {
                    self.stats.writev_calls.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .bytes_written
                        .fetch_add(n as u64, Ordering::Relaxed);
                    self.advance_write(slot, n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.teardown(slot, Teardown::Reset);
                    return;
                }
            }
        }
        let (flushed, condemned) = match self.slab.get_mut(slot) {
            Some(conn) => (conn.write_queue.is_empty(), conn.close_after_flush),
            None => return,
        };
        self.mark_dirty(slot);
        if flushed {
            if condemned {
                self.teardown(slot, Teardown::Finished);
                return;
            }
            self.maybe_finish(slot);
        }
    }

    /// Consumes `written` bytes off the front of the write queue, recycling
    /// fully flushed frame buffers.
    fn advance_write(&mut self, slot: usize, written: usize) {
        let mut remaining = written;
        let mut finished_frames = Vec::new();
        {
            let Some(conn) = self.slab.get_mut(slot) else {
                return;
            };
            conn.queued_bytes = conn.queued_bytes.saturating_sub(written);
            while remaining > 0 {
                let Some(front) = conn.write_queue.front() else {
                    break;
                };
                let left = front.len() - conn.write_pos;
                if remaining >= left {
                    remaining -= left;
                    conn.write_pos = 0;
                    if let Some(frame) = conn.write_queue.pop_front() {
                        finished_frames.push(frame);
                    }
                } else {
                    conn.write_pos += remaining;
                    remaining = 0;
                }
            }
        }
        self.stats
            .buffered_bytes
            .fetch_sub(written as u64, Ordering::Relaxed);
        self.stats
            .frames_written
            .fetch_add(finished_frames.len() as u64, Ordering::Relaxed);
        for frame in finished_frames {
            self.pool.give(frame);
        }
    }

    // ---- lifecycle -------------------------------------------------------

    /// Tears the connection down if it owes nothing more: read side closed,
    /// no pending or in-flight requests, write queue flushed.
    fn maybe_finish(&mut self, slot: usize) {
        let Some(conn) = self.slab.get_mut(slot) else {
            return;
        };
        let done = !conn.read_open
            && !conn.decoder.has_partial()
            && conn.pending.is_empty()
            && conn.write_queue.is_empty()
            && conn.handle.inflight.load(Ordering::Acquire) == 0;
        if done {
            self.teardown(slot, Teardown::Finished);
        }
    }

    fn teardown(&mut self, slot: usize, kind: Teardown) {
        let Some(conn) = self.slab.remove(slot) else {
            return;
        };
        let _ = self.poller.delete(&conn.stream);
        if conn.handle.open.swap(false, Ordering::AcqRel) {
            self.shared.stats.record_close();
        }
        if kind == Teardown::Reset {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        self.stats.conns_open.fetch_sub(1, Ordering::Relaxed);
        self.stats
            .buffered_bytes
            .fetch_sub(conn.queued_bytes as u64, Ordering::Relaxed);
        let mut conn = conn;
        for frame in conn.write_queue.drain(..) {
            self.pool.give(frame);
        }
        self.paused.retain(|&s| s != slot);
    }

    fn teardown_all(&mut self) {
        for slot in self.slab.occupied_slots() {
            self.teardown(slot, Teardown::Reset);
        }
        let _ = self.poller.delete(&self.listener);
    }

    // ---- interest management --------------------------------------------

    fn mark_dirty(&mut self, slot: usize) {
        if let Some(conn) = self.slab.get_mut(slot) {
            if !conn.dirty {
                conn.dirty = true;
                self.dirty.push(slot);
            }
        }
    }

    /// Re-registers interest for every connection touched this iteration.
    /// Oneshot delivery disarms a source, so *any* event or state change
    /// requires an explicit `modify` to keep receiving readiness.
    fn rearm_dirty(&mut self) {
        let dirty = std::mem::take(&mut self.dirty);
        for slot in dirty {
            let Some(conn) = self.slab.get_mut(slot) else {
                continue;
            };
            conn.dirty = false;
            // Read interest stops while paused (backpressure), after the
            // read side closed, once the conn is condemned, or while the
            // peer refuses to drain its responses (write throttle).
            let readable = conn.read_open
                && !conn.paused
                && !conn.close_after_flush
                && conn.queued_bytes < WRITE_BUFFER_CAP;
            let writable = !conn.write_queue.is_empty();
            let interest = Event {
                key: slot,
                readable,
                writable,
            };
            if self.poller.modify(&conn.stream, interest).is_err() {
                self.teardown(slot, Teardown::Reset);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_recycles_slots_with_fresh_generations() {
        let mut slab = Slab::with_capacity(4);
        let (slot, generation) = slab.claim();
        assert_eq!((slot, generation), (0, 0));
        slab.occupy(
            slot,
            Box::new(ConnState {
                stream: TcpStream::connect(local_listener().local_addr().unwrap()).unwrap(),
                handle: Arc::new(ConnHandle {
                    slot,
                    generation,
                    id: 0,
                    stats: ConnStats::default(),
                    open: AtomicBool::new(true),
                    inflight: AtomicUsize::new(0),
                }),
                decoder: FrameDecoder::new(),
                pending: VecDeque::new(),
                write_queue: VecDeque::new(),
                write_pos: 0,
                queued_bytes: 0,
                read_open: true,
                close_after_flush: false,
                paused: false,
                dirty: false,
            }),
        );
        assert_eq!(slab.live, 1);
        assert!(slab.remove(slot).is_some());
        assert_eq!(slab.live, 0);
        let (slot2, generation2) = slab.claim();
        assert_eq!(slot2, slot, "slot is recycled");
        assert_eq!(generation2, 1, "generation advanced");
    }

    #[test]
    fn released_slots_are_reusable() {
        let mut slab = Slab::with_capacity(2);
        let (slot, generation) = slab.claim();
        slab.release(slot, generation);
        let (slot2, generation2) = slab.claim();
        assert_eq!(slot2, slot);
        assert_eq!(generation2, generation + 1);
    }

    fn local_listener() -> TcpListener {
        TcpListener::bind("127.0.0.1:0").unwrap()
    }
}
