//! Pipelined storage I/O: a submission/completion engine.
//!
//! AFT's real implementation hides storage round trips by issuing requests
//! concurrently — §3.3 only requires that all of a transaction's data writes
//! are durable *before* its commit record, never that they land one after
//! another. The blocking [`StorageEngine`] trait cannot express that: an
//! 8-key commit over a backend without a batch API pays nine sequential
//! round trips. This module adds the missing layer:
//!
//! * [`StorageRequest`] — one storage operation as a value (get / put /
//!   batched put / delete / batched delete / list).
//! * [`IoEngine::submit`] — issue a request, get back a pollable
//!   [`IoTicket`]; [`IoEngine::submit_all`] returns a [`CompletionSet`]
//!   whose `wait_all` is the barrier callers place between a transaction's
//!   data writes and its commit-record append.
//! * For backends whose simulated latency is client-observed network time
//!   ([`StorageEngine::supports_deferred_latency`]), `submit` runs the
//!   operation **on the submitting thread** under
//!   [`latency::capture_deferred`]: the data-plane effect applies
//!   immediately and the sampled delay is *not* slept. With nothing to defer
//!   (in-memory storage, `Virtual` latency mode) the ticket is complete when
//!   `submit` returns; otherwise the completion is scheduled on a hashed
//!   **timer wheel**, so one thread keeps hundreds of requests in flight,
//!   exactly like an async client over a real network, and the requests of
//!   one batch overlap in wall time. No thread hand-off sits on this path.
//! * A **worker pool** serves only backends that model service-side
//!   occupancy (e.g. [`crate::SimShardedService`]'s request lanes): those
//!   requests execute blocking on a worker, and overlap is bounded by the
//!   worker count. An engine over a deferrable backend spawns no workers,
//!   and its timer thread starts on the first non-zero deferral.
//! * **Overlap accounting for the virtual clock**: every completion carries
//!   the simulated latency it charged, and a [`CompletionSet`] charges the
//!   batch one *wave* at a time — the **maximum** of each
//!   [`IoEngine::overlap_window`]-sized chunk, summed across chunks. A batch
//!   that fits the window costs its slowest member; a sequential engine
//!   (window 1) charges the plain sum. This is how `LatencyMode::Virtual`
//!   experiments observe pipelining without sleeping, without ever
//!   undercharging a batch larger than the engine's real concurrency.
//!
//! [`IoConfig::sequential()`] (zero workers) executes every request inline
//! at `submit`, reproducing the historical one-round-trip-at-a-time
//! behaviour through the same API — the baseline every pipelined experiment
//! compares against. [`SequentialEngine`] is the matching storage-side
//! wrapper: it forces per-key API calls (no batching) so the baseline also
//! pays full sequential round-trip charging inside `put_batch`.
//!
//! A note on simulation fidelity: a deferred operation's data-plane effect is
//! visible in the backend *before* its completion fires, as if the service
//! applied the write mid-flight. AFT never depends on the opposite — data
//! is invisible until a commit record references it, and the record is only
//! submitted after every data completion has fired.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aft_types::{AftResult, Value};
use parking_lot::{Condvar, Mutex};

use crate::engine::{SharedStorage, StorageEngine};
use crate::latency::{capture_deferred, measure_cost};

/// Op-level retry policy for transient storage faults.
///
/// Cloud stores drop, throttle, and time out individual requests as a matter
/// of course; AFT's storage writes are idempotent (every key version lands
/// at a unique storage key, §3.1), so the right place to absorb those faults
/// is the submission path itself. A request that fails with
/// [`aft_types::AftError::is_transient_storage`] is re-issued up to
/// `max_attempts` times with exponential backoff; the backoff is *charged to
/// the operation's simulated cost* (and, for deferred completions, added to
/// the completion delay), so the PR 3 overlap accounting sees retries as
/// what they are — a slower operation — without any thread sleeping through
/// a virtual-clock experiment. Only exhaustion surfaces the typed
/// [`aft_types::AftError::StorageTransient`] error to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Total attempts per request (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before attempt `n+1` is `base_backoff << (n-1)`, capped at
    /// [`RetryConfig::max_backoff`].
    pub base_backoff: Duration,
    /// Upper bound of a single backoff step.
    pub max_backoff: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 4,
            base_backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(20),
        }
    }
}

impl RetryConfig {
    /// No retries: transient faults propagate on the first failure.
    pub fn disabled() -> Self {
        RetryConfig {
            max_attempts: 1,
            ..RetryConfig::default()
        }
    }

    /// Overrides the attempt budget (clamped to ≥ 1).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// The backoff charged before retrying after attempt `attempt` (1-based)
    /// failed.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        let stepped = self.base_backoff.saturating_mul(1u32 << shift);
        stepped.min(self.max_backoff)
    }
}

/// Tuning for an [`IoEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoConfig {
    /// The engine's concurrency. `0` is the sequential configuration: every
    /// request executes at `submit`, one at a time, and a batch charges the
    /// sum of its members. Otherwise requests overlap; worker threads are
    /// spawned (this many) only for blocking, service-occupancy backends,
    /// whose overlap they bound. Deferrable backends run requests on the
    /// submitting thread and need no workers.
    pub workers: usize,
    /// Maximum requests in flight (submitted, completion not yet fired);
    /// `submit` blocks once the limit is reached, like a bounded device
    /// queue.
    pub max_in_flight: usize,
    /// Resolution of the deferred-completion timer wheel.
    pub wheel_tick: Duration,
    /// Slot count of the timer wheel.
    pub wheel_slots: usize,
    /// Op-level retry policy for transient storage faults.
    pub retry: RetryConfig,
}

impl Default for IoConfig {
    fn default() -> Self {
        Self::pipelined()
    }
}

impl IoConfig {
    /// The standard pipelined configuration: 8 workers (for blocking
    /// backends), a deep in-flight window and a 100 µs wheel tick.
    pub fn pipelined() -> Self {
        IoConfig {
            workers: 8,
            max_in_flight: 256,
            wheel_tick: Duration::from_micros(100),
            wheel_slots: 128,
            retry: RetryConfig::default(),
        }
    }

    /// The explicitly-sequential configuration: no workers, requests execute
    /// inline one at a time and a batch charges the *sum* of its members.
    pub fn sequential() -> Self {
        IoConfig {
            workers: 0,
            max_in_flight: 1,
            wheel_tick: Duration::from_micros(100),
            wheel_slots: 1,
            retry: RetryConfig::default(),
        }
    }

    /// Overrides the worker count (`0` = sequential).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the in-flight window (clamped to ≥ 1).
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight.max(1);
        self
    }

    /// Overrides the transient-fault retry policy.
    pub fn with_retry(mut self, retry: RetryConfig) -> Self {
        self.retry = retry;
        self
    }
}

/// One storage operation, as a submittable value.
#[derive(Debug, Clone)]
pub enum StorageRequest {
    /// Read one key.
    Get(String),
    /// Write one key.
    Put(String, Value),
    /// Write several keys through the backend's batch API (the backend
    /// decides how many API calls that takes).
    PutBatch(Vec<(String, Value)>),
    /// Delete one key.
    Delete(String),
    /// Delete several keys through the backend's batch API.
    DeleteBatch(Vec<String>),
    /// List all keys with a prefix.
    List(String),
}

/// The successful result of a [`StorageRequest`].
#[derive(Debug, Clone)]
pub enum StorageResponse {
    /// A `Get`'s value (or `None` for a missing key).
    Value(Option<Value>),
    /// A write or delete completed.
    Done,
    /// A `List`'s keys, in lexicographic order.
    Keys(Vec<String>),
}

impl StorageResponse {
    /// The value of a `Get` response; `None` for any other kind.
    pub fn into_value(self) -> Option<Value> {
        match self {
            StorageResponse::Value(v) => v,
            _ => None,
        }
    }

    /// The keys of a `List` response; empty for any other kind.
    pub fn into_keys(self) -> Vec<String> {
        match self {
            StorageResponse::Keys(keys) => keys,
            _ => Vec::new(),
        }
    }
}

/// A completed request: its result plus the simulated latency it charged.
#[derive(Debug)]
pub struct IoOutcome {
    /// The operation's result.
    pub result: AftResult<StorageResponse>,
    /// Simulated latency the operation charged (meaningful in both latency
    /// modes; in `Virtual` mode it is the only observable cost).
    pub cost: Duration,
}

type Ready = (AftResult<StorageResponse>, Duration);

/// Shared completion slot between a submitter and the side that fires it
/// later (a worker or the timer wheel).
struct Completion {
    state: Mutex<Option<Ready>>,
    cond: Condvar,
}

impl Completion {
    fn new() -> Arc<Self> {
        Arc::new(Completion {
            state: Mutex::new(None),
            cond: Condvar::new(),
        })
    }

    fn fire(&self, result: AftResult<StorageResponse>, cost: Duration) {
        *self.state.lock() = Some((result, cost));
        self.cond.notify_all();
    }

    fn wait(&self) -> Ready {
        let mut state = self.state.lock();
        loop {
            if let Some(ready) = state.take() {
                return ready;
            }
            self.cond.wait(&mut state);
        }
    }
}

enum TicketState {
    /// Completed at `submit`: the result travels in the ticket itself.
    Ready(Ready),
    /// Fired later by a worker or the timer wheel.
    Pending(Arc<Completion>),
}

/// A pollable handle for one submitted request.
pub struct IoTicket {
    state: TicketState,
}

impl IoTicket {
    fn ready(result: AftResult<StorageResponse>, cost: Duration) -> Self {
        IoTicket {
            state: TicketState::Ready((result, cost)),
        }
    }

    fn pending(completion: Arc<Completion>) -> Self {
        IoTicket {
            state: TicketState::Pending(completion),
        }
    }

    /// Returns true once the request's completion has fired.
    pub fn is_complete(&self) -> bool {
        match &self.state {
            TicketState::Ready(_) => true,
            TicketState::Pending(completion) => completion.state.lock().is_some(),
        }
    }

    /// Blocks until the completion fires and returns it.
    pub fn wait(self) -> IoOutcome {
        let (result, cost) = match self.state {
            TicketState::Ready(ready) => ready,
            TicketState::Pending(completion) => completion.wait(),
        };
        IoOutcome { result, cost }
    }
}

/// The completions of one submitted batch.
pub struct CompletionSet {
    tickets: Vec<IoTicket>,
    /// The engine's overlap window at submission time (1 = sequential).
    window: usize,
}

impl CompletionSet {
    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.tickets.len()
    }

    /// Returns true for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.tickets.is_empty()
    }

    /// Barrier: waits for every member and returns the batch outcome.
    pub fn wait_all(self) -> BatchOutcome {
        let mut results = Vec::with_capacity(self.tickets.len());
        let mut costs = Vec::with_capacity(self.tickets.len());
        for ticket in self.tickets {
            let outcome = ticket.wait();
            results.push(outcome.result);
            costs.push(outcome.cost);
        }
        // Overlap accounting, bounded by the engine's real concurrency: at
        // most `window` members are in flight together, so the batch is
        // charged one wave at a time — the max of each window-sized chunk,
        // summed across chunks. A sequential engine (window 1) degenerates to
        // the plain sum; a batch that fits the window costs its slowest
        // member.
        let window = self.window.max(1);
        let cost = costs
            .chunks(window)
            .map(|wave| wave.iter().copied().max().unwrap_or(Duration::ZERO))
            .sum();
        BatchOutcome {
            results,
            costs,
            cost,
        }
    }
}

/// The outcome of a [`CompletionSet::wait_all`] barrier.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-member results, in submission order.
    pub results: Vec<AftResult<StorageResponse>>,
    /// Per-member charged latencies, in submission order.
    pub costs: Vec<Duration>,
    /// The batch's charged latency: the sum over window-sized waves of each
    /// wave's slowest member. With everything in one window that is the max
    /// of the members; with a sequential engine (window 1) it is the sum.
    pub cost: Duration,
}

impl BatchOutcome {
    /// Returns the batch cost if every member succeeded, or the first error.
    pub fn ok(self) -> AftResult<Duration> {
        for result in self.results {
            result?;
        }
        Ok(self.cost)
    }

    /// Returns every member's response if all succeeded, plus the batch
    /// cost; or the first error.
    pub fn into_responses(self) -> AftResult<(Vec<StorageResponse>, Duration)> {
        let mut responses = Vec::with_capacity(self.results.len());
        for result in self.results {
            responses.push(result?);
        }
        Ok((responses, self.cost))
    }
}

/// Point-in-time counters of an [`IoEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Requests submitted.
    pub submitted: u64,
    /// Completions fired.
    pub completed: u64,
    /// Completions that went through the timer wheel (deferred latency).
    pub deferred: u64,
    /// Requests executed on the submitting thread rather than a worker:
    /// every request of the sequential configuration and every request to a
    /// deferrable backend (whose completion may still be deferred).
    pub inline: u64,
    /// Highest in-flight depth observed.
    pub peak_in_flight: u64,
    /// Transient-fault retries performed by the submission path.
    pub retries: u64,
    /// Requests whose retry budget was exhausted (the typed transient error
    /// propagated to the caller).
    pub retry_exhausted: u64,
}

#[derive(Debug, Default)]
struct IoStatsInner {
    submitted: AtomicU64,
    completed: AtomicU64,
    deferred: AtomicU64,
    inline: AtomicU64,
    peak_in_flight: AtomicU64,
    retries: AtomicU64,
    retry_exhausted: AtomicU64,
}

struct Job {
    request: StorageRequest,
    completion: Arc<Completion>,
}

struct EngineState {
    queue: VecDeque<Job>,
    in_flight: usize,
    shutdown: bool,
}

struct Inner {
    storage: SharedStorage,
    config: IoConfig,
    /// Whether the backend's latency may be deferred to the timer wheel.
    deferrable: bool,
    state: Mutex<EngineState>,
    /// Signals workers that the queue is non-empty (or shutdown).
    work_cond: Condvar,
    /// Signals submitters that in-flight depth dropped below the window.
    space_cond: Condvar,
    wheel: TimerWheel,
    stats: IoStatsInner,
}

impl Inner {
    /// Issues one attempt of `request`. Borrowed, so a retry can re-issue
    /// it; only a batched put, whose API takes its items by value, copies.
    fn execute_request(&self, request: &StorageRequest) -> AftResult<StorageResponse> {
        let storage = &self.storage;
        match request {
            StorageRequest::Get(key) => storage.get(key).map(StorageResponse::Value),
            StorageRequest::Put(key, value) => storage
                .put(key, value.clone())
                .map(|()| StorageResponse::Done),
            StorageRequest::PutBatch(items) => storage
                .put_batch(items.clone())
                .map(|()| StorageResponse::Done),
            StorageRequest::Delete(key) => storage.delete(key).map(|()| StorageResponse::Done),
            StorageRequest::DeleteBatch(keys) => {
                storage.delete_batch(keys).map(|()| StorageResponse::Done)
            }
            StorageRequest::List(prefix) => storage.list_prefix(prefix).map(StorageResponse::Keys),
        }
    }

    /// Executes `request`, absorbing transient storage faults per the retry
    /// policy. Returns the final result plus the total backoff charged; the
    /// failed attempts' own sampled latency accumulates in the ambient
    /// [`measure_cost`]/[`capture_deferred`] scope like any other charge.
    fn execute_with_retry(
        &self,
        request: StorageRequest,
    ) -> (AftResult<StorageResponse>, Duration) {
        let retry = self.config.retry;
        let mut backoff_total = Duration::ZERO;
        let mut attempt = 1u32;
        loop {
            let result = self.execute_request(&request);
            match &result {
                Err(e) if e.is_transient_storage() && attempt < retry.max_attempts => {
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    backoff_total += retry.backoff_for(attempt);
                    attempt += 1;
                }
                Err(e) if e.is_transient_storage() => {
                    self.stats.retry_exhausted.fetch_add(1, Ordering::Relaxed);
                    return (result, backoff_total);
                }
                _ => return (result, backoff_total),
            }
        }
    }

    /// Takes an in-flight slot, blocking while the window is full.
    fn acquire_slot(&self) -> InFlightSlot<'_> {
        let mut state = self.state.lock();
        while state.in_flight >= self.config.max_in_flight {
            self.space_cond.wait(&mut state);
        }
        state.in_flight += 1;
        let depth = state.in_flight as u64;
        drop(state);
        self.stats
            .peak_in_flight
            .fetch_max(depth, Ordering::Relaxed);
        InFlightSlot { inner: self }
    }

    fn release_slot(&self) {
        let mut state = self.state.lock();
        state.in_flight = state.in_flight.saturating_sub(1);
        drop(state);
        self.space_cond.notify_all();
    }

    /// Fires a completion and releases its in-flight slot. The counter and
    /// the slot are updated *before* the completion fires: a thread that
    /// returns from `wait()` must observe its own request as completed.
    fn finish(&self, completion: &Completion, result: AftResult<StorageResponse>, cost: Duration) {
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        self.release_slot();
        completion.fire(result, cost);
    }

    /// One worker's execution of one job. Only service-occupancy backends
    /// reach the workers, and they keep exact blocking semantics: the worker
    /// is busy for the whole service time.
    fn run_job(&self, job: Job) {
        let ((result, backoff), charged) = measure_cost(|| self.execute_with_retry(job.request));
        self.finish(&job.completion, result, charged + backoff);
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            let job = {
                let mut state = self.state.lock();
                loop {
                    if let Some(job) = state.queue.pop_front() {
                        break job;
                    }
                    if state.shutdown {
                        return;
                    }
                    self.work_cond.wait(&mut state);
                }
            };
            self.run_job(job);
        }
    }
}

/// One taken in-flight slot, given back on drop — so a storage call that
/// panics on the submitting thread unwinds without shrinking the window.
struct InFlightSlot<'a> {
    inner: &'a Inner,
}

impl InFlightSlot<'_> {
    /// Passes the slot to a completion fired later by a worker or the timer
    /// wheel; [`Inner::finish`] gives it back then.
    fn hand_off(self) {
        std::mem::forget(self);
    }
}

impl Drop for InFlightSlot<'_> {
    fn drop(&mut self) {
        self.inner.release_slot();
    }
}

/// A deferred completion waiting on the timer wheel.
struct Fired {
    inner: Arc<Inner>,
    completion: Arc<Completion>,
    result: AftResult<StorageResponse>,
    cost: Duration,
}

impl Fired {
    fn fire(self) {
        self.inner.finish(&self.completion, self.result, self.cost);
    }
}

struct Scheduled {
    /// Absolute wheel tick at which the entry fires. Congruent to its slot
    /// index mod the slot count, so the cursor's pass over the slot at
    /// exactly this tick (or a later revolution, for long delays) delivers
    /// it — an entry is never parked for a spurious extra revolution.
    deadline_tick: u64,
    payload: Fired,
}

struct WheelState {
    slots: Vec<Vec<Scheduled>>,
    /// Ticks consumed so far (cursor = current_tick % slots). Fast-forwarded
    /// to the wall clock whenever the wheel goes from empty to non-empty, so
    /// idle time is never replayed tick by tick.
    current_tick: u64,
    pending: usize,
    shutdown: bool,
}

/// A hashed timer wheel delivering deferred completions.
///
/// Entries carry an absolute deadline tick and hash to `deadline_tick %
/// slots`; delays longer than one revolution simply stay in their slot until
/// the cursor's tick count reaches the deadline. The engine starts the timer
/// thread on the first deferral and the thread parks while the wheel is
/// empty, so engines over backends that never defer (in-memory, `Virtual`
/// mode) have no timer thread at all. Precision is one tick, biased early:
/// the deadline is rounded *down* to a tick boundary, mirroring how the
/// blocking path treats sub-overhead sleeps as free — firing up to one tick
/// early compensates the timed-wait overshoot of the host.
struct TimerWheel {
    tick: Duration,
    state: Mutex<WheelState>,
    cond: Condvar,
    epoch: Instant,
}

impl TimerWheel {
    fn new(tick: Duration, slots: usize) -> Self {
        let tick = tick.max(Duration::from_micros(10));
        TimerWheel {
            tick,
            state: Mutex::new(WheelState {
                slots: (0..slots.max(1)).map(|_| Vec::new()).collect(),
                current_tick: 0,
                pending: 0,
                shutdown: false,
            }),
            cond: Condvar::new(),
            epoch: Instant::now(),
        }
    }

    /// The absolute tick the wall clock had reached at `at` (rounded down).
    fn wall_tick(&self, at: Instant) -> u64 {
        (at.saturating_duration_since(self.epoch).as_nanos() / self.tick.as_nanos()) as u64
    }

    fn schedule(&self, delay: Duration, payload: Fired) {
        let now = Instant::now();
        let mut state = self.state.lock();
        if state.pending == 0 {
            // Empty wheel: jump the cursor to the present so the timer
            // thread's catch-up never replays the idle gap tick by tick.
            state.current_tick = self.wall_tick(now);
        }
        // Rounded down, but always strictly in the future of the cursor so
        // the next pass delivers it.
        let deadline_tick = self.wall_tick(now + delay).max(state.current_tick + 1);
        let slot = (deadline_tick % state.slots.len() as u64) as usize;
        state.slots[slot].push(Scheduled {
            deadline_tick,
            payload,
        });
        state.pending += 1;
        drop(state);
        self.cond.notify_all();
    }

    fn timer_loop(&self) {
        let mut state = self.state.lock();
        loop {
            if state.shutdown {
                // Unblock any remaining waiters: their results are already
                // computed, only the simulated delay is cut short.
                let leftovers: Vec<Scheduled> =
                    state.slots.iter_mut().flat_map(std::mem::take).collect();
                state.pending = 0;
                drop(state);
                for entry in leftovers {
                    entry.payload.fire();
                }
                return;
            }
            if state.pending == 0 {
                self.cond.wait(&mut state);
                continue;
            }
            let _ = self.cond.wait_for(&mut state, self.tick);
            if state.shutdown {
                continue;
            }
            // Advance to the tick the wall clock has reached (wait_for may
            // overshoot; catching up keeps the wheel drift-free).
            let target_tick = self.wall_tick(Instant::now());
            let mut due: Vec<Fired> = Vec::new();
            while state.current_tick < target_tick {
                state.current_tick += 1;
                let tick_now = state.current_tick;
                let cursor = (tick_now % state.slots.len() as u64) as usize;
                let slot = &mut state.slots[cursor];
                let mut i = 0;
                while i < slot.len() {
                    if slot[i].deadline_tick <= tick_now {
                        due.push(slot.swap_remove(i).payload);
                    } else {
                        // A later revolution's entry; leave it in place.
                        i += 1;
                    }
                }
            }
            state.pending -= due.len().min(state.pending);
            if !due.is_empty() {
                drop(state);
                for payload in due {
                    payload.fire();
                }
                state = self.state.lock();
            }
        }
    }

    fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.cond.notify_all();
    }
}

/// The pipelined storage I/O engine: an in-flight window, a timer wheel for
/// deferred completions, and a worker pool for blocking backends. See the
/// module docs.
pub struct IoEngine {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    /// Started on the first deferred completion.
    timer: OnceLock<JoinHandle<()>>,
}

impl IoEngine {
    /// Creates an engine over `storage`. Workers are spawned only for a
    /// pipelined engine over a blocking backend; the timer thread starts
    /// lazily, so an engine over in-memory storage runs no threads at all.
    pub fn new(storage: SharedStorage, config: IoConfig) -> Self {
        let deferrable = storage.supports_deferred_latency();
        let inner = Arc::new(Inner {
            deferrable,
            wheel: TimerWheel::new(config.wheel_tick, config.wheel_slots),
            state: Mutex::new(EngineState {
                queue: VecDeque::new(),
                in_flight: 0,
                shutdown: false,
            }),
            work_cond: Condvar::new(),
            space_cond: Condvar::new(),
            stats: IoStatsInner::default(),
            storage,
            config: IoConfig {
                max_in_flight: config.max_in_flight.max(1),
                ..config
            },
        });
        let workers = if deferrable {
            Vec::new()
        } else {
            (0..config.workers)
                .map(|_| {
                    let inner = Arc::clone(&inner);
                    std::thread::spawn(move || inner.worker_loop())
                })
                .collect()
        };
        IoEngine {
            inner,
            workers,
            timer: OnceLock::new(),
        }
    }

    /// The engine's storage backend.
    pub fn storage(&self) -> &SharedStorage {
        &self.inner.storage
    }

    /// The engine's tuning.
    pub fn config(&self) -> IoConfig {
        self.inner.config
    }

    /// Whether requests overlap or run one at a time (the sequential
    /// configuration, `workers == 0`).
    pub fn is_pipelined(&self) -> bool {
        self.inner.config.workers > 0
    }

    /// How many requests can truly be in flight together: the in-flight
    /// window for deferrable backends (their completions wait on the timer
    /// wheel, not on a thread), the worker count for blocking backends, and
    /// 1 for the sequential configuration. Batch cost accounting uses this
    /// so the virtual clock never undercharges a batch larger than the
    /// overlap the engine actually provides.
    pub fn overlap_window(&self) -> usize {
        let config = &self.inner.config;
        if config.workers == 0 {
            1
        } else if self.inner.deferrable {
            config.max_in_flight
        } else {
            config.workers.min(config.max_in_flight)
        }
    }

    /// Point-in-time engine counters.
    pub fn stats(&self) -> IoStatsSnapshot {
        let s = &self.inner.stats;
        IoStatsSnapshot {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            deferred: s.deferred.load(Ordering::Relaxed),
            inline: s.inline.load(Ordering::Relaxed),
            peak_in_flight: s.peak_in_flight.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
            retry_exhausted: s.retry_exhausted.load(Ordering::Relaxed),
        }
    }

    /// Submits one request and returns its completion ticket. Blocks while
    /// the in-flight window is full (bounded queue depth).
    ///
    /// A deferrable backend's request runs here, on the calling thread; its
    /// ticket is complete on return unless the operation sampled a delay
    /// to wait out (`Sleep` mode), which the timer wheel then delivers. A
    /// blocking backend's request is queued for a worker.
    pub fn submit(&self, request: StorageRequest) -> IoTicket {
        let inner = &*self.inner;
        inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
        if !self.is_pipelined() {
            // Sequential path: execute inline, charging the full round trip
            // (and any retry backoff) on the calling thread.
            inner.stats.inline.fetch_add(1, Ordering::Relaxed);
            let ((result, backoff), charged) = measure_cost(|| inner.execute_with_retry(request));
            inner.stats.completed.fetch_add(1, Ordering::Relaxed);
            return IoTicket::ready(result, charged + backoff);
        }
        let slot = inner.acquire_slot();
        if !inner.deferrable {
            let completion = Completion::new();
            slot.hand_off();
            inner.state.lock().queue.push_back(Job {
                request,
                completion: Arc::clone(&completion),
            });
            inner.work_cond.notify_one();
            return IoTicket::pending(completion);
        }
        inner.stats.inline.fetch_add(1, Ordering::Relaxed);
        let ((result, backoff), cost) = capture_deferred(|| inner.execute_with_retry(request));
        // Retry backoff is part of the operation's simulated duration:
        // charge it, and push a deferred completion out by it too.
        let charged = cost.charged + backoff;
        if cost.deferred.is_zero() {
            inner.stats.completed.fetch_add(1, Ordering::Relaxed);
            drop(slot);
            return IoTicket::ready(result, charged);
        }
        // The sampled network delay was suppressed; deliver the completion
        // when it would really have arrived.
        inner.stats.deferred.fetch_add(1, Ordering::Relaxed);
        self.timer.get_or_init(|| {
            let inner = Arc::clone(&self.inner);
            std::thread::spawn(move || inner.wheel.timer_loop())
        });
        let completion = Completion::new();
        slot.hand_off();
        inner.wheel.schedule(
            cost.deferred + backoff,
            Fired {
                inner: Arc::clone(&self.inner),
                completion: Arc::clone(&completion),
                result,
                cost: charged,
            },
        );
        IoTicket::pending(completion)
    }

    /// Submits a batch of requests and returns their completion set.
    pub fn submit_all(&self, requests: impl IntoIterator<Item = StorageRequest>) -> CompletionSet {
        CompletionSet {
            tickets: requests.into_iter().map(|r| self.submit(r)).collect(),
            window: self.overlap_window(),
        }
    }

    /// Submits one request and waits for it.
    pub fn execute(&self, request: StorageRequest) -> IoOutcome {
        self.submit(request).wait()
    }

    /// Durably writes every item, overlapping the round trips, and returns
    /// the batch's charged latency.
    ///
    /// Backends with a native batch API get one `PutBatch` request (their
    /// own call-count limits apply); backends without one get one `Put` per
    /// item — the same API calls a sequential client would make, issued
    /// concurrently.
    pub fn put_all(&self, mut items: Vec<(String, Value)>) -> AftResult<Duration> {
        match items.len() {
            0 => Ok(Duration::ZERO),
            1 => {
                let (key, value) = items.pop().expect("len checked");
                let outcome = self.execute(StorageRequest::Put(key, value));
                outcome.result.map(|_| outcome.cost)
            }
            _ if self.inner.storage.supports_batch_put() => {
                let outcome = self.execute(StorageRequest::PutBatch(items));
                outcome.result.map(|_| outcome.cost)
            }
            _ => self
                .submit_all(items.into_iter().map(|(k, v)| StorageRequest::Put(k, v)))
                .wait_all()
                .ok(),
        }
    }

    /// Reads every key, overlapping the round trips; the responses come back
    /// in submission order.
    pub fn get_all(&self, keys: impl IntoIterator<Item = String>) -> CompletionSet {
        self.submit_all(keys.into_iter().map(StorageRequest::Get))
    }
}

impl Drop for IoEngine {
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock();
            state.shutdown = true;
        }
        self.inner.work_cond.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.inner.wheel.shutdown();
        if let Some(timer) = self.timer.take() {
            let _ = timer.join();
        }
    }
}

impl std::fmt::Debug for IoEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoEngine")
            .field("config", &self.inner.config)
            .field("pipelined", &self.is_pipelined())
            .field("deferrable", &self.inner.deferrable)
            .finish_non_exhaustive()
    }
}

/// A storage wrapper that forces fully sequential, per-key API calls.
///
/// `put_batch` and `delete_batch` degrade to one single-key call per item,
/// each paying its full round trip, and `supports_batch_put` is false — the
/// exact behaviour of the pre-pipelining implementation. Pair it with
/// [`IoConfig::sequential()`] for the baseline leg of pipelining
/// experiments; the pipelined backends themselves now charge concurrent
/// batches the max of their samples, so this wrapper is the only place
/// sequential full-RTT charging survives.
pub struct SequentialEngine {
    inner: SharedStorage,
}

impl SequentialEngine {
    /// Wraps `inner` in the sequential shell.
    pub fn new(inner: SharedStorage) -> Arc<Self> {
        Arc::new(SequentialEngine { inner })
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &SharedStorage {
        &self.inner
    }
}

impl StorageEngine for SequentialEngine {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn get(&self, key: &str) -> AftResult<Option<Value>> {
        self.inner.get(key)
    }

    fn put(&self, key: &str, value: Value) -> AftResult<()> {
        self.inner.put(key, value)
    }

    fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
        for (key, value) in items {
            self.inner.put(&key, value)?;
        }
        Ok(())
    }

    fn delete(&self, key: &str) -> AftResult<()> {
        self.inner.delete(key)
    }

    fn delete_batch(&self, keys: &[String]) -> AftResult<()> {
        for key in keys {
            self.inner.delete(key)?;
        }
        Ok(())
    }

    fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>> {
        self.inner.list_prefix(prefix)
    }

    fn supports_batch_put(&self) -> bool {
        false
    }

    fn supports_deferred_latency(&self) -> bool {
        self.inner.supports_deferred_latency()
    }

    fn stats(&self) -> Arc<crate::counters::StorageStats> {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{LatencyMode, LatencyModel, LatencyProfile};
    use crate::memory::InMemoryStore;
    use crate::profiles::ServiceProfile;
    use crate::s3::SimS3;
    use bytes::Bytes;

    fn val(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn s3_virtual() -> SharedStorage {
        SimS3::with_profile(
            ServiceProfile::s3(),
            LatencyModel::new(LatencyMode::Virtual, 1.0),
            7,
        )
    }

    #[test]
    fn submit_round_trips_through_a_memory_backend() {
        let engine = IoEngine::new(InMemoryStore::shared(), IoConfig::pipelined());
        assert!(engine.is_pipelined());
        let put = engine.execute(StorageRequest::Put("k".into(), val("v")));
        assert!(put.result.is_ok());
        let got = engine.execute(StorageRequest::Get("k".into()));
        assert_eq!(got.result.unwrap().into_value().unwrap(), val("v"));
        let missing = engine.execute(StorageRequest::Get("nope".into()));
        assert!(missing.result.unwrap().into_value().is_none());
        let stats = engine.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
    }

    /// Forwards to a backend, records the thread each call ran on, and
    /// panics on a write of the key `"boom"`.
    struct Probe {
        inner: SharedStorage,
        threads: Mutex<Vec<std::thread::ThreadId>>,
    }

    impl Probe {
        fn wrap(inner: SharedStorage) -> Arc<Self> {
            Arc::new(Probe {
                inner,
                threads: Mutex::new(Vec::new()),
            })
        }

        fn record(&self) {
            self.threads.lock().push(std::thread::current().id());
        }

        fn threads(&self) -> Vec<std::thread::ThreadId> {
            self.threads.lock().clone()
        }
    }

    impl StorageEngine for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }

        fn get(&self, key: &str) -> AftResult<Option<Value>> {
            self.record();
            self.inner.get(key)
        }

        fn put(&self, key: &str, value: Value) -> AftResult<()> {
            self.record();
            assert_ne!(key, "boom", "storage call panicked");
            self.inner.put(key, value)
        }

        fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
            self.record();
            self.inner.put_batch(items)
        }

        fn delete(&self, key: &str) -> AftResult<()> {
            self.record();
            self.inner.delete(key)
        }

        fn delete_batch(&self, keys: &[String]) -> AftResult<()> {
            self.record();
            self.inner.delete_batch(keys)
        }

        fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>> {
            self.record();
            self.inner.list_prefix(prefix)
        }

        fn supports_batch_put(&self) -> bool {
            self.inner.supports_batch_put()
        }

        fn supports_deferred_latency(&self) -> bool {
            self.inner.supports_deferred_latency()
        }

        fn stats(&self) -> Arc<crate::counters::StorageStats> {
            self.inner.stats()
        }
    }

    #[test]
    fn non_blocking_storage_runs_on_the_submitting_thread() {
        let dynamo: SharedStorage = crate::dynamo::SimDynamo::with_profile(
            ServiceProfile::dynamodb(),
            LatencyModel::new(LatencyMode::Virtual, 1.0),
            7,
        );
        for backend in [InMemoryStore::shared() as SharedStorage, dynamo] {
            let recorder = Probe::wrap(backend);
            let engine = IoEngine::new(
                Arc::clone(&recorder) as SharedStorage,
                IoConfig::pipelined(),
            );
            assert!(engine.is_pipelined());
            let ticket = engine.submit(StorageRequest::Put("k".into(), val("v")));
            assert!(ticket.is_complete(), "nothing to defer: done at submit");
            assert!(ticket.wait().result.is_ok());
            assert_eq!(recorder.threads(), vec![std::thread::current().id()]);
            let stats = engine.stats();
            assert_eq!((stats.inline, stats.deferred, stats.completed), (1, 0, 1));
            assert!(engine.workers.is_empty(), "no worker pool is spawned");
            assert!(engine.timer.get().is_none(), "no timer thread either");
        }
    }

    #[test]
    fn sleep_mode_storage_runs_on_the_submitting_thread_and_defers() {
        let profile = ServiceProfile {
            write: LatencyProfile::new(2_000.0, 2_000.0),
            ..ServiceProfile::zero()
        };
        let storage: SharedStorage =
            SimS3::with_profile(profile, LatencyModel::new(LatencyMode::Sleep, 1.0), 3);
        let recorder = Probe::wrap(storage);
        let engine = IoEngine::new(
            Arc::clone(&recorder) as SharedStorage,
            IoConfig::pipelined(),
        );
        let outcome = engine.execute(StorageRequest::Put("k".into(), val("v")));
        assert!(outcome.result.is_ok());
        assert_eq!(outcome.cost, Duration::from_millis(2));
        assert_eq!(recorder.threads(), vec![std::thread::current().id()]);
        let stats = engine.stats();
        assert_eq!((stats.inline, stats.deferred, stats.completed), (1, 1, 1));
        assert!(engine.timer.get().is_some(), "the first deferral starts it");
    }

    #[test]
    fn blocking_storage_runs_on_a_worker_thread() {
        let service: SharedStorage = crate::service::SimShardedService::with_stripes(
            ServiceProfile::zero(),
            LatencyModel::new(LatencyMode::Virtual, 1.0),
            5,
            2,
        );
        let recorder = Probe::wrap(service);
        let engine = IoEngine::new(
            Arc::clone(&recorder) as SharedStorage,
            IoConfig::pipelined().with_workers(3),
        );
        assert_eq!(engine.overlap_window(), 3, "bounded by the worker count");
        let outcome = engine
            .submit_all((0..8).map(|i| StorageRequest::Put(format!("k{i}"), val("v"))))
            .wait_all();
        assert!(outcome.ok().is_ok());
        let caller = std::thread::current().id();
        let threads = recorder.threads();
        assert_eq!(threads.len(), 8);
        assert!(threads.iter().all(|t| *t != caller), "workers run them");
        let stats = engine.stats();
        assert_eq!((stats.inline, stats.deferred, stats.completed), (0, 0, 8));
        assert_eq!(engine.workers.len(), 3);
    }

    #[test]
    fn a_panicking_storage_call_gives_back_its_in_flight_slot() {
        // A window of one: a slot leaked by the panic would block the next
        // submit forever.
        let engine = Arc::new(IoEngine::new(
            Probe::wrap(InMemoryStore::shared()),
            IoConfig::pipelined().with_max_in_flight(1),
        ));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.submit(StorageRequest::Put("boom".into(), val("v")))
        }));
        assert!(panicked.is_err(), "the panic reaches the submitter");

        let (tx, rx) = std::sync::mpsc::channel();
        let next = Arc::clone(&engine);
        let submitter = std::thread::spawn(move || {
            let outcome = next.execute(StorageRequest::Put("k".into(), val("v")));
            let _ = tx.send(outcome.result.is_ok());
        });
        let ok = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the next submit must not wait on a leaked slot");
        assert!(ok);
        submitter.join().expect("the submitter finished");
        assert_eq!(engine.stats().completed, 1);
    }

    #[test]
    fn sequential_config_executes_inline() {
        let engine = IoEngine::new(InMemoryStore::shared(), IoConfig::sequential());
        assert!(!engine.is_pipelined());
        let ticket = engine.submit(StorageRequest::Put("k".into(), val("v")));
        assert!(ticket.is_complete(), "inline execution completes at submit");
        assert!(ticket.wait().result.is_ok());
        assert_eq!(engine.stats().inline, 1);
    }

    #[test]
    fn list_and_delete_requests_work() {
        let engine = IoEngine::new(InMemoryStore::shared(), IoConfig::pipelined());
        engine
            .submit_all((0..4).map(|i| StorageRequest::Put(format!("data/{i}"), val("x"))))
            .wait_all()
            .ok()
            .unwrap();
        let listed = engine.execute(StorageRequest::List("data/".into()));
        assert_eq!(listed.result.unwrap().into_keys().len(), 4);
        engine
            .execute(StorageRequest::Delete("data/0".into()))
            .result
            .unwrap();
        engine
            .execute(StorageRequest::DeleteBatch(vec![
                "data/1".into(),
                "data/2".into(),
            ]))
            .result
            .unwrap();
        let listed = engine.execute(StorageRequest::List("data/".into()));
        assert_eq!(listed.result.unwrap().into_keys(), vec!["data/3"]);
    }

    #[test]
    fn pipelined_batch_charges_max_sequential_charges_sum() {
        // A fixed 10ms write latency makes the accounting exact: 8 overlapped
        // puts charge one round trip, 8 sequential puts charge eight.
        let profile = ServiceProfile {
            write: LatencyProfile::new(10_000.0, 10_000.0),
            ..ServiceProfile::zero()
        };
        let fixed_s3 = |seed| -> SharedStorage {
            SimS3::with_profile(profile, LatencyModel::new(LatencyMode::Virtual, 1.0), seed)
        };
        let items: Vec<(String, Value)> = (0..8).map(|i| (format!("k{i}"), val("v"))).collect();

        let pipelined = IoEngine::new(fixed_s3(7), IoConfig::pipelined());
        let pipe_cost = pipelined.put_all(items.clone()).unwrap();

        let sequential = IoEngine::new(
            SequentialEngine::new(fixed_s3(7)) as SharedStorage,
            IoConfig::sequential(),
        );
        let seq_cost = sequential.put_all(items).unwrap();

        assert!(
            pipe_cost >= Duration::from_millis(9) && pipe_cost <= Duration::from_millis(11),
            "pipelined batch charges the max: {pipe_cost:?}"
        );
        assert!(
            seq_cost >= Duration::from_millis(79) && seq_cost <= Duration::from_millis(81),
            "sequential batch charges the sum: {seq_cost:?}"
        );
    }

    #[test]
    fn batch_cost_is_charged_in_window_sized_waves() {
        // A fixed 10ms write and an overlap window of 2: six puts cannot all
        // overlap, so the batch charges three waves — 30ms, not 10ms.
        let profile = ServiceProfile {
            write: LatencyProfile::new(10_000.0, 10_000.0),
            ..ServiceProfile::zero()
        };
        let storage: SharedStorage =
            SimS3::with_profile(profile, LatencyModel::new(LatencyMode::Virtual, 1.0), 3);
        let engine = IoEngine::new(storage, IoConfig::pipelined().with_max_in_flight(2));
        assert_eq!(engine.overlap_window(), 2);
        let outcome = engine
            .submit_all((0..6).map(|i| StorageRequest::Put(format!("k{i}"), val("v"))))
            .wait_all();
        let cost = outcome.ok().unwrap();
        assert!(
            cost >= Duration::from_millis(29) && cost <= Duration::from_millis(32),
            "3 waves x 10ms expected, got {cost:?}"
        );
    }

    #[test]
    fn batch_outcome_reports_per_member_costs() {
        let engine = IoEngine::new(s3_virtual(), IoConfig::pipelined());
        let outcome = engine
            .submit_all((0..4).map(|i| StorageRequest::Put(format!("k{i}"), val("v"))))
            .wait_all();
        assert_eq!(outcome.costs.len(), 4);
        let max = outcome.costs.iter().copied().max().unwrap();
        assert_eq!(outcome.cost, max, "pipelined batch cost is the max member");
        assert!(outcome.ok().is_ok());
    }

    #[test]
    fn deferred_completions_overlap_wall_clock_sleeps() {
        // Four 20ms S3 writes, pipelined: the batch completes in roughly one
        // write's wall time because the sleeps are deferred to the wheel and
        // overlap. Generous bounds keep this stable on loaded hosts.
        let profile = ServiceProfile {
            write: LatencyProfile::new(20_000.0, 20_000.0),
            ..ServiceProfile::zero()
        };
        let storage: SharedStorage =
            SimS3::with_profile(profile, LatencyModel::new(LatencyMode::Sleep, 1.0), 3);
        let engine = IoEngine::new(storage, IoConfig::pipelined());
        let items: Vec<(String, Value)> = (0..4).map(|i| (format!("k{i}"), val("v"))).collect();
        let start = Instant::now();
        engine.put_all(items).unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(15),
            "completions must still wait out the latency, took {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_millis(60),
            "four 20ms writes must overlap, took {elapsed:?}"
        );
        assert!(engine.stats().deferred >= 4);
    }

    #[test]
    fn in_flight_window_applies_backpressure_without_losing_requests() {
        let engine = IoEngine::new(
            s3_virtual(),
            IoConfig::pipelined().with_workers(2).with_max_in_flight(2),
        );
        let outcome = engine
            .submit_all((0..16).map(|i| StorageRequest::Put(format!("k{i}"), val("v"))))
            .wait_all();
        assert!(outcome.ok().is_ok());
        let stats = engine.stats();
        assert_eq!(stats.completed, 16);
        assert!(stats.peak_in_flight <= 2);
    }

    #[test]
    fn sequential_engine_forces_per_key_calls() {
        use crate::counters::OpKind;
        let raw = s3_virtual();
        let wrapped = SequentialEngine::new(Arc::clone(&raw) as SharedStorage);
        assert!(!wrapped.supports_batch_put());
        assert!(wrapped.supports_deferred_latency());
        assert_eq!(wrapped.name(), "sequential");
        wrapped
            .put_batch(vec![("a".into(), val("1")), ("b".into(), val("2"))])
            .unwrap();
        wrapped.delete_batch(&["a".into(), "b".into()]).unwrap();
        let stats = wrapped.stats();
        assert_eq!(stats.calls(OpKind::Put), 2);
        assert_eq!(stats.calls(OpKind::Delete), 2);
        assert_eq!(stats.calls(OpKind::BatchPut), 0);
        assert_eq!(stats.calls(OpKind::BatchDelete), 0);
    }

    #[test]
    fn transient_faults_are_absorbed_by_retry() {
        use crate::chaos::FaultyBackend;
        use crate::latency::LatencyModel;
        use aft_chaos::{ChaosSpec, StorageChaos};
        // ~30% transient errors: with 4 attempts per op the chance of any of
        // 32 puts exhausting is ~0.8%^… negligible for a fixed seed; verify
        // the workload completes, retries were actually performed, and the
        // final state is intact.
        let backend: SharedStorage = FaultyBackend::from_spec(
            InMemoryStore::shared(),
            &ChaosSpec::new(0xC4A05).storage(StorageChaos::transient_errors(0.3)),
            LatencyModel::new(LatencyMode::Virtual, 1.0),
        );
        let engine = IoEngine::new(backend, IoConfig::pipelined());
        let outcome = engine
            .submit_all((0..32).map(|i| StorageRequest::Put(format!("k{i}"), val("v"))))
            .wait_all();
        outcome.ok().expect("retries must absorb transient faults");
        let listed = engine.execute(StorageRequest::List("k".into()));
        assert_eq!(listed.result.unwrap().into_keys().len(), 32);
        let stats = engine.stats();
        assert!(stats.retries > 0, "a 30% fault rate must trigger retries");
        assert_eq!(stats.retry_exhausted, 0);
    }

    #[test]
    fn retry_exhaustion_surfaces_the_typed_error() {
        use crate::chaos::FaultyBackend;
        use crate::latency::LatencyModel;
        use aft_chaos::{ChaosSpec, StorageChaos};
        use aft_types::AftError;
        // Every operation fails: the budget exhausts and the typed error
        // propagates — no panic, no untyped failure.
        let backend: SharedStorage = FaultyBackend::from_spec(
            InMemoryStore::shared(),
            &ChaosSpec::new(7).storage(StorageChaos::transient_errors(1.0)),
            LatencyModel::new(LatencyMode::Virtual, 1.0),
        );
        let engine = IoEngine::new(
            backend,
            IoConfig::pipelined().with_retry(RetryConfig::default().with_max_attempts(3)),
        );
        let outcome = engine.execute(StorageRequest::Put("k".into(), val("v")));
        match outcome.result {
            Err(AftError::StorageTransient(_)) => {}
            other => panic!("expected StorageTransient after exhaustion, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.retries, 2, "3 attempts = 2 retries");
        assert_eq!(stats.retry_exhausted, 1);
    }

    #[test]
    fn retry_backoff_is_charged_to_the_operation_cost() {
        use crate::chaos::FaultyBackend;
        use crate::latency::LatencyModel;
        use aft_chaos::{ChaosSpec, StorageChaos};
        // Zero-latency inner store, 100% fault rate, 4 attempts: the only
        // cost is the three backoff steps (0.5 + 1 + 2 ms with the default
        // policy).
        let backend: SharedStorage = FaultyBackend::from_spec(
            InMemoryStore::shared(),
            &ChaosSpec::new(7).storage(StorageChaos::transient_errors(1.0)),
            LatencyModel::new(LatencyMode::Virtual, 1.0),
        );
        let engine = IoEngine::new(backend, IoConfig::sequential());
        let outcome = engine.execute(StorageRequest::Get("k".into()));
        assert!(outcome.result.is_err());
        assert!(
            outcome.cost >= Duration::from_micros(3_400)
                && outcome.cost <= Duration::from_micros(3_600),
            "0.5+1+2 ms of backoff expected, got {:?}",
            outcome.cost
        );
    }

    #[test]
    fn backoff_schedule_grows_and_caps() {
        let retry = RetryConfig::default();
        assert_eq!(retry.backoff_for(1), Duration::from_micros(500));
        assert_eq!(retry.backoff_for(2), Duration::from_millis(1));
        assert_eq!(retry.backoff_for(3), Duration::from_millis(2));
        assert_eq!(retry.backoff_for(10), Duration::from_millis(20), "capped");
        assert_eq!(RetryConfig::disabled().max_attempts, 1);
        assert_eq!(
            RetryConfig::default().with_max_attempts(0).max_attempts,
            1,
            "clamped"
        );
    }

    #[test]
    fn batched_deletes_overlap_via_submit_all() {
        // The shape GlobalGc uses: one DeleteBatch request per transaction,
        // submitted together and barriered, with per-member results.
        let engine = IoEngine::new(s3_virtual(), IoConfig::pipelined());
        for i in 0..6 {
            engine
                .execute(StorageRequest::Put(format!("k{i}"), val("v")))
                .result
                .unwrap();
        }
        let outcome = engine
            .submit_all([
                StorageRequest::DeleteBatch(vec!["k0".into(), "k1".into()]),
                StorageRequest::DeleteBatch(vec!["k2".into(), "k3".into()]),
                StorageRequest::DeleteBatch(vec!["k4".into(), "k5".into()]),
            ])
            .wait_all();
        assert_eq!(outcome.results.len(), 3);
        let cost = outcome.ok().unwrap();
        assert!(cost > Duration::ZERO);
        let listed = engine.execute(StorageRequest::List("k".into()));
        assert!(listed.result.unwrap().into_keys().is_empty());
    }
}
