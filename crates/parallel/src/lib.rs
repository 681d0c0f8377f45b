//! A deterministic, dependency-free parallel execution layer.
//!
//! The experiment harness sweeps placement probabilities, failure rates,
//! seeds and solutions — embarrassingly parallel work that nonetheless must
//! stay **byte-identical** to serial runs: every figure, CSV and telemetry
//! export in this repository is compared across runs (and across `--jobs`
//! counts) by the determinism tests.
//!
//! The contract that makes this safe:
//!
//! 1. Work is expressed as an *indexed* task set `0..tasks`; the task body
//!    is a pure-ish `Fn(usize) -> T` whose output depends only on the task
//!    index (stochastic tasks fork a `DetRng`-style child stream from
//!    their index, never from shared mutable state).
//! 2. Workers pull contiguous index *chunks* from a shared atomic cursor —
//!    scheduling is racy and load-balancing, but results are collected *by
//!    index*, so the returned `Vec<T>` has exactly the order a serial loop
//!    would produce regardless of which worker ran what, in what order.
//! 3. The pool falls back to a plain serial loop on the calling thread —
//!    not even a thread is spawned — whenever parallelism cannot win:
//!    `jobs <= 1`, a single task, more workers than the host has cores
//!    (requests are clamped to [`host_parallelism`]), or a task set whose
//!    estimated total cost ([`TaskCost`]) is below the spawn overhead.
//!    `--jobs 1` is therefore *literally* the serial code path, and
//!    `--jobs N` on a saturated or single-core host degrades to it instead
//!    of losing to contention.
//!
//! The **granularity model**: workers claim chunks sized
//! `remaining / (2 × jobs)` (guided self-scheduling — large chunks early
//! to amortize the atomic cursor and the per-chunk timestamps, shrinking
//! toward [`TaskCost`]-derived minimum chunks so the tail still load
//! balances). Busy time is sampled per *chunk*, not per task, so cheap
//! tasks are not drowned in `Instant::now` calls.
//!
//! No external crates: the pool is built on [`std::thread::scope`], which
//! lets task closures borrow from the caller's stack.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Execution statistics of one [`par_map_stats`] call, for perf tracking
/// (`BENCH_harness.json`) and the `parallel.*` telemetry metrics.
///
/// `busy` sums the per-chunk wall times across all workers; `wall` is the
/// end-to-end duration of the call. `busy / wall` is therefore the
/// *observed* speedup (≈ `jobs` when the task set load-balances well).
#[derive(Clone, Copy, Debug)]
pub struct ParStats {
    /// Number of tasks executed.
    pub tasks: usize,
    /// Worker threads actually used (1 = the serial fast path ran).
    pub jobs: usize,
    /// Worker threads the caller asked for, before clamping to the task
    /// count and [`host_parallelism`]. `jobs < requested` means the pool
    /// fell back (core clamp or [`TaskCost`] threshold).
    pub requested: usize,
    /// End-to-end wall-clock time of the call.
    pub wall: Duration,
    /// Sum of per-chunk execution times across all workers.
    pub busy: Duration,
}

impl ParStats {
    /// Observed speedup: total task time divided by wall-clock time.
    /// Returns 1.0 for degenerate (zero-duration) runs.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            1.0
        } else {
            (self.busy.as_secs_f64() / wall).max(1.0)
        }
    }

    /// Whether the pool ran the serial fast path despite a multi-worker
    /// request — i.e. the "parallel" run *is* the serial code path.
    pub fn serial_fallback(&self) -> bool {
        self.jobs == 1 && self.requested > 1
    }
}

/// A coarse per-task wall-clock estimate, used by the granularity model to
/// (a) skip thread spawning entirely when the whole task set costs less
/// than the spawn overhead and (b) batch trivially cheap tasks into larger
/// claim chunks.
///
/// Estimates only steer scheduling; results are byte-identical whatever
/// the hint says.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskCost {
    /// Estimated wall-clock cost of one task, in nanoseconds.
    pub nanos: u64,
}

impl TaskCost {
    /// No estimate: always worth parallelizing (the historical behaviour
    /// of [`par_map`]), with fine-grained chunking.
    pub const UNKNOWN: TaskCost = TaskCost { nanos: u64::MAX };

    /// An estimate in microseconds per task.
    pub const fn micros(us: u64) -> TaskCost {
        TaskCost {
            nanos: us.saturating_mul(1_000),
        }
    }

    /// An estimate in milliseconds per task.
    pub const fn millis(ms: u64) -> TaskCost {
        TaskCost {
            nanos: ms.saturating_mul(1_000_000),
        }
    }
}

/// Below this estimated *total* cost, spawning workers is guaranteed to
/// lose to the serial loop (thread spawn + join alone costs tens of
/// microseconds per worker), so the pool runs serial.
pub const SERIAL_FALLBACK_NANOS: u64 = 400_000;

/// Target wall-clock per claimed chunk: cheap tasks batch until a chunk is
/// worth roughly this much, amortizing the shared cursor and the per-chunk
/// `Instant` samples.
const CHUNK_TARGET_NANOS: u64 = 50_000;

/// Upper bound on a single claim, so one worker can never run away with
/// the whole tail of a task set.
const MAX_CHUNK: usize = 1024;

/// The process-wide default job count, used by harness entry points whose
/// signatures predate the parallel layer (`render_all`, the figure
/// regenerators). `0` means "unset"; [`default_jobs`] then falls back to
/// the `GEMINI_JOBS` environment variable, then to `1` (serial).
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Test/bench override for [`host_parallelism`]; `0` = use the real value.
static HOST_PARALLELISM_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default job count (the `--jobs` flag of the bench
/// binaries lands here). `0` clears the override.
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::Relaxed);
}

/// The number of hardware threads the host can actually run at once
/// (`std::thread::available_parallelism`, floor 1). Worker requests are
/// clamped to this: oversubscribing a single-core container with two
/// workers is how the figures path historically *lost* to serial.
pub fn host_parallelism() -> usize {
    match HOST_PARALLELISM_OVERRIDE.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Overrides [`host_parallelism`] (tests and benches exercising the
/// parallel path on arbitrary hosts). `0` restores real detection.
#[doc(hidden)]
pub fn set_host_parallelism_override(n: usize) {
    HOST_PARALLELISM_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Reads the `GEMINI_JOBS` environment variable, if set and valid.
pub fn jobs_from_env() -> Option<usize> {
    std::env::var("GEMINI_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&j| j >= 1)
}

/// The effective default job count: the [`set_default_jobs`] override if
/// set, else `GEMINI_JOBS`, else 1 (serial). Serial-by-default keeps unit
/// tests and library consumers on the exact historical code path unless
/// they opt in.
pub fn default_jobs() -> usize {
    match DEFAULT_JOBS.load(Ordering::Relaxed) {
        0 => jobs_from_env().unwrap_or(1),
        j => j,
    }
}

/// Resolves an explicit job request against the defaults: `Some(j)` wins,
/// `None` falls back to [`default_jobs`]. Zero is normalized to 1.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    explicit.unwrap_or_else(default_jobs).max(1)
}

/// Splits `total` items into contiguous `(start, end)` shards of at most
/// `shard_size` items. The shard structure depends only on `(total,
/// shard_size)` — never on the job count — which is what lets sharded
/// Monte-Carlo estimators produce identical sums at any parallelism.
pub fn shard_ranges(total: usize, shard_size: usize) -> Vec<(usize, usize)> {
    let shard_size = shard_size.max(1);
    let mut out = Vec::with_capacity(total.div_ceil(shard_size));
    let mut start = 0;
    while start < total {
        let end = (start + shard_size).min(total);
        out.push((start, end));
        start = end;
    }
    out
}

/// Maps `task(i)` over `0..tasks` with up to `jobs` worker threads and
/// returns the results **in task order** — byte-identical to
/// `(0..tasks).map(task).collect()` regardless of scheduling.
///
/// Panics in a task are propagated to the caller (the scope re-raises
/// them after all workers have stopped).
///
/// # Examples
///
/// ```
/// let squares = gemini_parallel::par_map(4, 8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn par_map<T, F>(jobs: usize, tasks: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_stats(jobs, tasks, task).0
}

/// [`par_map`], additionally returning [`ParStats`] for perf accounting.
pub fn par_map_stats<T, F>(jobs: usize, tasks: usize, task: F) -> (Vec<T>, ParStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_stats_cost(jobs, tasks, TaskCost::UNKNOWN, task)
}

/// [`par_map`] with a per-task cost estimate steering the granularity
/// model: task sets cheaper than the spawn overhead run serially, and
/// trivially cheap tasks are claimed in larger chunks.
pub fn par_map_cost<T, F>(jobs: usize, tasks: usize, cost: TaskCost, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_stats_cost(jobs, tasks, cost, task).0
}

/// [`par_map_cost`], additionally returning [`ParStats`].
pub fn par_map_stats_cost<T, F>(
    jobs: usize,
    tasks: usize,
    cost: TaskCost,
    task: F,
) -> (Vec<T>, ParStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let started = Instant::now();
    let requested = jobs.max(1);
    let jobs = requested.min(tasks.max(1)).min(host_parallelism());
    // Estimated total cost below the spawn overhead ⇒ threads cannot win.
    let too_cheap =
        cost.nanos != u64::MAX && cost.nanos.saturating_mul(tasks as u64) < SERIAL_FALLBACK_NANOS;
    if jobs <= 1 || tasks <= 1 || too_cheap {
        // The serial fast path: the historical code, on the calling thread.
        let out: Vec<T> = (0..tasks).map(&task).collect();
        let wall = started.elapsed();
        return (
            out,
            ParStats {
                tasks,
                jobs: 1,
                requested,
                wall,
                busy: wall,
            },
        );
    }

    // Minimum claim: batch tasks until a chunk is worth ~CHUNK_TARGET.
    let min_chunk = if cost.nanos == u64::MAX {
        1
    } else {
        (CHUNK_TARGET_NANOS / cost.nanos.max(1)).clamp(1, MAX_CHUNK as u64) as usize
    };

    // Shared cursor: workers race to claim the next chunk of indices;
    // results carry their index so collection order is irrelevant.
    let next = AtomicUsize::new(0);
    let busy_nanos = AtomicUsize::new(0);
    // One result bucket per worker, merged by index afterwards. A Mutex
    // around plain Vecs keeps the pool free of unsafe code; it is locked
    // once per worker (at exit), not per task.
    let buckets: Mutex<Vec<Vec<(usize, T)>>> = Mutex::new(Vec::with_capacity(jobs));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let mut local: Vec<(usize, T)> = Vec::new();
                let mut local_busy = 0u128;
                loop {
                    // Guided self-scheduling: claim a fraction of what is
                    // left (large early, shrinking toward min_chunk so the
                    // tail still balances). The load is advisory — racing
                    // claims only change chunk sizes, never correctness.
                    let seen = next.load(Ordering::Relaxed);
                    if seen >= tasks {
                        break;
                    }
                    let chunk = ((tasks - seen) / (2 * jobs)).clamp(min_chunk, MAX_CHUNK);
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= tasks {
                        break;
                    }
                    let end = (start + chunk).min(tasks);
                    let t0 = Instant::now();
                    for i in start..end {
                        local.push((i, task(i)));
                    }
                    local_busy += t0.elapsed().as_nanos();
                }
                busy_nanos.fetch_add(local_busy as usize, Ordering::Relaxed);
                buckets.lock().expect("result bucket poisoned").push(local);
            });
        }
    });

    // Deterministic merge: scatter into index slots.
    let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    for bucket in buckets.into_inner().expect("result bucket poisoned") {
        for (i, value) in bucket {
            debug_assert!(slots[i].is_none(), "task {i} ran twice");
            slots[i] = Some(value);
        }
    }
    let out: Vec<T> = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| panic!("task {i} produced no result")))
        .collect();
    let stats = ParStats {
        tasks,
        jobs,
        requested,
        wall: started.elapsed(),
        busy: Duration::from_nanos(busy_nanos.load(Ordering::Relaxed) as u64),
    };
    (out, stats)
}

/// Maps a fallible task over `0..tasks`, short-circuiting on the first
/// error *by task index* (the lowest-indexed error wins, matching what a
/// serial loop would have returned even though later tasks may already
/// have run).
pub fn try_par_map<T, E, F>(jobs: usize, tasks: usize, task: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let results = par_map(jobs, tasks, task);
    // Deterministic error selection: first failing index.
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

/// The lifecycle of one in-flight computation inside a [`SingleFlight`].
enum FlightState<V> {
    /// The leader is still computing; followers wait on the condvar.
    Pending,
    /// The leader finished; followers clone this value.
    Done(V),
    /// The leader panicked before producing a value; followers fall back
    /// to computing independently (no dedup, but no deadlock either).
    Abandoned,
}

type FlightSlot<V> = Arc<(Mutex<FlightState<V>>, Condvar)>;

/// Collapses *concurrent* identical computations: while a computation for
/// key `K` is in flight, every other caller with the same key blocks and
/// receives a clone of the leader's result instead of recomputing.
///
/// This is deduplication, not caching — once the leader completes, the key
/// is forgotten and the next caller computes afresh. Long-lived memoization
/// belongs in a cache in front of this; `SingleFlight` only shields a
/// service from redundant work when many tenants ask the same expensive
/// question *at the same moment*.
///
/// Determinism: callers receive a clone of the value the leader computed,
/// so as long as the computation itself is a pure function of the key, the
/// responses are byte-identical whether a caller led, followed, or ran
/// alone. Only the [`dedup_hits`](SingleFlight::dedup_hits) /
/// [`executions`](SingleFlight::executions) telemetry counters are
/// timing-dependent.
///
/// A leader that panics marks its slot abandoned and
/// wakes all followers, which then compute independently — a malformed
/// computation can never strand other tenants on a condvar.
pub struct SingleFlight<K: Ord + Clone, V: Clone> {
    slots: Mutex<BTreeMap<K, FlightSlot<V>>>,
    executions: AtomicU64,
    dedup_hits: AtomicU64,
}

impl<K: Ord + Clone, V: Clone> Default for SingleFlight<K, V> {
    fn default() -> Self {
        SingleFlight::new()
    }
}

/// Restores a slot to a follower-safe state if the leader unwinds before
/// publishing a value.
struct AbandonGuard<'a, K: Ord + Clone, V: Clone> {
    flight: &'a SingleFlight<K, V>,
    key: &'a K,
    slot: &'a FlightSlot<V>,
    armed: bool,
}

impl<K: Ord + Clone, V: Clone> Drop for AbandonGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let (lock, cv) = &**self.slot;
        *lock.lock().expect("single-flight slot poisoned") = FlightState::Abandoned;
        cv.notify_all();
        self.flight
            .slots
            .lock()
            .expect("single-flight map poisoned")
            .remove(self.key);
    }
}

impl<K: Ord + Clone, V: Clone> SingleFlight<K, V> {
    /// An empty single-flight group.
    pub const fn new() -> SingleFlight<K, V> {
        SingleFlight {
            slots: Mutex::new(BTreeMap::new()),
            executions: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
        }
    }

    /// Runs `compute` for `key`, deduplicating against concurrent callers:
    /// exactly one caller (the leader) executes `compute`; the rest block
    /// and receive a clone of its result. Returns the value plus `true` if
    /// this caller was the leader.
    pub fn run<F: FnOnce() -> V>(&self, key: K, compute: F) -> (V, bool) {
        let existing = {
            let mut slots = self.slots.lock().expect("single-flight map poisoned");
            match slots.get(&key) {
                Some(slot) => Some(Arc::clone(slot)),
                None => {
                    let slot: FlightSlot<V> =
                        Arc::new((Mutex::new(FlightState::Pending), Condvar::new()));
                    slots.insert(key.clone(), Arc::clone(&slot));
                    drop(slots);
                    let mut guard = AbandonGuard {
                        flight: self,
                        key: &key,
                        slot: &slot,
                        armed: true,
                    };
                    let value = compute();
                    {
                        let (lock, cv) = &*slot;
                        *lock.lock().expect("single-flight slot poisoned") =
                            FlightState::Done(value.clone());
                        cv.notify_all();
                    }
                    self.slots
                        .lock()
                        .expect("single-flight map poisoned")
                        .remove(&key);
                    guard.armed = false;
                    self.executions.fetch_add(1, Ordering::Relaxed);
                    return (value, true);
                }
            }
        };
        // Follower: wait for the leader's verdict.
        let slot = existing.expect("follower always has a slot");
        let (lock, cv) = &*slot;
        let mut state = lock.lock().expect("single-flight slot poisoned");
        loop {
            match &*state {
                FlightState::Pending => {
                    state = cv.wait(state).expect("single-flight slot poisoned");
                }
                FlightState::Done(v) => {
                    self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    return (v.clone(), false);
                }
                FlightState::Abandoned => {
                    drop(state);
                    // The leader unwound: compute independently rather
                    // than deadlock or re-enter (no dedup for this call).
                    self.executions.fetch_add(1, Ordering::Relaxed);
                    return (compute(), false);
                }
            }
        }
    }

    /// How many times a computation actually executed (leaders, plus
    /// followers that recovered from an abandoned leader).
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::Relaxed)
    }

    /// How many callers were served a leader's result instead of
    /// recomputing — the work the dedup saved.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits.load(Ordering::Relaxed)
    }

    /// Number of computations currently in flight.
    pub fn in_flight(&self) -> usize {
        self.slots.lock().expect("single-flight map poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Pool tests force a generous core budget so the parallel code path
    /// is exercised even on single-core CI containers; the clamp itself is
    /// tested separately. The override is monotonic (never lowered below a
    /// concurrently-running test's expectation) and only widens the paths
    /// other tests may take — byte-identity holds on all of them.
    fn with_cores<R>(n: usize, f: impl FnOnce() -> R) -> R {
        set_host_parallelism_override(n);
        let r = f();
        set_host_parallelism_override(0);
        r
    }

    #[test]
    fn results_are_in_task_order() {
        for jobs in [1, 2, 3, 8, 32] {
            let out = with_cores(8, || par_map(jobs, 100, |i| i * 3));
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_tasks_is_empty() {
        let out: Vec<usize> = par_map(4, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_are_clamped_to_tasks() {
        let (_, stats) = par_map_stats(64, 3, |i| i);
        assert!(stats.jobs <= 3);
        assert_eq!(stats.tasks, 3);
        assert_eq!(stats.requested, 64);
    }

    #[test]
    fn jobs_are_clamped_to_host_cores() {
        let (_, stats) = with_cores(2, || par_map_stats(16, 64, |i| i));
        assert!(stats.jobs <= 2, "jobs={}", stats.jobs);
        assert_eq!(stats.requested, 16);
        // On a (forced) single-core host a multi-worker request runs the
        // serial path and says so.
        let (_, stats) = with_cores(1, || par_map_stats(4, 64, |i| i));
        assert_eq!(stats.jobs, 1);
        assert!(stats.serial_fallback());
    }

    #[test]
    fn serial_fast_path_reports_one_job() {
        let (_, stats) = par_map_stats(1, 10, |i| i);
        assert_eq!(stats.jobs, 1);
        assert!(!stats.serial_fallback());
        assert!(stats.speedup() >= 1.0);
    }

    #[test]
    fn cheap_task_sets_fall_back_to_serial() {
        // 100 tasks × 1µs ≈ 100µs — far below the spawn overhead.
        let (out, stats) = with_cores(8, || {
            par_map_stats_cost(8, 100, TaskCost::micros(1), |i| i + 1)
        });
        assert_eq!(stats.jobs, 1);
        assert!(stats.serial_fallback());
        assert_eq!(out, (1..=100).collect::<Vec<_>>());
        // The same set with an expensive estimate does spawn workers.
        let (_, stats) = with_cores(8, || {
            par_map_stats_cost(8, 100, TaskCost::millis(5), |i| i + 1)
        });
        assert!(stats.jobs > 1, "jobs={}", stats.jobs);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = with_cores(8, || {
            par_map(8, 1000, |i| {
                counter.fetch_add(1, Ordering::Relaxed);
                i
            })
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
        assert!(out.iter().enumerate().all(|(i, &v)| i == v));
    }

    #[test]
    fn chunked_claiming_covers_ragged_sizes() {
        // Sizes that do not divide evenly into chunks, with cost hints
        // driving every min_chunk regime.
        for tasks in [2usize, 3, 5, 63, 64, 65, 1023, 2048] {
            for cost in [TaskCost::UNKNOWN, TaskCost::micros(1), TaskCost::millis(50)] {
                let out = with_cores(4, || par_map_cost(4, tasks, cost, |i| i * 7));
                assert_eq!(
                    out,
                    (0..tasks).map(|i| i * 7).collect::<Vec<_>>(),
                    "tasks={tasks} cost={cost:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_serial_bytewise() {
        // A stochastic-looking task: a splitmix hash of the index. Any
        // divergence between job counts would show immediately.
        let h = |i: usize| {
            let mut z = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 27)
        };
        let serial = par_map(1, 257, h);
        for jobs in [2, 4, 7, 16] {
            let par = with_cores(8, || par_map(jobs, 257, h));
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn try_par_map_returns_lowest_index_error() {
        let r: Result<Vec<usize>, usize> = with_cores(4, || {
            try_par_map(4, 100, |i| if i % 30 == 17 { Err(i) } else { Ok(i) })
        });
        assert_eq!(r, Err(17));
        let ok: Result<Vec<usize>, usize> = try_par_map(4, 10, Ok);
        assert_eq!(ok.unwrap().len(), 10);
    }

    #[test]
    fn shard_ranges_cover_exactly() {
        for (total, size) in [(0, 10), (1, 10), (10, 3), (4096, 1024), (1000, 1)] {
            let shards = shard_ranges(total, size);
            let mut expect = 0;
            for &(s, e) in &shards {
                assert_eq!(s, expect);
                assert!(e > s && e - s <= size.max(1));
                expect = e;
            }
            assert_eq!(expect, total);
        }
        // Shard structure is independent of any job count by construction.
        assert_eq!(shard_ranges(10_000, 1024).len(), 10);
    }

    #[test]
    fn default_jobs_resolution_order() {
        set_default_jobs(0);
        // Environment may or may not be set in the test runner; explicit
        // override always wins.
        set_default_jobs(6);
        assert_eq!(default_jobs(), 6);
        assert_eq!(resolve_jobs(None), 6);
        assert_eq!(resolve_jobs(Some(2)), 2);
        assert_eq!(resolve_jobs(Some(0)), 1);
        set_default_jobs(0);
    }

    #[test]
    fn single_flight_collapses_concurrent_identical_keys() {
        let flight: SingleFlight<u64, u64> = SingleFlight::new();
        let computed = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(8);
        let results: Vec<(u64, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        flight.run(42, || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            // Hold the flight open long enough for every
                            // sibling to arrive as a follower.
                            std::thread::sleep(Duration::from_millis(100));
                            999
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|(v, _)| *v == 999));
        let leaders = results.iter().filter(|(_, led)| *led).count();
        assert_eq!(leaders as u64, flight.executions());
        assert_eq!(flight.dedup_hits(), 8 - flight.executions());
        // With a 100ms flight and a barrier start, at least one caller
        // must have followed rather than led.
        assert!(flight.dedup_hits() > 0, "no dedup observed");
        assert_eq!(computed.load(Ordering::Relaxed) as u64, flight.executions());
        assert_eq!(flight.in_flight(), 0);
    }

    #[test]
    fn single_flight_is_dedup_not_cache() {
        let flight: SingleFlight<&'static str, usize> = SingleFlight::new();
        let computed = AtomicUsize::new(0);
        let make = || {
            flight
                .run("k", || computed.fetch_add(1, Ordering::Relaxed) + 1)
                .0
        };
        assert_eq!(make(), 1);
        assert_eq!(make(), 2, "sequential calls must recompute");
        assert_eq!(flight.executions(), 2);
        assert_eq!(flight.dedup_hits(), 0);
    }

    #[test]
    fn single_flight_distinct_keys_run_independently() {
        let flight: SingleFlight<u64, u64> = SingleFlight::new();
        let out: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|k| {
                    let flight = &flight;
                    scope.spawn(move || flight.run(k, move || k * 10).0)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
        assert_eq!(flight.executions(), 4);
    }

    #[test]
    fn single_flight_abandoned_leader_does_not_strand_followers() {
        let flight: Arc<SingleFlight<u64, u64>> = Arc::new(SingleFlight::new());
        let entered = Arc::new(std::sync::Barrier::new(2));
        let leader = {
            let flight = Arc::clone(&flight);
            let entered = Arc::clone(&entered);
            std::thread::spawn(move || {
                let _ = flight.run(7, || {
                    entered.wait();
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("leader dies mid-flight");
                });
            })
        };
        entered.wait(); // the leader is inside its computation now
        let (value, led) = flight.run(7, || 123);
        assert_eq!(value, 123, "follower must recover by computing itself");
        assert!(!led);
        assert!(leader.join().is_err(), "leader thread should have panicked");
        assert_eq!(flight.in_flight(), 0);
    }

    #[test]
    fn stats_busy_accumulates() {
        let (_, stats) = with_cores(4, || {
            par_map_stats(4, 64, |i| {
                // ~50µs of real work per task.
                let mut acc = i as u64;
                for k in 0..20_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                std::hint::black_box(acc)
            })
        });
        assert_eq!(stats.tasks, 64);
        // Timing is noisy under a loaded test runner; only the structural
        // properties are asserted.
        assert!(stats.busy.as_nanos() > 0, "busy={:?}", stats.busy);
        assert!(stats.speedup() >= 1.0);
    }
}
