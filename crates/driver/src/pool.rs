//! A work-stealing `std::thread` scheduler for batch verification.
//!
//! The build environment is offline, so the driver cannot depend on `rayon`
//! or `crossbeam`; this module implements the classic per-worker-deque
//! scheme over `std` primitives:
//!
//! * jobs are dealt round-robin into per-worker deques up front (a
//!   deterministic initial distribution);
//! * each worker pops from the *front* of its own deque (FIFO for locality
//!   of neighbouring corpus files, which tend to share memoizable
//!   structure) and, when empty, steals from the *back* of a victim's
//!   deque, scanning victims cyclically from its right-hand neighbour;
//! * results land in pre-allocated per-job slots, so the output order is
//!   the input order **regardless of which worker ran what** — the
//!   scheduling is free to race, the aggregation is deterministic.
//!
//! Verification workloads are wildly uneven (a looping `check` spec costs
//! orders of magnitude more than a straight-line `prove`), which is exactly
//! the imbalance work-stealing absorbs: a worker that drew five cheap specs
//! drains its deque and relieves the worker stuck on the expensive one.
//!
//! Two executors share that scheme:
//!
//! * **resident** ([`WorkerPool`], [`resident`]): a process-lifetime pool
//!   of threads parked on a condvar between submissions. [`run_ordered`]
//!   submits here, so the batch phases (stage → discharge → finish), every
//!   file of a batch, sharded replays and every daemon request reuse the
//!   same threads instead of respawning a burst per call. Concurrent
//!   submissions share one global queue: each pool thread claims a role
//!   in *every* in-flight submission and sweeps them round-robin, one job
//!   per submission per sweep, so a small daemon request interleaves with
//!   a huge one instead of queueing behind it (continuous batching).
//! * **burst** ([`run_ordered_burst`], [`run_ordered_exact`]): a scoped
//!   spawn of fresh threads for one call — the pre-pool behaviour, kept as
//!   the differential baseline (the byte-identity suites assert burst and
//!   resident runs render identically) and for benchmarking the churn the
//!   resident pool removes.
//!
//! Both executors deal, steal and aggregate identically, so which one ran
//! is invisible in any deterministic output — only stderr scheduling
//! counters and wall-clock differ.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Tunes glibc malloc for repeated short-lived worker bursts. Call once,
/// early in `main`, **before the first pool spawns** — `mallopt` only
/// affects arenas and thresholds from that point on.
///
/// Three knobs, all aimed at the same failure mode — the allocator
/// returning pages to the kernel between pool bursts only to fault them
/// straight back in:
///
/// * **arena count capped at the core count.** glibc creates up to
///   `8 × cores` thread-local arenas, one per simultaneously allocating
///   thread. Burst workers are short-lived — a [`run_ordered_burst`] call
///   spawns a fresh scoped set — so under the default cap each burst
///   attaches to its own set of arenas, and the pages those arenas trimmed
///   when the previous burst's heaps drained are minor-faulted in all over
///   again. The resident [`WorkerPool`] removes that churn at the source
///   (the same threads and arenas serve every submission); the tuning
///   stays as defence for the burst path and for short-lived one-shot
///   processes. Measured on the driver corpus (1000 entries, one core, glibc
///   2.36), an 8-worker pass re-faulted ~44k pages (~70 ms of fault
///   service) on *every* pass, while the single-worker path — which stays
///   on the main `sbrk` arena — faulted almost nothing after warm-up. One
///   arena per *core* (rather than per short-lived thread) keeps
///   allocation scalable on genuinely parallel machines while ending the
///   churn.
/// * **trim threshold raised to 128 MiB.** Even a capped arena shrinks its
///   heap top back to the kernel whenever a burst's worth of frees drains
///   it; the next burst pays the faults again (a residual ~2–4k
///   pages/pass). Verification batches are short-lived processes with a
///   bounded working set — keeping freed pages mapped trades transient RSS
///   for never re-faulting them.
/// * **mmap threshold pinned at 32 MiB** (the ceiling glibc's dynamic
///   adjustment would reach). Setting the trim threshold disables that
///   dynamic adjustment, which would otherwise leave large state-set
///   buffers on the mmap/munmap path — each cycle an unmap and a refault.
///
/// Returns `true` when the tuning was applied; a no-op returning `false`
/// on non-glibc targets, where thread-arena behaviour differs and the
/// default allocator is left alone.
#[allow(unsafe_code)]
pub fn tune_allocator() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // From glibc's malloc.h.
        const M_TRIM_THRESHOLD: core::ffi::c_int = -1;
        const M_MMAP_THRESHOLD: core::ffi::c_int = -3;
        const M_ARENA_MAX: core::ffi::c_int = -8;
        extern "C" {
            fn mallopt(param: core::ffi::c_int, value: core::ffi::c_int) -> core::ffi::c_int;
        }
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        // SAFETY: `mallopt` is a standard glibc entry point (guaranteed
        // present when `target_env = "gnu"`); it reads its two scalar
        // arguments, adjusts allocator tunables, and touches no caller
        // memory. Returns 1 on success.
        unsafe {
            mallopt(M_ARENA_MAX, cores as core::ffi::c_int) == 1
                && mallopt(M_TRIM_THRESHOLD, 128 << 20) == 1
                && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// Counters describing how a [`run_ordered`] call was scheduled. Useful for
/// tests and diagnostics; never part of the deterministic report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of worker threads used.
    pub workers: usize,
    /// Jobs executed by each worker, indexed by worker id.
    pub executed: Vec<u64>,
    /// Jobs a worker obtained from another worker's deque.
    pub steals: u64,
}

fn hardware_cap() -> usize {
    std::thread::available_parallelism().map_or(usize::MAX, std::num::NonZeroUsize::get)
}

/// The type-erased "execute job `i`" entry point of one [`Submission`].
///
/// Stored as a raw pointer (not a reference) so a pool worker may keep its
/// `Arc<Submission>` alive past the submitter's stack frame without
/// holding a then-dangling reference; the pointer is only dereferenced in
/// [`Submission::invoke`], while the submitter is provably still parked
/// inside [`WorkerPool::run_ordered_exact`].
struct ErasedRun(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (part of the erased type) and
// `Submission::invoke` is the only dereference site, so sharing the
// pointer across worker threads grants nothing beyond what sharing
// `&(dyn Fn(usize) + Sync)` would.
#[allow(unsafe_code)]
unsafe impl Send for ErasedRun {}
// SAFETY: as above — `&ErasedRun` only ever exposes a `Sync` callee.
#[allow(unsafe_code)]
unsafe impl Sync for ErasedRun {}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Pool-internal locks are never held across user code, so poisoning
    // can only mean another worker died mid-bookkeeping; recovering keeps
    // the resident pool serviceable for unrelated submissions.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One fan-out in flight on a [`WorkerPool`]: the dealt per-role deques,
/// the erased job body, and the counters the submitter waits on. The
/// submitter always holds role 0; pool workers claim roles `1..workers`.
struct Submission {
    /// Per-role deques, dealt round-robin exactly like the burst executor.
    deques: Vec<Mutex<VecDeque<usize>>>,
    run: ErasedRun,
    /// Next unclaimed role; starts at 1 (role 0 is the submitter's).
    next_role: AtomicUsize,
    /// Jobs not yet finished; reaching zero completes the submission.
    remaining: AtomicUsize,
    executed: Vec<AtomicU64>,
    steals: AtomicU64,
    done: Mutex<bool>,
    done_cv: Condvar,
    /// First panic payload out of any job, re-raised by the submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Submission {
    fn claim_role(&self) -> Option<usize> {
        let workers = self.deques.len();
        self.next_role
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |role| {
                (role < workers).then_some(role + 1)
            })
            .ok()
    }

    /// Invokes the erased job body for `job`.
    #[allow(unsafe_code)]
    fn invoke(&self, job: usize) {
        // SAFETY: `run` points into the stack frame of the submitter,
        // which stays parked inside `WorkerPool::run_ordered_exact` until
        // `remaining` reaches zero; every `invoke` call is sequenced
        // before the decrement that releases it, so the closure (and the
        // items, slots and `f` it borrows) outlives every invocation.
        let run = unsafe { &*self.run.0 };
        run(job);
    }

    /// Pops and runs **one** job as role `role`: own deque from the front,
    /// else a victim's back, scanning cyclically — the same discipline as
    /// the burst executor, one step at a time so a pool worker holding
    /// roles in several submissions can interleave them. Returns `false`
    /// when the submission has nothing left for this role to pop or steal
    /// (in-flight jobs belong to other roles and no job spawns jobs, so
    /// the role is done for good).
    fn run_one(&self, role: usize) -> bool {
        let workers = self.deques.len();
        let own = lock(&self.deques[role]).pop_front();
        let (job, stolen) = match own {
            Some(job) => (job, false),
            None => {
                let stolen = (1..workers)
                    .find_map(|offset| lock(&self.deques[(role + offset) % workers]).pop_back());
                match stolen {
                    Some(job) => (job, true),
                    None => return false,
                }
            }
        };
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.invoke(job))) {
            lock(&self.panic).get_or_insert(payload);
        }
        self.executed[role].fetch_add(1, Ordering::Relaxed);
        // AcqRel: the final decrement acquires every earlier worker's
        // slot writes before the submitter reads the slots back.
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *lock(&self.done) = true;
            self.done_cv.notify_all();
        }
        true
    }

    /// Runs jobs as role `role` until the submission has nothing left to
    /// pop or steal. This is the submitter's (role 0) discipline: its own
    /// submission to exhaustion, which keeps completion independent of
    /// pool threads (deadlock-freedom by construction).
    fn work(&self, role: usize) {
        while self.run_one(role) {}
    }

    /// Whether any deque still holds undealt jobs. Queues only ever
    /// shrink (no job spawns jobs), so `false` is final: a worker that
    /// skips a drained submission never needs to revisit it.
    fn has_queued_work(&self) -> bool {
        self.deques.iter().any(|deque| !lock(deque).is_empty())
    }
}

struct PoolState {
    /// Submissions still worth offering roles on, oldest first.
    pending: Vec<Arc<Submission>>,
    /// Bumped on every push, so a sweeping worker detects new submissions
    /// with one cheap comparison instead of rescanning `pending`.
    generation: u64,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    work_cv: Condvar,
}

/// The shared-queue scheduler at the heart of cross-request interleaving:
/// each pool thread holds a *set* of role attachments — one per in-flight
/// submission it has claimed a role in — and sweeps them round-robin,
/// running **one** job per attachment per sweep. A small daemon request
/// submitted while a 1000-file batch is in flight therefore gets a share
/// of every sweep instead of queueing behind the batch (the pre-PR-10
/// loop drained one submission to exhaustion before looking again).
/// Between jobs the worker re-checks the pool generation and attaches to
/// any submission that arrived mid-sweep. Fairness is policy only:
/// results still land in per-submission input-order slots, so every
/// deterministic output is byte-identical whatever the interleave.
fn worker_loop(inner: &PoolInner) {
    let mut attachments: Vec<(Arc<Submission>, usize)> = Vec::new();
    let mut seen_generation = u64::MAX;
    loop {
        {
            let mut state = lock(&inner.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation != seen_generation {
                    seen_generation = state.generation;
                    for sub in &state.pending {
                        let attached = attachments.iter().any(|(a, _)| Arc::ptr_eq(a, sub));
                        if attached || !sub.has_queued_work() {
                            continue;
                        }
                        if let Some(role) = sub.claim_role() {
                            attachments.push((Arc::clone(sub), role));
                        }
                    }
                }
                if !attachments.is_empty() {
                    break;
                }
                // Park until the next submission (or shutdown).
                state = inner
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        // One job from each attached submission, round-robin; drop the
        // attachments with nothing left to pop or steal.
        attachments.retain(|(sub, role)| sub.run_one(*role));
    }
}

/// A long-lived pool of worker threads parked on a condvar between
/// submissions.
///
/// Each [`run_ordered`](WorkerPool::run_ordered) call becomes one
/// *submission*: job indices are dealt round-robin into per-role deques
/// exactly as the burst executor deals them, parked workers wake and claim
/// roles, and results land in pre-allocated input-order slots — so
/// resident and burst scheduling are indistinguishable in any
/// deterministic output. The submitting thread always participates as
/// role 0, which makes the pool deadlock-free by construction: even with
/// zero pool threads (or all of them busy on other submissions, e.g.
/// concurrent daemon requests) a submission drains and completes on its
/// caller.
///
/// A panic inside a job is caught on the worker, carried across the pool
/// and re-raised on the submitting thread once the submission drains —
/// the same observable behaviour as a scoped burst, and the pool stays
/// serviceable for later submissions.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool sized for the machine: `available_parallelism - 1` parked
    /// threads, so a submitting thread plus the pool saturate the hardware
    /// without oversubscribing it. On a single-core box the pool holds no
    /// threads at all and every submission runs inline on its caller.
    pub fn new() -> WorkerPool {
        let hardware = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        WorkerPool::with_threads(hardware.saturating_sub(1))
    }

    /// A pool with exactly `threads` parked workers (plus the submitting
    /// thread at run time) — the mechanism entry, for tests of the
    /// scheduling itself.
    pub fn with_threads(threads: usize) -> WorkerPool {
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                pending: Vec::new(),
                generation: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("hhl-pool-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { inner, handles }
    }

    /// Number of resident worker threads (the submitting thread is extra).
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// [`run_ordered`] against this pool: same `--jobs` ceiling policy as
    /// the free function (capped at `available_parallelism`, clamped to
    /// `1..=items.len()`).
    pub fn run_ordered<I, T, F>(&self, items: &[I], jobs: usize, f: F) -> (Vec<T>, PoolStats)
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.run_ordered_exact(items, jobs.min(hardware_cap()), f)
    }

    /// Submits one fan-out with exactly `jobs` roles (clamped to
    /// `1..=items.len()`), no hardware cap. With one effective role the
    /// items run inline on the caller — no submission, no wake-ups —
    /// keeping the sequential path bit-compatible with a plain loop.
    pub fn run_ordered_exact<I, T, F>(&self, items: &[I], jobs: usize, f: F) -> (Vec<T>, PoolStats)
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let workers = jobs.clamp(1, items.len().max(1));
        if workers <= 1 || items.len() <= 1 {
            let results: Vec<T> = items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
            let stats = PoolStats {
                workers: 1,
                executed: vec![items.len() as u64],
                steals: 0,
            };
            return (results, stats);
        }

        // One slot per job; filled exactly once by whichever role runs it.
        let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let run = |job: usize| {
            let value = f(job, &items[job]);
            *slots[job].lock().expect("slot poisoned") = Some(value);
        };
        // SAFETY: pure lifetime erasure of the fat reference so it fits
        // the (implicitly `'static`) pointee type of `ErasedRun`. The
        // pointer is only dereferenced by `Submission::invoke` while this
        // function is still parked below (structured concurrency: we do
        // not return until `remaining` hits zero, and every dereference is
        // sequenced before the decrement that lets it), so `run` — and the
        // `f`, `items` and `slots` it borrows — outlives every use.
        #[allow(unsafe_code)]
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(&run)
        };
        let submission = Arc::new(Submission {
            deques: (0..workers)
                .map(|w| Mutex::new((w..items.len()).step_by(workers).collect()))
                .collect(),
            run: ErasedRun(erased as *const _),
            next_role: AtomicUsize::new(1),
            remaining: AtomicUsize::new(items.len()),
            executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            steals: AtomicU64::new(0),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut state = lock(&self.inner.state);
            state.pending.push(Arc::clone(&submission));
            state.generation = state.generation.wrapping_add(1);
        }
        self.inner.work_cv.notify_all();

        // The submitter is role 0: progress never depends on pool threads
        // being free, so concurrent submissions cannot starve each other.
        submission.work(0);
        let mut done = lock(&submission.done);
        while !*done {
            done = submission
                .done_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(done);
        {
            let mut state = lock(&self.inner.state);
            state.pending.retain(|sub| !Arc::ptr_eq(sub, &submission));
        }
        if let Some(payload) = lock(&submission.panic).take() {
            resume_unwind(payload);
        }
        // No role can reach `invoke` any more: all deques are drained and
        // every job finished, so moving `slots` out is safe.
        let results: Vec<T> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot poisoned")
                    .expect("every job ran exactly once")
            })
            .collect();
        let stats = PoolStats {
            workers,
            executed: submission
                .executed
                .iter()
                .map(|e| e.load(Ordering::Relaxed))
                .collect(),
            steals: submission.steals.load(Ordering::Relaxed),
        };
        (results, stats)
    }
}

impl Default for WorkerPool {
    fn default() -> WorkerPool {
        WorkerPool::new()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock(&self.inner.state).shutdown = true;
        self.inner.work_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The process-resident [`WorkerPool`] every [`run_ordered`] call submits
/// to: spawned lazily on first use, sized `available_parallelism - 1`, and
/// alive for the rest of the process — batch phases, every file of every
/// batch, sharded replays and concurrent daemon connections all share
/// these workers.
pub fn resident() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(WorkerPool::new)
}

/// Which executor a fan-out call uses. Scheduling is invisible in every
/// deterministic output, so the choice is pure policy: `Resident` for
/// production (no thread churn), `Burst` as the differential baseline the
/// byte-identity suites and the `pool_resident` vs `pool_burst` bench
/// series compare against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scheduler {
    /// Submit to the process-resident pool ([`resident`]).
    #[default]
    Resident,
    /// Spawn a scoped burst of threads for this call alone (the pre-pool
    /// behaviour).
    Burst,
}

impl Scheduler {
    /// [`run_ordered`] through the selected executor.
    pub fn run_ordered<I, T, F>(self, items: &[I], jobs: usize, f: F) -> (Vec<T>, PoolStats)
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        match self {
            Scheduler::Resident => resident().run_ordered(items, jobs, f),
            Scheduler::Burst => run_ordered_burst(items, jobs, f),
        }
    }
}

/// Runs `f` over every item, fanning out across **up to** `jobs` workers
/// of the [`resident`] pool, and returns the results **in input order**.
///
/// `jobs` is a ceiling, not a demand: verification is CPU-bound, so
/// workers beyond the machine's hardware threads can never finish sooner —
/// they only add scheduler time-slicing, allocator-lock round trips and
/// wake latency. The worker count is therefore capped at
/// `available_parallelism` (then clamped to `1..=items.len()` — zero
/// workers make no progress, more workers than jobs would only idle), so
/// `--jobs 8` on a single-core box behaves exactly like `--jobs 1`, never
/// worse. Callers that need a literal worker count (tests of the stealing
/// mechanism; I/O-bound fan-out) use [`run_ordered_exact`] or
/// [`WorkerPool::run_ordered_exact`].
///
/// `f` receives `(index, &item)` and must be safe to call concurrently.
/// With one effective worker the items run on the caller's thread in input
/// order — nothing is submitted, so the run behaves exactly like a
/// sequential loop.
///
/// # Examples
///
/// ```
/// use hhl_driver::pool::run_ordered;
/// let items: Vec<u64> = (0..100).collect();
/// let (doubled, stats) = run_ordered(&items, 4, |_, &n| n * 2);
/// assert_eq!(doubled[7], 14); // input order, whatever the schedule
/// assert_eq!(stats.executed.iter().sum::<u64>(), 100);
/// ```
pub fn run_ordered<I, T, F>(items: &[I], jobs: usize, f: F) -> (Vec<T>, PoolStats)
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    resident().run_ordered(items, jobs, f)
}

/// [`run_ordered`] on the burst executor: spawns a fresh scoped set of up
/// to `jobs` threads (capped at `available_parallelism`) for this call
/// alone. This was the only executor before the resident pool landed; it
/// remains the differential baseline and the benchmark comparator.
pub fn run_ordered_burst<I, T, F>(items: &[I], jobs: usize, f: F) -> (Vec<T>, PoolStats)
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    run_ordered_exact(items, jobs.min(hardware_cap()), f)
}

/// The burst executor without the `available_parallelism` cap: spawns
/// exactly `jobs` workers (clamped to `1..=items.len()`), oversubscribed
/// or not. This is the scheduling *mechanism*; [`run_ordered_burst`] is
/// the policy wrapper, and [`run_ordered`] is the resident-pool
/// equivalent every `--jobs` path goes through.
pub fn run_ordered_exact<I, T, F>(items: &[I], jobs: usize, f: F) -> (Vec<T>, PoolStats)
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let workers = jobs.clamp(1, items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        let results: Vec<T> = items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
        let stats = PoolStats {
            workers: 1,
            executed: vec![items.len() as u64],
            steals: 0,
        };
        return (results, stats);
    }

    // Deal job indices round-robin into per-worker deques.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..items.len()).step_by(workers).collect()))
        .collect();
    // One slot per job; filled exactly once by whichever worker runs it.
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let executed: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let steals = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let deques = &deques;
            let slots = &slots;
            let executed = &executed;
            let steals = &steals;
            let f = &f;
            scope.spawn(move || loop {
                // Own deque first (front: preserve the dealt order)…
                let own = deques[w].lock().expect("deque poisoned").pop_front();
                let job = match own {
                    Some(j) => Some(j),
                    // …then steal from victims' backs, scanning cyclically.
                    None => (1..workers).find_map(|offset| {
                        let victim = (w + offset) % workers;
                        let stolen = deques[victim].lock().expect("deque poisoned").pop_back();
                        if stolen.is_some() {
                            steals.fetch_add(1, Ordering::Relaxed);
                        }
                        stolen
                    }),
                };
                let Some(job) = job else {
                    // Every deque empty: in-flight jobs belong to other
                    // workers and nothing new can appear (no job spawns
                    // jobs), so this worker is done.
                    return;
                };
                let result = f(job, &items[job]);
                *slots[job].lock().expect("slot poisoned") = Some(result);
                executed[w].fetch_add(1, Ordering::Relaxed);
            });
        }
    });

    let results: Vec<T> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every job ran exactly once")
        })
        .collect();
    let stats = PoolStats {
        workers,
        executed: executed.iter().map(|e| e.load(Ordering::Relaxed)).collect(),
        steals: steals.load(Ordering::Relaxed),
    };
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_input_order_for_every_job_count() {
        // `run_ordered_exact`, so multi-worker ordering is exercised even
        // on single-core machines (the public entry would clamp to 1).
        let items: Vec<usize> = (0..57).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let (out, stats) = run_ordered_exact(&items, jobs, |i, &n| {
                assert_eq!(i, n);
                n * 10
            });
            let expected: Vec<usize> = items.iter().map(|n| n * 10).collect();
            assert_eq!(out, expected, "jobs = {jobs}");
            assert_eq!(
                stats.executed.iter().sum::<u64>(),
                items.len() as u64,
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn uneven_workloads_get_stolen() {
        // Worker 0's deque holds one very slow job followed by many fast
        // ones; the other workers must steal the fast ones off its back.
        let items: Vec<u64> = (0..32).collect();
        let slow_started = AtomicUsize::new(0);
        let (_, stats) = run_ordered_exact(&items, 4, |i, _| {
            if i == 0 {
                slow_started.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            i
        });
        assert_eq!(stats.workers, 4);
        assert!(
            stats.steals > 0,
            "idle workers must steal from the stalled one: {stats:?}"
        );
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u8> = Vec::new();
        let (out, stats) = run_ordered(&none, 8, |_, &b| b);
        assert!(out.is_empty());
        assert_eq!(stats.workers, 1);
        let (out, _) = run_ordered(&[42u8], 8, |_, &b| b + 1);
        assert_eq!(out, vec![43]);
    }

    #[test]
    fn workers_clamped_to_job_count() {
        let (_, stats) = run_ordered_exact(&[1, 2, 3], 100, |_, &n| n);
        assert!(stats.workers <= 3, "{stats:?}");
    }

    #[test]
    fn resident_pool_matches_burst_for_every_job_count() {
        // One private pool, many submissions: parking and re-waking between
        // submissions must never change the input-order contract.
        let pool = WorkerPool::with_threads(3);
        let items: Vec<usize> = (0..57).collect();
        let expected: Vec<usize> = items.iter().map(|n| n * 10).collect();
        for round in 0..3 {
            for jobs in [1, 2, 3, 8, 64] {
                let (resident, stats) = pool.run_ordered_exact(&items, jobs, |i, &n| {
                    assert_eq!(i, n);
                    n * 10
                });
                let (burst, _) = run_ordered_exact(&items, jobs, |_, &n| n * 10);
                assert_eq!(resident, expected, "round {round}, jobs {jobs}");
                assert_eq!(resident, burst);
                assert_eq!(
                    stats.executed.iter().sum::<u64>(),
                    items.len() as u64,
                    "round {round}, jobs {jobs}"
                );
                assert_eq!(stats.executed.len(), stats.workers);
            }
        }
    }

    #[test]
    fn zero_thread_pool_completes_on_the_submitter() {
        // Deadlock-freedom by construction: with no pool threads at all,
        // role 0 (the caller) drains every deque, stealing the dealt
        // shares of the roles nobody claimed.
        let pool = WorkerPool::with_threads(0);
        let items: Vec<usize> = (0..23).collect();
        let (out, stats) = pool.run_ordered_exact(&items, 4, |_, &n| n + 1);
        let expected: Vec<usize> = items.iter().map(|n| n + 1).collect();
        assert_eq!(out, expected);
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.executed.iter().sum::<u64>(), items.len() as u64);
        assert_eq!(stats.executed[0], items.len() as u64);
        assert!(stats.steals > 0, "unclaimed roles' deques must be stolen");
    }

    #[test]
    fn pool_workers_steal_uneven_workloads() {
        let pool = WorkerPool::with_threads(3);
        let items: Vec<u64> = (0..32).collect();
        let (_, stats) = pool.run_ordered_exact(&items, 4, |i, _| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            i
        });
        assert_eq!(stats.workers, 4);
        assert!(
            stats.steals > 0,
            "idle roles must steal from the stalled one: {stats:?}"
        );
    }

    #[test]
    fn concurrent_submissions_share_one_pool() {
        // Daemon-shaped load: several submitting threads racing on the
        // same pool. Every submission must complete with its own correct,
        // input-ordered results (role 0 guarantees progress even when all
        // pool threads are attached elsewhere).
        let pool = std::sync::Arc::new(WorkerPool::with_threads(2));
        let mut threads = Vec::new();
        for t in 0..4u64 {
            let pool = std::sync::Arc::clone(&pool);
            threads.push(std::thread::spawn(move || {
                for round in 0..8u64 {
                    let items: Vec<u64> = (0..40).map(|n| n + 1000 * t + 100 * round).collect();
                    let (out, _) = pool.run_ordered_exact(&items, 3, |_, &n| n * 2);
                    let expected: Vec<u64> = items.iter().map(|n| n * 2).collect();
                    assert_eq!(out, expected, "thread {t}, round {round}");
                }
            }));
        }
        for thread in threads {
            thread.join().expect("submitter panicked");
        }
    }

    #[test]
    fn pool_workers_interleave_concurrent_submissions() {
        // Continuous batching: a pool worker attached to submission A must
        // start running submission B's jobs while A still has queued work,
        // instead of draining A to exhaustion first.
        //
        // Choreography (one pool worker, two submissions of 5 jobs each at
        // jobs = 2, so the deal is role 0 = {0, 2, 4}, role 1 = {1, 3}):
        //   * both submitters block inside job 0 until all 8 quick jobs
        //     have recorded, so the pool worker is the only thread running
        //     them — the recorded order is the worker's schedule;
        //   * A's job 1 waits until B's submitter is parked inside B0,
        //     which guarantees B is pending before the worker's next sweep.
        // Round-robin sweeping must run some B job before the last A job.
        //
        // The choreography needs each submitter to run its own job 0. A
        // submitter descheduled before popping it can lose it to the pool
        // worker, which steals from the back of role 0's deque; blocking
        // there would leave no thread for the quick jobs. A job 0 that runs
        // off its submitter's thread therefore aborts the attempt: every
        // wait gives up, the schedule is discarded, and the choreography
        // runs again on a fresh pool.
        #[derive(Default)]
        struct State {
            order: Vec<(char, usize)>,
            b_started: bool,
            stolen: bool,
        }
        const ATTEMPTS: usize = 20;
        for _ in 0..ATTEMPTS {
            let gate = Arc::new((Mutex::new(State::default()), Condvar::new()));
            let pool = Arc::new(WorkerPool::with_threads(1));
            let items: Vec<usize> = (0..5).collect();
            let submit = |tag: char| {
                let pool = Arc::clone(&pool);
                let gate = Arc::clone(&gate);
                let items = items.clone();
                std::thread::spawn(move || {
                    let submitter = std::thread::current().id();
                    let wait_for = |pred: &dyn Fn(&State) -> bool| {
                        let mut guard = lock(&gate.0);
                        let deadline =
                            std::time::Instant::now() + std::time::Duration::from_secs(60);
                        while !pred(&guard) && !guard.stolen {
                            let timeout = deadline
                                .checked_duration_since(std::time::Instant::now())
                                .expect("interleave test timed out");
                            guard = gate
                                .1
                                .wait_timeout(guard, timeout)
                                .unwrap_or_else(PoisonError::into_inner)
                                .0;
                        }
                    };
                    let record = |job: usize| {
                        lock(&gate.0).order.push((tag, job));
                        gate.1.notify_all();
                    };
                    pool.run_ordered_exact(&items, 2, |_, &job| match (tag, job) {
                        (_, 0) if std::thread::current().id() != submitter => {
                            lock(&gate.0).stolen = true;
                            gate.1.notify_all();
                        }
                        (_, 0) => {
                            if tag == 'b' {
                                lock(&gate.0).b_started = true;
                                gate.1.notify_all();
                            }
                            wait_for(&|s: &State| s.order.len() == 8);
                        }
                        ('a', 1) => {
                            wait_for(&|s: &State| s.b_started);
                            record(1);
                        }
                        _ => record(job),
                    });
                })
            };
            let a = submit('a');
            let b = submit('b');
            a.join().expect("submitter A panicked");
            b.join().expect("submitter B panicked");

            let state = lock(&gate.0);
            if state.stolen {
                continue;
            }
            let order = &state.order;
            assert_eq!(order.len(), 8, "{order:?}");
            let first_b = order.iter().position(|&(t, _)| t == 'b').expect("b ran");
            let last_a = order.iter().rposition(|&(t, _)| t == 'a').expect("a ran");
            assert!(
                first_b < last_a,
                "worker must interleave B's jobs with A's remaining queue: {order:?}"
            );
            return;
        }
        panic!("the pool worker stole a submitter's job 0 in all {ATTEMPTS} attempts");
    }

    #[test]
    fn job_panics_propagate_to_the_submitter_and_spare_the_pool() {
        let pool = WorkerPool::with_threads(2);
        let items: Vec<usize> = (0..16).collect();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_ordered_exact(&items, 3, |i, _| {
                assert!(i != 7, "boom at 7");
                i
            })
        }));
        assert!(attempt.is_err(), "the job panic must reach the submitter");
        // The pool survives: the next submission runs normally.
        let (out, _) = pool.run_ordered_exact(&items, 3, |_, &n| n + 1);
        let expected: Vec<usize> = items.iter().map(|n| n + 1).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn scheduler_variants_agree() {
        let items: Vec<u32> = (0..33).collect();
        let expected: Vec<u32> = items.iter().map(|n| n * 3).collect();
        for scheduler in [Scheduler::Resident, Scheduler::Burst] {
            let (out, stats) = scheduler.run_ordered(&items, 4, |_, &n| n * 3);
            assert_eq!(out, expected, "{scheduler:?}");
            assert_eq!(
                stats.executed.iter().sum::<u64>(),
                items.len() as u64,
                "{scheduler:?}"
            );
        }
    }

    #[test]
    fn jobs_is_a_ceiling_not_a_demand() {
        // The public entry never oversubscribes the machine: requesting
        // more workers than hardware threads yields at most the hardware
        // thread count (and identical, input-ordered results).
        let hardware =
            std::thread::available_parallelism().map_or(usize::MAX, std::num::NonZeroUsize::get);
        let items: Vec<usize> = (0..64).collect();
        let (out, stats) = run_ordered(&items, 4096, |_, &n| n + 1);
        assert!(stats.workers <= hardware, "{stats:?}");
        let expected: Vec<usize> = items.iter().map(|n| n + 1).collect();
        assert_eq!(out, expected);
    }
}
