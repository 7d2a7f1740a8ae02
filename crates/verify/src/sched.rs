//! The bounded exhaustive-interleaving scheduler.
//!
//! This is the heart of `rebeca-verify`: a loom-style model checker built
//! from scratch (the workspace is offline, so we cannot vendor loom). The
//! approach:
//!
//! * The checked body runs on **real OS threads**, but a token-passing
//!   scheduler (one global mutex + condvar per execution) serializes them:
//!   exactly one model thread runs at a time, and every shim operation
//!   (atomic access, lock, channel op, spawn/join) first calls
//!   [`Execution::yield_point`], which is where the scheduler decides who
//!   runs the *next* operation. Code between two shim operations is an
//!   atomic step — exactly the granularity at which real interleavings can
//!   differ for the protocols under test.
//!
//! * Every scheduling decision with ≥ 2 enabled threads (and every
//!   nondeterministic value read, see below) is recorded as a [`Point`] on a
//!   trail. After an execution finishes, the driver backtracks DFS-style:
//!   it finds the deepest point with an untried admissible alternative and
//!   replays the prefix, exploring a different interleaving. With a
//!   **preemption bound** (default 2, in the style of iterative context
//!   bounding): switching away from a thread that could have kept running
//!   costs one preemption, and alternatives that would exceed the bound are
//!   pruned. Empirically almost all real concurrency bugs need ≤ 2
//!   preemptions, which keeps exploration tractable while staying
//!   exhaustive *within the bound*.
//!
//! * Weak memory is modeled with per-atomic store histories and per-thread
//!   views (a floor index per atomic): `Release`-or-stronger stores capture
//!   the writer's view, `Acquire`-or-stronger loads read the newest store
//!   and join its captured view, and **`Relaxed` loads may read any store
//!   at or above the thread's floor** — a value choice point explored like
//!   a scheduling choice. This is a simplification of C11 (SeqCst gets no
//!   extra total order beyond per-location coherence; RMWs always read the
//!   newest store, preserving atomicity), i.e. the model is slightly
//!   *stronger* than the real memory model in ways that do not matter for
//!   the protocols checked here, and strictly weaker than SC for the
//!   Release/Acquire-vs-Relaxed distinctions that do.
//!
//! * A failure (assertion panic, deadlock, step-budget livelock) aborts the
//!   execution, and the trail's chosen indices serialize into a schedule
//!   string. `REBECA_VERIFY_SCHEDULE=<name>:<i,j,k,...>` replays exactly
//!   that interleaving — scheduling is deterministic, so one env var
//!   reproduces the bug.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering as StdOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Index of a model thread within an execution. Thread 0 is the body.
pub type ThreadId = usize;
/// Index of a modeled resource (atomic, lock, condvar, channel).
pub type ResourceId = usize;

/// Global execution serial counter, used by shim objects to detect that a
/// cached [`ResourceId`] belongs to a previous execution and must be
/// re-registered (which also resets the resource to its initial state).
static EXEC_SERIAL: AtomicU64 = AtomicU64::new(1);

/// Wall-clock cap on a single execution; only hit if the scheduler itself
/// wedges, which is an internal error, never a property of checked code.
const EXEC_WALL_TIMEOUT: Duration = Duration::from_secs(120);

fn unpoison<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// A thread's view of weak memory: for each atomic, the smallest store
/// index it is still allowed to read (coherence floor).
#[derive(Debug, Clone, Default)]
pub(crate) struct View {
    floor: HashMap<ResourceId, usize>,
}

impl View {
    fn join(&mut self, other: &View) {
        for (res, idx) in &other.floor {
            let slot = self.floor.entry(*res).or_insert(0);
            if *idx > *slot {
                *slot = *idx;
            }
        }
    }

    fn get(&self, res: ResourceId) -> usize {
        self.floor.get(&res).copied().unwrap_or(0)
    }

    fn raise(&mut self, res: ResourceId, idx: usize) {
        let slot = self.floor.entry(res).or_insert(0);
        if idx > *slot {
            *slot = idx;
        }
    }
}

/// One store in an atomic's modification order. `view` is `Some` for
/// Release-or-stronger stores (the writer's view at store time), which an
/// Acquire-or-stronger load joins when it reads this store.
#[derive(Debug)]
pub(crate) struct StoreRec {
    val: u64,
    view: Option<View>,
}

/// The initial store of a freshly registered atomic (no release view: the
/// initial value is visible to everyone, like a static initializer).
pub(crate) fn init_store(val: u64) -> StoreRec {
    StoreRec { val, view: None }
}

/// Fresh model state for a lock resource.
pub(crate) fn new_lock() -> Resource {
    Resource::Lock { holder: None, view: View::default() }
}

/// Fresh model state for a condvar resource.
pub(crate) fn new_condvar() -> Resource {
    Resource::Condvar { waiters: Vec::new() }
}

/// Fresh model state for a channel resource (sender count starts at zero;
/// the shim increments it for the initial `Sender`).
pub(crate) fn new_channel() -> Resource {
    Resource::Channel { msg_views: VecDeque::new(), senders: 0, receiver_alive: true }
}

/// Unwind out of the current model thread because the execution is being
/// torn down (silently — this is not a new failure).
pub(crate) fn abort_now() -> ! {
    abort_unwind()
}

/// Model state for one shim resource.
#[derive(Debug)]
pub(crate) enum Resource {
    /// An atomic cell with its full modification order.
    Atomic { stores: Vec<StoreRec> },
    /// A mutex. `view` accumulates the views of every releasing holder;
    /// acquirers join it (locks synchronize).
    Lock { holder: Option<ThreadId>, view: View },
    /// A condvar: the set of threads currently parked in `wait`.
    Condvar { waiters: Vec<ThreadId> },
    /// An mpsc channel. Payload values live in the shim object; the model
    /// tracks one `View` per queued message (send is a release, recv an
    /// acquire) plus sender/receiver liveness for disconnect semantics.
    Channel { msg_views: VecDeque<View>, senders: usize, receiver_alive: bool },
}

/// Why a thread is blocked (used for wakeups and deadlock reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Block {
    Lock { res: ResourceId },
    CondWait { res: ResourceId },
    Recv { res: ResourceId },
    Join { target: ThreadId },
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Run {
    Runnable,
    Blocked(Block),
    Finished,
}

#[derive(Debug)]
struct ThreadRec {
    run: Run,
    view: View,
}

/// What a recorded choice point chose between.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Options {
    /// Scheduling choice among these enabled threads.
    Threads(Vec<ThreadId>),
    /// Value choice (e.g. which store a Relaxed load reads) among `0..n`.
    Values(usize),
}

/// One recorded nondeterministic choice. The driver backtracks over these.
#[derive(Debug, Clone)]
pub(crate) struct Point {
    options: Options,
    /// Index into `options` actually taken in this execution.
    chosen: usize,
    /// The thread that was running when the choice was made.
    prev: ThreadId,
    /// Preemption count before this choice (for bound pruning).
    preemptions_before: usize,
}

impl Point {
    #[cfg(test)]
    fn len(&self) -> usize {
        match &self.options {
            Options::Threads(t) => t.len(),
            Options::Values(n) => *n,
        }
    }

    /// Next admissible alternative strictly after `self.chosen`, honoring
    /// the preemption bound, or `None` if this point is exhausted.
    fn next_alternative(&self, bound: usize) -> Option<usize> {
        match &self.options {
            Options::Values(n) => {
                let next = self.chosen + 1;
                (next < *n).then_some(next)
            }
            Options::Threads(tids) => {
                let prev_enabled = tids.contains(&self.prev);
                for (idx, tid) in tids.iter().enumerate().skip(self.chosen + 1) {
                    let is_preemption = prev_enabled && *tid != self.prev;
                    if !is_preemption || self.preemptions_before < bound {
                        return Some(idx);
                    }
                }
                None
            }
        }
    }
}

/// Marker payload for "this execution is being torn down" unwinds. Raised
/// with `resume_unwind` so the panic hook stays silent.
pub(crate) struct AbortToken;

#[derive(Debug)]
struct ExecInner {
    threads: Vec<ThreadRec>,
    resources: Vec<Resource>,
    /// Which thread holds the token (may run its next operation).
    current: ThreadId,
    /// Choice-index prefix to replay before exploring fresh choices.
    script: Vec<usize>,
    trail: Vec<Point>,
    preemptions: usize,
    steps: u64,
    failure: Option<String>,
    aborting: bool,
    all_done: bool,
}

/// One model execution: the shared scheduler state all model threads (and
/// the driver) coordinate through.
pub(crate) struct Execution {
    inner: Mutex<ExecInner>,
    cv: Condvar,
    pub(crate) serial: u64,
    max_steps: u64,
    injections: HashSet<String>,
}

type Guard<'a> = MutexGuard<'a, ExecInner>;

thread_local! {
    static CTX: std::cell::RefCell<Option<(Arc<Execution>, ThreadId)>> =
        const { std::cell::RefCell::new(None) };
}

/// The current model thread's execution handle. Panics if called from a
/// thread not managed by [`Checker::check`] — shims only work under the
/// checker.
pub(crate) fn ctx() -> (Arc<Execution>, ThreadId) {
    CTX.with(|c| {
        c.borrow()
            .clone()
            .expect("rebeca-verify shim used outside Checker::check (no execution context)")
    })
}

/// True if any model-thread context is installed on this OS thread.
pub(crate) fn in_model() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

fn abort_unwind() -> ! {
    panic::resume_unwind(Box::new(AbortToken))
}

impl Execution {
    fn new(script: Vec<usize>, max_steps: u64, injections: HashSet<String>) -> Self {
        Execution {
            inner: Mutex::new(ExecInner {
                threads: Vec::new(),
                resources: Vec::new(),
                current: 0,
                script,
                trail: Vec::new(),
                preemptions: 0,
                steps: 0,
                failure: None,
                aborting: false,
                all_done: false,
            }),
            cv: Condvar::new(),
            serial: EXEC_SERIAL.fetch_add(1, StdOrdering::Relaxed),
            max_steps,
            injections,
        }
    }

    pub(crate) fn injected(&self, key: &str) -> bool {
        self.injections.contains(key)
    }

    fn lock(&self) -> Guard<'_> {
        unpoison(self.inner.lock())
    }

    /// Register a fresh resource, returning its id.
    pub(crate) fn register(&self, resource: Resource) -> ResourceId {
        let mut g = self.lock();
        g.resources.push(resource);
        g.resources.len() - 1
    }

    /// Record a failure (first one wins), abort the execution, and wake
    /// everyone so they can unwind.
    fn fail(&self, g: &mut Guard<'_>, msg: String) {
        if g.failure.is_none() {
            g.failure = Some(msg);
        }
        g.aborting = true;
        self.cv.notify_all();
    }

    /// Record a failure from a panic payload in a model thread.
    fn record_failure(&self, tid: ThreadId, msg: String) {
        let mut g = self.lock();
        self.fail(&mut g, format!("thread {tid} panicked: {msg}"));
    }

    fn enabled(g: &Guard<'_>) -> Vec<ThreadId> {
        g.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.run == Run::Runnable)
            .map(|(i, _)| i)
            .collect()
    }

    /// Pick who runs the next operation. `me` holds the token and is
    /// runnable. Records a choice point when ≥ 2 threads are enabled.
    fn schedule(&self, g: &mut Guard<'_>, me: ThreadId) {
        let enabled = Self::enabled(g);
        debug_assert!(enabled.contains(&me), "scheduling thread must be runnable");
        let chosen_tid = if enabled.len() == 1 {
            enabled[0]
        } else {
            let pos = g.trail.len();
            let idx = if pos < g.script.len() {
                let idx = g.script[pos];
                if idx >= enabled.len() {
                    self.fail(
                        g,
                        format!(
                            "schedule replay mismatch at point {pos}: index {idx} out of \
                             {} enabled threads (stale REBECA_VERIFY_SCHEDULE?)",
                            enabled.len()
                        ),
                    );
                    return;
                }
                idx
            } else {
                // Default: keep running `me` (never a preemption), so the
                // first execution is the straight-line schedule.
                enabled.iter().position(|&t| t == me).unwrap_or(0)
            };
            let preemptions_before = g.preemptions;
            g.trail.push(Point {
                options: Options::Threads(enabled.clone()),
                chosen: idx,
                prev: me,
                preemptions_before,
            });
            enabled[idx]
        };
        if chosen_tid != me {
            // `me` was runnable, so switching away from it is a preemption.
            g.preemptions += 1;
        }
        g.current = chosen_tid;
    }

    /// Pass the token onward when `me` can no longer run (blocked or
    /// finished). Detects deadlock: nobody runnable but someone blocked.
    fn switch_from_stopped(&self, g: &mut Guard<'_>, me: ThreadId) {
        if g.aborting {
            return;
        }
        let enabled = Self::enabled(g);
        if enabled.is_empty() {
            if g.threads.iter().all(|t| t.run == Run::Finished) {
                g.all_done = true;
                self.cv.notify_all();
                return;
            }
            let mut states = String::new();
            for (i, t) in g.threads.iter().enumerate() {
                let _ = write!(states, "\n  thread {i}: {:?}", t.run);
            }
            self.fail(g, format!("deadlock: no runnable thread{states}"));
            return;
        }
        let chosen_tid = if enabled.len() == 1 {
            enabled[0]
        } else {
            let pos = g.trail.len();
            let idx = if pos < g.script.len() {
                let idx = g.script[pos];
                if idx >= enabled.len() {
                    self.fail(
                        g,
                        format!(
                            "schedule replay mismatch at point {pos}: index {idx} out of \
                             {} enabled threads (stale REBECA_VERIFY_SCHEDULE?)",
                            enabled.len()
                        ),
                    );
                    return;
                }
                idx
            } else {
                0
            };
            let preemptions_before = g.preemptions;
            g.trail.push(Point {
                options: Options::Threads(enabled.clone()),
                chosen: idx,
                prev: me,
                preemptions_before,
            });
            enabled[idx]
        };
        // `me` is not runnable, so this switch is forced — no preemption.
        g.current = chosen_tid;
        self.cv.notify_all();
    }

    /// The scheduling point before every shim operation.
    pub(crate) fn yield_point(&self, me: ThreadId) {
        if std::thread::panicking() {
            // Cleanup code running during an unwind (Drop impls that send
            // completion signals, etc.) must never raise a second panic;
            // skip scheduling and let the operation run atomically.
            return;
        }
        let mut g = self.lock();
        if g.aborting {
            drop(g);
            abort_unwind();
        }
        g.steps += 1;
        if g.steps > self.max_steps {
            self.fail(
                &mut g,
                format!(
                    "step budget ({}) exceeded: possible livelock or unbounded loop",
                    self.max_steps
                ),
            );
            drop(g);
            abort_unwind();
        }
        self.schedule(&mut g, me);
        self.cv.notify_all();
        while !g.aborting && g.current != me {
            g = unpoison(self.cv.wait(g));
        }
        if g.aborting {
            drop(g);
            abort_unwind();
        }
    }

    /// A value choice point: returns an index in `0..n`, exploring all of
    /// them across executions. Used for Relaxed-load store selection.
    pub(crate) fn value_choice(&self, me: ThreadId, n: usize) -> usize {
        if n <= 1 || std::thread::panicking() {
            // During an unwind, take the coherence floor deterministically
            // (no trail point: the execution is already failing).
            return 0;
        }
        let mut g = self.lock();
        if g.aborting {
            drop(g);
            abort_unwind();
        }
        let pos = g.trail.len();
        let idx = if pos < g.script.len() {
            let idx = g.script[pos];
            if idx >= n {
                self.fail(
                    &mut g,
                    format!(
                        "schedule replay mismatch at point {pos}: value index {idx} out of {n} \
                         (stale REBECA_VERIFY_SCHEDULE?)"
                    ),
                );
                drop(g);
                abort_unwind();
            }
            idx
        } else {
            0
        };
        let preemptions_before = g.preemptions;
        g.trail.push(Point {
            options: Options::Values(n),
            chosen: idx,
            prev: me,
            preemptions_before,
        });
        idx
    }

    /// Block `me` on `why`, hand the token onward, and wait until another
    /// thread marks `me` runnable *and* the scheduler picks it again.
    fn park<'a>(&'a self, mut g: Guard<'a>, me: ThreadId, why: Block) -> Guard<'a> {
        g.threads[me].run = Run::Blocked(why);
        self.switch_from_stopped(&mut g, me);
        if g.aborting {
            drop(g);
            abort_unwind();
        }
        self.cv.notify_all();
        #[allow(clippy::nonminimal_bool)]
        // the un-"simplified" form reads as "not aborted AND not my turn"
        while !g.aborting && !(g.current == me && g.threads[me].run == Run::Runnable) {
            g = unpoison(self.cv.wait(g));
        }
        if g.aborting {
            drop(g);
            abort_unwind();
        }
        g
    }

    fn wake(g: &mut Guard<'_>, pred: impl Fn(&Block) -> bool) {
        for t in g.threads.iter_mut() {
            if let Run::Blocked(b) = &t.run {
                if pred(b) {
                    t.run = Run::Runnable;
                }
            }
        }
    }

    // ---- atomics ---------------------------------------------------------

    fn ord_acquires(ord: crate::shim::Ordering) -> bool {
        use crate::shim::Ordering::*;
        matches!(ord, Acquire | AcqRel | SeqCst)
    }

    fn ord_releases(ord: crate::shim::Ordering) -> bool {
        use crate::shim::Ordering::*;
        matches!(ord, Release | AcqRel | SeqCst)
    }

    pub(crate) fn atomic_load(
        &self,
        me: ThreadId,
        res: ResourceId,
        ord: crate::shim::Ordering,
    ) -> u64 {
        assert!(
            !matches!(ord, crate::shim::Ordering::Release | crate::shim::Ordering::AcqRel),
            "invalid ordering for atomic load"
        );
        self.yield_point(me);
        // Token is ours: no other model thread runs between these sections.
        let (floor, latest) = {
            let g = self.lock();
            let Resource::Atomic { stores } = &g.resources[res] else {
                unreachable!("resource {res} is not an atomic")
            };
            (g.threads[me].view.get(res), stores.len() - 1)
        };
        let idx = if Self::ord_acquires(ord) {
            // Stronger than C11 (an acquire load may legally read stale
            // values too); keeping it reduces the search space and is the
            // conservative direction for *finding* Relaxed misuse: only
            // Relaxed loads ever see stale stores in this model.
            latest
        } else {
            floor + self.value_choice(me, latest - floor + 1)
        };
        let mut g = self.lock();
        let Resource::Atomic { stores } = &g.resources[res] else { unreachable!() };
        let val = stores[idx].val;
        let joined = if Self::ord_acquires(ord) { stores[idx].view.clone() } else { None };
        g.threads[me].view.raise(res, idx);
        if let Some(v) = joined {
            g.threads[me].view.join(&v);
        }
        val
    }

    pub(crate) fn atomic_store(
        &self,
        me: ThreadId,
        res: ResourceId,
        val: u64,
        ord: crate::shim::Ordering,
    ) {
        assert!(
            !matches!(ord, crate::shim::Ordering::Acquire | crate::shim::Ordering::AcqRel),
            "invalid ordering for atomic store"
        );
        self.yield_point(me);
        let mut g = self.lock();
        let view = Self::ord_releases(ord).then(|| g.threads[me].view.clone());
        let Resource::Atomic { stores } = &mut g.resources[res] else {
            unreachable!("resource {res} is not an atomic")
        };
        stores.push(StoreRec { val, view });
        let idx = stores.len() - 1;
        g.threads[me].view.raise(res, idx);
    }

    /// Read-modify-write: always reads the newest store (atomicity),
    /// acquires/releases per `ord`. Returns the previous value.
    pub(crate) fn atomic_rmw(
        &self,
        me: ThreadId,
        res: ResourceId,
        ord: crate::shim::Ordering,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        self.yield_point(me);
        let mut g = self.lock();
        let thread_view = g.threads[me].view.clone();
        let Resource::Atomic { stores } = &mut g.resources[res] else {
            unreachable!("resource {res} is not an atomic")
        };
        let old = stores.last().expect("atomic has at least its init store").val;
        let acquired =
            if Self::ord_acquires(ord) { stores.last().and_then(|s| s.view.clone()) } else { None };
        let view = Self::ord_releases(ord).then_some(thread_view);
        stores.push(StoreRec { val: f(old), view });
        let idx = stores.len() - 1;
        g.threads[me].view.raise(res, idx);
        if let Some(v) = acquired {
            g.threads[me].view.join(&v);
        }
        old
    }

    pub(crate) fn atomic_cas(
        &self,
        me: ThreadId,
        res: ResourceId,
        expected: u64,
        new: u64,
        succ: crate::shim::Ordering,
        fail: crate::shim::Ordering,
    ) -> Result<u64, u64> {
        self.yield_point(me);
        let mut g = self.lock();
        let thread_view = g.threads[me].view.clone();
        let Resource::Atomic { stores } = &mut g.resources[res] else {
            unreachable!("resource {res} is not an atomic")
        };
        let cur = stores.last().expect("atomic has at least its init store").val;
        if cur == expected {
            let acquired = if Self::ord_acquires(succ) {
                stores.last().and_then(|s| s.view.clone())
            } else {
                None
            };
            let view = Self::ord_releases(succ).then_some(thread_view);
            stores.push(StoreRec { val: new, view });
            let idx = stores.len() - 1;
            g.threads[me].view.raise(res, idx);
            if let Some(v) = acquired {
                g.threads[me].view.join(&v);
            }
            Ok(cur)
        } else {
            let acquired = if Self::ord_acquires(fail) {
                stores.last().and_then(|s| s.view.clone())
            } else {
                None
            };
            let idx = stores.len() - 1;
            g.threads[me].view.raise(res, idx);
            if let Some(v) = acquired {
                g.threads[me].view.join(&v);
            }
            Err(cur)
        }
    }

    // ---- locks -----------------------------------------------------------

    pub(crate) fn lock_acquire(&self, me: ThreadId, res: ResourceId) {
        self.yield_point(me);
        let mut g = self.lock();
        loop {
            if g.aborting {
                drop(g);
                abort_unwind();
            }
            let Resource::Lock { holder, view } = &mut g.resources[res] else {
                unreachable!("resource {res} is not a lock")
            };
            if holder.is_none() {
                *holder = Some(me);
                let lock_view = view.clone();
                g.threads[me].view.join(&lock_view);
                return;
            }
            g = self.park(g, me, Block::Lock { res });
        }
    }

    fn release_locked(g: &mut Guard<'_>, me: ThreadId, res: ResourceId) {
        let me_view = g.threads[me].view.clone();
        let Resource::Lock { holder, view } = &mut g.resources[res] else {
            unreachable!("resource {res} is not a lock")
        };
        debug_assert_eq!(*holder, Some(me), "releasing a lock we do not hold");
        *holder = None;
        view.join(&me_view);
        Self::wake(g, |b| matches!(b, Block::Lock { res: r } if *r == res));
    }

    /// `unwinding` releases (guard dropped during a panic) skip the yield
    /// point: they must not raise a second panic mid-unwind.
    pub(crate) fn lock_release(&self, me: ThreadId, res: ResourceId, unwinding: bool) {
        if !unwinding {
            self.yield_point(me);
        }
        let mut g = self.lock();
        Self::release_locked(&mut g, me, res);
        self.cv.notify_all();
    }

    // ---- condvar ---------------------------------------------------------

    pub(crate) fn cond_wait(&self, me: ThreadId, cv_res: ResourceId, lock_res: ResourceId) {
        self.yield_point(me);
        let mut g = self.lock();
        // Atomically release the mutex and park on the condvar: no wakeup
        // between the two can be lost (the classic condvar contract).
        Self::release_locked(&mut g, me, lock_res);
        {
            let Resource::Condvar { waiters } = &mut g.resources[cv_res] else {
                unreachable!("resource {cv_res} is not a condvar")
            };
            waiters.push(me);
        }
        let g = self.park(g, me, Block::CondWait { res: cv_res });
        drop(g);
        // Reacquire the mutex before returning (contends normally).
        self.lock_acquire(me, lock_res);
    }

    pub(crate) fn cond_notify(&self, me: ThreadId, cv_res: ResourceId, all: bool) {
        self.yield_point(me);
        let mut g = self.lock();
        let woken: Vec<ThreadId> = {
            let Resource::Condvar { waiters } = &mut g.resources[cv_res] else {
                unreachable!("resource {cv_res} is not a condvar")
            };
            // Waiters are woken FIFO — a modeling simplification (real
            // condvars may wake in any order; FIFO keeps replay
            // deterministic and still exposes lost-wakeup bugs, which come
            // from *when* notify runs, not from waiter order).
            let n = if all { waiters.len() } else { waiters.len().min(1) };
            waiters.drain(..n).collect()
        };
        for w in woken {
            if matches!(&g.threads[w].run, Run::Blocked(Block::CondWait { res }) if *res == cv_res)
            {
                g.threads[w].run = Run::Runnable;
            }
        }
        self.cv.notify_all();
    }

    // ---- channels --------------------------------------------------------

    pub(crate) fn chan_send(
        &self,
        me: ThreadId,
        res: ResourceId,
        push: impl FnOnce(),
    ) -> Result<(), ()> {
        self.yield_point(me);
        let mut g = self.lock();
        let me_view = g.threads[me].view.clone();
        {
            let Resource::Channel { msg_views, receiver_alive, .. } = &mut g.resources[res] else {
                unreachable!("resource {res} is not a channel")
            };
            if !*receiver_alive {
                return Err(());
            }
            msg_views.push_back(me_view);
        }
        // Push the payload while holding the scheduler lock so the value
        // queue and the view queue stay in lockstep.
        push();
        Self::wake(&mut g, |b| matches!(b, Block::Recv { res: r } if *r == res));
        self.cv.notify_all();
        Ok(())
    }

    pub(crate) fn chan_recv<T>(
        &self,
        me: ThreadId,
        res: ResourceId,
        mut pop: impl FnMut() -> Option<T>,
    ) -> Result<T, ()> {
        self.yield_point(me);
        let mut g = self.lock();
        loop {
            if g.aborting {
                drop(g);
                abort_unwind();
            }
            let (view, senders) = {
                let Resource::Channel { msg_views, senders, .. } = &mut g.resources[res] else {
                    unreachable!("resource {res} is not a channel")
                };
                (msg_views.pop_front(), *senders)
            };
            if let Some(v) = view {
                g.threads[me].view.join(&v);
                let t = pop().expect("channel payload queue out of sync with model");
                return Ok(t);
            }
            if senders == 0 {
                return Err(());
            }
            g = self.park(g, me, Block::Recv { res });
        }
    }

    pub(crate) fn chan_sender_inc(&self, res: ResourceId) {
        let mut g = self.lock();
        let Resource::Channel { senders, .. } = &mut g.resources[res] else {
            unreachable!("resource {res} is not a channel")
        };
        *senders += 1;
    }

    /// Sender dropped. Wakes receivers so they can observe disconnection.
    /// Never a yield point: drops happen during unwinds too.
    pub(crate) fn chan_sender_dec(&self, res: ResourceId) {
        let mut g = self.lock();
        {
            let Resource::Channel { senders, .. } = &mut g.resources[res] else {
                unreachable!("resource {res} is not a channel")
            };
            *senders = senders.saturating_sub(1);
            if *senders > 0 {
                return;
            }
        }
        Self::wake(&mut g, |b| matches!(b, Block::Recv { res: r } if *r == res));
        self.cv.notify_all();
    }

    pub(crate) fn chan_receiver_drop(&self, res: ResourceId) {
        let mut g = self.lock();
        let Resource::Channel { receiver_alive, .. } = &mut g.resources[res] else {
            unreachable!("resource {res} is not a channel")
        };
        *receiver_alive = false;
    }

    // ---- threads ---------------------------------------------------------

    /// Register a new model thread (inherits the spawner's view: spawn is a
    /// synchronizing edge). Returns its id; the caller starts the OS thread.
    pub(crate) fn spawn_thread(&self, me: ThreadId) -> ThreadId {
        self.yield_point(me);
        let mut g = self.lock();
        let view = g.threads[me].view.clone();
        g.threads.push(ThreadRec { run: Run::Runnable, view });
        g.threads.len() - 1
    }

    /// Wait (first schedule) for a newly spawned model thread's turn.
    /// Returns `false` if the execution aborted before it ever ran.
    fn wait_first_turn(&self, me: ThreadId) -> bool {
        let mut g = self.lock();
        #[allow(clippy::nonminimal_bool)]
        // the un-"simplified" form reads as "not aborted AND not my turn"
        while !g.aborting && !(g.current == me && g.threads[me].run == Run::Runnable) {
            g = unpoison(self.cv.wait(g));
        }
        !g.aborting
    }

    /// Mark `me` finished, wake joiners, pass the token onward.
    pub(crate) fn finish_thread(&self, me: ThreadId) {
        let mut g = self.lock();
        g.threads[me].run = Run::Finished;
        Self::wake(&mut g, |b| matches!(b, Block::Join { target } if *target == me));
        if g.aborting {
            // Teardown: no scheduling, just report completion when everyone
            // is out (blocked threads are abandoned; their OS threads exit
            // via AbortToken unwinds once woken below).
            if g.threads.iter().all(|t| t.run == Run::Finished) {
                g.all_done = true;
            }
            self.cv.notify_all();
            return;
        }
        self.switch_from_stopped(&mut g, me);
        self.cv.notify_all();
    }

    /// Join edge: blocks until `target` finishes, then joins its view.
    pub(crate) fn join_thread(&self, me: ThreadId, target: ThreadId) {
        self.yield_point(me);
        let mut g = self.lock();
        while g.threads[target].run != Run::Finished {
            g = self.park(g, me, Block::Join { target });
        }
        let tv = g.threads[target].view.clone();
        g.threads[me].view.join(&tv);
    }

    /// During an abort, blocked model threads cannot finish normally; mark
    /// them finished when their OS threads unwind out.
    fn wait_all_done(&self) -> (Vec<Point>, Option<String>, u64) {
        let mut g = self.lock();
        let deadline = std::time::Instant::now() + EXEC_WALL_TIMEOUT;
        while !g.all_done {
            let now = std::time::Instant::now();
            if now >= deadline {
                panic!(
                    "rebeca-verify internal error: execution wedged (threads: {:?})",
                    g.threads.iter().map(|t| format!("{:?}", t.run)).collect::<Vec<_>>()
                );
            }
            let (ng, _) = unpoison(self.cv.wait_timeout(g, deadline - now));
            g = ng;
        }
        (g.trail.clone(), g.failure.clone(), g.steps)
    }
}

/// Entry point each model OS thread runs: install context, wait for the
/// first turn, run the body, handle panics, and mark the thread finished.
fn model_main(exec: Arc<Execution>, tid: ThreadId, body: Box<dyn FnOnce() + Send>) {
    CTX.with(|c| *c.borrow_mut() = Some((exec.clone(), tid)));
    if exec.wait_first_turn(tid) {
        match panic::catch_unwind(AssertUnwindSafe(body)) {
            Ok(()) => {}
            Err(payload) => {
                if !payload.is::<AbortToken>() {
                    // `&*payload`: pass the inner trait object, not the Box
                    // itself unsized into `dyn Any` (which would defeat the
                    // downcasts).
                    exec.record_failure(tid, payload_message(&*payload));
                }
            }
        }
    }
    exec.finish_thread(tid);
    CTX.with(|c| *c.borrow_mut() = None);
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string())
    }
}

/// Spawn a model thread (used by the shim `thread::spawn`).
pub(crate) fn spawn_model_thread(
    exec: &Arc<Execution>,
    me: ThreadId,
    body: Box<dyn FnOnce() + Send>,
) -> ThreadId {
    let tid = exec.spawn_thread(me);
    let exec2 = Arc::clone(exec);
    std::thread::Builder::new()
        .name(format!("rebeca-verify-{tid}"))
        .spawn(move || model_main(exec2, tid, body))
        .expect("failed to spawn model OS thread");
    tid
}

// ---- checker driver ------------------------------------------------------

/// A violation found by the checker, with the schedule that reproduces it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Human-readable description (assertion message, deadlock report, …).
    pub message: String,
    /// `name:i,j,k` schedule string; export as `REBECA_VERIFY_SCHEDULE` to
    /// replay exactly this interleaving.
    pub schedule: String,
}

/// Result of a [`Checker::check`] run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of executions (distinct interleavings) explored.
    pub explored: u64,
    /// `true` if the whole bounded space was covered (no budget cutoff).
    pub complete: bool,
    /// The first violation found, if any. Exploration stops at the first.
    pub failure: Option<Failure>,
}

impl Report {
    /// Panics (with the replay schedule) if a violation was found.
    pub fn assert_ok(&self) {
        if let Some(f) = &self.failure {
            panic!(
                "rebeca-verify found a violation after {} execution(s):\n{}\n\
                 replay with: REBECA_VERIFY_SCHEDULE={}",
                self.explored, f.message, f.schedule
            );
        }
    }

    /// Panics unless a violation was found; returns it otherwise.
    pub fn assert_fails(&self) -> &Failure {
        self.failure.as_ref().unwrap_or_else(|| {
            panic!(
                "rebeca-verify expected a violation but explored {} execution(s) clean \
                 (complete={})",
                self.explored, self.complete
            )
        })
    }
}

/// Bounded exhaustive model checker. Build one per property, configure the
/// bounds, then [`check`](Checker::check) a closure that uses the
/// [`shim`](crate::shim) primitives (directly or through the `sync` facades
/// of `rebeca-core`/`rebeca-net` compiled with `--cfg rebeca_verify`).
pub struct Checker {
    name: String,
    preemption_bound: usize,
    max_executions: u64,
    max_steps: u64,
    injections: HashSet<String>,
    forced_schedule: Option<String>,
}

impl Checker {
    /// New checker. `name` prefixes replay schedules so a single
    /// `REBECA_VERIFY_SCHEDULE` env var targets exactly one property.
    pub fn new(name: &str) -> Self {
        Checker {
            name: name.to_string(),
            preemption_bound: 2,
            max_executions: 500_000,
            max_steps: 20_000,
            injections: HashSet::new(),
            forced_schedule: None,
        }
    }

    /// Set the preemption bound (default 2).
    pub fn preemption_bound(mut self, bound: usize) -> Self {
        self.preemption_bound = bound;
        self
    }

    /// Cap the number of executions (default 500 000). Hitting the cap sets
    /// `complete: false` on the report instead of failing.
    pub fn max_executions(mut self, n: u64) -> Self {
        self.max_executions = n;
        self
    }

    /// Cap steps per execution (default 20 000); exceeding it is reported
    /// as a livelock failure.
    pub fn max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Force a single-schedule replay of a `name:i,j,k` string (the format
    /// printed on failure) instead of exploring. Equivalent to setting
    /// `REBECA_VERIFY_SCHEDULE`, but scoped to this checker — used by the
    /// replay-determinism tests.
    pub fn schedule(mut self, schedule: &str) -> Self {
        self.forced_schedule = Some(schedule.to_string());
        self
    }

    /// Enable a named fault injection for this run. Checked-in code under
    /// `--cfg rebeca_verify` queries [`crate::inject::enabled`] to switch
    /// to a deliberately weakened protocol — how the test suite proves the
    /// checker actually catches the bugs the real orderings prevent.
    pub fn inject(mut self, key: &str) -> Self {
        self.injections.insert(key.to_string());
        self
    }

    fn run_once<F>(&self, body: &Arc<F>, script: Vec<usize>) -> (Vec<Point>, Option<String>)
    where
        F: Fn() + Send + Sync + 'static,
    {
        let exec = Arc::new(Execution::new(script, self.max_steps, self.injections.clone()));
        {
            let mut g = exec.lock();
            g.threads.push(ThreadRec { run: Run::Runnable, view: View::default() });
            g.current = 0;
        }
        let exec2 = Arc::clone(&exec);
        let body2 = Arc::clone(body);
        std::thread::Builder::new()
            .name("rebeca-verify-0".to_string())
            .spawn(move || model_main(exec2, 0, Box::new(move || body2())))
            .expect("failed to spawn model OS thread");
        let (trail, failure, _steps) = exec.wait_all_done();
        (trail, failure)
    }

    fn schedule_string(&self, trail: &[Point]) -> String {
        let idxs: Vec<String> = trail.iter().map(|p| p.chosen.to_string()).collect();
        format!("{}:{}", self.name, idxs.join(","))
    }

    /// Explore all interleavings of `body` within the preemption bound.
    ///
    /// If `REBECA_VERIFY_SCHEDULE=<name>:<i,j,k>` is set and `<name>`
    /// matches, runs exactly that one schedule instead (deterministic
    /// replay of a previously printed failure).
    pub fn check<F>(self, body: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        let forced =
            self.forced_schedule.clone().or_else(|| std::env::var("REBECA_VERIFY_SCHEDULE").ok());
        if let Some(forced) = forced {
            if let Some(csv) = forced.strip_prefix(&format!("{}:", self.name)) {
                let script: Vec<usize> = csv
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse().expect("malformed REBECA_VERIFY_SCHEDULE index"))
                    .collect();
                eprintln!("rebeca-verify: replaying schedule for '{}'", self.name);
                let (trail, failure) = self.run_once(&body, script);
                let schedule = self.schedule_string(&trail);
                return Report {
                    explored: 1,
                    complete: false,
                    failure: failure.map(|message| Failure { message, schedule }),
                };
            }
        }

        let mut script: Vec<usize> = Vec::new();
        let mut explored: u64 = 0;
        loop {
            let (mut trail, failure) = self.run_once(&body, script);
            explored += 1;
            if let Some(message) = failure {
                let schedule = self.schedule_string(&trail);
                return Report {
                    explored,
                    complete: false,
                    failure: Some(Failure { message, schedule }),
                };
            }
            if explored >= self.max_executions {
                return Report { explored, complete: false, failure: None };
            }
            // DFS backtrack: deepest point with an untried admissible
            // alternative; replay the prefix with that alternative.
            let mut next: Option<Vec<usize>> = None;
            while let Some(point) = trail.pop() {
                if let Some(alt) = point.next_alternative(self.preemption_bound) {
                    let mut s: Vec<usize> = trail.iter().map(|p| p.chosen).collect();
                    s.push(alt);
                    next = Some(s);
                    break;
                }
            }
            match next {
                Some(s) => script = s,
                None => return Report { explored, complete: true, failure: None },
            }
        }
    }
}

#[cfg(test)]
mod point_tests {
    use super::*;

    #[test]
    fn value_point_enumerates_all() {
        let p = Point { options: Options::Values(3), chosen: 0, prev: 0, preemptions_before: 0 };
        assert_eq!(p.next_alternative(0), Some(1));
        let p2 = Point { chosen: 2, ..p };
        assert_eq!(p2.next_alternative(0), None);
    }

    #[test]
    fn thread_point_prunes_over_bound() {
        // prev=0 enabled; at the bound, only staying on 0 is admissible.
        let p = Point {
            options: Options::Threads(vec![0, 1, 2]),
            chosen: 0,
            prev: 0,
            preemptions_before: 2,
        };
        assert_eq!(p.next_alternative(2), None);
        // Below the bound, switching is allowed.
        let p2 = Point { preemptions_before: 1, ..p.clone() };
        assert_eq!(p2.next_alternative(2), Some(1));
        // Forced switch (prev not enabled) is never a preemption.
        let p3 = Point {
            options: Options::Threads(vec![1, 2]),
            chosen: 0,
            prev: 0,
            preemptions_before: 2,
        };
        assert_eq!(p3.next_alternative(2), Some(1));
    }

    #[test]
    fn point_len_matches_options() {
        let p = Point {
            options: Options::Threads(vec![4, 7]),
            chosen: 0,
            prev: 4,
            preemptions_before: 0,
        };
        assert_eq!(p.len(), 2);
    }
}
