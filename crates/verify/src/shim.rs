//! Model-checked drop-in replacements for the concurrency primitives the
//! rebeca hot paths use.
//!
//! Each shim mirrors the exact API surface of the real type it replaces
//! (`parking_lot`-style locks without poisoning, `crossbeam`-style mpsc
//! channels, `std::thread`-style spawn/join, `std::sync::atomic` atomics
//! with explicit orderings), so `rebeca-core`/`rebeca-net` switch between
//! real and shimmed primitives with a one-line `cfg` in their `sync`
//! facade modules — production code is compiled, not copied, into the
//! model.
//!
//! Mechanics: every shim object lazily registers a resource with the
//! current `Execution` (re-registering — and thereby
//! resetting to its initial state — when a new execution starts, detected
//! by serial number). Payload values live inside the shim object guarded
//! by an ordinary `std` lock; that lock is never contended, because the
//! model scheduler only lets one thread run at a time — the *model* state
//! (who holds a lock, which store a load may read, who is parked where) is
//! what drives interleaving exploration.
//!
//! `Arc` is re-exported from `std` unchanged: reference-count races are
//! not among the checked properties (the protocols under test never rely
//! on drop ordering), and modeling them would multiply the search space
//! for no coverage.

use crate::sched::{self, Execution, Resource, ResourceId, ThreadId};
use std::collections::VecDeque;
use std::sync::Mutex as StdMutex;
use std::sync::PoisonError;

pub use std::sync::atomic::Ordering;
pub use std::sync::Arc;

fn unpoison<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Lazy per-execution resource registration shared by all shim objects.
#[derive(Debug, Default)]
struct Reg {
    slot: StdMutex<Option<(u64, ResourceId)>>,
}

impl Reg {
    const fn new() -> Self {
        Reg { slot: StdMutex::new(None) }
    }

    /// Resource id within `exec`, registering (and resetting model state
    /// to `make()`) if this object was last used in an older execution.
    fn id(&self, exec: &Execution, make: impl FnOnce() -> Resource) -> ResourceId {
        let mut slot = unpoison(self.slot.lock());
        match *slot {
            Some((serial, id)) if serial == exec.serial => id,
            _ => {
                let id = exec.register(make());
                *slot = Some((exec.serial, id));
                id
            }
        }
    }
}

// ---- atomics -------------------------------------------------------------

macro_rules! shim_atomic {
    ($name:ident, $prim:ty, $to:expr, $from:expr) => {
        /// Model-checked atomic. Mirrors the `std::sync::atomic` API used
        /// by the hot paths; `Relaxed` loads may observe any
        /// coherence-permitted store, which is how the checker catches
        /// orderings weakened below what a protocol needs.
        #[derive(Debug, Default)]
        pub struct $name {
            init: $prim,
            reg: Reg,
        }

        impl $name {
            /// Creates a new atomic with the given initial value.
            pub const fn new(v: $prim) -> Self {
                $name { init: v, reg: Reg::new() }
            }

            fn res(&self, exec: &Execution) -> ResourceId {
                let to: fn($prim) -> u64 = $to;
                let init = to(self.init);
                self.reg
                    .id(exec, || Resource::Atomic { stores: vec![crate::sched::init_store(init)] })
            }

            fn with<R>(&self, f: impl FnOnce(&Execution, ThreadId, ResourceId) -> R) -> R {
                let (exec, me) = sched::ctx();
                let res = self.res(&exec);
                f(&exec, me, res)
            }

            /// Loads the value with the given ordering.
            pub fn load(&self, ord: Ordering) -> $prim {
                let from: fn(u64) -> $prim = $from;
                from(self.with(|e, me, res| e.atomic_load(me, res, ord)))
            }

            /// Stores a value with the given ordering.
            pub fn store(&self, v: $prim, ord: Ordering) {
                let to: fn($prim) -> u64 = $to;
                self.with(|e, me, res| e.atomic_store(me, res, to(v), ord))
            }

            /// Atomic add; returns the previous value.
            pub fn fetch_add(&self, v: $prim, ord: Ordering) -> $prim {
                let to: fn($prim) -> u64 = $to;
                let from: fn(u64) -> $prim = $from;
                from(
                    self.with(|e, me, res| {
                        e.atomic_rmw(me, res, ord, |old| old.wrapping_add(to(v)))
                    }),
                )
            }

            /// Atomic subtract; returns the previous value.
            pub fn fetch_sub(&self, v: $prim, ord: Ordering) -> $prim {
                let to: fn($prim) -> u64 = $to;
                let from: fn(u64) -> $prim = $from;
                from(
                    self.with(|e, me, res| {
                        e.atomic_rmw(me, res, ord, |old| old.wrapping_sub(to(v)))
                    }),
                )
            }

            /// Atomic swap; returns the previous value.
            pub fn swap(&self, v: $prim, ord: Ordering) -> $prim {
                let to: fn($prim) -> u64 = $to;
                let from: fn(u64) -> $prim = $from;
                from(self.with(|e, me, res| e.atomic_rmw(me, res, ord, |_| to(v))))
            }

            /// Compare-and-exchange; `Ok(previous)` on success.
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                let to: fn($prim) -> u64 = $to;
                let from: fn(u64) -> $prim = $from;
                self.with(|e, me, res| {
                    e.atomic_cas(me, res, to(current), to(new), success, failure)
                })
                .map(from)
                .map_err(from)
            }
        }
    };
}

shim_atomic!(AtomicU64, u64, |v| v, |v| v);
shim_atomic!(AtomicUsize, usize, |v| v as u64, |v| v as usize);
shim_atomic!(AtomicBool, bool, |v| v as u64, |v| v != 0);

// ---- locks ---------------------------------------------------------------

/// Model-checked mutex with the `parking_lot` API (no poisoning:
/// `lock()` returns the guard directly).
#[derive(Debug, Default)]
pub struct Mutex<T> {
    reg: Reg,
    data: StdMutex<T>,
}

/// Guard for [`Mutex`]; releases the model lock on drop.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    res: ResourceId,
    /// False while parked in `Condvar::wait` (the model lock is released
    /// there); guards against a double-release if the execution aborts
    /// mid-wait and this guard drops during the unwind.
    held: bool,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(t: T) -> Self {
        Mutex { reg: Reg::new(), data: StdMutex::new(t) }
    }

    fn res(&self, exec: &Execution) -> ResourceId {
        self.reg.id(exec, sched::new_lock)
    }

    /// Acquires the mutex (a model scheduling point; blocks the model
    /// thread if held).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let (exec, me) = sched::ctx();
        let res = self.res(&exec);
        exec.lock_acquire(me, res);
        MutexGuard { mutex: self, inner: Some(unpoison(self.data.lock())), res, held: true }
    }

    /// Acquires the mutex if no model thread holds it (a model scheduling
    /// point; never blocks).
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let (exec, me) = sched::ctx();
        let res = self.res(&exec);
        exec.lock_try_acquire(me, res).then(|| MutexGuard {
            mutex: self,
            inner: Some(unpoison(self.data.lock())),
            res,
            held: true,
        })
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        unpoison(self.data.into_inner())
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard payload present")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard payload present")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.take();
        if self.held {
            let (exec, me) = sched::ctx();
            exec.lock_release(me, self.res, std::thread::panicking());
        }
    }
}

// ---- condvar -------------------------------------------------------------

/// Model-checked condition variable with the `parking_lot` API
/// (`wait(&mut guard)`). Notifications with no waiter are lost — exactly
/// the semantics whose misuse (signal-before-wait races) the checker is
/// built to expose.
#[derive(Debug, Default)]
pub struct Condvar {
    reg: Reg,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar { reg: Reg::new() }
    }

    fn res(&self, exec: &Execution) -> ResourceId {
        self.reg.id(exec, sched::new_condvar)
    }

    /// Atomically releases the guard's mutex and parks until notified,
    /// then reacquires the mutex.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let (exec, me) = sched::ctx();
        let cv_res = self.res(&exec);
        // Drop the payload guard across the park: the model releases the
        // mutex, so the payload must be unlocked too. `held` is cleared so
        // an abort while parked doesn't double-release in the guard drop.
        guard.inner.take();
        guard.held = false;
        exec.cond_wait(me, cv_res, guard.res);
        guard.held = true;
        guard.inner = Some(unpoison(guard.mutex.data.lock()));
    }

    /// Wakes one parked waiter (FIFO in the model), if any.
    pub fn notify_one(&self) {
        let (exec, me) = sched::ctx();
        let res = self.res(&exec);
        exec.cond_notify(me, res, false);
    }

    /// Wakes all parked waiters.
    pub fn notify_all(&self) {
        let (exec, me) = sched::ctx();
        let res = self.res(&exec);
        exec.cond_notify(me, res, true);
    }
}

// ---- channels ------------------------------------------------------------

/// Model-checked mpsc channel with the `crossbeam::channel` API subset the
/// codebase uses (`unbounded`, `Sender::send`, `Receiver::recv`,
/// disconnect-on-drop semantics).
pub mod channel {
    use super::*;

    /// Error returned by [`Sender::send`] when the receiver is gone; holds
    /// the unsent value like `crossbeam`'s.
    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug)]
    struct ChanInner<T> {
        reg: Reg,
        queue: StdMutex<VecDeque<T>>,
    }

    impl<T> ChanInner<T> {
        fn res(&self, exec: &Execution) -> ResourceId {
            self.reg.id(exec, sched::new_channel)
        }
    }

    /// Sending half; clonable (mpsc).
    #[derive(Debug)]
    pub struct Sender<T> {
        inner: Arc<ChanInner<T>>,
    }

    /// Receiving half.
    #[derive(Debug)]
    pub struct Receiver<T> {
        inner: Arc<ChanInner<T>>,
    }

    /// Creates an unbounded model-checked channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(ChanInner { reg: Reg::new(), queue: StdMutex::new(VecDeque::new()) });
        // Register eagerly so sender accounting starts at exactly one.
        let (exec, _) = sched::ctx();
        let res = inner.res(&exec);
        exec.chan_sender_inc(res);
        (Sender { inner: Arc::clone(&inner) }, Receiver { inner })
    }

    impl<T> Sender<T> {
        /// Sends a value (model scheduling point). Fails if the receiver
        /// was dropped, returning the value back.
        pub fn send(&self, t: T) -> Result<(), SendError<T>> {
            let (exec, me) = sched::ctx();
            let res = self.inner.res(&exec);
            let mut slot = Some(t);
            let pushed = exec.chan_send(me, res, || {
                unpoison(self.inner.queue.lock())
                    .push_back(slot.take().expect("send payload present"));
            });
            match pushed {
                Ok(()) => Ok(()),
                Err(()) => Err(SendError(slot.take().expect("send payload present"))),
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            let (exec, _) = sched::ctx();
            let res = self.inner.res(&exec);
            exec.chan_sender_inc(res);
            Sender { inner: Arc::clone(&self.inner) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            // Never a scheduling point: senders drop during unwinds too.
            if !sched::in_model() {
                return;
            }
            let (exec, _) = sched::ctx();
            let res = self.inner.res(&exec);
            exec.chan_sender_dec(res);
        }
    }

    impl<T> Receiver<T> {
        /// Receives the next value (model scheduling point; parks until a
        /// message arrives or every sender is dropped).
        pub fn recv(&self) -> Result<T, RecvError> {
            let (exec, me) = sched::ctx();
            let res = self.inner.res(&exec);
            exec.chan_recv(me, res, || unpoison(self.inner.queue.lock()).pop_front())
                .map_err(|()| RecvError)
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if !sched::in_model() {
                return;
            }
            let (exec, _) = sched::ctx();
            let res = self.inner.res(&exec);
            exec.chan_receiver_drop(res);
        }
    }
}

// ---- threads -------------------------------------------------------------

/// Model-checked `std::thread` subset: `spawn`, `Builder::name().spawn()`,
/// `JoinHandle::join`.
pub mod thread {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Handle to a spawned model thread; joining is a synchronizing edge.
    #[derive(Debug)]
    pub struct JoinHandle<T> {
        tid: ThreadId,
        slot: Arc<StdMutex<Option<T>>>,
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish and returns its result.
        ///
        /// In the model a panicking child aborts the whole execution as a
        /// checker failure, so unlike `std` this never observes `Err` —
        /// the `Result` exists for API parity.
        pub fn join(self) -> std::thread::Result<T> {
            let (exec, me) = sched::ctx();
            exec.join_thread(me, self.tid);
            match unpoison(self.slot.lock()).take() {
                Some(v) => Ok(v),
                // Child panicked: the execution is aborting; unwind too.
                None => sched::abort_now(),
            }
        }
    }

    /// Spawns a model thread.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        Builder::new().spawn(f).expect("model spawn cannot fail")
    }

    /// `std::thread::Builder` mirror (the name is accepted and applied to
    /// the backing OS thread for debuggability).
    #[derive(Debug, Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        /// Creates a new builder.
        pub fn new() -> Self {
            Builder { name: None }
        }

        /// Names the thread.
        pub fn name(mut self, name: String) -> Self {
            self.name = Some(name);
            self
        }

        /// Spawns a model thread.
        pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            let (exec, me) = sched::ctx();
            let slot = Arc::new(StdMutex::new(None::<T>));
            let slot2 = Arc::clone(&slot);
            let body = Box::new(move || {
                let v = f();
                *unpoison(slot2.lock()) = Some(v);
            });
            let tid = sched::spawn_model_thread(&exec, me, body);
            Ok(JoinHandle { tid, slot })
        }
    }
}
