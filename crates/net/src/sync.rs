//! Concurrency-primitive facade: real primitives in normal builds,
//! model-checked shims under `--cfg rebeca_verify`.
//!
//! The send-buffer, link-lifecycle and loop-token protocols import their
//! locks and atomics from here instead of `parking_lot` and `std`, so the
//! exact production code can be compiled against the
//! [`rebeca-verify`](../../rebeca_verify/index.html) shims and
//! exhaustively interleaved by the model checker — no copies, no drift.
//! The event loop's inbox is *not* routed through the facade: it relies on
//! wall-clock timeouts (`recv_timeout`), which have no meaning under a
//! model checker that owns the schedule.
//!
//! The switch is a compiler `cfg` (set via `RUSTFLAGS="--cfg
//! rebeca_verify"`), deliberately *not* a cargo feature: feature
//! unification would let one crate in a build graph silently swap the
//! shims into every other crate's normal build.

#[cfg(not(rebeca_verify))]
pub(crate) mod lock {
    pub(crate) use parking_lot::{Condvar, Mutex, MutexGuard};
}

#[cfg(rebeca_verify)]
pub(crate) mod lock {
    pub(crate) use rebeca_verify::shim::{Condvar, Mutex, MutexGuard};
}

#[cfg(not(rebeca_verify))]
pub(crate) mod atomic {
    pub(crate) use std::sync::atomic::{AtomicUsize, Ordering};
}

#[cfg(rebeca_verify)]
pub(crate) mod atomic {
    pub(crate) use rebeca_verify::shim::{AtomicUsize, Ordering};
}
