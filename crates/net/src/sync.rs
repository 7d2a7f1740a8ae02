//! Concurrency-primitive facade: real primitives in normal builds,
//! model-checked shims under `--cfg rebeca_verify`.
//!
//! The send-buffer and link-lifecycle protocols import their locks from
//! here instead of `parking_lot`, so the exact production code can be
//! compiled against the [`rebeca-verify`](../../rebeca_verify/index.html)
//! shims and exhaustively interleaved by the model checker — no copies, no
//! drift. The live runtime's event loop is *not* routed through the facade: it
//! relies on wall-clock timeouts (`recv_timeout`), which have no meaning
//! under a model checker that owns the schedule.
//!
//! The switch is a compiler `cfg` (set via `RUSTFLAGS="--cfg
//! rebeca_verify"`), deliberately *not* a cargo feature: feature
//! unification would let one crate in a build graph silently swap the
//! shims into every other crate's normal build.

#[cfg(not(rebeca_verify))]
pub(crate) mod lock {
    pub(crate) use parking_lot::{Condvar, Mutex};
}

#[cfg(rebeca_verify)]
pub(crate) mod lock {
    pub(crate) use rebeca_verify::shim::{Condvar, Mutex};
}
