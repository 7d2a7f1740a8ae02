//! `rebeca-verify` — bounded exhaustive-interleaving model checker for the
//! rebeca broker's hot-path concurrency protocols.
//!
//! The broker's concurrent pieces — the bounded `SendBuffer`,
//! link-lifecycle epoch arbitration, the replica group's view change —
//! rest on safety arguments that stress tests only sample a handful of
//! interleavings of. This crate checks them *all*
//! (within a preemption bound), loom-style — and since the workspace is
//! offline and cannot vendor loom, it is a purpose-built mini
//! implementation:
//!
//! * [`shim`] — drop-in `AtomicU64`/`AtomicUsize`/`AtomicBool` (explicit
//!   orderings honored under a store-buffer-style weak-memory model),
//!   `Mutex`, `Condvar`, mpsc channels, and `thread`
//!   spawn/join, mirroring the exact API surface the production code
//!   uses. `rebeca-net` re-exports these through a small `sync` facade
//!   module when compiled with `--cfg rebeca_verify`, so the
//!   *production* protocol code is what gets checked. (Symbol tables are
//!   per-broker, owned by one node on one event loop, and need no model.)
//! * [`Checker`] — DFS over every scheduling (and Relaxed-load value)
//!   choice point with a preemption bound (default 2), deadlock and
//!   livelock detection, and first-failure abort.
//! * Replay — a failure prints a `REBECA_VERIFY_SCHEDULE=<name>:<i,j,...>`
//!   string; exporting that env var re-runs exactly the failing
//!   interleaving, deterministically, like the PR 4 soak seed.
//! * [`inject`] — named fault injections. Tests prove the checker has
//!   teeth by re-checking each protocol with a deliberately weakened
//!   variant (skipped double-check, ignored epoch, …) and asserting the
//!   checker finds the bug and the printed schedule replays it.
//!
//! Run the protocol checks with:
//!
//! ```text
//! RUSTFLAGS="--cfg rebeca_verify" cargo test -p rebeca-verify --release
//! ```
//!
//! (The cfg is deliberately *not* a cargo feature: feature unification
//! would silently swap the shims into normal builds of dependent crates.)

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod sched;
pub mod shim;

pub use sched::{Checker, Failure, Report};

/// Named fault injections for proving the checker catches real bugs.
///
/// Production code compiled under `--cfg rebeca_verify` may branch on
/// [`enabled`](inject::enabled) to swap in a deliberately broken protocol
/// variant (for example, skipping the send buffer's occupancy re-check
/// after a wakeup). The keys are enabled per-[`Checker`] via [`Checker::inject`], so
/// parallel tests never interfere.
pub mod inject {
    /// True when the named injection was enabled on the checker driving
    /// the current model thread. Always false outside a model run.
    pub fn enabled(key: &str) -> bool {
        if !crate::sched::in_model() {
            return false;
        }
        let (exec, _) = crate::sched::ctx();
        exec.injected(key)
    }
}
