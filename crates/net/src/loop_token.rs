//! The loop token: which thread may run an event loop's round.
//!
//! An event loop's state sits behind a mutex, its *token*. The loop thread
//! holds it at all times except while it waits on its inbox
//! ([`Holder::park`]). A peer link's reader that finds the token free may
//! *borrow* it ([`LoopToken::try_borrow`]) and run the round that its
//! delivery starts itself, so the loop thread is not woken for it. Two
//! rules keep a borrowed round in step with the loop thread's:
//!
//! * **No overtaking.** [`Pending`] counts the envelopes posted to the
//!   loop's inbox and not yet taken onto its lane. Every sender counts
//!   before it sends ([`Pending::post`]), the loop counts down as it takes
//!   one ([`Pending::taken`], under the token), and a borrow is refused
//!   while the count is not 0. A borrowed delivery thus joins the lane
//!   behind everything posted before it, and each sender's messages keep
//!   their order whichever path carried them.
//! * **No lost wake-up.** [`Holder::park`] records the deadline the loop
//!   thread sleeps until. A borrower that leaves work behind, or sets an
//!   earlier deadline, learns from [`Holder::release`] that it must wake
//!   the loop thread, which it does by posting to the inbox — unless an
//!   envelope is already on its way there.
//!
//! A borrow only ever try-locks, so a reader never waits for a loop.
//!
//! Concurrency comes from the crate's `sync` facade: real primitives in
//! normal builds, model-checked shims under `--cfg rebeca_verify`. The
//! code below is what `crates/verify/tests/loop_token.rs` exhaustively
//! interleaves; its `borrow_ignores_pending` twin lets a borrow overtake a
//! posted envelope and its `borrow_skips_wake` twin leaves a parked loop
//! asleep past a deadline a borrower set, and the checker catches both.

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::lock::{Mutex, MutexGuard};
use std::fmt;
use std::sync::Arc;

/// The envelopes posted to one event loop's inbox and not yet taken onto
/// its lane. Shared by the loop's token and every sender to its inbox.
#[derive(Debug, Default)]
pub struct Pending(AtomicUsize);

impl Pending {
    /// Counts one envelope, then sends it with `send`. Counting first
    /// means a borrower that reads 0 under the token knows that nothing
    /// is on its way to the inbox.
    pub fn post<R>(&self, send: impl FnOnce() -> R) -> R {
        // ordering: Relaxed — the count pairs with `taken` through the
        // inbox (this increment is sequenced before the send, which
        // happens before the receive that precedes the decrement) and is
        // read under the token, whose lock orders every decrement before
        // a borrower's read; coherence alone then makes a read of 0 mean
        // "taken", so no stronger ordering publishes anything.
        self.0.fetch_add(1, Ordering::Relaxed);
        send()
    }

    /// The loop took one posted envelope onto its lane. Called under the
    /// loop's token.
    pub fn taken(&self) {
        // ordering: Relaxed — see `post`.
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Envelopes posted and not yet taken.
    pub fn get(&self) -> usize {
        // ordering: Relaxed — see `post`.
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a borrow was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The token is held: the loop thread is awake, or another reader
    /// borrows it.
    Busy,
    /// Envelopes posted to the inbox have not been taken yet; a borrowed
    /// delivery would overtake them.
    Pending,
}

struct Held<T> {
    state: T,
    /// The deadline the loop thread sleeps until, recorded as it parks.
    parked_until: u64,
}

/// One event loop's state behind its token (see the module doc).
pub struct LoopToken<T> {
    held: Mutex<Held<T>>,
    pending: Arc<Pending>,
}

impl<T> fmt::Debug for LoopToken<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoopToken").field("pending", &self.pending.get()).finish()
    }
}

impl<T> LoopToken<T> {
    /// Puts `state` behind a token; `pending` counts the posts to the
    /// loop's inbox.
    pub fn new(state: T, pending: Arc<Pending>) -> Self {
        LoopToken { held: Mutex::new(Held { state, parked_until: u64::MAX }), pending }
    }

    /// The loop thread takes its token, waiting for a borrower to finish.
    pub fn hold(&self) -> Holder<'_, T> {
        Holder { guard: self.held.lock(), pending: &self.pending }
    }

    /// A reader takes the token without waiting, if the loop thread is
    /// parked, no other reader borrows it and nothing posted waits to be
    /// taken.
    ///
    /// # Errors
    ///
    /// The [`Refusal`] that kept the token from the reader.
    pub fn try_borrow(&self) -> Result<Holder<'_, T>, Refusal> {
        let guard = self.held.try_lock().ok_or(Refusal::Busy)?;
        // Model-checker fault injection: borrow past posted envelopes, so
        // a borrowed delivery can overtake one its sender posted earlier.
        // `crates/verify/tests/loop_token.rs` proves the checker sees it.
        let pending = self.pending.get();
        #[cfg(rebeca_verify)]
        let pending =
            if rebeca_verify::inject::enabled("borrow_ignores_pending") { 0 } else { pending };
        if pending != 0 {
            return Err(Refusal::Pending);
        }
        Ok(Holder { guard, pending: &self.pending })
    }
}

/// The token, held by the loop thread or by a borrower; dereferences to
/// the loop's state. Dropping it releases the token.
pub struct Holder<'a, T> {
    guard: MutexGuard<'a, Held<T>>,
    pending: &'a Pending,
}

impl<T> fmt::Debug for Holder<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Holder").field("parked_until", &self.guard.parked_until).finish()
    }
}

impl<T> Holder<'_, T> {
    /// The loop thread releases its token to wait on its inbox until
    /// `deadline` (`u64::MAX`: until an envelope arrives).
    pub fn park(mut self, deadline: u64) {
        self.guard.parked_until = deadline;
    }

    /// A borrower releases the token. `next` is the earliest deadline in
    /// the loop's queue (`u64::MAX` for none), `left` whether the borrower
    /// left work for the loop thread. True when the caller must wake the
    /// loop thread: the work or the deadline would otherwise wait for its
    /// parked deadline, and no posted envelope will wake it sooner.
    #[must_use]
    pub fn release(self, next: u64, left: bool) -> bool {
        let wake = (left || next < self.guard.parked_until) && self.pending.get() == 0;
        // Model-checker fault injection: never wake the parked loop, so a
        // deadline set by a borrower waits for the old one.
        // `crates/verify/tests/loop_token.rs` proves the checker sees it.
        #[cfg(rebeca_verify)]
        if rebeca_verify::inject::enabled("borrow_skips_wake") {
            return false;
        }
        wake
    }
}

impl<T> std::ops::Deref for Holder<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard.state
    }
}

impl<T> std::ops::DerefMut for Holder<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard.state
    }
}

#[cfg(all(test, not(rebeca_verify)))]
mod tests {
    use super::*;

    #[test]
    fn a_borrow_needs_a_free_token_and_nothing_pending() {
        let pending = Arc::new(Pending::default());
        let token = LoopToken::new(0u32, Arc::clone(&pending));
        let held = token.hold();
        assert_eq!(token.try_borrow().err(), Some(Refusal::Busy), "the loop thread is awake");
        held.park(u64::MAX);
        pending.post(|| ());
        assert_eq!(token.try_borrow().err(), Some(Refusal::Pending), "a post waits");
        pending.taken();
        let mut borrowed = token.try_borrow().expect("parked, nothing pending");
        *borrowed += 1;
        assert_eq!(token.try_borrow().err(), Some(Refusal::Busy), "one borrower at a time");
        assert!(!borrowed.release(u64::MAX, false), "nothing for the loop thread");
        assert_eq!(*token.hold(), 1);
    }

    #[test]
    fn a_borrower_wakes_the_loop_only_when_it_must() {
        let pending = Arc::new(Pending::default());
        let token = LoopToken::new((), Arc::clone(&pending));
        token.hold().park(100);
        let release = |next, left| token.try_borrow().expect("free").release(next, left);
        assert!(!release(100, false), "the loop wakes at 100 anyway");
        assert!(release(99, false), "an earlier deadline");
        assert!(release(u64::MAX, true), "work left behind");
        pending.post(|| ());
        let borrowed = token.hold();
        assert!(!borrowed.release(99, true), "the posted envelope wakes the loop");
    }
}
