//! Attribute-name interning.
//!
//! Notification attributes and filter constraints name attributes by
//! string. On the matching hot path those strings are pure overhead: the
//! broker compares them, hashes them and clones them for every indexed
//! constraint. An [`Interner`] maps each distinct attribute name to a dense
//! [`Symbol`] (`u32`) once, so the matching engine can use array indexing
//! and copyable ids instead.
//!
//! The interner is append-only: symbols stay valid for the lifetime of the
//! interner, and interning the same name twice returns the same symbol.
//!
//! [`SharedInterner`] publishes an [`Interner`] as an **RCU snapshot** so
//! one symbol table can be owned per broker — or per world — and shared
//! (`Arc<SharedInterner>`) by every routing table, local-delivery index and
//! replicator. Writers (rare: only the first sight of a new attribute name)
//! build a new immutable `Interner` and atomically install it; readers work
//! against an immutable snapshot and never serialize on each other — the
//! only shared touch an uncached reader makes is a read-locked `Arc` clone.
//! Because snapshots are append-only *prefixes* of every later snapshot,
//! any symbol ever minted resolves identically in every snapshot taken
//! afterwards — which is what lets the brokers of N node threads sharing
//! one interner match without a single shared lock on the
//! per-notification path.
//!
//! The steady-state read protocol is [`InternerCache`]: each match index
//! keeps the `Arc` of the snapshot it last used plus the generation it was
//! current at, and revalidates with **one atomic load** per matching call.
//! Only when the generation moved (someone interned a genuinely new name)
//! does the reader touch shared state again — one brief lock to clone the
//! new `Arc`. A warm reader therefore performs zero shared-cacheline
//! writes per notification: no lock, no refcount bump, just an `Acquire`
//! load of the generation counter.

use crate::sync::{AtomicU64, Ordering, RwLock};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A dense interned identifier for an attribute name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The dense index of this symbol (suitable for `Vec` indexing).
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw id.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// An append-only string interner for attribute names.
///
/// ```
/// use rebeca_core::intern::Interner;
/// let mut i = Interner::new();
/// let a = i.intern("service");
/// let b = i.intern("service");
/// assert_eq!(a, b);
/// assert_eq!(i.resolve(a), "service");
/// assert_eq!(i.lookup("absent"), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner {
    map: HashMap<Arc<str>, Symbol>,
    names: Vec<Arc<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, allocating a fresh symbol only for names never seen
    /// before.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(sym) = self.map.get(name) {
            return *sym;
        }
        let sym = Symbol(self.names.len() as u32);
        let shared: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&shared));
        self.map.insert(shared, sym);
        sym
    }

    // hot-path: begin (per-notification symbol lookup — no allocation,
    // no locks; see `cargo run -p xtask -- lint`)
    /// Looks a name up without interning it — allocation-free, for the
    /// per-notification hot path.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.map.get(name).copied()
    }
    // hot-path: end

    /// The name behind a symbol.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was minted by a different interner (index out of
    /// range).
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// The name behind a symbol as a shared string (cheap clone of the
    /// interned storage — used through [`SharedInterner::resolve`], which
    /// cannot hand out a borrow of its snapshot).
    ///
    /// # Panics
    ///
    /// Panics if `sym` was minted by a different interner.
    pub fn resolve_shared(&self, sym: Symbol) -> Arc<str> {
        Arc::clone(&self.names[sym.index()])
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A thread-safe, shareable symbol table with wait-free snapshot reads.
///
/// One `SharedInterner` is owned per broker (the [`System`] facade shares a
/// single one across the whole world) and handed to every [`MatchIndex`]
/// via [`MatchIndex::with_interner`]; symbols minted by any holder are
/// valid for every other holder.
///
/// Internally this is an epoch-style RCU cell: the current [`Interner`]
/// lives behind an `Arc` that is *replaced*, never mutated. Interning a
/// name that already exists is a pure snapshot read. Interning a **new**
/// name takes the writer lock, re-checks under it (two racing interns of
/// one name can never mint two symbols), builds the successor snapshot and
/// installs it, then advances the generation counter. Readers either take
/// a fresh snapshot ([`SharedInterner::snapshot`]) or — on the matching
/// hot path — revalidate an [`InternerCache`] against the generation with
/// a single atomic load.
///
/// The write path clones the whole table per **new** name (`O(current
/// size)`), trading writer cost for wait-free readers — the right trade
/// for attribute vocabularies, which are bounded by schema (dozens to
/// hundreds of names), not by filter count. A workload minting tens of
/// thousands of distinct attribute names would pay quadratic warm-up
/// here; see ROADMAP ("interner write amplification") before using it as
/// a general-purpose string interner.
///
/// ```
/// use rebeca_core::intern::SharedInterner;
/// use std::sync::Arc;
/// let shared = Arc::new(SharedInterner::new());
/// let a = shared.intern("service");
/// assert_eq!(shared.lookup("service"), Some(a));
/// assert_eq!(&*shared.resolve(a), "service");
/// // Snapshots are immutable and append-only across generations.
/// let snap = shared.snapshot();
/// shared.intern("room");
/// assert_eq!(snap.lookup("service"), Some(a), "old snapshots stay valid");
/// assert_eq!(snap.lookup("room"), None, "…and immutable");
/// assert_eq!(shared.snapshot().lookup("service"), Some(a));
/// ```
///
/// [`MatchIndex`]: crate::MatchIndex
/// [`MatchIndex::with_interner`]: crate::MatchIndex::with_interner
/// [`System`]: ../../rebeca/struct.System.html
#[derive(Debug)]
pub struct SharedInterner {
    /// Advanced (with `Release` ordering) after each snapshot install;
    /// [`InternerCache`] revalidates against it with one `Acquire` load.
    generation: AtomicU64,
    /// The current snapshot. Readers take the **shared** side only long
    /// enough to clone the `Arc` (uncached reads never serialize on each
    /// other); the exclusive side is taken only to *install* a successor
    /// — rare: first sight of a new name. Never held while matching.
    current: RwLock<Arc<Interner>>,
}

impl Default for SharedInterner {
    fn default() -> Self {
        SharedInterner {
            generation: AtomicU64::new(0),
            current: RwLock::new(Arc::new(Interner::new())),
        }
    }
}

impl SharedInterner {
    /// Creates an empty shared interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name` (a shared snapshot read for names already interned —
    /// concurrent callers never serialize; the writer path clones the
    /// table and installs a new snapshot only for names never seen
    /// before).
    pub fn intern(&self, name: &str) -> Symbol {
        // Fast path: the name is usually already interned, and any
        // snapshot can answer that — borrow under the read guard, no
        // refcount traffic.
        if let Some(sym) = self.current.read().lookup(name) {
            return sym;
        }
        // Model-checker fault injection: advance the generation *before*
        // installing the snapshot. `crates/verify/tests/intern.rs` proves
        // the checker catches this publish-ordering bug (a reader can then
        // observe generation g with fewer than g names installed) and that
        // the printed schedule replays it deterministically.
        #[cfg(rebeca_verify)]
        if rebeca_verify::inject::enabled("intern_publish_early") {
            // ordering: (injected bug) same Release as the real bump, but
            // hoisted before the install it is supposed to sequence after.
            self.generation.fetch_add(1, Ordering::Release);
        }
        let mut slot = self.current.write();
        // Model-checker fault injection: skip the re-check below and mint
        // blindly — the classic check-then-act bug this protocol exists to
        // prevent. `crates/verify/tests/intern.rs` proves the checker finds
        // the interleaving where two racers mint two symbols for one name.
        #[cfg(rebeca_verify)]
        if rebeca_verify::inject::enabled("intern_skip_recheck") {
            let mut next = Interner::clone(&slot);
            let sym = Symbol(next.names.len() as u32);
            let shared_name: Arc<str> = Arc::from(name);
            next.names.push(Arc::clone(&shared_name));
            next.map.insert(shared_name, sym);
            *slot = Arc::new(next);
            // ordering: Release — the injected-bug path still publishes
            // like the real bump below; the *bug* is skipping the re-check.
            self.generation.fetch_add(1, Ordering::Release);
            return sym;
        }
        // Re-check under the writer lock: between our snapshot miss and
        // acquiring the lock a racing intern of the same name may have
        // installed it. Without this check two racers could each mint a
        // symbol for one name — the classic check-then-act window.
        if let Some(sym) = slot.lookup(name) {
            return sym;
        }
        let mut next = Interner::clone(&slot);
        let sym = next.intern(name);
        // Install first, then advance the generation: a reader that
        // observes the new generation and goes to refresh its cache is
        // guaranteed to find (at least) this snapshot installed.
        *slot = Arc::new(next);
        // ordering: Release pairs with the Acquire load in `generation()`.
        // The happens-before edge it publishes is "snapshot installed
        // before generation g became visible", which is what lets
        // `InternerCache::get` treat an unchanged generation as proof its
        // cached snapshot is still complete. (The write lock held across
        // install+bump additionally keeps the two writer steps atomic for
        // other *writers*; it does not order anything for the lock-free
        // generation readers — the Release/Acquire pair does that.)
        self.generation.fetch_add(1, Ordering::Release);
        sym
    }

    /// The current immutable snapshot. All lookups against it are
    /// wait-free; it stays valid (and unchanged) however many names are
    /// interned afterwards. Taking it is one shared (read) lock held for
    /// an `Arc` clone — uncached readers never serialize on each other.
    pub fn snapshot(&self) -> Arc<Interner> {
        Arc::clone(&self.current.read())
    }

    /// The current snapshot generation — advances exactly once per newly
    /// interned name. [`InternerCache`] compares against this to decide
    /// whether its snapshot is still current.
    pub fn generation(&self) -> u64 {
        // ordering: Acquire pairs with the Release `fetch_add` in
        // `intern()`: a reader that observes generation g here also
        // observes every snapshot installed before g was published, so a
        // cache whose stamp equals g provably holds a complete table.
        // Relaxed would let a warm cache skip a refresh it needs.
        self.generation.load(Ordering::Acquire)
    }

    /// Looks a name up without interning it (a borrow under the shared
    /// read guard — no snapshot `Arc` clone).
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.current.read().lookup(name)
    }

    /// The name behind a symbol.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was minted by a different interner.
    pub fn resolve(&self, sym: Symbol) -> Arc<str> {
        self.current.read().resolve_shared(sym)
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.current.read().len()
    }

    /// Returns `true` if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.current.read().is_empty()
    }

    /// Runs `f` against the current table under the shared read guard —
    /// for callers that batch several lookups without wanting to keep a
    /// snapshot alive. (Long-running readers should prefer
    /// [`SharedInterner::snapshot`], which lets writers install successors
    /// while `f` keeps reading the old table.)
    pub fn with_read<R>(&self, f: impl FnOnce(&Interner) -> R) -> R {
        f(&self.current.read())
    }
}

/// A reader's cached snapshot of a [`SharedInterner`], revalidated with a
/// single atomic generation load.
///
/// This is the steady-state protocol of the matching hot path: each
/// [`MatchIndex`](crate::MatchIndex) (hence each broker's routing table)
/// owns one cache; [`InternerCache::get`] returns
/// the current table without touching any shared cache line as long as no
/// new attribute name appeared anywhere in the world. Only when the
/// generation moved does it briefly lock to clone the new `Arc`.
///
/// ```
/// use rebeca_core::intern::{InternerCache, SharedInterner};
/// let shared = SharedInterner::new();
/// let a = shared.intern("a");
/// let mut cache = InternerCache::default();
/// assert_eq!(cache.get(&shared).lookup("a"), Some(a));
/// let b = shared.intern("b"); // generation moves → next get() revalidates
/// assert_eq!(cache.get(&shared).lookup("b"), Some(b));
/// ```
#[derive(Debug, Clone, Default)]
pub struct InternerCache {
    generation: u64,
    snapshot: Option<Arc<Interner>>,
}

impl InternerCache {
    // hot-path: begin (warm revalidation — one Acquire load, no locks,
    // no allocation; the cold refresh lives in `refresh` below)
    /// Returns a snapshot that is current as of this call, refreshing the
    /// cache only if `shared`'s generation moved since the last call.
    /// Allocation-free in both cases; lock-free and wait-free when the
    /// cache is warm.
    pub fn get<'a>(&'a mut self, shared: &SharedInterner) -> &'a Interner {
        // Load the generation *before* (possibly) cloning the snapshot:
        // if a writer installs in between, we cache a newer snapshot under
        // an older generation, which only costs one redundant refresh —
        // never a stale read, because snapshots are append-only.
        let generation = shared.generation();
        if self.snapshot.is_none() || generation != self.generation {
            self.refresh(shared, generation);
        }
        self.snapshot.as_deref().expect("snapshot cached above")
    }
    // hot-path: end

    /// The cold path of [`get`](InternerCache::get): clone the current
    /// snapshot (one brief read lock) and stamp it with the generation
    /// loaded *before* the clone.
    #[cold]
    fn refresh(&mut self, shared: &SharedInterner, generation: u64) {
        // Model-checker fault injection: stamp with a generation loaded
        // *after* the snapshot clone — the reversed read order the comment
        // in `get` warns about. A writer between the clone and the load
        // then stamps an old table as current forever; see
        // `crates/verify/tests/intern.rs`.
        #[cfg(rebeca_verify)]
        if rebeca_verify::inject::enabled("cache_stamp_late") {
            self.snapshot = Some(shared.snapshot());
            self.generation = shared.generation();
            return;
        }
        self.snapshot = Some(shared.snapshot());
        self.generation = generation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(i.intern("a"), a);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(b), "b");
    }

    #[test]
    fn lookup_never_allocates_symbols() {
        let mut i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.lookup("x"), None);
        let x = i.intern("x");
        assert_eq!(i.lookup("x"), Some(x));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn shared_interner_mints_consistent_symbols() {
        let shared = Arc::new(SharedInterner::new());
        assert!(shared.is_empty());
        let a = shared.intern("a");
        let other = Arc::clone(&shared);
        assert_eq!(other.intern("a"), a, "same name, same symbol, any holder");
        let b = other.intern("b");
        assert_ne!(a, b);
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.lookup("b"), Some(b));
        assert_eq!(shared.lookup("absent"), None);
        assert_eq!(&*shared.resolve(b), "b");
        assert_eq!(shared.with_read(|i| i.lookup("a")), Some(a));
    }

    #[test]
    fn generation_advances_once_per_new_name() {
        let shared = SharedInterner::new();
        let g0 = shared.generation();
        shared.intern("x");
        assert_eq!(shared.generation(), g0 + 1);
        shared.intern("x"); // already interned: pure read, no new snapshot
        assert_eq!(shared.generation(), g0 + 1);
        shared.intern("y");
        assert_eq!(shared.generation(), g0 + 2);
    }

    #[test]
    fn snapshots_are_immutable_append_only_prefixes() {
        let shared = SharedInterner::new();
        let a = shared.intern("a");
        let old = shared.snapshot();
        let b = shared.intern("b");
        // The old snapshot is frozen at its generation…
        assert_eq!(old.len(), 1);
        assert_eq!(old.lookup("a"), Some(a));
        assert_eq!(old.lookup("b"), None);
        // …and the new one extends it without renumbering anything.
        let new = shared.snapshot();
        assert_eq!(new.len(), 2);
        assert_eq!(new.lookup("a"), Some(a));
        assert_eq!(new.lookup("b"), Some(b));
        assert_eq!(new.resolve(a), "a");
    }

    #[test]
    fn cache_revalidates_only_on_generation_moves() {
        let shared = SharedInterner::new();
        let a = shared.intern("a");
        let mut cache = InternerCache::default();
        let p1: *const Interner = cache.get(&shared);
        let p2: *const Interner = cache.get(&shared);
        assert_eq!(p1, p2, "warm cache hands out the same snapshot");
        assert_eq!(cache.get(&shared).lookup("a"), Some(a));
        let b = shared.intern("b");
        let snap = cache.get(&shared);
        assert_eq!(snap.lookup("a"), Some(a));
        assert_eq!(snap.lookup("b"), Some(b), "stale cache refreshed after intern");
    }

    #[test]
    fn shared_interner_is_consistent_across_threads() {
        let shared = Arc::new(SharedInterner::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    (0..64).map(|i| shared.intern(&format!("attr-{}", i % 8))).collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Symbol>> =
            handles.into_iter().map(|h| h.join().expect("no panic")).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1], "every thread resolves identical symbols");
        }
        assert_eq!(shared.len(), 8);
    }

    /// The check-then-act regression: many threads race to intern the
    /// *same fresh* names simultaneously (released by a barrier, so the
    /// snapshot-miss → writer-lock window is actually contended). Exactly
    /// one symbol per name may ever exist, every racer must agree on it,
    /// and the table must stay dense.
    #[test]
    fn racing_interns_never_mint_two_symbols_for_one_name() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 64;
        let shared = Arc::new(SharedInterner::new());
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut got = Vec::with_capacity(ROUNDS);
                    for round in 0..ROUNDS {
                        // Everyone attacks the same brand-new name at once.
                        barrier.wait();
                        got.push(shared.intern(&format!("contended-{round}")));
                    }
                    got
                })
            })
            .collect();
        let results: Vec<Vec<Symbol>> =
            handles.into_iter().map(|h| h.join().expect("no panic")).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1], "racing threads must agree on every symbol");
        }
        assert_eq!(shared.len(), ROUNDS, "one symbol per distinct name, ever");
        // Dense and resolvable: the final snapshot maps each name back.
        let snap = shared.snapshot();
        for (round, sym) in results[0].iter().enumerate() {
            assert!(sym.index() < ROUNDS, "symbols stay dense");
            assert_eq!(&*snap.resolve_shared(*sym), format!("contended-{round}"));
        }
    }
}
