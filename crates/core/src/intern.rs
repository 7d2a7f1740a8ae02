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
//! Each [`MatchIndex`](crate::MatchIndex) owns one, so every broker has its
//! own symbol table, read and written only on its node thread. Symbols
//! never leave it: they cross no wire and enter no log.

use parking_lot::Mutex;
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

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A lock-guarded [`Interner`] for the end-to-end benchmark only.
///
/// Nothing in the product shares a symbol table. The frozen benchmark
/// still builds one (`bench/src/tier.rs:114`, handed to
/// [`BrokerCore::with_shards`], which ignores it, at `:137`) and times
/// `core.codec.archived_parse_ns` through one with an [`InternerCache`]
/// (`bench/src/kernels.rs:100-106`). Delete this and [`InternerCache`]
/// once the benchmark drops those calls.
///
/// [`BrokerCore::with_shards`]: ../../rebeca_broker/struct.BrokerCore.html#method.with_shards
#[derive(Debug, Default)]
pub struct SharedInterner(Mutex<Interner>);

impl SharedInterner {
    /// Creates an empty shared interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name` under the lock.
    pub fn intern(&self, name: &str) -> Symbol {
        self.0.lock().intern(name)
    }
}

/// A reader's copy of a [`SharedInterner`], for the benchmark only (see
/// there): `bench/src/kernels.rs:106` resolves archived symbols through
/// [`InternerCache::get`].
#[derive(Debug, Clone, Default)]
pub struct InternerCache(Interner);

impl InternerCache {
    /// The current table of `shared`: the cached copy, re-copied first if
    /// `shared` has interned a name since the previous call.
    pub fn get(&mut self, shared: &SharedInterner) -> &Interner {
        let current = shared.0.lock();
        if current.len() != self.0.len() {
            self.0.clone_from(&current);
        }
        &self.0
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
    fn cache_sees_names_interned_after_its_previous_get() {
        let shared = SharedInterner::new();
        let a = shared.intern("a");
        let mut cache = InternerCache::default();
        assert_eq!(cache.get(&shared).lookup("a"), Some(a));
        assert_eq!(cache.get(&shared).lookup("b"), None);
        let b = shared.intern("b");
        assert_eq!(cache.get(&shared).lookup("b"), Some(b));
        assert_eq!(cache.get(&shared).lookup("a"), Some(a));
    }
}
