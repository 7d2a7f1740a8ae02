//! The value-keyed matching index.
//!
//! Brokers must decide, for every incoming notification, which routing-table
//! entries (and which locally attached clients) it matches. A filter is a
//! conjunction, so it can only match a notification that satisfies any
//! *one* of its constraints — and when that constraint is `attr == v`,
//! `attr ∈ {v, …}` or `attr ∈ locations`, the notifications that satisfy it
//! are exactly those carrying one of a few known values. The index uses
//! that:
//!
//! * **Filing.** Every non-empty filter is filed under exactly **one** of
//!   its constraints, its *access constraint*. If the filter has
//!   value-keyed constraints ([`Predicate::Eq`], [`Predicate::In`],
//!   [`Predicate::InLocations`]), it is filed under the one whose buckets
//!   hold the fewest filters at insert time — `service == s ∧ room == r`
//!   lands under `room`, not under the value every subscriber shares — in
//!   one bucket per value, keyed per attribute by the value's canonical
//!   digest. Otherwise it goes on the *residual* list of its first
//!   constraint's attribute.
//! * **Matching.** For each attribute a notification carries, the
//!   candidates are that attribute's residual list plus the one bucket the
//!   attribute's value selects. A filter is filed once and a notification
//!   has one value per attribute, so no filter is a candidate twice.
//! * **Verification.** Being a candidate says one constraint is *probably*
//!   satisfied (bucket keys are digests: unequal values may share one) and
//!   nothing about the others, so every candidate is checked against
//!   **all** of its constraints before it is reported.
//! * **Destinations.** A broker does not want the matching filters, it
//!   wants the *links and clients* behind them — and mobility makes "many
//!   filters, few destinations" the normal shape (a relocated client's
//!   whole subscription set sits behind one link at every broker on the
//!   path). A filter may therefore carry a dense *destination* number
//!   ([`MatchIndex::insert_to`]), kept in a side array parallel to the
//!   slots, and [`MatchIndex::matching_destinations`] reports every
//!   destination with at least one matching filter **once**: a candidate
//!   whose destination this call has already reported is skipped without
//!   being verified — without its slot being read at all — and once every
//!   destination that has a filter in the index is reported the walk ends.
//!   The stop rule cannot fire while some live destination has no matching
//!   filter; the walk then visits every candidate but still verifies only
//!   those of undecided destinations. With as many destinations as filters
//!   nothing is skipped and the cost is [`MatchIndex::matching_into`]'s.
//!
//! The per-notification cost is therefore the number of filters that share
//! a value with the notification, not the size of the table. What stays
//! linear is the residual list: a filter with no value-keyed constraint
//! (`price < 10`, `topic starts-with "sport"`) is a candidate for every
//! notification that carries its first attribute.
//!
//! Built for the hot path:
//!
//! * attribute names are interned to dense [`Symbol`]s, so an attribute no
//!   filter constrains costs one table lookup and nothing else;
//! * buckets hold dense slot ids only and keep a single filter inline;
//! * no filter is a candidate twice, so there is no per-*filter* call
//!   state. The destination form keeps one generation stamp per
//!   *destination* — "reported in this call" — because several filters of
//!   one destination are exactly what it exists to skip; the stamps are
//!   sized when a destination's first filter is inserted, never during a
//!   call, and a new call invalidates them all by bumping the generation;
//! * [`MatchIndex::matching_into`] and
//!   [`MatchIndex::matching_destinations`] perform **zero** heap
//!   allocation per notification.

use crate::digest::Fnv1a;
use crate::filter::{Constraint, Filter, Predicate};
use crate::intern::{InternerCache, SharedInterner, Symbol};
use crate::notification::Notification;
use crate::value::Value;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::ControlFlow;
use std::sync::Arc;

/// One indexed filter in its dense slot.
#[derive(Debug, Clone)]
struct Slot<K> {
    key: K,
    filter: Filter,
    /// Position, in the filter's constraint list, of the access constraint
    /// (the one the filter is filed under). Meaningless for the empty
    /// filter, which lives in `universal`.
    access: u32,
}

/// The slots filed under one `(attribute, value)` pair, in filing order.
/// Most values are wanted by one filter, which is kept inline; `Many`
/// holds two or more.
#[derive(Debug, Clone)]
enum Bucket {
    One(u32),
    Many(Vec<u32>),
}

/// The destination of a filter that was given none ([`MatchIndex::insert`]).
/// No stamp exists for it, which is how the destination walk tells.
const NO_DEST: u32 = u32::MAX;

/// The per-call state of the destination walk: which destinations the
/// current call has already reported.
#[derive(Debug, Clone, Default)]
struct Marks {
    /// Stamp of the current call; never 0.
    generation: u32,
    /// One stamp per destination number (as long as `MatchIndex::live`,
    /// sized on the mutation path): equal to `generation` once the
    /// destination is reported, 0 when it never was.
    stamps: Vec<u32>,
}

// hot-path: begin (what the candidate loop calls per attribute and per
// candidate — no allocation, no locks)
impl Marks {
    /// Opens a call: no destination is reported yet. Returns the call's
    /// stamp.
    fn begin(&mut self) -> u32 {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // A stamp left 2³² calls ago would read as this call's.
            self.stamps.fill(0);
            self.generation = 1;
        }
        self.generation
    }
}

impl<K> Slot<K> {
    /// The full check every candidate gets. `in_hand` is the notification's
    /// value for the access constraint's attribute — the value that made
    /// this slot a candidate — so only the *other* constraints look their
    /// attribute up by name.
    fn matches(&self, n: &Notification, in_hand: &Value) -> bool {
        self.filter.constraints().enumerate().all(|(i, c)| {
            if i == self.access as usize {
                c.predicate().matches(in_hand)
            } else {
                c.matches(n)
            }
        })
    }
}

impl Bucket {
    fn slots(&self) -> &[u32] {
        match self {
            Bucket::One(slot) => std::slice::from_ref(slot),
            Bucket::Many(slots) => slots,
        }
    }
}

/// The bucket key of a value: its canonical digest, under which equal
/// values (`Int(3)`, `Float(3.0)`; `0.0`, `-0.0`) always agree.
fn value_key(v: &Value) -> u64 {
    let mut h = Fnv1a::new();
    v.canonical_hash_into(&mut h);
    h.finish().raw()
}
// hot-path: end

/// The bucket keys of a value-keyed predicate — one per value that can
/// satisfy it, duplicates included — or `None` for a predicate no finite
/// value list describes. Every variant is named: a new [`Predicate`] does
/// not compile until it is classified here.
fn value_keys(p: &Predicate) -> Option<impl Iterator<Item = u64> + '_> {
    let (values, locations) = match p {
        Predicate::Eq(v) => (std::slice::from_ref(v), None),
        Predicate::In(vs) => (vs.as_slice(), None),
        Predicate::InLocations(set) => (&[][..], Some(set)),
        Predicate::Any
        | Predicate::Ne(_)
        | Predicate::Lt(_)
        | Predicate::Le(_)
        | Predicate::Gt(_)
        | Predicate::Ge(_)
        | Predicate::Prefix(_)
        | Predicate::Suffix(_)
        | Predicate::Contains(_)
        | Predicate::MyLoc
        | Predicate::MyCtx(_) => return None,
    };
    let locations = locations.into_iter().flatten().map(|l| value_key(&Value::Loc(*l)));
    Some(values.iter().map(value_key).chain(locations))
}

/// Bucket keys are FNV-1a digests already; hashing them again buys nothing.
#[derive(Debug, Clone, Copy, Default)]
struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("bucket keys are u64 digests");
    }

    fn write_u64(&mut self, digest: u64) {
        self.0 = digest;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Everything filed under one attribute.
#[derive(Debug, Clone, Default)]
struct Filed {
    /// Filters with no value-keyed constraint whose first constraint names
    /// this attribute: candidates whenever the attribute is present.
    residual: Vec<u32>,
    /// Canonical value digest → the filters filed under that value. A
    /// bucket that empties leaves the map.
    by_value: HashMap<u64, Bucket, BuildHasherDefault<DigestHasher>>,
}

impl Filed {
    /// Files `slot` under `access`: in one bucket per key if the predicate
    /// is value-keyed, on the residual list otherwise.
    fn file(&mut self, access: &Predicate, slot: u32) {
        let Some(keys) = value_keys(access) else { return self.residual.push(slot) };
        for key in keys {
            match self.by_value.entry(key) {
                Entry::Vacant(e) => {
                    e.insert(Bucket::One(slot));
                }
                Entry::Occupied(mut e) => {
                    // The keys of one predicate are filed back to back, so
                    // if `slot` is in the bucket already (`In([3, 3.0])`
                    // names one key twice) it is the last entry.
                    let bucket = e.get_mut();
                    match bucket {
                        Bucket::One(first) if *first == slot => {}
                        Bucket::One(first) => *bucket = Bucket::Many(vec![*first, slot]),
                        Bucket::Many(slots) => {
                            if slots.last() != Some(&slot) {
                                slots.push(slot);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Undoes [`Filed::file`]. Order-preserving; one bucket lookup per key
    /// (a repeated key finds the slot already gone).
    fn unfile(&mut self, access: &Predicate, slot: u32) {
        fn remove(slots: &mut Vec<u32>, slot: u32) {
            // Filters tend to leave youngest first.
            if let Some(at) = slots.iter().rposition(|s| *s == slot) {
                slots.remove(at);
            }
        }
        let Some(keys) = value_keys(access) else { return remove(&mut self.residual, slot) };
        for key in keys {
            let Entry::Occupied(mut e) = self.by_value.entry(key) else { continue };
            let bucket = e.get_mut();
            match bucket {
                Bucket::One(only) => {
                    if *only == slot {
                        e.remove();
                    }
                }
                Bucket::Many(slots) => {
                    remove(slots, slot);
                    if let [last] = slots[..] {
                        *bucket = Bucket::One(last);
                    }
                }
            }
        }
    }

    /// How many candidate entries the buckets of value-keyed `access`
    /// would hold with one more filter filed there.
    fn filing_cost(&self, access: &Predicate) -> usize {
        let keys = value_keys(access).into_iter().flatten();
        keys.map(|key| 1 + self.by_value.get(&key).map_or(0, |b| b.slots().len())).sum()
    }
}

/// A matching index over a keyed set of [`Filter`]s.
///
/// `K` is the caller's handle for a filter (a subscription id, a routing
/// link, ...). Inserting a key that is already present replaces its filter.
///
/// Attribute names resolve through a [`SharedInterner`]: by default every
/// index owns a fresh one, but [`MatchIndex::with_interner`] lets several
/// indices — a broker's routing table, its local-delivery index, its
/// replicator — share one symbol table, so a notification's attributes map
/// to the same [`Symbol`](crate::Symbol)s at every pipeline stage.
///
/// ```
/// use rebeca_core::{ClientId, Filter, MatchIndex, Notification, SimTime, SubscriptionId};
/// let mut idx = MatchIndex::new();
/// idx.insert(SubscriptionId::new(1), Filter::builder().eq("service", "t").build());
/// idx.insert(SubscriptionId::new(2), Filter::builder().eq("service", "x").build());
/// let n = Notification::builder()
///     .attr("service", "t")
///     .publish(ClientId::new(0), 0, SimTime::ZERO);
/// assert_eq!(idx.matching(&n), vec![SubscriptionId::new(1)]);
/// ```
#[derive(Clone)]
pub struct MatchIndex<K> {
    /// key → dense slot index.
    keys: HashMap<K, u32>,
    /// Dense filter storage; `None` marks a free slot.
    slots: Vec<Option<Slot<K>>>,
    /// slot index → the filter's destination number ([`NO_DEST`] for none
    /// and for a free slot). Beside the slots, not in them: the destination
    /// walk decides whether to skip a candidate from these four bytes
    /// alone.
    dest: Vec<u32>,
    /// destination number → how many indexed filters carry it. No longer
    /// than the highest live destination requires.
    live: Vec<u32>,
    /// How many entries of `live` are non-zero — what a destination walk
    /// has to decide before it may stop.
    live_dests: usize,
    /// Free slot indices available for reuse.
    free: Vec<u32>,
    /// symbol index → the filters filed under that attribute.
    by_attr: Vec<Filed>,
    /// Empty (match-all) filters: key and destination.
    universal: Vec<(K, u32)>,
    /// Destination marks of the call in progress.
    marks: RefCell<Marks>,
    interner: Arc<SharedInterner>,
    /// Cached symbol-table snapshot (revalidated per call with one atomic
    /// load — see [`InternerCache`]): attribute names resolve against it
    /// without taking any lock or bumping any refcount.
    cache: RefCell<InternerCache>,
}

impl<K> Default for MatchIndex<K> {
    fn default() -> Self {
        MatchIndex::with_interner(Arc::new(SharedInterner::new()))
    }
}

impl<K: fmt::Debug> fmt::Debug for MatchIndex<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MatchIndex")
            .field("filters", &self.keys.len())
            .field("attributes", &self.interner.len())
            .field("universal", &self.universal.len())
            .field("destinations", &self.live_dests)
            .finish()
    }
}

impl<K> MatchIndex<K> {
    /// Creates an empty index resolving attribute names through `interner`
    /// — the sharing constructor: every index built over the same interner
    /// agrees on symbols.
    pub fn with_interner(interner: Arc<SharedInterner>) -> Self {
        MatchIndex {
            keys: HashMap::new(),
            slots: Vec::new(),
            dest: Vec::new(),
            live: Vec::new(),
            live_dests: 0,
            free: Vec::new(),
            by_attr: Vec::new(),
            universal: Vec::new(),
            marks: RefCell::new(Marks::default()),
            interner,
            cache: RefCell::new(InternerCache::default()),
        }
    }

    /// The shared symbol table this index resolves attribute names with.
    pub fn interner(&self) -> &Arc<SharedInterner> {
        &self.interner
    }
}

impl<K: Copy + Eq + Hash> MatchIndex<K> {
    /// Creates an empty index (with a private interner).
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `attr`, resolving already-known names through the cached
    /// snapshot (one atomic generation load — the mutation path pays the
    /// shared interner's lock only for genuinely new attribute names).
    fn intern_cached(&self, attr: &str) -> Symbol {
        if let Some(sym) = self.cache.borrow_mut().get(&self.interner).lookup(attr) {
            return sym;
        }
        self.interner.intern(attr)
    }

    /// Interns every constraint's attribute (matching resolves names
    /// against the interner, and indices sharing one rely on it) and picks
    /// the access constraint: the value-keyed one that is cheapest to file
    /// under — the first on a tie — or, without any, the first constraint.
    /// Costs are only worked out once there is a choice to make.
    fn choose_access<'f>(&mut self, filter: &'f Filter) -> Option<(usize, Symbol, &'f Constraint)> {
        let mut first = None;
        let mut best = None;
        let mut best_cost = None;
        for (i, c) in filter.constraints().enumerate() {
            let sym = self.intern_cached(c.attr());
            if self.by_attr.len() <= sym.index() {
                self.by_attr.resize_with(sym.index() + 1, Filed::default);
            }
            first.get_or_insert((i, sym, c));
            if value_keys(c.predicate()).is_none() {
                continue;
            }
            let Some((_, best_sym, incumbent)) = best else {
                best = Some((i, sym, c));
                continue;
            };
            let by_attr = &self.by_attr;
            let to_beat = *best_cost.get_or_insert_with(|| {
                by_attr[best_sym.index()].filing_cost(incumbent.predicate())
            });
            let cost = by_attr[sym.index()].filing_cost(c.predicate());
            if cost < to_beat {
                best = Some((i, sym, c));
                best_cost = Some(cost);
            }
        }
        best.or(first)
    }

    /// Inserts (or replaces) a filter under the given key, with no
    /// destination: [`MatchIndex::matching_destinations`] passes it over.
    ///
    /// Filters containing unresolved markers (`myloc`/`myctx`) are legal to
    /// insert but never match — resolve them first (the mobility layer does).
    pub fn insert(&mut self, key: K, filter: Filter) {
        self.insert_to(key, filter, NO_DEST);
    }

    /// Inserts (or replaces) a filter that serves destination `dest` — the
    /// caller's dense number for whatever a match of this filter decides
    /// (a link, an attached client). Numbers are meant to be small and
    /// recycled: the index keeps one counter and one mark per number up to
    /// the highest in use. `u32::MAX` means "no destination".
    pub fn insert_to(&mut self, key: K, filter: Filter, dest: u32) {
        self.remove(&key);
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.dest.push(NO_DEST);
                (self.slots.len() - 1) as u32
            }
        };
        let access = match self.choose_access(&filter) {
            None => {
                self.universal.push((key, dest));
                0
            }
            Some((i, sym, c)) => {
                self.by_attr[sym.index()].file(c.predicate(), slot);
                i as u32
            }
        };
        self.slots[slot as usize] = Some(Slot { key, filter, access });
        self.keys.insert(key, slot);
        self.dest[slot as usize] = dest;
        if dest != NO_DEST {
            let d = dest as usize;
            if self.live.len() <= d {
                // The one place the marks grow: never inside a matching call.
                self.live.resize(d + 1, 0);
                self.marks.get_mut().stamps.resize(d + 1, 0);
            }
            if self.live[d] == 0 {
                self.live_dests += 1;
            }
            self.live[d] += 1;
        }
    }

    /// Removes the filter stored under `key`. Returns the filter if it was
    /// present.
    pub fn remove(&mut self, key: &K) -> Option<Filter> {
        let slot = self.keys.remove(key)?;
        let entry = self.slots[slot as usize].take().expect("keyed slot occupied");
        let dest = std::mem::replace(&mut self.dest[slot as usize], NO_DEST);
        if dest != NO_DEST {
            let d = dest as usize;
            self.live[d] -= 1;
            if self.live[d] == 0 {
                self.live_dests -= 1;
                while self.live.last() == Some(&0) {
                    self.live.pop();
                }
                self.marks.get_mut().stamps.truncate(self.live.len());
            }
        }
        match entry.filter.constraints().nth(entry.access as usize) {
            None => self.universal.retain(|(k, _)| k != key),
            Some(c) => {
                let sym = self
                    .cache
                    .borrow_mut()
                    .get(&self.interner)
                    .lookup(c.attr())
                    .expect("indexed attr interned");
                self.by_attr[sym.index()].unfile(c.predicate(), slot);
            }
        }
        self.free.push(slot);
        Some(entry.filter)
    }

    /// Number of indexed filters.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if no filter is indexed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Returns the filter stored under `key`.
    pub fn get(&self, key: &K) -> Option<&Filter> {
        let slot = *self.keys.get(key)?;
        self.slots[slot as usize].as_ref().map(|s| &s.filter)
    }

    /// Iterates over `(key, filter)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &Filter)> {
        self.slots.iter().filter_map(|s| s.as_ref()).map(|s| (&s.key, &s.filter))
    }

    /// Number of distinct attribute names ever indexed (interner size).
    pub fn interned_attrs(&self) -> usize {
        self.interner.len()
    }

    /// Returns the keys of all filters matching the notification, in
    /// unspecified order.
    pub fn matching(&self, n: &Notification) -> Vec<K> {
        let mut out = Vec::new();
        self.matching_into(n, &mut out);
        out
    }

    // hot-path: begin (per-notification candidate walk and verification —
    // no allocation beyond buffer growth, no locks; enforced by
    // `cargo run -p xtask -- lint`)
    /// The one candidate loop: hands `visit` the slot of every filter filed
    /// under an attribute of `n` alone or under the value `n` carries for
    /// it, with that value, until `visit` breaks. Each non-empty filter is
    /// filed once, so none is visited twice; the order follows the
    /// notification's attributes and, within one, filing order — never
    /// hash-map iteration. The loop itself reads no slot: whether a
    /// candidate is worth that cache miss is the visitor's call.
    fn try_candidates<B>(
        &self,
        n: &Notification,
        mut visit: impl FnMut(u32, &Value) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        // One snapshot for the whole notification — no lock, no shared
        // refcount traffic when the cache is warm.
        let mut cache = self.cache.borrow_mut();
        let interner = cache.get(&self.interner);
        for (attr, value) in n.attrs() {
            let Some(sym) = interner.lookup(attr) else { continue };
            // A symbol minted by a *different* index over the same interner
            // may exceed `by_attr` — hence `get`.
            let Some(filed) = self.by_attr.get(sym.index()) else { continue };
            // An attribute no filter is filed by value under is not hashed.
            let keyed = if filed.by_value.is_empty() {
                None
            } else {
                filed.by_value.get(&value_key(value))
            };
            let keyed = keyed.map_or(&[][..], Bucket::slots);
            for slot in filed.residual.iter().chain(keyed) {
                visit(*slot, value)?;
            }
        }
        ControlFlow::Continue(())
    }

    fn filed(&self, slot: u32) -> &Slot<K> {
        self.slots[slot as usize].as_ref().expect("filed slot occupied")
    }

    /// Appends the keys of all matching filters to `out` (which is cleared
    /// first). This is the allocation-free form: a warm index performs no
    /// heap allocation per notification beyond what `out` already owns.
    pub fn matching_into(&self, n: &Notification, out: &mut Vec<K>) {
        out.clear();
        out.extend(self.universal.iter().map(|(key, _)| *key));
        let _: ControlFlow<()> = self.try_candidates(n, |slot, value| {
            let candidate = self.filed(slot);
            if candidate.matches(n, value) {
                out.push(candidate.key);
            }
            ControlFlow::Continue(())
        });
    }

    /// Hands `report` the number of every destination that has at least
    /// one matching filter, each **once**, in unspecified order, and
    /// returns how many candidates it verified to find them. Filters
    /// inserted without a destination are passed over.
    ///
    /// A candidate is verified in full, as in
    /// [`MatchIndex::matching_into`] — unless its destination is already
    /// reported, in which case it is not looked at; and when every
    /// destination with a filter in the index is reported the walk is
    /// over. Allocates nothing.
    pub fn matching_destinations(&self, n: &Notification, mut report: impl FnMut(u32)) -> usize {
        if self.live_dests == 0 {
            return 0;
        }
        let mut marks = self.marks.borrow_mut();
        let generation = marks.begin();
        let stamps = &mut marks.stamps[..];
        let mut undecided = self.live_dests;
        let mut decide = |stamp: &mut u32, dest: u32| {
            *stamp = generation;
            report(dest);
            undecided -= 1;
            if undecided == 0 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };
        // A match-all filter decides its destination before the walk.
        for &(_, dest) in &self.universal {
            if let Some(stamp) = stamps.get_mut(dest as usize) {
                if *stamp != generation && decide(stamp, dest).is_break() {
                    return 0;
                }
            }
        }
        let mut verified = 0;
        let _ = self.try_candidates(n, |slot, value| {
            let dest = self.dest[slot as usize];
            match stamps.get_mut(dest as usize) {
                Some(stamp) if *stamp != generation => {
                    verified += 1;
                    if self.filed(slot).matches(n, value) {
                        return decide(stamp, dest);
                    }
                }
                // Already reported, or no destination to report.
                _ => {}
            }
            ControlFlow::Continue(())
        });
        verified
    }
    // hot-path: end

    /// Brute-force matching (linear scan): the reference the index is
    /// cross-checked against in the tests below.
    #[cfg(test)]
    fn scan_matching(&self, n: &Notification) -> Vec<K> {
        self.iter().filter(|(_, f)| f.matches(n)).map(|(k, _)| *k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ClientId, SubscriptionId};
    use crate::time::SimTime;

    fn sid(i: u32) -> SubscriptionId {
        SubscriptionId::new(i)
    }

    fn note(pairs: &[(&str, i64)]) -> Notification {
        let mut b = Notification::builder();
        for (k, v) in pairs {
            b = b.attr(*k, *v);
        }
        b.publish(ClientId::new(0), 0, SimTime::ZERO)
    }

    #[test]
    fn matches_conjunctions() {
        let mut idx = MatchIndex::new();
        idx.insert(sid(1), Filter::builder().eq("a", 1i64).build());
        idx.insert(sid(2), Filter::builder().eq("a", 1i64).eq("b", 2i64).build());
        idx.insert(sid(3), Filter::builder().eq("b", 2i64).build());

        let mut hits = idx.matching(&note(&[("a", 1), ("b", 2)]));
        hits.sort();
        assert_eq!(hits, vec![sid(1), sid(2), sid(3)]);

        let mut hits = idx.matching(&note(&[("a", 1)]));
        hits.sort();
        assert_eq!(hits, vec![sid(1)]);
    }

    #[test]
    fn universal_filter_always_matches() {
        let mut idx = MatchIndex::new();
        idx.insert(sid(1), Filter::all());
        assert_eq!(idx.matching(&note(&[("x", 0)])), vec![sid(1)]);
        assert_eq!(idx.matching(&note(&[])), vec![sid(1)]);
    }

    #[test]
    fn multiple_constraints_per_attribute() {
        let mut idx = MatchIndex::new();
        idx.insert(sid(1), Filter::builder().between("x", 0i64, 10i64).build());
        assert_eq!(idx.matching(&note(&[("x", 5)])), vec![sid(1)]);
        assert!(idx.matching(&note(&[("x", 11)])).is_empty());
        assert!(idx.matching(&note(&[("x", -1)])).is_empty());
    }

    #[test]
    fn replace_and_remove() {
        let mut idx = MatchIndex::new();
        idx.insert(sid(1), Filter::builder().eq("a", 1i64).build());
        idx.insert(sid(1), Filter::builder().eq("a", 2i64).build()); // replace
        assert_eq!(idx.len(), 1);
        assert!(idx.matching(&note(&[("a", 1)])).is_empty());
        assert_eq!(idx.matching(&note(&[("a", 2)])), vec![sid(1)]);
        assert!(idx.remove(&sid(1)).is_some());
        assert!(idx.remove(&sid(1)).is_none());
        assert!(idx.is_empty());
        assert!(idx.matching(&note(&[("a", 2)])).is_empty());
    }

    #[test]
    fn unresolved_markers_never_match() {
        let mut idx = MatchIndex::new();
        idx.insert(sid(1), Filter::builder().myloc("location").build());
        assert!(idx.matching(&note(&[("location", 1)])).is_empty());
    }

    #[test]
    fn index_agrees_with_scan() {
        let mut idx = MatchIndex::new();
        idx.insert(sid(1), Filter::builder().eq("a", 1i64).build());
        idx.insert(sid(2), Filter::builder().ge("a", 0i64).lt("b", 5i64).build());
        idx.insert(sid(3), Filter::all());
        for n in
            [note(&[("a", 1), ("b", 3)]), note(&[("a", 0), ("b", 9)]), note(&[("b", 1)]), note(&[])]
        {
            let mut a = idx.matching(&n);
            let mut b = idx.scan_matching(&n);
            a.sort();
            b.sort();
            assert_eq!(a, b, "for {n}");
        }
    }

    /// Multi-constraint filters across shared attribute names: the interner
    /// assigns one symbol per distinct attribute (every constraint's, not
    /// just the access constraint's), slots are recycled, and matching
    /// stays exact across interleaved insert/remove/match cycles.
    #[test]
    fn interning_multi_constraint_churn() {
        let mut idx = MatchIndex::new();
        // 8 filters over only 3 distinct attributes, several constraining
        // the same attribute twice (ranges).
        for i in 0..8i64 {
            idx.insert(
                sid(i as u32),
                Filter::builder().between("x", i, i + 3).eq("y", i % 2).ge("z", i - 1).build(),
            );
        }
        assert_eq!(idx.interned_attrs(), 3, "one symbol per distinct attribute");
        // Matching is a pure read: asking twice gives identical results.
        let n = note(&[("x", 3), ("y", 1), ("z", 9)]);
        let mut first = idx.matching(&n);
        let mut second = idx.matching(&n);
        first.sort();
        second.sort();
        assert_eq!(first, second, "matching must not disturb the index");
        let mut scanned = idx.scan_matching(&n);
        scanned.sort();
        assert_eq!(first, scanned);
        // Remove half, reinsert with new shapes — symbols are reused, slots
        // recycled, and the index still agrees with the scan.
        for i in 0..4u32 {
            idx.remove(&sid(i));
        }
        for i in 0..4i64 {
            idx.insert(sid(i as u32), Filter::builder().eq("x", i).eq("w", i).build());
        }
        assert_eq!(idx.interned_attrs(), 4, "only the genuinely new attr interned");
        for n in [note(&[("x", 2), ("w", 2)]), note(&[("x", 5), ("y", 1), ("z", 0)]), note(&[])] {
            let mut a = idx.matching(&n);
            let mut b = idx.scan_matching(&n);
            a.sort();
            b.sort();
            assert_eq!(a, b, "for {n}");
        }
    }

    /// Two indices over one shared interner agree on symbols, stay exact,
    /// and a symbol minted by one never confuses the other (sparse
    /// `by_attr` access).
    #[test]
    fn indices_share_one_interner() {
        use crate::intern::SharedInterner;
        use std::sync::Arc;
        let shared = Arc::new(SharedInterner::new());
        let mut routing: MatchIndex<SubscriptionId> =
            MatchIndex::with_interner(Arc::clone(&shared));
        let mut local: MatchIndex<SubscriptionId> = MatchIndex::with_interner(Arc::clone(&shared));
        routing.insert(sid(1), Filter::builder().eq("a", 1i64).build());
        // `local` interns attributes `routing` has never seen.
        local.insert(sid(2), Filter::builder().eq("b", 2i64).eq("c", 3i64).build());
        assert!(Arc::ptr_eq(routing.interner(), local.interner()));
        assert_eq!(shared.len(), 3, "one symbol table across both indices");
        let n = note(&[("a", 1), ("b", 2), ("c", 3)]);
        assert_eq!(routing.matching(&n), vec![sid(1)]);
        assert_eq!(local.matching(&n), vec![sid(2)]);
        // A notification naming only foreign symbols matches nothing here.
        assert!(routing.matching(&note(&[("b", 2), ("c", 3)])).is_empty());
        assert!(routing.matching(&note(&[("c", 3)])).is_empty());
    }

    #[test]
    fn matching_into_reuses_output_buffer() {
        let mut idx = MatchIndex::new();
        idx.insert(sid(1), Filter::builder().eq("a", 1i64).build());
        idx.insert(sid(2), Filter::all());
        let mut out = Vec::with_capacity(8);
        idx.matching_into(&note(&[("a", 1)]), &mut out);
        let mut got = out.clone();
        got.sort();
        assert_eq!(got, vec![sid(1), sid(2)]);
        // Second call clears stale contents.
        idx.matching_into(&note(&[("a", 9)]), &mut out);
        assert_eq!(out, vec![sid(2)], "only the universal filter matches");
    }

    /// The destinations reported for `n`, sorted (a destination reported
    /// twice shows as a repeat), and how many candidates were verified.
    pub(super) fn destinations<K: Copy + Eq + Hash>(
        idx: &MatchIndex<K>,
        n: &Notification,
    ) -> (Vec<u32>, usize) {
        let mut reported = Vec::new();
        let verified = idx.matching_destinations(n, |dest| reported.push(dest));
        reported.sort_unstable();
        (reported, verified)
    }

    /// One destination is the old any-match question: the walk stops at the
    /// first verified match, candidates that all fail are all verified and
    /// say no, and a match-all filter says yes without a walk.
    #[test]
    fn one_destination_stops_at_the_first_verified_match() {
        let mut idx = MatchIndex::new();
        for i in 0..10u32 {
            idx.insert_to(sid(i), Filter::builder().eq("a", 1i64).ge("b", 2i64).build(), 0);
        }
        let hit = note(&[("a", 1), ("b", 2)]);
        assert_eq!(candidates(&idx, &hit), 10);
        assert_eq!(destinations(&idx, &hit), (vec![0], 1));
        let miss = note(&[("a", 1), ("b", 1)]);
        assert_eq!(candidates(&idx, &miss), 10, "all filed under one shared value");
        assert_eq!(destinations(&idx, &miss), (vec![], 10));
        assert_eq!(destinations(&idx, &note(&[])), (vec![], 0));
        idx.insert_to(sid(10), Filter::all(), 0);
        assert_eq!(destinations(&idx, &miss), (vec![0], 0));
        assert_eq!(destinations(&idx, &note(&[])), (vec![0], 0));
    }

    /// Candidates of a reported destination are skipped, not verified; the
    /// walk goes on while another live destination is undecided and ends
    /// with the last one; a filter without a destination is passed over.
    #[test]
    fn decided_destinations_are_skipped_and_the_last_one_ends_the_walk() {
        let mut idx = MatchIndex::new();
        for i in 0..8u32 {
            idx.insert_to(sid(i), Filter::builder().eq("a", 1i64).build(), 0);
        }
        idx.insert_to(sid(8), Filter::builder().eq("a", 1i64).ge("b", 2i64).build(), 1);
        for i in 9..12u32 {
            idx.insert_to(sid(i), Filter::builder().eq("a", 1i64).build(), 0);
        }
        idx.insert(sid(12), Filter::builder().eq("a", 1i64).build());
        // Destination 1 never matches: its one filter is verified, the
        // eleven of destination 0 cost one verification between them.
        assert_eq!(destinations(&idx, &note(&[("a", 1), ("b", 1)])), (vec![0], 2));
        // It matches: the walk ends there, three candidates early.
        assert_eq!(destinations(&idx, &note(&[("a", 1), ("b", 2)])), (vec![0, 1], 2));
        assert_eq!(idx.matching(&note(&[("a", 1), ("b", 2)])).len(), 13, "every key, as before");
        // A mark lasts one call: the same question gets the same answer.
        assert_eq!(destinations(&idx, &note(&[("a", 1), ("b", 2)])), (vec![0, 1], 2));
        // Destination 1 leaves: one live destination, decided at once.
        idx.remove(&sid(8));
        assert_eq!(destinations(&idx, &note(&[("a", 1), ("b", 2)])), (vec![0], 1));
        // Only the filter without a destination is left: nothing to report.
        for i in (0..8).chain(9..12) {
            idx.remove(&sid(i));
        }
        assert_eq!(destinations(&idx, &note(&[("a", 1)])), (vec![], 0));
        assert_eq!(idx.matching(&note(&[("a", 1)])), vec![sid(12)]);
    }

    /// The generation wraps after 2³² calls. A stamp left by call 1 must
    /// not read as "reported" in the call that is numbered 1 again, and a
    /// destination never stamped (0) must not read as reported either.
    #[test]
    fn generation_wrap_forgets_every_mark() {
        let mut idx = MatchIndex::new();
        idx.insert_to(sid(0), Filter::builder().eq("a", 1i64).build(), 0);
        idx.insert_to(sid(1), Filter::builder().eq("b", 2i64).build(), 1);
        idx.insert_to(sid(2), Filter::builder().eq("c", 3i64).build(), 2);
        assert_eq!(destinations(&idx, &note(&[("a", 1)])), (vec![0], 1));
        assert_eq!(idx.marks.borrow().stamps, [1, 0, 0]);
        idx.marks.get_mut().generation = u32::MAX - 1;
        assert_eq!(destinations(&idx, &note(&[("b", 2)])), (vec![1], 1));
        assert_eq!(idx.marks.borrow().stamps, [1, u32::MAX, 0]);
        let all = note(&[("a", 1), ("b", 2), ("c", 3)]);
        assert_eq!(destinations(&idx, &all), (vec![0, 1, 2], 3));
        assert_eq!(idx.marks.borrow().generation, 1, "0 is the never-reported stamp");
        assert_eq!(destinations(&idx, &all), (vec![0, 1, 2], 3));
    }

    /// How many filters the candidate loop hands over for `n` — the work a
    /// match call does, counted instead of timed.
    pub(super) fn candidates<K: Copy + Eq + Hash>(idx: &MatchIndex<K>, n: &Notification) -> usize {
        let mut seen = 0;
        let _: ControlFlow<()> = idx.try_candidates(n, |_, _| {
            seen += 1;
            ControlFlow::Continue(())
        });
        seen
    }

    /// Nothing of a removed filter may stay behind: no bucket (an emptied
    /// one leaves its map), no residual entry, no occupied slot.
    pub(super) fn assert_drained<K>(idx: &MatchIndex<K>) {
        assert!(idx.keys.is_empty() && idx.universal.is_empty());
        assert!(idx.slots.iter().all(Option::is_none));
        assert_eq!(idx.free.len(), idx.slots.len(), "every slot is back on the free list");
        assert!(idx.dest.iter().all(|d| *d == NO_DEST), "a free slot kept its destination");
        assert_eq!((idx.live.len(), idx.live_dests), (0, 0), "a destination is still counted");
        assert!(idx.marks.borrow().stamps.is_empty(), "marks outlived their destinations");
        for (sym, filed) in idx.by_attr.iter().enumerate() {
            assert!(filed.residual.is_empty(), "residual of symbol {sym} not empty");
            assert!(filed.by_value.is_empty(), "buckets of symbol {sym} not empty");
        }
    }

    /// The `churn-repl3` access pattern: distinct values pass through a
    /// bounded live set forever. Removal must be one bucket lookup that
    /// takes the emptied bucket with it, or the maps grow with history.
    #[test]
    fn churn_through_live_slots_leaves_nothing_behind() {
        const LIVE: u32 = 1_000;
        let mut idx = MatchIndex::new();
        for k in 0..100_000u32 {
            if k >= LIVE {
                assert!(idx.remove(&sid(k - LIVE)).is_some());
            }
            idx.insert(sid(k), Filter::builder().eq("churn", i64::from(k)).build());
            assert!(idx.len() <= LIVE as usize);
        }
        let sym = idx.interner.lookup("churn").expect("interned");
        assert_eq!(idx.by_attr[sym.index()].by_value.len(), LIVE as usize);
        assert_eq!(idx.matching(&note(&[("churn", 99_999)])), vec![sid(99_999)]);
        assert!(idx.matching(&note(&[("churn", 98_999)])).is_empty(), "left the live set");
        for k in 100_000 - LIVE..100_000 {
            assert!(idx.remove(&sid(k)).is_some());
        }
        assert_drained(&idx);
        assert!(idx.slots.len() <= LIVE as usize, "slots outgrew the live set");
    }

    /// The adaptive filing rule: with a value every subscriber shares and
    /// a value of its own, a filter is filed under its own. Filing under
    /// the first `Eq` ("class" sorts before "room") would make every
    /// filter a candidate for every notification.
    #[test]
    fn filters_are_filed_under_their_rarest_value() {
        let mut idx = MatchIndex::new();
        for i in 0..2_000u32 {
            idx.insert(sid(i), Filter::builder().eq("class", "s").eq("room", i64::from(i)).build());
        }
        let n = Notification::builder().attr("class", "s").attr("room", 7i64).publish(
            ClientId::new(0),
            0,
            SimTime::ZERO,
        );
        assert_eq!(idx.matching(&n), vec![sid(7)]);
        assert!(candidates(&idx, &n) <= 2, "verified {} candidates", candidates(&idx, &n));
    }

    /// The `match-heavy` shape: filters are eq ∧ range ∧ in-set over three
    /// of six attributes, notifications carry all six, values in `0..16`.
    struct MatchHeavy {
        state: u64,
    }

    impl MatchHeavy {
        const ATTRS: [&'static str; 6] = ["a0", "a1", "a2", "a3", "a4", "a5"];

        fn new() -> Self {
            MatchHeavy { state: 0x9E37_79B9_7F4A_7C15 }
        }

        fn below(&mut self, bound: u64) -> i64 {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            (self.state % bound) as i64
        }

        fn filter(&mut self) -> Filter {
            let attr = |a: i64| Self::ATTRS[a as usize];
            let first = self.below(6);
            let second = (first + 1 + self.below(5)) % 6;
            let third = (0..6).filter(|a| *a != first && *a != second).nth(self.below(4) as usize);
            let (lo, start, step) = (self.below(11), self.below(16), 1 + self.below(5));
            Filter::builder()
                .eq(attr(first), self.below(16))
                .between(attr(second), lo, lo + 5)
                .one_of(attr(third.expect("four remain")), (0..4).map(|k| (start + k * step) % 16))
                .build()
        }

        fn note(&mut self) -> Notification {
            let mut b = Notification::builder();
            for attr in Self::ATTRS {
                b = b.attr(attr, self.below(16));
            }
            b.publish(ClientId::new(0), 0, SimTime::ZERO)
        }
    }

    /// A `match-heavy`-shaped table: the candidates of a notification are
    /// the filters sharing one value with it — a sixteenth of the table —
    /// at either size, and they still contain every match.
    #[test]
    fn candidates_follow_shared_values_not_table_size() {
        let mut gen = MatchHeavy::new();
        for size in [5_000usize, 50_000] {
            let mut idx = MatchIndex::new();
            for i in 0..size {
                idx.insert(i as u32, gen.filter());
            }
            for _ in 0..32 {
                let n = gen.note();
                let seen = candidates(&idx, &n);
                assert!(seen < size / 10, "{seen} candidates in a table of {size}");
                let mut hits = idx.matching(&n);
                let mut scanned = idx.scan_matching(&n);
                hits.sort_unstable();
                scanned.sort_unstable();
                assert_eq!(hits, scanned);
                assert!(hits.len() <= seen);
            }
        }
    }

    /// The same 5 000 filters, asked for destinations. Behind **one**
    /// destination a notification costs the verifications up to its first
    /// match — a few, not the 313 candidates — and the answer is the
    /// scan's. Behind 5 000 destinations nothing can be skipped: every
    /// candidate is verified, exactly as `matching_into` does, and every
    /// matching destination is reported — the change loses nothing where
    /// it gains nothing.
    #[test]
    fn verified_candidates_follow_destinations_not_matches() {
        const SIZE: u32 = 5_000;
        let mut gen = MatchHeavy::new();
        let mut one = MatchIndex::new();
        let mut each = MatchIndex::new();
        for i in 0..SIZE {
            let f = gen.filter();
            one.insert_to(i, f.clone(), 0);
            each.insert_to(i, f, i);
        }
        let (mut verified_one, mut seen) = (0, 0);
        for _ in 0..32 {
            let n = gen.note();
            let mut scanned = one.scan_matching(&n);
            scanned.sort_unstable();
            seen += candidates(&one, &n);

            let (reported, verified) = destinations(&one, &n);
            assert_eq!(reported.is_empty(), scanned.is_empty());
            assert!(reported.len() <= 1, "one destination, reported {reported:?}");
            verified_one += verified;

            // Key i serves destination i, so the two lists must be equal.
            let (reported, verified) = destinations(&each, &n);
            assert_eq!(reported, scanned);
            assert_eq!(verified, candidates(&each, &n), "nothing to skip, nothing skipped");
        }
        assert!(seen / 32 > 250, "the population changed: {} candidates per call", seen / 32);
        assert!(
            verified_one / 32 <= 40,
            "{} verified per call for one destination",
            verified_one / 32
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests::{assert_drained, candidates, destinations};
    use super::*;
    use crate::id::{ClientId, LocationId};
    use crate::time::SimTime;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Every comparison class, over a domain small enough that filters and
    /// notifications keep meeting — including the pairs that are equal
    /// without being identical (`3`/`3.0`, `0`/`0.0`/`-0.0`).
    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<bool>().prop_map(Value::Bool),
            (-2i64..4).prop_map(Value::Int),
            (-4i64..8).prop_map(|i| Value::Float(i as f64 / 2.0)),
            Just(Value::Float(-0.0)),
            "[ab]{0,2}".prop_map(Value::Str),
            (0u32..4).prop_map(|l| Value::Loc(LocationId::new(l))),
        ]
    }

    fn arb_predicate() -> impl Strategy<Value = Predicate> {
        let locations = proptest::collection::btree_set((0u32..4).prop_map(LocationId::new), 0..3);
        prop_oneof![
            Just(Predicate::Any),
            arb_value().prop_map(Predicate::Eq),
            arb_value().prop_map(Predicate::Eq),
            arb_value().prop_map(Predicate::Ne),
            arb_value().prop_map(Predicate::Lt),
            arb_value().prop_map(Predicate::Le),
            arb_value().prop_map(Predicate::Gt),
            arb_value().prop_map(Predicate::Ge),
            // Empty, and with equal members under different spellings.
            proptest::collection::vec(arb_value(), 0..4).prop_map(Predicate::In),
            Just(Predicate::In(vec![Value::Int(3), Value::Float(3.0)])),
            "[ab]{0,2}".prop_map(Predicate::Prefix),
            "[ab]{0,2}".prop_map(Predicate::Suffix),
            "[ab]{0,2}".prop_map(Predicate::Contains),
            locations.prop_map(Predicate::InLocations),
            Just(Predicate::MyLoc),
            Just(Predicate::MyCtx("speed".into())),
        ]
    }

    /// Zero to three constraints over three attribute names: the empty
    /// filter, repeated attributes and several value-keyed constraints in
    /// one filter all occur.
    fn arb_filter() -> impl Strategy<Value = Filter> {
        proptest::collection::vec(("[a-c]", arb_predicate()), 0..4).prop_map(|constraints| {
            Filter::from_constraints(constraints.into_iter().map(|(a, p)| Constraint::new(a, p)))
        })
    }

    fn arb_note() -> impl Strategy<Value = Notification> {
        proptest::collection::btree_map("[a-d]", arb_value(), 0..4).prop_map(|m| {
            let mut b = Notification::builder();
            for (k, v) in m {
                b = b.attr(k, v);
            }
            b.publish(ClientId::new(0), 0, SimTime::ZERO)
        })
    }

    /// One step of the script: keys are drawn from `0..6`, so inserts
    /// replace and removals hit; destinations from `0..3` or none, so
    /// filters share one, a replacement moves between them, and one comes
    /// and goes with its last filter.
    #[derive(Debug, Clone)]
    enum Step {
        Insert(u32, Filter, Option<u32>),
        Remove(u32),
        Match(Notification),
    }

    fn arb_insert() -> impl Strategy<Value = Step> {
        (0u32..6, arb_filter(), proptest::option::of(0u32..3))
            .prop_map(|(k, f, dest)| Step::Insert(k, f, dest))
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            arb_insert(),
            arb_insert(),
            (0u32..6).prop_map(Step::Remove),
            arb_note().prop_map(Step::Match),
            arb_note().prop_map(Step::Match),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 30_000, ..ProptestConfig::default() })]

        /// Across insertion, replacement and removal the index reports
        /// exactly the filters a brute-force scan (and a model kept beside
        /// it) finds, each once; the destination form reports exactly the
        /// destinations of those filters, each once; and removing
        /// everything leaves no structure behind.
        #[test]
        fn index_equals_scan(steps in proptest::collection::vec(arb_step(), 0..24)) {
            let mut idx = MatchIndex::new();
            let mut model = BTreeMap::new();
            for step in steps {
                match step {
                    Step::Insert(k, f, dest) => {
                        match dest {
                            Some(dest) => idx.insert_to(k, f.clone(), dest),
                            None => idx.insert(k, f.clone()),
                        }
                        model.insert(k, (f, dest));
                    }
                    Step::Remove(k) => {
                        prop_assert_eq!(idx.remove(&k), model.remove(&k).map(|(f, _)| f))
                    }
                    Step::Match(n) => {
                        let mut hits = idx.matching(&n);
                        hits.sort_unstable();
                        let mut scanned = idx.scan_matching(&n);
                        scanned.sort_unstable();
                        let expected: Vec<u32> = model
                            .iter()
                            .filter(|(_, (f, _))| f.matches(&n))
                            .map(|(k, _)| *k)
                            .collect();
                        // `expected` has no repeats, so equality also says
                        // no key was reported twice.
                        prop_assert_eq!(&hits, &expected, "index vs model for {}", n);
                        prop_assert_eq!(&scanned, &expected, "scan vs model for {}", n);
                        // Sorted with repeats kept against a deduplicated
                        // list: a destination reported twice fails.
                        let (reported, verified) = destinations(&idx, &n);
                        let mut served: Vec<u32> =
                            scanned.iter().filter_map(|k| model[k].1).collect();
                        served.sort_unstable();
                        served.dedup();
                        prop_assert_eq!(&reported, &served, "destinations for {}", n);
                        prop_assert!(verified <= candidates(&idx, &n));
                    }
                }
                prop_assert_eq!(idx.len(), model.len());
            }
            for k in model.keys() {
                prop_assert!(idx.remove(k).is_some());
            }
            assert_drained(&idx);
        }
    }
}
