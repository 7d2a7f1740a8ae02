//! Routing strategies.
//!
//! "The basic form of routing is simple routing: active filters are simply
//! added to the routing table according to the link they belong to.
//! Although improvements to this strategy (e.g., covering and merging) are
//! available in REBECA, for the sake of simplicity we assume simple routing
//! throughout this paper." (paper, §2)
//!
//! All four classic strategies are implemented behind one uniform
//! abstraction: given the deduplicated set of filters a broker must serve
//! through a link, [`RoutingStrategy::announcements`] computes the filter
//! set actually *announced* over that link. The broker then diffs desired
//! against currently-announced filters and emits
//! [`SubForward`](crate::Message::SubForward) /
//! [`UnsubForward`](crate::Message::UnsubForward) messages.

use rebeca_core::filter::{merge_set, shape_digest, try_merge, MergeOutcome};
use rebeca_core::{CoverKey, Digest, Filter};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Content-based routing strategy of a broker network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingStrategy {
    /// Notifications go everywhere; no subscription state at all. The
    /// degenerate baseline ("the scheme would degenerate to flooding, a
    /// very unpleasant situation", §4).
    Flooding,
    /// Every distinct filter is propagated (the paper's default).
    Simple,
    /// Filters covered by an already-propagated filter are suppressed.
    Covering,
    /// Covering plus perfect merging of the remaining filters.
    Merging,
}

impl RoutingStrategy {
    /// Returns `true` if notifications are forwarded on every link
    /// regardless of subscriptions.
    pub fn is_flooding(self) -> bool {
        matches!(self, RoutingStrategy::Flooding)
    }

    /// Computes the set of filters to announce over a link, given every
    /// (deduplicated) filter that must be served through that link.
    ///
    /// The result is deterministic: ties between mutually covering filters
    /// are broken by digest order.
    pub fn announcements(self, filters: &[Filter]) -> Vec<Filter> {
        match self {
            RoutingStrategy::Flooding => Vec::new(),
            RoutingStrategy::Simple => dedup_by_digest(filters),
            RoutingStrategy::Covering => minimal_cover(filters),
            RoutingStrategy::Merging => merge_set(minimal_cover(filters)),
        }
    }

    /// All strategies, in increasing order of sophistication.
    pub const ALL: [RoutingStrategy; 4] = [
        RoutingStrategy::Flooding,
        RoutingStrategy::Simple,
        RoutingStrategy::Covering,
        RoutingStrategy::Merging,
    ];
}

impl fmt::Display for RoutingStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RoutingStrategy::Flooding => "flooding",
            RoutingStrategy::Simple => "simple",
            RoutingStrategy::Covering => "covering",
            RoutingStrategy::Merging => "merging",
        };
        write!(f, "{s}")
    }
}

fn dedup_by_digest(filters: &[Filter]) -> Vec<Filter> {
    let mut seen = HashMap::new();
    for f in filters {
        seen.entry(f.digest()).or_insert_with(|| f.clone());
    }
    let mut out: Vec<Filter> = seen.into_values().collect();
    out.sort_by_key(Filter::digest);
    out
}

/// Reduces a filter set to a minimal covering subset: a filter is dropped
/// when another kept filter covers it. Mutually covering (equivalent)
/// filters are collapsed to the digest-smallest representative, keeping the
/// result deterministic.
pub fn minimal_cover(filters: &[Filter]) -> Vec<Filter> {
    let filters = dedup_by_digest(filters);
    let mut keep = vec![true; filters.len()];
    for i in 0..filters.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..filters.len() {
            if i == j || !keep[j] {
                continue;
            }
            // Drop i if j covers i — unless they cover each other and i
            // comes first in digest order (then i is the representative).
            if filters[j].covers(&filters[i]) && !(filters[i].covers(&filters[j]) && i < j) {
                keep[i] = false;
                break;
            }
        }
    }
    filters.into_iter().zip(keep).filter_map(|(f, k)| k.then_some(f)).collect()
}

/// The domination relation behind [`minimal_cover`], on filters with
/// **distinct digests**: `g` dominates `f` when `g` covers `f` and `f` is
/// not the digest-smaller member of a mutually covering (equivalent) pair.
/// A filter belongs to the minimal cover iff nothing dominates it; the
/// relation is a strict partial order (transitive, irreflexive), which is
/// what makes the set maintainable by counting dominators.
fn dominates(g: &Filter, f: &Filter) -> bool {
    g.covers(f) && !(f.covers(g) && f.digest() < g.digest())
}

/// Transitions of a link's announced set produced by one served-filter
/// mutation. `entered` are filters that became announced, `left` filters
/// that stopped being announced. Both may carry several filters (adding a
/// broad filter retracts everything it covers at once).
#[derive(Debug, Clone, Default)]
pub struct CoverChanges {
    /// Filters that entered the announced set.
    pub entered: Vec<Filter>,
    /// Filters that left the announced set.
    pub left: Vec<Filter>,
}

impl CoverChanges {
    /// Returns `true` if the announced set did not change.
    pub fn is_empty(&self) -> bool {
        self.entered.is_empty() && self.left.is_empty()
    }
}

/// One filter of a link's served multiset.
#[derive(Debug, Clone)]
struct Served {
    filter: Filter,
    /// Multiset count: how many table entries serve this exact filter.
    refs: usize,
    /// How many other distinct served filters dominate this one. The
    /// filter is announced iff this is zero (covering mode).
    dominated_by: usize,
}

/// The served-filter digests behind one canonical point key — almost
/// always exactly one (a second digest under the same key means two
/// structurally different but equal-valued filters, e.g. `Int`/`Float`
/// aliases), so the common case stays allocation-free.
#[derive(Debug, Clone)]
enum PointSlot {
    One(Digest),
    Many(Vec<Digest>),
}

impl PointSlot {
    fn push(&mut self, digest: Digest) {
        match self {
            PointSlot::One(d) => *self = PointSlot::Many(vec![*d, digest]),
            PointSlot::Many(v) => v.push(digest),
        }
    }

    /// Removes `digest`; returns `true` when the slot is now empty.
    fn remove(&mut self, digest: Digest) -> bool {
        match self {
            PointSlot::One(d) => *d == digest,
            PointSlot::Many(v) => {
                v.retain(|d| *d != digest);
                v.is_empty()
            }
        }
    }

    fn extend_into(&self, out: &mut Vec<Digest>) {
        match self {
            PointSlot::One(d) => out.push(*d),
            PointSlot::Many(v) => out.extend_from_slice(v),
        }
    }
}

/// One shape bucket of the covering-candidate index: every served filter
/// whose distinct attribute set is this bucket's `attrs`, split into
/// *point* entries (pure `Eq`, keyed by canonical value digest) and
/// *general* entries. See [`CoverKey`] for why this split is sound.
///
/// Buckets are **kept once created**, even when they drain — shape
/// diversity is bounded by filter structure, not filter count, and
/// re-creating a bucket (attribute strings, per-attribute shape sets) on
/// every churn cycle of a one-off shape would dominate small-table churn.
#[derive(Debug, Clone, Default)]
struct Bucket {
    /// The sorted distinct attribute names shared by every filter here.
    attrs: Vec<String>,
    /// Point entries, canonical value digest → served-filter digests.
    /// Same-shape points can only cover each other within one key.
    points: HashMap<Digest, PointSlot>,
    /// Entries with any non-`Eq` predicate or a repeated attribute; these
    /// are always candidates within the bucket.
    general: Vec<Digest>,
}

/// The digest-bucketed covering-candidate index of one [`LinkAnnouncer`]
/// (covering/merging modes only). Served filters are grouped by *shape*
/// (digest of their distinct attribute names); because a coverer's
/// attribute set is always a subset of the covered filter's
/// ([`CoverKey`]), a mutation probes only the buckets whose shape is a
/// subset (dominator direction) or superset (dominated direction) of the
/// mutated filter's — **not** every distinct served filter. Within the
/// filter's own shape, point entries are further keyed by canonical value
/// digest, so the common churn workload (conjunctions of equalities)
/// probes O(1) candidates per mutation however many filters are served.
///
/// Like the routing tables, the index treats digest equality as identity
/// (64-bit FNV; the repo-wide "digest collision means same filter"
/// assumption) — a shape collision is debug-asserted.
#[derive(Debug, Clone, Default)]
struct CoverIndex {
    /// Shape digest → bucket.
    buckets: HashMap<Digest, Bucket>,
    /// Attribute name → shapes of the buckets constraining it (the
    /// superset-direction probe intersects these instead of scanning).
    attr_shapes: HashMap<String, HashSet<Digest>>,
}

/// A filter's distinct attribute names, stack-allocated for the common
/// (≤ 8 attribute) case: the probe paths run once per churn mutation and
/// should not pay a heap allocation for a typically 1–3 element list.
struct AttrBuf<'f> {
    stack: [&'f str; 8],
    len: usize,
    /// Spill storage, used only by > 8-attribute filters.
    heap: Vec<&'f str>,
}

impl<'f> AttrBuf<'f> {
    fn collect(filter: &'f Filter) -> Self {
        let mut buf = AttrBuf { stack: [""; 8], len: 0, heap: Vec::new() };
        for a in filter.distinct_attrs() {
            if buf.heap.is_empty() && buf.len < buf.stack.len() {
                buf.stack[buf.len] = a;
                buf.len += 1;
            } else {
                if buf.heap.is_empty() {
                    buf.heap.extend_from_slice(&buf.stack[..buf.len]);
                }
                buf.heap.push(a);
            }
        }
        buf
    }

    fn as_slice(&self) -> &[&'f str] {
        if self.heap.is_empty() {
            &self.stack[..self.len]
        } else {
            &self.heap
        }
    }
}

/// `small ⊆ big` over two sorted name slices (one linear merge pass).
fn sorted_subset(small: &[impl AsRef<str>], big: &[impl AsRef<str>]) -> bool {
    let mut big_iter = big.iter();
    'outer: for s in small {
        for b in big_iter.by_ref() {
            match s.as_ref().cmp(b.as_ref()) {
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Less => return false,
                std::cmp::Ordering::Greater => continue,
            }
        }
        return false;
    }
    true
}

impl CoverIndex {
    fn insert(&mut self, digest: Digest, filter: &Filter, key: CoverKey) {
        if !self.buckets.contains_key(&key.shape) {
            let attrs: Vec<String> = filter.distinct_attrs().map(str::to_owned).collect();
            for a in &attrs {
                self.attr_shapes.entry(a.clone()).or_default().insert(key.shape);
            }
            self.buckets.insert(key.shape, Bucket { attrs, ..Bucket::default() });
        }
        let bucket = self.buckets.get_mut(&key.shape).expect("bucket ensured above");
        debug_assert!(
            bucket.attrs.iter().map(String::as_str).eq(filter.distinct_attrs()),
            "shape digest collision between distinct attribute sets"
        );
        match key.point {
            Some(canon) => match bucket.points.entry(canon) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(PointSlot::One(digest));
                }
                std::collections::hash_map::Entry::Occupied(mut o) => o.get_mut().push(digest),
            },
            None => bucket.general.push(digest),
        }
    }

    fn remove(&mut self, digest: Digest, key: CoverKey) {
        let Some(bucket) = self.buckets.get_mut(&key.shape) else {
            debug_assert!(false, "removing from an absent shape bucket");
            return;
        };
        match key.point {
            Some(canon) => {
                if let Some(slot) = bucket.points.get_mut(&canon) {
                    if slot.remove(digest) {
                        bucket.points.remove(&canon);
                    }
                }
            }
            None => bucket.general.retain(|d| *d != digest),
        }
        // The (now possibly empty) bucket stays: its attribute strings and
        // shape-set registrations are reused by the next filter of this
        // shape — churn of one-off shapes must not rebuild them per event.
    }

    /// Appends one bucket's candidates: within the probed filter's **own**
    /// shape a point filter can only interact with same-canonical-key
    /// points (plus every general entry); any other bucket contributes all
    /// of its entries.
    fn push_bucket(&self, shape: Digest, bucket: &Bucket, key: CoverKey, out: &mut Vec<Digest>) {
        if shape == key.shape {
            if let Some(canon) = key.point {
                if let Some(slot) = bucket.points.get(&canon) {
                    slot.extend_into(out);
                }
                out.extend_from_slice(&bucket.general);
                return;
            }
        }
        for slot in bucket.points.values() {
            slot.extend_into(out);
        }
        out.extend_from_slice(&bucket.general);
    }

    /// Collects (into `out`, cleared first) the digests of every served
    /// filter that could *dominate* one with the given attributes — the
    /// buckets whose shape is a subset of `attrs`, enumerated directly
    /// when `2^|attrs|` is small and by scanning the (few) buckets
    /// otherwise.
    fn dominator_candidates(&self, attrs: &[&str], key: CoverKey, out: &mut Vec<Digest>) {
        out.clear();
        let k = attrs.len();
        if k < 16 && (1usize << k) <= self.buckets.len().saturating_mul(2).max(2) {
            for mask in 0..(1u32 << k) {
                let subset = attrs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << *i) != 0)
                    .map(|(_, a)| *a);
                let shape = shape_digest(subset);
                if let Some(bucket) = self.buckets.get(&shape) {
                    self.push_bucket(shape, bucket, key, out);
                }
            }
        } else {
            for (shape, bucket) in &self.buckets {
                if sorted_subset(&bucket.attrs, attrs) {
                    self.push_bucket(*shape, bucket, key, out);
                }
            }
        }
    }

    /// Collects (into `out`, cleared first) the digests of every served
    /// filter the given one could *dominate* — the buckets whose shape is
    /// a superset of `attrs`, found by intersecting per-attribute shape
    /// sets (starting from the rarest attribute).
    fn dominated_candidates(&self, attrs: &[&str], key: CoverKey, out: &mut Vec<Digest>) {
        out.clear();
        if attrs.is_empty() {
            // The match-all filter covers everything; every bucket is a
            // candidate (rare, and such tables collapse to one announced
            // filter anyway).
            for (shape, bucket) in &self.buckets {
                self.push_bucket(*shape, bucket, key, out);
            }
            return;
        }
        let mut rarest: Option<&HashSet<Digest>> = None;
        for a in attrs {
            // An attribute no bucket constrains ⇒ no superset shape exists.
            let Some(shapes) = self.attr_shapes.get(*a) else { return };
            if rarest.is_none_or(|r| shapes.len() < r.len()) {
                rarest = Some(shapes);
            }
        }
        for shape in rarest.expect("attrs checked non-empty") {
            let bucket = &self.buckets[shape];
            if sorted_subset(attrs, &bucket.attrs) {
                self.push_bucket(*shape, bucket, key, out);
            }
        }
    }
}

/// Incrementally maintained merge products of a minimal cover, kept equal
/// to `merge_set(cover in digest order)` after every cover transition.
///
/// The maintenance mirrors the covering refcounts one level up: a cover
/// member that *interacts* with nothing (no covering relation, no perfect
/// merge, against any member or product) enters and leaves the product set
/// as itself in `O(cover)` structural checks — the common case under
/// subscription churn, where the churning filter constrains its own
/// attributes. Only when the changed member genuinely interacts is the
/// (small) cover re-merged from scratch, which is exactly what every
/// mutation used to cost.
#[derive(Debug, Clone, Default)]
struct MergeState {
    /// The current minimal cover, digest-sorted (merge input order).
    members: BTreeMap<Digest, Filter>,
    /// Invariant: equals `merge_set(members in digest order)` as a set.
    products: HashMap<Digest, Filter>,
}

impl MergeState {
    fn interacts(a: &Filter, b: &Filter) -> bool {
        !matches!(try_merge(a, b), MergeOutcome::NotMergeable)
    }

    /// A filter entered the minimal cover.
    fn cover_entered(&mut self, f: &Filter) {
        let digest = f.digest();
        self.members.insert(digest, f.clone());
        let standalone = self.members.iter().all(|(d, m)| *d == digest || !Self::interacts(m, f))
            && self.products.values().all(|p| !Self::interacts(p, f));
        if standalone {
            // f merges with nothing and covers/is covered by nothing, so
            // the canonical merge run leaves it untouched: products(C ∪ f)
            // = products(C) ∪ f.
            self.products.insert(digest, f.clone());
        } else {
            self.rebuild();
        }
    }

    /// A filter left the minimal cover.
    fn cover_left(&mut self, f: &Filter) {
        let digest = f.digest();
        self.members.remove(&digest);
        // A product carrying the member's own digest can only be the member
        // itself, un-merged (anything it had absorbed would be covered by
        // it — impossible inside an antichain). Removing a member that
        // never merged cannot change any other product.
        if self.products.remove(&digest).is_none() {
            self.rebuild();
        }
    }

    /// From-scratch fallback: re-merge the (incrementally maintained,
    /// digest-sorted) cover.
    fn rebuild(&mut self) {
        let merged = merge_set(self.members.values().cloned().collect());
        self.products = merged.into_iter().map(|f| (f.digest(), f)).collect();
    }
}

/// Incrementally maintained announcement state for **one** neighbour link:
/// the refcounted multiset of filters that must be served through the link,
/// plus per-filter dominator counts so the minimal covering subset is
/// available without ever rescanning the whole table.
///
/// In *simple* mode (no covering) every distinct filter is announced; in
/// *covering* mode only non-dominated filters are; in *merging* mode a
/// `MergeState` additionally maintains the merge products of the cover.
/// The covering modes keep a `CoverIndex`: a mutation probes only the
/// *candidate* dominators/dominated filters its shape admits — for the
/// common equality-conjunction workload that is O(1) per mutation, flat in
/// the number of distinct served filters (the scan this replaces was
/// `O(distinct)` per mutation, itself replacing the historical `O(n²)`
/// from-scratch [`minimal_cover`]). Nothing outside this link is touched.
#[derive(Debug, Clone)]
pub struct LinkAnnouncer {
    covering: bool,
    entries: HashMap<Digest, Served>,
    merge: Option<MergeState>,
    /// Covering modes only: the shape-bucketed candidate index. Built the
    /// first time the link serves [`INDEX_THRESHOLD`] distinct filters and
    /// maintained from then on — below that a plain scan of `entries` is
    /// faster than any candidate bookkeeping, and links touched by
    /// steady-state churn are typically tiny (the big ones are the ones
    /// *accumulating* a preload, which is exactly where the index turns
    /// quadratic growth linear).
    index: Option<CoverIndex>,
    /// Reusable candidate-digest scratch for the probes.
    candidates: Vec<Digest>,
}

/// Distinct-filter count at which a link switches from scanning to the
/// bucketed candidate index (hysteresis: once built, the index stays).
const INDEX_THRESHOLD: usize = 64;

impl LinkAnnouncer {
    /// Creates empty state; `covering` selects covering mode (used by the
    /// covering *and* merging strategies).
    pub fn new(covering: bool) -> Self {
        LinkAnnouncer {
            covering,
            entries: HashMap::new(),
            merge: None,
            index: None,
            candidates: Vec::new(),
        }
    }

    /// Creates empty state configured for `strategy` (merging implies
    /// covering and additionally maintains merge products).
    pub fn for_strategy(strategy: RoutingStrategy) -> Self {
        let covering = matches!(strategy, RoutingStrategy::Covering | RoutingStrategy::Merging);
        let merge = matches!(strategy, RoutingStrategy::Merging).then(MergeState::default);
        LinkAnnouncer { merge, ..LinkAnnouncer::new(covering) }
    }

    /// Number of distinct filters currently served through the link.
    pub fn distinct_len(&self) -> usize {
        self.entries.len()
    }

    /// Adds one occurrence of `filter` to the served multiset, recording
    /// announced-set transitions in `changes`.
    pub fn add(&mut self, filter: &Filter, changes: &mut CoverChanges) {
        let digest = filter.digest();
        if let Some(entry) = self.entries.get_mut(&digest) {
            entry.refs += 1;
            return;
        }
        let (entered_from, left_from) = (changes.entered.len(), changes.left.len());
        let mut dominated_by = 0;
        if self.covering {
            self.ensure_index();
            if let Some(index) = &self.index {
                let key = filter.cover_key();
                let attrs = AttrBuf::collect(filter);
                let attrs = attrs.as_slice();
                let mut candidates = std::mem::take(&mut self.candidates);
                // Who dominates the newcomer? Only filters whose shape is
                // a subset of its attribute set can.
                index.dominator_candidates(attrs, key, &mut candidates);
                for d in &candidates {
                    if dominates(&self.entries[d].filter, filter) {
                        dominated_by += 1;
                    }
                }
                // Whom does the newcomer dominate? Only filters in
                // superset shapes.
                index.dominated_candidates(attrs, key, &mut candidates);
                for d in &candidates {
                    let entry = self.entries.get_mut(d).expect("indexed entry served");
                    if dominates(filter, &entry.filter) {
                        entry.dominated_by += 1;
                        if entry.dominated_by == 1 {
                            changes.left.push(entry.filter.clone());
                        }
                    }
                }
                candidates.clear();
                self.candidates = candidates;
                self.index.as_mut().expect("index built").insert(digest, filter, key);
            } else {
                // Small link: the plain scan beats candidate bookkeeping.
                for entry in self.entries.values_mut() {
                    if dominates(&entry.filter, filter) {
                        dominated_by += 1;
                    }
                    if dominates(filter, &entry.filter) {
                        entry.dominated_by += 1;
                        if entry.dominated_by == 1 {
                            changes.left.push(entry.filter.clone());
                        }
                    }
                }
            }
        }
        if dominated_by == 0 {
            changes.entered.push(filter.clone());
        }
        self.entries.insert(digest, Served { filter: filter.clone(), refs: 1, dominated_by });
        self.apply_merge(changes, entered_from, left_from);
    }

    /// Builds the candidate index once the link crosses
    /// [`INDEX_THRESHOLD`] distinct filters (one O(distinct) pass,
    /// amortised over the adds that grew the link there).
    fn ensure_index(&mut self) {
        if self.index.is_some() || self.entries.len() < INDEX_THRESHOLD {
            return;
        }
        let mut index = CoverIndex::default();
        for (digest, served) in &self.entries {
            index.insert(*digest, &served.filter, served.filter.cover_key());
        }
        self.index = Some(index);
    }

    /// Removes one occurrence of `filter` from the served multiset,
    /// recording announced-set transitions in `changes`.
    pub fn remove(&mut self, filter: &Filter, changes: &mut CoverChanges) {
        let digest = filter.digest();
        let Some(entry) = self.entries.get_mut(&digest) else {
            debug_assert!(false, "removing a filter that was never served: {filter}");
            return;
        };
        entry.refs -= 1;
        if entry.refs > 0 {
            return;
        }
        let (entered_from, left_from) = (changes.entered.len(), changes.left.len());
        let removed = self.entries.remove(&digest).expect("entry exists");
        if self.covering {
            if let Some(index) = &mut self.index {
                let key = removed.filter.cover_key();
                let attrs = AttrBuf::collect(&removed.filter);
                // Take the departed filter out of the index *first*, then
                // release everything it alone dominated.
                index.remove(digest, key);
                let index = &*index;
                let mut candidates = std::mem::take(&mut self.candidates);
                index.dominated_candidates(attrs.as_slice(), key, &mut candidates);
                for d in &candidates {
                    let entry = self.entries.get_mut(d).expect("indexed entry served");
                    if dominates(&removed.filter, &entry.filter) {
                        entry.dominated_by -= 1;
                        if entry.dominated_by == 0 {
                            changes.entered.push(entry.filter.clone());
                        }
                    }
                }
                candidates.clear();
                self.candidates = candidates;
            } else {
                for entry in self.entries.values_mut() {
                    if dominates(&removed.filter, &entry.filter) {
                        entry.dominated_by -= 1;
                        if entry.dominated_by == 0 {
                            changes.entered.push(entry.filter.clone());
                        }
                    }
                }
            }
        }
        if removed.dominated_by == 0 {
            changes.left.push(removed.filter);
        }
        self.apply_merge(changes, entered_from, left_from);
    }

    /// Feeds the cover transitions recorded by the current mutation (the
    /// suffix of `changes` starting at the given indices) into the merge
    /// state, removals first so the member set stays an antichain.
    fn apply_merge(&mut self, changes: &CoverChanges, entered_from: usize, left_from: usize) {
        let Some(merge) = &mut self.merge else {
            return;
        };
        for f in &changes.left[left_from..] {
            merge.cover_left(f);
        }
        for f in &changes.entered[entered_from..] {
            merge.cover_entered(f);
        }
    }

    /// The incrementally maintained merge products of the announced cover,
    /// keyed by digest — `None` unless built with
    /// [`LinkAnnouncer::for_strategy`]\([`RoutingStrategy::Merging`]).
    pub fn merged_products(&self) -> Option<&HashMap<Digest, Filter>> {
        self.merge.as_ref().map(|m| &m.products)
    }

    /// The merge products sorted by digest (equivalence testing).
    pub fn merged_sorted(&self) -> Option<Vec<Filter>> {
        self.merged_products().map(|p| {
            let mut out: Vec<Filter> = p.values().cloned().collect();
            out.sort_by_key(Filter::digest);
            out
        })
    }

    /// The current announced set — every distinct filter in simple mode,
    /// the minimal cover in covering mode — sorted by digest.
    pub fn announced(&self) -> Vec<Filter> {
        let mut out: Vec<Filter> = self
            .entries
            .values()
            .filter(|e| e.dominated_by == 0)
            .map(|e| e.filter.clone())
            .collect();
        out.sort_by_key(Filter::digest);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f_service(s: &str) -> Filter {
        Filter::builder().eq("service", s).build()
    }

    fn f_service_room(s: &str, r: i64) -> Filter {
        Filter::builder().eq("service", s).eq("room", r).build()
    }

    #[test]
    fn flooding_announces_nothing() {
        let fs = vec![f_service("a"), f_service("b")];
        assert!(RoutingStrategy::Flooding.announcements(&fs).is_empty());
        assert!(RoutingStrategy::Flooding.is_flooding());
    }

    #[test]
    fn simple_dedups_identical_filters() {
        let fs = vec![f_service("a"), f_service("a"), f_service("b")];
        let out = RoutingStrategy::Simple.announcements(&fs);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn covering_suppresses_covered_filters() {
        let fs =
            vec![f_service("t"), f_service_room("t", 1), f_service_room("t", 2), f_service("news")];
        let out = RoutingStrategy::Covering.announcements(&fs);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&f_service("t")));
        assert!(out.contains(&f_service("news")));
    }

    #[test]
    fn covering_collapses_equivalent_filters_deterministically() {
        // Two structurally identical filters are removed by dedup; build
        // two semantically equivalent but structurally different ones.
        let a = Filter::builder().one_of("x", [1i64]).build();
        let b = Filter::builder().eq("x", 1i64).build();
        assert!(a.covers(&b) && b.covers(&a));
        let out = RoutingStrategy::Covering.announcements(&[a.clone(), b.clone()]);
        assert_eq!(out.len(), 1);
        let out2 = RoutingStrategy::Covering.announcements(&[b, a]);
        assert_eq!(out, out2, "representative choice must not depend on input order");
    }

    #[test]
    fn merging_merges_siblings() {
        let fs = vec![f_service_room("t", 1), f_service_room("t", 2)];
        let out = RoutingStrategy::Merging.announcements(&fs);
        assert_eq!(out.len(), 1);
        assert!(out[0].covers(&fs[0]) && out[0].covers(&fs[1]));
    }

    #[test]
    fn strategies_never_lose_coverage() {
        let fs = vec![
            f_service("t"),
            f_service_room("t", 1),
            f_service_room("x", 2),
            Filter::builder().ge("level", 3i64).build(),
        ];
        for strat in [RoutingStrategy::Simple, RoutingStrategy::Covering, RoutingStrategy::Merging]
        {
            let out = strat.announcements(&fs);
            for f in &fs {
                assert!(
                    out.iter().any(|o| o.covers(f)),
                    "{strat}: {f} not covered by announcement set"
                );
            }
        }
    }

    #[test]
    fn empty_input_empty_output() {
        for strat in RoutingStrategy::ALL {
            assert!(strat.announcements(&[]).is_empty());
        }
    }

    #[test]
    fn for_strategy_selects_modes() {
        assert!(LinkAnnouncer::for_strategy(RoutingStrategy::Simple).merged_products().is_none());
        assert!(LinkAnnouncer::for_strategy(RoutingStrategy::Covering).merged_products().is_none());
        let m = LinkAnnouncer::for_strategy(RoutingStrategy::Merging);
        assert!(m.merged_products().is_some_and(HashMap::is_empty));
    }

    /// The incremental merge products track add/remove churn: siblings
    /// merge into one product, a non-interacting filter rides the fast
    /// path in and out, and removals dissolve products back.
    #[test]
    fn merge_products_track_churn() {
        let mut a = LinkAnnouncer::for_strategy(RoutingStrategy::Merging);
        let mut changes = CoverChanges::default();
        let (r1, r2) = (f_service_room("t", 1), f_service_room("t", 2));
        a.add(&r1, &mut changes);
        a.add(&r2, &mut changes);
        let products = a.merged_sorted().expect("merging mode");
        assert_eq!(products.len(), 1, "siblings merged into one product");
        assert!(products[0].covers(&r1) && products[0].covers(&r2));
        // A filter over a disjoint attribute set enters as itself.
        let lone = Filter::builder().eq("level", 3i64).build();
        a.add(&lone, &mut changes);
        assert_eq!(a.merged_sorted().expect("merging mode").len(), 2);
        a.remove(&lone, &mut changes);
        let products = a.merged_sorted().expect("merging mode");
        assert_eq!(products.len(), 1);
        // Removing one sibling dissolves the merged product.
        a.remove(&r1, &mut changes);
        assert_eq!(a.merged_sorted().expect("merging mode"), vec![r2.clone()]);
        a.remove(&r2, &mut changes);
        assert!(a.merged_sorted().expect("merging mode").is_empty());
    }

    #[test]
    fn display_names() {
        assert_eq!(RoutingStrategy::Covering.to_string(), "covering");
    }

    /// Drives an announcer well past [`INDEX_THRESHOLD`] so the bucketed
    /// candidate index (not the small-link scan) maintains the cover, with
    /// a workload built to hit every probe path: many same-shape points,
    /// range (general) filters over the same attributes, subset-shape
    /// dominators (including `Filter::all`), superset shapes, an
    /// `In`-singleton ↔ `Eq` equivalence pair and an `Int`/`Float` alias
    /// pair (mutual covering through the canonical point digest). After
    /// every step the incremental state must equal the from-scratch
    /// computation.
    #[test]
    fn bucketed_index_matches_from_scratch_past_threshold() {
        let mut announcer = LinkAnnouncer::for_strategy(RoutingStrategy::Covering);
        let mut served: Vec<Filter> = Vec::new();
        let step =
            |announcer: &mut LinkAnnouncer, served: &mut Vec<Filter>, add: bool, f: Filter| {
                let mut changes = CoverChanges::default();
                let before = announcer.announced();
                if add {
                    served.push(f.clone());
                    announcer.add(&f, &mut changes);
                } else {
                    let pos =
                        served.iter().position(|g| g == &f).expect("removing a served filter");
                    served.swap_remove(pos);
                    announcer.remove(&f, &mut changes);
                }
                let after = announcer.announced();
                assert_eq!(
                    after,
                    RoutingStrategy::Covering.announcements(served),
                    "incremental cover diverged (add={add}, filter={f})"
                );
                // Transitions are exactly the announced-set difference.
                let mut entered: Vec<Filter> =
                    after.iter().filter(|f| !before.contains(f)).cloned().collect();
                let mut left: Vec<Filter> =
                    before.iter().filter(|f| !after.contains(f)).cloned().collect();
                entered.sort_by_key(Filter::digest);
                left.sort_by_key(Filter::digest);
                changes.entered.sort_by_key(Filter::digest);
                changes.left.sort_by_key(Filter::digest);
                assert_eq!(changes.entered, entered);
                assert_eq!(changes.left, left);
            };

        // 1. 100 same-shape points (crosses the threshold mid-loop).
        for i in 0..100i64 {
            step(&mut announcer, &mut served, true, f_service_room("t", i));
        }
        // 2. General filters on the same shape: ranges dominating slices
        //    of the points' rooms.
        let wide = Filter::builder().eq("service", "t").between("room", 10, 19).build();
        // (between adds two `room` constraints — a repeated attribute, so
        // this is a general entry even though one constraint is Eq.)
        step(&mut announcer, &mut served, true, wide.clone());
        // 3. A subset-shape dominator: covers every point with service 't'.
        let broad = f_service("t");
        step(&mut announcer, &mut served, true, broad.clone());
        // 4. The universal filter (empty shape) dominates everything.
        step(&mut announcer, &mut served, true, Filter::all());
        // 5. Superset shapes: points extending the two-attr shape.
        for i in 0..8i64 {
            let f = Filter::builder().eq("service", "t").eq("room", i).eq("floor", i).build();
            step(&mut announcer, &mut served, true, f);
        }
        // 6. Mutual-cover pairs with distinct digests: Eq ↔ In-singleton
        //    (general vs point) and Int ↔ Float (canonical point digests).
        let eq_form = Filter::builder().eq("service", "t").eq("room", 500i64).build();
        let in_form = Filter::builder().eq("service", "t").one_of("room", [500i64]).build();
        assert!(eq_form.covers(&in_form) && in_form.covers(&eq_form));
        step(&mut announcer, &mut served, true, eq_form.clone());
        step(&mut announcer, &mut served, true, in_form.clone());
        let int_form = Filter::builder().eq("service", "t").eq("room", 600i64).build();
        let float_form = Filter::builder().eq("service", "t").eq("room", 600.0f64).build();
        assert_ne!(int_form.digest(), float_form.digest());
        assert!(int_form.covers(&float_form) && float_form.covers(&int_form));
        step(&mut announcer, &mut served, true, int_form.clone());
        step(&mut announcer, &mut served, true, float_form.clone());
        // 7. Unwind the dominators: the covered sets must resurface.
        step(&mut announcer, &mut served, false, Filter::all());
        step(&mut announcer, &mut served, false, broad);
        step(&mut announcer, &mut served, false, wide);
        step(&mut announcer, &mut served, false, int_form);
        step(&mut announcer, &mut served, false, eq_form);
        // 8. Drain a slice of the points (bucket keeps its shape state).
        for i in 0..50i64 {
            step(&mut announcer, &mut served, false, f_service_room("t", i));
        }
        // 9. Refill: the retained empty buckets must be reused correctly.
        for i in 0..25i64 {
            step(&mut announcer, &mut served, true, f_service_room("t", i));
        }
        assert!(announcer.distinct_len() > INDEX_THRESHOLD);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use rebeca_core::{ClientId, Notification, SimTime};

    fn arb_filter() -> impl Strategy<Value = Filter> {
        (
            proptest::option::of(0i64..3),
            proptest::option::of(0i64..3),
            proptest::option::of(0i64..3),
        )
            .prop_map(|(a, b, c)| {
                let mut f = Filter::builder();
                if let Some(v) = a {
                    f = f.eq("a", v);
                }
                if let Some(v) = b {
                    f = f.ge("b", v);
                }
                if let Some(v) = c {
                    f = f.one_of("c", [v, v + 1]);
                }
                f.build()
            })
    }

    fn arb_note() -> impl Strategy<Value = Notification> {
        (0i64..4, 0i64..4, 0i64..4).prop_map(|(a, b, c)| {
            Notification::builder().attr("a", a).attr("b", b).attr("c", c).publish(
                ClientId::new(0),
                0,
                SimTime::ZERO,
            )
        })
    }

    proptest! {
        /// For every non-flooding strategy, the announced set matches a
        /// notification iff the original filter set does (no false
        /// negatives, no false positives beyond merging's exactness).
        #[test]
        fn announcements_preserve_matching(
            filters in proptest::collection::vec(arb_filter(), 0..7),
            n in arb_note(),
        ) {
            let want = filters.iter().any(|f| f.matches(&n));
            for strat in [RoutingStrategy::Simple, RoutingStrategy::Covering, RoutingStrategy::Merging] {
                let out = strat.announcements(&filters);
                let got = out.iter().any(|f| f.matches(&n));
                // Simple and covering are exact; merging uses only perfect
                // merges and covering absorption, so it is exact too.
                prop_assert_eq!(want, got, "strategy {} filters {:?}", strat, filters.len());
            }
        }

        /// The incremental per-link announcer agrees with the from-scratch
        /// strategy computation after every step of a random add/remove
        /// churn sequence, in both simple and covering mode.
        #[test]
        fn link_announcer_matches_from_scratch(
            ops in proptest::collection::vec((any::<bool>(), 0usize..8, arb_filter()), 1..40),
            covering in any::<bool>(),
        ) {
            let strategy =
                if covering { RoutingStrategy::Covering } else { RoutingStrategy::Simple };
            let mut announcer = LinkAnnouncer::new(covering);
            let mut served: Vec<Filter> = Vec::new();
            for (add, pick, f) in ops {
                let mut changes = CoverChanges::default();
                let before = announcer.announced();
                if add || served.is_empty() {
                    served.push(f.clone());
                    announcer.add(&f, &mut changes);
                } else {
                    let victim = served.swap_remove(pick % served.len());
                    announcer.remove(&victim, &mut changes);
                }
                let after = announcer.announced();
                prop_assert_eq!(&after, &strategy.announcements(&served));
                // The reported transitions are exactly the set difference.
                let mut expect_entered: Vec<Filter> =
                    after.iter().filter(|f| !before.contains(f)).cloned().collect();
                let mut expect_left: Vec<Filter> =
                    before.iter().filter(|f| !after.contains(f)).cloned().collect();
                expect_entered.sort_by_key(Filter::digest);
                expect_left.sort_by_key(Filter::digest);
                changes.entered.sort_by_key(Filter::digest);
                changes.left.sort_by_key(Filter::digest);
                prop_assert_eq!(changes.entered, expect_entered);
                prop_assert_eq!(changes.left, expect_left);
            }
        }

        /// The incrementally maintained merge products equal the
        /// from-scratch `merge_set(minimal_cover(served))` after **every**
        /// step of a random add/remove churn sequence.
        #[test]
        fn merge_products_match_from_scratch(
            ops in proptest::collection::vec((any::<bool>(), 0usize..8, arb_filter()), 1..40),
        ) {
            let mut announcer = LinkAnnouncer::for_strategy(RoutingStrategy::Merging);
            let mut served: Vec<Filter> = Vec::new();
            let mut changes = CoverChanges::default();
            for (add, pick, f) in ops {
                if add || served.is_empty() {
                    served.push(f.clone());
                    announcer.add(&f, &mut changes);
                } else {
                    let victim = served.swap_remove(pick % served.len());
                    announcer.remove(&victim, &mut changes);
                }
                let incremental = announcer.merged_sorted().expect("merging mode");
                let mut from_scratch = merge_set(minimal_cover(&served));
                from_scratch.sort_by_key(Filter::digest);
                prop_assert_eq!(&incremental, &from_scratch,
                    "served: {:?}", served.iter().map(ToString::to_string).collect::<Vec<_>>());
                // The cover itself must still be maintained alongside.
                prop_assert_eq!(announcer.announced(), minimal_cover(&served));
            }
        }

        /// Covering output is antichain-like: no announced filter strictly
        /// covers another.
        #[test]
        fn covering_output_is_minimal(filters in proptest::collection::vec(arb_filter(), 0..7)) {
            let out = RoutingStrategy::Covering.announcements(&filters);
            for (i, f) in out.iter().enumerate() {
                for (j, g) in out.iter().enumerate() {
                    if i != j {
                        prop_assert!(!f.covers(g) || g.covers(f), "{f} strictly covers {g}");
                        prop_assert!(!(f.covers(g) && g.covers(f)), "equivalent filters both kept");
                    }
                }
            }
        }
    }
}
