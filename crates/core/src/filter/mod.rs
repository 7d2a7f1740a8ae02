//! Content-based filters: conjunctions of attribute constraints.
//!
//! "Filters are boolean-valued functions over notifications and a common way
//! of implementing subscriptions. The most flexible scheme for specifying
//! these filters is content-based filtering, which utilizes predicates on
//! the entire content of a notification." (paper, §2)
//!
//! A [`Filter`] is a conjunction of [`Constraint`]s; each constraint applies
//! a [`Predicate`] to one named attribute. A notification matches the filter
//! iff **every** constraint is satisfied (missing attributes never satisfy a
//! constraint). One relation powers covering-based routing:
//! [`Filter::covers`], `F1 ⊒ F2` when every notification matching `F2` also
//! matches `F1`.

mod predicate;

pub use predicate::Predicate;

use crate::digest::{Digest, Fnv1a};
use crate::id::LocationId;
use crate::notification::Notification;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A single attribute constraint: a named attribute plus a [`Predicate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    attr: String,
    predicate: Predicate,
}

crate::wire_table! { struct Constraint { attr: crate::codec::Str<u16>, predicate: Predicate } }

impl Constraint {
    /// Creates a constraint on the given attribute.
    pub fn new(attr: impl Into<String>, predicate: Predicate) -> Self {
        Constraint { attr: attr.into(), predicate }
    }

    /// The constrained attribute name.
    pub fn attr(&self) -> &str {
        &self.attr
    }

    /// The predicate applied to the attribute.
    pub fn predicate(&self) -> &Predicate {
        &self.predicate
    }

    /// Evaluates the constraint against a notification: the attribute must
    /// be present and its value must satisfy the predicate.
    pub fn matches(&self, n: &Notification) -> bool {
        n.get(&self.attr).is_some_and(|v| self.predicate.matches(v))
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.attr, self.predicate)
    }
}

/// A content-based filter: a conjunction of [`Constraint`]s.
///
/// The empty filter matches every notification (used by flooding and
/// match-all subscriptions). Constraints are kept sorted by attribute name,
/// so structurally equal filters compare equal with `==` (syntactic
/// equality; semantic equivalence is approximated by mutual
/// [`Filter::covers`]).
///
/// ```
/// use rebeca_core::{ClientId, Filter, Notification, SimTime};
/// let f = Filter::builder()
///     .eq("service", "stock-quote")
///     .ge("price", 100i64)
///     .build();
/// let n = Notification::builder()
///     .attr("service", "stock-quote")
///     .attr("price", 120i64)
///     .publish(ClientId::new(0), 0, SimTime::ZERO);
/// assert!(f.matches(&n));
/// ```
///
/// A filter never changes once built, so it is one shared allocation:
/// cloning bumps a reference count. Routing tables, announcers, op logs and
/// their checkpoints all keep "their own" copy of a filter that travels
/// through them, and a re-subscription makes a dozen of those.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Filter {
    constraints: Arc<[Constraint]>,
}

impl Filter {
    /// The filter that matches **every** notification.
    pub fn all() -> Filter {
        Filter::default()
    }

    /// Starts building a filter.
    pub fn builder() -> FilterBuilder {
        FilterBuilder::default()
    }

    /// Creates a filter from pre-built constraints.
    pub fn from_constraints(constraints: impl IntoIterator<Item = Constraint>) -> Filter {
        let mut constraints: Vec<_> = constraints.into_iter().collect();
        constraints.sort_by(|a, b| a.attr.cmp(&b.attr));
        // Exactly sized: a builder's spare capacity stays behind.
        Filter { constraints: constraints.into() }
    }

    /// Iterates over the constraints in attribute order.
    pub fn constraints(&self) -> impl ExactSizeIterator<Item = &Constraint> {
        self.constraints.iter()
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Returns `true` for the match-all filter.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Returns the constraints on the given attribute (a filter may
    /// constrain one attribute several times, e.g. `x >= 0 && x <= 10`).
    pub fn constraints_on<'a>(&'a self, attr: &'a str) -> impl Iterator<Item = &'a Constraint> {
        self.constraints.iter().filter(move |c| c.attr == attr)
    }

    /// Evaluates the filter: **all** constraints must be satisfied.
    pub fn matches(&self, n: &Notification) -> bool {
        self.constraints.iter().all(|c| c.matches(n))
    }

    /// The covering relation: `self.covers(other)` holds when every
    /// notification matching `other` also matches `self`.
    ///
    /// Sound and, for the predicate idioms used in practice, exact; a
    /// `false` result may occasionally be conservative (see
    /// [`Predicate::covers`]).
    pub fn covers(&self, other: &Filter) -> bool {
        self.constraints
            .iter()
            .all(|c1| other.constraints_on(&c1.attr).any(|c2| c1.predicate.covers(&c2.predicate)))
    }

    /// Returns `true` if any constraint uses the `myloc` marker, i.e. the
    /// filter is *location-dependent* and must be adapted when the
    /// subscriber moves.
    pub fn is_location_dependent(&self) -> bool {
        self.constraints.iter().any(|c| c.predicate.is_myloc())
    }

    /// Returns `true` if any constraint uses a `myctx` marker.
    pub fn is_context_dependent(&self) -> bool {
        self.constraints.iter().any(|c| c.predicate.is_myctx())
    }

    /// Returns `true` while the filter still contains unresolved markers
    /// (`myloc`/`myctx`); such a filter must not be installed in a routing
    /// table.
    pub fn has_unresolved_markers(&self) -> bool {
        self.is_location_dependent() || self.is_context_dependent()
    }

    /// Resolves every `myloc` marker to the given set of concrete locations
    /// — performed by the mobility layer whenever the subscriber's location
    /// changes ("the marker stands for a specific set of locations that
    /// depends on the current location of the client").
    #[must_use]
    pub fn resolve_locations(&self, locations: impl IntoIterator<Item = LocationId>) -> Filter {
        let set: BTreeSet<LocationId> = locations.into_iter().collect();
        let constraints = self
            .constraints
            .iter()
            .map(|c| {
                if c.predicate.is_myloc() {
                    Constraint::new(c.attr.clone(), Predicate::InLocations(set.clone()))
                } else {
                    c.clone()
                }
            })
            .collect();
        Filter { constraints }
    }

    /// Resolves `myctx` markers through a resolver function mapping context
    /// keys to concrete predicates; markers the resolver does not know stay
    /// in place.
    #[must_use]
    pub fn resolve_context(&self, resolver: impl Fn(&str) -> Option<Predicate>) -> Filter {
        let constraints = self
            .constraints
            .iter()
            .map(|c| match &c.predicate {
                Predicate::MyCtx(key) => match resolver(key) {
                    Some(p) => Constraint::new(c.attr.clone(), p),
                    None => c.clone(),
                },
                _ => c.clone(),
            })
            .collect();
        Filter { constraints }
    }

    /// Size of the filter in the wire encoding, in bytes — used to charge
    /// subscription-forwarding traffic against links.
    pub fn wire_size(&self) -> usize {
        crate::codec::wire_len::<Filter>(self)
    }

    /// Stable content digest (used as a cheap identity key in routing
    /// tables; floats hash by bit pattern).
    pub fn digest(&self) -> Digest {
        let mut h = Fnv1a::new();
        h.write_u64(self.constraints.len() as u64);
        for c in self.constraints.iter() {
            h.write_u64(c.attr.len() as u64);
            h.write(c.attr.as_bytes());
            c.predicate.hash_into(&mut h);
        }
        h.finish()
    }

    /// The distinct constrained attribute names, in sorted order
    /// (constraints are kept attribute-sorted, so this is a dedup pass).
    pub fn distinct_attrs(&self) -> impl Iterator<Item = &str> {
        let mut prev: Option<&str> = None;
        self.constraints.iter().filter_map(move |c| {
            if prev == Some(c.attr.as_str()) {
                None
            } else {
                prev = Some(c.attr.as_str());
                Some(c.attr.as_str())
            }
        })
    }

    /// Classification of this filter for covering-candidate indexing (the
    /// broker's bucketed announcement engine): the *shape* plus, for
    /// *point* filters, a canonical value digest. See [`CoverKey`] for the
    /// two structural facts that make these sound candidate keys.
    pub fn cover_key(&self) -> CoverKey {
        let mut shape = Fnv1a::new();
        let mut point = Fnv1a::new();
        let mut is_point = true;
        let mut prev: Option<&str> = None;
        for c in self.constraints.iter() {
            if prev == Some(c.attr.as_str()) {
                // A repeated attribute (e.g. a range as two constraints)
                // disqualifies the point fast path but not the shape.
                is_point = false;
                continue;
            }
            prev = Some(c.attr.as_str());
            shape.write_u64(c.attr.len() as u64);
            shape.write(c.attr.as_bytes());
            match &c.predicate {
                Predicate::Eq(v) if is_point => {
                    point.write_u64(c.attr.len() as u64);
                    point.write(c.attr.as_bytes());
                    v.canonical_hash_into(&mut point);
                }
                Predicate::Eq(_) => {}
                _ => is_point = false,
            }
        }
        CoverKey { shape: shape.finish(), point: is_point.then(|| point.finish()) }
    }
}

/// Digest of a sorted sequence of attribute names — the *shape* key of
/// [`Filter::cover_key`], exposed so a covering index can compute the
/// shape of an arbitrary attribute subset (candidate-bucket enumeration)
/// with the same hash.
pub fn shape_digest<'a>(names: impl IntoIterator<Item = &'a str>) -> Digest {
    let mut h = Fnv1a::new();
    for name in names {
        h.write_u64(name.len() as u64);
        h.write(name.as_bytes());
    }
    h.finish()
}

/// A filter's covering-candidate classification (see
/// [`Filter::cover_key`]), built on two structural facts about
/// [`Filter::covers`]:
///
/// 1. **Shape subsumption.** `g.covers(f)` requires every constraint of
///    `g` to be backed by a constraint of `f` *on the same attribute*, so
///    the coverer's distinct attribute set is always a **subset** of the
///    covered filter's. Candidate dominators of `f` therefore live only in
///    shapes ⊆ `shape(f)`, and filters dominated by `f` only in shapes ⊇
///    `shape(f)`.
/// 2. **Point separation.** A *point* filter (pure `Eq` conjunction, no
///    repeated attribute) covers another point filter of the **same
///    shape** only when their constrained values are pairwise equal —
///    `Eq` covers `Eq` only at equality — and equal value vectors always
///    share the canonical `point` digest (which folds `Int`/`Float` the
///    way [`Value`] equality does). Two same-shape points with different
///    `point` digests therefore never cover each other in either
///    direction and need no pairwise check at all.
///
/// Both digests are candidate keys: a collision only adds a candidate
/// (callers re-check with [`Filter::covers`]), never hides one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverKey {
    /// Digest of the sorted distinct attribute names ([`shape_digest`]).
    pub shape: Digest,
    /// Canonical digest of the `Eq` values when the filter is a point
    /// (all constraints `Eq`, no attribute repeated); `None` otherwise.
    pub point: Option<Digest>,
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.constraints.is_empty() {
            return write!(f, "<all>");
        }
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, " && ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Non-consuming builder-style constructor for [`Filter`]s.
///
/// Each method adds one constraint; [`FilterBuilder::build`] finalises. The
/// builder is consuming (`self` in, `Self` out) to allow one-liners:
///
/// ```
/// use rebeca_core::Filter;
/// let f = Filter::builder().eq("service", "news").prefix("topic", "sport").build();
/// assert_eq!(f.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FilterBuilder {
    constraints: Vec<Constraint>,
}

impl FilterBuilder {
    /// Adds an arbitrary constraint.
    #[must_use]
    pub fn constraint(mut self, attr: impl Into<String>, predicate: Predicate) -> Self {
        self.constraints.push(Constraint::new(attr, predicate));
        self
    }

    /// Requires `attr == value`.
    #[must_use]
    pub fn eq(self, attr: impl Into<String>, value: impl Into<Value>) -> Self {
        self.constraint(attr, Predicate::Eq(value.into()))
    }

    /// Requires `attr != value` (and comparable).
    #[must_use]
    pub fn ne(self, attr: impl Into<String>, value: impl Into<Value>) -> Self {
        self.constraint(attr, Predicate::Ne(value.into()))
    }

    /// Requires `attr < value`.
    #[must_use]
    pub fn lt(self, attr: impl Into<String>, value: impl Into<Value>) -> Self {
        self.constraint(attr, Predicate::Lt(value.into()))
    }

    /// Requires `attr <= value`.
    #[must_use]
    pub fn le(self, attr: impl Into<String>, value: impl Into<Value>) -> Self {
        self.constraint(attr, Predicate::Le(value.into()))
    }

    /// Requires `attr > value`.
    #[must_use]
    pub fn gt(self, attr: impl Into<String>, value: impl Into<Value>) -> Self {
        self.constraint(attr, Predicate::Gt(value.into()))
    }

    /// Requires `attr >= value`.
    #[must_use]
    pub fn ge(self, attr: impl Into<String>, value: impl Into<Value>) -> Self {
        self.constraint(attr, Predicate::Ge(value.into()))
    }

    /// Requires `lo <= attr <= hi` (two constraints).
    #[must_use]
    pub fn between(
        self,
        attr: impl Into<String> + Clone,
        lo: impl Into<Value>,
        hi: impl Into<Value>,
    ) -> Self {
        self.ge(attr.clone(), lo).le(attr, hi)
    }

    /// Requires `attr` to equal one of the given values.
    #[must_use]
    pub fn one_of(
        self,
        attr: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<Value>>,
    ) -> Self {
        self.constraint(attr, Predicate::In(values.into_iter().map(Into::into).collect()))
    }

    /// Requires the string attribute to start with `prefix`.
    #[must_use]
    pub fn prefix(self, attr: impl Into<String>, prefix: impl Into<String>) -> Self {
        self.constraint(attr, Predicate::Prefix(prefix.into()))
    }

    /// Requires the string attribute to end with `suffix`.
    #[must_use]
    pub fn suffix(self, attr: impl Into<String>, suffix: impl Into<String>) -> Self {
        self.constraint(attr, Predicate::Suffix(suffix.into()))
    }

    /// Requires the string attribute to contain `needle`.
    #[must_use]
    pub fn contains(self, attr: impl Into<String>, needle: impl Into<String>) -> Self {
        self.constraint(attr, Predicate::Contains(needle.into()))
    }

    /// Requires the attribute to be present (any value).
    #[must_use]
    pub fn exists(self, attr: impl Into<String>) -> Self {
        self.constraint(attr, Predicate::Any)
    }

    /// Requires the location attribute to be a member of the given set.
    #[must_use]
    pub fn in_locations(
        self,
        attr: impl Into<String>,
        locations: impl IntoIterator<Item = LocationId>,
    ) -> Self {
        self.constraint(attr, Predicate::InLocations(locations.into_iter().collect()))
    }

    /// Adds the `myloc` marker: the attribute must lie in the subscriber's
    /// current location set. This is what makes a subscription
    /// *location-dependent*.
    #[must_use]
    pub fn myloc(self, attr: impl Into<String>) -> Self {
        self.constraint(attr, Predicate::MyLoc)
    }

    /// Adds a `myctx` marker resolved from the subscriber's context.
    #[must_use]
    pub fn myctx(self, attr: impl Into<String>, key: impl Into<String>) -> Self {
        self.constraint(attr, Predicate::MyCtx(key.into()))
    }

    /// Finalises the filter (constraints are sorted by attribute).
    pub fn build(self) -> Filter {
        Filter::from_constraints(self.constraints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ClientId;
    use crate::time::SimTime;

    fn n(service: &str, room: i64) -> Notification {
        Notification::builder().attr("service", service).attr("room", room).publish(
            ClientId::new(0),
            0,
            SimTime::ZERO,
        )
    }

    #[test]
    fn empty_filter_matches_everything() {
        assert!(Filter::all().matches(&n("x", 1)));
        assert!(Filter::all().is_empty());
        assert_eq!(Filter::all().to_string(), "<all>");
    }

    #[test]
    fn conjunction_semantics() {
        let f = Filter::builder().eq("service", "temp").ge("room", 100i64).build();
        assert!(f.matches(&n("temp", 104)));
        assert!(!f.matches(&n("temp", 99)));
        assert!(!f.matches(&n("other", 104)));
    }

    #[test]
    fn missing_attribute_never_matches() {
        let f = Filter::builder().eq("absent", 1i64).build();
        assert!(!f.matches(&n("temp", 1)));
        // ... including for negative predicates:
        let f = Filter::builder().ne("absent", 1i64).build();
        assert!(!f.matches(&n("temp", 1)));
    }

    #[test]
    fn range_via_two_constraints() {
        let f = Filter::builder().between("room", 100i64, 110i64).build();
        assert!(f.matches(&n("t", 100)));
        assert!(f.matches(&n("t", 110)));
        assert!(!f.matches(&n("t", 99)));
        assert!(!f.matches(&n("t", 111)));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn constraints_sorted_for_stable_equality() {
        let a = Filter::builder().eq("b", 1i64).eq("a", 2i64).build();
        let b = Filter::builder().eq("a", 2i64).eq("b", 1i64).build();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn covering_on_filters() {
        let broad = Filter::builder().eq("service", "temp").build();
        let narrow = Filter::builder().eq("service", "temp").ge("room", 100i64).build();
        assert!(broad.covers(&narrow));
        assert!(!narrow.covers(&broad));
        assert!(Filter::all().covers(&broad));
        assert!(!broad.covers(&Filter::all()));
        // Range covering across paired constraints.
        let wide = Filter::builder().between("x", 0i64, 100i64).build();
        let tight = Filter::builder().between("x", 10i64, 20i64).build();
        assert!(wide.covers(&tight));
        assert!(!tight.covers(&wide));
    }

    #[test]
    fn myloc_resolution() {
        let f = Filter::builder().eq("service", "temp").myloc("location").build();
        assert!(f.is_location_dependent());
        assert!(f.has_unresolved_markers());

        let l1 = LocationId::new(1);
        let resolved = f.resolve_locations([l1]);
        assert!(!resolved.is_location_dependent());
        let hit = Notification::builder().attr("service", "temp").attr("location", l1).publish(
            ClientId::new(0),
            0,
            SimTime::ZERO,
        );
        let miss = Notification::builder()
            .attr("service", "temp")
            .attr("location", LocationId::new(2))
            .publish(ClientId::new(0), 1, SimTime::ZERO);
        assert!(resolved.matches(&hit));
        assert!(!resolved.matches(&miss));
        // The unresolved filter matches nothing.
        assert!(!f.matches(&hit));
    }

    #[test]
    fn myctx_resolution() {
        let f = Filter::builder().myctx("speed", "max-speed").build();
        assert!(f.is_context_dependent());
        let resolved = f
            .resolve_context(|key| (key == "max-speed").then(|| Predicate::Le(Value::from(50i64))));
        assert!(!resolved.is_context_dependent());
        let slow = Notification::builder().attr("speed", 30i64).publish(
            ClientId::new(0),
            0,
            SimTime::ZERO,
        );
        assert!(resolved.matches(&slow));
        // Unknown keys stay unresolved.
        let still = f.resolve_context(|_| None);
        assert!(still.is_context_dependent());
    }

    #[test]
    fn myloc_resolution_changes_with_location() {
        let f = Filter::builder().myloc("location").build();
        let at1 = f.resolve_locations([LocationId::new(1)]);
        let at2 = f.resolve_locations([LocationId::new(2)]);
        assert_ne!(at1, at2);
        assert_ne!(at1.digest(), at2.digest());
    }

    #[test]
    fn digest_distinguishes_filters() {
        let a = Filter::builder().eq("x", 1i64).build();
        let b = Filter::builder().eq("x", 2i64).build();
        let c = Filter::builder().ne("x", 1i64).build();
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn display_reads_naturally() {
        let f = Filter::builder().eq("service", "temp").myloc("location").build();
        assert_eq!(f.to_string(), "location in myloc && service == 'temp'");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::id::ClientId;
    use crate::time::SimTime;
    use proptest::prelude::*;

    prop_compose! {
        fn arb_small_filter()(
            n_eq in 0usize..3,
            attrs in proptest::collection::vec("[a-c]", 0..3),
            vals in proptest::collection::vec(-5i64..5, 0..3),
        ) -> Filter {
            let mut b = Filter::builder();
            for (i, a) in attrs.iter().enumerate().take(n_eq) {
                let v = vals.get(i).copied().unwrap_or(0);
                b = if v % 2 == 0 { b.eq(a.clone(), v) } else { b.ge(a.clone(), v) };
            }
            b.build()
        }
    }

    fn arb_notification() -> impl Strategy<Value = Notification> {
        proptest::collection::btree_map("[a-c]", -5i64..5, 0..4).prop_map(|m| {
            let mut b = Notification::builder();
            for (k, v) in m {
                b = b.attr(k, v);
            }
            b.publish(ClientId::new(0), 0, SimTime::ZERO)
        })
    }

    proptest! {
        /// Filter covering is sound with respect to matching.
        #[test]
        fn filter_covering_sound(f in arb_small_filter(), g in arb_small_filter(), n in arb_notification()) {
            if f.covers(&g) && g.matches(&n) {
                prop_assert!(f.matches(&n), "f={f} g={g} n={n}");
            }
        }

        /// Covering is reflexive and transitive on generated filters.
        #[test]
        fn filter_covering_preorder(f in arb_small_filter(), g in arb_small_filter(), h in arb_small_filter()) {
            prop_assert!(f.covers(&f));
            if f.covers(&g) && g.covers(&h) {
                prop_assert!(f.covers(&h), "f={f} g={g} h={h}");
            }
        }

        /// Digest equality follows from structural equality.
        #[test]
        fn digest_respects_equality(f in arb_small_filter()) {
            let g = f.clone();
            prop_assert_eq!(f.digest(), g.digest());
        }
    }
}
