//! Attribute predicates: the atoms of content-based filters.

use crate::digest::Fnv1a;
use crate::id::LocationId;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// A predicate over a single attribute value.
///
/// Predicates are combined conjunctively by [`Filter`](crate::Filter). They
/// implement two decision procedures used throughout the routing layer:
///
/// * [`Predicate::matches`] — does a concrete value satisfy the predicate?
/// * [`Predicate::covers`] — `p.covers(q)` holds when **every** value
///   matching `q` also matches `p` (the basis of covering-based routing).
///   The implementation is *sound* (never claims coverage that does not
///   hold) and exact for the idioms that occur in practice; a `false` answer
///   may occasionally be conservative.
///
/// The two *marker* variants make subscriptions context-sensitive:
/// [`Predicate::MyLoc`] is the paper's `myloc` marker ("a specific set of
/// locations that depends on the current location of the client") and
/// [`Predicate::MyCtx`] generalises it to arbitrary client state (the
/// context-awareness research-agenda item). Markers never match concrete
/// values; the mobility layer replaces them (via
/// [`Filter::resolve_locations`](crate::Filter::resolve_locations)) before
/// filters reach a routing table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// Matches any value — the attribute only has to be present.
    Any,
    /// Value equals the operand (numeric class compares `Int` ↔ `Float`).
    Eq(Value),
    /// Value is comparable with and different from the operand.
    Ne(Value),
    /// Value is strictly less than the operand.
    Lt(Value),
    /// Value is less than or equal to the operand.
    Le(Value),
    /// Value is strictly greater than the operand.
    Gt(Value),
    /// Value is greater than or equal to the operand.
    Ge(Value),
    /// Value equals one of the operands.
    In(Vec<Value>),
    /// String value starts with the operand.
    Prefix(String),
    /// String value ends with the operand.
    Suffix(String),
    /// String value contains the operand.
    Contains(String),
    /// Location value is a member of the operand set.
    InLocations(BTreeSet<LocationId>),
    /// The `myloc` marker: stands for the set of locations corresponding to
    /// the subscriber's *current* position. Unresolved markers never match.
    MyLoc,
    /// A context marker: stands for a predicate derived from the named entry
    /// of the subscriber's current context (generalisation of `myloc`).
    MyCtx(String),
}

impl Predicate {
    /// Evaluates the predicate against a concrete value.
    ///
    /// Unresolved markers ([`Predicate::MyLoc`], [`Predicate::MyCtx`])
    /// always return `false`; they must be resolved by the mobility layer
    /// first.
    pub fn matches(&self, v: &Value) -> bool {
        use Predicate::*;
        match self {
            Any => true,
            Eq(w) => v == w,
            Ne(w) => matches!(v.partial_cmp(w), Some(o) if o != Ordering::Equal),
            Lt(w) => matches!(v.partial_cmp(w), Some(Ordering::Less)),
            Le(w) => matches!(v.partial_cmp(w), Some(Ordering::Less | Ordering::Equal)),
            Gt(w) => matches!(v.partial_cmp(w), Some(Ordering::Greater)),
            Ge(w) => matches!(v.partial_cmp(w), Some(Ordering::Greater | Ordering::Equal)),
            In(set) => set.iter().any(|w| v == w),
            Prefix(p) => v.as_str().is_some_and(|s| s.starts_with(p.as_str())),
            Suffix(p) => v.as_str().is_some_and(|s| s.ends_with(p.as_str())),
            Contains(p) => v.as_str().is_some_and(|s| s.contains(p.as_str())),
            InLocations(set) => v.as_location().is_some_and(|l| set.contains(&l)),
            MyLoc | MyCtx(_) => false,
        }
    }

    /// Returns `true` if every value matching `other` also matches `self`.
    ///
    /// Sound but (for exotic pairs) incomplete; see the type-level docs.
    /// Marker predicates cover only the syntactically identical marker —
    /// both resolve to the same concrete predicate for the same client.
    pub fn covers(&self, other: &Predicate) -> bool {
        use Predicate::*;

        // An empty In/InLocations set matches nothing and is covered by
        // every predicate.
        match other {
            In(s) if s.is_empty() => return true,
            InLocations(s) if s.is_empty() => return true,
            _ => {}
        }

        if self == other {
            // Syntactic identity: exact for every variant, including
            // markers (which resolve identically for the same client).
            return true;
        }

        match (self, other) {
            (Any, MyLoc | MyCtx(_)) => true, // markers resolve to value predicates
            (Any, _) => true,
            (Eq(w), Eq(v)) => v == w,
            (Eq(w), In(s)) => s.iter().all(|v| v == w),

            (Ne(w), Eq(v)) => matches!(v.partial_cmp(w), Some(o) if o != Ordering::Equal),
            (Ne(w), In(s)) => {
                s.iter().all(|v| matches!(v.partial_cmp(w), Some(o) if o != Ordering::Equal))
            }
            (Ne(w), Lt(v)) => matches!(w.partial_cmp(v), Some(Ordering::Greater | Ordering::Equal)),
            (Ne(w), Le(v)) => matches!(w.partial_cmp(v), Some(Ordering::Greater)),
            (Ne(w), Gt(v)) => matches!(w.partial_cmp(v), Some(Ordering::Less | Ordering::Equal)),
            (Ne(w), Ge(v)) => matches!(w.partial_cmp(v), Some(Ordering::Less)),
            (Ne(w), Prefix(p)) => match w.as_str() {
                Some(s) => !s.starts_with(p.as_str()),
                None => false,
            },
            (Ne(w), Suffix(p)) => match w.as_str() {
                Some(s) => !s.ends_with(p.as_str()),
                None => false,
            },
            (Ne(w), Contains(p)) => match w.as_str() {
                Some(s) => !s.contains(p.as_str()),
                None => false,
            },
            (Ne(w), InLocations(set)) => match w.as_location() {
                Some(l) => !set.contains(&l),
                None => false,
            },

            (Lt(w), Eq(v)) => matches!(v.partial_cmp(w), Some(Ordering::Less)),
            (Lt(w), In(s)) => s.iter().all(|v| matches!(v.partial_cmp(w), Some(Ordering::Less))),
            (Lt(w), Lt(v)) => matches!(v.partial_cmp(w), Some(Ordering::Less | Ordering::Equal)),
            (Lt(w), Le(v)) => matches!(v.partial_cmp(w), Some(Ordering::Less)),

            (Le(w), Eq(v)) => matches!(v.partial_cmp(w), Some(Ordering::Less | Ordering::Equal)),
            (Le(w), In(s)) => {
                s.iter().all(|v| matches!(v.partial_cmp(w), Some(Ordering::Less | Ordering::Equal)))
            }
            (Le(w), Lt(v)) => matches!(v.partial_cmp(w), Some(Ordering::Less | Ordering::Equal)),
            (Le(w), Le(v)) => matches!(v.partial_cmp(w), Some(Ordering::Less | Ordering::Equal)),

            (Gt(w), Eq(v)) => matches!(v.partial_cmp(w), Some(Ordering::Greater)),
            (Gt(w), In(s)) => s.iter().all(|v| matches!(v.partial_cmp(w), Some(Ordering::Greater))),
            (Gt(w), Gt(v)) => matches!(v.partial_cmp(w), Some(Ordering::Greater | Ordering::Equal)),
            (Gt(w), Ge(v)) => matches!(v.partial_cmp(w), Some(Ordering::Greater)),

            (Ge(w), Eq(v)) => matches!(v.partial_cmp(w), Some(Ordering::Greater | Ordering::Equal)),
            (Ge(w), In(s)) => s
                .iter()
                .all(|v| matches!(v.partial_cmp(w), Some(Ordering::Greater | Ordering::Equal))),
            (Ge(w), Gt(v)) => matches!(v.partial_cmp(w), Some(Ordering::Greater | Ordering::Equal)),
            (Ge(w), Ge(v)) => matches!(v.partial_cmp(w), Some(Ordering::Greater | Ordering::Equal)),

            (In(set), Eq(v)) => set.iter().any(|w| w == v),
            (In(set), In(s)) => s.iter().all(|v| set.iter().any(|w| w == v)),
            (In(set), InLocations(locs)) => {
                locs.iter().all(|l| set.iter().any(|w| w.as_location() == Some(*l)))
            }

            (Prefix(p), Eq(v)) => v.as_str().is_some_and(|s| s.starts_with(p.as_str())),
            (Prefix(p), In(s)) => {
                s.iter().all(|v| v.as_str().is_some_and(|s| s.starts_with(p.as_str())))
            }
            (Prefix(p), Prefix(q)) => q.starts_with(p.as_str()),

            (Suffix(p), Eq(v)) => v.as_str().is_some_and(|s| s.ends_with(p.as_str())),
            (Suffix(p), In(s)) => {
                s.iter().all(|v| v.as_str().is_some_and(|s| s.ends_with(p.as_str())))
            }
            (Suffix(p), Suffix(q)) => q.ends_with(p.as_str()),

            (Contains(p), Eq(v)) => v.as_str().is_some_and(|s| s.contains(p.as_str())),
            (Contains(p), In(s)) => {
                s.iter().all(|v| v.as_str().is_some_and(|s| s.contains(p.as_str())))
            }
            (Contains(p), Prefix(q)) => q.contains(p.as_str()),
            (Contains(p), Suffix(q)) => q.contains(p.as_str()),
            (Contains(p), Contains(q)) => q.contains(p.as_str()),

            (InLocations(set), Eq(v)) => v.as_location().is_some_and(|l| set.contains(&l)),
            (InLocations(set), In(s)) => {
                s.iter().all(|v| v.as_location().is_some_and(|l| set.contains(&l)))
            }
            (InLocations(set), InLocations(s)) => s.is_subset(set),

            _ => false,
        }
    }

    /// Size of this predicate in the wire encoding, in bytes (tag byte
    /// included) — used for control-traffic accounting.
    pub fn wire_size(&self) -> usize {
        crate::codec::wire_len::<Predicate>(self)
    }

    /// Returns `true` for the unresolved `myloc` marker.
    pub fn is_myloc(&self) -> bool {
        matches!(self, Predicate::MyLoc)
    }

    /// Returns `true` for an unresolved context marker.
    pub fn is_myctx(&self) -> bool {
        matches!(self, Predicate::MyCtx(_))
    }

    /// Feeds the canonical encoding of this predicate into a digest hasher.
    pub(crate) fn hash_into(&self, h: &mut Fnv1a) {
        use Predicate::*;
        match self {
            Any => h.write_u8(0),
            Eq(v) => {
                h.write_u8(1);
                v.hash_into(h);
            }
            Ne(v) => {
                h.write_u8(2);
                v.hash_into(h);
            }
            Lt(v) => {
                h.write_u8(3);
                v.hash_into(h);
            }
            Le(v) => {
                h.write_u8(4);
                v.hash_into(h);
            }
            Gt(v) => {
                h.write_u8(5);
                v.hash_into(h);
            }
            Ge(v) => {
                h.write_u8(6);
                v.hash_into(h);
            }
            In(s) => {
                h.write_u8(7);
                h.write_u64(s.len() as u64);
                for v in s {
                    v.hash_into(h);
                }
            }
            Prefix(s) => {
                h.write_u8(8);
                h.write(s.as_bytes());
            }
            Suffix(s) => {
                h.write_u8(9);
                h.write(s.as_bytes());
            }
            Contains(s) => {
                h.write_u8(10);
                h.write(s.as_bytes());
            }
            InLocations(set) => {
                h.write_u8(11);
                h.write_u64(set.len() as u64);
                for l in set {
                    h.write_u32(l.raw());
                }
            }
            MyLoc => h.write_u8(12),
            MyCtx(k) => {
                h.write_u8(13);
                h.write(k.as_bytes());
            }
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Predicate::*;
        match self {
            Any => write!(f, "exists"),
            Eq(v) => write!(f, "== {v}"),
            Ne(v) => write!(f, "!= {v}"),
            Lt(v) => write!(f, "< {v}"),
            Le(v) => write!(f, "<= {v}"),
            Gt(v) => write!(f, "> {v}"),
            Ge(v) => write!(f, ">= {v}"),
            In(s) => {
                write!(f, "in {{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Prefix(s) => write!(f, "starts-with '{s}'"),
            Suffix(s) => write!(f, "ends-with '{s}'"),
            Contains(s) => write!(f, "contains '{s}'"),
            InLocations(set) => {
                write!(f, "in-locations {{")?;
                for (i, l) in set.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{l}")?;
                }
                write!(f, "}}")
            }
            MyLoc => write!(f, "in myloc"),
            MyCtx(k) => write!(f, "in myctx({k})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Value {
        Value::from(i)
    }

    #[test]
    fn matches_basics() {
        assert!(Predicate::Any.matches(&v(0)));
        assert!(Predicate::Eq(v(3)).matches(&v(3)));
        assert!(!Predicate::Eq(v(3)).matches(&v(4)));
        assert!(Predicate::Ne(v(3)).matches(&v(4)));
        assert!(!Predicate::Ne(v(3)).matches(&v(3)));
        // Ne requires comparability: a string is not "!= 3".
        assert!(!Predicate::Ne(v(3)).matches(&Value::from("x")));
        assert!(Predicate::Lt(v(3)).matches(&v(2)));
        assert!(!Predicate::Lt(v(3)).matches(&v(3)));
        assert!(Predicate::Le(v(3)).matches(&v(3)));
        assert!(Predicate::Gt(v(3)).matches(&v(4)));
        assert!(Predicate::Ge(v(3)).matches(&v(3)));
        assert!(Predicate::In(vec![v(1), v(2)]).matches(&v(2)));
        assert!(!Predicate::In(vec![]).matches(&v(2)));
    }

    #[test]
    fn matches_strings_and_locations() {
        assert!(Predicate::Prefix("tem".into()).matches(&Value::from("temperature")));
        assert!(!Predicate::Prefix("tem".into()).matches(&v(1)));
        assert!(Predicate::Suffix("ure".into()).matches(&Value::from("temperature")));
        assert!(Predicate::Contains("per".into()).matches(&Value::from("temperature")));
        let set: BTreeSet<_> = [LocationId::new(1), LocationId::new(2)].into();
        assert!(Predicate::InLocations(set.clone()).matches(&Value::from(LocationId::new(1))));
        assert!(!Predicate::InLocations(set).matches(&Value::from(LocationId::new(3))));
    }

    #[test]
    fn markers_never_match() {
        assert!(!Predicate::MyLoc.matches(&Value::from(LocationId::new(1))));
        assert!(!Predicate::MyCtx("speed".into()).matches(&v(1)));
    }

    #[test]
    fn numeric_cross_type_matching() {
        assert!(Predicate::Eq(v(3)).matches(&Value::from(3.0)));
        assert!(Predicate::Lt(Value::from(3.5)).matches(&v(3)));
    }

    #[test]
    fn covers_identity_and_any() {
        let p = Predicate::Eq(v(3));
        assert!(p.covers(&p));
        assert!(Predicate::Any.covers(&p));
        assert!(!p.covers(&Predicate::Any));
        assert!(Predicate::MyLoc.covers(&Predicate::MyLoc));
        assert!(!Predicate::MyLoc.covers(&Predicate::MyCtx("a".into())));
    }

    #[test]
    fn covers_ranges() {
        assert!(Predicate::Lt(v(10)).covers(&Predicate::Lt(v(5))));
        assert!(!Predicate::Lt(v(5)).covers(&Predicate::Lt(v(10))));
        assert!(Predicate::Le(v(10)).covers(&Predicate::Lt(v(10))));
        assert!(!Predicate::Lt(v(10)).covers(&Predicate::Le(v(10))));
        assert!(Predicate::Ge(v(0)).covers(&Predicate::Gt(v(0))));
        assert!(Predicate::Gt(v(0)).covers(&Predicate::Ge(v(1))));
        assert!(Predicate::Lt(v(10)).covers(&Predicate::Eq(v(9))));
        assert!(Predicate::Ne(v(5)).covers(&Predicate::Ge(v(6))));
        assert!(!Predicate::Ne(v(5)).covers(&Predicate::Ge(v(5))));
    }

    #[test]
    fn covers_sets() {
        let in12 = Predicate::In(vec![v(1), v(2)]);
        let in123 = Predicate::In(vec![v(1), v(2), v(3)]);
        assert!(in123.covers(&in12));
        assert!(!in12.covers(&in123));
        assert!(in12.covers(&Predicate::Eq(v(1))));
        assert!(Predicate::Lt(v(5)).covers(&in12));
        // Empty set is covered by everything.
        assert!(Predicate::Eq(v(9)).covers(&Predicate::In(vec![])));
    }

    #[test]
    fn covers_strings() {
        let pre = |s: &str| Predicate::Prefix(s.into());
        assert!(pre("te").covers(&pre("temp")));
        assert!(!pre("temp").covers(&pre("te")));
        assert!(pre("te").covers(&Predicate::Eq(Value::from("temperature"))));
        assert!(Predicate::Contains("mp".into()).covers(&pre("tempest")));
        assert!(Predicate::Ne(Value::from("xyz")).covers(&pre("te")));
        assert!(!Predicate::Ne(Value::from("test")).covers(&pre("te")));
    }

    #[test]
    fn covers_locations() {
        let s1: BTreeSet<_> = [LocationId::new(1)].into();
        let s12: BTreeSet<_> = [LocationId::new(1), LocationId::new(2)].into();
        let p1 = Predicate::InLocations(s1);
        let p12 = Predicate::InLocations(s12);
        assert!(p12.covers(&p1));
        assert!(!p1.covers(&p12));
        assert!(p12.covers(&Predicate::Eq(Value::from(LocationId::new(2)))));
        assert!(Predicate::Ne(Value::from(LocationId::new(3))).covers(&p12));
        assert!(!Predicate::Ne(Value::from(LocationId::new(1))).covers(&p12));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Predicate::Eq(v(3)).to_string(), "== 3");
        assert_eq!(Predicate::MyLoc.to_string(), "in myloc");
        assert_eq!(Predicate::In(vec![v(1), v(2)]).to_string(), "in {1, 2}");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<bool>().prop_map(Value::Bool),
            (-20i64..20).prop_map(Value::Int),
            (-20i64..20).prop_map(|i| Value::Float(i as f64 / 2.0)),
            "[a-c]{0,3}".prop_map(Value::Str),
            (0u32..6).prop_map(|i| Value::Loc(LocationId::new(i))),
        ]
    }

    fn arb_predicate() -> impl Strategy<Value = Predicate> {
        let locset = proptest::collection::btree_set((0u32..6).prop_map(LocationId::new), 0..4);
        prop_oneof![
            Just(Predicate::Any),
            arb_value().prop_map(Predicate::Eq),
            arb_value().prop_map(Predicate::Ne),
            arb_value().prop_map(Predicate::Lt),
            arb_value().prop_map(Predicate::Le),
            arb_value().prop_map(Predicate::Gt),
            arb_value().prop_map(Predicate::Ge),
            proptest::collection::vec(arb_value(), 0..4).prop_map(Predicate::In),
            "[a-c]{0,2}".prop_map(Predicate::Prefix),
            "[a-c]{0,2}".prop_map(Predicate::Suffix),
            "[a-c]{0,2}".prop_map(Predicate::Contains),
            locset.prop_map(Predicate::InLocations),
        ]
    }

    proptest! {
        /// Soundness of covering: if p covers q, every value matching q
        /// must match p.
        #[test]
        fn covering_is_sound(p in arb_predicate(), q in arb_predicate(), v in arb_value()) {
            if p.covers(&q) && q.matches(&v) {
                prop_assert!(p.matches(&v), "p={p} q={q} v={v}");
            }
        }

        /// Covering is reflexive.
        #[test]
        fn covering_is_reflexive(p in arb_predicate()) {
            prop_assert!(p.covers(&p));
        }
    }
}
