//! Notifications: the messages conveyed by the notification service.
//!
//! A notification "reifies and describes an occurred event" (paper, §2). It
//! is an immutable bag of named attribute [`Value`]s plus publishing
//! metadata: the publisher's [`ClientId`], a per-publisher sequence number
//! (the basis of FIFO and duplicate detection throughout the mobility
//! protocols) and the publication time.
//!
//! The bag is one flat attribute set — every name in one `String`, one
//! entry per attribute — which a [`NotificationBuilder`] stages and
//! [`NotificationBuilder::publish`] moves into the notification as it is.
//! Decoding a received notification allocates the set's two buffers, one
//! string per string value and the notification itself, nothing per name.

use crate::codec::{self, need, wire_len, Count, Field, Reader};
use crate::digest::{Digest, Fnv1a};
use crate::error::CoreError;
use crate::id::ClientId;
use crate::time::SimTime;
use crate::value::Value;
use bytes::{Buf, BufMut};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Globally unique identifier of a notification: publisher plus
/// per-publisher sequence number.
///
/// Sequence numbers are the foundation of the end-to-end FIFO property that
/// the broker network preserves, and of duplicate suppression during
/// physical-mobility relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NotificationId {
    publisher: ClientId,
    seq: u64,
}

impl NotificationId {
    /// Creates an identifier from publisher and sequence number.
    pub const fn new(publisher: ClientId, seq: u64) -> Self {
        NotificationId { publisher, seq }
    }

    /// The publishing client.
    pub const fn publisher(self) -> ClientId {
        self.publisher
    }

    /// The per-publisher sequence number.
    pub const fn seq(self) -> u64 {
        self.seq
    }
}

impl fmt::Display for NotificationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.publisher, self.seq)
    }
}

/// An immutable published notification.
///
/// A notification owns its attribute set: cloning one copies the set. The
/// middleware shares notifications as `Arc<Notification>` wherever it
/// routes, buffers or replicates them, so it never clones one by value.
///
/// ```
/// use rebeca_core::{ClientId, Notification, SimTime};
///
/// let n = Notification::builder()
///     .attr("service", "temperature")
///     .attr("celsius", 20.5)
///     .publish(ClientId::new(7), 0, SimTime::from_millis(3));
/// assert_eq!(n.get("service").and_then(|v| v.as_str()), Some("temperature"));
/// assert_eq!(n.id().publisher(), ClientId::new(7));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Notification {
    id: NotificationId,
    published_at: SimTime,
    attrs: Attrs,
}

impl Notification {
    /// Starts building a notification's attribute set.
    pub fn builder() -> NotificationBuilder {
        NotificationBuilder::new()
    }

    /// A notification carrying `attrs` as they are.
    pub(crate) fn from_attrs(id: NotificationId, published_at: SimTime, attrs: Attrs) -> Self {
        Notification { id, published_at, attrs }
    }

    /// The globally unique identifier (publisher + sequence number).
    pub fn id(&self) -> NotificationId {
        self.id
    }

    /// The publishing client.
    pub fn publisher(&self) -> ClientId {
        self.id.publisher
    }

    /// The per-publisher sequence number.
    pub fn seq(&self) -> u64 {
        self.id.seq
    }

    /// When the notification was published.
    pub fn published_at(&self) -> SimTime {
        self.published_at
    }

    /// Looks up an attribute by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.attrs.get(name)
    }

    /// Iterates over attributes in name order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.attrs.iter()
    }

    /// Number of attributes.
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// Stable 64-bit content digest (identity *and* content), used by the
    /// shared-buffer scheme where virtual clients retain only digests.
    pub fn digest(&self) -> Digest {
        let mut h = Fnv1a::new();
        h.write_u32(self.id.publisher.raw());
        h.write_u64(self.id.seq);
        for (name, value) in self.attrs.iter() {
            h.write_u64(name.len() as u64);
            h.write(name.as_bytes());
            value.hash_into(&mut h);
        }
        h.finish()
    }

    /// Size of the compact wire encoding in bytes — exactly what
    /// [`Notification::encode`] writes; the simulator charges this against
    /// link bandwidth and the mobility buffers budget by it.
    pub fn wire_size(&self) -> usize {
        wire_len::<Notification>(self)
    }

    /// Encodes the notification into a byte buffer using the compact wire
    /// format. The inverse of [`Notification::decode`].
    pub fn encode(&self, buf: &mut impl BufMut) {
        Notification::put(self, buf);
    }

    /// Decodes a notification from the compact wire format. Attributes in
    /// any order decode to the notification the builder would have made of
    /// them: sorted by name, a repeated name keeping its last value.
    ///
    /// # Errors
    ///
    /// [`CoreError::Truncated`] if the buffer ends early,
    /// [`CoreError::BadTag`] for an unknown value tag and
    /// [`CoreError::Decode`] for invalid UTF-8 — the same errors, for the
    /// same bytes, as [`ArchivedNotification::parse`](crate::ArchivedNotification::parse).
    pub fn decode(buf: &mut impl Buf) -> Result<Notification, CoreError> {
        codec::decode::<Notification>(buf)
    }
}

/// A notification's attributes, flat: every name in one `String`, and one
/// entry per attribute — where its name sits in that string, and its value
/// — sorted by name, no name twice.
///
/// The builder inserts in place; a decode appends in wire order and sorts
/// once at the end ([`Attrs::canonicalise`]), so canonical bytes cost one
/// name comparison per adjacent pair.
#[derive(Debug, Clone, Default)]
pub(crate) struct Attrs {
    names: String,
    entries: Vec<Entry>,
}

/// One attribute of an [`Attrs`]: its name is `names[start..start + len]`.
#[derive(Debug, Clone)]
struct Entry {
    start: u32,
    len: u32,
    value: Value,
}

impl Entry {
    fn range(&self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The entry vector reserves no more than this many entries up front, the
/// name string no more than `NAMES_CAP` bytes, whatever a decode reads:
/// past these a set grows as it fills.
const ENTRIES_CAP: usize = 1024;
const NAMES_CAP: usize = 64 * 1024;

impl Attrs {
    /// An empty set with room for `entries` attributes whose names total
    /// `names` bytes.
    pub(crate) fn with_capacity(entries: usize, names: usize) -> Attrs {
        Attrs {
            names: String::with_capacity(names.min(NAMES_CAP)),
            entries: Vec::with_capacity(entries.min(ENTRIES_CAP)),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    fn name(&self, e: &Entry) -> &str {
        &self.names[e.range()]
    }

    // hot-path: begin attribute lookup — per filter constraint a
    // notification is checked against: a length comparison per entry, then
    // the bytes of the names as long; no `str` slicing, no allocation.
    /// Looks up an attribute by name.
    pub(crate) fn get(&self, name: &str) -> Option<&Value> {
        let (names, want) = (self.names.as_bytes(), name.as_bytes());
        self.entries
            .iter()
            .find(|e| e.len as usize == want.len() && names[e.range()] == *want)
            .map(|e| &e.value)
    }
    // hot-path: end

    /// The attributes in name order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|e| (self.name(e), &e.value))
    }

    /// Sets `name` to `value`, replacing a value it already has.
    pub(crate) fn insert(&mut self, name: &str, value: Value) {
        match self.entries.binary_search_by(|e| self.name(e).cmp(name)) {
            Ok(at) => self.entries[at].value = value,
            Err(at) => {
                let entry = self.entry(name, value);
                self.entries.insert(at, entry);
            }
        }
    }

    /// Appends one attribute behind the others, in whatever order; a set
    /// filled this way is canonicalised before it is read.
    pub(crate) fn push(&mut self, name: &str, value: Value) {
        let entry = self.entry(name, value);
        self.entries.push(entry);
    }

    /// Appends `name` to the name string; returns the entry naming it.
    fn entry(&mut self, name: &str, value: Value) -> Entry {
        let start = self.names.len() as u32;
        self.names.push_str(name);
        let end = u32::try_from(self.names.len()).expect("attribute names total under 4 GiB");
        Entry { start, len: end - start, value }
    }

    /// Sorts entries appended with [`Attrs::push`] by name and drops all
    /// but the last value of a repeated name — the set the builder makes
    /// of the same attributes. Sorted input is one comparison per pair.
    pub(crate) fn canonicalise(&mut self) {
        let names = &self.names;
        let name = |e: &Entry| &names[e.range()];
        if self.entries.windows(2).all(|w| name(&w[0]) < name(&w[1])) {
            return;
        }
        self.entries.sort_by(|a, b| name(a).cmp(name(b)));
        self.entries.dedup_by(|later, kept| {
            let same = name(later) == name(kept);
            if same {
                std::mem::swap(&mut later.value, &mut kept.value);
            }
            same
        });
    }
}

/// Two sets are equal when they hold the same names with the same values,
/// however their names are laid out.
impl PartialEq for Attrs {
    fn eq(&self, other: &Attrs) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// How many of the `count` attributes at the front of `bytes` are whole
/// there, and how many bytes their names take: the decode sizes its set by
/// what the bytes at hand hold, never by what a prefix claims.
fn measure(mut bytes: &[u8], count: usize) -> (usize, usize) {
    let u32_at = |b: &[u8], at: usize| {
        b.get(at..at + 4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize)
    };
    let mut names = 0;
    for whole in 0..count {
        let Some(len) = bytes.get(..2).map(|b| usize::from(u16::from_le_bytes([b[0], b[1]])))
        else {
            return (whole, names);
        };
        let value = match bytes.get(2 + len) {
            Some(0) => Some(1),
            Some(1 | 2) => Some(8),
            Some(3) => u32_at(bytes, 3 + len).map(|s| 4 + s),
            Some(4) => Some(4),
            _ => None,
        };
        match value.and_then(|v| bytes.get(3 + len + v..)) {
            Some(rest) => bytes = rest,
            None => return (whole, names),
        }
        names += len;
    }
    (count, names)
}

/// Appends a `len`-byte UTF-8 name read from `buf` to `names`; a name that
/// is not UTF-8 fails as [`Str`](crate::codec::Str) fails it.
fn read_name(buf: &mut impl Buf, len: usize, names: &mut String) -> Result<(), CoreError> {
    need(buf, len)?;
    if let Some(bytes) = buf.chunk().get(..len) {
        let name = std::str::from_utf8(bytes).map_err(|e| CoreError::Decode(e.to_string()))?;
        names.push_str(name);
        buf.advance(len);
    } else {
        // The name spans two chunks of a chained buffer.
        names.push_str(&codec::get_string(buf, len)?);
    }
    Ok(())
}

/// Attribute sets: a `u16` count, then per entry a `u16`-prefixed name and
/// the value. A repeated name keeps its last value.
impl Field for Attrs {
    type T = Self;
    fn put(attrs: &Self, buf: &mut impl BufMut) {
        u16::put(&u16::narrow(attrs.len()), buf);
        for e in &attrs.entries {
            u16::put(&u16::narrow(e.len as usize), buf);
            buf.put_slice(&attrs.names.as_bytes()[e.range()]);
            Value::put(&e.value, buf);
        }
    }
    fn get(r: &mut Reader<'_, impl Buf>) -> Result<Self, CoreError> {
        let count = u16::get(r)?.widen();
        let (entries, names) = measure(r.buf.chunk(), count);
        // The set's two deliberate allocations, sized by `measure`.
        let mut attrs = Attrs::with_capacity(entries, names);
        for _ in 0..count {
            let len = u16::get(r)?.widen();
            // At most 65 535 names of at most 65 535 bytes: under 4 GiB.
            let start = attrs.names.len() as u32;
            read_name(r.buf, len, &mut attrs.names)?;
            attrs.entries.push(Entry { start, len: len as u32, value: Value::get(r)? });
        }
        attrs.canonicalise();
        Ok(attrs)
    }
}

crate::wire_table! { struct NotificationId { publisher: ClientId, seq: u64 } }
crate::wire_table! { struct Notification {
    id: NotificationId, published_at: SimTime, attrs: Attrs,
}}
crate::wire_table! { struct NotificationBuilder { attrs: Attrs } }

impl fmt::Display for Notification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.id)?;
        for (i, (name, value)) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}={value}")?;
        }
        write!(f, "}}")
    }
}

/// Incremental builder for [`Notification`] attribute sets.
///
/// The builder stages the very set the notification will carry: each
/// [`attr`](NotificationBuilder::attr) copies its name into the set's one
/// name string, and the terminal [`NotificationBuilder::publish`] moves the
/// set into the notification without copying or allocating, attaching the
/// publisher identity, sequence number and timestamp (normally filled in
/// by the local broker).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NotificationBuilder {
    attrs: Attrs,
}

impl NotificationBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        NotificationBuilder::default()
    }

    /// Sets an attribute. Later values replace earlier ones with the same
    /// name.
    ///
    /// # Panics
    ///
    /// Panics if a non-finite `f64` is converted into a [`Value`]; use
    /// [`NotificationBuilder::try_attr`] for fallible insertion.
    #[must_use]
    pub fn attr(mut self, name: impl AsRef<str>, value: impl Into<Value>) -> Self {
        self.attrs.insert(name.as_ref(), value.into());
        self
    }

    /// Sets an attribute, validating float finiteness.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonFiniteFloat`] for NaN or infinite floats.
    pub fn try_attr(mut self, name: impl AsRef<str>, value: f64) -> Result<Self, CoreError> {
        let name = name.as_ref();
        let v = Value::try_float(value)
            .map_err(|_| CoreError::NonFiniteFloat { attribute: name.to_owned() })?;
        self.attrs.insert(name, v);
        Ok(self)
    }

    /// Number of attributes staged so far.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Returns `true` if no attribute has been staged.
    pub fn is_empty(&self) -> bool {
        self.attrs.len() == 0
    }

    /// Iterates the staged attributes in name order (used by the wire
    /// codec to ship unpublished attribute sets).
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.attrs.iter()
    }

    /// Finalises the notification with its publishing metadata, moving the
    /// staged set into it.
    pub fn publish(self, publisher: ClientId, seq: u64, at: SimTime) -> Notification {
        Notification::from_attrs(NotificationId::new(publisher, seq), at, self.attrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::LocationId;
    use std::collections::BTreeMap;

    fn sample() -> Notification {
        Notification::builder()
            .attr("service", "temperature")
            .attr("celsius", 21.5)
            .attr("room", 104i64)
            .attr("location", LocationId::new(3))
            .attr("stable", true)
            .publish(ClientId::new(2), 9, SimTime::from_millis(42))
    }

    #[test]
    fn builder_sets_metadata_and_attrs() {
        let n = sample();
        assert_eq!(n.id(), NotificationId::new(ClientId::new(2), 9));
        assert_eq!(n.publisher(), ClientId::new(2));
        assert_eq!(n.seq(), 9);
        assert_eq!(n.published_at(), SimTime::from_millis(42));
        assert_eq!(n.attr_count(), 5);
        assert_eq!(n.get("room").and_then(|v| v.as_int()), Some(104));
        assert_eq!(n.get("missing"), None);
    }

    #[test]
    fn attr_replaces_duplicates() {
        let n = Notification::builder().attr("a", 1i64).attr("a", 2i64).publish(
            ClientId::new(0),
            0,
            SimTime::ZERO,
        );
        assert_eq!(n.attr_count(), 1);
        assert_eq!(n.get("a").and_then(|v| v.as_int()), Some(2));
    }

    #[test]
    fn try_attr_rejects_nan() {
        let r = Notification::builder().try_attr("x", f64::NAN);
        assert!(matches!(r, Err(CoreError::NonFiniteFloat { attribute }) if attribute == "x"));
        assert!(Notification::builder().try_attr("x", 1.0).is_ok());
    }

    #[test]
    fn clone_equals_the_original() {
        let n = sample();
        let c = n.clone();
        assert_eq!(n, c);
        assert_eq!(n.digest(), c.digest());
    }

    #[test]
    fn digest_distinguishes_content_and_identity() {
        let a = Notification::builder().attr("k", 1i64).publish(ClientId::new(1), 0, SimTime::ZERO);
        let b = Notification::builder().attr("k", 2i64).publish(ClientId::new(1), 0, SimTime::ZERO);
        let c = Notification::builder().attr("k", 1i64).publish(ClientId::new(1), 1, SimTime::ZERO);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn encode_decode_round_trip() {
        let n = sample();
        let mut buf = bytes::BytesMut::new();
        n.encode(&mut buf);
        assert_eq!(buf.len(), n.wire_size());
        let mut cursor = buf.freeze();
        let back = Notification::decode(&mut cursor).expect("decode");
        assert_eq!(back, n);
        assert_eq!(back.digest(), n.digest());
    }

    #[test]
    fn decode_rejects_truncation_and_bad_tags() {
        let n = sample();
        let mut buf = bytes::BytesMut::new();
        n.encode(&mut buf);
        let full = buf.freeze();
        for cut in [0, 1, 5, full.len() - 1] {
            let mut slice = full.slice(..cut);
            assert!(Notification::decode(&mut slice).is_err(), "cut at {cut}");
        }
        // Corrupt a value tag.
        let mut bytes = full.to_vec();
        // Header is 22 bytes, then 2-byte name length; find first tag byte:
        let name_len = u16::from_le_bytes([bytes[22], bytes[23]]) as usize;
        bytes[24 + name_len] = 250;
        let mut b = bytes::Bytes::from(bytes);
        assert!(Notification::decode(&mut b).is_err());
    }

    /// Encodes a notification body by hand: attributes in the given order,
    /// repeats and all, as a foreign encoder might.
    pub(super) fn foreign(attrs: &[(&str, Value)]) -> Vec<u8> {
        let mut buf = Vec::new();
        NotificationId::put(&NotificationId::new(ClientId::new(5), 6), &mut buf);
        SimTime::put(&SimTime::from_micros(7), &mut buf);
        u16::put(&(attrs.len() as u16), &mut buf);
        for (name, value) in attrs {
            u16::put(&(name.len() as u16), &mut buf);
            buf.put_slice(name.as_bytes());
            Value::put(value, &mut buf);
        }
        buf
    }

    #[test]
    fn foreign_order_decodes_sorted_with_the_last_value() {
        let attrs = [
            ("room", Value::Int(1)),
            ("celsius", Value::Float(20.5)),
            ("room", Value::Int(2)),
            ("a", Value::from("x")),
            ("room", Value::Int(3)),
            ("celsius", Value::Float(21.5)),
        ];
        let bytes = foreign(&attrs);
        let n = Notification::decode(&mut bytes.as_slice()).expect("decode");
        // What a map of the same bytes gives: inserted in wire order.
        let map: BTreeMap<&str, &Value> = attrs.iter().map(|(k, v)| (*k, v)).collect();
        assert!(n.attrs().eq(map.into_iter()), "{n}");
        assert_eq!(n.to_string(), "C5#6{a='x', celsius=21.5, room=3}");
        let built = attrs.iter().fold(Notification::builder(), |b, (k, v)| b.attr(k, v.clone()));
        assert_eq!(n, built.publish(ClientId::new(5), 6, SimTime::from_micros(7)));
        let (view, _) = crate::ArchivedNotification::parse(&bytes).expect("parse");
        assert_eq!(view.to_notification(), n);
        // Re-encoded, the set is canonical: one attribute per name, sorted.
        let canonical =
            [("a", Value::from("x")), ("celsius", Value::Float(21.5)), ("room", Value::Int(3))];
        let mut again = Vec::new();
        n.encode(&mut again);
        assert_eq!(again, foreign(&canonical));
    }

    #[test]
    fn lookup_compares_whole_names() {
        let n = Notification::builder().attr("ab", 1i64).attr("abc", 2i64).attr("b", 3i64).publish(
            ClientId::new(0),
            0,
            SimTime::ZERO,
        );
        assert_eq!(n.get("ab"), Some(&Value::Int(1)));
        assert_eq!(n.get("abc"), Some(&Value::Int(2)));
        assert_eq!(n.get("a"), None);
        assert_eq!(n.get("abcd"), None);
        assert_eq!(n.get(""), None);
    }

    #[test]
    fn equality_ignores_the_name_layout() {
        let a = Notification::builder().attr("x", 1i64).attr("y", 2i64);
        let b = Notification::builder().attr("y", 0i64).attr("x", 1i64).attr("y", 2i64);
        assert_eq!(a, b);
        assert_ne!(a, b.clone().attr("y", 3i64));
        assert_ne!(a, b.attr("z", 2i64));
    }

    #[test]
    fn display_is_compact() {
        let n = Notification::builder().attr("service", "x").publish(
            ClientId::new(1),
            2,
            SimTime::ZERO,
        );
        assert_eq!(n.to_string(), "C1#2{service='x'}");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::id::LocationId;
    use crate::value::Value;
    use proptest::prelude::*;

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (-1e12f64..1e12).prop_map(Value::Float),
            ".{0,24}".prop_map(Value::Str),
            any::<u32>().prop_map(|i| Value::Loc(LocationId::new(i))),
        ]
    }

    fn arb_notification() -> impl Strategy<Value = Notification> {
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::btree_map("[a-z]{1,8}", arb_value(), 0..6),
        )
            .prop_map(|(publisher, seq, at, attrs)| {
                let mut b = Notification::builder();
                for (k, v) in attrs {
                    b = b.attr(k, v);
                }
                b.publish(ClientId::new(publisher), seq, SimTime::from_micros(at))
            })
    }

    proptest! {
        /// The set a builder stages does not depend on the order the
        /// attributes were given in: any rotation of the same distinct
        /// attributes builds an equal set, with the same bytes and digest.
        #[test]
        fn builder_order_does_not_matter(
            attrs in proptest::collection::btree_map("[a-z]{0,6}", arb_value(), 0..8),
            turn in 0usize..8,
            reverse in any::<bool>(),
        ) {
            let mut order: Vec<_> = attrs.into_iter().collect();
            let sorted = order.clone();
            let turn = turn.min(order.len());
            order.rotate_left(turn);
            if reverse {
                order.reverse();
            }
            let build = |attrs: &[(String, Value)]| {
                attrs
                    .iter()
                    .fold(Notification::builder(), |b, (k, v)| b.attr(k, v.clone()))
                    .publish(ClientId::new(3), 4, SimTime::ZERO)
            };
            let (a, b) = (build(&sorted), build(&order));
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(a.digest(), b.digest());
            let (mut x, mut y) = (Vec::new(), Vec::new());
            a.encode(&mut x);
            b.encode(&mut y);
            prop_assert_eq!(x, y);
            prop_assert!(b.attrs().map(|(k, _)| k).eq(sorted.iter().map(|(k, _)| k.as_str())));
        }

        /// Bytes with names in any order, repeats included, decode to the
        /// map that inserting them in wire order gives: sorted, the last
        /// value of a name kept.
        #[test]
        fn foreign_bytes_decode_as_the_map(
            attrs in proptest::collection::vec(("[a-c]{0,2}", arb_value()), 0..10),
        ) {
            let attrs: Vec<(&str, Value)> =
                attrs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
            let bytes = super::tests::foreign(&attrs);
            let n = Notification::decode(&mut bytes.as_slice()).expect("decode");
            let map: std::collections::BTreeMap<&str, &Value> =
                attrs.iter().map(|(k, v)| (*k, v)).collect();
            prop_assert_eq!(n.attr_count(), map.len());
            prop_assert!(n.attrs().eq(map.iter().map(|(k, v)| (*k, *v))));
            for (k, v) in &map {
                prop_assert_eq!(n.get(k), Some(*v));
            }
        }

        /// The compact wire codec round-trips every notification, and the
        /// size estimator is exact.
        #[test]
        fn codec_round_trip(n in arb_notification()) {
            let mut buf = bytes::BytesMut::new();
            n.encode(&mut buf);
            prop_assert_eq!(buf.len(), n.wire_size());
            let mut bytes = buf.freeze();
            let back = Notification::decode(&mut bytes).expect("decode");
            prop_assert_eq!(&back, &n);
            prop_assert_eq!(back.digest(), n.digest());
            prop_assert_eq!(bytes.remaining(), 0, "codec must consume exactly its bytes");
        }

        /// Truncating an encoded notification at any point fails cleanly
        /// (never panics, never yields a bogus value).
        #[test]
        fn codec_rejects_truncation(n in arb_notification(), cut_ratio in 0.0f64..1.0) {
            let mut buf = bytes::BytesMut::new();
            n.encode(&mut buf);
            let full = buf.freeze();
            let cut = ((full.len() as f64) * cut_ratio) as usize;
            if cut < full.len() {
                let mut slice = full.slice(..cut);
                // Decoding may fail (normal) or succeed only if the cut
                // kept a valid prefix — impossible here because the attr
                // count in the header promises more data.
                if n.attr_count() > 0 || cut < 22 {
                    prop_assert!(Notification::decode(&mut slice).is_err());
                }
            }
        }
    }
}
