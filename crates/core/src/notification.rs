//! Notifications: the messages conveyed by the notification service.
//!
//! A notification "reifies and describes an occurred event" (paper, §2). It
//! is an immutable bag of named attribute [`Value`]s plus publishing
//! metadata: the publisher's [`ClientId`], a per-publisher sequence number
//! (the basis of FIFO and duplicate detection throughout the mobility
//! protocols) and the publication time.

use crate::codec::{self, wire_len, Count, Field, Reader, Str};
use crate::digest::{Digest, Fnv1a};
use crate::error::CoreError;
use crate::id::ClientId;
use crate::time::SimTime;
use crate::value::Value;
use bytes::{Buf, BufMut};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

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
/// Attribute maps are shared behind an [`Arc`], so cloning a notification —
/// which the middleware does constantly while routing, buffering and
/// replicating — is cheap.
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
    attrs: Arc<BTreeMap<String, Value>>,
}

impl Notification {
    /// Starts building a notification's attribute set.
    pub fn builder() -> NotificationBuilder {
        NotificationBuilder::new()
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
        self.attrs.iter().map(|(k, v)| (k.as_str(), v))
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

    /// Decodes a notification from the compact wire format.
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

/// Attribute sets: each entry a `u16`-prefixed name, then the value. A
/// repeated name keeps its last value.
impl Field for BTreeMap<String, Value> {
    type T = Self;
    fn put(m: &Self, buf: &mut impl BufMut) {
        u16::put(&u16::narrow(m.len()), buf);
        for (name, value) in m {
            Str::<u16>::put(name, buf);
            Value::put(value, buf);
        }
    }
    fn get(r: &mut Reader<'_, impl Buf>) -> Result<Self, CoreError> {
        let mut out = BTreeMap::new();
        for _ in 0..u16::get(r)? {
            out.insert(Str::<u16>::get(r)?, Value::get(r)?);
        }
        Ok(out)
    }
}

crate::wire_table! { struct NotificationId { publisher: ClientId, seq: u64 } }
crate::wire_table! { struct Notification {
    id: NotificationId, published_at: SimTime, attrs: Arc<BTreeMap<String, Value>>,
}}
crate::wire_table! { struct NotificationBuilder { attrs: BTreeMap<String, Value> } }

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
/// The terminal method is [`NotificationBuilder::publish`], which attaches
/// the publisher identity, sequence number and timestamp (normally filled in
/// by the local broker).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NotificationBuilder {
    attrs: BTreeMap<String, Value>,
}

impl NotificationBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        NotificationBuilder { attrs: BTreeMap::new() }
    }

    /// Sets an attribute. Later values replace earlier ones with the same
    /// name.
    ///
    /// # Panics
    ///
    /// Panics if a non-finite `f64` is converted into a [`Value`]; use
    /// [`NotificationBuilder::try_attr`] for fallible insertion.
    #[must_use]
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.attrs.insert(name.into(), value.into());
        self
    }

    /// Sets an attribute, validating float finiteness.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonFiniteFloat`] for NaN or infinite floats.
    pub fn try_attr(mut self, name: impl Into<String>, value: f64) -> Result<Self, CoreError> {
        let name = name.into();
        let v = Value::try_float(value)
            .map_err(|_| CoreError::NonFiniteFloat { attribute: name.clone() })?;
        self.attrs.insert(name, v);
        Ok(self)
    }

    /// Number of attributes staged so far.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Returns `true` if no attribute has been staged.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterates the staged attributes in name order (used by the wire
    /// codec to ship unpublished attribute sets).
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Finalises the notification with its publishing metadata.
    pub fn publish(self, publisher: ClientId, seq: u64, at: SimTime) -> Notification {
        Notification {
            id: NotificationId::new(publisher, seq),
            published_at: at,
            attrs: Arc::new(self.attrs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::LocationId;

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
    fn clone_is_shallow_and_equal() {
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
